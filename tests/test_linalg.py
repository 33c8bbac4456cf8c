import random
from fractions import Fraction

import pytest

from arrange.linalg import (CompositionNonzero, RationalMatrix, ShapeMismatch,
                            echelon, homology_dim, product_is_zero, rref)
from helpers import (dense, minor_rank, reduce_against, reference_echelon_rows,
                     reference_rref)


def test_rank_identity():
    assert RationalMatrix.identity(3).rank() == 3


def test_rank_zero_matrix():
    assert RationalMatrix.zeros(2, 2).rank() == 0


def test_rank_proportional_rows():
    assert RationalMatrix.from_rows([[1, 2], [2, 4]]).rank() == 1


def test_kernel_identity():
    m = RationalMatrix.identity(3)
    assert m.cols - m.rank() == 0


def test_kernel_zero():
    m = RationalMatrix.zeros(2, 3)
    assert m.cols - m.rank() == 3


def test_kernel_two_by_three():
    # x + y = 0, y + z = 0 leaves the line (1, -1, 1)
    m = RationalMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
    assert m.cols - m.rank() == 1


def test_homology_zero_differentials():
    d_in = RationalMatrix.zeros(2, 1)
    d_out = RationalMatrix.zeros(1, 2)
    assert homology_dim(d_in, d_out) == 2


def test_homology_exact_sequence():
    d_in = RationalMatrix.from_rows([[1], [-1]])
    d_out = RationalMatrix.from_rows([[1, 1]])
    assert homology_dim(d_in, d_out) == 0


def test_homology_kernel_of_sum():
    d_in = RationalMatrix.zeros(2, 1)
    d_out = RationalMatrix.from_rows([[1, 1]])
    assert homology_dim(d_in, d_out) == 1


def test_homology_rejects_nonzero_composition():
    d_in = RationalMatrix.identity(2)
    d_out = RationalMatrix.identity(2)
    with pytest.raises(CompositionNonzero):
        homology_dim(d_in, d_out)


def test_homology_rejects_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        homology_dim(RationalMatrix.zeros(3, 1), RationalMatrix.zeros(1, 2))


def test_mul_shape_check():
    with pytest.raises(ShapeMismatch):
        RationalMatrix.zeros(2, 3) * RationalMatrix.zeros(2, 3)


def _random_matrix(rng, rows, cols, density=0.7):
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                v = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                if v:
                    entries[(i, j)] = v
    return RationalMatrix(rows, cols, entries)


def test_rank_equals_transpose_rank():
    rng = random.Random(7)
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert m.rank() == m.transpose().rank()


def test_rank_against_minor_oracle():
    rng = random.Random(11)
    for _ in range(30):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = _random_matrix(rng, rows, cols)
        assert m.rank() == minor_rank(dense(m))


def test_kernel_plus_rank_is_cols():
    rng = random.Random(13)
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert minor_rank(dense(m)) + len(m.kernel_basis()) == m.cols


def test_kernel_basis_in_kernel():
    rng = random.Random(17)
    for _ in range(25):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        basis = m.kernel_basis()
        assert len(basis) == m.cols - m.rank()
        for vec in basis:
            col = RationalMatrix(m.cols, 1, {(i, 0): v for i, v in enumerate(vec)})
            assert (m * col).is_zero()


def _shear(n, i, j, k):
    entries = {(a, a): 1 for a in range(n)}
    entries[(i, j)] = Fraction(k)
    return RationalMatrix(n, n, entries)


def test_homology_invariant_under_basis_change():
    # random complex: d_in maps into ker(d_out); conjugate the middle space
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(2, 5)
        d_out = _random_matrix(rng, rng.randint(1, 4), n)
        kb = d_out.kernel_basis()
        s = rng.randint(1, 3)
        entries = {}
        for col in range(s):
            coeffs = [rng.randint(-2, 2) for _ in kb]
            for i in range(n):
                v = sum(c * vec[i] for c, vec in zip(coeffs, kb))
                if v:
                    entries[(i, col)] = v
        d_in = RationalMatrix(n, s, entries)
        h = homology_dim(d_in, d_out)
        u = RationalMatrix.identity(n)
        u_inv = RationalMatrix.identity(n)
        for _ in range(4):
            i, j = rng.sample(range(n), 2)
            k = rng.randint(-3, 3)
            u = _shear(n, i, j, k) * u
            u_inv = u_inv * _shear(n, i, j, -k)
        assert (u * u_inv) == RationalMatrix.identity(n)
        assert homology_dim(u * d_in, d_out * u_inv) == h


def test_rref_is_canonical():
    a, _ = rref([[2, 4, 0], [1, 2, 1]])
    b, _ = rref([[1, 2, 1], [3, 6, 2]])
    assert a == b


def test_rref_equals_reference_gauss_jordan():
    # rref is read off the integer echelon; the Fraction Gauss-Jordan
    # reference must give the same rows and pivots, down to the repr
    rng = random.Random(53)

    def entry(density):
        if rng.random() >= density:
            return 0
        v = rng.randint(-4, 4)
        if rng.random() < 0.4:
            return Fraction(v, rng.randint(1, 5))
        return v

    cases = [[], [[0, 0, 0]], [[0], [0]], [[3]], [[0], [Fraction(-2, 3)], [5]],
             [[1, 2, 3], [1, 2, 3], [2, 4, 6]]]
    for _ in range(2400):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        density = rng.random()
        rows = [[entry(density) for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.25:
            rows.append(list(rng.choice(rows)))        # a repeated row
        if rng.random() < 0.15:
            rows.insert(rng.randrange(len(rows) + 1), [0] * ncols)
        cases.append(rows)
    assert sum(len(rows) and len(rows[0]) == 1 for rows in cases) > 50
    for rows in cases:
        got, expected = rref(rows), reference_rref(rows)
        assert got == expected and repr(got) == repr(expected), rows


def test_reduce_against_membership():
    reduced, _ = rref([[1, 0, 2], [0, 1, 3]])
    assert not any(reduce_against([2, 1, 7], reduced))
    assert any(reduce_against([0, 0, 1], reduced))


def test_sparse_path_large_matrix():
    # above the dense threshold; block identity has known rank
    n = 70
    m = RationalMatrix(n, n, {(i, i): Fraction(1) for i in range(0, n, 2)})
    assert m.rank() == 35


def _block_diagonal(rng, blocks, extra_rows, extra_cols):
    """Small random blocks (non-integer entries) on the diagonal of a larger
    matrix, padded with zero rows and columns and shuffled; returns the
    matrix and the blocks."""
    parts = [dense(_random_matrix(rng, r, c)) for r, c in blocks]
    nrows = sum(len(b) for b in parts) + extra_rows
    ncols = sum(len(b[0]) for b in parts) + extra_cols
    row_perm = list(range(nrows))
    col_perm = list(range(ncols))
    rng.shuffle(row_perm)
    rng.shuffle(col_perm)
    entries = {}
    r0 = c0 = 0
    for b in parts:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                if v:
                    entries[(row_perm[r0 + i], col_perm[c0 + j])] = v
        r0 += len(b)
        c0 += len(b[0])
    return RationalMatrix(nrows, ncols, entries), parts


def test_echelon_rank_against_minor_oracle_beyond_dense_limit():
    # the rank of a block-diagonal matrix is the sum of the block ranks,
    # each taken by minor expansion; shapes reach past 64x64
    rng = random.Random(29)
    for _ in range(6):
        blocks = [(rng.randint(1, 4), rng.randint(1, 4))
                  for _ in range(rng.randint(30, 40))]
        m, parts = _block_diagonal(rng, blocks, rng.randint(0, 5),
                                   rng.randint(0, 5))
        assert max(m.rows, m.cols) > 64
        assert any(v.denominator > 1 for row in m.by_row.values()
                   for v in row.values())
        expected = sum(minor_rank(b) for b in parts)
        assert echelon(m).rank == m.rank() == expected
        assert m.transpose().rank() == expected


def test_echelon_rank_against_minor_oracle_dense_rationals():
    rng = random.Random(31)
    for _ in range(60):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5),
                           density=rng.random())
        assert echelon(m).rank == minor_rank(dense(m))


def _rref_kernel(m):
    """The kernel basis that the reduced row echelon form gives."""
    reduced, pivots = reference_rref(dense(m)) if m.rows else ((), ())
    basis = []
    for f in (c for c in range(m.cols) if c not in pivots):
        vec = [Fraction(0)] * m.cols
        vec[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][f]
        basis.append(tuple(vec))
    return basis


def test_kernel_basis_equals_reduced_echelon_kernel():
    rng = random.Random(37)
    cases = [_random_matrix(rng, rng.randint(0, 7), rng.randint(1, 7),
                            density=rng.random()) for _ in range(80)]
    cases += [_block_diagonal(rng, [(rng.randint(1, 3), rng.randint(1, 4))
                                    for _ in range(25)], 3, 4)[0]
              for _ in range(2)]
    for m in cases:
        basis = m.kernel_basis()
        assert basis == _rref_kernel(m)
        assert all(isinstance(x, Fraction) for vec in basis for x in vec)


def test_echelon_pivots_match_min_scan():
    # sparse rows of two or three entries tie on length at almost every
    # pivot, and the entries are stored in shuffled row order, so the
    # first-in-input-order tie break is exercised away from row index order
    rng = random.Random(47)
    for _ in range(60):
        nrows, ncols = rng.randint(5, 40), rng.randint(4, 30)
        entries = {}
        for i in range(nrows):
            for j in rng.sample(range(ncols), rng.randint(2, min(3, ncols))):
                entries[(i, j)] = rng.choice([-3, -2, -1, 1, 2, 3])
        keys = list(entries)
        rng.shuffle(keys)
        m = RationalMatrix(nrows, ncols, {k: entries[k] for k in keys})
        assert list(echelon(m).rows.items()) == \
            list(reference_echelon_rows(m).items())


def test_product_is_zero_matches_product():
    rng = random.Random(41)
    for _ in range(60):
        a = _random_matrix(rng, rng.randint(1, 4), 3, density=0.4)
        b = _random_matrix(rng, 3, rng.randint(1, 4), density=0.4)
        assert product_is_zero(a, b) == (a * b).is_zero()
    d_out = RationalMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)]])
    d_in = RationalMatrix.from_rows([[Fraction(2, 3)], [-1]])
    assert product_is_zero(d_out, d_in)
    with pytest.raises(ShapeMismatch):
        product_is_zero(d_out, d_out)
