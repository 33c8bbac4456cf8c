import random
import subprocess
import sys
from fractions import Fraction

import pytest

import arrange.cli as cli
import arrange.linalg as linalg
import arrange.spectral as spectral
from arrange.errors import ArrangeError
from arrange.linalg import RationalMatrix
from arrange.models import (abstract_model, configuration_model,
                            hyperplane_model, os_oracle)
from arrange.polys import IntPoly
from arrange.projective import ProjProduct
from arrange.spectral import (Infeasible, MalformedCell, MissingStratumData,
                              NotComposable, SpectralPage, WeightedCell,
                              assemble_e2, build_differential, feasibility,
                              run, skew_row_homology)
from arrange.stalks import decompose
from helpers import (braid_forms, cell_labels, child_env, coordinate_forms,
                     criterion_10_models, dense, enumerate_feasibility,
                     explicit_page,
                     random_generic_projective_forms,
                     reference_basis_labels, reference_differential_config,
                     reference_differential_ncd, reference_rref,
                     run_explicit)

BOOLEAN_P2 = [([1, 0, 0], 0), ([0, 1, 0], 0), ([0, 0, 1], 0)]
TWO_POINTS_P1 = [([1, 0], 0), ([0, 1], 0)]


def assemble(model):
    dec = decompose(model)
    return assemble_e2(model, dec)


def cell_dims(page):
    return {key: cell.dim for key, cell in page.cells.items()}


def test_assemble_single_hypersurface_rows():
    # one smooth hypersurface in P^2: ambient row plus its shifted row
    m = hyperplane_model([([1, 0, 0], 0)], mode="projective")
    page = assemble(m)
    assert cell_dims(page) == {(0, 0): 1, (2, 0): 1, (4, 0): 1,
                               (0, 1): 1, (2, 1): 1}
    assert page.weight(2, 1) == 4


def test_assemble_boolean_p2_rows():
    m = hyperplane_model(BOOLEAN_P2, mode="projective")
    page = assemble(m)
    assert cell_dims(page) == {(0, 0): 1, (2, 0): 1, (4, 0): 1,
                               (0, 1): 3, (2, 1): 3, (0, 2): 3}
    assert page.weight(0, 1) == 2
    assert page.weight(2, 1) == 4
    assert page.weight(0, 2) == 4


def test_assemble_configuration_p2_pair():
    # c = 2: rows only at q = 0 and q = 3
    m = configuration_model(ProjProduct((2,)), 2)
    page = assemble(m)
    assert {q for (_, q) in page.cells} == {0, 3}
    assert cell_dims(page)[(0, 3)] == 1
    assert page.weight(0, 3) == 4
    assert page.weight(2, 3) == 6


def test_assemble_missing_stratum_data():
    # one entry dropped from the strata: a summand's support, then the
    # bottom flat, whose stratum gives the ambient row
    m = hyperplane_model(BOOLEAN_P2, mode="projective")
    dec = decompose(m)
    strata = m.strata
    for flat in (dec.summands[-1].support, m.poset.bottom):
        m.strata = {f: data for f, data in strata.items() if f != flat}
        with pytest.raises(MissingStratumData, match=rf"flat {flat}$"):
            assemble_e2(m, dec)


def test_two_points_in_p1():
    # the complement is the punctured affine line
    m = hyperplane_model(TWO_POINTS_P1, mode="projective")
    page, res = run_explicit(m)
    block = page.differential[(0, 1)]
    assert (block.rows, block.cols) == (1, 2)
    assert block.rank() == 1
    assert res.betti == IntPoly([1, 1])
    assert res.weights.get((1, 2), 0) == 1


def test_boolean_p2_ranks_and_limit():
    m = hyperplane_model(BOOLEAN_P2, mode="projective")
    page, res = run_explicit(m)
    assert res.ranks == {(0, 1): 1, (0, 2): 2, (2, 1): 1}
    assert res.betti == IntPoly([1, 2, 1])
    assert res.betti == os_oracle(m.poset)
    assert res.weights.get((1, 2), 0) == 2
    assert res.weights.get((2, 4), 0) == 1


def test_configuration_f_p1_2():
    m = configuration_model(ProjProduct((1,)), 2)
    page, res = run_explicit(m)
    assert res.betti == IntPoly([1, 0, 1])
    assert res.weights.get((2, 2), 0) == 1


def test_configuration_f_p1_3():
    m = configuration_model(ProjProduct((1,)), 3)
    page, res = run_explicit(m)
    assert res.betti == IntPoly([1, 0, 0, 1])
    assert res.weights.get((3, 4), 0) == 1


def test_configuration_f_p2_2():
    m = configuration_model(ProjProduct((2,)), 2)
    page, res = run_explicit(m)
    assert res.betti == IntPoly([1, 0, 2, 0, 2, 0, 1])
    for k in (0, 2, 4, 6):
        assert res.weights.get((k, k), 0) == res.betti.coeff(k)


def test_configuration_f_p1xp1_2():
    # product factor: F(P1xP1, 2); chi(F(Y,2)) = chi(Y)(chi(Y) - 1) by
    # point counting, an oracle independent of the page bookkeeping
    m = configuration_model(ProjProduct((1, 1)), 2)
    page, res = run_explicit(m)
    assert res.euler == page.euler() == 4 * 3
    assert res.betti.coeff(0) == 1 and res.betti.coeff(1) == 0


def test_configuration_three_points_product_base():
    # n = 3 over a multi-factor base exercises the multiplicity-space
    # blocks with c = 2; chi(F(Y,3)) = chi(Y)(chi(Y)-1)(chi(Y)-2)
    m = configuration_model(ProjProduct((1, 1)), 3)
    page, res = run_explicit(m)
    page.check_differential()
    assert res.euler == 4 * 3 * 2
    assert res.betti.coeff(0) == 1 and res.betti.coeff(1) == 0

    m2 = configuration_model(ProjProduct((2,)), 3)
    page2, res2 = run_explicit(m2)
    page2.check_differential()
    assert res2.euler == 3 * 2 * 1
    assert res2.betti.coeff(0) == 1


def config_p1_weights(n):
    """The weight-graded Betti numbers of F(P^1, n) = PGL_2 x M_{0,n} as
    {(degree, weight): dim}: the coefficients of (1 + t^3 u^4) times
    (1 + j t u^2) for 2 <= j <= n - 2 (Arnold 1969)."""
    poly = {(0, 0): 1, (3, 4): 1}
    for j in range(2, n - 1):
        grown = {}
        for (k, w), dim in poly.items():
            grown[(k, w)] = grown.get((k, w), 0) + dim
            grown[(k + 1, w + 2)] = grown.get((k + 1, w + 2), 0) + j * dim
        poly = grown
    return poly


@pytest.mark.parametrize("n", [4, 5, 6])
def test_points_on_p1_give_the_closed_form(n):
    _, res = run_explicit(configuration_model(ProjProduct((1,)), n))
    expected = config_p1_weights(n)
    assert res.weights == expected
    betti = [sum(d for (k, _), d in expected.items() if k == degree)
             for degree in range(n + 1)]
    assert res.betti == IntPoly(betti)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_braid_models_give_the_oracle_and_pure_weights(n):
    # braid arrangements in P^(n-1) are not normal crossings
    model = hyperplane_model(braid_forms(n), mode="projective")
    assert not model.ncd
    _, res = run_explicit(model)
    assert res.betti == os_oracle(model.poset)
    assert all(w == 2 * k for (k, w), _ in res.weights.items())


def test_run_zero_differential_keeps_page():
    m = hyperplane_model([([1, 0, 0], 0)], mode="projective")
    page = assemble(m).with_differential({})
    res = run(page)
    assert res.homology == cell_dims(page)
    # with a zero differential the page survives verbatim: one cell on each
    # antidiagonal 0..4
    assert res.betti == IntPoly([1, 1, 1, 1, 1])


def test_d_squared_checked():
    cells = {
        (0, 2): WeightedCell((("a", (0,), 1),)),
        (2, 1): WeightedCell((("b", (0,), 1),)),
        (4, 0): WeightedCell((("c", (0,), 1),)),
    }
    bad = {
        (0, 2): RationalMatrix.from_rows([[1]]),
        (2, 1): RationalMatrix.from_rows([[1]]),
    }
    page = SpectralPage(1, cells, differential=bad)
    with pytest.raises(NotComposable):
        run(page)


def test_skew_row_punctured_line():
    m = hyperplane_model(TWO_POINTS_P1, mode="projective")
    page, res = run_explicit(m)
    assert skew_row_homology(page, 1, 1) == 1   # weight-2 piece of H^1
    assert skew_row_homology(page, 0, 0) == 1
    assert skew_row_homology(page, 1, 0) == 0
    assert skew_row_homology(page, 2, 1) == 0


def test_skew_row_boolean_p2():
    m = hyperplane_model(BOOLEAN_P2, mode="projective")
    page, res = run_explicit(m)
    assert skew_row_homology(page, 2, 2) == 1   # weight-4 piece of H^2
    assert skew_row_homology(page, 1, 1) == 2
    assert skew_row_homology(page, 2, 0) == 0


def test_skew_rows_match_weight_table_everywhere():
    for forms in (BOOLEAN_P2, TWO_POINTS_P1):
        m = hyperplane_model(forms, mode="projective")
        page, res = run_explicit(m)
        maxq = max(q for (_, q) in page.cells)
        maxk = max(p + q for (p, q) in page.cells)
        for k in range(maxk + 1):
            for ell in range(maxq + 1):
                assert skew_row_homology(page, k, ell) == \
                    res.weights.get((k, k + ell), 0)


def test_euler_preserved_by_run():
    for build in (
            lambda: hyperplane_model(BOOLEAN_P2, mode="projective"),
            lambda: configuration_model(ProjProduct((1,)), 3),
            lambda: configuration_model(ProjProduct((2,)), 2)):
        m = build()
        page, res = run_explicit(m)
        limit = sum((-1) ** (p + q) * h for (p, q), h in res.homology.items())
        assert page.euler() == limit == res.euler


def test_feasibility_boolean_p2_unique():
    m = hyperplane_model(BOOLEAN_P2, mode="projective")
    page = assemble(m)
    res = feasibility(page, IntPoly([1, 2, 1]))
    assert res.feasible and res.unique
    assert res.ranks == {(0, 1): 1, (0, 2): 2, (2, 1): 1}


def test_feasibility_euler_only():
    m = hyperplane_model(BOOLEAN_P2, mode="projective")
    page = assemble(m)
    res = feasibility(page)
    assert res.euler == 0      # the complement is a torus
    assert res.bounds[0] == (1, 1)
    assert res.feasible is None


def test_feasibility_infeasible_target():
    m = hyperplane_model(BOOLEAN_P2, mode="projective")
    page = assemble(m)
    with pytest.raises(Infeasible):
        feasibility(page, IntPoly([1, 9, 1]))
    with pytest.raises(Infeasible):
        # right bounds, wrong Euler characteristic
        feasibility(page, IntPoly([1, 2, 2]))


def test_feasibility_nongeneric_projective():
    # three concurrent lines in P^2: deconed oracle is 1 + 2t
    forms = [([1, -1, 0], 0), ([0, 1, -1], 0), ([1, 0, -1], 0)]
    m = hyperplane_model(forms, mode="projective")
    assert not m.ncd
    page = assemble(m)
    res = feasibility(page, os_oracle(m.poset))
    assert res.feasible and res.unique
    assert res.euler == -1


def random_small_page(rng):
    """Up to 7 x 4 cells of dimension 1..6 on the rows q = (2c - 1) * l."""
    c = rng.choice((1, 1, 2))
    cells = {}
    for p in range(rng.randint(1, 7)):
        for level in range(rng.randint(1, 4)):
            if rng.random() < 0.7:
                q, dim = (2 * c - 1) * level, rng.randint(1, 6)
                cells[(p, q)] = WeightedCell((("x", tuple(range(dim)), 1),))
    return SpectralPage(c, cells)


def euler_consistent_target(rng, page):
    """Half the time the Betti numbers of random admissible ranks, so
    feasible; otherwise random Betti numbers within the degree totals with
    the page's Euler characteristic; None when none was found."""
    upper = {}
    for (p, q), cell in page.cells.items():
        upper[p + q] = upper.get(p + q, 0) + cell.dim
    if not upper:
        return None
    maxk = max(upper)
    if rng.random() < 0.5:
        betti = [0] * (maxk + 1)
        into = {}
        for key in sorted(page.cells, key=sum):
            tgt = page.target_of(*key)
            free = page.cells[key].dim - into.get(key, 0)
            r = rng.randint(0, min(free, page.cell_dim(*tgt)))
            if r:
                into[tgt] = r
            betti[sum(key)] += free - r
        return IntPoly(betti)
    for _ in range(50):
        betti = [rng.randint(0, upper.get(k, 0)) for k in range(maxk + 1)]
        rest = page.euler() - sum((-1) ** k * b for k, b in enumerate(betti)
                                  if k != maxk)
        betti[maxk] = (-1) ** maxk * rest
        if 0 <= betti[maxk] <= upper[maxk]:
            return IntPoly(betti)
    return None


def outcome(search, page, target):
    try:
        return search(page, target)
    except Infeasible as exc:
        return str(exc)


def test_feasibility_matches_enumerator_on_random_pages():
    """The memoized search against the plain enumerator it replaced: the
    same feasible, unique and ranks, or the same Infeasible reason."""
    rng = random.Random(20261018)
    seen = {"unique": 0, "several": 0, "infeasible": 0}
    pages = 0
    while pages < 1200:
        page = random_small_page(rng)
        target = euler_consistent_target(rng, page)
        if target is None:
            continue
        pages += 1
        want = outcome(enumerate_feasibility, page, target)
        got = outcome(feasibility, page, target)
        if isinstance(want, str):
            seen["infeasible"] += 1
            assert got == want, (page.cells, target)
            continue
        assert not isinstance(got, str), (page.cells, target, got)
        assert (got.feasible, got.unique, got.ranks) == \
            (want.feasible, want.unique, want.ranks)
        assert not got.undecided
        seen["unique" if got.unique else "several"] += 1
    assert min(seen["unique"], seen["several"], seen["infeasible"]) >= 40, seen


def p1_config_page(n):
    return assemble(configuration_model(ProjProduct((1,)), n))


F_P1_6_TARGET = IntPoly([1, 9, 26, 25, 9, 26, 24])  # (1+t^3)(1+2t)(1+3t)(1+4t)


def test_feasibility_f_p1_6_decides_within_20000_splits():
    res = feasibility(p1_config_page(6), F_P1_6_TARGET)
    assert res.feasible and not res.unique
    assert 0 < res.splits <= 20_000
    assert res.splits <= spectral.FEASIBILITY_BUDGET // 100


def test_feasibility_over_budget_is_undecided_never_infeasible(monkeypatch):
    page = p1_config_page(6)
    full = feasibility(page, F_P1_6_TARGET)
    for budget in (0, 1, full.splits // 2, full.splits - 1):
        monkeypatch.setattr(spectral, "FEASIBILITY_BUDGET", budget)
        res = feasibility(page, F_P1_6_TARGET)
        assert res.undecided and res.feasible is None and res.ranks is None
        assert res.splits == budget
    monkeypatch.setattr(spectral, "FEASIBILITY_BUDGET", full.splits)
    res = feasibility(page, F_P1_6_TARGET)
    assert not res.undecided and res.ranks == full.ranks
    # an Euler-consistent target that the full search refutes
    monkeypatch.undo()
    refuted = IntPoly([1, 9, 26, 25, 8, 25, 24])
    with pytest.raises(Infeasible, match="first obstruction"):
        feasibility(page, refuted)
    monkeypatch.setattr(spectral, "FEASIBILITY_BUDGET", 10)
    res = feasibility(page, refuted)
    assert res.undecided and res.feasible is None and res.splits == 10


def test_row_vanishing_pattern_enforced():
    with pytest.raises(Exception):
        SpectralPage(2, {(0, 1): WeightedCell((("x", (0,), 1),))})


def test_basis_labels_carry_provenance():
    m = hyperplane_model(BOOLEAN_P2, mode="projective")
    page, res = run_explicit(m)
    cell = page.cells[(0, 1)]
    line_ids = {f.index for f in m.poset.flats if f.codim == 1}
    assert {flat for flat, _, _ in cell.runs} == line_ids
    assert cell.dim == 3 and res.homology[(0, 1)] == 2


def skew_sweep(page):
    """Every skew row the CLI's verify computes."""
    maxq = max(q for (_, q) in page.cells)
    maxk = max(p + q for (p, q) in page.cells)
    return {(k, ell): skew_row_homology(page, k, ell)
            for k in range(maxk + 1) for ell in range(maxq + 1)}


@pytest.mark.parametrize("model", [
    hyperplane_model(coordinate_forms(4), mode="projective"),
    configuration_model(ProjProduct((1,)), 3)], ids=["coordinate_P4", "F_P1_3"])
def test_each_nonzero_block_factorised_once(model, monkeypatch):
    page = explicit_page(model)
    factored = []

    def counting(m, *rows):
        factored.append(m)
        return real(m, *rows)

    real = linalg.echelon
    monkeypatch.setattr(linalg, "echelon", counting)
    monkeypatch.setattr(spectral, "echelon", counting)
    res = run(page)
    sweep = skew_sweep(page)
    nonzero = [m for m in page.differential.values() if not m.is_zero()]
    assert nonzero
    assert sorted(map(id, (m for m in factored if not m.is_zero()))) == \
        sorted(map(id, nonzero))
    assert all(h == res.weights.get((k, k + ell), 0)
               for (k, ell), h in sweep.items())


def test_run_reuses_block_rows_and_makes_columns_once(monkeypatch):
    # coordinate P^8: 45 cells, 36 blocks, 28 of them followed by another
    # nonzero block.  A built block's rows are primitive integer rows, so
    # its factorisation and the d^2 check read them as they are and copy none;
    # each of the 28 is turned into columns (transposed) once, for the one
    # product that multiplies it from the right
    model = hyperplane_model(coordinate_forms(8), mode="projective")
    page = explicit_page(model)
    blocks = {id(m): m for m in page.differential.values()}
    rows_read, copied, column_calls = set(), [], []

    def counting(m):
        out = real(m)
        if id(m) in blocks:
            rows_read.add(id(m))
            copied.extend(i for i, row in out.items() if row is not m.by_row[i])
        return out

    def transposing(m):
        column_calls.append(id(m))
        return transpose(m)

    real, transpose = linalg.primitive_rows, RationalMatrix.transpose
    monkeypatch.setattr(linalg, "primitive_rows", counting)
    monkeypatch.setattr(RationalMatrix, "transpose", transposing)
    res = run(page)
    assert res.betti == IntPoly([1, 8, 28, 56, 70, 56, 28, 8, 1])
    assert len(page.cells) == 45 and len(page.differential) == 36
    assert rows_read == {i for i, m in blocks.items() if not m.is_zero()}
    assert copied == []
    assert set(column_calls) <= set(blocks)
    assert len(column_calls) == len(set(column_calls)) == 28


def test_run_leaves_blocks_unchanged():
    # the factors hold the blocks' own rows, so an elimination that
    # changed a row would change the differential
    for model in (hyperplane_model(coordinate_forms(6), mode="projective"),
                  configuration_model(ProjProduct((1,)), 4)):
        page = explicit_page(model)
        before = {key: {i: dict(row) for i, row in m.by_row.items()}
                  for key, m in page.differential.items()}
        run(page)
        assert {key: m.by_row for key, m in page.differential.items()} == \
            before


def reference_rank(m):
    """The rank of ``m`` by Fraction Gauss-Jordan."""
    return len(reference_rref(dense(m))[1]) if m.rows else 0


def assert_homology_matches_reference(page, res):
    """Each block's rank, and each cell's homology dim - rank(d_out) -
    rank(d_in), with the ranks from the Fraction reference."""
    ranks = {key: reference_rank(page.block(*key)) for key in page.cells}
    homology = {}
    for key, cell in page.cells.items():
        src = page.source_of(*key)
        homology[key] = cell.dim - ranks[key] - ranks.get(src, 0)
    assert res.ranks == {key: r for key, r in ranks.items() if r}
    assert res.homology == {key: h for key, h in homology.items() if h}


def _random_rational(rng):
    return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))


def random_complex_page(rng):
    """A three-cell chain (0,2) -> (2,1) -> (4,0) with d2 * d1 = 0: the
    middle space is split by a unimodular change of basis u into an image
    part, a part d2 sees, and a part neither block touches."""
    r, s, t = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2)
    n = max(r + s + t, 1)
    n1, n3 = rng.randint(1, 4), rng.randint(1, 4)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    u_inv = [row[:] for row in u]
    for _ in range(6):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        k = rng.randint(-2, 2) if i != j else 0
        for row in u:                       # u <- u * (I + k e_ij)
            row[j] += k * row[i]
        u_inv[i] = [a - k * b for a, b in zip(u_inv[i], u_inv[j])]
    x = [[_random_rational(rng) for _ in range(n1)] for _ in range(r)]
    y = [[_random_rational(rng) for _ in range(s)] for _ in range(n3)]
    d1 = [[sum(u[i][a] * x[a][j] for a in range(r)) for j in range(n1)]
          for i in range(n)]
    d2 = [[sum(y[i][b] * u_inv[r + b][j] for b in range(s)) for j in range(n)]
          for i in range(n3)]
    dims = {(0, 2): n1, (2, 1): n, (4, 0): n3}
    cells = {key: WeightedCell(((key, tuple(range(dim)), 1),))
             for key, dim in dims.items()}
    diff = {(0, 2): RationalMatrix.from_rows(d1),
            (2, 1): RationalMatrix.from_rows(d2)}
    return SpectralPage(1, cells, differential=diff)


def test_homology_matches_fraction_ranks_on_random_complexes():
    rng = random.Random(43)
    for _ in range(60):
        page = random_complex_page(rng)
        assert_homology_matches_reference(page, run(page))


def test_homology_matches_fraction_ranks_on_criterion_10_models():
    for model in criterion_10_models():
        page, res = run_explicit(model)
        assert_homology_matches_reference(page, res)


def braid_p3_and_weights():
    model = hyperplane_model(braid_forms(4), mode="projective")
    poly = os_oracle(model.poset)
    # H^k of a hyperplane complement is pure of weight 2k
    return model, {(k, 2 * k): poly.coeff(k) for k in range(poly.degree + 1)
                   if poly.coeff(k)}


@pytest.mark.parametrize("make", [
    lambda: (configuration_model(ProjProduct((1,)), 4), config_p1_weights(4)),
    braid_p3_and_weights], ids=["F_P1_4", "braid_P3"])
def test_run_decides_ranks_only(make, monkeypatch):
    # a rank is read off the echelon form; a fully reduced form, or a row
    # reduced against an echelon basis, would be work toward a basis of the
    # limit page, which nothing reads
    model, expected = make()
    page = explicit_page(model)
    betti = [sum(d for (k, _), d in expected.items() if k == degree)
             for degree in range(max(k for k, _ in expected) + 1)]

    def refuse(*args):
        raise AssertionError("run reduced past the echelon form")

    monkeypatch.setattr(linalg.Echelon, "_fully_reduced", refuse)
    monkeypatch.setattr(linalg, "reduce_row", refuse)
    res = run(page)
    assert res.weights == expected
    assert res.betti == IntPoly(betti)


def test_cell_check_runs_under_optimisation():
    # c = 2 puts rows only at multiples of q = 3; the check is a raise, so
    # it holds with asserts stripped
    code = ("from arrange.spectral import SpectralPage, WeightedCell\n"
            "SpectralPage(2, {(0, 1): WeightedCell((('x', (0,), 1),))})\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode != 0
    assert ("ArrangeError: cell at q=1 would violate the vanishing pattern "
            "(c=2)") in proc.stderr


def abstract_f_p1_4():
    """F(P^1, 4) declared as an abstract model: its partition poset with
    the Betti numbers of its strata."""
    export = cli._abstract_export(configuration_model(ProjProduct((1,)), 4))
    return abstract_model(export["c"], export["ambient"],
                          export["poset"]["flats"], export["poset"]["order"])


LABEL_MODELS = {
    "coordinate_P3": lambda: hyperplane_model(coordinate_forms(3),
                                              mode="projective"),
    "generic_9_planes_P3": lambda: hyperplane_model(
        random_generic_projective_forms(random.Random(9), 9, 3),
        mode="projective"),
    "F_P1_3": lambda: configuration_model(ProjProduct((1,)), 3),
    "F_P2_3": lambda: configuration_model(ProjProduct((2,)), 3),
    "F_P1xP1_3": lambda: configuration_model(ProjProduct((1, 1)), 3),
    "abstract_F_P1_4": abstract_f_p1_4,
}


@pytest.mark.parametrize("name", sorted(LABEL_MODELS))
def test_lazy_labels_match_the_eager_loop(name):
    model = LABEL_MODELS[name]()
    dec = decompose(model)
    page = assemble_e2(model, dec)
    expected = reference_basis_labels(model, dec)
    assert page.cells.keys() == expected.keys()
    for key, labels in expected.items():
        cell = page.cells[key]
        assert cell_labels(cell) == labels, key
        assert cell.dim == len(labels), key


def test_config_label_off_the_small_diagonal_raises():
    m = configuration_model(ProjProduct((1,)), 3)
    page = assemble(m)
    key = next(k for k in page.cells if k[1] == 2)
    cell = page.cells[key]
    cells = dict(page.cells)
    cells[key] = WeightedCell(tuple((m.poset.bottom, tokens, copies)
                                    for _, tokens, copies in cell.runs))
    bad = SpectralPage(page.c, cells)
    with pytest.raises(MalformedCell, match=rf"cell \({key[0]}, 2\)"):
        build_differential(m, bad)


@pytest.mark.parametrize("mode", ["central", "affine"])
def test_differential_needs_stratum_geometry(mode):
    # point-like strata have no Gysin maps, so no blocks; an empty
    # differential would pass the page off as the limit page
    m = hyperplane_model(BOOLEAN_P2, mode=mode)
    with pytest.raises(ArrangeError, match="stratum's geometry"):
        build_differential(m, assemble(m))


def test_flat_with_no_copies_on_the_page_raises():
    # drop one pair diagonal from level 1: the faces of the small
    # diagonal's nbc sets land on labels that the page does not have
    m = configuration_model(ProjProduct((1,)), 3)
    page = assemble(m)
    pair = next(f.index for f in m.poset.flats if f.codim == 1)
    cells = dict(page.cells)
    for key, cell in page.cells.items():
        if key[1] == 1:
            runs = tuple(run for run in cell.runs if run[0] != pair)
            cells[key] = WeightedCell(runs)
    bad = SpectralPage(page.c, cells)
    with pytest.raises(MalformedCell,
                       match=rf"^cell \(2, 1\) has no basis label \({pair}, "):
        build_differential(m, bad)


def test_flat_in_two_runs_of_a_target_cell_raises():
    # a flat's rows in a cell start at one offset, so a second run of the
    # same flat would give its images two places
    m = hyperplane_model(BOOLEAN_P2, mode="projective")
    page = assemble(m)
    tkey = page.target_of(0, 1)
    cell = page.cells[tkey]
    cells = dict(page.cells)
    cells[tkey] = WeightedCell(cell.runs + cell.runs)
    bad = SpectralPage(page.c, cells)
    with pytest.raises(MalformedCell, match=rf"^cell \(2, 0\) holds flat "
                                            rf"{m.poset.bottom} in two runs$"):
        build_differential(m, bad)


# nbc lists the small diagonal's two copies in member order, (D12, D13)
# and (D12, D23); the reference combines the pair diagonals in flat-index
# order, D23, D12, D13.  Copy j of the builder is sum_i T[i][j] copy i of
# the reference.
SMALL_DIAGONAL_T = ((-1, -1), (1, 0))


def with_copies_changed(block, cell, change):
    """``block`` times (change (x) identity) on the copies of its columns,
    which are ``cell``'s: column (flat, token, j) becomes sum_i
    change[i][j] column (flat, token, i)."""
    basis = cell_labels(cell)
    column = {label: i for i, label in enumerate(basis)}
    entries = {}
    for row, values in block.by_row.items():
        for col, value in values.items():
            flat, token, i = basis[col]
            for j, coef in enumerate(change[i]):
                at = (row, column[(flat, token, j)])
                entries[at] = entries.get(at, 0) + coef * value
    return RationalMatrix(block.rows, block.cols, entries)


def reference_blocks(model, page):
    """The reference oracle's blocks, on the builder's copies."""
    if model.kind == "hyperplane":
        return reference_differential_ncd(model, page)
    blocks = reference_differential_config(model, page)
    level_2 = 2 * (2 * model.c - 1)
    return {key: with_copies_changed(block, page.cells[key],
                                     SMALL_DIAGONAL_T)
            if key[1] == level_2 else block for key, block in blocks.items()}


ORACLE_MODELS = {
    "coordinate_P6": lambda: hyperplane_model(coordinate_forms(6),
                                              mode="projective"),
    "generic_12_planes_P3": lambda: hyperplane_model(
        random_generic_projective_forms(random.Random(12), 12, 3),
        mode="projective"),
    "F_P2_3": lambda: configuration_model(ProjProduct((2,)), 3),
    "F_P1xP1_3": lambda: configuration_model(ProjProduct((1, 1)), 3),
}


def assert_blocks_match_reference(model):
    page = assemble(model)
    blocks, expected = build_differential(model, page), reference_blocks(
        model, page)
    assert blocks.keys() == expected.keys()
    for key, block in expected.items():
        assert blocks[key] == block, key


def test_blocks_match_reference_on_criterion_10_models():
    for model in criterion_10_models():
        assert_blocks_match_reference(model)


@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
def test_blocks_match_reference(name):
    assert_blocks_match_reference(ORACLE_MODELS[name]())


@pytest.mark.parametrize("model, calls", [
    (hyperplane_model(coordinate_forms(6), mode="projective"), 21),
    (hyperplane_model(coordinate_forms(8), mode="projective"), 36),
    (configuration_model(ProjProduct((1,)), 3), 14)],
    ids=["coordinate_P6", "coordinate_P8", "F_P1_3"])
def test_one_pushforward_per_map_and_monomial(model, calls, monkeypatch):
    page = assemble(model)
    inputs = []

    def counting(f, a):
        inputs.append((*f, a))
        return real(f, a)

    real = spectral.pushforward
    monkeypatch.setattr(spectral, "pushforward", counting)
    build_differential(model, page)
    assert len(set(inputs)) == len(inputs) == calls

