"""Shared generators and brute-force oracles for the test suite."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import arrange
from arrange.errors import ArrangeError
from arrange.linalg import RationalMatrix, eliminate, primitive_rows
from arrange.poset import (DuplicateMember, EmptyInput, Flat,
                           IntersectionPoset, InvalidForm, _bits)
from arrange.projective import ProjProduct
from arrange.records import Frozen
from arrange.spectral import FeasibilityResult, Infeasible, MalformedCell
from arrange.stalks import PointwiseReport


def dense(matrix):
    """The rows of a ``RationalMatrix`` as lists of Fractions."""
    rows = [[Fraction(0)] * matrix.cols for _ in range(matrix.rows)]
    for i, row in matrix.by_row.items():
        for j, v in row.items():
            rows[i][j] = Fraction(v)
    return rows


def minor_rank(rows):
    """Rank as the largest nonvanishing minor, by determinant expansion.

    Independent of Gaussian elimination; only usable for small matrices.
    """
    n = len(rows)
    m = len(rows[0]) if n else 0

    def det(rs, cs):
        if len(rs) == 1:
            return rows[rs[0]][cs[0]]
        total = Fraction(0)
        for i, c in enumerate(cs):
            sub = det(rs[1:], cs[:i] + cs[i + 1:])
            if sub:
                total += (-1) ** i * rows[rs[0]][c] * sub
        return total

    for size in range(min(n, m), 0, -1):
        for rs in combinations(range(n), size):
            for cs in combinations(range(m), size):
                if det(list(rs), list(cs)):
                    return size
    return 0


def reference_echelon_rows(m):
    """``linalg.echelon``'s {pivot column: row}, picking each pivot row with
    a scan of every remaining row (``min`` keeps the first of equally short
    rows, in input order).  The oracle for the heap that replaced the scan."""
    live = primitive_rows(m)
    pivots = {}
    while live:
        i = min(live, key=lambda k: len(live[k]))
        row = live.pop(i)
        col = min(row)
        pivots[col] = row
        for i2 in list(live):
            if col in live[i2]:
                new = eliminate(live[i2], row, col)
                if new:
                    live[i2] = new
                else:
                    del live[i2]
    return pivots


def reference_rref(rows):
    """Reduced row echelon form with unit pivots, by Fraction Gauss-Jordan.

    Returns (rows, pivot_columns) with zero rows dropped.  The oracle for
    ``linalg.rref``, which reads the same form off the integer ``echelon``.
    """
    mat = [[x if isinstance(x, Fraction) else Fraction(x) for x in row]
           for row in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                sel = i
                break
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def flat_subspaces(poset, systems):
    """Each linear flat's subspace, by flat index, found from the member
    mask in its key alone: the Fraction reduced row echelon form
    (``reference_rref``) of the augmented rows of the members in the mask.
    A flat is the intersection of the members through it, so this is the
    canonical form of its defining system.  ``systems`` holds each member's
    (covector, constant) rows; a flat of a surgery keeps its key, so its
    mask names members of the poset it came from."""
    return [reference_rref([(*cov, const) for m in _bits(f.key[1])
                            for cov, const in systems[m]])[0]
            for f in poset.flats]


def reduce_against(row, reduced_rows):
    """Reduce a single row against rows already in reduced echelon form."""
    out = [Fraction(x) for x in row]
    for rrow in reduced_rows:
        pc = next((j for j, v in enumerate(rrow) if v), None)
        if pc is None:
            continue
        f = out[pc]
        if f:
            out = [a - f * b for a, b in zip(out, rrow)]
    return tuple(out)


def reference_linear_poset(systems, ambient_dim, mode="affine", codim_c=None):
    """Oracle for ``IntersectionPoset.from_linear_systems``: the closure that
    the member-mask build replaced, kept apart from it.

    Breadth-first over canonical systems: each known flat meets each member,
    the result is keyed by its Fraction reduced row echelon form, and member
    containment is tested by reducing each member's rows against that form.
    """
    if not systems:
        raise EmptyInput("no members given")
    ncoords = ambient_dim + 1 if mode == "projective" else ambient_dim
    member_rrefs = []
    for rows in systems:
        aug = []
        for cov, const in rows:
            cov = [Fraction(x) for x in cov]
            if len(cov) != ncoords:
                raise InvalidForm(
                    f"covector length {len(cov)} != {ncoords} coordinates")
            if not any(cov):
                raise InvalidForm("zero covector")
            if mode in ("central", "projective") and Fraction(const):
                raise InvalidForm(f"{mode} mode requires zero constants")
            aug.append(tuple(cov) + (Fraction(const),))
        reduced, pivots = reference_rref(aug)
        if pivots and pivots[-1] == ncoords:
            raise InvalidForm("member system is inconsistent")
        member_rrefs.append(reduced)
    if codim_c is None:
        codim_c = len(member_rrefs[0])
    for reduced in member_rrefs:
        if len(reduced) != codim_c:
            raise InvalidForm(
                f"member codimension {len(reduced)} != c = {codim_c}")
    if len(set(member_rrefs)) != len(member_rrefs):
        raise DuplicateMember("two members define the same subspace")

    max_codim = ncoords - 1 if mode == "projective" else ncoords

    # breadth-first closure over canonical systems
    bottom_key = ()
    discovered = {bottom_key: 0}
    order_list = [bottom_key]
    frontier = [bottom_key]
    while frontier:
        new_frontier = []
        for key in frontier:
            for mrows in member_rrefs:
                reduced, pivots = reference_rref(list(key) + list(mrows))
                if pivots and pivots[-1] == ncoords:
                    continue  # inconsistent: empty intersection
                if len(reduced) > max_codim:
                    continue  # projective: drop the cone apex
                if reduced not in discovered:
                    discovered[reduced] = len(order_list)
                    order_list.append(reduced)
                    new_frontier.append(reduced)
        frontier = new_frontier

    # member containment: every row of the member reduces to zero
    containment = []
    for key in order_list:
        mask = 0
        for m, mrows in enumerate(member_rrefs):
            if all(not any(reduce_against(row, key)) for row in mrows):
                mask |= 1 << m
        containment.append(mask)

    # a flat is named by the members through it
    flats = [Flat(idx, len(key), ("lin", mask), f"F{idx}" if key else "ambient")
             for idx, (key, mask) in enumerate(zip(order_list, containment))]

    # a linear flat equals the intersection of the members containing it,
    # so the order is containment of member sets
    down = []
    for i in range(len(order_list)):
        mask = 0
        for j in range(len(order_list)):
            if containment[j] & containment[i] == containment[j]:
                mask |= 1 << j
        down.append(mask)

    member_data = []
    for m, mrows in enumerate(member_rrefs):
        atom = discovered.get(mrows)
        if atom is None or containment[atom] != 1 << m:
            raise DuplicateMember("nested or repeated members")
        member_data.append((m, f"Z{m + 1}", atom))

    return IntersectionPoset(ambient_dim, codim_c, mode, flats, down,
                             member_data, containment)


def reference_partition_lattice(n, codim_c=1):
    """Oracle for ``IntersectionPoset.partition_lattice``: the pair-set
    build that the member-mask build replaced, kept apart from it.

    Partitions come from restricted growth strings, flat j lies below flat
    i when j's set of merged pairs is a subset of i's, every codimension is
    ``codim_c`` times the number of merges, and the members are the
    partitions that merge one pair, by that pair.
    """
    partitions = []

    def grow(word):
        if len(word) == n:
            blocks = {}
            for x, b in enumerate(word, 1):
                blocks.setdefault(b, []).append(x)
            partitions.append(tuple(sorted(tuple(b) for b in blocks.values())))
            return
        for b in range(max(word, default=-1) + 2):
            grow(word + [b])

    grow([])
    partitions.sort(key=lambda p: (n - len(p), p))
    flats = []
    pair_sets = []
    for idx, blocks in enumerate(partitions):
        display = "|".join("".join(str(x) for x in b) for b in blocks)
        flats.append(Flat(idx, codim_c * (n - len(blocks)),
                          ("part", blocks), display))
        pair_sets.append(frozenset(pair for b in blocks
                                   for pair in combinations(b, 2)))
    down = [sum(1 << j for j, below in enumerate(pair_sets) if below <= above)
            for above in pair_sets]
    atoms = {next(iter(pairs)): idx for idx, pairs in enumerate(pair_sets)
             if len(pairs) == 1}
    member_data = [(("pair", i, j), f"D{i}{j}", atoms[i, j])
                   for (i, j) in sorted(atoms)]
    member_masks = [sum(1 << m for m, pair in enumerate(sorted(atoms))
                        if pair in pairs) for pairs in pair_sets]
    return IntersectionPoset(n * codim_c, codim_c, "partition", flats, down,
                             member_data, member_masks)


def brute_force_linear_flats(forms, ncoords):
    """All flats by exhaustive subset intersection, keyed by canonical rref.

    Returns {key: member_frozenset} mapping each flat to the full set of
    members containing it.  Subset enumeration is the independent oracle
    for the breadth-first closure builder.
    """
    member_rows = []
    for cov, const in forms:
        member_rows.append(tuple(Fraction(x) for x in cov) + (Fraction(const),))
    keys = {}
    for r in range(len(forms) + 1):
        for subset in combinations(range(len(forms)), r):
            reduced, pivots = reference_rref([member_rows[i] for i in subset])
            if pivots and pivots[-1] == ncoords:
                continue  # inconsistent
            keys.setdefault(reduced, set()).update(subset)
    out = {}
    for key in keys:
        members = frozenset(
            m for m in range(len(forms))
            if not any(reduce_against(member_rows[m], key)))
        out[key] = members
    return out


def random_form(rng, ncoords, lo=-9, hi=9):
    while True:
        cov = [rng.randint(lo, hi) for _ in range(ncoords)]
        if any(cov):
            return cov


def _proportional(a, b):
    cross = None
    for x, y in zip(a, b):
        if x == 0 and y == 0:
            continue
        if x == 0 or y == 0:
            return False
        q = Fraction(x, y)
        if cross is None:
            cross = q
        elif q != cross:
            return False
    return True


def random_linear_systems(rng):
    """(systems, ambient_dim, mode, kinds): a small random input for
    ``from_linear_systems``, and the features it was drawn with.

    Modes are affine, central or projective; members are hyperplanes or
    codimension-2 systems; entries may be non-integer rationals; affine
    members may be parallel to the one before (an empty intersection)."""
    mode = rng.choice(["affine", "central", "projective"])
    ncoords = rng.randint(2, 4)
    ambient_dim = ncoords - 1 if mode == "projective" else ncoords
    c = rng.choice([1, 1, 2]) if ncoords >= 3 else 1
    rational = rng.random() < 0.3
    kinds = {mode, f"c={c}"} | ({"rational"} if rational else set())

    def entry():
        v = rng.randint(-2, 2)
        if rational and rng.random() < 0.3:
            return Fraction(v, rng.randint(2, 3))
        return v

    systems = []
    for _ in range(rng.randint(1, 6)):
        rows = [([entry() for _ in range(ncoords)],
                 entry() if mode == "affine" else 0) for _ in range(c)]
        if mode == "affine" and systems and rng.random() < 0.2:
            rows = [(cov, const + 1) for cov, const in systems[-1]]
            kinds.add("parallel")
        systems.append(rows)
    return systems, ambient_dim, mode, kinds


def random_central_forms(rng, m, ncoords, lo=-2, hi=2):
    """m pairwise non-proportional central forms in the given coordinates."""
    forms = []
    while len(forms) < m:
        cov = random_form(rng, ncoords, lo, hi)
        if any(_proportional(cov, old) for old, _ in forms):
            continue
        forms.append((cov, 0))
    return forms


def is_generic(forms, ncoords):
    """Every subset of size <= ncoords has full rank (general position)."""
    rows = [tuple(Fraction(x) for x in cov) for cov, _ in forms]
    for r in range(2, min(len(rows), ncoords) + 1):
        for subset in combinations(range(len(rows)), r):
            reduced, _ = reference_rref([rows[i] for i in subset])
            if len(reduced) != r:
                return False
    return True


def random_generic_projective_forms(rng, m, proj_dim=3):
    """m homogeneous forms in general position in P^proj_dim."""
    while True:
        forms = random_central_forms(rng, m, proj_dim + 1, lo=-9, hi=9)
        if is_generic(forms, proj_dim + 1):
            return forms


def random_nongeneric_central_forms(rng, m, ncoords):
    """Central forms with a forced three-member codimension-2 flat."""
    assert m >= 3
    while True:
        forms = random_central_forms(rng, m - 1, ncoords)
        a = forms[0][0]
        b = forms[1][0]
        dep = [x + y for x, y in zip(a, b)]
        if not any(dep):
            continue
        if any(_proportional(dep, old) for old, _ in forms):
            continue
        return forms + [(dep, 0)]


def coordinate_forms(n):
    return [([1 if j == i else 0 for j in range(n + 1)], 0)
            for i in range(n + 1)]


def braid_forms(n):
    """x_i - x_j for i < j on n coordinates: the braid arrangement."""
    forms = []
    for i, j in combinations(range(n), 2):
        cov = [0] * n
        cov[i], cov[j] = 1, -1
        forms.append((cov, 0))
    return forms


def criterion_10_hyperplane_forms():
    """The forms of the projective hyperplane models of acceptance
    criterion 10: coordinate P^1..P^4 and 4, 5, 6 generic planes in P^3."""
    rng = random.Random(20240206)
    return ([coordinate_forms(n) for n in (1, 2, 3, 4)]
            + [random_generic_projective_forms(rng, m, 3) for m in (4, 5, 6)])


def criterion_10_models():
    """The c = 1 explicit models of acceptance criterion 10."""
    from arrange.models import configuration_model, hyperplane_model
    from arrange.projective import ProjProduct
    models = [hyperplane_model(forms, mode="projective")
              for forms in criterion_10_hyperplane_forms()]
    models += [configuration_model(ProjProduct((1,)), n) for n in (2, 3)]
    return models


def child_env():
    """Environment for a child interpreter that may run in another
    directory, where a relative PYTHONPATH entry such as "src" no longer
    resolves: put the package pytest imported first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(arrange.__file__).resolve().parent.parent),
                      env.get("PYTHONPATH")]))
    return env


def run_child(cwd, *args):
    """The interpreter run on ``args`` in ``cwd``, under ``child_env()``."""
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, cwd=cwd, env=child_env())


def explicit_page(model):
    """Assemble and differentiate a projective hyperplane or configuration
    model."""
    from arrange import (assemble_e2, build_differential, decompose,
                         stalk_tables)
    page = assemble_e2(model, decompose(model, stalk_tables(model)))
    return page.with_differential(build_differential(model, page))


def run_explicit(model):
    """Assemble, differentiate, and run an explicit-mode model."""
    from arrange import run
    page = explicit_page(model)
    return page, run(page)


def enumerate_feasibility(page, target=None):
    """Oracle for ``spectral.feasibility``: the plain enumerator that the
    memoized search replaced, kept apart from it.

    Exact Euler characteristic, per-degree bounds, and (optionally) the
    integer rank assignments reproducing a target Betti polynomial.

    Every cell has at most one incoming and one outgoing block, so the
    unknown ranks decompose along skew-rows; the search walks antidiagonals
    in order and enumerates rank splittings exactly.
    """
    euler = page.euler()
    cells = page.cells
    upper = {}
    for (p, q), cell in cells.items():
        upper[p + q] = upper.get(p + q, 0) + cell.dim
    bounds = {}
    for (p, q), cell in cells.items():
        k = p + q
        max_in = min(cell.dim, page.cell_dim(*page.source_of(p, q)))
        max_out = min(cell.dim, page.cell_dim(*page.target_of(p, q)))
        lo = max(0, cell.dim - max_in - max_out)
        pair = bounds.get(k, (0, upper[k]))
        bounds[k] = (pair[0] + lo, upper[k])
    for k in upper:
        bounds.setdefault(k, (0, upper[k]))
    if target is None:
        return FeasibilityResult(euler, bounds)

    maxk = max(upper, default=0)
    if target.degree > maxk:
        raise Infeasible(
            f"target has degree {target.degree} but the page stops at {maxk}")
    for k in range(maxk + 1):
        if not 0 <= target.coeff(k) <= upper.get(k, 0):
            raise Infeasible(
                f"target b_{k} = {target.coeff(k)} outside [0, {upper.get(k, 0)}]")
    if target.evaluate(-1) != euler:
        raise Infeasible(
            f"target Euler characteristic {target.evaluate(-1)} != {euler}")

    stages = sorted({p + q for (p, q) in cells})
    cells_by_stage = {k: sorted((p, q) for (p, q) in cells if p + q == k)
                      for k in stages}
    solutions = []
    deepest = [stages[0] if stages else 0]

    def solve(si, in_ranks, chosen):
        # in_ranks: incoming rank already forced on each cell by the
        # previous stage; chosen: the rank assignment so far
        if len(solutions) >= 2:
            return
        if si == len(stages):
            solutions.append(dict(chosen))
            return
        k = stages[si]
        deepest[0] = max(deepest[0], k)
        keys = cells_by_stage[k]
        need = sum(cells[key].dim - in_ranks.get(key, 0) for key in keys) \
            - target.coeff(k)
        if need < 0:
            return

        choices = []
        for key in keys:
            tgt = page.target_of(*key)
            cap_src = cells[key].dim - in_ranks.get(key, 0)
            cap = min(cap_src, page.cell_dim(*tgt)) if tgt in cells else 0
            choices.append((key, tgt, max(0, cap)))

        def assign(ci, remaining, picked):
            if len(solutions) >= 2:
                return
            if ci == len(choices):
                if remaining == 0:
                    nxt_in = dict(in_ranks)
                    nxt_chosen = dict(chosen)
                    for key, tgt, r in picked:
                        if r:
                            nxt_chosen[key] = r
                            nxt_in[tgt] = r
                    solve(si + 1, nxt_in, nxt_chosen)
                return
            key, tgt, cap = choices[ci]
            tail_cap = sum(c for _, _, c in choices[ci + 1:])
            lo = max(0, remaining - tail_cap)
            for r in range(lo, min(cap, remaining) + 1):
                assign(ci + 1, remaining - r, picked + [(key, tgt, r)])

        assign(0, need, [])

    solve(0, {}, {})
    if not solutions:
        raise Infeasible(
            "no integer rank assignment matches the target along the "
            f"skew-rows; first obstruction at total degree {deepest[0]}")
    return FeasibilityResult(euler, bounds, feasible=True,
                             unique=len(solutions) == 1, ranks=solutions[0])


def reference_basis_labels(model, summands):
    """Oracle for the layout of ``spectral.assemble_e2``'s cells: the eager
    loop that wrote one (flat, token, copy) tuple per page dimension, kept
    apart from the runs that replaced it (``cell_labels`` expands those).

    The ambient row (the bottom flat's stratum) comes first, then the
    summands sorted by (level, support); each adds its copies ``for m in
    range(multiplicity)`` and, inside a copy, its tokens in degree order.
    Returns {(p, q): labels}; a ProjProduct's tokens are its monomials, a
    Betti tuple's are ("deg", p, i).
    """
    def tokens(data, p):
        if isinstance(data, tuple):
            return [("deg", p, i)
                    for i in range(data[p] if p < len(data) else 0)]
        return list(data.monomials(p // 2)) if p % 2 == 0 else []

    def degrees(data):
        return range(len(data) if isinstance(data, tuple) else 2 * data.dim + 1)

    labels = {}

    def add_row(q, flat, data, multiplicity):
        for p in degrees(data):
            toks = tokens(data, p)
            if not toks:
                continue
            cell = labels.setdefault((p, q), [])
            for m in range(multiplicity):
                cell.extend((flat, tok, m) for tok in toks)

    strata, c, bottom = model.strata, model.c, model.poset.bottom
    add_row(0, bottom, strata[bottom], 1)
    for s in sorted(summands, key=lambda s: (s.level, s.support)):
        add_row((2 * c - 1) * s.level, s.support, strata[s.support],
                s.multiplicity)
    return {key: tuple(cell) for key, cell in labels.items()}


# The cohomology ring of a product of projective spaces, and the Gysin map
# defined by Poincare duality: the algebra that ``projective.pushforward``'s
# exponent rule replaced, kept as its oracle.  A class is a validated
# integer combination of exponent tuples, and a map is recorded by the
# pullbacks of the target's generators, so any ring map can be written.

class SpaceMismatch(ArrangeError):
    pass


class DegreeMismatch(ArrangeError):
    pass


class NegativeCodim(ArrangeError):
    pass


class CohClass:
    """Homogeneous cohomology class on a ProjProduct."""

    __slots__ = ("space", "degree", "coeffs")

    def __init__(self, space, degree, coeffs):
        if degree < 0 or degree % 2:
            raise DegreeMismatch(f"degree must be even and >= 0, got {degree}")
        self.space = space
        self.degree = degree
        self.coeffs = {}
        box = space.factor_dims
        for exp, c in coeffs.items():
            if not c:
                continue
            if len(exp) != space.nfactors or any(
                    a < 0 or a > n for a, n in zip(exp, box)):
                raise SpaceMismatch(f"exponent {exp} outside {space}")
            if 2 * sum(exp) != degree:
                raise DegreeMismatch(
                    f"monomial {exp} has degree {2 * sum(exp)}, class says {degree}")
            self.coeffs[exp] = c

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, CohClass) and self.space == other.space
                and self.degree == other.degree and self.coeffs == other.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for exp in sorted(self.coeffs):
            c = self.coeffs[exp]
            mono = "*".join(f"h{i + 1}^{a}" if a > 1 else f"h{i + 1}"
                            for i, a in enumerate(exp) if a)
            mono = mono or "1"
            parts.append(mono if c == 1 else f"{c}*{mono}")
        return " + ".join(parts)


class SpaceMap(Frozen):
    """Algebraic map recorded by the pullbacks of the target's generators."""

    __slots__ = ("source", "target", "generator_images")

    def __init__(self, source, target, generator_images):
        if len(generator_images) != target.nfactors:
            raise SpaceMismatch("need one generator image per target factor")
        for img in generator_images:
            if img.space != source or img.degree != 2:
                raise SpaceMismatch("generator images must be degree-2 source classes")
        init = object.__setattr__
        init(self, "source", source)
        init(self, "target", target)
        init(self, "generator_images", generator_images)

    @property
    def codim(self):
        return self.target.dim - self.source.dim


def monomial_class(space, expts):
    """The monomial with exponent tuple ``expts``, coefficient 1."""
    expts = tuple(int(a) for a in expts)
    return CohClass(space, 2 * sum(expts), {expts: 1})


def generator_class(space, i):
    """Degree-2 hyperplane class of factor i (zero if the factor is a point)."""
    if space.factor_dims[i] == 0:
        return CohClass(space, 2, {})
    return monomial_class(space, [j == i for j in range(space.nfactors)])


def generator_map(f):
    """The inclusion f = (source, target, pulls) of ``projective`` as a
    ``SpaceMap``: target generator t pulls back to source generator
    ``pulls[t]``, or to zero where that is ``None``."""
    source, target, pulls = f
    return SpaceMap(source, target, tuple(
        CohClass(source, 2, {}) if s is None else generator_class(source, s)
        for s in pulls))


def power_map(base, copy_to_block):
    """The multi-diagonal inclusion base^(#blocks) -> base^(#copies) that
    sends copy i into block ``copy_to_block[i]``, on generators."""
    m, dims = base.nfactors, base.factor_dims
    return generator_map((ProjProduct(dims * (max(copy_to_block) + 1)),
                          ProjProduct(dims * len(copy_to_block)),
                          tuple(b * m + i for b in copy_to_block
                                for i in range(m))))


def reference_add(a, b):
    """Sum of two classes of equal space and degree."""
    if a.space != b.space or a.degree != b.degree:
        raise SpaceMismatch("can only add classes of equal space and degree")
    out = dict(a.coeffs)
    for exp, c in b.coeffs.items():
        out[exp] = out.get(exp, 0) + c
    return CohClass(a.space, a.degree, out)


def reference_cup(a, b):
    """Product with truncation above the factor dimensions."""
    if a.space != b.space:
        raise SpaceMismatch("cup product needs classes on the same space")
    box = a.space.factor_dims
    out = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if all(x <= n for x, n in zip(e, box)):
                out[e] = out.get(e, 0) + c1 * c2
    return CohClass(a.space, a.degree + b.degree, out)


def reference_pullback(f, a):
    """Ring pullback: substitute the generator images and expand."""
    if a.space != f.target:
        raise SpaceMismatch("class does not live on the map's target")
    out = CohClass(f.source, a.degree, {})
    for exp, c in a.coeffs.items():
        term = CohClass(f.source, 0, {(0,) * f.source.nfactors: c})
        for img, e in zip(f.generator_images, exp):
            for _ in range(e):
                term = reference_cup(term, img)
        out = reference_add(out, term)
    return out


def reference_pair(a, b):
    """Poincare pairing: the coefficient of the top monomial in a.b."""
    if a.space != b.space:
        raise SpaceMismatch("pairing needs classes on the same space")
    if a.degree + b.degree != 2 * a.space.dim:
        raise DegreeMismatch(
            f"degrees {a.degree}+{b.degree} != 2*dim = {2 * a.space.dim}")
    return reference_cup(a, b).coeffs.get(a.space.factor_dims, 0)


def reference_pushforward(f, a):
    """Gysin map defined by duality, <f_* a, b> = <a, f^* b>: each target
    coefficient pairs ``a`` with the pullback of the dual monomial."""
    if a.space != f.source:
        raise SpaceMismatch("class does not live on the map's source")
    if f.codim < 0:
        raise NegativeCodim(f"pushforward needs codim >= 0, got {f.codim}")
    target = f.target
    degree = a.degree + 2 * f.codim
    top = target.factor_dims
    out = {}
    for mono in target.monomials(degree // 2):
        dual = tuple(t - m for t, m in zip(top, mono))
        out[mono] = reference_pair(
            a, reference_pullback(f, monomial_class(target, dual)))
    return CohClass(target, degree, out)


def reference_compose(g, f):
    """The composite g o f, recorded on generators."""
    if f.target != g.source:
        raise SpaceMismatch("maps not composable")
    return SpaceMap(f.source, g.target, tuple(
        reference_pullback(f, img) for img in g.generator_images))


def one_class(space):
    """The unit class 1 in degree 0 of a ``ProjProduct``."""
    return CohClass(space, 0, {(0,) * space.nfactors: 1})


def generator_classes(space):
    """The hyperplane class of each factor of a ``ProjProduct``."""
    return tuple(generator_class(space, i) for i in range(space.nfactors))


def reference_identity(space):
    return SpaceMap(space, space, generator_classes(space))


def space_map(a, b, scale=1):
    """The inclusion P^a -> P^b, its hyperplane class times ``scale``."""
    source = ProjProduct((a,))
    return SpaceMap(source, ProjProduct((b,)),
                    (CohClass(source, 2, {(1,): scale}),))


def cell_labels(cell):
    """A page cell's basis as (flat, token, copy) labels, expanded from its
    runs in the order run, copy, token."""
    return tuple((flat, token, copy) for flat, tokens, copies in cell.runs
                 for copy in range(copies) for token in tokens)


def _reference_positions(cell):
    return {label: i for i, label in enumerate(cell_labels(cell))}


def reference_differential_ncd(model, page) -> dict:
    """Oracle for ``spectral.build_differential`` on normal crossings: the
    normal-crossing builder that the nbc builder replaced, kept apart from
    it.  It pushes one monomial forward per basis label and dropped member.

    Alternating sum of one-step pushforwards between incident strata.

    Requires simple normal crossings: each flat lies on exactly codim many
    members, so dropping one member from a flat's set names a unique
    shallower flat.  The sign is (-1)^(position of the dropped member in
    the sorted member tuple).
    """
    if (model.kind != "hyperplane" or not model.ncd
            or model.poset.mode != "projective"):
        raise ArrangeError("explicit blocks need a normal-crossing "
                           "hyperplane model with stratum geometry")
    poset = model.poset
    mask_to_flat = {poset.member_mask(f.index): f.index for f in poset.flats}
    diff = {}
    for (p, q), cell in sorted(page.cells.items()):
        if q < 1:
            continue
        tkey = page.target_of(p, q)
        tcell = page.cells.get(tkey)
        if tcell is None:
            continue
        tpos = _reference_positions(tcell)
        entries = {}
        for col, (fi, token, _) in enumerate(cell_labels(cell)):
            mask = poset.member_mask(fi)
            for j, mpos in enumerate(_bits(mask)):
                gi = mask_to_flat[mask & ~(1 << mpos)]
                sign = -1 if j % 2 else 1
                # a linear subspace: the hyperplane class restricts to the
                # hyperplane class (to zero on a point), made here, not
                # read from the model's inclusion
                source = model.strata[fi]
                inc = SpaceMap(source, model.strata[gi],
                               (generator_class(source, 0),))
                image = reference_pushforward(
                    inc, monomial_class(source, token))
                for exp, val in image.coeffs.items():
                    row = tpos[(gi, exp, 0)]
                    s = entries.get((row, col), Fraction(0)) + sign * val
                    if s:
                        entries[(row, col)] = s
                    else:
                        entries.pop((row, col), None)
        diff[(p, q)] = RationalMatrix(tcell.dim, cell.dim, entries)
    return diff


# Multiplicity-space coefficients for the three-point diagonal arrangement:
# columns index the two copies supported on the small diagonal, rows the
# pair diagonals in sorted order.  Columns sum to zero, which together with
# pushforward functoriality forces d^2 = 0; the rank-2 column space is the
# full sum-zero plane, so homology does not depend on the choice of basis.
_REFERENCE_TRIPLE_MULT = ((-1, -1), (1, 0), (0, 1))


def reference_differential_config(model, page) -> dict:
    """Oracle for ``spectral.build_differential`` on configuration models of
    up to three points: the three-point builder that the nbc builder
    replaced, kept apart from it.  Its level-2 copies are combinations of
    the pair diagonals in flat-index order (``_REFERENCE_TRIPLE_MULT``)."""
    if model.kind != "configuration":
        raise ArrangeError("not a configuration model")
    n = model.n
    if n > 3:
        raise ArrangeError(
            f"explicit differential implemented for n <= 3, got n = {n}")
    c = model.c
    poset = model.poset
    q1 = 2 * c - 1
    pair_flats = sorted(f.index for f in poset.flats if f.codim == c)
    diff = {}

    # level 1 -> level 0: plain pushforward along each diagonal
    for (p, q), cell in sorted(page.cells.items()):
        if q != q1:
            continue
        tkey = page.target_of(p, q)
        tcell = page.cells.get(tkey)
        if tcell is None:
            continue
        tpos = _reference_positions(tcell)
        entries = {}
        for col, (fi, token, _) in enumerate(cell_labels(cell)):
            # copy i of the ambient collapses to the block holding point i
            block_of = {x: b for b, block in
                        enumerate(poset.flats[fi].key[1]) for x in block}
            inc = power_map(model.factor,
                            [block_of[i] for i in range(1, n + 1)])
            image = reference_pushforward(
                inc, monomial_class(model.strata[fi], token))
            for exp, val in image.coeffs.items():
                row = tpos[(poset.bottom, exp, 0)]
                entries[(row, col)] = entries.get((row, col), Fraction(0)) + val
        diff[(p, q)] = RationalMatrix(tcell.dim, cell.dim, entries)

    if n == 3:
        small = next(f.index for f in poset.flats if f.codim == 2 * c)
        factor = model.factor
        delta = power_map(factor, [0, 0])   # Y -> Y^2 diagonal
        coeffs = {pf: _REFERENCE_TRIPLE_MULT[i]
                  for i, pf in enumerate(pair_flats)}
        for (p, q), cell in sorted(page.cells.items()):
            if q != 2 * q1:
                continue
            tkey = page.target_of(p, q)
            tcell = page.cells.get(tkey)
            if tcell is None:
                continue
            tpos = _reference_positions(tcell)
            entries = {}
            for col, (fi, token, mult) in enumerate(cell_labels(cell)):
                if fi != small:
                    raise MalformedCell(
                        f"cell ({p}, {q}) has a basis label on flat {fi}, "
                        f"not on the small diagonal {small}")
                image = reference_pushforward(delta, monomial_class(factor, token))
                for pf in pair_flats:
                    coef = coeffs[pf][mult]
                    if not coef:
                        continue
                    for exp, val in image.coeffs.items():
                        row = tpos[(pf, exp, 0)]
                        s = entries.get((row, col), Fraction(0)) + coef * val
                        if s:
                            entries[(row, col)] = s
                        else:
                            entries.pop((row, col), None)
            diff[(p, q)] = RationalMatrix(tcell.dim, cell.dim, entries)
    return diff


def reference_delete_member(poset, flats, atoms, pos):
    """``IntersectionPoset.delete_member`` by its defining rule: a flat
    survives iff no strictly shallower flat lies on all its other members,
    tested flat by flat over the ``up`` masks of those members."""
    rest = atoms[:pos] + atoms[pos + 1:]
    rest_mask = sum(1 << a for a in rest)
    kept = 0
    for f in _bits(flats):
        shallower = flats & poset.down[f] & ~(1 << f)
        for a in _bits(rest_mask & poset.down[f]):
            shallower &= poset.up[a]
        if not shallower:
            kept |= 1 << f
    return kept, rest


def degree_table(c, levels):
    """A level -> dim stalk table of the package as degree -> dim: level l
    sits in degree (2c-1)l."""
    return {(2 * c - 1) * level: d for level, d in levels.items()}


def reference_pointwise(model, summands, tables):
    """``stalks.verify_pointwise`` summed summand by summand with
    ``poset.le`` at every (flat, degree), on ``tables`` (flat -> level
    table) read as degrees."""
    poset, c = model.poset, model.c
    by_degree = {}
    for s in summands:
        by_degree.setdefault((2 * c - 1) * s.level, []).append(s)
    mismatches = []
    for f in poset.flats:
        table = degree_table(c, tables[f.index])
        for k in sorted(set(table) | set(by_degree)):
            lhs = table.get(k, 0)
            if k == 0:
                rhs = 1
            else:
                rhs = sum(s.multiplicity for s in by_degree.get(k, ())
                          if poset.le(s.support, f.index))
            if lhs != rhs:
                mismatches.append({"flat": f.index, "degree": k,
                                   "stalk": lhs, "decomposition": rhs})
    return PointwiseReport(not mismatches, mismatches)


def reference_stalk_dims(model):
    """The deletion/restriction recursion of ``stalks._recurse`` by degree,
    gluing the restriction with a shift of 2c-1, memoized on the flat mask
    and the atom mask alone: returns ({flat: degree -> dim}, memo).  Only
    states with one flat mask and one atom set share an entry, so no two
    local arrangements are identified by their shape."""
    poset, c = model.poset, model.c
    memo = {}

    def recurse(flats, atoms):
        key = flats, sum(1 << a for a in atoms)
        if key in memo:
            return memo[key]
        if len(atoms) == 0:
            dims = {0: 1}
        elif len(atoms) == 1:
            dims = {0: 1, 2 * c - 1: 1}
        else:
            deleted = recurse(*poset.delete_member(flats, atoms, 0))
            traced = recurse(*poset.restrict_to_member(flats, atoms, 0))
            dims = {0: 1}
            for k in range(1, max(2 * c - 1, max(deleted),
                                  max(traced) + 2 * c - 1) + 1):
                v = ((k == 2 * c - 1) + deleted.get(k, 0)
                     + traced.get(k + 1 - 2 * c, 0) * (k + 1 > 2 * c))
                if v:
                    dims[k] = v
        memo[key] = dims
        return dims

    tables = {f.index: recurse(*poset.local_arrangement(f.index))
              for f in poset.flats}
    return tables, memo
