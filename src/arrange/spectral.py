"""Second-page assembly, the single differential, and weight extraction.

The page of a c-codimensional model has nonzero rows only at q = (2c-1)*l;
the cell at (p, q) is pure of weight p + 2c*l, and the only differential
that can be nonzero is the one of bidegree (2c, 1-2c), which preserves
that weight.  Running the page therefore means: check d^2 = 0 and weight
compatibility, take homology cell by cell, and read Betti numbers off the
antidiagonals and weight-graded pieces off the rows.

When no explicit differential is available the page still pins the Euler
characteristic and per-degree bounds; with a target polynomial the
admissible differential ranks form short chains along skew-rows, searched
exhaustively with exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ArrangeError, NotRankOne
# homology_dim is no longer called here; it stays in this namespace for
# callers that wrap it (benchmark/tracer.py counts its calls)
from .linalg import (RationalMatrix, echelon, eliminate,  # noqa: F401
                     homology_dim, primitive_rows, product_is_zero)
from .polys import IntPoly
from .poset import _bits
from .projective import ProjProduct, power_inclusion, pushforward


class MissingStratumData(ArrangeError):
    pass


class NoGeometry(ArrangeError):
    pass


class ExplicitModeUnavailable(ArrangeError):
    pass


class WeightViolation(ArrangeError):
    pass


class NotComposable(ArrangeError):
    pass


class Infeasible(ArrangeError):
    pass


class MalformedCell(ArrangeError):
    """A cell's basis labels disagree with its dimension or its support."""


class HomologyMismatch(ArrangeError):
    """Homology labels or the Euler characteristic disagree with the ranks."""


@dataclass(frozen=True)
class WeightedCell:
    p: int
    q: int
    dim: int
    weight: int
    basis: tuple  # labels (flat index, monomial token, multiplicity index)


class SpectralPage:
    """Bigraded table of weighted cells with at most one differential.

    The page keeps its own copy of the caller's block table and makes the
    factorisation of each block (``factor``) and the d^2 check
    (``check_differential``) once; the blocks must not change afterwards.
    """

    def __init__(self, c, r, cells, differential=None):
        self.c = c
        self.r = r
        self.cells = dict(cells)
        self.differential = None if differential is None else dict(differential)
        self._factors = {}
        self._checked = False
        for (p, q), cell in self.cells.items():
            if q % (2 * c - 1):
                raise ArrangeError(
                    f"cell at q={q} would violate the vanishing pattern (c={c})")
            if cell.dim != len(cell.basis):
                raise MalformedCell(
                    f"cell ({p}, {q}) has dim {cell.dim} but "
                    f"{len(cell.basis)} basis labels")

    def cell_dim(self, p, q):
        cell = self.cells.get((p, q))
        return cell.dim if cell else 0

    def target_of(self, p, q):
        return (p + 2 * self.c, q - 2 * self.c + 1)

    def source_of(self, p, q):
        return (p - 2 * self.c, q + 2 * self.c - 1)

    def antidiagonals(self):
        return sorted({p + q for (p, q) in self.cells})

    def euler(self):
        return sum((-1) ** (p + q) * cell.dim
                   for (p, q), cell in self.cells.items())

    def with_differential(self, diff):
        return SpectralPage(self.c, self.r, self.cells, differential=diff)

    def block(self, p, q):
        """Differential matrix leaving (p, q), zero-filled to the right shape."""
        tgt = self.target_of(p, q)
        if self.differential:
            m = self.differential.get((p, q))
            if m is not None:
                return m
        return RationalMatrix.zeros(self.cell_dim(*tgt), self.cell_dim(p, q))

    def factor(self, p, q):
        """Echelon form of the block leaving (p, q), made once per page."""
        ech = self._factors.get((p, q))
        if ech is None:
            ech = self._factors[(p, q)] = echelon(self.block(p, q))
        return ech

    def homology(self, p, q):
        """dim ker(d_out) / im(d_in) at (p, q), from the blocks' factors;
        0 off the page.  The page must have passed check_differential."""
        cell = self.cells.get((p, q))
        if cell is None:
            return 0
        src = self.source_of(p, q)
        rank_in = self.factor(*src).rank if src in self.cells else 0
        return cell.dim - self.factor(p, q).rank - rank_in

    def check_differential(self):
        """d^2 = 0 and weight preservation of every nonzero block; once the
        page has passed, later calls return at once."""
        if self.differential is None:
            raise NotComposable("page has no differential")
        if self._checked:
            return
        for (p, q), m in self.differential.items():
            src = self.cells.get((p, q))
            tgt = self.cells.get(self.target_of(p, q))
            if src is None or m.cols != src.dim:
                raise NotComposable(f"block at {(p, q)} has wrong source size")
            if m.rows != (tgt.dim if tgt else 0):
                raise NotComposable(f"block at {(p, q)} has wrong target size")
            if not m.is_zero() and tgt is not None and src.weight != tgt.weight:
                raise WeightViolation(
                    f"nonzero block {(p, q)} -> {self.target_of(p, q)} joins "
                    f"weights {src.weight} and {tgt.weight}")
            nxt = self.differential.get(self.target_of(p, q))
            if nxt is not None and not product_is_zero(nxt, m):
                raise NotComposable(f"d^2 != 0 at {(p, q)}")
        self._checked = True

    def __repr__(self):
        return (f"SpectralPage(r={self.r}, c={self.c}, "
                f"cells={len(self.cells)}, "
                f"differential={'yes' if self.differential else 'no'})")


class WeightTable:
    """Dimensions of the weight-graded pieces, keyed by (degree, weight).

    Distinct rows on one antidiagonal carry distinct weights, so each key
    receives contributions from at most one cell; that uniqueness is
    asserted at insertion.
    """

    def __init__(self):
        self.table = {}

    def add(self, k, w, dim):
        if (k, w) in self.table:
            raise ArrangeError(f"two cells claim degree {k} weight {w}")
        if dim:
            self.table[(k, w)] = dim

    def get(self, k, w):
        return self.table.get((k, w), 0)

    def total(self, k):
        return sum(d for (kk, _), d in self.table.items() if kk == k)

    def items(self):
        return sorted(self.table.items())


@dataclass
class RunResult:
    einfty: SpectralPage
    betti: IntPoly
    weights: WeightTable
    ranks: dict
    euler: int


@dataclass
class FeasibilityResult:
    euler: int
    bounds: dict                 # k -> (lower, upper)
    feasible: bool | None = None
    unique: bool | None = None
    ranks: dict | None = None


def _betti_of(data, p):
    if isinstance(data, ProjProduct):
        return data.betti(p)
    return data[p] if 0 <= p < len(data) else 0


def _tokens_of(data, p):
    if isinstance(data, ProjProduct):
        return list(data.monomials(p // 2)) if p % 2 == 0 else []
    b = _betti_of(data, p)
    return [("deg", p, i) for i in range(b)]


def _max_degree(data):
    if isinstance(data, ProjProduct):
        return 2 * data.dim
    return len(data) - 1


def assemble_e2(dec, strata, ambient, c, bottom=0) -> SpectralPage:
    """Build the page from the decomposition and per-stratum cohomology.

    ``strata`` maps each summand's support (flat index) to a ProjProduct or
    a Betti tuple; ``ambient`` describes the whole space (row q = 0).  Cells
    carry basis labels (support, monomial token, multiplicity copy) so a
    differential can be filled in later.
    """
    cells = {}

    def add_row(q, flat, data, multiplicity):
        for p in range(_max_degree(data) + 1):
            tokens = _tokens_of(data, p)
            if not tokens:
                continue
            labels = cells.setdefault((p, q), [])
            for m in range(multiplicity):
                labels.extend((flat, tok, m) for tok in tokens)

    add_row(0, bottom, ambient, 1)
    for s in sorted(dec.summands, key=lambda s: (s.level, s.support)):
        data = strata.get(s.support)
        if data is None:
            raise MissingStratumData(f"no cohomology data for flat {s.support}")
        add_row((2 * c - 1) * s.level, s.support, data, s.multiplicity)

    out = {}
    for (p, q), labels in cells.items():
        level = q // (2 * c - 1)
        out[(p, q)] = WeightedCell(p, q, len(labels), p + 2 * c * level,
                                   tuple(labels))
    return SpectralPage(c, 2 * c, out)


def _positions(cell):
    return {label: i for i, label in enumerate(cell.basis)}


def build_differential_ncd(model, page) -> dict:
    """Alternating sum of one-step pushforwards between incident strata.

    Requires simple normal crossings: each flat lies on exactly codim many
    members, so dropping one member from a flat's set names a unique
    shallower flat.  The sign is (-1)^(position of the dropped member in
    the sorted member tuple).
    """
    if model.kind != "hyperplane" or not model.ncd or model.geometry is None:
        raise NoGeometry("explicit blocks need a normal-crossing hyperplane "
                         "model with stratum geometry")
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
        tpos = _positions(tcell)
        entries = {}
        for col, (fi, token, _) in enumerate(cell.basis):
            mask = poset.member_mask(fi)
            for j, mpos in enumerate(_bits(mask)):
                gi = mask_to_flat[mask & ~(1 << mpos)]
                sign = -1 if j % 2 else 1
                inc = model.inclusion(fi, gi)
                image = pushforward(inc, model.geometry[fi][0].monomial_class(token))
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
_TRIPLE_MULT = ((-1, -1), (1, 0), (0, 1))


def build_differential_config(model, page) -> dict:
    """Explicit blocks for configuration models of up to three points."""
    if model.kind != "configuration":
        raise NoGeometry("not a configuration model")
    n = model.n
    if n > 3:
        raise ExplicitModeUnavailable(
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
        tpos = _positions(tcell)
        entries = {}
        for col, (fi, token, _) in enumerate(cell.basis):
            geom, inc = model.geometry[fi]
            image = pushforward(inc, geom.monomial_class(token))
            for exp, val in image.coeffs.items():
                row = tpos[(poset.bottom, exp, 0)]
                entries[(row, col)] = entries.get((row, col), Fraction(0)) + val
        diff[(p, q)] = RationalMatrix(tcell.dim, cell.dim, entries)

    if n == 3:
        small = next(f.index for f in poset.flats if f.codim == 2 * c)
        factor = model.factor
        delta = power_inclusion(factor, [0, 0])   # Y -> Y^2 diagonal
        coeffs = {pf: _TRIPLE_MULT[i] for i, pf in enumerate(pair_flats)}
        for (p, q), cell in sorted(page.cells.items()):
            if q != 2 * q1:
                continue
            tkey = page.target_of(p, q)
            tcell = page.cells.get(tkey)
            if tcell is None:
                continue
            tpos = _positions(tcell)
            entries = {}
            for col, (fi, token, mult) in enumerate(cell.basis):
                if fi != small:
                    raise MalformedCell(
                        f"cell ({p}, {q}) has a basis label on flat {fi}, "
                        f"not on the small diagonal {small}")
                image = pushforward(delta, factor.monomial_class(token))
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


def _homology_labels(cell, image, kernel):
    """Pick basis labels for the homology of one cell.

    ``image`` spans the image of the incoming block and ``kernel`` is the
    kernel basis of the outgoing one, both as integer vectors.  They are
    inserted in that order into an echelon basis, each reduced in
    increasing pivot order until its first nonzero coordinate is new; a
    kernel vector that adds a coordinate contributes the label there.  The
    first nonzero coordinates of an echelon basis depend only on its span,
    so the labels depend only on the spans of the vectors inserted.
    """
    lead = {}

    def insert(vec):
        while vec:
            i = min(vec)
            pivot = lead.get(i)
            if pivot is None:
                lead[i] = vec
                return i
            vec = eliminate(vec, pivot, i)
        return None

    for vec in image:
        insert(vec)
    labels = []
    for vec in kernel:
        pr = insert(vec)
        if pr is not None:
            labels.append(cell.basis[pr])
    return tuple(labels)


def run(page: SpectralPage) -> RunResult:
    """Take homology at the single differential and read off the limits."""
    if page.differential is None:
        raise NotComposable("run needs an explicit differential")
    page.check_differential()
    c = page.c
    einf_cells = {}
    ranks = {}
    for (p, q), cell in page.cells.items():
        d_out = page.factor(p, q)
        if d_out.rank:
            ranks[(p, q)] = d_out.rank
        h = page.homology(p, q)
        if h:
            src = page.source_of(p, q)
            image = (primitive_rows(page.block(*src).transpose()).values()
                     if src in page.cells else ())
            labels = _homology_labels(cell, image, d_out.kernel_vectors())
            if len(labels) != h:
                raise HomologyMismatch(
                    f"cell ({p}, {q}): {len(labels)} homology labels for "
                    f"homology of dimension {h}")
            einf_cells[(p, q)] = WeightedCell(p, q, h, cell.weight, labels)
    einfty = SpectralPage(c, 2 * c + 1, einf_cells)
    if einfty.euler() != page.euler():
        raise HomologyMismatch(
            f"Euler characteristic drifted from {page.euler()} on the second "
            f"page to {einfty.euler()} on the limit page")
    maxk = max((p + q for (p, q) in einf_cells), default=0)
    betti = IntPoly([sum(cell.dim for (p, q), cell in einf_cells.items()
                         if p + q == k) for k in range(maxk + 1)])
    weights = WeightTable()
    for (p, q), cell in einf_cells.items():
        weights.add(p + q, cell.weight, cell.dim)
    return RunResult(einfty, betti, weights, ranks, page.euler())


def skew_row_homology(page: SpectralPage, k: int, ell: int) -> int:
    """Homology at position ``ell`` of the chain of cells joined by the
    differential whose position-j term sits at (k + ell - 2j, j).

    For hypersurface models this is the weight-(k + ell) graded piece of
    H^k of the complement; it must agree with the weight table of ``run``.
    The position-``ell`` cell is (k - ell, ell), and its homology is read
    from the same block factorisations that ``run`` uses.
    """
    if page.c != 1:
        raise NotRankOne("skew rows as displayed require c = 1")
    if page.differential is None:
        raise NotComposable("needs an explicit differential")
    page.check_differential()
    return page.homology(k - ell, ell)


def feasibility(page: SpectralPage, target: IntPoly | None = None) -> FeasibilityResult:
    """Exact Euler characteristic, per-degree bounds, and (optionally) the
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
