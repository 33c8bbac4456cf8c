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
exactly by a memoized depth-first search that stops undecided past a
budget of splits.
"""

from __future__ import annotations

from .errors import ArrangeError, NotRankOne
# homology_dim is no longer called here; it stays in this namespace for
# callers that wrap it (benchmark/tracer.py counts its calls)
from .linalg import (RationalMatrix, echelon, homology_dim,  # noqa: F401
                     primitive_rows, product_is_zero, reduce_row)
from .polys import IntPoly
from .poset import _bits
from .projective import ProjProduct, power_inclusion, pushforward
from .records import Frozen, Record
from .stalks import stalk_weight


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
    """A cell's homology labels disagree in number with its ranks."""


class _Labels:
    """The basis labels (flat, token, copy) of one page cell, held as runs
    (flat, tokens, multiplicity) until a label is first read.

    The length comes from the runs.  Iteration, indexing, equality and
    hashing read the label tuple, which is expanded once, in the order
    "run, copy, token", and then replaces the runs.  Only an explicit
    differential reads labels, so the implicit modes never expand them.
    """

    __slots__ = ("_runs", "_len", "_labels")

    def __init__(self, runs):
        self._runs = runs
        self._len = sum(len(tokens) * mult for _, tokens, mult in runs)
        self._labels = None

    def _expanded(self):
        labels = self._labels
        if labels is None:
            labels = self._labels = tuple(
                (flat, token, m) for flat, tokens, mult in self._runs
                for m in range(mult) for token in tokens)
            self._runs = None
        return labels

    def __len__(self):
        return self._len

    def __iter__(self):
        return iter(self._expanded())

    def __getitem__(self, i):
        return self._expanded()[i]

    def __eq__(self, other):
        if isinstance(other, _Labels):
            other = other._expanded()
        return self._expanded() == other

    def __hash__(self):
        return hash(self._expanded())

    def __repr__(self):
        return repr(self._expanded())


class WeightedCell(Frozen):
    """One cell of a page; its position is its key in ``SpectralPage.cells``."""
    __slots__ = ("dim", "weight", "basis")

    def __init__(self, dim, weight, basis):
        init = object.__setattr__
        init(self, "dim", dim)
        init(self, "weight", weight)
        # labels (flat index, monomial token, multiplicity index)
        init(self, "basis", basis)


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


class RunResult(Record):
    __slots__ = ("einfty", "betti", "weights", "ranks", "euler")

    def __init__(self, einfty, betti, weights, ranks, euler):
        self.einfty = einfty       # SpectralPage
        self.betti = betti         # IntPoly
        self.weights = weights     # WeightTable
        self.ranks = ranks
        self.euler = euler


class FeasibilityResult(Record):
    __slots__ = ("euler", "bounds", "feasible", "unique", "ranks",
                 "undecided", "splits")

    def __init__(self, euler, bounds, feasible=None, unique=None, ranks=None,
                 undecided=False, splits=0):
        self.euler = euler
        self.bounds = bounds           # k -> (lower, upper)
        self.feasible = feasible
        self.unique = unique
        self.ranks = ranks
        self.undecided = undecided     # the search went over its split budget
        self.splits = splits           # splits the rank search visited


def _tokens_of(data, p):
    """Basis tokens of a stratum in degree 0 <= p <= _max_degree(data)."""
    if isinstance(data, ProjProduct):
        return data.monomials(p // 2) if p % 2 == 0 else ()
    return tuple(("deg", p, i) for i in range(data[p]))


def _max_degree(data):
    if isinstance(data, ProjProduct):
        return 2 * data.dim
    return len(data) - 1


def assemble_e2(model, dec) -> SpectralPage:
    """Build the page from the decomposition and the model's strata.

    Row q = 0 is the cohomology of the ambient space, the stratum of the
    bottom flat; each summand adds a row from the stratum of its support.
    Cells carry basis labels (support, monomial token, multiplicity copy)
    so a differential can be filled in later; they are expanded from runs
    (support, tokens, multiplicity) only when first read.
    """
    c = model.c
    rows = [(0, model.poset.bottom, 1)] + [
        (s.degree, s.support, s.multiplicity)
        for s in sorted(dec.summands, key=lambda s: (s.level, s.support))]
    cells = {}
    for q, flat, multiplicity in rows:
        data = model.strata.get(flat)
        if data is None:
            raise MissingStratumData(f"no cohomology data for flat {flat}")
        for p in range(_max_degree(data) + 1):
            tokens = _tokens_of(data, p)
            if tokens:
                cells.setdefault((p, q), []).append((flat, tokens, multiplicity))

    out = {}
    for (p, q), runs in cells.items():
        labels = _Labels(runs)
        out[(p, q)] = WeightedCell(len(labels), p + stalk_weight(c, q), labels)
    return SpectralPage(c, 2 * c, out)


def _build_blocks(page, rows, images):
    """The blocks of the differential leaving the cells in ``rows``.

    ``images(push, cell, label)`` says where one basis label of the cell at
    ``cell`` goes, as (target label, integer coefficient) pairs, and the
    pairs are summed into one block per cell whose target cell exists.
    ``push(map_key, inclusion, monomial)`` is the coefficient dict of the
    pushforward of a monomial class along ``inclusion()``, made once per
    (map_key, monomial) in this build; ``map_key`` must name the map, not
    only its two spaces.
    """
    table = {}

    def push(map_key, inclusion, monomial):
        image = table.get((map_key, monomial))
        if image is None:
            f = inclusion()
            image = table[(map_key, monomial)] = pushforward(
                f, f.source.monomial_class(monomial)).coeffs
        return image

    diff = {}
    for (p, q), cell in sorted(page.cells.items()):
        tcell = page.cells.get(page.target_of(p, q))
        if q not in rows or tcell is None:
            continue
        tpos = {label: i for i, label in enumerate(tcell.basis)}
        entries = {}
        for col, label in enumerate(cell.basis):
            for tlabel, coef in images(push, (p, q), label):
                at = (tpos[tlabel], col)
                entries[at] = entries.get(at, 0) + coef
        diff[(p, q)] = RationalMatrix(tcell.dim, cell.dim, entries)
    return diff


def build_differential_ncd(model, page) -> dict:
    """Alternating sum of one-step pushforwards between incident strata.

    Requires simple normal crossings: each flat lies on exactly codim many
    members, so dropping one member from a flat's set names a unique
    shallower flat.  The sign is (-1)^(position of the dropped member in
    the sorted member tuple).  A stratum's space and the inclusion of one
    stratum into another (``ArrangementModel.inclusion``) depend only on
    the flats' codimensions, so each image is pushed forward once per
    (source codimension, target codimension, monomial).
    """
    if model.kind != "hyperplane" or not model.explicit:
        raise NoGeometry("explicit blocks need a normal-crossing hyperplane "
                         "model with stratum geometry")
    poset = model.poset
    codim = [f.codim for f in poset.flats]
    mask_to_flat = {poset.member_mask(f.index): f.index for f in poset.flats}

    def images(push, cell, label):
        fi, token, _ = label
        mask = poset.member_mask(fi)
        out = []
        for j, mpos in enumerate(_bits(mask)):
            gi = mask_to_flat[mask & ~(1 << mpos)]
            sign = -1 if j % 2 else 1
            image = push((codim[fi], codim[gi]),
                         lambda: model.inclusion(fi, gi), token)
            out.extend(((gi, exp, 0), sign * val) for exp, val in image.items())
        return out

    return _build_blocks(page, {q for (_, q) in page.cells if q >= 1}, images)


# Multiplicity-space coefficients for the three-point diagonal arrangement:
# columns index the two copies supported on the small diagonal, rows the
# pair diagonals in sorted order.  Columns sum to zero, which together with
# pushforward functoriality forces d^2 = 0; the rank-2 column space is the
# full sum-zero plane, so homology does not depend on the choice of basis.
_TRIPLE_MULT = ((-1, -1), (1, 0), (0, 1))


def build_differential_config(model, page) -> dict:
    """Explicit blocks for configuration models of up to three points.

    Level 1 goes to level 0 by the pushforward along each pair diagonal,
    once per (flat, monomial), since each flat has its own inclusion.
    Level 2 goes to level 1 by the pushforward along the diagonal
    Y -> Y^2, once per monomial, spread over the pair diagonals by
    ``_TRIPLE_MULT``.
    """
    if model.kind != "configuration":
        raise NoGeometry("not a configuration model")
    n = model.n
    if n > 3:
        raise ExplicitModeUnavailable(
            f"explicit differential implemented for n <= 3, got n = {n}")
    poset = model.poset
    q1 = 2 * model.c - 1
    pair_flats = sorted(f.index for f in poset.flats if f.codim == model.c)
    small = next((f.index for f in poset.flats if f.codim == 2 * model.c),
                 None)
    delta = power_inclusion(model.factor, [0, 0])   # Y -> Y^2 diagonal

    def images(push, cell, label):
        fi, token, mult = label
        if cell[1] == q1:
            image = push(fi, lambda: model.ambient_inclusion(fi), token)
            return [((poset.bottom, exp, 0), val) for exp, val in image.items()]
        if fi != small:
            raise MalformedCell(
                f"cell {cell} has a basis label on flat {fi}, "
                f"not on the small diagonal {small}")
        if mult >= len(_TRIPLE_MULT[0]):
            raise MalformedCell(
                f"cell {cell} has copy {mult} of the small diagonal {small}; "
                f"three points give it {len(_TRIPLE_MULT[0])}")
        image = push(None, lambda: delta, token)
        return [((pf, exp, 0), coefs[mult] * val)
                for pf, coefs in zip(pair_flats, _TRIPLE_MULT)
                for exp, val in image.items()]

    return _build_blocks(page, (q1, 2 * q1) if n == 3 else (q1,), images)


def _homology_labels(cell, image, kernel):
    """Pick basis labels for the homology of one cell.

    ``image`` spans the image of the incoming block and ``kernel`` is the
    kernel basis of the outgoing one, both as integer vectors.  They are
    inserted in that order into an echelon basis, each reduced against it
    with ``reduce_row``; a kernel vector that adds a first nonzero
    coordinate contributes the label there.  The first nonzero coordinates
    of an echelon basis depend only on its span, so the labels depend only
    on the spans of the vectors inserted.
    """
    lead = {}
    for vec in image:
        if vec := reduce_row(vec, lead):
            lead[min(vec)] = vec
    labels = []
    for vec in kernel:
        if vec := reduce_row(vec, lead):
            lead[min(vec)] = vec
            labels.append(cell.basis[min(vec)])
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
            einf_cells[(p, q)] = WeightedCell(h, cell.weight, labels)
    einfty = SpectralPage(c, 2 * c + 1, einf_cells)
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
    H^k of the complement.  The position-``ell`` cell is (k - ell, ell),
    and its homology is read from the same block factorisations that
    ``run`` uses, so it is the entry ``run`` files under (k, k + ell).
    """
    if page.c != 1:
        raise NotRankOne("skew rows as displayed require c = 1")
    if page.differential is None:
        raise NotComposable("needs an explicit differential")
    page.check_differential()
    return page.homology(k - ell, ell)


# Splits the rank search may visit before it stops undecided.  Each split
# adds at most one memo entry, so this also bounds the memo.
FEASIBILITY_BUDGET = 3_000_000


class _OverBudget(Exception):
    pass


def _splits(total, caps):
    """Every r with 0 <= r[i] <= caps[i] and sum(r) == total, in
    lexicographically ascending order; ``caps`` is nonempty."""
    if len(caps) == 1:
        if total <= caps[0]:
            yield (total,)
        return
    rest = sum(caps[1:])
    for r in range(max(0, total - rest), min(caps[0], total) + 1):
        for tail in _splits(total - r, caps[1:]):
            yield (r,) + tail


class _RankSearch:
    """Depth-first count of the rank assignments that give a target.

    Stage i is the i-th antidiagonal that holds cells; a state is (i, the
    incoming ranks of stage i's cells, in sorted cell order).  ``memo`` maps
    each visited state to (completions capped at 2, first split that has a
    completion).
    """

    def __init__(self, page, target):
        cells = page.cells
        self.splits = 0
        self.memo = {}
        self.degrees = sorted({p + q for (p, q) in cells})
        self.keys = [sorted(key for key in cells if sum(key) == k)
                     for k in self.degrees]
        self.dims = [tuple(cells[key].dim for key in keys) for keys in self.keys]
        self.betti = [target.coeff(k) for k in self.degrees]
        self.deepest = self.degrees[0] if self.degrees else 0
        self.start = (0,) * len(self.keys[0]) if self.keys else ()
        # per stage: each cell's position in the next stage (None when its
        # target is no cell) and the cap the target puts on its rank
        self.feeds, self.target_dims = [], []
        for i, keys in enumerate(self.keys):
            nxt = self.keys[i + 1] if i + 1 < len(self.keys) else []
            where = {key: j for j, key in enumerate(nxt)}
            tgts = [page.target_of(*key) for key in keys]
            self.feeds.append(tuple(where.get(t) for t in tgts))
            self.target_dims.append(tuple(page.cell_dim(*t) if t in cells
                                          else 0 for t in tgts))

    def _next(self, i, split):
        """Incoming ranks of stage i + 1 after ``split`` at stage i."""
        width = len(self.keys[i + 1]) if i + 1 < len(self.keys) else 0
        nxt = [0] * width
        for j, r in zip(self.feeds[i], split):
            if j is not None:
                nxt[j] = r
        return tuple(nxt)

    def count(self, i, incoming):
        """Completions from state (i, incoming), capped at 2."""
        if i == len(self.degrees):
            return 1
        state = (i, incoming)
        hit = self.memo.get(state)
        if hit is not None:
            return hit[0]
        self.deepest = max(self.deepest, self.degrees[i])
        total, first = 0, None
        need = sum(self.dims[i]) - sum(incoming) - self.betti[i]
        if need >= 0:
            caps = tuple(max(0, min(d - a, t)) for d, a, t in
                         zip(self.dims[i], incoming, self.target_dims[i]))
            for split in _splits(need, caps):
                if self.splits >= FEASIBILITY_BUDGET:
                    raise _OverBudget
                self.splits += 1
                found = self.count(i + 1, self._next(i, split))
                if found and first is None:
                    first = split
                total += found
                if total >= 2:
                    total = 2
                    break
        self.memo[state] = (total, first)
        return total

    def first_ranks(self):
        """The first solution, following each state's first split."""
        ranks = {}
        incoming = self.start
        for i, keys in enumerate(self.keys):
            split = self.memo[(i, incoming)][1]
            ranks.update((key, r) for key, r in zip(keys, split) if r)
            incoming = self._next(i, split)
        return ranks


def feasibility(page: SpectralPage, target: IntPoly | None = None) -> FeasibilityResult:
    """Exact Euler characteristic, per-degree bounds, and (optionally) the
    integer rank assignments reproducing a target Betti polynomial.

    Every cell has at most one incoming and one outgoing block, so the
    unknown ranks decompose along skew-rows.  The search walks the
    antidiagonals in order; at each it splits the forced total rank among
    the cells' outgoing blocks, and it is memoized on (antidiagonal,
    incoming ranks of its cells), with each state's number of completions
    capped at 2.  The first solution is the first in the order r ascending,
    cell by cell, antidiagonal by antidiagonal.

    The search visits at most ``FEASIBILITY_BUDGET`` splits; past that it
    stops and returns an undecided result (``feasible`` None, ``undecided``
    True), never ``Infeasible``.
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

    search = _RankSearch(page, target)
    try:
        count = search.count(0, search.start)
    except _OverBudget:
        return FeasibilityResult(euler, bounds, undecided=True,
                                 splits=search.splits)
    if not count:
        raise Infeasible(
            "no integer rank assignment matches the target along the "
            f"skew-rows; first obstruction at total degree {search.deepest}")
    return FeasibilityResult(euler, bounds, feasible=True, unique=count == 1,
                             ranks=search.first_ranks(), splits=search.splits)
