"""Second-page assembly, the single differential, and weight extraction.

The page of a c-codimensional model has nonzero rows only at q = (2c-1)*l,
one per level l; the cell at (p, q) is pure of weight p + 2c*l
(``SpectralPage.weight``), and the only differential that can be nonzero
is the one of bidegree (2c, 1-2c), which moves a cell by one level and
keeps that weight.  By purity the sequence degenerates after it, so the
limit page is the homology of that one differential, and only its
dimensions and weights are read.  Running the page therefore means: check
d^2 = 0, take each block's rank from one factorisation, and read each
cell's homology dimension, the Betti numbers off the antidiagonals and the
weight-graded pieces off the rows: the part of H^k from row l has weight
k + l.  No basis of the limit page is picked.

A cell's basis is its runs: one (flat, tokens, copies) run per stratum
that reaches it, laid out run by run, then copy by copy, then token by
token, so the differential finds each image's row by arithmetic.

Without the differential (feasibility and bounds modes) the page still
pins the Euler characteristic and per-degree bounds; with a target polynomial the
admissible differential ranks form short chains along skew-rows, searched
exactly by a memoized depth-first search that stops undecided past a
budget of splits.
"""

from __future__ import annotations

from .errors import ArrangeError, NotRankOne
# homology_dim is no longer called here; it stays in this namespace for
# callers that wrap it (benchmark/tracer.py counts its calls)
from .linalg import (RationalMatrix, echelon, homology_dim,  # noqa: F401
                     product_is_zero)
from .polys import IntPoly
from .poset import _bits
from .projective import ProjProduct, pushforward
from .records import Frozen, Record
from .stalks import level_degree, level_weight


class MissingStratumData(ArrangeError):
    pass


class NotComposable(ArrangeError):
    pass


class Infeasible(ArrangeError):
    pass


class MalformedCell(ArrangeError):
    """A cell's runs disagree with their flats' nbc sets, hold a flat twice,
    or leave an image of the differential no place."""


class WeightedCell(Frozen):
    """One cell of a page; its position is its key in ``SpectralPage.cells``.

    Its basis is ``runs``, one (flat, tokens, copies) run per stratum in
    the cell, laid out run by run, then copy by copy, then token by token;
    ``dim`` is read off the runs once.  Its weight is the page's
    (``SpectralPage.weight``).
    """
    __slots__ = ("runs", "dim")
    _hidden = ("dim",)

    def __init__(self, runs):
        init = object.__setattr__
        init(self, "runs", runs)
        init(self, "dim", sum(len(tokens) * copies
                              for _, tokens, copies in runs))


class SpectralPage:
    """The second page: a bigraded table of cells with at most one
    differential, d_2c.

    The page keeps its own copy of the caller's block table and takes the
    rank of each block (``rank``, from one factorisation that is not kept)
    and the d^2 check (``check_differential``) once; the blocks must not
    change afterwards.  Both read a block's own rows where they are
    primitive integer rows, as a built block's are, and never change them;
    the d^2 check makes a block's primitive columns for one product at a
    time.
    """

    def __init__(self, c, cells, differential=None):
        self.c = c
        self.cells = dict(cells)
        self.differential = None if differential is None else dict(differential)
        self._ranks = {}
        self._checked = False
        for _, q in self.cells:
            if q % (2 * c - 1):
                raise ArrangeError(
                    f"cell at q={q} would violate the vanishing pattern (c={c})")

    def cell_dim(self, p, q):
        cell = self.cells.get((p, q))
        return cell.dim if cell else 0

    def weight(self, p, q):
        """Weight p + 2c*l of the cell at (p, q = (2c-1)*l)."""
        return p + level_weight(self.c, q // level_degree(self.c, 1))

    def target_of(self, p, q):
        return (p + 2 * self.c, q - 2 * self.c + 1)

    def source_of(self, p, q):
        return (p - 2 * self.c, q + 2 * self.c - 1)

    def euler(self):
        return sum((-1) ** (p + q) * cell.dim
                   for (p, q), cell in self.cells.items())

    def with_differential(self, diff):
        return SpectralPage(self.c, self.cells, differential=diff)

    def block(self, p, q):
        """Differential matrix leaving (p, q), zero-filled to the right shape."""
        tgt = self.target_of(p, q)
        if self.differential:
            m = self.differential.get((p, q))
            if m is not None:
                return m
        return RationalMatrix.zeros(self.cell_dim(*tgt), self.cell_dim(p, q))

    def rank(self, p, q):
        """Rank of the block leaving (p, q), factored once per page."""
        r = self._ranks.get((p, q))
        if r is None:
            r = self._ranks[(p, q)] = echelon(self.block(p, q)).rank
        return r

    def homology(self, p, q):
        """dim ker(d_out) / im(d_in) at (p, q), from the blocks' ranks;
        0 off the page.  The page must have passed check_differential."""
        cell = self.cells.get((p, q))
        if cell is None:
            return 0
        src = self.source_of(p, q)
        rank_in = self.rank(*src) if src in self.cells else 0
        return cell.dim - self.rank(p, q) - rank_in

    def check_differential(self):
        """Block shapes and d^2 = 0; once the page has passed, later calls
        return at once."""
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
        for (p, q), m in self.differential.items():
            tkey = self.target_of(p, q)
            nxt = self.differential.get(tkey)
            if nxt is None or m.is_zero() or nxt.is_zero():
                continue
            if not product_is_zero(nxt, m):
                raise NotComposable(f"d^2 != 0 at {(p, q)}")
        self._checked = True

    def __repr__(self):
        return (f"SpectralPage(c={self.c}, cells={len(self.cells)}, "
                f"differential={'yes' if self.differential else 'no'})")


class RunResult(Record):
    __slots__ = ("homology", "betti", "weights", "ranks", "euler")

    def __init__(self, homology, betti, weights, ranks, euler):
        self.homology = homology   # (p, q) -> nonzero homology dimension
        self.betti = betti         # IntPoly
        self.weights = weights     # (degree, weight) -> nonzero dim
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


def assemble_e2(model, summands) -> SpectralPage:
    """Build the page from the decomposition (a tuple of ``Summand``s, as
    ``stalks.decompose`` makes it) and the model's strata.

    Row q = 0 is the cohomology of the ambient space, the stratum of the
    bottom flat; each summand adds a row q = (2c-1)*level from the stratum
    of its support.
    Each adds one run (support, tokens, multiplicity) to every cell its
    stratum reaches, ``tokens`` being the stratum's basis in that degree,
    so a differential can be filled in later.
    """
    c = model.c
    rows = [(0, model.poset.bottom, 1)] + [
        (level_degree(c, s.level), s.support, s.multiplicity)
        for s in sorted(summands, key=lambda s: (s.level, s.support))]
    cells = {}
    for q, flat, multiplicity in rows:
        data = model.strata.get(flat)
        if data is None:
            raise MissingStratumData(f"no cohomology data for flat {flat}")
        for p in range(_max_degree(data) + 1):
            tokens = _tokens_of(data, p)
            if tokens:
                cells.setdefault((p, q), []).append((flat, tokens, multiplicity))

    return SpectralPage(c, {key: WeightedCell(tuple(runs))
                            for key, runs in cells.items()})


def _nbc_bases(poset):
    """Each flat's no-broken-circuit (nbc) sets, and where each set sits.

    Returns (nbc, where): ``nbc[g]`` is the sorted tuple of flat g's nbc
    sets, each an increasing tuple of member positions, and ``where[s]`` is
    (the flat that s spans, the position of s in its tuple).  The least
    member m through g lies in every nbc set that spans g, and the rest of
    the set is an nbc set of a lower cover of g not on m (Bjorner 1992), so
    the sets are made shallowest flat first.
    """
    bottom = poset.bottom
    nbc = {bottom: ((),)}
    where = {(): (bottom, 0)}
    for g in sorted(range(len(poset)), key=lambda g: poset.flats[g].codim):
        if g == bottom:
            continue
        mask = poset.member_mask(g)
        m = (mask & -mask).bit_length() - 1
        covers = poset.lower_covers(g) & ~poset.up[poset.members[m].atom]
        sets = nbc[g] = tuple(sorted((m, *t) for h in _bits(covers)
                                     for t in nbc[h]))
        where.update((s, (g, i)) for i, s in enumerate(sets))
    return nbc, where


def build_differential(model, page) -> dict:
    """The d2 of a projective hyperplane or configuration model: the Gysin
    alternating sum of the Orlik-Solomon model (Orlik-Solomon 1980;
    Totaro 1996).

    Copy i of flat g on the page is g's i-th nbc set S, and
    d(x (x) e_S) = sum_j (-1)^j i_*(x) (x) e_(S minus s_j), with i the
    inclusion of g's stratum into that of the flat S minus s_j spans.  A
    run whose copies are not its flat's nbc sets, and a target cell that
    holds a flat in two runs or no run, raise ``MalformedCell``.  A
    monomial's image along the inclusion's pulls map is made once per
    (``ArrangementModel.inclusion_key``, monomial).  Each image monomial
    has coefficient 1, so the face's sign goes straight into the integer
    rows of its block, at row (run start) + copy * (run width) + (token
    position) of its target.
    """
    if not all(isinstance(s, ProjProduct) for s in model.strata.values()):
        raise ArrangeError("the differential needs every stratum's geometry "
                           "(a projective hyperplane or configuration model)")
    nbc, where = _nbc_bases(model.poset)
    for key, cell in page.cells.items():
        for g, _, copies in cell.runs:
            if copies != len(nbc[g]):
                raise MalformedCell(
                    f"cell {key} has {copies} copies of flat {g}, which has "
                    f"{len(nbc[g])} nbc sets")
    faces = {}    # (flat, copy) -> [(sign, flat below, its copy, map key)]
    pushed = {}   # (map key, monomial) -> monomials of the image

    def images(g, token, copy):
        face = faces.get((g, copy))
        if face is None:
            s = nbc[g][copy]
            face = faces[(g, copy)] = []
            for j in range(len(s)):
                h, at = where[s[:j] + s[j + 1:]]
                face.append((-1 if j % 2 else 1, h, at,
                             model.inclusion_key(g, h)))
        for sign, h, at, key in face:
            image = pushed.get((key, token))
            if image is None:
                image = pushed[(key, token)] = pushforward(
                    model.inclusion(g, h), token)
            for exp in image:
                yield h, exp, at, sign

    indexes = {}  # tokens -> {token: its position in the tuple}
    diff = {}
    for (p, q), cell in sorted(page.cells.items()):
        tkey = page.target_of(p, q)
        tcell = page.cells.get(tkey)
        if tcell is None:
            continue
        place, start = {}, 0  # flat -> (first row, token index, run width)
        for h, tokens, copies in tcell.runs:
            if h in place:
                raise MalformedCell(f"cell {tkey} holds flat {h} in two runs")
            index = indexes.get(tokens)
            if index is None:
                index = indexes[tokens] = {t: i for i, t in enumerate(tokens)}
            place[h] = start, index, len(tokens)
            start += len(tokens) * copies
        columns = ((g, token, copy) for g, tokens, copies in cell.runs
                   for copy in range(copies) for token in tokens)
        rows = {}
        for col, label in enumerate(columns):
            # distinct faces and nonzero images: each entry is set once
            for h, exp, at, coef in images(*label):
                try:
                    first, index, width = place[h]
                    row = first + at * width + index[exp]
                except KeyError:
                    raise MalformedCell(
                        f"cell {tkey} has no basis label {(h, exp, at)}, the "
                        f"image of {label} in cell {(p, q)}") from None
                rows.setdefault(row, {})[col] = coef
        diff[(p, q)] = RationalMatrix.of_rows(tcell.dim, cell.dim, rows)
    return diff


def run(page: SpectralPage) -> RunResult:
    """Take homology at the single differential and read off the limits:
    each block's rank, and each cell's homology dimension from those."""
    if page.differential is None:
        raise NotComposable("run needs an explicit differential")
    page.check_differential()
    homology, ranks = {}, {}
    for p, q in page.cells:
        if r := page.rank(p, q):
            ranks[(p, q)] = r
        if h := page.homology(p, q):
            homology[(p, q)] = h
    maxk = max((p + q for (p, q) in homology), default=0)
    betti = IntPoly([sum(h for (p, q), h in homology.items() if p + q == k)
                     for k in range(maxk + 1)])
    # the weight minus the degree is the row's level: no key repeats
    weights = {(p + q, page.weight(p, q)): h
               for (p, q), h in homology.items()}
    return RunResult(homology, betti, weights, ranks, page.euler())


def skew_row_homology(page: SpectralPage, k: int, ell: int) -> int:
    """Homology at position ``ell`` of the chain of cells joined by the
    differential whose position-j term sits at (k + ell - 2j, j).

    For hypersurface models this is the weight-(k + ell) graded piece of
    H^k of the complement.  The position-``ell`` cell is (k - ell, ell),
    and its homology is read from the same block ranks that
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
