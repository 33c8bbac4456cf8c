"""Boundary stalks of the derived pushforward and their constant-sheaf split.

Near a generic point of a flat the complement is governed by the local
arrangement of members through that flat.  Stalk dimensions obey a
deletion/restriction recursion: split off one member, recurse on the rest
and on the traced arrangement inside the split member, and glue with a
degree shift of 2c-1.  The recursion automatically concentrates output in
degrees divisible by 2c-1, carrying weight 2c*l in degree (2c-1)*l.  It
walks (flat mask, member atoms) pairs over the model's own poset and builds
no sub-poset.  Each ``stalk_tables`` call keeps one memo, keyed by each
pair's shape (see ``IntersectionPoset.content_key``), so isomorphic local
arrangements share one entry; an abstract poset, or a pair in which two
flats lie on the same atoms, is keyed by its flat mask and atom mask
instead.  The memo is dropped when the call returns.

Multiplicity of a stratum in the degree-(2c-1)l constant-sheaf summand is
the stalk dimension at its generic point; the pointwise check compares the
resulting sum of multiplicities against the raw recursion at every flat.
"""

from __future__ import annotations

from .errors import ArrangeError, NotAdmissible
from .poset import _bits
from .records import Frozen, Record

# Deepest nesting of restrictions in the stalk recursion.  A built poset
# nests at most its rank, and a rank-r poset of flats has at least 2^r
# flats, so ``poset.MAX_FLATS`` keeps that under 17; only an abstract
# poset's declared order can get here.
_DEPTH_LIMIT = 200


class RecursionDepthExceeded(ArrangeError):
    pass


class InconsistentDecomposition(ArrangeError):
    """Pointwise check failed: stalk dims are not sums of multiplicities.

    Carries the attempted decomposition and the mismatch report; this can
    only happen for declared (abstract) combinatorics that no actual
    arrangement realizes.
    """

    def __init__(self, message, dec=None, report=None):
        super().__init__(message)
        self.dec = dec
        self.report = report


class StalkTable(Record):
    """Stalk dimensions at a generic point of one flat, for member
    codimension c."""
    __slots__ = ("dims", "c")

    def __init__(self, dims, c):
        self.dims = dims
        self.c = c

    @property
    def weights(self):
        """Degree -> weight, by ``stalk_weight``."""
        return {k: stalk_weight(self.c, k) for k in self.dims}


def level_degree(c, level):
    """Degree (2c-1)*level of the level-``level`` stalks and summands."""
    return (2 * c - 1) * level


def stalk_weight(c, degree):
    """Weight 2c*l of a stalk in degree (2c-1)*l: the recursion puts stalks
    in no other degree, so the weight follows from the degree alone."""
    return 2 * c * degree // (2 * c - 1)


class Summand(Frozen):
    """One constant-sheaf summand: multiplicity copies of the constant sheaf
    on the closure of ``support``, sitting in degree (2c-1)*level."""
    __slots__ = ("support", "level", "degree", "multiplicity")

    def __init__(self, support, level, degree, multiplicity):
        init = object.__setattr__
        init(self, "support", support)
        init(self, "level", level)
        init(self, "degree", degree)
        init(self, "multiplicity", multiplicity)


class SheafDecomposition(Record):
    __slots__ = ("summands", "pointwise")
    _hidden = ("pointwise",)

    def __init__(self, summands, pointwise=None):
        self.summands = summands
        # the pointwise check that ``decompose`` ran on this decomposition
        self.pointwise = pointwise


class PointwiseReport(Record):
    __slots__ = ("ok", "mismatches")

    def __init__(self, ok, mismatches=None):
        self.ok = ok
        self.mismatches = [] if mismatches is None else mismatches


def _recurse(model, memo, flats, atoms, masks, depth=0):
    """Stalk dimensions of the local arrangement ``(flats, atoms)`` of the
    model's poset (all members pass through the point), as degree -> dim.
    ``masks`` are its position masks, or None (see ``position_masks``);
    ``memo`` maps ``content_key`` keys to the dims found so far.

    The deletions of member 0 are walked in a loop, down to a memo hit or
    at most one atom, and then folded back up, gluing each state's deletion
    with its restriction; only the restrictions nest, ``depth`` deep."""
    if depth > _DEPTH_LIMIT:
        raise RecursionDepthExceeded(
            f"stalk restrictions nested more than {_DEPTH_LIMIT} deep, "
            f"which only an abstract poset's declared order can do")
    poset, c = model.poset, model.c
    chain = []
    while True:
        key = poset.content_key(flats, atoms, masks)
        dims = memo.get(key)
        if dims is not None:
            break
        if len(atoms) <= 1:
            dims = memo[key] = {0: 1, 2 * c - 1: 1} if atoms else {0: 1}
            break
        chain.append((key, flats, atoms))
        flats, atoms = poset.delete_member(flats, atoms, 0)
        if masks is not None:
            # the remaining atoms move down one position
            masks = {f: m >> 1 for f, m in masks.items() if flats >> f & 1}
    for key, flats, atoms in reversed(chain):
        deleted = dims
        kept, rest = poset.restrict_to_member(flats, atoms, 0)
        traced = _recurse(model, memo, kept, rest,
                          poset.position_masks(kept, rest), depth + 1)
        top = max(2 * c - 1, max(deleted), max(traced) + 2 * c - 1)
        dims = {0: 1}
        for k in range(1, top + 1):
            v = (1 if k == 2 * c - 1 else 0) + deleted.get(k, 0)
            if k + 1 > 2 * c:
                v += traced.get(k + 1 - 2 * c, 0)
            if v:
                dims[k] = v
        memo[key] = dims
    return dims


def _stalk_table(model, flat, memo):
    poset = model.poset
    dims = _recurse(model, memo, *poset.local_arrangement(flat),
                    poset.local_position_masks(flat))
    return StalkTable(dict(dims), model.c)


def stalk_tables(model) -> dict:
    """Stalk tables at every flat.  A model with a flat whose codimension is
    not a multiple of c is refused with ``NotAdmissible``, naming them."""
    poset = model.poset
    bad = poset.check_admissible().violations
    if bad:
        names = ", ".join(f"{poset.flats[i].display} (codim "
                          f"{poset.flats[i].codim})" for i in bad)
        raise NotAdmissible(f"not admissible: the codimension of {names} "
                            f"is not a multiple of c = {model.c}")
    memo = {}
    return {f.index: _stalk_table(model, f.index, memo) for f in poset.flats}


def decompose(model, tables=None) -> SheafDecomposition:
    """Constant-sheaf decomposition: one summand per flat with nonzero
    generic stalk in its own level degree.  Level 0 (the constant sheaf on
    the ambient space) is left implicit.  Given ``tables``, it reads them
    as they are; without, it makes them with ``stalk_tables``."""
    if tables is None:
        tables = stalk_tables(model)
    c = model.c
    summands = []
    for f in model.poset.flats:
        if f.index == model.poset.bottom:
            continue
        level = f.codim // c
        degree = level_degree(c, level)
        mult = tables[f.index].dims.get(degree, 0)
        if mult:
            summands.append(Summand(f.index, level, degree, mult))
    dec = SheafDecomposition(tuple(summands))
    report = dec.pointwise = verify_pointwise(model, dec, tables)
    if not report.ok:
        raise InconsistentDecomposition(
            f"{len(report.mismatches)} stalk/multiplicity mismatches",
            dec=dec, report=report)
    return dec


def verify_pointwise(model, dec: SheafDecomposition, tables) -> PointwiseReport:
    """At every flat and degree, the stalk dimension must equal the sum of
    multiplicities of summands whose support closure contains the flat.

    Each summand adds its multiplicity at every flat of the up-set of its
    support, so the sums cost one step per (summand, flat above it).  They
    read only ``dec`` and the order, never the recursion or its memo, so the
    raw recursion's dims in ``tables`` are compared with an independent
    count."""
    poset = model.poset
    sums = {k: [0] * len(poset.flats) for k in {s.degree for s in dec.summands}}
    for s in dec.summands:
        acc = sums[s.degree]
        for f in _bits(poset.up[s.support]):
            acc[f] += s.multiplicity
    mismatches = []
    for f in poset.flats:
        table = tables[f.index]
        degrees = set(table.dims) | set(sums)
        for k in sorted(degrees):
            lhs = table.dims.get(k, 0)
            if k == 0:
                rhs = 1  # the implicit ambient constant sheaf
            else:
                rhs = sums[k][f.index] if k in sums else 0
            if lhs != rhs:
                mismatches.append({
                    "flat": f.index, "degree": k,
                    "stalk": lhs, "decomposition": rhs})
    return PointwiseReport(not mismatches, mismatches)
