"""Boundary stalks of the derived pushforward and their constant-sheaf split.

Near a generic point of a flat the complement is governed by the local
arrangement of members through that flat.  Stalk dimensions obey a
deletion/restriction recursion: split off one member, recurse on the rest
and on the traced arrangement inside the split member, and glue with a
degree shift of 2c-1.  The recursion automatically concentrates output in
degrees divisible by 2c-1, carrying weight 2c*l in degree (2c-1)*l.  It
walks (flat mask, member atoms) pairs over the model's own poset, builds no
sub-poset, and memoizes per model on the flat mask and the atom mask.

Multiplicity of a stratum in the degree-(2c-1)l constant-sheaf summand is
the stalk dimension at its generic point; the pointwise check compares the
resulting sum of multiplicities against the raw recursion at every flat.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ArrangeError, NotAdmissible

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


@dataclass
class StalkTable:
    """Stalk dimensions at a generic point of one flat, for member
    codimension c."""
    flat: int
    dims: dict
    c: int

    @property
    def weights(self):
        """Weight 2c*l in degree (2c-1)*l, derived from the degree."""
        return {k: 2 * self.c * k // (2 * self.c - 1) for k in self.dims}


@dataclass(frozen=True)
class Summand:
    """One constant-sheaf summand: multiplicity copies of the constant sheaf
    on the closure of ``support``, sitting in degree (2c-1)*level."""
    support: int
    level: int
    degree: int
    multiplicity: int
    weight: int


@dataclass
class SheafDecomposition:
    c: int
    summands: tuple
    # the pointwise check that ``decompose`` ran on this decomposition
    pointwise: PointwiseReport | None = field(default=None, compare=False,
                                              repr=False)


@dataclass
class PointwiseReport:
    ok: bool
    mismatches: list = field(default_factory=list)


def _require_admissible(model):
    report = model.poset.check_admissible()
    if not report.ok:
        raise NotAdmissible(
            f"{len(report.violations)} flats violate the codimension pattern",
            report=report)


def _recurse(model, flats, atoms, depth=0):
    """Stalk dimensions of the local arrangement ``(flats, atoms)`` of the
    model's poset (all members pass through the point), as degree -> dim."""
    if depth > _DEPTH_LIMIT:
        raise RecursionDepthExceeded(
            "stalk recursion exceeded the depth guard; malformed poset?")
    poset, c = model.poset, model.c
    key = poset.content_key(flats, atoms)
    hit = model._stalk_memo.get(key)
    if hit is not None:
        return hit
    s = len(atoms)
    if s == 0:
        dims = {0: 1}
    elif s == 1:
        dims = {0: 1, 2 * c - 1: 1}
    else:
        deleted = _recurse(model, *poset.delete_member(flats, atoms, 0), depth + 1)
        traced = _recurse(model, *poset.restrict_to_member(flats, atoms, 0), depth + 1)
        top = max(2 * c - 1, max(deleted), max(traced) + 2 * c - 1)
        dims = {0: 1}
        for k in range(1, top + 1):
            v = (1 if k == 2 * c - 1 else 0) + deleted.get(k, 0)
            if k + 1 > 2 * c:
                v += traced.get(k + 1 - 2 * c, 0)
            if v:
                dims[k] = v
    model._stalk_memo[key] = dims
    return dims


def _stalk_table(model, flat):
    dims = _recurse(model, *model.poset.local_arrangement(flat))
    return StalkTable(flat, dict(dims), model.c)


def stalk_dims(model, flat) -> StalkTable:
    """Stalk table at a generic point of ``flat`` (poset index)."""
    _require_admissible(model)
    return _stalk_table(model, flat)


def stalk_tables(model) -> dict:
    """Stalk tables at every flat; admissibility is checked once."""
    _require_admissible(model)
    return {f.index: _stalk_table(model, f.index) for f in model.poset.flats}


def decompose(model, tables=None) -> SheafDecomposition:
    """Constant-sheaf decomposition: one summand per flat with nonzero
    generic stalk in its own level degree.  Level 0 (the constant sheaf on
    the ambient space) is left implicit."""
    if tables is None:
        tables = stalk_tables(model)
    else:
        _require_admissible(model)
    c = model.c
    summands = []
    for f in model.poset.flats:
        if f.index == model.poset.bottom:
            continue
        level = f.codim // c
        degree = (2 * c - 1) * level
        mult = tables[f.index].dims.get(degree, 0)
        if mult:
            summands.append(Summand(f.index, level, degree, mult, 2 * c * level))
    dec = SheafDecomposition(c, tuple(summands))
    report = dec.pointwise = verify_pointwise(model, dec, tables=tables)
    if not report.ok:
        raise InconsistentDecomposition(
            f"{len(report.mismatches)} stalk/multiplicity mismatches",
            dec=dec, report=report)
    return dec


def verify_pointwise(model, dec: SheafDecomposition, tables=None) -> PointwiseReport:
    """At every flat and degree, the stalk dimension must equal the sum of
    multiplicities of summands whose support closure contains the flat."""
    if tables is None:
        tables = stalk_tables(model)
    poset = model.poset
    by_degree = {}
    for s in dec.summands:
        by_degree.setdefault(s.degree, []).append(s)
    mismatches = []
    for f in poset.flats:
        table = tables[f.index]
        degrees = set(table.dims) | set(by_degree)
        for k in sorted(degrees):
            lhs = table.dims.get(k, 0)
            if k == 0:
                rhs = 1  # the implicit ambient constant sheaf
            else:
                rhs = sum(s.multiplicity for s in by_degree.get(k, ())
                          if poset.le(s.support, f.index))
            if lhs != rhs:
                mismatches.append({
                    "flat": f.index, "degree": k,
                    "stalk": lhs, "decomposition": rhs})
    return PointwiseReport(not mismatches, mismatches)
