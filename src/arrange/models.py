"""Concrete arrangement models and their independent oracles.

A model packages an intersection poset with the geometry needed by the
page machinery: the common member codimension c, the ambient space, and
(where available) explicit stratum geometries with their inclusions.
Hyperplane models detect simple normal crossings, which is what licenses
the explicit differential; configuration models are diagonal arrangements
in a power of a projective product; abstract models carry user-declared
combinatorics and Betti data and are confined to bounds mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

from .errors import ArrangeError, NotAdmissible, NotRankOne
from .polys import IntPoly
from .poset import IntersectionPoset
from .projective import ProjProduct, SpaceMap, power_inclusion


@dataclass
class ArrangementModel:
    kind: str
    poset: IntersectionPoset
    c: int
    ambient: object                  # ProjProduct or Betti tuple
    geometry: dict | None = None     # flat index -> (ProjProduct, SpaceMap)
    abstract_betti: dict | None = None
    mode: str | None = None
    factor: ProjProduct | None = None
    n: int | None = None
    ncd: bool = False
    explicit: bool = False
    _stalk_memo: dict = field(default_factory=dict, repr=False)

    def ambient_betti(self):
        if isinstance(self.ambient, ProjProduct):
            return self.ambient.betti_list()
        return tuple(self.ambient)

    def stratum_betti(self, flat):
        if self.geometry is not None and flat in self.geometry:
            return self.geometry[flat][0].betti_list()
        if self.abstract_betti is not None and flat in self.abstract_betti:
            return tuple(self.abstract_betti[flat])
        raise ArrangeError(f"no cohomology data for flat {flat}")

    def strata(self):
        """Per-flat cohomology carriers, as consumed by page assembly."""
        out = {}
        for f in self.poset.flats:
            if self.geometry is not None and f.index in self.geometry:
                out[f.index] = self.geometry[f.index][0]
            elif self.abstract_betti is not None and f.index in self.abstract_betti:
                out[f.index] = tuple(self.abstract_betti[f.index])
        return out

    def inclusion(self, src, dst):
        """Inclusion map between the geometries of two nested flats."""
        if self.geometry is None:
            raise ArrangeError("model has no stratum geometry")
        sgeom = self.geometry[src][0]
        dgeom = self.geometry[dst][0]
        if self.kind == "hyperplane":
            # projective subspaces: the hyperplane class restricts to the
            # hyperplane class, or to zero on a point
            images = tuple(sgeom.generator(i) for i in range(dgeom.nfactors))
            return SpaceMap(sgeom, dgeom, images)
        raise ArrangeError(f"no inclusion rule for kind {self.kind!r}")

    def check_admissible(self):
        return self.poset.check_admissible()


def _detect_ncd(poset):
    """Simple normal crossings: every flat lies on exactly codim members."""
    return all(bin(poset.member_mask(f.index)).count("1") == f.codim
               for f in poset.flats)


def hyperplane_model(forms, mode="projective", ambient_dim=None,
                     poset=None) -> ArrangementModel:
    """Hypersurface arrangement given by linear forms (covector, constant).

    Projective mode works on P^n via the cone; flats get projective-subspace
    geometries with their inclusions, and detecting normal crossings turns
    the explicit differential on.  Affine and central modes keep the same
    combinatorics but have no compact ambient space, so they stay in
    feasibility/bounds mode with point-like stratum cohomology.

    ``poset`` may supply a previously built (cached) poset of the same
    forms; it is sanity-checked, not reverified.
    """
    forms = [(list(cov), Fraction(const)) for cov, const in forms]
    if not forms:
        raise ArrangeError("no forms")
    if ambient_dim is None:
        ambient_dim = len(forms[0][0]) - (1 if mode == "projective" else 0)
    if poset is not None and (poset.mode != mode
                              or len(poset.members) != len(forms)
                              or poset.ambient_dim != ambient_dim):
        poset = None
    if poset is None:
        poset = IntersectionPoset.from_linear_forms(forms, ambient_dim, mode)
    ncd = _detect_ncd(poset)
    geometry = None
    abstract = None
    if mode == "projective":
        n = ambient_dim
        ambient = ProjProduct((n,))
        geometry = {}
        for f in poset.flats:
            geom = ProjProduct((n - f.codim,))
            inc = SpaceMap(geom, ambient, (geom.generator(0),))
            geometry[f.index] = (geom, inc)
    else:
        ambient = (1,)
        abstract = {f.index: (1,) for f in poset.flats}
    return ArrangementModel(
        kind="hyperplane", poset=poset, c=1, ambient=ambient,
        geometry=geometry, abstract_betti=abstract, mode=mode,
        ncd=ncd, explicit=ncd and mode == "projective")


def configuration_model(factor: ProjProduct, n: int, poset=None) -> ArrangementModel:
    """Diagonal arrangement in factor^n; the complement is the space of n
    pairwise-distinct labelled points."""
    if n < 2:
        raise ArrangeError("need at least two points")
    c = factor.dim
    if c < 1:
        raise ArrangeError("factor must have positive dimension")
    if poset is not None and (poset.mode != "partition" or poset.codim_c != c
                              or len(poset.members) != n * (n - 1) // 2):
        poset = None
    if poset is None:
        poset = IntersectionPoset.partition_lattice(n).scale_codims(c)
    ambient = ProjProduct(factor.factor_dims * n)
    geometry = {}
    for f in poset.flats:
        blocks = f.key[1]
        block_of = {}
        for b, block in enumerate(blocks):
            for x in block:
                block_of[x] = b
        copy_to_block = [block_of[i] for i in range(1, n + 1)]
        inc = power_inclusion(factor, copy_to_block)
        geom = inc.source
        if geom.dim != ambient.dim - f.codim:
            raise ArrangeError("stratum dimension bookkeeping broke")
        geometry[f.index] = (geom, inc)
    return ArrangementModel(
        kind="configuration", poset=poset, c=c, ambient=ambient,
        geometry=geometry, factor=factor, n=n, explicit=n <= 3)


class MissingBetti(ArrangeError):
    pass


def abstract_model(c, ambient_betti, flats, order) -> ArrangementModel:
    """Model from declared combinatorics.

    ``flats`` is a list of dicts with keys ``key``, ``codim``, ``betti``;
    ``order`` lists key pairs (shallower, deeper).  The admissibility check
    runs on the declared codimensions; stratum cohomology is trusted, pure
    of weight equal to degree.  No explicit differential is ever available.
    """
    if not ambient_betti:
        raise MissingBetti("ambient Betti numbers are required")
    specs = []
    betti = {}
    for fl in flats:
        if "key" not in fl or "codim" not in fl:
            raise ArrangeError("abstract flats need 'key' and 'codim'")
        if str(fl["key"]) == "bottom":
            raise ArrangeError("'bottom' is reserved for the ambient space")
        if not fl.get("betti"):
            raise MissingBetti(f"flat {fl['key']!r} has no Betti data")
        specs.append((fl["key"], int(fl["codim"])))
    poset = IntersectionPoset.from_abstract(specs, order, codim_c=c)
    key_to_index = {f.key[1]: f.index for f in poset.flats}
    for fl in flats:
        betti[key_to_index[str(fl["key"])]] = tuple(int(b) for b in fl["betti"])
    report = poset.check_admissible()
    if not report.ok:
        raise NotAdmissible(
            f"{len(report.violations)} flats violate the codimension pattern",
            report=report)
    return ArrangementModel(
        kind="abstract", poset=poset, c=c, ambient=tuple(int(b) for b in ambient_betti),
        abstract_betti=betti, mode="abstract", explicit=False)


def os_oracle(poset: IntersectionPoset) -> IntPoly:
    """Sum of |mu| over flats, graded by codimension: the classical Betti
    numbers of a hypersurface-arrangement complement.

    A projective poset is coned, then the cone's polynomial is divided by
    (1 + t), exactly.  The cone adds the apex (codim ambient_dim + 1, |mu| =
    |sum of all other mu|) unless some flat lies on every member.
    """
    if poset.codim_c != 1:
        raise NotRankOne(f"oracle needs c = 1, got c = {poset.codim_c}")
    if poset.mode in ("affine", "central", "partition"):
        return _mobius_poly(poset)
    if poset.mode == "projective":
        cone = _mobius_poly(poset)
        everything = (1 << len(poset.members)) - 1
        if not any(poset.member_mask(f.index) == everything
                   for f in poset.flats):
            cone = cone + IntPoly.monomial(poset.ambient_dim + 1,
                                           abs(sum(poset.mobius)))
        return cone.div_exact(IntPoly([1, 1]))
    raise ArrangeError(f"no oracle for mode {poset.mode!r}")


def euler_oracle(factor: ProjProduct, n) -> int:
    """chi(F(X, n)) = prod_{i<n} (chi(X) - i) for X = factor, with
    chi(P^{d_1} x ... x P^{d_r}) = prod (d_i + 1).

    The Fadell-Neuwirth fibration F(X, n) -> F(X, n - 1) has fibre X minus
    n - 1 points (Fadell-Neuwirth 1962; Totaro, Topology 35, 1996).  It
    reads neither the poset nor the stalks.
    """
    chi = prod(d + 1 for d in factor.factor_dims)
    return prod(chi - i for i in range(n))


def _mobius_poly(poset):
    coeffs = {}
    for f in poset.flats:
        coeffs[f.codim] = coeffs.get(f.codim, 0) + abs(poset.mu(f.index))
    return IntPoly([coeffs.get(k, 0) for k in range(max(coeffs) + 1)])


@dataclass
class MonReport:
    ok: bool
    ok_flats: list
    bad_flats: list
    conclusion: list


def check_mon(model: ArrangementModel, exponents) -> MonReport:
    """Check that the local monodromy product is nontrivial at every flat.

    ``exponents`` gives one rational per member, read additively modulo 1
    (the angle of a root-of-unity scalar).  A flat fails when the exponents
    of the members through it sum to an integer.
    """
    if model.c != 1:
        raise NotRankOne("monodromy condition is stated for c = 1 models")
    poset = model.poset
    exps = [Fraction(e) % 1 for e in exponents]
    if len(exps) != len(poset.members):
        raise ArrangeError(
            f"{len(exps)} exponents for {len(poset.members)} members")
    ok_flats, bad_flats = [], []
    for f in poset.proper_flats():
        mask = poset.member_mask(f.index)
        total = Fraction(0)
        for m in range(len(poset.members)):
            if mask >> m & 1:
                total += exps[m]
        (ok_flats if total % 1 else bad_flats).append(f.index)
    ok = not bad_flats
    conclusion = []
    if ok:
        conclusion = [
            "boundary stalks of the derived pushforward vanish",
            "Rj_*L = j_!L",
            "H^*(U;L) = H^*_c(U;L)",
            "the page is concentrated in the bottom row",
            "H^p(U;L) = H^p(X,D;j_*L)  (relative group not computed)",
        ]
    return MonReport(ok, ok_flats, bad_flats, conclusion)
