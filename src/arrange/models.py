"""Concrete arrangement models and their independent oracles.

A model packages an intersection poset with the cohomology the page
machinery reads: the common member codimension c and one ``strata`` map
from every flat to its stratum, a ``ProjProduct`` where the geometry is
known and a Betti tuple otherwise.  The bottom flat's stratum is the
ambient space.  Inclusions of strata are made only when a differential
asks for them, each as (source, target, pulls): the source factor that
each target generator pulls back to, or ``None`` on a point (see
``projective``).  Projective hyperplane models and configuration models,
diagonal arrangements in a power of a projective product, have the
geometry that ``spectral.build_differential`` needs; ``explicit`` says
whether a run uses it by default.  Abstract models carry user-declared
combinatorics and Betti data and are confined to bounds mode.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .errors import ArrangeError, NotRankOne
from .polys import IntPoly
from .poset import IntersectionPoset
from .projective import ProjProduct
from .records import Record


class ArrangementModel(Record):
    __slots__ = ("kind", "poset", "c", "strata", "factor", "n", "ncd",
                 "explicit")

    def __init__(self, kind, poset, c, strata, factor=None, n=None,
                 ncd=False, explicit=False):
        self.kind = kind
        self.poset = poset
        self.c = c
        # flat index -> ProjProduct or Betti tuple; strata[poset.bottom]
        # is the ambient space
        self.strata = strata
        self.factor = factor
        self.n = n
        self.ncd = ncd
        self.explicit = explicit

    def stratum_betti(self, flat):
        data = self.strata[flat]
        return data.betti_list() if isinstance(data, ProjProduct) else data

    def inclusion_key(self, src, dst):
        """A value that names the inclusion of flat ``src``'s stratum into
        that of ``dst``, a flat below it: the codimension pair for a
        hyperplane model, the copy-to-block tuple for a configuration
        model, where block i of ``dst`` goes to the block of ``src`` that
        holds its first point."""
        if self.kind == "hyperplane":
            flats = self.poset.flats
            return flats[src].codim, flats[dst].codim
        if self.kind == "configuration":
            block_of = {x: b for b, block in
                        enumerate(self.poset.flats[src].key[1]) for x in block}
            return tuple(block_of[block[0]]
                         for block in self.poset.flats[dst].key[1])
        raise ArrangeError(f"no inclusion rule for kind {self.kind!r}")

    def inclusion(self, src, dst):
        """Inclusion of flat ``src``'s stratum into that of ``dst``, a flat
        below it, as (source, target, pulls), made on each call: only an
        explicit differential reads it.  ``pulls[t]`` is the source factor
        that target generator t pulls back to, or ``None`` on a point.
        ``inclusion(flat, poset.bottom)`` goes into the ambient space."""
        key = self.inclusion_key(src, dst)
        source, target = self.strata[src], self.strata[dst]
        if self.kind == "configuration":
            # factor i of copy c is factor i of c's block, unless a point
            dims = self.factor.factor_dims
            return source, target, tuple(
                None if d == 0 else block * len(dims) + i
                for block in key for i, d in enumerate(dims))
        # projective subspaces: the hyperplane class restricts to the
        # hyperplane class, or to zero on a point
        return source, target, (None if source.dim == 0 else 0,)


def _detect_ncd(poset):
    """Simple normal crossings: every flat lies on exactly codim members."""
    return all(bin(poset.member_mask(f.index)).count("1") == f.codim
               for f in poset.flats)


def hyperplane_model(forms, mode="projective", ambient_dim=None) -> ArrangementModel:
    """Hypersurface arrangement given by linear forms (covector, constant).

    Projective mode works on P^n via the cone; flats get projective-subspace
    geometries.  A projective model runs explicitly by default when it has
    simple normal crossings (``ncd``); the other projective models keep
    feasibility mode until the page-size policy widens it.  Affine and
    central modes keep the same combinatorics but have no compact ambient
    space, so they stay in feasibility/bounds mode with point-like stratum
    cohomology.
    """
    if not forms:
        raise ArrangeError("no forms")
    if ambient_dim is None:
        ambient_dim = len(forms[0][0]) - (1 if mode == "projective" else 0)
    poset = IntersectionPoset.from_linear_forms(forms, ambient_dim, mode)
    ncd = _detect_ncd(poset)
    if mode == "projective":
        strata = {f.index: ProjProduct((ambient_dim - f.codim,))
                  for f in poset.flats}
    else:
        strata = {f.index: (1,) for f in poset.flats}
    return ArrangementModel(
        kind="hyperplane", poset=poset, c=1, strata=strata,
        ncd=ncd, explicit=ncd and mode == "projective")


def configuration_model(factor: ProjProduct, n: int) -> ArrangementModel:
    """Diagonal arrangement in factor^n; the complement is the space of n
    pairwise-distinct labelled points."""
    if n < 2:
        raise ArrangeError("need at least two points")
    c = factor.dim
    if c < 1:
        raise ArrangeError("factor must have positive dimension")
    poset = IntersectionPoset.partition_lattice(n, c)
    # a stratum of k blocks is factor^k; the bottom flat has n blocks
    spaces = {k: ProjProduct(factor.factor_dims * k) for k in range(1, n + 1)}
    strata = {f.index: spaces[len(f.key[1])] for f in poset.flats}
    # explicit by default up to three points: a cost cap, not a limit of
    # the differential, until a page-size constant replaces it
    return ArrangementModel(
        kind="configuration", poset=poset, c=c, strata=strata,
        factor=factor, n=n, explicit=n <= 3)


class MissingBetti(ArrangeError):
    pass


def abstract_model(c, ambient_betti, flats, order) -> ArrangementModel:
    """Model from declared combinatorics.

    ``flats`` is a list of dicts with keys ``key``, ``codim``, ``betti``;
    ``order`` lists key pairs (shallower, deeper).  Admissibility is not
    checked here: ``cli.execute`` reports it as a verdict and
    ``stalks.stalk_tables`` refuses a model that fails it.  Stratum
    cohomology is trusted, pure of weight equal to degree.  No explicit
    differential is ever available.
    """
    if not ambient_betti:
        raise MissingBetti("ambient Betti numbers are required")
    specs = []
    for fl in flats:
        if "key" not in fl or "codim" not in fl:
            raise ArrangeError("abstract flats need 'key' and 'codim'")
        if str(fl["key"]) == "bottom":
            raise ArrangeError("'bottom' is reserved for the ambient space")
        if not fl.get("betti"):
            raise MissingBetti(f"flat {fl['key']!r} has no Betti data")
        specs.append((fl["key"], int(fl["codim"])))
    poset = IntersectionPoset.from_abstract(
        specs, order, codim_c=c, ambient_dim=(len(ambient_betti) - 1) // 2)
    key_to_index = {f.key[1]: f.index for f in poset.flats}
    strata = {poset.bottom: tuple(int(b) for b in ambient_betti)}
    for fl in flats:
        strata[key_to_index[str(fl["key"])]] = tuple(int(b) for b in fl["betti"])
    return ArrangementModel(kind="abstract", poset=poset, c=c, strata=strata)


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


class MonReport(Record):
    __slots__ = ("ok", "ok_flats", "bad_flats", "conclusion")

    def __init__(self, ok, ok_flats, bad_flats, conclusion):
        self.ok = ok
        self.ok_flats = ok_flats
        self.bad_flats = bad_flats
        self.conclusion = conclusion


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
