"""Cohomology rings of products of projective spaces.

A class is an integer linear combination of monomials h1^a1...hm^am with
each exponent bounded by the factor dimension.  Every map between such
products that the package makes pulls each target generator back to one
source generator, or to zero: a coordinate or diagonal inclusion.  Its
Gysin map is then exponent arithmetic: f_*(x^a) is the sum of the target
monomials m with m_t = top_t on every target factor t pulled back to zero
and sum_{t -> s} (top_t - m_t) = top_s - a_s on every source factor s.
Everything is graded: mixed-degree classes are rejected.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ArrangeError
from .records import Frozen


class SpaceMismatch(ArrangeError):
    pass


class DegreeMismatch(ArrangeError):
    pass


class NegativeCodim(ArrangeError):
    pass


@lru_cache(maxsize=None)
def _monomials(dims, k):
    """Exponent tuples of total degree k inside the box Prod [0, dims[i]]."""
    if not dims:
        return ((),) if k == 0 else ()
    out = []
    head = dims[0]
    for a in range(min(head, k) + 1):
        for rest in _monomials(dims[1:], k - a):
            out.append((a,) + rest)
    return tuple(out)


class ProjProduct(Frozen):
    """Product of complex projective spaces, one generator per factor."""

    __slots__ = ("factor_dims",)

    def __init__(self, factor_dims):
        factor_dims = tuple(int(n) for n in factor_dims)
        if not factor_dims:
            raise ArrangeError("need at least one projective factor")
        if any(n < 0 for n in factor_dims):
            raise ArrangeError("factor dimensions must be >= 0")
        object.__setattr__(self, "factor_dims", factor_dims)

    @property
    def dim(self):
        return sum(self.factor_dims)

    @property
    def nfactors(self):
        return len(self.factor_dims)

    def monomials(self, k):
        return _monomials(self.factor_dims, k)

    def betti(self, p):
        if p % 2 or p < 0:
            return 0
        return len(self.monomials(p // 2))

    def betti_list(self):
        return tuple(self.betti(p) for p in range(2 * self.dim + 1))

    def top(self):
        return tuple(self.factor_dims)

    def one(self):
        return CohClass(self, 0, {tuple(0 for _ in self.factor_dims): 1})

    def zero(self, degree):
        return CohClass(self, degree, {})

    def generator(self, i):
        """Degree-2 hyperplane class of factor i (zero if the factor is a point)."""
        if not 0 <= i < self.nfactors:
            raise ArrangeError(f"no factor {i}")
        if self.factor_dims[i] == 0:
            return self.zero(2)
        exp = tuple(1 if j == i else 0 for j in range(self.nfactors))
        return CohClass(self, 2, {exp: 1})

    def generators(self):
        return tuple(self.generator(i) for i in range(self.nfactors))

    def monomial_class(self, expts):
        expts = tuple(int(a) for a in expts)
        return CohClass(self, 2 * sum(expts), {expts: 1})

    def __str__(self):
        return " x ".join(f"P{n}" for n in self.factor_dims)


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


def pushforward(f: SpaceMap, a: CohClass) -> CohClass:
    """Gysin map of ``f`` by exponent arithmetic (see the module docstring).

    ``f`` must pull each target generator back to one source generator or
    to zero; any other map raises ``ArrangeError``.
    """
    if a.space != f.source:
        raise SpaceMismatch("class does not live on the map's source")
    if f.codim < 0:
        raise NegativeCodim(
            f"pushforward needs codim >= 0, got {f.codim} "
            f"({f.source} into {f.target})")
    hit = []   # (target factor, the source factor its generator pulls to)
    for t, img in enumerate(f.generator_images):
        if list(img.coeffs.values()) == [1]:   # one degree-2 monomial
            hit.append((t, next(iter(img.coeffs)).index(1)))
        elif img.coeffs:
            raise ArrangeError(
                f"pushforward needs each target generator to pull back to "
                f"one source generator or to zero; h{t + 1} pulls back to "
                f"{img!r}")
    top, source_top = f.target.top(), f.source.top()
    deg_out = a.degree + 2 * f.codim
    out = {}
    # m_t = top_t on a factor pulled back to zero needs no test: with the
    # degree of m fixed, the sums over the source factors force it
    for m in f.target.monomials(deg_out // 2):
        exp = list(source_top)
        for t, s in hit:
            exp[s] -= top[t] - m[t]
        c = a.coeffs.get(tuple(exp))
        if c:
            out[m] = c
    return CohClass(f.target, deg_out, out)


def power_inclusion(base: ProjProduct, copy_to_block) -> SpaceMap:
    """Multi-diagonal inclusion  base^(#blocks) -> base^(#copies).

    ``copy_to_block[i]`` names the block that copy i of the target collapses
    to; each target generator pulls back to the matching generator of its
    block.  Covers both partial-diagonal strata and plain diagonals.
    """
    copy_to_block = list(copy_to_block)
    nblocks = max(copy_to_block) + 1
    if sorted(set(copy_to_block)) != list(range(nblocks)):
        raise ArrangeError("blocks must be numbered 0..k without gaps")
    source = ProjProduct(base.factor_dims * nblocks)
    target = ProjProduct(base.factor_dims * len(copy_to_block))
    m = base.nfactors
    images = []
    for copy, block in enumerate(copy_to_block):
        for fct in range(m):
            images.append(source.generator(block * m + fct))
    return SpaceMap(source, target, tuple(images))
