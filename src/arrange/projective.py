"""Cohomology rings of products of projective spaces.

A class is an integer linear combination of monomials h1^a1...hm^am with
each exponent bounded by the factor dimension; every class, pairing and
pushforward on a product of projective spaces is integral.  In this basis
the Poincare pairing is the anti-diagonal permutation matrix, so the
duality-defined pushforward is a direct coefficient transcription rather
than a linear solve.  Everything is graded: mixed-degree classes are
rejected.
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

    def __add__(self, other):
        if self.space != other.space or self.degree != other.degree:
            raise SpaceMismatch("can only add classes of equal space and degree")
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            s = out.get(exp, 0) + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return CohClass(self.space, self.degree, out)

    def scale(self, factor):
        return CohClass(self.space, self.degree,
                        {e: c * factor for e, c in self.coeffs.items()})

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


def cup(a: CohClass, b: CohClass) -> CohClass:
    """Product with truncation above the factor dimensions."""
    if a.space != b.space:
        raise SpaceMismatch("cup product needs classes on the same space")
    box = a.space.factor_dims
    out = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if any(x > n for x, n in zip(e, box)):
                continue
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return CohClass(a.space, a.degree + b.degree, out)


def _power(a: CohClass, k: int) -> CohClass:
    acc = a.space.one()
    for _ in range(k):
        acc = cup(acc, a)
    return acc


def pullback(f: SpaceMap, a: CohClass) -> CohClass:
    """Ring pullback: substitute generator images and expand."""
    if a.space != f.target:
        raise SpaceMismatch("class does not live on the map's target")
    out = f.source.zero(a.degree)
    for exp, c in a.coeffs.items():
        term = f.source.one()
        for j, e in enumerate(exp):
            if e:
                term = cup(term, _power(f.generator_images[j], e))
        out = out + term.scale(c)
    return out


def poincare_pair(a: CohClass, b: CohClass) -> int:
    """Coefficient of the top monomial in a.b (the Poincare pairing)."""
    if a.space != b.space:
        raise SpaceMismatch("pairing needs classes on the same space")
    if a.degree + b.degree != 2 * a.space.dim:
        raise DegreeMismatch(
            f"degrees {a.degree}+{b.degree} != 2*dim = {2 * a.space.dim}")
    top = a.space.top()
    total = 0
    for e1, c1 in a.coeffs.items():
        e2 = tuple(t - x for t, x in zip(top, e1))
        c2 = b.coeffs.get(e2)
        if c2:
            total += c1 * c2
    return total


def pushforward(f: SpaceMap, a: CohClass) -> CohClass:
    """Wrong-way map defined by duality: <f_* a, b> = <a, f^* b>.

    In the monomial basis the pairing is the anti-diagonal permutation, so
    each target coefficient is a single pairing evaluation.
    """
    if a.space != f.source:
        raise SpaceMismatch("class does not live on the map's source")
    if f.codim < 0:
        raise NegativeCodim(
            f"pushforward needs codim >= 0, got {f.codim} "
            f"({f.source} into {f.target})")
    deg_out = a.degree + 2 * f.codim
    target = f.target
    out = {}
    top = target.top()
    for mono in target.monomials(deg_out // 2):
        dual = tuple(t - m for t, m in zip(top, mono))
        val = poincare_pair(a, pullback(f, target.monomial_class(dual)))
        if val:
            out[mono] = val
    return CohClass(target, deg_out, out)


def compose(g: SpaceMap, f: SpaceMap) -> SpaceMap:
    """Composite g o f recorded on generators."""
    if f.target != g.source:
        raise SpaceMismatch("maps not composable")
    images = tuple(pullback(f, img) for img in g.generator_images)
    return SpaceMap(f.source, g.target, images)


def identity_map(s: ProjProduct) -> SpaceMap:
    return SpaceMap(s, s, s.generators())


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
