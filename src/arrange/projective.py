"""Cohomology rings of products of projective spaces, and the Gysin map of
the inclusions the package makes.

The ring of P^{d_1} x ... x P^{d_m} has one generator h_i per factor, with
h_i^(d_i + 1) = 0, so a monomial is its exponent tuple.  Every inclusion
of strata that the package makes pulls each target generator back to one
source generator, or to zero on a point: a coordinate or diagonal
inclusion.  It is written (source, target, pulls), where ``pulls[t]`` is
the source factor that target generator t pulls back to, or ``None``.
Its Gysin map is then exponent arithmetic with every coefficient 1:
f_*(x^a) is the sum of the target monomials m with m_t = top_t on every
target factor t pulled back to zero and sum_{t -> s} (top_t - m_t) =
top_s - a_s on every source factor s, where top is a space's vector of
factor dimensions.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ArrangeError
from .records import Frozen


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

    def monomials(self, k):
        return _monomials(self.factor_dims, k)

    def betti(self, p):
        if p % 2 or p < 0:
            return 0
        return len(self.monomials(p // 2))

    def betti_list(self):
        return tuple(self.betti(p) for p in range(2 * self.dim + 1))

    def __str__(self):
        return " x ".join(f"P{n}" for n in self.factor_dims)


def pushforward(f, a) -> tuple:
    """The target monomials of f_*(x^a), each with coefficient 1, for the
    inclusion f = (source, target, pulls) and the source exponent tuple
    ``a`` (see the module docstring)."""
    source, target, pulls = f
    top = target.factor_dims
    out = []
    # m_t = top_t on a factor pulled back to zero needs no test: with the
    # degree of m fixed, the sums over the source factors force it
    for m in target.monomials(sum(a) + target.dim - source.dim):
        exp = list(source.factor_dims)
        for t, s in enumerate(pulls):
            if s is not None:
                exp[s] -= top[t] - m[t]
        if tuple(exp) == a:
            out.append(m)
    return tuple(out)
