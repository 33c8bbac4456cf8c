"""Integer polynomials in one variable t, used for Betti and Poincare bookkeeping."""

from __future__ import annotations

from .errors import ArrangeError


class IntPoly:
    """Immutable polynomial with integer coefficients, indexed by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(int(c) for c in cs)

    @classmethod
    def monomial(cls, degree, coeff=1):
        return cls((0,) * degree + (coeff,))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coeff(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def to_list(self):
        return list(self.coeffs)

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(
            tuple(self.coeff(i) + other.coeff(i) for i in range(n)))

    def div_exact(self, other):
        """Exact division; raises if the remainder is nonzero."""
        if not other:
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        out = [0] * max(len(rem) - len(other.coeffs) + 1, 0)
        lead = other.coeffs[-1]
        for i in range(len(out) - 1, -1, -1):
            c = rem[i + len(other.coeffs) - 1]
            if c % lead:
                raise ArrangeError(f"{self} is not divisible by {other}")
            q = c // lead
            out[i] = q
            for j, b in enumerate(other.coeffs):
                rem[i + j] -= q * b
        if any(rem):
            raise ArrangeError(f"{self} is not divisible by {other}")
        return IntPoly(out)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                t = "t" if k == 1 else f"t^{k}"
                if c == 1:
                    parts.append(t)
                elif c == -1:
                    parts.append(f"-{t}")
                else:
                    parts.append(f"{c}{t}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"
