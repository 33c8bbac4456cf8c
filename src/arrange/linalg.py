"""Exact linear algebra over the rationals.

Ranks and homology dimensions are discrete invariants: a single rounded
pivot would corrupt every Betti number downstream, so nothing here is
approximate.  Matrix entries are exact, ``int`` or ``Fraction``, stored
sparsely (no zero entries).  The one elimination runs on integers:
``echelon`` clears each row of its denominators, then combines rows
fraction-free and keeps each one primitive (divided by the gcd of its
entries); ``reduce_row`` reduces one such row against an echelon basis.
That gives the rank, the pivot columns and the kernel basis of a matrix.

``rref`` is a view of ``echelon``: the canonical Fraction form of a row
space.  The poset layer calls it once per member, to find repeated members,
and once per flat, to write the flat's key; its closure runs on integer
rows with ``reduce_row``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import ArrangeError


class ShapeMismatch(ArrangeError):
    pass


class CompositionNonzero(ArrangeError):
    pass


class RationalMatrix:
    """Sparse matrix over Q; only nonzero entries are stored."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        if rows < 0 or cols < 0:
            raise ShapeMismatch(f"negative shape {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ShapeMismatch(f"index ({i},{j}) outside {rows}x{cols}")
                if not isinstance(v, (int, Fraction)):
                    v = Fraction(v)
                if v:
                    self.entries[(i, j)] = v

    @classmethod
    def from_rows(cls, data):
        data = [list(row) for row in data]
        cols = len(data[0]) if data else 0
        if any(len(row) != cols for row in data):
            raise ShapeMismatch("ragged rows")
        return cls(len(data), cols, {(i, j): v for i, row in enumerate(data)
                                     for j, v in enumerate(row) if v})

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols)

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): 1 for i in range(n)})

    def get(self, i, j):
        return self.entries.get((i, j), Fraction(0))

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (isinstance(other, RationalMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def transpose(self):
        return RationalMatrix(
            self.cols, self.rows,
            {(j, i): v for (i, j), v in self.entries.items()})

    def __mul__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        by_row = {}
        for (k, j), v in other.entries.items():
            by_row.setdefault(k, []).append((j, v))
        out = {}
        for (i, k), a in self.entries.items():
            for j, b in by_row.get(k, ()):
                key = (i, j)
                s = out.get(key, 0) + a * b
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return RationalMatrix(self.rows, other.cols, out)

    def rank(self):
        return echelon(self).rank

    def kernel_dim(self):
        return self.cols - self.rank()

    def kernel_basis(self):
        """Basis of the right kernel, as tuples of Fractions (one per column)."""
        return echelon(self).kernel_basis()

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


def _primitive(row):
    """``row`` divided by the gcd of its entries."""
    g = gcd(*row.values()) if row else 1
    if g != 1:
        row = {j: v // g for j, v in row.items()}
    return row


def primitive_rows(m):
    """Each nonzero row of ``m`` as a dict column -> int, cleared of
    denominators and divided by the gcd of its entries; keyed by row."""
    rows = {}
    for (i, j), v in m.entries.items():
        rows.setdefault(i, {})[j] = v
    out = {}
    for i, row in rows.items():
        den = lcm(*(v.denominator for v in row.values()))
        out[i] = _primitive({j: v.numerator * (den // v.denominator)
                             for j, v in row.items()})
    return out


def product_is_zero(a, b):
    """Whether a * b == 0.  Scaling the rows of ``a`` and the columns of
    ``b`` by nonzero numbers does not change which entries of the product
    vanish, so this runs on their primitive integer forms."""
    if a.cols != b.rows:
        raise ShapeMismatch(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    by_mid = {}
    for j, col in primitive_rows(b.transpose()).items():
        for k, v in col.items():
            by_mid.setdefault(k, []).append((j, v))
    for row in primitive_rows(a).values():
        acc = {}
        for k, x in row.items():
            for j, v in by_mid.get(k, ()):
                acc[j] = acc.get(j, 0) + x * v
        if any(acc.values()):
            return False
    return True


def eliminate(row, pivot_row, col):
    """The primitive integer combination of ``row`` and ``pivot_row`` that
    is zero at ``col``; both rows must be nonzero there."""
    a, b = pivot_row[col], row[col]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = {j: a * v for j, v in row.items() if j != col}
    for j, v in pivot_row.items():
        if j != col:
            nv = out.get(j, 0) - b * v
            if nv:
                out[j] = nv
            else:
                del out[j]
    return _primitive(out)


def reduce_row(row, basis):
    """``row`` (a primitive integer row, dict column -> int) with every
    pivot column of the echelon ``basis`` ({pivot column: primitive row,
    zero left of its pivot}) cleared, lowest pivot first; empty iff ``row``
    is in the span of ``basis``."""
    while pivots := row.keys() & basis.keys():
        c = min(pivots)
        row = eliminate(row, basis[c], c)
    return row


class Echelon:
    """Row echelon form of a matrix, kept in primitive integer rows.

    ``rows`` maps each pivot column to the row whose first nonzero column it
    is.  These are the pivot columns of the reduced row echelon form, so the
    kernel read off here is the one that form gives: one vector per free
    column f, with 1 at f and 0 at the other free columns.
    """

    __slots__ = ("cols", "rows", "_kernel", "_reduced")

    def __init__(self, cols, rows):
        self.cols = cols
        self.rows = rows
        self._kernel = self._reduced = None

    @property
    def rank(self):
        return len(self.rows)

    def _fully_reduced(self):
        """The rows with every pivot column cleared above each pivot."""
        full = {}
        for c in sorted(self.rows, reverse=True):
            full[c] = reduce_row(self.rows[c], full)
        return full

    def reduced(self):
        """(rows, pivot columns) of the reduced row echelon form, made on
        first use: each fully reduced row divided by its pivot, as a dense
        tuple of Fractions."""
        if self._reduced is None:
            full = self._fully_reduced()
            pivots = tuple(sorted(full))
            rows = []
            for c in pivots:
                dense = [Fraction(0)] * self.cols
                for j, v in full[c].items():
                    dense[j] = Fraction(v, full[c][c])
                rows.append(tuple(dense))
            self._reduced = tuple(rows), pivots
        return self._reduced

    def _kernel_terms(self):
        """(free column, [(pivot column, entry at the free column, pivot
        entry)]) in increasing column order, from the fully reduced rows."""
        if self._kernel is None:
            full = self._fully_reduced()
            terms = {}
            for c, row in full.items():
                for j, v in row.items():
                    if j != c:
                        terms.setdefault(j, []).append((c, v, row[c]))
            self._kernel = [(f, terms.get(f, [])) for f in range(self.cols)
                             if f not in full]
        return self._kernel

    def kernel_vectors(self):
        """The kernel basis as primitive integer vectors (dicts index -> int)."""
        out = []
        for f, terms in self._kernel_terms():
            scale = lcm(*(a for _, _, a in terms)) if terms else 1
            vec = {f: scale}
            for c, v, a in terms:
                vec[c] = -v * scale // a
            out.append(_primitive(vec))
        return out

    def kernel_basis(self):
        """The kernel basis as tuples of Fractions (one entry per column)."""
        basis = []
        for f, terms in self._kernel_terms():
            vec = [Fraction(0)] * self.cols
            vec[f] = Fraction(1)
            for c, v, a in terms:
                vec[c] = Fraction(-v, a)
            basis.append(tuple(vec))
        return basis


def echelon(m: RationalMatrix) -> Echelon:
    """Fraction-free sparse elimination of ``m``.

    Rows are cleared of denominators first.  Each step takes the shortest
    remaining row, pivots on its first nonzero column and clears that column
    from every other remaining row with ``eliminate``, so entries stay
    integers and rows stay primitive.
    """
    live = primitive_rows(m)
    by_col = {}
    for i, row in live.items():
        for j in row:
            by_col.setdefault(j, set()).add(i)
    pivots = {}
    while live:
        i = min(live, key=lambda k: len(live[k]))
        row = live.pop(i)
        for j in row:
            by_col[j].discard(i)
        col = min(row)
        pivots[col] = row
        for i2 in list(by_col[col]):
            old = live[i2]
            new = eliminate(old, row, col)
            for j in old:
                if j not in new:
                    by_col[j].discard(i2)
            for j in new:
                if j not in old:
                    by_col.setdefault(j, set()).add(i2)
            if new:
                live[i2] = new
            else:
                del live[i2]
    return Echelon(m.cols, pivots)


def rank(m: RationalMatrix) -> int:
    return m.rank()


def kernel_dim(m: RationalMatrix) -> int:
    return m.kernel_dim()


def homology_dim(d_in: RationalMatrix, d_out: RationalMatrix) -> int:
    """Dimension of ker(d_out)/im(d_in) for maps  A --d_in--> B --d_out--> C.

    The middle space B is the codomain of d_in and the domain of d_out.
    """
    if d_out.cols != d_in.rows:
        raise ShapeMismatch(
            f"middle space disagrees: d_out domain {d_out.cols}, d_in codomain {d_in.rows}")
    if not product_is_zero(d_out, d_in):
        raise CompositionNonzero("d_out * d_in != 0: not a complex")
    return d_out.cols - d_out.rank() - d_in.rank()


def rref(rows):
    """Reduced row echelon form with unit pivots, read off ``echelon``.

    Returns (rows, pivot_columns) with zero rows dropped, every entry a
    Fraction.  The output is the canonical representative of the row space,
    which is what the poset layer writes as a flat's key.
    """
    return echelon(RationalMatrix.from_rows(rows)).reduced()
