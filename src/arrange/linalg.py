"""Exact linear algebra over the rationals.

Ranks and homology dimensions are discrete invariants: a single rounded
pivot would corrupt every Betti number downstream, so nothing here is
approximate.  Matrix entries are exact, ``int`` or ``Fraction``, stored
sparsely by row (a dict row -> dict column -> nonzero value).  The one
elimination runs on integers: ``echelon`` clears each row of its
denominators, reusing a row that is already a primitive integer row
(divided by the gcd of its entries), then combines rows fraction-free
into new primitive rows and never changes a row it was given;
``reduce_row`` reduces one such row against an echelon basis.  That
gives the rank, the pivot columns and the kernel basis of a matrix.

The poset layer runs on these integer rows too (``primitive``,
``reduce_row``), and a flat's key is ``Echelon.reduced`` of the echelon
basis that its closure keeps.  ``rref`` is a view of ``echelon``: the
canonical Fraction form of a row space.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .errors import ArrangeError


class ShapeMismatch(ArrangeError):
    pass


class CompositionNonzero(ArrangeError):
    pass


class RationalMatrix:
    """Sparse matrix over Q, stored by row: ``by_row`` maps the index of
    each nonzero row to that row, a dict column -> nonzero value."""

    __slots__ = ("rows", "cols", "by_row")

    def __init__(self, rows, cols, entries=None):
        """``entries`` maps (row, column) to a value; zeros are dropped."""
        if rows < 0 or cols < 0:
            raise ShapeMismatch(f"negative shape {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.by_row = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ShapeMismatch(f"index ({i},{j}) outside {rows}x{cols}")
                if not isinstance(v, (int, Fraction)):
                    v = Fraction(v)
                if v:
                    self.by_row.setdefault(i, {})[j] = v

    @classmethod
    def of_rows(cls, rows, cols, by_row):
        """The matrix stored in ``by_row`` itself, which it must fit."""
        m = cls(rows, cols)
        m.by_row = by_row
        return m

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

    def is_zero(self):
        return not self.by_row

    def __eq__(self, other):
        return (isinstance(other, RationalMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.by_row == other.by_row)

    def transpose(self):
        out = {}
        for i, row in self.by_row.items():
            for j, v in row.items():
                out.setdefault(j, {})[i] = v
        return RationalMatrix.of_rows(self.cols, self.rows, out)

    def __mul__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = {}
        for i, row in self.by_row.items():
            acc = {}
            for k, a in row.items():
                for j, b in other.by_row.get(k, {}).items():
                    acc[j] = acc.get(j, 0) + a * b
            if acc := {j: v for j, v in acc.items() if v}:
                out[i] = acc
        return RationalMatrix.of_rows(self.rows, other.cols, out)

    def rank(self):
        return echelon(self).rank

    def kernel_basis(self):
        """Basis of the right kernel, as tuples of Fractions (one per column)."""
        return echelon(self).kernel_basis()

    def __repr__(self):
        nnz = sum(map(len, self.by_row.values()))
        return f"RationalMatrix({self.rows}x{self.cols}, nnz={nnz})"


def _primitive(row):
    """``row`` divided by the gcd of its entries."""
    g = gcd(*row.values()) if row else 1
    if g != 1:
        row = {j: v // g for j, v in row.items()}
    return row


def primitive(row):
    """``row`` (column -> nonzero int or Fraction) cleared of denominators
    and divided by the gcd of its entries; a row that is already so is
    returned itself, so no caller may change a row it gets."""
    if any(type(v) is not int for v in row.values()):
        den = lcm(*(v.denominator for v in row.values()))
        row = {j: v.numerator * (den // v.denominator)
               for j, v in row.items()}
    return _primitive(row)


def primitive_rows(m):
    """Each nonzero row of ``m`` as ``primitive`` makes it, keyed by row."""
    return {i: primitive(row) for i, row in m.by_row.items()}


def product_is_zero(a, b):
    """Whether a * b == 0, on primitive integer forms: scaling the rows of
    ``a`` and the columns of ``b`` (the rows of its transpose, made for
    this one product) by nonzero numbers keeps the zero entries of a * b."""
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


def row_key(item):
    """A primitive row, given as (pivot, row), as a hashable that it shares
    with its negative: its entries with the pivot made positive."""
    pivot, row = item
    return frozenset(row.items() if row[pivot] > 0 else
                     ((j, -v) for j, v in row.items()))


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

    __slots__ = ("cols", "rows")

    def __init__(self, cols, rows):
        self.cols = cols
        self.rows = rows

    @property
    def rank(self):
        return len(self.rows)

    def _fully_reduced(self):
        """The rows with every pivot column cleared above each pivot."""
        full = {}
        for c in sorted(self.rows, reverse=True):
            full[c] = reduce_row(self.rows[c], full)
        return full

    def reduced(self, shared=None):
        """(rows, pivot columns) of the reduced row echelon form: each
        fully reduced row divided by its pivot, as a dense tuple of
        Fractions.  ``shared``, a dict, hands out each row and entry equal
        to one made with it before (a row is found by its ``row_key``, an
        entry by its numerator and denominator), so the forms made with one
        dict hold each distinct row and value once."""
        shared = {} if shared is None else shared
        zero = shared.setdefault((0, 1), Fraction(0))
        full = self._fully_reduced()
        pivots = tuple(sorted(full))
        rows = []
        for c in pivots:
            ints = full[c]
            key = row_key((c, ints))
            row = shared.get(key)
            if row is None:
                dense = [zero] * self.cols
                p = ints[c]
                for j, v in ints.items():
                    g = gcd(v, p) if p > 0 else -gcd(v, p)
                    x = v // g, p // g   # v / p in lowest terms
                    dense[j] = shared.get(x) or shared.setdefault(
                        x, Fraction(*x))
                row = shared[key] = tuple(dense)
            rows.append(row)
        return tuple(rows), pivots

    def kernel_basis(self):
        """The kernel basis as tuples of Fractions (one entry per column),
        from the fully reduced rows, which off their pivots are nonzero
        only at free columns."""
        full = self._fully_reduced()
        basis = {f: [Fraction(0)] * self.cols
                 for f in range(self.cols) if f not in full}
        for f, vec in basis.items():
            vec[f] = Fraction(1)
        for c, row in full.items():
            for j, v in row.items():
                if j != c:
                    basis[j][c] = Fraction(-v, row[c])
        return [tuple(vec) for vec in basis.values()]


def echelon(m: RationalMatrix) -> Echelon:
    """Fraction-free sparse elimination of ``m``.

    Rows are cleared of denominators first (``primitive_rows``), so a row
    of ``m`` that is already a primitive integer row enters as it is: the
    elimination changes only the dict that holds the rows, never a row.
    Each step takes the shortest remaining row, the first in input order
    among equally short ones, pivots on its first nonzero column and
    clears that column from every other remaining row with ``eliminate``,
    so entries stay integers and rows stay primitive.  The rows wait in a
    heap of (length, input position, row); an entry whose row has since
    changed length or been used is skipped when it comes up.
    """
    live = primitive_rows(m)
    by_col = {}
    for i, row in live.items():
        for j in row:
            by_col.setdefault(j, set()).add(i)
    position = {i: p for p, i in enumerate(live)}
    heap = [(len(row), position[i], i) for i, row in live.items()]
    heapify(heap)
    pivots = {}
    while live:
        length, _, i = heappop(heap)
        if i not in live or len(live[i]) != length:
            continue
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
                if len(new) != len(old):
                    heappush(heap, (len(new), position[i2], i2))
            else:
                del live[i2]
    return Echelon(m.cols, pivots)


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
    Fraction: the canonical representative of the row space.
    """
    return echelon(RationalMatrix.from_rows(rows)).reduced()
