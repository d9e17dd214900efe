"""Exact rational linear algebra and sparse multivariate polynomials.

Everything here is exact (Fraction entries; det fraction-free on integers)
so that algebraic identities (pairings, Pfaffians, Gram determinants) can be
asserted with no tolerance.  Matrices are plain lists of lists, vectors are
lists; nothing is mutated in place by the public functions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter


class Record:
    """Base of the record classes, written by hand so that import generates
    no code.  The fields are the parameters of ``__init__``, in order; records
    of one class are equal and hash as their field tuples (once: the hash is
    kept in ``__dict__``), and the repr is ``Name(field=value, ...)``.  Fields
    cannot be assigned or deleted, so ``__init__`` sets each with
    ``object.__setattr__``."""

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        get = attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda r: (get(r),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        if (h := self.__dict__.get("_hash")) is None:
            h = self.__dict__["_hash"] = hash(self._values(self))
        return h

    def __reduce__(self):
        return type(self), self._values(self)

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


def fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def monomials(nvars, degree):
    """Exponent tuples of the degree-``degree`` monomials in ``nvars``
    variables, heads descending (x0^d first)."""
    if nvars == 1:
        return [(degree,)]
    out = []
    for head in range(degree, -1, -1):
        out.extend((head,) + rest for rest in monomials(nvars - 1, degree - head))
    return out


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _echelon(matrix):
    """Row echelon form by exact elimination below each pivot, the kernel
    of _rref; returns (rows, pivot_columns)."""
    rows = [list(map(fr, row)) for row in matrix]
    nrows = len(rows)
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        for i in range(r + 1, nrows):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def _rref(matrix):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows, pivots = _echelon(matrix)
    for r in reversed(range(len(pivots))):
        c = pivots[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(r):
            if rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
    return rows, pivots


def nullspace(matrix, ncols=None):
    """Basis of the right kernel, one list of Fractions per basis vector."""
    ncols = ncols or (len(matrix[0]) if matrix else 0)
    rows, pivots = _rref(matrix)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        v = [Fraction(0)] * ncols
        v[fcol] = Fraction(1)
        for r, pcol in enumerate(pivots):
            v[pcol] = -rows[r][fcol]
        basis.append(v)
    return basis


def solve(matrix, rhs):
    """Solve A x = b exactly; raises ValueError when there is no solution,
    when b does not have one entry per equation, or when there are no
    equations to read the number of unknowns from."""
    if len(rhs) != len(matrix):
        raise ValueError(f"{len(rhs)} right-hand sides for {len(matrix)} equations")
    if not matrix:
        raise ValueError("a system with no equations has no column count")
    ncols = len(matrix[0])
    rows, pivots = _rref([list(row) + [b] for row, b in zip(matrix, rhs)])
    # in reduced form, a zero row with a nonzero right-hand side is a pivot
    # in the right-hand column
    if ncols in pivots:
        raise ValueError("inconsistent linear system")
    x = [Fraction(0)] * ncols
    for r, pcol in enumerate(pivots):
        x[pcol] = rows[r][-1]
    return x


def det(matrix) -> Fraction:
    """Determinant by Bareiss's fraction-free elimination (Math. Comp. 22,
    1968): clear each row of denominators once; then each step (a_kk a_ij -
    a_ik a_kj) / prev, an exact integer division, drops the pivot row and
    column, and the last pivot is the determinant of the scaled rows."""
    rows = [list(map(fr, row)) for row in matrix]
    scales = [math.lcm(*(x.denominator for x in row)) for row in rows]
    rows = [[x.numerator * (m // x.denominator) for x in row] for row, m in zip(rows, scales)]
    sign, prev = 1, 1
    while len(rows) > 1:
        swap = next((i for i, row in enumerate(rows) if row[0]), None)
        if swap is None:
            return Fraction(0)
        if swap:
            rows[0], rows[swap] = rows[swap], rows[0]
            sign = -sign
        p, *rk = rows[0]
        rows = [[(p * x - a * y) // prev for x, y in zip(rest, rk)]
                for a, *rest in rows[1:]]
        prev = p
    return Fraction(sign * rows[0][0], math.prod(scales)) if rows else Fraction(1)


class MultiPoly:
    """Sparse multivariate polynomial with Fraction coefficients.

    Terms map exponent tuples (fixed length ``nvars``) to nonzero Fractions.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for mono, coef in terms.items():
                c = fr(coef)
                if c != 0:
                    self.terms[tuple(mono)] = c

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars, i):
        mono = [0] * nvars
        mono[i] = 1
        return cls(nvars, {tuple(mono): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.nvars == other.nvars and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        out = dict(self.terms)
        for mono, coef in other.terms.items():
            out[mono] = out.get(mono, 0) + coef
        return MultiPoly(self.nvars, out)

    def __neg__(self):
        return MultiPoly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                out[mono] = out.get(mono, 0) + c1 * c2
        return MultiPoly(self.nvars, out)

    __rmul__ = __mul__

    def scale(self, c):
        c = fr(c)
        if c == 0:
            return MultiPoly.zero(self.nvars)
        return MultiPoly(self.nvars, {m: coef * c for m, coef in self.terms.items()})

    def __pow__(self, k: int):
        out = MultiPoly.const(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out

    def eval(self, point):
        total = None
        for mono, coef in self.terms.items():
            val = coef
            for e, x in zip(mono, point):
                for _ in range(e):
                    val = val * x
            total = val if total is None else total + val
        if total is None:
            return Fraction(0) if all(isinstance(x, (int, Fraction)) for x in point) else 0.0
        return total

    def diff(self, i: int):
        out = {}
        for mono, coef in self.terms.items():
            if mono[i] == 0:
                continue
            new = list(mono)
            new[i] -= 1
            out[tuple(new)] = coef * mono[i]
        return MultiPoly(self.nvars, out)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms, key=lambda m: (sum(m), m), reverse=True):
            coef = self.terms[mono]
            var = "*".join(f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(mono) if e)
            bits.append(f"{coef}" + (f"*{var}" if var else ""))
        return " + ".join(bits)
