"""Dense exact-rational polynomials in one and two variables.

Coefficients are held as arbitrary-precision integers over a single shared
positive denominator, kept canonical (trailing zeros trimmed, content and
denominator coprime).  All arithmetic is exact; the public surface speaks
`fractions.Fraction`.  The value of an instance never changes, and equality
and hashing read only that value, so instances are safe to share across
threads and to memoize.

Both rings store one layout, packed along x: `_num` is a tuple of
equal-length rows, row j holding the coefficients of x^i y^j for
i = 0, 1, ...  A `Poly1` is the one-row case, so a `Poly2` in x alone
costs what a `Poly1` does, and `Poly2.coerce` lifts a `Poly1` as a view
of its rows.  The shared base, `_Poly`, holds the arithmetic and the
reading surface once: `degree` is the total degree (for one row, the
x-degree), `monomials` lists the terms in graded lexicographic order, and
one Horner loop evaluates both rings, a `Poly1` at y = 0.  Each ring adds
only its constructors, `coefficient`, `coeffs` and the arity of
`evaluate`; `Poly2(grid)` reads grid[i][j] as the coefficient of x^i y^j.

Both rings multiply in one kernel, `_Poly.sum_of_products`.  Each row is
packed by Kronecker substitution in x into one `int`, with a fixed number
of bits per coefficient slot, so that one big-integer product convolves
two rows; powers square the packed rows.  The packed rows are a lazy
cache on the instance, filled once per slot width and not part of its
value.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from fractions import Fraction
from itertools import chain, repeat
from typing import Iterable, Union

ExactScalar = Fraction
ScalarLike = Union[int, Fraction]


def as_scalar(value: ScalarLike | str) -> Fraction:
    """Coerce an int, Fraction, or ``"p/q"`` string to an exact rational."""
    return value if isinstance(value, Fraction) else Fraction(value)


def scalar_str(value: ScalarLike) -> str:
    """Lossless ``"p/q"`` rendering; ``Fraction(scalar_str(v)) == v``."""
    q = as_scalar(value)
    return f"{q.numerator}/{q.denominator}"


_WORD = (1 << 64) - 1
_BIG_ENDIAN = sys.byteorder == "big"


def _slot_width(bound: int) -> int:
    """Bits per packed slot for coefficients of magnitude at most `bound`:
    its bits plus a sign bit, rounded up to whole 64-bit words."""
    return (bound.bit_length() + 64) // 64 * 64


def _pack(row, width: int) -> int:
    """sum(row[q] * 2**(width*q)): one row as an integer, slot q holding row[q]."""
    acc = 0
    for v in reversed(row):
        acc = (acc << width) + v
    return acc


def _accumulate(out: list[int], a, b, m: int = 1) -> list[int]:
    """out[i + j] += m * a[i] * b[j]: the convolution of two lists of
    packed rows, added into `out`."""
    for i, x in enumerate(a):
        if x:
            x *= m
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _times(a, b) -> list[int]:
    """The convolution of two lists of packed rows."""
    return _accumulate([0] * (len(a) + len(b) - 1), a, b)


@functools.lru_cache(maxsize=64)
def _bias(width: int, cols: int) -> int:
    """Half a slot, 2**(width - 1), in each of `cols` slots."""
    return int.from_bytes((bytes(width // 8 - 1) + b"\x80") * cols, "little")


def _unpack(packed: list[int], width: int, cols: int) -> list[list[int]]:
    """Each packed row as its `cols` signed slots of `width` bits, lowest first.

    Half a slot added to every slot makes each one nonnegative, so no
    borrow crosses a slot boundary; flipping each slot's top bit back then
    leaves its two's complement in place, read as 64-bit words: the top
    word of a slot signed, the ones below it unsigned.
    """
    bias = _bias(width, cols)
    size = width // 8 * cols
    top = width // 64 - 1
    grid = []
    for v in packed:
        words = array("q", ((v + bias) ^ bias).to_bytes(size, "little"))
        if _BIG_ENDIAN:
            words.byteswap()
        slots = words[top :: top + 1].tolist()
        for r in range(top - 1, -1, -1):
            slots = [(hi << 64) | (lo & _WORD) for hi, lo in zip(slots, words[r :: top + 1])]
        grid.append(slots)
    return grid


def _common_den(fracs: list[Fraction]) -> tuple[list[int], int]:
    den = 1
    for f in fracs:
        den = den * f.denominator // math.gcd(den, f.denominator)
    return [f.numerator * (den // f.denominator) for f in fracs], den


class _Poly:
    """What both rings share: integer rows `_num` over one positive
    denominator `_den`, canonical, so that equality is equality of the
    pair; row j holds the coefficients of x^i y^j.  Construction,
    canonicalisation, sums, the x derivative, products, powers, equality
    and printing live here, once."""

    __slots__ = ("_num", "_den", "_kron")

    @classmethod
    def _raw(cls, rows: list, den: int):
        """Internal constructor from a rectangular integer grid (a list of
        equal-length rows) over a positive denominator: trailing zero rows
        and columns are trimmed and the content shared with the
        denominator divided out."""
        while rows and not any(rows[-1]):
            rows.pop()
        self = object.__new__(cls)
        self._kron = None
        if not rows:
            self._num = ()
            self._den = 1
            return self
        for r in rows:
            if r[-1]:
                break
        else:
            width = 0
            for r in rows:
                w = len(r)
                while w and r[w - 1] == 0:
                    w -= 1
                width = max(width, w)
            rows = [r[:width] for r in rows]
        if den > 1:
            g = math.gcd(den, *chain.from_iterable(rows))
            if g > 1:
                rows = [[v // g for v in r] for r in rows]
                den //= g
        self._num = tuple(map(tuple, rows))
        self._den = den
        return self

    @classmethod
    def constant(cls, value: ScalarLike):
        n, d = as_scalar(value).as_integer_ratio()
        return cls._raw([[n]], d)

    def _kronecker(self) -> tuple[int, int, int, dict]:
        """(|self|_1, rows, columns, {width: packed rows}): what the kernel
        reads of an operand, built on first use in `_kron`; the packed rows
        fill in once per slot width."""
        rows = self._num
        self._kron = (sum(map(abs, chain.from_iterable(rows))), len(rows), len(rows[0]), {})
        return self._kron

    def _packed(self, width: int) -> tuple[int, ...]:
        """Each coefficient row packed at `width` bits per slot, cached."""
        packed = self._kron[3][width] = tuple(map(_pack, self._num, repeat(width)))
        return packed

    @classmethod
    def sum_of_products(cls, terms: Iterable[tuple[int, "_Poly", "_Poly"]]):
        """Canonical sum of w*a*b over (w, a, b) triples with integer weights.

        The products are accumulated packed, over the lcm of their
        denominators, and unpacked and canonicalised once.  No output
        coefficient exceeds sum(|w m| * |a|_1 * |b|_1) in magnitude, m the
        term's share of the common denominator, so a slot one sign bit
        wider than that bound holds each one exactly.
        """
        live = []
        den = 1
        bound = rows = cols = 0
        for w, a, b in terms:
            if w and a._num and b._num:
                d = a._den * b._den
                if den % d:
                    lcm = den * d // math.gcd(den, d)
                    bound *= lcm // den
                    den = lcm
                na, ra, ca, pa = a._kron or a._kronecker()
                nb, rb, cb, pb = b._kron or b._kronecker()
                bound += abs(w) * (den // d) * na * nb
                if ra + rb > rows:
                    rows = ra + rb
                if ca + cb > cols:
                    cols = ca + cb
                live.append((w, d, a, pa, b, pb))
        if not live:
            return cls._raw([], 1)
        width = _slot_width(bound)
        out = [0] * (rows - 1)
        for w, d, a, pa, b, pb in live:
            ap = pa.get(width) or a._packed(width)
            _accumulate(out, ap, pb.get(width) or b._packed(width), w * (den // d))
        return cls._raw(_unpack(out, width, cols - 1), den)

    def __bool__(self) -> bool:
        return bool(self._num)

    @property
    def degree(self) -> int:
        """Total degree, the largest i + j over nonzero entries; -1 for the
        zero polynomial."""
        best = -1
        for j, row in enumerate(self._num):
            i = len(row) - 1
            while i >= 0 and not row[i]:
                i -= 1
            if i >= 0 and i + j > best:
                best = i + j
        return best

    def monomials(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Nonzero terms as (exponents, coefficient) in graded lexicographic
        order, one exponent per variable: ((i,), c) in one variable, ((i, j), c)
        in two."""
        arity, den = len(self._VARS), self._den
        terms = [
            ((i, j)[:arity], Fraction(v, den)) for j, row in enumerate(self._num) for i, v in enumerate(row) if v
        ]
        terms.sort(key=lambda t: (sum(t[0]), t[0]))
        return terms

    def _horner(self, x: Fraction, y: ScalarLike) -> Fraction:
        """Exact Horner evaluation at (x, y), in x along each row and in y
        across the rows.  A `Poly1` passes the int y = 0, which costs no
        `Fraction` arithmetic."""
        acc = 0
        for row in reversed(self._num):
            racc = 0
            for v in reversed(row):
                racc = racc * x + v
            acc = acc * y + racc
        return Fraction(acc, self._den) if isinstance(acc, int) else acc / self._den

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return self._num == other._num and self._den == other._den
        if isinstance(other, (int, Fraction)):
            return self == self.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash((type(self), self._num, self._den))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.constant(other)
        elif type(other) is not type(self):
            return NotImplemented
        da, db = self._den, other._den
        g = math.gcd(da, db)
        ma, mb = db // g, da // g
        a, b = self._num, other._num
        cols = max(len(a[0]) if a else 0, len(b[0]) if b else 0)
        out = [[v * ma for v in r] + [0] * (cols - len(r)) for r in a]
        out += [[0] * cols for _ in range(len(b) - len(a))]
        for row, r in zip(out, b):
            for i, v in enumerate(r):
                row[i] += v * mb
        return self._raw(out, da * ma)

    __radd__ = __add__

    def derivative(self, order: int = 1):
        """Partial derivative of the given order in x."""
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        rows = [[math.perm(i, order) * r[i] for i in range(order, len(r))] for r in self._num]
        return self._raw(rows, self._den)

    def __mul__(self, other):
        """A scalar scales the numerators; a polynomial of the same ring
        multiplies in the kernel, as a sum of one product."""
        if isinstance(other, (int, Fraction)):
            n, d = other.as_integer_ratio()
            return self._raw([[v * n for v in r] for r in self._num], self._den * d)
        if type(other) is not type(self):
            return NotImplemented
        return self.sum_of_products(((1, self, other),))

    __rmul__ = __mul__

    def __neg__(self):
        return self._raw([[-v for v in r] for r in self._num], self._den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __pow__(self, exponent: int):
        """Repeated squaring on the packed rows, unpacked once: no
        coefficient of p^e exceeds |p|_1^e, which sets the slot width."""
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        if not exponent or not self._num:
            return self.constant(int(not exponent))
        norm, _, cols, packs = self._kron or self._kronecker()
        width = _slot_width(norm**exponent)
        base = packs.get(width) or self._packed(width)
        result = None
        e = exponent
        while e:
            if e & 1:
                result = base if result is None else _times(result, base)
            e >>= 1
            if e:
                base = _times(base, base)
        return self._raw(_unpack(result, width, (cols - 1) * exponent + 1), self._den**exponent)

    def __repr__(self):
        return f"{type(self).__name__}({self!s})"

    def __str__(self):
        return _format_terms(self.monomials(), self._VARS)


class Poly1(_Poly):
    """Dense univariate polynomial: one row, index i holding the coefficient of x^i."""

    __slots__ = ()
    _VARS = ("x",)

    def __new__(cls, coeffs: Iterable[ScalarLike] = ()):
        nums, den = _common_den([as_scalar(c) for c in coeffs])
        return cls._raw([nums], den)

    @property
    def _row(self) -> tuple[int, ...]:
        """The one row of coefficients; the zero polynomial has no row."""
        return self._num[0] if self._num else ()

    @classmethod
    def monomial(cls, power: int, coeff: ScalarLike = 1) -> "Poly1":
        """coeff * x^power."""
        n, d = as_scalar(coeff).as_integer_ratio()
        return cls._raw([[0] * power + [n]], d)

    @classmethod
    def x(cls) -> "Poly1":
        return _POLY1_X

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self._den) for v in self._row)

    def coefficient(self, i: int) -> Fraction:
        row = self._row
        return Fraction(row[i], self._den) if 0 <= i < len(row) else Fraction(0)

    def evaluate(self, x: ScalarLike) -> Fraction:
        """Exact Horner evaluation."""
        return self._horner(as_scalar(x), 0)

    def as_poly2_in_x(self) -> "Poly2":
        """This polynomial in the bivariate ring, as a view that shares its
        rows, denominator and packed-row cache."""
        view = object.__new__(Poly2)
        view._num, view._den = self._num, self._den
        view._kron = self._kron or (self._kronecker() if self._num else None)
        return view

    def as_poly2_in_y(self) -> "Poly2":
        return Poly2._raw([[v] for v in self._row], self._den)

    def at_xy(self) -> "Poly2":
        """Substitute the product xy for x: coefficient i lands on grid entry (i, i)."""
        size = len(self._row)
        rows = [[0] * size for _ in range(size)]
        for i, v in enumerate(self._row):
            rows[i][i] = v
        return Poly2._raw(rows, self._den)


class Poly2(_Poly):
    """Dense bivariate polynomial; `Poly2(grid)` reads grid[i][j] as the
    coefficient of x^i y^j, and stores its transpose, one row per power of y."""

    __slots__ = ()
    _VARS = ("x", "y")

    def __new__(cls, grid: Iterable[Iterable[ScalarLike]] = ()):
        cols = [[as_scalar(c) for c in col] for col in grid]
        height = max(map(len, cols), default=0)
        nums, den = _common_den([col[j] if j < len(col) else 0 for j in range(height) for col in cols])
        width = len(cols)
        return cls._raw([nums[j * width : (j + 1) * width] for j in range(height)], den)

    @classmethod
    def x(cls) -> "Poly2":
        return _POLY2_X

    @classmethod
    def y(cls) -> "Poly2":
        return _POLY2_Y

    @staticmethod
    def coerce(value: "ScalarLike | Poly1 | Poly2", var: str = "x") -> "Poly2":
        """Lift scalars (and Poly1 in the named variable) into the bivariate ring."""
        if isinstance(value, Poly2):
            return value
        if isinstance(value, Poly1):
            if var == "x":
                return value.as_poly2_in_x()
            if var == "y":
                return value.as_poly2_in_y()
            raise ValueError(f"unknown variable {var!r} (expected 'x' or 'y')")
        return Poly2.constant(value)

    def coefficient(self, i: int, j: int) -> Fraction:
        if 0 <= j < len(self._num) and 0 <= i < len(self._num[j]):
            return Fraction(self._num[j][i], self._den)
        return Fraction(0)

    def evaluate(self, x: ScalarLike, y: ScalarLike) -> Fraction:
        return self._horner(as_scalar(x), as_scalar(y))


def _format_terms(terms, names) -> str:
    if not terms:
        return "0"
    parts = []
    for exps, coeff in terms:
        factors = []
        for e, name in zip(exps, names):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append("*".join(factors))
        elif coeff == -1:
            parts.append("-" + "*".join(factors))
        else:
            parts.append(f"{coeff}*" + "*".join(factors))
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


_POLY1_X = Poly1._raw([[0, 1]], 1)
_POLY2_X = _POLY1_X.as_poly2_in_x()
_POLY2_Y = Poly2._raw([[0], [1]], 1)
