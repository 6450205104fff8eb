"""Dense exact-rational polynomials in one and two variables.

Coefficients are held as arbitrary-precision integers over a single shared
positive denominator, kept canonical (trailing zeros trimmed, content and
denominator coprime).  All arithmetic is exact; the public surface speaks
`fractions.Fraction`.  Instances are immutable and hashable, so they are
safe to share across threads and to memoize.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

ExactScalar = Fraction
ScalarLike = Union[int, Fraction]


def conv1(a, b):
    """Dense 1-D convolution: coefficients of the product polynomial.

    Works over any commutative ring elements (plain ints here in practice).
    Empty input means the zero polynomial and yields an empty output.
    """
    na, nb = len(a), len(b)
    if na == 0 or nb == 0:
        return []
    out = [0] * (na + nb - 1)
    for i in range(na):
        ai = a[i]
        if not ai:
            continue
        for j in range(nb):
            bj = b[j]
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return out


def conv2(a, b):
    """Dense 2-D convolution of rectangular coefficient grids.

    `a[i][j]` is the coefficient of x^i y^j; rows must all share one width.
    Returns a rectangular list-of-lists grid.
    """
    ra, rb = len(a), len(b)
    if ra == 0 or rb == 0:
        return []
    wa, wb = len(a[0]), len(b[0])
    out = [[0] * (wa + wb - 1) for _ in range(ra + rb - 1)]
    for i in range(ra):
        arow = a[i]
        for p in range(wa):
            aip = arow[p]
            if not aip:
                continue
            for j in range(rb):
                brow = b[j]
                orow = out[i + j]
                for q in range(wb):
                    bjq = brow[q]
                    if bjq:
                        orow[p + q] = orow[p + q] + aip * bjq
    return out


def as_scalar(value: ScalarLike | str) -> Fraction:
    """Coerce an int, Fraction, or ``"p/q"`` string to an exact rational."""
    return value if isinstance(value, Fraction) else Fraction(value)


def scalar_str(value: ScalarLike) -> str:
    """Lossless ``"p/q"`` rendering; ``Fraction(scalar_str(v)) == v``."""
    q = as_scalar(value)
    return f"{q.numerator}/{q.denominator}"


def _common_den(fracs: list[Fraction]) -> tuple[list[int], int]:
    den = 1
    for f in fracs:
        den = den * f.denominator // math.gcd(den, f.denominator)
    return [f.numerator * (den // f.denominator) for f in fracs], den


class Poly1:
    """Dense univariate polynomial; index i holds the coefficient of x^i."""

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable[ScalarLike] = ()):
        fracs = [as_scalar(c) for c in coeffs]
        nums, den = _common_den(fracs)
        obj = Poly1._raw(nums, den)
        self._num = obj._num
        self._den = obj._den

    @classmethod
    def _raw(cls, nums: list[int], den: int) -> "Poly1":
        """Internal constructor from an integer array over a positive denominator."""
        while nums and nums[-1] == 0:
            nums.pop()
        self = object.__new__(cls)
        if not nums:
            self._num = ()
            self._den = 1
            return self
        g = den
        for v in nums:
            g = math.gcd(g, v)
            if g == 1:
                break
        if g > 1:
            nums = [v // g for v in nums]
            den //= g
        self._num = tuple(nums)
        self._den = den
        return self

    @classmethod
    def constant(cls, value: ScalarLike) -> "Poly1":
        q = as_scalar(value)
        return cls._raw([q.numerator], q.denominator)

    @classmethod
    def monomial(cls, power: int, coeff: ScalarLike = 1) -> "Poly1":
        """coeff * x^power."""
        q = as_scalar(coeff)
        return cls._raw([0] * power + [q.numerator], q.denominator)

    @classmethod
    def x(cls) -> "Poly1":
        return _POLY1_X

    @property
    def degree(self) -> int:
        """Degree, with -1 standing in for the zero polynomial."""
        return len(self._num) - 1

    def __bool__(self) -> bool:
        return bool(self._num)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self._den) for v in self._num)

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self._num):
            return Fraction(self._num[i], self._den)
        return Fraction(0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly1):
            return self._num == other._num and self._den == other._den
        if isinstance(other, (int, Fraction)):
            return self == Poly1.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash((Poly1, self._num, self._den))

    def __neg__(self) -> "Poly1":
        return Poly1._raw([-v for v in self._num], self._den)

    def __add__(self, other) -> "Poly1":
        if isinstance(other, (int, Fraction)):
            other = Poly1.constant(other)
        elif not isinstance(other, Poly1):
            return NotImplemented
        da, db = self._den, other._den
        g = math.gcd(da, db)
        ma, mb = db // g, da // g
        n = max(len(self._num), len(other._num))
        out = [0] * n
        for i, v in enumerate(self._num):
            out[i] = v * ma
        for i, v in enumerate(other._num):
            out[i] += v * mb
        return Poly1._raw(out, da * ma)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly1":
        return self + (-other if isinstance(other, Poly1) else -as_scalar(other))

    def __rsub__(self, other) -> "Poly1":
        return (-self) + other

    def __mul__(self, other) -> "Poly1":
        if isinstance(other, (int, Fraction)):
            q = as_scalar(other)
            return Poly1._raw([v * q.numerator for v in self._num], self._den * q.denominator)
        if not isinstance(other, Poly1):
            return NotImplemented
        return Poly1._raw(conv1(self._num, other._num), self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly1":
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = Poly1.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def evaluate(self, x: ScalarLike) -> Fraction:
        """Exact Horner evaluation."""
        xq = as_scalar(x)
        acc = 0
        for v in reversed(self._num):
            acc = acc * xq + v
        return Fraction(acc, self._den) if isinstance(acc, int) else acc / self._den

    def derivative(self, order: int = 1) -> "Poly1":
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        nums = list(self._num)
        for _ in range(order):
            nums = [i * v for i, v in enumerate(nums)][1:]
        return Poly1._raw(nums, self._den)

    def compose(self, value: "Poly1 | Poly2") -> "Poly1 | Poly2":
        """Substitute a polynomial for x (Horner over the target ring)."""
        acc = value - value  # zero of the target ring
        for v in reversed(self._num):
            acc = acc * value + Fraction(v, self._den)
        return acc

    def as_poly2_in_x(self) -> "Poly2":
        return Poly2._raw([[v] for v in self._num], self._den)

    def as_poly2_in_y(self) -> "Poly2":
        if not self._num:
            return Poly2._raw([], 1)
        return Poly2._raw([list(self._num)], self._den)

    def at_xy(self) -> "Poly2":
        """Substitute the product xy for x: coefficient i lands on grid entry (i, i)."""
        size = len(self._num)
        rows = [[0] * size for _ in range(size)]
        for i, v in enumerate(self._num):
            rows[i][i] = v
        return Poly2._raw(rows, self._den)

    def monomials(self):
        """Nonzero terms as (exponent, coefficient), lowest degree first."""
        for i, v in enumerate(self._num):
            if v:
                yield i, Fraction(v, self._den)

    def __repr__(self):
        return f"Poly1({self!s})"

    def __str__(self):
        return _format_terms([((i,), c) for i, c in self.monomials()], ("x",))


class Poly2:
    """Dense bivariate polynomial; grid entry (i, j) holds the coefficient of x^i y^j."""

    __slots__ = ("_num", "_den")

    def __init__(self, grid: Iterable[Iterable[ScalarLike]] = ()):
        rows = [[as_scalar(c) for c in row] for row in grid]
        width = max((len(r) for r in rows), default=0)
        flat: list[Fraction] = []
        for r in rows:
            flat.extend(r + [Fraction(0)] * (width - len(r)))
        nums, den = _common_den(flat)
        packed = [nums[i * width : (i + 1) * width] for i in range(len(rows))]
        obj = Poly2._raw(packed, den)
        self._num = obj._num
        self._den = obj._den

    @classmethod
    def _raw(cls, rows: list[list[int]], den: int) -> "Poly2":
        """Internal constructor from an integer grid over a positive denominator.

        Every row must have the same length: callers pass rectangular grids,
        and the trim below relies on it.
        """
        while rows and not any(rows[-1]):
            rows.pop()
        self = object.__new__(cls)
        if not rows:
            self._num = ()
            self._den = 1
            return self
        if not any(r[-1] for r in rows):
            width = 0
            for r in rows:
                w = len(r)
                while w and r[w - 1] == 0:
                    w -= 1
                width = max(width, w)
            rows = [r[:width] for r in rows]
        if den != 1:
            g = den
            for r in rows:
                g = math.gcd(g, *r)
                if g == 1:
                    break
            if g > 1:
                rows = [[v // g for v in r] for r in rows]
                den //= g
        self._num = tuple(map(tuple, rows))
        self._den = den
        return self

    @classmethod
    def sum_of_products(cls, terms: Iterable[tuple[int, "Poly2", "Poly2"]]) -> "Poly2":
        """Canonical sum of w*a*b over (w, a, b) triples with integer weights.

        The products are accumulated into one integer grid over the lcm of
        their denominators and canonicalised once, instead of once per
        product and once per partial sum.
        """
        live = [(w, a, b) for w, a, b in terms if w and a._num and b._num]
        if not live:
            return cls._raw([], 1)
        den = 1
        rows = cols = 0
        for _, a, b in live:
            d = a._den * b._den
            den = den * d // math.gcd(den, d)
            rows = max(rows, len(a._num) + len(b._num) - 1)
            cols = max(cols, len(a._num[0]) + len(b._num[0]) - 1)
        out = [[0] * cols for _ in range(rows)]
        for w, a, b in live:
            m = w * (den // (a._den * b._den))
            for orow, prow in zip(out, conv2(a._num, b._num)):
                q = 0
                for v in prow:
                    if v:
                        orow[q] += m * v
                    q += 1
        return cls._raw(out, den)

    @classmethod
    def constant(cls, value: ScalarLike) -> "Poly2":
        q = as_scalar(value)
        return cls._raw([[q.numerator]], q.denominator)

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
            return value.as_poly2_in_x() if var == "x" else value.as_poly2_in_y()
        return Poly2.constant(value)

    @property
    def deg_x(self) -> int:
        return len(self._num) - 1

    @property
    def deg_y(self) -> int:
        return len(self._num[0]) - 1 if self._num else -1

    @property
    def total_degree(self) -> int:
        """Largest i + j over nonzero entries; -1 for the zero polynomial."""
        best = -1
        for i, row in enumerate(self._num):
            for j, v in enumerate(row):
                if v and i + j > best:
                    best = i + j
        return best

    def __bool__(self) -> bool:
        return bool(self._num)

    def coefficient(self, i: int, j: int) -> Fraction:
        if 0 <= i < len(self._num) and 0 <= j < len(self._num[i]):
            return Fraction(self._num[i][j], self._den)
        return Fraction(0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly2):
            return self._num == other._num and self._den == other._den
        if isinstance(other, (int, Fraction)):
            return self == Poly2.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash((Poly2, self._num, self._den))

    def __neg__(self) -> "Poly2":
        return Poly2._raw([[-v for v in r] for r in self._num], self._den)

    def __add__(self, other) -> "Poly2":
        if isinstance(other, (int, Fraction)):
            other = Poly2.constant(other)
        elif not isinstance(other, Poly2):
            return NotImplemented
        da, db = self._den, other._den
        g = math.gcd(da, db)
        ma, mb = db // g, da // g
        rows = max(len(self._num), len(other._num))
        cols = max(
            len(self._num[0]) if self._num else 0,
            len(other._num[0]) if other._num else 0,
        )
        out = [[0] * cols for _ in range(rows)]
        for i, row in enumerate(self._num):
            for j, v in enumerate(row):
                out[i][j] = v * ma
        for i, row in enumerate(other._num):
            for j, v in enumerate(row):
                out[i][j] += v * mb
        return Poly2._raw(out, da * ma)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly2":
        if isinstance(other, (int, Fraction)):
            other = Poly2.constant(other)
        return self + (-other)

    def __rsub__(self, other) -> "Poly2":
        return (-self) + other

    def __mul__(self, other) -> "Poly2":
        if isinstance(other, (int, Fraction)):
            q = as_scalar(other)
            return Poly2._raw(
                [[v * q.numerator for v in r] for r in self._num],
                self._den * q.denominator,
            )
        if not isinstance(other, Poly2):
            return NotImplemented
        grid = conv2(self._num, other._num)
        return Poly2._raw(grid, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly2":
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = Poly2.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def evaluate(self, x: ScalarLike, y: ScalarLike) -> Fraction:
        xq, yq = as_scalar(x), as_scalar(y)
        acc = Fraction(0)
        for row in reversed(self._num):
            racc = 0
            for v in reversed(row):
                racc = racc * yq + v
            acc = acc * xq + racc
        return acc / self._den

    def substitute_y(self, value: ScalarLike) -> Poly1:
        """Specialize y to a rational constant, leaving a polynomial in x."""
        yq = as_scalar(value)
        coeffs = []
        for row in self._num:
            racc = 0
            for v in reversed(row):
                racc = racc * yq + v
            coeffs.append(racc / self._den if isinstance(racc, Fraction) else Fraction(racc, self._den))
        return Poly1(coeffs)

    def substitute_x(self, value: ScalarLike) -> Poly1:
        """Specialize x to a rational constant, leaving a polynomial in y."""
        xq = as_scalar(value)
        width = len(self._num[0]) if self._num else 0
        coeffs = [Fraction(0)] * width
        power = Fraction(1)
        for row in self._num:
            for j, v in enumerate(row):
                if v:
                    coeffs[j] += v * power
            power *= xq
        return Poly1(c / self._den for c in coeffs)

    def diff_x(self, order: int = 1) -> "Poly2":
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        rows = [list(r) for r in self._num]
        for _ in range(order):
            rows = [[i * v for v in row] for i, row in enumerate(rows)][1:]
        return Poly2._raw(rows, self._den)

    def monomials(self):
        """Nonzero terms as ((i, j), coefficient) in graded lexicographic order."""
        terms = []
        for i, row in enumerate(self._num):
            for j, v in enumerate(row):
                if v:
                    terms.append(((i, j), Fraction(v, self._den)))
        terms.sort(key=lambda t: (t[0][0] + t[0][1], t[0]))
        return terms

    def __repr__(self):
        return f"Poly2({self!s})"

    def __str__(self):
        return _format_terms(self.monomials(), ("x", "y"))


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


_POLY1_X = Poly1._raw([0, 1], 1)
_POLY2_X = Poly2._raw([[0], [1]], 1)
_POLY2_Y = Poly2._raw([[0, 1]], 1)
