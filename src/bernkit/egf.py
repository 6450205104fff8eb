"""Truncated exponential-generating-function ring with bivariate coefficients.

A `TruncatedEGF` of order N stands for sum_{n=0..N} a_n t^n/n! + O(t^{N+1})
with each a_n a `Poly2`.  The family egf_bernstein(k, .) packs the Bernstein
basis functions of fixed index k, one degree per t-order; products are
binomial convolutions, so every functional equation between such series
reads off coefficient-wise as a polynomial identity, one per degree.

The catalog in `check_functional_equation` carries the equations this
library verifies mechanically; each one is checked as exact coefficient
equality through the truncation order, which certifies the identity for
every degree up to that order.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from .bernstein import bernstein_basis, binomial, falling_factorial
from .polynomials import Poly2, ScalarLike
from .report import METHOD_SYMBOLIC, IdentityReport, Witness, scalar_str

CoeffLike = Union[ScalarLike, Poly2]


class TruncatedEGF:
    """Order-N truncation of an exponential generating function."""

    __slots__ = ("order", "_coeffs")

    def __init__(self, order: int, coeffs: Iterable[CoeffLike]):
        if order < 0:
            raise ValueError("order must be nonnegative")
        cs = tuple(Poly2.coerce(c) for c in coeffs)
        if len(cs) != order + 1:
            raise ValueError(f"order {order} needs {order + 1} coefficients, got {len(cs)}")
        self.order = order
        self._coeffs = cs

    @classmethod
    def zero(cls, order: int) -> "TruncatedEGF":
        return cls(order, [Poly2()] * (order + 1))

    @property
    def coeffs(self) -> tuple[Poly2, ...]:
        return self._coeffs

    def coefficient(self, n: int) -> Poly2:
        """Coefficient of t^n/n!."""
        if not 0 <= n <= self.order:
            raise IndexError(f"order {self.order} series has no coefficient {n}")
        return self._coeffs[n]

    def _require_same_order(self, other: "TruncatedEGF") -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TruncatedEGF):
            return self.order == other.order and self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.order, self._coeffs))

    def __add__(self, other: "TruncatedEGF") -> "TruncatedEGF":
        if not isinstance(other, TruncatedEGF):
            return NotImplemented
        self._require_same_order(other)
        return TruncatedEGF(self.order, [a + b for a, b in zip(self._coeffs, other._coeffs)])

    def __sub__(self, other: "TruncatedEGF") -> "TruncatedEGF":
        if not isinstance(other, TruncatedEGF):
            return NotImplemented
        self._require_same_order(other)
        return TruncatedEGF(self.order, [a - b for a, b in zip(self._coeffs, other._coeffs)])

    def __neg__(self) -> "TruncatedEGF":
        return TruncatedEGF(self.order, [-a for a in self._coeffs])

    def __mul__(self, other: "TruncatedEGF") -> "TruncatedEGF":
        """Binomial convolution: c_n = sum_j C(n,j) a_j b_{n-j}."""
        if not isinstance(other, TruncatedEGF):
            return NotImplemented
        self._require_same_order(other)
        a, b = self._coeffs, other._coeffs
        return TruncatedEGF(
            self.order,
            [
                Poly2.sum_of_products((math.comb(n, j), a[j], b[n - j]) for j in range(n + 1))
                for n in range(self.order + 1)
            ],
        )

    def scale(self, value: CoeffLike) -> "TruncatedEGF":
        """Multiply every coefficient by a fixed polynomial or scalar."""
        c = Poly2.coerce(value)
        return TruncatedEGF(self.order, [a * c for a in self._coeffs])

    def substitute_t(self, s: CoeffLike) -> "TruncatedEGF":
        """Replace t by t*s for s free of t: coefficient n picks up a factor s^n."""
        sq = Poly2.coerce(s)
        out = []
        power = Poly2.constant(1)
        for n, a in enumerate(self._coeffs):
            if n:
                power = power * sq
            out.append(a * power)
        return TruncatedEGF(self.order, out)

    def shift_t(self, l: int) -> "TruncatedEGF":
        """Multiply by t^l (truncation order is kept): c_m = (m)_l a_{m-l}."""
        if l < 0:
            raise ValueError("shift power must be nonnegative")
        out = []
        for m in range(self.order + 1):
            if m < l:
                out.append(Poly2())
            else:
                out.append(self._coeffs[m - l] * falling_factorial(m, l))
        return TruncatedEGF(self.order, out)

    def diff_x(self, l: int = 1) -> "TruncatedEGF":
        """Coefficient-wise l-th partial derivative in x."""
        return TruncatedEGF(self.order, [a.diff_x(l) for a in self._coeffs])

    def diff_t(self, v: int = 1) -> "TruncatedEGF":
        """v-th derivative in t; the order drops to N-v and coefficients shift."""
        if v < 0:
            raise ValueError("derivative order must be nonnegative")
        if v > self.order:
            raise ValueError(f"cannot differentiate an order-{self.order} series {v} times in t")
        return TruncatedEGF(self.order - v, self._coeffs[v:])

    def truncate(self, order: int) -> "TruncatedEGF":
        if not 0 <= order <= self.order:
            raise ValueError("can only truncate to a lower order")
        return TruncatedEGF(order, self._coeffs[: order + 1])

    def __repr__(self):
        shown = ", ".join(str(c) for c in self._coeffs[:4])
        tail = ", ..." if self.order > 3 else ""
        return f"TruncatedEGF(order={self.order}, [{shown}{tail}])"


@functools.lru_cache(maxsize=None)
def egf_bernstein(k: int, order: int, var: str = "x") -> TruncatedEGF:
    """The generating function whose t^n/n! coefficient is the basis function
    of degree n and index k.

    Built from the definition (one monomial expansion per degree); the
    closed form t^k var^k e^{(1-var)t} / k! is constructed separately by
    `egf_bernstein_closed`, and their agreement is itself a verified check.
    """
    return TruncatedEGF(order, [Poly2.coerce(bernstein_basis(n, k), var) for n in range(order + 1)])


@functools.lru_cache(maxsize=None)
def egf_bernstein_closed(k: int, order: int, var: str = "x") -> TruncatedEGF:
    """Closed form t^k var^k e^{(1-var)t} / k! as an order-N truncation."""
    if k < 0:
        return TruncatedEGF.zero(order)
    v = Poly2.x() if var == "x" else Poly2.y()
    series = egf_exp_affine(1 - v, order).shift_t(k)
    return series.scale(v**k * Fraction(1, math.factorial(k)))


def egf_bernstein_at(k: int, order: int) -> TruncatedEGF:
    """Definitional series with the basis functions evaluated at the product
    xy, coefficient-wise."""
    return TruncatedEGF(order, [bernstein_basis(n, k).at_xy() for n in range(order + 1)])


def egf_exp_affine(c: CoeffLike, order: int) -> TruncatedEGF:
    """e^{c t} for an exponent polynomial of total degree at most one."""
    cq = Poly2.coerce(c)
    if cq.total_degree > 1:
        raise ValueError("exponent must have total degree <= 1")
    coeffs = [Poly2.constant(1)]
    for _ in range(order):
        coeffs.append(coeffs[-1] * cq)
    return TruncatedEGF(order, coeffs)


def egf_linear_combination(
    order: int, terms: Iterable[tuple[CoeffLike, TruncatedEGF]]
) -> TruncatedEGF:
    """sum_j w_j E_j for polynomial or scalar weights w_j and order-`order`
    series E_j; each output coefficient is canonicalised once."""
    pairs = [(Poly2.coerce(w), e) for w, e in terms]
    if any(e.order != order for _, e in pairs):
        raise ValueError(f"every term must have order {order}")
    return TruncatedEGF(
        order,
        [Poly2.sum_of_products((1, w, e._coeffs[n]) for w, e in pairs) for n in range(order + 1)],
    )


def egf_mul(a: TruncatedEGF, b: TruncatedEGF) -> TruncatedEGF:
    return a * b


def egf_substitute_t(a: TruncatedEGF, s: CoeffLike) -> TruncatedEGF:
    return a.substitute_t(s)


def egf_diff_x(a: TruncatedEGF, l: int = 1) -> TruncatedEGF:
    return a.diff_x(l)


def egf_diff_t(a: TruncatedEGF, v: int = 1) -> TruncatedEGF:
    return a.diff_t(v)


def egf_equal(a: TruncatedEGF, b: TruncatedEGF) -> tuple[bool, Optional[tuple[int, Poly2]]]:
    """Exact coefficient equality; on failure, the smallest differing t-order
    and the coefficient difference there."""
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} vs {b.order}")
    for n in range(a.order + 1):
        if a.coefficient(n) != b.coefficient(n):
            return False, (n, a.coefficient(n) - b.coefficient(n))
    return True, None


# --- functional-equation catalog -------------------------------------------

_X = Poly2.x()
_Y = Poly2.y()


def _monomial_scale(k: int, var: Poly2) -> Poly2:
    return var**k * Fraction(1, math.factorial(k))


def _fe_sum(order: int):
    lhs = egf_linear_combination(order, [(1, egf_bernstein(k, order)) for k in range(order + 1)])
    return lhs, egf_exp_affine(1, order)


def _fe_alt(order: int):
    terms = [((-1) ** k, egf_bernstein(k, order)) for k in range(order + 1)]
    return egf_linear_combination(order, terms), egf_exp_affine(1 - 2 * _X, order)


def _fe_g1(order: int, k: int):
    lhs = egf_bernstein(k, order) * egf_exp_affine(_X, order)
    rhs = egf_exp_affine(1, order).shift_t(k).scale(_monomial_scale(k, _X))
    return lhs, rhs


def _fe_g2(order: int, k: int):
    lhs = egf_bernstein(k, order) * egf_exp_affine(-1, order)
    rhs = egf_exp_affine(-_X, order).shift_t(k).scale(_monomial_scale(k, _X))
    return lhs, rhs


def _fe_g3(order: int, k: int):
    lhs = egf_bernstein(k, order) * egf_exp_affine(_X - 1, order)
    rhs = egf_exp_affine(0, order).shift_t(k).scale(_monomial_scale(k, _X))
    return lhs, rhs


def _fe_sub(order: int, j: int):
    lhs = egf_bernstein_at(j, order)
    rhs = egf_bernstein(j, order).substitute_t(_Y) * egf_exp_affine(1 - _Y, order)
    return lhs, rhs


def _fe_mono(order: int, l: int):
    lhs = egf_exp_affine(1, order).shift_t(l).scale(_monomial_scale(l, _X))
    terms = [(math.comb(k, l), egf_bernstein(k, order)) for k in range(l, order + 1)]
    return lhs, egf_linear_combination(order, terms)


def _fe_diffx(order: int, k: int, l: int):
    if l > order:
        raise ValueError(f"derivative order l={l} must not exceed the truncation order {order}")
    lhs = egf_bernstein(k, order).diff_x(l)
    terms = [((-1) ** (l - j) * math.comb(l, j), egf_bernstein(k - j, order)) for j in range(l + 1)]
    return lhs, egf_linear_combination(order, terms).shift_t(l)


def _fe_difft(order: int, k: int, v: int):
    if v > order:
        raise ValueError(f"derivative order v={v} must not exceed the truncation order {order}")
    lhs = egf_bernstein(k, order).diff_t(v)
    terms = [(bernstein_basis(v, j), egf_bernstein(k - j, order - v)) for j in range(v + 1)]
    return lhs, egf_linear_combination(order - v, terms)


def _fe_prod(order: int, k1: int, k2: int):
    lhs = egf_bernstein(k1, order) * egf_bernstein(k2, order)
    factor = Fraction(binomial(k1 + k2, k1), 2 ** (k1 + k2))
    rhs = egf_bernstein(k1 + k2, order).substitute_t(2).scale(factor)
    return lhs, rhs


def _fe_xy(order: int, k: int):
    lhs = egf_bernstein(k, order) * egf_bernstein(k, order, var="y").substitute_t(-1)
    sign = -1 if k % 2 else 1
    front = (_X * _Y) ** k * Fraction(sign, math.factorial(k) ** 2)
    rhs = egf_exp_affine(_Y - _X, order).shift_t(2 * k).scale(front)
    return lhs, rhs


_FE_CATALOG = {
    "FE-SUM": ((), _fe_sum),
    "FE-ALT": ((), _fe_alt),
    "FE-G1": (("k",), _fe_g1),
    "FE-G2": (("k",), _fe_g2),
    "FE-G3": (("k",), _fe_g3),
    "FE-SUB": (("j",), _fe_sub),
    "FE-MONO": (("l",), _fe_mono),
    "FE-DIFFX": (("k", "l"), _fe_diffx),
    "FE-DIFFT": (("k", "v"), _fe_difft),
    "FE-PROD": (("k1", "k2"), _fe_prod),
    "FE-XY": (("k",), _fe_xy),
}

FE_IDS = tuple(_FE_CATALOG)


def fe_param_names(fe_id: str) -> tuple[str, ...]:
    if fe_id not in _FE_CATALOG:
        raise ValueError(f"unknown functional equation id: {fe_id!r}")
    return _FE_CATALOG[fe_id][0]


def check_functional_equation(
    fe_id: str,
    params: Mapping[str, int],
    order: int,
    mutate: bool = False,
) -> IdentityReport:
    """Verify one catalog entry by exact coefficient equality through `order`.

    `mutate=True` doubles the right-hand side (the unit prefactor bumped by
    one), which must flip the verdict whenever the truncated right side is
    nonzero -- the deliberate-failure path used in CI.
    """
    if fe_id not in _FE_CATALOG:
        raise ValueError(f"unknown functional equation id: {fe_id!r}")
    names, builder = _FE_CATALOG[fe_id]
    if set(params) != set(names):
        raise ValueError(f"{fe_id} takes parameters {names}, got {tuple(params)}")
    values = {name: params[name] for name in names}
    for name, value in values.items():
        if value < 0:
            raise ValueError(f"{fe_id} parameter {name} must be nonnegative")
    lhs, rhs = builder(order, **values)
    return _verdict(fe_id, values, lhs, rhs, mutate)


def check_closed_form(k: int, order: int, mutate: bool = False) -> IdentityReport:
    """Definitional series vs the closed form, as exact coefficient equality."""
    if k < 0:
        raise ValueError("index k must be nonnegative")
    lhs = egf_bernstein(k, order)
    rhs = egf_bernstein_closed(k, order)
    return _verdict("egf-closed-form", {"k": k}, lhs, rhs, mutate)


def _verdict(
    check_id: str, params: Mapping[str, int], lhs: TruncatedEGF, rhs: TruncatedEGF, mutate: bool
) -> IdentityReport:
    """Compare two series (the right side doubled when `mutate`); a failure
    is witnessed by the first differing monomial t^n x^i y^j."""
    if mutate:
        rhs = rhs.scale(2)
    ok, mismatch = egf_equal(lhs, rhs)
    if ok:
        return IdentityReport(check_id, params, True, METHOD_SYMBOLIC)
    n, diff = mismatch
    (i, j), _ = diff.monomials()[0]
    witness = Witness(
        lhs=scalar_str(lhs.coefficient(n).coefficient(i, j)),
        rhs=scalar_str(rhs.coefficient(n).coefficient(i, j)),
        monomial={"t": n, "x": i, "y": j},
    )
    return IdentityReport(check_id, params, False, METHOD_SYMBOLIC, witness)
