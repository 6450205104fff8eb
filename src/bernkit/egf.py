"""Truncated exponential-generating-function ring with polynomial coefficients.

A `TruncatedEGF` of order N stands for sum_{n=0..N} a_n t^n/n! + O(t^{N+1})
with each a_n a `Poly2`, a polynomial in x and y.  The family
egf_bernstein(k, .) packs the Bernstein basis functions of fixed index k,
one degree per t-order; products are binomial convolutions, so every
functional equation between such series reads off coefficient-wise as a
polynomial identity, one per degree.  Coefficients in x alone are one
packed row each, so the ring costs what a univariate one would, and a
`Poly1` operand enters as a view of its rows (`Poly2.coerce`).

The catalog in `check_functional_equation` carries every series check
this library verifies mechanically: the closed form G_k = (xt)^k
e^{(1-x)t}/k! first, then the functional equations built from it.  One
path decides each entry, the vacuity rule (`fe_vacuous`) included, by exact
coefficient equality through the truncation order, which certifies the
identity for every degree up to that order.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from .bernstein import basis_in, bernstein_basis, binomial
from .polynomials import Poly1, Poly2, ScalarLike, as_scalar
from .report import METHOD_SYMBOLIC, IdentityReport, Witness, compare_poly

CoeffLike = Union[ScalarLike, Poly1, Poly2]


def _factor(value: CoeffLike) -> Union[Poly2, Fraction]:
    """A polynomial as a Poly2; a scalar as an exact rational, which scales
    numerators without the product kernel."""
    return Poly2.coerce(value) if isinstance(value, (Poly1, Poly2)) else as_scalar(value)


class TruncatedEGF:
    """Order-N truncation of an exponential generating function."""

    __slots__ = ("order", "_coeffs")

    def __init__(self, order: int, coeffs: Iterable[CoeffLike]):
        if order < 0:
            raise ValueError("order must be nonnegative")
        cs = tuple(map(Poly2.coerce, coeffs))
        if len(cs) != order + 1:
            raise ValueError(f"order {order} needs {order + 1} coefficients, got {len(cs)}")
        self.order = order
        self._coeffs = cs

    @classmethod
    def _of(cls, order: int, coeffs: Iterable[Poly2]) -> "TruncatedEGF":
        """Internal constructor from order+1 Poly2 coefficients; every
        builder ends here, so a negative order fails loudly."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        self = object.__new__(cls)
        self.order = order
        self._coeffs = tuple(coeffs)
        return self

    @classmethod
    def zero(cls, order: int) -> "TruncatedEGF":
        return cls._of(order, [Poly2()] * (order + 1))

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
        return TruncatedEGF._of(self.order, [p + q for p, q in zip(self._coeffs, other._coeffs)])

    def __sub__(self, other: "TruncatedEGF") -> "TruncatedEGF":
        if not isinstance(other, TruncatedEGF):
            return NotImplemented
        self._require_same_order(other)
        return TruncatedEGF._of(self.order, [p - q for p, q in zip(self._coeffs, other._coeffs)])

    def __neg__(self) -> "TruncatedEGF":
        return TruncatedEGF._of(self.order, [-a for a in self._coeffs])

    def __mul__(self, other: "TruncatedEGF") -> "TruncatedEGF":
        """Binomial convolution: c_n = sum_j C(n,j) a_j b_{n-j}."""
        if not isinstance(other, TruncatedEGF):
            return NotImplemented
        self._require_same_order(other)
        a, b = self._coeffs, other._coeffs
        return TruncatedEGF._of(
            self.order,
            [
                Poly2.sum_of_products((math.comb(n, j), a[j], b[n - j]) for j in range(n + 1))
                for n in range(self.order + 1)
            ],
        )

    def scale(self, value: CoeffLike) -> "TruncatedEGF":
        """Multiply every coefficient by a fixed polynomial or scalar."""
        c = _factor(value)
        return TruncatedEGF._of(self.order, [a * c for a in self._coeffs])

    def substitute_t(self, s: CoeffLike) -> "TruncatedEGF":
        """Replace t by t*s for s free of t: coefficient n picks up a factor s^n."""
        sq = _factor(s)
        out = []
        power = 1
        for n, a in enumerate(self._coeffs):
            if n:
                power = power * sq
            out.append(a * power)
        return TruncatedEGF._of(self.order, out)

    def shift_t(self, l: int) -> "TruncatedEGF":
        """Multiply by t^l (truncation order is kept): c_m = (m)_l a_{m-l}."""
        if l < 0:
            raise ValueError("shift power must be nonnegative")
        zero = Poly2()
        out = []
        for m in range(self.order + 1):
            if m < l:
                out.append(zero)
            else:
                out.append(self._coeffs[m - l] * math.perm(m, l))
        return TruncatedEGF._of(self.order, out)

    def diff_x(self, l: int = 1) -> "TruncatedEGF":
        """Coefficient-wise l-th partial derivative in x."""
        return TruncatedEGF._of(self.order, [a.derivative(l) for a in self._coeffs])

    def diff_t(self, v: int = 1) -> "TruncatedEGF":
        """v-th derivative in t; the order drops to N-v and coefficients shift."""
        if v < 0:
            raise ValueError("derivative order must be nonnegative")
        if v > self.order:
            raise ValueError(f"cannot differentiate an order-{self.order} series {v} times in t")
        return TruncatedEGF._of(self.order - v, self._coeffs[v:])

    def truncate(self, order: int) -> "TruncatedEGF":
        if not 0 <= order <= self.order:
            raise ValueError("can only truncate to a lower order")
        return TruncatedEGF._of(order, self._coeffs[: order + 1])

    def __repr__(self):
        shown = ", ".join(str(c) for c in self._coeffs[:4])
        tail = ", ..." if self.order > 3 else ""
        return f"TruncatedEGF(order={self.order}, [{shown}{tail}])"


# Bound on the memoised basis series.  A campaign builds one definitional
# series per (k, order, variable) it reads: 146 at the defaults, 248 at
# `--max-degree 14` and 392 at `--max-degree 18 --egf-order 32`; 1024 evicts
# in none of these runs.
EGF_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=EGF_CACHE_SIZE)
def egf_bernstein(k: int, order: int, var: str = "x") -> TruncatedEGF:
    """The generating function whose t^n/n! coefficient is the basis function
    of degree n and index k.

    Built from the definition (one monomial expansion per degree); the
    closed form t^k var^k e^{(1-var)t} / k! is constructed separately by
    `egf_bernstein_closed`, and their agreement is the catalog's first
    entry, `egf-closed-form`.
    The coefficients from t^k on are the memoised embeddings
    `basis_in(var, n, k)`; those below t^k share one zero, built without the
    memo.  Any variable name but x and y is a ValueError, whatever k.
    """
    zero = Poly2.coerce(Poly1(), var)
    return TruncatedEGF._of(order, [basis_in(var, n, k) if k <= n else zero for n in range(order + 1)])


def egf_bernstein_closed(k: int, order: int, var: str = "x") -> TruncatedEGF:
    """Closed form t^k var^k e^{(1-var)t} / k! as an order-N truncation."""
    v = Poly2.coerce(Poly1.x(), var)
    if k < 0:
        return TruncatedEGF.zero(order)
    return egf_exp_affine(1 - v, order).shift_t(k).scale(_monomial_scale(k, v))


def egf_bernstein_at(k: int, order: int) -> TruncatedEGF:
    """Definitional series with the basis functions evaluated at the product
    xy, coefficient-wise."""
    return TruncatedEGF._of(order, [bernstein_basis(n, k).at_xy() for n in range(order + 1)])


def egf_exp_affine(c: CoeffLike, order: int) -> TruncatedEGF:
    """e^{c t} for an exponent polynomial of total degree at most one."""
    c = _factor(c)
    if isinstance(c, Poly2) and c.degree > 1:
        raise ValueError("exponent must have total degree <= 1")
    coeffs = [Poly2.constant(1)]
    for _ in range(order):
        coeffs.append(coeffs[-1] * c)
    return TruncatedEGF._of(order, coeffs)


def egf_linear_combination(
    order: int, terms: Iterable[tuple[CoeffLike, TruncatedEGF]]
) -> TruncatedEGF:
    """sum_j w_j E_j for polynomial or scalar weights w_j and order-`order`
    series E_j; each output coefficient is canonicalised once."""
    pairs = [(Poly2.coerce(w), e._coeffs) for w, e in terms]
    if any(len(e) != order + 1 for _, e in pairs):
        raise ValueError(f"every term must have order {order}")
    return TruncatedEGF._of(
        order,
        [Poly2.sum_of_products((1, w, e[n]) for w, e in pairs) for n in range(order + 1)],
    )


def egf_equal(a: TruncatedEGF, b: TruncatedEGF) -> tuple[bool, Optional[tuple[int, Poly2]]]:
    """Exact coefficient equality; on failure, the smallest differing t-order
    and the coefficient difference there."""
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} vs {b.order}")
    for n, (p, q) in enumerate(zip(a._coeffs, b._coeffs)):
        if p != q:
            return False, (n, p - q)
    return True, None


# --- the catalog: the closed form, then the functional equations -----------

_X = Poly2.x()
_Y = Poly2.y()
_XY = _X * _Y


def _monomial_scale(k: int, var: Poly2) -> Poly2:
    return var**k * Fraction(1, math.factorial(k))


def _closed_form(order: int, k: int):
    return egf_bernstein(k, order), egf_bernstein_closed(k, order)


def _fe_sum(sign: int, exponent: CoeffLike, order: int):
    """sum_k sign^k G_k = e^{exponent t}: FE-SUM and FE-ALT."""
    terms = [(sign**k, egf_bernstein(k, order)) for k in range(order + 1)]
    return egf_linear_combination(order, terms), egf_exp_affine(exponent, order)


def _fe_g(left: CoeffLike, right: CoeffLike, order: int, k: int):
    """G_k e^{left t} = (xt)^k/k! e^{right t}: FE-G1, FE-G2 and FE-G3."""
    lhs = egf_bernstein(k, order) * egf_exp_affine(left, order)
    rhs = egf_exp_affine(right, order).shift_t(k).scale(_monomial_scale(k, _X))
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
    # G_{k-j} is zero for j > k, so those terms are left out.
    lhs = egf_bernstein(k, order).diff_x(l)
    terms = [((-1) ** (l - j) * math.comb(l, j), egf_bernstein(k - j, order)) for j in range(min(k, l) + 1)]
    return lhs, egf_linear_combination(order, terms).shift_t(l)


def _fe_difft(order: int, k: int, v: int):
    # As in FE-DIFFX, the zero series G_{k-j} at j > k are left out.
    lhs = egf_bernstein(k, order).diff_t(v)
    terms = [(bernstein_basis(v, j), egf_bernstein(k - j, order - v)) for j in range(min(k, v) + 1)]
    return lhs, egf_linear_combination(order - v, terms)


def _fe_prod(order: int, k1: int, k2: int):
    lhs = egf_bernstein(k1, order) * egf_bernstein(k2, order)
    factor = Fraction(binomial(k1 + k2, k1), 2 ** (k1 + k2))
    rhs = egf_bernstein(k1 + k2, order).substitute_t(2).scale(factor)
    return lhs, rhs


def _fe_xy(order: int, k: int):
    lhs = egf_bernstein(k, order) * egf_bernstein(k, order, var="y").substitute_t(-1)
    sign = -1 if k % 2 else 1
    front = _XY**k * Fraction(sign, math.factorial(k) ** 2)
    rhs = egf_exp_affine(_Y - _X, order).shift_t(2 * k).scale(front)
    return lhs, rhs


def _max_index(**params: int) -> int:
    return max(params.values(), default=0)


# id -> (parameter names, builder(order, **params) -> (lhs, rhs), lead), where
# lead(**params) is the lowest t-order at which the two sides are nonzero.
_FE_CATALOG = {
    "egf-closed-form": (("k",), _closed_form, _max_index),
    "FE-SUM": ((), functools.partial(_fe_sum, 1, 1), _max_index),
    "FE-ALT": ((), functools.partial(_fe_sum, -1, 1 - 2 * _X), _max_index),
    "FE-G1": (("k",), functools.partial(_fe_g, _X, 1), _max_index),
    "FE-G2": (("k",), functools.partial(_fe_g, -1, -_X), _max_index),
    "FE-G3": (("k",), functools.partial(_fe_g, _X - 1, 0), _max_index),
    "FE-SUB": (("j",), _fe_sub, _max_index),
    "FE-MONO": (("l",), _fe_mono, _max_index),
    "FE-DIFFX": (("k", "l"), _fe_diffx, _max_index),
    "FE-DIFFT": (("k", "v"), _fe_difft, _max_index),
    "FE-PROD": (("k1", "k2"), _fe_prod, lambda k1, k2: k1 + k2),
    "FE-XY": (("k",), _fe_xy, lambda k: 2 * k),
}

# The functional equations: every entry after the closed form.
FE_IDS = tuple(_FE_CATALOG)[1:]


def _entry(fe_id: str):
    if fe_id not in _FE_CATALOG:
        raise ValueError(f"unknown functional equation id: {fe_id!r}")
    return _FE_CATALOG[fe_id]


def fe_vacuous(fe_id: str, params: Mapping[str, int], order: int) -> bool:
    """Whether both sides of one catalog entry vanish through `order`: the
    check, mutated or not, would then pass whatever it compared."""
    return _entry(fe_id)[2](**params) > order


def fe_param_names(fe_id: str) -> tuple[str, ...]:
    return _entry(fe_id)[0]


def check_functional_equation(
    fe_id: str,
    params: Mapping[str, int],
    order: int,
    mutate: bool = False,
) -> IdentityReport:
    """Verify one catalog entry by exact coefficient equality through `order`.

    The closed form, `egf-closed-form`, is the first entry and is decided
    here like every equation.  `mutate=True` doubles the right-hand side (the
    unit prefactor bumped by one), which must flip the verdict whenever the
    truncated right side is nonzero.  A tuple whose sides both vanish through
    `order` (`fe_vacuous`) is a ValueError; a failure is witnessed by the
    first differing monomial t^n x^i y^j.
    """
    names, builder, _ = _entry(fe_id)
    if set(params) != set(names):
        raise ValueError(f"{fe_id} takes parameters {names}, got {tuple(params)}")
    values = {name: params[name] for name in names}
    for name, value in values.items():
        if value < 0:
            raise ValueError(f"{fe_id} parameter {name} must be nonnegative")
    if order < 0:
        raise ValueError("order must be nonnegative")
    if fe_vacuous(fe_id, values, order):
        raise ValueError(f"{fe_id} at {values} vanishes through order {order}: the check would pass vacuously")
    lhs, rhs = builder(order, **values)
    if mutate:
        rhs = rhs.scale(2)
    ok, mismatch = egf_equal(lhs, rhs)
    witness = None
    if not ok:
        n = mismatch[0]
        w = compare_poly(lhs.coefficient(n), rhs.coefficient(n))
        witness = Witness(w.lhs, w.rhs, monomial={"t": n, **w.monomial})
    return IdentityReport(fe_id, values, METHOD_SYMBOLIC, witness)


def check_closed_form(k: int, order: int, mutate: bool = False) -> IdentityReport:
    """Definitional series vs the closed form: the catalog's first entry."""
    return check_functional_equation("egf-closed-form", {"k": k}, order, mutate)

