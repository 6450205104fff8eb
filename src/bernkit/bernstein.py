"""Bernstein basis functions and exact conversions to and from monomial form.

The basis function of degree n and index k is C(n,k) x^k (1-x)^(n-k).
Out-of-range indices (k < 0 or k > n) yield the zero polynomial; the
identity machinery leans on that convention everywhere, so it is part of
the contract rather than an error.  `basis_in` is the one memoised
embedding of a basis function into `Poly2`, in x or in y, read by the EGF
series and the two-variable suite checks alike.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable

from .polynomials import Poly1, Poly2, ScalarLike, _common_den, as_scalar


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k); 0 outside 0 <= k <= n."""
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


# Bound on the memoised basis polynomials.  One default campaign builds 435
# of them, `--max-degree 14` 535, `--max-degree 18 --egf-order 32` 903,
# `--max-degree 24 --egf-order 32` 1161 and the `suite-oracle` workload of
# `perfbench` 381; 2048 holds each of these runs without an eviction.
BASIS_CACHE_SIZE = 2048


@functools.lru_cache(maxsize=BASIS_CACHE_SIZE)
def bernstein_basis(n: int, k: int) -> Poly1:
    """Monomial expansion of the Bernstein basis function of degree n, index k.

    Expands C(n,k) x^k (1-x)^(n-k) exactly; the coefficient of x^(k+i) is
    C(n,k) C(n-k,i) (-1)^i.
    """
    if n < 0:
        raise ValueError("bernstein_basis requires n >= 0")
    if k < 0 or k > n:
        return Poly1()
    lead = math.comb(n, k)
    nums = [0] * (n + 1)
    for i in range(n - k + 1):
        nums[k + i] = lead * math.comb(n - k, i) * (-1 if i % 2 else 1)
    return Poly1._raw([nums], 1)


# Bound on the memoised embeddings, read by the EGF series and the
# two-variable suite checks.  A campaign reads one per distinct (var, n, k):
# 575 at the defaults (30 of them zero, from the suite's out-of-range
# terms), 631 at `--max-degree 14`, 1079 at `--max-degree 18 --egf-order
# 32` and 1178 at `--max-degree 24 --egf-order 32`; 2048 holds each of
# these runs without an eviction.
EMBEDDING_CACHE_SIZE = 2048


@functools.lru_cache(maxsize=EMBEDDING_CACHE_SIZE)
def basis_in(var: str, n: int, k: int) -> Poly2:
    """B_k^n as a Poly2 in `var` ("x" or "y"; any other name is a
    ValueError); memoised, so each embedding is built, and packed for the
    product kernel, once.  In x it is a view of `bernstein_basis(n, k)`."""
    return Poly2.coerce(bernstein_basis(n, k), var)


class BernsteinForm:
    """A polynomial carried as coefficients over the degree-n Bernstein basis."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: Iterable[ScalarLike]):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        cs = tuple(as_scalar(c) for c in coeffs)
        if len(cs) != degree + 1:
            raise ValueError(f"degree {degree} needs {degree + 1} coefficients, got {len(cs)}")
        self.degree = degree
        self.coeffs = cs

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BernsteinForm):
            return self.degree == other.degree and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.degree, self.coeffs))

    def __repr__(self):
        return f"BernsteinForm({self.degree}, {list(self.coeffs)})"


def eval_de_casteljau(f: BernsteinForm, x: ScalarLike) -> Fraction:
    """Evaluate a Bernstein-form polynomial by repeated convex combination.

    The triangular recurrence b_i <- (1-x) b_i + x b_{i+1} is an evaluation
    path independent of the monomial expansion, which makes the two usable
    as mutual oracles.  It runs on integers: with x = a/q and the coefficients
    over their lcm d, b_i <- (q-a) b_i + a b_{i+1} ends at d q^n times the value.
    """
    a, q = as_scalar(x).as_integer_ratio()
    level, d = _common_den(f.coeffs)
    for _ in range(f.degree):
        level = [(q - a) * u + a * v for u, v in zip(level, level[1:])]
    return Fraction(level[0], d * q**f.degree)


def to_monomial(f: BernsteinForm) -> Poly1:
    """Expand a Bernstein form into canonical monomial coefficients."""
    acc = Poly1()
    for k, c in enumerate(f.coeffs):
        if c:
            acc = acc + bernstein_basis(f.degree, k) * c
    return acc


def to_bernstein(p: Poly1, n: int) -> BernsteinForm:
    """Exact change of basis from monomials to the degree-n Bernstein basis.

    Uses x^l = sum_{k=l..n} [C(k,l)/C(n,l)] B_k^n(x), so coefficient k of the
    result is sum_{l<=k} p_l C(k,l)/C(n,l).
    """
    if n < 0:
        raise ValueError("target degree must be nonnegative")
    if p.degree > n:
        raise ValueError(f"polynomial degree {p.degree} exceeds target basis degree {n}")
    ps = [p.coefficient(l) for l in range(n + 1)]
    coeffs = []
    for k in range(n + 1):
        acc = Fraction(0)
        for l in range(k + 1):
            if ps[l]:
                acc += ps[l] * Fraction(math.comb(k, l), math.comb(n, l))
        coeffs.append(acc)
    return BernsteinForm(n, coeffs)


def generalized_basis(n: int, k: int, a: ScalarLike, b: ScalarLike) -> Poly1:
    """Bernstein basis function adapted to the interval [a, b].

    C(n,k) (x-a)^k (b-x)^(n-k) / (b-a)^n; the affine substitution
    u = (x-a)/(b-a) carries it back to the unit-interval basis function.
    """
    if n < 0:
        raise ValueError("generalized_basis requires n >= 0")
    aq, bq = as_scalar(a), as_scalar(b)
    if aq >= bq:
        raise ValueError("generalized_basis requires a < b")
    if k < 0 or k > n:
        return Poly1()
    x = Poly1.x()
    poly = (x - aq) ** k * (bq - x) ** (n - k) * binomial(n, k)
    return poly * (1 / (bq - aq) ** n)
