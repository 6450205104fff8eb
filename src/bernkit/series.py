"""Certified summation of the fixed-index basis-function series.

Two series are covered, both with exact rational partial sums and an
explicit geometric tail majorant (never a guessed truncation error):

* ``TG3``: sum over n of B_k^n(x), converging to 1/x on 0 < x < 1;
* ``TG4``: sum over n of (-1)^n B_k^n(x) / x^(n+1), converging to
  (-1)^k x^k on 1/2 < x <= 1.

The enforced domains come from the ratio test on the term magnitudes
C(n,k) rho^(n-k) (rho = 1-x, resp. (1-x)/x); outside them the sums
diverge, so out-of-domain requests are hard errors rather than NaNs.

`laplace_monomial` is the one deliberately floating-point operation in the
package: a quadrature approximation of the integral of t^k e^(-x t),
returned beside its exact closed form k!/x^(k+1) so the pair can be
checked against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .polynomials import ScalarLike, as_scalar, scalar_str

SERIES_IDS = ("TG3", "TG4")

EpsLike = Union[int, float, str, Fraction]


@dataclass(frozen=True)
class SeriesCheck:
    series_id: str
    k: int
    x: Fraction
    terms_used: int
    partial_sum: Fraction
    limit: Fraction
    tail_bound: Fraction

    @property
    def error(self) -> Fraction:
        return abs(self.partial_sum - self.limit)

    def to_json_dict(self) -> dict:
        return {
            "series_id": self.series_id,
            "k": self.k,
            "x": scalar_str(self.x),
            "terms_used": self.terms_used,
            "partial_sum": scalar_str(self.partial_sum),
            "limit": scalar_str(self.limit),
            "tail_bound": scalar_str(self.tail_bound),
        }


def _check_domain(series_id: str, k: int, x: Fraction) -> None:
    if k < 0:
        raise ValueError("index k must be nonnegative")
    if series_id == "TG3":
        if not 0 < x < 1:
            raise ValueError(f"TG3 converges only for 0 < x < 1 (got {x})")
    elif series_id == "TG4":
        if not Fraction(1, 2) < x <= 1:
            raise ValueError(f"TG4 converges only for 1/2 < x <= 1 (got {x})")
    else:
        raise ValueError(f"unknown series id: {series_id!r}")


def _ratio_and_amplitude(series_id: str, k: int, x: Fraction) -> tuple[Fraction, Fraction]:
    """Term magnitudes are amplitude * C(n,k) * rho^(n-k) for n >= k."""
    if series_id == "TG3":
        return 1 - x, x**k
    return (1 - x) / x, 1 / x


def _term(series_id: str, k: int, x: Fraction, n: int) -> Fraction:
    """Signed n-th term of the series, for n >= k; the basis value
    C(n,k) x^k (1-x)^(n-k) is evaluated directly, with no polynomial built."""
    b = math.comb(n, k) * x**k * (1 - x) ** (n - k)
    if series_id == "TG3":
        return b
    return -b / x ** (n + 1) if n % 2 else b / x ** (n + 1)


def series_limit(series_id: str, k: int, x: Fraction) -> Fraction:
    if series_id == "TG3":
        return 1 / x
    return -(x**k) if k % 2 else x**k


def tail_bound(series_id: str, k: int, x: ScalarLike, terms: int) -> Fraction:
    """Certified upper bound on |sum - partial sum through index `terms`|.

    The term-ratio rho (m+1)/(m+1-k) decreases in m, so past the index
    where it drops below one the tail is dominated by a geometric series
    with the first step's ratio; the finitely many terms before that index
    are added exactly.
    """
    xq = as_scalar(x)
    _check_domain(series_id, k, xq)
    rho, amp = _ratio_and_amplitude(series_id, k, xq)

    def magnitude(n: int) -> Fraction:
        return amp * math.comb(n, k) * rho ** (n - k) if n >= k else Fraction(0)

    # Smallest m >= k with rho (m+1)/(m+1-k) < 1, i.e. (m+1)(1-rho) > k.
    m0 = max(k, int(Fraction(k) / (1 - rho)))
    while (m0 + 1) * (1 - rho) <= k:
        m0 += 1
    start = max(terms + 1, m0)
    head = sum((magnitude(n) for n in range(terms + 1, start)), Fraction(0))
    ratio = rho * Fraction(start + 1, start + 1 - k)
    return head + magnitude(start) / (1 - ratio)


def partial_sum(series_id: str, k: int, x: ScalarLike, terms: int) -> SeriesCheck:
    """Exact partial sum through term index `terms`, with its certified
    tail bound and the closed-form limit."""
    xq = as_scalar(x)
    _check_domain(series_id, k, xq)
    if terms < 0:
        raise ValueError("terms must be nonnegative")
    total = Fraction(0)
    for n in range(k, terms + 1):
        total += _term(series_id, k, xq, n)
    return SeriesCheck(
        series_id=series_id,
        k=k,
        x=xq,
        terms_used=terms,
        partial_sum=total,
        limit=series_limit(series_id, k, xq),
        tail_bound=tail_bound(series_id, k, xq, terms),
    )


def series_sweep(series_id: str, k: int, x: ScalarLike, max_terms: int) -> list[SeriesCheck]:
    """All partial sums through 0..max_terms, sharing one accumulation pass."""
    xq = as_scalar(x)
    _check_domain(series_id, k, xq)
    out = []
    total = Fraction(0)
    limit = series_limit(series_id, k, xq)
    for n in range(max_terms + 1):
        if n >= k:
            total += _term(series_id, k, xq, n)
        out.append(
            SeriesCheck(series_id, k, xq, n, total, limit, tail_bound(series_id, k, xq, n))
        )
    return out


def required_terms(series_id: str, k: int, x: ScalarLike, eps: EpsLike) -> int:
    """Smallest term count whose certified tail bound is at most eps.

    Found by searching the bound, not by inspecting computed terms; the
    bound is nonincreasing, and the search starts at the first index with
    any nonzero term.
    """
    xq = as_scalar(x)
    _check_domain(series_id, k, xq)
    epsq = Fraction(eps)
    if epsq <= 0:
        raise ValueError("eps must be positive")
    n = k
    while tail_bound(series_id, k, xq, n) > epsq:
        n += 1
    return n


@dataclass(frozen=True)
class LaplaceResult:
    """Quadrature approximation of the integral of t^k e^(-x t) over [0, T],
    beside the exact improper-integral value k!/x^(k+1)."""

    k: int
    x: Fraction
    horizon: float
    steps: int
    approx: float
    exact: Fraction

    @property
    def relative_error(self) -> float:
        return abs(self.approx - float(self.exact)) / float(self.exact)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "x": scalar_str(self.x),
            "horizon": self.horizon,
            "steps": self.steps,
            "approx": self.approx,
            "exact": scalar_str(self.exact),
            "relative_error": self.relative_error,
        }


def simpson_exp_monomial(k, x, T, steps):
    """Composite Simpson approximation of the integral of t^k e^(-x t) on [0, T].

    `steps` is rounded up to the next even number.
    """
    n = steps + (steps % 2)
    h = T / n
    exp = math.exp
    acc = 0.0
    for i in range(n + 1):
        t = i * h
        tp = 1.0
        for _ in range(k):
            tp *= t
        f = tp * exp(-x * t)
        if i == 0 or i == n:
            acc += f
        elif i % 2 == 1:
            acc += 4.0 * f
        else:
            acc += 2.0 * f
    return acc * h / 3.0


def laplace_monomial(
    k: int,
    x: ScalarLike,
    horizon: float | None = None,
    steps: int = 1_000_000,
) -> LaplaceResult:
    """Composite-Simpson quadrature of t^k e^(-x t) on [0, horizon] next to
    the exact value k!/x^(k+1); horizon defaults to 40/x, far enough out
    that the truncated tail is negligible against the quadrature error."""
    if k < 0:
        raise ValueError("power k must be nonnegative")
    xq = as_scalar(x)
    if xq <= 0:
        raise ValueError("rate x must be positive")
    if steps <= 0:
        raise ValueError("steps must be positive")
    T = 40.0 / float(xq) if horizon is None else float(horizon)
    if T <= 0:
        raise ValueError("horizon must be positive")
    approx = simpson_exp_monomial(k, float(xq), T, steps)
    exact = Fraction(math.factorial(k)) / xq ** (k + 1)
    return LaplaceResult(k=k, x=xq, horizon=T, steps=steps, approx=approx, exact=exact)
