"""Certified summation of the fixed-index basis-function series.

Two series are covered, both with exact rational partial sums and an
explicit geometric tail majorant (never a guessed truncation error):

* ``TG3``: sum over n of B_k^n(x), converging to 1/x on 0 < x < 1;
* ``TG4``: sum over n of (-1)^n B_k^n(x) / x^(n+1), converging to
  (-1)^k x^k on 1/2 < x <= 1.

The enforced domains come from the ratio test on the term magnitudes
C(n,k) rho^(n-k) (rho = 1-x, resp. (1-x)/x); outside them the sums
diverge, so out-of-domain requests are hard errors rather than NaNs, and
`series_limit` refuses them too.  One function, `_ratio`, holds the term
ratio r = 1-x, resp. -(1-x)/x: the partial sums add terms built by the
recurrence term_n = term_(n-1) r n/(n-k), and `_majorant` reads rho = |r|.
One function, `_bound`, holds the tail-bound rule: exact magnitudes up to
the majorant's geometric start, then the geometric majorant.  Sums and
sweeps read its magnitudes off their list of terms; `tail_bound` and the
probes of `required_terms`, which builds one majorant per search, read
them from `_term`.

`laplace_monomial` is the one deliberately floating-point operation in the
package: a quadrature approximation of the integral of t^k e^(-x t),
returned beside its exact closed form k!/x^(k+1) so the pair can be
checked against each other.  One composite-Simpson pass per (x, T, steps)
serves a block of five powers t^first..t^(first+4), first a multiple of
five, so t^0..t^SHARED_K_MAX share one pass: each grid point pays one
`exp` and one unrolled body adds all five powers.  A pass also serves
every rate with the same binary mantissa: x = m 2^e is read from the pass
at (m, T 2^e), whose every float is the original's times a power of two,
and scaled back with `math.ldexp`.  So x = 1/2, 1 and 2 at their default
horizons 80, 40 and 20 read one pass.  Where some intermediate could leave
the normal float range, the scaling would not be exact, and the pass runs
at (x, T) itself.  The blocks are memoised in a cache of at most
`SIMPSON_CACHE_SIZE` entries, so callers that ask for the powers one at a
time, in any order, still pay one pass per mantissa and block.  Each
power's float is bit-identical to a separate loop over that power alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, cycle, islice
from typing import Union

from .polynomials import ScalarLike, as_scalar, scalar_str

SERIES_IDS = ("TG3", "TG4")

# Powers t^0..t^SHARED_K_MAX share one quadrature pass (the campaign's
# LAPLACE grid runs k over exactly this range); a larger k reads the block
# of _BLOCK powers that starts at k - k % _BLOCK.  `_simpson_block` has
# exactly five accumulators, so SHARED_K_MAX must stay 4.
SHARED_K_MAX = 4
_BLOCK = SHARED_K_MAX + 1
# Bound on the memoised blocks: one entry is a tuple of five floats per
# (first, mantissa, scaled horizon, steps); the campaign and the acceptance
# gate use one each, as their rates 1/2, 1 and 2 share a mantissa.
SIMPSON_CACHE_SIZE = 32
# Binary exponents of the normal floats, 2^-1022 <= |v| < 2^1024, less one
# bit at each end for the rounding of the guard's own estimates.
_LOG2_NORMAL_MIN = -1021.0
_LOG2_NORMAL_MAX = 1023.0

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


def _ratio(series_id: str, x: Fraction) -> Fraction:
    """The one term ratio: from n = k on, term n is term n - 1 times
    r n/(n - k), with r = 1 - x for TG3 and r = -(1 - x)/x for TG4.  Its
    absolute value is the majorant's rho."""
    return 1 - x if series_id == "TG3" else (x - 1) / x


def _term(series_id: str, k: int, x: Fraction, n: int) -> Fraction:
    """Signed n-th term of the series, 0 below k; the basis value
    C(n,k) x^k (1-x)^(n-k) is evaluated directly, with no polynomial built."""
    if n < k:
        return 0
    b = math.comb(n, k) * x**k * (1 - x) ** (n - k)
    if series_id == "TG3":
        return b
    return -b / x ** (n + 1) if n % 2 else b / x ** (n + 1)


def _terms(series_id: str, k: int, x: Fraction, last: int) -> list:
    """Signed terms 0..last: zero below k, `_term` at n = k, and from there
    each term is the one before times r n/(n - k), as C(n,k)/C(n-1,k) =
    n/(n - k), r = `_ratio`.  Each term equals `_term` at its index."""
    r = _ratio(series_id, x)
    p, q = r.numerator, r.denominator
    out = [0] * min(k, last + 1)
    if last >= k:
        term = _term(series_id, k, x, k)
        out.append(term)
        for n in range(k + 1, last + 1):
            term = term * Fraction(p * n, q * (n - k))
            out.append(term)
    return out


def series_limit(series_id: str, k: int, x: ScalarLike) -> Fraction:
    """The closed-form sum of a series inside its domain: 1/x for TG3,
    (-1)^k x^k for TG4."""
    xq = as_scalar(x)
    _check_domain(series_id, k, xq)
    if series_id == "TG3":
        return 1 / xq
    return -(xq**k) if k % 2 else xq**k


def _majorant(series_id: str, k: int, x: Fraction):
    """(m0, geometric) for the tail majorant of a checked series.

    The term-ratio rho (m+1)/(m+1-k) decreases in m; m0 is the first index
    m >= k where it is below one, and geometric(m, |term m|) bounds the
    whole tail from index m >= m0 on by a geometric series with the ratio
    at m.
    """
    rho = abs(_ratio(series_id, x))
    p, q = rho.numerator, rho.denominator

    def geometric(m: int, magnitude_m: Fraction) -> Fraction:
        # 1 / (1 - rho (m+1)/(m+1-k)) as one integer ratio d / (d - p (m+1)).
        d = q * (m + 1 - k)
        return magnitude_m * Fraction(d, d - p * (m + 1))

    # Smallest m >= k with rho (m+1)/(m+1-k) < 1, i.e. (m+1)(1-rho) > k.
    m0 = max(k, int(Fraction(k) / (1 - rho)))
    while (m0 + 1) * (1 - rho) <= k:
        m0 += 1
    return m0, geometric


def _bound(majorant, magnitude, n: int) -> Fraction:
    """The one tail-bound rule: a certified upper bound on |sum - partial
    sum through index n|, from a built `_majorant` and `magnitude(i)` =
    |term i|.  The magnitudes n+1..m0-1 before the geometric start are
    added exactly; from max(n + 1, m0) on the geometric majorant bounds
    the rest."""
    m0, geometric = majorant
    start = max(n + 1, m0)
    return sum(map(magnitude, range(n + 1, start)), geometric(start, magnitude(start)))


def tail_bound(series_id: str, k: int, x: ScalarLike, terms: int) -> Fraction:
    """Certified upper bound on |sum - partial sum through index `terms`|.

    Past the index m0 where the term-ratio drops below one the tail is
    dominated by a geometric series with the first step's ratio; the
    finitely many terms before m0 are added exactly.
    """
    xq = as_scalar(x)
    _check_domain(series_id, k, xq)
    if terms < 0:
        raise ValueError("terms must be nonnegative")
    return _bound(_majorant(series_id, k, xq), lambda i: abs(_term(series_id, k, xq, i)), terms)


def _sweep(series_id: str, k: int, x: Fraction, first: int, last: int) -> list[SeriesCheck]:
    """The checks through term counts first..last of a checked series: one
    list of terms, built by their ratio recurrence through the majorant's
    geometric start, serves both the sums and `_bound`."""
    majorant = _majorant(series_id, k, x)
    terms = _terms(series_id, k, x, max(majorant[0], last + 1))
    limit = series_limit(series_id, k, x)

    def magnitude(i: int) -> Fraction:
        return abs(terms[i])

    total = sum(terms[:first], Fraction(0))
    out = []
    for n in range(first, last + 1):
        total += terms[n]
        out.append(SeriesCheck(series_id, k, x, n, total, limit, _bound(majorant, magnitude, n)))
    return out


def partial_sum(series_id: str, k: int, x: ScalarLike, terms: int) -> SeriesCheck:
    """Exact partial sum through term index `terms`, with its certified
    tail bound and the closed-form limit."""
    xq = as_scalar(x)
    _check_domain(series_id, k, xq)
    if terms < 0:
        raise ValueError("terms must be nonnegative")
    return _sweep(series_id, k, xq, terms, terms)[0]


def series_sweep(series_id: str, k: int, x: ScalarLike, max_terms: int) -> list[SeriesCheck]:
    """All partial sums through 0..max_terms, sharing one list of terms,
    built by their ratio recurrence, between the sums and the tail bounds."""
    xq = as_scalar(x)
    _check_domain(series_id, k, xq)
    if max_terms < 0:
        raise ValueError("max_terms must be nonnegative")
    return _sweep(series_id, k, xq, 0, max_terms)


def required_terms(series_id: str, k: int, x: ScalarLike, eps: EpsLike) -> int:
    """Smallest term count whose certified tail bound is at most eps.

    Found by searching the bound, not by inspecting computed terms; the
    search starts at the first index with any nonzero term.  The bound is
    nonincreasing in the term count, so the answer is bracketed by doubling
    steps and then bisected.  Each probe reads its magnitudes from `_term`:
    a recurrence list grown to the doubling's overshoot costs more than the
    few direct terms a probe needs.
    """
    xq = as_scalar(x)
    _check_domain(series_id, k, xq)
    epsq = Fraction(eps)
    if epsq <= 0:
        raise ValueError("eps must be positive")

    majorant = _majorant(series_id, k, xq)

    def magnitude(i: int) -> Fraction:
        return abs(_term(series_id, k, xq, i))

    def met(n: int) -> bool:
        return _bound(majorant, magnitude, n) <= epsq

    # The bound is never met at lo (k - 1 lies below the search range);
    # once the doubling stops it is met at hi, and bisection keeps both.
    lo, hi, step = k - 1, k, 1
    while not met(hi):
        lo, hi, step = hi, hi + step, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if met(mid):
            hi = mid
        else:
            lo = mid
    return hi


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


@functools.lru_cache(maxsize=SIMPSON_CACHE_SIZE)
def _simpson_block(first, x, T, steps):
    """Composite Simpson sums of t^j e^(-x t) on [0, T] for the five powers
    j = first..first+4 (`SHARED_K_MAX` + 1 of them).

    One walk over the grid: each point evaluates e^(-x t) once, builds
    t^first by the left-to-right products 1.0 * t * ... * t, and adds
    w * (t^j e) into five unrolled accumulators in grid order, with one more
    factor t between them.  Every float is therefore the one a separate loop
    over power j alone would give.  The weights 1, 4, 2, ..., 2, 4, 1 come
    from a C-level iterator.  The accumulators are plain sequential float
    additions; builtin `sum` must not replace them: from Python 3.12 its
    float sum is compensated and would change the last bits, and
    `requires-python` is `>=3.10`.

    `simpson_exp_monomial` calls it at x's binary mantissa and a scaled
    horizon where that is exact, so one block serves every rate with the
    same mantissa; the loop body is the same either way.
    """
    n = steps + (steps % 2)
    h = T / n
    exp = math.exp
    weights = chain((1.0,), islice(cycle((4.0, 2.0)), n - 1), (1.0,))
    a0 = a1 = a2 = a3 = a4 = 0.0
    for i, w in zip(range(n + 1), weights):
        t = i * h
        e = exp(-x * t)
        tp = 1.0
        if first:
            for _ in range(first):
                tp *= t
        a0 += w * (tp * e)
        tp *= t
        a1 += w * (tp * e)
        tp *= t
        a2 += w * (tp * e)
        tp *= t
        a3 += w * (tp * e)
        tp *= t
        a4 += w * (tp * e)
    return tuple(a * h / 3.0 for a in (a0, a1, a2, a3, a4))


def _scales_exactly(top, x, T, steps, shift):
    """Whether every intermediate of the Simpson pass for the powers up to
    t^top is a normal float both at (x, T) and at (x 2^-shift, T 2^shift).

    Then each rounding of the scaled pass is the original's times a power
    of two: h = T/n, t = i h and the powers of t scale; x t is the same
    float on both sides, and so is e^(-x t); the products, the sequential
    sums and a h / 3 scale with them.  The bounds are in log2: |t| runs
    from |h| to |T|, so t^j for j <= top from min(0, lh, top lh) up to
    max(0, lT, top lT); e^(-x t) lies between its values at t = 0 and
    t = T, whatever the sign of x; the n + 1 weights are at most 4; each
    accumulator adds terms of one sign, so no sum falls below its smallest
    term.
    """
    if not (T and math.isfinite(T)):
        return False
    n = steps + (steps % 2)
    log2_e = -x * T / math.log(2)  # log2 of e^(-x T)
    e_lo, e_hi = min(log2_e, 0.0), max(log2_e, 0.0)
    sum_hi = 2.0 + math.log2(n + 1)
    for s in (0, shift):
        lT = math.log2(abs(T)) + s
        lh = lT - math.log2(n)
        lo = min(0.0, lh, top * lh) + e_lo + min(0.0, lh) - 2.0  # a h / 3, log2 3 < 2
        hi = max(0.0, lT, top * lT) + e_hi + sum_hi + max(0.0, lh)
        if not (_LOG2_NORMAL_MIN <= lo and hi <= _LOG2_NORMAL_MAX):
            return False
    return True


def _check_steps(steps) -> None:
    if not isinstance(steps, int):
        raise ValueError(f"steps must be an integer (got {steps!r})")
    if steps <= 0:
        raise ValueError("steps must be positive")


def simpson_exp_monomial(k, x, T, steps):
    """Composite Simpson approximation of the integral of t^k e^(-x t) on [0, T].

    `steps` must be a positive integer; it is rounded up to the next even
    number.  The value is read from the memoised block of the five powers
    around k.  With x = m 2^e (0.5 <= |m| < 1) the block is the one at
    (m, T 2^e, steps), scaled back by 2^(-e (k+1)): bit for bit the value
    at (x, T), so every rate with the same binary mantissa shares the
    block.  Where that scaling is not exact (some intermediate may leave
    the normal range, see `_scales_exactly`), or e = 0, the block is the
    one at (x, T, steps).
    """
    if k < 0:
        raise ValueError("power k must be nonnegative")
    _check_steps(steps)
    j = k % _BLOCK
    first = k - j
    m, e = math.frexp(x)
    if e and _scales_exactly(first + SHARED_K_MAX, x, T, steps, e):
        return math.ldexp(_simpson_block(first, m, math.ldexp(T, e), steps)[j], -e * (k + 1))
    return _simpson_block(first, x, T, steps)[j]


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
    _check_steps(steps)
    try:
        xf = float(xq)
    except OverflowError:
        xf = math.inf
    if not 0 < xf < math.inf:
        raise ValueError(f"rate x must round to a positive finite float (got {xf})")
    T = 40.0 / xf if horizon is None else float(horizon)
    if not 0 < T < math.inf:
        raise ValueError(f"horizon must be positive and finite (got {T})")
    approx = simpson_exp_monomial(k, xf, T, steps)
    exact = Fraction(math.factorial(k)) / xq ** (k + 1)
    return LaplaceResult(k=k, x=xq, horizon=T, steps=steps, approx=approx, exact=exact)
