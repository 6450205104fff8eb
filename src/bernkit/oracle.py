"""Brute-force oracle for the identity suite.

Everything here is built the dumbest possible way: every basis function is
expanded through `generalized_basis(n, k, 0, 1)` (repeated polynomial
multiplication, a different arithmetic route than the binomial-sum
expansion the suite uses), substitutions are performed literally, and both
sides are compared as canonical polynomials.  Each (n, k) is expanded once
per process and kept in the oracle's own bounded cache (`_basis`), separate
from the suite's `bernstein_basis` cache, so the two sides never share a
result.  The three-variable identity is checked by slicing the third
variable at enough rational values that the remaining two-variable
comparisons determine the full statement.

The oracle knows nothing about the generating-function engine and never
imports it; mutation slots are re-applied here independently so mutated
checks can be cross-adjudicated.  A parameter tuple outside an identity's
range, or a mutation slot the identity never reads, is a `ValueError`, so
no check can pass without having evaluated what it was asked to.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Mapping, Optional

from .bernstein import binomial, falling_factorial, generalized_basis
from .polynomials import Poly1, Poly2

# Bound on the (n, k) expansions kept: the suite-oracle workload reads 381
# distinct keys, and 1024 holds every in-range key up to n = 43.
BASIS_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=BASIS_CACHE_SIZE)
def _basis(n: int, k: int) -> Poly1:
    if k < 0 or k > n:
        return Poly1()
    return generalized_basis(n, k, 0, 1)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _subdivision_params(identity_id: str, p: dict) -> tuple[int, int]:
    n, j = p["n"], p["j"]
    _require(0 <= j <= n, f"{identity_id} needs 0 <= j <= n (got n={n}, j={j})")
    return n, j


def _raise_params(identity_id: str, p: dict) -> tuple[int, int, int]:
    n, k, d = p["n"], p["k"], p["d"]
    _require(0 <= k <= n and d >= 1, f"{identity_id} needs 0 <= k <= n, d >= 1 (got {n}, {k}, {d})")
    return n, k, d


def _finite_sum_params(identity_id: str, p: dict) -> tuple[int, int]:
    n, k = p["n"], p["k"]
    _require(1 <= k <= n, f"{identity_id} needs 1 <= k <= n (got n={n}, k={k})")
    return n, k


def _diag_xy(p: Poly1) -> Poly2:
    """Substitute the product xy into a univariate polynomial, term by term."""
    return Poly2([[Fraction(0)] * i + [c] for i, c in enumerate(p.coeffs)])


def _ex(p: Poly1) -> Poly2:
    return p.as_poly2_in_x()


def _ey(p: Poly1) -> Poly2:
    return p.as_poly2_in_y()


def oracle_verify(identity_id: str, params: Mapping[str, int], mutate: Optional[str] = None) -> bool:
    """Literal-expansion verdict for one identity at one parameter tuple.

    `mutate` names one right-hand-side constant to bump by +1.  Raises
    ValueError for an unknown id, a tuple outside the identity's range, or
    a slot name this identity never reads at this tuple.
    """
    read: set[str] = set()

    def bump(base, slot: str):
        read.add(slot)
        return base + 1 if mutate == slot else base

    verdict = _verdict(identity_id, dict(params), bump)
    if mutate is not None and mutate not in read:
        raise ValueError(f"{identity_id} has no mutation slot {mutate!r} at {dict(params)}")
    return verdict


def _verdict(identity_id: str, p: dict, bump: Callable) -> bool:
    """One branch per identity; every right-hand-side constant goes through
    `bump(base, slot)`."""
    if identity_id == "sum":
        n = p["n"]
        _require(n >= 0, f"sum needs n >= 0 (got n={n})")
        lhs = Poly1()
        for k in range(n + 1):
            lhs = lhs + _basis(n, k)
        return lhs == Poly1.constant(bump(Fraction(1), "rhs-const"))

    if identity_id == "alternating-sum":
        n = p["n"]
        _require(n >= 0, f"alternating-sum needs n >= 0 (got n={n})")
        lhs = Poly1()
        for k in range(n + 1):
            lhs = lhs + _basis(n, k) * (-1 if k % 2 else 1)
        base = Poly1.constant(bump(Fraction(1), "base-const")) + Poly1.x() * bump(
            Fraction(-2), "base-slope"
        )
        rhs = Poly1.constant(1)
        for _ in range(n):
            rhs = rhs * base
        return lhs == rhs

    if identity_id == "subdivision-product":
        n, j = _subdivision_params(identity_id, p)
        lhs = _diag_xy(_basis(n, j))
        rhs = Poly2()
        for k in range(j, n + 1):
            c = bump(Fraction(1), f"term:{k}")
            rhs = rhs + _ex(_basis(k, j)) * _ey(_basis(n, k)) * c
        return lhs == rhs * bump(Fraction(1), "scale")

    if identity_id == "subdivision-affine":
        n, j = _subdivision_params(identity_id, p)
        u = Poly2.x() + Poly2.y() - Poly2.x() * Poly2.y()
        lhs = Poly2.coerce(_basis(n, j).compose(u))
        rhs = Poly2()
        for k in range(j + 1):
            c = bump(Fraction(1), f"term:{k}")
            rhs = rhs + _ex(_basis(n - k, j - k)) * _ey(_basis(n, k)) * c
        return lhs == rhs * bump(Fraction(1), "scale")

    if identity_id == "subdivision-trivariate":
        n, j = _subdivision_params(identity_id, p)
        scale = bump(Fraction(1), "scale")
        term_c = [bump(Fraction(1), f"term:{k}") for k in range(n + 1)]
        # Sum_q B(n-k, j-q)(x) B(k, q)(y) does not involve the third variable,
        # so each of the n+1 is built once, outside the slice loop.
        inner = []
        for k in range(n + 1):
            acc = Poly2()
            for q in range(j + 1):
                acc = acc + _ex(_basis(n - k, j - q)) * _ey(_basis(k, q))
            inner.append(acc)
        # Slice the blend weight at n+1 rational values; degree n in that
        # variable, so slice-wise equality settles the identity.
        for i in range(1, n + 2):
            w = Fraction(i, n + 1)
            u = Poly2.x() * (1 - w) + Poly2.y() * w  # y-slot plays the third variable
            lhs = Poly2.coerce(_basis(n, j).compose(u))
            rhs = Poly2()
            for k in range(n + 1):
                weight = term_c[k] * _basis(n, k).evaluate(w)
                if weight:
                    rhs = rhs + inner[k] * weight
            if lhs != rhs * scale:
                return False
        return True

    if identity_id == "monomial":
        n, l = p["n"], p["l"]
        _require(0 <= l <= n, f"monomial needs 0 <= l <= n (got n={n}, l={l})")
        lhs = Poly1.monomial(l, binomial(n, l))
        rhs = Poly1()
        for k in range(l, n + 1):
            rhs = rhs + _basis(n, k) * bump(Fraction(binomial(k, l)), f"term:{k}")
        return lhs == rhs * bump(Fraction(1), "scale")

    if identity_id == "derivative":
        n, k, l = p["n"], p["k"], p["l"]
        _require(0 <= l <= n, f"derivative needs 0 <= l <= n (got n={n}, l={l})")
        lhs = _basis(n, k).derivative(l)
        rhs = Poly1()
        for j in range(l + 1):
            sign = -1 if (l - j) % 2 else 1
            c = bump(Fraction(sign * math.comb(l, j)), f"term:{j}")
            rhs = rhs + _basis(n - l, k - j) * c
        return lhs == rhs * bump(Fraction(falling_factorial(n, l)), "prefactor")

    if identity_id == "recurrence":
        n, k, v = p["n"], p["k"], p["v"]
        _require(0 <= v <= n, f"recurrence needs 0 <= v <= n (got n={n}, v={v})")
        lhs = _basis(n, k)
        rhs = Poly1()
        for j in range(v + 1):
            c = bump(Fraction(1), f"term:{j}")
            rhs = rhs + _basis(v, j) * _basis(n - v, k - j) * c
        return lhs == rhs * bump(Fraction(1), "scale")

    if identity_id == "raise-x":
        n, k, d = _raise_params(identity_id, p)
        lhs = Poly1.monomial(d) * _basis(n, k)
        pf = Fraction(math.factorial(n) * math.factorial(k + d), math.factorial(k) * math.factorial(n + d))
        return lhs == _basis(n + d, k + d) * bump(pf, "prefactor")

    if identity_id == "raise-1mx":
        n, k, d = _raise_params(identity_id, p)
        lhs = (1 - Poly1.x()) ** d * _basis(n, k)
        pf = Fraction(
            math.factorial(n) * math.factorial(n + d - k),
            math.factorial(n + d) * math.factorial(n - k),
        )
        return lhs == _basis(n + d, k) * bump(pf, "prefactor")

    if identity_id == "elevation":
        n, k = p["n"], p["k"]
        _require(0 <= k <= n, f"elevation needs 0 <= k <= n (got n={n}, k={k})")
        lhs = _basis(n, k)
        rhs = _basis(n + 1, k + 1) * bump(Fraction(k + 1), "term:0") + _basis(
            n + 1, k
        ) * bump(Fraction(n + 1 - k), "term:1")
        return lhs == rhs * bump(Fraction(1, n + 1), "prefactor")

    if identity_id == "product":
        n, k1, k2 = p["n"], p["k1"], p["k2"]
        _require(min(n, k1, k2) >= 0, f"product needs n, k1, k2 >= 0 (got {n}, {k1}, {k2})")
        lhs = _basis(n, k1 + k2)
        rhs = Poly1()
        for j in range(n + 1):
            c = bump(Fraction(math.comb(n, j)), f"term:{j}")
            rhs = rhs + _basis(j, k1) * _basis(n - j, k2) * c
        pf = Fraction(2) ** (k1 + k2 - n) * Fraction(
            math.factorial(k1) * math.factorial(k2), math.factorial(k1 + k2)
        )
        return lhs == rhs * bump(pf, "prefactor")

    if identity_id == "two-point":
        n, k = p["n"], p["k"]
        _require(0 <= 2 * k <= n, f"two-point needs 0 <= 2k <= n (got n={n}, k={k})")
        x, y = Poly2.x(), Poly2.y()
        lhs = (x * y) ** k * (-1 if k % 2 else 1) * (y - x) ** (n - 2 * k)
        rhs = Poly2()
        for j in range(n + 1):
            sign = -1 if (n - j) % 2 else 1
            c = bump(Fraction(sign * math.comb(n, j)), f"term:{j}")
            rhs = rhs + _ex(_basis(j, k)) * _ey(_basis(n - j, k)) * c
        pf = Fraction(math.factorial(k) ** 2, falling_factorial(n, 2 * k))
        return lhs == rhs * bump(pf, "prefactor")

    if identity_id == "tg1":
        n, k = _finite_sum_params(identity_id, p)
        lhs = Poly1()
        for j in range(n - k + 1):
            lhs = lhs + Poly1.monomial(j, math.comb(n, j)) * _basis(n - j, k)
        return lhs == Poly1.monomial(k, bump(Fraction(binomial(n, k)), "rhs-const"))

    if identity_id == "tg2":
        n, k = _finite_sum_params(identity_id, p)
        lhs = Poly1()
        for j in range(n - k + 1):
            lhs = lhs + _basis(n - j, k) * ((-1 if j % 2 else 1) * math.comb(n, j))
        const = Fraction((-1 if (n - k) % 2 else 1) * binomial(n, k))
        return lhs == Poly1.monomial(n, bump(const, "rhs-const"))

    if identity_id == "tg5":
        n, k = _finite_sum_params(identity_id, p)
        lhs = Poly1()
        omx = 1 - Poly1.x()
        for j in range(n - k + 1):
            lhs = lhs + omx**j * _basis(n - j, k) * ((-1 if j % 2 else 1) * math.comb(n, j))
        rhs = Poly1.monomial(k) if n == k else Poly1()
        rhs = rhs + Poly1.constant(bump(Fraction(0), "branch-const"))
        return lhs == rhs

    raise ValueError(f"unknown identity id: {identity_id!r}")
