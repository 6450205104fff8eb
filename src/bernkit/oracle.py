"""Evaluation oracle for the identity suite: exact values on a tensor grid,
no polynomial code.

Each identity is decided by evaluating both of its sides at every point of
the tensor grid {0, ..., D}^m, where m is the number of variables and D
bounds the degree of both sides in each variable.  Two polynomials of
degree at most D in each variable that agree on D + 1 distinct values per
variable are equal, so agreement on the grid is polynomial equality (the
argument `identities.grid_nodes` relies on).

At an integer node x the whole basis row (B_0^n(x), ..., B_n^n(x)), with
B_k^n(x) = C(n, k) x^k (1 - x)^(n - k), is a tuple of plain `int`s built
from the powers of x and of 1 - x and memoised in one bounded cache
(`_row`).  Each summed side is then a dot product of its constants with a
row slice: a reversed slice where the sum convolves two rows, and one
weight vector per x where a bivariate sum pairs a row in x with a row in
y.  A side with a rational prefactor num/den is compared as den * lhs ==
num * rhs, so every grid value stays an `int`.  Composite arguments (xy,
x + y - xy, (1 - w)x + wy) are computed as numbers and the derivative
family uses the Leibniz rule on x^k (1 - x)^(n - k), so nothing here
multiplies, composes or differentiates a polynomial.  Both degree-raising
families are one rule, f^d B_k^n = C(n,k)/C(n+d,t) B_t^(n+d) with
(f, t) = (x, k+d) or (1 - x, k), decided by one sides function.  The
module imports only the standard library, so it shares no arithmetic with
the suite it judges.

Mutation slots are re-applied here independently so mutated checks can be
cross-adjudicated.  A parameter name the identity does not take, a tuple
outside its range, or a mutation slot it never reads, is a `ValueError`,
so no check can pass without having evaluated what it was asked to.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import mul
from typing import Callable, Mapping, Optional

# Bound on the basis rows memoised at grid nodes.  Every suite tuple up to
# degree 14 (subdivision-trivariate up to 8, as the suite-oracle workload
# runs it) reads 282 distinct (n, x) rows, with n <= 17 and x <= 17 (the
# raise families reach n + 3); 18 * 18 = 324 rows hold every such pair.
ROW_CACHE_SIZE = 324


def _basis(n: int, k: int, x):
    """B_k^n(x) = C(n, k) x^k (1 - x)^(n - k); zero for k outside 0..n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k) * x**k * (1 - x) ** (n - k)


def _powers(x, m: int) -> list:
    """[x^0, x^1, ..., x^m]."""
    return list(itertools.accumulate(itertools.repeat(x, m), mul, initial=1))


@functools.lru_cache(maxsize=ROW_CACHE_SIZE)
def _row(n: int, x: int) -> tuple[int, ...]:
    """(B_0^n(x), ..., B_n^n(x)) at a grid node, from the powers of x and
    of 1 - x.  Composite arguments such as xy take hundreds of values and
    call `_basis`."""
    xs, ys = _powers(x, n), _powers(1 - x, n)
    return tuple(math.comb(n, k) * xs[k] * ys[n - k] for k in range(n + 1))


def _node(n: int, k: int, x: int) -> int:
    """B_k^n at a grid node; zero for k outside 0..n."""
    return _row(n, x)[k] if 0 <= k <= n else 0


def _convolve(a, b, k: int):
    """The sum of a[i] * b[k - i] over the i at which both are in range."""
    lo, hi = max(0, k - len(b) + 1), min(len(a) - 1, k)
    if lo > hi:
        return 0
    return sum(map(mul, a[lo : hi + 1], b[k - hi : k - lo + 1][::-1]))


def _derivative(n: int, k: int, l: int) -> Callable:
    """x -> the l-th derivative of B_k^n at x, by the Leibniz rule on the
    product x^k (1 - x)^(n - k); zero for k outside 0..n.  The x-free
    factor of each Leibniz term (binomials, falling factorials and sign) is
    computed once here, not at every node."""
    terms = []
    if 0 <= k <= n:
        lead = math.comb(n, k)
        for i in range(max(0, l - (n - k)), min(l, k) + 1):
            m = l - i  # derivatives that fall on (1 - x)^(n - k)
            c = lead * math.comb(l, i) * math.perm(k, i) * (-1) ** m * math.perm(n - k, m)
            terms.append((c, k - i, n - k - m))
    return lambda x: sum(c * x**p * (1 - x) ** q for c, p, q in terms)


def _agree(bound: int, arity: int, lhs: Callable, rhs: Callable) -> bool:
    """Whether lhs and rhs agree at every point of {0, ..., bound}^arity.

    Both sides must have degree at most `bound` in each of their `arity`
    variables; the grid then decides polynomial equality.  Stops at the
    first differing point.
    """
    grid = itertools.product(range(bound + 1), repeat=arity)
    return all(lhs(*point) == rhs(*point) for point in grid)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _subdivision_range(identity_id: str, n: int, j: int) -> None:
    _require(0 <= j <= n, f"{identity_id} needs 0 <= j <= n (got n={n}, j={j})")


def _finite_sum_range(identity_id: str, n: int, k: int) -> None:
    _require(1 <= k <= n, f"{identity_id} needs 1 <= k <= n (got n={n}, k={k})")


def oracle_verify(identity_id: str, params: Mapping[str, int], mutate: Optional[str] = None) -> bool:
    """Grid-evaluation verdict for one identity at one parameter tuple.

    `mutate` names one right-hand-side constant to bump by +1.  Raises
    ValueError for an unknown id, parameter names other than the
    identity's, a tuple outside the identity's range, or a slot name this
    identity never reads at this tuple.
    """
    if identity_id not in _SIDES:
        raise ValueError(f"unknown identity id: {identity_id!r}")
    names, sides = _SIDES[identity_id]
    if set(params) != set(names):
        raise ValueError(f"{identity_id} needs exactly the parameters {sorted(names)}, got {sorted(params)}")
    read: set[str] = set()

    def bump(base, slot: str):
        read.add(slot)
        return base + 1 if mutate == slot else base

    bound, arity, lhs, rhs = sides(bump, **params)
    if mutate is not None and mutate not in read:
        raise ValueError(f"{identity_id} has no mutation slot {mutate!r} at {dict(params)}")
    return _agree(bound, arity, lhs, rhs)


# One sides function per identity: (bump, **params) -> (per-variable degree
# bound, number of variables, lhs, rhs), after its range check.  Every
# right-hand-side constant goes through `bump(base, slot)` before any grid
# point is evaluated, so an early mismatch never leaves a slot unread.


def _sum_sides(bump: Callable, n: int):
    _require(n >= 0, f"sum needs n >= 0 (got n={n})")
    c = bump(1, "rhs-const")
    return n, 1, lambda x: sum(_row(n, x)), lambda x: c


def _alternating_sum_sides(bump: Callable, n: int):
    _require(n >= 0, f"alternating-sum needs n >= 0 (got n={n})")
    c0, c1 = bump(1, "base-const"), bump(-2, "base-slope")

    def lhs(x):
        row = _row(n, x)
        return sum(row[0::2]) - sum(row[1::2])

    return n, 1, lhs, lambda x: (c0 + c1 * x) ** n


def _subdivision_product_sides(bump: Callable, n: int, j: int):
    _subdivision_range("subdivision-product", n, j)
    cs = [bump(1, f"term:{k}") for k in range(j, n + 1)]
    scale = bump(1, "scale")

    # c_k B_j^k(x) for k = j..n: one weight vector per x of the grid.
    @functools.lru_cache(maxsize=n + 1)
    def weights(x):
        return [c * _row(k, x)[j] for k, c in enumerate(cs, j)]

    rhs = lambda x, y: scale * sum(map(mul, weights(x), _row(n, y)[j:]))
    return n, 2, lambda x, y: _basis(n, j, x * y), rhs


def _subdivision_affine_sides(bump: Callable, n: int, j: int):
    _subdivision_range("subdivision-affine", n, j)
    cs = [bump(1, f"term:{k}") for k in range(j + 1)]
    scale = bump(1, "scale")

    # c_k B_{j-k}^{n-k}(x) for k = 0..j: one weight vector per x.
    @functools.lru_cache(maxsize=n + 1)
    def weights(x):
        return [c * _row(n - k, x)[j - k] for k, c in enumerate(cs)]

    rhs = lambda x, y: scale * sum(map(mul, weights(x), _row(n, y)[: j + 1]))
    return n, 2, lambda x, y: _basis(n, j, x + y - x * y), rhs


def _subdivision_trivariate_sides(bump: Callable, n: int, j: int):
    _subdivision_range("subdivision-trivariate", n, j)
    scale = bump(1, "scale")
    cs = [bump(1, f"term:{k}") for k in range(n + 1)]

    # c_k sum_q B_{j-q}^{n-k}(x) B_q^k(y) for every k: free of the blend
    # weight w, so each (x, y) of the grid builds it once.
    @functools.lru_cache(maxsize=(n + 1) ** 2)
    def inner(x, y):
        return [c * _convolve(_row(k, y), _row(n - k, x), j) for k, c in enumerate(cs)]

    rhs = lambda x, y, w: scale * sum(map(mul, _row(n, w), inner(x, y)))
    return n, 3, lambda x, y, w: _basis(n, j, (1 - w) * x + w * y), rhs


def _monomial_sides(bump: Callable, n: int, l: int):
    _require(0 <= l <= n, f"monomial needs 0 <= l <= n (got n={n}, l={l})")
    cs = [bump(math.comb(k, l), f"term:{k}") for k in range(l, n + 1)]
    scale = bump(1, "scale")
    rhs = lambda x: scale * sum(map(mul, cs, _row(n, x)[l:]))
    return n, 1, lambda x: math.comb(n, l) * x**l, rhs


def _derivative_sides(bump: Callable, n: int, k: int, l: int):
    _require(0 <= l <= n, f"derivative needs 0 <= l <= n (got n={n}, l={l})")
    cs = [bump((-1) ** (l - i) * math.comb(l, i), f"term:{i}") for i in range(l + 1)]
    pf = bump(math.perm(n, l), "prefactor")
    rhs = lambda x: pf * _convolve(cs, _row(n - l, x), k)
    return n, 1, _derivative(n, k, l), rhs


def _recurrence_sides(bump: Callable, n: int, k: int, v: int):
    _require(0 <= v <= n, f"recurrence needs 0 <= v <= n (got n={n}, v={v})")
    cs = [bump(1, f"term:{i}") for i in range(v + 1)]
    scale = bump(1, "scale")
    rhs = lambda x: scale * _convolve(list(map(mul, cs, _row(v, x))), _row(n - v, x), k)
    return n, 1, lambda x: _node(n, k, x), rhs


def _raise_sides(identity_id: str, factor: Callable, shift: int, bump: Callable, n: int, k: int, d: int):
    """f^d B_k^n = C(n,k)/C(n+d,t) B_t^(n+d), t = k + shift*d: f(x) = x with
    shift 1 (raise-x), f(x) = 1 - x with shift 0 (raise-1mx)."""
    _require(0 <= k <= n and d >= 1, f"{identity_id} needs 0 <= k <= n, d >= 1 (got {n}, {k}, {d})")
    t = k + shift * d
    num, den = bump(Fraction(math.comb(n, k), math.comb(n + d, t)), "prefactor").as_integer_ratio()
    return n + d, 1, lambda x: den * factor(x) ** d * _node(n, k, x), lambda x: num * _node(n + d, t, x)


def _elevation_sides(bump: Callable, n: int, k: int):
    _require(0 <= k <= n, f"elevation needs 0 <= k <= n (got n={n}, k={k})")
    c0, c1 = bump(k + 1, "term:0"), bump(n + 1 - k, "term:1")
    num, den = bump(Fraction(1, n + 1), "prefactor").as_integer_ratio()
    rhs = lambda x: num * (c0 * _node(n + 1, k + 1, x) + c1 * _node(n + 1, k, x))
    return n + 1, 1, lambda x: den * _node(n, k, x), rhs


def _product_sides(bump: Callable, n: int, k1: int, k2: int):
    _require(min(n, k1, k2) >= 0, f"product needs n, k1, k2 >= 0 (got {n}, {k1}, {k2})")
    cs = [bump(math.comb(n, i), f"term:{i}") for i in range(n + 1)]
    pf = Fraction(2) ** (k1 + k2 - n) * Fraction(
        math.factorial(k1) * math.factorial(k2), math.factorial(k1 + k2)
    )
    num, den = bump(pf, "prefactor").as_integer_ratio()
    # B_k1^i(x) B_k2^(n-i)(x) is zero outside k1 <= i <= n - k2.
    rhs = lambda x: num * sum(cs[i] * _row(i, x)[k1] * _row(n - i, x)[k2] for i in range(k1, n - k2 + 1))
    return n, 1, lambda x: den * _node(n, k1 + k2, x), rhs


def _two_point_sides(bump: Callable, n: int, k: int):
    _require(0 <= 2 * k <= n, f"two-point needs 0 <= 2k <= n (got n={n}, k={k})")
    cs = [bump((-1) ** (n - i) * math.comb(n, i), f"term:{i}") for i in range(n + 1)]
    pf = Fraction(math.factorial(k) ** 2, math.perm(n, 2 * k))
    num, den = bump(pf, "prefactor").as_integer_ratio()
    # B_k^i(x) B_k^(n-i)(y) is zero outside k <= i <= n - k; one weight
    # vector c_i B_k^i(x) per x.
    terms = range(k, n - k + 1)

    @functools.lru_cache(maxsize=n + 1)
    def weights(x):
        return [cs[i] * _row(i, x)[k] for i in terms]

    rhs = lambda x, y: num * sum(map(mul, weights(x), [_row(n - i, y)[k] for i in terms]))
    return n, 2, lambda x, y: den * (-x * y) ** k * (y - x) ** (n - 2 * k), rhs


def _tg1_sides(bump: Callable, n: int, k: int):
    _finite_sum_range("tg1", n, k)
    c = bump(math.comb(n, k), "rhs-const")
    lhs = lambda x: sum(math.comb(n, i) * x**i * _node(n - i, k, x) for i in range(n - k + 1))
    return n, 1, lhs, lambda x: c * x**k


def _tg2_sides(bump: Callable, n: int, k: int):
    _finite_sum_range("tg2", n, k)
    c = bump((-1) ** (n - k) * math.comb(n, k), "rhs-const")
    lhs = lambda x: sum((-1) ** i * math.comb(n, i) * _node(n - i, k, x) for i in range(n - k + 1))
    return n, 1, lhs, lambda x: c * x**n


def _tg5_sides(bump: Callable, n: int, k: int):
    _finite_sum_range("tg5", n, k)
    c = bump(0, "branch-const")

    def lhs(x):
        return sum((-1) ** i * math.comb(n, i) * (1 - x) ** i * _node(n - i, k, x) for i in range(n - k + 1))

    return n, 1, lhs, lambda x: (x**k if n == k else 0) + c


# Identity id -> (parameter names, sides function), in `identities.SUITE_IDS`
# order; a test checks the ids and names against the suite registry.
_SIDES = {
    "sum": (("n",), _sum_sides),
    "alternating-sum": (("n",), _alternating_sum_sides),
    "subdivision-product": (("n", "j"), _subdivision_product_sides),
    "subdivision-affine": (("n", "j"), _subdivision_affine_sides),
    "subdivision-trivariate": (("n", "j"), _subdivision_trivariate_sides),
    "monomial": (("n", "l"), _monomial_sides),
    "derivative": (("n", "k", "l"), _derivative_sides),
    "recurrence": (("n", "k", "v"), _recurrence_sides),
    "raise-x": (("n", "k", "d"), functools.partial(_raise_sides, "raise-x", lambda x: x, 1)),
    "raise-1mx": (("n", "k", "d"), functools.partial(_raise_sides, "raise-1mx", lambda x: 1 - x, 0)),
    "elevation": (("n", "k"), _elevation_sides),
    "product": (("n", "k1", "k2"), _product_sides),
    "two-point": (("n", "k"), _two_point_sides),
    "tg1": (("n", "k"), _tg1_sides),
    "tg2": (("n", "k"), _tg2_sides),
    "tg5": (("n", "k"), _tg5_sides),
}
