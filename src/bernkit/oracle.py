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
multiplies, composes or differentiates a polynomial.  The module imports
only the standard library, so it shares no arithmetic with the suite it
judges.

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


class _Params(dict):
    """A parameter tuple that records the names read from it, as `bump`
    records slots; reading a name it lacks is a ValueError."""

    def __init__(self, identity_id: str, params: Mapping[str, int]):
        super().__init__(params)
        self.identity_id = identity_id
        self.read: set[str] = set()

    def __getitem__(self, name: str) -> int:
        self.read.add(name)
        if name not in self:
            raise ValueError(f"{self.identity_id} needs parameter {name!r}")
        return super().__getitem__(name)


def oracle_verify(identity_id: str, params: Mapping[str, int], mutate: Optional[str] = None) -> bool:
    """Grid-evaluation verdict for one identity at one parameter tuple.

    `mutate` names one right-hand-side constant to bump by +1.  Raises
    ValueError for an unknown id, parameter names other than the
    identity's, a tuple outside the identity's range, or a slot name this
    identity never reads at this tuple.
    """
    read: set[str] = set()

    def bump(base, slot: str):
        read.add(slot)
        return base + 1 if mutate == slot else base

    p = _Params(identity_id, params)
    bound, arity, lhs, rhs = _sides(identity_id, p, bump)
    if p.keys() != p.read:
        raise ValueError(f"{identity_id} needs exactly the parameters {sorted(p.read)}, got {sorted(p)}")
    if mutate is not None and mutate not in read:
        raise ValueError(f"{identity_id} has no mutation slot {mutate!r} at {dict(params)}")
    return _agree(bound, arity, lhs, rhs)


def _sides(identity_id: str, p: dict, bump: Callable) -> tuple[int, int, Callable, Callable]:
    """(per-variable degree bound, number of variables, lhs, rhs) of one
    identity at one tuple, after its range check.  Every right-hand-side
    constant goes through `bump(base, slot)` here, before any grid point is
    evaluated, so an early mismatch never leaves a slot unread."""
    B = _node  # a basis value at a grid node
    if identity_id == "sum":
        n = p["n"]
        _require(n >= 0, f"sum needs n >= 0 (got n={n})")
        c = bump(1, "rhs-const")
        return n, 1, lambda x: sum(_row(n, x)), lambda x: c

    if identity_id == "alternating-sum":
        n = p["n"]
        _require(n >= 0, f"alternating-sum needs n >= 0 (got n={n})")
        c0, c1 = bump(1, "base-const"), bump(-2, "base-slope")

        def lhs(x):
            row = _row(n, x)
            return sum(row[0::2]) - sum(row[1::2])

        return n, 1, lhs, lambda x: (c0 + c1 * x) ** n

    if identity_id == "subdivision-product":
        n, j = _subdivision_params(identity_id, p)
        cs = [bump(1, f"term:{k}") for k in range(j, n + 1)]
        scale = bump(1, "scale")

        # c_k B_j^k(x) for k = j..n: one weight vector per x of the grid.
        @functools.lru_cache(maxsize=n + 1)
        def weights(x):
            return [c * _row(k, x)[j] for k, c in enumerate(cs, j)]

        rhs = lambda x, y: scale * sum(map(mul, weights(x), _row(n, y)[j:]))
        return n, 2, lambda x, y: _basis(n, j, x * y), rhs

    if identity_id == "subdivision-affine":
        n, j = _subdivision_params(identity_id, p)
        cs = [bump(1, f"term:{k}") for k in range(j + 1)]
        scale = bump(1, "scale")

        # c_k B_{j-k}^{n-k}(x) for k = 0..j: one weight vector per x.
        @functools.lru_cache(maxsize=n + 1)
        def weights(x):
            return [c * _row(n - k, x)[j - k] for k, c in enumerate(cs)]

        rhs = lambda x, y: scale * sum(map(mul, weights(x), _row(n, y)[: j + 1]))
        return n, 2, lambda x, y: _basis(n, j, x + y - x * y), rhs

    if identity_id == "subdivision-trivariate":
        n, j = _subdivision_params(identity_id, p)
        scale = bump(1, "scale")
        cs = [bump(1, f"term:{k}") for k in range(n + 1)]

        # c_k sum_q B_{j-q}^{n-k}(x) B_q^k(y) for every k: free of the blend
        # weight w, so each (x, y) of the grid builds it once.
        @functools.lru_cache(maxsize=(n + 1) ** 2)
        def inner(x, y):
            return [c * _convolve(_row(k, y), _row(n - k, x), j) for k, c in enumerate(cs)]

        rhs = lambda x, y, w: scale * sum(map(mul, _row(n, w), inner(x, y)))
        return n, 3, lambda x, y, w: _basis(n, j, (1 - w) * x + w * y), rhs

    if identity_id == "monomial":
        n, l = p["n"], p["l"]
        _require(0 <= l <= n, f"monomial needs 0 <= l <= n (got n={n}, l={l})")
        cs = [bump(math.comb(k, l), f"term:{k}") for k in range(l, n + 1)]
        scale = bump(1, "scale")
        rhs = lambda x: scale * sum(map(mul, cs, _row(n, x)[l:]))
        return n, 1, lambda x: math.comb(n, l) * x**l, rhs

    if identity_id == "derivative":
        n, k, l = p["n"], p["k"], p["l"]
        _require(0 <= l <= n, f"derivative needs 0 <= l <= n (got n={n}, l={l})")
        cs = [bump((-1) ** (l - i) * math.comb(l, i), f"term:{i}") for i in range(l + 1)]
        pf = bump(math.perm(n, l), "prefactor")
        rhs = lambda x: pf * _convolve(cs, _row(n - l, x), k)
        return n, 1, _derivative(n, k, l), rhs

    if identity_id == "recurrence":
        n, k, v = p["n"], p["k"], p["v"]
        _require(0 <= v <= n, f"recurrence needs 0 <= v <= n (got n={n}, v={v})")
        cs = [bump(1, f"term:{i}") for i in range(v + 1)]
        scale = bump(1, "scale")
        rhs = lambda x: scale * _convolve(list(map(mul, cs, _row(v, x))), _row(n - v, x), k)
        return n, 1, lambda x: B(n, k, x), rhs

    if identity_id == "raise-x":
        n, k, d = _raise_params(identity_id, p)
        pf = Fraction(math.factorial(n) * math.factorial(k + d), math.factorial(k) * math.factorial(n + d))
        num, den = bump(pf, "prefactor").as_integer_ratio()
        return n + d, 1, lambda x: den * x**d * B(n, k, x), lambda x: num * B(n + d, k + d, x)

    if identity_id == "raise-1mx":
        n, k, d = _raise_params(identity_id, p)
        pf = Fraction(
            math.factorial(n) * math.factorial(n + d - k), math.factorial(n + d) * math.factorial(n - k)
        )
        num, den = bump(pf, "prefactor").as_integer_ratio()
        return n + d, 1, lambda x: den * (1 - x) ** d * B(n, k, x), lambda x: num * B(n + d, k, x)

    if identity_id == "elevation":
        n, k = p["n"], p["k"]
        _require(0 <= k <= n, f"elevation needs 0 <= k <= n (got n={n}, k={k})")
        c0, c1 = bump(k + 1, "term:0"), bump(n + 1 - k, "term:1")
        num, den = bump(Fraction(1, n + 1), "prefactor").as_integer_ratio()
        rhs = lambda x: num * (c0 * B(n + 1, k + 1, x) + c1 * B(n + 1, k, x))
        return n + 1, 1, lambda x: den * B(n, k, x), rhs

    if identity_id == "product":
        n, k1, k2 = p["n"], p["k1"], p["k2"]
        _require(min(n, k1, k2) >= 0, f"product needs n, k1, k2 >= 0 (got {n}, {k1}, {k2})")
        cs = [bump(math.comb(n, i), f"term:{i}") for i in range(n + 1)]
        pf = Fraction(2) ** (k1 + k2 - n) * Fraction(
            math.factorial(k1) * math.factorial(k2), math.factorial(k1 + k2)
        )
        num, den = bump(pf, "prefactor").as_integer_ratio()
        # B_k1^i(x) B_k2^(n-i)(x) is zero outside k1 <= i <= n - k2.
        rhs = lambda x: num * sum(cs[i] * _row(i, x)[k1] * _row(n - i, x)[k2] for i in range(k1, n - k2 + 1))
        return n, 1, lambda x: den * B(n, k1 + k2, x), rhs

    if identity_id == "two-point":
        n, k = p["n"], p["k"]
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

    if identity_id == "tg1":
        n, k = _finite_sum_params(identity_id, p)
        c = bump(math.comb(n, k), "rhs-const")
        lhs = lambda x: sum(math.comb(n, i) * x**i * B(n - i, k, x) for i in range(n - k + 1))
        return n, 1, lhs, lambda x: c * x**k

    if identity_id == "tg2":
        n, k = _finite_sum_params(identity_id, p)
        c = bump((-1) ** (n - k) * math.comb(n, k), "rhs-const")
        lhs = lambda x: sum((-1) ** i * math.comb(n, i) * B(n - i, k, x) for i in range(n - k + 1))
        return n, 1, lhs, lambda x: c * x**n

    if identity_id == "tg5":
        n, k = _finite_sum_params(identity_id, p)
        c = bump(0, "branch-const")

        def lhs(x):
            return sum((-1) ** i * math.comb(n, i) * (1 - x) ** i * B(n - i, k, x) for i in range(n - k + 1))

        return n, 1, lhs, lambda x: (x**k if n == k else 0) + c

    raise ValueError(f"unknown identity id: {identity_id!r}")
