"""Parametrized exact checks for the classical Bernstein-basis identities.

Each `verify_*` builds both sides of one identity and compares canonical
forms.  A side that is a sum is one fused integer sum: one
`Poly1.sum_of_products` (or `Poly2`) call over integer-weighted terms,
canonicalised once, with any `Fraction` prefactor applied after it.  The
three-variable subdivision identity compares exact values, in integers
only, on a rational tensor grid dense enough that grid equality is
equivalent to polynomial equality; per x node, each side over the whole
(y, z) grid is packed into one integer, and the two are compared.

Every right-hand side exposes named "mutation slots": passing a slot name
bumps that one scalar constant by +1, which must flip the verdict for at
least one parameter tuple.  The slots double as the CI failure-injection
path and as the sensitivity check that the comparisons cannot pass
vacuously.

One registry (`_SUITE`, at the end) holds each identity's parameter
generator, check and mutation slots; `SUITE_IDS`, `suite_params`,
`mutation_slots` and `run_identity` are lookups in it.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Optional

from .bernstein import basis_in, bernstein_basis, binomial
from .polynomials import Poly1, Poly2, _pack, _slot_width, scalar_str
from .report import METHOD_GRID, IdentityReport, Witness, compare_poly

# Fixed factors, built from their coefficients so that no check adds
# polynomials.  A lone basis term of a fused sum is paired with `_ONE`.
_ONE = Poly1.constant(1)
_ONE_MINUS_X = Poly1([1, -1])
_XY = Poly2([[0, 0], [0, 1]])
_Y_MINUS_X = Poly2([[0, 1], [-1, 0]])
# The affine blend u = (1-y)x + y = x + y - xy, and 1 - u = (1-x)(1-y).
_U = Poly2([[0, 1], [1, -1]])
_ONE_MINUS_U = Poly2([[1, -1], [-1, 1]])


def _bump(base, slot: str, mutate: Optional[str]):
    """Add one to a named scalar constant when that slot is selected."""
    return base + 1 if mutate == slot else base


def _check_slot(identity_id: str, mutate: Optional[str], **params: int) -> None:
    """Reject a slot that `mutation_slots` does not list at this tuple: the
    check never reads it, so the mutated check would pass vacuously."""
    if mutate is not None and mutate not in mutation_slots(identity_id, params):
        raise ValueError(f"{identity_id} has no mutation slot {mutate!r} at {params}")


def verify_sum(n: int, *, mutate: Optional[str] = None) -> IdentityReport:
    """Partition of unity: the degree-n basis functions sum to 1."""
    _check_slot("sum", mutate, n=n)
    if n < 0:
        raise ValueError("n must be nonnegative")
    lhs = Poly1.sum_of_products((1, bernstein_basis(n, k), _ONE) for k in range(n + 1))
    rhs = Poly1.constant(_bump(1, "rhs-const", mutate))
    return compare_poly("sum", {"n": n}, lhs, rhs)


def verify_alternating_sum(n: int, *, mutate: Optional[str] = None) -> IdentityReport:
    """Alternating sum of the degree-n basis functions equals (1-2x)^n."""
    _check_slot("alternating-sum", mutate, n=n)
    if n < 0:
        raise ValueError("n must be nonnegative")
    lhs = Poly1.sum_of_products(((-1) ** k, bernstein_basis(n, k), _ONE) for k in range(n + 1))
    c0 = _bump(1, "base-const", mutate)
    c1 = _bump(-2, "base-slope", mutate)
    rhs = Poly1([c0, c1]) ** n
    return compare_poly("alternating-sum", {"n": n}, lhs, rhs)


def _subdivision_product(n: int, j: int, mutate: Optional[str]) -> IdentityReport:
    _check_slot("subdivision-product", mutate, n=n, j=j)
    lhs = bernstein_basis(n, j).at_xy()
    scale = _bump(1, "scale", mutate)
    rhs = Poly2.sum_of_products(
        (
            scale * _bump(1, f"term:{k}", mutate),
            basis_in("x", k, j),
            basis_in("y", n, k),
        )
        for k in range(j, n + 1)
    )
    return compare_poly("subdivision-product", {"n": n, "j": j}, lhs, rhs)


def _subdivision_affine(n: int, j: int, mutate: Optional[str]) -> IdentityReport:
    _check_slot("subdivision-affine", mutate, n=n, j=j)
    lhs = _U**j * _ONE_MINUS_U ** (n - j) * binomial(n, j)
    scale = _bump(1, "scale", mutate)
    rhs = Poly2.sum_of_products(
        (
            scale * _bump(1, f"term:{k}", mutate),
            basis_in("x", n - k, j - k),
            basis_in("y", n, k),
        )
        for k in range(j + 1)
    )
    return compare_poly("subdivision-affine", {"n": n, "j": j}, lhs, rhs)


# Nodes per variable of the trivariate grid beyond the D + 1 that decide a
# polynomial of per-variable degree D.
GRID_MARGIN = 1


def grid_nodes(degree_bound: int) -> list[Fraction]:
    """Distinct rational nodes i/(D+1+GRID_MARGIN), enough that a polynomial
    of per-variable degree <= D vanishing on the full tensor grid is zero."""
    count = degree_bound + 1 + GRID_MARGIN
    return [Fraction(i, count) for i in range(1, count + 1)]


# Bound on the memoised grid tables, one per degree n of the trivariate
# family: a campaign reads n = 0..max-degree (11 tables at the defaults, 19
# at `--max-degree 18`), and the suite's inputs 9 (n <= 8).
VALUE_TABLE_CACHE_SIZE = 32


@functools.lru_cache(maxsize=VALUE_TABLE_CACHE_SIZE)
def _basis_value_table(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per grid node i/c of `grid_nodes(n)`, the integers
    B_p^m(i/c) c^m = C(m,p) i^p (c-i)^(m-p) for p <= m <= n, indexed as
    table[i - 1][m][p].  Scaling by c^m clears every denominator, so both
    sides of the identity are integers over c^(2n) at every grid point.
    """
    c = n + 1 + GRID_MARGIN
    table = []
    for i in range(1, c + 1):
        up = [i**p for p in range(n + 1)]
        down = [(c - i) ** q for q in range(n + 1)]
        table.append(
            tuple(tuple(math.comb(m, p) * up[p] * down[m - p] for p in range(m + 1)) for m in range(n + 1))
        )
    return tuple(table)


def _subdivision_trivariate(n: int, j: int, mutate: Optional[str]) -> IdentityReport:
    """Blend of two interval maps: checked on a rational tensor grid because
    the statement genuinely involves three variables.  At the grid point
    (ix, iy, iz)/c both sides are integers over c^(2n); per x node, each is
    packed over the (y, z) grid into one integer, in slot (iy-1)c + iz-1."""
    _check_slot("subdivision-trivariate", mutate, n=n, j=j)
    tbl = _basis_value_table(n)
    c = len(tbl)
    c2 = c * c
    scale = _bump(1, "scale", mutate)
    weights = [scale * _bump(1, f"term:{k}", mutate) for k in range(n + 1)]
    # The scaled basis values at a node, C(m,p) i^p (c-i)^(m-p), are
    # nonnegative and sum to c^m; so at every grid point the right side is
    # at most max(w) c^(2n), and so is the left, c^(2n) B_j^n(u/c^2).
    width = _slot_width(max(weights) * c2**n)
    # The blend (1-y)x + yz is u/c^2 with u = (c-iy)ix + iy iz in 0..c^2.
    # Each left value is encoded once, as one slot's bytes; a wider one raises.
    cnj = binomial(n, j)
    lhs_at = [(cnj * u**j * (c2 - u) ** (n - j)).to_bytes(width // 8, "little") for u in range(c2 + 1)]
    # The right side at x is sum_(k,p) B_p^(n-k)(x) G_(k,p); G_(k,p) packs
    # w_k B_k^n(y) B_(j-p)^k(z), each y value times a packed z row, once.
    terms = []
    for k in range(n + 1):
        ys = [weights[k] * t[n][k] for t in tbl]
        for p in range(max(0, j - k), min(j, n - k) + 1):
            z = _pack([t[k][j - p] for t in tbl], width)
            g = b"".join([(y * z).to_bytes(width // 8 * c, "little") for y in ys])
            terms.append((n - k, p, int.from_bytes(g, "little")))
    for ix, tx in enumerate(tbl, 1):
        rows = (lhs_at[(c - iy) * ix + iy : (c - iy) * ix + iy * c + 1 : iy] for iy in range(1, c + 1))
        lhs = int.from_bytes(b"".join(map(b"".join, rows)), "little")
        rhs = sum(tx[m][p] * g for m, p, g in terms)
        if lhs != rhs:
            # The witness is the lowest differing slot: the first (y, z) point.
            d = lhs ^ rhs
            s = ((d & -d).bit_length() - 1) // width
            lhs, rhs = ((v >> s * width) % (1 << width) for v in (lhs, rhs))
            witness = Witness(
                lhs=scalar_str(Fraction(lhs, c2**n)),
                rhs=scalar_str(Fraction(rhs, c2**n)),
                point={v: scalar_str(Fraction(i, c)) for v, i in (("x", ix), ("y", s // c + 1), ("z", s % c + 1))},
            )
            return IdentityReport("subdivision-trivariate", {"n": n, "j": j}, False, METHOD_GRID, witness)
    return IdentityReport("subdivision-trivariate", {"n": n, "j": j}, True, METHOD_GRID)


def verify_subdivision(
    variant: str,
    n: int,
    j: int,
    *,
    mutate: Optional[str] = None,
) -> IdentityReport:
    """Subdivision identities: `product`, `affine`, or `trivariate` variant."""
    if not 0 <= j <= n:
        raise ValueError(f"index j={j} must lie in 0..{n}")
    if variant == "product":
        return _subdivision_product(n, j, mutate)
    if variant == "affine":
        return _subdivision_affine(n, j, mutate)
    if variant == "trivariate":
        return _subdivision_trivariate(n, j, mutate)
    raise ValueError(f"unknown subdivision variant: {variant!r}")


def verify_monomial(n: int, l: int, *, mutate: Optional[str] = None) -> IdentityReport:
    """C(n,l) x^l expanded over the degree-n basis, summing indices l..n."""
    _check_slot("monomial", mutate, n=n, l=l)
    if not 0 <= l <= n:
        raise ValueError(f"power l={l} must lie in 0..{n}")
    lhs = Poly1.monomial(l, binomial(n, l))
    scale = _bump(1, "scale", mutate)
    rhs = Poly1.sum_of_products(
        (scale * _bump(binomial(k, l), f"term:{k}", mutate), bernstein_basis(n, k), _ONE)
        for k in range(l, n + 1)
    )
    return compare_poly("monomial", {"n": n, "l": l}, lhs, rhs)


def verify_derivative(n: int, k: int, l: int, *, mutate: Optional[str] = None) -> IdentityReport:
    """Order-l derivative of one basis function as a signed binomial
    combination of lower-degree basis functions (out-of-range terms vanish)."""
    _check_slot("derivative", mutate, n=n, k=k, l=l)
    if not 0 <= l <= n:
        raise ValueError(f"derivative order l={l} must lie in 0..{n}")
    lhs = bernstein_basis(n, k).derivative(l)
    prefactor = _bump(math.perm(n, l), "prefactor", mutate)
    rhs = Poly1.sum_of_products(
        (
            prefactor * _bump((-1) ** (l - jj) * math.comb(l, jj), f"term:{jj}", mutate),
            bernstein_basis(n - l, k - jj),
            _ONE,
        )
        for jj in range(l + 1)
    )
    return compare_poly("derivative", {"n": n, "k": k, "l": l}, lhs, rhs)


def verify_recurrence(n: int, k: int, v: int, *, mutate: Optional[str] = None) -> IdentityReport:
    """Degree splitting: B_k^n = sum_j B_j^v B_{k-j}^{n-v}; v=1 is the
    standard two-term recurrence."""
    _check_slot("recurrence", mutate, n=n, k=k, v=v)
    if not 0 <= v <= n:
        raise ValueError(f"split order v={v} must lie in 0..{n}")
    lhs = bernstein_basis(n, k)
    scale = _bump(1, "scale", mutate)
    rhs = Poly1.sum_of_products(
        (scale * _bump(1, f"term:{j}", mutate), bernstein_basis(v, j), bernstein_basis(n - v, k - j))
        for j in range(v + 1)
    )
    return compare_poly("recurrence", {"n": n, "k": k, "v": v}, lhs, rhs)


def verify_degree_ops(
    variant: str, n: int, k: int, d: int = 1, *, mutate: Optional[str] = None
) -> IdentityReport:
    """Degree raising by x^d or (1-x)^d, and single-step degree elevation."""
    if not 0 <= k <= n:
        raise ValueError(f"index k={k} must lie in 0..{n}")
    if variant == "raise-x":
        _check_slot("raise-x", mutate, n=n, k=k, d=d)
        if d < 1:
            raise ValueError("raise power d must be at least 1")
        lhs = Poly1.monomial(d) * bernstein_basis(n, k)
        pf = Fraction(
            math.factorial(n) * math.factorial(k + d),
            math.factorial(k) * math.factorial(n + d),
        )
        rhs = bernstein_basis(n + d, k + d) * _bump(pf, "prefactor", mutate)
        return compare_poly("raise-x", {"n": n, "k": k, "d": d}, lhs, rhs)
    if variant == "raise-1mx":
        _check_slot("raise-1mx", mutate, n=n, k=k, d=d)
        if d < 1:
            raise ValueError("raise power d must be at least 1")
        lhs = _ONE_MINUS_X**d * bernstein_basis(n, k)
        pf = Fraction(
            math.factorial(n) * math.factorial(n + d - k),
            math.factorial(n + d) * math.factorial(n - k),
        )
        rhs = bernstein_basis(n + d, k) * _bump(pf, "prefactor", mutate)
        return compare_poly("raise-1mx", {"n": n, "k": k, "d": d}, lhs, rhs)
    if variant == "elevation":
        _check_slot("elevation", mutate, n=n, k=k)
        if d != 1:
            raise ValueError("elevation is a single degree step (d must be 1)")
        lhs = bernstein_basis(n, k)
        pf = _bump(Fraction(1, n + 1), "prefactor", mutate)
        c0 = _bump(k + 1, "term:0", mutate)
        c1 = _bump(n + 1 - k, "term:1", mutate)
        rhs = Poly1.sum_of_products(
            [(c0, bernstein_basis(n + 1, k + 1), _ONE), (c1, bernstein_basis(n + 1, k), _ONE)]
        )
        return compare_poly("elevation", {"n": n, "k": k}, lhs, rhs * pf)
    raise ValueError(f"unknown degree operation variant: {variant!r}")


def verify_product(n: int, k1: int, k2: int, *, mutate: Optional[str] = None) -> IdentityReport:
    """Index-splitting product formula across all degree splits of n."""
    _check_slot("product", mutate, n=n, k1=k1, k2=k2)
    if n < 0 or k1 < 0 or k2 < 0:
        raise ValueError("n, k1, k2 must be nonnegative")
    lhs = bernstein_basis(n, k1 + k2)
    pf = Fraction(2) ** (k1 + k2 - n) * Fraction(
        math.factorial(k1) * math.factorial(k2), math.factorial(k1 + k2)
    )
    prefactor = _bump(pf, "prefactor", mutate)
    rhs = Poly1.sum_of_products(
        (_bump(math.comb(n, j), f"term:{j}", mutate), bernstein_basis(j, k1), bernstein_basis(n - j, k2))
        for j in range(n + 1)
    )
    return compare_poly("product", {"n": n, "k1": k1, "k2": k2}, lhs, rhs * prefactor)


def verify_two_point(n: int, k: int, *, mutate: Optional[str] = None) -> IdentityReport:
    """Two-variable pairing: (-xy)^k (y-x)^(n-2k) against a signed binomial
    double sum; requires n >= 2k so the falling-factorial factor is nonzero."""
    _check_slot("two-point", mutate, n=n, k=k)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if n < 2 * k:
        raise ValueError(f"two-point identity needs n >= 2k (got n={n}, k={k})")
    lhs = _XY**k * _Y_MINUS_X ** (n - 2 * k) * (-1) ** k
    pf = Fraction(math.factorial(k) ** 2, math.perm(n, 2 * k))
    prefactor = _bump(pf, "prefactor", mutate)
    rhs = Poly2.sum_of_products(
        (
            _bump((-1) ** (n - j) * math.comb(n, j), f"term:{j}", mutate),
            basis_in("x", j, k),
            basis_in("y", n - j, k),
        )
        for j in range(n + 1)
    )
    return compare_poly("two-point", {"n": n, "k": k}, lhs, rhs * prefactor)


def verify_finite_sum(variant: str, n: int, k: int, *, mutate: Optional[str] = None) -> IdentityReport:
    """Finite binomial-weighted sums collapsing to a single monomial.

    `tg1` is stated in polynomial form (both sides carry the factor x^k);
    `tg5` collapses to x^k when n = k and to zero otherwise.
    """
    if not 1 <= k <= n:
        raise ValueError(f"index k={k} must lie in 1..{n}")
    if variant == "tg1":
        _check_slot("tg1", mutate, n=n, k=k)
        lhs = Poly1.sum_of_products(
            (math.comb(n, j), Poly1.monomial(j), bernstein_basis(n - j, k)) for j in range(n - k + 1)
        )
        rhs = Poly1.monomial(k, _bump(binomial(n, k), "rhs-const", mutate))
        return compare_poly("tg1", {"n": n, "k": k}, lhs, rhs)
    if variant == "tg2":
        _check_slot("tg2", mutate, n=n, k=k)
        lhs = Poly1.sum_of_products(
            ((-1) ** j * math.comb(n, j), bernstein_basis(n - j, k), _ONE) for j in range(n - k + 1)
        )
        rhs = Poly1.monomial(n, _bump((-1) ** (n - k) * binomial(n, k), "rhs-const", mutate))
        return compare_poly("tg2", {"n": n, "k": k}, lhs, rhs)
    if variant == "tg5":
        _check_slot("tg5", mutate, n=n, k=k)
        lhs = Poly1.sum_of_products(
            ((-1) ** j * math.comb(n, j), _ONE_MINUS_X**j, bernstein_basis(n - j, k))
            for j in range(n - k + 1)
        )
        # x^k on the branch n = k, plus the branch constant (0 unless mutated).
        rhs = Poly1.sum_of_products(
            [(int(n == k), Poly1.monomial(k), _ONE), (_bump(0, "branch-const", mutate), _ONE, _ONE)]
        )
        return compare_poly("tg5", {"n": n, "k": k}, lhs, rhs)
    raise ValueError(f"unknown finite-sum variant: {variant!r}")


# --- the suite registry --------------------------------------------------------


class _SuiteEntry(NamedTuple):
    """params: degree cap -> admissible parameter tuples;
    check: the public `verify_*` (a family's with its variant bound), called
    with the tuple as keywords and `mutate`;
    slots: params -> mutation slot names."""

    params: Callable[[int], list[dict]]
    check: Callable[..., IdentityReport]
    slots: Callable[[Mapping[str, int]], tuple[str, ...]]


def _indexed(*names: str) -> Callable[[int], list[dict]]:
    """Tuples (n, i1, i2, ...) for n up to the cap, each named index in 0..n."""

    def params(max_degree: int) -> list[dict]:
        out: list[dict] = []
        for n in range(max_degree + 1):
            tuples = [{"n": n}]
            for name in names:
                tuples = [{**t, name: i} for t in tuples for i in range(n + 1)]
            out += tuples
        return out

    return params


def _raise_params(max_degree: int) -> list[dict]:
    return [{**t, "d": d} for t in _indexed("k")(max_degree) for d in (1, 2, 3)]


def _product_params(max_degree: int) -> list[dict]:
    cap = min(max_degree, 4)
    return [
        {"n": n, "k1": k1, "k2": k2}
        for n in range(max_degree + 1)
        for k1 in range(cap + 1)
        for k2 in range(cap + 1)
    ]


def _two_point_params(max_degree: int) -> list[dict]:
    return [{"n": n, "k": k} for n in range(max_degree + 1) for k in range(n // 2 + 1)]


def _finite_sum_params(max_degree: int) -> list[dict]:
    return [{"n": n, "k": k} for n in range(1, max_degree + 1) for k in range(1, n + 1)]


def _terms(first: str, lo: int, hi: int) -> tuple[str, ...]:
    """Slot `first` followed by the slots term:lo .. term:hi."""
    return (first,) + tuple(f"term:{k}" for k in range(lo, hi + 1))


def _finite_sum(variant: str, slot: str) -> _SuiteEntry:
    return _SuiteEntry(
        _finite_sum_params,
        functools.partial(verify_finite_sum, variant),
        lambda p: (slot,),
    )


# Every suite identity, in campaign order.  Adding one means one entry here
# plus one in `oracle._SIDES` (a test checks that the two agree).  A
# campaign-level `--mutate` bumps the first slot of each parameter tuple.
_SUITE = {
    "sum": _SuiteEntry(
        _indexed(),
        verify_sum,
        lambda p: ("rhs-const",),
    ),
    "alternating-sum": _SuiteEntry(
        _indexed(),
        verify_alternating_sum,
        lambda p: ("base-const", "base-slope"),
    ),
    "subdivision-product": _SuiteEntry(
        _indexed("j"),
        functools.partial(verify_subdivision, "product"),
        lambda p: _terms("scale", p["j"], p["n"]),
    ),
    "subdivision-affine": _SuiteEntry(
        _indexed("j"),
        functools.partial(verify_subdivision, "affine"),
        lambda p: _terms("scale", 0, p["j"]),
    ),
    "subdivision-trivariate": _SuiteEntry(
        _indexed("j"),
        functools.partial(verify_subdivision, "trivariate"),
        lambda p: _terms("scale", 0, p["n"]),
    ),
    "monomial": _SuiteEntry(
        _indexed("l"),
        verify_monomial,
        lambda p: _terms("scale", p["l"], p["n"]),
    ),
    "derivative": _SuiteEntry(
        _indexed("k", "l"),
        verify_derivative,
        lambda p: _terms("prefactor", 0, p["l"]),
    ),
    "recurrence": _SuiteEntry(
        _indexed("k", "v"),
        verify_recurrence,
        lambda p: _terms("scale", 0, p["v"]),
    ),
    "raise-x": _SuiteEntry(
        _raise_params,
        functools.partial(verify_degree_ops, "raise-x"),
        lambda p: ("prefactor",),
    ),
    "raise-1mx": _SuiteEntry(
        _raise_params,
        functools.partial(verify_degree_ops, "raise-1mx"),
        lambda p: ("prefactor",),
    ),
    "elevation": _SuiteEntry(
        _indexed("k"),
        functools.partial(verify_degree_ops, "elevation"),
        lambda p: ("prefactor", "term:0", "term:1"),
    ),
    "product": _SuiteEntry(
        _product_params,
        verify_product,
        lambda p: _terms("prefactor", 0, p["n"]),
    ),
    "two-point": _SuiteEntry(
        _two_point_params,
        verify_two_point,
        lambda p: _terms("prefactor", 0, p["n"]),
    ),
    "tg1": _finite_sum("tg1", "rhs-const"),
    "tg2": _finite_sum("tg2", "rhs-const"),
    "tg5": _finite_sum("tg5", "branch-const"),
}

SUITE_IDS = tuple(_SUITE)
# Each identity's parameter names, read off its first tuple at degree 1.
_PARAM_NAMES = {identity_id: tuple(entry.params(1)[0]) for identity_id, entry in _SUITE.items()}


def _entry(identity_id: str, params: Optional[Mapping[str, int]] = None) -> _SuiteEntry:
    """The registry entry of `identity_id`; `params`, when given, must name
    exactly its parameters."""
    try:
        entry = _SUITE[identity_id]
    except KeyError:
        raise ValueError(f"unknown identity id: {identity_id!r}") from None
    if params is not None and set(params) != set(_PARAM_NAMES[identity_id]):
        raise ValueError(f"{identity_id} takes parameters {_PARAM_NAMES[identity_id]}, got {tuple(params)}")
    return entry


def suite_params(identity_id: str, max_degree: int) -> list[dict]:
    """Admissible parameter tuples for one suite identity, degree-capped."""
    return _entry(identity_id).params(max_degree)


def mutation_slots(identity_id: str, params: Mapping[str, int]) -> tuple[str, ...]:
    """Slot names valid for one identity at one (name-checked) tuple."""
    return _entry(identity_id, params).slots(params)


def run_identity(
    identity_id: str,
    params: Mapping[str, int],
    *,
    mutate: Optional[str] = None,
) -> IdentityReport:
    """Run one identity check by id; `params` must name exactly the
    identity's parameters, and `mutate` names a slot from `mutation_slots`
    (validated) to bump by +1."""
    return _entry(identity_id, params).check(**params, mutate=mutate)
