"""Parametrized exact checks for the classical Bernstein-basis identities.

Each check builds both sides of one identity and compares canonical
forms.  A side that is a sum is one fused integer sum: one
`Poly1.sum_of_products` (or `Poly2`) call over integer-weighted terms,
canonicalised once, with any `Fraction` prefactor applied after it.  The
three-variable subdivision identity compares exact values, in integers
only, on a rational tensor grid dense enough that grid equality is
equivalent to polynomial equality; per x node, each side over the whole
(y, z) grid is packed into one integer, and the two are compared.

Every right-hand side exposes named "mutation slots": each of its scalar
constants is read through `bump(base, slot)`, and naming that slot as
`mutate` bumps the constant by +1, which must flip the verdict for at
least one parameter tuple.  A check's slots are exactly the constants it
reads, so a slot it never reads is a ValueError rather than a check that
passes vacuously.  The slots double as the CI failure-injection path and
as the sensitivity check that the comparisons cannot pass vacuously.

One registry (`_SUITE`, at the end) maps each identity to its parameter
generator, its check, `(bump, **params) -> Optional[Witness]`, and its
comparison method.  A check returns its witness, None on a pass, and
names neither its id nor its parameters: `run_identity`, the one path
into a check, builds the report.  Each public `verify_*` is a call to
it, and `mutation_slots` lists the slots a clean run reads.  The two
degree-raising identities are one rule, f^d B_k^n = C(n,k)/C(n+d,t)
B_t^(n+d) with (f, t) = (x, k+d) or (1-x, k), so one check, `_raise`,
is bound twice in the registry.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Optional

from .bernstein import basis_in, bernstein_basis, binomial
from .polynomials import Poly1, Poly2, _pack, _slot_width, scalar_str
from .report import METHOD_GRID, METHOD_SYMBOLIC, IdentityReport, Witness, compare_poly

# Fixed factors, built from their coefficients so that no check adds
# polynomials.  A lone basis term of a fused sum is paired with `_ONE`.
_ONE = Poly1.constant(1)
_ONE_MINUS_X = Poly1([1, -1])
_XY = Poly2([[0, 0], [0, 1]])
_Y_MINUS_X = Poly2([[0, 1], [-1, 0]])
# The affine blend u = (1-y)x + y = x + y - xy, and 1 - u = (1-x)(1-y).
_U = Poly2([[0, 1], [1, -1]])
_ONE_MINUS_U = Poly2([[1, -1], [-1, 1]])


def _in_range(what: str, i: int, lo: int, n: int) -> None:
    if not lo <= i <= n:
        raise ValueError(f"{what}={i} must lie in {lo}..{n}")


def _sum(bump: Callable, n: int) -> Optional[Witness]:
    if n < 0:
        raise ValueError("n must be nonnegative")
    lhs = Poly1.sum_of_products((1, bernstein_basis(n, k), _ONE) for k in range(n + 1))
    rhs = Poly1.constant(bump(1, "rhs-const"))
    return compare_poly(lhs, rhs)


def verify_sum(n: int, *, mutate: Optional[str] = None) -> IdentityReport:
    """Partition of unity: the degree-n basis functions sum to 1."""
    return run_identity("sum", {"n": n}, mutate=mutate)


def _alternating_sum(bump: Callable, n: int) -> Optional[Witness]:
    if n < 0:
        raise ValueError("n must be nonnegative")
    lhs = Poly1.sum_of_products(((-1) ** k, bernstein_basis(n, k), _ONE) for k in range(n + 1))
    c0 = bump(1, "base-const")
    c1 = bump(-2, "base-slope")
    rhs = Poly1([c0, c1]) ** n
    return compare_poly(lhs, rhs)


def verify_alternating_sum(n: int, *, mutate: Optional[str] = None) -> IdentityReport:
    """Alternating sum of the degree-n basis functions equals (1-2x)^n."""
    return run_identity("alternating-sum", {"n": n}, mutate=mutate)


def _subdivision_product(bump: Callable, n: int, j: int) -> Optional[Witness]:
    _in_range("index j", j, 0, n)
    lhs = bernstein_basis(n, j).at_xy()
    scale = bump(1, "scale")
    rhs = Poly2.sum_of_products(
        (
            scale * bump(1, f"term:{k}"),
            basis_in("x", k, j),
            basis_in("y", n, k),
        )
        for k in range(j, n + 1)
    )
    return compare_poly(lhs, rhs)


def _subdivision_affine(bump: Callable, n: int, j: int) -> Optional[Witness]:
    _in_range("index j", j, 0, n)
    lhs = _U**j * _ONE_MINUS_U ** (n - j) * binomial(n, j)
    scale = bump(1, "scale")
    rhs = Poly2.sum_of_products(
        (
            scale * bump(1, f"term:{k}"),
            basis_in("x", n - k, j - k),
            basis_in("y", n, k),
        )
        for k in range(j + 1)
    )
    return compare_poly(lhs, rhs)


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


def _subdivision_trivariate(bump: Callable, n: int, j: int) -> Optional[Witness]:
    """Blend of two interval maps: checked on a rational tensor grid because
    the statement genuinely involves three variables.  At the grid point
    (ix, iy, iz)/c both sides are integers over c^(2n); per x node, each is
    packed over the (y, z) grid into one integer, in slot (iy-1)c + iz-1."""
    _in_range("index j", j, 0, n)
    tbl = _basis_value_table(n)
    c = len(tbl)
    c2 = c * c
    scale = bump(1, "scale")
    weights = [scale * bump(1, f"term:{k}") for k in range(n + 1)]
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
            return Witness(
                lhs=scalar_str(Fraction(lhs, c2**n)),
                rhs=scalar_str(Fraction(rhs, c2**n)),
                point={v: scalar_str(Fraction(i, c)) for v, i in (("x", ix), ("y", s // c + 1), ("z", s % c + 1))},
            )
    return None


def verify_subdivision(
    variant: str,
    n: int,
    j: int,
    *,
    mutate: Optional[str] = None,
) -> IdentityReport:
    """Subdivision identities: `product`, `affine`, or `trivariate` variant."""
    if variant not in ("product", "affine", "trivariate"):
        raise ValueError(f"unknown subdivision variant: {variant!r}")
    return run_identity(f"subdivision-{variant}", {"n": n, "j": j}, mutate=mutate)


def _monomial(bump: Callable, n: int, l: int) -> Optional[Witness]:
    _in_range("power l", l, 0, n)
    lhs = Poly1.monomial(l, binomial(n, l))
    scale = bump(1, "scale")
    rhs = Poly1.sum_of_products(
        (scale * bump(binomial(k, l), f"term:{k}"), bernstein_basis(n, k), _ONE)
        for k in range(l, n + 1)
    )
    return compare_poly(lhs, rhs)


def verify_monomial(n: int, l: int, *, mutate: Optional[str] = None) -> IdentityReport:
    """C(n,l) x^l expanded over the degree-n basis, summing indices l..n."""
    return run_identity("monomial", {"n": n, "l": l}, mutate=mutate)


def _derivative(bump: Callable, n: int, k: int, l: int) -> Optional[Witness]:
    _in_range("derivative order l", l, 0, n)
    lhs = bernstein_basis(n, k).derivative(l)
    prefactor = bump(math.perm(n, l), "prefactor")
    rhs = Poly1.sum_of_products(
        (
            prefactor * bump((-1) ** (l - jj) * math.comb(l, jj), f"term:{jj}"),
            bernstein_basis(n - l, k - jj),
            _ONE,
        )
        for jj in range(l + 1)
    )
    return compare_poly(lhs, rhs)


def verify_derivative(n: int, k: int, l: int, *, mutate: Optional[str] = None) -> IdentityReport:
    """Order-l derivative of one basis function as a signed binomial
    combination of lower-degree basis functions (out-of-range terms vanish)."""
    return run_identity("derivative", {"n": n, "k": k, "l": l}, mutate=mutate)


def _recurrence(bump: Callable, n: int, k: int, v: int) -> Optional[Witness]:
    _in_range("split order v", v, 0, n)
    lhs = bernstein_basis(n, k)
    scale = bump(1, "scale")
    rhs = Poly1.sum_of_products(
        (scale * bump(1, f"term:{j}"), bernstein_basis(v, j), bernstein_basis(n - v, k - j))
        for j in range(v + 1)
    )
    return compare_poly(lhs, rhs)


def verify_recurrence(n: int, k: int, v: int, *, mutate: Optional[str] = None) -> IdentityReport:
    """Degree splitting: B_k^n = sum_j B_j^v B_{k-j}^{n-v}; v=1 is the
    standard two-term recurrence."""
    return run_identity("recurrence", {"n": n, "k": k, "v": v}, mutate=mutate)


def _raise(factor: Callable[[int], Poly1], shift: int, bump: Callable, n: int, k: int, d: int) -> Optional[Witness]:
    """Degree raising, f^d B_k^n = C(n,k)/C(n+d,t) B_t^(n+d) with t = k + shift*d:
    `factor(d)` is x^d with shift 1 (raise-x) or (1-x)^d with shift 0 (raise-1mx)."""
    _in_range("index k", k, 0, n)
    if d < 1:
        raise ValueError("raise power d must be at least 1")
    t = k + shift * d
    lhs = factor(d) * bernstein_basis(n, k)
    pf = Fraction(math.comb(n, k), math.comb(n + d, t))
    rhs = bernstein_basis(n + d, t) * bump(pf, "prefactor")
    return compare_poly(lhs, rhs)


def _elevation(bump: Callable, n: int, k: int) -> Optional[Witness]:
    _in_range("index k", k, 0, n)
    lhs = bernstein_basis(n, k)
    pf = bump(Fraction(1, n + 1), "prefactor")
    c0 = bump(k + 1, "term:0")
    c1 = bump(n + 1 - k, "term:1")
    rhs = Poly1.sum_of_products(
        [(c0, bernstein_basis(n + 1, k + 1), _ONE), (c1, bernstein_basis(n + 1, k), _ONE)]
    )
    return compare_poly(lhs, rhs * pf)


def verify_degree_ops(
    variant: str, n: int, k: int, d: int = 1, *, mutate: Optional[str] = None
) -> IdentityReport:
    """Degree raising by x^d or (1-x)^d, and single-step degree elevation."""
    if variant == "elevation":
        if d != 1:
            raise ValueError("elevation is a single degree step (d must be 1)")
        return run_identity("elevation", {"n": n, "k": k}, mutate=mutate)
    if variant not in ("raise-x", "raise-1mx"):
        raise ValueError(f"unknown degree operation variant: {variant!r}")
    return run_identity(variant, {"n": n, "k": k, "d": d}, mutate=mutate)


def _product(bump: Callable, n: int, k1: int, k2: int) -> Optional[Witness]:
    if n < 0 or k1 < 0 or k2 < 0:
        raise ValueError("n, k1, k2 must be nonnegative")
    lhs = bernstein_basis(n, k1 + k2)
    pf = Fraction(2) ** (k1 + k2 - n) * Fraction(
        math.factorial(k1) * math.factorial(k2), math.factorial(k1 + k2)
    )
    prefactor = bump(pf, "prefactor")
    rhs = Poly1.sum_of_products(
        (bump(math.comb(n, j), f"term:{j}"), bernstein_basis(j, k1), bernstein_basis(n - j, k2))
        for j in range(n + 1)
    )
    return compare_poly(lhs, rhs * prefactor)


def verify_product(n: int, k1: int, k2: int, *, mutate: Optional[str] = None) -> IdentityReport:
    """Index-splitting product formula across all degree splits of n."""
    return run_identity("product", {"n": n, "k1": k1, "k2": k2}, mutate=mutate)


def _two_point(bump: Callable, n: int, k: int) -> Optional[Witness]:
    if k < 0:
        raise ValueError("k must be nonnegative")
    if n < 2 * k:
        raise ValueError(f"two-point identity needs n >= 2k (got n={n}, k={k})")
    lhs = _XY**k * _Y_MINUS_X ** (n - 2 * k) * (-1) ** k
    pf = Fraction(math.factorial(k) ** 2, math.perm(n, 2 * k))
    prefactor = bump(pf, "prefactor")
    rhs = Poly2.sum_of_products(
        (
            bump((-1) ** (n - j) * math.comb(n, j), f"term:{j}"),
            basis_in("x", j, k),
            basis_in("y", n - j, k),
        )
        for j in range(n + 1)
    )
    return compare_poly(lhs, rhs * prefactor)


def verify_two_point(n: int, k: int, *, mutate: Optional[str] = None) -> IdentityReport:
    """Two-variable pairing: (-xy)^k (y-x)^(n-2k) against a signed binomial
    double sum; requires n >= 2k so the falling-factorial factor is nonzero."""
    return run_identity("two-point", {"n": n, "k": k}, mutate=mutate)


def _tg1(bump: Callable, n: int, k: int) -> Optional[Witness]:
    _in_range("index k", k, 1, n)
    lhs = Poly1.sum_of_products(
        (math.comb(n, j), Poly1.monomial(j), bernstein_basis(n - j, k)) for j in range(n - k + 1)
    )
    rhs = Poly1.monomial(k, bump(binomial(n, k), "rhs-const"))
    return compare_poly(lhs, rhs)


def _tg2(bump: Callable, n: int, k: int) -> Optional[Witness]:
    _in_range("index k", k, 1, n)
    lhs = Poly1.sum_of_products(
        ((-1) ** j * math.comb(n, j), bernstein_basis(n - j, k), _ONE) for j in range(n - k + 1)
    )
    rhs = Poly1.monomial(n, bump((-1) ** (n - k) * binomial(n, k), "rhs-const"))
    return compare_poly(lhs, rhs)


def _tg5(bump: Callable, n: int, k: int) -> Optional[Witness]:
    _in_range("index k", k, 1, n)
    lhs = Poly1.sum_of_products(
        ((-1) ** j * math.comb(n, j), _ONE_MINUS_X**j, bernstein_basis(n - j, k))
        for j in range(n - k + 1)
    )
    # x^k on the branch n = k, plus the branch constant (0 unless mutated).
    rhs = Poly1.sum_of_products(
        [(int(n == k), Poly1.monomial(k), _ONE), (bump(0, "branch-const"), _ONE, _ONE)]
    )
    return compare_poly(lhs, rhs)


def verify_finite_sum(variant: str, n: int, k: int, *, mutate: Optional[str] = None) -> IdentityReport:
    """Finite binomial-weighted sums collapsing to a single monomial.

    `tg1` is stated in polynomial form (both sides carry the factor x^k);
    `tg5` collapses to x^k when n = k and to zero otherwise.
    """
    if variant not in ("tg1", "tg2", "tg5"):
        raise ValueError(f"unknown finite-sum variant: {variant!r}")
    return run_identity(variant, {"n": n, "k": k}, mutate=mutate)


# --- the suite registry --------------------------------------------------------


class _SuiteEntry(NamedTuple):
    """params: degree cap -> admissible parameter tuples;
    check: (bump, **params) -> witness, None on a pass, reading every
    right-side constant through `bump(base, slot)`; its slots are the
    constants it reads; method: how the check compares the two sides."""

    params: Callable[[int], list[dict]]
    check: Callable[..., Optional[Witness]]
    method: str = METHOD_SYMBOLIC


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


# Every suite identity, in campaign order.  Adding one means one entry here
# plus one in `oracle._SIDES`; a test checks that the two agree on the ids,
# the parameter names and the slots each reads at every tuple.
_SUITE = {
    "sum": _SuiteEntry(_indexed(), _sum),
    "alternating-sum": _SuiteEntry(_indexed(), _alternating_sum),
    "subdivision-product": _SuiteEntry(_indexed("j"), _subdivision_product),
    "subdivision-affine": _SuiteEntry(_indexed("j"), _subdivision_affine),
    "subdivision-trivariate": _SuiteEntry(_indexed("j"), _subdivision_trivariate, METHOD_GRID),
    "monomial": _SuiteEntry(_indexed("l"), _monomial),
    "derivative": _SuiteEntry(_indexed("k", "l"), _derivative),
    "recurrence": _SuiteEntry(_indexed("k", "v"), _recurrence),
    "raise-x": _SuiteEntry(_raise_params, functools.partial(_raise, Poly1.monomial, 1)),
    "raise-1mx": _SuiteEntry(_raise_params, functools.partial(_raise, lambda d: _ONE_MINUS_X**d, 0)),
    "elevation": _SuiteEntry(_indexed("k"), _elevation),
    "product": _SuiteEntry(_product_params, _product),
    "two-point": _SuiteEntry(_two_point_params, _two_point),
    "tg1": _SuiteEntry(_finite_sum_params, _tg1),
    "tg2": _SuiteEntry(_finite_sum_params, _tg2),
    "tg5": _SuiteEntry(_finite_sum_params, _tg5),
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


def _run(identity_id: str, params: Mapping[str, int], mutate: Optional[str]) -> tuple[IdentityReport, list[str]]:
    """The report of one check, with the slot `mutate` names bumped, and the
    slots the check read, in read order."""
    entry = _entry(identity_id, params)
    at = {name: params[name] for name in _PARAM_NAMES[identity_id]}
    read: list[str] = []

    def bump(base, slot: str):
        read.append(slot)
        return base + 1 if slot == mutate else base

    witness = entry.check(bump, **at)
    if mutate is not None and mutate not in read:
        raise ValueError(f"{identity_id} has no mutation slot {mutate!r} at {at}")
    return IdentityReport(identity_id, at, entry.method, witness), read


def mutation_slots(identity_id: str, params: Mapping[str, int]) -> tuple[str, ...]:
    """Slot names valid for one identity at one (name-checked) tuple."""
    return tuple(_run(identity_id, params, None)[1])


def run_identity(
    identity_id: str,
    params: Mapping[str, int],
    *,
    mutate: Optional[str] = None,
) -> IdentityReport:
    """Run one identity check by id; `params` must name exactly the
    identity's parameters, and `mutate` names a slot from `mutation_slots`
    (validated) to bump by +1."""
    return _run(identity_id, params, mutate)[0]
