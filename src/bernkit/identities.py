"""Parametrized exact checks for the classical Bernstein-basis identities.

Each `verify_*` builds both sides of one identity and compares canonical
forms (or, for the three-variable subdivision identity, exact values on a
rational tensor grid dense enough that grid equality is equivalent to
polynomial equality).

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

from .bernstein import bernstein_basis, binomial, falling_factorial
from .polynomials import Poly1, Poly2, scalar_str
from .report import METHOD_GRID, IdentityReport, Witness, compare_poly1, compare_poly2


def _bump(base, slot: str, mutate: Optional[str]):
    """Add one to a named scalar constant when that slot is selected."""
    return base + 1 if mutate == slot else base


def _embed_x(p: Poly1) -> Poly2:
    return p.as_poly2_in_x()


def _embed_y(p: Poly1) -> Poly2:
    return p.as_poly2_in_y()


def verify_sum(n: int, *, mutate: Optional[str] = None) -> IdentityReport:
    """Partition of unity: the degree-n basis functions sum to 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    lhs = Poly1()
    for k in range(n + 1):
        lhs = lhs + bernstein_basis(n, k)
    rhs = Poly1.constant(_bump(Fraction(1), "rhs-const", mutate))
    return compare_poly1("sum", {"n": n}, lhs, rhs)


def verify_alternating_sum(n: int, *, mutate: Optional[str] = None) -> IdentityReport:
    """Alternating sum of the degree-n basis functions equals (1-2x)^n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    lhs = Poly1()
    for k in range(n + 1):
        term = bernstein_basis(n, k)
        lhs = lhs + (-term if k % 2 else term)
    c0 = _bump(Fraction(1), "base-const", mutate)
    c1 = _bump(Fraction(-2), "base-slope", mutate)
    rhs = (Poly1.constant(c0) + Poly1.x() * c1) ** n
    return compare_poly1("alternating-sum", {"n": n}, lhs, rhs)


def _subdivision_product(n: int, j: int, mutate: Optional[str]) -> IdentityReport:
    lhs = bernstein_basis(n, j).at_xy()
    scale = _bump(Fraction(1), "scale", mutate)
    rhs = Poly2()
    for k in range(j, n + 1):
        c = _bump(Fraction(1), f"term:{k}", mutate)
        rhs = rhs + _embed_x(bernstein_basis(k, j)) * _embed_y(bernstein_basis(n, k)) * c
    return compare_poly2("subdivision-product", {"n": n, "j": j}, lhs, rhs * scale)


def _subdivision_affine(n: int, j: int, mutate: Optional[str]) -> IdentityReport:
    # 1 - ((1-y)x + y) factors as (1-x)(1-y), which keeps the left side cheap.
    u = Poly2.x() + Poly2.y() - Poly2.x() * Poly2.y()
    one_minus_u = (1 - Poly2.x()) * (1 - Poly2.y())
    lhs = u**j * one_minus_u ** (n - j) * binomial(n, j)
    scale = _bump(Fraction(1), "scale", mutate)
    rhs = Poly2()
    for k in range(j + 1):
        c = _bump(Fraction(1), f"term:{k}", mutate)
        rhs = rhs + _embed_x(bernstein_basis(n - k, j - k)) * _embed_y(bernstein_basis(n, k)) * c
    return compare_poly2("subdivision-affine", {"n": n, "j": j}, lhs, rhs * scale)


def grid_nodes(degree_bound: int, margin: int = 1) -> list[Fraction]:
    """Distinct rational nodes i/(D+1+margin), enough that a polynomial of
    per-variable degree <= D vanishing on the full tensor grid is zero."""
    count = degree_bound + 1 + margin
    return [Fraction(i, count) for i in range(1, count + 1)]


@functools.lru_cache(maxsize=None)
def _basis_value_table(n: int, margin: int) -> tuple[tuple[Fraction, ...], tuple]:
    """Per grid node i/c, the integers B_p^m(i/c) c^m for p <= m <= n,
    indexed as table[node][m][p].

    Scaling by c^m clears every denominator, so the grid comparison can run
    in integer arithmetic: both sides of the identity, evaluated at grid
    points, are integers over the common denominator c^(2n).
    """
    nodes = tuple(grid_nodes(n, margin))
    c = nodes[0].denominator
    table = []
    for v in nodes:
        rows = []
        for m in range(n + 1):
            cm = c**m
            row = []
            for p in range(m + 1):
                scaled = bernstein_basis(m, p).evaluate(v) * cm
                row.append(scaled.numerator)  # exact: denominator divides c^m
            rows.append(tuple(row))
        table.append(tuple(rows))
    return nodes, tuple(table)


def _subdivision_trivariate(n: int, j: int, mutate: Optional[str], grid_margin: int) -> IdentityReport:
    """Blend of two interval maps: checked on a rational tensor grid because
    the statement genuinely involves three variables."""
    nodes, tbl = _basis_value_table(n, grid_margin)
    count = len(nodes)
    c = count  # nodes are i/c for i = 1..c (as reduced Fractions)
    c2 = c * c
    scale = 2 if mutate == "scale" else 1
    term_c = [2 if mutate == f"term:{k}" else 1 for k in range(n + 1)]
    cnj = binomial(n, j)
    num = list(range(1, count + 1))
    for xi in range(count):
        ix = num[xi]
        tbl_x = tbl[xi]
        for yi in range(count):
            iy = num[yi]
            base = (c - iy) * ix
            ty = tbl[yi][n]
            for zi in range(count):
                u = base + iy * num[zi]  # integer numerator of the blend over c^2
                lhs = cnj * u**j * (c2 - u) ** (n - j)
                tbl_z = tbl[zi]
                rhs = 0
                for k in range(n + 1):
                    row_x = tbl_x[n - k]
                    row_z = tbl_z[k]
                    inner = 0
                    for p in range(max(0, j - k), min(j, n - k) + 1):
                        inner += row_x[p] * row_z[j - p]
                    if inner:
                        rhs += term_c[k] * ty[k] * inner
                rhs *= scale
                if lhs != rhs:
                    den = c2**n
                    witness = Witness(
                        lhs=scalar_str(Fraction(lhs, den)),
                        rhs=scalar_str(Fraction(rhs, den)),
                        point={
                            "x": scalar_str(nodes[xi]),
                            "y": scalar_str(nodes[yi]),
                            "z": scalar_str(nodes[zi]),
                        },
                    )
                    return IdentityReport(
                        "subdivision-trivariate", {"n": n, "j": j}, False, METHOD_GRID, witness
                    )
    return IdentityReport("subdivision-trivariate", {"n": n, "j": j}, True, METHOD_GRID)


def verify_subdivision(
    variant: str,
    n: int,
    j: int,
    *,
    mutate: Optional[str] = None,
    grid_margin: int = 1,
) -> IdentityReport:
    """Subdivision identities: `product`, `affine`, or `trivariate` variant."""
    if not 0 <= j <= n:
        raise ValueError(f"index j={j} must lie in 0..{n}")
    if variant == "product":
        return _subdivision_product(n, j, mutate)
    if variant == "affine":
        return _subdivision_affine(n, j, mutate)
    if variant == "trivariate":
        return _subdivision_trivariate(n, j, mutate, grid_margin)
    raise ValueError(f"unknown subdivision variant: {variant!r}")


def verify_monomial(n: int, l: int, *, mutate: Optional[str] = None) -> IdentityReport:
    """C(n,l) x^l expanded over the degree-n basis, summing indices l..n."""
    if not 0 <= l <= n:
        raise ValueError(f"power l={l} must lie in 0..{n}")
    lhs = Poly1.monomial(l, binomial(n, l))
    scale = _bump(Fraction(1), "scale", mutate)
    rhs = Poly1()
    for k in range(l, n + 1):
        c = _bump(Fraction(binomial(k, l)), f"term:{k}", mutate)
        rhs = rhs + bernstein_basis(n, k) * c
    return compare_poly1("monomial", {"n": n, "l": l}, lhs, rhs * scale)


def verify_derivative(n: int, k: int, l: int, *, mutate: Optional[str] = None) -> IdentityReport:
    """Order-l derivative of one basis function as a signed binomial
    combination of lower-degree basis functions (out-of-range terms vanish)."""
    if not 0 <= l <= n:
        raise ValueError(f"derivative order l={l} must lie in 0..{n}")
    lhs = bernstein_basis(n, k).derivative(l)
    prefactor = _bump(Fraction(falling_factorial(n, l)), "prefactor", mutate)
    rhs = Poly1()
    for jj in range(l + 1):
        sign = -1 if (l - jj) % 2 else 1
        c = _bump(Fraction(sign * math.comb(l, jj)), f"term:{jj}", mutate)
        if c:
            rhs = rhs + bernstein_basis(n - l, k - jj) * c
    return compare_poly1("derivative", {"n": n, "k": k, "l": l}, lhs, rhs * prefactor)


def verify_recurrence(n: int, k: int, v: int, *, mutate: Optional[str] = None) -> IdentityReport:
    """Degree splitting: B_k^n = sum_j B_j^v B_{k-j}^{n-v}; v=1 is the
    standard two-term recurrence."""
    if not 0 <= v <= n:
        raise ValueError(f"split order v={v} must lie in 0..{n}")
    lhs = bernstein_basis(n, k)
    scale = _bump(Fraction(1), "scale", mutate)
    rhs = Poly1()
    for j in range(v + 1):
        c = _bump(Fraction(1), f"term:{j}", mutate)
        rhs = rhs + bernstein_basis(v, j) * bernstein_basis(n - v, k - j) * c
    return compare_poly1("recurrence", {"n": n, "k": k, "v": v}, lhs, rhs * scale)


def verify_degree_ops(
    variant: str, n: int, k: int, d: int = 1, *, mutate: Optional[str] = None
) -> IdentityReport:
    """Degree raising by x^d or (1-x)^d, and single-step degree elevation."""
    if not 0 <= k <= n:
        raise ValueError(f"index k={k} must lie in 0..{n}")
    if variant == "raise-x":
        if d < 1:
            raise ValueError("raise power d must be at least 1")
        lhs = Poly1.monomial(d) * bernstein_basis(n, k)
        pf = Fraction(
            math.factorial(n) * math.factorial(k + d),
            math.factorial(k) * math.factorial(n + d),
        )
        rhs = bernstein_basis(n + d, k + d) * _bump(pf, "prefactor", mutate)
        return compare_poly1("raise-x", {"n": n, "k": k, "d": d}, lhs, rhs)
    if variant == "raise-1mx":
        if d < 1:
            raise ValueError("raise power d must be at least 1")
        lhs = (1 - Poly1.x()) ** d * bernstein_basis(n, k)
        pf = Fraction(
            math.factorial(n) * math.factorial(n + d - k),
            math.factorial(n + d) * math.factorial(n - k),
        )
        rhs = bernstein_basis(n + d, k) * _bump(pf, "prefactor", mutate)
        return compare_poly1("raise-1mx", {"n": n, "k": k, "d": d}, lhs, rhs)
    if variant == "elevation":
        if d != 1:
            raise ValueError("elevation is a single degree step (d must be 1)")
        lhs = bernstein_basis(n, k)
        pf = _bump(Fraction(1, n + 1), "prefactor", mutate)
        c0 = _bump(Fraction(k + 1), "term:0", mutate)
        c1 = _bump(Fraction(n + 1 - k), "term:1", mutate)
        rhs = (bernstein_basis(n + 1, k + 1) * c0 + bernstein_basis(n + 1, k) * c1) * pf
        return compare_poly1("elevation", {"n": n, "k": k}, lhs, rhs)
    raise ValueError(f"unknown degree operation variant: {variant!r}")


def verify_product(n: int, k1: int, k2: int, *, mutate: Optional[str] = None) -> IdentityReport:
    """Index-splitting product formula across all degree splits of n."""
    if n < 0 or k1 < 0 or k2 < 0:
        raise ValueError("n, k1, k2 must be nonnegative")
    lhs = bernstein_basis(n, k1 + k2)
    pf = Fraction(2) ** (k1 + k2 - n) * Fraction(
        math.factorial(k1) * math.factorial(k2), math.factorial(k1 + k2)
    )
    prefactor = _bump(pf, "prefactor", mutate)
    rhs = Poly1()
    for j in range(n + 1):
        c = _bump(Fraction(math.comb(n, j)), f"term:{j}", mutate)
        term = bernstein_basis(j, k1) * bernstein_basis(n - j, k2)
        if term:
            rhs = rhs + term * c
    return compare_poly1("product", {"n": n, "k1": k1, "k2": k2}, lhs, rhs * prefactor)


def verify_two_point(n: int, k: int, *, mutate: Optional[str] = None) -> IdentityReport:
    """Two-variable pairing: (-xy)^k (y-x)^(n-2k) against a signed binomial
    double sum; requires n >= 2k so the falling-factorial factor is nonzero."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if n < 2 * k:
        raise ValueError(f"two-point identity needs n >= 2k (got n={n}, k={k})")
    x, y = Poly2.x(), Poly2.y()
    sign_k = -1 if k % 2 else 1
    lhs = (x * y) ** k * sign_k * (y - x) ** (n - 2 * k)
    pf = Fraction(math.factorial(k) ** 2, falling_factorial(n, 2 * k))
    prefactor = _bump(pf, "prefactor", mutate)
    rhs = Poly2()
    for j in range(n + 1):
        sign = -1 if (n - j) % 2 else 1
        c = _bump(Fraction(sign * math.comb(n, j)), f"term:{j}", mutate)
        term = _embed_x(bernstein_basis(j, k)) * _embed_y(bernstein_basis(n - j, k))
        if term:
            rhs = rhs + term * c
    return compare_poly2("two-point", {"n": n, "k": k}, lhs, rhs * prefactor)


def verify_finite_sum(variant: str, n: int, k: int, *, mutate: Optional[str] = None) -> IdentityReport:
    """Finite binomial-weighted sums collapsing to a single monomial.

    `tg1` is stated in polynomial form (both sides carry the factor x^k);
    `tg5` collapses to x^k when n = k and to zero otherwise.
    """
    if not 1 <= k <= n:
        raise ValueError(f"index k={k} must lie in 1..{n}")
    if variant == "tg1":
        lhs = Poly1()
        for j in range(n - k + 1):
            lhs = lhs + Poly1.monomial(j, math.comb(n, j)) * bernstein_basis(n - j, k)
        rhs = Poly1.monomial(k, _bump(Fraction(binomial(n, k)), "rhs-const", mutate))
        return compare_poly1("tg1", {"n": n, "k": k}, lhs, rhs)
    if variant == "tg2":
        lhs = Poly1()
        for j in range(n - k + 1):
            sign = -1 if j % 2 else 1
            lhs = lhs + bernstein_basis(n - j, k) * (sign * math.comb(n, j))
        const = Fraction((-1 if (n - k) % 2 else 1) * binomial(n, k))
        rhs = Poly1.monomial(n, _bump(const, "rhs-const", mutate))
        return compare_poly1("tg2", {"n": n, "k": k}, lhs, rhs)
    if variant == "tg5":
        lhs = Poly1()
        one_minus_x = 1 - Poly1.x()
        for j in range(n - k + 1):
            sign = -1 if j % 2 else 1
            lhs = lhs + one_minus_x**j * bernstein_basis(n - j, k) * (sign * math.comb(n, j))
        rhs = Poly1.monomial(k) if n == k else Poly1()
        rhs = rhs + Poly1.constant(_bump(Fraction(0), "branch-const", mutate))
        return compare_poly1("tg5", {"n": n, "k": k}, lhs, rhs)
    raise ValueError(f"unknown finite-sum variant: {variant!r}")




# --- the suite registry --------------------------------------------------------


class _SuiteEntry(NamedTuple):
    """params: degree cap -> admissible parameter tuples;
    check: (params, mutate, grid_margin) -> report;
    slots: params -> mutation slot names."""

    params: Callable[[int], list[dict]]
    check: Callable[[Mapping[str, int], Optional[str], int], IdentityReport]
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
        lambda p, m, g: verify_finite_sum(variant, p["n"], p["k"], mutate=m),
        lambda p: (slot,),
    )


# Every suite identity, in campaign order.  Adding one means one entry here
# plus its branch in `oracle.oracle_verify`.  A campaign-level `--mutate`
# bumps the first slot of each parameter tuple.
_SUITE = {
    "sum": _SuiteEntry(
        _indexed(),
        lambda p, m, g: verify_sum(p["n"], mutate=m),
        lambda p: ("rhs-const",),
    ),
    "alternating-sum": _SuiteEntry(
        _indexed(),
        lambda p, m, g: verify_alternating_sum(p["n"], mutate=m),
        lambda p: ("base-const", "base-slope"),
    ),
    "subdivision-product": _SuiteEntry(
        _indexed("j"),
        lambda p, m, g: verify_subdivision("product", p["n"], p["j"], mutate=m),
        lambda p: _terms("scale", p["j"], p["n"]),
    ),
    "subdivision-affine": _SuiteEntry(
        _indexed("j"),
        lambda p, m, g: verify_subdivision("affine", p["n"], p["j"], mutate=m),
        lambda p: _terms("scale", 0, p["j"]),
    ),
    "subdivision-trivariate": _SuiteEntry(
        _indexed("j"),
        lambda p, m, g: verify_subdivision("trivariate", p["n"], p["j"], mutate=m, grid_margin=g),
        lambda p: _terms("scale", 0, p["n"]),
    ),
    "monomial": _SuiteEntry(
        _indexed("l"),
        lambda p, m, g: verify_monomial(p["n"], p["l"], mutate=m),
        lambda p: _terms("scale", p["l"], p["n"]),
    ),
    "derivative": _SuiteEntry(
        _indexed("k", "l"),
        lambda p, m, g: verify_derivative(p["n"], p["k"], p["l"], mutate=m),
        lambda p: _terms("prefactor", 0, p["l"]),
    ),
    "recurrence": _SuiteEntry(
        _indexed("k", "v"),
        lambda p, m, g: verify_recurrence(p["n"], p["k"], p["v"], mutate=m),
        lambda p: _terms("scale", 0, p["v"]),
    ),
    "raise-x": _SuiteEntry(
        _raise_params,
        lambda p, m, g: verify_degree_ops("raise-x", p["n"], p["k"], p["d"], mutate=m),
        lambda p: ("prefactor",),
    ),
    "raise-1mx": _SuiteEntry(
        _raise_params,
        lambda p, m, g: verify_degree_ops("raise-1mx", p["n"], p["k"], p["d"], mutate=m),
        lambda p: ("prefactor",),
    ),
    "elevation": _SuiteEntry(
        _indexed("k"),
        lambda p, m, g: verify_degree_ops("elevation", p["n"], p["k"], 1, mutate=m),
        lambda p: ("prefactor", "term:0", "term:1"),
    ),
    "product": _SuiteEntry(
        _product_params,
        lambda p, m, g: verify_product(p["n"], p["k1"], p["k2"], mutate=m),
        lambda p: _terms("prefactor", 0, p["n"]),
    ),
    "two-point": _SuiteEntry(
        _two_point_params,
        lambda p, m, g: verify_two_point(p["n"], p["k"], mutate=m),
        lambda p: _terms("prefactor", 0, p["n"]),
    ),
    "tg1": _finite_sum("tg1", "rhs-const"),
    "tg2": _finite_sum("tg2", "rhs-const"),
    "tg5": _finite_sum("tg5", "branch-const"),
}

SUITE_IDS = tuple(_SUITE)


def _entry(identity_id: str) -> _SuiteEntry:
    try:
        return _SUITE[identity_id]
    except KeyError:
        raise ValueError(f"unknown identity id: {identity_id!r}") from None


def suite_params(identity_id: str, max_degree: int) -> list[dict]:
    """Admissible parameter tuples for one suite identity, degree-capped."""
    return _entry(identity_id).params(max_degree)


def mutation_slots(identity_id: str, params: Mapping[str, int]) -> tuple[str, ...]:
    """Slot names valid for one identity at one parameter tuple."""
    return _entry(identity_id).slots(params)


def run_identity(
    identity_id: str,
    params: Mapping[str, int],
    *,
    mutate: Optional[str] = None,
    grid_margin: int = 1,
) -> IdentityReport:
    """Run one identity check by id; `mutate` names a slot from
    `mutation_slots` (validated) to bump by +1."""
    entry = _entry(identity_id)
    if mutate is not None and mutate not in entry.slots(params):
        raise ValueError(f"{identity_id} has no mutation slot {mutate!r} at {dict(params)}")
    return entry.check(params, mutate, grid_margin)
