"""Workload inputs, reference answers and output checks.

This module is the benchmark's own arithmetic and never imports bernkit:
the known answers come from closed forms (family sizes, series limits,
k!/x^(k+1), C(n,k) x^k (1-x)^(n-k)), so a fault in the program cannot make
its own outputs look right.

Every check returns a `Tally`: how many operations were attempted, how many
gave a verdict or output that differs from the known answer, and whether the
output could be checked as a whole at all (`complete`).
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("campaign", "suite-oracle", "series-quadrature")

SUITE_IDS = (
    "sum",
    "alternating-sum",
    "subdivision-product",
    "subdivision-affine",
    "subdivision-trivariate",
    "monomial",
    "derivative",
    "recurrence",
    "raise-x",
    "raise-1mx",
    "elevation",
    "product",
    "two-point",
    "tg1",
    "tg2",
    "tg5",
)
FE_IDS = (
    "FE-SUM",
    "FE-ALT",
    "FE-G1",
    "FE-G2",
    "FE-G3",
    "FE-SUB",
    "FE-MONO",
    "FE-DIFFX",
    "FE-DIFFT",
    "FE-PROD",
    "FE-XY",
)
# The 33 check ids, in the order `bernkit --list-identities` prints them.
FAMILY_IDS = (
    SUITE_IDS
    + ("egf-closed-form",)
    + FE_IDS
    + ("TG3", "TG4", "LAPLACE", "basis-roundtrip", "basis-eval")
)

SERIES_POINTS = {
    "TG3": (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),
    "TG4": (Fraction(5, 8), Fraction(3, 4), Fraction(1)),
}
SERIES_K_MAX = 3
LAPLACE_K_MAX = 4
LAPLACE_POINTS = (Fraction(1, 2), Fraction(1), Fraction(2))
LAPLACE_RTOL = 1e-6

# campaign: the CLI defaults (--max-degree 10, --series-eps 1e-9).
CAMPAIGN_DEGREE = 10
CAMPAIGN_EPS = Fraction(1, 10**9)
BASIS_SAMPLE = 40  # seeded evaluations of bernstein_basis(n, k) checked per run
BASIS_SAMPLE_MAX_DEGREE = 24

# suite-oracle: clean tuples up to SUITE_DEGREE (the trivariate family is
# capped as in acceptance criterion 3, or it alone would set the run
# time), plus one mutated instance per tuple up to MUTATED_DEGREE.
SUITE_DEGREE = 14
TRIVARIATE_DEGREE = 8
MUTATED_DEGREE = 8

# series-quadrature: a tight tolerance plus a 200-term sweep fill the basis
# cache up to degree ~200; the step count puts about half of the run in
# the Simpson loop and half in exact summation.
SERIES_EPS = Fraction(1, 10**15)
SWEEP_TERMS = 200
LAPLACE_STEPS = 400_000


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    complete: bool = True
    problems: list = field(default_factory=list)

    def op(self, ok: bool, what) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problem(what)

    def problem(self, what) -> None:
        if len(self.problems) < 10:
            self.problems.append(str(what))

    def incomplete(self, what) -> None:
        self.complete = False
        self.problem(what)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.complete = self.complete and other.complete
        for p in other.problems:
            self.problem(p)


# --- references --------------------------------------------------------------


def series_limit(series_id: str, k: int, x: Fraction) -> Fraction:
    """TG3 converges to 1/x, TG4 to (-1)^k x^k."""
    if series_id == "TG3":
        return 1 / x
    return (-1) ** k * x**k


def laplace_exact(k: int, x: Fraction) -> Fraction:
    return Fraction(math.factorial(k)) / x ** (k + 1)


def bernstein_value(n: int, k: int, x: Fraction) -> Fraction:
    return math.comb(n, k) * x**k * (1 - x) ** (n - k)


def series_ok(series_id, k, x, partial_sum, bound, eps=None) -> bool:
    """The partial sum lies within its own tail bound (and eps, if given) of the limit."""
    err = abs(partial_sum - series_limit(series_id, k, x))
    return err <= bound and (eps is None or err <= eps)


def laplace_ok(k, x, approx) -> bool:
    exact = float(laplace_exact(k, x))
    return abs(approx - exact) / exact < LAPLACE_RTOL


# --- campaign ----------------------------------------------------------------


def campaign_family_sizes(d: int = CAMPAIGN_DEGREE) -> dict:
    """Closed-form number of checks per family in the default campaign."""
    pairs = (d + 1) * (d + 2) // 2  # 0 <= k <= n <= d
    squares = (d + 1) * (d + 2) * (2 * d + 3) // 6  # sum of (n+1)^2
    sizes = {
        "sum": d + 1,
        "alternating-sum": d + 1,
        "subdivision-product": pairs,
        "subdivision-affine": pairs,
        "subdivision-trivariate": pairs,
        "monomial": pairs,
        "derivative": squares,
        "recurrence": squares,
        "raise-x": 3 * pairs,
        "raise-1mx": 3 * pairs,
        "elevation": pairs,
        "product": (d + 1) * (min(d, 4) + 1) ** 2,
        "two-point": sum(n // 2 + 1 for n in range(d + 1)),
        "tg1": d * (d + 1) // 2,
        "tg2": d * (d + 1) // 2,
        "tg5": d * (d + 1) // 2,
        "egf-closed-form": d + 1,
    }
    for fe_id in FE_IDS:
        arity = 0 if fe_id in ("FE-SUM", "FE-ALT") else 2 if fe_id in ("FE-DIFFX", "FE-DIFFT", "FE-PROD") else 1
        sizes[fe_id] = (d + 1) ** arity
    sizes["TG3"] = sizes["TG4"] = (SERIES_K_MAX + 1) * 3
    sizes["LAPLACE"] = (LAPLACE_K_MAX + 1) * len(LAPLACE_POINTS)
    sizes["basis-roundtrip"] = d + 1
    sizes["basis-eval"] = pairs
    return sizes


def campaign_inputs(seed: int) -> dict:
    return {"argv": ["--seed", str(seed)]}


def basis_sample(seed: int) -> list:
    """Seeded (n, k, x) points at which bernstein_basis(n, k) is evaluated."""
    rng = random.Random(f"basis-sample:{seed}")
    out = []
    for _ in range(BASIS_SAMPLE):
        n = rng.randint(0, BASIS_SAMPLE_MAX_DEGREE)
        out.append((n, rng.randint(0, n), Fraction(rng.randint(0, 1000), 1001)))
    return out


def check_basis_sample(sample: list, values: list) -> Tally:
    tally = Tally()
    for (n, k, x), value in zip(sample, values):
        tally.op(value == bernstein_value(n, k, x), f"bernstein_basis({n},{k})({x}) = {value}")
    return tally


def check_campaign(inputs: dict, exit_code: int, stdout: bytes) -> Tally:
    sizes = campaign_family_sizes()
    tally = Tally()
    try:
        results = json.loads(stdout)["results"]
    except (ValueError, KeyError, TypeError) as exc:
        tally.attempted = sum(sizes.values())
        tally.failed = tally.attempted
        tally.incomplete(f"campaign report unreadable: {exc}")
        return tally
    counts = Counter(r["id"] for r in results)
    for r in results:
        ok = r["passed"] is True
        if r["id"] in SERIES_POINTS:
            d = r["detail"]
            ok = ok and series_ok(
                r["id"],
                r["params"]["k"],
                Fraction(r["params"]["x"]),
                Fraction(d["partial_sum"]),
                Fraction(d["tail_bound"]),
                CAMPAIGN_EPS,
            )
        elif r["id"] == "LAPLACE":
            ok = ok and laplace_ok(r["params"]["k"], Fraction(r["params"]["x"]), r["detail"]["approx"])
        tally.op(ok, f"{r['id']} {r['params']}")
    for family, size in sizes.items():
        if counts[family] != size:
            tally.incomplete(f"{family}: {counts[family]} checks, expected {size}")
    for family in set(counts) - set(sizes):
        tally.incomplete(f"unexpected family {family}")
    if exit_code != (0 if tally.failed == 0 else 1):
        tally.incomplete(f"exit code {exit_code} with {tally.failed} failed checks")
    return tally


# --- suite-oracle ------------------------------------------------------------


def suite_tuples(identity_id: str, d: int) -> list:
    """Parameter tuples of one suite identity with degree n <= d."""
    ns = range(d + 1)
    if identity_id in ("sum", "alternating-sum"):
        return [{"n": n} for n in ns]
    if identity_id.startswith("subdivision-"):
        return [{"n": n, "j": j} for n in ns for j in range(n + 1)]
    if identity_id == "monomial":
        return [{"n": n, "l": l} for n in ns for l in range(n + 1)]
    if identity_id in ("derivative", "recurrence"):
        third = "l" if identity_id == "derivative" else "v"
        return [{"n": n, "k": k, third: m} for n in ns for k in range(n + 1) for m in range(n + 1)]
    if identity_id in ("raise-x", "raise-1mx"):
        return [{"n": n, "k": k, "d": e} for n in ns for k in range(n + 1) for e in (1, 2, 3)]
    if identity_id == "elevation":
        return [{"n": n, "k": k} for n in ns for k in range(n + 1)]
    if identity_id == "product":
        return [{"n": n, "k1": a, "k2": b} for n in ns for a in range(5) for b in range(5)]
    if identity_id == "two-point":
        return [{"n": n, "k": k} for n in ns for k in range(n // 2 + 1)]
    if identity_id in ("tg1", "tg2", "tg5"):
        return [{"n": n, "k": k} for n in range(1, d + 1) for k in range(1, n + 1)]
    raise ValueError(f"unknown identity id: {identity_id!r}")


def flip_slots(identity_id: str, p: dict) -> list:
    """Mutation slots that must flip the verdict at this tuple.

    A slot qualifies when bumping it adds a provably nonzero polynomial to
    one side: a whole-side factor on a nonzero side, or a term that is a
    product of in-range basis functions. Term slots whose term can vanish
    (derivative, recurrence, product, two-point) are left out.
    """
    n = p["n"]
    if identity_id == "sum":
        return ["rhs-const"]
    if identity_id == "alternating-sum":
        return ["base-const", "base-slope"] if n >= 1 else []  # c^0 = 1 for any c
    if identity_id == "subdivision-product":
        return ["scale"] + [f"term:{k}" for k in range(p["j"], n + 1)]
    if identity_id == "subdivision-affine":
        return ["scale"] + [f"term:{k}" for k in range(p["j"] + 1)]
    if identity_id == "subdivision-trivariate":
        return ["scale"] + [f"term:{k}" for k in range(n + 1)]
    if identity_id == "monomial":
        return ["scale"] + [f"term:{k}" for k in range(p["l"], n + 1)]
    if identity_id == "recurrence":
        return ["scale"]
    if identity_id == "elevation":
        return ["prefactor", "term:0", "term:1"]
    if identity_id == "product":
        return ["prefactor"] if p["k1"] + p["k2"] <= n else []  # else both sides vanish
    if identity_id in ("derivative", "raise-x", "raise-1mx", "two-point"):
        return ["prefactor"]
    if identity_id in ("tg1", "tg2"):
        return ["rhs-const"]
    if identity_id == "tg5":
        return ["branch-const"]
    raise ValueError(f"unknown identity id: {identity_id!r}")


def suite_oracle_inputs(seed: int) -> dict:
    """Every clean tuple, plus one mutated copy of each tuple up to
    MUTATED_DEGREE; the seed picks each copy's slot and the run order."""
    rng = random.Random(f"suite-oracle:{seed}")
    cases = []
    for identity_id in SUITE_IDS:
        d = TRIVARIATE_DEGREE if identity_id == "subdivision-trivariate" else SUITE_DEGREE
        for p in suite_tuples(identity_id, d):
            cases.append([identity_id, p, None])
            slots = flip_slots(identity_id, p) if p["n"] <= MUTATED_DEGREE else []
            if slots:
                cases.append([identity_id, p, rng.choice(slots)])
    rng.shuffle(cases)
    return {"cases": cases}


def check_suite_oracle(inputs: dict, exit_code: int, stdout: bytes) -> Tally:
    """Clean tuples pass on both sides; mutated ones fail on both, with a
    witness from the suite."""
    cases = inputs["cases"]
    tally = Tally()
    try:
        verdicts = json.loads(stdout)["verdicts"]
    except (ValueError, KeyError, TypeError) as exc:
        verdicts = []
        tally.incomplete(f"suite-oracle output unreadable: {exc}")
    if exit_code != 0 or len(verdicts) != len(cases):
        tally.incomplete(f"exit code {exit_code}, {len(verdicts)} verdicts for {len(cases)} cases")
    for i, (identity_id, params, slot) in enumerate(cases):
        if i >= len(verdicts):
            tally.op(False, f"{identity_id} {params} {slot}: no verdict")
            continue
        suite, has_witness, oracle = verdicts[i]
        clean = slot is None
        ok = suite is clean and oracle is clean and has_witness is not clean
        tally.op(ok, f"{identity_id} {params} mutate={slot}: suite={suite} oracle={oracle}")
    return tally


# --- series-quadrature -------------------------------------------------------


def series_inputs(seed: int) -> dict:
    """The campaign's series and quadrature grids; the seed sets the order
    in which the points run (the basis cache fills in that order)."""
    rng = random.Random(f"series-quadrature:{seed}")
    points = [
        [series_id, k, f"{x.numerator}/{x.denominator}"]
        for series_id, xs in SERIES_POINTS.items()
        for k in range(SERIES_K_MAX + 1)
        for x in xs
    ]
    laplace = [[k, f"{x.numerator}/{x.denominator}"] for k in range(LAPLACE_K_MAX + 1) for x in LAPLACE_POINTS]
    rng.shuffle(points)
    rng.shuffle(laplace)
    return {
        "eps": f"{SERIES_EPS.numerator}/{SERIES_EPS.denominator}",
        "sweep_terms": SWEEP_TERMS,
        "points": points,
        "laplace": laplace,
        "laplace_steps": LAPLACE_STEPS,
    }


def check_series(inputs: dict, exit_code: int, stdout: bytes) -> Tally:
    """Per point: the certified partial sum (within eps and its own bound,
    with bound <= eps) and every swept term (within its bound); per
    quadrature point: relative error below 1e-6 against k!/x^(k+1)."""
    tally = Tally()
    try:
        out = json.loads(stdout)
        posterior, sweeps, laplace = out["posterior"], out["sweeps"], out["laplace"]
    except (ValueError, KeyError, TypeError) as exc:
        posterior, sweeps, laplace = [], [], []
        tally.incomplete(f"series output unreadable: {exc}")
    eps = Fraction(inputs["eps"])
    points = inputs["points"]
    terms = inputs["sweep_terms"] + 1
    shapes_ok = len(posterior) == len(sweeps) == len(points) and len(laplace) == len(inputs["laplace"])
    if exit_code != 0 or not shapes_ok:
        tally.incomplete(f"exit code {exit_code}, output sizes do not match the inputs")
    for i, (series_id, k, x) in enumerate(points):
        x = Fraction(x)
        if i >= min(len(posterior), len(sweeps)) or len(sweeps[i]) != terms:
            tally.attempted += 1 + terms
            tally.failed += 1 + terms
            tally.incomplete(f"{series_id} k={k} x={x}: no posterior or a short sweep")
            continue
        _n, ps, bound = posterior[i]
        bound = Fraction(bound)
        ok = bound <= eps and series_ok(series_id, k, x, Fraction(ps), bound, eps)
        tally.op(ok, f"{series_id} k={k} x={x} posterior")
        for n, (ps, bound) in enumerate(sweeps[i]):
            tally.op(series_ok(series_id, k, x, Fraction(ps), Fraction(bound)), f"{series_id} k={k} x={x} term {n}")
    for i, (k, x) in enumerate(inputs["laplace"]):
        ok = i < len(laplace) and laplace_ok(k, Fraction(x), laplace[i])
        tally.op(ok, f"LAPLACE k={k} x={x}")
    return tally


INPUTS = {
    "campaign": campaign_inputs,
    "suite-oracle": suite_oracle_inputs,
    "series-quadrature": series_inputs,
}
CHECKS = {
    "campaign": check_campaign,
    "suite-oracle": check_suite_oracle,
    "series-quadrature": check_series,
}
