"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; the whole module is also part of the default pytest run.
"""

import json
import re
import time
from fractions import Fraction

from bernkit.campaign import fe_params, suite_params
from bernkit.cli import main
from bernkit.egf import FE_IDS, check_closed_form, check_functional_equation, egf_bernstein, egf_bernstein_closed, egf_equal
from bernkit.identities import (
    SUITE_IDS,
    run_identity,
    verify_alternating_sum,
    verify_degree_ops,
    verify_derivative,
    verify_finite_sum,
    verify_monomial,
    verify_product,
    verify_recurrence,
    verify_subdivision,
    verify_sum,
    verify_two_point,
)
from bernkit.oracle import oracle_verify
from bernkit.series import laplace_monomial, partial_sum, required_terms, series_sweep

EGF_ORDER = 24
INDEX_CAP = 8


def _report(criterion: int, name: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {criterion} {status}: {name}")
    assert not failures, f"criterion {criterion} ({name}): {failures[:5]}"


def test_criterion_1_closed_form_equals_definition():
    started = time.perf_counter()
    failures = []
    for k in range(INDEX_CAP + 1):
        ok, mismatch = egf_equal(egf_bernstein(k, EGF_ORDER), egf_bernstein_closed(k, EGF_ORDER))
        if not ok:
            failures.append((k, mismatch))
        if not check_closed_form(k, EGF_ORDER).passed:
            failures.append(("report", k))
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(("runtime", elapsed))
    _report(1, f"closed form vs definition, k<=8 at order 24 ({elapsed:.2f}s)", failures)


def test_criterion_2_all_functional_equations():
    failures = []
    for fe_id in FE_IDS:
        for params in fe_params(fe_id, INDEX_CAP):
            report = check_functional_equation(fe_id, params, EGF_ORDER)
            if not report.passed:
                failures.append((fe_id, params, report.witness))
    _report(2, f"{len(FE_IDS)} functional equations, indices<=8 at order 24, exact", failures)


def _criterion_3_tuples():
    jobs = []
    for n in range(16):
        jobs.append(("sum", lambda n=n: verify_sum(n)))
        jobs.append(("alternating-sum", lambda n=n: verify_alternating_sum(n)))
    for variant in ("product", "affine", "trivariate"):
        for n in range(9):
            for j in range(n + 1):
                jobs.append(
                    (f"subdivision-{variant}", lambda v=variant, n=n, j=j: verify_subdivision(v, n, j))
                )
    for n in range(13):
        for l in range(n + 1):
            jobs.append(("monomial", lambda n=n, l=l: verify_monomial(n, l)))
    for n in range(11):
        for k in range(n + 1):
            for l in range(n + 1):
                jobs.append(("derivative", lambda n=n, k=k, l=l: verify_derivative(n, k, l)))
            for v in range(n + 1):
                jobs.append(("recurrence", lambda n=n, k=k, v=v: verify_recurrence(n, k, v)))
            for d in (1, 2, 3):
                jobs.append(("raise-x", lambda n=n, k=k, d=d: verify_degree_ops("raise-x", n, k, d)))
                jobs.append(
                    ("raise-1mx", lambda n=n, k=k, d=d: verify_degree_ops("raise-1mx", n, k, d))
                )
            jobs.append(("elevation", lambda n=n, k=k: verify_degree_ops("elevation", n, k, 1)))
    for n in range(9):
        for k1 in range(5):
            for k2 in range(5):
                jobs.append(("product", lambda n=n, a=k1, b=k2: verify_product(n, a, b)))
        for k in range(n // 2 + 1):
            jobs.append(("two-point", lambda n=n, k=k: verify_two_point(n, k)))
    for variant in ("tg1", "tg2", "tg5"):
        for n in range(1, 11):
            for k in range(1, n + 1):
                jobs.append((variant, lambda v=variant, n=n, k=k: verify_finite_sum(v, n, k)))
    return jobs


def test_criterion_3_identity_suite_sweep():
    started = time.perf_counter()
    failures = []
    jobs = _criterion_3_tuples()
    for name, job in jobs:
        report = job()
        if not report.passed:
            failures.append((name, dict(report.params)))
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        failures.append(("runtime", elapsed))
    _report(3, f"identity suite sweep, {len(jobs)} checks ({elapsed:.2f}s)", failures)


# Mutated instances per family, chosen where the bumped constant provably
# multiplies a nonzero polynomial so the verdict must flip.
def _criterion_4_mutations():
    families = {
        "sum": [("sum", {"n": n}, "rhs-const") for n in range(25)],
        "alternating-sum": [("alternating-sum", {"n": n}, s) for n in range(1, 14) for s in ("base-const", "base-slope")],
        "subdivision": [
            (f"subdivision-{v}", {"n": n, "j": j}, "scale")
            for v in ("product", "affine", "trivariate")
            for n in range(3)
            for j in range(n + 1)
        ]
        + [("subdivision-product", {"n": n, "j": 0}, "scale") for n in range(3, 11)],
        "monomial": [("monomial", {"n": n, "l": l}, "scale") for n in range(6) for l in range(n + 1)],
        "derivative": [
            ("derivative", {"n": n, "k": k, "l": l}, "prefactor")
            for n in range(4)
            for k in range(n + 1)
            for l in range(n + 1)
        ],
        "recurrence": [
            ("recurrence", {"n": n, "k": k, "v": v}, "scale")
            for n in range(4)
            for k in range(n + 1)
            for v in range(n + 1)
        ],
        "degree-ops": [
            ("raise-x", {"n": n, "k": k, "d": d}, "prefactor")
            for n in range(3)
            for k in range(n + 1)
            for d in (1, 2)
        ]
        + [("elevation", {"n": n, "k": k}, s) for n in range(2) for k in range(n + 1) for s in ("prefactor", "term:0", "term:1")],
        "product": [
            ("product", {"n": n, "k1": k1, "k2": k2}, "prefactor")
            for n in range(7)
            for k1 in range(3)
            for k2 in range(3)
            if k1 + k2 <= n
        ],
        "two-point": [
            ("two-point", {"n": n, "k": k}, "prefactor") for n in range(9) for k in range(n // 2 + 1)
        ],
        "finite-sum": [
            (v, {"n": n, "k": k}, "rhs-const" if v != "tg5" else "branch-const")
            for v in ("tg1", "tg2", "tg5")
            for n in range(1, 5)
            for k in range(1, n + 1)
        ],
    }
    return families


def test_criterion_4_oracle_agreement_and_mutation_sensitivity():
    failures = []
    for identity_id in SUITE_IDS:
        for params in suite_params(identity_id, INDEX_CAP):
            report = run_identity(identity_id, params)
            oracle = oracle_verify(identity_id, params)
            if not report.passed or oracle is not True:
                failures.append(("clean", identity_id, params))
    families = _criterion_4_mutations()
    for family, instances in families.items():
        if len(instances) < 20:
            failures.append(("too-few-instances", family, len(instances)))
        for identity_id, params, slot in instances:
            suite_verdict = run_identity(identity_id, params, mutate=slot).passed
            oracle_verdict = oracle_verify(identity_id, params, mutate=slot)
            if suite_verdict or oracle_verdict:
                failures.append(("no-flip", identity_id, params, slot, suite_verdict, oracle_verdict))
    _report(4, "oracle agreement (n<=8) plus >=20 flipping mutations per family", failures)


def test_criterion_5_series_protocol():
    eps = Fraction(1, 10**9)
    grids = {
        "TG3": (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),
        "TG4": (Fraction(5, 8), Fraction(3, 4), Fraction(1)),
    }
    failures = []
    for series_id, xs in grids.items():
        for k in range(4):
            for x in xs:
                for check in series_sweep(series_id, k, x, 200):
                    if check.error > check.tail_bound:
                        failures.append((series_id, k, x, check.terms_used))
                        break
                n_star = required_terms(series_id, k, x, eps)
                posterior = partial_sum(series_id, k, x, n_star)
                if posterior.error > eps:
                    failures.append(("posterior", series_id, k, x, n_star))
    _report(5, "series tail bounds (N<=200) and 1e-9 posterior errors", failures)


def test_criterion_6_quadrature_against_closed_form():
    failures = []
    for k in range(5):
        for x in (Fraction(1, 2), Fraction(1), Fraction(2)):
            res = laplace_monomial(k, x, steps=1_000_000)  # horizon defaults to 40/x
            if res.relative_error >= 1e-6:
                failures.append((k, x, res.relative_error))
    _report(6, "quadrature vs k!/x^(k+1), rel err < 1e-6 at 1e6 steps", failures)


def test_criterion_7_cli_determinism_and_mutation(capsys):
    failures = []
    argv = ["--seed", "7"]
    code_first = main(argv)
    first = capsys.readouterr().out
    code_second = main(argv)
    second = capsys.readouterr().out
    if code_first != 0 or code_second != 0:
        failures.append(("exit", code_first, code_second))

    def strip_wall_time(text: str) -> str:
        return re.sub(r'^\s*"wall_time_s": .*$', "", text, flags=re.MULTILINE)

    if strip_wall_time(first) != strip_wall_time(second):
        failures.append("reports differ beyond wall time")

    code_mutated = main(argv + ["--mutate", "recurrence"])
    mutated_out = capsys.readouterr().out
    payload = json.loads(mutated_out)
    failing = [r for r in payload["results"] if not r["passed"]]
    if code_mutated != 1:
        failures.append(("mutated-exit", code_mutated))
    if not failing or any(r["witness"] is None for r in failing):
        failures.append("mutated run lacks witnesses")
    if any(r["id"] != "recurrence" for r in failing):
        failures.append("unexpected identities failed")
    _report(7, "default campaign byte-stable modulo wall time; --mutate exits 1", failures)
