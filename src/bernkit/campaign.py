"""Verification campaigns: enumerate parameter tuples, run every check,
aggregate a deterministic machine- or human-readable report.

Campaign entries cover the identity suite, the generating-function
catalog, the certified series, the quadrature cross-check, and two
seed-driven randomized basis checks (round-trip and double-evaluation).
Given an identical configuration, the JSON report is byte-identical
between runs except for the wall-time field.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import __version__
from .bernstein import BernsteinForm, bernstein_basis, eval_de_casteljau, to_bernstein, to_monomial
from .egf import FE_IDS, check_closed_form, check_functional_equation
from .identities import DEFAULT_MUTATION, SUITE_IDS, run_identity
from .polynomials import scalar_str
from .report import IdentityReport, Witness
from .series import SERIES_IDS, laplace_monomial, partial_sum, required_terms

RANDOM_IDS = ("basis-roundtrip", "basis-eval")
ALL_IDS = SUITE_IDS + ("egf-closed-form",) + FE_IDS + SERIES_IDS + ("LAPLACE",) + RANDOM_IDS

_SERIES_K_MAX = 3
_SERIES_POINTS = {
    "TG3": (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),
    "TG4": (Fraction(5, 8), Fraction(3, 4), Fraction(1)),
}
_LAPLACE_K_MAX = 4
_LAPLACE_POINTS = (Fraction(1, 2), Fraction(1), Fraction(2))
_LAPLACE_STEPS = 100_000
_LAPLACE_RTOL = 1e-6
_EVAL_POINTS_PER_PAIR = 3


@dataclass(frozen=True)
class VerifyConfig:
    """Campaign knobs; `identities=None` selects every known check."""

    max_degree: int = 10
    egf_order: int = 24
    identities: Optional[tuple[str, ...]] = None
    grid_margin: int = 1
    series_eps: Fraction = Fraction(1, 10**9)
    format: str = "json"
    seed: int = 0

    def validate(self) -> None:
        if self.max_degree < 0:
            raise ValueError("max-degree must be nonnegative")
        if self.egf_order < self.max_degree:
            raise ValueError("egf-order must be at least max-degree")
        if self.grid_margin < 0:
            raise ValueError("grid-margin must be nonnegative")
        if self.series_eps <= 0:
            raise ValueError("series-eps must be positive")
        if self.format not in ("json", "text"):
            raise ValueError(f"unknown format: {self.format!r}")
        if self.identities is not None:
            if not self.identities:
                raise ValueError("identities selects no checks")
            unknown = [i for i in self.identities if i not in ALL_IDS]
            if unknown:
                raise ValueError(f"unknown identities: {', '.join(unknown)}")

    def selected(self) -> tuple[str, ...]:
        if self.identities is None:
            return ALL_IDS
        chosen = set(self.identities)
        return tuple(i for i in ALL_IDS if i in chosen)

    def to_json_dict(self) -> dict:
        return {
            "max_degree": self.max_degree,
            "egf_order": self.egf_order,
            "identities": list(self.selected()),
            "grid_margin": self.grid_margin,
            "series_eps": scalar_str(self.series_eps),
            "format": self.format,
            "seed": self.seed,
        }


@dataclass
class CampaignReport:
    config: VerifyConfig
    results: list[dict] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if not r["passed"])

    @property
    def passed(self) -> int:
        return self.total - self.failed

    @property
    def exit_status(self) -> int:
        return 0 if self.failed == 0 else 1

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "version": __version__,
            "config": self.config.to_json_dict(),
            "results": self.results,
            "totals": {"checks": self.total, "passed": self.passed, "failed": self.failed},
            "wall_time_s": self.wall_time_s,
        }


def suite_params(identity_id: str, max_degree: int) -> list[dict]:
    """Admissible parameter tuples for one suite identity, degree-capped."""
    d = max_degree
    out: list[dict] = []
    if identity_id in ("sum", "alternating-sum"):
        out = [{"n": n} for n in range(d + 1)]
    elif identity_id.startswith("subdivision-"):
        out = [{"n": n, "j": j} for n in range(d + 1) for j in range(n + 1)]
    elif identity_id == "monomial":
        out = [{"n": n, "l": l} for n in range(d + 1) for l in range(n + 1)]
    elif identity_id == "derivative":
        out = [
            {"n": n, "k": k, "l": l}
            for n in range(d + 1)
            for k in range(n + 1)
            for l in range(n + 1)
        ]
    elif identity_id == "recurrence":
        out = [
            {"n": n, "k": k, "v": v}
            for n in range(d + 1)
            for k in range(n + 1)
            for v in range(n + 1)
        ]
    elif identity_id in ("raise-x", "raise-1mx"):
        out = [
            {"n": n, "k": k, "d": dd}
            for n in range(d + 1)
            for k in range(n + 1)
            for dd in (1, 2, 3)
        ]
    elif identity_id == "elevation":
        out = [{"n": n, "k": k} for n in range(d + 1) for k in range(n + 1)]
    elif identity_id == "product":
        cap = min(d, 4)
        out = [
            {"n": n, "k1": k1, "k2": k2}
            for n in range(d + 1)
            for k1 in range(cap + 1)
            for k2 in range(cap + 1)
        ]
    elif identity_id == "two-point":
        out = [{"n": n, "k": k} for n in range(d + 1) for k in range(n // 2 + 1)]
    elif identity_id in ("tg1", "tg2", "tg5"):
        out = [{"n": n, "k": k} for n in range(1, d + 1) for k in range(1, n + 1)]
    else:
        raise ValueError(f"unknown identity id: {identity_id!r}")
    return out


def fe_params(fe_id: str, max_index: int) -> list[dict]:
    """Index tuples for one functional equation, each index 0..max_index."""
    names = {
        "FE-SUM": (),
        "FE-ALT": (),
        "FE-G1": ("k",),
        "FE-G2": ("k",),
        "FE-G3": ("k",),
        "FE-SUB": ("j",),
        "FE-MONO": ("l",),
        "FE-DIFFX": ("k", "l"),
        "FE-DIFFT": ("k", "v"),
        "FE-PROD": ("k1", "k2"),
        "FE-XY": ("k",),
    }[fe_id]
    if not names:
        return [{}]
    if len(names) == 1:
        return [{names[0]: i} for i in range(max_index + 1)]
    return [
        {names[0]: i, names[1]: j}
        for i in range(max_index + 1)
        for j in range(max_index + 1)
    ]


def _identity_entry(rep: IdentityReport, kind: str = "identity") -> dict:
    return {
        "id": rep.identity_id,
        "params": dict(rep.params),
        "kind": kind,
        "method": rep.method,
        "passed": rep.passed,
        "witness": rep.witness.to_json_dict() if rep.witness else None,
        "detail": None,
    }


def _run_series(series_id: str, config: VerifyConfig, mutated: bool) -> list[dict]:
    out = []
    for k in range(_SERIES_K_MAX + 1):
        for x in _SERIES_POINTS[series_id]:
            n = required_terms(series_id, k, x, config.series_eps)
            check = partial_sum(series_id, k, x, n)
            limit = check.limit + 1 if mutated else check.limit
            err = abs(check.partial_sum - limit)
            passed = err <= config.series_eps and err <= check.tail_bound
            entry = {
                "id": series_id,
                "params": {"k": k, "x": scalar_str(x)},
                "kind": "series",
                "method": "numeric",
                "passed": passed,
                "witness": None
                if passed
                else Witness(
                    lhs=scalar_str(check.partial_sum), rhs=scalar_str(limit)
                ).to_json_dict(),
                "detail": check.to_json_dict(),
            }
            out.append(entry)
    return out


def _run_laplace(config: VerifyConfig, mutated: bool) -> list[dict]:
    out = []
    for k in range(_LAPLACE_K_MAX + 1):
        for x in _LAPLACE_POINTS:
            res = laplace_monomial(k, x, steps=_LAPLACE_STEPS)
            exact = res.exact + 1 if mutated else res.exact
            rel = abs(res.approx - float(exact)) / float(exact)
            passed = rel < _LAPLACE_RTOL
            out.append(
                {
                    "id": "LAPLACE",
                    "params": {"k": k, "x": scalar_str(x)},
                    "kind": "quadrature",
                    "method": "numeric",
                    "passed": passed,
                    "witness": None
                    if passed
                    else Witness(lhs=repr(res.approx), rhs=scalar_str(exact)).to_json_dict(),
                    "detail": res.to_json_dict(),
                }
            )
    return out


def _run_random_checks(identity_id: str, config: VerifyConfig, mutated: bool) -> list[dict]:
    rng = random.Random((config.seed, identity_id).__repr__())
    out = []
    if identity_id == "basis-roundtrip":
        for n in range(config.max_degree + 1):
            coeffs = [Fraction(rng.randint(-99, 99), rng.randint(1, 20)) for _ in range(n + 1)]
            form = BernsteinForm(n, coeffs)
            back = to_bernstein(to_monomial(form), n)
            if mutated:
                back = BernsteinForm(n, [back.coeffs[0] + 1, *back.coeffs[1:]])
            passed = back == form
            witness = None
            if not passed:
                idx = next(i for i, (a, b) in enumerate(zip(form.coeffs, back.coeffs)) if a != b)
                witness = Witness(
                    lhs=scalar_str(form.coeffs[idx]),
                    rhs=scalar_str(back.coeffs[idx]),
                    monomial={"k": idx},
                ).to_json_dict()
            out.append(
                {
                    "id": identity_id,
                    "params": {"n": n},
                    "kind": "random",
                    "method": "symbolic",
                    "passed": passed,
                    "witness": witness,
                    "detail": None,
                }
            )
    elif identity_id == "basis-eval":
        for n in range(config.max_degree + 1):
            for k in range(n + 1):
                unit = BernsteinForm(n, [Fraction(i == k) for i in range(n + 1)])
                poly = bernstein_basis(n, k)
                passed = True
                witness = None
                for _ in range(_EVAL_POINTS_PER_PAIR):
                    x = Fraction(rng.randint(0, 1000), 1001)
                    left = eval_de_casteljau(unit, x)
                    if mutated:
                        left += 1
                    right = poly.evaluate(x)
                    if left != right:
                        passed = False
                        witness = Witness(
                            lhs=scalar_str(left),
                            rhs=scalar_str(right),
                            point={"x": scalar_str(x)},
                        ).to_json_dict()
                        break
                out.append(
                    {
                        "id": identity_id,
                        "params": {"n": n, "k": k},
                        "kind": "random",
                        "method": "grid",
                        "passed": passed,
                        "witness": witness,
                        "detail": None,
                    }
                )
    return out


def run_verify(config: VerifyConfig, mutate: Optional[str] = None) -> CampaignReport:
    """Run the configured campaign; `mutate` names one check id whose right
    side is deliberately perturbed so its checks must fail."""
    config.validate()
    if mutate is not None and mutate not in ALL_IDS:
        raise ValueError(f"unknown identity id for --mutate: {mutate!r}")
    started = time.perf_counter()
    results: list[dict] = []
    for identity_id in config.selected():
        mutated = mutate == identity_id
        if identity_id in SUITE_IDS:
            slot = DEFAULT_MUTATION[identity_id] if mutated else None
            for params in suite_params(identity_id, config.max_degree):
                rep = run_identity(
                    identity_id, params, mutate=slot, grid_margin=config.grid_margin
                )
                results.append(_identity_entry(rep))
        elif identity_id == "egf-closed-form":
            for k in range(config.max_degree + 1):
                results.append(
                    _identity_entry(check_closed_form(k, config.egf_order, mutate=mutated), "egf")
                )
        elif identity_id in FE_IDS:
            for params in fe_params(identity_id, config.max_degree):
                rep = check_functional_equation(identity_id, params, config.egf_order, mutate=mutated)
                results.append(_identity_entry(rep, "egf"))
        elif identity_id in SERIES_IDS:
            results.extend(_run_series(identity_id, config, mutated))
        elif identity_id == "LAPLACE":
            results.extend(_run_laplace(config, mutated))
        elif identity_id in RANDOM_IDS:
            results.extend(_run_random_checks(identity_id, config, mutated))
    results.sort(key=lambda r: (r["id"], sorted(r["params"].items())))
    report = CampaignReport(config=config, results=results)
    report.wall_time_s = round(time.perf_counter() - started, 6)
    return report


def emit_report(report: CampaignReport, format: Optional[str] = None) -> str:
    """Render a campaign report; JSON keeps a stable field order and prints
    every rational as a lossless "p/q" string."""
    fmt = format or report.config.format
    if fmt == "json":
        return json.dumps(report.to_json_dict(), indent=2) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format: {fmt!r}")
    lines = [
        "bernkit verification campaign",
        f"config: max_degree={report.config.max_degree} egf_order={report.config.egf_order} "
        f"seed={report.config.seed} identities={len(report.config.selected())}",
    ]
    for r in report.results:
        params = " ".join(f"{k}={v}" for k, v in r["params"].items())
        lines.append(f"{'PASS' if r['passed'] else 'FAIL'} {r['id']} {params}".rstrip())
    lines.append(f"totals: checks={report.total} passed={report.passed} failed={report.failed}")
    lines.append(f"wall_time_s: {report.wall_time_s}")
    lines.append("status: ok" if report.failed == 0 else "status: verification-failed")
    return "\n".join(lines) + "\n"
