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
from itertools import islice
from typing import Iterator, Optional, TextIO

from . import __version__
from .bernstein import BernsteinForm, bernstein_basis, eval_de_casteljau, to_bernstein, to_monomial
from .egf import FE_IDS, check_functional_equation, fe_param_names, fe_vacuous
from .identities import GRID_MARGIN, SUITE_IDS, mutation_slots, run_identity, suite_params
from .polynomials import scalar_str
from .report import IdentityReport, Witness
from .series import SERIES_IDS, SHARED_K_MAX, laplace_monomial, partial_sum, required_terms

_SERIES_K_MAX = 3
_SERIES_POINTS = {
    "TG3": (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),
    "TG4": (Fraction(5, 8), Fraction(3, 4), Fraction(1)),
}
# The LAPLACE powers are exactly the ones a single quadrature pass shares.
_LAPLACE_K_MAX = SHARED_K_MAX
_LAPLACE_POINTS = (Fraction(1, 2), Fraction(1), Fraction(2))
_LAPLACE_STEPS = 100_000
_LAPLACE_RTOL = 1e-6
_EVAL_POINTS_PER_PAIR = 3
# The renderings `write_report` knows, read by `VerifyConfig.validate` and
# by the CLI's `--format` choices.
FORMATS = ("json", "text")


@dataclass(frozen=True)
class VerifyConfig:
    """Campaign knobs; `identities=None` selects every known check."""

    max_degree: int = 10
    egf_order: int = 24
    identities: Optional[tuple[str, ...]] = None
    series_eps: Fraction = Fraction(1, 10**9)
    format: str = "json"
    seed: int = 0

    def validate(self, mutate: Optional[str] = None) -> None:
        """Raise ValueError for a knob out of range, or for a `mutate` id
        that is unknown, not among the selected checks or has no check at
        this degree (a mutation no check reads would pass vacuously)."""
        if self.max_degree < 0:
            raise ValueError("max-degree must be nonnegative")
        if self.egf_order < self.max_degree:
            raise ValueError("egf-order must be at least max-degree")
        if self.series_eps <= 0:
            raise ValueError("series-eps must be positive")
        if self.format not in FORMATS:
            raise ValueError(f"unknown format: {self.format!r}")
        if self.identities is not None:
            if not self.identities:
                raise ValueError("identities selects no checks")
            unknown = [i for i in self.identities if i not in ALL_IDS]
            if unknown:
                raise ValueError(f"unknown identities: {', '.join(unknown)}")
        if mutate is not None:
            if mutate not in ALL_IDS:
                raise ValueError(f"unknown identity id for --mutate: {mutate!r}")
            if mutate not in self.selected():
                raise ValueError(f"--mutate target {mutate!r} is not among the selected identities")
            if mutate in SUITE_IDS and not suite_params(mutate, self.max_degree):
                raise ValueError(f"--mutate target {mutate!r} has no checks at max-degree {self.max_degree}")

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
            "grid_margin": GRID_MARGIN,
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


def fe_params(fe_id: str, max_index: int) -> list[dict]:
    """Index tuples for one catalog entry, each index 0..max_index."""
    tuples: list[dict] = [{}]
    for name in fe_param_names(fe_id):
        tuples = [{**t, name: i} for t in tuples for i in range(max_index + 1)]
    return tuples


def _result(
    check_id: str,
    params: dict,
    kind: str,
    method: str,
    witness: Optional[Witness] = None,
    detail: Optional[dict] = None,
) -> dict:
    """One result of the report, in its fixed key order; it passes exactly
    when it carries no witness."""
    return {
        "id": check_id,
        "params": params,
        "kind": kind,
        "method": method,
        "passed": witness is None,
        "witness": witness.to_json_dict() if witness else None,
        "detail": detail,
    }


def _from_report(rep: IdentityReport, kind: str) -> dict:
    return _result(rep.identity_id, dict(rep.params), kind, rep.method, rep.witness)


def _run_suite(identity_id: str, config: VerifyConfig, mutated: bool) -> list[dict]:
    """Every tuple of one suite identity, each run once.  A mutated run bumps
    the first slot its first tuple reads, which every tuple reads first (a
    test pins this); `VerifyConfig.validate` ensures that tuple exists."""
    tuples = suite_params(identity_id, config.max_degree)
    slot = mutation_slots(identity_id, tuples[0])[0] if mutated else None
    return [_from_report(run_identity(identity_id, params, mutate=slot), "identity") for params in tuples]


def _run_functional_equation(fe_id: str, config: VerifyConfig, mutated: bool) -> list[dict]:
    """Every index tuple but those whose sides both vanish through the
    order, which any comparison would pass."""
    order = config.egf_order
    return [
        _from_report(check_functional_equation(fe_id, params, order, mutate=mutated), "egf")
        for params in fe_params(fe_id, config.max_degree)
        if not fe_vacuous(fe_id, params, order)
    ]


def _run_series(series_id: str, config: VerifyConfig, mutated: bool) -> list[dict]:
    out = []
    for k in range(_SERIES_K_MAX + 1):
        for x in _SERIES_POINTS[series_id]:
            n = required_terms(series_id, k, x, config.series_eps)
            check = partial_sum(series_id, k, x, n)
            limit = check.limit + 1 if mutated else check.limit
            err = abs(check.partial_sum - limit)
            witness = None
            if not (err <= config.series_eps and err <= check.tail_bound):
                witness = Witness(lhs=scalar_str(check.partial_sum), rhs=scalar_str(limit))
            params = {"k": k, "x": scalar_str(x)}
            out.append(
                _result(series_id, params, "series", "numeric", witness, check.to_json_dict())
            )
    return out


def _run_laplace(check_id: str, config: VerifyConfig, mutated: bool) -> list[dict]:
    out = []
    for k in range(_LAPLACE_K_MAX + 1):
        for x in _LAPLACE_POINTS:
            res = laplace_monomial(k, x, steps=_LAPLACE_STEPS)
            exact = res.exact + 1 if mutated else res.exact
            rel = abs(res.approx - float(exact)) / float(exact)
            witness = None
            if not rel < _LAPLACE_RTOL:
                witness = Witness(lhs=repr(res.approx), rhs=scalar_str(exact))
            params = {"k": k, "x": scalar_str(x)}
            out.append(
                _result(check_id, params, "quadrature", "numeric", witness, res.to_json_dict())
            )
    return out


def _basis_roundtrip(rng: random.Random, max_degree: int, mutated: bool) -> list[dict]:
    out = []
    for n in range(max_degree + 1):
        coeffs = [Fraction(rng.randint(-99, 99), rng.randint(1, 20)) for _ in range(n + 1)]
        form = BernsteinForm(n, coeffs)
        back = to_bernstein(to_monomial(form), n)
        if mutated:
            back = BernsteinForm(n, [back.coeffs[0] + 1, *back.coeffs[1:]])
        witness = None
        if back != form:
            idx = next(i for i, (a, b) in enumerate(zip(form.coeffs, back.coeffs)) if a != b)
            witness = Witness(
                lhs=scalar_str(form.coeffs[idx]),
                rhs=scalar_str(back.coeffs[idx]),
                monomial={"k": idx},
            )
        out.append(_result("basis-roundtrip", {"n": n}, "random", "symbolic", witness))
    return out


def _basis_eval(rng: random.Random, max_degree: int, mutated: bool) -> list[dict]:
    out = []
    for n in range(max_degree + 1):
        for k in range(n + 1):
            unit = BernsteinForm(n, [Fraction(i == k) for i in range(n + 1)])
            poly = bernstein_basis(n, k)
            witness = None
            for _ in range(_EVAL_POINTS_PER_PAIR):
                x = Fraction(rng.randint(0, 1000), 1001)
                left = eval_de_casteljau(unit, x)
                if mutated:
                    left += 1
                right = poly.evaluate(x)
                if left != right:
                    witness = Witness(
                        lhs=scalar_str(left), rhs=scalar_str(right), point={"x": scalar_str(x)}
                    )
                    break
            out.append(_result("basis-eval", {"n": n, "k": k}, "random", "grid", witness))
    return out


_RANDOM_CHECKS = {"basis-roundtrip": _basis_roundtrip, "basis-eval": _basis_eval}
RANDOM_IDS = tuple(_RANDOM_CHECKS)


def _run_random_checks(identity_id: str, config: VerifyConfig, mutated: bool) -> list[dict]:
    rng = random.Random((config.seed, identity_id).__repr__())
    return _RANDOM_CHECKS[identity_id](rng, config.max_degree, mutated)


# check id -> runner(id, config, mutated), in report order.  The lambdas look
# their runner up when called, so a rebinding of the module attribute (as the
# benchmark's tracer does) is honoured.
_RUNNERS = {
    check_id: runner
    for ids, runner in (
        (SUITE_IDS, _run_suite),
        (("egf-closed-form", *FE_IDS), _run_functional_equation),
        (SERIES_IDS, lambda *args: _run_series(*args)),
        (("LAPLACE",), lambda *args: _run_laplace(*args)),
        (RANDOM_IDS, lambda *args: _run_random_checks(*args)),
    )
    for check_id in ids
}
ALL_IDS = tuple(_RUNNERS)


def run_verify(config: VerifyConfig, mutate: Optional[str] = None) -> CampaignReport:
    """Run the configured campaign; `mutate` names one check id whose right
    side is deliberately perturbed so its checks must fail."""
    config.validate(mutate)
    started = time.perf_counter()
    results: list[dict] = []
    for check_id in config.selected():
        results.extend(_RUNNERS[check_id](check_id, config, mutate == check_id))
    results.sort(key=lambda r: (r["id"], sorted(r["params"].items())))
    report = CampaignReport(config=config, results=results)
    report.wall_time_s = round(time.perf_counter() - started, 6)
    return report


# Encoder chunks joined into one write.  The JSON report is written in
# pieces of a few KB, so the memory it takes to print no longer grows with
# its size (the default campaign's report has about 125 000 chunks).
_JSON_CHUNKS_PER_WRITE = 1024


def _text_lines(report: CampaignReport) -> Iterator[str]:
    yield "bernkit verification campaign"
    yield (
        f"config: max_degree={report.config.max_degree} egf_order={report.config.egf_order} "
        f"seed={report.config.seed} identities={len(report.config.selected())}"
    )
    for r in report.results:
        params = " ".join(f"{k}={v}" for k, v in r["params"].items())
        yield f"{'PASS' if r['passed'] else 'FAIL'} {r['id']} {params}".rstrip()
    yield f"totals: checks={report.total} passed={report.passed} failed={report.failed}"
    yield f"wall_time_s: {report.wall_time_s}"
    yield "status: ok" if report.failed == 0 else "status: verification-failed"


def write_report(report: CampaignReport, out: TextIO, format: Optional[str] = None) -> None:
    """Write a campaign report to `out` in pieces of bounded size; JSON keeps
    a stable field order and prints every rational as a lossless "p/q"
    string.  The JSON bytes are those of `json.dumps(..., indent=2)`, which
    joins the same encoder's chunks."""
    fmt = format or report.config.format
    if fmt == "json":
        chunks = json.JSONEncoder(indent=2).iterencode(report.to_json_dict())
        while batch := list(islice(chunks, _JSON_CHUNKS_PER_WRITE)):
            out.write("".join(batch))
        out.write("\n")
    elif fmt == "text":
        for line in _text_lines(report):
            out.write(line + "\n")
    else:
        raise ValueError(f"unknown format: {fmt!r}")
