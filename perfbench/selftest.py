#!/usr/bin/env python3
"""Self-test of the benchmark: its checks must catch a wrong answer.

Usage (from the root of a source checkout): python3 perfbench/selftest.py

* BENCHMARK.json has the fixed form, and its metric lists match what
  run.py emits;
* a wrong verdict, fed in through the program's own mutation path or
  through a corrupted reference value, is counted as a failed operation
  on every workload, so no correctness check can pass vacuously;
* a traced run emits every per-layer metric, and a wrapper target that no
  longer exists is reported as absent instead of crashing the run;
* in a directory holding only BENCHMARK.json and perfbench/, run.py exits
  non-zero without printing a result.

Takes about 30 s; prints one PASS/FAIL line per test and exits 1 on
any failure.
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import run
import spec
import tracing

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# A comparison makes 4 + 22 runs per workload and must end within this time.
SCHEDULE_SECONDS = 3420


class Failure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Failure(message)


def test_benchmark_json_form():
    expect(os.path.getsize(BENCHMARK) <= 64 * 1024, "BENCHMARK.json exceeds 64 KiB")
    with open(BENCHMARK) as f:
        bench = json.load(f)
    expect(
        set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        f"top-level keys {sorted(bench)}",
    )
    expect(bench["command"] == ["python3", "perfbench/run.py"], f"command {bench['command']}")
    expect(bench["paths"] == ["perfbench"], f"paths {bench['paths']}")
    seconds = bench["run_seconds"]
    expect(isinstance(seconds, int) and 1 <= seconds <= 60, f"run_seconds {seconds}")
    runs = 4 + 22 * len(bench["workloads"])
    # each run: the measured seconds, plus import launches, checks and start-up
    expect(runs * (seconds + 5) <= SCHEDULE_SECONDS, f"{runs} runs of {seconds}s do not fit")

    names = [w["name"] for w in bench["workloads"]]
    expect(tuple(names) == spec.WORKLOADS, f"workloads {names}")
    for w in bench["workloads"]:
        expect(set(w) == {"name", "why"}, f"workload keys {sorted(w)}")
        expect(0 < len(w["why"]) <= 200 and "\n" not in w["why"], f"why of {w['name']}")

    e2e = {m["name"]: m for m in bench["end_to_end"]}
    expect(set(e2e) == {"wall_s", "peak_rss_mb", "setup_s"}, f"end_to_end {sorted(e2e)}")
    for m in bench["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"}, f"keys of {m['name']}")
        expect(m["better"] == "lower", f"{m['name']} should be lower-is-better")
        expect(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    expect(e2e["setup_s"]["unit"] == "s", "setup_s unit")
    expect(
        all(m["bound"] <= e2e["setup_s"]["bound"] for m in bench["end_to_end"]),
        "setup_s must have the largest bound",
    )

    for m in bench["per_layer"]:
        expect(set(m) == {"name", "unit", "better"}, f"keys of {m['name']}")
        expect(m["better"] in ("lower", "higher"), f"better of {m['name']}")
    emitted = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(emitted == tracing.metric_units(spec.FAMILY_IDS), "per_layer differs from the metrics a traced run emits")

    every = names + list(e2e) + list(emitted)
    expect(len(every) == len(set(every)), "a name is used twice")
    for name in every:
        expect(NAME.match(name) is not None, f"bad name {name!r}")
    for m in bench["end_to_end"] + bench["per_layer"]:
        expect(UNIT.match(m["unit"]) is not None, f"bad unit {m['unit']!r}")


def test_family_ids_match_cli():
    _, out, _, _, _ = run.launch([sys.executable, "-m", "bernkit.cli", "--list-identities"])
    listed = tuple(out.decode().split())
    expect(listed == spec.FAMILY_IDS, f"--list-identities gives {listed}")


def test_campaign_mutation_is_counted():
    """`--mutate recurrence` makes every recurrence check fail; the checker
    must count exactly those, and nothing else."""
    inputs = spec.campaign_inputs(0)
    code, out, _, _, _ = run.launch(
        [sys.executable, "-m", "bernkit.cli", *inputs["argv"], "--mutate", "recurrence"], ok_codes=(1,)
    )
    tally = spec.check_campaign(inputs, code, out)
    expected = spec.campaign_family_sizes()["recurrence"]
    expect(tally.complete, f"mutated report not checkable: {tally.problems}")
    expect(tally.failed == expected, f"{tally.failed} failed, expected {expected}")


def test_suite_oracle_wrong_verdict_is_counted():
    """The child runs some clean tuples with a mutation slot bumped while
    the checker still expects them to pass."""
    inputs = {"cases": spec.suite_oracle_inputs(0)["cases"][:60]}
    sent = copy.deepcopy(inputs)
    changed = 0
    for case in sent["cases"]:
        identity_id, params, slot = case
        if slot is None and changed < 5 and spec.flip_slots(identity_id, params):
            case[2] = spec.flip_slots(identity_id, params)[0]
            changed += 1
    _, out, _, _, _ = run.launch([sys.executable, run.CHILD, "suite-oracle"], json.dumps(sent).encode())
    tally = spec.check_suite_oracle(inputs, 0, out)
    expect(changed == 5, "not enough clean cases to mutate")
    expect(tally.failed == changed, f"{tally.failed} failed, expected {changed}")
    expect(spec.check_suite_oracle(sent, 0, out).failed == 0, "mutated cases not failed on both sides")


def test_series_corrupted_reference_is_counted():
    inputs = spec.series_inputs(0)
    inputs.update(points=inputs["points"][:2], laplace=inputs["laplace"][:1], sweep_terms=20)
    _, out, _, _, _ = run.launch([sys.executable, run.CHILD, "series-quadrature"], json.dumps(inputs).encode())
    clean = spec.check_series(inputs, 0, out)
    expect(clean.complete and clean.failed == 0, f"clean run failed: {clean.problems}")
    limit, exact = spec.series_limit, spec.laplace_exact
    try:
        spec.series_limit = lambda series_id, k, x: limit(series_id, k, x) + 1
        spec.laplace_exact = lambda k, x: exact(k, x) * 2
        corrupted = spec.check_series(inputs, 0, out)
    finally:
        spec.series_limit, spec.laplace_exact = limit, exact
    # at least: both posteriors, and the quadrature point
    expect(corrupted.failed >= 3, f"corrupted references gave only {corrupted.failed} failures")
    expect(corrupted.attempted == clean.attempted, "attempted count changed")


def test_traced_run_emits_every_metric():
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "series-quadrature",
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    expect(proc.returncode == 0, f"traced run exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0, "traced run found failures")
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(units == tracing.metric_units(spec.FAMILY_IDS), "traced run does not emit exactly the per-layer metrics")
    expect(result["metrics"]["kernels.simpson_steps"]["value"] > 0, "no Simpson steps counted")


def test_missing_target_is_absent():
    sys.path.insert(0, run.SRC)
    spans = dict(tracing.SPANS)
    tracing.SPANS["gone"] = ("bernkit.polynomials:no_such_function", "bernkit.no_such_module:f")
    try:
        tracer = tracing.Tracer()
        tracer.install()
    finally:
        tracing.SPANS.clear()
        tracing.SPANS.update(spans)
    expect(tracer.absent == ["gone"], f"absent: {tracer.absent}")


def test_bare_directory_fails():
    bare = os.path.join(run.RUNS, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("runs", "__pycache__"))
        shutil.copy(BENCHMARK, bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "campaign", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "run.py succeeded without the program's sources")
    expect('"metrics"' not in proc.stdout, "run.py printed a result without the program's sources")


def main() -> int:
    os.makedirs(run.RUNS, exist_ok=True)
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except (Failure, run.ChildFailed, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            failures += 1
            print(f"FAIL {name}: {exc}", flush=True)
        else:
            print(f"PASS {name}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
