#!/usr/bin/env python3
"""Benchmark of bernkit's time to verdict, peak memory and set-up time.

Usage (from the root of a source checkout; nothing is installed):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition of a workload runs in a fresh interpreter with src/ on
PYTHONPATH, so every memo cache starts cold, as it does for a user of the
`bernkit` command. This process drives the repetitions one at a time and
checks every output against the benchmark's own reference answers
(spec.py). With --trace 0 it reports the end-to-end metrics; with --trace 1
it alternates untraced and traced repetitions and reports per-layer metrics
read from the traced ones (tracing.py).

Progress and run details go to earlier lines of stdout and to
perfbench/runs/; the last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import spec
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")
CHILD = os.path.join(HERE, "child.py")

MIN_REPS = 3  # a median needs three samples
# Import launches before each repetition. They are spread over the whole run
# because machine speed can drift over tens of seconds (it does on a shared
# 2-vCPU VM), so a median of launches made in one burst would sample a
# single moment.
SETUP_LAUNCHES_PER_REP = 7
IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import bernkit\n"
    "t = time.perf_counter() - t\n"
    "name = getattr(bernkit, 'backend_name', None)\n"
    "print(repr(t), name() if callable(name) else None)\n"
)


class ChildFailed(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    # Bytecode is cached, as it is for any user, even where the caller turned
    # caching off; the cache lives under runs/, so nothing is written outside
    # the checkout.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(RUNS, "pycache")
    return env


def launch(argv, stdin: bytes | None = None, ok_codes=(0,)):
    """Run one fresh interpreter to its end.

    Returns (exit code, stdout, wall seconds, peak RSS in MB, CPU seconds),
    the last two for this child alone (wait4)."""
    err_path = os.path.join(RUNS, "stderr.txt")
    with open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=err,
            cwd=ROOT,
            env=_env(),
        )
        try:
            if stdin is not None:
                proc.stdin.write(stdin)  # the child reads all of it before writing
                proc.stdin.close()
            out = proc.stdout.read()
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
    if proc.returncode not in ok_codes:
        with open(err_path, "rb") as err:
            tail = err.read()[-2000:].decode(errors="replace")
        raise ChildFailed(f"{' '.join(argv[1:3])} exited {proc.returncode}:\n{tail}")
    return proc.returncode, out, wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def import_probe():
    """One fresh interpreter's in-process `import bernkit` time, and
    backend_name() where the package still has it."""
    _, out, _, _, _ = launch([sys.executable, "-c", IMPORT_PROBE])
    seconds, backend = out.decode().split()
    return float(seconds), None if backend == "None" else backend


def run_rep(workload: str, inputs: dict, trace_path: str | None = None):
    """One repetition, checked: (Tally, wall s, peak RSS MB, CPU s)."""
    if workload == "campaign" and trace_path is None:
        # Launch to verdict, exactly as a user runs it.
        argv, stdin = [sys.executable, "-m", "bernkit.cli", *inputs["argv"]], None
    else:
        argv = [sys.executable, CHILD, workload] + (["--trace", trace_path] if trace_path else [])
        stdin = json.dumps(inputs).encode()
    ok_codes = (0, 1) if workload == "campaign" else (0,)  # 1: the campaign found a failing check
    code, out, wall, rss, cpu = launch(argv, stdin, ok_codes)
    return spec.CHECKS[workload](inputs, code, out), wall, rss, cpu


def check_basis_sample(seed: int) -> spec.Tally:
    """bernstein_basis(n, k).evaluate(x) against C(n,k) x^k (1-x)^(n-k)."""
    sys.path.insert(0, SRC)
    import bernkit

    sample = spec.basis_sample(seed)
    values = [bernkit.bernstein_basis(n, k).evaluate(x) for n, k, x in sample]
    return spec.check_basis_sample(sample, values)


def _keep_going(started: float, reps: int, last: float, seconds: float) -> bool:
    """Another repetition fits in the run (or fewer than MIN_REPS were made)."""
    return reps < MIN_REPS or time.perf_counter() - started + last <= seconds


def end_to_end(workload: str, inputs: dict, seconds: float, tally: spec.Tally):
    import_probe()  # warms the bytecode cache; not counted
    setup, walls, rss = [], [], []
    started = time.perf_counter()
    while _keep_going(started, len(walls), walls[-1] if walls else 0.0, seconds):
        setup += [import_probe()[0] for _ in range(SETUP_LAUNCHES_PER_REP)]
        rep, wall, peak, _ = run_rep(workload, inputs)
        tally.add(rep)
        walls.append(wall)
        rss.append(peak)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return metrics, {"wall_s": walls, "peak_rss_mb": rss, "setup_s": setup}


def per_layer(workload: str, inputs: dict, seconds: float, tally: spec.Tally):
    """Alternate untraced and traced repetitions; each traced one gives a
    full set of layer metrics, and the run reports their medians."""
    trace_path = os.path.join(RUNS, f"trace-{workload}.bin")
    plain, traced, cpu, layers = [], [], [], []
    absent: set = set()
    started = time.perf_counter()
    while not traced or time.perf_counter() - started + plain[-1] + traced[-1] <= seconds:
        rep, wall, _, cpu_s = run_rep(workload, inputs)
        tally.add(rep)
        plain.append(wall)
        cpu.append(cpu_s)
        rep, wall, _, _ = run_rep(workload, inputs, trace_path)
        tally.add(rep)
        traced.append(wall)
        header, columns = tracing.read(trace_path)
        summary = tracing.summarize(header, columns)
        del columns
        values, missing = tracing.layer_metrics(header, summary, spec.FAMILY_IDS)
        layers.append(values)
        absent.update(missing)
    metrics = {name: (statistics.median(v[name][0] for v in layers), unit) for name, (_, unit) in layers[0].items()}
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    metrics["process.cpu_s"] = (statistics.median(cpu), "s")
    return metrics, {"untraced_wall_s": plain, "traced_wall_s": traced, "absent": sorted(absent)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bernkit", "__init__.py")):
        print(f"perfbench: no bernkit sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    os.makedirs(RUNS, exist_ok=True)

    inputs = spec.INPUTS[args.workload](args.seed)
    tally = spec.Tally()
    try:
        _, backend = import_probe()
        if args.trace:
            metrics, detail = per_layer(args.workload, inputs, args.seconds, tally)
        else:
            metrics, detail = end_to_end(args.workload, inputs, args.seconds, tally)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.workload == "campaign":
        tally.add(check_basis_sample(args.seed))

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "backend": backend,
        **detail,
        "problems": tally.problems,
    }
    result = {
        "correct": tally.complete,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = os.path.join(RUNS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as f:
        json.dump({"info": info, "result": result}, f, indent=1)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
