"""One repetition of a workload, in a fresh interpreter.

Usage: python3 perfbench/child.py WORKLOAD [--trace PATH] < inputs.json

Reads the inputs run.py generated as JSON on stdin and writes the
program's outputs as JSON on stdout; `campaign` writes the CLI report
itself and exits with the CLI's status. With --trace, spans around the
layer entry points are recorded and written to PATH at exit.
"""

import argparse
import json
import sys
from fractions import Fraction


def campaign(inputs):
    from bernkit import cli

    return cli.main(inputs["argv"])


def suite_oracle(inputs):
    from bernkit import identities, oracle

    verdicts = []
    for identity_id, params, slot in inputs["cases"]:
        report = identities.run_identity(identity_id, params, mutate=slot)
        verdict = oracle.oracle_verify(identity_id, params, mutate=slot)
        verdicts.append([report.passed, report.witness is not None, verdict])
    sys.stdout.write(json.dumps({"verdicts": verdicts}))
    return 0


def _q(value):
    return f"{value.numerator}/{value.denominator}"


def series_quadrature(inputs):
    from bernkit import series

    eps = Fraction(inputs["eps"])
    posterior, sweeps = [], []
    for series_id, k, x in inputs["points"]:
        x = Fraction(x)
        n = series.required_terms(series_id, k, x, eps)
        check = series.partial_sum(series_id, k, x, n)
        posterior.append([n, _q(check.partial_sum), _q(check.tail_bound)])
        sweep = series.series_sweep(series_id, k, x, inputs["sweep_terms"])
        sweeps.append([[_q(c.partial_sum), _q(c.tail_bound)] for c in sweep])
    laplace = [
        series.laplace_monomial(k, Fraction(x), steps=inputs["laplace_steps"]).approx
        for k, x in inputs["laplace"]
    ]
    sys.stdout.write(json.dumps({"posterior": posterior, "sweeps": sweeps, "laplace": laplace}))
    return 0


WORKLOADS = {
    "campaign": campaign,
    "suite-oracle": suite_oracle,
    "series-quadrature": series_quadrature,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--trace", metavar="PATH")
    args = parser.parse_args()
    inputs = json.load(sys.stdin)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        code = WORKLOADS[args.workload](inputs)
    finally:
        if tracer is not None:
            tracer.write(args.trace)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
