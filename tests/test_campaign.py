"""Campaign reports: the streamed writer and the bounded memo caches."""

import dataclasses
import hashlib
import io
import json
import tracemalloc

import pytest

from bernkit.bernstein import basis_in, bernstein_basis
from bernkit.campaign import VerifyConfig, run_verify, write_report
from bernkit.egf import egf_bernstein
from bernkit.identities import SUITE_IDS, _basis_value_table, mutation_slots, suite_params

SMALL = VerifyConfig(max_degree=3, egf_order=6)
MEMOISED = (bernstein_basis, basis_in, egf_bernstein, _basis_value_table)
# Largest traced allocation peak allowed while a JSON report is written;
# the default campaign's report alone is more than twice this size.
WRITE_BUDGET = 256 * 1024
# sha256 of the default campaign's JSON report with wall_time_s zeroed:
# the golden digests stop at max_degree 4, this one pins every verdict,
# witness and byte at the default size.
DEFAULT_REPORT_DIGEST = "42f6ec168bc0be8c3ea6348aaa0a99b7029619f5061333ec61b36f04b46d7799"


def joined_text(report):
    """The text report as one join of its lines, the way it was rendered
    before it was streamed."""
    config = report.config
    lines = [
        "bernkit verification campaign",
        f"config: max_degree={config.max_degree} egf_order={config.egf_order} "
        f"seed={config.seed} identities={len(config.selected())}",
    ]
    for r in report.results:
        params = " ".join(f"{k}={v}" for k, v in r["params"].items())
        lines.append(f"{'PASS' if r['passed'] else 'FAIL'} {r['id']} {params}".rstrip())
    lines.append(f"totals: checks={report.total} passed={report.passed} failed={report.failed}")
    lines.append(f"wall_time_s: {report.wall_time_s}")
    lines.append("status: ok" if report.failed == 0 else "status: verification-failed")
    return "\n".join(lines) + "\n"


class CountingSink:
    """A text stream that keeps only the number of characters written."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)


@pytest.fixture(scope="module")
def default_report():
    """One default campaign, run with the memo caches emptied first."""
    for fn in MEMOISED:
        fn.cache_clear()
    return run_verify(VerifyConfig())


class TestWriteReport:
    @pytest.mark.parametrize("mutate", [None, "FE-PROD"])
    def test_json_matches_one_shot_dump(self, mutate):
        report = run_verify(SMALL, mutate=mutate)
        out = io.StringIO()
        write_report(report, out, "json")
        assert out.getvalue() == json.dumps(report.to_json_dict(), indent=2) + "\n"

    @pytest.mark.parametrize("mutate", [None, "sum"])
    def test_text_matches_joined_lines(self, mutate):
        report = run_verify(SMALL, mutate=mutate)
        out = io.StringIO()
        write_report(report, out, "text")
        assert out.getvalue() == joined_text(report)

    def test_format_defaults_to_the_config(self):
        report = run_verify(VerifyConfig(max_degree=2, egf_order=2, format="text"))
        out = io.StringIO()
        write_report(report, out)
        assert out.getvalue() == joined_text(report)

    def test_unknown_format_writes_nothing(self):
        report = run_verify(VerifyConfig(max_degree=0, egf_order=0, identities=("sum",)))
        out = io.StringIO()
        with pytest.raises(ValueError, match="unknown format"):
            write_report(report, out, "yaml")
        assert out.getvalue() == ""

    def test_json_write_peak_does_not_grow_with_the_report(self, default_report):
        sizes = []
        for report in (run_verify(VerifyConfig(max_degree=6)), default_report):
            sink = CountingSink()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                write_report(report, sink, "json")
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak < WRITE_BUDGET, (report.config.max_degree, sink.size, peak)
            sizes.append(sink.size)
        assert sizes[1] > 2 * WRITE_BUDGET

    def test_default_report_bytes_are_unchanged(self, default_report, render):
        report = dataclasses.replace(default_report, wall_time_s=0.0)
        digest = hashlib.sha256(render(report, "json").encode()).hexdigest()
        assert digest == DEFAULT_REPORT_DIGEST


class TestBoundedCaches:
    def test_default_campaign_evicts_nothing(self, default_report):
        assert default_report.failed == 0
        for fn in MEMOISED:
            info = fn.cache_info()
            assert info.maxsize is not None, fn.__name__
            assert info.currsize == info.misses > 0, (fn.__name__, info)


def test_every_suite_tuple_reads_the_same_first_slot():
    # A mutated campaign takes a suite family's slot from its first tuple
    # and bumps it at every tuple.  Should a family's first slot come to
    # depend on the tuple, `_run_suite` must go back to one lookup per tuple.
    for identity_id in SUITE_IDS:
        tuples = suite_params(identity_id, VerifyConfig().max_degree)
        firsts = {mutation_slots(identity_id, params)[0] for params in tuples}
        assert len(firsts) == 1, (identity_id, firsts)
