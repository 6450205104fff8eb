"""CLI behavior: exit codes, report formats, determinism, failure injection."""

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import bernkit
from bernkit.campaign import ALL_IDS, VerifyConfig, run_verify
from bernkit.cli import build_parser, main

SMALL = ["--max-degree", "3", "--egf-order", "6"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_small_campaign_passes(self, capsys):
        code, out, _ = run_cli(capsys, SMALL)
        assert code == 0
        payload = json.loads(out)
        assert payload["totals"]["failed"] == 0

    def test_mutation_fails_with_witness(self, capsys):
        code, out, _ = run_cli(capsys, SMALL + ["--mutate", "sum"])
        assert code == 1
        payload = json.loads(out)
        failing = [r for r in payload["results"] if not r["passed"]]
        assert failing and all(r["id"] == "sum" for r in failing)
        assert all(r["witness"] is not None for r in failing)

    def test_config_invariant_violation_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, ["--max-degree", "8", "--egf-order", "4"])
        assert code == 2
        assert "egf-order" in err

    def test_unknown_identity_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, ["--identities", "sum,typo"])
        assert code == 2
        assert "typo" in err

    @pytest.mark.parametrize("selection", [",", " , "])
    def test_empty_selection_is_usage_error(self, capsys, selection):
        code, out, err = run_cli(capsys, ["--identities", selection])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_empty_identities_tuple_rejected(self):
        with pytest.raises(ValueError):
            VerifyConfig(identities=()).validate()
        with pytest.raises(ValueError):
            run_verify(VerifyConfig(identities=()))

    def test_unknown_mutate_target_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, ["--mutate", "typo"])
        assert code == 2

    def test_mutate_outside_selection_is_usage_error(self, capsys):
        # A mutation that no selected check reads would pass vacuously.
        code, out, err = run_cli(capsys, ["--identities", "LAPLACE", "--mutate", "TG3"])
        assert code == 2
        assert out == ""
        assert "TG3" in err
        with pytest.raises(ValueError, match="not among the selected"):
            run_verify(VerifyConfig(identities=("LAPLACE",)), mutate="TG3")

    @pytest.mark.parametrize("target", ["tg1", "tg2", "tg5"])
    def test_mutate_target_with_no_checks_is_usage_error(self, capsys, target):
        # The finite sums start at degree 1: at degree 0 the mutation would
        # reach no check and the campaign would report "status ok".
        code, out, err = run_cli(capsys, ["--max-degree", "0", "--mutate", target])
        assert code == 2
        assert out == ""
        assert target in err and "no checks" in err
        assert run_cli(capsys, ["--max-degree", "1", "--mutate", target])[0] == 1

    def test_bad_eps_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, ["--series-eps", "banana"])
        assert code == 2

    def test_negative_eps_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, ["--series-eps=-1e-9"])
        assert code == 2
        assert "series-eps" in err

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--frobnicate"])
        assert exc.value.code == 2

    def test_every_config_field_has_a_cli_flag(self):
        # A campaign knob that only library callers can set is surface no
        # command-line run exercises; every field of the config has a flag.
        flags = set(vars(build_parser().parse_args([])))
        fields = {f.name for f in dataclasses.fields(VerifyConfig)}
        assert fields <= flags, fields - flags

    def test_cli_defaults_are_the_config_defaults(self):
        # The parser states no default of its own: with no flags, every
        # config field gets VerifyConfig's value (eps after exact parsing).
        args = vars(build_parser().parse_args([]))
        args["series_eps"] = Fraction(args["series_eps"])
        for f in dataclasses.fields(VerifyConfig):
            assert args[f.name] == getattr(VerifyConfig(), f.name), f.name


class TestListIdentities:
    def test_lists_every_id(self, capsys):
        code, out, _ = run_cli(capsys, ["--list-identities"])
        assert code == 0
        assert out.split() == list(ALL_IDS)

    @staticmethod
    def _launch(*args):
        env = dict(os.environ, PYTHONPATH=str(Path(bernkit.__file__).parents[1]))
        argv = [sys.executable, "-m", "bernkit.cli", *(args or ["--list-identities"])]
        return subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    def test_piped_listing_is_unchanged(self):
        proc = self._launch()
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out, err) == (0, ("\n".join(ALL_IDS) + "\n").encode(), b"")

    def test_closed_stdout_exits_quietly(self):
        # The reader closes its end before the listing is written, as
        # `bernkit --list-identities | head -5` can.
        proc = self._launch()
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (141, b"")

    def test_closed_stdout_during_a_report_exits_quietly(self):
        # The report is streamed, so a reader that leaves early (as
        # `bernkit --seed 1 | head -c 50` does) meets a write that fails.
        proc = self._launch("--identities", "sum", "--max-degree", "2")
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (141, b"")


class TestReportFormats:
    def test_json_is_lossless_for_rationals(self, capsys):
        code, out, _ = run_cli(
            capsys, SMALL + ["--identities", "TG3,TG4", "--series-eps", "1e-6"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert Fraction(payload["config"]["series_eps"]) == Fraction(1, 10**6)
        for result in payload["results"]:
            detail = result["detail"]
            assert Fraction(detail["partial_sum"])  # parses
            assert abs(
                Fraction(detail["partial_sum"]) - Fraction(detail["limit"])
            ) <= Fraction(detail["tail_bound"])

    def test_text_line_count_contract(self, capsys):
        code, out, _ = run_cli(capsys, SMALL + ["--format", "text"])
        assert code == 0
        lines = out.splitlines()
        config = VerifyConfig(max_degree=3, egf_order=6)
        checks = run_verify(config).total
        assert len(lines) == checks + 5  # 2 header + 3 summary lines

    def test_text_failure_status_line(self, capsys):
        code, out, _ = run_cli(
            capsys, SMALL + ["--format", "text", "--mutate", "elevation"]
        )
        assert code == 1
        assert out.splitlines()[-1] == "status: verification-failed"


class TestDeterminism:
    def test_same_seed_same_bytes_modulo_wall_time(self, capsys):
        argv = SMALL + ["--seed", "42"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)

        def strip_wall(text):
            a = json.loads(text)
            del a["wall_time_s"]
            return json.dumps(a, indent=2)

        assert strip_wall(first) == strip_wall(second)

    def test_different_seed_changes_random_checks_but_not_verdicts(self, capsys):
        code1, out1, _ = run_cli(capsys, SMALL + ["--seed", "1", "--identities", "basis-eval"])
        code2, out2, _ = run_cli(capsys, SMALL + ["--seed", "2", "--identities", "basis-eval"])
        assert code1 == code2 == 0
        assert json.loads(out1)["totals"] == json.loads(out2)["totals"]


class TestProgrammaticSurface:
    def test_identity_subset_filters_results(self):
        report = run_verify(VerifyConfig(max_degree=3, egf_order=6, identities=("sum",)))
        assert report.total == 4  # n = 0..3
        assert {r["id"] for r in report.results} == {"sum"}

    def test_emit_rejects_unknown_format(self, render):
        report = run_verify(VerifyConfig(max_degree=0, egf_order=0, identities=("sum",)))
        with pytest.raises(ValueError):
            render(report, "yaml")

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            VerifyConfig(max_degree=-1).validate()
        with pytest.raises(ValueError):
            VerifyConfig(series_eps=Fraction(0)).validate()
        with pytest.raises(ValueError):
            VerifyConfig(format="yaml").validate()
        with pytest.raises(ValueError):
            VerifyConfig(identities=("sum", "nope")).validate()
