"""Suite-versus-oracle agreement, mutation sensitivity, grid sufficiency,
and cross-engine consistency with the generating-function catalog."""

import ast
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bernkit import bernstein, oracle, polynomials
from bernkit.bernstein import bernstein_basis
from bernkit.campaign import ALL_IDS, fe_params, suite_params
from bernkit.egf import FE_IDS, check_functional_equation
from bernkit.identities import SUITE_IDS, mutation_slots, run_identity
from bernkit.oracle import oracle_verify
from bernkit.polynomials import Poly1

# Generating-function catalog entry <-> suite identity carrying the same
# coefficient-wise statement.
CROSS_ENGINE = {
    "FE-SUM": "sum",
    "FE-ALT": "alternating-sum",
    "FE-SUB": "subdivision-product",
    "FE-MONO": "monomial",
    "FE-DIFFX": "derivative",
    "FE-DIFFT": "recurrence",
    "FE-PROD": "product",
    "FE-XY": "two-point",
    "FE-G1": "tg1",
    "FE-G2": "tg2",
    "FE-G3": "tg5",
}

# Every campaign check that has no entry in the oracle's table, and why.
_NO_JUDGE_YET = "no independent judge yet: the FE oracle is an open ROADMAP item"
_TWO_PATHS = "compares two evaluation paths of the basis"
UNJUDGED = {
    **dict.fromkeys(FE_IDS, _NO_JUDGE_YET),
    "egf-closed-form": _NO_JUDGE_YET,
    "TG3": "exact partial sums against an exact limit, with a certified tail bound",
    "TG4": "exact partial sums against an exact limit, with a certified tail bound",
    "LAPLACE": "float quadrature against the exact k!/x^(k+1)",
    "basis-roundtrip": _TWO_PATHS,
    "basis-eval": _TWO_PATHS,
}


def test_oracle_table_and_exemptions_cover_every_campaign_check():
    assert tuple(oracle._SIDES) == SUITE_IDS
    for identity_id, (names, _) in oracle._SIDES.items():
        assert names == tuple(suite_params(identity_id, 1)[0]), identity_id
    assert not UNJUDGED.keys() & oracle._SIDES.keys()
    assert sorted([*UNJUDGED, *oracle._SIDES]) == sorted(ALL_IDS)


def test_suite_and_oracle_read_the_same_slots():
    # On both sides a slot is a constant the check reads through `bump`; the
    # oracle's are read by calling its sides function with a recording bump.
    for identity_id, (_, sides) in oracle._SIDES.items():
        for params in suite_params(identity_id, 5 if identity_id == "subdivision-trivariate" else 8):
            read = set()
            sides(lambda base, slot: read.add(slot) or base, **params)
            assert read == set(mutation_slots(identity_id, params)), (identity_id, params)


@pytest.mark.parametrize("identity_id", SUITE_IDS)
def test_oracle_agrees_on_clean_tuples(identity_id):
    for params in suite_params(identity_id, 10):
        report = run_identity(identity_id, params)
        assert report.passed, (identity_id, params)
        assert oracle_verify(identity_id, params) is True


@pytest.mark.parametrize("identity_id", SUITE_IDS)
def test_every_slot_flips_somewhere_and_oracle_tracks_it(identity_id):
    degree_cap = 12 if identity_id in ("sum", "alternating-sum") else 5
    seen_slots: dict[str, bool] = {}
    for params in suite_params(identity_id, degree_cap):
        for slot in mutation_slots(identity_id, params):
            suite_verdict = run_identity(identity_id, params, mutate=slot).passed
            oracle_verdict = oracle_verify(identity_id, params, mutate=slot)
            assert suite_verdict == oracle_verdict, (identity_id, params, slot)
            seen_slots[slot] = seen_slots.get(slot, False) or not suite_verdict
    # Bumping any single right-hand-side constant by one must be caught for
    # at least one parameter tuple.
    missed = [slot for slot, flipped in seen_slots.items() if not flipped]
    assert not missed, (identity_id, missed)


def test_grid_sufficiency_both_directions():
    # The tensor grid accepts the true identity and rejects a single bumped
    # coefficient, so grid equality is neither vacuous nor lossy.
    params = {"n": 4, "j": 2}
    assert run_identity("subdivision-trivariate", params).passed
    for slot in mutation_slots("subdivision-trivariate", params):
        assert not run_identity("subdivision-trivariate", params, mutate=slot).passed


@pytest.mark.parametrize("fe_id,suite_id", sorted(CROSS_ENGINE.items()))
def test_cross_engine_verdicts_match(fe_id, suite_id):
    order = 16
    for params in fe_params(fe_id, 8):
        fe_report = check_functional_equation(fe_id, params, order)
        assert fe_report.passed, (fe_id, params)
    for params in suite_params(suite_id, 8):
        assert run_identity(suite_id, params).passed, (suite_id, params)


def test_oracle_rejects_unknown_identity():
    with pytest.raises(ValueError):
        oracle_verify("nonsense", {"n": 1})


@pytest.mark.parametrize(
    "identity_id,params,mutate",
    [
        ("sum", {"n": 3}, "no-such-slot"),
        ("subdivision-product", {"n": 2, "j": 3}, None),
        ("subdivision-product", {"n": 3, "j": 1}, "term:0"),
        ("subdivision-trivariate", {"n": 2, "j": -1}, None),
        ("monomial", {"n": 2, "l": 3}, None),
        ("recurrence", {"n": 2, "k": 1, "v": 3}, None),
        ("raise-x", {"n": 2, "k": 1, "d": 0}, None),
        ("elevation", {"n": 2, "k": 3}, None),
        ("elevation", {"n": 2, "k": 1}, "term:2"),
        ("two-point", {"n": 3, "k": 2}, None),
        ("tg5", {"n": 3, "k": 0}, None),
        ("elevation", {"n": 3, "k": 1, "d": 2}, None),
        ("sum", {"n": 3, "k": 9}, None),
        ("recurrence", {"n": 3, "k": 1}, None),
    ],
)
def test_oracle_rejects_what_the_suite_rejects(identity_id, params, mutate):
    # A tuple out of range, a parameter name the identity does not take (or
    # lacks) or a slot it never reads must not pass silently on either side.
    with pytest.raises(ValueError):
        run_identity(identity_id, params, mutate=mutate)
    with pytest.raises(ValueError, match=r"needs|no mutation slot"):
        oracle_verify(identity_id, params, mutate=mutate)


# sha256 over the outcome of oracle_verify, its verdict or its ValueError
# text, for every suite tuple up to degree 6 (trivariate 4) with no slot,
# each of its mutation slots and an unread slot, then with each parameter
# lowered by one (in range or not), in suite order.
ORACLE_OUTCOME_DIGEST = "05f67c1f26bb72a30e3d0f0350214bc275558aff9e4c57cd524245c48c199bb6"


def _outcome(identity_id, params, slot):
    try:
        return oracle_verify(identity_id, params, mutate=slot)
    except ValueError as exc:
        return str(exc)


def test_oracle_outcome_digest_is_unchanged():
    digest = hashlib.sha256()
    for identity_id in SUITE_IDS:
        for params in suite_params(identity_id, 4 if identity_id == "subdivision-trivariate" else 6):
            calls = [(params, slot) for slot in (None, *mutation_slots(identity_id, params), "term:99")]
            calls += [({**params, name: params[name] - 1}, None) for name in params]
            for args in calls:
                line = [identity_id, *args, _outcome(identity_id, *args)]
                digest.update(json.dumps(line, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == ORACLE_OUTCOME_DIGEST


def test_oracle_decides_through_its_own_basis_values(monkeypatch):
    def unnormalised(n, x):
        # Drops the binomial factor: x^k (1-x)^(n-k).
        return tuple(x**k * (1 - x) ** (n - k) for k in range(n + 1))

    # A wrong basis row in the oracle turns a true identity false.
    monkeypatch.setattr(oracle, "_row", unnormalised)
    assert oracle_verify("recurrence", {"n": 3, "k": 1, "v": 1}) is False


def test_rows_hold_the_basis_values():
    for n in range(21):
        for x in range(-3, 21):
            row = oracle._row(n, x)
            assert len(row) == n + 1
            for k in range(n + 1):
                assert row[k] == oracle._basis(n, k, x), (n, k, x)


def test_row_cache_holds_the_clean_suite_without_evicting():
    oracle._row.cache_clear()
    for identity_id in SUITE_IDS:
        for params in suite_params(identity_id, 8 if identity_id == "subdivision-trivariate" else 14):
            assert oracle_verify(identity_id, params) is True, (identity_id, params)
    info = oracle._row.cache_info()
    assert info.maxsize == oracle.ROW_CACHE_SIZE
    assert info.misses == info.currsize <= info.maxsize, info


def test_oracle_imports_only_the_standard_library():
    modules = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import of {node.module!r}"
            modules.add(node.module.split(".")[0])
    assert modules and modules <= sys.stdlib_module_names, modules - sys.stdlib_module_names


@pytest.mark.parametrize("path", sorted(Path(oracle.__file__).parent.rglob("*.py")), ids=lambda p: p.stem)
def test_package_imports_only_the_standard_library(path):
    # No runtime dependencies: every module of the package imports the
    # standard library and, relatively, the package itself; only the oracle
    # is held to absolute imports (above).
    modules = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    assert modules <= sys.stdlib_module_names, modules - sys.stdlib_module_names


def test_oracle_needs_no_polynomial_arithmetic(monkeypatch):
    # With the product kernel, its packing, Poly1 products and the suite's
    # basis expansion all broken, the oracle still accepts every true identity.
    cases = [(identity_id, params) for identity_id in SUITE_IDS for params in suite_params(identity_id, 6)]

    def broken(*args, **kwargs):
        raise AssertionError("the oracle reached the polynomial layer")

    monkeypatch.setattr(polynomials._Poly, "sum_of_products", broken)
    monkeypatch.setattr(polynomials, "_pack", broken)
    monkeypatch.setattr(Poly1, "__mul__", broken)
    monkeypatch.setattr(bernstein, "bernstein_basis", broken)
    for identity_id, params in cases:
        assert oracle_verify(identity_id, params) is True, (identity_id, params)


def test_leibniz_derivative_matches_the_polynomial_derivative():
    fractions = [Fraction(1, 3), Fraction(-2, 5), Fraction(7, 4)]
    for n in range(13):
        points = list(range(n + 2)) + fractions
        for k in range(-2, n + 3):  # out-of-range k gives the zero function
            for l in range(n + 2):
                poly = bernstein_basis(n, k).derivative(l)
                for x in points:
                    assert oracle._derivative(n, k, l)(x) == poly.evaluate(x), (n, k, l, x)
