"""Certified series summation and the quadrature cross-check."""

import math
import random
import re
from fractions import Fraction

import pytest

from bernkit import series
from bernkit.bernstein import bernstein_basis
from bernkit.campaign import VerifyConfig, run_verify
from bernkit.series import (
    SERIES_IDS,
    SHARED_K_MAX,
    SIMPSON_CACHE_SIZE,
    _majorant,
    _simpson_block,
    _term,
    _terms,
    laplace_monomial,
    partial_sum,
    required_terms,
    series_limit,
    series_sweep,
    simpson_exp_monomial,
    tail_bound,
)

TG3_POINTS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
TG4_POINTS = (Fraction(5, 8), Fraction(3, 4), Fraction(1))
GRID = {"TG3": TG3_POINTS, "TG4": TG4_POINTS}


class TestDomains:
    def test_tg3_requires_open_unit_interval(self):
        for bad in (Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 2)):
            with pytest.raises(ValueError):
                partial_sum("TG3", 0, bad, 10)

    def test_tg4_requires_upper_half_interval(self):
        for bad in (Fraction(1, 2), Fraction(1, 4), Fraction(9, 8), Fraction(0)):
            with pytest.raises(ValueError):
                partial_sum("TG4", 0, bad, 10)

    def test_unknown_series_rejected(self):
        with pytest.raises(ValueError):
            partial_sum("TG9", 0, Fraction(1, 2), 10)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            partial_sum("TG3", -1, Fraction(1, 2), 10)


class TestLimits:
    def test_tg3_limit_is_reciprocal(self):
        assert series_limit("TG3", 1, Fraction(3, 4)) == Fraction(4, 3)

    def test_tg4_limit_is_signed_power(self):
        assert series_limit("TG4", 1, Fraction(1)) == -1
        assert series_limit("TG4", 2, Fraction(3, 4)) == Fraction(9, 16)

    def test_limit_checks_its_input_like_partial_sum(self):
        # An unknown id, a negative index and an x outside the domain fail
        # with partial_sum's messages, not with some other series' limit.
        for series_id, k, x in (("TG9", 1, Fraction(1, 2)), ("TG3", -1, Fraction(1, 2)), ("TG4", 1, 3)):
            with pytest.raises(ValueError) as want:
                partial_sum(series_id, k, x, 10)
            with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
                series_limit(series_id, k, x)

    def test_limit_of_an_int_point_is_a_fraction(self):
        limit = series_limit("TG4", 3, 1)
        assert limit == -1 and type(limit) is Fraction

    def test_tg4_at_endpoint_collapses(self):
        # At x=1 only the n=k term survives, giving the limit exactly.
        check = partial_sum("TG4", 1, Fraction(1), 10)
        assert check.partial_sum == -1 == check.limit
        assert check.tail_bound == 0


class TestTerms:
    def test_direct_term_matches_expanded_basis(self):
        for series_id, points in GRID.items():
            for x in points:
                for n in range(41):
                    for k in range(n + 1):
                        b = bernstein_basis(n, k).evaluate(x)
                        want = b if series_id == "TG3" else (-1) ** n * b / x ** (n + 1)
                        assert _term(series_id, k, x, n) == want, (series_id, x, n, k)

    def test_recurrence_terms_match_direct_terms_and_magnitudes(self):
        # Every TG3/TG4 point of the campaign and the series-quadrature
        # workload, to 200 terms: the ratio recurrence gives the very
        # Fractions `_term` and the majorant's magnitude give.
        for series_id, points in GRID.items():
            for x in points:
                for k in range(4):
                    terms = _terms(series_id, k, x, 200)
                    magnitude = _majorant(series_id, k, x)[0]
                    assert terms[:k] == [0] * k
                    for n in range(k, 201):
                        assert terms[n] == _term(series_id, k, x, n), (series_id, k, x, n)
                    assert [abs(t) for t in terms] == [magnitude(n) for n in range(201)]

    def test_recurrence_terms_stop_at_last(self):
        assert _terms("TG3", 3, Fraction(1, 2), 1) == [0, 0]
        assert len(_terms("TG4", 2, Fraction(3, 4), 2)) == 3


class TestTailBounds:
    def test_halving_point_bound_is_explicit(self):
        # Index 0 at x=1/2: bound after N terms is exactly 2^-N.
        assert tail_bound("TG3", 0, Fraction(1, 2), 40) == Fraction(1, 2**40)

    @pytest.mark.parametrize("series_id", SERIES_IDS)
    def test_bound_dominates_true_error_everywhere(self, series_id):
        for k in range(4):
            for x in GRID[series_id]:
                for check in series_sweep(series_id, k, x, 80):
                    assert check.error <= check.tail_bound, (series_id, k, x, check.terms_used)

    @pytest.mark.parametrize("series_id", SERIES_IDS)
    def test_bound_eventually_decreases_monotonically(self, series_id):
        for k in range(4):
            for x in GRID[series_id]:
                bounds = [c.tail_bound for c in series_sweep(series_id, k, x, 60)]
                tail = bounds[4 * k + 8 :]
                assert all(b1 >= b2 for b1, b2 in zip(tail, tail[1:]))

    def test_sweep_bounds_equal_single_bounds(self):
        # The sweep builds every bound in one pass; each must be the very
        # Fraction tail_bound gives.  TG3 at x = 1/50, k = 2 has its
        # geometric start m0 = 100 beyond the sweep's last term count.
        cases = [(s, k, x) for s, points in GRID.items() for x in points for k in range(4)]
        cases.append(("TG3", 2, Fraction(1, 50)))
        for series_id, k, x in cases:
            bounds = [c.tail_bound for c in series_sweep(series_id, k, x, 80)]
            assert bounds == [tail_bound(series_id, k, x, n) for n in range(81)], (series_id, k, x)

    def test_negative_term_count_rejected_by_tail_bound(self):
        with pytest.raises(ValueError, match="terms must be nonnegative"):
            tail_bound("TG3", 1, Fraction(1, 2), -5)

    def test_negative_term_count_rejected_by_sweep(self):
        with pytest.raises(ValueError, match="max_terms must be nonnegative"):
            series_sweep("TG3", 1, Fraction(1, 2), -1)

    def test_prefix_property(self):
        # Recomputing with more terms only appends; earlier sums are unchanged.
        sweep = series_sweep("TG3", 2, Fraction(1, 4), 50)
        for n in (0, 5, 17, 49):
            assert sweep[n].partial_sum == partial_sum("TG3", 2, Fraction(1, 4), n).partial_sum

    def test_tg3_partial_sums_increase_to_limit(self):
        sweep = series_sweep("TG3", 1, Fraction(1, 2), 60)
        sums = [c.partial_sum for c in sweep]
        assert all(s1 <= s2 for s1, s2 in zip(sums, sums[1:]))
        assert all(c.partial_sum <= c.limit for c in sweep)


class TestRequiredTerms:
    def test_explicit_halving_case(self):
        # Bound 2^-N <= 1e-6 first holds at N = 20.
        assert required_terms("TG3", 0, Fraction(1, 2), "1e-6") == 20

    def test_loose_tolerance_stops_at_first_index(self):
        assert required_terms("TG3", 2, Fraction(1, 2), 10**6) == 2

    def test_posterior_error_within_tolerance(self):
        eps = Fraction(1, 10**9)
        for series_id in SERIES_IDS:
            for k in range(3):
                for x in GRID[series_id]:
                    n = required_terms(series_id, k, x, eps)
                    check = partial_sum(series_id, k, x, n)
                    assert check.error <= eps

    @pytest.mark.parametrize("eps", [Fraction(1, 10**9), Fraction(1, 10**15)])
    @pytest.mark.parametrize("series_id", SERIES_IDS)
    def test_bisection_matches_linear_search(self, series_id, eps):
        # GRID is the x grid of both the default campaign and the
        # series-quadrature benchmark workload.
        for k in range(4):
            for x in GRID[series_id]:
                n = k
                while tail_bound(series_id, k, x, n) > eps:
                    n += 1
                assert required_terms(series_id, k, x, eps) == n, (k, x)
                # Doubling from k brackets the answer below k + 2 (n - k) + 1;
                # bisection is sound only if the bound never rises in there.
                bounds = [tail_bound(series_id, k, x, m) for m in range(k, k + 2 * (n - k) + 2)]
                assert all(a >= b for a, b in zip(bounds, bounds[1:])), (k, x)

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ValueError):
            required_terms("TG3", 0, Fraction(1, 2), 0)

    def test_one_majorant_per_search(self, monkeypatch):
        # Every probe of the search reads the same majorant, so one call
        # builds it once, however many probes the search makes.
        built = []

        def counting(*args):
            built.append(args)
            return _majorant(*args)

        monkeypatch.setattr(series, "_majorant", counting)
        assert required_terms("TG4", 3, Fraction(5, 8), Fraction(1, 10**15)) > 40
        assert built == [("TG4", 3, Fraction(5, 8))]


def _simpson_per_power(k, x, T, steps):
    """The quadrature as a separate loop per power k: the reference the
    shared pass must reproduce bit for bit."""
    n = steps + (steps % 2)
    h = T / n
    exp = math.exp
    acc = 0.0
    for i in range(n + 1):
        t = i * h
        tp = 1.0
        for _ in range(k):
            tp *= t
        f = tp * exp(-x * t)
        if i == 0 or i == n:
            acc += f
        elif i % 2 == 1:
            acc += 4.0 * f
        else:
            acc += 2.0 * f
    return acc * h / 3.0


class TestSimpsonPass:
    def test_simpson_constant_integrand(self):
        # integral of e^(-t) over [0, 20] = 1 - e^-20
        approx = simpson_exp_monomial(0, 1.0, 20.0, 2_000)
        assert abs(approx - (1 - math.exp(-20))) < 1e-10

    @pytest.mark.parametrize("steps", [1, 2, 3, 7, 1000, 1001, 4097])
    def test_shared_pass_is_bit_identical_to_per_power_loop(self, steps):
        for x in (0.3, 0.5, 1.0, 2.0, 3.7):
            for T in (40.0 / x, 7.5):
                for k in range(7):
                    want = _simpson_per_power(k, x, T, steps)
                    got = simpson_exp_monomial(k, x, T, steps)
                    assert got.hex() == want.hex(), (k, x, T, steps)

    def test_one_pass_per_rate_in_any_order(self):
        pairs = [(k, x) for k in range(SHARED_K_MAX + 1) for x in (Fraction(1, 2), 1, 2)]
        random.Random(6).shuffle(pairs)
        _simpson_block.cache_clear()
        for k, x in pairs:
            laplace_monomial(k, x, steps=2_000)
        info = _simpson_block.cache_info()
        # 1/2, 1 and 2 at horizons 80, 40 and 20 share the mantissa 1/2 and
        # read the one block at (0, 0.5, 80.0, 2000).
        assert (info.misses, info.hits) == (1, 14)
        assert info.maxsize == SIMPSON_CACHE_SIZE

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            simpson_exp_monomial(-1, 1.0, 20.0, 100)

    @pytest.mark.parametrize("steps", [0, -3])
    def test_nonpositive_steps_rejected(self, steps):
        with pytest.raises(ValueError, match="steps must be positive"):
            simpson_exp_monomial(0, 1.0, 20.0, steps)

    @pytest.mark.parametrize("steps", [1.5, 2.0, "4", None])
    def test_non_integer_steps_rejected(self, steps):
        with pytest.raises(ValueError, match="steps must be an integer"):
            simpson_exp_monomial(0, 1.0, 20.0, steps)
        with pytest.raises(ValueError, match="steps must be an integer"):
            laplace_monomial(0, 1, steps=steps)

    @pytest.mark.parametrize("steps", [1, 3, 1000, 1001])
    def test_three_blocks_are_bit_identical_to_per_power_loop(self, steps):
        # Three triples of rates that share a binary mantissa (0.6, 0.75 and
        # 0.5): at the horizons 40/x each triple reads one block.
        for x in (0.3, 0.6, 1.2, 0.75, 1.5, 3.0, 0.5, 1.0, 2.0):
            for T in (40.0 / x, 7.5):
                for k in range(12):
                    want = _simpson_per_power(k, x, T, steps)
                    got = simpson_exp_monomial(k, x, T, steps)
                    assert got.hex() == want.hex(), (k, x, T, steps)

    @pytest.mark.parametrize(
        "k, x, T, scaled",
        [
            (100, 2.0**-20, 2.0, False),  # scaled powers of t would underflow
            (107, 2.0**-20, 2.0, False),
            (100, 3.0, 1000.0 / 3.0, False),  # e^(-x T) underflows
            (3, -3.0, 225.0, False),  # e^(-x T) near 2^974: sums may overflow
            (3, 0.0, 7.5, False),  # no binary exponent to take out
            (2, -3.0, 7.5, True),  # a negative rate, scaled exactly
        ],
    )
    def test_guarded_extremes_stay_bit_identical(self, k, x, T, scaled):
        for steps in (1, 3, 1000):
            _simpson_block.cache_clear()
            got = simpson_exp_monomial(k, x, T, steps)
            assert got.hex() == _simpson_per_power(k, x, T, steps).hex(), (k, x, T, steps)
            # The unscaled block is already cached exactly when the guard
            # fell back.
            _simpson_block(k - k % (SHARED_K_MAX + 1), x, T, steps)
            assert _simpson_block.cache_info().hits == (0 if scaled else 1), (k, x, T, steps)

    def test_default_campaign_laplace_family_makes_one_pass(self):
        _simpson_block.cache_clear()
        report = run_verify(VerifyConfig(identities=("LAPLACE",)))
        assert report.failed == 0
        assert _simpson_block.cache_info().misses == 1

    def test_powers_past_shared_k_max_cost_one_pass(self):
        _simpson_block.cache_clear()
        for k in (7, 5, 9, 6, 8):
            simpson_exp_monomial(k, 1.0, 20.0, 2_000)
        info = _simpson_block.cache_info()
        assert (info.misses, info.hits) == (1, 4)


class TestLaplaceQuadrature:
    def test_unit_case(self):
        res = laplace_monomial(0, Fraction(1), steps=20_000)
        assert res.exact == 1
        assert abs(res.approx - 1.0) < 1e-9

    def test_first_moment(self):
        res = laplace_monomial(1, Fraction(1), steps=20_000)
        assert res.exact == 1

    def test_scaled_case(self):
        res = laplace_monomial(2, Fraction(2), steps=20_000)
        assert res.exact == Fraction(1, 4)
        assert res.relative_error < 1e-8

    def test_error_decreases_with_steps(self):
        coarse = laplace_monomial(3, Fraction(1, 2), steps=200)
        fine = laplace_monomial(3, Fraction(1, 2), steps=20_000)
        assert fine.relative_error < coarse.relative_error

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            laplace_monomial(0, Fraction(0))
        with pytest.raises(ValueError):
            laplace_monomial(-1, Fraction(1))
        with pytest.raises(ValueError):
            laplace_monomial(0, Fraction(1), steps=0)
        with pytest.raises(ValueError):
            laplace_monomial(0, Fraction(1), horizon=-1.0)
        for horizon in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                laplace_monomial(0, 1, horizon=horizon)
        # Positive rates whose float is 0 or overflows.
        for rate in (Fraction(1, 10**400), Fraction(10**400)):
            for horizon in (None, 1.0):
                with pytest.raises(ValueError, match="positive finite float"):
                    laplace_monomial(0, rate, horizon=horizon, steps=10)

    def test_json_payload_roundtrips(self):
        res = laplace_monomial(2, Fraction(1, 2), steps=1_000)
        payload = res.to_json_dict()
        assert Fraction(payload["exact"]) == res.exact
        assert payload["steps"] == 1_000
