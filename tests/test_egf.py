"""Truncated generating-function ring and the functional-equation catalog."""

import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bernkit.bernstein import bernstein_basis
from bernkit.campaign import VerifyConfig, emit_report, run_verify
from bernkit.egf import (
    FE_IDS,
    TruncatedEGF,
    check_closed_form,
    check_functional_equation,
    egf_bernstein,
    egf_bernstein_closed,
    egf_diff_t,
    egf_diff_x,
    egf_equal,
    egf_exp_affine,
    egf_linear_combination,
    egf_mul,
    egf_substitute_t,
    fe_param_names,
)
from bernkit.polynomials import Poly1, Poly2

X = Poly2.x()
Y = Poly2.y()

fractions_st = st.fractions(min_value=-3, max_value=3, max_denominator=6)
poly2_st = st.lists(st.lists(fractions_st, max_size=3), max_size=3).map(Poly2)


def egf_of_order(order):
    return st.lists(poly2_st, min_size=order + 1, max_size=order + 1).map(
        lambda cs: TruncatedEGF(order, cs)
    )


egf_pair_st = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.tuples(egf_of_order(n), egf_of_order(n))
)
egf_triple_st = st.integers(min_value=0, max_value=4).flatmap(
    lambda n: st.tuples(egf_of_order(n), egf_of_order(n), egf_of_order(n))
)


class TestConstructors:
    def test_index_zero_coefficients(self):
        series = egf_bernstein(0, 3)
        for n in range(4):
            assert series.coefficient(n) == ((1 - X) ** n)

    def test_high_index_truncates_to_zero(self):
        series = egf_bernstein(2, 1)
        assert series == TruncatedEGF.zero(1)

    def test_degree_two_coefficient(self):
        series = egf_bernstein(1, 2)
        assert series.coefficient(2) == 2 * X * (1 - X)  # 2x(1-x)

    def test_exp_of_zero_is_one(self):
        series = egf_exp_affine(0, 4)
        assert series.coefficient(0) == 1
        for n in range(1, 5):
            assert not series.coefficient(n)

    def test_exp_of_one_is_all_ones(self):
        series = egf_exp_affine(1, 4)
        for n in range(5):
            assert series.coefficient(n) == 1

    def test_exp_affine_coefficients_are_powers(self):
        series = egf_exp_affine(1 - 2 * X, 3)
        assert series.coefficient(3) == (1 - 2 * X) ** 3

    def test_exp_degree_two_rejected(self):
        with pytest.raises(ValueError):
            egf_exp_affine(X * Y, 3)

    def test_coefficient_count_validated(self):
        with pytest.raises(ValueError):
            TruncatedEGF(2, [Poly2()])


class TestRingOperations:
    def test_exponent_addition(self):
        e1 = egf_exp_affine(1, 6)
        assert egf_mul(e1, e1) == egf_exp_affine(2, 6)

    def test_multiplicative_identity(self):
        one = egf_exp_affine(0, 5)
        a = egf_bernstein(1, 5)
        assert egf_mul(a, one) == a

    def test_index_zero_times_exp_x(self):
        n = 8
        assert egf_mul(egf_bernstein(0, n), egf_exp_affine(X, n)) == egf_exp_affine(1, n)

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            egf_mul(egf_exp_affine(1, 3), egf_exp_affine(1, 4))

    @given(egf_pair_st)
    def test_product_is_the_binomial_convolution(self, ab):
        a, b = ab
        want = []
        for n in range(a.order + 1):
            acc = Poly2()
            for j in range(n + 1):
                acc = acc + a.coefficient(j) * b.coefficient(n - j) * math.comb(n, j)
            want.append(acc)
        got = (a * b).coeffs
        assert [(c._num, c._den) for c in got] == [(c._num, c._den) for c in want]

    @given(egf_pair_st, poly2_st, st.integers(min_value=-3, max_value=3))
    def test_linear_combination_matches_scaled_sum(self, ab, w, c):
        a, b = ab
        assert egf_linear_combination(a.order, [(w, a), (c, b)]) == a.scale(w) + b.scale(c)

    def test_linear_combination_of_nothing_is_zero(self):
        assert egf_linear_combination(3, []) == TruncatedEGF.zero(3)

    def test_linear_combination_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            egf_linear_combination(3, [(1, egf_exp_affine(1, 4))])

    @given(egf_triple_st)
    def test_ring_laws_up_to_truncation(self, abc):
        a, b, c = abc
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(egf_pair_st)
    def test_product_derivative_rule_in_x(self, ab):
        a, b = ab
        assert (a * b).diff_x(1) == a.diff_x(1) * b + a * b.diff_x(1)

    @given(egf_pair_st, fractions_st)
    def test_substitution_is_multiplicative(self, ab, s):
        a, b = ab
        sub = Poly2.constant(s)
        assert (a * b).substitute_t(sub) == a.substitute_t(sub) * b.substitute_t(sub)

    @given(egf_pair_st)
    def test_substitution_by_y_is_multiplicative(self, ab):
        a, b = ab
        assert (a * b).substitute_t(Y) == a.substitute_t(Y) * b.substitute_t(Y)

    @given(egf_pair_st, st.integers(min_value=0, max_value=4))
    def test_product_is_truncation_consistent(self, ab, m):
        # Coefficients through order m of a product depend only on the
        # factors' coefficients through order m.
        a, b = ab
        m = min(m, a.order)
        assert (a * b).truncate(m) == a.truncate(m) * b.truncate(m)


class TestSubstituteAndShift:
    def test_identity_substitution(self):
        a = egf_bernstein(1, 4)
        assert egf_substitute_t(a, 1) == a

    def test_scaling_t_by_two(self):
        assert egf_substitute_t(egf_exp_affine(1, 5), 2) == egf_exp_affine(2, 5)

    def test_substitute_y_tags_each_order(self):
        series = egf_substitute_t(egf_bernstein(1, 3), Y)
        for n in range(4):
            expected = Poly2.coerce(bernstein_basis(n, 1)) * Y**n
            assert series.coefficient(n) == expected

    def test_shift_t_matches_product_rule(self):
        # t * sum a_n t^n/n! has coefficient m * a_{m-1} at order m.
        a = egf_bernstein(0, 5)
        shifted = a.shift_t(1)
        assert not shifted.coefficient(0)
        for m in range(1, 6):
            assert shifted.coefficient(m) == a.coefficient(m - 1) * m


class TestDerivatives:
    def test_diff_x_order_zero_is_identity(self):
        a = egf_bernstein(2, 5)
        assert egf_diff_x(a, 0) == a

    def test_diff_x_of_index_zero(self):
        series = egf_diff_x(egf_bernstein(0, 5), 1)
        for n in range(6):
            expected = Poly2.coerce(bernstein_basis(n, 0).derivative()) if n else Poly2()
            assert series.coefficient(n) == expected
            if n:
                assert series.coefficient(n) == Poly2.coerce((1 - Poly1.x()) ** (n - 1) * (-n))

    def test_diff_x_annihilates_past_degree(self):
        assert egf_diff_x(egf_bernstein(1, 4), 9) == TruncatedEGF.zero(4)

    def test_diff_t_is_index_shift(self):
        a = egf_bernstein(1, 6)
        d = egf_diff_t(a, 1)
        assert d.order == 5
        for m in range(6):
            assert d.coefficient(m) == Poly2.coerce(bernstein_basis(m + 1, 1))

    def test_diff_t_of_exponential(self):
        c = Fraction(3, 2)
        assert egf_diff_t(egf_exp_affine(c, 5), 1) == egf_exp_affine(c, 4).scale(c)

    def test_diff_t_beyond_order_rejected(self):
        with pytest.raises(ValueError):
            egf_diff_t(egf_exp_affine(1, 3), 4)


class TestEquality:
    def test_equal_to_itself(self):
        a = egf_bernstein(2, 6)
        assert egf_equal(a, a) == (True, None)

    def test_closed_form_matches_definition(self):
        for k in range(7):
            ok, mismatch = egf_equal(egf_bernstein(k, 20), egf_bernstein_closed(k, 20))
            assert ok, (k, mismatch)

    def test_first_difference_reported(self):
        ok, mismatch = egf_equal(egf_bernstein(1, 4), egf_bernstein(2, 4))
        assert not ok
        n, diff = mismatch
        assert n == 1
        assert diff == Poly2.x()  # B_1^1 - B_2^1 = x - 0


class TestFunctionalEquationCatalog:
    def test_catalog_ids(self):
        assert set(FE_IDS) == {
            "FE-SUM",
            "FE-ALT",
            "FE-G1",
            "FE-G2",
            "FE-G3",
            "FE-SUB",
            "FE-MONO",
            "FE-DIFFX",
            "FE-DIFFT",
            "FE-PROD",
            "FE-XY",
        }

    @pytest.mark.parametrize("fe_id", FE_IDS)
    def test_all_pass_at_small_indices(self, fe_id):
        names = fe_param_names(fe_id)
        order = 10
        tuples = [{}]
        for name in names:
            tuples = [{**t, name: v} for t in tuples for v in range(5)]
        for params in tuples:
            rep = check_functional_equation(fe_id, params, order)
            assert rep.passed, (fe_id, params, rep.witness)
            assert rep.method == "symbolic"

    def test_sum_equation_at_order_twelve(self):
        assert check_functional_equation("FE-SUM", {}, 12).passed

    def test_product_split_example(self):
        assert check_functional_equation("FE-PROD", {"k1": 1, "k2": 1}, 8).passed

    def test_subdivision_coefficients_at_index_zero(self):
        # Both sides of the j=0 instance carry (1 - xy)^n at each order.
        from bernkit.egf import _fe_sub

        lhs, rhs = _fe_sub(6, 0)
        for n in range(7):
            assert lhs.coefficient(n) == (1 - X * Y) ** n
            assert rhs.coefficient(n) == (1 - X * Y) ** n

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            check_functional_equation("FE-NOPE", {}, 4)

    def test_wrong_params_rejected(self):
        with pytest.raises(ValueError):
            check_functional_equation("FE-G1", {"z": 1}, 4)
        with pytest.raises(ValueError):
            check_functional_equation("FE-G1", {"k": -1}, 4)

    def test_diffx_shift_beyond_order_rejected(self):
        with pytest.raises(ValueError):
            check_functional_equation("FE-DIFFX", {"k": 0, "l": 7}, 6)

    def test_mutation_flips_each_equation(self):
        for fe_id in FE_IDS:
            names = fe_param_names(fe_id)
            params = {name: 1 for name in names}
            rep = check_functional_equation(fe_id, params, 8, mutate=True)
            assert not rep.passed, fe_id
            assert rep.witness is not None

    def test_closed_form_check_and_mutation(self):
        assert check_closed_form(3, 12).passed
        mutated = check_closed_form(3, 12, mutate=True)
        assert not mutated.passed
        assert mutated.witness.monomial == {"t": 3, "x": 3, "y": 0}


# sha256 of the JSON report, wall_time_s zeroed, at max_degree=4 and
# egf_order=10, recorded from the ring that canonicalised once per term:
# a changed verdict, witness or report byte changes the digest.
GOLDEN_REPORT_DIGESTS = {
    None: "a139e6b1279bd95f3b0fac5b9b6e38622e94262a8b3618f794bc5f85fff0b110",
    "FE-PROD": "f04a212e654c481dac642dc4c154c4060c0e5ee831dc15af11f3f03b411665cb",
    "FE-DIFFX": "0aca4620524bbcdddcfd2c11ebd5386118391cc709bdbd8fa6948c13f0f0bd4f",
    "FE-SUB": "9e8c60f79ecfa30c20e29021ad63d123535495efb9fe99066cc1c3ed33b8845d",
    "egf-closed-form": "45e3da6ca3e367f651602a75958500b11ceaa449ed8f3459f4e1e391caa05cf8",
}


@pytest.mark.parametrize("mutate", list(GOLDEN_REPORT_DIGESTS))
def test_report_digest_is_unchanged(mutate):
    """All FE checks clean, or one mutated id on its own."""
    ids = FE_IDS if mutate is None else (mutate,)
    report = run_verify(VerifyConfig(max_degree=4, egf_order=10, identities=ids), mutate=mutate)
    report.wall_time_s = 0.0
    digest = hashlib.sha256(emit_report(report).encode()).hexdigest()
    assert digest == GOLDEN_REPORT_DIGESTS[mutate]
