"""Truncated generating-function ring and the functional-equation catalog."""

import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bernkit.bernstein import bernstein_basis
from bernkit.campaign import ALL_IDS, VerifyConfig, emit_report, run_verify
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

# Per check id: sha256 of its single-id report (max_degree=4, egf_order=8,
# wall_time_s zeroed), clean and with that id mutated.  Recorded from the
# per-id dispatch chains that the check registries replaced.
GOLDEN_CHECK_DIGESTS = {
    "sum": (
        "f30614321bf4cbf1365b4cb0b873778598f3e1bf41c4dda8af3a334aeceac002",
        "56cea24a4f97ce1ba9b75f1c8e6dd0324ca3a1aaf8624058caffb0f1403987f3",
    ),
    "alternating-sum": (
        "f7b4770a3f36178d8020fe51b3df3bb356be4177be2eb5a6786cc9d6ce26097f",
        "68f8b84a8cc924d149b26e0f0741ff5395b1c5a4bd5763aabb651d0ae204cc46",
    ),
    "subdivision-product": (
        "33a6e6afc42723fbb2fdbd8bb27d29b91a814fc2ca4484679aa258eadca6a396",
        "6dd86430c449567aa1e7cb1c6161fcee6b5ccf16f918c1afe4e827bf07a0945b",
    ),
    "subdivision-affine": (
        "c66c48efdbdb2552938a69992e7bac0423cf2120b83d063837911c9f1c3f652d",
        "4cf8a2eb90e7e3314a6f16ecf09d1201edf314c814f770d70390eb260ea596b1",
    ),
    "subdivision-trivariate": (
        "419059e4f920743d6f4898c3a5c1766e2ca88b30552a3553fb1f825f2d8ab784",
        "2fdd920b4de7510fad9fb4f012c91a727e6d389046bcfa51c2a98a2f60cbec5a",
    ),
    "monomial": (
        "5b93497e04e4cf082a36a4034b39ef977bc41c676ef70b5e18e2f7570b84d02b",
        "5188f52c7fc6797fa5d8c31b22f238892bc491331fc92b042d68d5bb868beec4",
    ),
    "derivative": (
        "2f4dd6a39daa1ff79388b781d83439fd9ff6a5ade8c907f13c73097f22a2e61b",
        "634d9da110fa59a0a704a30d8e3c8f573936e1154352eaa0417c9c7b8bfd0c91",
    ),
    "recurrence": (
        "c31835aec34ecadbf13c0ec54b248f89847e5a9b62e9a75c8b4360df8b53e5b6",
        "4ec3822a9bd2af619550a240011d66b80f1593cb907d657bc3422859413c4f9f",
    ),
    "raise-x": (
        "b697c7f30c76c40e4557741550a220da3cfc63d0fb2d9281dd6f509aa46ca5d8",
        "bfbb37f75cbe8c0b23330274890441f08dcd67c5c3b4c00657923c2e2449368a",
    ),
    "raise-1mx": (
        "d27eae617d329ed99a7e399c32192a73dbf08fe1f5027f7a991a8523a80c0569",
        "a498b1a76d09baabd8c11b7d1d32cd9ac738c221dc2b80171c21e210971def49",
    ),
    "elevation": (
        "4af99bf5e0c0604363c12a41f49c133a12a3405ebfe77c16dd543fd6be6172da",
        "25ec83dd6d0f9ab88682c8860ff1a3636b3cd5d2bc56c0864bd593711b3ec048",
    ),
    "product": (
        "6e75720763814e0678b20b4889f7d78abed98100265fb3fbf4f3dc65d8873df5",
        "c29d47fe1c24017e0de63e33f91ae5495b3a65b8472b5007672eed77f295e4da",
    ),
    "two-point": (
        "cc3622435c2d3b6ed1f43df02604abe815eda42e2d71c565a3e9d4cc9eba4c2c",
        "e404fc38c894c5e379429cc3a261af446fab3ecf7d858faf0be0121e2496a8f0",
    ),
    "tg1": (
        "ac1b088ef97e0ff3b843113336d46e5ae75689ea8e71743d59700d2733a32ea5",
        "ab577c65fcd7f7a0c6361f8dd0034c2c0863e829c60cf32c43caa6dae115bd63",
    ),
    "tg2": (
        "0c1b17199007fbf234932a948b0b6aff8f48d00a786bd3690f403d6944a55979",
        "2157f43c8648771025c27aaa83f04e1f3e977cb9ac6894657b547d2d067f1fe4",
    ),
    "tg5": (
        "ed9556e89522b3de6223dc5008d02c3038feedff818790c00f9851c6079add5d",
        "7a7d5f9078464e08cd5bd71f33eb595be1d426c11ab8b7afb1436f8d663c9286",
    ),
    "egf-closed-form": (
        "fe1ae9bcc0da5566f87fe940695c4d9ddcd56cc36dfd2344a79254876fe00b7a",
        "f2b94d6394038de7c3ba97500c9b9984d669e6688afc82b1621c9da812413310",
    ),
    "FE-SUM": (
        "5229a08ec593a4ee188da050a5fcbc4fcbec2ac69be05531cbfe683849b9c1bd",
        "d094ab7e3f289fc3d3c8720b83675ca3ed03bdc6cc301e723854b013eff9185c",
    ),
    "FE-ALT": (
        "ff6fed64df5196f9ab94fba36cfbc0361041c0372327d98862e4d51f10e62cf4",
        "43fcd7ca04c8b2bc4b50582d9588c4342ce7f88f3d25824495152deeade65640",
    ),
    "FE-G1": (
        "5b820935e397e98e41ccb944cf83bfa650fab824a5c50424dcf12fd202015572",
        "f1388b39ac7522d45f7584184b2036f3fe13aa721ea2771e24e8251812388fa0",
    ),
    "FE-G2": (
        "3b8de0804bf465ca4540afcc31620ee7873b76a4b6a57a23d08a843b27ca79e7",
        "39fbd1f6f8596e34c2e0d40c25b8c40f2981bce02e91900de6abbb0fbb62a2a6",
    ),
    "FE-G3": (
        "42fd3bb56886883ddab9f470c07d3761b7292378e9759cb031a3b450cef5a4bc",
        "97593403ca3844726318f11fa7ff076dc75cd89b90bf6ac4c7f98dc60181f470",
    ),
    "FE-SUB": (
        "a3b811f3c3992b5f7ab599d377108cec400a98b8f4c7402ce05ca0df4e102198",
        "70daf67e24f37744e46d94d2676de650490bbf32a15a134e5ecdd3fb7f317886",
    ),
    "FE-MONO": (
        "d8cee2f63bf25b27b728a3b83a4622a132e83e16c4e8a2bcea2c1b42a6a8020b",
        "eaf8d062a5a5e6f94e88d40a01580ceb97828c0a525138f43a57b7f626dc0a34",
    ),
    "FE-DIFFX": (
        "5b597a71641e3b5c9a312466d0c5eec4e987832ca3a0ef1328dbf097a8bf54ba",
        "53f11603d54e66dd8b8166b6ddb5bab197c962b0fb47dd78e05f22162a857b44",
    ),
    "FE-DIFFT": (
        "823b2a7f16d188c308886e6dba16044f64e63c823549cb312f761d9f56770ea2",
        "538b49f5bc637db5ea2601c02ef3b8fafbe04c6aa00d9d72c38a77689602508f",
    ),
    "FE-PROD": (
        "a8ab47845bd82ddcc8875031b81cb37dd153a16cf7b77e6dc1bb375d304e9ed0",
        "64d5eac1e4bec1e96a2c17d7a6931467c35fe2be17639c955ce35b4621213e90",
    ),
    "FE-XY": (
        "b6f5f5f095ad585121c40d79a4a2242f5653263d70b411625930a067786bfd9e",
        "ea99e7a8696c9ce1ecf71b15e5987f9a3a28f75f1936fd47140bfff06e20efa0",
    ),
    "TG3": (
        "962d833b4aa2beed84d1c812539eb245b7b75a06f136e3ec264a2044b978f499",
        "a0ad212b5ab78c1e290681d43520243afac3edd86a4872bb20e6e69a9de0a9f0",
    ),
    "TG4": (
        "336ab8a3be3673f1eca1fd49084723c7c9b494bc88685924ef6379c8c74742f8",
        "73336577561257ff3cfb9582a48306489d6c4304752deef0f269750d14d62080",
    ),
    "LAPLACE": (
        "1313a2cfd5ddd6307a95fa5bfaf9b10ce3b35031e90a08fd9bbf4904c408c093",
        "c5144e5bd24c0ff03c6d634660a2e89013b80d4407f3d8f1f636e5666dcfbeeb",
    ),
    "basis-roundtrip": (
        "9f7743093c5e38d523f9d1e44ce46f39fe4c897962c15b8d009245678bbdc012",
        "6a3c929be8834ab649db545dcf99b00230dcdf03a52c4ce36d7a7b995cea9eff",
    ),
    "basis-eval": (
        "2c0759e6d4837dbe3fb0ab51b9c3b256f941ee1582a6f594c0ce51470325364d",
        "6fc2f4071a954d85a9b5e71b2a32f7d4783f6ed6a1cdba1369b9816c3e477f1b",
    ),
}


@pytest.mark.parametrize("mutated", [False, True], ids=["clean", "mutated"])
@pytest.mark.parametrize("check_id", ALL_IDS)
def test_single_check_report_digest_is_unchanged(check_id, mutated):
    config = VerifyConfig(max_degree=4, egf_order=8, identities=(check_id,))
    report = run_verify(config, mutate=check_id if mutated else None)
    report.wall_time_s = 0.0
    digest = hashlib.sha256(emit_report(report).encode()).hexdigest()
    assert digest == GOLDEN_CHECK_DIGESTS[check_id][mutated]
