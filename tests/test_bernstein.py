"""Basis functions, de Casteljau evaluation, and basis conversions."""

import random
from fractions import Fraction

import pytest

from bernkit.bernstein import (
    BernsteinForm,
    bernstein_basis,
    binomial,
    eval_de_casteljau,
    generalized_basis,
    to_bernstein,
    to_monomial,
)
from bernkit.polynomials import Poly1


class TestBinomial:
    def test_small_values(self):
        assert binomial(5, 2) == 10
        assert binomial(0, 0) == 1

    def test_out_of_range_is_zero(self):
        assert binomial(4, 7) == 0
        assert binomial(4, -1) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    def test_pascal_rule(self):
        for n in range(1, 12):
            for k in range(n + 1):
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


class TestBasisFunctions:
    def test_degree_two_expansion(self):
        assert bernstein_basis(2, 1) == Poly1([0, 2, -2])  # 2x - 2x^2

    def test_out_of_range_is_zero_polynomial(self):
        assert bernstein_basis(3, 5) == Poly1()
        assert bernstein_basis(3, -1) == Poly1()

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            bernstein_basis(-2, 0)

    def test_index_zero_at_origin(self):
        for n in range(11):
            assert bernstein_basis(n, 0).evaluate(0) == 1

    def test_degree_and_lowest_coefficient(self):
        # Degree is exactly n, and the coefficient of x^k is C(n,k).
        for n in range(9):
            for k in range(n + 1):
                p = bernstein_basis(n, k)
                assert p.degree == n
                assert p.coefficient(k) == binomial(n, k)


class TestDeCasteljau:
    def test_linear_interpolation(self):
        f = BernsteinForm(1, [0, 1])
        assert eval_de_casteljau(f, Fraction(1, 3)) == Fraction(1, 3)

    def test_constant_coefficients(self):
        f = BernsteinForm(2, [1, 1, 1])
        for x in (Fraction(0), Fraction(2, 7), Fraction(1), Fraction(-3)):
            assert eval_de_casteljau(f, x) == 1

    def test_last_unit_vector(self):
        f = BernsteinForm(2, [0, 0, 1])
        assert eval_de_casteljau(f, Fraction(1, 2)) == Fraction(1, 4)

    def test_matches_monomial_evaluation_exactly(self):
        rng = random.Random(7)
        for n in range(16):
            for k in range(n + 1):
                unit = BernsteinForm(n, [Fraction(i == k) for i in range(n + 1)])
                poly = bernstein_basis(n, k)
                for _ in range(20):
                    x = Fraction(rng.randint(0, 997), 997)
                    assert eval_de_casteljau(unit, x) == poly.evaluate(x)


def fraction_de_casteljau(coeffs, x):
    """The recurrence b_i <- (1-x) b_i + x b_{i+1} on Fractions, as
    `eval_de_casteljau` once ran it."""
    xq = Fraction(x)
    level = [Fraction(c) for c in coeffs]
    while len(level) > 1:
        level = [(1 - xq) * level[i] + xq * level[i + 1] for i in range(len(level) - 1)]
    return level[0]


class TestIntegerDeCasteljau:
    """The integer recurrence against the Fraction one it replaced."""

    COEFFS = [
        [Fraction(-7, 3)],
        [5],
        [0],
        [Fraction(1, 2), Fraction(-2, 3)],
        [Fraction(3, 4), -2, Fraction(5, 6), 0, Fraction(-11, 10)],
        [Fraction(-1, 7), Fraction(2, 9), Fraction(-3, 11), Fraction(4, 13), Fraction(-5, 17), 6, -1],
    ]
    POINTS = [0, 1, -2, 3, Fraction(1, 3), Fraction(-5, 4), Fraction(9, 7), Fraction(-1, 1000), "2/5", "-3/2", "7/3", "4"]

    def test_matches_the_fraction_recurrence(self):
        for coeffs in self.COEFFS:
            f = BernsteinForm(len(coeffs) - 1, coeffs)
            for x in self.POINTS:
                got = eval_de_casteljau(f, x)
                assert type(got) is Fraction
                assert got == fraction_de_casteljau(coeffs, x), (coeffs, x)

    def test_random_forms_match_the_fraction_recurrence(self):
        rng = random.Random(11)
        for n in range(13):
            for _ in range(5):
                coeffs = [Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(n + 1)]
                x = Fraction(rng.randint(-40, 80), rng.randint(1, 40))
                want = fraction_de_casteljau(coeffs, x)
                f = BernsteinForm(n, coeffs)
                assert eval_de_casteljau(f, x) == eval_de_casteljau(f, str(x)) == want, (coeffs, x)


class TestConversions:
    def test_all_ones_is_constant(self):
        assert to_monomial(BernsteinForm(2, [1, 1, 1])) == Poly1([1])

    def test_linear_cases(self):
        assert to_monomial(BernsteinForm(1, [0, 1])) == Poly1([0, 1])
        assert to_monomial(BernsteinForm(2, [0, Fraction(1, 2), 1])) == Poly1([0, 1])

    def test_constant_into_degree_three(self):
        assert to_bernstein(Poly1([1]), 3).coeffs == (1, 1, 1, 1)

    def test_x_into_degree_two(self):
        assert to_bernstein(Poly1([0, 1]), 2).coeffs == (0, Fraction(1, 2), 1)

    def test_degree_overflow_rejected(self):
        with pytest.raises(ValueError):
            to_bernstein(Poly1([0, 0, 0, 1]), 2)

    def test_roundtrip_on_random_forms(self):
        rng = random.Random(11)
        for n in range(13):
            coeffs = [Fraction(rng.randint(-60, 60), rng.randint(1, 15)) for _ in range(n + 1)]
            form = BernsteinForm(n, coeffs)
            assert to_bernstein(to_monomial(form), n) == form

    def test_roundtrip_other_direction(self):
        rng = random.Random(13)
        for n in range(11):
            p = Poly1([Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(n + 1)])
            assert to_monomial(to_bernstein(p, n)) == p

    def test_form_length_validated(self):
        with pytest.raises(ValueError):
            BernsteinForm(2, [1, 2])


class TestGeneralizedBasis:
    def test_unit_interval_recovers_standard_basis(self):
        for n in range(7):
            for k in range(n + 1):
                assert generalized_basis(n, k, 0, 1) == bernstein_basis(n, k)

    def test_symmetric_interval_linear(self):
        assert generalized_basis(1, 1, -1, 1) == Poly1([Fraction(1, 2), Fraction(1, 2)])

    def test_partition_of_unity_on_interval(self):
        total = Poly1()
        for k in range(5):
            total = total + generalized_basis(4, k, 2, 5)
        assert total == Poly1([1])

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError):
            generalized_basis(2, 1, 1, 1)
        with pytest.raises(ValueError):
            generalized_basis(2, 1, 3, 2)

    def test_affine_substitution_recovers_unit_basis(self):
        # At x = a + (b-a) u the [a,b] basis takes the unit basis values at u;
        # four distinct u decide equality of the degree-3 polynomials in u.
        a, b = Fraction(-2), Fraction(3)
        for k in range(4):
            adapted = generalized_basis(3, k, a, b)
            for u in (Fraction(0), Fraction(1, 3), Fraction(3, 4), Fraction(2)):
                assert adapted.evaluate(a + (b - a) * u) == bernstein_basis(3, k).evaluate(u)
