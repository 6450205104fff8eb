"""Exact polynomial algebra: canonical form, ring laws, substitutions."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bernkit.polynomials import Poly1, Poly2, as_scalar, scalar_str

fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=12)
poly1_st = st.lists(fractions_st, max_size=6).map(Poly1)
poly2_st = st.lists(st.lists(fractions_st, max_size=4), max_size=4).map(Poly2)


@st.composite
def padded_poly2_st(draw):
    """A Poly2 built from a grid with trailing zero rows and columns; integer
    grids also get a content above one, which canonicalisation keeps."""
    entries = st.integers(-5, 5) if draw(st.booleans()) else fractions_st
    grid = draw(st.lists(st.lists(entries, max_size=4), max_size=4))
    content = draw(st.integers(1, 6))
    pad = [0] * draw(st.integers(0, 2))
    grid = [[c * content for c in row] + pad for row in grid]
    return Poly2(grid + [pad] * draw(st.integers(0, 2)))


def raw_grid_st(max_width=5):
    """Rectangular integer grids, rich in zeros, as `Poly2._raw` receives them."""
    cells = st.one_of(st.just(0), st.integers(-60, 60))
    return st.integers(0, max_width).flatmap(
        lambda w: st.lists(st.lists(cells, min_size=w, max_size=w), max_size=5)
    )


def reference_canonical(rows, den):
    """(numerators, denominator) of the canonical form, from Fractions alone."""
    cells = {
        (i, j): Fraction(v, den) for i, row in enumerate(rows) for j, v in enumerate(row) if v
    }
    if not cells:
        return (), 1
    height = max(i for i, _ in cells) + 1
    width = max(j for _, j in cells) + 1
    common = math.lcm(*(f.denominator for f in cells.values()))
    nums = tuple(
        tuple(int(cells.get((i, j), 0) * common) for j in range(width)) for i in range(height)
    )
    return nums, common


class TestScalars:
    def test_as_scalar_parses_ratio_strings(self):
        assert as_scalar("3/4") == Fraction(3, 4)
        assert as_scalar(7) == 7

    def test_scalar_str_roundtrip(self):
        for value in (Fraction(3, 4), Fraction(-5, 7), Fraction(0), Fraction(12)):
            assert Fraction(scalar_str(value)) == value


class TestPoly1Canonical:
    def test_trailing_zeros_trimmed(self):
        assert Poly1([1, 2, 0, 0]) == Poly1([1, 2])
        assert Poly1([1, 2, 0, 0]).degree == 1

    def test_zero_polynomial(self):
        zero = Poly1([0, 0])
        assert not zero
        assert zero.degree == -1
        assert zero == Poly1()

    def test_equal_values_equal_objects(self):
        assert Poly1([Fraction(1, 2), Fraction(1, 3)]) == Poly1([Fraction(2, 4), Fraction(2, 6)])
        assert hash(Poly1([Fraction(1, 2)])) == hash(Poly1([Fraction(2, 4)]))

    def test_scalar_comparison(self):
        assert Poly1([Fraction(3, 2)]) == Fraction(3, 2)
        assert Poly1() == 0
        assert Poly1([0, 1]) != 1

    def test_coefficient_out_of_range_is_zero(self):
        assert Poly1([1, 2]).coefficient(17) == 0


class TestPoly1Arithmetic:
    def test_product_example(self):
        # (1 + x)(1 - x) = 1 - x^2
        assert Poly1([1, 1]) * Poly1([1, -1]) == Poly1([1, 0, -1])

    def test_scalar_multiplication(self):
        assert Poly1([1, 2]) * Fraction(1, 2) == Poly1([Fraction(1, 2), 1])

    def test_pow_matches_repeated_multiplication(self):
        p = Poly1([1, Fraction(2, 3)])
        assert p**4 == p * p * p * p
        assert p**0 == 1

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            Poly1([1, 1]) ** -1

    def test_evaluate_horner(self):
        p = Poly1([1, -3, 2])  # 1 - 3x + 2x^2
        assert p.evaluate(Fraction(1, 2)) == 1 - Fraction(3, 2) + Fraction(1, 2)

    def test_derivative(self):
        p = Poly1([5, 1, 0, 2])  # 5 + x + 2x^3
        assert p.derivative() == Poly1([1, 0, 6])
        assert p.derivative(3) == Poly1([12])
        assert p.derivative(4) == Poly1()

    @given(poly1_st, poly1_st, poly1_st)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(poly1_st, fractions_st)
    def test_evaluation_is_a_ring_morphism(self, p, x):
        q = Poly1([1, -2, 3])
        assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)
        assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)

    @given(poly1_st, poly1_st)
    def test_compose_agrees_with_evaluation(self, p, q):
        x = Fraction(2, 7)
        composed = p.compose(q)
        assert composed.evaluate(x) == p.evaluate(q.evaluate(x))
        assert p.at_xy() == p.compose(Poly2.x() * Poly2.y())


class TestPoly2:
    def test_grid_indexing(self):
        p = Poly2([[1, 2], [3, 0]])  # 1 + 2y + 3x
        assert p.coefficient(0, 1) == 2
        assert p.coefficient(1, 0) == 3
        assert p.coefficient(5, 5) == 0
        assert p.deg_x == 1 and p.deg_y == 1
        assert p.total_degree == 1

    def test_trim_to_canonical(self):
        assert Poly2([[1, 0], [0, 0]]) == Poly2([[1]])
        assert not Poly2([[0, 0], [0, 0]])

    @given(raw_grid_st(), st.integers(1, 60), st.integers(1, 6))
    def test_raw_matches_reference_canonicaliser(self, rows, den, content):
        rows = [[v * content for v in row] for row in rows]
        p = Poly2._raw([list(row) for row in rows], den)
        assert (p._num, p._den) == reference_canonical(rows, den)

    @given(st.lists(st.tuples(st.integers(-4, 4), padded_poly2_st(), padded_poly2_st()), max_size=5))
    def test_sum_of_products_matches_naive_fold(self, terms):
        want = Poly2()
        for w, a, b in terms:
            want = want + a * b * w
        got = Poly2.sum_of_products(terms)
        assert (got._num, got._den) == (want._num, want._den)

    def test_sum_of_products_of_nothing_is_zero(self):
        zero = Poly2.sum_of_products([(0, Poly2.x(), Poly2.y()), (3, Poly2(), Poly2.x())])
        assert (zero._num, zero._den) == ((), 1)

    def test_xy_product(self):
        assert Poly2.x() * Poly2.y() == Poly2([[0, 0], [0, 1]])

    def test_pow(self):
        p = Poly2.x() + Poly2.y()
        assert p**2 == Poly2([[0, 0, 1], [0, 2], [1]])

    @given(poly2_st, poly2_st, poly2_st)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(poly2_st, fractions_st, fractions_st)
    def test_specializing_y_matches_grid_evaluation(self, p, x, y):
        assert p.substitute_y(y).evaluate(x) == p.evaluate(x, y)

    @given(poly2_st, fractions_st, fractions_st)
    def test_specializing_x_matches_grid_evaluation(self, p, x, y):
        assert p.substitute_x(x).evaluate(y) == p.evaluate(x, y)

    def test_diff_x(self):
        p = Poly2([[0, 1], [2, 0], [0, 3]])  # y + 2x + 3x^2 y
        assert p.diff_x() == Poly2([[2], [0, 6]])

    def test_embeddings(self):
        p = Poly1([1, 2, 3])
        assert p.as_poly2_in_x() == Poly2([[1], [2], [3]])
        assert p.as_poly2_in_y() == Poly2([[1, 2, 3]])
        assert p.as_poly2_in_x().substitute_y(0) == p

    def test_monomial_order_is_graded_lex(self):
        p = Poly2([[0, 0, 5], [0, 3], [7]])  # 5y^2 + 3xy + 7x^2
        exps = [e for e, _ in p.monomials()]
        assert exps == [(0, 2), (1, 1), (2, 0)]
