"""Exact polynomial algebra: canonical form, ring laws, substitutions."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bernkit import polynomials
from bernkit.polynomials import Poly1, Poly2, as_scalar, scalar_str

fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=12)
poly1_st = st.lists(fractions_st, max_size=6).map(Poly1)
# Integer coefficients with a common content above one, which canonicalisation keeps.
integer_poly1_st = st.tuples(st.lists(st.integers(-5, 5), max_size=6), st.integers(1, 6)).map(
    lambda cs: Poly1([c * cs[1] for c in cs[0]])
)
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


def canonical(cells):
    """(numerators, denominator) of the canonical form of a {(row, column):
    Fraction} grid, from Fractions alone; a Poly1 is the one row 0."""
    cells = {key: f for key, f in cells.items() if f}
    if not cells:
        return (), 1
    height = max(i for i, _ in cells) + 1
    width = max(j for _, j in cells) + 1
    common = math.lcm(*(f.denominator for f in cells.values()))
    nums = tuple(
        tuple(int(cells.get((i, j), 0) * common) for j in range(width)) for i in range(height)
    )
    return nums, common


def reference_canonical(rows, den):
    """(numerators, denominator) of the canonical form, from Fractions alone."""
    return canonical({(i, j): Fraction(v, den) for i, row in enumerate(rows) for j, v in enumerate(row)})


def rows_of(p):
    """The coefficient rows of p, one per power of y, each packed along x; a
    Poly1 is one row, and zero has none."""
    return p._num


def numerators(p):
    """(rows, denominator) of p, in the shape `canonical` returns."""
    return rows_of(p), p._den


def schoolbook(terms):
    """sum(w * a * b) over the terms by nested loops over Fraction
    coefficients, canonical, in the shape `canonical` returns."""
    cells = {}
    for w, a, b in terms:
        for i, arow in enumerate(rows_of(a)):
            for j, brow in enumerate(rows_of(b)):
                for p, u in enumerate(arow):
                    for q, v in enumerate(brow):
                        key = (i + j, p + q)
                        cells[key] = cells.get(key, 0) + w * Fraction(u, a._den) * Fraction(v, b._den)
    return canonical(cells)


def count_packs(monkeypatch):
    """Record (row, width) for every row the kernel packs from here on."""
    packs = []  # in the kernel's order, which these tests do not pin
    real = polynomials._pack

    def counting_pack(row, width):
        packs.append((row, width))
        return real(row, width)

    monkeypatch.setattr(polynomials, "_pack", counting_pack)
    return packs


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

    @given(
        st.lists(
            st.tuples(
                st.integers(-4, 4),
                st.one_of(poly1_st, integer_poly1_st),
                st.one_of(poly1_st, integer_poly1_st),
            ),
            max_size=5,
        )
    )
    def test_sum_of_products_matches_naive_fold(self, terms):
        want = Poly1()
        for w, a, b in terms:
            want = want + a * b * w
        got = Poly1.sum_of_products(terms)
        assert (got._num, got._den) == (want._num, want._den)

    def test_sum_of_products_over_the_lcm_denominator(self):
        half, third = Poly1([Fraction(1, 2)]), Poly1([0, Fraction(1, 3)])
        got = Poly1.sum_of_products([(1, half, third), (2, third, third), (-1, Poly1.x(), half)])
        assert got == Poly1([0, Fraction(-1, 3), Fraction(2, 9)])  # x/6 + 2x^2/9 - x/2

    def test_sum_of_products_of_nothing_is_zero(self):
        x = Poly1.x()
        for terms in ([], [(0, x, x), (3, Poly1(), x), (2, x, Poly1())]):
            zero = Poly1.sum_of_products(terms)
            assert (zero._num, zero._den) == ((), 1)

    def test_sum_of_products_packs_each_operand_once_per_width(self, monkeypatch):
        packs = count_packs(monkeypatch)
        x, p = Poly1([0, 1]), Poly1([1, 1])
        terms = [(1, x, x), (0, x, x), (2, p, x)]
        assert Poly1.sum_of_products(terms) == Poly1([0, 2, 3])
        assert sorted(packs) == sorted([(x._num[0], 64), (p._num[0], 64)])
        assert Poly1.sum_of_products(terms) == Poly1([0, 2, 3])
        assert x * p == Poly1([0, 1, 1])
        assert len(packs) == 2
        # A bound of 2^64 or more needs 128-bit slots: each operand packs once more.
        big = [(2**64, x, x), (1, p, x)]
        assert Poly1.sum_of_products(big) == Poly1([0, 1, 2**64 + 1])
        assert sorted(packs[2:]) == sorted([(x._num[0], 128), (p._num[0], 128)])

    def test_constant_operands_match_the_schoolbook_sum(self):
        half, p = Poly1([Fraction(1, 2)]), Poly1([Fraction(1, 3), 0, -2])
        terms = [(3, half, p), (-2, p, Poly1([Fraction(-5, 4)])), (1, half, half), (2, Poly1.x(), p)]
        assert numerators(Poly1.sum_of_products(terms)) == schoolbook(terms)

    def test_products_pack_each_operand_once_per_width(self, monkeypatch):
        p = Poly1([Fraction(1, 3), 0, -2])
        constants = (Poly1([Fraction(-5, 4)]), Poly1.constant(1), Poly1([6]))
        packs = count_packs(monkeypatch)
        for c in constants:
            for got in (p * c, c * p):
                assert numerators(got) == schoolbook([(1, p, c)])
        assert sorted(packs) == sorted([(p._num[0], 64)] + [(c._num[0], 64) for c in constants])
        power = p**1
        assert (power._num, power._den) == (p._num, p._den)
        assert len(packs) == 1 + len(constants)

    @given(poly1_st, fractions_st, fractions_st)
    def test_at_xy_agrees_with_evaluation(self, p, x, y):
        assert p.at_xy().evaluate(x, y) == p.evaluate(x * y)
        # Both rings read one surface: the lift in x has p's degree, its
        # value at any y, and p's monomials with j = 0 appended.
        for q in (p, Poly1()):
            lift = Poly2.coerce(q)
            assert lift.degree == q.degree
            assert lift.evaluate(x, y) == q.evaluate(x)
            assert lift.monomials() == [((i, 0), c) for (i,), c in q.monomials()]

    def test_monomials_and_printing_share_one_shape(self):
        p = Poly1([Fraction(1, 2), 0, -3])
        assert p.monomials() == [((0,), Fraction(1, 2)), ((2,), -3)]
        assert Poly1().monomials() == []
        assert repr(p) == "Poly1(1/2 - 3*x^2)"
        assert repr(Poly2([[0, 1], [-1]])) == "Poly2(y - x)"


class TestPoly2:
    def test_coerce_names_the_variable(self):
        p = Poly1([1, 2])  # 1 + 2t
        assert Poly2.coerce(p) == Poly2.coerce(p, "x") == Poly2([[1], [2]])
        assert Poly2.coerce(p, "y") == Poly2([[1, 2]])
        with pytest.raises(ValueError, match="unknown variable 'w'"):
            Poly2.coerce(Poly1([0, 1]), "w")

    def test_coerce_in_x_is_a_view_that_packs_nothing_new(self, monkeypatch):
        p, q = Poly1([Fraction(1, 2), 0, -3]), Poly2([[1, 2], [0, 1]])
        assert p * p == Poly1([Fraction(1, 4), 0, -3, 0, 9])  # packs p's row
        view = Poly2.coerce(p)
        assert view._num is p._num and view._den == p._den
        packs = count_packs(monkeypatch)
        assert view * view == Poly2([[Fraction(1, 4)], [0], [-3], [0], [9]])
        assert packs == []
        assert view * q == Poly2([[Fraction(1, 2), 1], [0, Fraction(1, 2)], [-3, -6], [0, -3]])
        assert sorted(packs) == sorted((row, 64) for row in q._num)

    @given(st.lists(st.lists(fractions_st, max_size=4), max_size=4), fractions_st, fractions_st)
    def test_public_convention_matches_a_fraction_reference(self, grid, x, y):
        self.check_convention(grid, x, y)

    @pytest.mark.parametrize("grid", [[[1, 2, 3], [4], [0, 0, 5]], [[0, 7], [0, 0, 0, Fraction(1, 2)]]])
    def test_public_convention_on_non_symmetric_grids(self, grid):
        self.check_convention(grid, Fraction(2, 3), Fraction(-5, 7))

    @staticmethod
    def check_convention(grid, x, y):
        """Poly2(grid) against grid[i][j] read as the coefficient of x^i y^j."""
        cells = {(i, j): Fraction(c) for i, row in enumerate(grid) for j, c in enumerate(row) if c}
        p = Poly2(grid)
        span = range(6)
        assert all(p.coefficient(i, j) == cells.get((i, j), 0) for i in span for j in span)
        assert p.evaluate(x, y) == sum(c * x**i * y**j for (i, j), c in cells.items())
        assert p.monomials() == sorted(cells.items(), key=lambda t: (t[0][0] + t[0][1], t[0]))
        assert p.degree == max((i + j for i, j in cells), default=-1)
        dx = {(i - 1, j): i * c for (i, j), c in cells.items() if i}
        d = p.derivative()
        assert all(d.coefficient(i, j) == dx.get((i, j), 0) for i in span for j in span)

    def test_grid_indexing(self):
        p = Poly2([[1, 2], [3, 0]])  # 1 + 2y + 3x
        assert p.coefficient(0, 1) == 2
        assert p.coefficient(1, 0) == 3
        assert p.coefficient(5, 5) == 0
        assert p.degree == 1
        assert Poly2([[0, 0, 5], [0, 3]]).degree == 2
        assert Poly2().degree == -1

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

    def test_constant_operands_match_the_schoolbook_sum(self):
        c, p = Poly2([[Fraction(3, 2)]]), Poly2([[1, Fraction(1, 3)], [0, -2]])
        terms = [(2, c, p), (-1, p, Poly2.constant(-4)), (5, c, c), (1, Poly2.x(), Poly2.y())]
        assert numerators(Poly2.sum_of_products(terms)) == schoolbook(terms)

    def test_products_pack_each_operand_once_per_width(self, monkeypatch):
        p = Poly2([[1, Fraction(1, 3)], [0, -2]])
        constants = (Poly2([[Fraction(3, 2)]]), Poly2.constant(1), Poly2.constant(-4))
        packs = count_packs(monkeypatch)
        for c in constants:
            for got in (p * c, c * p):
                assert numerators(got) == schoolbook([(1, p, c)])
        assert sorted(packs) == sorted([(row, 64) for row in p._num] + [(c._num[0], 64) for c in constants])
        assert p * p == Poly2([[1, Fraction(2, 3), Fraction(1, 9)], [0, -4, Fraction(-4, 3)], [0, 0, 4]])
        assert len(packs) == 5
        power = p**1
        assert (power._num, power._den) == (p._num, p._den)

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

    def test_diff_x(self):
        p = Poly2([[0, 1], [2, 0], [0, 3]])  # y + 2x + 3x^2 y
        assert p.derivative() == Poly2([[2], [0, 6]])
        assert p.derivative(2) == Poly2([[0, 6]])
        assert p.derivative(0) == p

    def test_embeddings(self):
        p = Poly1([1, 2, 3])
        assert p.as_poly2_in_x() == Poly2([[1], [2], [3]])
        assert p.as_poly2_in_y() == Poly2([[1, 2, 3]])

    def test_monomial_order_is_graded_lex(self):
        p = Poly2([[0, 0, 5], [0, 3], [7]])  # 5y^2 + 3xy + 7x^2
        exps = [e for e, _ in p.monomials()]
        assert exps == [(0, 2), (1, 1), (2, 0)]


class TestConvolutionKernels:
    """The packed product kernel on known products: one row (the 1-D
    convolution of a Poly1) and several rows (the 2-D one of a Poly2)."""

    def test_conv1_known_product(self):
        # (1 + 2x)(3 + x) = 3 + 7x + 2x^2
        assert (Poly1([1, 2]) * Poly1([3, 1]))._num == ((3, 7, 2),)
        assert Poly1.sum_of_products([(1, Poly1([1, 2]), Poly1([3, 1]))])._num == ((3, 7, 2),)

    def test_conv1_empty_operand(self):
        for a, b in ((Poly1(), Poly1([1, 2])), (Poly1([1]), Poly1())):
            assert numerators(a * b) == ((), 1)
            assert numerators(Poly1.sum_of_products([(1, a, b)])) == ((), 1)

    def test_conv2_known_product(self):
        # (x)(y) = xy
        assert (Poly2.x() * Poly2.y())._num == ((0, 0), (0, 1))


# Coefficients large enough that |a|_1 |b|_1 straddles 2^63 and 2^64, where
# the slot width steps from one 64-bit word to two.
wide_st = st.one_of(st.just(0), st.integers(-(2**33), 2**33))
wide_poly1_st = st.lists(wide_st, max_size=4).map(Poly1)
wide_poly2_st = st.lists(st.lists(wide_st, max_size=3), max_size=3).map(Poly2)
# Bounds on both sides of the steps from one word to two and from two to three.
STRADDLE = [2**e + d for e in (63, 64, 127, 128) for d in (-1, 0, 1)]


def straddling_terms(ring, bound, sign):
    """Term lists whose bound sum(|w| |a|_1 |b|_1) is `bound` and one of
    whose output coefficients is sign * bound: one product placed mid-row,
    and the same value as a sum of two products."""
    if ring is Poly1:
        a, b = Poly1.monomial(2, sign * bound), Poly1([0, 1])
        c, d = Poly1.monomial(3, sign), Poly1.monomial(0, bound - 5)
        e = Poly1.monomial(3, 5 * sign)
    else:
        a, b = Poly2([[0], [0, 0, sign * bound]]), Poly2([[0, 1]])
        c, d = Poly2([[0], [0, 0, 0, sign]]), Poly2([[bound - 5]])
        e = Poly2([[0], [0, 0, 5 * sign]])
    return [[(1, a, b)], [(1, c, d), (1, e, Poly2.y() if ring is Poly2 else Poly1.constant(1))]]


class TestPackedKernel:
    """Both rings' products and fused sums against `schoolbook`, which shares
    no code with the kernel."""

    @given(
        st.lists(
            st.tuples(
                st.integers(-4, 4),
                st.one_of(poly1_st, integer_poly1_st, wide_poly1_st),
                st.one_of(poly1_st, integer_poly1_st, wide_poly1_st),
            ),
            max_size=5,
        )
    )
    def test_poly1_sum_of_products_matches_schoolbook(self, terms):
        assert numerators(Poly1.sum_of_products(terms)) == schoolbook(terms)

    @given(
        st.lists(
            st.tuples(
                st.integers(-4, 4),
                st.one_of(padded_poly2_st(), wide_poly2_st),
                st.one_of(padded_poly2_st(), wide_poly2_st),
            ),
            max_size=5,
        )
    )
    def test_poly2_sum_of_products_matches_schoolbook(self, terms):
        assert numerators(Poly2.sum_of_products(terms)) == schoolbook(terms)

    @given(st.one_of(poly1_st, wide_poly1_st), st.one_of(poly1_st, wide_poly1_st))
    def test_poly1_product_matches_schoolbook(self, a, b):
        assert numerators(a * b) == schoolbook([(1, a, b)])

    @given(st.one_of(poly2_st, wide_poly2_st), st.one_of(poly2_st, wide_poly2_st))
    def test_poly2_product_matches_schoolbook(self, a, b):
        assert numerators(a * b) == schoolbook([(1, a, b)])

    @given(st.one_of(poly1_st, wide_poly1_st, poly2_st, wide_poly2_st), st.integers(0, 4))
    def test_powers_match_evaluation(self, p, e):
        # p^e has degree at most e * deg p in each variable, so agreeing with
        # Horner evaluation on that many nodes per variable is equality.
        nodes = range(max(p.degree, 0) * e + 1)
        q = p**e
        if isinstance(p, Poly1):
            assert all(q.evaluate(x) == p.evaluate(x) ** e for x in nodes)
        else:
            assert all(q.evaluate(x, y) == p.evaluate(x, y) ** e for x in nodes for y in nodes)

    @pytest.mark.parametrize("ring", [Poly1, Poly2])
    @pytest.mark.parametrize("bound", STRADDLE)
    def test_coefficients_at_the_bound_are_exact(self, ring, bound):
        for sign in (1, -1):
            for terms in straddling_terms(ring, bound, sign):
                assert numerators(ring.sum_of_products(terms)) == schoolbook(terms)

    def test_one_bit_short_slot_width_is_caught(self, monkeypatch):
        # Without the sign bit, a bound of exactly 64 (or 128) bits gets 64
        # (or 128) bit slots, where a coefficient of +bound overflows its
        # slot; the cases above notice.
        monkeypatch.setattr(polynomials, "_slot_width", lambda bound: (bound.bit_length() + 63) // 64 * 64)
        for ring in (Poly1, Poly2):
            caught = set()
            for bound in STRADDLE:
                for terms in straddling_terms(ring, bound, 1):
                    try:
                        if numerators(ring.sum_of_products(terms)) != schoolbook(terms):
                            caught.add(bound)
                    except OverflowError:
                        caught.add(bound)
            assert caught == {2**63, 2**63 + 1, 2**64 - 1, 2**127, 2**127 + 1, 2**128 - 1}

    @pytest.mark.parametrize("ring", [Poly1, Poly2])
    def test_one_polynomial_reused_at_two_slot_widths(self, ring):
        p = ring.x() - 3 if ring is Poly1 else ring.x() - 3 * ring.y() + 2
        huge = ring.constant(2**70)
        for terms in ([(1, p, p)], [(1, p, huge)], [(-2, p, p), (1, huge, p)], [(1, p, p)]):
            assert numerators(ring.sum_of_products(terms)) == schoolbook(terms)
        assert sorted(p._kron[3]) == [64, 128]
