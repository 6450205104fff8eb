"""The pure-Python kernels: dense convolution (in `polynomials`) and the
Simpson quadrature loop (in `series`)."""

import math

from bernkit.polynomials import conv1, conv2
from bernkit.series import simpson_exp_monomial


class TestPythonKernels:
    def test_conv1_known_product(self):
        # (1 + 2x)(3 + x) = 3 + 7x + 2x^2
        assert conv1([1, 2], [3, 1]) == [3, 7, 2]

    def test_conv1_empty_operand(self):
        assert conv1([], [1, 2]) == []
        assert conv1([1], []) == []

    def test_conv2_known_product(self):
        # (x)(y) = xy
        assert conv2([[0], [1]], [[0, 1]]) == [[0, 0], [0, 1]]

    def test_simpson_constant_integrand(self):
        # integral of e^(-t) over [0, 20] = 1 - e^-20
        approx = simpson_exp_monomial(0, 1.0, 20.0, 2_000)
        assert abs(approx - (1 - math.exp(-20))) < 1e-10
