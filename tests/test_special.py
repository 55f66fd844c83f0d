import cmath
import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rrcflab.numerics import (DomainError, PrecisionContext,
                              SeriesDivergenceError)
from rrcflab.quadrature import integrate_finite
from rrcflab.special import (BetaBase, PoleError, appell_f1, beta_sqrt,
                             complete_beta, elliptic_k,
                             elliptic_k_complementary, gamma, gauss_2f1,
                             incomplete_beta, pn_poly, pochhammer,
                             pochhammer_negative, quadratic_antiderivative_f1,
                             quadratic_power_quadrature,
                             quadratic_power_series, sin_multiple_p6)

# int_0^inf e^-t t^(1/6 - 1) dt by tanh-sinh quadrature (independent oracle)
GAMMA_SIXTH_ORACLE = 5.566316001780237


class TestGamma:
    def test_half(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_factorial(self):
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-13)

    def test_sixth_against_quadrature_oracle(self):
        assert gamma(1.0 / 6.0) == pytest.approx(GAMMA_SIXTH_ORACLE, rel=1e-12)

    def test_real_axis_window(self):
        for x in (0.05, 0.3, 1.7, 12.0, 50.0):
            assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-12)

    def test_pole(self):
        with pytest.raises(PoleError):
            gamma(-3.0)

    @pytest.mark.parametrize("z", [1e-13, 1e-300])
    def test_near_zero_is_not_a_pole(self, z):
        # a pole is judged within a few ulps of the integer, not within 1e-12
        assert gamma(z) == pytest.approx(1.0 / z - 0.5772156649015329, rel=1e-15)

    @pytest.mark.parametrize("z", [
        -3.0 + 1e-12, -2.0 - 1e-10, -10.000001, -1e-8, -7.3, -20.5,
        complex(-3.0 + 1e-12, 1e-9), complex(-2.0 - 1e-10, 1e-12),
        complex(-5.0, 0.5), complex(-0.4, 3.0)])
    def test_near_negative_poles_against_mpmath(self, z):
        # the reflection takes sin(pi (z - n)): sin of the rounded product
        # pi z left gamma(-3 + 1e-12) 2.8e-4 off and gamma(-2 - 1e-10) 5.4e-7
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            expected = complex(mp.gamma(mp.mpc(z)))
        assert abs(gamma(z) - expected) <= 1e-13 * abs(expected)

    def test_complex_input_returns_complex(self):
        assert isinstance(gamma(0.5 + 1.0j), complex)
        assert isinstance(gamma(0.5), float)

    @pytest.mark.parametrize("z", [0.1, 0.3, 0.7, 0.25 + 0.5j, -0.4 + 1.2j])
    def test_reflection(self, z):
        val = gamma(complex(z)) * gamma(complex(1.0 - z)) \
            * cmath.sin(math.pi * z) / math.pi
        assert abs(val - 1.0) < 1e-11


class TestGauss2F1:
    def test_at_zero(self):
        assert gauss_2f1(0.3, 0.7, 1.1, 0.0) == 1.0

    def test_log_closed_form(self):
        z = 0.3
        assert gauss_2f1(1.0, 1.0, 2.0, z) == pytest.approx(
            -math.log(1.0 - z) / z, rel=1e-11)

    def test_series_vs_integral_at_quintic_argument(self):
        z = (11.0 - 5.0 * math.sqrt(5.0)) / (11.0 + 5.0 * math.sqrt(5.0))
        s = gauss_2f1(1 / 6, 7 / 6, 2.0, z, method="series")
        i = gauss_2f1(1 / 6, 7 / 6, 2.0, z, method="integral")
        assert s == pytest.approx(i, rel=1e-10)

    def test_euler_transform_window(self):
        # |z| in (0.8, 1) goes through the Euler transformation
        val = gauss_2f1(0.25, 0.5, 1.5, 0.9)
        ref = gauss_2f1(0.25, 0.5, 1.5, 0.9, method="integral")
        assert val == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("a, b, c, z", [
        (0.5, 0.75, 1.9, 0.3 + 0.4j),
        (1 / 3, 1 / 6, 7 / 6, -0.8 + 0.5j),
        (0.7 + 0.2j, 0.4, 1.3, 0.6 - 0.7j),
        (0.5, 0.75, 1.9, 2.0 + 1.0j),   # off the cut, outside the unit disk
    ])
    def test_integral_route_at_complex_points_against_mpmath(self, a, b, c, z):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = complex(mpmath.hyp2f1(a, b, c, z))
        val = gauss_2f1(a, b, c, z, method="integral")
        assert abs(val - ref) <= 1e-12 * abs(ref)

    def test_terminating(self):
        assert gauss_2f1(-2.0, 1.0, 3.0, 2.0) == pytest.approx(
            1.0 - 2.0 * 2.0 / 3.0 + (2.0 / 12.0) * 4.0, rel=1e-13)

    def test_bad_c(self):
        with pytest.raises(DomainError):
            gauss_2f1(0.5, 0.5, -1.0, 0.3)


class TestAppellF1:
    def test_reduces_to_2f1_at_zero_second_argument(self):
        lhs = appell_f1(0.9, 1.0, 1.0, 2.0, 0.3, 0.0)
        assert lhs == pytest.approx(gauss_2f1(0.9, 1.0, 2.0, 0.3), rel=1e-11)

    def test_swap_symmetry(self):
        a = appell_f1(0.9, 1.0, 1.0, 2.0, 0.3, 0.2j)
        b = appell_f1(0.9, 1.0, 1.0, 2.0, 0.2j, 0.3)
        assert abs(a - b) < 1e-12 * abs(a)

    def test_series_vs_integral(self):
        a = appell_f1(0.9, 1.0, 1.0, 2.0, 0.3, 0.2j)
        b = appell_f1(0.9, 1.0, 1.0, 2.0, 0.3, 0.2j, method="integral")
        assert abs(a - b) < 1e-9 * abs(a)

    def test_reduces_to_2f1_on_the_whole_disk(self):
        # the series' stopping rule leaves up to ~20 tol behind at |x| = 0.94
        # (the oracle bound below); the integral route is good to ~1e-15
        for x in (-0.93, -0.5, 0.2, 0.94, 0.6 - 0.7j):
            lhs = complex(appell_f1(1.3, -0.7, 2.1, 2.6, x, 0.0))
            rhs = complex(gauss_2f1(1.3, -0.7, 2.6, x, method="integral"))
            assert abs(lhs - rhs) <= 30.0 * PrecisionContext().tol(abs(rhs))

    def test_series_past_170_terms_matches_integral(self):
        # |x| = 0.95 needs hundreds of terms; a factorial-based series
        # overflows at term 170
        args = (0.9, 1.0, 1.5, 2.0, 0.95, 0.3)
        capped = PrecisionContext(max_series_terms=170)
        with pytest.raises(SeriesDivergenceError):
            appell_f1(*args, capped, method="series")
        series = appell_f1(*args, method="series")
        assert series == pytest.approx(
            appell_f1(*args, method="integral"), rel=1e-10)

    def test_terminating_with_nonpositive_integer_c(self):
        # F1(-1; b1, b2; -2; x, y) = 1 + (b1 x + b2 y)/2
        assert appell_f1(-1.0, 0.5, 3.0, -2.0, -0.9, 0.4) == pytest.approx(
            1.0 + (0.5 * -0.9 + 3.0 * 0.4) / 2.0, rel=1e-15)

    def test_nonpositive_integer_c(self):
        with pytest.raises(DomainError):
            appell_f1(0.5, 1.0, 1.0, -2.0, 0.3, 0.2)

    def test_tiny_positive_c_is_not_the_pole(self):
        # hypothesis drew c = 1e-320, which an absolute pole tolerance of
        # 1e-12 took for c = 0
        assert appell_f1(0.0, 0.0, 0.0, 1e-320, 0.0, 0.0) == 1.0

    def test_gauss_2f1_at_tiny_c(self):
        mp = pytest.importorskip("mpmath")
        ref = mp.hyp2f1(0.5, 0.5, 1e-13, 0.3)
        assert gauss_2f1(0.5, 0.5, 1e-13, 0.3) == pytest.approx(float(ref), rel=1e-12)

    def test_antiderivative_of_quadratic_surd(self):
        # int_0^0.4 x^2 (x^2+x+1)^(1/2) dx against the F1 closed form
        quad = integrate_finite(
            lambda x: x * x * math.sqrt(x * x + x + 1.0), 0.0, 0.4)
        closed = quadratic_antiderivative_f1(2.0, 0.5, 1.0, 1.0, 1.0, 0.4)
        assert abs(closed.imag) < 1e-12
        assert closed.real == pytest.approx(quad, rel=1e-9)


F1_PARAMS = st.floats(min_value=-3.0, max_value=3.0)
# c kept 1e-3 away from the poles 0, -1, -2, ...
F1_LOWER = F1_PARAMS.filter(lambda c: c > 0.5 or abs(c - round(c)) > 1e-3)
F1_REAL_ARG = st.floats(min_value=-0.95, max_value=0.95)
F1_COMPLEX_ARG = st.builds(cmath.rect, st.floats(min_value=0.0, max_value=0.95),
                           st.floats(min_value=-math.pi, max_value=math.pi))
F1_SETTINGS = settings(max_examples=40, deadline=None)


def _mp_abs_terms(mp, a, b1, b2, c, x, y):
    """sum_s |(a)_s/(c)_s g_s|, g_s the anti-diagonal sum of the F1 double
    series, in mpmath: the scale of the terms a float summation adds."""
    a, b1, b2, c, x, y = (mp.mpmathify(v) for v in (a, b1, b2, c, x, y))
    if max(abs(x), abs(y)) >= 1:
        return mp.inf
    g_prev, g, r, total = mp.mpf(0), mp.mpf(1), mp.mpf(1), mp.mpf(0)
    for s in range(20000):
        t = abs(r * g)
        total += t
        if s > 10 and t < mp.mpf(10) ** -25 * total:
            break
        g_prev, g = g, (((x + y) * s + b1 * x + b2 * y) * g
                        - x * y * (s + b1 + b2 - 1) * g_prev) / (s + 1)
        r *= (a + s) / (c + s)
    return total


def _assert_f1_matches_mpmath(a, b1, b2, c, x, y):
    """appell_f1 against mpmath.appellf1 at 30 digits.

    Bound: 30 tol(|ref|) + 4 eps S, tol the default context's
    1e-12 |ref| + 1e-15.  S is sum |terms| of the better-conditioned of the
    direct series and its DLMF 16.16.1 transform, so 4 eps S is the
    rounding any float summation of the series meets (measured: at most
    0.2 eps S, at a complex point with S = 3e7 |ref|).  The series stops on
    two terms below tol, and with a term ratio up to 0.95 the tail left
    behind is ~20 tol (measured: 2.0e-11 relative over 500 random points).
    """
    mp = pytest.importorskip("mpmath")
    val = complex(appell_f1(a, b1, b2, c, x, y))
    with mp.workdps(30):
        ref = complex(mp.appellf1(a, b1, b2, c, x, y))
        xm, ym = mp.mpmathify(x), mp.mpmathify(y)
        pfaff = abs((1 - xm) ** (-b1) * (1 - ym) ** (-b2)) * _mp_abs_terms(
            mp, c - a, b1, b2, c, xm / (xm - 1), ym / (ym - 1))
        scale = float(min(_mp_abs_terms(mp, a, b1, b2, c, x, y), pfaff))
    bound = 30.0 * PrecisionContext().tol(abs(ref)) \
        + 4.0 * sys.float_info.epsilon * scale
    assert abs(val - ref) <= bound, (val, ref, scale)


class TestAppellF1AgainstMpmath:
    # The far points of the kernels benchmark panel: at max(|x|, |y|) of
    # 0.91, 0.90 and 0.80 a factorial-based series overflowed at term 170.
    # The first has F1 = -0.193 while its direct series has terms of 4.4e5,
    # so it also needs the DLMF 16.16.1 transform.
    PANEL = [
        (2.5577163366399445, -0.3640493728462024, 1.1413737913314455,
         -1.6846740295935476, -0.3722894639963086, -0.9118364108883198),
        (-2.7983348561146, 1.7420518624395616, -1.7395575441412756,
         -2.4649748678508865, -0.8970572537699233, -0.06500436425961353),
        (2.6988183410239106, -0.40537055699835056, 2.9186223892933008,
         1.8781418189675403, -0.4470491400211802, -0.7985978247650019),
    ]

    @pytest.mark.parametrize("args", PANEL)
    def test_panel_points(self, args):
        _assert_f1_matches_mpmath(*args)

    def test_transformed_point_meets_relative_bound(self):
        # the direct series' rounding alone would miss by ~76 x 1e-11
        mp = pytest.importorskip("mpmath")
        args = self.PANEL[0]
        with mp.workdps(30):
            ref = float(mp.appellf1(*args))
        assert abs(appell_f1(*args) - ref) <= 1e-11 * abs(ref)

    @F1_SETTINGS
    @given(F1_PARAMS, F1_PARAMS, F1_PARAMS, F1_LOWER, F1_REAL_ARG, F1_REAL_ARG)
    @example(0.9, 1.0, 1.5, 2.0, 0.95, 0.3)
    @example(0.9, 1.0, 1.5, 2.0, -0.95, 0.95)
    def test_real(self, a, b1, b2, c, x, y):
        _assert_f1_matches_mpmath(a, b1, b2, c, x, y)

    @F1_SETTINGS
    @given(F1_PARAMS, F1_PARAMS, F1_PARAMS, F1_LOWER, F1_COMPLEX_ARG,
           F1_COMPLEX_ARG)
    def test_complex(self, a, b1, b2, c, x, y):
        _assert_f1_matches_mpmath(a, b1, b2, c, x, y)


class TestIncompleteBeta:
    def test_at_zero(self):
        assert incomplete_beta(0.0, BetaBase(0.4, 2.0)) == 0.0

    def test_uniform_base(self):
        assert incomplete_beta(0.37, BetaBase(1.0, 1.0)) == pytest.approx(
            0.37, rel=1e-13)

    def test_against_quadrature(self):
        base = BetaBase(1 / 6, 2 / 3)
        direct = integrate_finite(
            lambda t: t ** (1 / 6 - 1) * (1 - t) ** (2 / 3 - 1), 0.0, 0.8,
            singular_at_a=True)
        assert incomplete_beta(0.8, base) == pytest.approx(direct, rel=1e-10)

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(DomainError):
            incomplete_beta(1.5, BetaBase(1.0, 1.0))

    @given(st.sampled_from([1 / 6, 1 / 4, 1 / 3, 1 / 2]),
           st.sampled_from([0.1, 0.25, 0.5]))
    @settings(max_examples=12, deadline=None)
    def test_complement_identity(self, alpha, x):
        base = BetaBase(alpha, alpha)
        total = incomplete_beta(x, base) + incomplete_beta(1.0 - x, base)
        expected = gamma(alpha) ** 2 / gamma(2.0 * alpha)
        assert total == pytest.approx(expected, rel=1e-11)

    def test_complement_constant_is_pi_at_half(self):
        base = BetaBase(0.5, 0.5)
        total = incomplete_beta(0.3, base) + incomplete_beta(0.7, base)
        assert total == pytest.approx(math.pi, rel=1e-12)

    def test_monotone(self):
        base = BetaBase(1 / 6, 2 / 3)
        values = [incomplete_beta(x, base) for x in (0.1, 0.3, 0.6, 0.9)]
        assert values == sorted(values)

    def test_beta_sqrt(self):
        assert beta_sqrt(0.3, 0.5) == pytest.approx(
            math.sqrt(2.0 * math.asin(math.sqrt(0.3))), rel=1e-12)


class TestEllipticK:
    def test_at_zero(self):
        assert elliptic_k(0.0) == pytest.approx(math.pi / 2.0, rel=1e-15)

    def test_lemniscatic_value(self):
        # K(1/sqrt2) = Gamma(1/4)^2 / (4 sqrt(pi))
        assert elliptic_k(1.0 / math.sqrt(2.0)) == pytest.approx(
            1.854074677301372, rel=1e-14)

    def test_quarter_period_ratio_at_silver_modulus(self):
        k = 3.0 - 2.0 * math.sqrt(2.0)
        assert elliptic_k_complementary(k) / elliptic_k(k) == pytest.approx(
            2.0, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            elliptic_k(1.0)


class TestPnPoly:
    def test_constant(self):
        assert pn_poly(0, 0.7, 0.9) == 1.0

    def test_geometric_reduction(self):
        assert pn_poly(4, 1.0, 0.5) == pytest.approx(1.9375, rel=1e-14)

    def test_against_convolution_oracle(self):
        # n! / (nu)_n * sum_l (nu)_l (nu)_(n-l) x^l / (l! (n-l)!)
        n, nu, x = 2, 0.5, 0.3
        conv = sum(pochhammer(nu, l) * pochhammer(nu, n - l) * x ** l
                   / (math.factorial(l) * math.factorial(n - l))
                   for l in range(n + 1))
        oracle = math.factorial(n) * conv / pochhammer(nu, n)
        assert pn_poly(n, nu, x) == pytest.approx(oracle, rel=1e-13)

    def test_rejects_negative_order(self):
        with pytest.raises(DomainError):
            pn_poly(-1, 0.5, 0.1)


class TestSinSextuple:
    @pytest.mark.parametrize("y", [0.0, 1.0, -1.0])
    def test_vanishes_at_cardinal_points(self, y):
        assert sin_multiple_p6(y) == pytest.approx(0.0, abs=1e-15)

    def test_quarter(self):
        assert sin_multiple_p6(0.25) == pytest.approx(
            math.sin(6.0 * math.asin(0.25)), rel=1e-14)

    @given(st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_transcendental(self, y):
        assert sin_multiple_p6(y) == pytest.approx(
            math.sin(6.0 * math.asin(y)), abs=1e-13)


class TestQuadraticPowerSeries:
    def test_against_quadrature(self):
        args = (-5 / 6, 5 / 12, 1.0, -2.0, 1.0, 0.01)
        series = quadratic_power_series(*args)
        quad = quadratic_power_quadrature(*args)
        assert complex(series.value).real == pytest.approx(quad, rel=1e-12)

    def test_complex_roots_real_result(self):
        args = (0.0, 0.5, 1.0, 1.0, 1.0, 0.4)
        series = quadratic_power_series(*args)
        quad = quadratic_power_quadrature(*args)
        assert abs(complex(series.value).imag) < 1e-13
        assert complex(series.value).real == pytest.approx(quad, rel=1e-11)


class TestNegativePochhammer:
    def test_matches_gamma_quotient(self):
        # (3/4)_(-2) = Gamma(3/4 - 2)/Gamma(3/4) = 1/((3/4-2)(3/4-1))
        assert pochhammer_negative(0.75, 2) == pytest.approx(16.0 / 5.0, rel=1e-14)

    def test_reduces_arcsin_coefficient(self):
        for n in range(1, 6):
            coeff = pochhammer(0.25, n) * pochhammer_negative(0.75, n) \
                / pochhammer_negative(0.5, n)
            assert coeff == pytest.approx(pochhammer(0.5, n), rel=1e-12)
