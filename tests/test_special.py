import cmath
import collections
import functools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rrcflab import numerics, special
from rrcflab.numerics import (DEFAULT_CTX, DomainError, KernelError,
                              PrecisionContext, SeriesDivergenceError, SeriesSum,
                              series_tolerance)
from rrcflab.quadrature import integrate_finite
from rrcflab.routes import quadratic_power_integral
from rrcflab.special import (BetaBase, PoleError, _euler_integral_f1,
                             _is_nonpositive_int, _route_2f1,
                             _series_2f1, appell_f1,
                             beta_sqrt, complete_beta, elliptic_k,
                             elliptic_k_complementary, gamma, gauss_2f1,
                             incomplete_beta, log_gamma_real, pochhammer,
                             pochhammer_negative, quadratic_power_series,
                             quadratic_roots, sin_multiple_p6)

# int_0^inf e^-t t^(1/6 - 1) dt by tanh-sinh quadrature (independent oracle)
GAMMA_SIXTH_ORACLE = 5.566316001780237


def quadratic_antiderivative_f1(m, n, a, b, c, x):
    """int_0^x t^m (a t^2 + b t + c)^n dt expressed through Appell F1:

        c^n x^(m+1)/(m+1) * F1[m+1, -n, -n, m+2; x/r1, x/r2]

    with r1, r2 the quadratic's roots (so c (1 - t/r1)(1 - t/r2) equals the
    quadratic identically).
    """
    r1, r2 = quadratic_roots(a, b, c)
    return complex(c) ** n * complex(x) ** (m + 1.0) / (m + 1.0) * complex(
        appell_f1(m + 1.0, -n, -n, m + 2.0, x / r1, x / r2))


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

    @pytest.mark.oracle("gamma")
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

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=142.0, max_value=171.6))
    @example(143.0)
    @example(170.0)
    @example(171.6)
    def test_past_142_against_math_gamma(self, x):
        # a real x takes math.gamma, which stays finite up to 171.6
        assert gamma(x) == pytest.approx(math.gamma(x), rel=3e-13)

    @pytest.mark.oracle("gamma")
    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=-172.6, max_value=172.6),
           st.floats(min_value=-20.0, max_value=20.0))
    @example(-150.5, 0.0)
    @example(-170.9994, 0.0)   # gamma(1 - z) overflows, gamma(z) does not
    @example(150.0, 5.0)
    @example(-150.5, 3.0)
    @example(0.0, 2.225073858507203e-309)   # |gamma| = 4.5e308: 1 - e^(-2 pi y) is 0
    # the two doubles on either side of where the whole Lanczos power
    # t^(w + 1/2) overflows, and where the reflection's power of 1 - z does
    @example(142.22494181490285, 1.0)
    @example(142.22494181490288, 1.0)
    @example(-141.22494181490285, 1.0)
    @example(-141.22494181490288, 1.0)
    @example(4.733254832053463e-309, 4.733254832053463e-309)   # |gamma| = 1.5e308
    @example(171.625, 1.0)   # both parts doubles, the modulus past them
    def test_normal_doubles_against_mpmath(self, x, y):
        assume(not _is_nonpositive_int(complex(x, y)))   # the poles
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            exact = mp.gamma(mp.mpc(x, y))
            # judged in mpmath: at (171.625, 1) both parts are doubles, and
            # abs() of the complex raised OverflowError
            size = float(abs(exact))
        z = complex(x, y) if y else x
        if size > sys.float_info.max:
            with pytest.raises(DomainError):
                gamma(z)
        else:
            assume(size >= sys.float_info.min)
            assert abs(gamma(z) - complex(exact)) <= 5e-13 * size

    @pytest.mark.oracle("gamma")
    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-20.0, max_value=0.5, exclude_max=True),
           st.floats(min_value=200.0, max_value=500.0), st.booleans())
    @example(-3.18, 271.77, False)   # sin(pi z) overflowed: a DomainError at 1.1e-194
    @example(-0.2, 226.5, True)
    @example(0.3, 450.0, False)      # |gamma| = 7.7e-308, next to the normal doubles
    @example(-0.3, 226.21895127535552, False)   # either side of where sin(pi z)
    @example(-0.3, 226.21895127535555, False)   # overflows a double
    def test_far_from_the_real_axis_against_mpmath(self, x, y, below):
        # the phase Im((w + 1/2) ln t) of the Lanczos power is about
        # |y| ln|y| radians, and its rounding is the error: the worst seen
        # over 3,000 points is 0.28 of the bound
        mp = pytest.importorskip("mpmath")
        z = complex(x, -y if below else y)
        with mp.workdps(30):
            exact = mp.gamma(mp.mpc(z))
            ref, size = complex(exact), float(abs(exact))
        assume(not 0.5 < size / sys.float_info.min < 2.0)
        if size < sys.float_info.min:
            with pytest.raises(DomainError):
                gamma(z)
        else:
            assert abs(gamma(z) - ref) <= 1e-15 * y * math.log(y) * size

    @pytest.mark.oracle("gamma")
    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=-172.6, max_value=171.6))
    @example(-170.9994)
    @example(171.62437695630271)   # the largest double with a finite gamma
    @example(-3.0 + 2e-15)
    @example(1e-300)
    def test_real_axis_against_mpmath(self, x):
        # math.gamma: 9.1e-16 relative at worst over 200,000 points of the
        # interval and 4,000 more next to its poles and 0, so 2e-15 leaves
        # a margin of 2.2 (the Lanczos sum reached 1.5e-13 next to -128)
        assume(not _is_nonpositive_int(x))   # the poles
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            ref = mp.gamma(mp.mpf(x))
        size = abs(ref)
        # where |gamma| crosses a bound of the normal doubles, either
        # outcome is a rounding of the true value
        assume(not (0.5 < size / sys.float_info.min < 2.0
                    or 0.5 < size / sys.float_info.max < 2.0))
        if not sys.float_info.min <= size <= sys.float_info.max:
            with pytest.raises(DomainError):
                gamma(x)
        else:
            val = gamma(x)
            assert isinstance(val, float)
            assert abs(val - ref) <= 2e-15 * size

    @pytest.mark.oracle("log_gamma_real")
    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1e6, exclude_min=True))
    @example(5e-324)
    @example(1.0)
    @example(2.0)
    @example(2.2063255646445237)   # the worst point measured
    @example(1e6)
    def test_log_gamma_real_against_mpmath(self, x):
        # math.lgamma is accurate to a few ulps of |ref| + 1: absolute next
        # to its zeros at 1 and 2, relative elsewhere.  The worst over
        # 200,000 points of (0, 1e6] was 1.26e-15 (|ref| + 1) at 2.206, so
        # 3e-15 leaves a margin of 2.4
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            ref = mp.loggamma(mp.mpf(x))
        assert abs(log_gamma_real(x) - ref) <= 3e-15 * (abs(ref) + 1.0)

    def test_log_gamma_real_past_the_doubles(self):
        # log Gamma(1e306) overflows a double
        with pytest.raises(DomainError):
            log_gamma_real(1e306)

    @pytest.mark.parametrize("z", [171.7, 200.0, 1e300, -171.5, -1000.5,
                                   complex(200.0, 1.0), complex(0.7, 600.0),
                                   complex(-0.2, -500.0), complex(171.625, -0.43),
                                   complex(3e-309, 3e-309)])
    def test_outside_the_normal_doubles_is_a_domain_error(self, z):
        # past 171.6 gamma overflows; left of -171 it falls below the normal
        # doubles, as 1 / gamma(1 - z) with gamma(1 - z) past the double range,
        # and so it does far off the real axis (0.7 + 600i returned -0j).
        # At 171.625 - 0.43i and 3e-309 + 3e-309i both parts are finite but
        # |gamma| is not, and abs() raised a raw OverflowError
        with pytest.raises(DomainError):
            gamma(z)

    @pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan,
                                   complex(math.inf, 0.0), complex(-math.inf, 0.0),
                                   complex(math.nan, 0.0), complex(2.0, -math.inf)])
    def test_non_finite_argument_is_a_domain_error(self, z):
        # round() of the real part raised a raw OverflowError or ValueError,
        # and an infinite imaginary part a ZeroDivisionError
        with pytest.raises(DomainError, match="finite|normal double"):
            gamma(z)

    @pytest.mark.parametrize("x", [math.inf, math.nan])
    def test_log_gamma_real_of_a_non_finite_argument(self, x):
        # math.lgamma returns inf and nan as they are
        with pytest.raises(DomainError, match="finite"):
            log_gamma_real(x)

    def test_2f1_integral_route_past_the_double_range(self):
        # its prefactor Gamma(200) / (Gamma(180) Gamma(20)) raised a raw
        # OverflowError
        with pytest.raises(DomainError):
            gauss_2f1(0.5, 180.0, 200.0, 2 + 1j)


class TestGauss2F1:
    def test_at_zero(self):
        assert gauss_2f1(0.3, 0.7, 1.1, 0.0) == 1.0

    @pytest.mark.parametrize("a, b, c, z", [
        # Pfaff's (1-z)^(-a) overflows, and so does the value, 4.2e447
        (-1500.5, 0.3, 0.5, -0.99),
    ])
    def test_overflowing_transform_is_a_kernel_error(self, a, b, c, z):
        # float ** raised a raw OverflowError
        with pytest.raises(KernelError, match="overflows"):
            gauss_2f1(a, b, c, z)

    @pytest.mark.oracle("gauss_2f1")
    def test_euler_power_past_the_doubles_takes_the_series_at_z(self):
        # the Euler transform's (1-z)^(c-a-b) = 0.3^-1501 overflows while
        # the value, 0.99997, is a double: judged by the log of the power's
        # modulus, the series at z is summed instead (it raised "overflows")
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            ref = float(mp.hyp2f1(0.3, 0.2, -1500.5, 0.7))
        assert _route_2f1(0.3, 0.2, -1500.5, 0.7)[0] == "series"
        assert abs(gauss_2f1(0.3, 0.2, -1500.5, 0.7) - ref) <= 1e-14 * abs(ref)

    @pytest.mark.parametrize("z", [1.0, 1.5, 1.5 + 0j, 3.0])
    def test_on_the_cut_is_a_domain_error(self, z):
        # the router tests the cut before it forms z/(z-1), which divides by
        # 0 at z = 1, and before it rates the connection formula, whose
        # sqrt|1-z| is 0.71 at z = 1.5
        with pytest.raises(DomainError, match="cut"):
            gauss_2f1(0.5, 0.25, 1.5, z)

    def test_log_closed_form(self):
        z = 0.3
        assert gauss_2f1(1.0, 1.0, 2.0, z) == pytest.approx(
            -math.log(1.0 - z) / z, rel=1e-11)

    @pytest.mark.oracle("gauss_2f1")
    def test_quintic_argument_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        z = (11.0 - 5.0 * math.sqrt(5.0)) / (11.0 + 5.0 * math.sqrt(5.0))
        with mp.workdps(30):
            ref = float(mp.hyp2f1(1 / 6, 7 / 6, 2.0, z))
        assert gauss_2f1(1 / 6, 7 / 6, 2.0, z) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.oracle("gauss_2f1")
    def test_connection_formula_window(self):
        # z = 0.9 is summed at 1 - z = 0.1 by the connection formula
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            ref = float(mp.hyp2f1(0.25, 0.5, 1.5, 0.9))
        assert gauss_2f1(0.25, 0.5, 1.5, 0.9) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("a, b, c, z", [
        (0.5, 0.75, 1.9, 0.3 + 0.4j),
        (1 / 3, 1 / 6, 7 / 6, -0.8 + 0.5j),
        (0.7 + 0.2j, 0.4, 1.3, 0.6 - 0.7j),
        (0.5, 0.75, 1.9, 2.0 + 1.0j),   # off the cut, outside the unit disk
        (0.5, 0.75 + 0.3j, 1.9, 2.0 + 1.0j),   # a complex exponent of t
    ])
    def test_integral_route_at_complex_points_against_mpmath(self, a, b, c, z):
        # 2F1(a, b; c; z) = F1(b; a, 0; c; z, 0), F1's Euler integral
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = complex(mpmath.hyp2f1(a, b, c, z))
        val = _euler_integral_f1(complex(b), complex(a), 0j, complex(c),
                                 complex(z), 0j, PrecisionContext())
        assert abs(val - ref) <= 1e-12 * abs(ref)

    @pytest.mark.oracle("gauss_2f1")
    def test_complex_b_outside_the_disk_against_mpmath(self):
        # the Euler integral took t^(Re b - 1) and came out 52% off
        mpmath = pytest.importorskip("mpmath")
        args = (0.5, 0.75 + 0.3j, 1.9, 2.0 + 1.0j)
        with mpmath.workdps(30):
            ref = complex(mpmath.hyp2f1(*args))
        assert abs(gauss_2f1(*args) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.oracle("gauss_2f1")
    @pytest.mark.parametrize("a, b, c, z", [
        (-5.0, -1.0, -3.0, 0.5),   # 1/6: b ends it before c + 3 vanishes
        (-1.0, -5.0, -3.0, 0.5),
        (-2.0, -4.0, -3.0, 0.3 + 0.4j),
        (-2.0, -6.0, -3.0, 1.7),
        (-4.0, 1.0, -4.0, 0.5),    # a = c = -4: 1.9375
        (-3.0, 0.5 + 0.2j, -3.0, -0.8),
        (-2.0, -6.0, -2.0, 1.7),
    ])
    def test_polynomial_past_a_nonpositive_c_against_mpmath(self, a, b, c, z):
        # DLMF 15.2(ii): the series ends at the first vanishing numerator,
        # so c = -m is no pole once a or b is -k with k <= m; two such
        # points raised ZeroDivisionError, the a = c ones DomainError
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = complex(mpmath.hyp2f1(a, b, c, z))
        assert abs(gauss_2f1(a, b, c, z) - ref) <= 1e-14 * abs(ref)

    def test_pole_reached_before_the_polynomial_ends(self):
        # both numerators end below c = -3: mpmath gives inf
        with pytest.raises(DomainError):
            gauss_2f1(-5.0, -4.0, -3.0, 0.5)

    def test_term_with_a_modulus_past_the_doubles(self):
        # the |c| < 1e-300 first term has two finite parts and a modulus
        # past the largest double: abs() raised a raw OverflowError
        with pytest.raises(DomainError, match="not finite"):
            gauss_2f1(-1.546069947376575,
                      0.8499096435950904 - 0.5722218596451953j, 1e-310j,
                      0.013548482076156314)

    def test_terminating(self):
        assert gauss_2f1(-2.0, 1.0, 3.0, 2.0) == pytest.approx(
            1.0 - 2.0 * 2.0 / 3.0 + (2.0 / 12.0) * 4.0, rel=1e-13)

    @pytest.mark.parametrize("degree", [100, 300])
    def test_polynomial_lost_to_rounding(self, degree):
        # F(-100, 1/2; 3/2; 1/2) = 0.1249 came back 0.0963 (4 eps S is 44
        # times the value), and F(-300, ...) = 0.0723 as -3.7e32
        with pytest.raises(DomainError, match="lost to rounding"):
            gauss_2f1(-float(degree), 0.5, 1.5, 0.5)

    def test_polynomial_with_digits_left(self):
        # degree 30: 4 eps S is 3.9e-11 of the value, and the sum within it
        val = gauss_2f1(-30.0, 0.5, 1.5, 0.5)
        ref = size = Fraction(0)
        term = Fraction(1)
        for k in range(31):
            ref, size = ref + term, size + abs(term)
            term *= Fraction(k - 30) * (Fraction(1, 2) + k) / ((Fraction(3, 2) + k) * (k + 1)) / 2
        assert abs(val - float(ref)) <= 4.0 * sys.float_info.epsilon * float(size)

    def test_bad_c(self):
        with pytest.raises(DomainError):
            gauss_2f1(0.5, 0.5, -1.0, 0.3)

    @pytest.mark.parametrize("args", [(math.nan, 0.5, 1.0, 0.5),
                                      (0.5, -math.inf, 1.5, 0.7),
                                      (0.5, 0.25, math.nan, 0.7)])
    def test_non_finite_parameter_is_a_domain_error(self, args):
        # round() of the nan a raised a raw ValueError, of -inf OverflowError
        with pytest.raises(DomainError, match="finite parameters"):
            gauss_2f1(*args)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf,
                                   complex(0.0, math.nan), complex(0.0, math.inf),
                                   complex(math.nan, 0.3), complex(1.5e308, 1.5e308)])
    def test_non_finite_z_is_a_domain_error(self, z):
        # a nan or inf z reached the Euler integral and failed inside the
        # quadrature with "integrand not finite"; a modulus past the doubles
        # read as "needs finite parameters"
        with pytest.raises(DomainError, match="2F1 needs a finite"):
            gauss_2f1(0.5, 0.25, 1.5, z)

    def test_pole_of_c_names_the_pole(self):
        # the undefined-c error was raised inside the parameters' finiteness
        # test and came out as "needs finite parameters"
        with pytest.raises(DomainError, match="undefined"):
            gauss_2f1(0.5, 0.5, -1.0, 0.3)

    @pytest.mark.parametrize("args", [(0.5 + 0j, 0.25, 1.5, 0.0),
                                      (0.5, 0.25, 1.5, 0j),
                                      (0.5, 0.25, 1.5, 0.3 + 0.1j),
                                      (0.5, 0.25 + 0.1j, 1.5, 0.3)])
    def test_complex_parameter_or_z_gives_a_complex_value(self, args):
        assert type(gauss_2f1(*args)) is complex


def _closure_series_2f1(a, b, c, z, ctx, scale=1.0):
    """_series_2f1's series summed term by term from a closure over the same
    recurrence and head, to series_tolerance's tolerance, stopping on two
    consecutive small terms as 2F1 does.  A polynomial (a a non-positive
    integer) runs to its trailing zero terms."""
    terminating = _is_nonpositive_int(a)
    if terminating:
        eps_rel = eps_abs = 1e-300   # only the exact zeros past the degree stop it
    else:
        eps_rel, eps_abs = series_tolerance(abs(z), ctx, scale)
    t1 = a * (b * 2.0 ** 600) * (z / (c * 2.0 ** 600)) if abs(c) < 1e-300 else None
    t = 1.0 + 0.0j

    def plain(n):
        nonlocal t
        value = t
        if n == 0 and t1 is not None:
            t = t1
        elif terminating:   # a polynomial multiplies by the whole ratio
            t *= (a + n) * (b + n) / ((c + n) * (n + 1)) * z
        else:
            t = t * ((a + n) * (b + n) / ((c + n) * (n + 1))) * z
        return value

    term = plain
    if c.real < 0.0 and not terminating:
        head = min(round(-c.real) + 2, numerics.MAX_SERIES_TERMS)

        def term(k):
            return plain(k + head - 1) if k else sum(map(plain, range(head)))

    total, small_run = 0.0, 0
    for n in range(numerics.MAX_SERIES_TERMS):
        value = term(n)
        try:
            size = abs(value)
        except OverflowError:
            size = math.inf
        if not size < math.inf:
            raise DomainError(f"series term {n} is not finite: {value!r}")
        total += value
        if size <= eps_rel * abs(total) + eps_abs:
            small_run += 1
            if small_run >= 2:
                return SeriesSum(total, n + 1)
        else:
            small_run = 0
    raise SeriesDivergenceError("cap", best=total, gap=size)


class TestInline2F1Series:
    """_series_2f1 sums its series in one inline loop, to the tolerance of
    numerics.series_tolerance and with 2F1's stop on two small terms; the
    same recurrence summed term by term from a closure gives the same
    bits."""

    TINY_C = (1e-301, -3e-305, 5e-320, 1e-310j, 2e-302 + 1e-303j)

    @staticmethod
    def _draws(seed, count):
        rng = random.Random(seed)

        def param():
            v = rng.uniform(-3.0, 3.0)
            return complex(v, rng.uniform(-1.0, 1.0)) if rng.random() < 0.2 else complex(v)

        for i in range(count):
            a, b, c = param(), param(), param()
            if i % 5 == 1:
                c = complex(-rng.uniform(0.0, 6.0))   # a head of several terms
            elif i % 5 == 2:
                c = complex(rng.choice(TestInline2F1Series.TINY_C))
            elif i % 5 == 3:
                a = complex(-rng.randint(0, 8))        # a polynomial
            elif i % 5 == 4:
                a, b, c = a.real, b.real, c.real       # floats, with a complex z
            if _is_nonpositive_int(c) or (_is_nonpositive_int(b) and i % 5 != 3):
                continue
            radius = rng.uniform(0.0, 0.97)
            z = complex(rng.choice((-radius, radius))) if rng.random() < 0.5 \
                else cmath.rect(radius, rng.uniform(-math.pi, math.pi))
            scale = rng.uniform(0.01, 0.5) if rng.random() < 0.3 else 1.0
            yield a, b, c, z, scale

    @staticmethod
    def _outcome(series, *args):
        """The value and terms, or the error with what it carries."""
        try:
            result = series(*args)
        except SeriesDivergenceError as exc:
            return "cap", repr(exc.best), exc.gap
        except DomainError as exc:   # also |t| of a term past the doubles
            return "domain", str(exc)
        except OverflowError:   # |S| of a sum past the doubles
            return ("overflow",)
        return "value", repr(result.value), result.terms

    @staticmethod
    def _overflow_draws(seed, count):
        """Draws whose terms grow past the doubles.  Large a and b make the
        terms overflow.  Real a, b and a c below 1e-300, with z at about
        45 degrees off an axis, put |t_1| = |a b z / c| past the largest
        double with both parts finite; for a < -1/2 and b < 1, |t_2| is
        back below it."""
        rng = random.Random(seed)
        for i in range(count):
            if i % 3 == 2:
                a = rng.uniform(-0.9, -0.5) if i % 2 else rng.uniform(1.0, 3.0)
                b = rng.uniform(0.5, 1.0) if i % 2 else rng.uniform(1.0, 3.0)
                z = cmath.rect(0.9, rng.choice((1, 3, -1, -3)) * math.pi / 4
                               + rng.uniform(-0.15, 0.15))
                c = abs(a * b * z) / rng.uniform(1.0, 1.3) / sys.float_info.max
            else:
                a = complex(rng.uniform(20.0, 400.0), rng.uniform(-5.0, 5.0) if i % 3 else 0.0)
                b, c = complex(rng.uniform(20.0, 400.0)), complex(rng.uniform(0.5, 3.0))
                radius = rng.uniform(0.5, 0.97)
                z = cmath.rect(radius, rng.uniform(-math.pi, math.pi)) if i % 3 \
                    else complex(rng.choice((-radius, radius)))
                if i % 4 == 3:
                    a, b, c = a.real, b.real, c.real       # floats, with a complex z
            yield a, b, c, z

    def test_same_bits_as_sum_series(self):
        ctx = PrecisionContext()
        kinds = set()
        for a, b, c, z, scale in self._draws(1304, 1000):
            inline = self._outcome(_series_2f1, a, b, c, z, ctx, scale)
            closure = self._outcome(_closure_series_2f1, a, b, c, z, ctx, scale)
            if _is_nonpositive_int(a):
                # the closure also counts the two zero terms that stop it
                inline, closure = inline[:2], closure[:2]
            assert inline == closure, (a, b, c, z, scale)
            kinds.add(inline[0] if inline[0] != "value" else
                      "terminating" if _is_nonpositive_int(a) else
                      "tiny c" if abs(c) < 1e-300 else
                      "head" if c.real < 0.0 else
                      "complex z, real parameters" if z.imag and type(a) is float else
                      "complex" if z.imag else "real")
        assert kinds >= {"terminating", "tiny c", "head", "complex z, real parameters",
                         "complex", "real"}

    @pytest.mark.parametrize("cap", [4, 5, 6])
    def test_term_cap_raises_with_the_same_best(self, series_cap, cap):
        # the stop is tested on every second term: an even cap ends on a
        # term that the pairs leave untested, an odd one on a tested term
        series_cap(cap)
        ctx = PrecisionContext()
        raised = 0
        for a, b, c, z, scale in self._draws(1305, 200):
            if _is_nonpositive_int(a):
                continue   # a polynomial is summed whole, with no cap
            inline = self._outcome(_series_2f1, a, b, c, z, ctx, scale)
            closure = self._outcome(_closure_series_2f1, a, b, c, z, ctx, scale)
            assert inline == closure, (a, b, c, z, scale)
            raised += inline[0] == "cap"
        assert raised > 50

    def test_untested_terms_raise_as_if_tested(self):
        # the series tests every second term; the first term that is not
        # finite, or whose modulus passes the largest double, is named the
        # same wherever it falls
        ctx = PrecisionContext()
        first_bad = collections.Counter()
        for a, b, c, z in self._overflow_draws(1306, 300):
            inline = self._outcome(_series_2f1, a, b, c, z, ctx, 1.0)
            closure = self._outcome(_closure_series_2f1, a, b, c, z, ctx, 1.0)
            assert inline == closure, (a, b, c, z)
            if closure[0] == "domain":
                index, term = closure[1].split()[2], closure[1].split(": ", 1)[1]
                first_bad[int(index) % 2, cmath.isfinite(complex(term))] += 1
        # (odd index, finite parts): an untested term whose modulus overflows
        assert min(first_bad[1, True], first_bad[1, False], first_bad[0, False]) > 20, first_bad

    def test_gauss_2f1_builds_no_context(self, monkeypatch):
        built = []
        original = PrecisionContext.__init__

        def counted(ctx, *args, **kwargs):
            built.append(ctx)
            original(ctx, *args, **kwargs)

        monkeypatch.setattr(PrecisionContext, "__init__", counted)
        PrecisionContext()
        assert len(built) == 1   # the count sees a context being built
        built.clear()
        # connection at 0.9, Pfaff at -0.99, the direct series with a head
        assert _route_2f1(0.5 + 0j, 0.25 + 0j, 1.5 + 0j, 0.9 + 0j)[0] == "connection"
        gauss_2f1(0.5, 0.25, 1.5, 0.9)
        gauss_2f1(0.5, 0.25, 1.5, -0.99)
        gauss_2f1(0.5, 0.25, -2.5, 0.3 + 0.1j)
        assert built == []

    @pytest.mark.parametrize("z, route, bound", [
        (0.3 + 0.2j, "series", 3),     # the pole tests of a, b and c
        (0.9, "connection", 12),       # and of c-a, c-b, and Gamma's seven
    ])
    def test_gauss_2f1_classifies_once(self, monkeypatch, z, route, bound):
        # each call makes the pole tests of its parameters once, and the
        # route and its series reuse them; the series used to repeat the
        # tests of a and b (5 and 16 calls)
        calls = []
        original = special._is_nonpositive_int

        def counted(x):
            calls.append(x)
            return original(x)

        monkeypatch.setattr(special, "_is_nonpositive_int", counted)
        assert _route_2f1(0.5, 0.25, 1.5, z)[0] == route
        calls.clear()
        gauss_2f1(0.5, 0.25, 1.5, z)
        assert len(calls) <= bound


class TestSeriesWork:
    """A work count of 2F1: the series and terms that _series_2f1 sums over
    a seeded sample drawn as perfbench's kernels workload draws its 2F1
    calls (a, b, c in [-3, 3], c off the poles, real z in [-0.99, 0.99] and
    complex z uniform on the disk |z| <= 0.99).  Unlike a time it is exact:
    a change that moves it records the new count and why."""

    # (series summed, their terms, calls that raised)
    PINNED = (477, 12310, 0)

    @staticmethod
    def _sample(seed, count):
        rng = random.Random(seed)
        for i in range(count):
            a, b, c = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
            while not (c > 0.0 or abs(c - round(c)) > 1e-9):
                c = rng.uniform(-3.0, 3.0)
            u = rng.random()
            z = 0.99 * (2.0 * u - 1.0) if i % 2 else \
                cmath.rect(0.99 * math.sqrt(u), rng.uniform(-math.pi, math.pi))
            yield a, b, c, z

    def test_terms_of_a_kernels_sample(self, monkeypatch):
        terms = []
        original = special._series_2f1

        def counted(*args):
            result = original(*args)
            terms.append(result.terms)
            return result

        monkeypatch.setattr(special, "_series_2f1", counted)
        raised = 0
        for args in self._sample(1308, 400):
            try:
                gauss_2f1(*args)
            except KernelError:
                raised += 1
        assert (len(terms), sum(terms), raised) == self.PINNED


def _ulp_only_pole_test(z):
    """_is_nonpositive_int with no early reject: within 4 ulps of n <= 0."""
    if z.real > 0.5:
        return False
    n = round(z.real)
    tol = 4.0 * math.ulp(n)
    return abs(z.imag) <= tol and abs(z.real - n) <= tol


def _floats_around(x, count):
    """x and the count floats on each side of it."""
    out, up, down = [x], x, x
    for _ in range(count):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
        out += [up, down]
    return out


class TestPoleTest:
    """_is_nonpositive_int rejects a real part more than 1e-9 (1 + |n|)
    from its nearest integer n before it forms ulp(n); the reject is exact,
    so it agrees with the ulp test alone."""

    @staticmethod
    def _values(seed):
        rng = random.Random(seed)
        for _ in range(300):
            n = float(rng.randint(-10 ** 6, 0))
            yield from _floats_around(n, 8)
            for side in (-1.0, 1.0):   # both sides of the reject bound
                yield from _floats_around(n + side * 1e-9 * (1.0 - n), 2)
        for sign in (-1.0, 1.0):
            yield from _floats_around(sign * 1e15, 6)
        yield from (sign * k * 5e-324 for k in range(10) for sign in (-1.0, 1.0))
        for _ in range(300):
            n = float(rng.randint(-1000, 0))
            ulp = math.ulp(n)
            yield complex(rng.choice(_floats_around(n, 8)),
                          rng.choice((0.0, -0.0, 5e-324, ulp, -3.0 * ulp, 4.0 * ulp,
                                      5.0 * ulp, 1e-300, 1e-9)))

    def test_same_as_the_ulp_test_alone(self):
        outcomes = collections.Counter()
        for z in self._values(1307):
            pole = _is_nonpositive_int(z)
            assert pole is _ulp_only_pole_test(z), z
            outcomes[pole, type(z)] += 1
        assert min(outcomes.values()) > 100 and len(outcomes) == 4, outcomes


def _int_indexed_beta_cf(x, a, b):
    """_beta_cf's modified Lentz steps with m an int."""
    tiny = 1e-300
    ab = a + b
    d = 1.0 - ab * x / (a + 1.0)
    c, d = 1.0, 1.0 / (d if d >= tiny or d <= -tiny else tiny)
    h = d

    def step(coeff):
        nonlocal c, d, h
        d, c = 1.0 + coeff * d, 1.0 + coeff / c
        d = 1.0 / (d if d >= tiny or d <= -tiny else tiny)
        c = c if c >= tiny or c <= -tiny else tiny
        h *= d * c

    for m in range(1, special.MAX_SERIES_TERMS + 1):
        p = a + 2.0 * m
        step(m * (b - m) * x / ((p - 1.0) * p))
        step(-(a + m) * (ab + m) * x / (p * (p + 1.0)))
        if abs(d * c - 1.0) <= 2.0 * numerics.MACHINE_EPS:
            return h
    raise SeriesDivergenceError("capped", best=h, gap=abs(d * c - 1.0))


def _int_indexed_f1_series(a, b1, b2, c, x, y, ctx):
    """_appell_f1_series of a series that does not terminate, with its
    anti-diagonal index the int that sum_series passes: the same transform,
    coefficients and recurrence."""
    if _is_nonpositive_int(c):
        raise DomainError("c is a pole")
    rate, pref = max(abs(x), abs(y)), 1.0
    if 1.0 not in (x, y):
        xt, yt = x / (x - 1.0), y / (y - 1.0)
        if max(abs(xt), abs(yt)) < rate:
            if b1 == b2 and y == x.conjugate():
                pref *= abs(1.0 - x) ** (-2.0 * b1)
            else:
                pref *= (1.0 - x) ** (-b1) * (1.0 - y) ** (-b2)
            a, x, y, rate = c - a, xt, yt, max(abs(xt), abs(yt))
    coeffs = (x + y, x * y, b1 * x + b2 * y, b1 + b2 - 1.0, a, c)
    if not any(v.imag for v in coeffs):
        coeffs = tuple(v.real for v in coeffs)
    xsum, xy, lin, bsum, a, c = coeffs
    g, g_prev, r = 1.0, 0.0, 1.0

    def term(s):
        nonlocal g, g_prev, r
        val = r * g
        g_prev, g = g, ((xsum * s + lin) * g - xy * (s + bsum) * g_prev) / (s + 1.0)
        r = r * (a + s) / (c + s)
        return val

    try:
        series = numerics.sum_series(term, rate, ctx)
    except SeriesDivergenceError as exc:
        exc.best, exc.gap = pref * exc.best, abs(pref) * exc.gap
        raise
    return SeriesSum(pref * series.value, series.terms)


class TestFloatIndexedLoops:
    """The continued fraction of the incomplete Beta and F1's anti-diagonal
    series count their index as a float; the same steps with an int index
    give the same bits."""

    @staticmethod
    def _outcome(fn, *args):
        try:
            result = fn(*args)
        except SeriesDivergenceError as exc:
            return "cap", repr(exc.best), repr(exc.gap)
        except (DomainError, ZeroDivisionError) as exc:
            return "error", type(exc).__name__
        return "value", repr(getattr(result, "value", result)), getattr(result, "terms", 0)

    @staticmethod
    def _beta_draws(seed, count):
        # a, b log-uniform in [0.1, 10], x uniform in (0, 1): both sides of
        # incomplete_beta's split (a+1)/(a+b+2)
        rng = random.Random(seed)
        for _ in range(count):
            a, b = 0.1 * 100.0 ** rng.random(), 0.1 * 100.0 ** rng.random()
            yield rng.uniform(1e-6, 1.0 - 1e-6), a, b

    def test_beta_cf_same_bits(self):
        sides = collections.Counter()
        for x, a, b in self._beta_draws(34, 2000):
            fast = self._outcome(special._beta_cf, x, a, b)
            assert fast == self._outcome(_int_indexed_beta_cf, x, a, b), (x, a, b)
            assert fast[0] == "value"
            sides[x < (a + 1.0) / (a + b + 2.0)] += 1
        assert min(sides[True], sides[False]) > 500

    def test_beta_cf_term_cap_same_best(self, series_cap):
        series_cap(3)
        capped = 0
        for x, a, b in self._beta_draws(35, 300):
            fast = self._outcome(special._beta_cf, x, a, b)
            assert fast == self._outcome(_int_indexed_beta_cf, x, a, b), (x, a, b)
            capped += fast[0] == "cap"
        assert capped > 100

    @staticmethod
    def _f1_draws(seed, count):
        rng = random.Random(seed)

        def param():
            return rng.uniform(-3.0, 3.0)

        def point(rho):
            return cmath.rect(rng.uniform(0.0, rho), rng.uniform(-math.pi, math.pi))

        for i in range(count):
            a, b1, b2, c = param(), param(), param(), param()
            rho = rng.uniform(0.05, 0.95)
            kind = ("real", "conjugate", "complex")[i % 3]
            if kind == "conjugate":   # runs in floats
                b2, x = b1, point(rho)
                y = x.conjugate()
            elif kind == "complex":
                x, y = point(rho), point(rho)
            else:
                x, y = rng.uniform(-rho, rho), rng.uniform(-rho, rho)
            if kind in ("conjugate", "complex"):
                a, b1, b2, c = map(complex, (a, b1, b2, c))
            yield kind, (a, b1, b2, c, x, y)

    def test_appell_f1_series_same_bits(self):
        ctx = PrecisionContext()
        kinds = collections.Counter()
        for kind, args in self._f1_draws(34, 800):
            fast = self._outcome(special._appell_f1_series, *args, ctx)
            assert fast == self._outcome(_int_indexed_f1_series, *args, ctx), args
            kinds[kind, fast[0]] += 1
        assert all(kinds[kind, "value"] > 100 for kind in ("real", "conjugate", "complex"))

    def test_appell_f1_series_term_cap_same_best(self, series_cap):
        series_cap(4)
        ctx = PrecisionContext()
        capped = 0
        for _, args in self._f1_draws(35, 200):
            fast = self._outcome(special._appell_f1_series, *args, ctx)
            assert fast == self._outcome(_int_indexed_f1_series, *args, ctx), args
            capped += fast[0] == "cap"
        assert capped > 50


# The kernels benchmark's 2F1 draws: a, b, c in [-3, 3], z real in
# [-0.99, 0.99] or complex with |z| <= 0.99; c off the poles 0, -1, -2, -3,
# where 2F1 is undefined.  Subnormal parameters are not drawn: the kernel
# takes a c within a few ulps of 0 for the pole.
H_PARAMS = st.floats(min_value=-3.0, max_value=3.0, allow_subnormal=False)
H_LOWER = H_PARAMS.filter(lambda c: c > 0.0 or abs(c - round(c)) > 1e-9)
H_REAL_ARG = st.floats(min_value=-0.99, max_value=0.99)
H_COMPLEX_ARG = st.builds(cmath.rect, st.floats(min_value=0.0, max_value=0.99),
                          st.floats(min_value=-math.pi, max_value=math.pi))
H_SETTINGS = settings(max_examples=100, deadline=None)


def _mpmath_2f1(a, b, c, z):
    """mpmath.hyp2f1 at 30 digits, or None where it gives no double
    reference: hypsum gives up on parameters far below 1e-100, whose terms
    jump by more than its maximum precision, and a value past 1e300 would
    overflow a double (the benchmark redraws such a point; so do the
    property tests)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        try:
            ref = mp.hyp2f1(a, b, c, z)
        except ValueError:
            return None
    return complex(ref) if abs(ref) <= 1e300 else None


def _assert_2f1_matches(a, b, c, z, ref):
    """gauss_2f1 against the reference at the benchmark's tolerance
    1e-11 |ref| + 1e-14."""
    assert ref is not None
    val = complex(gauss_2f1(a, b, c, z))
    assert abs(val - ref) <= 1e-11 * abs(ref) + 1e-14, (val, ref)


def _is_slow_2f1(a, b, c, z) -> bool:
    """gauss_2f1's route at z runs at a radius above _SLOW_RADIUS: its known
    gaps on the unit disk, and off the disk the Euler integral."""
    return _route_2f1(*map(complex, (a, b, c, z)))[1] > special._SLOW_RADIUS


# Where every route is summed at a radius above _SLOW_RADIUS (see
# gauss_2f1): the series then runs into its 2000-term cap.
CONNECTION_BARRED = pytest.mark.xfail(
    strict=True, reason="c-a-b within _POLE_GAP of an integer bars the "
    "connection formula, and the series at z = 0.99 needs more than 2000 "
    "terms (the limit forms of A&S 15.3.10-15.3.14 are not implemented)")
BAND = pytest.mark.xfail(
    strict=True, reason="next to exp(+-i pi/3) at |z| = 0.99 the series at z, "
    "z/(z-1) and 1-z all run at a radius near 0.99 and need more than 2000 "
    "terms (the 1/z map would not help either)")
KNOWN_GAPS = [
    pytest.param(0.5, 0.5, 1.0, 0.99, marks=CONNECTION_BARRED, id="K-at-k2=0.99"),
    pytest.param(1.3, -0.7, 0.6, 0.99, marks=CONNECTION_BARRED, id="c-a-b=0"),
    pytest.param(0.5, 0.25, 0.9, cmath.rect(0.99, math.pi / 3), marks=BAND,
                 id="band-upper"),
    pytest.param(0.5, 0.25, 0.9, cmath.rect(0.99, -math.pi / 3), marks=BAND,
                 id="band-lower"),
]


class TestGauss2F1AgainstMpmath:
    """The unit disk in auto mode, except the two known gaps, which are left
    out by the kernel's own predicate and pinned below as strict xfails."""

    @pytest.mark.oracle("gauss_2f1")
    @H_SETTINGS
    @given(H_PARAMS, H_PARAMS, H_LOWER, H_REAL_ARG)
    @example(0.5, 0.25, 1.5, 0.99)
    @example(0.5, 0.25, 1.5, -0.99)
    @example(0.5, 0.25, 1.5, 0.999)
    # c-a-b = 2: the connection formula is barred, and the series at z
    # itself ran 1.5e-11 off before its tolerance scaled with the radius
    @example(1.3, -0.7, 2.6, 0.94)
    def test_real(self, a, b, c, z):
        assume(not _is_slow_2f1(a, b, c, z))
        ref = _mpmath_2f1(a, b, c, z)
        assume(ref is not None)
        _assert_2f1_matches(a, b, c, z, ref)

    @pytest.mark.oracle("gauss_2f1")
    @H_SETTINGS
    @given(H_PARAMS, H_PARAMS, H_LOWER, H_COMPLEX_ARG)
    @example(0.5, 0.25, 1.5, 0.99j)
    def test_complex(self, a, b, c, z):
        assume(not _is_slow_2f1(a, b, c, z))
        ref = _mpmath_2f1(a, b, c, z)
        assume(ref is not None)
        _assert_2f1_matches(a, b, c, z, ref)

    @pytest.mark.oracle("gauss_2f1")
    @pytest.mark.parametrize("a, b, c, z", [
        (0.18741107186997752, 2.969406144143246, 2.149132102013721,
         0.9530406638473026),
        (0.6537051336016098, -2.542792316021835, 2.114044370693173,
         0.9402890518480522 + 0.035981333155475165j),
    ])
    def test_next_to_the_gaps(self, a, b, c, z):
        # c-a-b within 0.007 and 0.003 of an integer, so no connection
        # formula: benchmark misses by 1.7 and 1.3 tolerances of the series
        # at z, before its tolerance scaled with the radius.  The first lies
        # past _SLOW_RADIUS, where the property tests do not draw.
        _assert_2f1_matches(a, b, c, z, _mpmath_2f1(a, b, c, z))

    @pytest.mark.oracle("gauss_2f1")
    @pytest.mark.parametrize("a, b, c, z", KNOWN_GAPS)
    def test_known_gaps(self, a, b, c, z):
        _assert_2f1_matches(a, b, c, z, _mpmath_2f1(a, b, c, z))

    @pytest.mark.parametrize("a, b, c, z", [p.values for p in KNOWN_GAPS])
    def test_known_gaps_are_the_predicate(self, a, b, c, z):
        assert _is_slow_2f1(a, b, c, z)

    @pytest.mark.oracle("gauss_2f1")
    def test_real_below_minus_one(self):
        # Pfaff's z/(z-1) lies in [0.51, 0.94], and its (1-z)^(-a) has a
        # positive base, so the value stays a float
        rng = random.Random(43)
        for _ in range(60):
            a, b, c = _draw_2f1_parameters(rng)
            z = rng.uniform(-15.0, -1.05)
            val = gauss_2f1(a, b, c, z)
            assert type(val) is float, (a, b, c, z)
            _assert_2f1_matches(a, b, c, z, _mpmath_2f1(a, b, c, z))

    @pytest.mark.oracle("gauss_2f1")
    def test_complex_off_the_disk(self):
        # 1.05 <= |z| <= 3 wherever Pfaff or the connection formula runs
        # within _SLOW_RADIUS; elsewhere the Euler integral serves
        rng = random.Random(44)
        served = 0
        while served < 60:
            a, b, c = _draw_2f1_parameters(rng)
            z = cmath.rect(rng.uniform(1.05, 3.0), rng.uniform(-math.pi, math.pi))
            if _route_2f1(a, b, c, z)[0] == "integral":
                continue
            served += 1
            _assert_2f1_matches(a, b, c, z, _mpmath_2f1(a, b, c, z))

    def test_no_integral_inside_the_disk(self):
        # parameters up to 40 also meet the connection formula's bar
        rng = random.Random(45)
        for size in [3.0] * 2000 + [40.0] * 500:
            a, b, c = (rng.uniform(-size, size) for _ in range(3))
            z = cmath.rect(rng.uniform(0.0, 1.0), rng.uniform(-math.pi, math.pi))
            if abs(z) < 1.0:
                assert _route_2f1(complex(a), complex(b), complex(c), z)[0] != "integral"
                assert _route_2f1(a, b, c, z.real)[0] != "integral"


def _draw_2f1_parameters(rng):
    """a, b and c uniform in [-3, 3], c off the poles 0, -1, -2, -3."""
    while True:
        a, b, c = (rng.uniform(-3.0, 3.0) for _ in range(3))
        if c > 0.0 or abs(c - round(c)) > 1e-9:
            return a, b, c


class TestAppellF1:
    def test_non_finite_argument_is_a_domain_error(self):
        # max(|nan|, 1) is nan, so y = 1 reached the series: ZeroDivisionError
        with pytest.raises(DomainError, match="finite arguments"):
            appell_f1(1e-300, 1e-300, -2.5, 1e300, math.nan, 1.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(1.0, math.inf)],
                             ids=["inf", "-inf", "nan", "1+infj"])
    @pytest.mark.parametrize("position", range(6))
    def test_non_finite_argument_in_each_position(self, position, bad):
        # one sum of the differences v - v tests all six arguments, floats
        # and complex alike
        args = [0.9, 1.0, 1.0, 2.0, 0.3, 0.2]
        args[position] = bad
        with pytest.raises(DomainError, match="finite arguments"):
            appell_f1(*args)

    @pytest.mark.parametrize("args", [
        (8.0 / 3.0, 1.0, 1.0, 11.0 / 3.0, -0.0861, -0.0023),   # Eq 50's series
        (0.9, 1.0, 0.5, 2.0, -0.9, -0.6),                       # after 16.16.1
        (0.9, 1.0, 0.5, 2.0, 0.5, -30.0),                       # the Euler integral
        (0.9, 1.0, 0.0, 2.0, 0.3, 0.7),                         # 2F1 in x
    ], ids=["series", "16.16.1", "integral", "2F1"])
    def test_float_arguments_are_not_converted(self, monkeypatch, args):
        # six floats are classified as they stand, on every route, and give a
        # float; any other kind still goes through _same_kind
        def refused(*vals):
            raise AssertionError(f"_same_kind{vals}")

        monkeypatch.setattr(special, "_same_kind", refused)
        assert type(appell_f1(*args)) is float
        for converted in ([*args[:4], complex(args[4]), args[5]], [*args[:3], 2, *args[4:]]):
            with pytest.raises(AssertionError, match="_same_kind"):
                appell_f1(*converted)

    def test_reduces_to_2f1_at_zero_second_argument(self):
        lhs = appell_f1(0.9, 1.0, 1.0, 2.0, 0.3, 0.0)
        assert lhs == pytest.approx(gauss_2f1(0.9, 1.0, 2.0, 0.3), rel=1e-11)

    def test_swap_symmetry(self):
        a = appell_f1(0.9, 1.0, 1.0, 2.0, 0.3, 0.2j)
        b = appell_f1(0.9, 1.0, 1.0, 2.0, 0.2j, 0.3)
        assert abs(a - b) < 1e-12 * abs(a)

    @pytest.mark.oracle("appell_f1")
    def test_complex_point_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        args = (0.9, 1.0, 1.0, 2.0, 0.3, 0.2j)
        with mp.workdps(30):
            ref = complex(mp.appellf1(*args))
        assert abs(appell_f1(*args) - ref) < 1e-9 * abs(ref)

    @pytest.mark.oracle("appell_f1")
    @pytest.mark.parametrize("x", [-1.5, 2.0 + 1.0j])
    def test_integral_beyond_the_bidisk_against_mpmath(self, x):
        mp = pytest.importorskip("mpmath")
        args = (0.9, 1.0, 1.0, 2.0, x, 0.3)
        with mp.workdps(30):
            ref = complex(mp.appellf1(*args))
        assert abs(appell_f1(*args) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.oracle("appell_f1")
    def test_complex_a_beyond_the_bidisk_against_mpmath(self):
        # t^(Re a - 1) came out 62% off
        mp = pytest.importorskip("mpmath")
        args = (0.9 + 0.4j, 1.0, 1.0, 2.0, -1.5, 0.3)
        with mp.workdps(30):
            ref = complex(mp.appellf1(*args))
        assert abs(appell_f1(*args) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.oracle("appell_f1")
    @pytest.mark.parametrize("args", [(-2.0, 0.5, 1.5, 2.5, -2.0, -1.5),
                                      (-3.0, 0.5, -1.25, -1.5, -2.5, 0.3)])
    def test_polynomial_past_the_bidisk_against_mpmath(self, args):
        # a polynomial in x and y, summed as it stands (the Euler integral
        # raised: it needs Re a > 0)
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            ref = mp.appellf1(*args)
        _assert_f1_matches_mpmath(*args, ref)

    def test_polynomial_past_the_bidisk_with_c_at_a_pole(self):
        # (c)_s has a zero past the degree, where 16.16.1 does not hold:
        # summed at the image, F1(-1; 0.5, 3; -2; -0.9, -4) = 1 + (b1 x +
        # b2 y)/2 = -5.225 came out 0.013, and at x, y it raised "series
        # rate must lie in [0, 1)"
        _assert_f1_matches_exact_sum(-1.0, 0.5, 3.0, -2.0, -0.9, -4.0)

    def test_polynomial_with_its_image_past_the_slow_radius(self):
        # 5271.218, where y/(y-1) = 0.976: the Euler integral raised
        # "needs Re c > Re a > 0"
        _assert_f1_matches_exact_sum(-2.0, 0.5, 3.0, 1.5, 0.3, -40.0)

    def test_polynomial_lost_to_rounding(self):
        # 0.031866 by the exact sum came back -0.338: its terms' moduli sum
        # to 1.0e16
        with pytest.raises(DomainError, match="lost to rounding"):
            appell_f1(-100.0, 0.5, 0.3, 1.5, 0.5, 0.4)

    def test_polynomial_against_the_exact_sum(self):
        # degree up to 10, |x|, |y| up to 50, and c half the time a pole
        # past the degree; measured at most 0.15 of the bound over 6,000
        # draws (the anti-diagonal recurrence reached 10 bounds)
        rng = random.Random(4404)
        for _ in range(300):
            degree = rng.randint(0, 10)
            c = (float(-rng.randint(degree + 1, degree + 5)) if rng.random() < 0.5
                 else rng.uniform(-3.0, 3.0))
            _assert_f1_matches_exact_sum(float(-degree), rng.uniform(-3.0, 3.0),
                                         rng.uniform(-3.0, 3.0), c,
                                         rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0))

    @pytest.mark.parametrize("x, y", [(1.5, 0.3), (0.3, 1.0), (1.0, 2.5)])
    def test_argument_on_the_cut(self, x, y):
        # (1.5, 0.3) raised QuadratureError
        with pytest.raises(DomainError, match="cut"):
            appell_f1(0.9, 1.0, 1.0, 2.0, x, y)

    def test_zero_exponent_on_the_cut(self):
        # (1 - xt)^0 has no cut: F1(a; 0, b2; c; x, y) = 2F1(a, b2; c; y)
        assert appell_f1(0.9, 0.0, 1.0, 2.0, 1.5, 0.3) == pytest.approx(
            gauss_2f1(0.9, 1.0, 2.0, 0.3), rel=1e-12)

    def test_term_cap_reports_best_on_the_value_scale(self, series_cap):
        # x = -0.9 is summed at x/(x-1) after DLMF 16.16.1, whose prefactor
        # the capped partial sum carries too
        args = (0.9, 1.0, 1.5, 2.0, -0.9, -0.5)
        value = appell_f1(*args)
        series_cap(20)
        with pytest.raises(SeriesDivergenceError) as err:
            appell_f1(*args)
        assert abs(err.value.best - value) <= 1e-5 * abs(value)

    @pytest.mark.oracle("appell_f1")
    def test_reduces_to_2f1_on_the_whole_disk(self):
        # the series is summed to the tolerance at its rate: measured, at
        # most 0.70 tol, at |x| = 0.94 (a stop on two small terms alone
        # left 11.5 tol there)
        mp = pytest.importorskip("mpmath")
        for x in (-0.93, -0.5, 0.2, 0.94, 0.6 - 0.7j):
            lhs = complex(appell_f1(1.3, -0.7, 2.1, 2.6, x, 0.0))
            with mp.workdps(30):
                rhs = complex(mp.hyp2f1(1.3, -0.7, 2.6, x))
            assert abs(lhs - rhs) <= PrecisionContext().tol(abs(rhs))

    @pytest.mark.oracle("appell_f1")
    def test_series_past_170_terms_against_mpmath(self, series_cap):
        # |x| = 0.95 needs hundreds of terms; a factorial-based series
        # overflows at term 170
        mp = pytest.importorskip("mpmath")
        args = (0.9, 1.0, 1.5, 2.0, 0.95, 0.3)
        value = appell_f1(*args)
        with mp.workdps(30):
            ref = float(mp.appellf1(*args))
        assert value == pytest.approx(ref, rel=1e-10)
        series_cap(170)
        with pytest.raises(SeriesDivergenceError):
            appell_f1(*args)

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

    @pytest.mark.oracle("gauss_2f1")
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


def _mp_single_sum(mp, a, b1, b2, c, x, y):
    """sum_n (a)_n (b2)_n / ((c)_n n!) y^n 2F1(a+n, b1; c+n; x): the F1
    double series summed over m first ((a)_(m+n) = (a)_n (a+n)_m, and so
    for c), with mpmath.hyp2f1 at the working precision.  It stops after
    three terms below 1e-20 of the sum."""
    total, coef, small, n = mp.mpf(0), mp.mpf(1), 0, 0
    while coef != 0 and small < 3:   # coef = 0 ends a terminating sum
        term = coef * mp.hyp2f1(a + n, b1, c + n, x)
        total += term
        small = small + 1 if abs(term) <= mp.mpf(10) ** -20 * abs(total) else 0
        coef *= (a + n) * (b2 + n) / ((c + n) * (n + 1)) * y
        n += 1
    return total


def _mp_appell_f1(mp, a, b1, b2, c, x, y):
    """F1 on the bidisk by _mp_single_sum, its outer sum over whichever
    argument is smallest among y, x (F1 is symmetric under
    (b1, x) <-> (b2, y)) and, after DLMF 16.16.4 or 16.16.5, (x-y)/(1-y)
    and (y-x)/(1-x).  The last two keep x next to y cheap: mpmath.hyp2f1
    is slowest around |x| = 0.9 near exp(+-i pi/3), over ten times its cost
    at |x| = 0.3, and mpmath.appellf1, itself such a sum, summed hundreds
    of terms there.
    """
    a, b1, b2, c, x, y = (mp.mpmathify(v) for v in (a, b1, b2, c, x, y))
    forms = [(abs(y), 1, (a, b1, b2, c, x, y)),
             (abs(x), 1, (a, b2, b1, c, y, x)),
             (abs((x - y) / (1 - y)), (1 - x) ** (c - a - b1) * (1 - y) ** (-b2),
              (c - a, c - b1 - b2, b2, c, x, (x - y) / (1 - y))),
             (abs((y - x) / (1 - x)), (1 - y) ** (c - a - b2) * (1 - x) ** (-b1),
              (c - a, c - b1 - b2, b1, c, y, (y - x) / (1 - x)))]
    _, pref, args = min(forms, key=lambda form: form[0])
    return pref * _mp_single_sum(mp, *args)


def _assert_f1_matches_mpmath(a, b1, b2, c, x, y, ref=None):
    """appell_f1 against ref, by default the single-sum F1 (_mp_appell_f1) at
    30 digits.

    Bound: 4 tol(|ref|) + 4 eps S, tol the default context's
    1e-12 |ref| + 1e-15.  S is sum |terms| of the better-conditioned of the
    direct series and its DLMF 16.16.1 transform, so 4 eps S is the
    rounding any float summation of the series meets (measured: at most
    0.2 eps S, at a complex point with S = 3e7 |ref|).  The series is
    summed to the tolerance at its rate, so the tail it leaves is within
    tol: over 4,600 points (3,000 hypothesis draws of these strategies and
    1,600 seeded uniform ones) the error less 4 eps S was at most 1.05 tol;
    on 400 of the seeded ones, a stop on two small terms alone reached
    15.9 tol.
    """
    mp = pytest.importorskip("mpmath")
    val = complex(appell_f1(a, b1, b2, c, x, y))
    with mp.workdps(30):
        ref = complex(_mp_appell_f1(mp, a, b1, b2, c, x, y) if ref is None else ref)
        xm, ym = mp.mpmathify(x), mp.mpmathify(y)
        pfaff = abs((1 - xm) ** (-b1) * (1 - ym) ** (-b2)) * _mp_abs_terms(
            mp, c - a, b1, b2, c, xm / (xm - 1), ym / (ym - 1))
        scale = float(min(_mp_abs_terms(mp, a, b1, b2, c, x, y), pfaff))
    bound = 4.0 * PrecisionContext().tol(abs(ref)) \
        + 4.0 * sys.float_info.epsilon * scale
    assert abs(val - ref) <= bound, (val, ref, scale)


def _assert_f1_matches_exact_sum(a, b1, b2, c, x, y):
    """appell_f1 of a polynomial (a a non-positive integer) against the
    exact rational sum of its terms at the same doubles, with
    _assert_f1_matches_mpmath's bound: 4 tol(|ref|) + 4 eps S, S the sum of
    the terms' moduli."""
    degree = round(-a)

    def column(b, w):   # (b)_k w^k / k!, k = 0..degree
        out = [Fraction(1)]
        for k in range(degree):
            out.append(out[-1] * (Fraction(b) + k) / (k + 1) * Fraction(w))
        return out

    u, v = column(b1, x), column(b2, y)
    ref = size = Fraction(0)
    ratio = Fraction(1)   # (a)_s / (c)_s
    for s in range(degree + 1):
        for m in range(s + 1):
            term = ratio * u[m] * v[s - m]
            ref, size = ref + term, size + abs(term)
        ratio = ratio * (Fraction(a) + s) / (Fraction(c) + s)
    val = appell_f1(a, b1, b2, c, x, y)
    bound = 4.0 * PrecisionContext().tol(abs(float(ref))) \
        + 4.0 * sys.float_info.epsilon * float(size)
    assert abs(val - float(ref)) <= bound, (val, float(ref), float(size))


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

    @pytest.mark.oracle("appell_f1")
    @pytest.mark.parametrize("args", PANEL)
    def test_panel_points(self, args):
        _assert_f1_matches_mpmath(*args)

    @pytest.mark.oracle("appell_f1")
    def test_transformed_point_meets_relative_bound(self):
        # the direct series' rounding alone would miss by ~76 x 1e-11
        mp = pytest.importorskip("mpmath")
        args = self.PANEL[0]
        with mp.workdps(30):
            ref = float(_mp_appell_f1(mp, *args))
        assert abs(appell_f1(*args) - ref) <= 1e-11 * abs(ref)

    @pytest.mark.oracle("appell_f1")
    @F1_SETTINGS
    @given(F1_PARAMS, F1_PARAMS, F1_PARAMS, F1_LOWER, F1_REAL_ARG, F1_REAL_ARG)
    @example(0.9, 1.0, 1.5, 2.0, 0.95, 0.3)
    @example(0.9, 1.0, 1.5, 2.0, -0.95, 0.95)
    # b2 = 0, where F1 is 2F1(a, b1; c; x): the anti-diagonal recurrence
    # was 4.3e-12 relative off, 1.08 times the bound
    @example(2.0, -1.5870088836528553, 0.0, -1.75, 0.5, 0.9375)
    def test_real(self, a, b1, b2, c, x, y):
        _assert_f1_matches_mpmath(a, b1, b2, c, x, y)

    @pytest.mark.oracle("appell_f1")
    @pytest.mark.parametrize("args", [
        (1.0, 0.0, 3.0, -1.5, 0.46875, -0.875),                 # 16 bounds off
        (2.0, -0.5, 0.0, -2.5, 0.5 * cmath.exp(1j), 0.9375),    # 34 bounds off
    ], ids=["b1=0", "b2=0-complex"])
    def test_a_zero_b_is_a_2f1(self, args):
        # F1 is a 2F1 in one argument; the anti-diagonal recurrence lost
        # the wanted solution, which carries none of the other one's mode
        _assert_f1_matches_mpmath(*args)

    @pytest.mark.oracle("appell_f1")
    @F1_SETTINGS
    @given(F1_PARAMS, F1_PARAMS, F1_PARAMS, F1_LOWER, F1_COMPLEX_ARG,
           F1_COMPLEX_ARG)
    def test_complex(self, a, b1, b2, c, x, y):
        _assert_f1_matches_mpmath(a, b1, b2, c, x, y)

    @pytest.mark.oracle("appell_f1")
    @pytest.mark.parametrize("seed, draw, count", [
        (46, lambda rng: rng.uniform(-3.0, 0.45), 14),
        (47, lambda rng: cmath.rect(rng.uniform(0.2, 3.0),
                                    rng.uniform(-math.pi, math.pi)), 10),
    ], ids=["real", "complex"])
    def test_past_the_bidisk(self, seed, draw, count):
        # max(|x|, |y|) >= 1 with the DLMF 16.16.1 image within _SLOW_RADIUS,
        # where appell_f1 sums its series.  mpmath.appellf1 at the arguments
        # as drawn shares no transformation with the kernel.  It sums over
        # the smaller argument, and where that is past 0.99 it raises unless
        # (x-y)/(x-1) is within 0.99: such draws are left out
        mp = pytest.importorskip("mpmath")
        rng, judged = random.Random(seed), 0
        while judged < count:
            a, b1, b2, c = (rng.uniform(-3.0, 3.0) for _ in range(4))
            x, y = draw(rng), draw(rng)
            if not (max(abs(x), abs(y)) >= 1.0 and (c > 0.5 or abs(c - round(c)) > 1e-3)
                    and max(abs(x / (x - 1.0)), abs(y / (y - 1.0))) <= special._SLOW_RADIUS):
                continue
            try:
                with mp.workdps(30):
                    ref = mp.appellf1(a, b1, b2, c, x, y)
            except (ValueError, mp.libmp.NoConvergence):
                continue
            judged += 1
            _assert_f1_matches_mpmath(a, b1, b2, c, x, y, ref)

    @pytest.mark.oracle("appell_f1")
    @pytest.mark.xfail(strict=True, reason="more than the bound off at eps 1e-12 "
                       "and at 1e-15 alike, with b1 and b2 nonzero (ROADMAP item 19)")
    @pytest.mark.parametrize("args", [
        # 2.66e-10 relative, 15 bounds; mpmath.appellf1 agrees with the oracle
        (2.125, 2.625, -1.4375, -2.5, -0.625, 0.4375),
        (1.0, -2.5, -3.0, -2.5, 0.837890625, 0.875),   # 5.1e-12, 1.24 bounds
    ], ids=["dyadic-probe", "hypothesis-draw"])
    def test_known_misses(self, args):
        _assert_f1_matches_mpmath(*args)

    # zeta = w/(w - 1) at w = e^(-2 pi i/3): 1/2 + i/(2 sqrt 3), |zeta| = 1/sqrt 3
    ZETA = cmath.exp(-2j * math.pi / 3) / (cmath.exp(-2j * math.pi / 3) - 1)

    @pytest.mark.oracle("appell_f1")
    @pytest.mark.parametrize("args", [
        (1.0, 0.5, 0.5, 2.0, ZETA, ZETA.conjugate()),   # 1.86 tol off at a two-term stop
        (1.0, 0.5, 0.5, 2.0, 0.9, -0.9),                 # 3.8 tol
        (1.3, -0.7, 2.1, 2.6, 0.94, 0.0),                # 11.5 tol: the terms fall slowly
    ], ids=["conjugate-pair", "real-pair", "slow-real"])
    def test_within_eps_rel_where_the_terms_oscillate(self, args):
        # the anti-diagonal sums pass through 0, so two small terms did not
        # mean the tail was small; measured at most 0.70 tol over 161 eps
        # from 1e-12 to 1e-4
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            ref = complex(mp.appellf1(*args[:4], mp.mpc(args[4]), mp.mpc(args[5])))
        for eps_rel in (1e-12, 1e-10, 1.5e-8, 1e-6, 1e-4):
            ctx = PrecisionContext(eps_rel=eps_rel)
            assert abs(appell_f1(*args, ctx) - ref) <= ctx.tol(abs(ref)), eps_rel


class TestIncompleteBeta:
    def test_at_zero(self):
        assert incomplete_beta(0.0, BetaBase(0.4, 2.0)) == 0.0

    def test_uniform_base(self):
        assert incomplete_beta(0.37, BetaBase(1.0, 1.0)) == pytest.approx(
            0.37, rel=1e-13)

    def test_against_quadrature(self):
        base = BetaBase(1 / 6, 2 / 3)
        direct = integrate_finite(
            lambda t: t ** (1 / 6 - 1) * (1 - t) ** (2 / 3 - 1), 0.0, 0.8)
        assert incomplete_beta(0.8, base) == pytest.approx(direct, rel=1e-10)

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(DomainError):
            incomplete_beta(1.5, BetaBase(1.0, 1.0))

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=8.0, max_value=1e300))
    def test_stirling_remainder_as_a_loop(self, x):
        # complete_beta's large-exponent terms keep the bits of the reduce form
        inv2 = 1.0 / (x * x)
        folded = functools.reduce(lambda acc, c: acc * inv2 + c,
                                  reversed(special._STIRLING), 0.0) / x
        assert special._stirling_remainder(x) == folded

    def test_complete_beta_past_the_doubles_is_a_domain_error(self):
        # B(1/2, b) ~ 1/b = 1e320 as b -> 0; it raised OverflowError
        with pytest.raises(DomainError, match="overflows"):
            complete_beta(BetaBase(0.5, 1e-320))
        with pytest.raises(DomainError, match="overflows"):
            beta_sqrt(0.9999999999999999, 1e-320)   # through the complement

    def test_incomplete_beta_past_the_doubles_is_a_domain_error(self):
        # x^a (1-x)^b / a ~ 1/a = 1e320 on the series side: it returned inf
        with pytest.raises(DomainError, match="overflows"):
            incomplete_beta(1e-17, BetaBase(1e-320, 1e-320))
        with pytest.raises(DomainError, match="overflows"):
            beta_sqrt(1e-17, 1e-320)

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

    def test_beta_sqrt_keeps_the_bits_of_a_fresh_base(self):
        # the symmetric base is cached per alpha; cold and warm calls alike
        # return sqrt(B(x, alpha, alpha)) from a base built on the spot
        rng = random.Random(40)
        alphas = [10.0 ** rng.uniform(-3, 1) for _ in range(20)] + [1 / 6, 0.25]
        for alpha in alphas:
            special._symmetric_base.cache_clear()
            for _ in range(10):
                x = rng.random()
                fresh = math.sqrt(incomplete_beta(x, BetaBase(alpha, alpha)))
                assert float.hex(beta_sqrt(x, alpha)) == float.hex(fresh)

    @pytest.mark.parametrize("alpha", [0.0, -0.0, -1 / 6, -math.inf, math.nan])
    def test_beta_sqrt_rejects_a_nonpositive_alpha(self, alpha):
        rng = random.Random(41)
        for _ in range(3):
            beta_sqrt(rng.random(), 1 / 6)
            with pytest.raises(DomainError):
                beta_sqrt(rng.random(), alpha)

    def test_term_cap(self, series_cap):
        # the continued fraction needs about 8 steps here
        series_cap(2)
        with pytest.raises(SeriesDivergenceError):
            incomplete_beta(0.3, BetaBase(2.0, 3.0))

    @pytest.mark.oracle("incomplete_beta")
    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
           st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=0.1, max_value=10.0))
    # the complement B(1) - B(1-x, b, a) at x just above 1/2 cancelled to
    # 9.7e-11 relative here
    @example(0.517, 8.28, 0.289)
    def test_against_mpmath(self, x, a, b):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            ref = mp.betainc(a, b, 0, x)
        # below the smallest normal double a result can hold no 13 digits
        bound = 1e-13 * ref + sys.float_info.min
        assert abs(incomplete_beta(x, BetaBase(a, b)) - ref) <= bound

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=1e-300, max_value=1.0, exclude_max=True),
           st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=0.1, max_value=10.0))
    @example(1e-300, 0.5, 2.0)
    @example(0.517, 8.28, 0.289)
    def test_log_in_the_logit_against_mpmath(self, x, a, b):
        # (ln B(x), d ln B / d ln(x/y)) with y = 1-x given apart: here the
        # double 1 - x, which mpmath takes as it is
        mp = pytest.importorskip("mpmath")
        y = 1.0 - x
        with mp.workdps(50):
            value = mp.betainc(a, b, 0, x)
            log_ref = mp.log(value)
            slope_ref = mp.mpf(x) ** a * mp.mpf(y) ** b / value
        log_beta = special._incomplete_beta_log(BetaBase(a, b))
        log_value, slope = log_beta(x, y, math.log(x), math.log(y))
        assert abs(log_value - log_ref) <= 1e-13 * max(1.0, abs(log_ref))
        assert abs(slope - slope_ref) <= 1e-13 * slope_ref

    def test_log_complement_that_cancels_to_nothing_is_a_domain_error(self):
        # B(1, 0.5, 1e-300) ~ 1e300 and B(0.1, 1e-300, 0.5) agree to the last bit
        log_beta = special._incomplete_beta_log(BetaBase(0.5, 1e-300))
        with pytest.raises(DomainError, match="cancels"):
            log_beta(0.9, 0.1, math.log(0.9), math.log(0.1))

    @pytest.mark.oracle("incomplete_beta")
    @pytest.mark.xfail(strict=True, reason="the complement B(1, a, b) - "
                       "B(1-x, b, a) cancels for a small b: both are about 1/b")
    def test_complement_for_a_small_exponent(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            ref = mp.betainc(0.5, mp.mpf(1e-10), 0, 0.9)
        assert abs(incomplete_beta(0.9, BetaBase(0.5, 1e-10)) - ref) <= 1e-13 * ref

    def test_complement_lost_to_rounding_is_a_domain_error(self):
        # B(1, 0.5, 1e-20) ~ 1e20 less B(0.1, 1e-20, 0.5) came back 81920
        # for 3.6369
        with pytest.raises(DomainError, match="no correct digit"):
            incomplete_beta(0.9, BetaBase(0.5, 1e-20))

    @pytest.mark.oracle("incomplete_beta")
    def test_complement_within_its_stated_bound(self):
        # eps (|ln B(1, a, b)| + 8) B(1, a, b) bounds every complement that
        # is returned (measured at most 0.91 of it with the 1e-13 relative
        # slack), and each is off by less than its value (at most 0.16 of
        # it); 502 of these 3,000 draws raise, and when none did, 532
        # missed 1e-13 relative, the worst by 1.08e286
        mp = pytest.importorskip("mpmath")
        rng = random.Random(11)
        for _ in range(3000):
            a, b, x = rng.uniform(0.1, 10.0), 10.0 ** rng.uniform(-300.0, 1.0), rng.random()
            base = BetaBase(a, b)
            try:
                val = incomplete_beta(x, base)
            except DomainError:
                continue
            if x < (a + 1.0) / (a + b + 2.0):
                continue
            total = complete_beta(base)
            with mp.workdps(50):
                ref = mp.betainc(a, b, 0, x)
            bound = sys.float_info.epsilon * (abs(math.log(total)) + 8.0) * total
            assert abs(val - ref) <= bound + 1e-13 * ref, (a, b, x)
            assert abs(val - ref) < ref, (a, b, x)


def _mp_beta(a, b):
    """B(a, b) from mpmath at 60 + log10 max(a, b) digits: at 40 it returns
    1.77 for B(1e300, 1/2) = 1.77e-150."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60 + int(math.log10(max(a, b, 1.0)))):
        return mp.beta(mp.mpf(a), mp.mpf(b))


def _complete_beta_draws(count):
    """Seeded exponents, a log-uniform in [1e-3, 1e8] and b in [1e-3, 1e4],
    where B(a, b) is a normal double."""
    rng, draws = random.Random(23), []
    while len(draws) < count:
        a, b = 10.0 ** rng.uniform(-3.0, 8.0), 10.0 ** rng.uniform(-3.0, 4.0)
        if sys.float_info.min <= _mp_beta(a, b) <= sys.float_info.max:
            draws.append((a, b))
    return draws


class TestCompleteBeta:
    """B(a, b) within 5e-13 of mpmath wherever it is a normal double, also
    with one exponent large, where three log-Gammas cancel: taken as
    ln Gamma(a) + ln Gamma(b) - ln Gamma(a+b), B(1e17, 1/2) = 5.6e-9 is 1.0."""

    @pytest.mark.oracle("complete_beta")
    @pytest.mark.parametrize("a, b", [
        (1e17, 0.5), (1e8, 0.5), (1e4, 3.0), (1e300, 0.5), (0.5, 1e300),
        (150.0, 250.0), (300.0, 100.0), (8.0, 8.0), (7.99, 8.0), (0.5, 8.0),
        (1e-3, 1e8), (8.0, 1e-300), (1 / 6, 2 / 3), (30.0, 400.0)])
    def test_against_mpmath(self, a, b):
        ref = _mp_beta(a, b)
        value = complete_beta(BetaBase(a, b))
        assert complete_beta(BetaBase(b, a)) == value
        assert abs(value - ref) <= 5e-13 * ref

    @pytest.mark.oracle("complete_beta")
    def test_seeded_sample_against_mpmath(self):
        errors = [abs(complete_beta(BetaBase(a, b)) / _mp_beta(a, b) - 1)
                  for a, b in _complete_beta_draws(300)]
        assert max(errors) <= 5e-13

    def test_underflow_is_zero(self):
        assert complete_beta(BetaBase(1e300, 1e300)) == 0.0

    def test_infinite_exponent_is_a_domain_error(self):
        with pytest.raises(DomainError):
            complete_beta(BetaBase(0.5, math.inf))


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

    @pytest.mark.oracle("elliptic_k")
    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0 - 1e-12))
    @example(0.0)
    @example(1.0 - 1e-12)
    def test_against_mpmath(self, k):
        mp = pytest.importorskip("mpmath")
        # k^2 of a double is exact in 106 bits, and 1 - k^2 down to 2e-12
        # keeps 20 more digits at 50
        with mp.workdps(50):
            ref = mp.ellipk(mp.mpf(k) ** 2)
        assert abs(elliptic_k(k) - ref) <= 2e-15 * ref

    @pytest.mark.oracle("elliptic_k_complementary")
    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=1e-300, max_value=1.0))
    @example(1e-300)
    @example(1.0)
    def test_complementary_against_mpmath(self, k):
        mp = pytest.importorskip("mpmath")
        # K'(k) = K(m = 1 - k^2): resolving 1 - k^2 next to 1 takes about
        # 2 |log10 k| digits beyond the 20 the comparison needs
        with mp.workdps(20 + int(-2.0 * math.log10(k))):
            ref = mp.ellipk(1 - mp.mpf(k) ** 2)
        assert abs(elliptic_k_complementary(k) - ref) <= 2e-15 * ref

    def test_agm_stops_at_its_fixed_point(self, monkeypatch):
        # at k = sqrt(0.1464...) g settles one ulp below a, and a stop on
        # |a - g| <= 1e-17 a ran all 60 steps; a fixed point stays put, so
        # stopping there gives the bits of all 60
        def agm_60(k):
            a, g = 1.0, k
            for _ in range(60):
                a, g = 0.5 * (a + g), math.sqrt(a * g)
            return math.pi / (2.0 * a)

        rng = random.Random(1304)
        sample = ([rng.random() for _ in range(2000)]
                  + [10.0 ** -rng.uniform(0.0, 300.0) for _ in range(1000)])
        assert all(elliptic_k_complementary(k) == agm_60(k) for k in sample)
        roots = []
        real_sqrt = math.sqrt

        def counted(x):
            roots.append(x)
            return real_sqrt(x)
        monkeypatch.setattr(math, "sqrt", counted)
        elliptic_k_complementary(real_sqrt(0.14644660940672619))
        assert len(roots) <= 6


class TestSinSextuple:
    @pytest.mark.parametrize("y", [0.0, 1.0, -1.0])
    def test_vanishes_at_cardinal_points(self, y):
        assert sin_multiple_p6(y) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
    def test_outside_the_interval_is_a_domain_error(self, y):
        # nan returned nan
        with pytest.raises(DomainError):
            sin_multiple_p6(y)

    def test_quarter(self):
        assert sin_multiple_p6(0.25) == pytest.approx(
            math.sin(6.0 * math.asin(0.25)), rel=1e-14)

    @given(st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_transcendental(self, y):
        assert sin_multiple_p6(y) == pytest.approx(
            math.sin(6.0 * math.asin(y)), abs=1e-13)

    @pytest.mark.oracle("sin_multiple_p6")
    @given(st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=300, deadline=None)
    @example(-0.7974930555309918)   # the worst point measured
    @example(0.5)
    @example(math.sqrt(3.0) / 2.0)
    def test_absolute_bound_against_mpmath(self, y):
        # the docstring's absolute bound: the worst over 1.2 million points
        # of [-1, 1] was 1.3e-15
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            ref = mp.sin(6 * mp.asin(mp.mpf(y)))
        assert abs(sin_multiple_p6(y) - ref) <= 3e-15


class TestQuadraticRoots:
    @pytest.mark.oracle("quadratic_roots")
    def test_against_mpmath(self):
        # b up to 1e8 in magnitude: -b + sqrt(b^2 - 4ac) cancelled, and put
        # the small root of t^2 + 1e8 t + 1 at -7.45e-9 for -1e-8
        mp = pytest.importorskip("mpmath")
        rng = random.Random(5)
        for _ in range(500):
            a, c = (rng.uniform(0.1, 10.0) * rng.choice((-1.0, 1.0)) for _ in range(2))
            b = 10.0 ** rng.uniform(-2.0, 8.0) * rng.choice((-1.0, 1.0))
            with mp.workdps(40):
                disc = mp.sqrt(mp.mpf(b) ** 2 - 4 * mp.mpf(a) * c)
                exact = ((-b + disc) / (2 * a), (-b - disc) / (2 * a))
            roots = quadratic_roots(a, b, c)
            assert abs(roots[0]) <= abs(roots[1])
            for root in roots:
                # a conjugate pair has one modulus, so match each to its nearest
                err = min(abs(root - ref) / abs(ref) for ref in exact)
                assert err <= 4 * sys.float_info.epsilon, (a, b, c)

    @pytest.mark.oracle("quadratic_power_series")
    def test_no_cancellation_in_the_series(self):
        # the small root, c/q, sets the F1 arguments: with it cancelled, these
        # were 3.1e-11 and 2.8e-10 off
        mp = pytest.importorskip("mpmath")
        for b, x in ((1e4, 1e-5), (-1e4, 5e-5)):
            value = quadratic_power_series(0.5, 0.5, 1.0, b, 1.0, x).value
            with mp.workdps(30):
                ref = mp.quad(lambda t: mp.sqrt(t) / mp.sqrt(t * t + b * t + 1), [0, x])
            assert abs(value - ref) <= DEFAULT_CTX.eps_rel * abs(ref), (b, x)

    def test_double_root_at_zero(self):
        assert quadratic_roots(2.0, 0.0, 0.0) == (0.0, 0.0)


class TestQuadraticPowerSeries:
    def test_against_quadrature(self):
        args = (-5 / 6, 5 / 12, 1.0, -2.0, 1.0, 0.01)
        series = quadratic_power_series(*args)
        quad = quadratic_power_integral(*args)
        assert complex(series.value).real == pytest.approx(quad, rel=1e-12)

    def test_complex_roots_real_result(self):
        args = (0.0, 0.5, 1.0, 1.0, 1.0, 0.4)
        series = quadratic_power_series(*args)
        quad = quadratic_power_integral(*args)
        assert abs(complex(series.value).imag) < 1e-13
        assert complex(series.value).real == pytest.approx(quad, rel=1e-11)

    def test_term_cap_reports_best_on_the_value_scale(self, series_cap):
        # the partial sum carries both prefactors: c^(-nu) x^(mu+1)/(mu+1)
        # = 0.2025, and DLMF 16.16.1's |1 - x/r1|^(-2 nu) = 0.837, which
        # takes |x/r1| = 0.45 to 0.377 (24 terms in place of 31)
        args = (1.0, 0.5, 1.0, 1.0, 4.0, 0.9)
        value = quadratic_power_series(*args).value
        series_cap(8)
        with pytest.raises(SeriesDivergenceError) as err:
            quadratic_power_series(*args)
        assert abs(err.value.best - value) <= 1e-3 * abs(value)
        assert err.value.gap <= 1e-3 * abs(value)

    @pytest.mark.parametrize("mu", [-1.0, -2.0])
    def test_divergent_power_is_a_domain_error(self, mu):
        # mu + 1 = 0 divided by zero
        with pytest.raises(DomainError):
            quadratic_power_series(mu, 0.5, 1.0, 1.0, 1.0, 0.3)

    def test_divergent_integral_at_zero_is_a_domain_error(self):
        # 0 ** (mu + 1) with mu < -1 raised a raw ZeroDivisionError
        with pytest.raises(DomainError, match="diverges"):
            quadratic_power_series(-1.5, 0.5, 1.0, 1.0, 1.0, 0.0)


def _float_and_complex(f, *args):
    """f at the float args and at the same values as complex numbers: each
    outcome is the value, or the name of the KernelError raised."""
    outcomes = []
    for call in (args, [complex(v) for v in args]):
        try:
            outcomes.append(f(*call))
        except KernelError as exc:
            outcomes.append(type(exc).__name__)
    return outcomes


class TestRealPath:
    """Real inputs are summed in float arithmetic and give a float.  The
    same call with complex inputs gives the same value: bit for bit where
    both kinds run the same operations, and to rounding where a Gamma factor
    (math.gamma against the Lanczos sum) or a power with an integral
    exponent (which complex ** takes by repeated multiplication) enters."""

    def test_gauss_2f1(self):
        rng = random.Random(1304)
        seen = collections.Counter()
        for i in range(2400):
            a, b, c = (rng.uniform(-3.0, 3.0) for _ in range(3))
            if i % 6 == 1:
                a = float(-rng.randint(0, 6))            # a polynomial
            elif i % 6 == 2:
                c = a + b + rng.randint(-2, 2)           # no connection formula
            z = rng.uniform(-0.99, 0.99) if i % 2 else -rng.uniform(1.0, 3.0)
            real, cplx = _float_and_complex(gauss_2f1, a, b, c, z)
            if isinstance(real, str):
                assert real == cplx, (a, b, c, z)
                seen[real] += 1
                continue
            assert type(real) is float, (a, b, c, z)
            if abs(z) >= 1.0 and not _is_nonpositive_int(a):
                route = "integral"   # in complex arithmetic for both
            else:
                route = _route_2f1(a, b, c, z)[0]
            exponent = c - a - b if route == "euler" else min(a, b)
            if route == "connection" or (route in ("euler", "pfaff")
                                         and exponent.is_integer()):
                # measured: at most 4.3e-14, where c next to -2 makes the
                # connection formula's two terms cancel (both kinds are
                # then about 1e-13 off mpmath)
                assert abs(real - cplx) <= 1e-13 * abs(cplx), (a, b, c, z)
            else:
                assert repr(real) == repr(cplx.real), (a, b, c, z)
            seen[route] += 1
        assert seen["connection"] > 100 and seen["integral"] > 100
        assert min(seen[r] for r in ("series", "euler", "pfaff")) > 20

    def test_gauss_2f1_complex_z_with_real_parameters(self, monkeypatch):
        # real a, b and c stay floats with a complex z.  Against the same
        # values as complex parameters: the same route and series terms,
        # and the same bits except on the connection route, whose Gamma
        # factors take math.gamma in place of the Lanczos sum
        sums = []
        original = special._series_2f1

        def recorded(*args):
            result = original(*args)
            sums.append((type(args[0]), type(args[2]), result.terms))
            return result

        monkeypatch.setattr(special, "_series_2f1", recorded)

        def outcome(*args):
            sums.clear()
            try:
                value = gauss_2f1(*args)
            except KernelError as exc:
                value = type(exc).__name__
            return value, sums[:]

        rng = random.Random(1307)
        seen = collections.Counter()
        for i in range(2400):
            a, b, c = (rng.uniform(-3.0, 3.0) for _ in range(3))
            if i % 6 == 1:
                a = float(-rng.randint(0, 6))            # a polynomial
            elif i % 6 == 2:
                c = a + b + rng.randint(-2, 2)           # no connection formula
            z = cmath.rect(rng.uniform(0.0, 0.99), rng.uniform(-math.pi, math.pi))
            real, real_sums = outcome(a, b, c, z)
            cplx, cplx_sums = outcome(*map(complex, (a, b, c, z)))
            route = _route_2f1(a, b, c, z)[0]
            assert route == _route_2f1(*map(complex, (a, b, c, z)))[0], (a, b, c, z)
            assert [s[2] for s in real_sums] == [s[2] for s in cplx_sums], (a, b, c, z)
            assert all(s[:2] == (float, float) for s in real_sums), (a, b, c, z)
            if isinstance(real, str):
                assert real == cplx, (a, b, c, z)
                seen[real] += 1
                continue
            assert type(real) is complex, (a, b, c, z)
            if route == "connection":
                assert abs(real - cplx) <= 1e-13 * abs(cplx), (a, b, c, z)
            else:
                assert repr(real) == repr(cplx), (a, b, c, z)
            seen[route] += 1
        assert seen["connection"] > 100
        assert min(seen[r] for r in ("series", "euler", "pfaff")) > 20

    def test_appell_f1(self):
        rng = random.Random(1305)
        integral_b = 0
        for i in range(2000):
            a, b1, b2, c = (rng.uniform(-3.0, 3.0) for _ in range(4))
            if i % 5 == 1:
                b1 = float(rng.randint(-2, 2))
            x, y = rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95)
            real, cplx = _float_and_complex(appell_f1, a, b1, b2, c, x, y)
            assert type(real) is float, (a, b1, b2, c, x, y, real)
            integral_b += b1.is_integer()
            if b1 == 0.0:
                # F1 is 2F1(a, b2; c; y), whose real and complex paths
                # test_gauss_2f1 holds to each other
                twin = _float_and_complex(gauss_2f1, a, b2, c, y)
                assert [repr(real), repr(cplx)] == list(map(repr, twin))
            elif b1.is_integer():
                # DLMF 16.16.1's (1-x)^(-b1), which complex ** multiplies
                # out: measured, 8 of the 315 are one ulp apart
                assert abs(real - cplx) <= 4.0 * sys.float_info.epsilon * abs(cplx)
            else:
                assert repr(real) == repr(cplx.real), (a, b1, b2, c, x, y)
        assert integral_b == 400

    def test_quadratic_power_series_with_complex_roots(self):
        # the two F1 arguments are a conjugate pair, so the series runs in
        # floats for real and complex-typed data alike: the same bits
        rng = random.Random(1306)
        floats = 0
        for i in range(2000):
            mu, nu = rng.uniform(-0.95, 3.0), rng.uniform(-3.0, 3.0)
            qa = rng.uniform(0.1, 3.0) * rng.choice((-1.0, 1.0))
            qb = rng.uniform(-3.0, 3.0)
            qc = qb * qb / (4.0 * qa) * rng.uniform(1.05, 4.0)   # b^2 < 4ac
            x = abs(quadratic_roots(qa, qb, qc)[0]) * rng.uniform(-0.9, 0.9)
            args = (mu, nu, qa, qb, qc, x)
            real, cplx = _float_and_complex(quadratic_power_series, *args)
            assert repr(complex(real.value).real) == repr(cplx.value.real), args
            assert real.terms == cplx.terms
            if qc > 0.0 and x >= 0.0:   # every power has a positive base
                assert type(real.value) is float, args
                floats += 1
        assert floats > 400


class TestNegativePochhammer:
    def test_matches_gamma_quotient(self):
        # (3/4)_(-2) = Gamma(3/4 - 2)/Gamma(3/4) = 1/((3/4-2)(3/4-1))
        assert pochhammer_negative(0.75, 2) == pytest.approx(16.0 / 5.0, rel=1e-14)

    def test_reduces_arcsin_coefficient(self):
        for n in range(1, 6):
            coeff = pochhammer(0.25, n) * pochhammer_negative(0.75, n) \
                / pochhammer_negative(0.5, n)
            assert coeff == pytest.approx(pochhammer(0.5, n), rel=1e-12)
