"""The integral inverses F, m, G, theta and beta_ratio_root against mpmath at
30 digits: each returned value is put back into its defining equation,
evaluated independently, over the inverse's whole domain.

The bound is 1e-11 relative to the target plus the change that one ulp of
the returned float makes in the equation: no float answer can do better than
half an ulp, and next to a singular end (1 - x ~ 1e-7 in a Beta ratio with
a ~ 0.15) that term dominates.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rrcflab.modular import (F_ARGUMENT_MAX, TAIL_TOTAL, F_of_x, G_of_x,
                             beta_ratio_root, m_of_x, theta_of_X)
from rrcflab.numerics import BracketError, DomainError
from rrcflab.special import BetaBase, incomplete_beta

mp = pytest.importorskip("mpmath")

REL = 1e-11
ORACLE = settings(max_examples=30, deadline=None)
SIXTH, THIRD = mp.mpf(1) / 6, mp.mpf(1) / 3


def _within(value, target, slope, root):
    """|value - target| within REL |target| plus one ulp of the root times
    the equation's slope there."""
    bound = REL * abs(target) + abs(slope) * math.ulp(root)
    return abs(value - target) <= bound, float(abs(value - target) / abs(target))


# ---------------------------------------------------------------------------
# mpmath references; every quadrature is scaled to an interval of length
# about 1 with an O(1) integrand, because mp.quad judges an absolute error.

def _rr_integrand(x):
    return x ** -SIXTH * (1 - 11 * x ** 5 - x ** 10) ** -SIXTH


def rr_integral(u):
    """int_0^u x^(-1/6) (1 - 11x^5 - x^10)^(-1/6) dx: with x = (W s)^6 below
    1/2, and as the closed-form total less the piece up to the singular top
    above it."""
    with mp.workdps(30):
        u = mp.mpf(u)
        if u <= 0.5:
            w = mp.root(u, 6)
            return 6 * w ** 5 * mp.quad(
                lambda s: s ** 4 * (1 - 11 * (w * s) ** 30 - (w * s) ** 60) ** -SIXTH,
                [0, 1])
        top = (mp.sqrt(5) - 1) / 2
        total = mp.beta(SIXTH, 2 * THIRD) / mp.cbrt(4) / 5
        return total - mp.quad(_rr_integrand, [u, top])


def surd_tail(g):
    """int_g^inf t^(-1/6) (125 + 22t + t^2)^(-1/2) dt; t = w^-6 past t = 1."""
    with mp.workdps(30):
        g = mp.mpf(g)

        def far(top):
            return 6 * top * mp.quad(
                lambda s: (1 + 22 * (top * s) ** 6 + 125 * (top * s) ** 12) ** -0.5, [0, 1])

        if g >= 1:
            return far(g ** -SIXTH)
        head = mp.quad(lambda w: 6 * w ** 4 * (125 + 22 * w ** 6 + w ** 12) ** -0.5,
                       [mp.root(g, 6), 1])
        return head + far(mp.mpf(1))


def eta_quarter(t):
    """eta(i t/2)^4: directly for t >= 1, through eta(i t/2) = sqrt(2/t)
    eta(2i/t) below."""
    if t >= 1:
        return mp.exp(-mp.pi * t / 6) * mp.qp(mp.exp(-mp.pi * t)) ** 4
    return (2 / t) ** 2 * mp.exp(-2 * mp.pi / (3 * t)) * mp.qp(mp.exp(-4 * mp.pi / t)) ** 4


def eta_tail(s):
    """int_s^inf eta(i t/2)^4 dt, with exp(-pi s/6) taken out past t = 1."""
    with mp.workdps(30):
        s = mp.mpf(s)
        lower = max(s, mp.mpf(1))
        tail = mp.exp(-mp.pi * lower / 6) * mp.quad(
            lambda tau: mp.exp(-mp.pi * tau / 6) * mp.qp(mp.exp(-mp.pi * (lower + tau))) ** 4,
            [0, 6, 30, mp.inf])
        if s < 1:
            tail += mp.quad(eta_quarter, [s, 1])
        return tail


# ---------------------------------------------------------------------------

def _f_check(x):
    u = F_of_x(x)
    ok, err = _within(rr_integral(u), mp.mpf(x), _rr_integrand(mp.mpf(u)), u)
    assert ok, (x, u, err)


def _g_check(x):
    g = G_of_x(x)
    slope = mp.mpf(g) ** -SIXTH * (125 + 22 * mp.mpf(g) + mp.mpf(g) ** 2) ** -0.5 / 5
    ok, err = _within(surd_tail(g) / 5, mp.mpf(x), slope, g)
    assert ok, (x, g, err)


def _m_check(x):
    m = m_of_x(x)
    s = mp.sqrt(mp.mpf(m))
    slope = mp.pi * eta_quarter(s) / (2 * s)
    ok, err = _within(mp.pi * eta_tail(s), mp.mpf(x), slope, m)
    assert ok, (x, m, err)


class TestF:
    @ORACLE
    @given(st.floats(min_value=1e-250, max_value=1.0, exclude_max=True))
    @example(1e-9)                # a bracket judged on an absolute step in u was 1.9e-5 off
    @example(1.0 - 1e-9)          # next to the singular top
    @example(1.0 - 1e-12)         # the root 33 ulps below it
    @example(1.0 - 2 ** -53)      # the root within an ulp of it
    @example(0.5)
    def test_defining_equation(self, share):
        _f_check(F_ARGUMENT_MAX * share)

    def test_domain(self):
        with pytest.raises(DomainError):
            F_of_x(F_ARGUMENT_MAX)


class TestG:
    @ORACLE
    @given(st.floats(min_value=1e-45, max_value=1.0, exclude_max=True))
    @example(1e-6)
    @example(1e-40)
    @example(1.0 - 1e-9)
    def test_defining_equation(self, share):
        _g_check(F_ARGUMENT_MAX * share)

    @pytest.mark.parametrize("x", [8e-4, 5e-4, 1e-5])
    def test_small_arguments(self, x):
        # an upward-doubling bracket that stops at 9.2e18 misses these roots
        _g_check(x)

    def test_overflowing_root_is_a_domain_error(self):
        with pytest.raises(DomainError):
            G_of_x(1e-60)


class TestM:
    @ORACLE
    @given(st.floats(min_value=1e-250, max_value=1.0, exclude_max=True))
    @example(1e-12)
    @example(0.999)
    @example(0.5)
    def test_defining_equation(self, share):
        _m_check(TAIL_TOTAL * share)


class TestTheta:
    @ORACLE
    @given(st.floats(min_value=-10.0, max_value=300.0))
    @example(-10.0)
    @example(-9.362285744013544e-10)    # the surd tail from just below 1
    @example(1.7)                 # X = 50
    @example(300.0)
    def test_defining_equation(self, log10_x):
        big_x = 10.0 ** log10_x
        b = theta_of_X(big_x)
        with mp.workdps(30):
            target = mp.cbrt(4) * surd_tail(big_x)
            value = mp.betainc(SIXTH, 2 * THIRD, 0, b)
            slope = mp.mpf(b) ** (SIXTH - 1) * (1 - mp.mpf(b)) ** -THIRD
        ok, err = _within(value, target, slope, b)
        assert ok, (big_x, b, err)


class TestBetaRatioRoot:
    @staticmethod
    def _check(a, b, r):
        # The root can be no more accurate than the incomplete_beta kernel it
        # solves through, so that kernel's own error in the ratio at the root
        # (measured here) joins the bound: B(x, a, b) for x > 1/2 is formed
        # as B(1) - B(1-x, b, a), which cancels where the mass of the
        # integrand lies below 1 - x (a = 3.5, b = 0.25, x = 0.536 loses
        # 1.4 digits).
        base = BetaBase(a, b)
        x = beta_ratio_root(base, r)
        kernel = incomplete_beta(1.0 - x, base) / incomplete_beta(x, base)
        with mp.workdps(30):
            xm = mp.mpf(x)
            lower, upper = mp.betainc(a, b, 0, xm), mp.betainc(a, b, 0, 1 - xm)
            ratio = upper / lower
            # d/dx of B(1-x)/B(x)
            slope = ((1 - xm) ** (a - 1) * xm ** (b - 1) / lower
                     + upper * xm ** (a - 1) * (1 - xm) ** (b - 1) / lower ** 2)
            err = abs(ratio - r)
            bound = REL * r + abs(slope) * math.ulp(x) + abs(kernel - ratio)
        assert err <= bound, (a, b, r, x, float(err / r), float(abs(kernel - ratio) / r))

    # Bases and ratios as the paper's singular values and the benchmark draw
    # them; outside, a root may lie closer to 1 than the last float below it.
    @ORACLE
    @given(st.floats(min_value=0.15, max_value=3.0), st.floats(min_value=0.15, max_value=3.0),
           st.floats(min_value=-1.0, max_value=1.0))
    @example(1 / 6, 1 / 6, math.log10(2.0))
    @example(0.15147800091129002, 2.3774526677901946, math.log10(0.10622348708657026))
    @example(3.5, 0.25, 0.25)
    def test_defining_equation(self, a, b, log10_r):
        self._check(a, b, 10.0 ** log10_r)

    @pytest.mark.parametrize("a, b, r", [
        # a search in x judged on an absolute step missed these by 6.3 and
        # 3.0 tolerances (1 - x ~ 1e-4)
        (0.20564173423832993, 2.1764273824086353, 0.18896824545285074),
        (0.19855224448770423, 0.5781014810150168, 0.15262677786200912),
    ])
    def test_roots_next_to_one(self, a, b, r):
        self._check(a, b, r)

    def test_root_past_the_last_float_below_one(self):
        # 1 - x ~ 1e-16 here, short of the spacing of floats below 1
        with pytest.raises(BracketError):
            beta_ratio_root(BetaBase(0.125, 1.0), 0.01)
