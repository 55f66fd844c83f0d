"""The integral inverses F, m, G, theta and beta_ratio_root, the
eta-quotient nome inverse and App 2's inverse of the continued fraction,
against mpmath at 30 digits: each returned value is put back into its
defining equation, evaluated independently, over the inverse's whole
domain.

The bound is 1e-11 relative to the target plus the change that one ulp of
the returned float makes in the equation: no float answer can do better than
half an ulp, and next to a singular end (1 - x ~ 1e-7 in a Beta ratio with
a ~ 0.15) that term dominates.
"""

import math
import random
import sys

import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from rrcflab.modular import (F_ARGUMENT_MAX, TAIL_TOTAL, F_of_x, G_of_x,
                             _surd_legendre_sum, beta_ratio_root,
                             eta_quotient_nome_of, m_of_x, surd_tail_integral,
                             theta_of_X)
from rrcflab.numerics import DEFAULT_CTX, BracketError, DomainError
from rrcflab.qseries import GOLDEN_CONJUGATE
from rrcflab.routes import tau_of_rrcf
from rrcflab.special import BetaBase

mp = pytest.importorskip("mpmath")

REL = 1e-11
ORACLE = settings(max_examples=30, deadline=None)
# at the references' 30 digits: formed at import's 53 bits, g^(-1/6) would
# carry the rounding of 1/6, 9e-18 |ln g| relative
with mp.workdps(30):
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
    @pytest.mark.oracle("F_of_x")
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


def _below_top(count):
    """The count floats just below F_ARGUMENT_MAX, from the top down."""
    band = [math.nextafter(F_ARGUMENT_MAX, 0.0)]
    while len(band) < count:
        band.append(math.nextafter(band[-1], 0.0))
    return band


class TestBelowTheTop:
    """The 4,000 floats below F_ARGUMENT_MAX, where 5x rounds onto the eta
    tail's total: F stays inside (0, GOLDEN_CONJUGATE), the domain of the
    integral it inverts (a search that landed on the golden conjugate raised
    for 80 of them), and G stays positive."""

    BAND = _below_top(4000)

    def test_every_float_in_range(self):
        for x in self.BAND:
            assert 0.0 < F_of_x(x) < GOLDEN_CONJUGATE, x
            assert G_of_x(x) > 0.0, x

    @pytest.mark.oracle("F_of_x")
    @pytest.mark.oracle("G_of_x")
    @pytest.mark.parametrize("x", [*BAND[::200], 0.8413092631952175])
    def test_defining_equations(self, x):
        _f_check(x)
        _g_check(x)


class TestG:
    @pytest.mark.oracle("G_of_x")
    @ORACLE
    @given(st.floats(min_value=1e-45, max_value=1.0, exclude_max=True))
    @example(1e-6)
    @example(1e-40)
    @example(1.0 - 1e-9)
    def test_defining_equation(self, share):
        _g_check(F_ARGUMENT_MAX * share)

    @pytest.mark.oracle("G_of_x")
    @pytest.mark.parametrize("x", [8e-4, 5e-4, 1e-5])
    def test_small_arguments(self, x):
        # an upward-doubling bracket that stops at 9.2e18 misses these roots
        _g_check(x)

    def test_overflowing_root_is_a_domain_error(self):
        with pytest.raises(DomainError):
            G_of_x(1e-60)


class TestM:
    @pytest.mark.oracle("m_of_x")
    @ORACLE
    @given(st.floats(min_value=1e-250, max_value=1.0, exclude_max=True))
    @example(1e-12)
    @example(0.999)
    @example(0.5)
    def test_defining_equation(self, share):
        _m_check(TAIL_TOTAL * share)


class TestEtaQuotientNome:
    """q with u(q) = w against u = f(-q)^6 / (q f(-q^5)^6) in mpmath, to
    1e-13 relative plus the change one ulp of q makes in u."""

    @pytest.mark.oracle("eta_quotient_nome_of")
    @ORACLE
    @given(st.floats(min_value=-6.0, max_value=12.0))
    @example(9.0)                 # w = 1e9: no sign change on a fixed bracket
    @example(0.5 * math.log10(125.0))   # the fixed point of the Fricke involution
    @example(-6.0)
    @example(12.0)
    def test_against_mpmath(self, log10_w):
        w = 10.0 ** log10_w
        q = eta_quotient_nome_of(w)
        with mp.workdps(30):
            def u(t):
                return mp.qp(t) ** 6 / (t * mp.qp(t ** 5) ** 6)
            value = u(mp.mpf(q))
            slope = mp.diff(u, mp.mpf(q))
        assert abs(value - w) <= 1e-13 * w + abs(slope) * math.ulp(q), (w, q)

    @pytest.mark.parametrize("w", [0.0, -1.0, math.inf, math.nan])
    def test_domain(self, w):
        with pytest.raises(DomainError):
            eta_quotient_nome_of(w)


def _rrcf(q):
    """R(q) = q^(1/5) (q; q^5) (q^4; q^5) / ((q^2; q^5) (q^3; q^5))."""
    q5 = q ** 5
    return (q ** (mp.mpf(1) / 5) * mp.qp(q, q5) * mp.qp(q ** 4, q5)
            / (mp.qp(q ** 2, q5) * mp.qp(q ** 3, q5)))


def _tau_draws():
    """x = R(q), rounded to a float, at 100 nomes q log-uniform in
    [1e-8, 0.8]: above q ~ 0.8 R is flat to double precision, so x no
    longer determines tau."""
    rng = random.Random(0)
    with mp.workdps(30):
        return [(float(_rrcf(mp.mpf(q))), q)
                for q in (1e-8 * 0.8e8 ** rng.random() for _ in range(100))]


class TestTauOfRrcf:
    """tau = -ln(q)/pi with R(q) = x against the root of ln R(e^L) = ln x in
    mpmath, within 8 cond eps, where cond = |d ln tau / d ln x| is the
    condition number of the inverse.  Measured, the worst is 3.2 cond eps;
    a Brent search in ln q stopping within eps_rel was off by 205."""

    @staticmethod
    def _error(x, q_near):
        """(|tau - tau_ref| / tau_ref, cond) with tau_ref = -L/pi at the
        root L of ln R(e^L) = ln x next to ln q_near."""
        tau = tau_of_rrcf(x)
        with mp.workdps(30):
            def gap(log_q):
                return mp.log(_rrcf(mp.exp(log_q))) - mp.log(x)
            log_q = mp.findroot(gap, mp.log(mp.mpf(q_near)))
            cond = abs(1 / (log_q * mp.diff(gap, log_q)))
            return float(abs(tau * mp.pi / log_q + 1)), float(cond)

    @pytest.mark.parametrize("x, q", _tau_draws())
    def test_against_mpmath(self, x, q):
        err, cond = self._error(x, q)
        assert err <= 8 * cond * sys.float_info.epsilon, (x, err, cond)

    # below x = 2.2e-62, where x^-5 overflows, q ~ x^5 is not a double either
    @pytest.mark.parametrize("x, q_near", [(1e-3, 1e-15), (1e-60, 1e-300),
                                           (1e-63, "1e-315"), (1e-100, "1e-500"),
                                           (1e-300, "1e-1500")])
    def test_below_a_nome_of_1e_8(self, x, q_near):
        # cond is below 1 here (5/|ln q|), so the rounding of tau itself,
        # up to one ulp, is allowed besides
        err, cond = self._error(x, q_near)
        tau = tau_of_rrcf(x)
        assert err <= 8 * cond * sys.float_info.epsilon + math.ulp(tau) / tau, (x, err)

    @pytest.mark.parametrize("x", [0.0, -0.5, GOLDEN_CONJUGATE, 1.0,
                                   math.inf, math.nan])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            tau_of_rrcf(x)


_SURD_EDGES = (math.sqrt(125.0) / 2, 2 * math.sqrt(125.0))


class TestSurdTail:
    """theta's target, the surd tail, to 2e-15 relative: the closed-form
    total less a head series up to sqrt(125)/2, a far series from
    2 sqrt(125), and one quadrature of a smooth integrand between them."""

    @pytest.mark.oracle("surd_tail_integral")
    @ORACLE
    @given(st.floats(min_value=-12.0, max_value=12.0).map(lambda e: 10.0 ** e))
    @example(2.0239101052319723e-07)    # 2.4e-12 off with the head over [X, 1]
    @example(1.0)
    @example(1e-12)
    @example(1e12)
    # the series' edges at rate 1/2, and their neighbours in the band
    @example(_SURD_EDGES[0])
    @example(math.nextafter(_SURD_EDGES[0], math.inf))
    @example(_SURD_EDGES[1])
    @example(math.nextafter(_SURD_EDGES[1], 0.0))
    def test_against_mpmath(self, big_x):
        value = surd_tail_integral(big_x)
        with mp.workdps(30):
            target = surd_tail(big_x)
        assert abs(value - target) <= 2e-15 * target, (big_x, value)

    @pytest.mark.oracle("surd_tail_integral")
    @pytest.mark.parametrize("lo, hi", [(-12.0, math.log10(_SURD_EDGES[0])),
                                        (math.log10(_SURD_EDGES[1]), 12.0)],
                             ids=["head series", "far series"])
    def test_series_against_mpmath(self, lo, hi):
        # seeded X log-uniform over each series region
        rng = random.Random(42)
        for big_x in [10.0 ** rng.uniform(lo, hi) for _ in range(40)]:
            value = surd_tail_integral(big_x)
            with mp.workdps(30):
                target = surd_tail(big_x)
            assert abs(value - target) <= 2e-15 * target, (big_x, value)

    @pytest.mark.parametrize("edge, inward", [(_SURD_EDGES[0], math.inf),
                                              (_SURD_EDGES[1], 0.0)],
                             ids=["sqrt(125)/2", "2 sqrt(125)"])
    def test_series_meet_the_quadrature_at_the_edges(self, edge, inward):
        # one ulp of X moves the tail by less than 1e-16 of it
        series = surd_tail_integral(edge)
        quadrature = surd_tail_integral(math.nextafter(edge, inward))
        assert abs(series - quadrature) <= DEFAULT_CTX.tol(series)

    @pytest.mark.parametrize("c", [1.0 / 6.0, 5.0 / 6.0], ids=["far", "head"])
    def test_terms_at_rate_one_half(self, c):
        # the tail bound rho^(n+1) / ((n+1+c)(1-rho)) stops the sum
        assert _surd_legendre_sum(0.5, c).terms <= 50

    @pytest.mark.oracle("surd_tail_integral")
    def test_far_series_at_the_top_of_the_floats(self):
        # lower ** (-1/6) alone is 6.4e-15 off at 1e300, and so was the
        # quadrature that took it as its upper limit
        with mp.workdps(30):
            target = surd_tail(1e300)
        assert abs(surd_tail_integral(1e300) - target) <= 2e-15 * target

    @pytest.mark.oracle("surd_tail_integral")
    @pytest.mark.xfail(strict=True, reason="the band's quadrature returns a "
                       "level 6.1e-13 relative off at the default eps, inside "
                       "its tolerance but 300 times this bound (ROADMAP item 5)")
    def test_band_miss(self):
        value = surd_tail_integral(7.07)
        with mp.workdps(30):
            target = surd_tail(7.07)
        assert abs(value - target) <= 2e-15 * target


class TestTheta:
    @pytest.mark.oracle("theta_of_X")
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


def _beta_pair(a, b, x):
    """(B(x; a, b), B(1-x; a, b)) with each value integrated from 0 up to
    the smaller of x and 1-x, the other as B(a, b) less it, so that 1 - x
    is never rounded (at 1e-300 it is 1 in 30 digits, which drops
    B(x; b, a) from B(1-x))."""
    if x <= 0.5:
        return mp.betainc(a, b, 0, x), mp.beta(a, b) - mp.betainc(b, a, 0, x)
    t = 1 - mp.mpf(x)   # exact: x and 1 - x share their last bit
    return mp.beta(a, b) - mp.betainc(b, a, 0, t), mp.betainc(a, b, 0, t)


class TestBetaRatioRoot:
    @staticmethod
    def _check(a, b, r):
        # incomplete_beta's continued fraction takes the complement only
        # where it is the larger part, so the kernel's own error in the ratio
        # needs no allowance of its own (a = 3.5, b = 0.25, x = 0.536 lost
        # 1.4 digits to the cancelling complement B(1) - B(1-x, b, a))
        base = BetaBase(a, b)
        x = beta_ratio_root(base, r)
        with mp.workdps(50):
            xm = mp.mpf(x)
            lower, upper = _beta_pair(a, b, xm)
            ratio = upper / lower
            # d/dx of B(1-x)/B(x)
            slope = ((1 - xm) ** (a - 1) * xm ** (b - 1) / lower
                     + upper * xm ** (a - 1) * (1 - xm) ** (b - 1) / lower ** 2)
            err = abs(ratio - r)
            bound = REL * r + abs(slope) * math.ulp(x)
        assert err <= bound, (a, b, r, x, float(err / r))

    # Bases and ratios as the paper's singular values and the benchmark draw
    # them; outside, a root may lie closer to 1 than the last float below it.
    @pytest.mark.oracle("beta_ratio_root")
    @ORACLE
    @given(st.floats(min_value=0.15, max_value=3.0), st.floats(min_value=0.15, max_value=3.0),
           st.floats(min_value=-1.0, max_value=1.0))
    @example(1 / 6, 1 / 6, math.log10(2.0))
    @example(0.15147800091129002, 2.3774526677901946, math.log10(0.10622348708657026))
    @example(3.5, 0.25, 0.25)
    def test_defining_equation(self, a, b, log10_r):
        self._check(a, b, 10.0 ** log10_r)

    @pytest.mark.oracle("beta_ratio_root")
    @pytest.mark.parametrize("a, b, r", [
        # a search in x judged on an absolute step missed these by 6.3 and
        # 3.0 tolerances (1 - x ~ 1e-4)
        (0.20564173423832993, 2.1764273824086353, 0.18896824545285074),
        (0.19855224448770423, 0.5781014810150168, 0.15262677786200912),
    ])
    def test_roots_next_to_one(self, a, b, r):
        self._check(a, b, r)

    # A seeded sample of exponents down to 0.01 and roots down to 1e-300, at
    # either end: the root is drawn and r is its ratio in mpmath.  A root
    # within 1e-16 of 1 lies past the search's last float, 1 - 2.2e-16:
    # BracketError.  Roots from 1 - 1e-15 to 1 - 1e-16, next to that float,
    # are left out.
    @pytest.mark.oracle("beta_ratio_root")
    @settings(max_examples=60, deadline=None)
    @seed(101)
    @given(st.floats(min_value=-2.0, max_value=math.log10(3.0)),
           st.floats(min_value=-2.0, max_value=math.log10(3.0)), st.booleans(),
           st.floats(min_value=-300.0, max_value=math.log10(0.5)), st.booleans())
    # B(1-x) at the rounded 1 - x = 1 put this root at 4.29e-17
    @example(math.log10(0.07354183275938976), 0.0, True,
             math.log10(2.8106800838092678e-17), False)
    def test_sampled_roots(self, log10_a, log10_b, symmetric, log10_root, next_to_one):
        a = 10.0 ** log10_a
        b = a if symmetric else 10.0 ** log10_b
        with mp.workdps(50):
            offset = mp.mpf(10) ** log10_root
            lower, upper = _beta_pair(a, b, 1 - offset if next_to_one else offset)
            r = float(upper / lower)
        assume(sys.float_info.min <= r < math.inf)
        if next_to_one and log10_root < -16.0:
            with pytest.raises(BracketError):
                beta_ratio_root(BetaBase(a, b), r)
        else:
            assume(not next_to_one or log10_root > -15.0)
            self._check(a, b, r)

    @pytest.mark.parametrize("a, b, r", [
        # 1 - x rounded onto 1 dropped B(x; b, a) from B(1-x), which put
        # these roots 52% and 1.25e-11 off
        (0.07354183275938976, 0.07354183275938976, 31.714733296432748),
        (0.07, 0.5, 40.0),
    ])
    def test_roots_next_to_zero(self, a, b, r):
        self._check(a, b, r)

    def test_root_past_the_last_float_below_one(self):
        # 1 - x ~ 1e-16 here, short of the spacing of floats below 1
        with pytest.raises(BracketError):
            beta_ratio_root(BetaBase(0.125, 1.0), 0.01)
