import functools
import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rrcflab import qseries
from rrcflab.numerics import DomainError, differentiate
from rrcflab.qseries import (GOLDEN_CONJUGATE, dedekind_eta,
                             eta_quarter_integrand, eta_tail_log, lambert_sum,
                             product_logs_of_log_q, ramanujan_f, ramanujan_f_log,
                             rrcf, rrcf_derivative, rrcf_of_kappa, rrcf_of_log_q,
                             u_of_q)
from rrcflab.routes import dq_dk, dr_dk, modulus_nome
from rrcflab.special import elliptic_k

Q_GRID = (0.05, 0.1, 0.2, 0.3, 0.5)
SILVER = 3.0 - 2.0 * math.sqrt(2.0)   # modulus with quarter-period ratio 2
Q_E2PI = math.exp(-2.0 * math.pi)
RRCF_E2PI = -(1.0 + math.sqrt(5.0)) / 2.0 + math.sqrt((5.0 + math.sqrt(5.0)) / 2.0)


# Euler's pentagonal series, for ln f(-q) and the Lambert sum, serves
# q <= 0.2; above it the modular inversion takes over.
BRANCH_SWITCH = 0.2
NEAR_SWITCH = (0.19, BRANCH_SWITCH, math.nextafter(BRANCH_SWITCH, 1.0), 0.21)
# The series stops once q^(k(3k+1)/2) < 1e-17.  Below this nome its second
# term, q^2, is already past that, so the sum is the single pair -q - q^2.
SERIES_CUT = math.sqrt(1e-17)
NOMES = st.floats(min_value=0.0, max_value=0.9999, exclude_min=True,
                  exclude_max=True)
ORACLE_SETTINGS = settings(max_examples=60, deadline=None)


def direct_log_product(q):
    """ln prod (1 - q^n) as a plain sum of log1p(-q^n), cut once
    q^n < 1e-20 (1 - q): independent of the pentagonal series."""
    n = int(math.ceil(math.log(1e-20 * (1 - q)) / math.log(q)))
    return sum(math.log1p(-q ** i) for i in range(1, n + 1))


def rrcf_cf_oracle(q, depth):
    """Depth-truncated continued fraction q^(1/5)/(1+ q/(1+ q^2/(1+ ...))),
    evaluated bottom-up; independent of the eta-quotient path of rrcf."""
    acc = 1.0
    for n in range(depth, 0, -1):
        acc = 1.0 + q ** n / acc
    return q ** 0.2 / acc


def u_from_r_power(q):
    """The R-power side 1/R^5 - 11 - R^5 of u(q), to cross-check the
    eta-quotient form."""
    r5 = rrcf(q) ** 5
    return 1.0 / r5 - 11.0 - r5


def _mp_log_f(mp, q):
    """ln f(-q) for an mpf q at the working precision.  qp's pentagonal
    sum slows past q = 0.99, so there the eta inversion
    eta(-1/tau) = sqrt(-i tau) eta(tau) is taken in mpmath to a tiny nome."""
    if q <= 0.99:
        return mp.log(mp.qp(q))
    y = -mp.log(q) / (2 * mp.pi)
    return (mp.pi * y / 12 - mp.log(y) / 2 - mp.pi / (12 * y)
            + mp.log(mp.qp(mp.exp(-2 * mp.pi / y))))


def _mp_rrcf(mp, q):
    """R(q) from the product q^(1/5) (q;q^5)(q^4;q^5) / ((q^2;q^5)(q^3;q^5));
    past q = 0.99 through Ramanujan's relation
    (phi + R(e^(-2 pi a))) (phi + R(e^(-2 pi / a))) = sqrt5 phi."""
    def product(q):
        q5 = q ** 5
        return (mp.root(q, 5) * mp.qp(q, q5) * mp.qp(q ** 4, q5)
                / (mp.qp(q ** 2, q5) * mp.qp(q ** 3, q5)))
    if q <= 0.99:
        return product(q)
    a = -mp.log(q) / (2 * mp.pi)
    phi = (1 + mp.sqrt(5)) / 2
    return mp.sqrt(5) * phi / (phi + product(mp.exp(-2 * mp.pi / a))) - phi


class TestAgainstMpmath:
    """The q-product kernels against mpmath at 30 digits (more for tiny q,
    where ln f(-q) ~ -q needs the extra digits to resolve).  On the
    pentagonal branch ln f(-q) was measured within 3.7e-16 of mpmath over
    15,000 draws of q in (1e-300, 0.2), so its bound is 8e-16."""

    @pytest.mark.oracle("ramanujan_f_log")
    @ORACLE_SETTINGS
    @given(NOMES)
    @example(math.nextafter(SERIES_CUT, 0.0))
    @example(SERIES_CUT)
    @example(math.nextafter(SERIES_CUT, 1.0))
    @example(1e-300)
    @example(3.6e-320)
    @example(BRANCH_SWITCH)
    @example(math.nextafter(BRANCH_SWITCH, 1.0))
    @example(0.9998)
    def test_ramanujan_f_log(self, q):
        mp = pytest.importorskip("mpmath")
        for q in (q,) + NEAR_SWITCH:
            bound = 8e-16 if q <= BRANCH_SWITCH else 4e-15
            with mp.workdps(30 + max(0, int(-math.log10(q)))):
                ref = _mp_log_f(mp, mp.mpf(q))
                assert abs(ramanujan_f_log(q) - ref) <= bound * abs(ref)

    @pytest.mark.oracle("rrcf")
    @ORACLE_SETTINGS
    @given(NOMES)
    @example(SERIES_CUT)
    @example(1e-300)
    @example(3.6e-320)
    @example(0.9998)
    def test_rrcf(self, q):
        mp = pytest.importorskip("mpmath")
        for q in (q,) + NEAR_SWITCH:
            with mp.workdps(30):
                ref = _mp_rrcf(mp, mp.mpf(q))
                assert abs(rrcf(q) - ref) <= 4e-15 * ref

    @pytest.mark.oracle("dedekind_eta")
    @ORACLE_SETTINGS
    @given(st.floats(min_value=0.0, max_value=0.997, exclude_min=True))
    @example(1e-300)
    def test_dedekind_eta(self, q):
        # eta(i t) underflows past q ~ 0.998.  exp turns a rounding of its
        # argument ln eta into a relative error, and |ln eta| (the condition
        # number of eta in t at both ends) reaches ~550 here, so the bound
        # is 4e-15 per unit of |ln eta| beyond 1.
        mp = pytest.importorskip("mpmath")
        for q in (q,) + NEAR_SWITCH:
            t = -math.log(q) / (2.0 * math.pi)
            with mp.workdps(30):
                t_mp = mp.mpf(t)
                log_ref = -mp.pi * t_mp / 12 + _mp_log_f(mp, mp.exp(-2 * mp.pi * t_mp))
                ref = mp.exp(log_ref)
                bound = 4e-15 * max(1.0, abs(float(log_ref)))
                assert abs(dedekind_eta(t) - ref) <= bound * ref


def _mp_eta_quarter(mp, t):
    """eta(i t/2)^4: directly for t >= 1, through eta(i t/2) = sqrt(2/t)
    eta(2i/t) below."""
    if t >= 1:
        return mp.exp(-mp.pi * t / 6) * mp.qp(mp.exp(-mp.pi * t)) ** 4
    return (2 / t) ** 2 * mp.exp(-2 * mp.pi / (3 * t)) * mp.qp(mp.exp(-4 * mp.pi / t)) ** 4


def _mp_log_eta_tail(mp, s):
    """ln int_s^inf eta(i t/2)^4 dt by quadrature, with exp(-pi s/6) taken
    out past t = 1 so that mp.quad, which judges an absolute error, sees an
    O(1) integral."""
    lower = max(s, mp.mpf(1))
    scaled = mp.quad(
        lambda tau: mp.exp(-mp.pi * tau / 6) * mp.qp(mp.exp(-mp.pi * (lower + tau))) ** 4,
        [0, 6, 30, mp.inf])
    if s >= 1:
        return -mp.pi * s / 6 + mp.log(scaled)
    return mp.log(mp.exp(-mp.pi / 6) * scaled + mp.quad(lambda t: _mp_eta_quarter(mp, t), [s, 1]))


class TestEtaTail:
    """The eta tail summed from its q-expansion against mpmath quadrature.
    The log carries the rounding of pi s/6 in its argument, so its bound is
    4 eps per unit of max(1, pi s/6); the worst seen is 1.6."""

    @pytest.mark.oracle("eta_tail_log")
    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st.floats(min_value=0.0, max_value=4.0),
                     st.floats(min_value=0.0, max_value=2000.0)))
    @example(0.0)
    @example(1e-3)
    @example(math.nextafter(2.0, 0.0))
    @example(2.0)
    @example(math.nextafter(2.0, 3.0))
    @example(2000.0)
    def test_against_mpmath(self, s):
        mp = pytest.importorskip("mpmath")
        log_tail, rate = eta_tail_log(s)
        with mp.workdps(30):
            ref = _mp_log_eta_tail(mp, mp.mpf(s))
            ref_rate = _mp_eta_quarter(mp, mp.mpf(s)) / mp.exp(ref) if s else 0
        bound = 4.0 * sys.float_info.epsilon * max(1.0, math.pi * s / 6.0)
        assert abs(log_tail - ref) <= bound
        assert abs(rate - ref_rate) <= 1e-12 * ref_rate + 1e-300

    def test_log_does_not_increase_across_two(self):
        grid = [2.0]
        for _ in range(8):
            grid.insert(0, math.nextafter(grid[0], 0.0))
            grid.append(math.nextafter(grid[-1], 3.0))
        logs = [eta_tail_log(s)[0] for s in grid]
        assert all(a >= b for a, b in zip(logs, logs[1:]))

    @pytest.mark.parametrize("s", [-1e-300, -1.0, math.nan])
    def test_domain(self, s):
        with pytest.raises(DomainError):
            eta_tail_log(s)


class TestLogNome:
    """R and ln u at a nome given by its log, against mpmath at q = e^log_q,
    also where q is below the doubles, and the Lambert sum.  exp turns a
    rounding of its argument into a relative error, so each bound is 4e-15
    per unit of the log's magnitude beyond 1.  The Lambert sum was measured
    within 4.1e-16 of mpmath over 15,000 draws of q in (1e-300, 0.2), so
    its bound is 9e-16."""

    @pytest.mark.oracle("rrcf_of_log_q")
    @ORACLE_SETTINGS
    @given(st.one_of(st.floats(min_value=-3400.0, max_value=-1e-3),
                     st.floats(min_value=-1.0, max_value=-1e-3)))
    @example(-3400.0)
    @example(-2.0 * math.pi)
    @example(math.log(BRANCH_SWITCH))
    @example(-1e-3)
    def test_rrcf(self, log_q):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            ref = _mp_rrcf(mp, mp.exp(mp.mpf(log_q)))
            bound = 4e-15 * max(1.0, abs(float(mp.log(ref))))
        assert abs(rrcf_of_log_q(log_q) - ref) <= bound * ref

    @pytest.mark.oracle("product_logs_of_log_q")
    @ORACLE_SETTINGS
    @given(st.one_of(st.floats(min_value=-3400.0, max_value=-1e-3),
                     st.floats(min_value=-1.0, max_value=-1e-3)))
    @example(-3400.0)
    @example(math.log(BRANCH_SWITCH))
    @example(-1e-3)
    def test_u_log(self, log_q):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            lq = mp.mpf(log_q)
            products = (_mp_log_f(mp, mp.exp(lq)), _mp_log_f(mp, mp.exp(5 * lq)))
            ref = 6 * products[0] - lq - 6 * products[1]
        assert abs(product_logs_of_log_q(log_q)[2] - ref) <= 4e-15 * max(1.0, abs(float(ref)))
        # and the ln f(-q), ln f(-q^5) it is made of
        for value, product in zip(product_logs_of_log_q(log_q), products):
            assert abs(value - product) <= 4e-15 * max(1.0, abs(float(product)))

    @pytest.mark.oracle("lambert_sum")
    @ORACLE_SETTINGS
    @given(st.floats(min_value=0.0, max_value=BRANCH_SWITCH))
    @example(0.0)
    @example(math.nextafter(SERIES_CUT, 0.0))
    @example(SERIES_CUT)
    @example(math.nextafter(SERIES_CUT, 1.0))
    @example(1e-300)
    @example(3.6e-320)
    @example(BRANCH_SWITCH)
    def test_lambert_sum(self, q):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            qm = mp.mpf(q)
            ref = mp.nsum(lambda n: n * qm ** n / (1 - qm ** n), [1, mp.inf]) if q else 0
        assert abs(lambert_sum(q)[0] - ref) <= 9e-16 * ref

    def test_lambert_walk_gives_the_product(self):
        # the walk of the Lambert sum is _log_qpochhammer's pentagonal
        # series, so its ln f(-q) is that one to the bit
        rng = random.Random(35)
        nomes = [0.0, 5e-324, 3.6e-320, sys.float_info.min, 1e-300,
                 math.nextafter(SERIES_CUT, 0.0), SERIES_CUT, BRANCH_SWITCH]
        nomes += [rng.uniform(0.0, BRANCH_SWITCH) for _ in range(500)]
        nomes += [10.0 ** rng.uniform(-323.0, math.log10(BRANCH_SWITCH)) for _ in range(500)]
        for q in nomes:
            assert lambert_sum(q)[1].hex() == qseries._log_qpochhammer(q).hex(), q

    @pytest.mark.parametrize("log_q", [0.0, -1e-310, 1.0, math.nan])
    def test_log_nome_domain(self, log_q):
        with pytest.raises(DomainError):
            rrcf_of_log_q(log_q)
        with pytest.raises(DomainError):
            product_logs_of_log_q(log_q)

    @pytest.mark.oracle("rrcf_of_kappa")
    def test_rrcf_fifth_power_from_u(self):
        # R^5 is the root of 1/R^5 - 11 - R^5 = u, rrcf_of_kappa at u + 10:
        # exp carries the rounding of ln u into u, so the bound is
        # 2 (1 + |ln u|) eps (0.70 measured; rrcf(q)^5 reads 3.2 there)
        mp = pytest.importorskip("mpmath")
        rng = random.Random(35)
        nomes = [1e-100, 0.5, 1.0 - 1e-12]
        for _ in range(60):
            nomes.append(10.0 ** rng.uniform(-100.0, math.log10(0.5)))
            nomes.append(1.0 - 10.0 ** rng.uniform(-12.0, math.log10(0.5)))
        for q in nomes:
            log_u = product_logs_of_log_q(math.log(q))[2]
            fifth = rrcf_of_kappa(math.exp(log_u) + 10.0)
            with mp.workdps(30):
                ref = _mp_rrcf(mp, mp.mpf(q)) ** 5
            bound = 2.0 * (1.0 + abs(log_u)) * sys.float_info.epsilon
            assert abs(fifth - ref) <= bound * ref, q

    @pytest.mark.parametrize("q", [-1e-300, math.nextafter(BRANCH_SWITCH, 1.0), 0.21,
                                   math.nan])
    def test_lambert_sum_domain(self, q):
        with pytest.raises(DomainError):
            lambert_sum(q)


class TestPlainLoops:
    """The q-series helpers written as plain loops give the bits of the forms
    they replaced: functools.reduce over the coefficients, and the cached
    pentagonal series at the eta inversion's image nome."""

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=math.log(0.18), max_value=-1e-300))
    @example(math.log(0.18))
    @example(math.log(BRANCH_SWITCH))
    @example(-1e-300)
    def test_image_product_inline(self, log_q):
        y = -log_q / (2.0 * math.pi)
        p = math.exp(-2.0 * math.pi / y)
        assert p <= math.exp(-23.0) and p * p < 1e-17   # 1.0037e-10 at q = 0.18
        nested = (math.pi * y / 12.0 - 0.5 * math.log(y) - math.pi / (12.0 * y)
                  + qseries._log_qpochhammer(p))
        assert qseries._log_qpochhammer_at(log_q) == nested

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), max_size=12),
           st.floats(min_value=-1.0, max_value=1.0))
    def test_horner(self, coefficients, q):
        folded = functools.reduce(lambda acc, c: acc * q + c, reversed(coefficients), 0.0)
        assert qseries._horner(tuple(coefficients), q) == folded


def test_import_loads_no_numpy():
    code = "import sys, rrcflab; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


class TestFloatNomes:
    """A nome is a float in (0, 1): every entry that takes one raises
    DomainError outside it."""

    ENTRIES = (ramanujan_f, ramanujan_f_log, rrcf, u_of_q, rrcf_derivative)

    @pytest.mark.parametrize("q", [0.0, -0.0, 1.0, -0.5, 1.5, -1e-300,
                                   math.nextafter(1.0, 2.0), math.inf, math.nan])
    @pytest.mark.parametrize("entry", ENTRIES, ids=lambda f: f.__name__)
    def test_outside_the_unit_interval(self, entry, q):
        with pytest.raises(DomainError):
            entry(q)


class TestRamanujanF:
    def test_small_nome_limit(self):
        assert ramanujan_f(1e-14) == pytest.approx(1.0, abs=1e-13)

    def test_pentagonal_oracle(self):
        # the pentagonal series against the product it sums
        assert ramanujan_f(0.1) == pytest.approx(math.exp(direct_log_product(0.1)),
                                                 rel=1e-15)

    def test_modular_transform_matches_direct_sum(self):
        # over the branch switch at q = 0.2 both evaluations must agree
        for q in (0.19, 0.2, 0.21, 0.69, 0.7, 0.71, 0.9):
            assert ramanujan_f_log(q) == pytest.approx(direct_log_product(q), abs=1e-13)

    def test_silver_modulus_product_formula(self):
        # f(-q) = 2^(1/3) pi^(-1/2) q^(-1/24) k^(1/12) k'^(1/3) K(k)^(1/2)
        k = SILVER
        rhs = (2.0 ** (1 / 3) / math.sqrt(math.pi) * Q_E2PI ** (-1 / 24)
               * k ** (1 / 12) * (1.0 - k * k) ** (1 / 6)
               * math.sqrt(elliptic_k(k)))
        assert ramanujan_f(Q_E2PI) == pytest.approx(rhs, rel=1e-12)

    def test_in_unit_interval(self):
        for q in Q_GRID:
            assert 0.0 < ramanujan_f(q) < 1.0


class TestDedekindEta:
    def test_eta_at_i(self):
        # Gamma(1/4) / (2 pi^(3/4))
        assert dedekind_eta(1.0) == pytest.approx(0.768225422326057, rel=1e-13)

    def test_definitional_identity(self):
        t = 0.7
        lhs = dedekind_eta(t)
        rhs = math.exp(-math.pi * t / 12.0) * ramanujan_f(math.exp(-2.0 * math.pi * t))
        assert lhs == pytest.approx(rhs, rel=1e-15)

    def test_eta_at_2i_from_product_formula(self):
        # eta(2i) = e^(-pi/6) f(-e^(-4pi)); cross-checked through the
        # modulus product formula at the quadrupled index, where the
        # singular modulus is (sqrt2 - 1)^2 and K'(k)/K(k) = 4... the
        # product route below only uses the index-4 data
        lhs = dedekind_eta(2.0)
        k = SILVER
        f_val = (2.0 ** (1 / 3) / math.sqrt(math.pi) * Q_E2PI ** (-1 / 24)
                 * k ** (1 / 12) * (1.0 - k * k) ** (1 / 6)
                 * math.sqrt(elliptic_k(k)))
        # eta(i t) at t=2 via eta(i)/eta(2i) = ... use the definitional route:
        rhs = math.exp(-math.pi / 6.0) * ramanujan_f(math.exp(-4.0 * math.pi))
        assert lhs == pytest.approx(rhs, rel=1e-15)
        assert f_val == pytest.approx(ramanujan_f(Q_E2PI), rel=1e-12)

    def test_quarter_integrand_envelope(self):
        for t in (0.5, 2.0, 10.0):
            val = eta_quarter_integrand(t)
            assert 0.0 < val <= math.exp(-math.pi * t / 6.0)

    def test_domain(self):
        for t in (0.0, math.nan):
            with pytest.raises(DomainError):
                dedekind_eta(t)


class TestRRCF:
    def test_ramanujan_point(self):
        assert rrcf(Q_E2PI) == pytest.approx(RRCF_E2PI, abs=1e-12)

    def test_cf_oracle_at_ramanujan_point(self):
        assert rrcf_cf_oracle(Q_E2PI, 200) == pytest.approx(RRCF_E2PI, abs=1e-12)

    def test_leading_order(self):
        q = 1e-10
        assert rrcf(q) / q ** 0.2 == pytest.approx(1.0, abs=1e-9)

    def test_oracle_depth_one(self):
        q = 0.01
        assert rrcf_cf_oracle(q, 1) == pytest.approx(q ** 0.2 / (1.0 + q), rel=1e-15)

    def test_oracle_self_consistency(self):
        assert abs(rrcf_cf_oracle(0.3, 100) - rrcf_cf_oracle(0.3, 200)) < 1e-14

    @pytest.mark.parametrize("q", Q_GRID)
    def test_eta_quotient_path_matches_oracle(self, q):
        assert abs(rrcf(q) - rrcf_cf_oracle(q, 600)) < 1e-12

    def test_strictly_increasing(self):
        values = [rrcf(q) for q in Q_GRID]
        assert values == sorted(values)
        assert all(0.0 < v < GOLDEN_CONJUGATE for v in values)

    @pytest.mark.parametrize("q", Q_GRID)
    def test_quintic_eta_quotient_relation(self, q):
        # 1/R - 1 - R = f(-q^(1/5)) / (q^(1/5) f(-q^5))
        r = rrcf(q)
        lhs = 1.0 / r - 1.0 - r
        rhs = ramanujan_f(q ** 0.2) / (q ** 0.2 * ramanujan_f(q ** 5))
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


class TestEtaQuotientPower:
    @pytest.mark.parametrize("q", Q_GRID)
    def test_sixth_power_relation(self, q):
        # f(-q)^6/(q f(-q^5)^6) = 1/R^5 - 11 - R^5
        assert abs(u_of_q(q) - u_from_r_power(q)) <= 1e-10 * u_of_q(q)

    def test_two_forms_at_q02(self):
        assert u_of_q(0.2) == pytest.approx(u_from_r_power(0.2), rel=1e-10)

    def test_monotone_decreasing(self):
        assert u_of_q(0.05) > u_of_q(0.5)
        values = [u_of_q(q) for q in Q_GRID]
        assert values == sorted(values, reverse=True)

    def test_log_form_reaches_extreme_nomes(self):
        assert product_logs_of_log_q(math.log(0.999999))[2] < -1e5

    def test_past_the_doubles_is_a_domain_error(self):
        # u ~ 1/q: finite at q = 1e-300, 1e320 at q = 1e-320 (it raised
        # OverflowError)
        assert u_of_q(1e-300) == pytest.approx(1e300, rel=1e-12)
        with pytest.raises(DomainError, match="overflows"):
            u_of_q(1e-320)


class TestOneLogOfU:
    """u and R' read ln u, and R' also ln f(-q), from the one cached
    product_logs_of_log_q call at ln q."""

    @pytest.mark.parametrize("q", [1e-300, Q_E2PI, 0.2, 0.5, 0.999])
    @pytest.mark.parametrize("entry", [u_of_q, rrcf_derivative], ids=lambda f: f.__name__)
    def test_warm_call_is_one_product_logs_hit(self, entry, q):
        entry(q)
        logs, products = product_logs_of_log_q.cache_info(), qseries._log_qpochhammer.cache_info()
        entry(q)
        warm_logs = product_logs_of_log_q.cache_info()
        warm_products = qseries._log_qpochhammer.cache_info()
        assert (warm_logs.hits - logs.hits, warm_logs.misses - logs.misses) == (1, 0)
        assert (warm_products.hits, warm_products.misses) == (products.hits, products.misses)


class TestRrcfCache:
    @pytest.mark.parametrize("q", [1e-300, Q_E2PI, 0.2, 0.5, 0.999])
    def test_products_stay_out_of_the_product_cache(self, q):
        # only rrcf's own cache would ever look them up again
        qseries._rrcf_cached.cache_clear()
        before = qseries._log_qpochhammer.cache_info()
        rrcf(q)
        assert qseries._log_qpochhammer.cache_info() == before


class TestDerivative:
    @pytest.mark.parametrize("q", (0.05, 0.2))
    def test_against_finite_differences(self, q):
        fd = differentiate(rrcf, q)
        assert rrcf_derivative(q) == pytest.approx(fd.value, rel=1e-6)

    @pytest.mark.oracle("rrcf_derivative")
    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=math.log(1e-8), max_value=math.log(0.95)))
    @example(math.log(1e-8))
    @example(math.log(0.95))
    @example(math.log(0.8583306783425595))   # the worst point measured
    def test_against_mpmath(self, log_q):
        # mp.diff of the product form of R.  Towards q = 1, R(q) - R(1) and
        # R' fall like exp(-4 pi^2 / (5 ln(1/q))) (Ramanujan's relation), to
        # 1e-63 at q = 0.95, so the working precision carries that many more
        # digits.  Measured: 1.8e-14 relative at worst over 3,000 q
        # log-uniform in [1e-8, 0.95], so 1e-13 leaves a margin of 5.
        mp = pytest.importorskip("mpmath")
        q = math.exp(log_q)
        extra = int(4.0 * math.pi ** 2 / (5.0 * -log_q * math.log(10.0)))
        with mp.workdps(30 + extra):
            ref = mp.diff(lambda t: _mp_rrcf(mp, t), mp.mpf(q))
        assert abs(rrcf_derivative(q) - ref) <= 1e-13 * ref

    def test_positive_on_grid(self):
        for q in (0.01, 0.1, 0.2, 0.4, 0.6):
            assert rrcf_derivative(q) > 0.0

    @pytest.mark.oracle("rrcf_derivative")
    @pytest.mark.parametrize("q", [5e-324, 1e-320, 1e-310, 1e-305, 1e-300, 1e-250])
    def test_finite_next_to_zero(self, q):
        # R(q) = q^(1/5) (1 + O(q)), so R'(q) = q^(-4/5)/5 to all digits
        # here.  Below q ~ 1e-308 the value is finite but q^(-5/6) u^(1/6)
        # alone is not (it raised OverflowError).  The exponent carries
        # |ln q| ulps; measured at most 1.4 |ln q| eps over 2,000 q
        # log-uniform in [5e-324, 1e-250].
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            ref = mp.mpf(q) ** (mp.mpf(-4) / 5) / 5
        assert abs(rrcf_derivative(q) - ref) <= 4.0 * -math.log(q) * sys.float_info.epsilon * ref

    @pytest.mark.oracle("rrcf_derivative")
    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=math.log(1e-250), max_value=math.log(1e-8)))
    @example(math.log(1e-250))
    @example(math.log(1e-8))
    def test_against_mpmath_between_zero_and_the_grid(self, log_q):
        # the range between the two tests above, under the same exponent
        # bound: measured at most 1.27 |ln q| eps over 1,500 q log-uniform
        # in [1e-250, 1e-8].  mp.diff of the product form with a step
        # relative to q, since an absolute step would cross q = 0.
        mp = pytest.importorskip("mpmath")
        q = math.exp(log_q)
        with mp.workdps(30):
            ref = mp.diff(lambda t: _mp_rrcf(mp, t), mp.mpf(q), h=mp.mpf(q) * mp.mpf("1e-12"))
        assert abs(rrcf_derivative(q) - ref) <= 4.0 * -log_q * sys.float_info.epsilon * ref


class TestModulusDerivatives:
    def test_chain_rule_closes(self):
        # R'(q) dq/dk against the direct dR/dk form at the silver modulus
        chain = rrcf_derivative(Q_E2PI) * dq_dk(SILVER)
        assert chain == pytest.approx(dr_dk(SILVER), rel=1e-8)

    def test_magnitude_matches_finite_difference(self):
        from rrcflab.special import elliptic_k_complementary

        def nome_of(k):
            return math.exp(-math.pi * elliptic_k_complementary(k) / elliptic_k(k))

        fd = differentiate(nome_of, SILVER)
        stated = dq_dk(SILVER)
        # the map k -> q is increasing; the stated form carries a minus sign
        assert fd.value > 0.0 > stated
        assert abs(fd.value) == pytest.approx(abs(stated), rel=1e-6)

    @pytest.mark.parametrize("k", [1e-200, 1e-100])
    def test_small_moduli_against_mpmath(self, k):
        # The nome e^(-pi K'/K) ~ k^2/16 underflows to 0 at k = 1e-200, where
        # dq_dk returned -0.0 and dr_dk raised DomainError; both are taken
        # from ln q now.  ln q near -920 carries about 1e-13 relative into
        # every power of q, on either side.
        mpmath = pytest.importorskip("mpmath")
        assert (modulus_nome(k) == 0.0) is (k < 1e-162)
        with mpmath.workdps(40):
            km = mpmath.mpf(k)
            kp = mpmath.sqrt(1 - km ** 2)
            kk = mpmath.ellipk(km ** 2)
            # K'(k) = pi / (2 AGM(1, k)): 1 - k^2 rounds to 1 at 40 digits
            q = mpmath.exp(-mpmath.pi ** 2 / (2 * mpmath.agm(1, km) * kk))
            dq = -q * mpmath.pi ** 2 / (2 * km * kp ** 2 * kk ** 2)
            acc = mpmath.mpf(1)   # the continued fraction, exact at this q
            for n in range(4, 0, -1):
                acc = 1 + q ** n / acc
            r = q ** (mpmath.mpf(1) / 5) / acc
            u = 1 / r ** 5 - 11 - r ** 5
            dr = (-mpmath.cbrt(2) / 5 * (km * kp) ** (-mpmath.mpf(2) / 3) * r
                  * u ** (mpmath.mpf(1) / 6))
        assert dq_dk(k) == pytest.approx(float(dq), rel=1e-12)
        assert dr_dk(k) == pytest.approx(float(dr), rel=1e-12)

    def test_modulus_outside_unit_interval_rejected(self):
        for k in (0.0, 1.0, -0.5, 1.5, math.nan):
            with pytest.raises(DomainError):
                dq_dk(k)
            with pytest.raises(DomainError):
                dr_dk(k)
