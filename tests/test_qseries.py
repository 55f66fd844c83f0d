import math
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rrcflab.numerics import DomainError, differentiate
from rrcflab.qseries import (GOLDEN_CONJUGATE, Nome, dedekind_eta, dq_dk,
                             dr_dk, eta_quarter_integrand, ramanujan_f,
                             ramanujan_f_log, rrcf, rrcf_cf_oracle,
                             rrcf_derivative, u_from_r_power, u_of_q,
                             u_of_q_log)
from rrcflab.special import elliptic_k

Q_GRID = (0.05, 0.1, 0.2, 0.3, 0.5)
# Euler pentagonal-number series sum_k (-1)^k q^(k(3k-1)/2) at q=0.1
PENTAGONAL_AT_01 = 0.89001009999899894
SILVER = 3.0 - 2.0 * math.sqrt(2.0)   # modulus with quarter-period ratio 2
Q_E2PI = math.exp(-2.0 * math.pi)
RRCF_E2PI = -(1.0 + math.sqrt(5.0)) / 2.0 + math.sqrt((5.0 + math.sqrt(5.0)) / 2.0)


# The direct sums stop at q = 0.2; above it the modular inversion takes over.
BRANCH_SWITCH = 0.2
NEAR_SWITCH = (0.19, BRANCH_SWITCH, math.nextafter(BRANCH_SWITCH, 1.0), 0.21)
NOMES = st.floats(min_value=0.0, max_value=0.9999, exclude_min=True,
                  exclude_max=True)
ORACLE_SETTINGS = settings(max_examples=60, deadline=None)


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
    where ln f(-q) ~ -q needs the extra digits to resolve)."""

    @ORACLE_SETTINGS
    @given(NOMES)
    @example(1e-300)
    @example(0.9998)
    def test_ramanujan_f_log(self, q):
        mp = pytest.importorskip("mpmath")
        for q in (q,) + NEAR_SWITCH:
            with mp.workdps(30 + max(0, int(-math.log10(q)))):
                ref = _mp_log_f(mp, mp.mpf(q))
                assert abs(ramanujan_f_log(q) - ref) <= 4e-15 * abs(ref)

    @ORACLE_SETTINGS
    @given(NOMES)
    @example(1e-300)
    @example(3.6e-320)
    @example(0.9998)
    def test_rrcf(self, q):
        mp = pytest.importorskip("mpmath")
        for q in (q,) + NEAR_SWITCH:
            with mp.workdps(30):
                ref = _mp_rrcf(mp, mp.mpf(q))
                assert abs(rrcf(q) - ref) <= 4e-15 * ref

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


def test_import_loads_no_numpy():
    code = "import sys, rrcflab; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


class TestNome:
    def test_validation(self):
        with pytest.raises(DomainError):
            Nome(1.0)
        with pytest.raises(DomainError):
            Nome(0.0)

    def test_from_r(self):
        assert Nome.from_r(4.0).q == pytest.approx(Q_E2PI, rel=1e-15)
        assert Nome.from_r_squared(1.0).q == pytest.approx(Q_E2PI, rel=1e-15)

    def test_round_trip_r(self):
        assert Nome.from_r(2.5).r == pytest.approx(2.5, rel=1e-14)

    def test_squared(self):
        assert Nome(0.3).squared().q == pytest.approx(0.09)


class TestRamanujanF:
    def test_small_nome_limit(self):
        assert ramanujan_f(1e-14) == pytest.approx(1.0, abs=1e-13)

    def test_pentagonal_oracle(self):
        assert ramanujan_f(0.1) == pytest.approx(PENTAGONAL_AT_01, rel=1e-14)

    def test_modular_transform_matches_direct_sum(self):
        # over the branch switch at q = 0.2 both evaluations must agree
        for q in (0.19, 0.2, 0.21, 0.69, 0.7, 0.71, 0.9):
            n = int(math.ceil(math.log(1e-20 * (1 - q)) / math.log(q)))
            direct = sum(math.log1p(-q ** i) for i in range(1, n + 1))
            assert ramanujan_f_log(q) == pytest.approx(direct, abs=1e-13)

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
        with pytest.raises(DomainError):
            dedekind_eta(0.0)


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
        assert u_of_q_log(0.999999) < -1e5


class TestDerivative:
    @pytest.mark.parametrize("q", (0.05, 0.2))
    def test_against_finite_differences(self, q):
        fd = differentiate(rrcf, q)
        assert rrcf_derivative(q) == pytest.approx(fd.value, rel=1e-6)

    def test_positive_on_grid(self):
        for q in (0.01, 0.1, 0.2, 0.4, 0.6):
            assert rrcf_derivative(q) > 0.0


class TestModulusDerivatives:
    def test_chain_rule_closes(self):
        # R'(q) dq/dk against the direct dR/dk form at the silver modulus
        chain = rrcf_derivative(Q_E2PI) * dq_dk(SILVER, Q_E2PI)
        assert chain == pytest.approx(dr_dk(SILVER, Q_E2PI), rel=1e-8)

    def test_magnitude_matches_finite_difference(self):
        from rrcflab.special import elliptic_k_complementary

        def nome_of(k):
            return math.exp(-math.pi * elliptic_k_complementary(k) / elliptic_k(k))

        fd = differentiate(nome_of, SILVER)
        stated = dq_dk(SILVER, Q_E2PI)
        # the map k -> q is increasing; the stated form carries a minus sign
        assert fd.value > 0.0 > stated
        assert abs(fd.value) == pytest.approx(abs(stated), rel=1e-6)

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(DomainError):
            dq_dk(0.5, Q_E2PI)
