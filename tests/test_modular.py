import functools
import math
import random
import sys

import pytest

from rrcflab import modular, qseries, quadrature, routes, special
from rrcflab.modular import (F_ARGUMENT_MAX, TAIL_TOTAL, F_of_x, G_of_x,
                             SexticInstance, beta_ratio_root, eta_quotient_nome_of,
                             eta_tail_integral, hypergeometric_g_argument,
                             invert_lambda_j, j_integral_f1_form,
                             j_integral_phi_partial_fraction, klein_j,
                             klein_j_from_lambda, klein_j_from_quarter_modulus,
                             m_of_x, pi_formula_partial_sum,
                             psi_arcsin_ratio, sextic_variable_of_index,
                             singular_modulus, solve_sextic, surd_tail_integral,
                             theorem6_base_change, theta_of_X, trig_modular)
from rrcflab.numerics import DEFAULT_CTX, ConvergenceError, DomainError, PrecisionContext
from rrcflab.qseries import u_of_q
from rrcflab.special import (BetaBase, beta_sqrt, elliptic_k, gamma,
                             incomplete_beta, pochhammer, pochhammer_negative)
from rrcflab.routes import (j_integral_quadrature, quintic_surd_integral,
                            rr_integral, sextic_period_ratio_root)
from rrcflab.verify import run_check

SQRT5 = math.sqrt(5.0)
SILVER = 3.0 - 2.0 * math.sqrt(2.0)
Q_E2PI = math.exp(-2.0 * math.pi)
RRCF_E2PI = -(1.0 + SQRT5) / 2.0 + math.sqrt((5.0 + SQRT5) / 2.0)


class TestSingularModulus:
    def test_unit_index_symmetry(self):
        assert singular_modulus(1.0) == pytest.approx(1.0 / math.sqrt(2.0),
                                                      abs=1e-13)

    def test_index_four(self):
        assert singular_modulus(4.0) == pytest.approx(SILVER, abs=1e-12)

    def test_index_two(self):
        k2 = singular_modulus(2.0)
        assert k2 == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)
        from rrcflab.special import elliptic_k_complementary
        assert elliptic_k_complementary(k2) / elliptic_k(k2) == pytest.approx(
            math.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("r", [1.0, 2.0, 3.0, 4.0, 5.0])
    def test_defining_ratio(self, r):
        from rrcflab.special import elliptic_k_complementary
        k = singular_modulus(r)
        assert elliptic_k_complementary(k) / elliptic_k(k) - math.sqrt(r) \
            == pytest.approx(0.0, abs=1e-12)

    def test_reciprocal_symmetry(self):
        assert singular_modulus(0.5) == pytest.approx(
            math.sqrt(1.0 - singular_modulus(2.0) ** 2), rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            singular_modulus(0.0)

    def test_far_index_is_a_normal_float(self):
        # 4 e^(-pi sqrt r / 2) at r = 2e5 is about 3.3e-305 (a BracketError
        # under the former root search)
        k = singular_modulus(2e5)
        assert sys.float_info.min < k < 1e-300
        assert k == pytest.approx(4.0 * math.exp(-0.5 * math.pi * math.sqrt(2e5)), rel=1e-12)

    @pytest.mark.parametrize("r", [2.2e5, 1e6, 1e-6, math.inf, math.nan])
    def test_underflow_is_a_domain_error(self, r):
        # k_r (or k'_r for r < 1) below the normal floats, instead of 0.0
        with pytest.raises(DomainError):
            singular_modulus(r)


class TestKleinJ:
    def test_unit_index(self):
        assert klein_j(1.0) == pytest.approx(1728.0, rel=1e-6)

    def test_index_two(self):
        assert klein_j(2.0) == pytest.approx(8000.0, rel=1e-8)

    def test_lambda_form_symmetry(self):
        assert klein_j_from_lambda(0.3, 0.7) == pytest.approx(
            klein_j_from_lambda(0.7, 0.3), rel=1e-14)

    @pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
    def test_two_forms_agree(self, r):
        k4r = singular_modulus(4.0 * r)
        kr = singular_modulus(r)
        quarter = klein_j_from_quarter_modulus(k4r * k4r, 1.0 - k4r * k4r)
        lam = klein_j_from_lambda(kr * kr, 1.0 - kr * kr)
        assert quarter == pytest.approx(lam, rel=1e-8)

    def test_lambda_inversion(self):
        lam = invert_lambda_j(klein_j_from_lambda(0.2, 0.8))
        assert lam == pytest.approx(0.2, rel=1e-10)

    def test_reciprocal_index(self):
        assert klein_j(0.5) == klein_j(2.0)
        assert klein_j(0.125) == klein_j(8.0)

    def test_last_indices_below_overflow(self):
        assert math.isfinite(klein_j(1.27e4))
        assert klein_j(1.0 / 1.27e4) == pytest.approx(klein_j(1.27e4), rel=1e-12)

    @pytest.mark.parametrize("r", [1.3e4, 1e-5, 1e300, math.nan])
    def test_overflow_is_a_domain_error(self, r):
        # j ~ e^(2 pi sqrt r) past r ~ 1.27e4: inf at 1.3e4, and a raw
        # ZeroDivisionError at 1e-5, under the former code
        with pytest.raises(DomainError):
            klein_j(r)

    def test_value_does_not_depend_on_the_context(self):
        # theta series at the nome give full double precision, so klein_j
        # takes no context: the registry judges the same bits at a loose eps
        modular._klein_j_cached.cache_clear()
        loose = run_check("J.level5.r=4", PrecisionContext(eps_rel=1e-4))
        assert loose.lhs == klein_j(4.0)


class TestInverseIntegrals:
    def test_domain_bound_closed_form(self):
        # 4^(-1/3) B(1/6, 2/3): the surd tail from 0 by quadrature over [0, 50]
        # and the far series from 50 (below sqrt(125)/2 surd_tail_integral is
        # TAIL_TOTAL less a series), pi times the eta tail from 0 summed from
        # its q-expansion, and the nearest float to mpmath's value
        quadrature_total = (quintic_surd_integral(5 / 6, 0.0, 50.0)
                            + surd_tail_integral(50.0))
        assert TAIL_TOTAL == pytest.approx(quadrature_total, rel=1e-14)
        assert TAIL_TOTAL == pytest.approx(math.pi * eta_tail_integral(0.0), rel=1e-14)
        assert F_ARGUMENT_MAX == 0.2 * TAIL_TOTAL
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            total = mp.beta(mp.mpf(1) / 6, mp.mpf(2) / 3) / mp.cbrt(4)
            assert TAIL_TOTAL == float(total)
            assert F_ARGUMENT_MAX == float(total / 5)

    def test_quintic_surd_tail_full_range(self):
        # the X -> 0 limit of the surd tail, 4^(-1/3) B(1/6, 2/3), as
        # Eq46.limit takes it: over (0, sqrt 125) and its image under
        # t -> 125/t
        assert quintic_surd_integral(5 / 6, 0.0, math.inf) == pytest.approx(
            TAIL_TOTAL, rel=1e-15)

    def test_surd_integral_to_inf_against_the_closed_form(self):
        # M(n) = pi/sin(n pi) 11^(n-1) 2F1((1-n)/2, (2-n)/2; 1; -4/121), the
        # image-variable integral of Eq17_18; measured within 3.7e-16
        mp = pytest.importorskip("mpmath")
        rng = random.Random(45)
        for n in [0.5, 5 / 6, *(rng.uniform(0.15, 0.85) for _ in range(20))]:
            with mp.workdps(30):
                m = mp.mpf(n)
                ref = float(mp.pi / mp.sin(m * mp.pi) * mp.mpf(11) ** (m - 1)
                            * mp.hyp2f1((1 - m) / 2, (2 - m) / 2, 1, mp.mpf(-4) / 121))
            assert abs(quintic_surd_integral(n, 0.0, math.inf) - ref) <= 1e-15 * ref, n

    @pytest.mark.parametrize("lo", [1e-3, 3.0, 11.0, 11.5, 40.0, 1e4])
    def test_surd_integral_to_inf_from_a_lower_limit(self, lo):
        # below sqrt 125 = 11.18 two pieces, above it the image alone,
        # each against mpmath on the same finite range
        mp = pytest.importorskip("mpmath")
        n = 0.3
        with mp.workdps(30):
            root, m = mp.sqrt(125), mp.mpf(n)
            ref = mp.mpf(125) ** (m - mp.mpf(1) / 2) * mp.quad(
                lambda s: s ** -m * (125 + 22 * s + s * s) ** -0.5,
                [0, min(root, 125 / mp.mpf(lo))])
            if lo < root:
                ref += mp.quad(lambda t: t ** (m - 1) * (125 + 22 * t + t * t) ** -0.5,
                               [lo, root])
        val = quintic_surd_integral(n, lo, math.inf)
        assert abs(val - float(ref)) <= 1e-14 * float(ref)

    def test_f_at_zero(self):
        assert F_of_x(0.0) == 0.0

    def test_f_round_trip(self):
        upper = F_of_x(0.3)
        assert rr_integral(upper) == pytest.approx(0.3, abs=1e-9)

    def test_f_composite_reaches_ramanujan_point(self):
        k = singular_modulus(4.0)
        assert F_of_x(hypergeometric_g_argument(k * k)) == pytest.approx(
            RRCF_E2PI, abs=1e-5)

    def test_f_domain(self):
        with pytest.raises(DomainError):
            F_of_x(0.9)

    def test_m_closed_argument(self):
        k = singular_modulus(4.0)
        x = 5.0 * hypergeometric_g_argument(k * k)
        assert m_of_x(x) == pytest.approx(4.0, abs=1e-6)

    def test_m_monotone(self):
        assert m_of_x(0.5) > m_of_x(1.5)

    def test_m_domain(self):
        with pytest.raises(DomainError):
            m_of_x(1e9)

    def test_g_matches_inverse_cf_chain(self):
        x = 0.15
        f_val = F_of_x(x)
        assert G_of_x(x) == pytest.approx(1.0 / f_val ** 5 - 11.0 - f_val ** 5,
                                          rel=1e-7)

    def test_g_decreasing(self):
        assert G_of_x(0.1) > G_of_x(0.4)

    def test_g_at_unit_index_argument(self):
        k = singular_modulus(4.0)
        assert G_of_x(hypergeometric_g_argument(k * k)) == pytest.approx(
            u_of_q(Q_E2PI), rel=1e-9)

    def test_theta_round_trip(self):
        b = theta_of_X(50.0)
        lhs = 4.0 ** (-1.0 / 3.0) * incomplete_beta(b, BetaBase(1 / 6, 2 / 3))
        assert lhs == pytest.approx(surd_tail_integral(50.0), rel=1e-8)

    def test_theta_large_argument_small_root(self):
        assert theta_of_X(1e6) < theta_of_X(10.0) < 1.0

    def test_theta_of_prop1_root_is_squared_silver(self):
        assert theta_of_X(u_of_q(Q_E2PI)) == pytest.approx(SILVER ** 2, rel=1e-6)


class TestSexticSolver:
    def test_prop1_instance(self):
        inst = SexticInstance(1.0, 250.0, 12.0)
        sol = solve_sextic(inst)
        assert sol.x == pytest.approx(u_of_q(Q_E2PI), rel=1e-6)
        assert sol.residual <= 1e-6
        assert math.sqrt(sol.t) == pytest.approx(SILVER, abs=1e-9)
        r, x_alt = sextic_period_ratio_root(inst, sol.t)
        assert abs(sol.x - x_alt) <= 1e-6 * sol.x
        assert r == pytest.approx(1.0, abs=1e-9)

    def test_synthetic_j4000(self):
        c1 = (4000.0 * 3.0 / 250.0) ** (1.0 / 3.0)
        inst = SexticInstance(1.0, 3.0, c1)
        sol = solve_sextic(inst)
        assert sol.residual <= 1e-6
        _, x_alt = sextic_period_ratio_root(inst, sol.t)
        assert abs(sol.x - x_alt) <= 1e-6 * sol.x

    def test_residual_guard_carries_the_root(self, monkeypatch):
        # a wrong eta quotient leaves a residual far above 1e-6
        monkeypatch.setattr(modular, "G_of_x", lambda x, ctx: 1.0)
        with pytest.raises(ConvergenceError) as info:
            solve_sextic(SexticInstance(1.0, 250.0, 12.0))
        assert info.value.best == 1.0

    def test_large_j_root_resolved_relatively(self):
        # the small quarter-modulus root is ~5.7e-6 here, below what an
        # absolute tolerance of 1e-15 in t resolves to full precision
        sol = solve_sextic(SexticInstance(1.0, 250.0, 2.8e6 ** (1.0 / 3.0)))
        assert sol.residual <= 1e-13

    def test_solution_depends_only_on_b_over_a_and_j(self):
        c1 = (4000.0 * 3.0 / 250.0) ** (1.0 / 3.0)
        sol1 = solve_sextic(SexticInstance(1.0, 3.0, c1))
        sol2 = solve_sextic(SexticInstance(2.0, 6.0, 2.0 * c1))
        assert sol1.x == pytest.approx(sol2.x, rel=1e-12)

    def test_next_to_the_ridge(self):
        # j = 1728 (1 + 1e-12) has two roots 1.7e-6 apart in ln z, one on
        # each side of the ridge (3 - 2 sqrt2)^2; the one taken is below it,
        # to full precision against a 30-digit root of the relation in ln t
        mp = pytest.importorskip("mpmath")
        j = 1728.0 * (1.0 + 1e-12)
        t = modular._quarter_modulus(j)
        with mp.workdps(30):
            ref = mp.exp(mp.findroot(
                lambda u: mp.log(16 * (1 + 14 * mp.exp(u) + mp.exp(2 * u)) ** 3
                                 / (mp.exp(u) * (1 - mp.exp(u)) ** 4)) - mp.log(j),
                mp.log(t)))
        assert ref < SILVER ** 2
        assert abs(t - ref) <= 1e-14 * ref
        assert SILVER ** 2 / t - 1.0 == pytest.approx(math.sqrt(3e-12), rel=0.1)
        assert modular._quarter_modulus(1728.0) == pytest.approx(SILVER ** 2, rel=1e-14)

    def test_rejects_low_j(self):
        with pytest.raises(DomainError):
            solve_sextic(SexticInstance(1.0, 3.0, 1.0))

    @staticmethod
    def _probe_draws(count, top):
        # log10 j uniform in [3.24, top]; a and b log-uniform in [1e-3, 1e3]
        rng = random.Random(3)
        for _ in range(count):
            j = 10.0 ** rng.uniform(3.24, top)
            a = 10.0 ** rng.uniform(-3.0, 3.0)
            b = 10.0 ** rng.uniform(-3.0, 3.0)
            yield SexticInstance(a, b, (j * a * a * b / 250.0) ** (1.0 / 3.0))

    def test_across_the_doubles(self):
        # a X^2 and c1 X^(5/3) overflowed from j ~ 1e140: 116 of these draws
        # raised OverflowError and 37 a ConvergenceError on a nan residual.
        # In Y = aX/b the sextic is 1/20 + Y + Y^2 = (j/250)^(1/3) Y^(5/3);
        # X = b/(250a) G carries the rounding of ln G through exp (2.0e-13
        # at worst here)
        mp = pytest.importorskip("mpmath")
        for inst in self._probe_draws(300, 300.0):
            try:
                sol = solve_sextic(inst)
            except DomainError:
                continue
            log_g = math.log(sol.x * 250.0 * inst.a / inst.b)
            with mp.workdps(50):
                third = mp.log(mp.mpf(inst.j) / 250) / 3
                v = mp.findroot(lambda v: mp.log(mp.mpf(1) / 20 + mp.exp(v) + mp.exp(2 * v))
                                - third - 5 * v / 3, log_g - mp.log(250))
                ref = mp.mpf(inst.b) / inst.a * mp.exp(v)
                assert abs(sol.x - ref) <= 4.0 * abs(log_g) * sys.float_info.epsilon * ref

    def test_residual_divided_through(self):
        # where a X^2 is a double, the relative residual of the sextic as
        # written.  The float exponents 5/3 and 1/3 are 7.4e-17 and 1.9e-17
        # off, so the two powers differ by up to 0.42 eps per unit of |ln X|
        # (0.37 measured) on top of a few roundings
        for inst in self._probe_draws(200, 100.0):
            x = solve_sextic(inst).x
            lhs = inst.b ** 2 / (20.0 * inst.a) + inst.b * x + inst.a * x * x
            rhs = inst.c1 * x ** (5.0 / 3.0)
            old = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
            bound = (4.0 + 0.5 * abs(math.log(x))) * sys.float_info.epsilon
            assert abs(inst.residual(x) - old) <= bound

    # the subnormal root, X = 4.17e-310, kept the sextic's residual only to
    # 1.3e-14: a root that is not a normal double is a DomainError
    @pytest.mark.parametrize("a, b, j", [(1e-3, 1e3, 1e306), (1e150, 1e-300, 2000.0),
                                         (1e10, 1e-300, 2000.0)],
                             ids=["overflow", "underflow", "subnormal"])
    def test_root_not_a_double(self, a, b, j):
        with pytest.raises(DomainError):
            solve_sextic(SexticInstance(a, b, (j * a * a * b / 250.0) ** (1.0 / 3.0)))

    def test_negative_b_over_a(self):
        # X -> -X, b -> -b, c1 -> -c1 maps the sextic to itself with the
        # real cube root; X ** (1/3) of a negative X is complex, and the
        # residual read 1.73 at this root
        pos = solve_sextic(SexticInstance(1.0, 250.0, 12.0))
        neg = solve_sextic(SexticInstance(1.0, -250.0, -12.0))
        assert neg.x == -pos.x == pytest.approx(-529.5085, rel=1e-7)
        assert neg.residual <= 4.0 * sys.float_info.epsilon

    @pytest.mark.parametrize("a, b, j", [
        (1e10, 1e-300, 1e50), (1e10, 1e-300, 1e100), (1e10, 1e-300, 1e200),
        (1e10, -1e-300, 1e50), (1e5, 1e-310, 1e100),
    ])
    def test_root_behind_a_subnormal_ratio(self, a, b, j):
        # b/(250a) is subnormal, X a normal double: as a plain product X
        # kept only the digits of the subnormal ratio (3.2e-13 at j = 1e50,
        # 5.4e-9 where b itself is subnormal)
        c1 = math.copysign(abs(j * a * a * b / 250.0) ** (1.0 / 3.0), b)
        sol = solve_sextic(SexticInstance(a, b, c1))
        assert abs(b / (250.0 * a)) < sys.float_info.min <= abs(sol.x)
        log_g = math.log(sol.x * 250.0 * a / b)
        assert sol.residual <= 4.0 * abs(log_g) * sys.float_info.epsilon

    def test_rejects_zero_coefficients(self):
        with pytest.raises(DomainError):
            SexticInstance(0.0, 1.0, 1.0)


class TestBetaRatioRoot:
    def test_symmetric_unit_ratio(self):
        assert beta_ratio_root(BetaBase(1 / 6, 1 / 6), 1.0) == pytest.approx(
            0.5, abs=1e-12)

    def test_ratio_two_radical(self):
        assert beta_ratio_root(BetaBase(1 / 6, 1 / 6), 2.0) == pytest.approx(
            (2.0 - math.sqrt(3.0)) / 4.0, abs=1e-10)

    def test_ratio_five_singular_value(self):
        beta5 = beta_ratio_root(BetaBase(1 / 6, 1 / 6), 5.0)
        lhs = beta_sqrt(beta5, 1 / 6)
        rhs = math.sqrt(gamma(1 / 6) ** 2 / (6.0 * gamma(1 / 3)))
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_round_trip(self):
        base = BetaBase(1 / 4, 1 / 4)
        x = beta_ratio_root(base, 3.0)
        assert incomplete_beta(1.0 - x, base) / incomplete_beta(x, base) \
            == pytest.approx(3.0, rel=1e-10)


# Bases for theorem6_base_change, in floats and in mpmath: the complete
# elliptic integral K, psi*, and the incomplete Beta's B16.
_THEOREM6_BASES = {
    "K": (lambda x: elliptic_k(math.sqrt(x)), lambda mp, x: mp.ellipk(x)),
    "psi*": (lambda x: math.sqrt(math.asin(math.sqrt(x))),
             lambda mp, x: mp.sqrt(mp.asin(mp.sqrt(x)))),
    "B16": (lambda x: beta_sqrt(x, 1 / 6),
            lambda mp, x: mp.sqrt(mp.betainc(mp.mpf(1) / 6, mp.mpf(1) / 6, 0, x))),
}


class TestTheorem6:
    def test_elliptic_base_is_self_consistent(self):
        alpha, r0, j0 = theorem6_base_change(
            lambda x: elliptic_k(math.sqrt(x)), 2.0)
        assert alpha == pytest.approx(singular_modulus(2.0) ** 2, rel=1e-9)
        assert r0 == pytest.approx(2.0, rel=1e-9)
        assert j0 == pytest.approx(8000.0, rel=1e-7)

    def test_arcsin_base_matches_closed_form(self):
        alpha, _, _ = theorem6_base_change(
            lambda x: math.sqrt(math.asin(math.sqrt(x))), 3.0)
        assert alpha == pytest.approx(trig_modular(3.0), rel=1e-10)

    def test_beta_base_matches_ratio_root(self):
        alpha, _, _ = theorem6_base_change(lambda x: beta_sqrt(x, 1 / 6), 4.0)
        assert alpha == pytest.approx(
            beta_ratio_root(BetaBase(1 / 6, 1 / 6), 4.0), rel=1e-9)

    def test_non_monotone_base_rejected(self):
        with pytest.raises(DomainError):
            theorem6_base_change(lambda x: math.sin(20.0 * x) + 1.5, 2.0)

    @pytest.mark.parametrize("power, r, root", [
        (0.25, 2.0, 0.2), (0.25, 3.0, 0.1), (0.5, 4.0, 0.2), (-0.25, 2.0, 0.8)])
    def test_root_on_a_grid_point(self, power, r, root):
        # x^power puts alpha at 1/(1 + r^(1/(2 power))).  At the first, the
        # sampled ratio at 0.2 equalled sqrt 2 and picked the cell below it,
        # where the gap the search takes is +5.55e-17 at both ends:
        # BracketError
        alpha, _, _ = theorem6_base_change(lambda x: x ** power, r)
        assert alpha == pytest.approx(root, rel=1e-15)

    @staticmethod
    def _gap_in_w(name, r):
        """The alpha of theorem6_base_change against mp.findroot on the
        defining ratio f(1-x)/f(x) = sqrt r, as a gap in w = ln(alpha/(1-alpha)),
        where the search stops within eps_rel; and the bound it is held to,
        twice that (Brent's last bracket) plus half an ulp of alpha in w,
        alpha's own rounding."""
        mp = pytest.importorskip("mpmath")
        base, mp_base = _THEOREM6_BASES[name]
        alpha, _, _ = theorem6_base_change(base, r)
        with mp.workdps(40):
            ref = mp.findroot(lambda x: mp_base(mp, 1 - x) / mp_base(mp, x) - mp.sqrt(r),
                              (mp.mpf("1e-30"), 1 - mp.mpf("1e-30")), solver="anderson")
            gap = abs(mp.log(alpha / (1 - mp.mpf(alpha))) - mp.log(ref / (1 - ref)))
        return float(gap), 2.0 * DEFAULT_CTX.eps_rel + 0.5 * math.ulp(alpha) / (alpha * (1.0 - alpha))

    @pytest.mark.oracle("theorem6_base_change")
    @pytest.mark.parametrize("name", sorted(_THEOREM6_BASES))
    def test_against_mpmath(self, name):
        # over r in [0.05, 20]; at alpha = 1 - 1e-6 the rounding of alpha
        # alone is 5.5e-11 in w
        rng = random.Random(7)
        for _ in range(8):
            r = 10.0 ** rng.uniform(-1.3, 1.3)
            gap, bound = self._gap_in_w(name, r)
            assert gap <= bound, r

    @pytest.mark.oracle("theorem6_base_change")
    @pytest.mark.xfail(strict=True, reason=(
        "the base is given 1 - alpha as a float next to 1, which carries a small "
        "alpha only to ulp(1), so the gap is searched off: 3.2, 54 and 1.6 times "
        "the bound in w (FOUND in CHANGES.md)"))
    def test_small_alpha_against_mpmath(self):
        gaps = [self._gap_in_w(name, r) for name, r in [("K", 20.0), ("K", 30.0), ("B16", 20.0)]]
        assert all(gap <= bound for gap, bound in gaps)

    @pytest.mark.parametrize("power, r", [(0.25, 1e2), (0.25, 1e4), (-0.25, 1e4)])
    def test_period_ratio_next_to_the_ends(self, power, r):
        # the base x^power puts alpha at 1/(1 + r^2), or its mirror 1 - that:
        # 1e-4, 1e-8 and 1 - 1e-8.  K(sqrt(1-alpha)) rebuilt from a rounded
        # sqrt(alpha) was 1.3e-13, 1.3e-10 and 1.3e-10 off
        mp = pytest.importorskip("mpmath")
        alpha, r0, _ = theorem6_base_change(lambda x: x ** power, r)
        with mp.workdps(40):
            small = 1 / (1 + mp.mpf(r) ** 2)
            lower, upper = (small, 1 - small) if power > 0 else (1 - small, small)
            ref = (mp.ellipk(upper) / mp.ellipk(lower)) ** 2
        assert abs(alpha - lower) <= 1e-14 * lower
        assert abs(r0 - ref) <= 2e-15 * ref


class TestTrigModular:
    def test_unit_value(self):
        assert trig_modular(1.0) == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.parametrize("R", [0.0, -1.0, math.nan])
    def test_outside_the_domain_is_a_domain_error(self, R):
        # nan returned nan
        with pytest.raises(DomainError):
            trig_modular(R)

    def test_half_angle_recursion_at_one(self):
        assert trig_modular(2.0) == pytest.approx(0.25, rel=1e-14)
        rhs = (1.0 - math.sqrt(1.0 - trig_modular(0.5))) / 2.0
        assert rhs == pytest.approx(0.25, rel=1e-14)

    @pytest.mark.parametrize("R", [1.0, 2.0, 3.5])
    def test_recursion_check(self, R):
        rec = run_check(f"Ex5.eq67.R={R:g}")
        assert rec.status == "pass"
        assert rec.residual_abs <= 1e-12

    def test_root_property(self):
        m = trig_modular(3.0)
        assert psi_arcsin_ratio(m) == pytest.approx(math.sqrt(3.0), rel=1e-12)

    @pytest.mark.oracle("trig_modular")
    def test_against_mpmath(self):
        # the closed form against mp.findroot on the defining ratio
        # sqrt(arcsin sqrt(1-m) / arcsin sqrt m) = sqrt R; the worst measured
        # was 3.4e-16 relative over R in [1e-3, 1e3]
        mp = pytest.importorskip("mpmath")
        rng = random.Random(5)
        for _ in range(40):
            R = 10.0 ** rng.uniform(-3.0, 3.0)
            with mp.workdps(40):
                ratio = lambda x: mp.sqrt(mp.asin(mp.sqrt(1 - x)) / mp.asin(mp.sqrt(x)))
                ref = mp.findroot(lambda x: ratio(x) - mp.sqrt(R),
                                  (mp.mpf("1e-30"), 1 - mp.mpf("1e-30")), solver="anderson")
                assert abs(trig_modular(R) - ref) <= 1e-15 * ref, R


class TestPiFormula:
    @staticmethod
    def _product_form(R, terms):
        # each coefficient formed afresh from the paper's Pochhammer symbols
        m = trig_modular(R)
        total = 0.0
        for n in range(terms):
            coeff = pochhammer(0.25, n) * pochhammer_negative(0.75, n) \
                / (pochhammer_negative(0.5, n) * math.factorial(n))
            term = coeff * m ** (n + 0.5) / (n + 0.5)
            total += term
            if abs(term) < 1e-18 * abs(total):
                break
        return total

    @pytest.mark.parametrize("R", [0.05, 0.5, 1.0, 4.0])
    @pytest.mark.parametrize("terms", [1, 2, 7, 60, 169])
    def test_term_ratio_matches_product_form(self, R, terms):
        assert pi_formula_partial_sum(R, terms) == pytest.approx(
            self._product_form(R, terms), rel=1e-14)

    def test_sums_past_170_terms(self):
        # m(0.05) = 0.989: the series needs thousands of terms
        R = 0.05
        target = math.pi / (R + 1.0)
        gaps = [target - pi_formula_partial_sum(R, n) for n in (170, 400, 2000)]
        assert 0.0 < gaps[2] < gaps[1] < gaps[0]


class TestJIntegral:
    def test_vanishes_at_zero(self):
        assert j_integral_f1_form(0.0) == 0.0
        assert j_integral_phi_partial_fraction(1e-12) < 1e-20

    def test_partial_fraction_matches_f1(self):
        x = 0.5
        assert j_integral_phi_partial_fraction(x) == pytest.approx(
            j_integral_f1_form(x), rel=1e-11)

    def test_quadrature_route(self):
        # from the cusp, where the whole interval in the nome is below 1e-4,
        # to the top of the domain
        for x in (1e-6, 1e-3, 0.1, 0.5, 1.0):
            assert j_integral_quadrature(x) == pytest.approx(
                j_integral_f1_form(x), rel=1e-12), x

    def test_nome_inversion(self):
        q = eta_quotient_nome_of(5.0)
        assert u_of_q(q) == pytest.approx(5.0, rel=1e-10)


class TestEtaTail:
    def test_against_hypergeometric_member(self):
        from rrcflab.special import gauss_2f1
        k = singular_modulus(4.0)
        lhs = math.pi * eta_tail_integral(2.0)
        rhs = 3.0 * (2.0 * k) ** (1 / 3) * gauss_2f1(1 / 3, 1 / 6, 7 / 6, k * k)
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestWorkCounts:
    """Quadrature calls and integrand evaluations per inverse.  The counts are
    deterministic, so this cannot flake.  The eta tail and m are summed from
    the q-expansion, and F, G and the sextic's path A are one eta-tail
    inversion and one q-product evaluation: none of them integrates.  theta
    makes exactly the quadrature of its surd-tail target, which integrates
    only for X between sqrt(125)/2 and 2 sqrt(125)."""

    @pytest.fixture
    def counts(self, monkeypatch):
        tally = {"calls": 0, "evals": 0}
        original = quadrature.integrate_finite

        def counting(f, a, b, *args, **kwargs):
            tally["calls"] += 1

            def counted(x):
                tally["evals"] += 1
                return f(x)
            return original(counted, a, b, *args, **kwargs)

        # modular's and routes' own integrals, and any reached through
        # quadrature's
        monkeypatch.setattr(modular, "integrate_finite", counting)
        monkeypatch.setattr(routes, "integrate_finite", counting)
        monkeypatch.setattr(quadrature, "integrate_finite", counting)
        return tally

    @pytest.mark.parametrize("call", [
        lambda: F_of_x(0.2),
        lambda: G_of_x(0.3),
        lambda: m_of_x(1.0),
        lambda: solve_sextic(SexticInstance(1.0, 250.0, 12.0)),
        *[lambda s=s: eta_tail_integral(s) for s in (0.0, 1.0, 2.0, 5.0)],
    ], ids=["F_of_x(0.2)", "G_of_x(0.3)", "m_of_x(1.0)", "solve_sextic(1,250,12)",
            "eta_tail_integral(0)", "eta_tail_integral(1)",
            "eta_tail_integral(2)", "eta_tail_integral(5)"])
    def test_bounded(self, counts, call):
        call()
        assert counts == {"calls": 0, "evals": 0}

    def test_sextic_takes_no_period_ratio_route(self, monkeypatch):
        # the AGM period ratio and u at the squared nome are the registry's
        # cross-check of the root, not part of solving for it
        def second_route(*args, **kwargs):
            raise AssertionError("solve_sextic ran the period-ratio route")

        for mod in (special, qseries, modular):
            for name in ("elliptic_k", "elliptic_k_complementary", "u_of_q"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, second_route)
        solve_sextic(SexticInstance(1.0, 250.0, 12.0))

    def test_theta_integrates_its_target_only(self, counts):
        # X = 10 lies in the band where the surd tail integrates
        surd_tail_integral(10.0)
        target = dict(counts)
        counts.update(calls=0, evals=0)
        theta_of_X(10.0)
        assert target["calls"] == 1
        assert counts == target

    # The bounds below only tighten.  Before quadrature stopped on its error
    # estimate, theta_of_X(0.14) took 393 evaluations and Theorem 1's
    # integral at nu = 1/2 took 262; before the surd tail below 1 became one
    # quadrature of its head, theta_of_X(0.14) took 2 calls and 201.  Before
    # each end of a level stopped where its terms fall below tol/1024, they
    # took 68 and 133, and before the surd tail summed its head and far
    # series, theta_of_X(0.14) took 1 call and at most 45.
    def test_theta_evaluations(self, counts):
        theta_of_X(0.14)
        theta_of_X(50.0)
        assert counts == {"calls": 0, "evals": 0}

    @pytest.mark.parametrize("n, calls, evals", [(0.5, 1, 63), (5 / 6, 2, 126)],
                             ids=["Eq17_18.image", "Eq46.limit"])
    def test_surd_integral_to_inf_evaluations(self, counts, n, calls, evals):
        # (0, sqrt 125) and its image under t -> 125/t, one integral where
        # the two are the same; a head over [0, 50] and a mapped tail took
        # 126 evaluations at n = 1/2
        quintic_surd_integral(n, 0.0, math.inf, PrecisionContext(eps_rel=1e-12))
        assert counts == {"calls": calls, "evals": evals}

    def test_weighted_power_integral_evaluations(self, counts):
        routes.weighted_power_integral(0.5, DEFAULT_CTX)
        assert counts["calls"] == 1
        assert counts["evals"] <= 85

    @pytest.fixture
    def products(self, monkeypatch):
        """Calls of the product kernels: the product logs at ln q and the
        Lambert walk as routes calls them, ln f(-q) at ln q, and the cached
        ln f(-q) at q, whose uncached body (__wrapped__) is not counted."""
        tally = {"pairs": 0, "walks": 0, "at_log_q": 0, "at_q": 0}

        def counted(module, name, key):
            original = getattr(module, name)

            @functools.wraps(original)
            def counting(*args):
                tally[key] += 1
                return original(*args)
            monkeypatch.setattr(module, name, counting)

        counted(routes, "product_logs_of_log_q", "pairs")
        counted(routes, "lambert_sum", "walks")
        counted(qseries, "_log_qpochhammer_at", "at_log_q")
        counted(qseries, "_log_qpochhammer", "at_q")
        # a warm cache would hide the products it saves
        qseries.product_logs_of_log_q.cache_clear()
        qseries._rrcf_cached.cache_clear()
        return tally

    @pytest.mark.parametrize("integral", [
        lambda: routes.weighted_power_integral(0.5, DEFAULT_CTX),
        lambda: routes.eta_quotient_power_integral(0.5, DEFAULT_CTX),
        lambda: routes.quintic_nome_integral(1.0, 1.0, 5.0),
    ], ids=["T1.nu=0.5", "Eq17_18.nu=0.5", "T2.n=1"])
    def test_one_product_pair_per_node(self, counts, products, integral):
        # a node reads ln f(-q) and ln f(-q^5) from one call, which
        # evaluates each once, and takes no product at q, as rrcf(q) would.
        # Quadrature evaluates each node once, so no call is served from
        # the pair cache
        integral()
        assert 0 < counts["evals"] == products["pairs"]
        assert 0 < products["at_log_q"] == 2 * products["pairs"]
        assert products["walks"] == products["at_q"] == 0

    def test_two_walks_per_j_integral_node(self, counts, products):
        # the Lambert sums at P and P^5 bring ln f(-P) and ln f(-P^5) along
        j_integral_quadrature(0.5)
        assert 0 < 2 * counts["evals"] == products["walks"]
        assert products["pairs"] == products["at_log_q"] == products["at_q"] == 0


class TestGauss2F1WorkCounts:
    """Series terms of gauss_2f1(0.5, 0.25, 1.5, z) on the unit disk, and no
    quadrature.  The counts are deterministic; each bound is twice the
    count measured (17 at 0.99 and 29 at 0.9 through 1 - z, 34 at -0.99 and
    65 at 0.99i through z/(z-1)).  The series at z itself raised at its
    2000-term cap at the first three and took 234 terms at 0.9.  Every
    route sums its series in ``_series_2f1``, which reports its terms."""

    @pytest.fixture
    def counts(self, monkeypatch):
        tally = {"terms": 0, "quadratures": 0}
        original = special._series_2f1

        def counting_series(*args):
            result = original(*args)
            tally["terms"] += result.terms
            return result

        def no_quadrature(*args, **kwargs):
            tally["quadratures"] += 1
            raise AssertionError("gauss_2f1 integrated at |z| < 1")

        monkeypatch.setattr(special, "_series_2f1", counting_series)
        # integrate_finite is the one quadrature special calls
        monkeypatch.setattr(special, "integrate_finite", no_quadrature)
        return tally

    @pytest.mark.parametrize("z, max_terms", [
        (0.99, 34), (-0.99, 68), (0.99j, 130), (0.9, 58),
    ], ids=["0.99", "-0.99", "0.99i", "0.9"])
    def test_bounded(self, counts, z, max_terms):
        special.gauss_2f1(0.5, 0.25, 1.5, z)
        assert counts["quadratures"] == 0
        assert 0 < counts["terms"] <= max_terms


class TestCompleteBetaOncePerSearch:
    """A Newton search over x forms B(1, a, b) once, from three log-Gamma
    calls, however many of its steps take incomplete_beta's complement
    (uncached, these searches made 21, 9 and 12 calls)."""

    @pytest.mark.parametrize("search", [
        lambda: beta_ratio_root(BetaBase(0.5, 2.0), 3.0),
        lambda: beta_ratio_root(BetaBase(2.0, 0.5), 0.2),
        lambda: theta_of_X(0.01),
    ], ids=["beta_ratio_root(0.5,2)", "beta_ratio_root(2,0.5)", "theta_of_X(0.01)"])
    def test_three_log_gammas(self, monkeypatch, search):
        calls = []
        original = special.log_gamma_real

        def counted(x):
            calls.append(x)
            return original(x)

        monkeypatch.setattr(special, "log_gamma_real", counted)
        special.complete_beta.cache_clear()
        search()
        assert len(calls) == 3


class TestNoRootFindingInTheJLayer:
    """The moduli are theta series and j follows from them in closed form,
    so the forward maps run no root search and no AGM, the sextic at j =
    1728 sits on the ridge, and every j inversion is the one search for the
    quarter modulus.  The counts are deterministic."""

    @pytest.fixture
    def counts(self, monkeypatch):
        tally = {"find_root": 0, "agm": 0}

        def count(name, key):
            original = getattr(modular, name)

            def counted(*args, **kwargs):
                tally[key] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(modular, name, counted)

        count("find_root", "find_root")
        # modular binds no elliptic_k: its one AGM is elliptic_k_complementary
        count("elliptic_k_complementary", "agm")
        modular._klein_j_cached.cache_clear()
        return tally

    @pytest.mark.parametrize("call", [
        lambda: singular_modulus(2.0),
        lambda: klein_j(0.3),
        lambda: solve_sextic(SexticInstance(1.0, 250.0, 12.0)),
    ], ids=["singular_modulus(2)", "klein_j(0.3)", "solve_sextic(1,250,12)"])
    def test_no_find_root(self, counts, call):
        call()
        assert counts["find_root"] == 0

    @pytest.mark.parametrize("r", [0.3, 2.0, 50.0])
    def test_singular_modulus_takes_no_agm(self, counts, r):
        singular_modulus(r)
        assert counts["agm"] == 0

    def test_quarter_modulus_searches_only_the_cubic(self, counts):
        # above the ridge the root z >= 2 of (1+z)^3 = (j/256) z^2 is the
        # only search: one find_root on closed-form logarithms
        modular._quarter_modulus(4000.0)
        assert counts == {"find_root": 1, "agm": 0}

    def test_lambda_inversion_searches_only_the_cubic(self, counts):
        # Landen's step from the quarter modulus, with no AGM
        invert_lambda_j(8000.0)
        assert counts == {"find_root": 1, "agm": 0}

    def test_base_change_searches_only_for_alpha(self, counts):
        # no re-solve of j0: the one search is for the singular value
        theorem6_base_change(lambda x: math.sqrt(math.asin(math.sqrt(x))), 3.0)
        assert counts["find_root"] == 1


# The inversions workload's Beta draws (perfbench, seed 101): (a, b, r).
_INVERSIONS_BETA_DRAWS = [
    (0.5654736357486723, 1.5636523151043227, 2.4140203031602905),
    (2.7854078890629963, 0.8618963314241065, 0.7431999123806787),
    (2.933121761018145, 0.280996816460068, 0.20830381321651564),
    (1.201341925097447, 0.3292658902252093, 3.606684557441441),
    (0.9520414294455647, 0.6038120426825743, 6.369772985870714),
    (0.5389440067800865, 1.019335135828376, 0.8061221541010565),
    (1.3266177279820488, 2.9348097806384397, 0.36698277420588266),
    (0.8190874024179128, 0.7611290931195781, 0.17546035396695872),
    (0.2741991195621796, 0.5385367261161425, 0.31412424195781574),
    (0.1949388759250044, 0.9440027822477115, 0.5500826087729305),
    (1.9019899670887626, 0.16755858012905317, 7.782040473455574),
    (0.2739621650135965, 1.5261328274721544, 0.10139255716156129),
    (1.380013944592266, 0.3302062907620243, 4.582423353540217),
    (0.8096596986495619, 0.8191200468586189, 2.0384009803579404),
    (0.8810290383769873, 1.3513271484368277, 1.409743031710891),
    (0.45658078854799133, 1.0432657994450796, 1.0817875115548818),
]

# ... and its theta draws: X.
_INVERSIONS_THETA_DRAWS = [
    0.007286669094376628, 14717.347468266998, 1322.5144063951493,
    0.0013570339703319742, 25352.658796559826, 0.13996545917902495,
    4.565487725483395, 628313.9365054818, 292.47732406943766,
    1786.3128158419197, 0.34447553059785957, 86.15139716375539,
    0.01335616172656532, 0.9898136888164982, 120745.18795311685,
    19.067215953517223,
]

# ... and the arguments of its eta-tail searches: x for F, m and G, and the
# sextic instances (a, b, c1).
_INVERSIONS_DRAWS = {
    "F": [
        0.20078786250091418, 0.8318879362551242, 0.2447352997472699,
        0.7017080124147751, 0.6478393673710275, 0.020866792946127134,
        0.15050484777222137, 0.3376209155844994, 0.45739188941842457,
        0.3794129449645077, 0.541882366787036, 0.742207497837829,
        0.30305402208639637, 0.4841177584558402, 0.08485618590793992,
        0.6040589548673025,
    ],
    "m": [
        2.521006031654802, 3.483373970741721, 3.824857464622966,
        3.22135931459362, 0.6539311885219333, 3.021081862182811,
        2.0557495692058008, 0.3647218492601845, 1.4689243460247945,
        1.7273349961736577, 2.702022634842946, 1.277002870965486,
        3.9541609867463667, 2.219575732394426, 0.802595574612051,
        0.18060745908955345,
    ],
    "G": [
        0.5481024541440735, 0.17440473375152182, 0.2916566242079164,
        0.5116825473104275, 0.41402899626000245, 0.7354117301002554,
        0.5927767596800941, 0.15605905282351631, 0.3350049612045234,
        0.06636839910148, 0.6484732716896562, 0.03973153414154343,
        0.45371711799210285, 0.8066293778272656, 0.23811787894815514,
        0.7830598596650147,
    ],
    "sextic": [
        (0.9255646239403248, 84.6744759616828, 8.886486627353474),
        (0.8995418681804656, 83.15010193079743, 8.144940327279736),
        (1.6898903667906893, 286.12983325646456, 22.607999248696608),
        (1.9787980025671694, 185.65925495917378, 167.79351411583843),
        (1.5494652969048164, 296.738443544649, 54.23940794076118),
        (0.8948407760029473, 171.43725419488797, 9.83108801878566),
        (1.3631890862257474, 95.89291269351665, 10.73579397015228),
        (0.8589678743914713, 127.2695467127191, 8.658443763921083),
        (1.4114713760402253, 262.1704160068299, 15.342426321218243),
        (0.726484359859543, 97.07968493214477, 7.160069670789075),
        (1.1629408742790863, 112.9500892560073, 81.09932530366792),
        (1.4402431083302947, 233.5954305255816, 23.75941097464813),
        (0.8402528792096778, 72.30118680758221, 15.091124793160095),
        (0.6071281020408861, 253.90762793663012, 8.667697612516946),
        (0.714456616585021, 280.5555830343464, 174.87470899486615),
        (0.8795962112907574, 115.80353153404624, 33.513207313953956),
    ],
}


class TestRootSearchWorkCounts:
    """Evaluations of the registry's and the inversions workload's root
    searches.  The counts are deterministic, and each bound is twice the
    count measured unless it says otherwise.  Searched in x, the base
    changes at K, psi* and B16 took 11, 13 and 19 Brent evaluations (now 7,
    7 and 8).  App 2's five inversions of R took 81 Brent evaluations in q,
    then 44 in ln q, and now take 15 Newton steps of the eta-quotient nome
    inverse."""

    @pytest.fixture
    def evals(self, monkeypatch):
        tally = {"find_root": 0, "newton_root": 0, "beta_cf": 0}

        def count(mod, name):
            original = getattr(mod, name)

            def counted(f, *args, **kwargs):
                def evaluate(x):
                    tally[name] += 1
                    return f(x)
                return original(evaluate, *args, **kwargs)
            monkeypatch.setattr(mod, name, counted)

        count(modular, "find_root")
        count(modular, "newton_root")
        original_cf = special._beta_cf

        def counted_cf(*args):
            tally["beta_cf"] += 1
            return original_cf(*args)
        # the symmetric step calls it from modular, special._incomplete_beta_log
        # from special
        monkeypatch.setattr(modular, "_beta_cf", counted_cf)
        monkeypatch.setattr(special, "_beta_cf", counted_cf)
        return tally

    @pytest.mark.parametrize("base, r, max_evals", [
        (lambda x: elliptic_k(math.sqrt(x)), 2.0, 14),
        (lambda x: math.sqrt(math.asin(math.sqrt(x))), 3.0, 14),
        (lambda x: beta_sqrt(x, 1 / 6), 4.0, 16),
    ], ids=["K", "psi*", "B16"])
    def test_base_change(self, evals, base, r, max_evals):
        theorem6_base_change(base, r)
        assert 0 < evals["find_root"] <= max_evals

    def test_app2_inversions_of_r(self, evals):
        # the measured count: tau(R) is the nome inverse at u = R^-5 - 11 - R^5
        assert run_check("App2.eq25").status == "pass"
        assert evals["find_root"] == 0
        assert 0 < evals["newton_root"] <= 15

    @pytest.mark.parametrize("alpha, r", [
        (1 / 6, 2.0), (1 / 6, 5.0), (0.25, 3.0), (1 / 6, 0.2), (2.5, 1e-3),
        (0.07354183275938976, 31.714733296432748),
    ])
    def test_symmetric_step_runs_one_fraction(self, evals, alpha, r):
        beta_ratio_root(BetaBase(alpha, alpha), r)
        assert evals["newton_root"] > 0
        assert evals["beta_cf"] == evals["newton_root"]

    @pytest.mark.parametrize("j, max_evals", [
        (1728.0 * (1.0 + 1e-12), 10), (1730.0, 18), (4000.0, 14), (1e8, 8), (1e300, 8),
    ])
    def test_quarter_modulus(self, evals, j, max_evals):
        # Brent inside the bracket that the cubic's two forms prove: 5, 9, 7,
        # 4 and 4 evaluations, where all of [0, ln(j/512)] took 41, 18, 9, 5
        # and 3
        modular._quarter_modulus(j)
        assert 0 < evals["find_root"] <= max_evals

    def test_general_bases(self, evals):
        # two fractions a step; at most the 53 evaluations measured from the
        # small-side start (63 when Newton stopped only on a step within the
        # tolerance, 67 from x = 1/2)
        for a, b, r in _INVERSIONS_BETA_DRAWS:
            beta_ratio_root(BetaBase(a, b), r)
        assert 0 < evals["newton_root"] <= 53
        assert evals["beta_cf"] == 2 * evals["newton_root"]

    def test_theta(self, evals):
        # the measured count, 53 when Newton stopped only on a step within
        # the tolerance
        for big_x in _INVERSIONS_THETA_DRAWS:
            theta_of_X(big_x)
        assert evals["find_root"] == 0
        assert 0 < evals["newton_root"] <= 48

    @pytest.mark.parametrize("inverse, draws, max_evals", [
        (F_of_x, _INVERSIONS_DRAWS["F"], 38),
        (m_of_x, _INVERSIONS_DRAWS["m"], 39),
        (G_of_x, _INVERSIONS_DRAWS["G"], 39),
        (lambda inst: solve_sextic(SexticInstance(*inst)), _INVERSIONS_DRAWS["sextic"], 42),
    ], ids=["F", "m", "G", "sextic"])
    def test_eta_tail(self, evals, inverse, draws, max_evals):
        # the measured counts: these searches take two or three Newton
        # steps, too few to confirm a predicted error; the sextic's quarter
        # modulus is a Brent search of its own
        for arg in draws:
            inverse(arg)
        assert 0 < evals["newton_root"] <= max_evals


# m at a subnormal eta tail: pi T(s) = 6 e^(-pi s/6) to double precision
# there, so s = (6/pi) ln(6/x) at x = 2^-1074.
_M_AT_SUBNORMAL = (6.0 / math.pi * (math.log(6.0) + 1074.0 * math.log(2.0))) ** 2


class TestEntryContracts:
    """Inputs at the edges of the floats: each call returns its value or
    raises DomainError at its entry, never a ZeroDivisionError, a
    ValueError or an OverflowError from inside."""

    @pytest.mark.parametrize("call, outcome", [
        # the root is 1/2 + 1.9e-298, whose nearest float is 1/2
        (lambda: beta_ratio_root(BetaBase(1e300, 0.5), 5e-324), 0.5),
        (lambda: beta_ratio_root(BetaBase(1e300, 1e300), 2.0), DomainError),
        (lambda: beta_ratio_root(BetaBase(0.5, 0.5), math.inf), DomainError),
        (lambda: beta_ratio_root(BetaBase(0.5, 0.5), math.nan), DomainError),
        # B(1, a, b) ~ 1e300 and B(1-x, b, a) cancel to nothing
        (lambda: beta_ratio_root(BetaBase(0.5, 1e-300), 2.0), DomainError),
        (lambda: theorem6_base_change(lambda x: 0.0, 2.0), DomainError),
        (lambda: theorem6_base_change(lambda x: x, math.inf), DomainError),
        (lambda: theorem6_base_change(lambda x: x, math.nan), DomainError),
        # bases that raise on the grid: they raised ZeroDivisionError,
        # ValueError and OverflowError
        (lambda: theorem6_base_change(lambda x: 1.0 / (x - 0.5), 2.0), DomainError),
        (lambda: theorem6_base_change(lambda x: math.log(x - 0.45), 2.0), DomainError),
        (lambda: theorem6_base_change(lambda x: math.exp(1e4 * x), 2.0), DomainError),
        (lambda: m_of_x(5e-324), _M_AT_SUBNORMAL),
        (lambda: SexticInstance(5e-324, 5e-324, 12.0), DomainError),
        (lambda: SexticInstance(1e300, 5e-324, 12.0), DomainError),
    ], ids=["beta_ratio_root(1e300,0.5;5e-324)", "beta_ratio_root(1e300,1e300;2)",
            "beta_ratio_root(r=inf)", "beta_ratio_root(r=nan)",
            "beta_ratio_root(0.5,1e-300;2)",
            "theorem6_base_change(0)", "theorem6_base_change(r=inf)",
            "theorem6_base_change(r=nan)", "theorem6_base_change(1/(x-0.5))",
            "theorem6_base_change(log(x-0.45))", "theorem6_base_change(exp(1e4x))",
            "m_of_x(5e-324)",
            "SexticInstance(5e-324,5e-324,12)", "SexticInstance(1e300,5e-324,12)"])
    def test_value_or_domain_error(self, call, outcome):
        if isinstance(outcome, float):
            assert call() == pytest.approx(outcome, rel=1e-13)
        else:
            with pytest.raises(outcome):
                call()

    @pytest.mark.parametrize("r", [0.0, -1.0, math.inf, math.nan])
    def test_sextic_variable_of_index(self, r):
        # r is the index of the squared nome exp(-2 pi sqrt r)
        with pytest.raises(DomainError):
            sextic_variable_of_index(r)
