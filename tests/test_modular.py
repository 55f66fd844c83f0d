import math

import pytest

from rrcflab.modular import (ConsistencyError, F_of_x, G_of_x, SexticInstance,
                             beta_ratio_root, eta_quotient_nome_of,
                             eta_tail_integral, hypergeometric_g_argument,
                             invert_lambda_j, j_integral_f1_form,
                             j_integral_phi_partial_fraction,
                             j_integral_quadrature, klein_j,
                             klein_j_from_lambda, klein_j_from_quarter_modulus,
                             m_of_x, pi_formula_partial_sum,
                             psi_arcsin_ratio, rr_integral,
                             singular_modulus, solve_sextic, surd_tail_integral,
                             theorem6_base_change, theta_of_X, trig_modular,
                             trig_modular_equation_check)
from rrcflab.numerics import DomainError
from rrcflab.qseries import u_of_q
from rrcflab.special import (BetaBase, beta_sqrt, elliptic_k, gamma,
                             incomplete_beta, pochhammer, pochhammer_negative)

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


class TestKleinJ:
    def test_unit_index(self):
        assert klein_j(1.0) == pytest.approx(1728.0, rel=1e-6)

    def test_index_two(self):
        assert klein_j(2.0) == pytest.approx(8000.0, rel=1e-8)

    def test_lambda_form_symmetry(self):
        assert klein_j_from_lambda(0.3) == pytest.approx(
            klein_j_from_lambda(0.7), rel=1e-14)

    @pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
    def test_two_forms_agree(self, r):
        k4r = singular_modulus(4.0 * r)
        kr = singular_modulus(r)
        quarter = klein_j_from_quarter_modulus(k4r * k4r)
        lam = klein_j_from_lambda(kr * kr)
        assert quarter == pytest.approx(lam, rel=1e-8)

    def test_lambda_inversion(self):
        lam = invert_lambda_j(klein_j_from_lambda(0.2))
        assert lam == pytest.approx(0.2, rel=1e-10)


class TestInverseIntegrals:
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
        sol = solve_sextic(SexticInstance(1.0, 250.0, 12.0))
        assert sol.x == pytest.approx(u_of_q(Q_E2PI), rel=1e-6)
        assert sol.residual <= 1e-6
        assert abs(sol.x - sol.x_alt) <= 1e-6 * sol.x
        assert sol.r == pytest.approx(1.0, abs=1e-9)
        assert sol.k4r == pytest.approx(SILVER, abs=1e-9)

    def test_synthetic_j4000(self):
        c1 = (4000.0 * 3.0 / 250.0) ** (1.0 / 3.0)
        sol = solve_sextic(SexticInstance(1.0, 3.0, c1))
        assert sol.residual <= 1e-6
        assert abs(sol.x - sol.x_alt) <= 1e-6 * sol.x

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

    def test_rejects_low_j(self):
        with pytest.raises(DomainError):
            solve_sextic(SexticInstance(1.0, 3.0, 1.0))

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


class TestTrigModular:
    def test_unit_value(self):
        assert trig_modular(1.0) == pytest.approx(0.5, rel=1e-15)

    def test_half_angle_recursion_at_one(self):
        assert trig_modular(2.0) == pytest.approx(0.25, rel=1e-14)
        rhs = (1.0 - math.sqrt(1.0 - trig_modular(0.5))) / 2.0
        assert rhs == pytest.approx(0.25, rel=1e-14)

    @pytest.mark.parametrize("R", [1.0, 2.0, 3.5])
    def test_recursion_check(self, R):
        rec = trig_modular_equation_check(R)
        assert rec.status == "pass"
        assert rec.residual_abs <= 1e-12

    def test_root_property(self):
        m = trig_modular(3.0)
        assert psi_arcsin_ratio(m) == pytest.approx(math.sqrt(3.0), rel=1e-12)


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
        x = 0.5
        assert j_integral_quadrature(x) == pytest.approx(
            j_integral_f1_form(x), rel=1e-5)

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
