"""The check registry: one named verification per identity, each comparing
two independently computed values and producing a CheckResult.

Checks marked flagged document readings of the source identities that the
numerics contradict (sign conventions, argument typos, stray prefactors);
they report residuals from two independent methods and never fail a run.
"""

from __future__ import annotations

import fnmatch
import math
import time
from dataclasses import dataclass, replace
from typing import Callable

from . import modular, qseries, special
from .numerics import (DEFAULT_CTX, DomainError, KernelError, PrecisionContext,
                       SeriesDivergenceError, differentiate, find_root)
from .quadrature import AlgebraicDecay, integrate_finite, integrate_to_infinity
from .report import FAIL, FLAGGED, PASS, CheckResult, compare, residuals
from .special import BetaBase, beta_sqrt, elliptic_k, gamma, gauss_2f1, incomplete_beta

SQRT5 = math.sqrt(5.0)
_Q_RAMANUJAN = math.exp(-2.0 * math.pi)
# -(1+sqrt5)/2 + sqrt((5+sqrt5)/2): the continued fraction at exp(-2 pi).
RRCF_AT_E2PI = -(1.0 + SQRT5) / 2.0 + math.sqrt((5.0 + SQRT5) / 2.0)
# How the notes of a check whose builder raised a KernelError begin.
BUILDER_RAISED = "builder raised "


# ---------------------------------------------------------------------------
# Integrand wrappers shared by several checks

def _weighted_power_integrand(q: float, exponent: float) -> float:
    """f(-q)^4 q^(-5/6) R(q)^(5 exponent); vanishes superexponentially as
    q -> 1, underflowing cleanly through the log form."""
    log_f4 = 4.0 * qseries.ramanujan_f_log(q)
    if log_f4 < -700.0:
        return 0.0
    return math.exp(log_f4 - (5.0 / 6.0) * math.log(q)) * qseries.rrcf(q) ** (5.0 * exponent)


def weighted_power_integral(exponent: float, ctx: PrecisionContext,
                            substituted: bool = False) -> float:
    """int_0^1 f(-q)^4 q^(-5/6) R(q)^(5 exponent) dq, either by direct
    tanh-sinh or with q = s^6 (which removes the endpoint singularity);
    the two routes are this family's anti-typo defence."""
    if not substituted:
        return integrate_finite(lambda q: _weighted_power_integrand(q, exponent),
                                0.0, 1.0, ctx, singular_at_a=True)

    def mapped(s: float) -> float:
        q = s ** 6
        if q <= 0.0:
            return 0.0
        log_f4 = 4.0 * qseries.ramanujan_f_log(q)
        if log_f4 < -700.0:
            return 0.0
        return 6.0 * math.exp(log_f4) * qseries.rrcf(q) ** (5.0 * exponent)

    return integrate_finite(mapped, 0.0, 1.0, ctx)


def weighted_power_rhs(exponent: float, ctx: PrecisionContext) -> float:
    """Gamma(5/6) ((11+5 sqrt5)/2)^(-1/6-nu) Gamma(1/6+nu)/Gamma(1+nu)
    2F1(1/6, 1/6+nu; 1+nu; (11-5 sqrt5)/(11+5 sqrt5))."""
    nu = exponent
    big = (11.0 + 5.0 * SQRT5) / 2.0
    z = (11.0 - 5.0 * SQRT5) / (11.0 + 5.0 * SQRT5)
    return (gamma(5.0 / 6.0) * big ** (-1.0 / 6.0 - nu)
            * gamma(1.0 / 6.0 + nu) / gamma(1.0 + nu)
            * float(gauss_2f1(1.0 / 6.0, 1.0 / 6.0 + nu, 1.0 + nu, z, ctx)))


def eta_quotient_power_integral(nu: float, ctx: PrecisionContext) -> float:
    """int_0^1 u(q)^(nu-5/6) f(-q)^4 q^(-5/6) dq."""

    def f(q: float) -> float:
        expo = ((nu - 5.0 / 6.0) * qseries.u_of_q_log(q)
                + 4.0 * qseries.ramanujan_f_log(q) - (5.0 / 6.0) * math.log(q))
        return math.exp(expo) if expo > -700.0 else 0.0

    return integrate_finite(f, 0.0, 1.0, ctx, singular_at_a=True)


def eta_quotient_power_mellin(nu: float, ctx: PrecisionContext) -> float:
    """Same quantity through the image variable:
    int_0^inf u^(nu-1) (125 + 22u + u^2)^(-1/2) du."""

    def f(t: float) -> float:
        return t ** (nu - 1.0) * (125.0 + 22.0 * t + t * t) ** -0.5

    head = integrate_finite(f, 0.0, 50.0, ctx, singular_at_a=nu < 1.0)
    return head + integrate_to_infinity(f, 50.0, AlgebraicDecay(2.0 - nu), ctx)


def quintic_surd_denominator_integral(n: float, x_lo: float, x_hi: float,
                                      ctx: PrecisionContext) -> float:
    """int_{x_lo}^{x_hi} t^(n-1) (125 + 22 t + t^2)^(-1/2) dt."""
    return integrate_finite(
        lambda t: t ** (n - 1.0) * (125.0 + 22.0 * t + t * t) ** -0.5,
        x_lo, x_hi, ctx, singular_at_a=(x_lo == 0.0 and n < 1.0))


def modulus_product_formula(r: float, ctx: PrecisionContext) -> float:
    """2^(1/3) pi^(-1/2) q^(-1/24) k^(1/12) k'^(1/3) K(k)^(1/2) at the
    index-r singular modulus, q = exp(-pi sqrt r)."""
    k, kp = modular._singular_modulus_pair(r)
    q = math.exp(-math.pi * math.sqrt(r))
    return (2.0 ** (1.0 / 3.0) / math.sqrt(math.pi) * q ** (-1.0 / 24.0)
            * k ** (1.0 / 12.0) * kp ** (1.0 / 3.0) * math.sqrt(elliptic_k(k)))


# ---------------------------------------------------------------------------
# Check builders

_REGISTRY: dict[str, Callable[[PrecisionContext], CheckResult]] = {}


def _register(check_id: str):
    def wrap(fn):
        if check_id in _REGISTRY:
            raise ValueError(f"duplicate check id {check_id}")
        _REGISTRY[check_id] = fn
        return fn
    return wrap


def _weighted_power_check(nu: float, tol: float):
    def build(ctx: PrecisionContext) -> CheckResult:
        direct = weighted_power_integral(nu, ctx)
        mapped = weighted_power_integral(nu, ctx, substituted=True)
        rhs = weighted_power_rhs(nu, ctx)
        gap = abs(direct - mapped) / abs(rhs)
        return compare(f"T1.nu={nu:g}", "Theorem 1 (Eq 12)", direct, rhs, tol,
                       notes=f"independent q=s^6 route differs by {gap:.2e} rel")
    return build


_register("T1.nu=0.5")(_weighted_power_check(0.5, 1e-6))
_register("T1.nu=1")(_weighted_power_check(1.0, 1e-6))


@_register("Eq13.n0")
def _eq13(ctx: PrecisionContext) -> CheckResult:
    lhs = weighted_power_integral(0.5, ctx)
    alt = weighted_power_integral(0.5, ctx, substituted=True)
    rhs = (27.0 * gamma(5.0 / 6.0) * gamma(8.0 / 3.0)
           * math.sin((2.0 / 3.0) * math.atan(
               math.sqrt((-11.0 + 5.0 * SQRT5) / (11.0 + 5.0 * SQRT5))))
           / (2.0 * math.sqrt(5.0 * math.pi)))
    return compare("Eq13.n0", "Eq (13), half-integer special case", lhs, rhs,
                   1e-6, flagged=True,
                   notes=f"quadrature routes: direct {lhs:.15g}, mapped {alt:.15g}")


def _two_point_eta_quotient_check(n: float):
    def build(ctx: PrecisionContext) -> CheckResult:
        x_hi, x_lo = 5.0, 1.0   # u decreasing: q(x_hi) < q(x_lo)
        q_hi = modular.eta_quotient_nome_of(x_hi, ctx)
        q_lo = modular.eta_quotient_nome_of(x_lo, ctx)

        def f(q: float) -> float:
            return math.exp(n * qseries.u_of_q_log(q)
                            + 5.0 * qseries.ramanujan_f_log(q ** 5)
                            - qseries.ramanujan_f_log(q))

        lhs = integrate_finite(f, q_hi, q_lo, ctx)
        rhs = quintic_surd_denominator_integral(n, x_lo, x_hi, ctx)
        notes = ("two-point form: the displayed endpoints 0 and x give a "
                 "divergent left side for n >= 1, so the antiderivative "
                 "identity is checked between u-values 5 and 1")
        return compare(f"T2.n={n:g}", "Theorem 2 (Eq 14)", lhs, rhs, 1e-7,
                       notes=notes)
    return build


_register("T2.n=1")(_two_point_eta_quotient_check(1.0))
_register("T2.n=1.5")(_two_point_eta_quotient_check(1.5))


@_register("Eq16.m1.n0.5")
def _eq16(ctx: PrecisionContext) -> CheckResult:
    m, n = 1.0, 0.5
    a, b, c = 1.0, -3.0, 2.0   # roots 1 and 2
    rho1, rho2 = 1.0, 2.0
    lhs = integrate_finite(lambda x: x ** m * (a * x * x + b * x + c) ** n,
                           0.0, rho1, ctx)
    rhs = (c ** n * rho1 ** (m + 1.0) * gamma(m + 1.0) * gamma(n + 1.0)
           / gamma(m + n + 2.0)
           * float(gauss_2f1(m + 1.0, -n, m + n + 2.0, rho1 / rho2, ctx)))
    return compare("Eq16.m1.n0.5", "Eq (16)", lhs, rhs, 1e-7,
                   notes="quadratic with roots 1 < 2; quadrature vs 2F1 form")


@_register("Eq17_18.nu=0.5")
def _eq17_18(ctx: PrecisionContext) -> CheckResult:
    nu = 0.5
    lhs = eta_quotient_power_integral(nu, ctx)
    mellin = eta_quotient_power_mellin(nu, ctx)
    hyp = float(gauss_2f1((nu + 1.0) / 2.0, (nu + 2.0) / 2.0, 1.0, -4.0 / 121.0, ctx))
    rhs18 = math.pi / math.sin(nu * math.pi) * 11.0 ** (nu - 1.0) * hyp
    rhs17 = -math.pi / math.sin(nu * math.pi) / 11.0 ** (nu + 1.0) * hyp
    swapped = float(gauss_2f1((1.0 - nu) / 2.0, (2.0 - nu) / 2.0, 1.0,
                              -4.0 / 121.0, ctx))
    resolved = math.pi / math.sin(nu * math.pi) * 11.0 ** (nu - 1.0) * swapped
    notes = (f"independent routes agree: q-integral {lhs:.15g}, image-variable "
             f"integral {mellin:.15g}; stated positive-prefactor form gives "
             f"{rhs18:.15g}, stated negative-prefactor form {rhs17:.15g}; with "
             f"the 2F1 parameters reflected (nu -> -nu) the closed form "
             f"{resolved:.15g} matches to {abs(resolved - lhs) / lhs:.2e}")
    return compare("Eq17_18.nu=0.5", "Eqs (17)-(18) with sign resolution",
                   lhs, rhs18, 1e-7, flagged=True, notes=notes)


def _eta_product_modulus_check(r: float):
    def build(ctx: PrecisionContext) -> CheckResult:
        q = math.exp(-math.pi * math.sqrt(r))
        lhs = qseries.ramanujan_f(q)
        rhs = modulus_product_formula(r, ctx)
        return compare(f"Eq19.r={r:g}", "Eq (19)", lhs, rhs, 1e-9,
                       notes="q-product vs elliptic-modulus closed form")
    return build


for _r in (1.0, 2.0, 4.0):
    _register(f"Eq19.r={_r:g}")(_eta_product_modulus_check(_r))


@_register("Eq20_21.chain.r=4")
def _eq20_21(ctx: PrecisionContext) -> CheckResult:
    k = modular.singular_modulus(4.0, ctx)
    q = math.exp(-2.0 * math.pi)
    chain = qseries.rrcf_derivative(q) * qseries.dq_dk(k, q, ctx)
    direct = qseries.dr_dk(k, q, ctx)
    # both sides are formed to full precision whatever ctx asks: 5.0e-16
    # measured at eps 1e-12..1e-6, so 1e-12 leaves a margin of 2,000
    return compare("Eq20_21.chain.r=4", "Eqs (20)-(21) chain rule",
                   chain, direct, 1e-12,
                   notes="R'(q) dq/dk composed against the direct dR/dk form; "
                         "both carry the stated sign convention")


@_register("Eq20.sign.r=4")
def _eq20_sign(ctx: PrecisionContext) -> CheckResult:
    k = modular.singular_modulus(4.0, ctx)
    q = math.exp(-2.0 * math.pi)

    def nome_of_modulus(kk: float) -> float:
        return math.exp(-math.pi * special.elliptic_k_complementary(kk)
                        / elliptic_k(kk))

    fd = differentiate(nome_of_modulus, k, ctx)
    stated = qseries.dq_dk(k, q, ctx)
    notes = (f"|finite difference|/|stated| - 1 = "
             f"{abs(fd.value / stated) - 1.0:.2e}; the map k -> q is "
             f"increasing, the stated form is negative")
    return compare("Eq20.sign.r=4", "Eq (20) sign convention", fd.value,
                   stated, 1e-6, flagged=True, notes=notes)


@_register("Eq22.r=4")
def _eq22(ctx: PrecisionContext) -> CheckResult:
    k = modular.singular_modulus(4.0, ctx)
    lhs = modular.hypergeometric_g_argument(k * k, ctx)
    rhs = modular.rr_integral(qseries.rrcf(_Q_RAMANUJAN), ctx)
    return compare("Eq22.r=4", "Eq (22)", lhs, rhs, 1e-7,
                   notes="hypergeometric closed form vs continued-fraction integral")


def _triple_equality_check(r: float):
    def build(ctx: PrecisionContext) -> CheckResult:
        k = modular.singular_modulus(r, ctx)
        e1 = math.pi * modular.eta_tail_integral(math.sqrt(r), ctx)
        e2 = 3.0 * (2.0 * k) ** (1.0 / 3.0) * float(
            gauss_2f1(1.0 / 3.0, 1.0 / 6.0, 7.0 / 6.0, k * k, ctx))
        e3 = 5.0 * modular.rr_integral(
            qseries.rrcf(math.exp(-math.pi * math.sqrt(r))), ctx)
        worst = max(residuals(e1, e2)[1], residuals(e1, e3)[1],
                    residuals(e2, e3)[1])
        return compare(f"T3.r={r:g}", "Theorem 3 (Eq 23) triple equality",
                       e1, e3, 1e-7,
                       notes=f"middle member {e2:.15g}; worst pairwise "
                             f"residual {worst:.2e}")
    return build


_register("T3.r=1")(_triple_equality_check(1.0))
_register("T3.r=4")(_triple_equality_check(4.0))


@_register("App1.eq24")
def _app1(ctx: PrecisionContext) -> CheckResult:
    lhs = modular.eta_tail_integral(2.0, ctx)
    rhs = 5.0 / math.pi * modular.rr_integral(qseries.rrcf(_Q_RAMANUJAN), ctx)
    return compare("App1.eq24", "Application 1 (Eq 24)", lhs, rhs, 1e-7,
                   notes="eta tail vs continued-fraction integral at index 4")


@_register("App2.eq25")
def _app2(ctx: PrecisionContext) -> CheckResult:
    x0 = qseries.rrcf(_Q_RAMANUJAN)

    def inverse_tau(x: float) -> float:
        q = find_root(lambda qq: qseries.rrcf(qq) - x, 1e-8, 0.999, ctx)
        return -math.log(q) / math.pi

    fd = differentiate(inverse_tau, x0, ctx)
    radical = math.sqrt((1.0 + 3.0 * SQRT5
                         + 2.0 * math.sqrt(10.0 + 2.0 * SQRT5)) / 10.0)
    tau = inverse_tau(x0)
    stated = -5.0 / math.pi / qseries.dedekind_eta(tau / 2.0) ** 4 * radical
    u0 = qseries.u_of_q(_Q_RAMANUJAN)
    radical_gap = abs(radical - 1.0 / (x0 * u0 ** (1.0 / 6.0)))
    eta2i_variant = -5.0 / math.pi / qseries.dedekind_eta(2.0) ** 4 * radical
    notes = (f"radical closed form matches 1/(x u^(1/6)) to {radical_gap:.2e}; "
             f"the displayed eta(2i) variant gives {eta2i_variant:.9g} "
             f"(off by 2^(3/2)); eta at i tau/2 = eta(i) is the consistent "
             f"argument")
    return compare("App2.eq25", "Application 2 (Eq 25)", fd.value, stated,
                   1e-5, notes=notes)


@_register("RRCF.e2pi")
def _rrcf_value(ctx: PrecisionContext) -> CheckResult:
    lhs = qseries.rrcf(_Q_RAMANUJAN)
    return compare("RRCF.e2pi", "Application 1 closed-form value",
                   lhs, RRCF_AT_E2PI, 1e-10, relative=False,
                   notes="eta-quotient path vs radical closed form")


@_register("T4.r=4")
def _t4(ctx: PrecisionContext) -> CheckResult:
    k = modular.singular_modulus(4.0, ctx)
    lhs = modular.F_of_x(modular.hypergeometric_g_argument(k * k, ctx), ctx)
    # F_of_x solves to eps_rel: at most 5.5e-4 eps_rel measured at eps
    # 1e-12..1e-6 (2.0e-16 at the default), a margin of at least 1,800
    return compare("T4.r=4", "Theorem 4 (Eq 28)", lhs, RRCF_AT_E2PI,
                   max(ctx.eps_rel, 1e-12),
                   notes="composite inversion vs the continued-fraction value")


@_register("Eq29_30.roundtrip")
def _eq29(ctx: PrecisionContext) -> CheckResult:
    a_val = 0.2
    y = qseries.rrcf(math.exp(-math.pi * math.sqrt(modular.m_of_x(5.0 * a_val, ctx))))
    lhs = modular.rr_integral(y, ctx)
    y_printed = qseries.rrcf(math.exp(-math.pi * math.sqrt(modular.m_of_x(a_val, ctx))))
    printed_gap = abs(modular.rr_integral(y_printed, ctx) - a_val) / a_val
    notes = (f"solution uses the eta-tail inverse at 5A (the triple equality "
             f"carries the factor five); the displayed m(A) argument leaves "
             f"residual {printed_gap:.2e}")
    return compare("Eq29_30.roundtrip", "Eqs (29)-(30)", lhs, a_val, 1e-5,
                   notes=notes)


@_register("Eq31.x=0.2")
def _eq31(ctx: PrecisionContext) -> CheckResult:
    x = 0.2
    lhs = modular.F_of_x(x, ctx)
    rhs = qseries.rrcf(math.exp(-math.pi * math.sqrt(modular.m_of_x(5.0 * x, ctx))))
    printed = qseries.rrcf(math.exp(-math.pi * math.sqrt(modular.m_of_x(x, ctx))))
    notes = (f"same factor-five normalisation as Eqs (29)-(30); the displayed "
             f"m(x) composite evaluates to {printed:.12g}")
    return compare("Eq31.x=0.2", "Eq (31) composite", lhs, rhs, 1e-5, notes=notes)


@_register("Eq32.r=4")
def _eq32(ctx: PrecisionContext) -> CheckResult:
    k = modular.singular_modulus(4.0, ctx)
    x = 3.0 * (2.0 * k) ** (1.0 / 3.0) * float(
        gauss_2f1(1.0 / 3.0, 1.0 / 6.0, 7.0 / 6.0, k * k, ctx))
    # m_of_x solves to eps_rel: at most 8.3e-4 eps_rel measured at eps
    # 1e-12..1e-6 (4.4e-16 at the default), a margin of at least 1,200
    return compare("Eq32.r=4", "Eq (32) eta-tail inverse", modular.m_of_x(x, ctx),
                   4.0, max(ctx.eps_rel, 1e-12),
                   notes="closed-form argument returns its own index")


def _g_through_f_check(x: float):
    def build(ctx: PrecisionContext) -> CheckResult:
        f_val = modular.F_of_x(x, ctx)
        from_f = 1.0 / f_val ** 5 - 11.0 - f_val ** 5
        return compare(f"Eq29_32.GF.x={x:g}",
                       "Eqs (29)-(32) inverses: G(x) = F(x)^-5 - 11 - F(x)^5",
                       modular.G_of_x(x, ctx), from_f, 10.0 * max(ctx.eps_rel, 1e-12),
                       notes=f"continued-fraction inverse F(x)={f_val:.15g}; the "
                             f"eta-quotient sixth power of its nome, through R^-5 - 11 - R^5")
    return build


_register("Eq29_32.GF.x=0.15")(_g_through_f_check(0.15))
_register("Eq29_32.GF.x=0.6")(_g_through_f_check(0.6))


def _sextic_check(check_id: str, ref: str, inst: modular.SexticInstance,
                  expected: float | None = None):
    def build(ctx: PrecisionContext) -> CheckResult:
        sol = modular.solve_sextic(inst, ctx)
        cross = abs(sol.x - sol.x_alt) / abs(sol.x)
        notes = (f"t={sol.t:.12g}, index r={sol.r:.12g}, cross-path "
                 f"delta {cross:.2e}, sextic residual {sol.residual:.2e}")
        if expected is not None:
            return compare(check_id, ref, sol.x, expected, 1e-5, notes=notes)
        worst = max(sol.residual, cross)
        return compare(check_id, ref, worst, 0.0, 1e-6, relative=False,
                       notes=notes)
    return build


_register("T5.prop1")(_sextic_check(
    "T5.prop1", "Theorem 5 / Proposition 1 instance",
    modular.SexticInstance(1.0, 250.0, 12.0),
    expected=None))
_register("T5.j4000")(_sextic_check(
    "T5.j4000", "Theorem 5, synthetic j=4000",
    modular.SexticInstance(1.0, 3.0, (4000.0 * 3.0 / 250.0) ** (1.0 / 3.0))))
_register("T5.j1730")(_sextic_check(
    "T5.j1730", "Theorem 5, near-minimal j=1730",
    modular.SexticInstance(1.0, 3.0, (1730.0 * 3.0 / 250.0) ** (1.0 / 3.0))))


@_register("Prop1.eq43")
def _prop1_c1(ctx: PrecisionContext) -> CheckResult:
    k4, k4p = modular._singular_modulus_pair(4.0)
    c1_cubed = modular.klein_j_from_quarter_modulus(k4 * k4, k4p * k4p)
    # the moduli are full precision whatever ctx asks: 2.4e-15 measured at
    # eps 1e-12..1e-6, so 1e-12 (as for the J.* checks) leaves a margin of 400
    return compare("Prop1.eq43", "Proposition 1 (Eq 43) coefficient",
                   c1_cubed, 1728.0, 1e-12,
                   notes="the index-1 instance has cube 12^3")


def _j_lambda_check(r: float):
    def build(ctx: PrecisionContext) -> CheckResult:
        k, kp = modular._singular_modulus_pair(r)
        lam_form = modular.klein_j_from_lambda(k * k, kp * kp)
        return compare(f"J.lambda.r={r:g}", "j-invariant, lambda-line form",
                       modular.klein_j(r, ctx), lam_form, 1e-12,
                       notes=f"256(l^2-l+1)^3/(l^2(1-l)^2) at l=k_r^2={k * k:.15g} "
                             f"against the quarter-modulus form at index 4r")
    return build


def _j_level5_check(r: float):
    def build(ctx: PrecisionContext) -> CheckResult:
        u = qseries.u_of_q(qseries.Nome.from_r_squared(r))
        level5 = (u * u + 250.0 * u + 3125.0) ** 3 / u ** 5
        return compare(f"J.level5.r={r:g}",
                       "Level-5 relation behind Theorem 5: j = (u^2+250u+3125)^3/u^5",
                       modular.klein_j(r, ctx), level5, 1e-12,
                       notes=f"eta-quotient u={u:.15g} at the squared nome "
                             f"exp(-2 pi sqrt r); no elliptic modulus involved")
    return build


for _r in (0.5, 1.0, 2.0, 4.0, 9.0):
    _register(f"J.lambda.r={_r:g}")(_j_lambda_check(_r))
    _register(f"J.level5.r={_r:g}")(_j_level5_check(_r))


def _j_invert_check(r: float):
    def build(ctx: PrecisionContext) -> CheckResult:
        j0 = modular.klein_j(r, ctx)
        k, kp = modular._singular_modulus_pair(r)
        return compare(f"J.invert.r={r:g}", "Theorem 6, inverting the lambda-line j",
                       modular.invert_lambda_j(j0, ctx), min(k * k, kp * kp), 1e-12,
                       notes=f"lambda from the quarter modulus of j={j0:.15g} by "
                             f"Landen's step, against k_r^2 from theta series")
    return build


for _r in (2.0, 9.0, 1000.0):
    _register(f"J.invert.r={_r:g}")(_j_invert_check(_r))


@_register("Prop1.eq42")
def _prop1_beta(ctx: PrecisionContext) -> CheckResult:
    k4 = modular.singular_modulus(4.0, ctx)
    base = BetaBase(1.0 / 6.0, 2.0 / 3.0)
    x1 = qseries.u_of_q(_Q_RAMANUJAN)
    lhs = incomplete_beta(k4 * k4, base, ctx)
    rhs = 4.0 ** (1.0 / 3.0) * modular.surd_tail_integral(x1, ctx)
    ratio = incomplete_beta(1.0 - k4 * k4, base, ctx) / lhs
    return compare("Prop1.eq42", "Proposition 1 (Eq 42)", lhs, rhs, 1e-7,
                   notes=f"complement ratio at this argument is {ratio:.12g} "
                         f"(recorded only)")


@_register("Prop1.eq45")
def _prop1_x(ctx: PrecisionContext) -> CheckResult:
    sol = modular.solve_sextic(modular.SexticInstance(1.0, 250.0, 12.0), ctx)
    rhs = qseries.u_of_q(_Q_RAMANUJAN)
    return compare("Prop1.eq45", "Proposition 1 (Eq 45)", sol.x, rhs, 1e-5,
                   notes="sextic root vs eta-quotient value at the unit index")


@_register("Eq46.roundtrip.X=50")
def _eq46_roundtrip(ctx: PrecisionContext) -> CheckResult:
    b = modular.theta_of_X(50.0, ctx)
    lhs = 4.0 ** (-1.0 / 3.0) * incomplete_beta(b, BetaBase(1.0 / 6.0, 2.0 / 3.0), ctx)
    rhs = modular.surd_tail_integral(50.0, ctx)
    return compare("Eq46.roundtrip.X=50", "Eq (46) defining equation",
                   lhs, rhs, 1e-8, notes=f"solved exponent argument b={b:.15g}")


@_register("Eq46.limit")
def _eq46_limit(ctx: PrecisionContext) -> CheckResult:
    lhs = modular.surd_tail_integral(0.0, ctx)
    base = BetaBase(1.0 / 6.0, 2.0 / 3.0)
    rhs = 4.0 ** (-1.0 / 3.0) * special.complete_beta(base)
    return compare("Eq46.limit", "Eq (46) limit of vanishing lower limit",
                   lhs, rhs, 1e-8,
                   notes="full surd tail vs complete Beta closed form")


@_register("Eq46.prop1")
def _eq46_prop1(ctx: PrecisionContext) -> CheckResult:
    k4 = modular.singular_modulus(4.0, ctx)
    lhs = modular.theta_of_X(qseries.u_of_q(_Q_RAMANUJAN), ctx)
    return compare("Eq46.prop1", "Eq (46) against the Proposition 1 chain",
                   lhs, k4 * k4, 1e-6,
                   notes="theta at the unit-index sextic root recovers the "
                         "squared quarter modulus")


@_register("T6.baseK.r=2")
def _t6_k(ctx: PrecisionContext) -> CheckResult:
    alpha, r0, j0 = modular.theorem6_base_change(
        lambda x: elliptic_k(math.sqrt(x)), 2.0, ctx)
    k2 = modular.singular_modulus(2.0, ctx)
    return compare("T6.baseK.r=2", "Theorem 6, elliptic base", alpha, k2 * k2,
                   1e-9, notes=f"r0={r0:.12g} (self-consistency), j0={j0:.9g}")


@_register("T6.basePsiStar.r=3")
def _t6_psi(ctx: PrecisionContext) -> CheckResult:
    alpha, r0, j0 = modular.theorem6_base_change(
        lambda x: math.sqrt(math.asin(math.sqrt(x))), 3.0, ctx)
    rhs = modular.trig_modular(3.0)
    other = modular.trig_modular(math.sqrt(3.0))
    notes = (f"matches the closed trigonometric value at index r itself; the "
             f"sqrt(r)-index variant would be {other:.12g}; r0={r0:.12g}, "
             f"j0={j0:.9g}")
    return compare("T6.basePsiStar.r=3", "Theorem 6, arcsin base", alpha, rhs,
                   1e-9, notes=notes)


@_register("T6.baseB16.r=4")
def _t6_beta(ctx: PrecisionContext) -> CheckResult:
    alpha, r0, j0 = modular.theorem6_base_change(
        lambda x: beta_sqrt(x, 1.0 / 6.0, ctx), 4.0, ctx)
    base = BetaBase(1.0 / 6.0, 1.0 / 6.0)
    rhs = modular.beta_ratio_root(base, 4.0, ctx)
    other = modular.beta_ratio_root(base, 2.0, ctx)
    notes = (f"the base-change index maps onto the Beta-ratio index r itself "
             f"(ratio of squares); the halved-index reading would give "
             f"{other:.12g}; r0={r0:.12g}, j0={j0:.9g}")
    return compare("T6.baseB16.r=4", "Theorem 6, sqrt-Beta base", alpha, rhs,
                   1e-9, notes=notes)


@_register("T7.r=1")
def _t7_r1(ctx: PrecisionContext) -> CheckResult:
    return modular.theorem7_derivative_check(1.0, ctx)


@_register("T7.r=2")
def _t7_r2(ctx: PrecisionContext) -> CheckResult:
    return modular.theorem7_derivative_check(2.0, ctx)


@_register("T7.msign")
def _t7_msign(ctx: PrecisionContext) -> CheckResult:
    k1 = modular.singular_modulus(1.0, ctx)
    b_val = incomplete_beta(k1 * k1, BetaBase(1.0 / 6.0, 2.0 / 3.0), ctx)
    lhs = math.pi * modular.eta_tail_integral(1.0, ctx)   # x with m(x) = 1
    stated = -(2.0 ** (5.0 / 3.0)) * b_val
    resolved = 2.0 ** (-2.0 / 3.0) * b_val
    notes = (f"eta-tail inverse at unit index is {lhs:.15g}; the stated "
             f"negative multiple gives {stated:.15g}, while "
             f"+2^(-2/3) B(k_1^2, 1/6, 2/3) = {resolved:.15g} matches to "
             f"{abs(resolved - lhs) / lhs:.2e}")
    return compare("T7.msign", "Theorem 7 proof, eta-tail/Beta normalisation",
                   lhs, stated, 1e-6, flagged=True, notes=notes)


@_register("Eq50.quadrature.x=0.5")
def _eq50_quad(ctx: PrecisionContext) -> CheckResult:
    return modular.j_integral_identity(0.5, ctx)


@_register("Eq50.derivative.x=0.8")
def _eq50_deriv(ctx: PrecisionContext) -> CheckResult:
    x = 0.8
    fd = differentiate(lambda xx: modular.j_integral_f1_form(xx, ctx), x, ctx)
    q_sq = modular.eta_quotient_nome_of(x, ctx)
    r = (math.log(math.sqrt(q_sq)) / math.pi) ** 2
    rhs = modular.klein_j(r) ** (-1.0 / 3.0)
    return compare("Eq50.derivative.x=0.8", "Eqs (50)-(51) derivative identity",
                   fd.value, rhs, 1e-5,
                   notes=f"recovered index r={r:.12g}")


@_register("Eq51.phi.x=0.5")
def _eq51(ctx: PrecisionContext) -> CheckResult:
    x = 0.5
    lhs = modular.j_integral_f1_form(x, ctx)
    printed = modular.j_integral_phi_printed(x, ctx, squared_second_arg=True)
    linear = modular.j_integral_phi_printed(x, ctx, squared_second_arg=False)
    split = modular.j_integral_phi_partial_fraction(x, ctx)
    notes = (f"printed squared-argument form {printed:.15g} "
             f"({residuals(lhs, printed)[1]:.2e} off), linear-argument "
             f"variant {linear:.15g} ({residuals(lhs, linear)[1]:.2e} off); "
             f"the partial-fraction combination {split:.15g} matches to "
             f"{residuals(lhs, split)[1]:.2e}")
    return compare("Eq51.phi.x=0.5", "Eq (51) phi-combination", lhs, printed,
                   1e-7, flagged=True, notes=notes)


@_register("Eq50.x1")
def _eq50_x1(ctx: PrecisionContext) -> CheckResult:
    lhs = modular.j_integral_f1_form(1.0, ctx)
    direct = integrate_finite(
        lambda t: t ** (5.0 / 3.0) / (t * t + 250.0 * t + 3125.0), 0.0, 1.0, ctx)
    a = (5.0 + 2.0 * SQRT5) / 125.0
    stated = 100.0 / 719.0 * (60.0 + SQRT5) - 5.0 * float(
        gauss_2f1(1.0, 8.0 / 3.0, 11.0 / 3.0, a, ctx))
    notes = (f"closed F1 form and the direct rational-integrand quadrature "
             f"agree ({direct:.15g}); the stated constant is 25000 times the "
             f"x->1 limit of the printed phi-combination")
    return compare("Eq50.x1", "Eqs (50)-(51) unit-argument special value",
                   lhs, stated, 1e-5, flagged=True, notes=notes)


@_register("T8.example1")
def _t8_ex1(ctx: PrecisionContext) -> CheckResult:
    target = math.log(1.0 + 2.0 / math.sqrt(3.0))
    terms = 2000
    series_ctx = replace(ctx, eps_rel=1e-16, eps_abs=1e-300,
                         max_series_terms=terms)
    try:
        val = special.quadratic_power_series(0.0, 0.5, 1.0, 1.0, 1.0, 1.0,
                                             series_ctx).value
    except SeriesDivergenceError as exc:
        # tail never meets the eps criterion; take the plain partial sum
        val = exc.best
    s200 = _t8_ex1_partial(200)
    notes = (f"argument sits on the circle of convergence: partial sums "
             f"decay like N^(-3/2); 200-term sum {s200:.12g} is "
             f"{abs(s200 - target):.2e} away, {terms}-term sum reaches "
             f"the tolerance below")
    return compare("T8.example1", "Theorem 8, logarithm example (Eq 55)",
                   complex(val).real, target, 1e-5, notes=notes)


def _t8_ex1_partial(terms: int) -> float:
    ctx = PrecisionContext(eps_rel=1e-18, eps_abs=1e-320, max_series_terms=terms)
    try:
        val = special.quadratic_power_series(0.0, 0.5, 1.0, 1.0, 1.0, 1.0, ctx).value
    except SeriesDivergenceError as exc:
        val = exc.best
    return complex(val).real


@_register("T8.example2.p=0.6")
def _t8_ex2(ctx: PrecisionContext) -> CheckResult:
    p = 0.6
    quad = integrate_finite(
        lambda t: (t * (1.0 - t / p) * (1.0 + t / p)) ** -0.5,
        0.0, p * p, ctx, singular_at_a=True)
    hyp = 2.0 * p * float(gauss_2f1(0.5, 0.25, 1.25, p * p, ctx))
    beta_form = math.sqrt(p) / 2.0 * incomplete_beta(p * p, BetaBase(0.25, 0.5), ctx)
    notes = (f"quadrature {quad:.15g} = p * (2F1 member) = sqrt(p)/2 * Beta "
             f"member {beta_form:.15g}; the displayed chain omits one factor "
             f"p between its first two members, and its series form carries "
             f"p^-n (divergent) where the engine's x/rho = p converges")
    return compare("T8.example2.p=0.6", "Theorem 8, Beta example chain",
                   quad, hyp, 1e-7, notes=notes)


_EX3_RADICALS = {
    2.0: ("beta2", (2.0 - math.sqrt(3.0)) / 4.0, 1e-10),
    3.0: ("beta3", (2.0 - math.sqrt(3.0 * (3.0 - math.sqrt(3.0)))) / 4.0, 1e-8),
    1.5: ("beta1.5", (4.0 - math.sqrt(-9.0 + 9.0 * SQRT5
           - 3.0 * math.sqrt(150.0 - 66.0 * SQRT5))) / 8.0, 1e-8),
    4.0: ("beta4", (4.0 - math.sqrt(-9.0 + 9.0 * SQRT5
           + 3.0 * math.sqrt(150.0 - 66.0 * SQRT5))) / 8.0, 1e-8),
    5.0: ("beta5", (1.0 + 3.0 * 2.0 ** (1.0 / 3.0) - 3.0 * 2.0 ** (2.0 / 3.0))
          / (8.0 + 4.0 * math.sqrt(3.0 * (1.0 - 2.0 ** (1.0 / 3.0)
                                          + 2.0 ** (2.0 / 3.0)))), 1e-8),
}


def _radical_check(r: float, name: str, radical: float, tol: float):
    def build(ctx: PrecisionContext) -> CheckResult:
        value = modular.beta_ratio_root(BetaBase(1.0 / 6.0, 1.0 / 6.0), r, ctx)
        return compare(f"Ex3.{name}", "Example 3 radical values", value,
                       radical, tol, relative=False,
                       notes=f"ratio index {r:g}")
    return build


for _r, (_name, _radical, _tol) in _EX3_RADICALS.items():
    _register(f"Ex3.{_name}")(_radical_check(_r, _name, _radical, _tol))


@_register("Eq57.ratio")
def _eq57(ctx: PrecisionContext) -> CheckResult:
    base = BetaBase(1.0 / 6.0, 1.0 / 6.0)
    b4 = modular.beta_ratio_root(base, 4.0, ctx)
    lhs = incomplete_beta(b4, base, ctx) / incomplete_beta(0.5, base, ctx)
    return compare("Eq57.ratio", "Eq (57) rationality probe", lhs, 0.4, 1e-6,
                   notes="single probe at indices (n, r) = (2, 1); the "
                         "closed singular-value formula forces (r+1)/(n^2 r+1)")


def _beta_singular_value_check(alpha: float, r: float):
    def build(ctx: PrecisionContext) -> CheckResult:
        base = BetaBase(alpha, alpha)
        beta_r = modular.beta_ratio_root(base, r, ctx)
        lhs = beta_sqrt(beta_r, alpha, ctx)
        rhs = math.sqrt(gamma(alpha) ** 2 / (gamma(2.0 * alpha) * (r + 1.0)))
        return compare(f"Eq58_59.a={alpha:g}.r={r:g}",
                       "Eqs (58)-(59) singular value", lhs, rhs, 1e-9,
                       notes=f"ratio root at {beta_r:.15g}")
    return build


for _alpha in (1.0 / 6.0, 1.0 / 4.0):
    for _r in (2.0, 5.0):
        _register(f"Eq58_59.a={_alpha:g}.r={_r:g}")(
            _beta_singular_value_check(_alpha, _r))


@_register("Eq60.series")
def _eq60(ctx: PrecisionContext) -> CheckResult:
    base = BetaBase(1.0 / 6.0, 1.0 / 6.0)
    beta5 = modular.beta_ratio_root(base, 5.0, ctx)
    series = special.quadratic_power_series(-5.0 / 6.0, 5.0 / 12.0,
                                            1.0, -2.0, 1.0, beta5, ctx)
    rhs = gamma(1.0 / 6.0) ** 2 / (6.0 * gamma(1.0 / 3.0))
    direct = incomplete_beta(beta5, base, ctx)
    return compare("Eq60.series", "Eq (60) series constant",
                   complex(series.value).real, rhs, 1e-9,
                   notes=f"{series.terms} terms; incomplete-Beta value "
                         f"{direct:.15g} agrees")


def _t9_check(alpha: float, r: float):
    def build(ctx: PrecisionContext) -> CheckResult:
        base = BetaBase(alpha, alpha)
        beta_r = modular.beta_ratio_root(base, r, ctx)
        series = special.quadratic_power_series(alpha - 1.0, (1.0 - alpha) / 2.0,
                                                1.0, -2.0, 1.0, beta_r, ctx)
        rhs = gamma(alpha) ** 2 / ((r + 1.0) * gamma(2.0 * alpha))
        return compare(f"T9.a={alpha:g}.r={r:g}", "Theorem 9 (Eq 61)",
                       complex(series.value).real, rhs, 1e-8,
                       notes=f"{series.terms} terms at root {beta_r:.15g}")
    return build


_register("T9.a=0.166667.r=5")(_t9_check(1.0 / 6.0, 5.0))
_register("T9.a=0.25.r=3")(_t9_check(1.0 / 4.0, 3.0))


def _ex4_part(r: float, index: int):
    def build(ctx: PrecisionContext) -> CheckResult:
        return modular.example4_checks(r, ctx)[index]
    return build


_register("Ex4.eq63.r=1")(_ex4_part(1.0, 0))
_register("Ex4.eq63.r=2")(_ex4_part(2.0, 0))
_register("Ex4.tclaim.r=2")(_ex4_part(2.0, 1))


@_register("Ex5.eq66.R=3")
def _ex5_root(ctx: PrecisionContext) -> CheckResult:
    m = modular.trig_modular(3.0)
    lhs = modular.psi_arcsin_ratio(m)
    return compare("Ex5.eq66.R=3", "Example 5 (Eq 66) root property",
                   lhs, math.sqrt(3.0), 1e-10,
                   notes=f"closed trigonometric root m(3)={m:.15g}")


for _R in (1.0, 2.0, 3.5):
    def _ex5_eq67(ctx: PrecisionContext, R=_R) -> CheckResult:
        return modular.trig_modular_equation_check(R)
    _register(f"Ex5.eq67.R={_R:g}")(_ex5_eq67)


for _R in (1.0, 3.0):
    def _ex6(ctx: PrecisionContext, R=_R) -> CheckResult:
        return modular.pi_formula_check(R, 200, ctx)
    _register(f"Ex6.eq68.R={_R:g}")(_ex6)


@_register("Ex6.termaudit")
def _ex6_audit(ctx: PrecisionContext) -> CheckResult:
    n = 3
    coeff = (special.pochhammer(0.25, n) * special.pochhammer_negative(0.75, n)
             / (special.pochhammer_negative(0.5, n) * math.factorial(n)))
    taylor = special.pochhammer(0.5, n) / (math.factorial(n))
    return compare("Ex6.termaudit", "Eq (68) term definition audit",
                   coeff, taylor, 1e-12,
                   notes="negative-index Pochhammers reduce to the arcsin "
                         "Taylor coefficients")


@_register("Note.p6")
def _note_p6(ctx: PrecisionContext) -> CheckResult:
    worst = 0.0
    for i in range(10):
        y = -0.99 + 1.98 * i / 9.0
        worst = max(worst, abs(special.sin_multiple_p6(y)
                               - math.sin(6.0 * math.asin(y))))
    return compare("Note.p6", "Closing note, sine-sextuple polynomial",
                   worst, 0.0, 1e-12, relative=False,
                   notes="worst residual over 10 points of [-0.99, 0.99]")


# ---------------------------------------------------------------------------
# Execution

@dataclass(frozen=True)
class VerificationReport:
    results: tuple[CheckResult, ...]
    passed: int
    failed: int
    flagged: int
    seconds: float

    def ok(self) -> bool:
        return self.failed == 0


def check_ids() -> list[str]:
    return sorted(_REGISTRY)


def run_check(check_id: str, ctx: PrecisionContext = DEFAULT_CTX) -> CheckResult:
    """Execute one registered check; unknown ids raise DomainError.  A
    KernelError from the check is a failed result (never a pass or a flag)
    whose notes begin with BUILDER_RAISED and name the exception."""
    try:
        builder = _REGISTRY[check_id]
    except KeyError:
        raise DomainError(f"unknown check id {check_id!r}") from None
    start = time.perf_counter()
    try:
        result = builder(ctx)
    except KernelError as exc:
        result = compare(check_id, "", math.nan, math.nan, math.nan,
                         notes=f"{BUILDER_RAISED}{type(exc).__name__}: {exc}")
    return replace(result, seconds=time.perf_counter() - start)


def run_all(pattern: str | None = None,
            ctx: PrecisionContext = DEFAULT_CTX) -> VerificationReport:
    """Run every check whose id matches the glob pattern (all when None),
    in deterministic id order."""
    ids = [cid for cid in check_ids()
           if pattern is None or fnmatch.fnmatchcase(cid, pattern)]
    start = time.perf_counter()
    results = [run_check(cid, ctx) for cid in ids]
    elapsed = time.perf_counter() - start
    status = [r.status for r in results]
    return VerificationReport(
        results=tuple(results),
        passed=status.count(PASS),
        failed=status.count(FAIL),
        flagged=status.count(FLAGGED),
        seconds=elapsed)
