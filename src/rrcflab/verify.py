"""The check registry: each identity of the paper is one record, and one
runner computes its two independently derived sides and judges them.  A
record holds no algorithm: its sides combine named kernels and the second
routes in routes, so this module imports no quadrature and no root finder.

A record (Check) holds:

- id: the check id, or for a family an id template such as "T2.n={:g}"
  that each parameter tuple formats into one id;
- ref: where the identity stands in the paper;
- sides: a function (ctx, *params) -> (lhs, rhs, notes) computing both
  sides and the notes that record what else was learned on the way;
- tol: the tolerance, a float with a documented margin over the judged
  residual at the default eps;
- flagged: the record documents a reading of the source identity that the
  numerics contradict (a sign convention, an argument typo, a stray
  prefactor); it reports residuals from two independent methods and never
  fails a run;
- params: the parameter tuples of a family, ((),) for a single check.

run_check alone judges a check, by one rule for every check: the judged
residual is held to max(tol, ctx.eps_rel), so a looser context never holds a
check tighter than the kernels then resolve.  It is residual_abs where rhs is
the constant 0 (an identity anchored at zero), else residual_rel; a kernel
that wrongly returns 0 on the lhs cannot switch a check to absolute judging.
"""

from __future__ import annotations

import cmath
import fnmatch
import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

from . import modular, qseries, routes, special
from .modular import SQRT5
from .numerics import (DEFAULT_CTX, RAW_ERRORS, DomainError, KernelError,
                       PrecisionContext, differentiate)
from .report import FAIL, FLAGGED, PASS, CheckResult, compare, residuals
from .special import BetaBase, beta_sqrt, elliptic_k, gamma, gauss_2f1, incomplete_beta

_Q_RAMANUJAN = math.exp(-2.0 * math.pi)
# -(1+sqrt5)/2 + sqrt((5+sqrt5)/2): the continued fraction at exp(-2 pi).
RRCF_AT_E2PI = -(1.0 + SQRT5) / 2.0 + math.sqrt((5.0 + SQRT5) / 2.0)
# How the notes of a check whose sides raised a KernelError begin.
BUILDER_RAISED = "builder raised "


# ---------------------------------------------------------------------------
# The sides of each check: (ctx, *params) -> (lhs, rhs, notes)

def _t1(ctx: PrecisionContext, nu: float):
    return (routes.weighted_power_integral(nu, ctx), routes.weighted_power_rhs(nu, ctx),
            "direct tanh-sinh quadrature vs the Gamma-2F1 closed form")


def _eq13(ctx: PrecisionContext):
    rhs = (27.0 * gamma(5.0 / 6.0) * gamma(8.0 / 3.0)
           * math.sin((2.0 / 3.0) * math.atan(
               math.sqrt((-11.0 + 5.0 * SQRT5) / (11.0 + 5.0 * SQRT5))))
           / (2.0 * math.sqrt(5.0 * math.pi)))
    return (routes.weighted_power_rhs(0.5, ctx), rhs,
            "Theorem 1's Gamma-2F1 closed form at nu=1/2 vs the Gamma-sine form; "
            "the quadrature route is judged by T1.nu=0.5")


def _t2(ctx: PrecisionContext, n: float):
    return (routes.quintic_nome_integral(n, 1.0, 5.0, ctx),
            routes.quintic_surd_integral(n, 1.0, 5.0, ctx),
            "two-point form: the displayed endpoints 0 and x give a divergent "
            "left side for n >= 1, so the antiderivative identity is checked "
            "between u-values 5 and 1")


def _eq16(ctx: PrecisionContext):
    m, n = 1.0, 0.5
    a, b, c = 1.0, -3.0, 2.0   # roots 1 and 2
    rho1, rho2 = 1.0, 2.0
    lhs = routes.quadratic_power_integral(m, -n, a, b, c, rho1, ctx)
    rhs = (c ** n * rho1 ** (m + 1.0) * gamma(m + 1.0) * gamma(n + 1.0)
           / gamma(m + n + 2.0)
           * float(gauss_2f1(m + 1.0, -n, m + n + 2.0, rho1 / rho2, ctx)))
    return lhs, rhs, "quadratic with roots 1 < 2; quadrature vs 2F1 form"


def _eq17_18(ctx: PrecisionContext):
    nu = 0.5
    lhs = routes.eta_quotient_power_integral(nu, ctx)
    mellin = routes.quintic_surd_integral(nu, 0.0, math.inf, ctx)
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
    return lhs, rhs18, notes


def _eq19(ctx: PrecisionContext, r: float):
    return (qseries.ramanujan_f(math.exp(-math.pi * math.sqrt(r))),
            routes.modulus_product_formula(r), "q-product vs elliptic-modulus closed form")


def _eq20_21(ctx: PrecisionContext):
    k = modular.singular_modulus(4.0)
    return (qseries.rrcf_derivative(_Q_RAMANUJAN) * routes.dq_dk(k), routes.dr_dk(k),
            "R'(q) dq/dk composed against the direct dR/dk form; both carry "
            "the stated sign convention")


def _eq20_sign(ctx: PrecisionContext):
    k = modular.singular_modulus(4.0)
    fd = differentiate(routes.modulus_nome, k)
    stated = routes.dq_dk(k)
    return fd.value, stated, (f"|finite difference|/|stated| - 1 = "
                              f"{abs(fd.value / stated) - 1.0:.2e}; the map k -> q "
                              f"is increasing, the stated form is negative")


def _eq22(ctx: PrecisionContext):
    k = modular.singular_modulus(4.0)
    return (modular.hypergeometric_g_argument(k * k, ctx),
            routes.rr_integral(qseries.rrcf(_Q_RAMANUJAN), ctx),
            "hypergeometric closed form vs continued-fraction integral")


def _t3(ctx: PrecisionContext, r: float):
    k = modular.singular_modulus(r)
    e1 = math.pi * modular.eta_tail_integral(math.sqrt(r))
    e2 = 5.0 * modular.hypergeometric_g_argument(k * k, ctx)
    e3 = 5.0 * routes.rr_integral(
        qseries.rrcf(math.exp(-math.pi * math.sqrt(r))), ctx)
    # the pair furthest apart is judged, so each member is held to the tolerance
    lhs, rhs, pair = max(((e1, e2, "eta tail vs 2F1"),
                          (e1, e3, "eta tail vs continued-fraction integral"),
                          (e2, e3, "2F1 vs continued-fraction integral")),
                         key=lambda p: residuals(p[0], p[1])[1])
    return lhs, rhs, f"worst pair judged: {pair}; members {e1:.15g}, {e2:.15g}, {e3:.15g}"


def _app1(ctx: PrecisionContext):
    return (modular.eta_tail_integral(2.0),
            5.0 / math.pi * routes.rr_integral(qseries.rrcf(_Q_RAMANUJAN), ctx),
            "eta tail vs continued-fraction integral at index 4")


def _app2(ctx: PrecisionContext):
    x0 = qseries.rrcf(_Q_RAMANUJAN)
    fd = differentiate(routes.tau_of_rrcf, x0)
    radical = math.sqrt((1.0 + 3.0 * SQRT5
                         + 2.0 * math.sqrt(10.0 + 2.0 * SQRT5)) / 10.0)
    tau = routes.tau_of_rrcf(x0)
    stated = -5.0 / math.pi / qseries.dedekind_eta(tau / 2.0) ** 4 * radical
    u0 = qseries.u_of_q(_Q_RAMANUJAN)
    radical_gap = abs(radical - 1.0 / (x0 * u0 ** (1.0 / 6.0)))
    eta2i_variant = -5.0 / math.pi / qseries.dedekind_eta(2.0) ** 4 * radical
    notes = (f"radical closed form matches 1/(x u^(1/6)) to {radical_gap:.2e}; "
             f"the displayed eta(2i) variant gives {eta2i_variant:.9g} "
             f"(off by 2^(3/2)); eta at i tau/2 = eta(i) is the consistent "
             f"argument")
    return fd.value, stated, notes


def _rrcf_value(ctx: PrecisionContext):
    return (qseries.rrcf(_Q_RAMANUJAN), RRCF_AT_E2PI,
            "eta-quotient path vs radical closed form")


def _t4(ctx: PrecisionContext):
    k = modular.singular_modulus(4.0)
    return (modular.F_of_x(modular.hypergeometric_g_argument(k * k, ctx), ctx),
            RRCF_AT_E2PI, "composite inversion vs the continued-fraction value")


def _eq31(ctx: PrecisionContext):
    x = 0.2
    f_val = modular.F_of_x(x, ctx)
    printed = qseries.rrcf(math.exp(-math.pi * math.sqrt(modular.m_of_x(x, ctx))))
    printed_gap = abs(routes.rr_integral(printed, ctx) - x) / x
    notes = (f"F(x)={f_val:.15g}, the composite with the same factor-five "
             f"normalisation as Eqs (29)-(30) (the eta-tail inverse at 5x), put "
             f"back into the continued-fraction integral; the displayed m(x) "
             f"composite evaluates to {printed:.12g} and leaves residual "
             f"{printed_gap:.2e}")
    return routes.rr_integral(f_val, ctx), x, notes


def _eq32(ctx: PrecisionContext):
    k = modular.singular_modulus(4.0)
    x = 5.0 * modular.hypergeometric_g_argument(k * k, ctx)
    return modular.m_of_x(x, ctx), 4.0, "closed-form argument returns its own index"


def _g_through_f(ctx: PrecisionContext, x: float):
    g_val = modular.G_of_x(x, ctx)
    return (modular.surd_tail_integral(g_val, ctx), 5.0 * x,
            f"G(x)={g_val:.15g}, the eta quotient at the nome of F(x), put back "
            f"into the surd-tail integral")


def _t5(ctx: PrecisionContext, inst: modular.SexticInstance):
    sol = modular.solve_sextic(inst, ctx)
    r, x_alt = routes.sextic_period_ratio_root(inst, sol.t)
    return sol.x, x_alt, (f"sextic root vs the eta-quotient path at the "
                          f"period ratio; t={sol.t:.12g}, index r={r:.12g}, "
                          f"sextic residual {sol.residual:.2e} (solve_sextic "
                          f"raises above 1e-6)")


def _prop1_c1(ctx: PrecisionContext):
    k4, k4p = modular._singular_modulus_pair(4.0)
    return (modular.klein_j_from_quarter_modulus(k4 * k4, k4p * k4p), 1728.0,
            "the index-1 instance has cube 12^3")


def _j_lambda(ctx: PrecisionContext, r: float):
    k, kp = modular._singular_modulus_pair(r)
    return (modular.klein_j(r), modular.klein_j_from_lambda(k * k, kp * kp),
            f"256(l^2-l+1)^3/(l^2(1-l)^2) at l=k_r^2={k * k:.15g} against the "
            f"quarter-modulus form at index 4r")


def _j_level5(ctx: PrecisionContext, r: float):
    u = modular.sextic_variable_of_index(r)
    return (modular.klein_j(r), (u * u + 250.0 * u + 3125.0) ** 3 / u ** 5,
            f"eta-quotient u={u:.15g} at the squared nome exp(-2 pi sqrt r); "
            f"no elliptic modulus involved")


def _j_invert(ctx: PrecisionContext, r: float):
    j0 = modular.klein_j(r)
    k, kp = modular._singular_modulus_pair(r)
    return (modular.invert_lambda_j(j0), min(k * k, kp * kp),
            f"lambda from the quarter modulus of j={j0:.15g} by Landen's step, "
            f"against k_r^2 from theta series")


def _prop1_beta(ctx: PrecisionContext):
    k4 = modular.singular_modulus(4.0)
    base = BetaBase(1.0 / 6.0, 2.0 / 3.0)
    x1 = qseries.u_of_q(_Q_RAMANUJAN)
    lhs = incomplete_beta(k4 * k4, base)
    rhs = 4.0 ** (1.0 / 3.0) * modular.surd_tail_integral(x1, ctx)
    ratio = incomplete_beta(1.0 - k4 * k4, base) / lhs
    return lhs, rhs, f"complement ratio at this argument is {ratio:.12g} (recorded only)"


def _prop1_x(ctx: PrecisionContext):
    sol = modular.solve_sextic(modular.SexticInstance(1.0, 250.0, 12.0), ctx)
    return (sol.x, qseries.u_of_q(_Q_RAMANUJAN),
            "sextic root vs eta-quotient value at the unit index")


def _eq46_roundtrip(ctx: PrecisionContext):
    b = modular.theta_of_X(50.0, ctx)
    lhs = 4.0 ** (-1.0 / 3.0) * incomplete_beta(b, BetaBase(1.0 / 6.0, 2.0 / 3.0))
    return (lhs, modular.surd_tail_integral(50.0, ctx),
            f"solved exponent argument b={b:.15g}")


def _eq46_limit(ctx: PrecisionContext):
    lhs = routes.quintic_surd_integral(5.0 / 6.0, 0.0, math.inf, ctx)
    rhs = 4.0 ** (-1.0 / 3.0) * special.complete_beta(BetaBase(1.0 / 6.0, 2.0 / 3.0))
    return lhs, rhs, ("full surd tail, quadrature over [0, sqrt 125] and its image "
                      "under t -> 125/t, vs complete Beta closed form")


def _eq46_prop1(ctx: PrecisionContext):
    k4 = modular.singular_modulus(4.0)
    return (modular.theta_of_X(qseries.u_of_q(_Q_RAMANUJAN), ctx), k4 * k4,
            "theta at the unit-index sextic root recovers the squared quarter modulus")


def _t6_k(ctx: PrecisionContext):
    alpha, r0, j0 = modular.theorem6_base_change(
        lambda x: elliptic_k(math.sqrt(x)), 2.0, ctx)
    k2 = modular.singular_modulus(2.0)
    return alpha, k2 * k2, f"r0={r0:.12g} (self-consistency), j0={j0:.9g}"


def _t6_psi(ctx: PrecisionContext):
    alpha, r0, j0 = modular.theorem6_base_change(
        lambda x: math.sqrt(math.asin(math.sqrt(x))), 3.0, ctx)
    other = modular.trig_modular(math.sqrt(3.0))
    return alpha, modular.trig_modular(3.0), (
        f"matches the closed trigonometric value at index r itself; the "
        f"sqrt(r)-index variant would be {other:.12g}; r0={r0:.12g}, j0={j0:.9g}")


def _t6_beta(ctx: PrecisionContext):
    alpha, r0, j0 = modular.theorem6_base_change(
        lambda x: beta_sqrt(x, 1.0 / 6.0), 4.0, ctx)
    base = BetaBase(1.0 / 6.0, 1.0 / 6.0)
    rhs = modular.beta_ratio_root(base, 4.0, ctx)
    other = modular.beta_ratio_root(base, 2.0, ctx)
    return alpha, rhs, (f"the base-change index maps onto the Beta-ratio index r "
                        f"itself (ratio of squares); the halved-index reading "
                        f"would give {other:.12g}; r0={r0:.12g}, j0={j0:.9g}")


def _t7(ctx: PrecisionContext, r: float):
    """dX/dr against pi (eta(i sqrt r)^4 / sqrt r) X^(1/6)
    sqrt(125 + 22 X + X^2).  The magnitudes agree; the stated formula
    carries a minus sign while the map is increasing, so the signed values
    are recorded and the check is judged on |.|."""
    fd = differentiate(modular.sextic_variable_of_index, r)
    x = modular.sextic_variable_of_index(r)
    stated = -math.pi * qseries.dedekind_eta(math.sqrt(r)) ** 4 / math.sqrt(r) \
        * x ** (1.0 / 6.0) * math.sqrt(125.0 + 22.0 * x + x * x)
    return abs(fd.value), abs(stated), (
        f"finite difference {fd.value:.12g} (est err {fd.error:.2g}) vs stated "
        f"{stated:.12g}; magnitudes compared, signs recorded: fd>0, stated<0 "
        f"(map is increasing in r)")


def _t7_msign(ctx: PrecisionContext):
    k1 = modular.singular_modulus(1.0)
    b_val = incomplete_beta(k1 * k1, BetaBase(1.0 / 6.0, 2.0 / 3.0))
    lhs = math.pi * modular.eta_tail_integral(1.0)   # x with m(x) = 1
    stated = -(2.0 ** (5.0 / 3.0)) * b_val
    resolved = 2.0 ** (-2.0 / 3.0) * b_val
    return lhs, stated, (f"eta-tail inverse at unit index is {lhs:.15g}; the "
                         f"stated negative multiple gives {stated:.15g}, while "
                         f"+2^(-2/3) B(k_1^2, 1/6, 2/3) = {resolved:.15g} matches "
                         f"to {abs(resolved - lhs) / lhs:.2e}")


def _eq50_quad(ctx: PrecisionContext):
    x = 0.5
    return (modular.j_integral_f1_form(x, ctx), routes.j_integral_quadrature(x, ctx),
            "quadrature uses the j^(-1/3) integrand fixed by the derivative "
            "identity; the displayed +1/3 exponent does not integrate to the F1 form")


def _eq50_deriv(ctx: PrecisionContext):
    x = 0.8
    fd = differentiate(partial(modular.j_integral_f1_form, ctx=ctx), x)
    r = (modular._eta_quotient_index(math.log(x)) / 2.0) ** 2   # q^2 = e^(-2 pi sqrt r)
    return fd.value, modular.klein_j(r) ** (-1.0 / 3.0), f"recovered index r={r:.12g}"


def _eq51(ctx: PrecisionContext):
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
    return lhs, printed, notes


def _eq50_x1(ctx: PrecisionContext):
    # j^(-1/3) = t^(5/3) / (t^2 + 250 t + 3125) by the level-5 form of j
    direct = routes.quadratic_power_integral(5.0 / 3.0, 1.0, 1.0, 250.0, 3125.0, 1.0, ctx)
    a = (5.0 + 2.0 * SQRT5) / 125.0
    stated = 100.0 / 719.0 * (60.0 + SQRT5) - 5.0 * modular._phi(a, ctx)
    return modular.j_integral_f1_form(1.0, ctx), stated, (
        f"closed F1 form and the direct rational-integrand quadrature agree "
        f"({direct:.15g}); the stated constant is 25000 times the x->1 limit "
        f"of the printed phi-combination")


def _t8_ex1(ctx: PrecisionContext):
    series = special.quadratic_power_series(0.0, 0.5, 1.0, 1.0, 1.0, 1.0, ctx)
    return series.value, math.log(1.0 + 2.0 / math.sqrt(3.0)), (
        f"argument z = e^(-2 pi i/3) sits on the circle of convergence; "
        f"DLMF 16.16.1 maps it to z/(z-1), of modulus 1/sqrt 3, where the "
        f"series took {series.terms} terms")


def _t8_ex2(ctx: PrecisionContext):
    p = 0.6
    quad = routes.quadratic_power_integral(-0.5, 0.5, -1.0 / (p * p), 0.0, 1.0, p * p, ctx)
    hyp = 2.0 * p * float(gauss_2f1(0.5, 0.25, 1.25, p * p, ctx))
    beta_form = math.sqrt(p) / 2.0 * incomplete_beta(p * p, BetaBase(0.25, 0.5))
    return quad, hyp, (f"quadrature {quad:.15g} = p * (2F1 member) = sqrt(p)/2 * "
                       f"Beta member {beta_form:.15g}; the displayed chain omits "
                       f"one factor p between its first two members, and its "
                       f"series form carries p^-n (divergent) where the "
                       f"engine's x/rho = p converges")


def _ex3(ctx: PrecisionContext, name: str, r: float, radical: float):
    return (modular.beta_ratio_root(BetaBase(1.0 / 6.0, 1.0 / 6.0), r, ctx),
            radical, f"ratio index {r:g}")


def _eq57(ctx: PrecisionContext):
    base = BetaBase(1.0 / 6.0, 1.0 / 6.0)
    b4 = modular.beta_ratio_root(base, 4.0, ctx)
    return (incomplete_beta(b4, base) / incomplete_beta(0.5, base), 0.4,
            "single probe at indices (n, r) = (2, 1); the closed singular-value "
            "formula forces (r+1)/(n^2 r+1)")


def _beta_singular_value(ctx: PrecisionContext, alpha: float, r: float):
    beta_r = modular.beta_ratio_root(BetaBase(alpha, alpha), r, ctx)
    return (beta_sqrt(beta_r, alpha),
            math.sqrt(gamma(alpha) ** 2 / (gamma(2.0 * alpha) * (r + 1.0))),
            f"ratio root at {beta_r:.15g}")


def _t9(ctx: PrecisionContext, alpha: float, r: float, beta_note: bool = False):
    """Theorem 9's series at the Beta-ratio root; Eq 60 adds its beta_note."""
    base = BetaBase(alpha, alpha)
    beta_r = modular.beta_ratio_root(base, r, ctx)
    series = special.quadratic_power_series(alpha - 1.0, (1.0 - alpha) / 2.0,
                                            1.0, -2.0, 1.0, beta_r, ctx)
    notes = f"{series.terms} terms at root {beta_r:.15g}"
    if beta_note:
        notes += f"; incomplete-Beta value {incomplete_beta(beta_r, base):.15g} agrees"
    return (complex(series.value).real,
            gamma(alpha) ** 2 / ((r + 1.0) * gamma(2.0 * alpha)), notes)


def _ex4_unit_circle(ctx: PrecisionContext, r: float):
    """At the root s of arcsin(1-s) = r arcsin(s), with y = i s + sqrt(1-s^2)
    the combination 2i + 1/y - y + y^-r - y^r must vanish (real and imaginary
    parts are reported separately in the notes)."""
    s = modular.arcsin_ratio_root(r, ctx)
    y = complex(math.sqrt((1.0 - s) * (1.0 + s)), s)
    res = 2.0j + 1.0 / y - y + y ** (-r) - y ** r
    return res, 0.0, f"s={s:.15g}; residual parts re={res.real:.3g} im={res.imag:.3g}"


def _ex4_tclaim(ctx: PrecisionContext):
    """The displayed construction through xi = (-i - sqrt3)/2: the claim
    t = sin(pi/(4+2r)) does solve psi(1-2t^2)/psi(t) = sqrt(r), while the
    xi-chain itself lands on sin(5 pi/(6r)); both residuals are recorded
    and the record is flagged."""
    r = 2.0

    def psi(z: complex) -> complex:
        return cmath.sqrt(2.0 * cmath.asin(z))

    t_claim = math.sin(math.pi / (4.0 + 2.0 * r))
    claim_res = abs(psi(1.0 - 2.0 * t_claim * t_claim) / psi(t_claim)
                    - math.sqrt(r))
    xi = complex(-math.sqrt(3.0) / 2.0, -0.5)
    inner = (1.0 - 2.0j * xi - xi * xi
             + cmath.sqrt(1.0 - 4.0j * xi - 2.0 * xi * xi
                          + 4.0j * xi ** 3 + xi ** 4))
    x_r = 2.0 ** (-1.0 / r) * (inner / xi) ** (1.0 / r)
    x_chain = (-1.0j * (1.0 - x_r * x_r) / (2.0 * x_r)).real
    chain_res = abs(psi(1.0 - 2.0 * x_chain * x_chain) / psi(complex(x_chain, 0))
                    - math.sqrt(r))
    return claim_res, 0.0, (f"t=sin(pi/(4+2r)) residual {claim_res:.3g} (holds); "
                            f"xi-chain lands on {x_chain:.12g}=sin(5pi/(6r)) with "
                            f"ratio residual {chain_res:.3g} (does not match the "
                            f"claim)")


def _ex5_root(ctx: PrecisionContext):
    m = modular.trig_modular(3.0)
    return (modular.psi_arcsin_ratio(m), math.sqrt(3.0),
            f"closed trigonometric root m(3)={m:.15g}")


def _trig_modular_equation(ctx: PrecisionContext, R: float):
    """m(R+1) = (1 - sqrt(1 - m(R/2))) / 2."""
    return (modular.trig_modular(R + 1.0),
            0.5 * (1.0 - math.sqrt(1.0 - modular.trig_modular(R / 2.0))),
            "half-angle consistency of the arcsin base")


_PI_TERMS = 200


def _pi_formula(ctx: PrecisionContext, R: float):
    """The 200-term partial sum against pi/(R+1) and the arcsin form.  All
    coefficients reduce to the positive arcsin coefficients, so the partial
    sums increase, and the tail after _PI_TERMS terms is bounded by a
    geometric-dominated arcsin tail."""
    m = modular.trig_modular(R)
    n = _PI_TERMS + 0.5
    tail = m ** n / (n * (1.0 - m)) if m < 1.0 else math.inf
    closed = 2.0 * math.asin(math.sqrt(m))
    return (modular.pi_formula_partial_sum(R, _PI_TERMS), math.pi / (R + 1.0),
            f"m(R)={m:.15g}; closed arcsin form {closed:.15g}; "
            f"{_PI_TERMS}-term tail bound {tail:.3g}")


def _ex6_audit(ctx: PrecisionContext):
    n = 3
    coeff = (special.pochhammer(0.25, n) * special.pochhammer_negative(0.75, n)
             / (special.pochhammer_negative(0.5, n) * math.factorial(n)))
    return (coeff, special.pochhammer(0.5, n) / math.factorial(n),
            "negative-index Pochhammers reduce to the arcsin Taylor coefficients")


def _note_p6(ctx: PrecisionContext):
    worst = 0.0
    for i in range(10):
        y = -0.99 + 1.98 * i / 9.0
        worst = max(worst, abs(special.sin_multiple_p6(y) - math.sin(6.0 * math.asin(y))))
    return worst, 0.0, "worst residual over 10 points of [-0.99, 0.99]"


# ---------------------------------------------------------------------------
# The records

@dataclass(frozen=True)
class Check:
    """One identity, or one family of identities; see the module docstring."""
    id: str
    ref: str
    sides: Callable[..., tuple]
    tol: float
    flagged: bool = False
    params: tuple[tuple, ...] = ((),)

    def instances(self) -> list[tuple[str, tuple]]:
        """(check id, parameter tuple) for each check the record stands for."""
        return [(self.id.format(*args), args) for args in self.params]


CHECKS: tuple[Check, ...] = (
    Check("T1.nu={:g}", "Theorem 1 (Eq 12)", _t1, 1e-6, params=((0.5,), (1.0,))),
    Check("Eq13.n0", "Eq (13), half-integer special case", _eq13, 1e-6),
    Check("T2.n={:g}", "Theorem 2 (Eq 14)", _t2, 1e-7, params=((1.0,), (1.5,))),
    Check("Eq16.m1.n0.5", "Eq (16)", _eq16, 1e-7),
    Check("Eq17_18.nu=0.5", "Eqs (17)-(18) with sign resolution", _eq17_18, 1e-7,
          flagged=True),
    Check("Eq19.r={:g}", "Eq (19)", _eq19, 1e-9, params=((1.0,), (2.0,), (4.0,))),
    # both sides are formed to full precision whatever ctx asks: 5.0e-16
    # measured at eps 1e-12..1e-6, so 1e-12 leaves a margin of 2,000
    Check("Eq20_21.chain.r=4", "Eqs (20)-(21) chain rule", _eq20_21, 1e-12),
    Check("Eq20.sign.r=4", "Eq (20) sign convention", _eq20_sign, 1e-6, flagged=True),
    Check("Eq22.r=4", "Eq (22)", _eq22, 1e-7),
    Check("T3.r={:g}", "Theorem 3 (Eq 23) triple equality", _t3, 1e-7,
          params=((1.0,), (4.0,))),
    Check("App1.eq24", "Application 1 (Eq 24)", _app1, 1e-7),
    Check("App2.eq25", "Application 2 (Eq 25)", _app2, 1e-5),
    Check("RRCF.e2pi", "Application 1 closed-form value", _rrcf_value, 1e-10),
    # The inverses solve to ctx.eps_rel, which run_check's max(tol, eps_rel)
    # follows.  F_of_x: at most 5.5e-4 eps_rel measured at eps 1e-12..1e-4
    # (0 at the default), a margin of at least 1,800
    Check("T4.r=4", "Theorem 4 (Eq 28)", _t4, 1e-12),
    # Eq31 and GF put F and G back into an integral: at most 1.5e-16 at eps
    # 1e-12..1e-6 and 3.9e-13 at 1e-4, a margin of at least 66,000
    Check("Eq31.x=0.2", "Eq (31) composite", _eq31, 1e-11),
    # m_of_x: at most 8.9e-4 eps_rel measured at eps 1e-12..1e-4 (8.9e-16 at
    # the default), a margin of at least 1,100
    Check("Eq32.r=4", "Eq (32) eta-tail inverse", _eq32, 1e-12),
    Check("Eq29_32.GF.x={:g}", "Eqs (29)-(32) inverses: the surd tail from G(x) is 5x",
          _g_through_f, 1e-11, params=((0.15,), (0.6,))),
    Check("T5.prop1", "Theorem 5 / Proposition 1 instance", _t5, 1e-6,
          params=((modular.SexticInstance(1.0, 250.0, 12.0),),)),
    Check("T5.j4000", "Theorem 5, synthetic j=4000", _t5, 1e-6,
          params=((modular.SexticInstance(
              1.0, 3.0, (4000.0 * 3.0 / 250.0) ** (1.0 / 3.0)),),)),
    Check("T5.j1730", "Theorem 5, near-minimal j=1730", _t5, 1e-6,
          params=((modular.SexticInstance(
              1.0, 3.0, (1730.0 * 3.0 / 250.0) ** (1.0 / 3.0)),),)),
    # the moduli are full precision whatever ctx asks: 2.4e-15 measured at
    # eps 1e-12..1e-6, so 1e-12 (as for the J.* checks) leaves a margin of 400
    Check("Prop1.eq43", "Proposition 1 (Eq 43) coefficient", _prop1_c1, 1e-12),
    Check("J.lambda.r={:g}", "j-invariant, lambda-line form", _j_lambda, 1e-12,
          params=((0.5,), (1.0,), (2.0,), (4.0,), (9.0,))),
    Check("J.level5.r={:g}",
          "Level-5 relation behind Theorem 5: j = (u^2+250u+3125)^3/u^5",
          _j_level5, 1e-12, params=((0.5,), (1.0,), (2.0,), (4.0,), (9.0,))),
    Check("J.invert.r={:g}", "Theorem 6, inverting the lambda-line j", _j_invert,
          1e-12, params=((2.0,), (9.0,), (1000.0,))),
    Check("Prop1.eq42", "Proposition 1 (Eq 42)", _prop1_beta, 1e-7),
    Check("Prop1.eq45", "Proposition 1 (Eq 45)", _prop1_x, 1e-5),
    Check("Eq46.roundtrip.X=50", "Eq (46) defining equation", _eq46_roundtrip, 1e-8),
    Check("Eq46.limit", "Eq (46) limit of vanishing lower limit", _eq46_limit, 1e-8),
    Check("Eq46.prop1", "Eq (46) against the Proposition 1 chain", _eq46_prop1, 1e-6),
    Check("T6.baseK.r=2", "Theorem 6, elliptic base", _t6_k, 1e-9),
    Check("T6.basePsiStar.r=3", "Theorem 6, arcsin base", _t6_psi, 1e-9),
    Check("T6.baseB16.r=4", "Theorem 6, sqrt-Beta base", _t6_beta, 1e-9),
    Check("T7.r={:g}", "Theorem 7", _t7, 1e-5, params=((1.0,), (2.0,))),
    Check("T7.msign", "Theorem 7 proof, eta-tail/Beta normalisation", _t7_msign,
          1e-6, flagged=True),
    Check("Eq50.quadrature.x=0.5", "Eqs (50)-(51) j-integral", _eq50_quad, 1e-5),
    Check("Eq50.derivative.x=0.8", "Eqs (50)-(51) derivative identity", _eq50_deriv,
          1e-5),
    Check("Eq51.phi.x=0.5", "Eq (51) phi-combination", _eq51, 1e-7, flagged=True),
    Check("Eq50.x1", "Eqs (50)-(51) unit-argument special value", _eq50_x1, 1e-5,
          flagged=True),
    # the series is summed to ctx: 2.4e-13 measured at the default eps, and
    # at most 0.68 eps_rel over eps 1e-12..1e-4, within max(1e-9, eps_rel)
    Check("T8.example1", "Theorem 8, logarithm example (Eq 55)", _t8_ex1, 1e-9),
    Check("T8.example2.p=0.6", "Theorem 8, Beta example chain", _t8_ex2, 1e-7),
    Check("Ex3.{}", "Example 3 radical values", _ex3, 1e-10,
          params=(("beta2", 2.0, (2.0 - math.sqrt(3.0)) / 4.0),)),
    Check("Ex3.{}", "Example 3 radical values", _ex3, 1e-8, params=(
        ("beta3", 3.0, (2.0 - math.sqrt(3.0 * (3.0 - math.sqrt(3.0)))) / 4.0),
        ("beta1.5", 1.5, (4.0 - math.sqrt(-9.0 + 9.0 * SQRT5 - 3.0 * math.sqrt(
            150.0 - 66.0 * SQRT5))) / 8.0),
        ("beta4", 4.0, (4.0 - math.sqrt(-9.0 + 9.0 * SQRT5 + 3.0 * math.sqrt(
            150.0 - 66.0 * SQRT5))) / 8.0),
        ("beta5", 5.0, (1.0 + 3.0 * 2.0 ** (1.0 / 3.0) - 3.0 * 2.0 ** (2.0 / 3.0))
         / (8.0 + 4.0 * math.sqrt(3.0 * (1.0 - 2.0 ** (1.0 / 3.0)
                                         + 2.0 ** (2.0 / 3.0))))))),
    Check("Eq57.ratio", "Eq (57) rationality probe", _eq57, 1e-6),
    Check("Eq58_59.a={:g}.r={:g}", "Eqs (58)-(59) singular value",
          _beta_singular_value, 1e-9,
          params=((1.0 / 6.0, 2.0), (1.0 / 6.0, 5.0), (0.25, 2.0), (0.25, 5.0))),
    Check("Eq60.series", "Eq (60) series constant", _t9, 1e-9,
          params=((1.0 / 6.0, 5.0, True),)),
    Check("T9.a={:g}.r={:g}", "Theorem 9 (Eq 61)", _t9, 1e-8,
          params=((1.0 / 6.0, 5.0), (0.25, 3.0))),
    Check("Ex4.eq63.r={:g}", "Example 4, Eqs (62)-(63)", _ex4_unit_circle, 1e-10,
          params=((1.0,), (2.0,))),
    Check("Ex4.tclaim.r=2", "Example 4, xi-construction and final claim", _ex4_tclaim,
          1e-10, flagged=True),
    Check("Ex5.eq66.R=3", "Example 5 (Eq 66) root property", _ex5_root, 1e-10),
    Check("Ex5.eq67.R={:g}", "Example 5, Eq (67)", _trig_modular_equation, 1e-12,
          params=((1.0,), (2.0,), (3.5,))),
    # the 200-term tail bound, below 1e-60 at both points, is in the notes
    Check("Ex6.eq68.R={:g}", "Example 6, Eqs (68)-(69)", _pi_formula, 1e-10,
          params=((1.0,), (3.0,))),
    Check("Ex6.termaudit", "Eq (68) term definition audit", _ex6_audit, 1e-12),
    Check("Note.p6", "Closing note, sine-sextuple polynomial", _note_p6, 1e-12),
)

_REGISTRY: dict[str, tuple[Check, tuple]] = {
    cid: (check, args) for check in CHECKS for cid, args in check.instances()}
if len(_REGISTRY) != sum(len(check.params) for check in CHECKS):
    raise ValueError("duplicate check id")


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
    KernelError, or a raw ZeroDivisionError, OverflowError or ValueError,
    from its sides is a failed result (never a pass or a flag) whose notes
    begin with BUILDER_RAISED and name the exception, so one check cannot
    stop a run.  The result's seconds time the sides alone: the clock stops
    before judging."""
    try:
        check, args = _REGISTRY[check_id]
    except KeyError:
        raise DomainError(f"unknown check id {check_id!r}") from None
    start = time.perf_counter()
    flagged = check.flagged
    try:
        lhs, rhs, notes = check.sides(ctx, *args)
    except (KernelError, *RAW_ERRORS) as exc:
        lhs = rhs = math.nan
        notes, flagged = f"{BUILDER_RAISED}{type(exc).__name__}: {exc}", False
    seconds = time.perf_counter() - start
    return compare(check_id, check.ref, lhs, rhs, max(check.tol, ctx.eps_rel),
                   notes=notes, flagged=flagged, relative=rhs != 0, seconds=seconds)


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
