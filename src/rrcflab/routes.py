"""The registry's second routes: every quadrature a check runs, closed
forms (with the stated modulus derivatives of Eqs 20-21), App 2's inverse
of the continued fraction (the eta-quotient nome inverse's index: no route
searches for a root) and the sextic's period-ratio path (path B) that the
checks hold against the kernels' own answers.  No kernel calls them.

The module sits between the kernels and the registry.  It imports kernel
modules only, and neither the registry's records nor dataclasses, so
`rrcflab solve-sextic`, which cross-checks its root by path B, loads
modular and this module and not the registry; `rrcflab verify` loads it
through the registry, and `rrcflab eval` never loads it.
"""

from __future__ import annotations

import math

from .numerics import DEFAULT_CTX, DomainError, PrecisionContext
from .quadrature import integrate_finite
from .special import elliptic_k, elliptic_k_complementary, gamma, gauss_2f1
from .qseries import (GOLDEN_CONJUGATE, lambert_sum, product_logs_of_log_q,
                      rrcf_of_kappa, rrcf_of_log_q)
from .modular import (SQRT5, _SURD_ROOT, SexticInstance, _eta_quotient_index,
                      _singular_modulus_pair, eta_quotient_nome_of, klein_j,
                      sextic_variable_of_index)


# ---------------------------------------------------------------------------
# The continued-fraction integral

def rr_integrand(x: float) -> float:
    """1 / (x (x^-5 - 11 - x^5)^(1/6)), written as
    x^(-1/6) (1 - 11 x^5 - x^10)^(-1/6) so x -> 0 never overflows."""
    if not (0.0 < x < GOLDEN_CONJUGATE):
        raise DomainError(f"integrand defined on (0, {GOLDEN_CONJUGATE}), got {x}")
    return x ** (-1.0 / 6.0) * (1.0 - 11.0 * x ** 5 - x ** 10) ** (-1.0 / 6.0)


def rr_integral(upper: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """int_0^upper dx / (x (x^-5 - 11 - x^5)^(1/6)) for upper in the
    continued fraction's range (0, (sqrt5-1)/2)."""
    if not (0.0 < upper < GOLDEN_CONJUGATE):
        raise DomainError(f"upper limit must lie in (0, {GOLDEN_CONJUGATE})")
    return integrate_finite(rr_integrand, 0.0, upper, ctx)


# ---------------------------------------------------------------------------
# The inverse of the continued fraction

def tau_of_rrcf(x: float) -> float:
    """tau = -ln(q)/pi with R(q) = x, App 2's inverse of the continued
    fraction (Eq 25): the eta-quotient nome inverse's index at ln u,
    u = x^-5 - 11 - x^5 (see u_of_q), to the last bit at every eps; ln u is
    -5 ln x + log1p(-11 x^5 - x^10) where x^-5 overflows (x below 2.2e-62).
    x outside (0, (sqrt5-1)/2) is a DomainError; below it u stays positive."""
    if not 0.0 < x < GOLDEN_CONJUGATE:
        raise DomainError(f"R takes values in (0, {GOLDEN_CONJUGATE}), got {x}")
    try:
        log_u = math.log(x ** -5.0 - 11.0 - x ** 5.0)
    except OverflowError:   # x^-5 past the doubles
        log_u = -5.0 * math.log(x) + math.log1p(-11.0 * x ** 5 - x ** 10)
    return _eta_quotient_index(log_u)


# ---------------------------------------------------------------------------
# Integrals in the nome and in the image variable

def weighted_power_integral(exponent: float, ctx: PrecisionContext) -> float:
    """int_0^1 f(-q)^4 q^(-5/6) R(q)^(5 exponent) dq by direct tanh-sinh,
    which absorbs the endpoint singularity.  A node evaluates f(-q) and
    f(-q^5) once, from ln q, and R^5 solves 1/R^5 - 11 - R^5 = u(q), their
    quotient.  The integrand vanishes superexponentially as q -> 1,
    underflowing cleanly through the log form."""

    def f(q: float) -> float:
        log_q = math.log(q)
        log_f, _, log_u = product_logs_of_log_q(log_q)
        return (math.exp(4.0 * log_f - (5.0 / 6.0) * log_q)
                * rrcf_of_kappa(math.exp(log_u) + 10.0) ** exponent)

    return integrate_finite(f, 0.0, 1.0, ctx)


def weighted_power_rhs(exponent: float, ctx: PrecisionContext) -> float:
    """Gamma(5/6) ((11+5 sqrt5)/2)^(-1/6-nu) Gamma(1/6+nu)/Gamma(1+nu)
    2F1(1/6, 1/6+nu; 1+nu; (11-5 sqrt5)/(11+5 sqrt5)).  The Gammas go
    first: their DomainError comes before the power can overflow."""
    nu = exponent
    big = (11.0 + 5.0 * SQRT5) / 2.0
    z = (11.0 - 5.0 * SQRT5) / (11.0 + 5.0 * SQRT5)
    gamma_upper, gamma_lower = gamma(1.0 / 6.0 + nu), gamma(1.0 + nu)
    return (gamma(5.0 / 6.0) * big ** (-1.0 / 6.0 - nu)
            * gamma_upper / gamma_lower
            * float(gauss_2f1(1.0 / 6.0, 1.0 / 6.0 + nu, 1.0 + nu, z, ctx)))


def eta_quotient_power_integral(nu: float, ctx: PrecisionContext) -> float:
    """int_0^1 u(q)^(nu-5/6) f(-q)^4 q^(-5/6) dq; a node evaluates the
    products f(-q) and f(-q^5) once, from ln q."""

    def f(q: float) -> float:
        log_q = math.log(q)
        log_f, _, log_u = product_logs_of_log_q(log_q)
        expo = (nu - 5.0 / 6.0) * log_u + 4.0 * log_f - (5.0 / 6.0) * log_q
        return math.exp(expo) if expo > -700.0 else 0.0

    return integrate_finite(f, 0.0, 1.0, ctx)


def quintic_surd_integral(n: float, lo: float, hi: float,
                          ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """int_lo^hi t^(n-1) (125 + 22 t + t^2)^(-1/2) dt by tanh-sinh.

    For hi = inf, t^2 Q(125/t) = 125 Q(t) with Q(t) = 125 + 22 t + t^2,
    the Fricke involution u -> 125/u of _eta_quotient_index: t = 125/s
    carries the part past max(lo, sqrt 125) onto (0, min(sqrt 125, 125/lo))
    as 125^(n-1/2) int s^(-n) Q(s)^(-1/2) ds, and any part of
    (lo, sqrt 125) is integrated as it stands.  At lo = 0 and n = 1/2 the
    two pieces are one integral, taken once.  The tail falls like t^(n-2),
    so hi = inf needs n < 1 (a DomainError otherwise)."""
    if hi != math.inf:   # a nan hi too, which integrate_finite rejects
        return integrate_finite(lambda t: t ** (n - 1.0) * (125.0 + 22.0 * t + t * t) ** -0.5,
                                lo, hi, ctx)
    if not n < 1.0:   # nan fails too
        raise DomainError(f"the integral to inf needs n < 1, got n={n}")
    if not lo < _SURD_ROOT:   # nan fails too
        return 125.0 ** (n - 0.5) * quintic_surd_integral(1.0 - n, 0.0, 125.0 / lo, ctx)
    far = 125.0 ** (n - 0.5) * quintic_surd_integral(1.0 - n, 0.0, _SURD_ROOT, ctx)
    return far + (far if (lo, n) == (0.0, 0.5) else quintic_surd_integral(n, lo, _SURD_ROOT, ctx))


def quintic_nome_integral(n: float, w_lo: float, w_hi: float,
                          ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """Theorem 2's nome side, int u(q)^n f(-q^5)^5 / f(-q) dq from the nome
    where u = w_hi up to the one where u = w_lo: t = u(q) carries it onto
    quintic_surd_integral(n, w_lo, w_hi).  A node evaluates the products
    f(-q) and f(-q^5) once, from ln q."""

    def f(q: float) -> float:
        log_f, log_f5, log_u = product_logs_of_log_q(math.log(q))
        return math.exp(n * log_u + 5.0 * log_f5 - log_f)

    return integrate_finite(f, eta_quotient_nome_of(w_hi), eta_quotient_nome_of(w_lo), ctx)


def quadratic_power_integral(mu: float, nu: float, a: float, b: float, c: float,
                             x: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """Theorem 8's int_0^x t^mu (a t^2 + b t + c)^(-nu) dt by tanh-sinh; its
    series is special.quadratic_power_series."""
    return integrate_finite(lambda t: t ** mu * (a * t * t + b * t + c) ** (-nu),
                            0.0, x, ctx)


# ---------------------------------------------------------------------------
# Routes through the singular modulus and the period ratio

def modulus_product_formula(r: float) -> float:
    """2^(1/3) pi^(-1/2) q^(-1/24) k^(1/12) k'^(1/3) K(k)^(1/2) at the
    index-r singular modulus, q = exp(-pi sqrt r)."""
    k, kp = _singular_modulus_pair(r)
    q = math.exp(-math.pi * math.sqrt(r))
    return (2.0 ** (1.0 / 3.0) / math.sqrt(math.pi) * q ** (-1.0 / 24.0)
            * k ** (1.0 / 12.0) * kp ** (1.0 / 3.0) * math.sqrt(elliptic_k(k)))


def log_nome_of_modulus(k: float) -> tuple[float, float]:
    """(ln q, K(k)): the log of the nome q = e^(-pi K'(k)/K(k)) of the
    modulus 0 < k < 1, which stays finite where q ~ k^2/16 underflows
    (below k ~ 1e-162)."""
    if not (0.0 < k < 1.0):
        raise DomainError(f"modulus must lie in (0, 1), got {k}")
    kk = elliptic_k(k)
    return -math.pi * elliptic_k_complementary(k) / kk, kk


def modulus_nome(k: float) -> float:
    """The nome q = e^(-pi K'(k)/K(k)) of the modulus 0 < k < 1."""
    return math.exp(log_nome_of_modulus(k)[0])


def dq_dk(k: float) -> float:
    """-q pi^2 / (2 k k'^2 K(k)^2) at the nome q of k, as stated; the map
    k -> q is in fact increasing, so the sign convention is recorded by the
    harness rather than silently corrected here.  Formed in logs from ln q,
    so it stays normal where q underflows."""
    log_q, kk = log_nome_of_modulus(k)
    kp2 = (1.0 - k) * (1.0 + k)
    return -0.5 * math.pi ** 2 * math.exp(log_q - math.log(k * kp2 * kk * kk))


def dr_dk(k: float) -> float:
    """-(1/5) 2^(1/3) (k k')^(-2/3) R(q) u(q)^(1/6) at the nome q of k:
    carries the same sign convention as dq_dk, so the chain rule
    R'(q) dq/dk = dR/dk closes.  R and ln u are taken at ln q
    (rrcf_of_log_q, product_logs_of_log_q), so a nome that underflows
    leaves them normal."""
    log_q = log_nome_of_modulus(k)[0]
    kprime = math.sqrt((1.0 - k) * (1.0 + k))
    u6 = math.exp(product_logs_of_log_q(log_q)[2] / 6.0)
    return (-0.2 * 2.0 ** (1.0 / 3.0) * (k * kprime) ** (-2.0 / 3.0)
            * rrcf_of_log_q(log_q) * u6)


def sextic_period_ratio_root(inst: SexticInstance, t: float) -> tuple[float, float]:
    """The sextic's second route from the quarter-modulus square t that
    solve_sextic returns: the index r = (K'(k)/K(k))^2 / 4 at k = sqrt(t)
    from the period ratio (AGM), and the root (b/(250a)) u at the squared
    nome exp(-2 pi sqrt r).  Returns (r, X)."""
    k = math.sqrt(t)
    ratio = elliptic_k_complementary(k) / elliptic_k(k)
    r = ratio * ratio / 4.0
    return r, inst.b / (250.0 * inst.a) * sextic_variable_of_index(r)


# ---------------------------------------------------------------------------
# The j-integral by quadrature

def j_integral_quadrature(x: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """Direct quadrature of the j-power along the inverse eta-quotient:
    int_0^x j(Y^(-1)(w))^(-1/3) dw with Y(q) = u(q^2).

    The exponent -1/3 is the one the derivative identity requires (the
    display prints +1/3).  The variable is the nome P in (0, P_x), so the
    one inversion is P_x = eta_quotient_nome_of(125/x).  By the Fricke
    involution u(s) u(4/(5s)) = 125 (q = e^(-pi s)), w = 125/u(P), with
    dw/dP = 125 (1 + 6 L(P) - 30 L(P^5)) / (P u(P)) by the Lambert sum L
    (P_x <= 0.06 for x <= 1), and 1/(P u(P)) = (f(-P^5)/f(-P))^6 from the
    same two walks of the pentagonal series.  The mirror nome of P has index
    r = (2 pi/(5 ln P))^2, where klein_j takes max(r, 1/r): j at the nome
    P^5.  At the cusp, P < 1e-4, j^(-1/3) = P^(5/3) (1 - 248 P^5 + ...)
    stands in for j, a relative error below 2.5e-18.  The level-5 rational
    form of j is not used, so the route shares nothing with the F1 form.
    """
    if not (0.0 < x <= 1.0):
        raise DomainError(f"needs 0 < x <= 1, got {x}")

    def integrand(p: float) -> float:
        lambert, log_f = lambert_sum(p)
        lambert5, log_f5 = lambert_sum(p ** 5)
        slope = 125.0 * math.exp(6.0 * (log_f5 - log_f)) * (
            1.0 + 6.0 * lambert - 30.0 * lambert5)
        if p < 1e-4:
            return p ** (5.0 / 3.0) * slope
        return klein_j((2.0 * math.pi / (5.0 * math.log(p))) ** 2) ** (-1.0 / 3.0) * slope

    return integrate_finite(integrand, 0.0, eta_quotient_nome_of(125.0 / x), ctx)
