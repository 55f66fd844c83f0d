"""Singular moduli, the Klein j-invariant, the inverses of the eta-tail,
continued-fraction and surd integrals (m, F and G: one Newton search on the
eta tail, then q-products at that nome) and of the surd tail (theta, from
its Legendre series, by quadrature only where neither converges fast), the
eta-quotient nome inverse (and its index, which App 2's inverse of the
continued fraction returns), Beta-ratio singular-value solvers, the sextic
solver (the hypergeometric/eta-tail route; the period-ratio cross-check is
in routes), the change-of-base procedure, and the trigonometric modular
family with Example 4's unit-circle root.  The integrals that only the
registry evaluates, the continued-fraction integral that F inverts among
them, are in routes.

Nome conventions are the single largest source of silent error in this
area, so every operation states which one it uses: q = exp(-pi sqrt(r)) for
the moduli and j, and the squared nome exp(-2 pi sqrt(r)) for the
sextic/derivative identities, each a float formed where it is used.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

from .numerics import (DEFAULT_CTX, LOG_FLOAT_MAX, MACHINE_EPS, RAW_ERRORS,
                       ConvergenceError, DomainError, Frozen, PrecisionContext,
                       SeriesSum, find_root, newton_root)
from .quadrature import integrate_finite
from .special import (BetaBase, _beta_cf, _incomplete_beta_log, appell_f1,
                      complete_beta, elliptic_k_complementary, gauss_2f1)
from .qseries import (eta_tail_log, lambert_sum, product_logs_of_log_q,
                      rrcf_of_log_q, u_of_q)


# The quarter-modulus branch point: j as a function of t = k^2 attains its
# minimum 1728 at t = (3 - 2 sqrt 2)^2 = 1/(17 + 12 sqrt 2) (a sum, where
# 17 - 12 sqrt 2 would cancel three digits); real instances need j > 1728.
_T_RIDGE = 1.0 / (17.0 + 12.0 * math.sqrt(2.0))
SQRT5 = math.sqrt(5.0)
# Theta-series terms below an eighth of an ulp of 1 no longer change a sum
# that starts at 1.
_THETA_CUT = MACHINE_EPS / 8.0
# Bracket of the logit w = ln(x/(1-x)) searches: x from about 4e-322 up to
# 1 - 2.3e-16, past which 1/(1 + e^-w) rounds to 1.
_LOGIT_MIN, _LOGIT_MAX = -740.0, 36.0
# The quarter-modulus and nome searches resolve their roots to the last bit.
_FULL_PRECISION = PrecisionContext(MACHINE_EPS, MACHINE_EPS)
# The logits of the interior points i/10 on which theorem6_base_change
# tests the base ratio, symmetric in sign so that _logistic_pair gives
# 1 - x_i as x_(8-i) bit for bit, and the logit of the search's outer ends
# 1e-12 and 1 - 1e-12.
_GRID_LOGITS = tuple(math.log(i / (10.0 - i)) if i >= 5 else -math.log((10.0 - i) / i)
                     for i in range(1, 10))
_BASE_LOGIT_END = -math.log(1e-12 / (1.0 - 1e-12))


def _logistic_pair(w: float) -> tuple[float, float]:
    """(x, 1-x) at x = 1/(1 + e^-w).  The smaller is e/(1+e) with
    e = e^-|w|, and the larger 1 less it, so that a root next to 1 rounds
    to the nearest float as well as one next to 0, and the complement of a
    root next to 1 keeps its digits."""
    e = math.exp(-abs(w))
    tail = e / (1.0 + e)
    return (1.0 - tail, tail) if w > 0.0 else (tail, 1.0 - tail)


# The grid points x_i themselves: i/10 to the bit, but for 0.1, two ulps below.
_MONOTONE_GRID = tuple(_logistic_pair(w)[0] for w in _GRID_LOGITS)


# ---------------------------------------------------------------------------
# Singular moduli and the j-invariant

def _theta_sums(q: float) -> tuple[float, float, float]:
    """(sum_{n>=0} q^(n(n+1)), theta3(q), theta4(q)) for 0 <= q <= e^-pi,
    where theta3 = 1 + 2 sum_{n>=1} q^(n^2), theta4 = 1 + 2 sum_{n>=1} (-q)^(n^2)
    and the first sum is theta2(q) / (2 q^(1/4)).

    Each term is q^n times the term before it in the other series
    (q^(n^2) = q^((n-1)n) q^n, q^(n(n+1)) = q^(n^2) q^n); the loop stops
    once a term is below an eighth of an ulp of 1, after four rounds at
    q = e^-pi, so every sum reaches full double precision.
    """
    pairs, theta3, theta4 = 1.0, 1.0, 1.0
    term, q_n, sign = 1.0, 1.0, 2.0
    while term > _THETA_CUT:
        q_n *= q
        term *= q_n              # q^(n^2)
        sign = -sign
        theta3 += 2.0 * term
        theta4 += sign * term
        term *= q_n              # q^(n(n+1))
        pairs += term
    return pairs, theta3, theta4


def _singular_modulus_pair(r: float) -> tuple[float, float]:
    """(k_r, k'_r) from Jacobi's theta series at the nome q = e^(-pi sqrt r)
    (DLMF 22.2.2): k = theta2^2/theta3^2 = 4 q^(1/2) (sum q^(n(n+1)) / theta3)^2
    and k' = theta4^2/theta3^2, both to full double precision.

    For r < 1 the pair is the swap of the reciprocal index, so the nome is
    always at most e^-pi, and neither component is ever formed by a
    cancelling sqrt(1-k^2).  Raises DomainError where the smaller member
    falls below the normal floats (max(r, 1/r) beyond about 2.0e5), since
    it has lost its relative precision there.
    """
    if not r > 0.0:
        raise DomainError(f"singular modulus needs r > 0, got {r}")
    if r < 1.0:
        k, kp = _singular_modulus_pair(1.0 / r)
        return kp, k
    root_q = math.exp(-0.5 * math.pi * math.sqrt(r))
    pairs, theta3, theta4 = _theta_sums(root_q * root_q)
    k = 4.0 * root_q * (pairs / theta3) ** 2
    if k < sys.float_info.min:
        raise DomainError(f"singular modulus at r={r} underflows a float")
    return k, (theta4 / theta3) ** 2


def singular_modulus(r: float) -> float:
    """The unique k in (0, 1) with K(k')/K(k) = sqrt(r), as theta2^2/theta3^2
    at the nome e^(-pi sqrt r) (at the reciprocal index when r < 1): a few
    terms of each theta series, full double precision, no root finding."""
    return _singular_modulus_pair(r)[0]


def klein_j_from_quarter_modulus(t: float, one_minus_t: float) -> float:
    """16 (1 + 14 t + t^2)^3 / (t (1-t)^4) with t the squared modulus at the
    quadrupled index, and 1 - t its complement, formed apart (k'^2) so that
    it keeps its digits when t is close to 1."""
    if t <= 0.0 or one_minus_t <= 0.0:
        raise DomainError(f"quarter-modulus argument out of (0, 1): t={t}")
    return 16.0 * (1.0 + 14.0 * t + t * t) ** 3 / (t * one_minus_t ** 4)


def klein_j_from_lambda(lam: float, one_minus_lam: float) -> float:
    """256 (lam^2 - lam + 1)^3 / (lam^2 (1-lam)^2), the lambda-line form at
    lam = k_r^2, with 1 - lam formed apart; symmetric under lam -> 1 - lam."""
    if lam <= 0.0 or one_minus_lam <= 0.0:
        raise DomainError(f"lambda argument out of (0, 1): {lam}")
    return (256.0 * (lam * lam - lam + 1.0) ** 3
            / (lam * lam * one_minus_lam * one_minus_lam))


@lru_cache(maxsize=4096)
def _klein_j_cached(r: float) -> float:
    # j > e^(2 pi sqrt r), so past this bound j overflows; checked before the
    # moduli, whose own underflow error only comes past r ~ 5.1e4
    if 2.0 * math.pi * math.sqrt(r) < LOG_FLOAT_MAX:
        k4r, k4r_p = _singular_modulus_pair(4.0 * r)
        z = (k4r_p * k4r_p / (4.0 * k4r)) ** 2
        j = 256.0 * (1.0 + z) * (1.0 + 1.0 / z) ** 2
        if j < math.inf:
            return j
    raise DomainError(f"klein_j overflows a float at max(r, 1/r) = {r}")


def klein_j(r: float) -> float:
    """j-invariant at index r (1728 at r = 1), with j(r) = j(1/r) putting
    the index at r >= 1.  It is the quarter-modulus form at t = k_4r^2,
    16 (1+14t+t^2)^3 / (t (1-t)^4), written in z = (1-t)^2/(16t) =
    (k'_4r^2 / (4 k_4r))^2 as 256 (1+z)(1+1/z)^2, which neither cancels nor
    overflows before j does; _quarter_modulus inverts the same relation.  The
    moduli are theta series at the nome e^(-2 pi sqrt r) <= e^(-2 pi), so j
    has full double precision, with no root finding.
    j ~ e^(2 pi sqrt r) overflows a float past max(r, 1/r) ~ 1.27e4:
    DomainError.  The registry checks j against the lambda-line form and
    the level-5 Hauptmodul."""
    if not r > 0.0:
        raise DomainError(f"klein_j needs r > 0, got {r}")
    return _klein_j_cached(float(max(r, 1.0 / r)))


# ---------------------------------------------------------------------------
# The integrals inverted by F, m, G, theta

def surd_tail_integral(lower: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """int_lower^inf t^(-1/6) (125 + 22 t + t^2)^(-1/2) dt for finite
    lower >= 0, in three regions.  With a = sqrt(125) and mu = -11/a,
    125 + 22 t + t^2 is t^2 (1 - 2 mu r + r^2) at r = a/t and
    125 (1 - 2 mu r + r^2) at r = t/a, Legendre generating functions
    (DLMF 18.12.11), so termwise integration gives
    - lower >= 2a: the far series lower^(-1/6) sum P_n(mu) rho^n / (n + 1/6)
      at rho = a/lower;
    - lower <= a/2: TAIL_TOTAL less the head
      lower^(5/6)/a sum P_n(mu) rho^n / (n + 5/6) at rho = lower/a, at
      most 0.38 against a tail of at least 3.8, so the difference loses
      no digits;
    - between them, where neither rate is at most 1/2, one quadrature of
      int_0^(lower^(-1/6)) 6 (1 + 22 w^6 + 125 w^12)^(-1/2) dw (t = w^-6),
      a smooth integrand, to ctx.
    The edges lie where the rate is 1/2, so a series takes at most about
    50 terms.  Both series are summed to full double precision whatever ctx
    (_surd_legendre_sum), and lower = 0 gives TAIL_TOTAL itself."""
    if not 0.0 <= lower < math.inf:   # nan fails too
        raise DomainError(f"lower limit must be finite and >= 0, got {lower}")
    if lower >= 2.0 * _SURD_ROOT:
        # lower ** (-1/6) carries the rounding of the exponent 1/6 times
        # ln lower (6e-15 relative at 1e300); one Newton step on
        # y^6 lower = 1 removes it
        y = lower ** (-1.0 / 6.0)
        y -= y * (y ** 3 * lower * y ** 3 - 1.0) / 6.0
        return y * _surd_legendre_sum(_SURD_ROOT / lower, 1.0 / 6.0).value
    if lower <= 0.5 * _SURD_ROOT:
        head = _surd_legendre_sum(lower / _SURD_ROOT, 5.0 / 6.0).value
        return TAIL_TOTAL - lower ** (5.0 / 6.0) / _SURD_ROOT * head

    def far(w: float) -> float:
        w6 = w ** 6
        return 6.0 * (1.0 + (22.0 + 125.0 * w6) * w6) ** -0.5

    return integrate_finite(far, 0.0, lower ** (-1.0 / 6.0), ctx)


# The surd quadratic's Legendre form: a = sqrt(125) and mu = -11/a.
_SURD_ROOT = math.sqrt(125.0)
_SURD_MU = -11.0 / _SURD_ROOT
# _surd_legendre_sum stops once its tail is below a quarter ulp of the sum.
_LEGENDRE_CUT = MACHINE_EPS / 4.0


def _surd_legendre_sum(rho: float, c: float) -> SeriesSum:
    """sum_n P_n(mu) rho^n / (n + c) for 0 <= rho <= 1/2 and c > 0, with
    the Legendre polynomials at mu = _SURD_MU by Bonnet's recurrence
    (n + 1) P_(n+1) = (2n + 1) mu P_n - n P_(n-1) (DLMF 18.9.1).
    |P_n| <= 1 on [-1, 1] (DLMF 18.14.1) bounds the tail past term n by
    rho^(n+1) / ((n + 1 + c)(1 - rho)), and the sum stops once that bound
    is below _LEGENDRE_CUT of it: no small-term heuristic, and at most
    about 50 terms at rho = 1/2.  There the terms' magnitudes sum to at
    most 1.7 times the value, so rounding stays within a few ulps.  n is
    counted as a float, as in special._beta_cf."""
    total, power, p_prev, p, n = 1.0 / c, 1.0, 1.0, _SURD_MU, 1.0
    while True:
        power *= rho
        total += p * power / (n + c)
        if power * rho <= _LEGENDRE_CUT * total * (n + 1.0 + c) * (1.0 - rho):
            return SeriesSum(total, int(n) + 1)
        p_prev, p = p, ((2.0 * n + 1.0) * _SURD_MU * p - n * p_prev) / (n + 1.0)
        n += 1.0


def eta_tail_integral(lower: float) -> float:
    """int_lower^inf eta(i t/2)^4 dt, summed from the q-expansion of the
    integrand (qseries.eta_tail_log) with no quadrature."""
    return math.exp(eta_tail_log(lower)[0])


_SURD_BASE = BetaBase(1.0 / 6.0, 2.0 / 3.0)
# The surd tail from 0 and pi times the eta tail from 0 both equal
# 4^(-1/3) B(1/6, 2/3) = 4.20654631597636278...: m's range is all of it, and
# the range of F and G, whose integrals carry a factor 1/5, is a fifth.  Both
# are the nearest floats, as the deficits TAIL_TOTAL - x and
# F_ARGUMENT_MAX - x need (complete_beta lands 3 ulps below).
TAIL_TOTAL = 4.206546315976363
F_ARGUMENT_MAX = 0.2 * TAIL_TOTAL


def _eta_tail_index(target: float, deficit: float, ctx: PrecisionContext) -> float:
    """The s >= 0 with pi T(s) = target, given deficit = TAIL_TOTAL - target
    as the caller forms it, top - x, exact by Sterbenz's lemma where it is
    used.  eta(i t/2)^4 dt is invariant under t -> 4/t, so T(0) - T(s) =
    sum (4 c_n/alpha_n) e^(-alpha_n/s) (in the notation of
    qseries.eta_tail_log) is T(4/s): where the deficit is the smaller
    (s < 2), whose digits the target lost to rounding, s = 4/s' with
    pi T(s') = deficit.  Newton on ln(target/pi) - ln T(s) by eta_tail_log:
    the integrand is at most exp(-pi t/6), so s <= (6/pi) ln(6/target), the
    start, padded since it is asymptotically exact for a small target.
    """
    if deficit < target:
        return 4.0 / _eta_tail_index(deficit, target, ctx)
    # in logs, since target/pi and 6/target leave the floats for a
    # subnormal target
    log_target = math.log(target) - math.log(math.pi)

    def fdf(s: float) -> tuple[float, float]:
        log_tail, rate = eta_tail_log(s)
        return log_target - log_tail, rate

    hi = 6.0 / math.pi * (math.log(6.0) - math.log(target)) + 1e-9
    return newton_root(fdf, 0.0, hi, hi, ctx)


def _fifth_tail_index(x: float, ctx: PrecisionContext) -> float:
    """The s with pi T(s) = 5x, x in (0, F_ARGUMENT_MAX): F's and G's nome e^(-pi s)."""
    if not 0.0 < x < F_ARGUMENT_MAX:
        raise DomainError(f"argument {x} outside (0, {F_ARGUMENT_MAX})")
    return _eta_tail_index(5.0 * x, 5.0 * (F_ARGUMENT_MAX - x), ctx)


def F_of_x(x: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """Inverse of upper -> int_0^upper dx/(x (x^-5-11-x^5)^(1/6)): the value
    of the continued fraction R(q) at the nome q = e^(-pi s) whose eta tail
    is 5x, pi T(s) = 5x (Eqs 29-32, App1.eq24).

    One eta-tail inversion and one q-product evaluation, from ln q, with no
    quadrature.  Next to the top R rounds onto the float below
    GOLDEN_CONJUGATE, still inside routes.rr_integral's domain.  The registry
    checks F against the integral it inverts.  F(0) = 0.
    """
    if x == 0.0:
        return 0.0
    return rrcf_of_log_q(-math.pi * _fifth_tail_index(x, ctx))


def m_of_x(x: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """Inverse of m -> pi int_sqrt(m)^inf eta(i t/2)^4 dt; strictly
    decreasing in x.  The square of the eta-tail inverse."""
    if x <= 0.0 or x >= TAIL_TOTAL:
        raise DomainError(f"argument {x} outside (0, {TAIL_TOTAL})")
    s = _eta_tail_index(x, TAIL_TOTAL - x, ctx)
    return s * s


def G_of_x(x: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """Inverse of G -> (1/5) int_G^inf t^(-1/6)(125+22t+t^2)^(-1/2) dt: the
    eta quotient u(q) at the nome of F(x), q = e^(-pi s) with
    pi T(s) = 5x (Eqs 29-32).

    One eta-tail inversion and one q-product evaluation, from ln q, with no
    quadrature.  G grows like (6/(5x))^6, so below about x = 5e-52 it
    overflows a float: DomainError.  The registry checks G against the
    surd-tail integral it inverts.
    """
    log_g = product_logs_of_log_q(-math.pi * _fifth_tail_index(x, ctx))[2]
    if log_g >= LOG_FLOAT_MAX:
        raise DomainError(f"G({x}) overflows a float")
    return math.exp(log_g)


def theta_of_X(X: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """b in (0, 1) with 4^(-1/3) B(b, 1/6, 2/3) equal to the surd tail from
    X; only the defining equation is used, no algebraicity is assumed.

    The target is surd_tail_integral(X): a Legendre series summed to full
    double precision up to X = sqrt(125)/2 and from X = 2 sqrt(125) on,
    where the series' rate is at most 1/2, and one quadrature to ctx
    between them.  X must be positive and finite (DomainError).
    Newton on ln B(b) in w = ln(b/(1-b)) by special._incomplete_beta_log.
    B(b) >= 6 b^(1/6) puts (target/6)^6 above the root; when that is not
    below 1/2 the start comes from B(1) - B(b) ~ 1.5 (1-b)^(2/3).
    """
    if X <= 0.0:
        raise DomainError(f"theta_of_X needs X > 0, got {X}")
    target = 4.0 ** (1.0 / 3.0) * surd_tail_integral(X, ctx)
    log_target = math.log(target)
    log_beta = _incomplete_beta_log(_SURD_BASE)

    def fdf(w: float) -> tuple[float, float]:
        x, y = _logistic_pair(w)
        log_value, slope = log_beta(x, y, math.log(x), math.log(y))
        return log_value - log_target, slope

    small = 6.0 * (log_target - math.log(6.0))
    if small < math.log(0.5):
        start = max(small - math.log1p(-math.exp(small)), _LOGIT_MIN)
    else:
        gap = max(complete_beta(_SURD_BASE) - target, 1e-300)
        start = min(-1.5 * math.log(gap / 1.5), _LOGIT_MAX)
    return _logistic_pair(newton_root(fdf, _LOGIT_MIN, _LOGIT_MAX, start, ctx,
                                      xtol=ctx.eps_rel))[0]


# ---------------------------------------------------------------------------
# Sextic solver

class SexticInstance(Frozen):
    """Coefficients of b^2/(20a) + b X + a X^2 = c1 X^(5/3)."""

    __slots__ = ("a", "b", "c1")

    def __init__(self, a: float, b: float, c1: float):
        self._set(a, b, c1)
        if a == 0.0 or b == 0.0:
            raise DomainError("sextic instance needs a != 0 and b != 0")
        try:
            j = self.j
        except (ZeroDivisionError, OverflowError):   # a^2 b is 0, or a power overflows
            j = math.inf
        if not math.isfinite(j):
            raise DomainError(f"derived j-invariant not finite for {self}")

    @property
    def j(self) -> float:
        return 250.0 * self.c1 ** 3 / (self.a ** 2 * self.b)

    def residual(self, X: float) -> float:
        """|lhs - rhs| / max(|lhs|, |rhs|) of the sextic at X, with both sides
        divided by a X^2: 1 + Y + Y^2/20 against c1/(a X^(1/3)), Y = b/(aX).
        a X^2 and c1 X^(5/3) overflow from j ~ 1e140; Y is 250/G at the
        root, and c1/(a X^(1/3)) is (j/G)^(1/3), so these stay finite.  The
        cube root is the real one, also where b/a and so X are negative."""
        y = self.b / (self.a * X)
        lhs = 1.0 + y + y * y / 20.0
        rhs = self.c1 / (self.a * math.copysign(abs(X) ** (1.0 / 3.0), X))
        scale = max(abs(lhs), abs(rhs))
        return abs(lhs - rhs) / scale if scale > 0 else abs(lhs - rhs)


class SexticSolution(Frozen):
    """x: the root of the sextic (hypergeometric/eta-tail path); t: the
    quarter-modulus square solving the j relation; residual: the relative
    residual of the sextic at x."""

    __slots__ = ("x", "t", "residual")

    def __init__(self, x: float, t: float, residual: float):
        self._set(x, t, residual)


def _quarter_modulus(j: float) -> float:
    """The t = k_4r^2 with 16 (1+14t+t^2)^3 / (t (1-t)^4) = j at the index
    r >= 1 (the ridge (3-2 sqrt2)^2 for j <= 1728), to full precision.

    With z = (1-t)^2/(16t) the relation is the cubic (1+z)^3 = (j/256) z^2;
    its root z >= 2 gives this t (the root z < 2 is the reciprocal index).
    One find_root solves 3 ln(1+z) - 2 ln z = ln(j/256) in s = ln(z/2),
    written so that no sum cancels: h(s) = 3 log1p(2 expm1(s)/3) - 2s =
    ln(j/1728) next to the ridge and s = G(s) = ln(j/512) - 3 log1p(e^-s/2)
    past s = 1, where z is read off as (j/256) / (1 + e^-s/2)^3, which the
    error of s moves by only 3/(z+1) of it.  Then
    sqrt t = 1/(sqrt(4z+1) + 2 sqrt z), for any j below overflow.

    The bracket is the narrower of two that the two forms prove, as
    h(s) - ln(j/1728) = s - G(s) is one function.  G is increasing, with
    G(0) = ln(j/1728) and G <= ln(j/512), so the root s* = G(s*) lies in
    [G(ln(j/1728)), G(ln(j/512))].  h(0) = h'(0) = 0 and 0 < h'' <= 2/3 on
    s >= 0, so h(s) <= s^2/3 puts s* above s0 = sqrt(3 ln(j/1728)), and
    convexity puts it below the tangent step from s0.  Both ends are
    padded by 16 eps max(hi, 1) for rounding.
    """
    if j <= 1728.0:
        return _T_RIDGE
    excess = math.log1p((j - 1728.0) / 1728.0)       # ln(j/1728)
    far = math.log(j / 512.0)                        # s at z = j/256

    def image(s: float) -> float:
        return far - 3.0 * math.log1p(0.5 * math.exp(-s))

    def gap(s: float) -> float:
        if s <= 1.0:
            return 3.0 * math.log1p(2.0 * math.expm1(s) / 3.0) - 2.0 * s - excess
        return s - far + 3.0 * math.log1p(0.5 * math.exp(-s))

    start = math.sqrt(3.0 * excess)
    grow = 2.0 * math.expm1(start)                   # h'(s) = grow / (3 + grow)
    tangent = start - gap(start) * (3.0 + grow) / grow
    lo, hi = max(image(excess), start), min(image(far), tangent)
    pad = 16.0 * MACHINE_EPS * max(hi, 1.0)
    s = find_root(gap, lo - pad, hi + pad, _FULL_PRECISION)
    z = 2.0 * math.exp(s) if s <= 1.0 else j / 256.0 / (1.0 + 0.5 * math.exp(-s)) ** 3
    root_t = 1.0 / (math.sqrt(4.0 * z + 1.0) + 2.0 * math.sqrt(z))
    return root_t * root_t


def hypergeometric_g_argument(t: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """(3/5) 2^(1/3) t^(1/6) 2F1[1/3, 1/6; 7/6; t]: the closed-form value of
    the continued-fraction integral at quarter-modulus square t.

    Carries the 1/5 that the eta-tail normalisation requires; dropping it
    breaks the sextic residual by orders of magnitude.
    """
    return 0.6 * 2.0 ** (1.0 / 3.0) * t ** (1.0 / 6.0) * float(
        gauss_2f1(1.0 / 3.0, 1.0 / 6.0, 7.0 / 6.0, t, ctx))


def solve_sextic(inst: SexticInstance,
                 ctx: PrecisionContext = DEFAULT_CTX) -> SexticSolution:
    """The root X = (b/(250a)) G(x) of the sextic, with x the hypergeometric
    argument (2F1) of t = _quarter_modulus(j), the quarter-modulus square at
    the index r >= 1: one eta-tail inversion and one eta quotient at that
    nome (G_of_x).  A relative residual above 1e-6 raises ConvergenceError
    carrying X, and an X that is not a normal double a DomainError.
    Real instances need j > 1728; below that the quarter-modulus square
    leaves (0, 1).  The registry checks X against the period-ratio route
    (routes.sextic_period_ratio_root).
    """
    j = inst.j
    if j < 1728.0 * (1.0 - 1e-12):
        raise DomainError(
            f"derived j={j:.6g} < 1728: no real quarter-modulus; "
            "complex-modulus instances are rejected")
    t = _quarter_modulus(j)
    g = G_of_x(hypergeometric_g_argument(t, ctx), ctx)
    # b/(250a) G from the mantissas of a and b, scaled by 2^(eb - ea) last:
    # no intermediate is subnormal where b/(250a) would be, and where all
    # are normal the scaling is exact and the bits are the plain product's
    (ma, ea), (mb, eb) = math.frexp(inst.a), math.frexp(inst.b)
    try:
        x = math.ldexp(mb / (250.0 * ma) * g, eb - ea)
    except OverflowError:
        x = math.inf
    if not sys.float_info.min <= abs(x) < math.inf:
        raise DomainError(f"sextic root X = b/(250a) G is not a normal double for {inst}")
    residual = inst.residual(x)
    if not residual <= 1e-6:
        raise ConvergenceError(f"sextic residual {residual:.3g} at X={x}", best=x)
    return SexticSolution(x=x, t=t, residual=residual)


# ---------------------------------------------------------------------------
# Beta-ratio singular values and the change of base

def beta_ratio_root(base: BetaBase, r: float,
                    ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """The unique x in (0, 1) with B(1-x, base)/B(x, base) = r (the ratio is
    strictly decreasing in x).

    Newton on ln B(x) - ln B(1-x) = -ln r in w = ln(x/(1-x)), so a root
    next to 0 or 1 is resolved relatively; the derivative is
    x^a (1-x)^b / B(x) + x^b (1-x)^a / B(1-x).  Both x and 1-x come from w
    by _logistic_pair, so 1-x never rounds onto 1.  Each Beta value is
    taken on the small side of incomplete_beta's split, B(1-x; a, b) as
    B(a, b) - B(x; b, a) where 1-x is the large side.  For a = b that is
    the continued fraction of B(x) itself, so a symmetric step runs one
    fraction (DLMF 8.17.4); any other runs two, by _incomplete_beta_log.
    The values stay in logs, so no power of x underflows.

    The smaller of B(x) and B(1-x) is about s^a/a at s = min(x, 1-x) for
    every base, so the search starts where that is B(a, b)/(1+r), at r >= 1,
    or at its mirror x <-> 1-x below; at x = 1/2, where the ratio is 1, if
    that s is past 1/2.  r outside (0, inf), a B(a, b) below the normal
    floats and a complement that cancels to nothing (such as at b = 1e-300)
    are a DomainError.  A root closer to 0 or 1 than w's bracket (about
    4e-322 and 1 - 2.3e-16) is a BracketError.
    """
    if not 0.0 < r < math.inf:
        raise DomainError(f"ratio must be positive and finite, got {r}")
    a, b = base.a, base.b
    total = complete_beta(base)
    if not total >= sys.float_info.min:
        raise DomainError(f"complete Beta of {base} underflows a float")
    log_r, log_total, log_a = math.log(r), math.log(total), math.log(a)
    log_s0 = (log_a + log_total - math.log1p(r) + min(log_r, 0.0)) / a
    w0 = 0.0
    if log_s0 < -math.log(2.0):
        w0 = max(log_s0 - math.log1p(-math.exp(log_s0)), _LOGIT_MIN)
    start = w0 if r >= 1.0 else min(-w0, _LOGIT_MAX)

    if a == b:
        def fdf(w: float) -> tuple[float, float]:
            e = math.exp(-abs(w))
            log_d = -a * (abs(w) + 2.0 * math.log1p(e))   # ln (x (1-x))^a
            cf = _beta_cf(e / (1.0 + e), a, a)
            log_small = log_d - log_a + math.log(cf)   # ln B(min(x, 1-x))
            log_large = log_total + math.log1p(-math.exp(log_small - log_total))
            gap = log_small - log_large
            slope = a / cf + math.exp(log_d - log_large)
            return (gap if w <= 0.0 else -gap) + log_r, slope
    else:
        log_beta = _incomplete_beta_log(base)

        def fdf(w: float) -> tuple[float, float]:
            x, y = _logistic_pair(w)
            log_x, log_y = math.log(x), math.log(y)
            log_lower, rate_lower = log_beta(x, y, log_x, log_y)
            log_upper, rate_upper = log_beta(y, x, log_y, log_x)
            return log_lower - log_upper + log_r, rate_lower + rate_upper

    return _logistic_pair(newton_root(fdf, _LOGIT_MIN, _LOGIT_MAX, start, ctx,
                                      xtol=ctx.eps_rel))[0]


def invert_lambda_j(j0: float) -> float:
    """The root lam = k_r^2 in (0, 1/2] of the lambda-line j form; needs
    j0 >= 1728.  Landen's step k_4r = (1 - k'_r)/(1 + k'_r) (DLMF 19.8(ii))
    turns k_4r = sqrt(_quarter_modulus(j0)) into lam = 4 k_4r / (1 + k_4r)^2:
    full precision for every j0 below float overflow."""
    if j0 < 1728.0:
        raise DomainError(f"lambda-line j is >= 1728 on (0,1), got {j0}")
    if j0 == 1728.0:
        return 0.5
    k4r = math.sqrt(_quarter_modulus(j0))
    return 4.0 * k4r / (1.0 + k4r) ** 2


def theorem6_base_change(fbase, r: float,
                         ctx: PrecisionContext = DEFAULT_CTX) -> tuple[float, float, float]:
    """Singular value of an arbitrary base function, then its expression
    through the elliptic machinery.

    The search solves fbase(1-x)/fbase(x) = sqrt(r) for alpha by one
    find_root (fbase has no known derivative) on the gap ln ratio - (ln r)/2
    in w = ln(x/(1-x)), where the paper's base ratios, powers of x near the
    ends, are nearly linear, and stops within eps_rel in w, which is
    eps_rel relative in alpha and in 1-alpha, plus about ulp(1)/alpha in w
    at small alpha, since fbase takes 1-x as a float next to 1 (x and 1-x
    are both formed from w by _logistic_pair).  The gap is first taken at
    the logits of the grid x = 0.1, ..., 0.9, where it must be monotone;
    the search runs in the grid cell where it changes sign, or in an end
    cell out to 1e-12 or 1 - 1e-12.  alpha maps to
    r0 = (K(sqrt(1-alpha))/K(sqrt(alpha)))^2 and to the lambda-line j0.
    Returns (alpha, r0, j0); the J.invert.* checks of the registry test the
    inversion of j.

    Theorem 6 divides by the base, so fbase must be positive and finite on
    (0, 1); a base that vanishes, is not finite, or raises ZeroDivisionError,
    ValueError or OverflowError, on the grid or in the search, is the
    caller's error: DomainError, as is r outside (0, inf).
    """
    if not 0.0 < r < math.inf:
        raise DomainError(f"need 0 < r < inf, got {r}")
    half_log_r = 0.5 * math.log(r)

    def gap(w: float) -> float:
        x, y = _logistic_pair(w)
        return math.log(fbase(y) / fbase(x)) - half_log_r

    try:
        values = [fbase(x) for x in _MONOTONE_GRID]
        if not all(0.0 < v < math.inf for v in values):
            raise DomainError(f"base must be positive and finite on (0, 1), got "
                              f"{values} on the grid {_MONOTONE_GRID}")
        # the gap at each grid logit, as the search evaluates it: fbase(1 - x_i)
        # is the sample at x_(8-i)
        gaps = [math.log(v / u) - half_log_r for u, v in zip(values, reversed(values))]
        increasing = all(b >= a for a, b in zip(gaps, gaps[1:]))
        if not (increasing or all(b <= a for a, b in zip(gaps, gaps[1:]))):
            raise DomainError("base ratio is not monotone on the sampled grid")
        # the grid logits before the sign change: the root lies in the cell
        # past them
        before = sum(g < 0.0 if increasing else g > 0.0 for g in gaps)
        ends = (-_BASE_LOGIT_END, *_GRID_LOGITS, _BASE_LOGIT_END)
        w = find_root(gap, ends[before], ends[before + 1], ctx, xtol=ctx.eps_rel)
    except RAW_ERRORS as exc:
        raise DomainError(f"base is not positive and finite on (0, 1): "
                          f"{exc!r}") from exc
    alpha, complement = _logistic_pair(w)
    # K(sqrt(1-alpha)) = K'(sqrt(alpha)) and K(sqrt(alpha)) =
    # K'(sqrt(1-alpha)): each AGM takes its modulus as it is, so neither
    # rebuilds a small sqrt(alpha) or sqrt(1-alpha) from the other
    r0 = (elliptic_k_complementary(math.sqrt(alpha))
          / elliptic_k_complementary(math.sqrt(complement))) ** 2
    return alpha, r0, klein_j_from_lambda(alpha, complement)


# ---------------------------------------------------------------------------
# Derivative identity of the eta-quotient map

def sextic_variable_of_index(r: float) -> float:
    """X(r) = u(exp(-2 pi sqrt r)): the eta-quotient sixth power on the
    squared-nome convention; increasing in r, for r in (0, inf)."""
    if not 0.0 < r < math.inf:
        raise DomainError(f"need 0 < r < inf, got {r}")
    return u_of_q(math.exp(-2.0 * math.pi * math.sqrt(r)))


# ---------------------------------------------------------------------------
# The j-integral identity and its closed forms

_J50_ARG_1 = -1.0 / (25.0 * (5.0 - 2.0 * SQRT5))
_J50_ARG_2 = -1.0 / (25.0 * (5.0 + 2.0 * SQRT5))
# 3 x^(8/3), every closed form's numerator, is finite for |x| below ~3.9e115
_J50_X_MAX = 1e115


def _j50_numerator(x: float) -> float:
    if not abs(x) < _J50_X_MAX:
        raise DomainError(f"x^(8/3) overflows a double at x = {x}")
    return 3.0 * x ** (8.0 / 3.0)


def j_integral_f1_form(x: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """(3 x^(8/3) / 25000) F1[8/3, 1, 1, 11/3; -x/(25(5-2 sqrt5)),
    -x/(25(5+2 sqrt5))], and 0 at x <= 0."""
    if x <= 0.0:
        return 0.0
    scale = _j50_numerator(x) / 25000.0
    val = appell_f1(8.0 / 3.0, 1.0, 1.0, 11.0 / 3.0,
                    _J50_ARG_1 * x, _J50_ARG_2 * x, ctx)
    return scale * val.real


def _phi(z: float, ctx: PrecisionContext) -> float:
    return float(gauss_2f1(1.0, 8.0 / 3.0, 11.0 / 3.0, z, ctx))


def j_integral_phi_printed(x: float, ctx: PrecisionContext = DEFAULT_CTX,
                           squared_second_arg: bool = True) -> float:
    """The phi-combination exactly as displayed:
    3 x^(8/3) / (25000 (x-1)) [-phi(a x) + x phi(a x^2)], a = (5+2 sqrt5)/125;
    squared_second_arg=False replaces the suspected x^2 by x.  x = 1, the
    display's pole, is a DomainError."""
    if x == 1.0:
        raise DomainError("the displayed phi-combination has a pole at x = 1")
    a = (5.0 + 2.0 * SQRT5) / 125.0
    second = a * x * x if squared_second_arg else a * x
    return _j50_numerator(x) / (25000.0 * (x - 1.0)) \
        * (-_phi(a * x, ctx) + x * _phi(second, ctx))


def j_integral_phi_partial_fraction(x: float,
                                    ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """The phi-combination obtained by splitting 1/(t^2+250t+3125) over its
    roots rho = -125 +- 50 sqrt5:
    (3 x^(8/3)/25000) (phi(x/rho1) - (rho1/rho2) phi(x/rho2)) / (1 - rho1/rho2)."""
    rho1 = -125.0 + 50.0 * SQRT5
    rho2 = -125.0 - 50.0 * SQRT5
    ratio = rho1 / rho2
    return _j50_numerator(x) / 25000.0 \
        * (_phi(x / rho1, ctx) - ratio * _phi(x / rho2, ctx)) / (1.0 - ratio)


def eta_quotient_nome_of(w: float) -> float:
    """q in (0, 1) with u(q) = w (u is decreasing), for every positive finite
    w: e^(-pi s) at s = _eta_quotient_index(ln w), about |ln q| ulps off
    (9.5 ulps at w = 1250, where ln q = -7.1)."""
    if not 0.0 < w < math.inf:
        raise DomainError(f"eta-quotient values are positive and finite, got {w}")
    return math.exp(-math.pi * _eta_quotient_index(math.log(w)))


def _eta_quotient_index(log_w: float) -> float:
    """s > 0 with ln u(e^(-pi s)) = log_w, to the last bit, for every finite
    log_w, also where w or q is not a double.  Newton on
    ln u(e^(-pi sigma)) - W in sigma >= 2/sqrt5, the fixed point of the
    Fricke involution u(s) u(4/(5s)) = 125: W = log_w and s = sigma at
    w >= sqrt125, and W = ln(125/w), s = 4/(5 sigma) below.  The slope is
    pi (1 + 6 L(p) - 30 L(p^5)) at p = e^(-pi sigma) <= 0.06 by the Lambert
    sum L, whose walks give ln u as well; there 6 (ln f(-p) - ln f(-p^5)) lies
    in (-0.42, 0), so ln u lies within 0.42 below pi sigma: the bracket."""
    log_125 = 3.0 * math.log(5.0)
    mirrored = 2.0 * log_w < log_125
    target = log_125 - log_w if mirrored else log_w

    def fdf(sigma: float) -> tuple[float, float]:
        log_p = -math.pi * sigma
        lambert, log_f = lambert_sum(math.exp(log_p))
        lambert5, log_f5 = lambert_sum(math.exp(5.0 * log_p))
        return (6.0 * (log_f - log_f5) - log_p - target,
                math.pi * (1.0 + 6.0 * lambert - 30.0 * lambert5))

    # ln u = pi sigma - 6 p + O(p^2): one fixed-point step of that for the start
    lo, hi = max(target / math.pi, 2.0 / SQRT5), (target + 0.42) / math.pi
    start = (target + 6.0 * math.exp(-target - 6.0 * math.exp(-target))) / math.pi
    sigma = newton_root(fdf, lo, hi, min(max(start, lo), hi), _FULL_PRECISION)
    return 0.8 / sigma if mirrored else sigma


# ---------------------------------------------------------------------------
# Trigonometric modular family

def trig_modular(R: float) -> float:
    """m(R) = sin^2(pi / (2(R+1))): the singular value of the
    sqrt(arcsin sqrt(x)) base."""
    if not R > 0.0:
        raise DomainError(f"need R > 0, got {R}")
    return math.sin(math.pi / (2.0 * (R + 1.0))) ** 2


def arcsin_ratio_root(r: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """Example 4's s in (0, 1) with arcsin(1-s) = r arcsin(s) (Eqs 62-63), by
    Brent over [1e-15, 1 - 1e-15]; r outside (0, inf) is a DomainError."""
    if not 0.0 < r < math.inf:
        raise DomainError(f"need 0 < r < inf, got {r}")
    return find_root(lambda v: math.asin(1.0 - v) - r * math.asin(v),
                     1e-15, 1.0 - 1e-15, ctx)


def psi_arcsin_ratio(x: float) -> float:
    """sqrt(arcsin(sqrt(1-x)) / arcsin(sqrt(x))): the base ratio whose root
    is trig_modular, for x in (0, 1]."""
    if not 0.0 < x <= 1.0:
        raise DomainError(f"need 0 < x <= 1, got {x}")
    return math.sqrt(math.asin(math.sqrt(1.0 - x)) / math.asin(math.sqrt(x)))


# ---------------------------------------------------------------------------
# The arcsin-series pi formula

def pi_formula_partial_sum(R: float, terms: int) -> float:
    """Partial sum of the pi/(R+1) series: the n-th term is
    (1/4)_n (3/4)_{-n} / ((1/2)_{-n} n!) m(R)^(n+1/2) / (n+1/2), negative
    Pochhammer indices read as (a)_{-n} = 1/(a-n)_n."""
    if terms < 1:
        raise DomainError(f"need at least one term, got {terms}")
    m = trig_modular(R)
    total = 0.0
    coeff = 1.0
    for n in range(terms):
        term = coeff * m ** (n + 0.5) / (n + 0.5)
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
        # term ratio, unreduced: (1/4)_{n+1} = (1/4)_n (n+1/4), and
        # (a)_{-n-1} = (a)_{-n} / (a-n-1) for a = 3/4 and 1/2
        coeff *= (0.25 + n) * (0.5 - n - 1.0) / ((0.75 - n - 1.0) * (n + 1.0))
    return total
