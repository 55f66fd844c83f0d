"""Singular moduli, the Klein j-invariant, the inverse functions of the
continued-fraction and eta-tail integrals, Beta-ratio singular-value
solvers, the sextic solver with its two independent evaluation paths, the
change-of-base procedure, and the trigonometric modular family.

Nome conventions are the single largest source of silent error in this
area, so every operation states which one it uses: `from_r` is
q = exp(-pi sqrt(r)); the sextic/derivative identities live on the squared
nome exp(-2 pi sqrt(r)).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .numerics import (DEFAULT_CTX, MACHINE_EPS, DomainError, KernelError,
                       PrecisionContext, differentiate, find_root, newton_root)
from .quadrature import ExponentialDecay, integrate_finite, integrate_to_infinity
from .report import CheckResult, compare
from .special import (BetaBase, appell_f1, complete_beta, elliptic_k,
                      elliptic_k_complementary, gauss_2f1, incomplete_beta)
from .qseries import (GOLDEN_CONJUGATE, Nome, dedekind_eta,
                      eta_quarter_integrand, u_of_q, u_of_q_log)


class ConsistencyError(KernelError):
    """Two supposedly equal internal routes disagreed."""


# The quarter-modulus branch point: j as a function of t = k^2 attains its
# minimum 1728 at t = (3 - 2 sqrt 2)^2 = 1/(17 + 12 sqrt 2) (a sum, where
# 17 - 12 sqrt 2 would cancel three digits); real instances need j > 1728.
_T_RIDGE = 1.0 / (17.0 + 12.0 * math.sqrt(2.0))
SQRT5 = math.sqrt(5.0)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_LN2 = math.log(2.0)
# Theta-series terms below an eighth of an ulp of 1 no longer change a sum
# that starts at 1.
_THETA_CUT = sys.float_info.epsilon / 8.0
# Bracket of the logit w = ln(x/(1-x)) searches: x from about 4e-322 up to
# 1 - 2.3e-16, past which 1/(1 + e^-w) rounds to 1.
_LOGIT_MIN, _LOGIT_MAX = -740.0, 36.0
# The quarter-modulus search resolves its root to the last bit.
_FULL_PRECISION = DEFAULT_CTX.with_eps(MACHINE_EPS, MACHINE_EPS)
# Interior points on which theorem6_base_change tests the base ratio.
_MONOTONE_GRID = 9


def _logistic(w: float) -> float:
    """1/(1 + e^-w), formed from the smaller of x and 1-x so that a root next
    to 1 rounds to the nearest float as well as one next to 0."""
    e = math.exp(-abs(w))
    tail = e / (1.0 + e)
    return 1.0 - tail if w > 0.0 else tail


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


def singular_modulus(r: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """The unique k in (0, 1) with K(k')/K(k) = sqrt(r), as theta2^2/theta3^2
    at the nome e^(-pi sqrt r) (at the reciprocal index when r < 1): a few
    terms of each theta series, full double precision whatever ctx asks,
    no root finding."""
    return _singular_modulus_pair(r)[0]


def klein_j_from_quarter_modulus(t: float, one_minus_t: float | None = None) -> float:
    """16 (1 + 14 t + t^2)^3 / (t (1-t)^4) with t the squared modulus at the
    quadrupled index; pass one_minus_t when t is close to 1 and the
    complement is known exactly."""
    omt = (1.0 - t) if one_minus_t is None else one_minus_t
    if t <= 0.0 or omt <= 0.0:
        raise DomainError(f"quarter-modulus argument out of (0, 1): t={t}")
    return 16.0 * (1.0 + 14.0 * t + t * t) ** 3 / (t * omt ** 4)


def klein_j_from_lambda(lam: float, one_minus_lam: float | None = None) -> float:
    """256 (lam^2 - lam + 1)^3 / (lam^2 (1-lam)^2), the lambda-line form at
    lam = k_r^2; symmetric under lam -> 1 - lam."""
    oml = (1.0 - lam) if one_minus_lam is None else one_minus_lam
    if lam <= 0.0 or oml <= 0.0:
        raise DomainError(f"lambda argument out of (0, 1): {lam}")
    return 256.0 * (lam * lam - lam + 1.0) ** 3 / (lam * lam * oml * oml)


@lru_cache(maxsize=4096)
def _klein_j_cached(r: float) -> float:
    # j > e^(2 pi sqrt r), so past this bound j overflows; checked before the
    # moduli, whose own underflow error only comes past r ~ 5.1e4
    if 2.0 * math.pi * math.sqrt(r) < _LOG_FLOAT_MAX:
        k4r, k4r_p = _singular_modulus_pair(4.0 * r)
        z = (k4r_p * k4r_p / (4.0 * k4r)) ** 2
        j = 256.0 * (1.0 + z) * (1.0 + 1.0 / z) ** 2
        if j < math.inf:
            return j
    raise DomainError(f"klein_j overflows a float at max(r, 1/r) = {r}")


def klein_j(r: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """j-invariant at index r (1728 at r = 1), with j(r) = j(1/r) putting
    the index at r >= 1.  It is the quarter-modulus form at t = k_4r^2,
    16 (1+14t+t^2)^3 / (t (1-t)^4), written in z = (1-t)^2/(16t) =
    (k'_4r^2 / (4 k_4r))^2 as 256 (1+z)(1+1/z)^2, which neither cancels nor
    overflows before j does; _quarter_modulus inverts the same relation.  The
    moduli are theta series at the nome e^(-2 pi sqrt r) <= e^(-2 pi), so j
    has full double precision whatever ctx asks, with no root finding.
    j ~ e^(2 pi sqrt r) overflows a float past max(r, 1/r) ~ 1.27e4:
    DomainError.  The registry checks j against the lambda-line form and
    the level-5 Hauptmodul."""
    if not r > 0.0:
        raise DomainError(f"klein_j needs r > 0, got {r}")
    return _klein_j_cached(float(max(r, 1.0 / r)))


# ---------------------------------------------------------------------------
# The integrals inverted by F, m, G, theta

def rr_integrand(x: float) -> float:
    """1 / (x (x^-5 - 11 - x^5)^(1/6)), written as
    x^(-1/6) (1 - 11 x^5 - x^10)^(-1/6) so x -> 0 never overflows."""
    if not (0.0 < x < GOLDEN_CONJUGATE):
        raise DomainError(f"integrand defined on (0, {GOLDEN_CONJUGATE}), got {x}")
    return x ** (-1.0 / 6.0) * (1.0 - 11.0 * x ** 5 - x ** 10) ** (-1.0 / 6.0)


def _near_top(upper: float) -> bool:
    # within 1e-6 of the integrand's (GOLDEN_CONJUGATE - x)^(-1/6) blow-up
    return upper > GOLDEN_CONJUGATE - 1e-6


def rr_integral(upper: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """int_0^upper dx / (x (x^-5 - 11 - x^5)^(1/6)) for upper in the
    continued fraction's range (0, (sqrt5-1)/2)."""
    if not (0.0 < upper < GOLDEN_CONJUGATE):
        raise DomainError(f"upper limit must lie in (0, {GOLDEN_CONJUGATE})")
    return integrate_finite(rr_integrand, 0.0, upper, ctx,
                            singular_at_a=True, singular_at_b=_near_top(upper))


def _surd_weighted(t: float) -> float:
    """t times the surd integrand: t^(5/6) (125 + 22 t + t^2)^(-1/2), formed
    past t = 1 as t^(-1/6) (1 + 22/t + 125/t^2)^(-1/2), so that t^2 never
    overflows and the value underflows only with t^(-1/6)."""
    if t <= 1.0:
        return t ** (5.0 / 6.0) * (125.0 + 22.0 * t + t * t) ** -0.5
    inv = 1.0 / t
    return t ** (-1.0 / 6.0) * (1.0 + (22.0 + 125.0 * inv) * inv) ** -0.5


def surd_integrand(t: float) -> float:
    """t^(-1/6) (125 + 22 t + t^2)^(-1/2), bounded by t^(-7/6)."""
    return _surd_weighted(t) / t


def surd_tail_integral(lower: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """int_lower^inf t^(-1/6) (125 + 22 t + t^2)^(-1/2) dt.  Past t = 1 the
    substitution t = w^-6 turns the tail into
    int_0^(lower^(-1/6)) 6 (1 + 22 w^6 + 125 w^12)^(-1/2) dw: smooth, finite
    and free of overflow however large lower is."""
    if lower < 0.0:
        raise DomainError(f"lower limit must be >= 0, got {lower}")

    def far(w: float) -> float:
        w6 = w ** 6
        return 6.0 * (1.0 + (22.0 + 125.0 * w6) * w6) ** -0.5

    if lower >= 1.0:
        return integrate_finite(far, 0.0, lower ** (-1.0 / 6.0), ctx)
    # the head in its offset variable: on [lower, 1] itself, nodes within an
    # ulp of 1 would round onto it and drop out when lower is close to 1
    head = integrate_finite(lambda tau: surd_integrand(lower + tau), 0.0, 1.0 - lower,
                            ctx, singular_at_a=lower == 0.0)
    return head + integrate_finite(far, 0.0, 1.0, ctx)


def eta_tail_integral(lower: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """int_lower^inf eta(i t/2)^4 dt; the integrand is bounded by
    exp(-pi t/6), which sets the truncation point."""
    if lower < 0.0:
        raise DomainError(f"lower limit must be >= 0, got {lower}")

    def f(t: float) -> float:
        return eta_quarter_integrand(t) if t > 0.0 else 0.0

    return integrate_to_infinity(f, lower, ExponentialDecay(math.pi / 6.0), ctx)


_SURD_BASE = BetaBase(1.0 / 6.0, 2.0 / 3.0)
# The surd tail from 0 and pi times the eta tail from 0 both equal
# 4^(-1/3) B(1/6, 2/3) = 4.2065463159763627...: m's range is all of it, and
# the range of F and G, whose integrals carry a factor 1/5, is a fifth.
TAIL_TOTAL = complete_beta(_SURD_BASE) / 4.0 ** (1.0 / 3.0)
F_ARGUMENT_MAX = 0.2 * TAIL_TOTAL
# The upper bounds below are asymptotically exact (for small x they meet
# the root to within rounding), so each is padded to stay above the root
# as computed.
_BOUND_PAD = 1e-9


def _relative_to(target: float, ctx: PrecisionContext) -> PrecisionContext:
    """The context for the quadratures of a search that solves
    ln I = ln target: their absolute tolerance is eps_rel * target, so a
    tiny target is still resolved relatively."""
    return ctx.with_eps(ctx.eps_rel, max(ctx.eps_rel * target, sys.float_info.min))


def _moving_integral(slope: Callable[[float], float], full: Callable[[float], float],
                     short: Callable[[float, float], bool], ctx: PrecisionContext,
                     full_only: Callable[[float], bool] = lambda s: False
                     ) -> Callable[[float], float]:
    """s -> I(s) for an integral whose limit moves with the search coordinate
    s, carried from one root iterate to the next: I(s1) = I(s0) +
    int_{s0}^{s1} slope, where slope = dI/ds (the integrand times the
    derivative of the limit, so it does not underflow where the integrand
    alone would).

    The increment is integrated in its offset variable, int_0^d slope(a + tau),
    so nodes next to either end keep their offsets however short the step.
    The full integral is recomputed for the first point, for a step that is
    not short(a, b), for a decrease of more than half the value (the
    subtraction would cancel), and where full_only holds.
    """
    last: list[float] = []

    def value(s: float) -> float:
        if last:
            s0, i0 = last
            a, b = min(s0, s), max(s0, s)
            if a == b:
                return i0
            if short(a, b) and not full_only(b):
                inc = integrate_finite(lambda tau: slope(a + tau), 0.0, b - a, ctx)
                i1 = i0 + (inc if s > s0 else -inc)
                if i1 >= 0.5 * i0:
                    last[:] = s, i1
                    return i1
        i1 = full(s)
        last[:] = s, i1
        return i1

    return value


def _within_factor_two(a: float, b: float) -> bool:
    return b <= 2.0 * a


def _log_within_factor_two(a: float, b: float) -> bool:
    return b - a <= _LN2


def F_of_x(x: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """Inverse of upper -> int_0^upper dx/(x (x^-5-11-x^5)^(1/6)): the value
    of the continued fraction at the nome whose eta-tail integral is 5x.

    Newton on ln I = ln x in v = ln(upper).  For upper <= 1/2 the integral
    lies between 1.2 and 1.3 upper^(5/6), which bounds the root: the start
    from the lower constant sits above it.
    """
    if x == 0.0:
        return 0.0
    if x < 0.0 or x >= F_ARGUMENT_MAX:
        raise DomainError(f"argument {x} outside [0, {F_ARGUMENT_MAX})")
    qctx = _relative_to(x, ctx)

    def slope(v: float) -> float:
        u = math.exp(v)
        return u * rr_integrand(u)

    integral = _moving_integral(slope, lambda v: rr_integral(math.exp(v), qctx),
                                _log_within_factor_two, qctx,
                                lambda v: _near_top(math.exp(v)))
    log_x = math.log(x)

    def fdf(v: float) -> tuple[float, float]:
        value = integral(v)
        return math.log(value) - log_x, slope(v) / value

    # Past the top the bound is no use; start a few ulps below the top
    # instead, so that Newton still comes down on the convex ln I from the
    # right, where its steps need no safeguard.
    top = math.log(GOLDEN_CONJUGATE)
    lo = min(math.log(0.5), 1.2 * (log_x - math.log(1.3)))
    start = min(1.2 * (log_x - math.log(1.2)) + _BOUND_PAD, top + math.log1p(-1e-15))
    return math.exp(newton_root(fdf, lo, top, start, ctx, xtol=ctx.eps_rel))


def m_of_x(x: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """Inverse of m -> pi int_sqrt(m)^inf eta(i t/2)^4 dt; strictly
    decreasing in x.

    Newton on ln(pi tail(s)) = ln x in s = sqrt(m).  The integrand is at
    most exp(-pi t/6), so s <= (6/pi) ln(6/x): the start, asymptotically
    exact for small x.
    """
    if x <= 0.0 or x >= TAIL_TOTAL:
        raise DomainError(f"argument {x} outside (0, {TAIL_TOTAL})")
    qctx = _relative_to(x / math.pi, ctx)

    def slope(s: float) -> float:
        return -eta_quarter_integrand(s)

    integral = _moving_integral(slope, lambda s: eta_tail_integral(s, qctx),
                                _within_factor_two, qctx)
    log_target = math.log(x / math.pi)

    def fdf(s: float) -> tuple[float, float]:
        value = integral(s)
        return log_target - math.log(value), -slope(s) / value

    hi = 6.0 / math.pi * math.log(6.0 / x) + _BOUND_PAD
    s = newton_root(fdf, 0.0, hi, hi, ctx)
    return s * s


def G_of_x(x: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """Inverse of G -> (1/5) int_G^inf t^(-1/6)(125+22t+t^2)^(-1/2) dt.

    Newton on ln(tail) = ln(5x) in v = ln G.  The integrand is at most
    t^(-7/6), so G <= (6/(5x))^6 (the start); it is at least the full tail
    less 1.2 G^(5/6)/sqrt(125), which bounds G from below.  The registry
    checks G against F(x)^-5 - 11 - F(x)^5.
    """
    if x <= 0.0 or x >= F_ARGUMENT_MAX:
        raise DomainError(f"argument {x} outside (0, {F_ARGUMENT_MAX})")
    hi = 6.0 * math.log(1.2 / x) + _BOUND_PAD
    if hi >= _LOG_FLOAT_MAX:
        raise DomainError(f"G({x}) overflows a float")
    qctx = _relative_to(5.0 * x, ctx)

    def slope(v: float) -> float:
        return -_surd_weighted(math.exp(v))

    integral = _moving_integral(slope, lambda v: surd_tail_integral(math.exp(v), qctx),
                                _log_within_factor_two, qctx)
    log_target = math.log(5.0 * x)

    def fdf(v: float) -> tuple[float, float]:
        value = integral(v)
        return log_target - math.log(value), -slope(v) / value

    lo = 1.2 * math.log(5.0 * (F_ARGUMENT_MAX - x) * math.sqrt(125.0) / 1.2) - _LN2
    return math.exp(newton_root(fdf, min(lo, hi), hi, hi, ctx, xtol=ctx.eps_rel))


def theta_of_X(X: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """b in (0, 1) with 4^(-1/3) B(b, 1/6, 2/3) equal to the surd tail from
    X; only the defining equation is used, no algebraicity is assumed.

    Newton on ln B(b) in w = ln(b/(1-b)), where dB/dw = b^(1/6)(1-b)^(2/3).
    B(b) >= 6 b^(1/6) puts (target/6)^6 above the root; when that is not
    below 1/2 the start comes from B(1) - B(b) ~ 1.5 (1-b)^(2/3).
    """
    if X <= 0.0:
        raise DomainError(f"theta_of_X needs X > 0, got {X}")
    target = 4.0 ** (1.0 / 3.0) * surd_tail_integral(X, ctx)
    log_target = math.log(target)
    a, b_exp = _SURD_BASE.a, _SURD_BASE.b

    def fdf(w: float) -> tuple[float, float]:
        b = _logistic(w)
        value = incomplete_beta(b, _SURD_BASE, ctx)
        slope = math.exp(a * math.log(b) + b_exp * math.log1p(-b)) / value
        return math.log(value) - log_target, slope

    small = 6.0 * (log_target - math.log(6.0))
    if small < math.log(0.5):
        start = max(small - math.log1p(-math.exp(small)), _LOGIT_MIN)
    else:
        gap = max(complete_beta(_SURD_BASE) - target, 1e-300)
        start = min(-1.5 * math.log(gap / 1.5), _LOGIT_MAX)
    return _logistic(newton_root(fdf, _LOGIT_MIN, _LOGIT_MAX, start, ctx,
                                 xtol=ctx.eps_rel))


# ---------------------------------------------------------------------------
# Sextic solver

@dataclass(frozen=True)
class SexticInstance:
    """Coefficients of b^2/(20a) + b X + a X^2 = c1 X^(5/3)."""

    a: float
    b: float
    c1: float

    def __post_init__(self):
        if self.a == 0.0 or self.b == 0.0:
            raise DomainError("sextic instance needs a != 0 and b != 0")
        if not math.isfinite(self.j):
            raise DomainError(f"derived j-invariant not finite for {self}")

    @property
    def j(self) -> float:
        return 250.0 * self.c1 ** 3 / (self.a ** 2 * self.b)

    def residual(self, X: float) -> float:
        lhs = self.b ** 2 / (20.0 * self.a) + self.b * X + self.a * X * X
        rhs = self.c1 * X ** (5.0 / 3.0)
        scale = max(abs(lhs), abs(rhs))
        return abs(lhs - rhs) / scale if scale > 0 else abs(lhs - rhs)


@dataclass(frozen=True)
class SexticSolution:
    x: float          # root of the sextic, hypergeometric/quadrature path
    t: float          # quarter-modulus square solving the j relation
    r: float          # index recovered from t via the period ratio
    k4r: float        # sqrt(t)
    x_alt: float      # same root from the eta-quotient path
    residual: float   # relative residual of the sextic at x


def _quarter_modulus(j: float) -> float:
    """The t = k_4r^2 with 16 (1+14t+t^2)^3 / (t (1-t)^4) = j at the index
    r >= 1 (the ridge (3-2 sqrt2)^2 for j <= 1728), to full precision.

    With z = (1-t)^2/(16t) the relation is the cubic (1+z)^3 = (j/256) z^2;
    its root z >= 2 gives this t (the root z < 2 is the reciprocal index).
    One find_root solves 3 ln(1+z) - 2 ln z = ln(j/256) in s = ln(z/2),
    written so that no sum cancels: 3 log1p(2 expm1(s)/3) - 2s = ln(j/1728)
    next to the ridge and s + 3 log1p(e^-s/2) = ln(j/512) past s = 1, where
    the bracket end z = j/256 takes its sign exactly and z is read off as
    (j/256) / (1 + e^-s/2)^3, which the error of s moves by only 3/(z+1) of
    it.  Then sqrt t = 1/(sqrt(4z+1) + 2 sqrt z), for any j below overflow.
    """
    if j <= 1728.0:
        return _T_RIDGE
    excess = math.log1p((j - 1728.0) / 1728.0)       # ln(j/1728)
    far = math.log(j / 512.0)                        # s at z = j/256

    def gap(s: float) -> float:
        if s <= 1.0:
            return 3.0 * math.log1p(2.0 * math.expm1(s) / 3.0) - 2.0 * s - excess
        return s - far + 3.0 * math.log1p(0.5 * math.exp(-s))

    s = find_root(gap, 0.0, far, _FULL_PRECISION)
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
    """Solve the sextic by two independent routes and keep both results.

    Both start from t = _quarter_modulus(j), the preimage at the index
    r >= 1.  Path A inverts the surd-tail integral at the hypergeometric
    argument of t (quadrature + 2F1 only).  Path B recovers r from t through
    the elliptic period ratio and evaluates the eta-quotient at the squared
    nome; paths that disagree raise ConsistencyError.  Real instances need
    j > 1728; below that the quarter-modulus square leaves (0, 1).
    """
    j = inst.j
    if j < 1728.0 * (1.0 - 1e-12):
        raise DomainError(
            f"derived j={j:.6g} < 1728: no real quarter-modulus; "
            "complex-modulus instances are rejected")
    t = _quarter_modulus(j)
    x_a = inst.b / (250.0 * inst.a) * G_of_x(hypergeometric_g_argument(t, ctx), ctx)
    k = math.sqrt(t)
    ratio = elliptic_k_complementary(k) / elliptic_k(k)
    r = ratio * ratio / 4.0
    x_b = inst.b / (250.0 * inst.a) * u_of_q(Nome.from_r_squared(r))
    sol = SexticSolution(x=x_a, t=t, r=r, k4r=k, x_alt=x_b,
                         residual=inst.residual(x_a))
    if sol.residual <= 1e-6 and abs(sol.x - sol.x_alt) <= 1e-6 * abs(sol.x):
        return sol
    raise ConsistencyError(
        f"sextic paths disagree: x={sol.x}, x_alt={sol.x_alt}, "
        f"residual={sol.residual:.3g}")


# ---------------------------------------------------------------------------
# Beta-ratio singular values and the change of base

def beta_ratio_root(base: BetaBase, r: float,
                    ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """The unique x in (0, 1) with B(1-x, base)/B(x, base) = r (the ratio is
    strictly decreasing in x).

    Newton on ln B(x) - ln B(1-x) = -ln r in w = ln(x/(1-x)), so a root
    next to 0 or 1 is resolved relatively; the derivative is
    x^a (1-x)^b / B(x) + x^b (1-x)^a / B(1-x).
    """
    if r <= 0.0:
        raise DomainError(f"ratio must be positive, got {r}")
    a, b = base.a, base.b
    log_r = math.log(r)

    def fdf(w: float) -> tuple[float, float]:
        x = _logistic(w)
        lower, upper = incomplete_beta(x, base, ctx), incomplete_beta(1.0 - x, base, ctx)
        log_x, log_1mx = math.log(x), math.log1p(-x)
        slope = (math.exp(a * log_x + b * log_1mx) / lower
                 + math.exp(b * log_x + a * log_1mx) / upper)
        return math.log(lower) - math.log(upper) + log_r, slope

    return _logistic(newton_root(fdf, _LOGIT_MIN, _LOGIT_MAX, 0.0, ctx,
                                 xtol=ctx.eps_rel))


def invert_lambda_j(j0: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """The root lam = k_r^2 in (0, 1/2] of the lambda-line j form; needs
    j0 >= 1728.  Landen's step k_4r = (1 - k'_r)/(1 + k'_r) (DLMF 19.8(ii))
    turns k_4r = sqrt(_quarter_modulus(j0)) into lam = 4 k_4r / (1 + k_4r)^2:
    full precision whatever ctx asks, for every j0 below float overflow."""
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

    Checks that fbase(1-x)/fbase(x) is monotone on a grid, solves it equal
    to sqrt(r) for alpha by one find_root (fbase has no known derivative),
    and maps alpha to r0 = (K(sqrt(1-alpha))/K(sqrt(alpha)))^2 and to the
    lambda-line j0.  Returns (alpha, r0, j0); the J.invert.* checks of the
    registry test the inversion of j.
    """
    if r <= 0.0:
        raise DomainError(f"need r > 0, got {r}")

    def ratio(x: float) -> float:
        return fbase(1.0 - x) / fbase(x)

    samples = [ratio((i + 1) / (_MONOTONE_GRID + 1)) for i in range(_MONOTONE_GRID)]
    increasing = all(b >= a for a, b in zip(samples, samples[1:]))
    decreasing = all(b <= a for a, b in zip(samples, samples[1:]))
    if not (increasing or decreasing):
        raise DomainError("base ratio is not monotone on the sampled grid")

    alpha = find_root(lambda x: ratio(x) - math.sqrt(r), 1e-12, 1.0 - 1e-12, ctx)
    r0 = (elliptic_k(math.sqrt(1.0 - alpha)) / elliptic_k(math.sqrt(alpha))) ** 2
    return alpha, r0, klein_j_from_lambda(alpha)


# ---------------------------------------------------------------------------
# Derivative identity of the eta-quotient map

def sextic_variable_of_index(r: float) -> float:
    """X(r) = u(exp(-2 pi sqrt r)): the eta-quotient sixth power on the
    squared-nome convention; increasing in r."""
    return u_of_q(Nome.from_r_squared(r))


def theorem7_derivative_check(r: float,
                              ctx: PrecisionContext = DEFAULT_CTX) -> CheckResult:
    """Compare dX/dr against pi (eta(i sqrt r)^4 / sqrt r) X^(1/6)
    sqrt(125 + 22 X + X^2).

    The magnitudes agree; the stated formula carries a minus sign while the
    map is increasing, so the signed values are recorded and the check is
    judged on |.|.
    """
    if r <= 0.0:
        raise DomainError(f"need r > 0, got {r}")
    fd = differentiate(sextic_variable_of_index, r, ctx)
    x = sextic_variable_of_index(r)
    stated = -math.pi * dedekind_eta(math.sqrt(r)) ** 4 / math.sqrt(r) \
        * x ** (1.0 / 6.0) * math.sqrt(125.0 + 22.0 * x + x * x)
    notes = (f"finite difference {fd.value:.12g} (est err {fd.error:.2g}) vs "
             f"stated {stated:.12g}; magnitudes compared, signs recorded: "
             f"fd>0, stated<0 (map is increasing in r)")
    return compare(f"T7.r={r:g}", "Theorem 7", abs(fd.value), abs(stated),
                   tolerance=1e-5, notes=notes)


# ---------------------------------------------------------------------------
# The j-integral identity and its closed forms

_J50_ARG_1 = -1.0 / (25.0 * (5.0 - 2.0 * SQRT5))
_J50_ARG_2 = -1.0 / (25.0 * (5.0 + 2.0 * SQRT5))


def j_integral_f1_form(x: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """(3 x^(8/3) / 25000) F1[8/3, 1, 1, 11/3; -x/(25(5-2 sqrt5)),
    -x/(25(5+2 sqrt5))]."""
    if x <= 0.0:
        return 0.0
    val = appell_f1(8.0 / 3.0, 1.0, 1.0, 11.0 / 3.0,
                    _J50_ARG_1 * x, _J50_ARG_2 * x, ctx)
    return 3.0 * x ** (8.0 / 3.0) / 25000.0 * complex(val).real


def _phi(z: float, ctx: PrecisionContext) -> float:
    return float(gauss_2f1(1.0, 8.0 / 3.0, 11.0 / 3.0, z, ctx))


def j_integral_phi_printed(x: float, ctx: PrecisionContext = DEFAULT_CTX,
                           squared_second_arg: bool = True) -> float:
    """The phi-combination exactly as displayed:
    3 x^(8/3) / (25000 (x-1)) [-phi(a x) + x phi(a x^2)], a = (5+2 sqrt5)/125;
    squared_second_arg=False replaces the suspected x^2 by x."""
    a = (5.0 + 2.0 * SQRT5) / 125.0
    second = a * x * x if squared_second_arg else a * x
    return 3.0 * x ** (8.0 / 3.0) / (25000.0 * (x - 1.0)) \
        * (-_phi(a * x, ctx) + x * _phi(second, ctx))


def j_integral_phi_partial_fraction(x: float,
                                    ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """The phi-combination obtained by splitting 1/(t^2+250t+3125) over its
    roots rho = -125 +- 50 sqrt5:
    (3 x^(8/3)/25000) (phi(x/rho1) - (rho1/rho2) phi(x/rho2)) / (1 - rho1/rho2)."""
    rho1 = -125.0 + 50.0 * SQRT5
    rho2 = -125.0 - 50.0 * SQRT5
    ratio = rho1 / rho2
    return 3.0 * x ** (8.0 / 3.0) / 25000.0 \
        * (_phi(x / rho1, ctx) - ratio * _phi(x / rho2, ctx)) / (1.0 - ratio)


def eta_quotient_nome_of(w: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """q in (0, 1) with u(q) = w (the eta-quotient map is decreasing)."""
    if w <= 0.0:
        raise DomainError(f"eta-quotient values are positive, got {w}")
    target = math.log(w)
    return find_root(lambda q: u_of_q_log(q) - target, 1e-8, 1.0 - 1e-12, ctx)


def j_integral_quadrature(x: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """Direct quadrature of the j-power along the inverse eta-quotient:
    int_0^x j(Y^(-1)(w))^(-1/3) dw with Y(q) = u(q^2).

    The exponent -1/3 is the one the derivative identity requires (the
    display prints +1/3).  Below w = 1e-10 the cusp asymptotic
    j^(-1/3) ~ (w/125)^(5/3) stands in for the inversion; its relative
    error there is O(w).
    """
    if not (0.0 < x <= 1.0):
        raise DomainError(f"needs 0 < x <= 1, got {x}")

    def integrand(w: float) -> float:
        if w < 1e-10:
            return (w / 125.0) ** (5.0 / 3.0)
        q_squared = eta_quotient_nome_of(w, ctx)
        r = (math.log(math.sqrt(q_squared)) / math.pi) ** 2
        return klein_j(r) ** (-1.0 / 3.0)

    return integrate_finite(integrand, 0.0, x, ctx, singular_at_a=True)


def j_integral_identity(x: float,
                        ctx: PrecisionContext = DEFAULT_CTX) -> CheckResult:
    """F1 closed form against the direct j-quadrature at the same x."""
    loose = ctx.with_eps(max(ctx.eps_rel, 1e-10), 1e-18)
    quad = j_integral_quadrature(x, loose)
    closed = j_integral_f1_form(x, ctx)
    notes = ("quadrature uses the j^(-1/3) integrand fixed by the derivative "
             "identity; the displayed +1/3 exponent does not integrate to "
             "the F1 form")
    return compare(f"Eq50.quadrature.x={x:g}", "Eqs (50)-(51) j-integral",
                   closed, quad, tolerance=1e-5, notes=notes)


# ---------------------------------------------------------------------------
# Trigonometric modular family

def trig_modular(R: float) -> float:
    """m(R) = sin^2(pi / (2(R+1))): the singular value of the
    sqrt(arcsin sqrt(x)) base."""
    if R <= 0.0:
        raise DomainError(f"need R > 0, got {R}")
    return math.sin(math.pi / (2.0 * (R + 1.0))) ** 2


def trig_modular_equation_check(R: float) -> CheckResult:
    """m(R+1) = (1 - sqrt(1 - m(R/2))) / 2."""
    lhs = trig_modular(R + 1.0)
    rhs = 0.5 * (1.0 - math.sqrt(1.0 - trig_modular(R / 2.0)))
    return compare(f"Ex5.eq67.R={R:g}", "Example 5, Eq (67)", lhs, rhs,
                   tolerance=1e-12,
                   notes="half-angle consistency of the arcsin base")


def psi_arcsin_ratio(x: float) -> float:
    """sqrt(arcsin(sqrt(1-x)) / arcsin(sqrt(x))): the base ratio whose root
    is trig_modular."""
    return math.sqrt(math.asin(math.sqrt(1.0 - x)) / math.asin(math.sqrt(x)))


# ---------------------------------------------------------------------------
# Unit-circle reformulation of the arcsin singular equation

def example4_checks(r: float, ctx: PrecisionContext = DEFAULT_CTX) -> list[CheckResult]:
    """Two records for the arcsin singular equation at index r.

    (a) Solve arcsin(1-s) = r arcsin(s); with y = i s + sqrt(1-s^2) the
    combination 2i + 1/y - y + y^-r - y^r must vanish (real and imaginary
    parts are reported separately in the notes).
    (b) The displayed construction through xi = (-i - sqrt3)/2: the claim
    t = sin(pi/(4+2r)) does solve psi(1-2t^2)/psi(t) = sqrt(r), while the
    xi-chain itself lands on sin(5 pi/(6r)); both residuals are recorded
    and the record is flagged.
    """
    if r <= 0.0:
        raise DomainError(f"need r > 0, got {r}")

    s = find_root(lambda v: math.asin(1.0 - v) - r * math.asin(v),
                  1e-15, 1.0 - 1e-15, ctx)
    y = complex(math.sqrt((1.0 - s) * (1.0 + s)), s)
    res = 2.0j + 1.0 / y - y + y ** (-r) - y ** r
    rec_a = compare(
        f"Ex4.eq63.r={r:g}", "Example 4, Eqs (62)-(63)", res, 0.0,
        tolerance=1e-10, relative=False,
        notes=(f"s={s:.15g}; residual parts re={res.real:.3g} "
               f"im={res.imag:.3g}"))

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
    rec_b = compare(
        f"Ex4.tclaim.r={r:g}", "Example 4, xi-construction and final claim",
        claim_res, 0.0, tolerance=1e-10, relative=False, flagged=True,
        notes=(f"t=sin(pi/(4+2r)) residual {claim_res:.3g} (holds); "
               f"xi-chain lands on {x_chain:.12g}=sin(5pi/(6r)) with ratio "
               f"residual {chain_res:.3g} (does not match the claim)"))
    return [rec_a, rec_b]


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


def pi_formula_check(R: float, terms: int = 200,
                     ctx: PrecisionContext = DEFAULT_CTX) -> CheckResult:
    """Partial sums against pi/(R+1) and the arcsin closed form."""
    m = trig_modular(R)
    partial = pi_formula_partial_sum(R, terms)
    target = math.pi / (R + 1.0)
    closed = 2.0 * math.asin(math.sqrt(m))
    # All coefficients reduce to the positive arcsin coefficients, so the
    # partial sums increase; the tail is a geometric-dominated arcsin tail.
    tail = m ** (terms + 0.5) / ((terms + 0.5) * (1.0 - m)) if m < 1.0 else math.inf
    notes = (f"m(R)={m:.15g}; closed arcsin form {closed:.15g}; "
             f"{terms}-term tail bound {tail:.3g}")
    return compare(f"Ex6.eq68.R={R:g}", "Example 6, Eqs (68)-(69)",
                   partial, target, tolerance=max(1e-10, 2.0 * tail / target),
                   notes=notes)
