"""q-side kernels: the q-Pochhammer product f(-q) = prod (1 - q^n), the
Dedekind eta function on the imaginary axis, the Rogers-Ramanujan continued
fraction R(q), the sixth-power eta quotient u(q) = R^-5 - 11 - R^5 (both
also at a nome given by its log), the closed-form derivative of R, and the
eta tail int_s^inf eta(i t/2)^4 dt summed term by term from its q-expansion.

Products are evaluated as logs, so values near q -> 1 degrade gracefully
instead of underflowing: ln f(-q) is the log1p of Euler's pentagonal series
for q <= 0.2 and the eta inversion of it above.  A nome is a float q in
(0, 1), and DomainError outside it.  ln u is formed in one place,
product_logs_of_log_q (cached; ln f(-q), ln f(-q^5), ln u at ln q): u and R'
read it at ln q, and a nome integral's node makes one call, to it or to
lambert_sum (the Lambert sum and ln f(-q)); R(q)^5 is rrcf_of_kappa(u + 10).
"""

from __future__ import annotations

import math
from functools import lru_cache

from .numerics import DomainError

# R(q) climbs from 0 to (sqrt(5)-1)/2 as q runs over (0, 1).
GOLDEN_CONJUGATE = 0.5 * (math.sqrt(5.0) - 1.0)


def _as_q(q: float) -> float:
    qf = float(q)
    if not (0.0 < qf < 1.0):
        raise DomainError(f"nome must lie in (0, 1), got {q}")
    return qf


_LOG_INVERSION_MIN = math.log(0.18)


@lru_cache(maxsize=65536)
def _log_qpochhammer(q: float) -> float:
    """ln prod_{n>=1} (1 - q^n).

    For q <= 0.2, log1p of Euler's pentagonal series (DLMF 27.14.4)
    f(-q) = 1 + sum_k (-1)^k (q^(k(3k-1)/2) + q^(k(3k+1)/2)), cut once
    q^(k(3k+1)/2) < 1e-17: at most 4 pairs.  Above that the eta modular
    inversion of _log_qpochhammer_at, so every q in (0, 1) costs a short sum.
    """
    if q >= 1.0:
        return -math.inf  # nome rounded onto 1; the product vanishes there
    if q > 0.2:
        return _log_qpochhammer_at(math.log(q))
    # Powers by repeated products, q^(k(3k+1)/2) = q^(k(3k-1)/2) q^k and
    # q^((k+1)(3k+2)/2) = q^(k(3k+1)/2) q^k q^(k+1): exp(g ln q) would carry
    # the rounding of ln q, |ln q| ulps, into the leading term, 1e-14
    # relative at q = 1e-100.  A q that underflows to 0 gives the empty product.
    total, sign, step, minus = 0.0, -1.0, q, q
    while True:
        plus = minus * step
        total += sign * (minus + plus)
        if not plus >= 1e-17:  # a nan q stops here too
            return math.log1p(total)
        sign = -sign
        minus = plus * step
        step *= q
        minus *= step


def _log_qpochhammer_at(log_q: float) -> float:
    """ln f(-q) at q = e^log_q.  From q = 0.18 on (below _log_qpochhammer's
    switch at 0.2, so neither hands a nome next to 0.2 back to the other) it
    is the eta inversion, taken from ln q with no rounded q:
    ln f(-e^(-2 pi y)) = pi y/12 - ln(y)/2 - pi/(12 y) + ln f(-e^(-2 pi/y)).
    There y <= ln(1/0.18)/(2 pi), so the image nome p = e^(-2 pi/y) is at
    most e^(-23) = 1e-10: the pentagonal series stops after its first pair,
    p^2 < 1e-17, and ln f(-p) = log1p(-(p + p^2)) is added inline.  Below
    0.18 the series runs uncached: product_logs_of_log_q caches its pairs."""
    if log_q < _LOG_INVERSION_MIN:
        return _log_qpochhammer.__wrapped__(math.exp(log_q))
    y = -log_q / (2.0 * math.pi)
    p = math.exp(-2.0 * math.pi / y)
    return (math.pi * y / 12.0 - 0.5 * math.log(y) - math.pi / (12.0 * y)
            + math.log1p(-(p + p * p)))


def lambert_sum(q: float) -> tuple[float, float]:
    """(L, ln f(-q)) for 0 <= q <= 0.2, L = sum_{n>=1} n q^n / (1 - q^n) =
    -d ln f(-q) / d ln q, from the pentagonal series of _log_qpochhammer (so
    ln f(-q) is its value to the bit) and the same walk of its powers:
    L = -(sum_k (-1)^k (g q^g + (g + k) q^(g + k))) / f(-q), g = k(3k-1)/2."""
    if not 0.0 <= q <= 0.2:
        raise DomainError(f"the Lambert sum is summed directly for 0 <= q <= 0.2, got {q}")
    series, weighted, sign, k, g, step, minus = 0.0, 0.0, 1.0, 1, 1, q, q
    while True:
        plus = minus * step
        series -= sign * (minus + plus)
        weighted += sign * (g * minus + (g + k) * plus)
        if plus < 1e-17:
            return weighted / (1.0 + series), math.log1p(series)
        sign = -sign
        g += 3 * k + 1
        minus = plus * step
        step *= q
        minus *= step
        k += 1


def ramanujan_f(q: float) -> float:
    """f(-q) = prod_{n>=1} (1 - q^n); lies in (0, 1) for q in (0, 1).

    Underflows to 0.0 for q beyond ~0.998 (the log of the product passes
    -745).
    """
    return math.exp(ramanujan_f_log(q))


def ramanujan_f_log(q: float) -> float:
    return _log_qpochhammer(_as_q(q))


def dedekind_eta(t: float) -> float:
    """eta(i t) = exp(-pi t / 12) f(-exp(-2 pi t)) for t > 0."""
    if not t > 0.0:
        raise DomainError(f"dedekind_eta needs t > 0, got {t}")
    return math.exp(-math.pi * t / 12.0 + _log_qpochhammer(math.exp(-2.0 * math.pi * t)))


def eta_quarter_integrand(t: float) -> float:
    """eta(i t / 2)^4 = exp(-pi t / 6) f(-exp(-pi t))^4, the tail integrand
    of the eta-quotient integrals; bounded by exp(-pi t / 6)."""
    return math.exp(-math.pi * t / 6.0 + 4.0 * _log_qpochhammer(math.exp(-math.pi * t)))


def _fourth_power_coefficients(count: int) -> tuple[int, ...]:
    """c_0..c_(count-1) of prod_{n>=1} (1 - q^n)^4 = sum c_n q^n."""
    c = [1] + [0] * (count - 1)
    for k in range(1, count):
        for _ in range(4):
            for n in range(count - 1, k - 1, -1):
                c[n] -= c[n - k]
    return tuple(c)


def _horner(coefficients: tuple[float, ...], q: float) -> float:
    acc = 0.0
    for c in reversed(coefficients):
        acc = acc * q + c
    return acc


# Every nome of the eta tail below is at most e^(-2 pi) = 0.0019, where the
# terms from n = 8 on are below 1e-20 of the first.
_ETA4 = _fourth_power_coefficients(8)
# int_s^inf eta(i t/2)^4 dt = e^(-pi s/6) sum_n _TAIL_FAR[n] e^(-pi n s).
_TAIL_FAR = tuple(c / (math.pi * (n + 1.0 / 6.0)) for n, c in enumerate(_ETA4))
# Below s = 2, eta(i t/2)^4 = (4/t^2) e^(-2 pi/(3t)) f(-e^(-4 pi/t))^4, whose
# terms integrate in u = 1/t to (4 c_n/alpha_n) e^(-alpha_n u).
_ALPHA = tuple(2.0 * math.pi / 3.0 + 4.0 * math.pi * n for n in range(len(_ETA4)))
_TAIL_NEAR = tuple(4.0 * c / a * math.exp(-0.5 * a) for c, a in zip(_ETA4, _ALPHA))
_FAR_2 = _horner(_TAIL_FAR, math.exp(-2.0 * math.pi))
_LOG_TAIL_2 = math.log(_FAR_2) - math.pi / 3.0
_TAIL_2 = math.exp(_LOG_TAIL_2)


def eta_tail_log(s: float) -> tuple[float, float]:
    """(ln T(s), eta(i s/2)^4 / T(s)): the log of the eta tail
    T(s) = int_s^inf eta(i t/2)^4 dt, s >= 0, and minus its derivative.
    From s = 2, T(s) = sum c_n e^(-pi (n + 1/6) s) / (pi (n + 1/6)); below,
    eta(i t/2) = sqrt(2/t) eta(2i/t) gives T(2) plus sum (4 c_n/alpha_n)
    e^(-alpha_n/2) (1 - e^(-alpha_n (1/s - 1/2))), alpha_n = 2 pi/3 + 4 pi n.
    Both add a log1p to ln T(2): the log does not increase across s = 2."""
    if not s >= 0.0:
        raise DomainError(f"eta tail needs s >= 0, got {s}")
    if s >= 2.0:
        q = math.exp(-math.pi * s)
        far = _horner(_TAIL_FAR, q)
        # s - 2 is exact up to s = 4, where most of the tail's range lies
        shift = math.log1p((far - _FAR_2) / _FAR_2) - math.pi * (s - 2.0) / 6.0
        return _LOG_TAIL_2 + shift, _horner(_ETA4, q) / far
    u = 1.0 / max(s, 1e-300)   # T and eta^4 are flat to the last bit below 1e-300
    near = 0.0
    for d, a in zip(_TAIL_NEAR, _ALPHA):
        near += d * -math.expm1(-a * (u - 0.5))
    log_tail = _LOG_TAIL_2 + math.log1p(near / _TAIL_2)
    root = u * math.exp(-math.pi * u / 3.0)   # eta^4 = 4 root^2 f(-e^(-4 pi u))^4
    eta4 = 4.0 * root * root * _horner(_ETA4, math.exp(-4.0 * math.pi * u))
    return log_tail, eta4 / math.exp(log_tail)


@lru_cache(maxsize=65536)
def _rrcf_cached(q: float) -> float:
    # The float 0.2 exceeds 1/5 by 1.1e-17, so q ** 0.2 is |ln q| * 1.1e-17
    # off in relative terms (8e-15 at q = 1e-300): one Newton step on
    # x^5 = q removes that.  Dividing by q^(1/5), not subtracting its log,
    # keeps the rounding of ln q^(1/5) out of kappa ~ q^(-1/5).  The
    # products run uncached: only this cache would ever look them up again.
    fifth = q ** 0.2
    fifth -= (fifth - q / fifth ** 4) / 5.0
    log_f = _log_qpochhammer.__wrapped__
    return rrcf_of_kappa(math.exp(log_f(fifth) - log_f(q ** 5)) / fifth)


def rrcf_of_kappa(kappa: float) -> float:
    """The positive root of R^2 + (kappa + 1) R - 1 = 0, 1/R - 1 - R = kappa;
    at kappa = 0 the float below GOLDEN_CONJUGATE.  R(q)^5 is the root at
    kappa = u(q) + 10, since 1/R^5 - 11 - R^5 = u."""
    s = kappa + 1.0
    return 2.0 / (s + math.hypot(s, 2.0))


def rrcf(q: float) -> float:
    """Rogers-Ramanujan continued fraction via the eta-quotient relation
    1/R - 1 - R = f(-q^(1/5)) / (q^(1/5) f(-q^5))."""
    return _rrcf_cached(_as_q(q))


def rrcf_of_log_q(log_q: float) -> float:
    """R(q) at q = e^log_q for log_q <= -1e-300 (closer to 0, pi/(12 y) in
    the eta inversion overflows), from
    ln kappa = ln f(-q^(1/5)) - ln f(-q^5) - (ln q)/5, kappa = 1/R - 1 - R,
    as in rrcf.  q itself is never formed, so R stays normal where q
    underflows (down to ln q ~ -3540), and the rounding of q, |ln q| ulps,
    stays out of R."""
    if not log_q <= -1e-300:
        raise DomainError(f"log nome must be <= -1e-300, got {log_q}")
    fifth = 0.2 * log_q
    log_kappa = _log_qpochhammer_at(fifth) - _log_qpochhammer_at(5.0 * log_q) - fifth
    if log_kappa <= 0.0:
        return rrcf_of_kappa(math.exp(log_kappa))
    # the same root in r = 1/kappa, which cannot overflow past kappa = 1
    r = math.exp(-log_kappa)
    return 2.0 * r / (1.0 + r + math.hypot(1.0 + r, 2.0 * r))


def u_of_q(q: float) -> float:
    """u(q) = f(-q)^6 / (q f(-q^5)^6) = 1/R^5 - 11 - R^5, with ln u from
    product_logs_of_log_q at ln q.

    Strictly decreasing; blows up like 1/q near 0 and vanishes as q -> 1.
    """
    try:
        return math.exp(product_logs_of_log_q(math.log(_as_q(q)))[2])
    except OverflowError:
        raise DomainError(f"u({q}) overflows a float") from None


@lru_cache(maxsize=65536)
def product_logs_of_log_q(log_q: float) -> tuple[float, float, float]:
    """(ln f(-q), ln f(-q^5), ln u) at q = e^log_q, log_q <= -1e-300 (see
    rrcf_of_log_q), each product evaluated once, ln u = 6 ln f(-q) - ln q -
    6 ln f(-q^5).  Cached whole: a warm quadrature node is one lookup."""
    if not log_q <= -1e-300:
        raise DomainError(f"log nome must be <= -1e-300, got {log_q}")
    log_f, log_f5 = _log_qpochhammer_at(log_q), _log_qpochhammer_at(5.0 * log_q)
    return log_f, log_f5, 6.0 * (log_f - log_f5) - log_q


def rrcf_derivative(q: float) -> float:
    """R'(q) = q^(-5/6) f(-q)^4 R(q) u(q)^(1/6) / 5; positive on (0, 1),
    with ln f(-q) and ln u from product_logs_of_log_q at ln q.
    R'(q) ~ q^(-4/5)/5 as q -> 0 is finite for every float q, but
    q^(-5/6) u^(1/6) alone overflows below q ~ 1e-308, so ln R joins the
    exponent."""
    qf = _as_q(q)
    log_q = math.log(qf)
    log_f, _, log_u = product_logs_of_log_q(log_q)
    return 0.2 * math.exp((-5.0 / 6.0) * log_q + 4.0 * log_f
                          + log_u / 6.0 + math.log(_rrcf_cached(qf)))
