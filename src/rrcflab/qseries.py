"""q-side kernels: the q-Pochhammer product f(-q) = prod (1 - q^n), the
Dedekind eta function on the imaginary axis, the Rogers-Ramanujan continued
fraction R(q), the sixth-power eta quotient u(q) = R^-5 - 11 - R^5, and the
closed-form derivative of R.

All products are evaluated as log sums, plain loops of math.log1p, so values
near q -> 1 degrade gracefully instead of underflowing mid-product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .numerics import DEFAULT_CTX, DomainError, PrecisionContext
from .special import elliptic_k

# R(q) climbs from 0 to (sqrt(5)-1)/2 as q runs over (0, 1).
GOLDEN_CONJUGATE = 0.5 * (math.sqrt(5.0) - 1.0)


@dataclass(frozen=True)
class Nome:
    """Real nome q in (0, 1); constructors cover the q = exp(-pi sqrt(r))
    convention and its squared variant exp(-2 pi sqrt(r))."""

    q: float

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise DomainError(f"nome must lie in (0, 1), got {self.q}")

    @classmethod
    def from_r(cls, r: float) -> "Nome":
        if r <= 0.0:
            raise DomainError(f"need r > 0, got {r}")
        return cls(math.exp(-math.pi * math.sqrt(r)))

    @classmethod
    def from_r_squared(cls, r: float) -> "Nome":
        if r <= 0.0:
            raise DomainError(f"need r > 0, got {r}")
        return cls(math.exp(-2.0 * math.pi * math.sqrt(r)))

    @property
    def r(self) -> float:
        return (math.log(self.q) / math.pi) ** 2

    def squared(self) -> "Nome":
        return Nome(self.q * self.q)


def _as_q(q: "Nome | float") -> float:
    if isinstance(q, Nome):
        return q.q
    qf = float(q)
    if not (0.0 < qf < 1.0):
        raise DomainError(f"nome must lie in (0, 1), got {q}")
    return qf


@lru_cache(maxsize=65536)
def _log_qpochhammer(q: float) -> float:
    """ln prod_{n>=1} (1 - q^n).

    Direct truncated sum (cut once q^N / (1-q) < 1e-17), at most 25 terms,
    for q <= 0.2; above that the product is pushed through the eta modular
    inversion
    ln f(-e^(-2 pi y)) = pi y/12 - ln(y)/2 - pi/(12 y) + ln f(-e^(-2 pi/y)),
    whose image nome is below 3e-11, so every q in (0, 1) costs a short sum.
    """
    if q == 0.0:
        return 0.0  # empty product; reached when a power of q underflows
    if q >= 1.0:
        return -math.inf  # nome rounded onto 1; the product vanishes there
    if q > 0.2:
        y = -math.log(q) / (2.0 * math.pi)
        image = math.exp(-2.0 * math.pi / y)
        return (math.pi * y / 12.0 - 0.5 * math.log(y)
                - math.pi / (12.0 * y) + _log_qpochhammer(image))
    n_terms = max(int(math.ceil(math.log(1e-17 * (1.0 - q)) / math.log(q))), 1)
    # q^n by repeated products: exp(n ln q) would carry the rounding of ln q,
    # |ln q| ulps, into the leading term, 1e-14 relative at q = 1e-100.
    total = 0.0
    power = q
    for _ in range(n_terms):
        total += math.log1p(-power)
        power *= q
    return total


def ramanujan_f(q: "Nome | float") -> float:
    """f(-q) = prod_{n>=1} (1 - q^n); lies in (0, 1) for q in (0, 1).

    Underflows to 0.0 for q beyond ~0.998 (the log of the product passes
    -745); integrand wrappers that drive q -> 1 use ramanujan_f_log.
    """
    return math.exp(ramanujan_f_log(q))


def ramanujan_f_log(q: "Nome | float") -> float:
    return _log_qpochhammer(_as_q(q))


def dedekind_eta(t: float) -> float:
    """eta(i t) = exp(-pi t / 12) f(-exp(-2 pi t)) for t > 0."""
    if t <= 0.0:
        raise DomainError(f"dedekind_eta needs t > 0, got {t}")
    return math.exp(-math.pi * t / 12.0 + _log_qpochhammer(math.exp(-2.0 * math.pi * t)))


def eta_quarter_integrand(t: float) -> float:
    """eta(i t / 2)^4 = exp(-pi t / 6) f(-exp(-pi t))^4, the tail integrand
    of the eta-quotient integrals; bounded by exp(-pi t / 6)."""
    return math.exp(-math.pi * t / 6.0 + 4.0 * _log_qpochhammer(math.exp(-math.pi * t)))


@lru_cache(maxsize=65536)
def _rrcf_cached(q: float) -> float:
    # The float 0.2 exceeds 1/5 by 1.1e-17, so q ** 0.2 is |ln q| * 1.1e-17
    # off in relative terms (8e-15 at q = 1e-300): one Newton step on
    # x^5 = q removes that.  Dividing by q^(1/5), not subtracting its log,
    # keeps the rounding of ln q^(1/5) out of kappa ~ q^(-1/5).
    fifth = q ** 0.2
    fifth -= (fifth - q / fifth ** 4) / 5.0
    kappa = math.exp(_log_qpochhammer(fifth) - _log_qpochhammer(q ** 5)) / fifth
    # Positive root of R^2 + (kappa + 1) R - 1 = 0; the conjugate root is
    # negative, so this is the branch with R in (0, (sqrt(5)-1)/2).
    s = kappa + 1.0
    return 2.0 / (s + math.hypot(s, 2.0))


def rrcf(q: "Nome | float") -> float:
    """Rogers-Ramanujan continued fraction via the eta-quotient relation
    1/R - 1 - R = f(-q^(1/5)) / (q^(1/5) f(-q^5)).

    This is the primary path; rrcf_cf_oracle is the independent check.
    """
    return _rrcf_cached(_as_q(q))


def rrcf_cf_oracle(q: "Nome | float", depth: int) -> float:
    """Depth-truncated continued fraction q^(1/5)/(1+ q/(1+ q^2/(1+ ...))),
    evaluated bottom-up; independent of the eta-quotient path."""
    if depth < 1:
        raise DomainError(f"depth must be >= 1, got {depth}")
    qf = _as_q(q)
    acc = 1.0
    for n in range(depth, 0, -1):
        acc = 1.0 + qf ** n / acc
    return qf ** 0.2 / acc


def u_of_q(q: "Nome | float") -> float:
    """u(q) = f(-q)^6 / (q f(-q^5)^6) = 1/R^5 - 11 - R^5.

    Strictly decreasing; blows up like 1/q near 0 and vanishes as q -> 1.
    """
    qf = _as_q(q)
    return math.exp(u_of_q_log(qf))


def u_of_q_log(q: "Nome | float") -> float:
    qf = _as_q(q)
    return 6.0 * _log_qpochhammer(qf) - math.log(qf) - 6.0 * _log_qpochhammer(qf ** 5)


def u_from_r_power(q: "Nome | float") -> float:
    """The R-power side 1/R^5 - 11 - R^5 of the same quantity, used to
    cross-check the eta-quotient form."""
    r = rrcf(q)
    r5 = r ** 5
    return 1.0 / r5 - 11.0 - r5


def rrcf_derivative(q: "Nome | float") -> float:
    """R'(q) = q^(-5/6) f(-q)^4 R(q) u(q)^(1/6) / 5; positive on (0, 1)."""
    qf = _as_q(q)
    log_val = (-5.0 / 6.0) * math.log(qf) + 4.0 * _log_qpochhammer(qf) \
        + u_of_q_log(qf) / 6.0
    return 0.2 * math.exp(log_val) * _rrcf_cached(qf)


def _check_consistent_pair(k: float, q: float, ctx: PrecisionContext) -> None:
    if not (0.0 < k < 1.0):
        raise DomainError(f"modulus must lie in (0, 1), got {k}")
    kprime = math.sqrt((1.0 - k) * (1.0 + k))
    q_from_k = math.exp(-math.pi * elliptic_k(kprime) / elliptic_k(k))
    if abs(q_from_k - q) > 1e-8 * q + ctx.eps_abs:
        raise DomainError(
            f"(k, q) inconsistent: k={k} implies q={q_from_k}, got {q}")


def dq_dk(k: float, q: "Nome | float", ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """-q pi^2 / (2 k k'^2 K(k)^2), as stated; the map k -> q is in fact
    increasing, so the sign convention is recorded by the harness rather
    than silently corrected here."""
    qf = _as_q(q)
    _check_consistent_pair(k, qf, ctx)
    kp2 = (1.0 - k) * (1.0 + k)
    return -qf * math.pi ** 2 / (2.0 * k * kp2 * elliptic_k(k) ** 2)


def dr_dk(k: float, q: "Nome | float", ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """-(1/5) 2^(1/3) (k k')^(-2/3) R(q) u(q)^(1/6): carries the same sign
    convention as dq_dk, so the chain rule R'(q) dq/dk = dR/dk closes."""
    qf = _as_q(q)
    _check_consistent_pair(k, qf, ctx)
    kprime = math.sqrt((1.0 - k) * (1.0 + k))
    u6 = math.exp(u_of_q_log(qf) / 6.0)
    return -0.2 * 2.0 ** (1.0 / 3.0) * (k * kprime) ** (-2.0 / 3.0) * rrcf(qf) * u6
