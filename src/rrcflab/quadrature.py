"""Numerical integration robust to algebraic endpoint singularities and to
semi-infinite domains with declared algebraic or exponential decay.

The finite-interval engine is a tanh-sinh (double-exponential) transformed
trapezoid rule whose node offsets and weights are tabulated once per level,
at import.  Abscissas never include the endpoints, and points near an
endpoint are generated as offsets from that endpoint so that integrands like
t**(-5/6) keep full precision at x = a + offset.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

from .numerics import (DEFAULT_CTX, ConvergenceError, DomainError, KernelError,
                       PrecisionContext)

# Beyond |t| = 5 the transformed weights are below 1e-100 even against a
# (x-a)**(-5/6) endpoint blow-up, so nothing integrable contributes.
_T_MAX = 5.0


class QuadratureError(ConvergenceError):
    """Level cap reached without the levels agreeing."""


@dataclass(frozen=True)
class ExponentialDecay:
    """f(t) ~ exp(-rate*t) for large t."""
    rate: float


@dataclass(frozen=True)
class AlgebraicDecay:
    """f(t) ~ t**(-p) for large t; needs p > 1 to converge."""
    p: float


def _level_table(level: int) -> tuple[tuple[float, float], ...]:
    """(offset from the nearer endpoint of (-1, 1), weight) at t = j*h with
    h = 2**-level: j = 0..5 at level 0, where j = 0 is the centre node
    (offset 1, weight pi/2), and odd j on every finer level."""
    h = 0.5 ** level
    j, step = (1, 2) if level else (0, 1)
    table = []
    while j * h <= _T_MAX:
        u = 0.5 * math.pi * math.sinh(j * h)
        w = 0.5 * math.pi * math.cosh(j * h) / math.cosh(u) ** 2
        table.append((2.0 / (1.0 + math.exp(2.0 * u)), w))   # 1 - tanh(u), stably
        j += step
    return tuple(table)


# Levels past level 0, each halving the step, before QuadratureError; their
# node tables are built once at import (a few ms for ~5k nodes).
MAX_QUAD_LEVELS = 10
_TABLES = tuple(_level_table(level) for level in range(MAX_QUAD_LEVELS + 1))


def _tanh_sinh(f: Callable[[float], float | complex], a: float, b: float,
               ctx: PrecisionContext,
               isfinite: Callable[[float | complex], bool]) -> float | complex:
    """The level loop behind integrate_finite and integrate_complex.

    isfinite is math.isfinite or cmath.isfinite, so the sums are real or
    complex without a per-node type test.  A node at or past an endpoint
    (its offset lost to rounding) contributes 0; a non-finite sample
    anywhere is a DomainError.
    """
    if not (a < b):
        raise DomainError(f"need a < b, got [{a}, {b}]")
    half = 0.5 * (b - a)
    x = b - half
    try:
        # Level 0 opens with the centre node t = 0, which is its own mirror
        # image and so is sampled once.
        v = 0.0 if x <= a or x >= b else f(x)
        if not isfinite(v):
            raise DomainError(f"integrand not finite at x={x!r}")
        (_, centre_weight), *nodes = _TABLES[0]
        s = centre_weight * v
        prev = math.inf
        for level in range(MAX_QUAD_LEVELS + 1):
            if level:
                nodes = _TABLES[level]
                s = 0.0
            for off, w in nodes:
                d = half * off
                x = b - d
                vb = 0.0 if x <= a or x >= b else f(x)
                if not isfinite(vb):
                    raise DomainError(f"integrand not finite at x={x!r}")
                x = a + d
                va = 0.0 if x <= a or x >= b else f(x)
                if not isfinite(va):
                    raise DomainError(f"integrand not finite at x={x!r}")
                s += w * vb + w * va
            if level == 0:
                total = s
                continue
            total = 0.5 * total + 0.5 ** level * s
            gap = abs(total - prev)
            prev = total
            if level >= 3 and gap <= ctx.tol(total):
                return half * total
    except KernelError:
        raise
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise DomainError(f"integrand raised {exc!r} at x={x!r}") from exc
    raise QuadratureError(
        f"quadrature level cap ({MAX_QUAD_LEVELS}) reached on [{a}, {b}]",
        best=half * total, gap=half * gap)


def integrate_finite(f: Callable[[float], float], a: float, b: float,
                     ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """Integrate f over (a, b) with tanh-sinh levels until two successive
    levels agree within eps_rel*|I| + eps_abs.

    An integrable endpoint blow-up needs no declaration: the nodes never
    reach the endpoints.  A non-finite sample, or a ZeroDivisionError,
    OverflowError or ValueError raised by f, is a DomainError.  Level-cap
    exhaustion raises QuadratureError carrying the best estimate and gap.
    """
    return _tanh_sinh(f, a, b, ctx, math.isfinite)


def integrate_to_infinity(f: Callable[[float], float], a: float,
                          decay: ExponentialDecay | AlgebraicDecay,
                          ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """Integrate f over (a, inf) given its declared tail behaviour.

    Exponential decay: truncate at T with rate*(T-a) >= ln(1/eps_abs) plus a
    margin, then integrate the finite piece.  Algebraic decay t**(-p), p > 1:
    map t = a + c(1-s)/s onto s in (0, 1] with c = max(|a|, 1); the image
    integrand has an s**(p-2) endpoint singularity which tanh-sinh absorbs.
    The scale c keeps the image smooth however far out a is: with c = 1 a
    t**(-7/6) tail from a = 1e36 would sit in s < 1e-36.
    """
    if isinstance(decay, ExponentialDecay):
        if decay.rate <= 0.0:
            raise DomainError("exponential decay rate must be positive")
        cut = a + (math.log(1.0 / ctx.eps_abs) + 10.0) / decay.rate
        return integrate_finite(f, a, cut, ctx)
    if isinstance(decay, AlgebraicDecay):
        if decay.p <= 1.0:
            raise DomainError(f"algebraic decay p={decay.p} <= 1 diverges")

        c = max(abs(a), 1.0)

        def mapped(s: float) -> float:
            return c * f(a + c * (1.0 - s) / s) / (s * s)

        return integrate_finite(mapped, 0.0, 1.0, ctx)
    raise DomainError(f"unknown decay declaration: {decay!r}")


def integrate_complex(f: Callable[[float], complex], a: float, b: float,
                      ctx: PrecisionContext = DEFAULT_CTX) -> complex:
    """Complex-valued finite integral: one pass of integrate_finite's rule,
    one evaluation of f per node, converged on the complex level gap."""
    return complex(_tanh_sinh(f, a, b, ctx, cmath.isfinite))
