"""Numerical integration robust to algebraic endpoint singularities and to
semi-infinite domains with declared algebraic decay.

The finite-interval engine is a tanh-sinh (double-exponential) transformed
trapezoid rule whose node offsets and weights are tabulated once per level,
the first time an integral reaches that level.  Abscissas never include the
endpoints: a node is x = a + d or b - d, d its offset from the nearer end.
Only an end at 0 takes d exactly (t**(-5/6) on (0, b) keeps full precision);
elsewhere x rounds, and a node that rounds onto its end contributes 0.

Each level halves the step and, on an analytic integrand, about doubles the
correct digits (Takahasi & Mori 1974).  A level is returned once its gap to
the level before is within tol; that gap bounds the error of the level
before, so the level returned is about tol**2/|I| accurate.  A level is
also returned, about tol accurate, when the last gaps show the doubling
and extrapolate an error within tol, and the terms at its outermost nodes
inside the interval are within tol as well (after Bailey, Jeyabalan & Li
2005); that saves the level that would only confirm it.  The test of the
outermost terms keeps a sum that stalls, because nodes next to a singular
end round onto it, from passing as converged.
"""

from __future__ import annotations

import math
from typing import Callable

from .numerics import (DEFAULT_CTX, ConvergenceError, DomainError, KernelError,
                       PrecisionContext)

# Beyond |t| = 5 the transformed weights are below 1e-100 even against a
# (x-a)**(-5/6) endpoint blow-up, so nothing integrable contributes.
_T_MAX = 5.0


class QuadratureError(ConvergenceError):
    """Level cap reached without the levels agreeing."""


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


# Levels past level 0, each halving the step, before QuadratureError.
MAX_QUAD_LEVELS = 10
# The node table of each level, None until an integral first reaches it:
# all 5,121 nodes take a few ms to build, and most commands never integrate.
# A plain list filled in place, not an lru_cache, so that clearing the
# kernels' caches does not throw the tables away.
_TABLES: list[tuple[tuple[float, float], ...] | None] = [None] * (MAX_QUAD_LEVELS + 1)


def _table(level: int) -> tuple[tuple[float, float], ...]:
    """The node table of one level, built and stored on first use."""
    table = _TABLES[level]
    if table is None:
        table = _TABLES[level] = _level_table(level)
    return table


def _edge_term(f: Callable[[float], float | complex], a: float, b: float,
               half: float, nodes: tuple[tuple[float, float], ...]) -> float:
    """|w f| at the outermost node of one level's table that lies inside
    (a, b), summed over both ends: the size of the terms the sum stops at.

    Offsets fall along a table, so the last node that does not round onto
    its end is found by bisection, and f is evaluated there once per end.
    """
    term = 0.0
    for end, sign in ((b, -1.0), (a, 1.0)):
        lo, hi = 0, len(nodes)   # nodes[:lo] are inside (a, b), nodes[hi:] are not
        while lo < hi:
            mid = (lo + hi) // 2
            if a < end + sign * (half * nodes[mid][0]) < b:
                lo = mid + 1
            else:
                hi = mid
        if lo:
            off, w = nodes[lo - 1]
            term += abs(w * f(end + sign * (half * off)))
    return term


def _doubled(gap: float, prev_gap: float, total: float | complex) -> bool:
    """The relative gap is at most the 3/2 power of the one before it:
    the correct digits about doubled from one level to the next."""
    return gap * math.sqrt(abs(total)) <= prev_gap * math.sqrt(prev_gap)


def integrate_finite(f: Callable[[float], float | complex], a: float, b: float,
                     ctx: PrecisionContext = DEFAULT_CTX) -> float | complex:
    """Integrate f over (a, b) with tanh-sinh levels, to within
    tol = eps_rel*|I| + eps_abs*(b-a)/2 (the level sums are compared on the
    scale of (-1, 1)).  f may be real or complex; a complex sum converges on
    the complex level gap.

    Level L >= 3 is returned when its gap g_L = |T_L - T_(L-1)| is within
    tol; each level about doubles the correct digits, so its own error is
    then about tol**2/|I|.  It is also returned, with an error of about
    tol, when three tests all pass: the digits doubled over the last two
    gaps, g_L sqrt|T_L| <= g_(L-1)^(3/2), and from L = 4 on over the two
    before them too (T_0 is too coarse to compare, so g_1 is taken as
    infinite); the extrapolated error g_L^2 / g_(L-1) is within tol; and
    h_L |w f| at the outermost nodes inside (a, b), the terms the sum stops
    at, is within tol.  That saves the level that would only confirm it.
    The second doubling test keeps one lucky drop of an integrand that is
    not analytic inside (a, b), such as |t - 0.3|^2.5, whose gaps fall
    erratically, from passing as convergence; the doubling still presumes
    f analytic inside (a, b), as tanh-sinh itself does, and on an interior
    kink the early return can be off by more than tol.  The last test
    costs two evaluations and runs only when the others pass, so the
    per-node loop carries no bookkeeping.

    An integrable endpoint blow-up needs no declaration: the nodes never
    reach the endpoints, and a node whose offset is lost to rounding
    contributes 0.  Each level's sum is tested once: s - s is 0 for a
    finite sum, real or complex, and nan for one that met an inf or nan
    sample, which is a DomainError, as is a ZeroDivisionError,
    OverflowError or ValueError raised by f.  Level-cap exhaustion raises
    QuadratureError carrying the best estimate and gap.
    """
    if not (a < b):
        raise DomainError(f"need a < b, got [{a}, {b}]")
    half = 0.5 * (b - a)
    x = b - half
    try:
        # Level 0 opens with the centre node t = 0, which is its own mirror
        # image and so is sampled once.
        v = 0.0 if x <= a or x >= b else f(x)
        (_, centre_weight), *nodes = _TABLES[0] or _table(0)
        s = centre_weight * v
        prev = gap = prev_gap = math.inf
        for level in range(MAX_QUAD_LEVELS + 1):
            if level:
                nodes = _TABLES[level] or _table(level)
                s = 0.0
            for off, w in nodes:
                d = half * off
                x = b - d
                vb = 0.0 if x <= a or x >= b else f(x)
                x = a + d
                va = 0.0 if x <= a or x >= b else f(x)
                s += w * vb + w * va
            if s - s != 0:
                raise DomainError(f"integrand not finite on [{a}, {b}]")
            if level == 0:
                total = s
                continue
            total = 0.5 * total + 0.5 ** level * s
            older, prev_gap, gap = prev_gap, gap, abs(total - prev)
            prev = total
            if level >= 3:
                tol = ctx.tol(total)
                if gap <= tol or (
                        gap * gap <= tol * prev_gap
                        and _doubled(gap, prev_gap, total)
                        and _doubled(prev_gap, older, total)
                        and 0.5 ** level * _edge_term(f, a, b, half, nodes) <= tol):
                    return half * total
    except KernelError:
        raise
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise DomainError(f"integrand raised {exc!r} at x={x!r}") from exc
    raise QuadratureError(
        f"quadrature level cap ({MAX_QUAD_LEVELS}) reached on [{a}, {b}]",
        best=half * total, gap=half * gap)


def integrate_to_infinity(f: Callable[[float], float], a: float, p: float,
                          ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """Integrate f over (a, inf) given its declared algebraic decay
    f(t) ~ t**(-p) for large t, which needs p > 1 to converge.

    Map t = a + c(1-s)/s onto s in (0, 1] with c = max(|a|, 1); the image
    integrand has an s**(p-2) endpoint singularity which tanh-sinh absorbs.  The scale c keeps the image smooth
    however far out a is: with c = 1 a t**(-7/6) tail from a = 1e36 would
    sit in s < 1e-36.
    """
    if p <= 1.0:
        raise DomainError(f"algebraic decay p={p} <= 1 diverges")

    c = max(abs(a), 1.0)

    def mapped(s: float) -> float:
        return c * f(a + c * (1.0 - s) / s) / (s * s)

    return integrate_finite(mapped, 0.0, 1.0, ctx)


def integrate_complex(f: Callable[[float], complex], a: float, b: float,
                      ctx: PrecisionContext = DEFAULT_CTX) -> complex:
    """integrate_finite of a complex-valued f, returned as a complex."""
    return complex(integrate_finite(f, a, b, ctx))
