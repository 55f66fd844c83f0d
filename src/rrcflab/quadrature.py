"""Numerical integration over finite intervals, robust to algebraic
endpoint singularities.  An integral over (0, inf) is carried onto finite
ranges by its caller (routes.quintic_surd_integral by t -> 125/t).

The engine is a tanh-sinh (double-exponential) transformed trapezoid
rule whose node offsets and weights are tabulated once per level, the
first time an integral reaches that level.  Abscissas never include the
endpoints: a node is x = a + d or b - d, d its offset from the nearer end.
Only an end at 0 takes d exactly (t**(-5/6) on (0, b) keeps full precision);
elsewhere x rounds, and a node that rounds onto its end ends the walk there.
Each end of each level is walked from the centre outwards, once per node,
and stops where its terms fall below a small share of tol past every larger
one (Mori & Sugihara 2001); finer levels walk no further out.

Each level halves the step and, on an analytic integrand, about doubles the
correct digits (Takahasi & Mori 1974).  A level is returned once its gap to
the level before is within tol; that gap bounds the error of the level
before, so the level returned is about tol**2/|I| accurate.  A level is
also returned, about tol accurate, when the last gaps show the doubling
and extrapolate an error within tol, and the last terms of its two walks
are within tol as well (after Bailey, Jeyabalan & Li 2005); that saves the
level that would only confirm it.  The test of the last terms keeps a sum
that stalls, because nodes next to a singular end round onto it, from
passing as converged: its walk ends at a term that is not small.
"""

from __future__ import annotations

import math
from typing import Callable

from .numerics import (DEFAULT_CTX, RAW_ERRORS, ConvergenceError, DomainError,
                       PrecisionContext)

# No walk goes past |t| = 5, where the weight is 2.7e-99: against a
# (x-a)**(-5/6) blow-up at an end at 0 the term there is still 3.5e-15.
_T_MAX = 5.0
# An end of a level stops after two consecutive terms h|w f| within this
# share of tol, past every larger one.  At 1/64 the tail from 1e60 moved
# by 4.3e-15; 1/1024 keeps its bits, for ten more registry evaluations.
_TAIL_SHARE = 1.0 / 1024


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

    Level L walks each end from the centre outwards, and stops that end at
    the second of two consecutive terms with h_L |w f| <= _TAIL_SHARE *
    tol(T), T the total of level L-1 (at level 0, the centre term), once
    past every larger term any level met there; finer levels take only the
    nodes inside it.  So small terms before a boundary layer, or before a
    peak that a coarser level met, do not stop it; a spike past the stop
    that no level met is lost.  A node that rounds onto its end ends the
    walk too.  More generally, a narrow feature that no node of the
    returned levels meets, inside (a, b) or past a stop, is lost with no
    error raised, since the levels agree without it: a Gaussian of width
    0.009 came back as 3.5e-24 for 0.0156.

    Level L >= 3 is returned when its gap g_L = |T_L - T_(L-1)| is within
    tol; each level about doubles the correct digits, so its own error is
    then about tol**2/|I|.  It is also returned, with an error of about
    tol, when three tests all pass: the digits doubled over the last two
    gaps, g_L sqrt|T_L| <= g_(L-1)^(3/2), and from L = 4 on over the two
    before them too (T_0 is too coarse to compare, so g_1 is taken as
    infinite); the extrapolated error g_L^2 / g_(L-1) is within tol; and
    h_L |w f| at the last node each end's walk evaluated, the terms the sum
    stops at, is within tol.  That saves the level that would only confirm
    it.  The second doubling test keeps one lucky drop of an integrand that
    is not analytic inside (a, b), such as |t - 0.3|^2.5, whose gaps fall
    erratically, from passing as convergence; the doubling still presumes
    f analytic inside (a, b), as tanh-sinh itself does, and on an interior
    kink the early return can be off by more than tol.

    An integrable endpoint blow-up needs no declaration: the nodes never
    reach the endpoints, and the walk stops at a node whose offset is lost
    to rounding.  Each level's sum is tested once: s - s is 0 for a
    finite sum, real or complex, and nan for one that met an inf or nan
    sample, which is a DomainError, as is a ZeroDivisionError,
    OverflowError or ValueError raised by f, and so are limits without
    a < b and a finite b - a.  Level-cap exhaustion raises
    QuadratureError carrying the best estimate and gap.
    """
    if not (a < b and b - a < math.inf):   # nan fails too
        raise DomainError(f"need a < b with b - a finite, got [{a}, {b}]")
    half = 0.5 * (b - a)
    x = b - half
    try:
        # Level 0 opens with the centre node t = 0, which is its own mirror
        # image and so is sampled once.
        v = 0.0 if x <= a or x >= b else f(x)
        (_, centre_weight), *nodes = _TABLES[0] or _table(0)
        total = s = centre_weight * v
        tol = ctx.tol(total)
        # Each end's walk, b's first: its end, its step, the abscissa it
        # stops at or past, the least offset of a term above the cut and
        # its last term.
        walks = [[b, -half, b, 2.0, 0.0], [a, half, a, 2.0, 0.0]]
        h = 1.0
        prev = gap = prev_gap = math.inf
        for level in range(MAX_QUAD_LEVELS + 1):
            if level:
                h *= 0.5
                nodes = _TABLES[level] or _table(level)
                s = 0.0
            cut = _TAIL_SHARE * tol / h
            for walk in walks:
                end, step, stop, far, _ = walk
                lo, hi = (a, stop) if step < 0.0 else (stop, b)
                term, near, small = 0.0, 2.0, None   # a term above the cut arms the stop
                for off, w in nodes:
                    x = end + step * off
                    if x <= lo or x >= hi:
                        break
                    term = w * f(x)
                    s += term
                    if abs(term) > cut:
                        small, near = False, off
                    elif small and off < far:
                        walk[2] = x
                        break
                    elif small is False:
                        small = True
                if near < far:
                    walk[3] = near
                walk[4] = term
            if s - s != 0:
                raise DomainError(f"integrand not finite on [{a}, {b}]")
            if level == 0:
                total = s
                tol = ctx.tol(total)
                continue
            total = 0.5 * total + h * s
            older, prev_gap, gap = prev_gap, gap, abs(total - prev)
            prev = total
            tol = ctx.tol(total)
            if level >= 3 and (gap <= tol or (
                    gap * gap <= tol * prev_gap
                    and _doubled(gap, prev_gap, total)
                    and _doubled(prev_gap, older, total)
                    and h * (abs(walks[0][4]) + abs(walks[1][4])) <= tol)):
                return half * total
    except RAW_ERRORS as exc:
        raise DomainError(f"integrand raised {exc!r} at x={x!r}") from exc
    raise QuadratureError(
        f"quadrature level cap ({MAX_QUAD_LEVELS}) reached on [{a}, {b}]",
        best=half * total, gap=half * gap)


def integrate_complex(f: Callable[[float], complex], a: float, b: float,
                      ctx: PrecisionContext = DEFAULT_CTX) -> complex:
    """integrate_finite of a complex-valued f, returned as a complex."""
    return complex(integrate_finite(f, a, b, ctx))
