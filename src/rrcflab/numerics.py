"""Numerical policy shared by every kernel: precision context, series
summation with tail control, bracketed root finding, and Richardson-refined
central differences.

All operations are pure; contexts are immutable and freely shareable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

MACHINE_EPS = math.ulp(1.0)
# Base step of differentiate's central differences, relative to max(1, |x|):
# the cube root of the machine epsilon balances truncation and rounding.
FD_STEP = MACHINE_EPS ** (1.0 / 3.0)


class KernelError(Exception):
    """Base class for numerical-kernel failures."""


class DomainError(KernelError, ValueError):
    """Argument outside the domain an operation supports."""


class BracketError(KernelError):
    """Root bracket has no sign change."""


class ConvergenceError(KernelError):
    """Iteration or level cap hit before the requested accuracy.

    ``best`` carries the last estimate, ``gap`` the last observed change,
    so callers can still salvage a value when a diagnostic is all they need.
    """

    def __init__(self, message: str, best=None, gap=None):
        super().__init__(message)
        self.best = best
        self.gap = gap


class SeriesDivergenceError(ConvergenceError):
    """Series failed its tail criterion within the term cap."""


@dataclass(frozen=True)
class PrecisionContext:
    """Numerical budget threaded through every operation.

    eps_rel/eps_abs form the linear tolerance eps_rel*|scale| + eps_abs used
    by series tails, quadrature level agreement and root brackets.
    """

    eps_rel: float = 1e-12
    eps_abs: float = 1e-15
    max_series_terms: int = 2000
    max_quad_levels: int = 10
    max_root_iters: int = 200

    def __post_init__(self):
        if not (self.eps_rel > 0.0 and self.eps_abs > 0.0):
            raise DomainError("eps_rel and eps_abs must be positive")
        if min(self.max_series_terms, self.max_quad_levels, self.max_root_iters) < 1:
            raise DomainError("iteration caps must be at least 1")

    def tol(self, scale: float = 1.0) -> float:
        return self.eps_rel * abs(scale) + self.eps_abs

    def with_eps(self, eps_rel: float, eps_abs: float | None = None) -> "PrecisionContext":
        return replace(self, eps_rel=eps_rel,
                       eps_abs=self.eps_abs if eps_abs is None else eps_abs)


DEFAULT_CTX = PrecisionContext()


class SeriesSum(NamedTuple):
    value: complex
    terms: int


def sum_series(term: Callable[[int], complex],
               ctx: PrecisionContext = DEFAULT_CTX) -> SeriesSum:
    """Sum term(0) + term(1) + ... until the tail criterion holds.

    Stops once two consecutive terms satisfy |t_n| <= eps_rel*|S| + eps_abs
    (two, so that series with interleaved zero terms are not cut early).
    Raises SeriesDivergenceError, carrying the partial sum, at the term cap.
    """
    total = 0.0 + 0.0j
    small_run = 0
    for n in range(ctx.max_series_terms):
        t = complex(term(n))
        if not (math.isfinite(t.real) and math.isfinite(t.imag)):
            raise DomainError(f"series term {n} is not finite: {t!r}")
        total += t
        if abs(t) <= ctx.tol(abs(total)):
            small_run += 1
            if small_run >= 2:
                return SeriesSum(total, n + 1)
        else:
            small_run = 0
    raise SeriesDivergenceError(
        f"series did not converge within {ctx.max_series_terms} terms",
        best=total, gap=abs(t))


def find_root(f: Callable[[float], float], lo: float, hi: float,
              ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """Brent-style bracketed root finder for callers without a derivative.

    Inverse quadratic / secant steps with a bisection fallback, so
    convergence is guaranteed on any sign-changing bracket.  Both bracket
    ends are evaluated; a bracket without a sign change is a BracketError.
    """
    a, b = float(lo), float(hi)
    fa, fb = f(a), f(b)
    if not (math.isfinite(fa) and math.isfinite(fb)):
        raise DomainError(f"f not finite on bracket endpoints [{lo}, {hi}]")
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise BracketError(f"no sign change on [{lo}, {hi}]: f={fa:.3g},{fb:.3g}")

    c, fc = a, fa
    d = e = b - a
    for _ in range(ctx.max_root_iters):
        if fb * fc > 0.0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 0.5 * (ctx.eps_rel * abs(b) + ctx.eps_abs) + 2.0 * MACHINE_EPS * abs(b)
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = xm
                e = d
        else:
            d = xm
            e = d
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = f(b)
    raise ConvergenceError(
        f"root finder hit iteration cap ({ctx.max_root_iters})",
        best=b, gap=abs(c - b))


def newton_root(fdf: Callable[[float], tuple[float, float]], lo: float, hi: float,
                x0: float, ctx: PrecisionContext = DEFAULT_CTX,
                xtol: float | None = None) -> float:
    """Safeguarded Newton iteration on a bracket (Numerical Recipes rtsafe,
    section 9.4).

    fdf(x) returns (f(x), f'(x)) for an increasing f with f(lo) < 0 < f(hi)
    known from analysis, so the bracket ends are never evaluated.  The start
    x0 is evaluated even when it sits on a bracket end.  Each evaluation
    narrows the bracket; a Newton step that would leave it, or that is not
    at most half the step before it, becomes a bisection.  Stops when a step
    is within xtol (default ctx.tol(x), the relative rule; a search in a log
    coordinate passes an absolute one).  Closing on a bracket end that was
    never evaluated costs one more evaluation, and a Newton estimate beyond
    that end means the analysis was wrong: BracketError.  Raises
    ConvergenceError after ctx.max_root_iters evaluations.
    """
    lo, hi, x = float(lo), float(hi), float(x0)
    if not lo <= x <= hi:
        raise DomainError(f"start {x0} outside the bracket [{lo}, {hi}]")
    lo_seen = hi_seen = False
    step = hi - lo
    for _ in range(ctx.max_root_iters):
        f, df = fdf(x)
        if not math.isfinite(f):
            raise DomainError(f"f not finite at x={x}")
        if f == 0.0:
            return x
        if f < 0.0:
            lo, lo_seen = x, True
        else:
            hi, hi_seen = x, True
        newton = f / df if 0.0 < df < math.inf else math.inf
        if x - newton == x:
            # the Newton step is below half an ulp of x: x is the root to
            # the last bit (x is also a bracket end now, so the test below
            # would take the step for one that leaves the bracket)
            return x
        if lo < x - newton < hi and 2.0 * abs(newton) <= abs(step):
            step = newton
            x_new = x - step
        else:
            step = 0.5 * (hi - lo)
            x_new = lo + step
        tol = ctx.tol(x_new) if xtol is None else xtol
        if abs(step) <= tol or x_new == x:
            if (not lo_seen and x_new - lo <= tol) or (not hi_seen and hi - x_new <= tol):
                # closing on an end that was never evaluated: one more
                # Newton estimate tells a root next to it from one beyond it
                f, df = fdf(x_new)
                if 0.0 < df < math.inf:
                    guess = x_new - f / df
                else:
                    guess = x_new - math.copysign(math.inf, f)
                if f != 0.0 and not lo - tol <= guess <= hi + tol:
                    raise BracketError(f"no root inside [{lo}, {hi}]: the iteration "
                                       f"closed on an end that was never evaluated")
            return x_new
        x = x_new
    raise ConvergenceError(
        f"root finder hit iteration cap ({ctx.max_root_iters})",
        best=x, gap=abs(step))


def expand_bracket(f: Callable[[float], float], lo: float, hi: float,
                   grow: float = 2.0, max_doublings: int = 60) -> tuple[float, float]:
    """Grow [lo, hi] geometrically upward until f changes sign across it.

    Helper for inversions whose natural domain is (0, inf) with a known
    monotone direction.  lo is held fixed; hi is multiplied by ``grow``.
    """
    flo = f(lo)
    if flo == 0.0:
        return lo, lo
    for _ in range(max_doublings):
        fhi = f(hi)
        if fhi == 0.0 or flo * fhi < 0.0:
            return lo, hi
        hi *= grow
    raise BracketError(f"no sign change found up to hi={hi:.3g}")


class Derivative(NamedTuple):
    value: float
    error: float


def differentiate(f: Callable[[float], float], x: float,
                  ctx: PrecisionContext = DEFAULT_CTX) -> Derivative:
    """Central difference with one Richardson refinement, at the step
    FD_STEP * max(1, |x|) and its half.

    Returns the refined value and an error estimate (the Richardson
    correction plus a roundoff floor).
    """
    h = FD_STEP * max(1.0, abs(x))
    try:
        samples = [f(x + h), f(x - h), f(x + 0.5 * h), f(x - 0.5 * h)]
    except KernelError:
        raise
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise DomainError(f"f raised {exc!r} while differentiating near x={x}") from exc
    if not all(math.isfinite(v) for v in samples):
        raise DomainError(f"non-finite sample while differentiating near x={x}")
    d1 = (samples[0] - samples[1]) / (2.0 * h)
    d2 = (samples[2] - samples[3]) / h
    value = (4.0 * d2 - d1) / 3.0
    scale = max(abs(v) for v in samples)
    error = abs(d2 - d1) / 3.0 + 4.0 * MACHINE_EPS * scale / h
    return Derivative(value, error)
