"""Numerical policy shared by every kernel: precision context, series
summation with tail control, bracketed root finding, and Richardson-refined
central differences.

The root finders stop on the bracket or the step: Brent when its bracket is
within the tolerance, safeguarded Newton when a step is, or when three
Newton steps in a row agree on a quadratic model that predicts an error
within 1/1024 of it.

A context holds only the tolerance; the iteration caps, which no caller
varies, are the module constants MAX_SERIES_TERMS and MAX_ROOT_ITERS (and
quadrature's MAX_QUAD_LEVELS).  All operations are pure; contexts are
immutable and freely shareable.

The library's errors are KernelErrors and never ValueErrors, so the two
hierarchies are disjoint.  Each boundary that runs a caller's function
(sum_series, find_root, newton_root, differentiate, quadrature's
integrate_finite, modular's theorem6_base_change) translates the raw
errors RAW_ERRORS of that function into a DomainError, and lets every
KernelError through as it is; the registry's runner catches
(KernelError, *RAW_ERRORS) into a failed check.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

MACHINE_EPS = math.ulp(1.0)
# The log of the largest double: a value is judged by its log before it is
# formed.
LOG_FLOAT_MAX = math.log(sys.float_info.max)
# Base step of differentiate's central differences, relative to max(1, |x|):
# eps^(1/5) balances the O(h^4) truncation after Richardson against rounding.
FD_STEP = MACHINE_EPS ** (1.0 / 5.0)
# Evaluations allowed to find_root and newton_root before ConvergenceError.
MAX_ROOT_ITERS = 200
# newton_root also stops when the error that its last two Newton steps
# predict is at most this share of the tolerance (quadrature's tail share),
# once the Newton step before them came within this factor of what the two
# steps before it predicted.
_PREDICTION_SHARE = 1.0 / 1024
_CONFIRM_FACTOR = 4.0
# Terms allowed to sum_series and 2F1's series, and steps to the incomplete
# Beta's continued fraction, before SeriesDivergenceError.
MAX_SERIES_TERMS = 2000


class KernelError(Exception):
    """Base class for numerical-kernel failures."""


class DomainError(KernelError):
    """Argument outside the domain an operation supports.  A KernelError
    only, never a ValueError: a handler of RAW_ERRORS does not catch it."""


# The raw arithmetic errors that a boundary translates into a DomainError.
RAW_ERRORS = (ZeroDivisionError, OverflowError, ValueError)


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


class Frozen:
    """Base of the immutable value classes, in place of frozen dataclasses,
    whose import costs more than the kernels.  A subclass's __init__ sets
    its __slots__ fields by _set, then validates them; equality, hash and
    repr go by _key, the tuple of the field values."""

    __slots__ = ("_key",)

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_key", values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._key))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):   # copy and pickle through __init__, which validates
        return type(self), self._key


class PrecisionContext(Frozen):
    """Tolerance threaded through every operation.

    eps_rel/eps_abs form the linear tolerance eps_rel*|scale| + eps_abs used
    by series tails, quadrature level agreement and root brackets.  Derive
    a context with replace, which validates it again.
    """

    __slots__ = ("eps_rel", "eps_abs")

    def __init__(self, eps_rel: float = 1e-12, eps_abs: float = 1e-15):
        self._set(eps_rel, eps_abs)
        if not (0.0 < eps_rel < math.inf and 0.0 < eps_abs < math.inf):
            raise DomainError(f"eps_rel and eps_abs must be finite and positive, got "
                              f"{eps_rel} and {eps_abs}")

    def replace(self, **changes) -> "PrecisionContext":
        """This context with the named fields changed, validated again."""
        return PrecisionContext(**{**dict(zip(self.__slots__, self._key)), **changes})

    def tol(self, scale: float = 1.0) -> float:
        return self.eps_rel * abs(scale) + self.eps_abs


DEFAULT_CTX = PrecisionContext()


class SeriesSum(NamedTuple):
    value: complex | float
    terms: int


def series_tolerance(rate: float, ctx: PrecisionContext,
                     scale: float = 1.0) -> tuple[float, float]:
    """(eps_rel, eps_abs) to which a series whose terms fall like rate^n is
    summed: the context's tolerance times scale, and past rate 1/2 also
    times (1 - rate)/rate.  A stop on a small term leaves a tail of about
    rate/(1 - rate) times that term, so the tail left is then no more than
    the context's tolerance.  rate is not checked here: this runs on every
    2F1 series."""
    eps_rel, eps_abs = ctx.eps_rel * scale, ctx.eps_abs * scale
    if rate > 0.5:
        eps_rel, eps_abs = eps_rel * (1.0 - rate) / rate, eps_abs * (1.0 - rate) / rate
    return eps_rel, eps_abs


def sum_series(term: Callable[[int], complex | float], rate: float,
               ctx: PrecisionContext = DEFAULT_CTX) -> SeriesSum:
    """Sum term(0) + term(1) + ..., whose terms fall like rate^n, until the
    tail criterion holds.

    Stops once three consecutive terms satisfy |t_n| <= eps_rel*|S| + eps_abs,
    with (eps_rel, eps_abs) from series_tolerance(rate, ctx): three, so that
    series with interleaved zero terms, or terms that are sums passing
    through 0, are not cut early.  A rate outside [0, 1) is a DomainError,
    as is a ZeroDivisionError, OverflowError or ValueError raised by term.
    Raises SeriesDivergenceError, carrying the partial sum, after
    MAX_SERIES_TERMS terms.  Real terms are summed as floats, complex ones
    as complex.
    """
    if not 0.0 <= rate < 1.0:   # nan fails too
        raise DomainError(f"series rate must lie in [0, 1), got {rate}")
    eps_rel, eps_abs = series_tolerance(rate, ctx)
    total = 0.0
    small_run = 0
    inf = math.inf   # a local: the test below runs on every term
    for n in range(MAX_SERIES_TERMS):
        try:
            t = term(n)
        except RAW_ERRORS as exc:
            raise DomainError(f"series term {n} raised {exc!r}") from exc
        try:
            size = abs(t)   # inf or nan for a term that is not finite
        except OverflowError:   # finite parts, a modulus past the doubles
            size = inf
        if not size < inf:
            raise DomainError(f"series term {n} is not finite: {t!r}")
        total += t
        if size <= eps_rel * abs(total) + eps_abs:
            small_run += 1
            if small_run >= 3:
                return SeriesSum(total, n + 1)
        else:
            small_run = 0
    raise SeriesDivergenceError(
        f"series did not converge within {MAX_SERIES_TERMS} terms",
        best=total, gap=size)


def find_root(f: Callable[[float], float], lo: float, hi: float,
              ctx: PrecisionContext = DEFAULT_CTX,
              xtol: float | None = None) -> float:
    """Brent-style bracketed root finder for callers without a derivative
    (Brent, Algorithms for Minimization without Derivatives, 1973, ch. 4).

    Inverse quadratic / secant steps with a bisection fallback, so
    convergence is guaranteed on any sign-changing bracket.  Both bracket
    ends are evaluated; a bracket without a sign change is a BracketError.
    Stops when the bracket around the returned estimate x is at most xtol
    wide, plus 4 eps |x| (default ctx.tol(x), the relative rule; a search
    in a log coordinate passes an absolute one).  A ZeroDivisionError,
    OverflowError or ValueError raised by f is a DomainError.
    """
    a, b = float(lo), float(hi)
    try:
        fa, fb = f(a), f(b)
    except RAW_ERRORS as exc:
        raise DomainError(f"f raised {exc!r} on the bracket [{lo}, {hi}]") from exc
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
    for _ in range(MAX_ROOT_ITERS):
        if fb * fc > 0.0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        if xtol is None:
            tol1 = 0.5 * (ctx.eps_rel * abs(b) + ctx.eps_abs) + 2.0 * MACHINE_EPS * abs(b)
        else:
            tol1 = 0.5 * xtol + 2.0 * MACHINE_EPS * abs(b)
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
        try:
            fb = f(b)
        except RAW_ERRORS as exc:
            raise DomainError(f"f raised {exc!r} at x={b}") from exc
    raise ConvergenceError(
        f"root finder hit iteration cap ({MAX_ROOT_ITERS})",
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
    at most half the step before it, becomes a bisection.

    Stops when a step is within the tolerance tol = xtol (default
    ctx.tol(x), the relative rule; a search in a log coordinate passes an
    absolute one), or on an error that Newton steps predict and confirm.
    Each error is about the square of the one before times a constant, and
    a Newton step is about the error of the point it starts from, so two
    Newton steps s_prev, s predict |s| (s/s_prev)^2 for the point s
    reaches.  The Newton step from that point confirms the prediction when
    it comes within a factor of 4 of it, above or below; then the new
    prediction, if it is within tol/1024, returns the new point without
    evaluating it, where the step rule alone spent one more evaluation.  So
    the rule needs three Newton steps in a row, and a bisection clears
    them.  Two steps are no evidence: a first step from where f is nearly
    linear to where it curves sharply predicts far too small an error.  The
    share 1/1024, quadrature's tail share, presumes that the constant, once
    it held within 4 over one step, does not grow a thousandfold over the
    next.  On linear convergence at a ratio rho each step is rho times the
    one before, 1/rho times the error predicted for its start: below
    rho = 1/4 nothing is confirmed, and from there up (the guard caps rho
    at 1/2) a prediction within tol/1024 needs a step within 16 tol/1024,
    where the step rule stops as well.

    Closing on a bracket end that was never evaluated costs one more
    evaluation, whichever rule stops, and a Newton estimate beyond that end
    means the analysis was wrong: BracketError.  Raises ConvergenceError
    after MAX_ROOT_ITERS evaluations.  A ZeroDivisionError, OverflowError or
    ValueError raised by fdf is a DomainError.
    """
    lo, hi, x = float(lo), float(hi), float(x0)
    if not lo <= x <= hi:
        raise DomainError(f"start {x0} outside the bracket [{lo}, {hi}]")
    lo_seen = hi_seen = newton_before = False
    # the error that the last two Newton steps predict for x_new, and the one
    # that the two before them predicted for x: math.inf until there are such
    # steps since the start or the last bisection
    predicted = expected = math.inf
    step = hi - lo
    for _ in range(MAX_ROOT_ITERS):
        try:
            f, df = fdf(x)
        except RAW_ERRORS as exc:
            raise DomainError(f"fdf raised {exc!r} at x={x}") from exc
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
        size = abs(newton)
        if lo < x - newton < hi and 2.0 * size <= abs(step):
            if newton_before:
                # 0 < size <= |step|/2: nothing divides by 0 or overflows,
                # and a prediction can only underflow to 0
                ratio = newton / step
                expected, predicted = predicted, size * ratio * ratio
            else:
                newton_before = True
            step = newton
            x_new = x - step
        else:
            step = 0.5 * (hi - lo)
            x_new = lo + step
            newton_before, predicted = False, math.inf
        tol = ctx.tol(x_new) if xtol is None else xtol
        # the Newton step from x, about the error of x, confirms the error
        # expected for x when it is within a factor of 4 of it
        if (abs(step) <= tol or x_new == x
                or (predicted <= _PREDICTION_SHARE * tol
                    and expected <= _CONFIRM_FACTOR * size and size <= _CONFIRM_FACTOR * expected)):
            if (not lo_seen and x_new - lo <= tol) or (not hi_seen and hi - x_new <= tol):
                # closing on an end that was never evaluated: one more
                # Newton estimate tells a root next to it from one beyond it
                try:
                    f, df = fdf(x_new)
                except RAW_ERRORS as exc:
                    raise DomainError(f"fdf raised {exc!r} at x={x_new}") from exc
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
        f"root finder hit iteration cap ({MAX_ROOT_ITERS})",
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


def differentiate(f: Callable[[float], float], x: float) -> Derivative:
    """Central difference with one Richardson refinement, at the step
    FD_STEP * max(1, |x|) and its half.

    Returns the refined value and an error estimate (the Richardson
    correction plus a roundoff floor).
    """
    h = FD_STEP * max(1.0, abs(x))
    try:
        up, down, half_up, half_down = f(x + h), f(x - h), f(x + 0.5 * h), f(x - 0.5 * h)
    except RAW_ERRORS as exc:
        raise DomainError(f"f raised {exc!r} while differentiating near x={x}") from exc
    # v - v is nan for an inf or nan sample and 0 for a finite one
    if (up - up) + (down - down) + (half_up - half_up) + (half_down - half_down) != 0:
        raise DomainError(f"non-finite sample while differentiating near x={x}")
    d1 = (up - down) / (2.0 * h)
    d2 = (half_up - half_down) / h
    value = (4.0 * d2 - d1) / 3.0
    scale = max(abs(up), abs(down), abs(half_up), abs(half_down))
    error = abs(d2 - d1) / 3.0 + 4.0 * MACHINE_EPS * scale / h
    return Derivative(value, error)
