"""Classical special functions built on the series/quadrature kernels:
Gamma (the C library's on the real axis, Lanczos off it); Gauss 2F1, summed
at z, z/(z-1) or 1-z, whichever takes the fewest terms; Appell F1, summed at
x, y or their DLMF 16.16.1 image; both by their Euler integral only where no
series runs at a rate within _SLOW_RADIUS; the incomplete Beta function from
its continued fraction; the complete elliptic integral K via AGM; the
sine-sextuple polynomial; and the quadratic-surd integral series, an F1
series.  Real inputs stay real: the same series
loops run in float arithmetic, and only complex inputs and the Euler
integral take complex arithmetic.  2F1's parameters keep their kind apart
from z: real a, b and c stay floats with a complex z, so each term's ratio
and the connection formula's Gamma factors are taken in floats.

2F1's cost is its terms times the work per term.  Its series tests the stop
only on the first term of each pair, since a stop on two small terms in a
row needs that term small, and judges the terms around a small one exactly;
the pole test rejects a real part far from every integer before it forms
an ulp.  Each keeps every value, error and term count of testing every
term and of the ulp test alone.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import lru_cache
from typing import Callable

from .numerics import (DEFAULT_CTX, LOG_FLOAT_MAX, MACHINE_EPS, MAX_SERIES_TERMS,
                       DomainError, Frozen, PrecisionContext, SeriesDivergenceError,
                       SeriesSum, series_tolerance, sum_series)
from .quadrature import integrate_finite

# Lanczos approximation for complex arguments, g = 7, 9 coefficients: ~1e-13
# relative, reflection handles Re z < 1/2.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


class PoleError(DomainError):
    """Gamma evaluated at a non-positive integer."""


def _is_nonpositive_int(z: complex | float) -> bool:
    """z is a pole 0, -1, -2, ... to within a few ulps of that integer (an
    absolute tolerance would also swallow small positive z such as 1e-13).

    A real part more than 1e-9 (1 + |n|) from its nearest integer n is
    rejected before ulp(n) is formed.  The reject is exact: 4 ulp(n) is at
    most 8.9e-16 |n| (2e-323 at n = 0), so such a z fails the ulp test too.
    """
    x = z.real
    if x > 0.5:
        return False
    n = float(round(x))   # n <= 0, so 1 - n is 1 + |n|
    if abs(x - n) > 1e-9 * (1.0 - n):
        return False
    tol = 4.0 * math.ulp(n)
    return abs(z.imag) <= tol and abs(x - n) <= tol


def gamma(z: complex | float) -> complex | float:
    """Gamma function.  A real argument is a float in and out, by the C
    library's math.gamma (within a few ulps), whose overflow and underflow
    also decide the DomainError; a complex one takes the Lanczos sum, with
    reflection left of Re z = 1/2 (see _gamma_complex).

    Raises PoleError at the poles 0, -1, -2, ..., and DomainError where
    |gamma| is not a normal double: real z past 171.6, left of -171 away
    from the poles, or far enough off the real axis that |gamma|, which
    falls like e^(-pi |Im z|/2), underflows; and at an inf or nan z.
    """
    try:
        pole = _is_nonpositive_int(z)
    except (OverflowError, ValueError):   # round() of an inf or nan real part
        raise DomainError(f"gamma needs a finite argument, got {z}") from None
    if pole:
        raise PoleError(f"gamma pole at z={z}")
    if not isinstance(z, complex):
        try:
            val = math.gamma(z)
        except OverflowError:
            val = math.inf
        if not sys.float_info.min <= abs(val) <= sys.float_info.max:
            raise DomainError(f"|gamma({z})| is not a normal double")
        return val
    if not cmath.isfinite(z):
        raise DomainError(f"gamma needs a finite argument, got {z}")
    return _gamma_complex(z)


def _gamma_complex(z: complex) -> complex:
    """gamma(z) = sqrt(2 pi) t^(w + 1/2) e^-t acc(w) with w = z - 1 and
    t = w + g + 1/2, and left of Re z = 1/2 by the reflection
    gamma(z) = pi / (sin(pi z) gamma(1 - z)); DomainError where |gamma(z)|
    is not a normal double.

    The power t^(w + 1/2) is taken as the square of its half, because it
    leaves the doubles where gamma does not: from Re z ~ 142 it overflows
    while e^-t brings the product back, and the reflection divides by the
    same power of 1 - z left of Re z ~ -141.  Its half is finite wherever
    |gamma(z)| is a normal double.  Likewise sin(pi z) grows like
    e^(pi |Im z|) and overflows past |Im z| ~ 226, so the reflection
    divides by e^(-pi |Im z|) sin(pi z), which stays below 1, and puts
    e^(pi |Im z|/2) into each half instead.  It divides pi / (scale half)
    by sin(pi z) half, one half on each side: next to z = 0, where
    sin(pi z) is as small as z, dividing by sin(pi z) scale first would
    overflow while |gamma(z)| ~ 1/|z| is still a normal double.
    """
    reflect = z.real < 0.5
    w = -z if reflect else z - 1.0
    t = w + _LANCZOS_G + 0.5
    acc = _LANCZOS[0]
    for i, c in enumerate(_LANCZOS[1:], start=1):
        acc += c / (w + i)
    try:
        scale = math.sqrt(2.0 * math.pi) * acc * cmath.exp(-t)
        half = t ** (0.5 * (w + 0.5))
        if reflect:
            # sin(pi z) = (-1)^n sin(pi (z - n)) for the nearest integer n:
            # z - n is exact, while the rounded product pi z would lose
            # every digit of z next to a pole
            n = round(z.real)
            x, y = math.pi * (z.real - n), math.pi * z.imag
            d = -math.expm1(-2.0 * abs(y))   # 1 - e^(-2|y|), not 0 for tiny y
            # e^(-|y|) sin(x + iy) = (sin x (2 - d) + i cos x sign(y) d) / 2
            sine = 0.5 * complex(math.sin(x) * (2.0 - d),
                                 math.cos(x) * math.copysign(d, y))
            grow = math.exp(0.25 * abs(y))   # e^(|y|/2) per half, in two steps
            half = half * grow * grow
            val = math.pi / (scale * half) / ((-sine if n % 2 else sine) * half)
        else:
            val = scale * half * half
        size = abs(val)   # OverflowError also where both parts are finite
    except OverflowError:
        size = math.inf
    if not sys.float_info.min <= size <= sys.float_info.max:   # nan fails too
        raise DomainError(f"|gamma({z})| is not a normal double")
    return val


def log_gamma_real(x: float) -> float:
    """log Gamma(x) for finite x > 0, for products of large Gamma values:
    the C library's math.lgamma."""
    if x <= 0.0:
        raise PoleError(f"log_gamma_real needs x > 0, got {x}")
    if not x < math.inf:
        raise DomainError(f"log_gamma_real needs a finite x, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:
        raise DomainError(f"log Gamma({x}) is past the doubles") from None


def pochhammer(a: complex | float, n: int) -> complex | float:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1); (a)_0 = 1."""
    acc = 1.0 + 0.0j if isinstance(a, complex) else 1.0
    for k in range(n):
        acc *= a + k
    return acc


def pochhammer_negative(a: float, n: int) -> float:
    """(a)_{-n} read as 1 / (a-n)_n, the Gamma-quotient continuation."""
    denom = pochhammer(a - n, n)
    if denom == 0.0:
        raise PoleError(f"({a})_({-n}) undefined: (a-n)_n vanishes")
    return 1.0 / denom


def _same_kind(*vals) -> list:
    """The values as floats when every one is real, else all as complex."""
    kind = float
    for v in vals:   # a loop, not any() over a generator: this runs per call
        if isinstance(v, complex):
            kind = complex
            break
    return list(map(kind, vals))


def gauss_2f1(a, b, c, z, ctx: PrecisionContext = DEFAULT_CTX) -> complex | float:
    """Gauss hypergeometric 2F1(a, b; c; z), by region:

    - |z| <= 1/2, or a or b a non-positive integer: the series at z.  A
      polynomial, here or in the Euler transform, is a DomainError where
      4 eps times the sum of its terms' moduli is not below its value.
    - |z| > 1/2, on the unit disk and off it: one series routine,
      ``_series_2f1``, summed at the argument that needs the fewest terms
      (``_route_2f1``):

      * 1-z, by the connection formula (A&S 15.3.6).  It sums two series,
        so it counts at the radius sqrt|1-z|.  It is barred when c-a-b lies
        within ``_POLE_GAP`` of an integer, where its two terms grow like
        1/gap and cancel, and for parameters above
        ``_CONNECTION_PARAMETER_MAX``, where its Gamma products overflow.
      * z/(z-1), by Pfaff (DLMF 15.8.1), with no Gamma factor.
      * z itself, or its Euler transform (1-z)^(c-a-b) F(c-a, c-b; c; z),
        whichever has the faster-falling terms, unless that one cancels;
        the series at z where the Euler power would pass the largest double.
        Off the disk these serve only as polynomials (c-a or c-b a
        non-positive integer), at any z off the cut [1, inf).

      Each series is summed to ``numerics.series_tolerance`` at its radius,
      which past 1/2 scales the tolerance by (1-r)/r, so that the stop
      leaves no more than the tolerance behind.  No quadrature runs.
    - |z| >= 1 where no series runs at a radius within ``_SLOW_RADIUS``,
      and the cut [1, inf): F1(b; a, 0; c; z, 0) by ``_euler_integral_f1``
      (the ``"integral"`` route; the 1/z map is not implemented), with a
      and b ordered so that Re c > Re b > 0 where either order allows it.
      On the cut, or where neither order does, it raises DomainError.
      Pfaff serves Re z < 1/2 out to |z/(z-1)| = 0.95 (z = -19 on the
      negative axis), and the connection formula |1-z| <= 0.9025 where it
      is not barred; the integral takes what lies outside both.

    Every series is summed inline by ``_series_2f1``, with no call per
    term; no PrecisionContext is built.  Each call classifies its
    parameters once: the pole tests of a, b and c serve the route and its
    series, and past |z| = 1/2 the route also tests c-a and c-b for the
    Euler transform's polynomial.  Real a, b and c are taken as they are,
    and z is converted only where its kind differs from theirs.

    The parameters keep their kind apart from z.  Real a, b and c stay
    floats whatever z is: each term's ratio (a+n)(b+n)/((c+n)(n+1)) and
    the Gamma factors of the connection formula are taken in floats, and
    a complex z enters each term only as t * ratio * z.  z is complex
    where it or a parameter is, and so is the value (also at z = 0).  Real
    a, b, c and z give a float: on z < 1 every power in the routes has a
    positive base.  Only the Euler integral runs in complex.
    An inf or nan parameter or z is a DomainError.

    Known gaps on the unit disk, where every route runs
    at a radius above ``_SLOW_RADIUS`` and the series can reach
    MAX_SERIES_TERMS: z next to 1 with c-a-b within ``_POLE_GAP`` of an
    integer (the limit forms of A&S 15.3.10-15.3.14 are not implemented),
    and the band around exp(+-i pi/3) near |z| = 1, where |z|, |z/(z-1)|
    and |1-z| are all near 1.  Elsewhere on |z| <= 0.99, and off the disk
    wherever a series serves, it meets 1e-11 relative (1e-14 absolute next
    to a zero) against mpmath for a, b, c in [-3, 3].
    """
    if not (type(a) is type(b) is type(c) is float):
        a, b, c = _same_kind(a, b, c)
    kind = complex if type(a) is complex or isinstance(z, complex) else float
    if type(z) is not kind:
        z = kind(z)
    try:
        r = abs(z)
    except OverflowError:   # finite parts, a modulus past the doubles
        r = math.inf
    if not r < math.inf:   # nan fails too
        raise DomainError(f"2F1 needs a finite |z|, got z={z}")
    try:
        a_pole, b_pole, c_pole = (_is_nonpositive_int(a), _is_nonpositive_int(b),
                                  _is_nonpositive_int(c))
        route, _, poles = _route_2f1(a, b, c, z, (a_pole, b_pole))
    except (OverflowError, ValueError):   # round() of an inf or nan parameter
        raise DomainError(f"2F1 needs finite parameters, got {(a, b, c, z)}") from None
    # c = -m is no pole where a or b is -k, k <= m (DLMF 15.2(ii), mpmath)
    if c_pole and not (a_pole and round(a.real) >= round(c.real)) and not (
            b_pole and round(b.real) >= round(c.real)):
        raise DomainError(f"2F1 undefined: c={c} is a non-positive integer")
    if z == 0:
        return type(z)(1.0)
    try:
        val = _ROUTES[route](a, b, c, z, ctx, poles)
    except OverflowError:   # float ** past the doubles, in a transform's power
        raise DomainError(f"2F1 {route} route overflows a double at "
                          f"a={a}, b={b}, c={c}, z={z}") from None
    if not cmath.isfinite(val):
        raise DomainError(f"2F1 value overflows a double: {val!r}")
    return val


# Within this distance of a pole a Gamma factor is taken as at the pole: the
# connection formula is barred where c-a-b is that near an integer (its two
# terms grow like 1/gap and cancel), and of the series at z and its Euler
# transform, the one whose value at z = 1 nearly vanishes is not summed.
_POLE_GAP = 0.01
# With parameters up to this size every Gamma argument of the connection
# formula stays within 75 of 0, where its products of two stay far inside
# the double range; larger ones keep to the series at z or z/(z-1).
_CONNECTION_PARAMETER_MAX = 25.0
# Above this radius the series of the shortest route can need more than
# MAX_SERIES_TERMS (its terms may first grow like n^5); below it every
# route met 1e-11 relative against mpmath over parameters in [-3, 3].
_SLOW_RADIUS = 0.95
# 2F1's series leaves the second term of a pair untested only while
# |t_k| + |S_k| stays below this quarter of the largest double: the term
# t_(k-1) and the sum at it are then each at most |S_k| + |t_k| + |S_(k-2)|,
# half the largest double, and finite.
_PAIR_BOUND = sys.float_info.max / 4.0


def _series_2f1(a, b, c, z, ctx: PrecisionContext, scale: float = 1.0,
                poles: tuple[bool, bool] | None = None) -> SeriesSum:
    """The power series of 2F1 at z (DLMF 15.2.1), the one summation every
    route calls; a polynomial when a or b is a non-positive integer, summed
    to its degree.  A polynomial whose value is not above 4 eps S, S the
    sum of its terms' moduli, may have lost every digit to rounding, and
    is a DomainError.  a, b and c are all floats or all complex; z is
    complex where they are, and the sum is of z's kind.  ``poles`` are the
    pole tests of a and b where the caller has made them; without them the
    series makes its own.

    The terms t_0 = 1, t_(n+1) = t_n (a+n)(b+n) / ((c+n)(n+1)) z are summed
    in one inline loop, with (eps_rel, eps_abs) from
    ``numerics.series_tolerance`` at the rate r = |z| and ``scale`` (the
    connection formula sums tighter).  It stops on two consecutive terms
    with |t| <= eps_rel |S| + eps_abs: each term is a single product, which
    reaches 0 only at a polynomial's end, and polynomials are summed apart.
    It raises SeriesDivergenceError after MAX_SERIES_TERMS.  The ratio is
    formed in the parameters' kind before t and z multiply it.  No
    PrecisionContext is built.  The index n is counted as a float, which
    is exact below 2^53 and keeps int operands out of every step.

    The stop is tested only where a stop can begin.  A stop at t_j needs
    t_(j-1) and t_j small, so in each pair (t_k, t_(k+1)), k even, a stop at
    either term needs t_k small; until it is, t_(k+1) is only added.  Once
    it is, t_(k-1), kept with the sum before it, and t_(k+1) are judged
    exactly, so the stop, the sum's bits and the term count are those of
    testing every term.  An untested term still raises the same error: an
    inf or nan part passes on to every later term, and a term or sum whose
    modulus passes the largest double takes |t_k| + |S_k| past
    ``_PAIR_BOUND``.  Either of these, and the cap, hand the series from the
    last untested term to a loop that tests every term.
    """
    a_pole, b_pole = poles or (_is_nonpositive_int(a), _is_nonpositive_int(b))
    # a polynomial ends at its first vanishing numerator: a is made the
    # non-positive integer with the larger real part
    if b_pole and not (a_pole and a.real >= b.real):
        a, b = b, a
    terminating = a_pole or b_pole
    # Below |c| = 1e-300, a b / c can overflow before z scales it back, and
    # z / c too for a subnormal c: t_1 = a (b 2^600) (z / (c 2^600)) keeps
    # every factor a normal double.  (c = 0 comes only with degree 0.)
    t1 = a * (b * 2.0 ** 600) * (z / (c * 2.0 ** 600)) if 0.0 < abs(c) < 1e-300 else None
    one = type(z)(1.0)
    if terminating:
        total = t = one
        size = 1.0
        degree = int(round(-a.real))
        for k in range(degree):
            if k == 0 and t1 is not None:
                t = t1
            else:
                t *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
            total += t
            size += abs(t)
        if not 4.0 * MACHINE_EPS * size < abs(total):   # nan fails too
            raise DomainError(f"2F1 polynomial of degree {degree} is lost to rounding "
                              f"or overflow: {total!r} from terms of moduli summing "
                              f"to {size!r}")
        return SeriesSum(total, degree + 1)

    eps_rel, eps_abs = series_tolerance(abs(z), ctx, scale)
    if not (eps_rel > 0.0 and eps_abs > 0.0):   # as a PrecisionContext would
        raise DomainError(f"2F1 series tolerance is not positive at |z|={abs(z)} "
                          f"from eps_rel={ctx.eps_rel}, eps_abs={ctx.eps_abs}")
    # t is the term after the one being added, and n is t's index
    n = 0.0
    t = t1 if t1 is not None else one * ((a + n) * (b + n) / ((c + n) * (n + 1.0))) * z
    term, n = one, 1.0
    # For c < 0 the factors c + n of (c)_n are smallest next to n = -Re c,
    # and before that two small terms do not mean the sum has converged:
    # the terms up to there are summed as one, the series' first term.
    if c.real < 0.0:
        for _ in range(min(round(-c.real) + 2, MAX_SERIES_TERMS) - 1):
            term += t
            t = t * ((a + n) * (b + n) / ((c + n) * (n + 1.0))) * z
            n += 1.0
    # Pairs (t_k, t_(k+1)), k even: last is t_(k-1) and before the sum
    # ahead of it, so before + last is the sum at t_(k-1) to the bit.
    total, before, inf = 0.0, 0.0, math.inf
    for k in range(0, MAX_SERIES_TERMS - 1, 2):
        total += term
        try:
            size, total_size = abs(term), abs(total)
        except OverflowError:   # finite parts, a modulus past the doubles
            break
        if not size + total_size <= _PAIR_BOUND:   # nan fails too
            break
        if size <= eps_rel * total_size + eps_abs:
            if k and abs(last) <= eps_rel * abs(before + last) + eps_abs:
                return SeriesSum(total, k + 1)
            try:   # an inf, nan or overflowing t_(k+1) or sum: the next pass breaks
                if abs(t) < inf and abs(t) <= eps_rel * abs(total + t) + eps_abs:
                    return SeriesSum(total + t, k + 2)
            except OverflowError:
                pass
        before, last = total, t
        total += t
        m = n + 1.0
        term = t * ((a + n) * (b + n) / ((c + n) * m)) * z
        n = m + 1.0
        t = term * ((a + m) * (b + m) / ((c + m) * n)) * z
    else:
        k = MAX_SERIES_TERMS - MAX_SERIES_TERMS % 2
    # From the last untested term on (past a large or non-finite term, and
    # at the cap), every term is tested.
    total, small_run = before, 0
    if k:
        term, t, n, k = last, term, n - 1.0, k - 1
    for k in range(k, MAX_SERIES_TERMS):
        try:
            size = abs(term)
        except OverflowError:   # finite parts, a modulus past the doubles
            size = inf
        if not size < inf:
            raise DomainError(f"series term {k} is not finite: {term!r}")
        total += term
        if size <= eps_rel * abs(total) + eps_abs:
            small_run += 1
            if small_run >= 2:
                return SeriesSum(total, k + 1)
        else:
            small_run = 0
        term = t
        t = t * ((a + n) * (b + n) / ((c + n) * (n + 1.0))) * z
        n += 1.0
    raise SeriesDivergenceError(
        f"series did not converge within {MAX_SERIES_TERMS} terms", best=total, gap=size)


def _direct_2f1(a, b, c, z, ctx, poles):
    return _series_2f1(a, b, c, z, ctx, 1.0, poles).value


def _euler_2f1(a, b, c, z, ctx, poles):
    # DLMF 15.8.1: the same radius as the series at z
    return (1.0 - z) ** (c - a - b) * _series_2f1(c - a, c - b, c, z, ctx, 1.0, poles).value


# The pole tests of a series that is no polynomial: _route_2f1 takes a
# polynomial at z or in the Euler pair, so Pfaff and the connection formula
# never sum one.
_NO_POLES = (False, False)


def _pfaff_2f1(a, b, c, z, ctx, poles):
    # DLMF 15.8.1, with a, b ordered so that the terms fall like
    # n^(a-b-1) r^n with Re(a-b) <= 0
    if a.real > b.real:
        a, b = b, a
    return (1.0 - z) ** (-a) * _series_2f1(a, c - b, c, z / (z - 1.0), ctx, 1.0,
                                           _NO_POLES).value


def _connection_2f1(a, b, c, z, ctx, poles):
    # A&S 15.3.6 (DLMF 15.8.4 at z -> 1-z)
    s, w = c - a - b, 1.0 - z
    # the two terms grow like 1/gap, gap the distance of s from the nearest
    # integer (at least _POLE_GAP), and cancel to the sum: sum each series
    # that much tighter
    gap = abs(s - round(s.real))
    near = gamma(s) / (gamma(c - a) * gamma(c - b)) \
        * _series_2f1(a, b, 1.0 - s, w, ctx, gap, _NO_POLES).value
    far = w ** s * gamma(-s) / (gamma(a) * gamma(b)) \
        * _series_2f1(c - a, c - b, 1.0 + s, w, ctx, gap, _NO_POLES).value
    return gamma(c) * (near + far)


def _integral_2f1(a, b, c, z, ctx, poles):
    # F1(b; a, 0; c; z, 0), with a and b ordered so that Re c > Re b > 0
    # where either order allows it (2F1 is symmetric in a, b)
    if not (c.real > b.real > 0.0):
        a, b = b, a
    val = _euler_integral_f1(complex(b), complex(a), 0j, complex(c), complex(z), 0j, ctx)
    return val if isinstance(z, complex) else val.real


_ROUTES = {"series": _direct_2f1, "euler": _euler_2f1, "pfaff": _pfaff_2f1,
           "connection": _connection_2f1, "integral": _integral_2f1}


def _near_pole(x: complex, any_integer: bool = False) -> bool:
    """x within _POLE_GAP of a non-positive integer (of any integer when
    any_integer)."""
    n = round(x.real)
    return abs(x - (n if any_integer else min(n, 0))) < _POLE_GAP


def _route_2f1(a, b, c, z, poles: tuple[bool, bool] | None = None
               ) -> tuple[str, float, tuple[bool, bool]]:
    """The route gauss_2f1 takes at z, the radius its series is summed at,
    and the pole tests of that series' a and b; the connection formula sums
    two series at |1-z|, as many terms as one at sqrt|1-z|.  ``poles`` are
    the pole tests of a and b where the caller has made them.

    One rule holds on the unit disk and off it: the route with the smallest
    radius.  Off the disk, where the series at z diverges, that route is
    ``"integral"`` where no radius is within ``_SLOW_RADIUS`` (with the
    smallest radius), and on the cut [1, inf) (with radius inf), which is
    tested before z/(z-1) is formed.  Inside the disk no route is the
    integral.
    """
    a_pole, b_pole = poles or (_is_nonpositive_int(a), _is_nonpositive_int(b))
    if a_pole or b_pole:
        return "series", 0.0, (a_pole, b_pole)  # a polynomial
    r = abs(z)
    if r <= 0.5:
        return "series", r, _NO_POLES
    # the cut [1, inf), as the integral reads it
    if z.real >= 1.0 and abs(z.imag) < 1e-300:
        return "integral", math.inf, _NO_POLES
    euler_poles = _is_nonpositive_int(c - a), _is_nonpositive_int(c - b)
    if euler_poles[0] or euler_poles[1]:
        return "euler", 0.0, euler_poles  # a polynomial
    # the shortest of the series at z, Pfaff and the connection formula;
    # a tie goes to the one named first
    route, radius = "direct", r
    pfaff = abs(z / (z - 1.0))
    if pfaff < radius:
        route, radius = "pfaff", pfaff
    s = c - a - b
    if (not _near_pole(s, any_integer=True)
            and max(abs(a), abs(b), abs(c)) <= _CONNECTION_PARAMETER_MAX):
        connection = math.sqrt(abs(1.0 - z))
        if connection < radius:
            route, radius = "connection", connection
    if radius > _SLOW_RADIUS and r >= 1.0:
        return "integral", radius, _NO_POLES
    if route != "direct":
        return route, radius, _NO_POLES
    # The terms of F(A, B; c; z), (A, B) = (a, b) or the Euler pair
    # (c-a, c-b), fall like n^(A+B-c-1) r^n, so the pair with
    # Re(c-A-B) >= 0 is shorter.  That series tends to
    # Gamma(c) Gamma(c-A-B) / (Gamma(c-A) Gamma(c-B)) at z = 1; where this
    # nearly vanishes and z lies in the disk |z - 1/2| < 1/2 around
    # [0, 1], its terms cancel, and the other pair is summed.
    shorter, other = ("series", "euler") if s.real >= 0.0 else ("euler", "series")
    ends = (c - a, c - b) if s.real >= 0.0 else (a, b)
    route = other if z.real > r * r and (_near_pole(ends[0]) or _near_pole(ends[1])) else shorter
    if route == "euler":
        # |(1-z)^s| = e^(Re s ln|1-z| - Im s arg(1-z)); past the largest
        # double the series at z is summed instead
        w = 1.0 - z
        if s.real * math.log(abs(w)) - s.imag * cmath.phase(w) > LOG_FLOAT_MAX:
            route = "series"
    return route, r, _NO_POLES


def appell_f1(a, b1, b2, c, x, y,
              ctx: PrecisionContext = DEFAULT_CTX) -> complex | float:
    """Appell F1(a; b1, b2; c; x, y).

    The double series by ``_appell_f1_series``, summed along
    anti-diagonals after DLMF 16.16.1 where that moves x, y closer to 0, to
    the tolerance of ``numerics.series_tolerance`` at its rate: on the
    bidisk |x|, |y| < 1, and beyond it wherever the 16.16.1 image
    x/(x-1), y/(y-1) lies within ``_SLOW_RADIUS``: x and y in the disk
    that spans [-19, 0.487] on the real axis.  A polynomial (a a
    non-positive integer) is summed to its last anti-diagonal at any x and
    y, and is a DomainError where 4 eps times the sum of its terms' moduli
    is not below its value.  Elsewhere the Euler integral
    (``_euler_integral_f1``), which needs Re c > Re a > 0 and x, y off the
    cut [1, inf).  Real inputs are summed
    in float arithmetic and give a float; complex ones give a complex, and
    the integral runs in complex.  With b2 = 0, F1 is 2F1(a, b1; c; x), and
    with b1 = 0 it is 2F1(a, b2; c; y): gauss_2f1, since the anti-diagonal
    recurrence loses a solution that has none of the other argument's mode.
    """
    a, b1, b2, c, x, y = _same_kind(a, b1, b2, c, x, y)
    if not all(map(cmath.isfinite, (a, b1, b2, c, x, y))):
        raise DomainError(f"F1 needs finite arguments, got {(a, b1, b2, c, x, y)}")
    if b2 == 0:
        return gauss_2f1(a, b1, c, x, ctx)
    if b1 == 0:
        return gauss_2f1(a, b2, c, y, ctx)
    if (max(abs(x), abs(y)) >= 1.0 and not _is_nonpositive_int(a)
            and (1.0 in (x, y)
                 or max(abs(x / (x - 1.0)), abs(y / (y - 1.0))) > _SLOW_RADIUS)):
        val = _euler_integral_f1(*map(complex, (a, b1, b2, c, x, y)), ctx)
        return val if isinstance(x, complex) else val.real
    return type(x)(_appell_f1_series(a, b1, b2, c, x, y, ctx).value)


def _euler_integral_f1(a: complex, b1: complex, b2: complex, c: complex,
                       x: complex, y: complex, ctx: PrecisionContext) -> complex:
    """F1 by its Euler integral (DLMF 16.15.1), Gamma(c) / (Gamma(a) Gamma(c-a))
    int_0^1 t^(a-1) (1-t)^(c-a-1) (1-xt)^(-b1) (1-yt)^(-b2) dt, for
    Re c > Re a > 0 and x, y off the cut [1, inf) where b1, b2 are nonzero."""
    if not (c.real > a.real > 0.0):
        raise DomainError("F1 integral route needs Re c > Re a > 0")
    for w, b in ((x, b1), (y, b2)):
        if b != 0 and w.real >= 1.0 and abs(w.imag) < 1e-300:
            raise DomainError(f"F1 integral route: {w} on the cut [1, inf)")
    t_power = a.real - 1.0 if a.imag == 0.0 else a - 1.0   # float pow is cheaper

    def integrand(t: float) -> complex:
        return t ** t_power * (1.0 - t) ** (c - a - 1.0) \
            * (1.0 - x * t) ** (-b1) * (1.0 - y * t) ** (-b2)

    pref = gamma(c) / (gamma(a) * gamma(c - a))
    return pref * integrate_finite(integrand, 0.0, 1.0, ctx)


def _appell_f1_series(a, b1, b2, c, x, y, ctx: PrecisionContext,
                      pref: complex | float = 1.0) -> SeriesSum:
    """pref times F1(a; b1, b2; c; x, y) by its double series, summed along
    anti-diagonals m+n = s (which matches the (a)_(m+n) coupling).  x and
    y are of one kind, and a, b1, b2 and c floats or of that kind.

    Where it makes max(|x|, |y|) smaller, the series is summed after DLMF
    16.16.1, F1(a; b1, b2; c; x, y) = (1-x)^(-b1) (1-y)^(-b2)
    F1(c-a; b1, b2; c; x/(x-1), y/(y-1)): fewer terms, no cancellation
    between huge terms for x or y near -1, and convergence beyond the
    bidisk.  A polynomial (a a non-positive integer, c no pole below its
    degree -a) is summed as it stands, to its last anti-diagonal s = -a, at
    any x and y, as -a + 1 polynomial 2F1s in y, each summed as
    ``_series_2f1`` sums it.  Where its value is not above 4 eps S, S the
    sum of the moduli of all its terms, it may have lost every digit to
    rounding, and it is a DomainError (an inf or nan value too).  For a
    conjugate pair with b1 = b2 the prefactor is |1-x|^(-2 b1), formed as
    a float.

    The anti-diagonal sums g_s = sum_{m+n=s} (b1)_m (b2)_n x^m y^n/(m! n!)
    are the coefficients of (1-xt)^(-b1) (1-yt)^(-b2), whose log-derivative
    gives a three-term recurrence (g_0 = 1, g_(-1) = 0); the anti-diagonal
    then carries (a)_s/(c)_s.  O(1) per term.  It takes x and y only as
    x+y, xy and b1 x + b2 y: where these, a and c are real (real x and y,
    or a conjugate pair with b1 = b2) it runs in floats.  sum_series sums
    the terms at the rate max(|x|, |y|), which must be below 1; a
    SeriesDivergenceError reports its best and gap on the value's scale.
    The term closure counts its own s as a float, which is exact below 2^53
    and keeps int operands out of every step.
    """
    terminating, c_pole = _is_nonpositive_int(a), _is_nonpositive_int(c)
    if c_pole and not (terminating and round(a.real) > round(c.real)):
        raise DomainError(f"F1 undefined: c={c} is a non-positive integer")
    if terminating:
        # sum_m (a)_m (b1)_m x^m / ((c)_m m!) 2F1(a+m, b2; c+m; y), each
        # 2F1 a polynomial summed as _series_2f1 sums it: the anti-diagonal
        # recurrence's rounding grows with |x| and |y| (10 bounds off at
        # |x|, |y| = 45, degree 10).  size is S, the sum of the moduli of
        # all (degree+1)(degree+2)/2 terms.
        degree = round(-a.real)
        total, size, t, one = 0.0, 0.0, pref, type(y)(1.0)
        try:
            for m in range(degree + 1):
                inner, inner_size, u = one, 1.0, one
                for k in range(degree - m):
                    u *= (a + m + k) * (b2 + k) / ((c + m + k) * (k + 1)) * y
                    inner += u
                    inner_size += abs(u)
                total += t * inner
                size += abs(t) * inner_size
                t = t * (a + m) * (b1 + m) / ((c + m) * (m + 1.0)) * x
            lost = not 4.0 * MACHINE_EPS * size < abs(total)   # nan fails too
        except OverflowError:   # a complex modulus past the doubles
            lost = True
        if lost:
            raise DomainError(f"F1 polynomial of degree {degree} at x={x}, y={y} is lost "
                              f"to rounding or overflow: {total!r} from terms of "
                              f"moduli summing to {size!r}")
        return SeriesSum(total, (degree + 1) * (degree + 2) // 2)
    rate = max(abs(x), abs(y))
    # 1 has no image under 16.16.1
    if 1.0 not in (x, y):
        xt, yt = x / (x - 1.0), y / (y - 1.0)
        if max(abs(xt), abs(yt)) < rate:
            if b1 == b2 and y == x.conjugate():
                pref *= abs(1.0 - x) ** (-2.0 * b1)
            else:
                pref *= (1.0 - x) ** (-b1) * (1.0 - y) ** (-b2)
            a, x, y, rate = c - a, xt, yt, max(abs(xt), abs(yt))

    coeffs = (x + y, x * y, b1 * x + b2 * y, b1 + b2 - 1.0, a, c)
    if not any(v.imag for v in coeffs):
        coeffs = tuple(v.real for v in coeffs)
    xsum, xy, lin, bsum, a, c = coeffs
    g, g_prev, r, s = 1.0, 0.0, 1.0, 0.0

    def term(_: int) -> complex | float:
        nonlocal g, g_prev, r, s
        val = r * g
        g_prev, g = g, ((xsum * s + lin) * g - xy * (s + bsum) * g_prev) / (s + 1.0)
        r = r * (a + s) / (c + s)
        s += 1.0
        return val

    try:
        series = sum_series(term, rate, ctx)
    except SeriesDivergenceError as exc:
        exc.best, exc.gap = pref * exc.best, abs(pref) * exc.gap
        raise
    return SeriesSum(pref * series.value, series.terms)


class BetaBase(Frozen):
    """Exponent pair (a, b) of the incomplete Beta integral
    B(x, a, b) = int_0^x t^(a-1) (1-t)^(b-1) dt."""

    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self._set(a, b)
        if not (a > 0.0 and b > 0.0):
            raise DomainError(f"Beta exponents must be positive: {self}")


# B_2k / (2k (2k-1)), k = 1..9, of Stirling's series omega(x) = ln Gamma(x)
# - (x - 1/2) ln x + x - ln(2 pi)/2 (DLMF 5.11.1): within 2e-17 from x = 8.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156, -3617 / 122400, 43867 / 244188)


def _stirling_remainder(x: float) -> float:
    inv2 = 1.0 / (x * x)
    acc = 0.0
    for c in reversed(_STIRLING):
        acc = acc * inv2 + c
    return acc / x


@lru_cache(maxsize=256)
def complete_beta(base: BetaBase) -> float:
    """B(1, a, b) = Gamma(a) Gamma(b) / Gamma(a+b), 0.0 where it underflows.
    With p <= q, ln Gamma(q) - ln Gamma(p+q) cancels from q = 8 on, so as in
    TOMS 708's betaln ln B = ln Gamma(p) + p - p ln q - (p+q-1/2) log1p(p/q)
    + omega(q) - omega(p+q), and ln Gamma(p) + p - p ln q = ln(2 pi/p)/2 +
    p ln(p/q) + omega(p) from p = 8 on.  Cached for the root searches."""
    p, q = sorted((base.a, base.b))
    if q < 8.0:
        log_value = log_gamma_real(p) + log_gamma_real(q) - log_gamma_real(p + q)
    elif q < math.inf:
        head = (log_gamma_real(p) + p - p * math.log(q) if p < 8.0 else
                0.5 * math.log(2.0 * math.pi / p) + p * math.log(p / q)
                + _stirling_remainder(p))
        log_value = (head - (p + q - 0.5) * math.log1p(p / q)
                     + _stirling_remainder(q) - _stirling_remainder(p + q))
    else:
        raise DomainError(f"complete Beta needs finite exponents: {base}")
    try:
        return math.exp(log_value)
    except OverflowError:
        raise DomainError(f"complete Beta of {base} overflows a float") from None


def incomplete_beta(x: float, base: BetaBase) -> float:
    """B(x, a, b) = x^a (1-x)^b / a * CF(x), the continued fraction of
    DLMF 8.17.22, for x below the integrand's (a+1)/(a+b+2); beyond it the
    complement B(1, a, b) - B(1-x, b, a), which cancels for a small b, where
    both are about 1/b (1e-11 relative lost at a = 0.5, x = 0.9, b = 1e-5).
    B(1, a, b) is the exp of its log L, summed from log-Gammas each within
    about an ulp, so it is within about eps (|L| + 4) relative; B(1-x, b, a),
    two powers, a product, a quotient and the fraction's 2 eps stop, within
    about 4 eps.  So the complement is off by at most about
    eps ((|L| + 4) B(1, a, b) + 4 B(1-x, b, a)) <= eps (|L| + 8) B(1, a, b),
    8 eps B(1, a, b) where L is small.  A complement not above that bound
    keeps no correct digit, and is a DomainError (as is a B(1, a, b) that
    underflows to 0).

    The fraction is run to full double precision, so it takes no context
    (about 8 steps, at most 24 for a, b in [0.1, 10]); MAX_SERIES_TERMS caps
    its steps, and reaching the cap raises SeriesDivergenceError.
    """
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"incomplete beta needs x in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return complete_beta(base)
    a, b = base.a, base.b
    if x < (a + 1.0) / (a + b + 2.0):
        val = x ** a * (1.0 - x) ** b / a * _beta_cf(x, a, b)
        if val == math.inf:   # about x^a / a: a tiny a takes it past the doubles
            raise DomainError(f"incomplete Beta at x={x}, {base} overflows a float")
        return val
    y = 1.0 - x
    total = complete_beta(base)
    rest = y ** b * x ** a / b * _beta_cf(y, b, a)
    bound = MACHINE_EPS * ((abs(math.log(total or 1.0)) + 4.0) * total + 4.0 * rest)
    if not total - rest > bound:   # nan fails too
        raise DomainError(f"B(1, a, b) - B({y}, b, a) keeps no correct digit for {base}")
    return total - rest


def _incomplete_beta_log(base: BetaBase
                         ) -> Callable[[float, float, float, float], tuple[float, float]]:
    """(x, y, ln x, ln y) -> (ln B(x, a, b), d ln B / d ln(x/y)) on
    incomplete_beta's split, for a logit search that forms y = 1 - x and the
    logs apart.  In logs, so no power of x or y underflows.  B(1, a, b),
    formed at the first complement, must be a positive double; a complement
    that cancels to nothing is a DomainError."""
    a, b = base.a, base.b
    split, log_a, log_b = (a + 1.0) / (a + b + 2.0), math.log(a), math.log(b)
    log_total = None

    def log_beta(x: float, y: float, log_x: float, log_y: float
                 ) -> tuple[float, float]:
        nonlocal log_total
        log_d = a * log_x + b * log_y   # ln x^a y^b
        if x < split:
            cf = _beta_cf(x, a, b)
            return log_d - log_a + math.log(cf), a / cf
        if log_total is None:   # B(1, a, b) only where a complement needs it
            log_total = math.log(complete_beta(base))
        rest = math.exp(log_d - log_b - log_total) * _beta_cf(y, b, a)
        if not rest < 1.0:   # nan fails too
            raise DomainError(f"B(1, a, b) - B({y}, b, a) cancels to nothing for {base}")
        log_value = log_total + math.log1p(-rest)
        return log_value, math.exp(log_d - log_value)
    return log_beta


def _beta_cf(x: float, a: float, b: float) -> float:
    """1 / (1 + d_1 / (1 + d_2 / (1 + ...))) by modified Lentz
    (Numerical Recipes section 5.2 and 6.4), with
    d_2m+1 = -(a+m)(a+b+m) x / ((a+2m)(a+2m+1)) and
    d_2m = m (b-m) x / ((a+2m-1)(a+2m)).  m is counted as a float, which
    is exact below 2^53 and keeps the arithmetic float-only."""
    tiny = 1e-300   # a denominator below it is taken as tiny; nan fails both tests
    ab = a + b
    d = 1.0 - ab * x / (a + 1.0)
    c, d = 1.0, 1.0 / (d if d >= tiny or d <= -tiny else tiny)
    h, m = d, 0.0
    for _ in range(MAX_SERIES_TERMS):
        m += 1.0
        p = a + 2.0 * m
        coeff = m * (b - m) * x / ((p - 1.0) * p)
        d, c = 1.0 + coeff * d, 1.0 + coeff / c
        d = 1.0 / (d if d >= tiny or d <= -tiny else tiny)
        c = c if c >= tiny or c <= -tiny else tiny
        h *= d * c
        coeff = -(a + m) * (ab + m) * x / (p * (p + 1.0))
        d, c = 1.0 + coeff * d, 1.0 + coeff / c
        d = 1.0 / (d if d >= tiny or d <= -tiny else tiny)
        c = c if c >= tiny or c <= -tiny else tiny
        h *= d * c
        if abs(d * c - 1.0) <= 2.0 * MACHINE_EPS:
            return h
    raise SeriesDivergenceError(
        f"incomplete Beta continued fraction did not converge within "
        f"{MAX_SERIES_TERMS} steps", best=h, gap=abs(d * c - 1.0))


@lru_cache(maxsize=256)
def _symmetric_base(alpha: float) -> BetaBase:
    # a root search calls beta_sqrt at one alpha many times
    return BetaBase(alpha, alpha)


def beta_sqrt(x: float, alpha: float) -> float:
    """sqrt(B(x, alpha, alpha)), the symmetric-Beta candidate modular base."""
    return math.sqrt(incomplete_beta(x, _symmetric_base(alpha)))


def elliptic_k(k: float) -> float:
    """Complete elliptic integral K(k) = pi / (2 AGM(1, sqrt(1-k^2)))."""
    if not (0.0 <= k < 1.0):
        raise DomainError(f"elliptic_k needs 0 <= k < 1, got {k}")
    return _elliptic_k_from_complement(math.sqrt((1.0 - k) * (1.0 + k)))


def elliptic_k_complementary(k: float) -> float:
    """K'(k) = K(sqrt(1-k^2)) = pi / (2 AGM(1, k)), taken directly from k so
    no precision is lost forming the complement near k = 0 or 1."""
    if not (0.0 < k <= 1.0):
        raise DomainError(f"elliptic_k_complementary needs 0 < k <= 1, got {k}")
    return _elliptic_k_from_complement(k)


def _elliptic_k_from_complement(kprime: float) -> float:
    # AGM(1, k'); k' passed directly so callers near k = 1 keep precision.
    # It stops at a fixed point: a == g, or, for about a quarter of the
    # moduli, g one ulp below an a that the mean rounds back to.
    if kprime <= 0.0:
        raise DomainError("elliptic_k diverges at k = 1")
    a, g = 1.0, kprime
    for _ in range(60):
        a_next, g_next = 0.5 * (a + g), math.sqrt(a * g)
        if a_next == a and g_next == g:
            break
        a, g = a_next, g_next
    return math.pi / (2.0 * a)


def sin_multiple_p6(y: float) -> float:
    """6x^5 y - 20x^3 y^3 + 6x y^5 with x = sqrt(1-y^2); equals
    sin(6 arcsin y) on [-1, 1].

    The error bound is absolute: within 3e-15 of sin(6 arcsin y) on [-1, 1]
    (1.3e-15 at worst over 1.2 million points).  No relative bound is
    promised next to the zeros (y = 0, +-1/2, +-sqrt3/2, +-1), where terms
    of size up to 2.5 cancel to a far smaller value, and the rounding of
    each term stays."""
    if not abs(y) <= 1.0:
        raise DomainError(f"sin_multiple_p6 needs |y| <= 1, got {y}")
    x = math.sqrt((1.0 - y) * (1.0 + y))
    return 6.0 * x ** 5 * y - 20.0 * x ** 3 * y ** 3 + 6.0 * x * y ** 5


def quadratic_roots(a: float, b: float, c: float) -> tuple[complex, complex]:
    """Roots of a t^2 + b t + c, the smaller-modulus one first, as c/q and q/a
    at q = -(b + sgn(Re b) sqrt(b^2 - 4ac))/2 (Numerical Recipes 5.6)."""
    if a == 0.0:
        raise DomainError("quadratic_roots needs a != 0")
    disc = cmath.sqrt(complex(b * b - 4.0 * a * c))
    q = -0.5 * (b + math.copysign(1.0, b.real) * disc)
    r1, r2 = (c / q if q else q), q / a   # q = 0 only where b = c = 0
    if abs(r1) <= abs(r2):
        return r1, r2
    return r2, r1


def quadratic_power_series(mu: float, nu: float, a: float, b: float, c: float,
                           x: float, ctx: PrecisionContext = DEFAULT_CTX) -> SeriesSum:
    """Series form of int_0^x t^mu (a t^2 + b t + c)^(-nu) dt (Theorem 8),

        c^(-nu) x^(mu+1) / (mu+1) * F1(mu+1; nu, nu; mu+2; x/r1, x/r2)

    (DLMF 16.15.1 with c (1 - t/r1)(1 - t/r2) for the quadratic, |r1| <= |r2|
    its roots), the F1 series summed by appell_f1's, after DLMF 16.16.1
    where that brings the arguments closer to 0.  Real roots give real
    arguments, and complex ones a conjugate pair: real data are summed in
    float arithmetic, and the sum is a float where c and x are positive.
    Converges for |x| < |r1|, and on the arc of |x| = |r1| where 16.16.1
    maps the arguments inside the unit disk; elsewhere it is a DomainError.
    """
    if _is_nonpositive_int(mu + 1.0):
        raise DomainError(f"the series needs mu+1 off 0, -1, ..., got mu={mu}")
    if x == 0.0 and mu < -1.0:
        raise DomainError(f"the integral diverges at t = 0 for mu={mu} < -1")
    r1, r2 = quadratic_roots(a, b, c)
    if r1 == 0:
        raise DomainError("quadratic has a root at 0")
    if r1.imag == 0.0:   # and so r2's
        z, w = x / r1.real, x / r2.real
    else:   # the roots, and so x/r1 and x/r2, are a conjugate pair
        z = x / r1
        w = z.conjugate()
    # float ** is complex for a negative base, and then equals complex **
    pref = c ** (-nu) * x ** (mu + 1.0) / (mu + 1.0)
    return _appell_f1_series(mu + 1.0, nu, nu, mu + 2.0, z, w, ctx, pref)
