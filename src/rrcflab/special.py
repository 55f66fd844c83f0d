"""Classical special functions built on the series/quadrature kernels:
Gamma (Lanczos, complex); Gauss 2F1, summed on the unit disk at z, z/(z-1)
or 1-z, whichever takes the fewest terms, and integrated outside it;
Appell F1; the incomplete Beta function from its continued fraction; the
complete elliptic integral K via AGM; terminating 2F1 polynomials, the
sine-sextuple polynomial, and the quadratic-surd integral series engine
they feed.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, replace

from .numerics import (DEFAULT_CTX, MACHINE_EPS, DomainError, PrecisionContext,
                       SeriesDivergenceError, SeriesSum, sum_series)
from .quadrature import integrate_complex, integrate_finite

# Lanczos approximation, g = 7, 9 coefficients: ~1e-13 relative on the real
# axis, reflection handles Re z < 1/2.
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


def _is_nonpositive_int(z: complex) -> bool:
    """z is a pole 0, -1, -2, ... to within a few ulps of that integer (an
    absolute tolerance would also swallow small positive z such as 1e-13)."""
    if z.real > 0.5:
        return False
    n = round(z.real)
    tol = 4.0 * math.ulp(n)
    return abs(z.imag) <= tol and abs(z.real - n) <= tol


def gamma(z: complex | float) -> complex | float:
    """Gamma function; complex arguments use the same code path as real ones.

    Raises PoleError at the poles 0, -1, -2, ..., and DomainError where
    |gamma| is not a normal double (real z past 171.6, or left of -171 away
    from the poles) or sin(pi z) overflows (Re z < 1/2, |Im z| > 226).
    """
    zc = complex(z)
    if _is_nonpositive_int(zc):
        raise PoleError(f"gamma pole at z={z}")
    try:
        if zc.real < 0.5:
            # Reflection: gamma(z) gamma(1-z) = pi / sin(pi z), with
            # sin(pi z) = (-1)^n sin(pi (z - n)) for the nearest integer n:
            # z - n is exact, while the rounded product pi z would lose
            # every digit of z next to a pole
            n = round(zc.real)
            sine = cmath.sin(math.pi * (zc - n))
            val = math.pi / ((-sine if n % 2 else sine) * gamma(1.0 - zc))
        else:
            w = zc - 1.0
            acc, t = _lanczos_sum(w), w + _LANCZOS_G + 0.5
            val = math.sqrt(2.0 * math.pi) * t ** (w + 0.5) * cmath.exp(-t) * acc
    except (OverflowError, DomainError):
        val = math.inf
    if not cmath.isfinite(val):
        val = _gamma_halved(zc)
    return val if isinstance(z, complex) else val.real


def _lanczos_sum(w: complex) -> complex:
    """acc with gamma(w + 1) = sqrt(2 pi) t^(w + 1/2) e^-t acc,
    t = w + g + 1/2, for Re w >= -1/2."""
    acc = _LANCZOS[0]
    for i, c in enumerate(_LANCZOS[1:], start=1):
        acc += c / (w + i)
    return acc


def _gamma_halved(zc: complex) -> complex:
    """gamma(z) where the power t^(w + 1/2) of the Lanczos form overflows
    (from Re z ~ 142, or at 1 - z in the reflection), taken as two halves:
    finite wherever |gamma(z)| is a normal double, DomainError elsewhere."""
    reflect = zc.real < 0.5
    w = -zc if reflect else zc - 1.0
    t = w + _LANCZOS_G + 0.5
    try:
        scale = math.sqrt(2.0 * math.pi) * _lanczos_sum(w) * cmath.exp(-t)
        half = t ** (0.5 * (w + 0.5))
        if reflect:
            n = round(zc.real)
            sine = cmath.sin(math.pi * (zc - n))
            val = math.pi / ((-sine if n % 2 else sine) * scale) / half / half
        else:
            val = scale * half * half
    except OverflowError:
        val = math.inf
    if not (cmath.isfinite(val) and abs(val) >= sys.float_info.min):
        raise DomainError(f"|gamma({zc})| is not a normal double")
    return val


def log_gamma_real(x: float) -> float:
    """log Gamma(x) for x > 0, for products of large Gamma values."""
    if x <= 0.0:
        raise PoleError(f"log_gamma_real needs x > 0, got {x}")
    if x < 142.0:
        return math.log(abs(gamma(x)))
    # Stirling with the first correction terms; enough above 142.
    return (x - 0.5) * math.log(x) - x + 0.5 * math.log(2.0 * math.pi) \
        + 1.0 / (12.0 * x) - 1.0 / (360.0 * x ** 3)


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


def _all_real(*vals) -> bool:
    return all(not isinstance(v, complex) for v in vals)


def _maybe_real(val: complex, inputs_real: bool):
    return val.real if inputs_real else val


def gauss_2f1(a, b, c, z, ctx: PrecisionContext = DEFAULT_CTX,
              method: str = "auto") -> complex | float:
    """Gauss hypergeometric 2F1(a, b; c; z).

    method "series": the power series at z itself, |z| < 1 (a polynomial
    at any z when a or b is a non-positive integer).  method "integral":
    the Euler integral, needs Re c > Re b > 0 (or the a/b-swapped variant)
    and z off [1, inf).

    method "auto", by region:

    - |z| <= 1/2, or a or b a non-positive integer: the series at z.
    - 1/2 < |z| < 1: one series routine, ``_series_2f1``, summed at the
      argument that needs the fewest terms (``_route_2f1``):

      * 1-z, by the connection formula (A&S 15.3.6).  It sums two series,
        so it counts at the radius sqrt|1-z|.  It is barred when c-a-b lies
        within ``_POLE_GAP`` of an integer, where its two terms grow like
        1/gap and cancel, and for parameters above
        ``_CONNECTION_PARAMETER_MAX``, where its Gamma products overflow.
      * z/(z-1), by Pfaff (DLMF 15.8.1), with no Gamma factor.
      * z itself, or its Euler transform (1-z)^(c-a-b) F(c-a, c-b; c; z),
        whichever has the faster-falling terms, unless that one cancels.

      Past radius 1/2 the series is summed to a tolerance scaled by
      (1-r)/r, so that its stopping rule leaves no more than the tolerance
      behind.  No quadrature runs.
    - |z| >= 1: the integral (the 1/z map is not implemented).

    Known gaps of auto mode (``_is_slow_2f1``), where every route runs at a
    radius above ``_SLOW_RADIUS`` and the series can reach its 2000-term
    cap: z next to 1 with c-a-b within ``_POLE_GAP`` of an integer (the limit
    forms of A&S 15.3.10-15.3.14 are not implemented), and the band around
    exp(+-i pi/3) near |z| = 1, where |z|, |z/(z-1)| and |1-z| are all near
    1.  Elsewhere on |z| <= 0.99 it meets 1e-11 relative (1e-14 absolute
    next to a zero) against mpmath for a, b, c in [-3, 3].
    """
    inputs_real = _all_real(a, b, c, z)
    ac, bc, cc, zc = complex(a), complex(b), complex(c), complex(z)
    if _is_nonpositive_int(cc) and not (
            _is_nonpositive_int(ac) and round(ac.real) > round(cc.real)) and not (
            _is_nonpositive_int(bc) and round(bc.real) > round(cc.real)):
        raise DomainError(f"2F1 undefined: c={c} is a non-positive integer")
    if zc == 0:
        return _maybe_real(complex(1.0), inputs_real)

    terminating = _is_nonpositive_int(ac) or _is_nonpositive_int(bc)
    if method == "auto":
        if abs(zc) < 1.0 or terminating:
            route, _ = _route_2f1(ac, bc, cc, zc)
            return _maybe_real(_finite(_ROUTES[route](ac, bc, cc, zc, ctx)),
                               inputs_real)
        method = "integral"

    if method == "series":
        if abs(zc) >= 1.0 and not terminating:
            raise DomainError(f"2F1 series needs |z| < 1, got |z|={abs(zc):.4g}")
        return _maybe_real(_finite(_series_2f1(ac, bc, cc, zc, ctx)), inputs_real)

    if method == "integral":
        aa, bb = ac, bc
        if not (cc.real > bb.real > 0.0):
            aa, bb = bb, aa  # 2F1 is symmetric in a, b
        if not (cc.real > bb.real > 0.0):
            raise DomainError("2F1 integral route needs Re c > Re b > 0")
        if zc.real >= 1.0 and abs(zc.imag) < 1e-300:
            raise DomainError(f"2F1 integral route: z={z} on the cut [1, inf)")

        def integrand(t: float) -> complex:
            return t ** (bb.real - 1.0) * (1.0 - t) ** (cc - bb - 1.0) \
                * (1.0 - zc * t) ** (-aa)

        pref = gamma(cc) / (gamma(bb) * gamma(cc - bb))
        return _maybe_real(pref * integrate_complex(integrand, 0.0, 1.0, ctx), inputs_real)

    raise DomainError(f"unknown 2F1 method {method!r}")


def _finite(val: complex) -> complex:
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
# Above this radius the series of the shortest route can need more than the
# default 2000-term cap (its terms may first grow like n^5); below it every
# route met 1e-11 relative against mpmath over parameters in [-3, 3].
_SLOW_RADIUS = 0.95


def _series_2f1(a: complex, b: complex, c: complex, z: complex,
                ctx: PrecisionContext) -> complex:
    """The power series of 2F1 at z, the one summation every route calls;
    a polynomial when a or b is a non-positive integer."""
    terminating = _is_nonpositive_int(a) or _is_nonpositive_int(b)
    if terminating and not _is_nonpositive_int(a):
        a, b = b, a
    # Below |c| = 1e-300, a b / c can overflow before z scales it back, and
    # z / c too for a subnormal c: t_1 = a (b 2^600) (z / (c 2^600)) keeps
    # every factor a normal double.
    t1 = a * (b * 2.0 ** 600) * (z / (c * 2.0 ** 600)) if abs(c) < 1e-300 else None
    if terminating:
        total = t = 1.0 + 0.0j
        for k in range(int(round(-a.real))):
            if k == 0 and t1 is not None:
                t = t1
            else:
                t *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
            total += t
        return total

    state = {"t": 1.0 + 0.0j}

    def term(n: int) -> complex:
        t = state["t"]
        state["t"] = t * (a + n) * (b + n) / ((c + n) * (n + 1)) * z
        return t

    if t1 is not None:
        state["t"], first = t1, term

        def term(n: int) -> complex:
            return first(n) if n else 1.0 + 0.0j

    if c.real < 0.0:
        # The factors c + n of (c)_n are smallest next to n = -Re c, and
        # before that two small terms do not mean the sum has converged: the
        # terms up to there are summed as one.
        head, plain = min(round(-c.real) + 2, ctx.max_series_terms), term

        def term(k: int) -> complex:
            return plain(k + head - 1) if k else sum(map(plain, range(head)))

    r = abs(z)
    if 0.5 < r < 1.0:
        # the terms fall by about r per step, so the stopping rule leaves a
        # tail of about r/(1-r) times its tolerance; scale that back to 1
        ctx = replace(ctx, eps_rel=ctx.eps_rel * (1.0 - r) / r,
                      eps_abs=ctx.eps_abs * (1.0 - r) / r)
    return sum_series(term, ctx).value


def _euler_2f1(a, b, c, z, ctx):
    # DLMF 15.8.1: the same radius as the series at z
    return (1.0 - z) ** (c - a - b) * _series_2f1(c - a, c - b, c, z, ctx)


def _pfaff_2f1(a, b, c, z, ctx):
    # DLMF 15.8.1, with a, b ordered so that the terms fall like
    # n^(a-b-1) r^n with Re(a-b) <= 0
    if a.real > b.real:
        a, b = b, a
    return (1.0 - z) ** (-a) * _series_2f1(a, c - b, c, z / (z - 1.0), ctx)


def _connection_2f1(a, b, c, z, ctx):
    # A&S 15.3.6 (DLMF 15.8.4 at z -> 1-z)
    s, w = c - a - b, 1.0 - z
    # the two terms grow like 1/gap, gap the distance of s from the nearest
    # integer (at least _POLE_GAP), and cancel to the sum: sum each series
    # that much tighter
    gap = abs(s - round(s.real))
    ctx = replace(ctx, eps_rel=ctx.eps_rel * gap, eps_abs=ctx.eps_abs * gap)
    near = gamma(s) / (gamma(c - a) * gamma(c - b)) \
        * _series_2f1(a, b, 1.0 - s, w, ctx)
    far = w ** s * gamma(-s) / (gamma(a) * gamma(b)) \
        * _series_2f1(c - a, c - b, 1.0 + s, w, ctx)
    return gamma(c) * (near + far)


_ROUTES = {"series": _series_2f1, "euler": _euler_2f1, "pfaff": _pfaff_2f1,
           "connection": _connection_2f1}


def _near_pole(x: complex, any_integer: bool = False) -> bool:
    """x within _POLE_GAP of a non-positive integer (of any integer when
    any_integer)."""
    n = round(x.real)
    return abs(x - (n if any_integer else min(n, 0))) < _POLE_GAP


def _route_2f1(a: complex, b: complex, c: complex,
               z: complex) -> tuple[str, float]:
    """The route auto mode takes at |z| < 1, and the radius its series is
    summed at; the connection formula sums two series at |1-z|, as many
    terms as one at sqrt|1-z|."""
    if _is_nonpositive_int(a) or _is_nonpositive_int(b):
        return "series", 0.0  # a polynomial
    if abs(z) <= 0.5:
        return "series", abs(z)
    radii = {"direct": abs(z), "pfaff": abs(z / (z - 1.0))}
    if _is_nonpositive_int(c - a) or _is_nonpositive_int(c - b):
        radii["euler"] = 0.0  # a polynomial
    elif (not _near_pole(c - a - b, any_integer=True)
          and max(abs(a), abs(b), abs(c)) <= _CONNECTION_PARAMETER_MAX):
        radii["connection"] = math.sqrt(abs(1.0 - z))
    route = min(radii, key=radii.get)
    if route != "direct":
        return route, radii[route]
    # The terms of F(A, B; c; z), (A, B) = (a, b) or the Euler pair
    # (c-a, c-b), fall like n^(A+B-c-1) r^n, so the pair with
    # Re(c-A-B) >= 0 is shorter.  That series tends to
    # Gamma(c) Gamma(c-A-B) / (Gamma(c-A) Gamma(c-B)) at z = 1; where this
    # nearly vanishes and z lies in the disk |z - 1/2| < 1/2 around
    # [0, 1], its terms cancel, and the other pair is summed.
    s = c - a - b
    shorter, other = ("series", "euler") if s.real >= 0.0 else ("euler", "series")
    ends = (c - a, c - b) if s.real >= 0.0 else (a, b)
    if z.real > abs(z) ** 2 and any(_near_pole(e) for e in ends):
        return other, abs(z)
    return shorter, abs(z)


def _is_slow_2f1(a, b, c, z) -> bool:
    """True in the known gaps of auto mode at |z| < 1: the route it takes
    runs at a radius above _SLOW_RADIUS."""
    _, radius = _route_2f1(complex(a), complex(b), complex(c), complex(z))
    return radius > _SLOW_RADIUS


def appell_f1(a, b1, b2, c, x, y, ctx: PrecisionContext = DEFAULT_CTX,
              method: str = "auto") -> complex | float:
    """Appell F1(a; b1, b2; c; x, y).

    Double series summed along anti-diagonals m+n = s (which matches the
    (a)_{m+n} coupling), valid for |x|, |y| < 1, after the Pfaff-type
    transformation (DLMF 16.16.1) when that moves x, y closer to 0.  The
    single-integral route
    int_0^1 t^(a-1)(1-t)^(c-a-1)(1-xt)^(-b1)(1-yt)^(-b2) dt needs
    c > a > 0 and serves as the independent oracle.
    """
    inputs_real = _all_real(a, b1, b2, c, x, y)
    ac, b1c, b2c, cc = complex(a), complex(b1), complex(b2), complex(c)
    xc, yc = complex(x), complex(y)

    if method == "auto":
        method = "series" if max(abs(xc), abs(yc)) < 1.0 else "integral"

    if method == "series":
        if max(abs(xc), abs(yc)) >= 1.0:
            raise DomainError("F1 double series needs |x|, |y| < 1")
        terminating = _is_nonpositive_int(ac)
        if _is_nonpositive_int(cc) and not (
                terminating and round(ac.real) > round(cc.real)):
            raise DomainError(f"F1 undefined: c={c} is a non-positive integer")
        pref = 1.0 + 0.0j
        xt, yt = xc / (xc - 1.0), yc / (yc - 1.0)
        if not terminating and max(abs(xt), abs(yt)) < max(abs(xc), abs(yc)):
            # DLMF 16.16.1: a smaller max(|x|, |y|) means fewer terms, and
            # for x or y near -1 it avoids cancellation between huge terms.
            # (A polynomial is summed as it stands.)
            pref = (1.0 - xc) ** (-b1c) * (1.0 - yc) ** (-b2c)
            ac, xc, yc = cc - ac, xt, yt
        return _maybe_real(pref * _appell_f1_series(ac, b1c, b2c, cc, xc, yc,
                                                    ctx), inputs_real)

    if method == "integral":
        if not (cc.real > ac.real > 0.0):
            raise DomainError("F1 integral route needs c > a > 0")

        def integrand(t: float) -> complex:
            return t ** (ac.real - 1.0) * (1.0 - t) ** (cc - ac - 1.0) \
                * (1.0 - xc * t) ** (-b1c) * (1.0 - yc * t) ** (-b2c)

        pref = gamma(cc) / (gamma(ac) * gamma(cc - ac))
        return _maybe_real(pref * integrate_complex(integrand, 0.0, 1.0, ctx), inputs_real)

    raise DomainError(f"unknown F1 method {method!r}")


def _appell_f1_series(a: complex, b1: complex, b2: complex, c: complex,
                      x: complex, y: complex, ctx: PrecisionContext) -> complex:
    # The anti-diagonal sums g_s = sum_{m+n=s} (b1)_m (b2)_n x^m y^n/(m! n!)
    # are the coefficients of (1-xt)^(-b1) (1-yt)^(-b2), whose log-derivative
    # gives the three-term recurrence below (g_0 = 1, g_{-1} = 0); the
    # anti-diagonal then carries (a)_s/(c)_s.  O(1) per term.
    xy, lin, bsum = x * y, b1 * x + b2 * y, b1 + b2 - 1.0
    state = {"g": 1.0 + 0.0j, "g_prev": 0.0 + 0.0j, "r": 1.0 + 0.0j}

    def term(s: int) -> complex:
        g, r = state["g"], state["r"]
        state["g_prev"], state["g"] = g, (
            ((x + y) * s + lin) * g - xy * (s + bsum) * state["g_prev"]) / (s + 1.0)
        if r:
            # a terminating series stops before (c)_s reaches a pole
            state["r"] = r * (a + s) / (c + s)
        return r * g

    return sum_series(term, ctx).value


@dataclass(frozen=True)
class BetaBase:
    """Exponent pair (a, b) of the incomplete Beta integral
    B(x, a, b) = int_0^x t^(a-1) (1-t)^(b-1) dt."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0.0 and self.b > 0.0):
            raise DomainError(f"Beta exponents must be positive: {self}")


def complete_beta(base: BetaBase) -> float:
    return math.exp(log_gamma_real(base.a) + log_gamma_real(base.b)
                    - log_gamma_real(base.a + base.b))


def incomplete_beta(x: float, base: BetaBase,
                    ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """B(x, a, b) = x^a (1-x)^b / a * CF(x), the continued fraction of
    DLMF 8.17.22, for x below the integrand's (a+1)/(a+b+2); beyond it the
    complement B(1, a, b) - B(1-x, b, a), which is then the larger part and
    does not cancel.

    The fraction is run to full double precision whatever ctx.eps_rel asks
    (about 8 steps, at most 24 for a, b in [0.1, 10]); ctx.max_series_terms
    caps its steps, and reaching the cap raises SeriesDivergenceError.
    """
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"incomplete beta needs x in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return complete_beta(base)
    a, b = base.a, base.b
    if x < (a + 1.0) / (a + b + 2.0):
        return x ** a * (1.0 - x) ** b / a * _beta_cf(x, a, b, ctx)
    y = 1.0 - x
    return complete_beta(base) - y ** b * x ** a / b * _beta_cf(y, b, a, ctx)


def _beta_cf(x: float, a: float, b: float, ctx: PrecisionContext) -> float:
    """1 / (1 + d_1 / (1 + d_2 / (1 + ...))) by modified Lentz
    (Numerical Recipes section 5.2 and 6.4), with
    d_2m+1 = -(a+m)(a+b+m) x / ((a+2m)(a+2m+1)) and
    d_2m = m (b-m) x / ((a+2m-1)(a+2m))."""
    tiny = 1e-300

    def guard(v: float) -> float:
        return v if abs(v) >= tiny else tiny

    c, d = 1.0, 1.0 / guard(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, ctx.max_series_terms + 1):
        m2 = 2.0 * m
        for coeff in (m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
                      -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0))):
            d = 1.0 / guard(1.0 + coeff * d)
            c = guard(1.0 + coeff / c)
            h *= d * c
        if abs(d * c - 1.0) <= 2.0 * MACHINE_EPS:
            return h
    raise SeriesDivergenceError(
        f"incomplete Beta continued fraction did not converge within "
        f"{ctx.max_series_terms} steps", best=h, gap=abs(d * c - 1.0))


def beta_sqrt(x: float, alpha: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """sqrt(B(x, alpha, alpha)), the symmetric-Beta candidate modular base."""
    return math.sqrt(incomplete_beta(x, BetaBase(alpha, alpha), ctx))


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
    if kprime <= 0.0:
        raise DomainError("elliptic_k diverges at k = 1")
    a, g = 1.0, kprime
    for _ in range(60):
        if abs(a - g) <= 1e-17 * a:
            break
        a, g = 0.5 * (a + g), math.sqrt(a * g)
    return math.pi / (2.0 * a)


def pn_poly(n: int, nu: float, x: complex | float) -> complex | float:
    """Terminating 2F1[-n, nu; 1-n-nu; x]: an (n+1)-term exact sum."""
    if n < 0 or n != int(n):
        raise DomainError(f"pn_poly needs a non-negative integer n, got {n}")
    inputs_real = _all_real(x)
    xc = complex(x)
    total = 1.0 + 0.0j
    t = 1.0 + 0.0j
    for k in range(int(n)):
        t *= (k - n) * (nu + k) / ((1.0 - n - nu + k) * (k + 1)) * xc
        total += t
    return _maybe_real(total, inputs_real)


def sin_multiple_p6(y: float) -> float:
    """6x^5 y - 20x^3 y^3 + 6x y^5 with x = sqrt(1-y^2); equals
    sin(6 arcsin y) on [-1, 1]."""
    if abs(y) > 1.0:
        raise DomainError(f"sin_multiple_p6 needs |y| <= 1, got {y}")
    x = math.sqrt((1.0 - y) * (1.0 + y))
    return 6.0 * x ** 5 * y - 20.0 * x ** 3 * y ** 3 + 6.0 * x * y ** 5


def quadratic_roots(a: float, b: float, c: float) -> tuple[complex, complex]:
    """Roots of a t^2 + b t + c, the smaller-modulus one first."""
    if a == 0.0:
        raise DomainError("quadratic_roots needs a != 0")
    disc = cmath.sqrt(complex(b * b - 4.0 * a * c))
    r1 = (-b + disc) / (2.0 * a)
    r2 = (-b - disc) / (2.0 * a)
    if abs(r1) <= abs(r2):
        return r1, r2
    return r2, r1


def quadratic_power_series(mu: float, nu: float, a: float, b: float, c: float,
                           x: float, ctx: PrecisionContext = DEFAULT_CTX) -> SeriesSum:
    """Series form of int_0^x t^mu (a t^2 + b t + c)^(-nu) dt:

        c^(-nu) x^(mu+1) * sum_n P_n(nu, r1/r2) (nu)_n / n! *
                            (x/r1)^n / (n + mu + 1)

    with r1, r2 the quadratic's roots, |r1| <= |r2|.  Complex roots are fine;
    the sum is real for real data.  Converges for |x| < |r1| and (slowly) on
    parts of the boundary.
    """
    r1, r2 = quadratic_roots(a, b, c)
    if r1 == 0:
        raise DomainError("quadratic has a root at 0")
    ratio = r1 / r2
    z = x / r1
    pref = complex(c) ** (-nu) * complex(x) ** (mu + 1.0)

    # The coefficients c_n = (nu)_n P_n(nu, ratio) / n! have the generating
    # function (1-t)^(-nu) (1-ratio*t)^(-nu), hence the three-term recurrence
    # below; O(1) per term instead of re-expanding each P_n.
    state = {"c": 1.0 + 0.0j, "c_prev": 0.0 + 0.0j, "z_pow": 1.0 + 0.0j}

    def term(n: int) -> complex:
        val = state["c"] * state["z_pow"] / (n + mu + 1.0)
        c_next = ((1.0 + ratio) * (n + nu) * state["c"]
                  - ratio * (n - 1.0 + 2.0 * nu) * state["c_prev"]) / (n + 1.0)
        state["c_prev"], state["c"] = state["c"], c_next
        state["z_pow"] *= z
        return val

    s = sum_series(term, ctx)
    return SeriesSum(pref * s.value, s.terms)


def quadratic_power_quadrature(mu: float, nu: float, a: float, b: float,
                               c: float, x: float,
                               ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """Direct quadrature oracle for int_0^x t^mu (a t^2 + b t + c)^(-nu) dt."""

    def f(t: float) -> float:
        return t ** mu * (a * t * t + b * t + c) ** (-nu)

    return integrate_finite(f, 0.0, x, ctx)


def quadratic_antiderivative_f1(m: float, n: float, a: float, b: float,
                                c: float, x: float,
                                ctx: PrecisionContext = DEFAULT_CTX) -> complex:
    """int_0^x t^m (a t^2 + b t + c)^n dt expressed through Appell F1:

        c^n x^(m+1)/(m+1) * F1[m+1, -n, -n, m+2; x/r1, x/r2]

    with r1, r2 the quadratic's roots (so c (1 - t/r1)(1 - t/r2) equals the
    quadratic identically).
    """
    r1, r2 = quadratic_roots(a, b, c)
    return complex(c) ** n * complex(x) ** (m + 1.0) / (m + 1.0) * complex(
        appell_f1(m + 1.0, -n, -n, m + 2.0, x / r1, x / r2, ctx))
