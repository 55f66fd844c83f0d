"""Classical special functions built on the series/quadrature kernels:
Gamma (Lanczos, complex), Gauss 2F1 with dual series/integral routes,
Appell F1, the incomplete Beta function, the complete elliptic integral K
via AGM, terminating 2F1 polynomials, the sine-sextuple polynomial, and the
quadratic-surd integral series engine they feed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .numerics import (DEFAULT_CTX, DomainError, PrecisionContext, SeriesSum,
                       sum_series)
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

    Raises PoleError at the poles 0, -1, -2, ...
    """
    zc = complex(z)
    if _is_nonpositive_int(zc):
        raise PoleError(f"gamma pole at z={z}")
    if zc.real < 0.5:
        # Reflection: gamma(z) gamma(1-z) = pi / sin(pi z), with
        # sin(pi z) = (-1)^n sin(pi (z - n)) for the nearest integer n: z - n
        # is exact, while the rounded product pi z would lose every digit
        # of z next to a pole
        n = round(zc.real)
        sine = cmath.sin(math.pi * (zc - n))
        val = math.pi / ((-sine if n % 2 else sine) * gamma(1.0 - zc))
    else:
        w = zc - 1.0
        acc = _LANCZOS[0]
        for i, c in enumerate(_LANCZOS[1:], start=1):
            acc += c / (w + i)
        t = w + _LANCZOS_G + 0.5
        val = math.sqrt(2.0 * math.pi) * t ** (w + 0.5) * cmath.exp(-t) * acc
    if isinstance(z, complex):
        return val
    return val.real


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

    method "series": power series, |z| < 1 (Euler-transformed first when
    0.8 < |z| < 1).  method "integral": the Euler integral, needs
    Re c > Re b > 0 (or the a/b-swapped variant) and z off [1, inf).
    "auto" prefers the series and falls back to the integral.
    """
    inputs_real = _all_real(a, b, c, z)
    ac, bc, cc, zc = complex(a), complex(b), complex(c), complex(z)
    if _is_nonpositive_int(cc) and not (
            _is_nonpositive_int(ac) and round(ac.real) > round(cc.real)) and not (
            _is_nonpositive_int(bc) and round(bc.real) > round(cc.real)):
        raise DomainError(f"2F1 undefined: c={c} is a non-positive integer")
    if zc == 0:
        return _maybe_real(complex(1.0), inputs_real)

    if method == "auto":
        if _is_nonpositive_int(ac) or _is_nonpositive_int(bc) or abs(zc) <= 0.8:
            method = "series"
        elif abs(zc) < 1.0:
            # Euler transformation improves the tail without leaving the disk
            val = (1.0 - zc) ** (cc - ac - bc) * gauss_2f1(
                cc - ac, cc - bc, cc, zc, ctx, method="series")
            return _maybe_real(val, inputs_real)
        else:
            method = "integral"

    if method == "series":
        if _is_nonpositive_int(ac) or _is_nonpositive_int(bc):
            return _maybe_real(_terminating_2f1(ac, bc, cc, zc), inputs_real)
        if abs(zc) >= 1.0:
            raise DomainError(f"2F1 series needs |z| < 1, got |z|={abs(zc):.4g}")

        def term(n: int, state={"t": 1.0 + 0.0j}):
            t = state["t"]
            state["t"] = t * (ac + n) * (bc + n) / ((cc + n) * (n + 1)) * zc
            return t

        return _maybe_real(sum_series(term, ctx).value, inputs_real)

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
        val = pref * integrate_complex(integrand, 0.0, 1.0, ctx,
                                       singular_at_a=bb.real < 1.0,
                                       singular_at_b=(cc - bb).real < 1.0)
        return _maybe_real(val, inputs_real)

    raise DomainError(f"unknown 2F1 method {method!r}")


def _terminating_2f1(a: complex, b: complex, c: complex, z: complex) -> complex:
    if _is_nonpositive_int(a):
        n = int(round(-a.real))
    else:
        n = int(round(-b.real))
        a, b = b, a
    total = 1.0 + 0.0j
    t = 1.0 + 0.0j
    for k in range(n):
        t *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
        total += t
    return total


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
        val = pref * integrate_complex(integrand, 0.0, 1.0, ctx,
                                       singular_at_a=ac.real < 1.0,
                                       singular_at_b=(cc - ac).real < 1.0)
        return _maybe_real(val, inputs_real)

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
    """B(x, a, b) via the power series x^a/a * 2F1(a, 1-b; a+1; x) for
    x <= 1/2, and the complement B(1,a,b) - B(1-x, b, a) otherwise."""
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"incomplete beta needs x in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return complete_beta(base)
    a, b = base.a, base.b
    if x <= 0.5:
        f = gauss_2f1(a, 1.0 - b, a + 1.0, x, ctx, method="series")
        return x ** a / a * float(f)
    return complete_beta(base) - incomplete_beta(1.0 - x, BetaBase(b, a), ctx)


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

    return integrate_finite(f, 0.0, x, ctx, singular_at_a=mu < 0.0)


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
