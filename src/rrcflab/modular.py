"""Singular moduli, the Klein j-invariant, the inverse functions of the
continued-fraction and eta-tail integrals, Beta-ratio singular-value
solvers, the sextic solver with its two independent evaluation paths, the
change-of-base procedure, and the trigonometric modular family.

Nome conventions are the single largest source of silent error in this
area, so every operation states which one it uses: `from_r` is
q = exp(-pi sqrt(r)); the sextic/derivative identities live on the squared
nome exp(-2 pi sqrt(r)).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from .numerics import (DEFAULT_CTX, DomainError, KernelError, PrecisionContext,
                       differentiate, expand_bracket, find_root)
from .quadrature import (AlgebraicDecay, ExponentialDecay, integrate_finite,
                         integrate_to_infinity)
from .report import CheckResult, compare, residuals
from .special import (BetaBase, appell_f1, elliptic_k, elliptic_k_complementary,
                      gauss_2f1, incomplete_beta)
from .qseries import (GOLDEN_CONJUGATE, Nome, dedekind_eta,
                      eta_quarter_integrand, u_of_q, u_of_q_log)


class ConsistencyError(KernelError):
    """Two supposedly equal internal routes disagreed."""


# The quarter-modulus branch point: j as a function of t = k^2 attains its
# minimum 1728 at t = (3 - 2 sqrt 2)^2; real instances need j > 1728.
_T_RIDGE = 17.0 - 12.0 * math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)


# ---------------------------------------------------------------------------
# Singular moduli and the j-invariant

def _singular_modulus_pair(r: float, ctx: PrecisionContext) -> tuple[float, float]:
    """(k_r, k'_r), both to full precision.

    For r >= 1 the root is bracketed in (0, 1/sqrt2] where k' is
    well-conditioned; for r < 1 the pair is the swap of the reciprocal
    index, so neither component is ever formed by a cancelling sqrt(1-k^2).
    """
    if r <= 0.0:
        raise DomainError(f"singular modulus needs r > 0, got {r}")
    if r < 1.0:
        k, kp = _singular_modulus_pair(1.0 / r, ctx)
        return kp, k
    sqrt_r = math.sqrt(r)
    estimate = min(0.70711, 4.0 * math.exp(-0.5 * math.pi * sqrt_r))
    lo = max(1e-300, estimate * 1e-3)

    def ratio_gap(k: float) -> float:
        return elliptic_k_complementary(k) / elliptic_k(k) - sqrt_r

    # Purely relative bracket tolerance: at large r the root sits at
    # k ~ 4 exp(-pi sqrt(r)/2), far below any fixed absolute floor.
    tight = ctx.with_eps(min(ctx.eps_rel, 1e-15), 1e-320)
    k = find_root(ratio_gap, lo, 0.70711, tight)
    return k, math.sqrt((1.0 - k) * (1.0 + k))


def singular_modulus(r: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """The unique k in (0, 1) with K(k')/K(k) = sqrt(r)."""
    return _singular_modulus_pair(r, ctx)[0]


def klein_j_from_quarter_modulus(t: float, one_minus_t: float | None = None) -> float:
    """16 (1 + 14 t + t^2)^3 / (t (1-t)^4) with t the squared modulus at the
    quadrupled index; pass one_minus_t when t is close to 1 and the
    complement is known exactly."""
    omt = (1.0 - t) if one_minus_t is None else one_minus_t
    if t <= 0.0 or omt <= 0.0:
        raise DomainError(f"quarter-modulus argument out of (0, 1): t={t}")
    return 16.0 * (1.0 + 14.0 * t + t * t) ** 3 / (t * omt ** 4)


def klein_j_from_lambda(lam: float, one_minus_lam: float | None = None) -> float:
    """256 (lam^2 - lam + 1)^3 / (lam^2 (1-lam)^2), the lambda-line form at
    lam = k_r^2; symmetric under lam -> 1 - lam."""
    oml = (1.0 - lam) if one_minus_lam is None else one_minus_lam
    if lam <= 0.0 or oml <= 0.0:
        raise DomainError(f"lambda argument out of (0, 1): {lam}")
    return 256.0 * (lam * lam - lam + 1.0) ** 3 / (lam * lam * oml * oml)


@lru_cache(maxsize=4096)
def _klein_j_cached(r: float) -> float:
    ctx = DEFAULT_CTX
    k4r, k4r_p = _singular_modulus_pair(4.0 * r, ctx)
    value = klein_j_from_quarter_modulus(k4r * k4r, k4r_p * k4r_p)
    kr, kr_p = _singular_modulus_pair(r, ctx)
    lam_form = klein_j_from_lambda(kr * kr, kr_p * kr_p)
    if abs(value - lam_form) > 1e-8 * abs(value):
        raise ConsistencyError(
            f"j-invariant forms disagree at r={r}: {value} vs {lam_form}")
    return value


def klein_j(r: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """j-invariant at index r, from the quarter-modulus form, cross-checked
    against the lambda-line form on every call."""
    if r <= 0.0:
        raise DomainError(f"klein_j needs r > 0, got {r}")
    return _klein_j_cached(float(r))


# ---------------------------------------------------------------------------
# The integrals inverted by F, m, G, theta

def rr_integrand(x: float) -> float:
    """1 / (x (x^-5 - 11 - x^5)^(1/6)), written as
    x^(-1/6) (1 - 11 x^5 - x^10)^(-1/6) so x -> 0 never overflows."""
    if not (0.0 < x < GOLDEN_CONJUGATE):
        raise DomainError(f"integrand defined on (0, {GOLDEN_CONJUGATE}), got {x}")
    return x ** (-1.0 / 6.0) * (1.0 - 11.0 * x ** 5 - x ** 10) ** (-1.0 / 6.0)


def rr_integral(upper: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """int_0^upper dx / (x (x^-5 - 11 - x^5)^(1/6)) for upper in the
    continued fraction's range (0, (sqrt5-1)/2)."""
    if not (0.0 < upper < GOLDEN_CONJUGATE):
        raise DomainError(f"upper limit must lie in (0, {GOLDEN_CONJUGATE})")
    near_top = upper > GOLDEN_CONJUGATE - 1e-6
    return integrate_finite(rr_integrand, 0.0, upper, ctx,
                            singular_at_a=True, singular_at_b=near_top)


def surd_tail_integral(lower: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """int_lower^inf t^(-1/6) (125 + 22 t + t^2)^(-1/2) dt; the integrand
    decays like t^(-7/6), so the far tail is mapped by 1/t onto (0, 1]."""
    if lower < 0.0:
        raise DomainError(f"lower limit must be >= 0, got {lower}")

    def f(t: float) -> float:
        return t ** (-1.0 / 6.0) * (125.0 + 22.0 * t + t * t) ** -0.5

    split = max(2.0 * lower, 500.0)
    head = integrate_finite(f, lower, split, ctx, singular_at_a=lower == 0.0)
    return head + integrate_to_infinity(f, split, AlgebraicDecay(7.0 / 6.0), ctx)


def eta_tail_integral(lower: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """int_lower^inf eta(i t/2)^4 dt; the integrand is bounded by
    exp(-pi t/6), which sets the truncation point."""
    if lower < 0.0:
        raise DomainError(f"lower limit must be >= 0, got {lower}")

    def f(t: float) -> float:
        return eta_quarter_integrand(t) if t > 0.0 else 0.0

    return integrate_to_infinity(f, lower, ExponentialDecay(math.pi / 6.0), ctx)


@lru_cache(maxsize=1)
def _f_argument_max() -> float:
    # Range of the defining integral: sup over upper -> (sqrt5-1)/2, which
    # equals one fifth of the full surd tail from 0.
    return 0.2 * surd_tail_integral(0.0, DEFAULT_CTX)


def F_of_x(x: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """Inverse of upper -> int_0^upper dx/(x (x^-5-11-x^5)^(1/6)): the value
    of the continued fraction at the nome whose eta-tail integral is 5x."""
    if x == 0.0:
        return 0.0
    if x < 0.0 or x >= _f_argument_max():
        raise DomainError(f"argument {x} outside [0, {_f_argument_max()})")
    hi = GOLDEN_CONJUGATE * (1.0 - 1e-13)
    return find_root(lambda upper: rr_integral(upper, ctx) - x, 1e-250, hi, ctx)


def m_of_x(x: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """Inverse of m -> pi int_sqrt(m)^inf eta(i t/2)^4 dt; strictly
    decreasing in x."""
    if x <= 0.0 or x >= math.pi * eta_tail_integral(0.0, ctx):
        raise DomainError(f"argument {x} outside the eta-tail integral's range")

    def gap(s: float) -> float:
        return math.pi * eta_tail_integral(s, ctx) - x

    lo, hi = expand_bracket(gap, 1e-6, 8.0)
    s = find_root(gap, lo, hi, ctx)
    return s * s


def G_of_x(x: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """Inverse of G -> (1/5) int_G^inf t^(-1/6)(125+22t+t^2)^(-1/2) dt,
    post-verified against F(x)^-5 - 11 - F(x)^5."""
    if x <= 0.0 or x >= _f_argument_max():
        raise DomainError(f"argument {x} outside (0, {_f_argument_max()})")

    def gap(g: float) -> float:
        return 0.2 * surd_tail_integral(g, ctx) - x

    lo, hi = expand_bracket(gap, 1e-12, 8.0)
    value = find_root(gap, lo, hi, ctx)
    f_val = F_of_x(x, ctx)
    from_f = 1.0 / f_val ** 5 - 11.0 - f_val ** 5
    if abs(value - from_f) > 1e-6 * abs(value) + 1e-9:
        raise ConsistencyError(
            f"G(x) routes disagree at x={x}: {value} vs {from_f}")
    return value


def theta_of_X(X: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """b in (0, 1) with 4^(-1/3) B(b, 1/6, 2/3) equal to the surd tail from
    X; only the defining equation is used, no algebraicity is assumed."""
    if X <= 0.0:
        raise DomainError(f"theta_of_X needs X > 0, got {X}")
    target = 4.0 ** (1.0 / 3.0) * surd_tail_integral(X, ctx)
    base = BetaBase(1.0 / 6.0, 2.0 / 3.0)

    def gap(b: float) -> float:
        return incomplete_beta(b, base, ctx) - target

    return find_root(gap, 1e-300, 1.0 - 1e-14, ctx)


# ---------------------------------------------------------------------------
# Sextic solver

@dataclass(frozen=True)
class SexticInstance:
    """Coefficients of b^2/(20a) + b X + a X^2 = c1 X^(5/3)."""

    a: float
    b: float
    c1: float

    def __post_init__(self):
        if self.a == 0.0 or self.b == 0.0:
            raise DomainError("sextic instance needs a != 0 and b != 0")
        if not math.isfinite(self.j):
            raise DomainError(f"derived j-invariant not finite for {self}")

    @property
    def j(self) -> float:
        return 250.0 * self.c1 ** 3 / (self.a ** 2 * self.b)

    def residual(self, X: float) -> float:
        lhs = self.b ** 2 / (20.0 * self.a) + self.b * X + self.a * X * X
        rhs = self.c1 * X ** (5.0 / 3.0)
        scale = max(abs(lhs), abs(rhs))
        return abs(lhs - rhs) / scale if scale > 0 else abs(lhs - rhs)


@dataclass(frozen=True)
class SexticSolution:
    x: float          # root of the sextic, hypergeometric/quadrature path
    t: float          # quarter-modulus square solving the j relation
    r: float          # index recovered from t via the period ratio
    k4r: float        # sqrt(t)
    x_alt: float      # same root from the eta-quotient path
    residual: float   # relative residual of the sextic at x


def _quarter_modulus_roots(j: float, ctx: PrecisionContext) -> list[float]:
    """The t in (0, 1) with 16 (1+14t+t^2)^3 / (t (1-t)^4) = j, smaller
    first; worked in logs since j spans many decades.  j touches its
    minimum 1728 at the ridge t = (3-2 sqrt2)^2, where the two branches
    coincide."""
    if j <= 1728.0 * (1.0 + 1e-12):
        return [_T_RIDGE]
    target = math.log(j)

    def gap(t: float) -> float:
        return math.log(klein_j_from_quarter_modulus(t)) - target

    # The small root falls to ~6e-6 by j ~ 3e6, so an absolute tolerance in t
    # of eps_abs would stop short of relative accuracy: judge t relatively.
    root_ctx = ctx.with_eps(ctx.eps_rel, 1e-300)
    roots = []
    if gap(1e-15) > 0.0 > gap(_T_RIDGE):
        roots.append(find_root(gap, 1e-15, _T_RIDGE, root_ctx))
    if gap(1.0 - 1e-12) > 0.0 > gap(_T_RIDGE):
        roots.append(find_root(gap, _T_RIDGE, 1.0 - 1e-12, root_ctx))
    return roots or [_T_RIDGE]


def hypergeometric_g_argument(t: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """(3/5) 2^(1/3) t^(1/6) 2F1[1/3, 1/6; 7/6; t]: the closed-form value of
    the continued-fraction integral at quarter-modulus square t.

    Carries the 1/5 that the eta-tail normalisation requires; dropping it
    breaks the sextic residual by orders of magnitude.
    """
    return 0.6 * 2.0 ** (1.0 / 3.0) * t ** (1.0 / 6.0) * float(
        gauss_2f1(1.0 / 3.0, 1.0 / 6.0, 7.0 / 6.0, t, ctx))


def solve_sextic(inst: SexticInstance,
                 ctx: PrecisionContext = DEFAULT_CTX) -> SexticSolution:
    """Solve the sextic by two independent routes and keep both results.

    Path A inverts the surd-tail integral at the hypergeometric argument of
    the t-root (quadrature + 2F1 only).  Path B recovers the index r from t
    through the elliptic period ratio and evaluates the eta-quotient at the
    squared nome.  Real instances need j > 1728; below that the
    quarter-modulus square leaves (0, 1).
    """
    j = inst.j
    if j < 1728.0 * (1.0 - 1e-12):
        raise DomainError(
            f"derived j={j:.6g} < 1728: no real quarter-modulus; "
            "complex-modulus instances are rejected")
    candidates = _quarter_modulus_roots(j, ctx)

    # The j map is two-to-one on (0, 1); every preimage solves the sextic,
    # so take the smaller-t branch (index r >= 1) when it checks out and
    # fall back to the other preimage only if it does not.
    best: SexticSolution | None = None
    for t in sorted(candidates):
        x_a = inst.b / (250.0 * inst.a) * G_of_x(hypergeometric_g_argument(t, ctx), ctx)
        k = math.sqrt(t)
        ratio = elliptic_k_complementary(k) / elliptic_k(k)
        r = ratio * ratio / 4.0
        x_b = inst.b / (250.0 * inst.a) * u_of_q(Nome.from_r_squared(r))
        sol = SexticSolution(x=x_a, t=t, r=r, k4r=k, x_alt=x_b,
                             residual=inst.residual(x_a))
        if sol.residual <= 1e-6 and abs(sol.x - sol.x_alt) <= 1e-6 * abs(sol.x):
            return sol
        if best is None or sol.residual < best.residual:
            best = sol
    raise ConsistencyError(
        f"sextic paths disagree: x={best.x}, x_alt={best.x_alt}, "
        f"residual={best.residual:.3g}")


# ---------------------------------------------------------------------------
# Beta-ratio singular values and the change of base

def beta_ratio_root(base: BetaBase, r: float,
                    ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """The unique x in (0, 1) with B(1-x, base)/B(x, base) = r (the ratio is
    strictly decreasing in x)."""
    if r <= 0.0:
        raise DomainError(f"ratio must be positive, got {r}")

    def gap(x: float) -> float:
        return incomplete_beta(1.0 - x, base, ctx) / incomplete_beta(x, base, ctx) - r

    return find_root(gap, 1e-12, 1.0 - 1e-12, ctx)


def invert_lambda_j(j0: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """The root of the lambda-line j form in (0, 1/2]; needs j0 >= 1728."""
    if j0 < 1728.0:
        raise DomainError(f"lambda-line j is >= 1728 on (0,1), got {j0}")
    if j0 == 1728.0:
        return 0.5

    def gap(lam: float) -> float:
        return math.log(klein_j_from_lambda(lam)) - math.log(j0)

    return find_root(gap, 1e-15, 0.5, ctx)


def theorem6_base_change(fbase, r: float,
                         ctx: PrecisionContext = DEFAULT_CTX,
                         grid_points: int = 9) -> tuple[float, float, float]:
    """Singular value of an arbitrary base function, then its expression
    through the elliptic machinery.

    Solves fbase(1-x)/fbase(x) = sqrt(r) for alpha, maps it to
    r0 = (K(sqrt(1-alpha))/K(sqrt(alpha)))^2 and to the lambda-line j at
    alpha, and verifies that inverting that j recovers min(alpha, 1-alpha).
    Returns (alpha, r0, j0).
    """
    if r <= 0.0:
        raise DomainError(f"need r > 0, got {r}")

    def ratio(x: float) -> float:
        return fbase(1.0 - x) / fbase(x)

    samples = [ratio((i + 1) / (grid_points + 1)) for i in range(grid_points)]
    increasing = all(b >= a for a, b in zip(samples, samples[1:]))
    decreasing = all(b <= a for a, b in zip(samples, samples[1:]))
    if not (increasing or decreasing):
        raise DomainError("base ratio is not monotone on the sampled grid")

    alpha = find_root(lambda x: ratio(x) - math.sqrt(r), 1e-12, 1.0 - 1e-12, ctx)
    r0 = (elliptic_k(math.sqrt(1.0 - alpha)) / elliptic_k(math.sqrt(alpha))) ** 2
    j0 = klein_j_from_lambda(alpha)
    recovered = invert_lambda_j(j0, ctx)
    if abs(recovered - min(alpha, 1.0 - alpha)) > 1e-8 * max(alpha, 1e-8):
        raise ConsistencyError(
            f"alpha does not re-solve its own j: {recovered} vs {alpha}")
    return alpha, r0, j0


# ---------------------------------------------------------------------------
# Derivative identity of the eta-quotient map

def sextic_variable_of_index(r: float) -> float:
    """X(r) = u(exp(-2 pi sqrt r)): the eta-quotient sixth power on the
    squared-nome convention; increasing in r."""
    return u_of_q(Nome.from_r_squared(r))


def theorem7_derivative_check(r: float,
                              ctx: PrecisionContext = DEFAULT_CTX) -> CheckResult:
    """Compare dX/dr against pi (eta(i sqrt r)^4 / sqrt r) X^(1/6)
    sqrt(125 + 22 X + X^2).

    The magnitudes agree; the stated formula carries a minus sign while the
    map is increasing, so the signed values are recorded and the check is
    judged on |.|.
    """
    if r <= 0.0:
        raise DomainError(f"need r > 0, got {r}")
    fd = differentiate(sextic_variable_of_index, r, ctx)
    x = sextic_variable_of_index(r)
    stated = -math.pi * dedekind_eta(math.sqrt(r)) ** 4 / math.sqrt(r) \
        * x ** (1.0 / 6.0) * math.sqrt(125.0 + 22.0 * x + x * x)
    notes = (f"finite difference {fd.value:.12g} (est err {fd.error:.2g}) vs "
             f"stated {stated:.12g}; magnitudes compared, signs recorded: "
             f"fd>0, stated<0 (map is increasing in r)")
    return compare(f"T7.r={r:g}", "Theorem 7", abs(fd.value), abs(stated),
                   tolerance=1e-5, notes=notes)


# ---------------------------------------------------------------------------
# The j-integral identity and its closed forms

_J50_ARG_1 = -1.0 / (25.0 * (5.0 - 2.0 * SQRT5))
_J50_ARG_2 = -1.0 / (25.0 * (5.0 + 2.0 * SQRT5))


def j_integral_f1_form(x: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """(3 x^(8/3) / 25000) F1[8/3, 1, 1, 11/3; -x/(25(5-2 sqrt5)),
    -x/(25(5+2 sqrt5))]."""
    if x <= 0.0:
        return 0.0
    val = appell_f1(8.0 / 3.0, 1.0, 1.0, 11.0 / 3.0,
                    _J50_ARG_1 * x, _J50_ARG_2 * x, ctx)
    return 3.0 * x ** (8.0 / 3.0) / 25000.0 * complex(val).real


def _phi(z: float, ctx: PrecisionContext) -> float:
    return float(gauss_2f1(1.0, 8.0 / 3.0, 11.0 / 3.0, z, ctx))


def j_integral_phi_printed(x: float, ctx: PrecisionContext = DEFAULT_CTX,
                           squared_second_arg: bool = True) -> float:
    """The phi-combination exactly as displayed:
    3 x^(8/3) / (25000 (x-1)) [-phi(a x) + x phi(a x^2)], a = (5+2 sqrt5)/125;
    squared_second_arg=False replaces the suspected x^2 by x."""
    a = (5.0 + 2.0 * SQRT5) / 125.0
    second = a * x * x if squared_second_arg else a * x
    return 3.0 * x ** (8.0 / 3.0) / (25000.0 * (x - 1.0)) \
        * (-_phi(a * x, ctx) + x * _phi(second, ctx))


def j_integral_phi_partial_fraction(x: float,
                                    ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """The phi-combination obtained by splitting 1/(t^2+250t+3125) over its
    roots rho = -125 +- 50 sqrt5:
    (3 x^(8/3)/25000) (phi(x/rho1) - (rho1/rho2) phi(x/rho2)) / (1 - rho1/rho2)."""
    rho1 = -125.0 + 50.0 * SQRT5
    rho2 = -125.0 - 50.0 * SQRT5
    ratio = rho1 / rho2
    return 3.0 * x ** (8.0 / 3.0) / 25000.0 \
        * (_phi(x / rho1, ctx) - ratio * _phi(x / rho2, ctx)) / (1.0 - ratio)


def eta_quotient_nome_of(w: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """q in (0, 1) with u(q) = w (the eta-quotient map is decreasing)."""
    if w <= 0.0:
        raise DomainError(f"eta-quotient values are positive, got {w}")
    target = math.log(w)
    return find_root(lambda q: u_of_q_log(q) - target, 1e-8, 1.0 - 1e-12, ctx)


def j_integral_quadrature(x: float, ctx: PrecisionContext = DEFAULT_CTX,
                          inverse_cube_root: bool = True) -> float:
    """Direct quadrature of the j-power along the inverse eta-quotient:
    int_0^x j(Y^(-1)(w))^(+-1/3) dw with Y(q) = u(q^2).

    inverse_cube_root=True uses the exponent -1/3 that the derivative
    identity requires (the display prints +1/3).  Below w = 1e-10 the cusp
    asymptotic j^(-1/3) ~ (w/125)^(5/3) stands in for the inversion; its
    relative error there is O(w).
    """
    if not (0.0 < x <= 1.0):
        raise DomainError(f"needs 0 < x <= 1, got {x}")
    expo = -1.0 / 3.0 if inverse_cube_root else 1.0 / 3.0

    def integrand(w: float) -> float:
        if w < 1e-10:
            core = (w / 125.0) ** (5.0 / 3.0)
            return core if inverse_cube_root else 1.0 / core
        q_squared = eta_quotient_nome_of(w, ctx)
        r = (math.log(math.sqrt(q_squared)) / math.pi) ** 2
        return klein_j(r) ** expo

    return integrate_finite(integrand, 0.0, x, ctx, singular_at_a=True)


def j_integral_identity(x: float,
                        ctx: PrecisionContext = DEFAULT_CTX) -> CheckResult:
    """F1 closed form against the direct j-quadrature at the same x."""
    loose = ctx.with_eps(max(ctx.eps_rel, 1e-10), 1e-18)
    quad = j_integral_quadrature(x, loose)
    closed = j_integral_f1_form(x, ctx)
    notes = ("quadrature uses the j^(-1/3) integrand fixed by the derivative "
             "identity; the displayed +1/3 exponent does not integrate to "
             "the F1 form")
    return compare(f"Eq50.quadrature.x={x:g}", "Eqs (50)-(51) j-integral",
                   closed, quad, tolerance=1e-5, notes=notes)


# ---------------------------------------------------------------------------
# Trigonometric modular family

def trig_modular(R: float) -> float:
    """m(R) = sin^2(pi / (2(R+1))): the singular value of the
    sqrt(arcsin sqrt(x)) base."""
    if R <= 0.0:
        raise DomainError(f"need R > 0, got {R}")
    return math.sin(math.pi / (2.0 * (R + 1.0))) ** 2


def trig_modular_equation_check(R: float) -> CheckResult:
    """m(R+1) = (1 - sqrt(1 - m(R/2))) / 2."""
    lhs = trig_modular(R + 1.0)
    rhs = 0.5 * (1.0 - math.sqrt(1.0 - trig_modular(R / 2.0)))
    return compare(f"Ex5.eq67.R={R:g}", "Example 5, Eq (67)", lhs, rhs,
                   tolerance=1e-12,
                   notes="half-angle consistency of the arcsin base")


def psi_arcsin_ratio(x: float) -> float:
    """sqrt(arcsin(sqrt(1-x)) / arcsin(sqrt(x))): the base ratio whose root
    is trig_modular."""
    return math.sqrt(math.asin(math.sqrt(1.0 - x)) / math.asin(math.sqrt(x)))


# ---------------------------------------------------------------------------
# Unit-circle reformulation of the arcsin singular equation

def example4_checks(r: float, ctx: PrecisionContext = DEFAULT_CTX) -> list[CheckResult]:
    """Two records for the arcsin singular equation at index r.

    (a) Solve arcsin(1-s) = r arcsin(s); with y = i s + sqrt(1-s^2) the
    combination 2i + 1/y - y + y^-r - y^r must vanish (real and imaginary
    parts are reported separately in the notes).
    (b) The displayed construction through xi = (-i - sqrt3)/2: the claim
    t = sin(pi/(4+2r)) does solve psi(1-2t^2)/psi(t) = sqrt(r), while the
    xi-chain itself lands on sin(5 pi/(6r)); both residuals are recorded
    and the record is flagged.
    """
    if r <= 0.0:
        raise DomainError(f"need r > 0, got {r}")

    s = find_root(lambda v: math.asin(1.0 - v) - r * math.asin(v),
                  1e-15, 1.0 - 1e-15, ctx)
    y = complex(math.sqrt((1.0 - s) * (1.0 + s)), s)
    res = 2.0j + 1.0 / y - y + y ** (-r) - y ** r
    rec_a = compare(
        f"Ex4.eq63.r={r:g}", "Example 4, Eqs (62)-(63)", res, 0.0,
        tolerance=1e-10, relative=False,
        notes=(f"s={s:.15g}; residual parts re={res.real:.3g} "
               f"im={res.imag:.3g}"))

    def psi(z: complex) -> complex:
        return cmath.sqrt(2.0 * cmath.asin(z))

    t_claim = math.sin(math.pi / (4.0 + 2.0 * r))
    claim_res = abs(psi(1.0 - 2.0 * t_claim * t_claim) / psi(t_claim)
                    - math.sqrt(r))
    xi = complex(-math.sqrt(3.0) / 2.0, -0.5)
    inner = (1.0 - 2.0j * xi - xi * xi
             + cmath.sqrt(1.0 - 4.0j * xi - 2.0 * xi * xi
                          + 4.0j * xi ** 3 + xi ** 4))
    x_r = 2.0 ** (-1.0 / r) * (inner / xi) ** (1.0 / r)
    x_chain = (-1.0j * (1.0 - x_r * x_r) / (2.0 * x_r)).real
    chain_res = abs(psi(1.0 - 2.0 * x_chain * x_chain) / psi(complex(x_chain, 0))
                    - math.sqrt(r))
    rec_b = compare(
        f"Ex4.tclaim.r={r:g}", "Example 4, xi-construction and final claim",
        claim_res, 0.0, tolerance=1e-10, relative=False, flagged=True,
        notes=(f"t=sin(pi/(4+2r)) residual {claim_res:.3g} (holds); "
               f"xi-chain lands on {x_chain:.12g}=sin(5pi/(6r)) with ratio "
               f"residual {chain_res:.3g} (does not match the claim)"))
    return [rec_a, rec_b]


# ---------------------------------------------------------------------------
# The arcsin-series pi formula

def pi_formula_partial_sum(R: float, terms: int) -> float:
    """Partial sum of the pi/(R+1) series: the n-th term is
    (1/4)_n (3/4)_{-n} / ((1/2)_{-n} n!) m(R)^(n+1/2) / (n+1/2), negative
    Pochhammer indices read as (a)_{-n} = 1/(a-n)_n."""
    if terms < 1:
        raise DomainError(f"need at least one term, got {terms}")
    m = trig_modular(R)
    total = 0.0
    coeff = 1.0
    for n in range(terms):
        term = coeff * m ** (n + 0.5) / (n + 0.5)
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
        # term ratio, unreduced: (1/4)_{n+1} = (1/4)_n (n+1/4), and
        # (a)_{-n-1} = (a)_{-n} / (a-n-1) for a = 3/4 and 1/2
        coeff *= (0.25 + n) * (0.5 - n - 1.0) / ((0.75 - n - 1.0) * (n + 1.0))
    return total


def pi_formula_check(R: float, terms: int = 200,
                     ctx: PrecisionContext = DEFAULT_CTX) -> CheckResult:
    """Partial sums against pi/(R+1) and the arcsin closed form."""
    m = trig_modular(R)
    partial = pi_formula_partial_sum(R, terms)
    target = math.pi / (R + 1.0)
    closed = 2.0 * math.asin(math.sqrt(m))
    # All coefficients reduce to the positive arcsin coefficients, so the
    # partial sums increase; the tail is a geometric-dominated arcsin tail.
    tail = m ** (terms + 0.5) / ((terms + 0.5) * (1.0 - m)) if m < 1.0 else math.inf
    notes = (f"m(R)={m:.15g}; closed arcsin form {closed:.15g}; "
             f"{terms}-term tail bound {tail:.3g}")
    return compare(f"Ex6.eq68.R={R:g}", "Example 6, Eqs (68)-(69)",
                   partial, target, tolerance=max(1e-10, 2.0 * tail / target),
                   notes=notes)
