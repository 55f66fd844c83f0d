"""High-precision references for the benchmark, computed with mpmath.

Nothing here calls rrcflab: every value comes from mpmath's own special
functions, from a q-series summed at a small nome (after a modular
transformation when the nome is near 1), or from an mpmath quadrature of a
defining integral.  All of it runs before or after the
timed region, never inside it.
"""

from __future__ import annotations

try:
    import mpmath as mp
except ImportError as exc:  # the references are the correctness check
    raise SystemExit(f"perfbench needs mpmath for its references: {exc}")

DPS = 30


def _signed_series(q, quad: int, lin: int):
    """sum over all integers n of (-1)^n q^((quad n^2 - lin n) / 2)."""
    total = mp.mpf(1)
    tiny = mp.mpf(10) ** (-mp.mp.dps - 5)
    n = 1
    while True:
        t1 = q ** ((quad * n * n - lin * n) // 2)
        t2 = q ** ((quad * n * n + lin * n) // 2)
        total += (-1) ** n * (t1 + t2)
        if t1 < tiny and t2 < tiny:
            return total
        n += 1


def _image(q):
    """(t, q') with q = exp(-2 pi t) and q' = exp(-2 pi / t), the nome of
    the reciprocal index; q' is tiny whenever q > 1/2."""
    t = -mp.log(q) / (2 * mp.pi)
    return t, mp.exp(-2 * mp.pi / t)


def euler(q):
    """(q; q)_inf by Euler's pentagonal-number series; for q > 1/2 through
    eta(i/t) = sqrt(t) eta(i t), so the series always runs at a small
    nome."""
    with mp.workdps(DPS + 10):
        q = mp.mpf(q)
        if q <= 0.5:
            return _signed_series(q, 3, 1)
        t, image = _image(q)
        return (mp.exp(mp.pi * t / 12 - mp.pi / (12 * t))
                * _signed_series(image, 3, 1) / mp.sqrt(t))


def _rrcf_product(q):
    # Rogers-Ramanujan product, each side summed by the Jacobi triple
    # product: R = q^(1/5) S(5,3) / S(5,1)
    return q ** (mp.mpf(1) / 5) * _signed_series(q, 5, 3) / _signed_series(q, 5, 1)


def rrcf(q: float):
    """R(q); for q > 1/2 through Ramanujan's reciprocity
    (phi + R(exp(-2 pi a))) (phi + R(exp(-2 pi / a))) = (5 + sqrt5)/2."""
    with mp.workdps(DPS + 10):
        q = mp.mpf(q)
        if q <= 0.5:
            return _rrcf_product(q)
        phi = (1 + mp.sqrt(5)) / 2
        _, image = _image(q)
        return (5 + mp.sqrt(5)) / 2 / (phi + _rrcf_product(image)) - phi


def ramanujan_f(q: float):
    return euler(q)


def u_of_q(q: float):
    with mp.workdps(DPS + 10):
        q = mp.mpf(q)
        return euler(q) ** 6 / (q * euler(q ** 5) ** 6)


def dedekind_eta(t: float):
    """eta(i t) = exp(-pi t / 12) (q; q)_inf with q = exp(-2 pi t)."""
    with mp.workdps(DPS + 10):
        return mp.exp(-mp.pi * t / 12) * euler(mp.exp(-2 * mp.pi * t))


def gamma(z):
    return mp.gamma(z)


def gauss_2f1(a, b, c, z):
    return mp.hyp2f1(a, b, c, z)


def appell_f1(a, b1, b2, c, x, y):
    return mp.appellf1(a, b1, b2, c, x, y)


def incomplete_beta(x: float, a: float, b: float):
    return mp.betainc(a, b, 0, x)


def elliptic_k(k: float):
    return mp.ellipk(mp.mpf(k) ** 2)


def singular_modulus(r: float):
    """k = theta2(q)^2 / theta3(q)^2 at q = exp(-pi sqrt r)."""
    q = mp.exp(-mp.pi * mp.sqrt(r))
    return (mp.jtheta(2, 0, q) / mp.jtheta(3, 0, q)) ** 2


def klein_j(r: float):
    return 1728 * mp.kleinj(mp.mpc(0, mp.sqrt(r)))


# ---------------------------------------------------------------------------
# Defining integrals of the inverse functions

def rr_integral(upper: float):
    """int_0^upper x^(-1/6) (1 - 11 x^5 - x^10)^(-1/6) dx, with x = w^6 so
    the integrand is smooth at 0."""
    f = lambda w: 6 * w ** 4 * (1 - 11 * w ** 30 - w ** 60) ** (-mp.mpf(1) / 6)
    return mp.quad(f, [0, mp.root(upper, 6)])


def surd_tail(lower: float):
    """int_lower^inf t^(-1/6) (125 + 22 t + t^2)^(-1/2) dt.  Below t = 1 the
    substitution is t = w^6, beyond it t = w^-6; both leave smooth integrands
    on finite intervals."""
    near = lambda w: 6 * w ** 4 * (125 + 22 * w ** 6 + w ** 12) ** (-mp.mpf(1) / 2)
    far = lambda w: 6 * (125 * w ** 12 + 22 * w ** 6 + 1) ** (-mp.mpf(1) / 2)
    if lower < 1:
        return mp.quad(near, [mp.root(lower, 6), 1]) + mp.quad(far, [0, 1])
    return mp.quad(far, [0, mp.root(1 / mp.mpf(lower), 6)])


def eta_quarter(t):
    """eta(i t / 2)^4 = exp(-pi t / 6) (q; q)_inf^4 with q = exp(-pi t); for
    t < 1 through eta(i/tau) = sqrt(tau) eta(i tau), whose image nome is
    small."""
    if t < 1:
        tau = t / 2
        return (_eta_direct(1 / tau) / mp.sqrt(tau)) ** 4
    return _eta_direct(t / 2) ** 4


def _eta_direct(tau):
    q = mp.exp(-2 * mp.pi * tau)
    return mp.exp(-mp.pi * tau / 12) * _signed_series(q, 3, 1)


def m_equation(m: float):
    """pi int_sqrt(m)^inf eta(i t / 2)^4 dt, the integral m_of_x inverts."""
    return mp.pi * eta_tail(mp.sqrt(m))


def theta_target(big_x: float):
    """4^(1/3) times the surd tail from X: the Beta value theta_of_X meets."""
    return mp.cbrt(4) * surd_tail(big_x)


def beta_ratio(x: float, a: float, b: float):
    """B(1-x, a, b) / B(x, a, b), the ratio beta_ratio_root inverts."""
    return incomplete_beta(1 - mp.mpf(x), a, b) / incomplete_beta(x, a, b)


def eta_tail(lower: float):
    """int_lower^inf eta(i t / 2)^4 dt."""
    return mp.quad(eta_quarter, [lower, max(lower, 1) + 1, mp.inf])


def surd_tail_max():
    """sup of the F/G argument: one fifth of the full surd tail."""
    return surd_tail(0.0) / 5


def eta_tail_max():
    return mp.pi * eta_tail(0.0)
