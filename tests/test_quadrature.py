import math

import pytest

from rrcflab import modular
from rrcflab.numerics import (DEFAULT_CTX, ConvergenceError, DomainError,
                              PrecisionContext)
from rrcflab.quadrature import (_TABLES, AlgebraicDecay, ExponentialDecay,
                                QuadratureError, _level_table,
                                integrate_complex, integrate_finite,
                                integrate_to_infinity)

# Gamma(1/6) Gamma(2/3) / Gamma(5/6), frozen from the Lanczos evaluation and
# confirmed by direct quadrature of the defining Gamma integral.
BETA_16_23 = 6.677476047133825


# Reference rule: the node generator and level loop that the precomputed
# tables replaced, kept to pin the tables and the sums bit for bit.
def _nodes(h, odd_only):
    j = 1 if odd_only else 0
    step = 2 if odd_only else 1
    while True:
        t = j * h
        if t > 5.0:
            return
        u = 0.5 * math.pi * math.sinh(t)
        w = 0.5 * math.pi * math.cosh(t) / math.cosh(u) ** 2
        x = math.tanh(u)
        off = 2.0 / (1.0 + math.exp(2.0 * u))
        yield x, off, w
        j += step


def _reference_integrate(f, a, b, ctx=DEFAULT_CTX, singular_at_a=False,
                         singular_at_b=False):
    half = 0.5 * (b - a)

    def sample(off, sign):
        point = b - half * off if sign > 0 else a + half * off
        near_singular = singular_at_b if sign > 0 else singular_at_a
        if point <= a or point >= b:
            return 0.0
        v = f(point)
        if not math.isfinite(v):
            if near_singular and off < 1e-12:
                return 0.0
            raise DomainError(f"integrand not finite at x={point!r}")
        return v

    def level_sum(h, odd_only):
        s = 0.0
        for x, off, w in _nodes(h, odd_only):
            contrib = w * sample(off, +1)
            if x != 0.0:
                contrib += w * sample(off, -1)
            s += contrib
        return s

    h = 1.0
    total = h * level_sum(h, odd_only=False)
    prev = math.inf
    for level in range(1, ctx.max_quad_levels + 1):
        h *= 0.5
        total = 0.5 * total + h * level_sum(h, odd_only=True)
        gap = abs(total - prev)
        prev = total
        if level >= 3 and gap <= ctx.tol(total):
            return half * total
    raise QuadratureError("level cap", best=half * total, gap=half * gap)


REFERENCE_PANEL = [
    (math.exp, 0.0, 1.0, {}),
    (lambda t: t ** (-5 / 6), 0.0, 1.0, {"singular_at_a": True}),
    (lambda t: math.log(t) * math.sqrt(1.0 - t), 0.0, 1.0,
     {"singular_at_a": True, "singular_at_b": True}),
    (lambda t: 1.0 / (1.0 + t * t), -3.0, 7.0, {}),
    (modular.rr_integrand, 0.0, 0.5, {"singular_at_a": True}),
]


class TestNodeTables:
    def test_tables_cover_the_default_levels(self):
        assert len(_TABLES) == DEFAULT_CTX.max_quad_levels + 1
        assert _TABLES[0][0] == (1.0, 0.5 * math.pi)   # the centre node

    @pytest.mark.parametrize("level", range(12))
    def test_entries_match_the_generator_exactly(self, level):
        table = _TABLES[level] if level < len(_TABLES) else _level_table(level)
        expected = tuple((off, w) for _, off, w in _nodes(0.5 ** level, level > 0))
        assert table == expected

    @pytest.mark.parametrize("f, a, b, flags", REFERENCE_PANEL)
    def test_integrals_bitwise_equal_to_reference(self, f, a, b, flags):
        assert integrate_finite(f, a, b, **flags) == _reference_integrate(f, a, b, **flags)

    def test_levels_past_the_tables_match_reference(self):
        ctx = PrecisionContext(eps_rel=1e-300, eps_abs=1e-300, max_quad_levels=11)
        f = lambda t: t ** -0.9
        with pytest.raises(QuadratureError) as ours:
            integrate_finite(f, 0.0, 1.0, ctx, singular_at_a=True)
        with pytest.raises(QuadratureError) as ref:
            _reference_integrate(f, 0.0, 1.0, ctx, singular_at_a=True)
        assert ours.value.best == ref.value.best


class TestFinite:
    def test_inverse_sqrt_singularity(self):
        val = integrate_finite(lambda t: t ** -0.5, 0.0, 1.0, singular_at_a=True)
        assert val == pytest.approx(2.0, rel=1e-12)

    def test_beta_with_two_singular_endpoints(self):
        val = integrate_finite(lambda t: t ** (-5 / 6) * (1 - t) ** (-1 / 3),
                               0.0, 1.0, singular_at_a=True, singular_at_b=True)
        assert val == pytest.approx(BETA_16_23, rel=1e-10)

    @pytest.mark.parametrize("degree", range(7))
    def test_polynomial_exactness(self, degree):
        val = integrate_finite(lambda t: t ** degree, 0.0, 2.0)
        assert val == pytest.approx(2.0 ** (degree + 1) / (degree + 1), rel=1e-12)

    def test_additivity(self):
        f = lambda t: math.exp(-t) * math.cos(3 * t)
        whole = integrate_finite(f, 0.0, 2.0)
        split = integrate_finite(f, 0.0, 0.7) + integrate_finite(f, 0.7, 2.0)
        assert whole == pytest.approx(split, rel=1e-11)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            integrate_finite(lambda t: t, 1.0, 1.0)

    def test_level_cap_reports_best(self):
        ctx = PrecisionContext(max_quad_levels=2)
        with pytest.raises(QuadratureError) as err:
            integrate_finite(lambda t: t ** -0.9, 0.0, 1.0, ctx,
                             singular_at_a=True)
        assert err.value.best == pytest.approx(10.0, rel=0.1)

    def test_non_finite_interior_sample(self):
        with pytest.raises(DomainError):
            integrate_finite(lambda t: 1.0 / (t - 0.5), 0.0, 1.0)

    @pytest.mark.parametrize("error", [OverflowError, ValueError])
    def test_raising_integrand_is_a_domain_error(self, error):
        def f(t):
            if t > 0.9:
                raise error("boom")
            return t
        with pytest.raises(DomainError, match="at x=") as err:
            integrate_finite(f, 0.0, 1.0)
        assert isinstance(err.value.__cause__, error)

    @pytest.mark.parametrize("error", [DomainError("own"), ConvergenceError("inner")])
    def test_kernel_errors_pass_through_unchanged(self, error):
        def f(t):
            raise error
        with pytest.raises(type(error)) as err:
            integrate_finite(f, 0.0, 1.0)
        assert err.value is error


class TestComplex:
    def test_one_evaluation_per_node(self):
        calls = {"complex": 0, "real": 0}

        def g(t):
            calls["complex"] += 1
            return complex(math.exp(t), 0.0)

        def f(t):
            calls["real"] += 1
            return math.exp(t)

        # a zero imaginary part leaves the level gaps those of the real rule
        assert integrate_complex(g, 0.0, 1.0) == integrate_finite(f, 0.0, 1.0)
        assert calls["complex"] == calls["real"]

    def test_matches_real_and_imaginary_parts(self):
        val = integrate_complex(lambda t: complex(math.cos(t), math.sin(t)) * t ** -0.5,
                                0.0, 2.0, singular_at_a=True)
        re = integrate_finite(lambda t: math.cos(t) * t ** -0.5, 0.0, 2.0, singular_at_a=True)
        im = integrate_finite(lambda t: math.sin(t) * t ** -0.5, 0.0, 2.0, singular_at_a=True)
        assert val.real == pytest.approx(re, rel=1e-12)
        assert val.imag == pytest.approx(im, rel=1e-12)

    def test_non_finite_imaginary_part(self):
        with pytest.raises(DomainError):
            integrate_complex(lambda t: complex(1.0, math.inf if t > 0.7 else t),
                              0.0, 1.0)


class TestToInfinity:
    def test_exponential(self):
        val = integrate_to_infinity(lambda t: math.exp(-t), 0.0,
                                    ExponentialDecay(1.0))
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_algebraic(self):
        val = integrate_to_infinity(lambda t: t ** -2.0, 1.0, AlgebraicDecay(2.0))
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_quintic_surd_tail_full_range(self):
        # X -> 0+ limit of the tail integral equals 4^(-1/3) B(1, 1/6, 2/3)
        f = lambda t: t ** (-1 / 6) * (125.0 + 22.0 * t + t * t) ** -0.5
        head = integrate_finite(f, 0.0, 500.0, singular_at_a=True)
        tail = integrate_to_infinity(f, 500.0, AlgebraicDecay(7.0 / 6.0))
        assert head + tail == pytest.approx(4.0 ** (-1 / 3) * BETA_16_23, rel=1e-9)

    @pytest.mark.parametrize("a", [500.0, 1e36, 1e60])
    def test_algebraic_tail_far_out(self, a):
        # the map t = a + c(1-s)/s with c = max(|a|, 1) keeps the image
        # integrand on the scale of a; with c = 1 the tail from 1e60 was
        # 1.2e-7 off
        mp = pytest.importorskip("mpmath")
        f = lambda t: t ** (-1 / 6) * (125.0 + 22.0 * t + t * t) ** -0.5
        val = integrate_to_infinity(f, a, AlgebraicDecay(7.0 / 6.0))
        with mp.workdps(30):
            w = mp.root(1 / mp.mpf(a), 6)
            ref = 6 * w * mp.quad(lambda s: (1 + 22 * (w * s) ** 6
                                             + 125 * (w * s) ** 12) ** -0.5, [0, 1])
        assert abs(val - ref) <= 4e-15 * ref

    def test_divergent_declaration(self):
        with pytest.raises(DomainError):
            integrate_to_infinity(lambda t: 1.0 / t, 1.0, AlgebraicDecay(1.0))

    def test_nonpositive_rate(self):
        with pytest.raises(DomainError):
            integrate_to_infinity(math.exp, 0.0, ExponentialDecay(0.0))


class TestEtaTailEquality:
    def test_index_four_tail_matches_scaled_cf_integral(self):
        # eta tail from 2 against (5/pi) x the continued-fraction integral,
        # both sides computed from scratch by independent kernels
        from rrcflab.modular import eta_tail_integral, rr_integral
        from rrcflab.qseries import rrcf
        lhs = eta_tail_integral(2.0)
        rhs = 5.0 / math.pi * rr_integral(rrcf(math.exp(-2.0 * math.pi)))
        assert lhs == pytest.approx(rhs, rel=1e-8)


class TestDualRoute:
    def test_weighted_power_integrand_two_ways(self):
        # direct tanh-sinh with the q^(-5/6) singularity vs the q = s^6
        # substitution that removes it: the primary anti-typo defence
        from rrcflab.verify import weighted_power_integral
        ctx = PrecisionContext()
        direct = weighted_power_integral(1.0, ctx)
        mapped = weighted_power_integral(1.0, ctx, substituted=True)
        assert direct == pytest.approx(mapped, rel=1e-8)
