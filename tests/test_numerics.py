import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrcflab import numerics
from rrcflab.numerics import (DEFAULT_CTX, FD_STEP, BracketError,
                              ConvergenceError, DomainError, PrecisionContext,
                              SeriesDivergenceError, differentiate, find_root,
                              newton_root, sum_series)


class TestPrecisionContext:
    def test_defaults(self):
        ctx = PrecisionContext()
        assert ctx.eps_rel == 1e-12
        assert FD_STEP == pytest.approx(math.ulp(1.0) ** (1 / 5))

    @pytest.mark.parametrize("bad", [
        dict(eps_rel=0.0), dict(eps_abs=-1e-3), dict(max_series_terms=0),
        dict(eps_rel=math.nan),
    ])
    def test_rejects_bad_budget(self, bad):
        with pytest.raises(DomainError):
            PrecisionContext(**bad)

    def test_with_eps(self):
        # dataclasses.replace is the one way to derive a context, and it
        # validates the result
        ctx = replace(DEFAULT_CTX, eps_rel=1e-4)
        assert ctx.eps_rel == 1e-4
        assert ctx.eps_abs == DEFAULT_CTX.eps_abs
        with pytest.raises(DomainError):
            replace(DEFAULT_CTX, eps_rel=0.0)


class TestSumSeries:
    def test_geometric(self):
        res = sum_series(lambda n: 0.5 ** n)
        assert res.value.real == pytest.approx(2.0, rel=1e-11)

    def test_exponential(self):
        res = sum_series(lambda n: 1.0 / math.factorial(n))
        assert res.value.real == pytest.approx(math.e, rel=1e-12)
        assert res.terms < 30

    def test_hypergeometric_stream_geometric_case(self):
        # 2F1(1, 1; 1; x) term stream collapses to the geometric series
        def term(n, state={"t": 1.0}):
            t = state["t"]
            state["t"] = t * (1 + n) * (1 + n) / ((1 + n) * (n + 1)) * 0.5
            return t

        res = sum_series(term)
        assert res.value.real == pytest.approx(2.0, rel=1e-11)

    def test_divergence_carries_partial(self):
        with pytest.raises(SeriesDivergenceError) as err:
            sum_series(lambda n: 1.0 / (n + 1.0),
                       PrecisionContext(max_series_terms=50))
        assert err.value.best.real > 1.0

    def test_interleaved_zero_terms_not_cut(self):
        # odd-only series: zero terms must not trigger the tail test alone
        res = sum_series(lambda n: 0.0 if n % 2 else 0.25 ** (n // 2))
        assert res.value.real == pytest.approx(4.0 / 3.0, rel=1e-11)


class TestFindRoot:
    def test_sqrt2(self):
        assert find_root(lambda x: x * x - 2.0, 1.0, 2.0) == pytest.approx(
            math.sqrt(2.0), abs=1e-12)

    def test_cosine(self):
        assert find_root(math.cos, 1.0, 2.0) == pytest.approx(
            math.pi / 2.0, abs=1e-12)

    def test_beta_ratio_paper_value(self):
        # B(1-x, 1/6, 1/6) = 2 B(x, 1/6, 1/6) has the radical root (2-sqrt3)/4
        from rrcflab.special import BetaBase, incomplete_beta
        base = BetaBase(1 / 6, 1 / 6)

        def ratio_gap(x):
            return incomplete_beta(1 - x, base) - 2.0 * incomplete_beta(x, base)

        root = find_root(ratio_gap, 1e-6, 0.5 - 1e-6)
        assert root == pytest.approx((2.0 - math.sqrt(3.0)) / 4.0, abs=1e-12)

    def test_no_bracket(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_endpoint_root(self):
        assert find_root(lambda x: x, 0.0, 1.0) == 0.0

    def test_convergence_error_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(numerics, "MAX_ROOT_ITERS", 3)
        with pytest.raises(ConvergenceError) as err:
            find_root(math.cos, 1.0, 2.0)
        assert 1.0 <= err.value.best <= 2.0

    @given(st.floats(min_value=-5.0, max_value=5.0),
           st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=40, deadline=None)
    def test_residual_bound_on_monotone_cubics(self, shift, scale):
        f = lambda x: scale * (x - shift) ** 3 + scale * (x - shift)
        root = find_root(f, shift - 7.0, shift + 9.0)
        tol = DEFAULT_CTX.tol(max(1.0, abs(root)))
        slope = scale * (3 * (root - shift) ** 2 + 1)
        assert abs(f(root)) <= 10.0 * tol * max(1.0, slope)


class TestNewtonRoot:
    @staticmethod
    def _recording(fdf):
        seen = []

        def wrapped(x):
            seen.append(x)
            return fdf(x)
        return wrapped, seen

    def test_sqrt2_in_few_evaluations(self):
        fdf, seen = self._recording(lambda x: (x * x - 2.0, 2.0 * x))
        assert newton_root(fdf, 0.0, 2.0, 1.5) == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert len(seen) <= 5

    def test_step_below_an_ulp_ends_the_search(self):
        # from 4 the steps on x^3 - 10 fall from 2e-12 (above the tolerance)
        # to below half an ulp: the last point is the root; taking that step
        # for one that leaves the bracket bisected 40 more times and stopped
        # 9e-13 away
        fdf, seen = self._recording(lambda x: (x ** 3 - 10.0, 3.0 * x * x))
        assert newton_root(fdf, 0.0, 5.0, 4.0) == pytest.approx(10.0 ** (1 / 3), rel=1e-15)
        assert len(seen) <= 8

    def test_bracket_ends_are_not_evaluated(self):
        def fdf(x):
            if x in (-1.0, 3.0):
                raise AssertionError(f"bracket end {x} evaluated")
            return x - 1.0, 1.0
        assert newton_root(fdf, -1.0, 3.0, 0.25) == 1.0

    @pytest.mark.parametrize("start", [-10.0, 20.0])
    def test_start_on_a_bracket_end_is_evaluated(self, start):
        fdf, seen = self._recording(lambda x: (math.atan(x), 1.0 / (1.0 + x * x)))
        assert abs(newton_root(fdf, -10.0, 20.0, start)) <= 1e-12
        assert seen[0] == start

    def test_bisection_when_newton_leaves_the_bracket(self):
        # from x = 15 the Newton step for atan is -338: the first new point
        # is the midpoint of [-10, 15], then the iteration still converges
        fdf, seen = self._recording(lambda x: (math.atan(x), 1.0 / (1.0 + x * x)))
        assert abs(newton_root(fdf, -10.0, 20.0, 15.0)) <= 1e-12
        assert seen[:2] == [15.0, 2.5]

    def test_bisection_when_newton_does_not_halve_the_step(self):
        # from 2.5 the Newton step (-8.6) stays inside [-10, 2.5] but is more
        # than half of the bisection step before it (12.5)
        fdf, seen = self._recording(lambda x: (math.atan(x), 1.0 / (1.0 + x * x)))
        newton_root(fdf, -10.0, 20.0, 15.0)
        assert seen[2] == -3.75

    def test_convergence_error_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(numerics, "MAX_ROOT_ITERS", 3)
        with pytest.raises(ConvergenceError) as err:
            newton_root(lambda x: (math.atan(x), 1.0 / (1.0 + x * x)), -10.0, 20.0, 15.0)
        assert err.value.best is not None

    def test_absolute_step_tolerance(self):
        # a log coordinate: an absolute step of 1e-3 is a relative 1e-3 in e^v
        fdf, seen = self._recording(lambda v: (math.exp(v) - 1e6, math.exp(v)))
        v = newton_root(fdf, 0.0, 20.0, 20.0, xtol=1e-3)
        assert v == pytest.approx(math.log(1e6), abs=1e-3)
        assert len(seen) < 30

    def test_root_beyond_an_unevaluated_end(self):
        with pytest.raises(BracketError):
            newton_root(lambda x: (x - 5.0, 1.0), 0.0, 1.0, 0.5)

    def test_start_outside_the_bracket(self):
        with pytest.raises(DomainError):
            newton_root(lambda x: (x, 1.0), 0.0, 1.0, 2.0)

    def test_non_finite_value(self):
        with pytest.raises(DomainError):
            newton_root(lambda x: (math.nan, 1.0), 0.0, 1.0, 0.5)


class TestDifferentiate:
    def test_sine_at_zero(self):
        d = differentiate(math.sin, 0.0)
        assert d.value == pytest.approx(1.0, abs=1e-9)

    def test_cubic(self):
        d = differentiate(lambda x: x ** 3, 2.0)
        assert d.value == pytest.approx(12.0, rel=1e-10)

    def test_rrcf_against_closed_form(self):
        # the closed-form derivative kernel is the independent target
        from rrcflab.qseries import rrcf, rrcf_derivative
        d = differentiate(rrcf, 0.2)
        assert d.value == pytest.approx(rrcf_derivative(0.2), rel=1e-9)

    @given(st.floats(min_value=-3.0, max_value=3.0),
           st.floats(min_value=-2.0, max_value=2.0),
           st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=40, deadline=None)
    def test_exact_on_low_degree_polynomials(self, x, a, b):
        f = lambda t: a * t ** 3 + b * t * t - t + 0.5
        d = differentiate(f, x)
        exact = 3 * a * x * x + 2 * b * x - 1.0
        assert d.value == pytest.approx(exact, rel=1e-10, abs=1e-10)

    def test_non_finite_sample(self):
        with pytest.raises(DomainError):
            differentiate(lambda x: math.sqrt(x), 0.0)


class TestComplexPowers:
    """The built-in complex type supplies the arithmetic contract; pin the
    principal-branch behaviour the kernels rely on."""

    def test_identity_power(self):
        z = complex(0.3, 0.7)
        assert z ** 1 == z

    @given(st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0,
                              allow_infinity=False, allow_nan=False),
           st.complex_numbers(max_magnitude=3.0, allow_infinity=False,
                              allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_conjugate_symmetry_off_cut(self, z, w):
        if z.real <= 0 and abs(z.imag) < 1e-6:
            return  # branch cut
        lhs = z.conjugate() ** w.conjugate()
        rhs = (z ** w).conjugate()
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
