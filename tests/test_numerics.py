import copy
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rrcflab
from rrcflab import numerics
from rrcflab.numerics import (DEFAULT_CTX, FD_STEP, BracketError,
                              ConvergenceError, DomainError, PrecisionContext,
                              SeriesDivergenceError, differentiate, find_root,
                              newton_root, series_tolerance, sum_series)


class TestPrecisionContext:
    def test_defaults(self):
        ctx = PrecisionContext()
        assert ctx.eps_rel == 1e-12
        assert FD_STEP == pytest.approx(math.ulp(1.0) ** (1 / 5))

    @pytest.mark.parametrize("bad", [
        dict(eps_rel=0.0), dict(eps_abs=-1e-3),
        dict(eps_rel=math.nan), dict(eps_rel=math.inf), dict(eps_abs=math.inf),
        dict(eps_abs=math.nan),
    ])
    def test_rejects_bad_budget(self, bad):
        with pytest.raises(DomainError):
            PrecisionContext(**bad)

    def test_with_eps(self):
        # replace is the one way to derive a context, and it validates the
        # result
        ctx = DEFAULT_CTX.replace(eps_rel=1e-4)
        assert ctx.eps_rel == 1e-4
        assert ctx.eps_abs == DEFAULT_CTX.eps_abs
        with pytest.raises(DomainError):
            DEFAULT_CTX.replace(eps_rel=0.0)


# One instance of each value class, and its repr.
FROZEN = [
    (PrecisionContext(1e-10, 1e-14), "PrecisionContext(eps_rel=1e-10, eps_abs=1e-14)"),
    (rrcflab.BetaBase(0.25, 0.5), "BetaBase(a=0.25, b=0.5)"),
    (rrcflab.SexticInstance(1.0, 250.0, 12.0), "SexticInstance(a=1.0, b=250.0, c1=12.0)"),
    (rrcflab.SexticSolution(1.5, 0.25, 1e-16),
     "SexticSolution(x=1.5, t=0.25, residual=1e-16)"),
]


class TestFrozenValues:
    """The value classes behave as the frozen dataclasses they replace."""

    @pytest.mark.parametrize("value, text", FROZEN, ids=lambda v: type(v).__name__)
    def test_value_semantics(self, value, text):
        assert repr(value) == text
        namespace = {}
        exec("from rrcflab import *", namespace)
        twin = eval(text, namespace)
        assert twin == value and hash(twin) == hash(value) and twin is not value
        field = value.__slots__[0]
        assert value != tuple(getattr(value, name) for name in value.__slots__)
        with pytest.raises(AttributeError):
            setattr(value, field, 0.5)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value

    def test_other_class_with_equal_fields_differs(self):
        assert PrecisionContext(0.25, 0.5) != rrcflab.BetaBase(0.25, 0.5)


class TestSumSeries:
    def test_geometric(self):
        res = sum_series(lambda n: 0.5 ** n, 0.5)
        assert res.value.real == pytest.approx(2.0, rel=1e-11)

    def test_exponential(self):
        res = sum_series(lambda n: 1.0 / math.factorial(n), 0.0)
        assert res.value.real == pytest.approx(math.e, rel=1e-12)
        assert res.terms < 30

    def test_hypergeometric_stream_geometric_case(self):
        # 2F1(1, 1; 1; x) term stream collapses to the geometric series
        def term(n, state={"t": 1.0}):
            t = state["t"]
            state["t"] = t * (1 + n) * (1 + n) / ((1 + n) * (n + 1)) * 0.5
            return t

        res = sum_series(term, 0.5)
        assert res.value.real == pytest.approx(2.0, rel=1e-11)

    @pytest.mark.parametrize("eps_rel", [1e-12, 1.5e-8, 1e-6, 1e-4])
    @pytest.mark.parametrize("rate", [0.6, 0.9, 0.97])
    def test_tail_within_the_tolerance_at_any_rate(self, rate, eps_rel):
        # a stop on small terms alone left rate/(1-rate) tolerances behind
        ctx = PrecisionContext(eps_rel=eps_rel)
        res = sum_series(lambda n: rate ** n, rate, ctx)
        exact = 1.0 / (1.0 - rate)
        assert abs(res.value - exact) <= ctx.tol(exact)

    def test_tolerance_rule(self):
        ctx = PrecisionContext(1e-10, 1e-14)
        assert series_tolerance(0.5, ctx) == (1e-10, 1e-14)
        assert series_tolerance(0.25, ctx, 2.0) == (2e-10, 2e-14)
        assert series_tolerance(0.8, ctx) == pytest.approx((2.5e-11, 2.5e-15), rel=1e-15)

    def test_divergence_carries_partial(self, series_cap):
        series_cap(50)
        with pytest.raises(SeriesDivergenceError) as err:
            sum_series(lambda n: 1.0 / (n + 1.0), 0.99)
        assert err.value.best.real == pytest.approx(
            math.fsum(1.0 / (n + 1.0) for n in range(50)), rel=1e-15)
        assert err.value.gap == 1.0 / 50.0

    @pytest.mark.parametrize("t", [complex(1.5e308, 1.5e308), complex(math.inf, 0.0),
                                   complex(0.0, math.nan)])
    def test_term_that_is_not_finite(self, t):
        # the first has finite parts and a modulus past the largest double,
        # whose abs() raised a raw OverflowError
        with pytest.raises(DomainError, match="series term 1 is not finite"):
            sum_series(lambda n: t if n else 1.0, 0.5)

    def test_interleaved_zero_terms_not_cut(self):
        # odd-only series: zero terms must not trigger the tail test alone
        res = sum_series(lambda n: 0.0 if n % 2 else 0.25 ** (n // 2), 0.5)
        assert res.value.real == pytest.approx(4.0 / 3.0, rel=1e-11)

    def test_two_small_terms_do_not_stop_it(self):
        # sums of several terms, as F1's anti-diagonals are, can pass
        # through 0 twice in a row
        terms = [1.0, 1e-20, -1e-20, 0.5, 0.25]
        res = sum_series(lambda n: terms[n] if n < len(terms) else 0.0, 0.5)
        assert res.value == 1.75 and res.terms == 8

    @pytest.mark.parametrize("rate", [-0.1, 1.0, 1.5, math.inf, math.nan])
    def test_rate_outside_the_unit_interval_is_a_domain_error(self, rate):
        with pytest.raises(DomainError, match="rate"):
            sum_series(lambda n: 0.5 ** n, rate)


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

    # The relative rule, xtol=None, pinned bit for bit with its evaluations.
    @pytest.mark.parametrize("f, lo, hi, ctx, root_hex, evals", [
        (lambda x: math.cos(x) - x, 0.0, 1.0, DEFAULT_CTX, "0x1.7a695dd83ce03p-1", 8),
        (lambda x: x ** 3 - 2.0, 0.0, 2.0, DEFAULT_CTX, "0x1.428a2f98d73cfp+0", 9),
        (lambda x: math.exp(x) - 3.0, -50.0, 50.0, DEFAULT_CTX, "0x1.193ea7aad01d2p+0", 15),
        (lambda x: x ** 3 - 2.0, 0.0, 2.0, PrecisionContext(1e-6, 1e-9),
         "0x1.428a2bae39c36p+0", 8),
    ], ids=["cos", "cube", "exp", "cube-loose"])
    def test_relative_rule_by_default(self, f, lo, hi, ctx, root_hex, evals):
        seen = []

        def recorded(x):
            seen.append(x)
            return f(x)

        assert find_root(recorded, lo, hi, ctx, xtol=None) == float.fromhex(root_hex)
        assert len(seen) == evals

    def test_absolute_step_tolerance(self):
        # a log coordinate: an absolute xtol in v is a relative one in e^v,
        # and a looser xtol takes no more evaluations
        root = math.log(1e6)
        counts = []
        for xtol in (1e-12, 1e-6, 1e-2):
            seen = []
            v = find_root(lambda t: seen.append(t) or math.exp(t) - 1e6,
                          -50.0, 50.0, xtol=xtol)
            assert abs(v - root) <= xtol + 4.0 * numerics.MACHINE_EPS * abs(v)
            counts.append(len(seen))
        assert counts == sorted(counts, reverse=True)
        assert counts[0] > counts[-1]

    @given(st.floats(min_value=-5.0, max_value=5.0),
           st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=40, deadline=None)
    def test_residual_bound_on_monotone_cubics(self, shift, scale):
        f = lambda x: scale * (x - shift) ** 3 + scale * (x - shift)
        root = find_root(f, shift - 7.0, shift + 9.0)
        tol = DEFAULT_CTX.tol(max(1.0, abs(root)))
        slope = scale * (3 * (root - shift) ** 2 + 1)
        assert abs(f(root)) <= 10.0 * tol * max(1.0, slope)


def _newton_root_by_step(fdf, lo, hi, x0, ctx=DEFAULT_CTX, xtol=None):
    """newton_root as it was before the stop on a predicted error, which
    stopped only on a step within the tolerance: the reference that the
    evaluation counts are held to.  Its error handling is left out."""
    lo, hi, x = float(lo), float(hi), float(x0)
    lo_seen = hi_seen = False
    step = hi - lo
    for _ in range(numerics.MAX_ROOT_ITERS):
        f, df = fdf(x)
        if f == 0.0:
            return x
        if f < 0.0:
            lo, lo_seen = x, True
        else:
            hi, hi_seen = x, True
        newton = f / df if 0.0 < df < math.inf else math.inf
        if x - newton == x:
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
                fdf(x_new)   # the evaluation that checks an unevaluated end
            return x_new
        x = x_new
    raise AssertionError("the reference hit the iteration cap")


# Seeded root families for newton_root: name -> (draw of c, bracket, fdf of
# c, the root in mpmath).  near_triple has a root of slope 1e-9 inside a near
# triple root, where Newton converges linearly for most of the way.  In
# exp_kink and tanh_step the curvature is all in a stretch of width 1/k next
# to the root: a step from the flat part lands next to it, and the two steps
# there say little of the next.
_NEWTON_FAMILIES = {
    "cube": (lambda rng: rng.uniform(0.5, 100.0), (0.0, 5.0),
             lambda c: lambda x: (x ** 3 - c, 3.0 * x * x),
             lambda mp, c: mp.cbrt(c)),
    "exp": (lambda rng: 10.0 ** rng.uniform(-3.0, 3.0), (-10.0, 10.0),
            lambda c: lambda x: (math.exp(x) - c, math.exp(x)),
            lambda mp, c: mp.log(c)),
    "atan": (lambda rng: rng.uniform(-5.0, 5.0), (-10.0, 10.0),
             lambda c: lambda x: (math.atan(x - c), 1.0 / (1.0 + (x - c) ** 2)),
             lambda mp, c: mp.mpf(c)),
    "quintic": (lambda rng: rng.uniform(-50.0, 50.0), (-3.0, 3.0),
                lambda c: lambda x: (x ** 5 + x - c, 5.0 * x ** 4 + 1.0),
                lambda mp, c: mp.findroot(lambda x: x ** 5 + x - c, (-3, 3),
                                          solver="anderson")),
    "near_triple": (lambda rng: rng.uniform(-1.0, 1.0), (-2.0, 2.0),
                    lambda c: lambda x: ((x - c) ** 3 + 1e-9 * (x - c),
                                         3.0 * (x - c) ** 2 + 1e-9),
                    lambda mp, c: mp.mpf(c)),
    # x - 1 + e^(k(x-1))/k: the root is 1 - W(1)/k
    "exp_kink": (lambda rng: 10.0 ** rng.uniform(2.0, 5.0), (0.0, 1.001),
                 lambda k: lambda x: (x - 1.0 + math.exp(k * (x - 1.0)) / k,
                                      1.0 + math.exp(k * (x - 1.0))),
                 lambda mp, k: 1 - mp.lambertw(1).real / k),
    # x - 1 + a tanh(k(x - 1) - u), within a of 1
    "tanh_step": (lambda rng: (10.0 ** rng.uniform(2.0, 5.0), 10.0 ** rng.uniform(-3.0, -1.0),
                               rng.uniform(-3.0, 3.0)), (-10.0, 10.0),
                  lambda c: lambda x: _tanh_step(x, *c),
                  lambda mp, c: mp.findroot(
                      lambda x: x - 1 + c[1] * mp.tanh(c[0] * (x - 1) - c[2]),
                      (1 - 2 * c[1], 1 + 2 * c[1]), solver="bisect")),
}


def _tanh_step(x, k, a, u):
    t = k * (x - 1.0) - u
    # past |t| = 300 the slope is 1 to the last bit, and cosh^2 would overflow
    return x - 1.0 + a * math.tanh(t), 1.0 + a * k / math.cosh(min(abs(t), 300.0)) ** 2


class TestNewtonRoot:
    @staticmethod
    def _recording(fdf):
        seen = []

        def wrapped(x):
            seen.append(x)
            return fdf(x)
        return wrapped, seen

    @staticmethod
    def _scripted(*answers):
        """fdf that gives the (f, f') pairs in turn and records where it was
        asked; one call more is an error."""
        seen, answers = [], list(answers)

        def fdf(x):
            seen.append(x)
            return answers.pop(0)
        return fdf, seen

    @pytest.mark.parametrize("eps", [1e-12, 1e-8, 1e-4])
    @pytest.mark.parametrize("family", sorted(_NEWTON_FAMILIES))
    def test_predicted_stop_against_the_step_rule(self, family, eps):
        # within 2 tol of the root, where the worst of either rule measured
        # 1.69 tol (the near triple root at 1e-4, where the step rule stops;
        # no search stopped on a prediction ends 1e-3 tol off), and from
        # every start no more evaluations than the step rule alone
        mp = pytest.importorskip("mpmath")
        draw, (lo, hi), make, truth = _NEWTON_FAMILIES[family]
        ctx = PrecisionContext(eps_rel=eps)
        rng = random.Random(f"{family}:{eps}")
        for _ in range(40):
            c, x0 = draw(rng), rng.uniform(lo, hi)
            fdf, seen = self._recording(make(c))
            by_step, seen_by_step = self._recording(make(c))
            x = newton_root(fdf, lo, hi, x0, ctx)
            _newton_root_by_step(by_step, lo, hi, x0, ctx)
            with mp.workdps(40):
                root = truth(mp, c)
                assert abs(x - root) <= 2.0 * ctx.tol(float(root))
            assert len(seen) <= len(seen_by_step)

    @pytest.mark.parametrize("last, stops", [(1e-10, True), (1e-9, False), (1e-11, False)])
    def test_a_confirmed_prediction_stops(self, last, stops):
        # steps of -0.1 and 1e-4 predict an error of 1e-4 (1e-4/0.1)^2 =
        # 1e-10 for the point they reach.  A third step within a factor of 4
        # of that confirms them, and its own prediction, within 6e-13/1024,
        # ends the search without evaluating the point it returns; a third
        # step 10 times larger or smaller than predicted does not, although
        # it predicts less still
        fdf, seen = self._scripted((-0.1, 1.0), (1e-4, 1.0), (last, 1.0), (0.0, 1.0))
        x = newton_root(fdf, 0.0, 1.0, 0.5)
        assert seen[:3] == [0.5, 0.6, 0.6 - 1e-4]
        assert x == seen[2] - last
        assert len(seen) == (3 if stops else 4)

    def test_two_newton_steps_do_not_stop(self):
        # steps of -0.1 and 1e-6 predict an error of 1e-16 for the point
        # they reach, within the tolerance's share, but nothing has
        # confirmed the prediction: that point is evaluated
        fdf, seen = self._scripted((-0.1, 1.0), (1e-6, 1.0), (0.0, 1.0))
        assert newton_root(fdf, 0.0, 1.0, 0.5) == 0.6 - 1e-6
        assert seen == [0.5, 0.6, 0.6 - 1e-6]

    def test_a_bisection_clears_the_prediction(self):
        # Newton steps of -0.1 and 1e-4 predict an error of 1e-10; then the
        # slope 1e-3 sends Newton out of [0.5, 0.5999], and a bisection
        # follows.  The Newton step of 1e-10 after it would confirm the
        # prediction and, set against the bisection, predict an error far
        # within the tolerance's share; the bisection cleared both, so the
        # point it reaches is evaluated
        fdf, seen = self._scripted((-1.0, 10.0), (1e-4, 1.0), (1.0, 1e-3),
                                   (-1e-10, 1.0), (0.0, 1.0))
        x = newton_root(fdf, 0.0, 1.0, 0.5)
        assert seen[:3] == [0.5, 0.6, 0.6 - 1e-4]
        assert seen[3] == 0.5 + 0.5 * (seen[2] - 0.5)
        assert x == seen[4] == seen[3] + 1e-10

    @pytest.mark.parametrize("xtol", [1e-300, 5e-324])
    @pytest.mark.parametrize("family", sorted(_NEWTON_FAMILIES))
    def test_a_tolerance_next_to_underflow(self, family, xtol):
        # no step is within the tolerance and no prediction within its share,
        # which underflows to 0 at 5e-324: the search ends on a step below
        # half an ulp, a root or two equal points, and forming the
        # prediction raises no ZeroDivisionError or OverflowError
        mp = pytest.importorskip("mpmath")
        draw, (lo, hi), make, truth = _NEWTON_FAMILIES[family]
        rng = random.Random(f"{family}:tiny")
        for _ in range(10):
            c = draw(rng)
            x = newton_root(make(c), lo, hi, rng.uniform(lo, hi), xtol=xtol)
            with mp.workdps(40):
                root = truth(mp, c)
                assert abs(x - root) <= 2.0 * DEFAULT_CTX.tol(float(root))

    def test_sqrt2_in_few_evaluations(self):
        fdf, seen = self._recording(lambda x: (x * x - 2.0, 2.0 * x))
        assert newton_root(fdf, 0.0, 2.0, 1.5) == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert len(seen) <= 5

    def test_step_below_an_ulp_ends_the_search(self):
        # 2e-9 above the root of x^3 - 10, the first step (2e-9, above the
        # tolerance, and with no steps before it to predict from) lands
        # within an ulp, where the next step is 1.3e-16, below half an ulp:
        # that point is the root; taking the step for one that leaves the
        # bracket would bisect on
        fdf, seen = self._recording(lambda x: (x ** 3 - 10.0, 3.0 * x * x))
        root = 10.0 ** (1 / 3)
        assert newton_root(fdf, 0.0, 5.0, root + 2e-9) == pytest.approx(root, rel=1e-15)
        assert len(seen) == 2

    def test_root_of_a_cubic_from_far(self):
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

    @pytest.mark.parametrize("slope", [0.0, -1.0, math.inf, math.nan])
    def test_bisection_when_the_slope_is_not_positive_and_finite(self, slope):
        # no Newton step is taken from such a slope: every new point is the
        # midpoint of the bracket, which still closes on the root
        fdf, seen = self._recording(lambda x: (x - 0.3, slope))
        x = newton_root(fdf, 0.0, 1.0, 0.9)
        assert abs(x - 0.3) <= DEFAULT_CTX.tol(0.3)
        assert seen[:3] == [0.9, 0.45, 0.225]
        assert all(0.0 < v < 1.0 for v in seen)

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
