import cmath
import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrcflab import routes, special
from rrcflab.modular import surd_tail_integral
from rrcflab.numerics import (DEFAULT_CTX, ConvergenceError, DomainError,
                              PrecisionContext)
from rrcflab.quadrature import (_TABLES, MAX_QUAD_LEVELS, QuadratureError,
                                _level_table, _table, integrate_complex,
                                integrate_finite)
from rrcflab.special import PoleError, appell_f1, gauss_2f1

# Gamma(1/6) Gamma(2/3) / Gamma(5/6), frozen from the Lanczos evaluation and
# confirmed by direct quadrature of the defining Gamma integral.
BETA_16_23 = 6.677476047133825


# Reference rule: the node generator and level loop that the precomputed
# tables replaced, kept to pin the tables and the sums bit for bit.  Its
# truncate=False path is the untruncated rule, which walks every end out
# to |t| = 5 or to the first node that rounds onto it.
TAIL_SHARE = 1 / 1024   # of tol: two consecutive terms within it end a walk
                        # past every term above it


def _nodes(h, odd_only):
    j = 1 if odd_only else 0
    step = 2 if odd_only else 1
    while True:
        t = j * h
        if t > 5.0:
            return
        u = 0.5 * math.pi * math.sinh(t)
        w = 0.5 * math.pi * math.cosh(t) / math.cosh(u) ** 2
        off = 2.0 / (1.0 + math.exp(2.0 * u))
        yield t, off, w
        j += step


def _reference_integrate(f, a, b, ctx=DEFAULT_CTX, early_exit=True,
                         truncate=True, edge_test=True):
    half = 0.5 * (b - a)
    # where each end's walk stopped on two small terms; finer levels take
    # only the nodes strictly inside
    inside = {+1: (a, b), -1: (a, b)}
    # the least offset of a term above the cut at each end, any level
    far = {+1: 2.0, -1: 2.0}

    def walk(h, odd_only, sign, cut):
        """The terms w f of one end of a level, from the centre out, up to
        the first node that rounds onto the end or lies past its cut, or,
        when truncating, up to two consecutive terms within cut that follow
        a term above it, the second past every such term any level met."""
        terms = []
        armed = False
        lo, hi = inside[sign]
        near = far[sign]
        for t, off, w in _nodes(h, odd_only):
            if t == 0.0:
                continue
            point = b - half * off if sign > 0 else a + half * off
            if not lo < point < hi:
                break
            v = f(point)
            if not cmath.isfinite(v):
                raise DomainError(f"integrand not finite at x={point!r}")
            terms.append(w * v)
            if abs(w * v) > cut:
                near = min(near, off)
            if (truncate and armed and off < far[sign]
                    and max(map(abs, terms[-2:])) <= cut):
                inside[sign] = (a, point) if sign > 0 else (point, b)
                break
            armed = armed or len(terms) >= 2 and abs(terms[-2]) > cut
        far[sign] = near
        return terms

    def level_sum(h, odd_only, s, total):
        """The level's sum, started from s, and the last term of each
        end's walk, |w f|, summed."""
        cut = TAIL_SHARE * ctx.tol(total) / h
        edge = 0.0
        for sign in (+1, -1):
            terms = walk(h, odd_only, sign, cut)
            for term in terms:
                s += term
            edge += abs(terms[-1]) if terms else 0.0
        return s, edge

    def doubled(gap, before, total):
        return gap * math.sqrt(abs(total)) <= before * math.sqrt(before)

    h = 1.0
    centre = 0.0 if not a < b - half < b else 0.5 * math.pi * f(b - half)
    total = level_sum(h, False, centre, centre)[0]
    gaps = [math.inf]   # g_1: T_0 is not compared
    for level in range(1, MAX_QUAD_LEVELS + 1):
        h *= 0.5
        s, edge = level_sum(h, True, 0.0, total)
        prev, total = total, 0.5 * total + h * s
        if level > 1:
            gaps.append(abs(total - prev))
        gap = gaps[-1]
        tol = ctx.tol(total)
        if level < 3:
            continue
        if gap <= tol:
            return half * total
        # the early exit: digits doubled over the last three gaps,
        # extrapolated error and edge terms within tol
        if (early_exit and gap * gap <= tol * gaps[-2]
                and doubled(gap, gaps[-2], total) and doubled(gaps[-2], gaps[-3], total)
                and (not edge_test or h * edge <= tol)):
            return half * total
    raise QuadratureError("level cap", best=half * total, gap=half * gap)


REFERENCE_PANEL = [
    pytest.param(math.exp, 0.0, 1.0, id="exp"),
    pytest.param(lambda t: t ** (-5 / 6), 0.0, 1.0, id="power-5/6"),
    pytest.param(lambda t: math.log(t) * math.sqrt(1.0 - t), 0.0, 1.0,
                 id="log-sqrt"),
    pytest.param(lambda t: 1.0 / (1.0 + t * t), -3.0, 7.0, id="lorentzian"),
    pytest.param(routes.rr_integrand, 0.0, 0.5, id="rr_integrand"),
    # cases where the two ends of a level walk differently
    pytest.param(lambda t: (1.0 - t) ** (-5 / 6), 0.0, 1.0, id="power-5/6-at-b"),
    pytest.param(lambda t: (t - 2.0) ** -0.5, 2.0, 3.0, id="power-1/2-at-a"),
    pytest.param(lambda t: math.exp(-((t - 0.97) / 0.01) ** 2), 0.0, 1.0,
                 id="peak-next-to-b"),
    pytest.param(lambda t: math.exp(-((t - 0.03) / 0.01) ** 2), 0.0, 1.0,
                 id="peak-next-to-a"),
    pytest.param(lambda t: cmath.exp(3j * t) * t ** -0.5, 0.0, 1.0, id="complex"),
    pytest.param(lambda t: t ** (-1 / 6) * (125.0 + 22.0 * t + t * t) ** -0.5,
                 0.9999999978442541, 1.0, id="surd-narrow"),
    pytest.param(lambda w: 6.0 * (1.0 + (22.0 + 125.0 * w ** 6) * w ** 6) ** -0.5,
                 0.0, 7.07 ** (-1 / 6), id="surd-far"),
]
# the panel at the default eps_rel, 1e-12, under its own ids, and looser
REFERENCE_RUNS = [pytest.param(*case.values, eps,
                               id=case.id if eps == 1e-12 else f"{case.id}-{eps:g}")
                  for eps in (1e-12, 1e-8, 1e-4) for case in REFERENCE_PANEL]


# In a fresh interpreter: which levels have a node table after importing
# rrcflab, after integrating a constant (it converges at level 3, the first
# level allowed to stop) and after a quadrature that reaches the level cap.
_BUILT_LEVELS = """
import rrcflab
from rrcflab import quadrature as q
from rrcflab.numerics import PrecisionContext
def built():
    print([level for level, t in enumerate(q._TABLES) if t is not None])
built()
q.integrate_finite(lambda t: 1.0, 0.0, 1.0)
built()
try:
    q.integrate_finite(lambda t: t ** -0.9, 0.0, 1.0,
                       PrecisionContext(eps_rel=1e-300, eps_abs=1e-300))
except q.QuadratureError:
    built()
"""


class TestNodeTables:
    def test_tables_cover_the_default_levels(self):
        assert len(_TABLES) == MAX_QUAD_LEVELS + 1
        assert _table(0)[0] == (1.0, 0.5 * math.pi)   # the centre node

    @pytest.mark.parametrize("level", range(12))
    def test_entries_match_the_generator_exactly(self, level):
        table = _table(level) if level < len(_TABLES) else _level_table(level)
        expected = tuple((off, w) for _, off, w in _nodes(0.5 ** level, level > 0))
        assert table == expected

    @pytest.mark.parametrize("f, a, b, eps", REFERENCE_RUNS)
    def test_integrals_bitwise_equal_to_reference(self, f, a, b, eps):
        # a singular end whose nodes round onto it can hold the levels apart
        # to the cap: then the best estimate and gap are compared
        def outcome(integrate):
            try:
                return integrate(f, a, b, ctx)
            except QuadratureError as exc:
                return "level cap", exc.best, exc.gap

        ctx = PrecisionContext(eps_rel=eps)
        assert outcome(integrate_finite) == outcome(_reference_integrate)

    def test_tables_are_built_on_first_use(self):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", _BUILT_LEVELS], check=True,
                             capture_output=True, text=True, env=env).stdout
        assert out.splitlines() == [
            "[]", "[0, 1, 2, 3]", str(list(range(MAX_QUAD_LEVELS + 1)))]

    def test_a_table_is_built_once(self):
        assert _table(2) is _table(2) is _TABLES[2]


class TestFinite:
    def test_inverse_sqrt_singularity(self):
        val = integrate_finite(lambda t: t ** -0.5, 0.0, 1.0)
        assert val == pytest.approx(2.0, rel=1e-12)

    def test_beta_with_two_singular_endpoints(self):
        val = integrate_finite(lambda t: t ** (-5 / 6) * (1 - t) ** (-1 / 3),
                               0.0, 1.0)
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
        ctx = PrecisionContext(eps_rel=1e-300, eps_abs=1e-300)
        with pytest.raises(QuadratureError) as err:
            integrate_finite(lambda t: t ** -0.9, 0.0, 1.0, ctx)
        assert err.value.best == pytest.approx(10.0, rel=0.1)

    def test_non_finite_interior_sample(self):
        with pytest.raises(DomainError):
            integrate_finite(lambda t: 1.0 / (t - 0.5), 0.0, 1.0)

    @pytest.mark.parametrize("end", ["a", "b"])
    def test_non_finite_sample_next_to_an_end(self, end):
        # no endpoint is exempt: an inf within 1e-15 of either end is a
        # DomainError like one in the interior
        def f(t):
            offset = t if end == "a" else 1.0 - t
            return math.inf if offset < 1e-15 else 1.0
        with pytest.raises(DomainError, match="not finite"):
            integrate_finite(f, 0.0, 1.0)

    @pytest.mark.parametrize("error", [OverflowError, ValueError])
    def test_raising_integrand_is_a_domain_error(self, error):
        def f(t):
            if t > 0.9:
                raise error("boom")
            return t
        with pytest.raises(DomainError, match="at x=") as err:
            integrate_finite(f, 0.0, 1.0)
        assert isinstance(err.value.__cause__, error)

    @pytest.mark.parametrize("error", [DomainError("own"), ConvergenceError("inner"),
                                       PoleError("pole")])
    def test_kernel_errors_pass_through_unchanged(self, error):
        def f(t):
            raise error
        with pytest.raises(type(error)) as err:
            integrate_finite(f, 0.0, 1.0)
        assert err.value is error


# 2F1 at |z| > 1 by the Euler integral of F1, whose (1-t)^(c-b-1) end at 1
# blows up: nodes next to it round onto 1, and the level sums stall short of
# the integral.  The first is the (-2.68, 0.756, 1.24) call of a seeded
# sample of a, b, c in [-3, 3] and 1.05 < |z| < 3; the others are from
# random.Random(5), (6) and (7) with the same ranges.  The gaps of each
# pass the early exit's first two tests, and the outermost terms do not.
# The tests call gauss_2f1's integral route itself: gauss_2f1 sums the
# fourth by Pfaff, whose z/(z-1) has modulus 0.72.
STALLED_2F1 = [
    (-2.6751419354166157, 0.7561035274018488, 1.2433314934526793,
     1.2673926694989854 + 1.0856902013467928j),
    (-2.0029642940169636, 2.01972168812285, 2.624290146851009,
     0.7125893422202983 + 1.8479869719039939j),
    (1.1893424625161533, -2.924863806869984, 1.6683450565849007,
     0.539147212589949 - 0.9395650030253238j),
    (0.07357370678073316, -2.6142552444554887, 2.9104994648045963,
     -2.546501412262098 + 0.4577040900750723j),
]


class TestEarlyExit:
    """Level L is returned, a level before its gap alone would allow, when
    the gaps show digit doubling, extrapolate an error within tol, and the
    terms at the outermost nodes inside (a, b) are within tol too."""

    def test_a_smooth_integrand_stops_a_level_early(self):
        calls = []

        def f(t):
            calls.append(t)
            return math.exp(t)

        val = integrate_finite(f, 0.0, 1.0)
        early = len(calls)
        calls.clear()
        _reference_integrate(f, 0.0, 1.0, early_exit=False)
        # levels 0-3 sample 58 nodes, each once: the 66 that do not round
        # onto 1 less 8 past the cut at 0, where the terms fall below tol/1024
        # (2 of 10 at level 2, 6 of 20 at level 3).  The level gap alone
        # takes level 4 as well
        assert (early, len(calls)) == (58, 110)
        assert abs(val - math.expm1(1.0)) <= DEFAULT_CTX.tol(val)

    @pytest.mark.parametrize("p, eps", [(2.5, 1e-10), (2.5, 1e-8), (1.5, 1e-6),
                                        (0.5, 1e-4)])
    def test_an_erratic_drop_is_not_returned(self, p, eps):
        # |t - 0.3|^p is not analytic at 0.3 and its gaps fall erratically:
        # for p = 2.5 the relative gaps from level 3 on are 3.9e-4, 2.5e-5,
        # 1.6e-8, 2.5e-7.  Level 5 passes the doubling test over its last
        # two gaps, and with that test alone came back 2,270 tol off at
        # eps 1e-10 (22, 12 and 7.5 tol in the other cases); the gaps
        # before it did not double.
        ctx = PrecisionContext(eps_rel=eps, eps_abs=1e-3 * eps)
        exact = (0.3 ** (p + 1.0) + 0.7 ** (p + 1.0)) / (p + 1.0)
        try:
            val = integrate_finite(lambda t: abs(t - 0.3) ** p, 0.0, 1.0, ctx)
        except QuadratureError:
            return
        assert abs(val - exact) <= ctx.tol(exact)

    @pytest.mark.oracle("integrate_finite")
    @pytest.mark.parametrize("a, b, c, z", STALLED_2F1)
    def test_a_stalled_sum_is_not_returned(self, a, b, c, z):
        mp = pytest.importorskip("mpmath")
        try:
            val = special._integral_2f1(a, b, c, z, DEFAULT_CTX, None)
        except QuadratureError:
            return
        with mp.workdps(30):
            ref = complex(mp.hyp2f1(a, b, c, z))
        assert abs(val - ref) <= 1e-11 * abs(ref)

    @pytest.mark.parametrize("a, b, c, z", STALLED_2F1)
    def test_without_the_edge_test_a_stalled_sum_passes(self, a, b, c, z,
                                                         monkeypatch):
        # what the test of the last terms guards against: the reference
        # rule, which takes the engine's nodes and sums, returns 2.2e-10 to
        # 2.5e-8 off mpmath without it.  The walk next to the end at 1 stops
        # where nodes round onto 1, at a term that is not small
        mp = pytest.importorskip("mpmath")
        monkeypatch.setattr(special, "integrate_finite",
                            lambda f, lo, hi, ctx: _reference_integrate(
                                f, lo, hi, ctx, edge_test=False))
        val = special._integral_2f1(a, b, c, z, DEFAULT_CTX, None)
        with mp.workdps(30):
            ref = complex(mp.hyp2f1(a, b, c, z))
        assert abs(val - ref) > 1e-10 * abs(ref)

    @pytest.mark.oracle("integrate_finite")
    @given(st.floats(min_value=-0.9, max_value=2.0, exclude_min=True),
           st.floats(min_value=-0.9, max_value=2.0, exclude_min=True),
           st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=100, deadline=None)
    def test_beta_kernel_against_mpmath(self, alpha, beta, c):
        # int_0^1 t^alpha (1-t)^beta e^(ct) dt = B(alpha+1, beta+1)
        # 1F1(alpha+1; alpha+beta+2; c).  A value that the level gap alone
        # would not have returned is within tol.  The level gap's own
        # values can miss: for beta < 0 the nodes next to 1 round onto it,
        # and for alpha < -5/6 the nodes past |t| = 5 hold more than tol
        # (test_level_gap_misses_next_to_a_singular_end).  Such a miss
        # passes only where the untruncated rule's level gap misses too,
        # and a QuadratureError only where the untruncated rule does not
        # return within tol, so that no miss of the truncation passes.
        mp = pytest.importorskip("mpmath")

        def f(t):
            return t ** alpha * (1.0 - t) ** beta * math.exp(c * t)

        with mp.workdps(30):
            ref = float(mp.beta(alpha + 1, beta + 1) * mp.hyp1f1(alpha + 1, alpha + beta + 2, c))
        tol = DEFAULT_CTX.tol(ref)
        try:
            val = integrate_finite(f, 0.0, 1.0)
        except QuadratureError:
            try:
                val = _reference_integrate(f, 0.0, 1.0, truncate=False)
            except QuadratureError:
                return
            assert abs(val - ref) > tol
            return
        if abs(val - ref) <= tol:
            return
        assert val == _reference_integrate(f, 0.0, 1.0, early_exit=False)
        try:
            val = _reference_integrate(f, 0.0, 1.0, early_exit=False, truncate=False)
        except QuadratureError:
            return
        assert abs(val - ref) > tol

    @pytest.mark.oracle("integrate_finite")
    @pytest.mark.xfail(strict=True, reason="nodes next to b that round onto it "
                       "drop out of the sum, and the levels agree without them")
    def test_level_gap_misses_next_to_a_singular_end(self):
        mp = pytest.importorskip("mpmath")
        alpha, beta, c = 1.3989222359410731, -0.37891310731462446, -2.447736460934669
        val = integrate_finite(
            lambda t: t ** alpha * (1.0 - t) ** beta * math.exp(c * t), 0.0, 1.0)
        with mp.workdps(30):
            ref = mp.beta(alpha + 1, beta + 1) * mp.hyp1f1(alpha + 1, alpha + beta + 2, c)
        assert abs(val - ref) <= DEFAULT_CTX.tol(float(ref))   # 80 x tol off

    # theta's target, the surd tail from X = 10^0.85, is one quadrature of the
    # analytic 6 (1 + 22 w^6 + 125 w^12)^(-1/2) over (0, X^(-1/6))
    SURD_X, SURD_CTX = 10.0 ** 0.85, PrecisionContext(eps_rel=1e-13)

    @staticmethod
    def _surd_tail(mp, big_x):
        with mp.workdps(30):
            top = mp.mpf(big_x) ** (-mp.mpf(1) / 6)
            return float(mp.quad(lambda w: 6 / mp.sqrt(1 + 22 * w ** 6 + 125 * w ** 12),
                                 [0, top]))

    def test_without_the_early_exit_the_surd_tail_is_within_tol(self):
        # 2.1e-16 relative off
        mp = pytest.importorskip("mpmath")
        ref = self._surd_tail(mp, self.SURD_X)

        def far(w):
            w6 = w ** 6
            return 6.0 * (1.0 + (22.0 + 125.0 * w6) * w6) ** -0.5

        val = _reference_integrate(far, 0.0, self.SURD_X ** (-1.0 / 6.0), self.SURD_CTX,
                                   early_exit=False)
        assert abs(val - ref) <= self.SURD_CTX.tol(ref)

    @pytest.mark.oracle("surd_tail_integral")
    @pytest.mark.xfail(strict=True, reason="the early exit returns a level whose "
                       "extrapolated error is below tol but whose value is not: "
                       "6.0e-13 relative off at eps_rel 1e-13 (FOUND in CHANGES.md)")
    def test_early_exit_misses_on_the_surd_tail(self):
        mp = pytest.importorskip("mpmath")
        ref = self._surd_tail(mp, self.SURD_X)
        val = surd_tail_integral(self.SURD_X, self.SURD_CTX)
        assert abs(val - ref) <= self.SURD_CTX.tol(ref)


def _seeded_case(rng, mp):
    """One seeded integral (f, a, b, exact), its value in closed form for
    mpmath.  Mild kinds: t^alpha (1-t)^beta e^(ct) on (0, 1), and on a
    random interval a Lorentzian peak, a complex exponential or 1/(t - z0)
    with z0 off the axis.  Steep kinds, each negligible over much of its
    interval: e^(ct) on (0, 1) with |c| up to 1000, t^alpha (1-t)^beta
    with one exponent up to 200, and a narrow Gaussian off the centre of a
    random interval."""
    kind = rng.randrange(7)
    if kind == 0:
        alpha, beta = rng.uniform(-0.9, 2.0), rng.uniform(-0.9, 2.0)
        c = rng.uniform(-3.0, 3.0)
        return (lambda t: t ** alpha * (1.0 - t) ** beta * math.exp(c * t), 0.0, 1.0,
                lambda: mp.beta(alpha + 1, beta + 1) * mp.hyp1f1(alpha + 1, alpha + beta + 2, c))
    if kind == 4:
        c = 10.0 ** rng.uniform(0.0, 3.0)
        if rng.random() < 0.5:
            return (lambda t: math.exp(-c * t), 0.0, 1.0, lambda: -mp.expm1(-c) / c)
        return (lambda t: math.exp(c * (t - 1.0)), 0.0, 1.0, lambda: -mp.expm1(-c) / c)
    if kind == 5:
        alpha, beta = rng.uniform(-0.9, 2.0), 10.0 ** rng.uniform(0.5, math.log10(200.0))
        if rng.random() < 0.5:
            alpha, beta = beta, alpha
        return (lambda t: t ** alpha * (1.0 - t) ** beta, 0.0, 1.0,
                lambda: mp.beta(alpha + 1, beta + 1))
    lo = rng.uniform(-5.0, 5.0) * 10.0 ** rng.uniform(0.0, 2.0)
    hi = lo + 10.0 ** rng.uniform(-2.0, 1.0)
    if kind == 1:
        s, t0 = 10.0 ** rng.uniform(-1.0, 1.0), rng.uniform(lo, hi)
        return (lambda t: 1.0 / (1.0 + (s * (t - t0)) ** 2), lo, hi,
                lambda: (mp.atan(s * (mp.mpf(hi) - t0)) - mp.atan(s * (mp.mpf(lo) - t0))) / s)
    if kind == 2:
        z = complex(rng.uniform(-3.0, 3.0), rng.uniform(-10.0, 10.0))
        return (lambda t: cmath.exp(z * (t - lo)), lo, hi,
                lambda: mp.expm1(z * (mp.mpf(hi) - lo)) / z)
    if kind == 6:
        side = rng.choice((rng.uniform(0.02, 0.4), rng.uniform(0.6, 0.98)))
        t0, s = lo + (hi - lo) * side, (hi - lo) * 10.0 ** rng.uniform(-3.0, -1.0)
        return (lambda t: math.exp(-((t - t0) / s) ** 2), lo, hi,
                lambda: s * mp.sqrt(mp.pi) / 2 * (mp.erf((hi - t0) / s) - mp.erf((lo - t0) / s)))
    z0 = complex(rng.uniform(lo, hi), rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-2.0, 0.0))
    return (lambda t: 1.0 / (t - z0), lo, hi,
            lambda: mp.log(mp.mpf(hi) - z0) - mp.log(mp.mpf(lo) - z0))


class TestTruncation:
    """Each end of a level stops after two consecutive terms within tol/1024
    of the sum, past every term above that share that this level or a
    coarser one met at that end, and finer levels walk no further out.
    Against the untruncated rule, which walked every end out to |t| = 5,
    that costs no value and saves evaluations."""

    @pytest.mark.oracle("integrate_finite")
    def test_no_new_miss(self):
        # 1,000 seeded draws: both rules return 954 values, 908 of them
        # within tol; the 46 off by more include 22 narrow Gaussians that
        # no node of either rule meets (up to 9.5e11 tol off).  Evaluations
        # fall 703,516 -> 539,885.  A QuadratureError counts as a miss
        mp = pytest.importorskip("mpmath")
        rng = random.Random(1)
        evals = {"untruncated": 0, "engine": 0}
        missed = []
        for draw in range(1000):
            f, a, b, exact = _seeded_case(rng, mp)
            with mp.workdps(30):
                ref = complex(exact())
            half = 0.5 * (b - a)
            tol = half * DEFAULT_CTX.tol(abs(ref) / half)
            within = {}
            for rule, integrate in (
                    ("untruncated", lambda g: _reference_integrate(g, a, b, truncate=False)),
                    ("engine", lambda g: integrate_finite(g, a, b))):
                def counted(t):
                    evals[rule] += 1
                    return f(t)
                try:
                    within[rule] = abs(integrate(counted) - ref) <= tol
                except QuadratureError:
                    within[rule] = False
            if within["untruncated"] and not within["engine"]:
                missed.append(draw)
        assert missed == []
        assert evals["engine"] <= 0.85 * evals["untruncated"]

    def test_a_zero_stretch_next_to_the_centre(self):
        # (0.3 - t)_+^4 is 0 on (0.3, 0.5), where the walk towards 0 meets
        # its first nodes from level 4 on.  No term above the cut came
        # before them, so they do not end the walk
        val = integrate_finite(lambda t: max(0.0, 0.3 - t) ** 4, 0.0, 1.0)
        assert val == pytest.approx(0.3 ** 5 / 5, rel=1e-12)

    @pytest.mark.parametrize("f, exact", [
        (lambda t: math.exp(-200.0 * t), -math.expm1(-200.0) / 200.0),
        (lambda t: math.exp(1000.0 * (t - 1.0)), -math.expm1(-1000.0) / 1000.0),
        (lambda t: math.exp(-(50.0 * (t - 0.5)) ** 2) + math.exp(-(50.0 * (t - 0.9)) ** 2),
         math.sqrt(math.pi) / 100.0 * (2.0 * math.erf(25.0) + math.erf(5.0) + math.erf(45.0))),
        (lambda t: math.exp(-(50.0 * (t - 0.5)) ** 2) + math.exp(-200.0 * t),
         math.sqrt(math.pi) / 50.0 * math.erf(25.0) - math.expm1(-200.0) / 200.0),
    ], ids=["layer-at-0", "layer-at-1", "two-peaks", "peak-and-layer"])
    def test_mass_past_negligible_terms(self, f, exact):
        # the walk meets terms far below the cut before it reaches the mass
        # next to an end: at the centre of a boundary layer, or between two
        # features.  Neither pair of small terms ends it
        assert abs(integrate_finite(f, 0.0, 1.0) - exact) <= DEFAULT_CTX.tol(exact)

    @pytest.mark.oracle("gauss_2f1")
    @pytest.mark.parametrize("a, b, c, z", [(1.0, 120.0, 121.0, -2.0),
                                            (1.0, 150.0, 151.5, -3.0)])
    def test_euler_route_with_a_large_exponent(self, a, b, c, z):
        # |z| >= 1 takes the Euler integral, whose t^(b-1) holds its mass
        # next to t = 1, where its terms are still negligible at the centre
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            ref = complex(mp.hyp2f1(a, b, c, z))
        assert abs(gauss_2f1(a, b, c, z) - ref) <= 1e-11 * abs(ref)

    @pytest.mark.oracle("appell_f1")
    def test_appell_route_with_a_large_exponent(self):
        # outside the bidisk F1 takes its Euler integral, here t^119 next to 1
        mp = pytest.importorskip("mpmath")
        args = (120.0, 1.0, 0.5, 121.0, -2.0, 0.5)
        with mp.workdps(30):
            ref = float(mp.appellf1(*args))
        assert abs(appell_f1(*args) - ref) <= 1e-11 * abs(ref)


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
                                0.0, 2.0)
        re = integrate_finite(lambda t: math.cos(t) * t ** -0.5, 0.0, 2.0)
        im = integrate_finite(lambda t: math.sin(t) * t ** -0.5, 0.0, 2.0)
        assert val.real == pytest.approx(re, rel=1e-12)
        assert val.imag == pytest.approx(im, rel=1e-12)

    def test_non_finite_imaginary_part(self):
        with pytest.raises(DomainError):
            integrate_complex(lambda t: complex(1.0, math.inf if t > 0.7 else t),
                              0.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, complex(math.nan, 0.0),
                                     complex(0.0, -math.inf)])
    def test_one_finiteness_test_for_real_and_complex_sums(self, bad):
        # a level sum s that met a non-finite sample has s - s != 0
        for integrate in (integrate_finite, integrate_complex):
            with pytest.raises(DomainError, match=r"not finite on \[0.0, 1.0\]"):
                integrate(lambda t: bad if t > 0.3 else t, 0.0, 1.0)


class TestEtaTailEquality:
    def test_index_four_tail_matches_scaled_cf_integral(self):
        # eta tail from 2 against (5/pi) x the continued-fraction integral,
        # both sides computed from scratch by independent kernels
        from rrcflab.modular import eta_tail_integral
        from rrcflab.routes import rr_integral
        from rrcflab.qseries import rrcf
        lhs = eta_tail_integral(2.0)
        rhs = 5.0 / math.pi * rr_integral(rrcf(math.exp(-2.0 * math.pi)))
        assert lhs == pytest.approx(rhs, rel=1e-8)


class TestDualRoute:
    def test_weighted_power_integrand_two_ways(self):
        # direct tanh-sinh with the q^(-5/6) singularity vs the q = s^6
        # substitution that removes it: the anti-typo defence of the
        # integrand that Theorem 1's checks integrate
        from rrcflab.qseries import ramanujan_f_log, rrcf
        from rrcflab.routes import weighted_power_integral

        def mapped(s):
            q = s ** 6
            if q <= 0.0:
                return 0.0
            log_f4 = 4.0 * ramanujan_f_log(q)
            if log_f4 < -700.0:
                return 0.0
            return 6.0 * math.exp(log_f4) * rrcf(q) ** 5.0

        ctx = PrecisionContext()
        direct = weighted_power_integral(1.0, ctx)
        assert direct == pytest.approx(integrate_finite(mapped, 0.0, 1.0, ctx),
                                       rel=1e-8)
