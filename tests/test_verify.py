import dataclasses
import math
import random

import pytest

from rrcflab import modular, qseries, quadrature, routes, special
from rrcflab.numerics import DEFAULT_CTX, DomainError
from rrcflab.report import FAIL, FLAGGED, PASS, CheckResult, compare, residuals
from rrcflab.verify import BUILDER_RAISED, CHECKS, Check, check_ids, run_all, run_check


class TestCheckResult:
    def test_compare_pass(self):
        rec = compare("x", "ref", 1.0, 1.0 + 1e-12, 1e-10)
        assert rec.status == PASS

    def test_compare_fail(self):
        rec = compare("x", "ref", 1.0, 1.1, 1e-10)
        assert rec.status == "fail"

    def test_flagged_never_fails(self):
        rec = compare("x", "ref", 1.0, 2.0, 1e-10, flagged=True)
        assert rec.status == FLAGGED
        assert rec.ok()

    def test_residual_scaling(self):
        res_abs, res_rel = residuals(2.0, 1.0)
        assert res_abs == 1.0
        assert res_rel == 0.5

    def test_record_behaves_as_the_generated_dataclass(self):
        @dataclasses.dataclass(frozen=True)
        class Reference:
            id: str
            paper_ref: str
            lhs: complex | float
            rhs: complex | float
            residual_abs: float
            residual_rel: float
            judged: str
            tolerance: float
            status: str
            notes: str
            seconds: float = 0.0

        records = list(run_all().results) + [
            compare("nan", "ref", math.nan, 1.0, 1e-9, notes="n"),
            compare("complex", "ref", 1j, -0.0, 1e-9, relative=False),
            CheckResult("default", "ref", 1.0, 1.0, 0.0, 0.0, "rel", 1e-9, PASS, "")]
        names = [f.name for f in dataclasses.fields(Reference)]
        assert [f.name for f in dataclasses.fields(CheckResult)] == names
        for rec in records:
            values = dataclasses.astuple(rec)
            ref = Reference(*values)
            assert values == dataclasses.astuple(ref)
            assert dataclasses.asdict(rec) == dataclasses.asdict(ref)
            assert repr(rec) == repr(ref).replace(Reference.__qualname__,
                                                  "CheckResult", 1)
            assert hash(rec) == hash(ref)
            assert rec == CheckResult(**dataclasses.asdict(rec))
            assert rec != dataclasses.replace(rec, status="other")
            zeroed = dataclasses.replace(rec, seconds=0.0)
            assert dataclasses.astuple(zeroed) == \
                dataclasses.astuple(dataclasses.replace(ref, seconds=0.0))
            assert type(zeroed) is CheckResult
            for name in names:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(rec, name, None)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(rec, name)
        assert records[-1].seconds == 0.0

    def test_residuals_keep_the_bits_of_the_complex_formula(self):
        def old(lhs, rhs):
            diff = abs(complex(lhs) - complex(rhs))
            scale = max(abs(complex(lhs)), abs(complex(rhs)))
            return diff, diff / scale if scale > 0.0 else diff

        def outcome(formula, lhs, rhs):
            try:
                return tuple(float.hex(v) for v in formula(lhs, rhs))
            except OverflowError:   # |z| past the doubles, both ways
                return "OverflowError"

        special_values = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-308,
                          math.inf, -math.inf, math.nan, 1.5e308, -1.5e308)
        rng = random.Random(40)

        def real():
            if rng.random() < 0.3:
                return rng.choice(special_values)
            return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320, 308)

        overflowing = [(1.5e308, -1.5e308), (complex(1e308, 1e308), 0.0),
                       (complex(1.5e308, 0.0), complex(-1.5e308, 1.0))]
        pairs = overflowing + [(real(), real()) for _ in range(800)]
        pairs += [(complex(real(), real()), complex(real(), real()))
                  for _ in range(800)]
        pairs += [(real(), complex(real(), real())) for _ in range(800)]
        pairs += [(complex(real(), real()), real()) for _ in range(800)]
        for lhs, rhs in pairs:
            assert outcome(residuals, lhs, rhs) == outcome(old, lhs, rhs), (lhs, rhs)


class TestRegistry:
    def test_census(self):
        assert len(check_ids()) == 81

    def test_ids_sorted_and_unique(self):
        ids = check_ids()
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_unknown_id(self):
        with pytest.raises(DomainError):
            run_check("no.such.check")

    def test_run_single(self):
        rec = run_check("RRCF.e2pi")
        assert rec.status == PASS
        assert rec.seconds >= 0.0

    def test_filter_theorem3(self):
        rep = run_all("T3*")
        assert [r.id for r in rep.results] == ["T3.r=1", "T3.r=4"]
        assert rep.failed == 0

    def test_empty_filter(self):
        rep = run_all("nothing-matches-*")
        assert rep.results == ()
        assert rep.passed == rep.failed == rep.flagged == 0

    def test_paper_refs_nonempty(self):
        assert all(check.ref for check in CHECKS)

    def test_deterministic_reruns(self):
        a = run_all("Eq19*")
        b = run_all("Eq19*")
        strip = lambda rep: [dataclasses.replace(r, seconds=0.0)
                             for r in rep.results]
        assert strip(a) == strip(b)


class TestJudgingRule:
    """One rule for every check: the judged residual is held to
    max(tol, eps_rel), and it is the absolute one exactly when rhs is 0."""

    ABSOLUTE = {"Ex4.eq63.r=1", "Ex4.eq63.r=2", "Ex4.tclaim.r=2", "Note.p6"}

    def test_every_tolerance_is_a_float_at_least_eps(self):
        for check in CHECKS:
            assert type(check.tol) is float and check.tol >= 1e-12, check.id

    def test_records_carry_no_judging_option(self):
        assert [f.name for f in dataclasses.fields(Check)] == [
            "id", "ref", "sides", "tol", "flagged", "params"]

    def test_absolute_exactly_where_rhs_is_zero(self):
        judged = {r.id: r.judged for r in run_all().results}
        assert {cid for cid, j in judged.items() if j == "abs"} == self.ABSOLUTE

    def test_a_zero_lhs_is_judged_relatively(self, monkeypatch):
        from rrcflab import verify
        record = Check("zero", "a kernel that wrongly returns 0",
                       lambda ctx: (0.0, 1e-13, ""), 1e-12)
        monkeypatch.setitem(verify._REGISTRY, "zero", (record, ()))
        rec = run_check("zero")
        assert rec.judged == "rel"
        assert rec.status == FAIL

    def test_tolerance_follows_a_looser_eps(self):
        assert run_check("T4.r=4").tolerance == 1e-12
        loose = DEFAULT_CTX.replace(eps_rel=1e-6)
        assert run_check("T4.r=4", loose).tolerance == 1e-6
        assert run_check("T1.nu=0.5", loose).tolerance == 1e-6
        assert run_check("App2.eq25", loose).tolerance == 1e-5


class TestFlaggedLedger:
    """Open-question records must carry evidence from two methods and must
    never fail a run."""

    FLAG_POLICY_IDS = ("Eq17_18.nu=0.5", "Eq20.sign.r=4", "Eq50.x1",
                       "Eq51.phi.x=0.5", "T7.msign", "Ex4.tclaim.r=2")

    def test_flagged_records_are_the_policy_ids(self):
        flagged = {cid for check in CHECKS if check.flagged
                   for cid, _ in check.instances()}
        assert flagged == set(self.FLAG_POLICY_IDS)

    @pytest.mark.parametrize("cid", FLAG_POLICY_IDS)
    def test_flag_policy_records(self, cid):
        rec = run_check(cid)
        assert rec.status in (PASS, FLAGGED)
        assert rec.notes   # must document the second method / variant
        assert rec.residual_abs >= 0.0


class TestBuilderErrors:
    """A KernelError, ZeroDivisionError, OverflowError or ValueError raised
    inside a check is a failed check that names the exception, never a
    crash, a pass or a flag."""

    def test_series_cap_is_a_failed_check(self, series_cap):
        series_cap(5)
        rec = run_check("T3.r=1")
        assert rec.status == FAIL
        assert rec.notes.startswith(BUILDER_RAISED + "SeriesDivergenceError")
        assert not rec.ok()

    def test_flagged_check_that_raises_is_not_flagged(self, series_cap):
        # Eq51.phi.x=0.5 is a flagged record at the default series cap
        assert run_check("Eq51.phi.x=0.5").status == FLAGGED
        series_cap(5)
        assert run_check("Eq51.phi.x=0.5").status == FAIL

    @pytest.mark.parametrize("error, sides", [
        ("ZeroDivisionError", lambda ctx: (1.0 / 0.0, 1.0, "")),
        ("OverflowError", lambda ctx: (math.exp(1e3), 1.0, "")),
        ("ValueError", lambda ctx: (math.log(-1.0), 1.0, ""))])
    def test_raw_arithmetic_errors_are_failed_checks(self, monkeypatch, error, sides):
        from rrcflab import verify

        record = Check("raw", "a record whose sides raise", sides, 1e-9, flagged=True)
        monkeypatch.setitem(verify._REGISTRY, "raw", (record, ()))
        rec = run_check("raw")
        assert rec.status == FAIL
        assert rec.notes.startswith(BUILDER_RAISED + error)
        report = run_all()
        assert len(report.results) == len(check_ids())
        assert [r.id for r in report.results if r.status == FAIL] == ["raw"]

    def test_other_exceptions_propagate(self, monkeypatch):
        from rrcflab import verify

        def broken(ctx):
            raise TypeError("a defect in the check itself")
        record = Check("broken", "a record whose sides are at fault", broken, 1e-9)
        monkeypatch.setitem(verify._REGISTRY, "broken", (record, ()))
        with pytest.raises(TypeError):
            run_check("broken")


class TestTheorem8BoundaryExample:
    """T8.example1, int_0^1 (t^2 + t + 1)^(-1/2) dt = ln(1 + 2/sqrt 3), sums
    Theorem 8's series at x/r1 = e^(-2 pi i/3), on its circle of
    convergence, after DLMF 16.16.1.  It follows ctx: measured, the
    residual is at most 0.68 eps_rel over 801 eps from 1e-12 to 1e-4."""

    def test_within_eps_rel_on_an_eps_grid(self):
        for i in range(33):
            eps = 10.0 ** (-12.0 + i / 4.0)
            result = run_check("T8.example1", DEFAULT_CTX.replace(eps_rel=eps))
            assert result.status == PASS, eps
            assert result.residual_rel <= eps, eps


class TestEpsSweep:
    """Every check at eps_rel from 1e-4 to 1e-12: no builder raises, and
    every status is the default one.  run_check holds each judged residual
    to max(tol, eps_rel), so a looser context never holds a check tighter
    than the kernels then resolve; the worst margin over the sweep is 2.37
    (T8.example1 at eps 1e-6, whose series follows eps), then 4.75
    (Eq16.m1.n0.5 at eps 1e-6).  T6.baseB16.r=4, 4.0 at eps 1e-4 while its
    base change searched in x, is at 5,900 there since it searches in the
    logit to an absolute eps_rel."""

    @pytest.fixture(scope="class")
    def default_status(self):
        return {r.id: r.status for r in run_all().results}

    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    def test_statuses(self, default_status, eps):
        results = run_all(ctx=DEFAULT_CTX.replace(eps_rel=eps)).results
        assert [r.id for r in results if r.notes.startswith(BUILDER_RAISED)] == []
        assert {r.id: r.status for r in results} == default_status


class TestQuadratureWork:
    """Integrand evaluations of a cold run_all, counted at every call of
    integrate_finite.  The counts are deterministic.  Before each end of a
    tanh-sinh level stopped where its terms fall below tol/1024 they were
    2,024, 1,860 and 1,722 at eps 1e-12, 1e-8 and 1e-4; they are 1,687,
    1,540 and 1,341.  The bound only tightens."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        tally = [0]
        original = quadrature.integrate_finite

        def counting(f, a, b, *args):
            def counted(x):
                tally[0] += 1
                return f(x)
            return original(counted, a, b, *args)

        for module in (quadrature, routes, modular, special):
            monkeypatch.setattr(module, "integrate_finite", counting)

        def cold_run_all(eps):
            for module in (qseries, modular, special):
                for value in vars(module).values():
                    if callable(getattr(value, "cache_clear", None)):
                        value.cache_clear()
            tally[0] = 0
            run_all(ctx=DEFAULT_CTX.replace(eps_rel=eps))
            return tally[0]
        return cold_run_all

    def test_registry_evaluations(self, evaluations):
        counts = [evaluations(eps) for eps in (1e-12, 1e-8, 1e-4)]
        assert counts[0] <= 1720
        assert counts[0] > counts[1] > counts[2]
