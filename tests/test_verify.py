import dataclasses

import pytest

from rrcflab.numerics import DEFAULT_CTX, DomainError
from rrcflab.report import FAIL, FLAGGED, PASS, compare, residuals
from rrcflab.verify import BUILDER_RAISED, check_ids, run_all, run_check


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


class TestRegistry:
    def test_census(self):
        assert len(check_ids()) >= 40

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
        for cid in check_ids():
            pass  # refs verified on executed subset below to stay fast
        for r in run_all("Ex5*").results:
            assert r.paper_ref

    def test_deterministic_reruns(self):
        a = run_all("Eq19*")
        b = run_all("Eq19*")
        strip = lambda rep: [dataclasses.replace(r, seconds=0.0)
                             for r in rep.results]
        assert strip(a) == strip(b)


class TestFlaggedLedger:
    """Open-question records must carry evidence from two methods and must
    never fail a run."""

    FLAG_POLICY_IDS = ("Eq13.n0", "Eq17_18.nu=0.5", "Eq20.sign.r=4",
                       "Eq50.x1", "Eq51.phi.x=0.5", "T7.msign",
                       "Ex4.tclaim.r=2")

    @pytest.mark.parametrize("cid", FLAG_POLICY_IDS)
    def test_flag_policy_records(self, cid):
        rec = run_check(cid)
        assert rec.status in (PASS, FLAGGED)
        assert rec.notes   # must document the second method / variant
        assert rec.residual_abs >= 0.0


class TestBuilderErrors:
    """A KernelError raised inside a check is a failed check that names the
    exception, never a crash, a pass or a flag."""

    CAPPED = dataclasses.replace(DEFAULT_CTX, max_series_terms=5)

    def test_series_cap_is_a_failed_check(self):
        rec = run_check("T3.r=1", self.CAPPED)
        assert rec.status == FAIL
        assert rec.notes.startswith(BUILDER_RAISED + "SeriesDivergenceError")
        assert not rec.ok()

    def test_flagged_check_that_raises_is_not_flagged(self):
        # Eq51.phi.x=0.5 is a flagged record at the default context
        assert run_check("Eq51.phi.x=0.5").status == FLAGGED
        assert run_check("Eq51.phi.x=0.5", self.CAPPED).status == FAIL

    def test_other_exceptions_propagate(self, monkeypatch):
        from rrcflab import verify

        def broken(ctx):
            raise TypeError("a defect in the check itself")
        monkeypatch.setitem(verify._REGISTRY, "broken", broken)
        with pytest.raises(TypeError):
            run_check("broken")


class TestEpsSweep:
    """Every check at eps_rel from 1e-4 to 1e-12: no builder raises, and at
    eps_rel <= 1e-8 every status is the default one.  At a looser eps the
    checks listed below fail, because their tolerances are fixed and tighter
    than what the kernels then resolve; they are a known gap for the
    tolerance audit, and no tolerance is loosened to hide it."""

    LOOSE_FAILS = {
        1e-6: {"Eq16.m1.n0.5", "Ex3.beta1.5", "Ex3.beta2", "Ex4.eq63.r=2",
               "T6.baseB16.r=4", "T6.baseK.r=2", "T6.basePsiStar.r=3"},
    }
    LOOSE_FAILS[1e-4] = LOOSE_FAILS[1e-6] | {
        "Eq50.quadrature.x=0.5", "Eq57.ratio", "T2.n=1", "T2.n=1.5",
        "T8.example2.p=0.6"}

    @pytest.fixture(scope="class")
    def default_status(self):
        return {r.id: r.status for r in run_all().results}

    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    def test_statuses(self, default_status, eps):
        results = run_all(ctx=DEFAULT_CTX.with_eps(eps)).results
        assert [r.id for r in results if r.notes.startswith(BUILDER_RAISED)] == []
        changed = {r.id for r in results if r.status != default_status[r.id]}
        assert changed == self.LOOSE_FAILS.get(eps, set())
        assert all(r.status == FAIL for r in results if r.id in changed)
