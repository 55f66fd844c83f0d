import dataclasses

import pytest

from rrcflab.numerics import DEFAULT_CTX, DomainError
from rrcflab.report import FLAGGED, PASS, compare, residuals
from rrcflab.verify import check_ids, run_all, run_check


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
