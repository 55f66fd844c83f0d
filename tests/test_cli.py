import json
import math

import pytest

from rrcflab.cli import main
from rrcflab.modular import m_of_x
from rrcflab.numerics import DEFAULT_CTX
from rrcflab.verify import check_ids


def _usage_error_of(argv, capsys) -> str:
    """The one line a usage error prints, after checking it exits with 2."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    return err.strip()


class TestEval:
    def test_rrcf_at_ramanujan_nome(self, capsys):
        assert main(["eval", "rrcf", repr(math.exp(-2 * math.pi))]) == 0
        out = capsys.readouterr().out
        value = float(out.split()[0])
        expected = -(1 + math.sqrt(5)) / 2 + math.sqrt((5 + math.sqrt(5)) / 2)
        assert value == pytest.approx(expected, abs=1e-10)

    def test_singular_modulus(self, capsys):
        assert main(["eval", "k_r", "4"]) == 0
        value = float(capsys.readouterr().out.split()[0])
        assert value == pytest.approx(3 - 2 * math.sqrt(2), abs=1e-10)

    def test_elliptic_k_at_zero(self, capsys):
        assert main(["eval", "K", "0"]) == 0
        value = float(capsys.readouterr().out.split()[0])
        assert value == pytest.approx(math.pi / 2, rel=1e-12)

    def test_complex_output_format(self, capsys):
        assert main(["eval", "f1", "0.9", "1", "1", "2", "0.3", "0.2i"]) == 0
        out = capsys.readouterr().out
        assert "i" in out.split()[0]

    def test_2f1_next_to_one(self, capsys):
        # summed at 1 - z by the connection formula; the series at z itself
        # stopped at its 2000-term cap
        assert main(["eval", "2f1", "0.5", "0.25", "1.5", "0.995"]) == 0
        value = float(capsys.readouterr().out.split()[0])
        assert value == pytest.approx(1.1885665682236528, rel=1e-12)

    def test_tolerance_is_not_called_an_estimate(self, capsys):
        # eps_rel |value| is the target tolerance, not an error estimate
        assert main(["eval", "K", "0", "--eps", "1e-6"]) == 0
        value, label, tol = capsys.readouterr().out.split()
        assert label == "(tol"
        assert float(tol.rstrip(")")) == pytest.approx(1e-6 * float(value), rel=0.05)

    @pytest.mark.parametrize("eps", [None, 1e-6], ids=["default", "1e-6"])
    def test_eta_tail_inverse(self, capsys, eps):
        # the printed m is the root m_of_x returns under the same context
        x = 1.5
        argv = ["eval", "m", repr(x)] + ([] if eps is None else ["--eps", repr(eps)])
        assert main(argv) == 0
        value = float(capsys.readouterr().out.split()[0])
        ctx = DEFAULT_CTX if eps is None else DEFAULT_CTX.replace(eps_rel=eps)
        assert value == pytest.approx(m_of_x(x, ctx), rel=1e-14)

    def test_unknown_function(self, capsys):
        assert _usage_error_of(["eval", "frobnicate", "1"], capsys).startswith(
            "rrcflab: unknown function 'frobnicate'; choose from ")

    def test_wrong_arity(self, capsys):
        assert _usage_error_of(["eval", "rrcf"], capsys) == \
            "rrcflab: rrcf takes 1 argument(s), got 0"

    def test_complex_argument_of_a_real_kernel_is_usage_error(self, capsys):
        assert _usage_error_of(["eval", "K", "0.5i"], capsys) == \
            "rrcflab: K takes real arguments"

    def test_domain_error_exits_one(self, capsys):
        assert main(["eval", "K", "1.5"]) == 1

    def test_argument_that_is_not_a_number_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["eval", "K", "abc"])
        assert info.value.code == 2
        assert capsys.readouterr().err.strip() == "rrcflab: 'abc' is not a number"


class TestVerifyCommand:
    def test_json_shape(self, capsys):
        assert main(["verify", "--filter", "T3*", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["id"] for row in payload] == ["T3.r=1", "T3.r=4"]
        required = {"id", "paper_ref", "lhs", "rhs", "residual_abs",
                    "residual_rel", "judged", "tolerance", "status", "notes",
                    "seconds"}
        for row in payload:
            assert set(row) == required
            float(row["residual_rel"])  # decimal strings parse back
            assert row["status"] == "pass"

    def test_filtered_run_exit_zero(self, capsys):
        assert main(["verify", "--filter", "Ex3*"]) == 0
        out = capsys.readouterr().out
        assert "0 fail" in out

    def test_flagged_does_not_fail_exit(self, capsys):
        assert main(["verify", "--filter", "Eq51*"]) == 0
        assert "flagged" in capsys.readouterr().out

    def test_eps_override_propagates(self, capsys):
        assert main(["verify", "--filter", "RRCF*", "--eps", "1e-4"]) == 0

    def test_term_cap_fails_without_traceback(self, capsys, series_cap):
        # every builder that hits the cap is a failed row, and the run ends
        # with the summary line
        series_cap(5)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert out.splitlines()[-1].startswith(f"# {len(check_ids())} checks:")
        assert " 0 fail" not in out.splitlines()[-1]

    def test_loose_eps_keeps_the_default_statuses(self, capsys):
        # every tolerance is held to max(tol, eps), so a looser eps keeps
        # the statuses of the default one
        assert main(["verify", "--eps", "1e-5"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1].startswith(
            f"# {len(check_ids())} checks: 76 pass, 0 fail, 5 flagged")

    @pytest.mark.parametrize("argv, bad", [
        (["verify", "--eps", "-1"], "-1.0"),
        (["verify", "--eps", "nan"], "nan"),
        (["eval", "K", "0.5", "--eps", "inf"], "inf"),
        (["verify", "--filter", "T3*", "--eps", "inf"], "inf"),
    ], ids=["negative-eps", "nan-eps", "inf-eps-eval",
            "inf-eps-verify"])
    def test_bad_context_is_one_line_usage_error(self, capsys, argv, bad):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("rrcflab: ") and bad in err


class TestSolveSextic:
    def test_prop1_instance(self, capsys):
        assert main(["solve-sextic", "1", "250", "12"]) == 0
        out = capsys.readouterr().out
        x_line = next(line for line in out.splitlines() if line.startswith("X "))
        from rrcflab.qseries import u_of_q
        assert float(x_line.split("=")[1]) == pytest.approx(
            u_of_q(math.exp(-2 * math.pi)), rel=1e-9)

    def test_synthetic_instance_prints_residual(self, capsys):
        c1 = (4000.0 * 3.0 / 250.0) ** (1.0 / 3.0)
        assert main(["solve-sextic", "1", "3", repr(c1)]) == 0
        out = capsys.readouterr().out
        residual = float(next(line for line in out.splitlines()
                              if line.startswith("residual")).split("=")[1])
        assert residual < 1e-6

    def test_zero_a_is_usage_error(self, capsys):
        assert _usage_error_of(["solve-sextic", "0", "3", "1"], capsys) == (
            "rrcflab: a and b must be nonzero in b^2/(20a) + bX + aX^2 = C1 X^(5/3)")

    def test_low_j_is_domain_error(self, capsys):
        assert main(["solve-sextic", "1", "3", "1"]) == 1
        assert "(36)" in capsys.readouterr().err
