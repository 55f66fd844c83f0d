import json
import math

import pytest

from rrcflab.cli import main
from rrcflab.verify import check_ids


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("RRCF_EPS", raising=False)


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

    def test_unknown_function(self, capsys):
        assert main(["eval", "frobnicate", "1"]) == 2

    def test_wrong_arity(self, capsys):
        assert main(["eval", "rrcf"]) == 2

    def test_domain_error_exits_one(self, capsys):
        assert main(["eval", "K", "1.5"]) == 1


class TestVerifyCommand:
    def test_json_shape(self, capsys):
        assert main(["verify", "--filter", "T3*", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["id"] for row in payload] == ["T3.r=1", "T3.r=4"]
        required = {"id", "paper_ref", "lhs", "rhs", "residual_abs",
                    "residual_rel", "tolerance", "status", "notes", "seconds"}
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

    def test_env_eps(self, capsys, monkeypatch):
        monkeypatch.setenv("RRCF_EPS", "1e-8")
        assert main(["verify", "--filter", "RRCF*"]) == 0

    def test_term_cap_fails_without_traceback(self, capsys):
        # every builder that hits the cap is a failed row, and the run ends
        # with the summary line
        assert main(["verify", "--max-terms", "5"]) == 1
        out = capsys.readouterr().out
        assert out.splitlines()[-1].startswith(f"# {len(check_ids())} checks:")
        assert " 0 fail" not in out.splitlines()[-1]

    def test_loose_eps_fails_without_traceback(self, capsys):
        # the T6.* checks fail at this eps: rows of the table, not a crash
        assert main(["verify", "--eps", "1e-5"]) == 1
        out = capsys.readouterr().out
        assert out.splitlines()[-1].startswith(f"# {len(check_ids())} checks:")

    def test_bad_env_eps(self, capsys, monkeypatch):
        monkeypatch.setenv("RRCF_EPS", "not-a-number")
        with pytest.raises(SystemExit):
            main(["verify", "--filter", "RRCF*"])


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
        assert main(["solve-sextic", "0", "3", "1"]) == 2

    def test_low_j_is_domain_error(self, capsys):
        assert main(["solve-sextic", "1", "3", "1"]) == 1
        assert "(36)" in capsys.readouterr().err
