"""What an import or a command loads.  `import rrcflab` loads no submodule:
each public name loads the module that defines it on first use, a command
loads the modules it runs, and the quadrature's node tables are built when
an integral first needs them (tests/test_quadrature.py checks those).  Each
load is checked in a fresh interpreter, since this one has loaded
everything already."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rrcflab
from rrcflab import report, verify

# Every public name of the package, as it stood when it imported the
# registry eagerly, less the Nome wrapper: nomes are plain floats.
PUBLIC = (
    "BracketError", "ConvergenceError", "DEFAULT_CTX", "DomainError",
    "KernelError", "PrecisionContext", "SeriesDivergenceError",
    "differentiate", "find_root", "newton_root", "sum_series",
    "QuadratureError", "integrate_finite",
    "BetaBase", "appell_f1", "beta_sqrt", "complete_beta", "elliptic_k",
    "elliptic_k_complementary", "gamma", "gauss_2f1", "incomplete_beta",
    "sin_multiple_p6", "dedekind_eta", "ramanujan_f",
    "rrcf", "rrcf_derivative", "u_of_q", "SexticInstance", "SexticSolution",
    "F_of_x", "G_of_x", "beta_ratio_root", "klein_j", "m_of_x",
    "singular_modulus", "solve_sextic", "theorem6_base_change", "theta_of_X",
    "trig_modular", "CheckResult", "VerificationReport", "check_ids",
    "run_all", "run_check", "__version__",
)
LAZY = {"run_all": verify, "run_check": verify, "check_ids": verify,
        "VerificationReport": verify, "CheckResult": report}

# What the registry loads with it, which a kernel command must not load.
REGISTRY = ("rrcflab.verify", "rrcflab.report")
# Standard modules that cost more to import than the kernels themselves
# (dataclasses loads inspect); only the registry may load them.
HEAVY = ("dataclasses", "inspect")

# Lines that `rrcflab solve-sextic 1 250 12` printed before the registry
# became lazy, its residual that of the equation divided through by a X^2.
# Of `rrcflab verify --filter 'T3*'` only the statuses, ids and summary are
# pinned: its residuals move with the last bit of any kernel T3 calls.
SEXTIC_OUT = """\
X        = 529.508497187475
t        = 0.0294372515228594
r        = 1
k4r      = 0.17157287525381
X_alt    = 529.508497187473  (eta-quotient path)
residual = 1.49698215744685e-16
delta    = 1.47792889038101e-12  (cross-path)
"""
T3_ROWS = [["pass", "T3.r=1"], ["pass", "T3.r=4"]]
T3_SUMMARY = "# 2 checks: 2 pass, 0 fail, 0 flagged"


def _fresh(*args: str) -> str:
    """stdout of a new interpreter run with these arguments."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, check=True, env=env).stdout


def _loaded_after(code: str) -> set[str]:
    """The modules loaded after running code in a new interpreter."""
    out = _fresh("-c", f"{code}\nimport sys\nprint(*sys.modules)")
    return set(out.splitlines()[-1].split())


def _loaded_by_command(*argv: str) -> set[str]:
    """The modules loaded after running the CLI with argv, which must
    succeed, in a new interpreter."""
    return _loaded_after(f"from rrcflab.cli import main\nassert main({list(argv)!r}) == 0")


class TestImportCost:
    def test_import_loads_no_submodule(self):
        loaded = _loaded_after("import rrcflab")
        assert "rrcflab" in loaded
        assert not {name for name in loaded if name.startswith("rrcflab.")}
        assert loaded.isdisjoint(HEAVY)

    def test_eval_loads_no_registry(self):
        # nor the kernel modules above the one that defines K
        loaded = _loaded_by_command("eval", "K", "0.5")
        assert {"rrcflab.cli", "rrcflab.special"} <= loaded
        assert loaded.isdisjoint({*REGISTRY, *HEAVY, "rrcflab.qseries", "rrcflab.modular"})

    def test_eval_of_a_q_kernel_loads_no_modular(self):
        loaded = _loaded_by_command("eval", "rrcf", "0.1")
        assert "rrcflab.qseries" in loaded
        assert loaded.isdisjoint({"rrcflab.modular", "rrcflab.special", "rrcflab.quadrature"})

    def test_solve_sextic_loads_no_registry(self):
        loaded = _loaded_by_command("solve-sextic", "1", "250", "12")
        assert {"rrcflab.modular", "rrcflab.routes"} <= loaded
        assert loaded.isdisjoint({*REGISTRY, *HEAVY})

    def test_lazy_name_loads_the_registry(self):
        loaded = _loaded_after("from rrcflab import check_ids")
        assert set(REGISTRY) <= loaded

    def test_solve_sextic_output_is_unchanged(self):
        assert _fresh("-m", "rrcflab.cli", "solve-sextic", "1", "250", "12") == SEXTIC_OUT

    def test_verify_output_is_unchanged(self):
        *rows, summary = _fresh("-m", "rrcflab.cli", "verify", "--filter", "T3*").splitlines()
        assert [row.split()[:2] for row in rows] == T3_ROWS
        assert summary.rsplit(" (", 1)[0] == T3_SUMMARY


def _top_level_names(module: str) -> set[str]:
    """The names a submodule binds at top level by def, class or
    assignment, not by import."""
    source = (Path(rrcflab.__file__).parent / f"{module}.py").read_text()
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


class TestLazyNames:
    def test_all_is_every_public_name(self):
        assert len(set(rrcflab.__all__)) == len(rrcflab.__all__)
        assert set(rrcflab.__all__) == set(PUBLIC) - {"__version__"}

    @pytest.mark.parametrize("name", sorted(rrcflab._LAZY))
    def test_lazy_entry_names_the_defining_module(self, name):
        assert name in _top_level_names(rrcflab._LAZY[name])

    @pytest.mark.parametrize("name", PUBLIC)
    def test_every_public_name_imports(self, name):
        namespace = {}
        exec(f"from rrcflab import {name}", namespace)
        assert namespace[name] is getattr(rrcflab, name)
        assert name in dir(rrcflab)

    @pytest.mark.parametrize("name", sorted(LAZY))
    def test_lazy_name_is_the_module_attribute(self, name):
        assert getattr(rrcflab, name) is getattr(LAZY[name], name)

    def test_unknown_name(self):
        with pytest.raises(AttributeError,
                           match="^module 'rrcflab' has no attribute 'no_such_name'$"):
            rrcflab.no_such_name
        with pytest.raises(ImportError):
            exec("from rrcflab import no_such_name", {})
