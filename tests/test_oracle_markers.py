"""Every pytest.mark.oracle(name) in the tests names a public callable of a
kernel module (numerics, quadrature, special, qseries, modular), read from
the source with ast: a misspelt or stale name fails here."""

import ast
from pathlib import Path

import rrcflab

PACKAGE = Path(rrcflab.__file__).parent
TESTS = Path(__file__).parent
KERNELS = ("numerics", "quadrature", "special", "qseries", "modular")


def _public_kernel_callables() -> set[str]:
    return {top.name for module in KERNELS
            for top in ast.parse((PACKAGE / f"{module}.py").read_text()).body
            if isinstance(top, (ast.FunctionDef, ast.ClassDef))
            and not top.name.startswith("_")}


def _oracle_markers(source: str) -> list[ast.Call]:
    return [node for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "pytest.mark.oracle"]


def _misnamed(source: str, kernels: set[str]) -> list[str]:
    """The oracle markers of one source whose one argument is not a string
    naming a kernel."""
    return [ast.unparse(call) for call in _oracle_markers(source)
            if not (len(call.args) == 1 and not call.keywords
                    and isinstance(call.args[0], ast.Constant)
                    and call.args[0].value in kernels)]


def test_every_oracle_marker_names_a_public_kernel():
    kernels = _public_kernel_callables()
    sources = {path.name: path.read_text() for path in sorted(TESTS.glob("test_*.py"))}
    assert sum(len(_oracle_markers(source)) for source in sources.values()) > 60
    misnamed = {name: _misnamed(source, kernels) for name, source in sources.items()}
    assert {name: calls for name, calls in misnamed.items() if calls} == {}


def test_a_misspelt_or_computed_name_is_caught():
    source = ('@pytest.mark.oracle("gauss_2f2")\n@pytest.mark.oracle(name)\n'
              '@pytest.mark.oracle("gauss_2f1")\ndef test(): pass\n')
    assert _misnamed(source, _public_kernel_callables()) == [
        "pytest.mark.oracle('gauss_2f2')", "pytest.mark.oracle(name)"]
