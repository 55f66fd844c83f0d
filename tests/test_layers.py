"""The kernels' import layers, read from the source with ast: numerics ->
quadrature -> special -> qseries -> modular, each importing only from the
layers below it.  The registry (verify), its records (report) and the CLI
sit above every kernel, so no kernel imports them."""

import ast
from pathlib import Path

import pytest

import rrcflab

PACKAGE = Path(rrcflab.__file__).parent
KERNELS = ("numerics", "quadrature", "special", "qseries", "modular")


def _package_imports(path: Path) -> set[str]:
    """The rrcflab modules one source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            # from .x import y, or from . import x
            names = ([f"rrcflab.{node.module}"] if node.module
                     else [f"rrcflab.{alias.name}" for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and node.module == "rrcflab":
            names = [f"rrcflab.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        found.update(name.split(".")[1] for name in names
                     if name.startswith("rrcflab."))
    return found


@pytest.mark.parametrize("module", KERNELS)
def test_kernels_do_not_import_the_registry(module):
    imports = _package_imports(PACKAGE / f"{module}.py")
    assert imports.isdisjoint({"report", "verify", "cli"})


@pytest.mark.parametrize("module", KERNELS)
def test_kernels_import_only_lower_layers(module):
    imports = _package_imports(PACKAGE / f"{module}.py")
    assert imports <= set(KERNELS[:KERNELS.index(module)])
