"""The kernels' import layers, read from the source with ast: numerics ->
quadrature -> special -> qseries -> modular, each importing only from the
layers below it.  The registry's second routes (routes) sit on the
kernels and import nothing else of the package.  The registry (verify),
its records (report) and the CLI sit above them, so no kernel imports
routes or any of them.  In the registry, only the runner judges a check,
and no record builds its own result, integrates or searches for a root.
In special, one function calls each generic engine of the layers below,
and modular takes its incomplete-Beta logs from special.  The quadrature
walks both ends of a level with one loop."""

import ast
from pathlib import Path

import pytest

import rrcflab

PACKAGE = Path(rrcflab.__file__).parent
KERNELS = ("numerics", "quadrature", "special", "qseries", "modular")
ABOVE_KERNELS = {"routes", "report", "verify", "cli"}


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
    assert imports.isdisjoint(ABOVE_KERNELS)


@pytest.mark.parametrize("module", KERNELS)
def test_kernels_import_only_lower_layers(module):
    imports = _package_imports(PACKAGE / f"{module}.py")
    assert imports <= set(KERNELS[:KERNELS.index(module)])


def test_qseries_imports_only_numerics():
    # the q-products need neither special nor quadrature; the modulus forms
    # of Eqs 20-21, which take K, are routes
    assert _package_imports(PACKAGE / "qseries.py") == {"numerics"}


def test_routes_import_only_kernels():
    imports = _package_imports(PACKAGE / "routes.py")
    assert "modular" in imports
    assert imports <= set(KERNELS)
    # every route integrates over a finite range: the surd integral to inf
    # is carried there by t -> 125/t
    tree = ast.parse((PACKAGE / "routes.py").read_text())
    assert [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "quadrature"
            for alias in node.names] == ["integrate_finite"]


def test_routes_take_only_public_qseries_names():
    """The nome integrals evaluate their products through qseries' public
    kernels (the product logs at ln q, the Lambert walk, the root at
    kappa), never its private series."""
    tree = ast.parse((PACKAGE / "routes.py").read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "qseries"
                for alias in node.names]
    assert imported and not any(name.startswith("_") for name in imported)
    assert "qseries._" not in ast.unparse(tree)


def test_routes_run_no_root_search():
    """A second route solves no equation of its own: App 2's inverse of R
    is the eta-quotient nome inverse, a kernel."""
    tree = ast.parse((PACKAGE / "routes.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported.isdisjoint({"find_root", "newton_root", "expand_bracket"})


def test_find_root_callers():
    """find_root serves only the functions with no derivative at hand: the
    quarter modulus, the base change of an arbitrary base and Example 4's
    unit-circle root."""
    callers = {(module, caller) for module in (*KERNELS, *ABOVE_KERNELS)
               for caller in _callers(module, "find_root")}
    assert callers == {("modular", "_quarter_modulus"),
                       ("modular", "theorem6_base_change"),
                       ("modular", "arcsin_ratio_root")}


@pytest.mark.parametrize("module", ["qseries", "special", "modular"])
def test_no_reduce_on_the_evaluation_paths(module):
    """functools.reduce with a lambda makes one Python call per
    coefficient: the kernels that the inversions evaluate in their inner
    loops write their polynomials and sums as plain loops."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert "reduce" not in imported
    assert "functools.reduce" not in ast.unparse(tree)


def test_registry_runs_no_quadrature_or_root_search():
    """The registry's records combine named kernels and routes: verify
    imports no name from quadrature and no root finder, and differentiates
    no function of its own."""
    tree = ast.parse((PACKAGE / "verify.py").read_text())
    assert "quadrature" not in _package_imports(PACKAGE / "verify.py")
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported.isdisjoint({"find_root", "newton_root"})
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "differentiate":
            assert not isinstance(node.args[0], ast.Lambda), ast.unparse(node)


# Top-level functions that nothing in the package calls, each with the reason
# it stays.
ORPHANS = {
    # perfbench/hooks.py wraps these three in its per-layer table, and they
    # go with their hooks when the benchmark is next refreshed
    "numerics.expand_bracket", "quadrature.integrate_complex",
    "qseries.eta_quarter_integrand",
}


def test_no_new_orphan_functions():
    """Every top-level function of the package is named by another
    definition (a call, or a reference by name or attribute) or exported in
    rrcflab.__all__; module dunders such as __getattr__ are not counted."""
    defined, named = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            if isinstance(top, ast.FunctionDef) and not (
                    own.startswith("__") and own.endswith("__")):
                defined[own] = f"{path.stem}.{own}"
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    named.add(name)
    orphans = {qualified for name, qualified in defined.items()
               if name not in named and name not in rrcflab.__all__}
    assert orphans == ORPHANS


def test_only_the_runner_judges_a_check():
    """Every call of report.compare or CheckResult in verify, by the
    top-level definition that makes it: run_check's one compare alone."""
    calls = []
    for top in ast.parse((PACKAGE / "verify.py").read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                if callee in ("compare", "CheckResult"):
                    calls.append((getattr(top, "name", "<module>"), callee))
    assert calls == [("run_check", "compare")]


def _callers(module: str, callee: str) -> list[str]:
    """The top-level definition of one source file that makes each call of
    callee by its bare name."""
    callers = []
    for top in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == callee:
                callers.append(top.name)
    return callers


@pytest.mark.parametrize("engine", ["integrate_finite", "sum_series"])
def test_one_special_function_per_engine(engine):
    """special reaches each generic engine from one function: F1's Euler
    integral (2F1 outside the unit disk is F1(b; a, 0; c; z, 0)) and F1's
    anti-diagonal series (the quadratic-surd series is an F1 series)."""
    callers = _callers("special", engine)
    assert len(callers) == 1, callers


def test_one_walk_for_both_ends_of_a_level():
    """integrate_finite samples its integrand at two sites: the centre node
    and the one walk that serves both ends of every level."""
    tree = ast.parse((PACKAGE / "quadrature.py").read_text())
    engine = next(top for top in tree.body if isinstance(top, ast.FunctionDef)
                  and top.name == "integrate_finite")
    integrand = engine.args.args[0].arg
    sites = [ast.unparse(node) for node in ast.walk(engine) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == integrand]
    assert len(sites) == 2, sites


def test_modular_takes_its_log_betas_from_special():
    """The split and complement rule of the incomplete Beta lives in
    special: modular runs the continued fraction itself only in
    beta_ratio_root's symmetric step, where one fraction gives B(x) and
    B(1-x), and calls no incomplete_beta."""
    assert _callers("modular", "_beta_cf") == ["beta_ratio_root"]
    assert _callers("modular", "incomplete_beta") == []


_RAW = {"ZeroDivisionError", "OverflowError", "ValueError"}


def _handled(node: ast.AST) -> set[str]:
    """The names that the except clauses inside one node catch."""
    return {name.id for handler in ast.walk(node)
            if isinstance(handler, ast.ExceptHandler) and handler.type
            for name in ast.walk(handler.type) if isinstance(name, ast.Name)}


def test_one_raw_error_contract():
    """DomainError is no ValueError, so no handler re-raises a KernelError
    ahead of a raw-error handler, and the raw errors are spelled out in one
    tuple, numerics.RAW_ERRORS, which every boundary that translates them
    names."""
    boundaries = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        definition = [node.value for node in tree.body if isinstance(node, ast.Assign)
                      and ast.unparse(node.targets[0]) == "RAW_ERRORS"]
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                assert not (ast.unparse(node.type) == "KernelError"
                            and ast.unparse(node.body[0]) == "raise"), path.stem
            elif isinstance(node, ast.Tuple) and node not in definition:
                names = {getattr(element, "id", None) for element in node.elts}
                assert not _RAW <= names, f"{path.stem}: {ast.unparse(node)}"
        boundaries.update((path.stem, top.name) for top in tree.body
                          if isinstance(top, ast.FunctionDef)
                          and "RAW_ERRORS" in _handled(top))
    assert boundaries == {("numerics", "sum_series"), ("numerics", "find_root"),
                          ("numerics", "newton_root"), ("numerics", "differentiate"),
                          ("quadrature", "integrate_finite"),
                          ("modular", "theorem6_base_change"), ("verify", "run_check")}
