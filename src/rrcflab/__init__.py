"""Numerical kernels and a verification registry for Rogers-Ramanujan
continued-fraction, eta-product, hypergeometric and singular-value
identities.

Importing the package loads none of its submodules.  Each public name is
served on first access from the submodule that defines it (PEP 562), which
loads that submodule and the layers below it: `rrcflab.elliptic_k` loads
numerics, quadrature and special; `rrcflab.run_all` loads the registry and
every kernel.  `from rrcflab import *` and `dir(rrcflab)` give every public
name.
"""

from importlib import import_module

__version__ = "0.1.0"

# name: the submodule that defines it, imported on first access (PEP 562)
_LAZY = {
    **dict.fromkeys((
        "BracketError", "ConvergenceError", "DEFAULT_CTX", "DomainError",
        "KernelError", "PrecisionContext", "SeriesDivergenceError",
        "differentiate", "find_root", "newton_root", "sum_series"), "numerics"),
    **dict.fromkeys((
        "QuadratureError", "integrate_finite"), "quadrature"),
    **dict.fromkeys((
        "BetaBase", "appell_f1", "beta_sqrt", "complete_beta", "elliptic_k",
        "elliptic_k_complementary", "gamma", "gauss_2f1", "incomplete_beta",
        "sin_multiple_p6"), "special"),
    **dict.fromkeys((
        "dedekind_eta", "ramanujan_f", "rrcf", "rrcf_derivative",
        "u_of_q"), "qseries"),
    **dict.fromkeys((
        "SexticInstance", "SexticSolution", "F_of_x", "G_of_x",
        "beta_ratio_root", "klein_j", "m_of_x", "singular_modulus",
        "solve_sextic", "theorem6_base_change", "theta_of_X", "trig_modular"),
        "modular"),
    **dict.fromkeys(("run_all", "run_check", "check_ids", "VerificationReport"),
                    "verify"),
    "CheckResult": "report",
}
__all__ = list(_LAZY)


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
