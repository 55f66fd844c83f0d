"""Numerical kernels and a verification registry for Rogers-Ramanujan
continued-fraction, eta-product, hypergeometric and singular-value
identities.

Importing the package loads the kernels only.  The registry (`verify`) and
its records (`report`) load on first use of `run_all`, `run_check`,
`check_ids`, `VerificationReport` or `CheckResult`, so that evaluating a
kernel does not pay for the 82 registered checks.
"""

from importlib import import_module

from .numerics import (BracketError, ConvergenceError, DEFAULT_CTX,
                       DomainError, KernelError, PrecisionContext,
                       SeriesDivergenceError, differentiate, find_root,
                       newton_root, sum_series)
from .quadrature import QuadratureError, integrate_finite, integrate_to_infinity
from .special import (BetaBase, appell_f1, beta_sqrt, complete_beta,
                      elliptic_k, elliptic_k_complementary, gamma, gauss_2f1,
                      incomplete_beta, pn_poly, sin_multiple_p6)
from .qseries import (Nome, dedekind_eta, ramanujan_f, rrcf, rrcf_derivative,
                      u_of_q)
from .modular import (SexticInstance, SexticSolution, F_of_x, G_of_x,
                      beta_ratio_root, klein_j, m_of_x, singular_modulus,
                      solve_sextic, theorem6_base_change, theta_of_X,
                      trig_modular)

__version__ = "0.1.0"

# name: the submodule that defines it, imported on first access (PEP 562)
_LAZY = {"run_all": "verify", "run_check": "verify", "check_ids": "verify",
         "VerificationReport": "verify", "CheckResult": "report"}


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
