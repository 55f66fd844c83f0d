"""Numerical kernels and a verification registry for Rogers-Ramanujan
continued-fraction, eta-product, hypergeometric and singular-value
identities."""

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
from .report import CheckResult
from .verify import VerificationReport, check_ids, run_all, run_check

__version__ = "0.1.0"
