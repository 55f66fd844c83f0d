"""Entry contracts that the other tests never reach: each call returns its
stated value or raises its named error at its entry, never a raw
ZeroDivisionError, ValueError or OverflowError from inside."""

import contextlib
import io
import math

import pytest

from rrcflab import modular, routes
from rrcflab.cli import main
from rrcflab.modular import TAIL_TOTAL
from rrcflab.numerics import (DEFAULT_CTX, ConvergenceError, DomainError,
                              PrecisionContext, differentiate, find_root,
                              newton_root, sum_series)
from rrcflab.qseries import dedekind_eta
from rrcflab.quadrature import integrate_finite
from rrcflab.special import (BetaBase, PoleError, complete_beta,
                             elliptic_k_complementary, gauss_2f1, incomplete_beta,
                             log_gamma_real, pochhammer_negative,
                             quadratic_power_series, quadratic_roots)

_BASE = BetaBase(0.3, 2.5)


def _cli(*argv):
    """(exit code, what the one output line is): "error" for an error:
    line on stderr, else "real" or "complex" by the value printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    if err.getvalue():
        assert err.getvalue().startswith("error: ")
        return code, "error"
    return code, "complex" if "j" in out.getvalue().split()[0] else "real"


@pytest.mark.parametrize("call, outcome", [
    (lambda: BetaBase(0.0, 1.0), DomainError),
    (lambda: BetaBase(math.nan, 1.0), DomainError),
    (lambda: incomplete_beta(1.0, _BASE), complete_beta(_BASE)),
    (lambda: log_gamma_real(0.0), PoleError),
    (lambda: pochhammer_negative(2.0, 3), PoleError),
    # the polynomial 1 + (ab/c) z with a tiny c: b/c is 1
    (lambda: gauss_2f1(-1.0, 1e-305, 1e-305, 0.5), 0.5),
    (lambda: gauss_2f1(0.3, 0.2, 1.5, 0.9, PrecisionContext(5e-324, 5e-324)),
     DomainError),
    (lambda: find_root(lambda x: x, -1.0, math.inf), DomainError),
    (lambda: differentiate(lambda x: math.inf, 1.0), DomainError),
    # limits whose b - a is not finite, where the half-width is inf: the
    # nodes were nan, and the levels ran to the cap or, 2e308 apart, nan
    # came back with no error
    (lambda: integrate_finite(lambda t: 1.0, -math.inf, 1.0), DomainError),
    (lambda: integrate_finite(lambda t: 1.0, 0.0, math.inf), DomainError),
    (lambda: integrate_finite(lambda t: 1.0, -1e308, 1e308), DomainError),
    # a callback's raw error: ValueError, OverflowError, ZeroDivisionError
    (lambda: find_root(lambda x: math.log(x), -1.0, 2.0), DomainError),
    (lambda: newton_root(lambda x: (math.log(x), 1.0 / x), -1.0, 2.0, -1.0), DomainError),
    (lambda: sum_series(lambda n: 10.0 ** (400 * n), 0.5), DomainError),
    (lambda: sum_series(lambda n: 1.0 / (n - 3), 0.5), DomainError),
    (lambda: modular.surd_tail_integral(0.0), TAIL_TOTAL),
    (lambda: modular.surd_tail_integral(-1.0), DomainError),
    (lambda: modular.theta_of_X(0.0), DomainError),
    # a far series at inf would be 0, and theta's log of it a raw ValueError
    (lambda: modular.surd_tail_integral(math.inf), DomainError),
    (lambda: modular.surd_tail_integral(math.nan), DomainError),
    (lambda: modular.theta_of_X(math.inf), DomainError),
    (lambda: modular.theta_of_X(math.nan), DomainError),
    (lambda: modular.invert_lambda_j(1000.0), DomainError),
    (lambda: modular.pi_formula_partial_sum(1.0, 0), DomainError),
    (lambda: modular.klein_j_from_quarter_modulus(0.0, 1.0), DomainError),
    (lambda: modular.klein_j_from_lambda(0.0, 1.0), DomainError),
    (lambda: routes.rr_integral(0.0), DomainError),
    (lambda: routes.j_integral_quadrature(1.5), DomainError),
    # the surd integral to inf falls like t^(n-2): n >= 1 diverges
    (lambda: routes.quintic_surd_integral(1.0, 0.0, math.inf), DomainError),
    # the image integrand s^(-3) summed to a finite 6.3e200
    (lambda: routes.quintic_surd_integral(3.0, 0.0, math.inf), DomainError),
    (lambda: routes.quintic_surd_integral(math.nan, 0.0, math.inf), DomainError),
    # a nan hi was taken as inf, and a nan lo reached the image as a nan hi
    (lambda: routes.quintic_surd_integral(0.5, 0.0, math.nan), DomainError),
    (lambda: routes.quintic_surd_integral(0.5, math.nan, math.inf), DomainError),
    (lambda: elliptic_k_complementary(0.0), DomainError),
    (lambda: elliptic_k_complementary(1.5), DomainError),
    (lambda: quadratic_roots(0.0, 1.0, 1.0), DomainError),
    # a t^2 + b t + c with c = 0 has a root at 0
    (lambda: quadratic_power_series(0.0, 0.5, 1.0, 1.0, 0.0, 0.5), DomainError),
    (lambda: modular.arcsin_ratio_root(0.0), DomainError),
    (lambda: modular.arcsin_ratio_root(math.inf), DomainError),
    (lambda: routes.rr_integrand(0.0), DomainError),
    (lambda: routes.rr_integrand(0.7), DomainError),
    # the nome e^(-2 pi t) rounds to 1, where the product f(-q) is 0
    (lambda: dedekind_eta(1e-18), 0.0),
    (lambda: _cli("eval", "K", "1"), (1, "error")),
    (lambda: _cli("eval", "2f1", "0.5", "0.5", "1", "0.25+0i"), (0, "real")),
], ids=["BetaBase(0,1)", "BetaBase(nan,1)", "incomplete_beta(1)",
        "log_gamma_real(0)", "pochhammer_negative(2,3)", "gauss_2f1(tiny c)",
        "gauss_2f1(eps=5e-324)", "find_root(inf end)", "differentiate(inf)",
        "integrate_finite(-inf,1)", "integrate_finite(0,inf)",
        "integrate_finite(-1e308,1e308)",
        "find_root(log)", "newton_root(log)", "sum_series(overflow)",
        "sum_series(1/0)",
        "surd_tail_integral(0)", "surd_tail_integral(-1)", "theta_of_X(0)",
        "surd_tail_integral(inf)", "surd_tail_integral(nan)", "theta_of_X(inf)",
        "theta_of_X(nan)",
        "invert_lambda_j(1000)", "pi_formula_partial_sum(terms=0)",
        "klein_j_from_quarter_modulus(0)", "klein_j_from_lambda(0)",
        "rr_integral(0)", "j_integral_quadrature(1.5)",
        "quintic_surd_integral(n=1)", "quintic_surd_integral(n=3)",
        "quintic_surd_integral(n=nan)", "quintic_surd_integral(hi=nan)",
        "quintic_surd_integral(lo=nan)",
        "elliptic_k_complementary(0)", "elliptic_k_complementary(1.5)",
        "quadratic_roots(a=0)", "quadratic_power_series(root at 0)",
        "arcsin_ratio_root(0)", "arcsin_ratio_root(inf)", "rr_integrand(0)",
        "rr_integrand(0.7)", "dedekind_eta(1e-18)",
        "cli eval K 1", "cli eval 2f1 complex-typed real"])
def test_entry_contract(call, outcome):
    if isinstance(outcome, type):
        with pytest.raises(outcome):
            call()
    else:
        assert call() == outcome


# A 15-float sweep found each of these raising a raw error from inside.
@pytest.mark.parametrize("call", [
    lambda: modular.psi_arcsin_ratio(0.0),     # ZeroDivisionError
    lambda: modular.psi_arcsin_ratio(-1e-300),     # ValueError
    lambda: modular.psi_arcsin_ratio(2.0),
    lambda: modular.psi_arcsin_ratio(math.nan),    # passed through
    lambda: modular.j_integral_phi_printed(1.0),   # the display's (x - 1) pole
    # OverflowError from x^(8/3), or from big^(-1/6 - nu)
    lambda: modular.j_integral_f1_form(1e300),
    lambda: modular.j_integral_phi_printed(1e300),
    lambda: modular.j_integral_phi_printed(-1e300),
    lambda: modular.j_integral_phi_partial_fraction(1e300),
    lambda: modular.j_integral_phi_partial_fraction(-1e300),
    lambda: routes.weighted_power_rhs(-1e300, DEFAULT_CTX),
    lambda: routes.weighted_power_rhs(-300.3, DEFAULT_CTX),
], ids=["psi(0)", "psi(-1e-300)", "psi(2)", "psi(nan)", "phi_printed(1)",
        "f1_form(1e300)", "phi_printed(1e300)", "phi_printed(-1e300)",
        "phi_partial_fraction(1e300)", "phi_partial_fraction(-1e300)",
        "weighted_power_rhs(-1e300)", "weighted_power_rhs(-300.3)"])
def test_registry_helpers_raise_domain_errors(call):
    with pytest.raises(DomainError):
        call()


# Each engine that runs a caller's function, by a hook that the test makes
# raise at one place: hook(raises, value) returns value unless raises holds.
_ENGINES = {
    "sum_series": lambda hook: sum_series(lambda n: hook(n == 2, 0.5 ** n), 0.5),
    "find_root(bracket end)":
        lambda hook: find_root(lambda x: hook(True, x - 0.3), 0.0, 1.0),
    "find_root(iterate)":
        lambda hook: find_root(lambda x: hook(0.0 < x < 1.0, x - 0.3), 0.0, 1.0),
    "newton_root(x0)":
        lambda hook: newton_root(lambda x: hook(True, (x - 0.3, 1.0)), 0.0, 1.0, 0.5),
    # it evaluates 0.5, 0.125, ..., 5.4e-16, then closes on the end 0, which
    # it never evaluated, with one more evaluation at 3.0e-31
    "newton_root(closing)": lambda hook: newton_root(
        lambda x: hook(x < 1e-20, (x + x * x, 1.0 + 2.0 * x)), 0.0, 1.0, 0.5),
    "differentiate": lambda hook: differentiate(lambda x: hook(True, x * x), 1.0),
    "theorem6_base_change(grid)":
        lambda hook: modular.theorem6_base_change(lambda x: hook(True, x), 2.0),
    # the search evaluates the grid values again at its bracket ends
    "theorem6_base_change(search)": lambda hook: modular.theorem6_base_change(
        lambda x: hook(x not in modular._MONOTONE_GRID, x), 2.0),
}


@pytest.mark.parametrize("engine", _ENGINES)
@pytest.mark.parametrize("error", [DomainError("own"), PoleError("pole"),
                                   ConvergenceError("inner")],
                         ids=["DomainError", "PoleError", "ConvergenceError"])
def test_kernel_errors_from_a_callback_pass_through(engine, error):
    """A KernelError that a callback raises leaves the engine as the same
    object: only the raw errors of RAW_ERRORS become a DomainError."""
    def hook(raises, value):
        if raises:
            raise error
        return value
    with pytest.raises(type(error)) as err:
        _ENGINES[engine](hook)
    assert err.value is error


@pytest.mark.xfail(strict=True, reason="c - a = -1500 takes the Euler polynomial, "
                   "whose 1.99^-1500.3 underflows while F(-1500, 0.2; 0.5; -0.99) "
                   "overflows: the polynomial's inf is a DomainError")
def test_gauss_2f1_at_a_large_a():
    # mpmath: 0.0431765359160180251578469533749
    assert gauss_2f1(1500.5, 0.3, 0.5, -0.99) == pytest.approx(0.04317653591601802,
                                                               rel=1e-12)
