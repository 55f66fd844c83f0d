"""Command-line front door: run the verification registry, evaluate any
kernel at given arguments, or solve a sextic instance.

Exit codes: 0 success, 1 check/domain failures, 2 usage errors, each
reported as one line that begins "rrcflab: ".  JSON reports encode every
number as a decimal string so downstream consumers never re-round them.
Each command takes --eps, the relative-error target, which is the one way
to set the precision; a bad one is a usage error.

Each command imports only what it runs, on top of numerics, which this
module needs for the precision context:

- `eval NAME` the kernel module that defines NAME and the modules it
  imports: special and quadrature for K, 2f1, f1 and beta_inc; qseries
  alone for rrcf, f, eta and u; modular and every kernel for the rest;
- `solve-sextic` modular and routes, which holds the period-ratio
  cross-check, and not the registry;
- `verify` the registry (verify, report, routes) and with it every kernel.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import TYPE_CHECKING, Callable, NoReturn

import rrcflab   # its public names load their kernel module on first use

from .numerics import DEFAULT_CTX, DomainError, KernelError, PrecisionContext

if TYPE_CHECKING:
    from .report import CheckResult

_EPS_HELP = f"relative-error target (default {DEFAULT_CTX.eps_rel:g})"


def _fmt(value) -> str:
    if isinstance(value, complex):
        if value.imag == 0.0:
            return f"{value.real:.15g}"
        return f"{value.real:.15g}{value.imag:+.15g}i"
    return f"{value:.15g}"


def result_json_dict(result: CheckResult) -> dict[str, str]:
    """The stable report schema; numbers as decimal strings."""
    return {
        "id": result.id,
        "paper_ref": result.paper_ref,
        "lhs": _fmt(result.lhs),
        "rhs": _fmt(result.rhs),
        "residual_abs": _fmt(result.residual_abs),
        "residual_rel": _fmt(result.residual_rel),
        "judged": result.judged,
        "tolerance": _fmt(result.tolerance),
        "status": result.status,
        "notes": result.notes,
        "seconds": _fmt(result.seconds),
    }


def _usage_error(message: str) -> NoReturn:
    print(f"rrcflab: {message}", file=sys.stderr)
    raise SystemExit(2)


def _context_from(args) -> PrecisionContext:
    if args.eps is None:
        return DEFAULT_CTX
    try:
        return DEFAULT_CTX.replace(eps_rel=args.eps)
    except DomainError as exc:
        _usage_error(str(exc))


def _cmd_verify(args) -> int:
    from . import verify   # deliberate: load the registry only when it runs
    ctx = _context_from(args)
    report = verify.run_all(args.filter, ctx)
    if args.json:
        import json
        print(json.dumps([result_json_dict(r) for r in report.results], indent=2))
    else:
        for r in report.results:
            residual = r.residual_rel if r.judged == "rel" else r.residual_abs
            print(f"{r.status:8s} {r.id:26s} residual_{r.judged}={_fmt(residual):>12s} "
                  f"tol={_fmt(r.tolerance):>8s} [{r.seconds:.3f}s]")
        print(f"# {len(report.results)} checks: {report.passed} pass, "
              f"{report.failed} fail, {report.flagged} flagged "
              f"({report.seconds:.2f}s)")
    return 0 if report.ok() else 1


def _parse_number(text: str) -> complex | float:
    try:
        return float(text)
    except ValueError:
        pass
    try:
        return complex(text.replace("i", "j"))
    except ValueError:
        _usage_error(f"{text!r} is not a number")


# name: (arity, the public name called with the parsed arguments and the
# context, whether it takes complex arguments)
_EVAL: dict[str, tuple[int, Callable, bool]] = {
    "rrcf": (1, lambda q, ctx: rrcflab.rrcf(q), False),
    "f": (1, lambda q, ctx: rrcflab.ramanujan_f(q), False),
    "eta": (1, lambda tau, ctx: rrcflab.dedekind_eta(tau), False),
    "u": (1, lambda q, ctx: rrcflab.u_of_q(q), False),
    "K": (1, lambda k, ctx: rrcflab.elliptic_k(k), False),
    "k_r": (1, lambda r, ctx: rrcflab.singular_modulus(r), False),
    "j": (1, lambda r, ctx: rrcflab.klein_j(r), False),
    "2f1": (4, lambda *args: rrcflab.gauss_2f1(*args), True),
    "f1": (6, lambda *args: rrcflab.appell_f1(*args), True),
    "beta_inc": (3, lambda x, a, b, ctx: rrcflab.incomplete_beta(
        x, rrcflab.BetaBase(a, b)), False),
    "F": (1, lambda x, ctx: rrcflab.F_of_x(x, ctx), False),
    "m": (1, lambda x, ctx: rrcflab.m_of_x(x, ctx), False),
    "G": (1, lambda x, ctx: rrcflab.G_of_x(x, ctx), False),
    "beta_root": (3, lambda a, b, r, ctx: rrcflab.beta_ratio_root(
        rrcflab.BetaBase(a, b), r, ctx), False),
    "m65": (1, lambda R, ctx: rrcflab.trig_modular(R), False),
}


def _cmd_eval(args) -> int:
    ctx = _context_from(args)
    name = args.function
    if name not in _EVAL:
        _usage_error(f"unknown function {name!r}; choose from {', '.join(sorted(_EVAL))}")
    arity, kernel, takes_complex = _EVAL[name]
    if len(args.args) != arity:
        _usage_error(f"{name} takes {arity} argument(s), got {len(args.args)}")
    vals = [_parse_number(a) for a in args.args]
    if any(isinstance(v, complex) for v in vals) and not takes_complex:
        _usage_error(f"{name} takes real arguments")
    try:
        value = kernel(*vals, ctx)
    except (KernelError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    tol = ctx.eps_rel * abs(complex(value))   # the target, not an estimate
    print(f"{_fmt(value)} (tol {tol:.2g})")
    return 0


def _cmd_solve_sextic(args) -> int:
    from . import modular, routes   # path B, not the registry
    ctx = _context_from(args)
    if args.a == 0.0 or args.b == 0.0:
        _usage_error("a and b must be nonzero in b^2/(20a) + bX + aX^2 = C1 X^(5/3)")
    try:
        inst = modular.SexticInstance(args.a, args.b, args.c1)
        sol = modular.solve_sextic(inst, ctx)
        r, x_alt = routes.sextic_period_ratio_root(inst, sol.t)
    except DomainError as exc:
        print(f"error: {exc} (equation (36): b^2/(20a) + bX + aX^2 "
              f"= C1 X^(5/3))", file=sys.stderr)
        return 1
    except KernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"X        = {_fmt(sol.x)}")
    print(f"t        = {_fmt(sol.t)}")
    print(f"r        = {_fmt(r)}")
    print(f"k4r      = {_fmt(math.sqrt(sol.t))}")
    print(f"X_alt    = {_fmt(x_alt)}  (eta-quotient path)")
    print(f"residual = {_fmt(sol.residual)}")
    print(f"delta    = {_fmt(abs(sol.x - x_alt))}  (cross-path)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrcflab",
        description="Evaluate and verify continued-fraction, eta-product and "
                    "singular-value identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run registered checks")
    p_verify.add_argument("--filter", default=None, metavar="GLOB",
                          help="run only check ids matching this glob")
    p_verify.add_argument("--json", action="store_true",
                          help="emit the JSON report")
    p_verify.add_argument("--eps", type=float, default=None, help=_EPS_HELP)
    p_verify.set_defaults(func=_cmd_verify)

    p_eval = sub.add_parser("eval", help="evaluate one kernel")
    p_eval.add_argument("function", help=f"one of {', '.join(sorted(_EVAL))}")
    p_eval.add_argument("args", nargs="*", help="numeric arguments")
    p_eval.add_argument("--eps", type=float, default=None, help=_EPS_HELP)
    p_eval.set_defaults(func=_cmd_eval)

    p_solve = sub.add_parser("solve-sextic",
                             help="solve b^2/(20a) + bX + aX^2 = C1 X^(5/3)")
    p_solve.add_argument("a", type=float)
    p_solve.add_argument("b", type=float)
    p_solve.add_argument("c1", type=float)
    p_solve.add_argument("--eps", type=float, default=None, help=_EPS_HELP)
    p_solve.set_defaults(func=_cmd_solve_sextic)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
