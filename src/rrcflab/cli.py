"""Command-line front door: run the verification registry, evaluate any
kernel at given arguments, or solve a sextic instance.

Exit codes: 0 success, 1 check/domain failures, 2 usage errors.  JSON
reports encode every number as a decimal string so downstream consumers
never re-round them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import modular, qseries, special, verify
from .numerics import DEFAULT_CTX, DomainError, KernelError, PrecisionContext
from .report import CheckResult
from .special import BetaBase

ENV_EPS = "RRCF_EPS"


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
        "tolerance": _fmt(result.tolerance),
        "status": result.status,
        "notes": result.notes,
        "seconds": _fmt(result.seconds),
    }


def _context_from(args) -> PrecisionContext:
    eps = getattr(args, "eps", None)
    if eps is None:
        env = os.environ.get(ENV_EPS)
        if env:
            try:
                eps = float(env)
            except ValueError:
                raise SystemExit(f"invalid {ENV_EPS}={env!r}")
    ctx = DEFAULT_CTX
    if eps is not None:
        ctx = ctx.with_eps(eps)
    max_terms = getattr(args, "max_terms", None)
    if max_terms is not None:
        ctx = PrecisionContext(eps_rel=ctx.eps_rel, eps_abs=ctx.eps_abs,
                               max_series_terms=max_terms,
                               max_quad_levels=ctx.max_quad_levels,
                               max_root_iters=ctx.max_root_iters,
                               fd_step=ctx.fd_step)
    return ctx


def _cmd_verify(args) -> int:
    ctx = _context_from(args)
    report = verify.run_all(args.filter, ctx)
    if args.json:
        print(json.dumps([result_json_dict(r) for r in report.results], indent=2))
    else:
        for r in report.results:
            print(f"{r.status:8s} {r.id:26s} residual_rel={_fmt(r.residual_rel):>12s} "
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
        raise SystemExit(2)


_EVAL_ARITY = {
    "rrcf": 1, "f": 1, "eta": 1, "u": 1, "K": 1, "k_r": 1, "j": 1,
    "2f1": 4, "f1": 6, "beta_inc": 3, "F": 1, "m": 1, "G": 1,
    "beta_root": 3, "m65": 1,
}


def _evaluate(name: str, vals: list, ctx: PrecisionContext):
    if name == "rrcf":
        return qseries.rrcf(vals[0])
    if name == "f":
        return qseries.ramanujan_f(vals[0])
    if name == "eta":
        return qseries.dedekind_eta(vals[0])
    if name == "u":
        return qseries.u_of_q(vals[0])
    if name == "K":
        return special.elliptic_k(vals[0])
    if name == "k_r":
        return modular.singular_modulus(vals[0], ctx)
    if name == "j":
        return modular.klein_j(vals[0], ctx)
    if name == "2f1":
        return special.gauss_2f1(*vals, ctx)
    if name == "f1":
        return special.appell_f1(*vals, ctx)
    if name == "beta_inc":
        return special.incomplete_beta(vals[0], BetaBase(vals[1], vals[2]), ctx)
    if name == "F":
        return modular.F_of_x(vals[0], ctx)
    if name == "m":
        return modular.m_of_x(vals[0], ctx)
    if name == "G":
        return modular.G_of_x(vals[0], ctx)
    if name == "beta_root":
        return modular.beta_ratio_root(BetaBase(vals[0], vals[1]), vals[2], ctx)
    if name == "m65":
        return modular.trig_modular(vals[0])
    raise AssertionError(name)


def _cmd_eval(args) -> int:
    ctx = _context_from(args)
    name = args.function
    if name not in _EVAL_ARITY:
        print(f"unknown function {name!r}; choose from "
              f"{', '.join(sorted(_EVAL_ARITY))}", file=sys.stderr)
        return 2
    if len(args.args) != _EVAL_ARITY[name]:
        print(f"{name} takes {_EVAL_ARITY[name]} argument(s), "
              f"got {len(args.args)}", file=sys.stderr)
        return 2
    vals = [_parse_number(a) for a in args.args]
    if any(isinstance(v, complex) for v in vals) and name not in ("2f1", "f1"):
        print(f"{name} takes real arguments", file=sys.stderr)
        return 2
    try:
        value = _evaluate(name, vals, ctx)
    except (KernelError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    err = ctx.eps_rel * abs(complex(value))
    print(f"{_fmt(value)} (est err {err:.2g})")
    return 0


def _cmd_solve_sextic(args) -> int:
    ctx = _context_from(args)
    if args.a == 0.0 or args.b == 0.0:
        print("usage: a and b must be nonzero in "
              "b^2/(20a) + bX + aX^2 = C1 X^(5/3)", file=sys.stderr)
        return 2
    try:
        inst = modular.SexticInstance(args.a, args.b, args.c1)
        sol = modular.solve_sextic(inst, ctx)
    except DomainError as exc:
        print(f"error: {exc} (equation (36): b^2/(20a) + bX + aX^2 "
              f"= C1 X^(5/3))", file=sys.stderr)
        return 1
    except KernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"X        = {_fmt(sol.x)}")
    print(f"t        = {_fmt(sol.t)}")
    print(f"r        = {_fmt(sol.r)}")
    print(f"k4r      = {_fmt(sol.k4r)}")
    print(f"X_alt    = {_fmt(sol.x_alt)}  (eta-quotient path)")
    print(f"residual = {_fmt(sol.residual)}")
    print(f"delta    = {_fmt(abs(sol.x - sol.x_alt))}  (cross-path)")
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
    p_verify.add_argument("--eps", type=float, default=None,
                          help="relative-error target override")
    p_verify.add_argument("--max-terms", type=int, default=None,
                          dest="max_terms", help="series term cap override")
    p_verify.set_defaults(func=_cmd_verify)

    p_eval = sub.add_parser("eval", help="evaluate one kernel")
    p_eval.add_argument("function", help=f"one of {', '.join(sorted(_EVAL_ARITY))}")
    p_eval.add_argument("args", nargs="*", help="numeric arguments")
    p_eval.add_argument("--eps", type=float, default=None)
    p_eval.add_argument("--max-terms", type=int, default=None, dest="max_terms")
    p_eval.set_defaults(func=_cmd_eval)

    p_solve = sub.add_parser("solve-sextic",
                             help="solve b^2/(20a) + bX + aX^2 = C1 X^(5/3)")
    p_solve.add_argument("a", type=float)
    p_solve.add_argument("b", type=float)
    p_solve.add_argument("c1", type=float)
    p_solve.add_argument("--eps", type=float, default=None)
    p_solve.set_defaults(func=_cmd_solve_sextic)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
