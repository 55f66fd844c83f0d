"""The three workloads as seeded operation lists.

An operation names one public rrcflab function, its arguments and a check.
The check maps the returned value to an error ratio: the error against an
independent reference divided by the operation's tolerance, so a ratio
above 1 is a miss.  Lists are built, and kernel references computed, before
any timing starts; the same workload and seed give the same list.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

from rrcflab import modular, verify
from rrcflab.special import BetaBase

from . import oracle

# Ten times the library's default linear tolerance (eps_rel 1e-12, eps_abs
# 1e-15): every kernel promises that budget on each of its sub-steps, and a
# composed result may spend a few of them.
REL_TOL = 1e-11
ABS_TOL = 1e-14

# The registry's seed outcome: 62 checks pass and these five are flagged on
# purpose, as readings of the paper that the numerics contradict.
FLAGGED_CHECKS = frozenset({"Eq17_18.nu=0.5", "Eq20.sign.r=4", "Eq50.x1",
                            "Eq51.phi.x=0.5", "T7.msign"})

# op_p90_ms is a percentile over the list: with 36 calls per function it
# spread 8% from seed to seed, with 72 it spread 4-6%.
KERNELS_PER_FUNCTION = 72
# Appell F1 costs up to a thousand times any other kernel per call, and
# whether a point needs more than 170 series terms (and overflows) turns on
# its parameters.  A seeded set moved the kernels pass time by 23-41% from
# seed to seed, so its points form one fixed panel, the same for every seed.
APPELL_COUNT = 12
INVERSIONS_PER_FUNCTION = 16

# The smallest and largest magnitudes a result may have for its input to
# count as valid: outside them the float answer is subnormal or overflows.
_NORMAL_RANGE = (1e-300, 1e300)


@dataclass(frozen=True)
class Op:
    target: str                   # "module.function" inside rrcflab
    args: tuple
    check: Callable[[Any], float] | None = None   # None: judged by status

    def key(self) -> tuple:
        return (self.target, self.args)


def _tolerance(scale) -> float:
    return REL_TOL * float(abs(scale)) + ABS_TOL


def _against(ref) -> Callable[[Any], float]:
    """Error ratio of a value against a fixed mpmath reference."""
    ref_c = complex(ref)
    tol = _tolerance(ref)

    def check(value) -> float:
        return abs(complex(value) - ref_c) / tol
    return check


def _residual(target: float, evaluate: Callable[[Any], Any]) -> Callable[[Any], float]:
    """Error ratio of a defining equation lhs(value) = target."""
    tol = _tolerance(target)

    def check(value) -> float:
        return float(abs(evaluate(value) - target)) / tol
    return check


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# registry

def registry_ops(seed: int) -> list[Op]:
    """verify.run_check on every id, in id order; the seed does not enter."""
    del seed
    return [Op("verify.run_check", (cid,)) for cid in verify.check_ids()]


def registry_check(judged_relative: dict[str, bool]):
    """Judged residual / tolerance for a CheckResult, with the judged side
    read from how the check called report.compare."""
    def check(result) -> float:
        relative = judged_relative.get(result.id, True)
        residual = result.residual_rel if relative else result.residual_abs
        return residual / result.tolerance
    return check


def registry_status_ok(result) -> bool:
    expected = "flagged" if result.id in FLAGGED_CHECKS else "pass"
    return result.status == expected


# ---------------------------------------------------------------------------
# kernels and inversions

def _strata(rng: random.Random, n: int) -> list[float]:
    """n uniforms in (0, 1), one from each of n equal strata, shuffled: the
    same distribution as n independent draws, with less spread in what a
    whole list costs from one seed to the next."""
    u = [(k + rng.random()) / n for k in range(n)]
    rng.shuffle(u)
    return [min(max(v, 1e-12), 1.0 - 1e-12) for v in u]


def _interleave(groups: list[list[Op]]) -> list[Op]:
    """Merge the per-function lists evenly, so no stretch of a pass runs
    one function only."""
    keyed = [((i + 0.5) / len(group), g, op) for g, group in enumerate(groups)
             for i, op in enumerate(group)]
    return [op for _, _, op in sorted(keyed, key=lambda k: k[:2])]


def _build(rng: random.Random, specs: dict, checker) -> list[list[Op]]:
    """specs: label -> (count, draw(u) -> args); the label's part before
    ':' is the target.  checker(target, args) gives the op's check, or None
    when the input is invalid; an invalid input is redrawn uniformly."""
    groups = []
    for label, (count, draw) in specs.items():
        target = label.split(":")[0]
        group = []
        for u in _strata(rng, count):
            args = draw(u)
            check = checker(target, args)
            while check is None:
                args = draw(rng.uniform(1e-12, 1.0 - 1e-12))
                check = checker(target, args)
            group.append(Op(target, args, check))
        groups.append(group)
    return groups


def _kernel_specs(rng: random.Random) -> dict:
    """Draws over each kernel's whole declared domain; u selects the
    argument that sets a call's cost and branch."""
    def param() -> float:
        return rng.uniform(-3.0, 3.0)

    def log_scale(u: float, lo: float, hi: float) -> float:
        return lo * (hi / lo) ** u

    n = KERNELS_PER_FUNCTION
    return {
        "qseries.rrcf": (n, lambda u: (u,)),
        "qseries.dedekind_eta": (n, lambda u: (log_scale(u, 0.01, 100.0),)),
        "qseries.u_of_q": (n, lambda u: (u,)),
        "qseries.ramanujan_f": (n, lambda u: (u,)),
        "special.gamma:real": (n // 2, lambda u: (-20.0 + 60.0 * u,)),
        "special.gamma:complex": (n // 2, lambda u: (
            complex(-20.0 + 60.0 * u, rng.uniform(-20.0, 20.0)),)),
        "special.gauss_2f1:real": (n, lambda u: (
            param(), param(), _lower_param(rng), 0.99 * (2.0 * u - 1.0))),
        "special.gauss_2f1:complex": (n, lambda u: (
            param(), param(), _lower_param(rng),
            cmath.rect(0.99 * math.sqrt(u), rng.uniform(-math.pi, math.pi)))),
        "special.incomplete_beta": (n, lambda u: (u, BetaBase(
            log_scale(rng.random(), 0.1, 10.0), log_scale(rng.random(), 0.1, 10.0)))),
        "special.elliptic_k": (n, lambda u: (u,)),
        "modular.singular_modulus": (n, lambda u: (log_scale(u, 0.01, 100.0),)),
        "modular.klein_j": (n, lambda u: (log_scale(u, 0.01, 100.0),)),
    }


def _lower_param(rng: random.Random) -> float:
    """A 2F1 / F1 parameter c; the non-positive integers are outside the
    domain."""
    while True:
        c = rng.uniform(-3.0, 3.0)
        if c > 0.0 or abs(c - round(c)) > 1e-9:
            return c


def _appell_draw(rng: random.Random) -> Callable[[float], tuple]:
    def draw(u: float) -> tuple:
        # max(|x|, |y|) of a uniform point of the square has CDF (rho/0.95)^2
        rho = 0.95 * math.sqrt(u)
        pair = [rng.choice((-1.0, 1.0)) * rho, rng.uniform(-rho, rho)]
        rng.shuffle(pair)
        return (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0),
                rng.uniform(-3.0, 3.0), _lower_param(rng), *pair)
    return draw


def _kernel_check(target: str, args: tuple):
    name = target.split(".")[1]
    if name == "incomplete_beta":
        x, base = args
        ref = oracle.incomplete_beta(x, base.a, base.b)
    else:
        ref = getattr(oracle, name)(*args)
    if not _NORMAL_RANGE[0] <= abs(ref) <= _NORMAL_RANGE[1]:
        return None
    return _against(ref)


def kernels_ops(seed: int) -> list[Op]:
    """Direct kernel calls, each checked against an mpmath reference
    computed here, before any timing."""
    rng = _rng("kernels", seed)
    panel = random.Random("kernels:appell-panel")
    appell = {"special.appell_f1": (APPELL_COUNT, _appell_draw(panel))}
    return _interleave(_build(rng, _kernel_specs(rng), _kernel_check)
                       + _build(panel, appell, _kernel_check))


def _sextic_check(inst: modular.SexticInstance) -> Callable[[Any], float]:
    def check(sol) -> float:
        return inst.residual(sol.x) / REL_TOL
    return check


def inversions_ops(seed: int) -> list[Op]:
    """Seeded arguments across each inverse's declared domain, checked by
    re-evaluating the defining equation in mpmath at the returned value."""
    rng = _rng("inversions", seed)
    f_max = float(oracle.surd_tail_max())
    m_max = float(oracle.eta_tail_max())
    surd = BetaBase(1.0 / 6.0, 2.0 / 3.0)

    def theta_check(big_x: float):
        return _residual(float(oracle.theta_target(big_x)),
                         lambda b: oracle.incomplete_beta(b, surd.a, surd.b))

    def sextic(u: float) -> tuple:
        j = 1728.0 + 10.0 ** (-1.0 + 8.0 * u)
        a, b = rng.uniform(0.5, 2.0), rng.uniform(1.0, 300.0)
        return (modular.SexticInstance(a, b, (j * a * a * b / 250.0) ** (1.0 / 3.0)),)

    checks = {
        "modular.F_of_x": lambda x: _residual(x, oracle.rr_integral),
        "modular.m_of_x": lambda x: _residual(x, oracle.m_equation),
        "modular.G_of_x": lambda x: _residual(x, lambda g: oracle.surd_tail(g) / 5),
        "modular.theta_of_X": theta_check,
        "modular.beta_ratio_root": lambda base, r: _residual(
            r, lambda x: oracle.beta_ratio(x, base.a, base.b)),
        "modular.solve_sextic": _sextic_check,
    }
    n = INVERSIONS_PER_FUNCTION
    specs = {
        "modular.F_of_x": (n, lambda u: (f_max * u,)),
        "modular.m_of_x": (n, lambda u: (m_max * u,)),
        "modular.G_of_x": (n, lambda u: (f_max * u,)),
        "modular.theta_of_X": (n, lambda u: (1e-3 * 1e9 ** u,)),
        "modular.beta_ratio_root": (n, lambda u: (BetaBase(
            0.15 * 20.0 ** rng.random(), 0.15 * 20.0 ** rng.random()), 0.1 * 100.0 ** u)),
        "modular.solve_sextic": (n, sextic),
    }
    return _interleave(_build(rng, specs, lambda target, args: checks[target](*args)))


WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "registry": registry_ops,
    "inversions": inversions_ops,
    "kernels": kernels_ops,
}
