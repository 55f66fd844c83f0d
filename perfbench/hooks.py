"""Hooks the benchmark installs into rrcflab from outside: cache discovery,
function replacement in every module namespace, and the tracing wrappers
that give the per-layer metrics.

rrcflab modules import each other's functions by name (modular does
``from .quadrature import integrate_finite``), so a function is replaced in
every rrcflab namespace that bound it, and restored the same way.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable

# The layers in import order, and the public functions timed in each.
LAYERS: dict[str, tuple[str, ...]] = {
    "numerics": ("find_root", "expand_bracket", "sum_series", "differentiate"),
    "quadrature": ("integrate_finite", "integrate_complex"),
    "special": ("gauss_2f1", "appell_f1", "incomplete_beta", "gamma", "elliptic_k"),
    "qseries": ("rrcf", "dedekind_eta", "u_of_q", "ramanujan_f",
                "eta_quarter_integrand"),
    "modular": ("F_of_x", "m_of_x", "G_of_x", "theta_of_X", "beta_ratio_root",
                "solve_sextic", "klein_j", "singular_modulus",
                "eta_quotient_nome_of"),
    "verify": ("run_check",),
}

# Functions whose first argument is a callable the layer evaluates; the
# wrapper counts those evaluations under this name.
CALLABLE_COUNTS = {
    "numerics.find_root": "f_evals",
    "numerics.expand_bracket": "f_evals",
    "numerics.sum_series": "terms",
    "quadrature.integrate_finite": "integrand_evals",
}


def _q_branch(q) -> bool:
    return float(getattr(q, "q", q)) > 0.7


def _disk_edge(args) -> bool:
    return 0.8 < abs(complex(args[3])) < 1.0


# Input-selected branches, judged on the arguments of a traced call: the
# modular inversion in _log_qpochhammer (q > 0.7), the Euler-transformed 2F1
# band, complex 2F1 inputs, the slow corner of the Appell series, and the
# reciprocal-index swap of the singular moduli.
BRANCHES: dict[str, tuple[tuple[str, Callable[[tuple], bool]], ...]] = {
    "q_gt_0.7": (("qseries.rrcf", lambda a: _q_branch(a[0])),
                 ("qseries.u_of_q", lambda a: _q_branch(a[0])),
                 ("qseries.ramanujan_f", lambda a: _q_branch(a[0]))),
    "z_0.8_1": (("special.gauss_2f1", _disk_edge),),
    "complex_2f1": (("special.gauss_2f1",
                     lambda a: any(isinstance(v, complex) for v in a[:4])),),
    "xy_gt_0.8": (("special.appell_f1",
                   lambda a: max(abs(complex(a[4])), abs(complex(a[5]))) > 0.8),),
    "r_lt_1": (("modular.singular_modulus", lambda a: a[0] < 1.0),
               ("modular.klein_j", lambda a: a[0] < 1.0),
               ("modular.beta_ratio_root", lambda a: a[1] < 1.0)),
    "r_ge_1": (("modular.singular_modulus", lambda a: a[0] >= 1.0),
               ("modular.klein_j", lambda a: a[0] >= 1.0),
               ("modular.beta_ratio_root", lambda a: a[1] >= 1.0)),
}


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "rrcflab" or name.startswith("rrcflab."))]


def module(layer: str):
    return sys.modules[f"rrcflab.{layer}"]


def resolve(target: str) -> Callable:
    layer, name = target.split(".")
    return getattr(module(layer), name)


def package_caches() -> list:
    """Every callable with cache_clear bound at module level in rrcflab,
    found by discovery so a cache added later is cleared too."""
    seen: dict[int, object] = {}
    for mod in package_modules():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)) and \
                    callable(getattr(value, "cache_info", None)):
                seen.setdefault(id(value), value)
    return list(seen.values())


def clear_caches(caches) -> None:
    for cache in caches:
        cache.cache_clear()


@contextmanager
def replaced(replacements: dict[int, tuple[Callable, Callable]]):
    """Swap each original function (keyed by id) for its replacement in
    every rrcflab namespace that holds it; restore on exit."""
    undo = []
    try:
        for mod in package_modules():
            for attr, value in list(vars(mod).items()):
                pair = replacements.get(id(value))
                if pair is not None and value is pair[0]:
                    setattr(mod, attr, pair[1])
                    undo.append((mod, attr, value))
        yield
    finally:
        for mod, attr, value in reversed(undo):
            setattr(mod, attr, value)


class Tracer:
    """Spans [name, start, end, parent, operation] and counts for one pass,
    kept in memory; self time is a span's duration minus its children's.

    A callable handed to a layer (an integrand, a series term, a root
    bracket's function) is code of the caller, so each evaluation is a
    child span under the caller's name: quadrature's self time is then the
    rule itself, and the integrand's time counts for the layer that wrote
    it.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self.paused = False     # when set, wrappers call straight through
        self.op_branches: dict[str, set[int]] = defaultdict(set)

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.op_id]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counter = CALLABLE_COUNTS.get(name)
        branches = [(branch, test) for branch, rules in BRANCHES.items()
                    for target, test in rules if target == name]
        stack, counts, clock = self.stack, self.counts, time.perf_counter

        def counted(inner: Callable, key: str, owner: str) -> Callable:
            def evaluate(*args):
                counts[key] += 1
                span = self._open(owner)
                span[1] = clock()
                try:
                    return inner(*args)
                finally:
                    span[2] = clock()
                    stack.pop()
            return evaluate

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            counts[f"{name}.calls"] += 1
            for branch, test in branches:
                if test(args):
                    self.op_branches[branch].add(self.op_id)
            if counter is not None:
                owner = self.spans[stack[-1]][0] if stack else "caller"
                args = (counted(args[0], f"{name}.{counter}", owner),) + args[1:]
            span = self._open(name)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                counts[f"{name}.errors"] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        replacements = {}
        for layer, names in LAYERS.items():
            for name in names:
                fn = getattr(module(layer), name)
                replacements[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        with replaced(replacements):
            yield self

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out


def judged_sides() -> tuple[dict[str, bool], Callable]:
    """A spy on report.compare recording, per check id, whether the check
    judged its relative residual (True) or its absolute one (False).
    Returns the record and a context manager that installs the spy."""
    judged: dict[str, bool] = {}
    compare = module("report").compare
    signature = inspect.signature(compare)

    def spy(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        judged[bound.arguments["check_id"]] = bound.arguments["relative"]
        return compare(*args, **kwargs)
    return judged, lambda: replaced({id(compare): (compare, spy)})
