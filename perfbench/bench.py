"""Measurement loops: one process, one thread, a closed loop with a single
caller that issues the next operation when the previous one returns.

A cold pass clears every rrcflab cache before each operation, which is what
one CLI invocation pays; a warm pass keeps the caches from the pass before,
as a library session would.  Only the call itself is inside a timed
interval; cache clearing, result checks and bookkeeping are not.

Other tenants of the machine slow it down by up to 1.8x, in spells of a
fraction of a second to minutes.  So a yardstick, a fixed piece of Python
float work that calls no rrcflab code, is timed after every operation and
around every import, and each time is reported at the reference speed: its
wall time divided by the slowdown the yardsticks beside it saw.  Short
operations also depend on how much of the processor's cache other tenants
leave them, which the yardstick does not see, so each timed call follows an
untimed call of the same operation.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from rrcflab.report import CheckResult

from . import hooks, ops as opsmod

ROOT = Path(__file__).resolve().parent.parent
CHUNKS = 6                # alternating cold and warm stretches per run
YARDSTICK_S = 3.0e-4      # the yardstick's wall time at the reference speed
IMPORT_YARDSTICKS = 100   # yardsticks timed before and after each import
TRACED_SHARE = 0.6        # of --seconds, for the traced run's cold passes

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("warm_pass_s", "s"),
              ("op_p50_ms", "ms"), ("op_p90_ms", "ms"), ("ok_ratio", "ratio"))


def _layer_metrics() -> list[tuple[str, str]]:
    out = [("numerics.find_root.calls", "count"),
           ("numerics.find_root.f_evals", "count"),
           ("numerics.find_root.self_s", "s"),
           ("numerics.expand_bracket.f_evals", "count"),
           ("numerics.sum_series.calls", "count"),
           ("numerics.sum_series.terms", "count"),
           ("numerics.sum_series.self_s", "s"),
           ("numerics.differentiate.calls", "count"),
           ("quadrature.integrate_finite.calls", "count"),
           ("quadrature.integrate_finite.integrand_evals", "count"),
           ("quadrature.integrate_finite.evals_per_call", "evals/call"),
           ("quadrature.integrate_finite.self_s", "s"),
           ("quadrature.integrate_complex.calls", "count"),
           ("quadrature.errors", "count")]
    for layer in ("special", "qseries", "modular"):
        for name in hooks.LAYERS[layer]:
            out += [(f"{layer}.{name}.calls", "count"), (f"{layer}.{name}.self_s", "s")]
        if layer != "special":
            out.append((f"{layer}.cache_hit_ratio", "ratio"))
    out += [("verify.run_check.self_s", "s"), ("check.worst_err_ratio", "ratio"),
            ("trace.overhead_ratio", "ratio")]
    out += [(f"branch.{b}.share", "ratio") for b in hooks.BRANCHES]
    return out


PER_LAYER = tuple(_layer_metrics())


@dataclass
class Outcome:
    """What one operation produced, and how it fared against its check."""
    value: Any = None
    error: BaseException | None = None
    ratio: float | None = None      # error / tolerance; None when it raised
    failed: bool = False

    def same_as(self, other: "Outcome") -> bool:
        if self.error is not None or other.error is not None:
            return (type(self.error), str(self.error)) == (type(other.error), str(other.error))
        # repr: exact for floats, and a nan result still equals itself
        return repr(_comparable(self.value)) == repr(_comparable(other.value))


def _comparable(value):
    # run_check stamps the elapsed seconds into its result
    return replace(value, seconds=0.0) if isinstance(value, CheckResult) else value


def _finite(value) -> bool:
    if isinstance(value, (int, float, complex)):
        z = complex(value)
        return math.isfinite(z.real) and math.isfinite(z.imag)
    return True


class Workload:
    """A seeded operation list plus the verdict on each operation's result."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.ops = opsmod.WORKLOADS[name](seed)
        self.caches = hooks.package_caches()
        self.judged: dict[str, bool] = {}
        self.trusted = True
        self.reference = self._reference_pass()
        self.rechecked: list[Outcome] = []
        self.failed_ops = {i for i, o in enumerate(self.reference) if o.failed}

    @property
    def attempted(self) -> int:
        """Operations in the list, each counted once however often it ran,
        so the count depends on the seed alone, not on the run's length."""
        return len(self.ops)

    @property
    def failed(self) -> int:
        """Operations that raised or missed their check in any execution."""
        return len(self.failed_ops)

    def bound_calls(self) -> list:
        """The functions to call, looked up now so a pass sees whatever
        the namespaces hold (tracing wrappers included)."""
        return [(hooks.resolve(op.target), op.args) for op in self.ops]

    def _reference_pass(self) -> list[Outcome]:
        """One untimed cold pass whose results are checked in full; timed
        passes are then compared with it."""
        judged, spy = hooks.judged_sides()
        outcomes = []
        with spy():
            for fn, args in self.bound_calls():
                hooks.clear_caches(self.caches)
                try:
                    outcomes.append(Outcome(value=fn(*args)))
                except Exception as exc:   # counted as a failure, never fatal
                    outcomes.append(Outcome(error=exc))
        self.judged = judged
        return [self.judge(i, o) for i, o in enumerate(outcomes)]

    def judge(self, index: int, outcome: Outcome) -> Outcome:
        """Set the outcome's error ratio and verdict.  In the registry a
        changed status also makes the run incorrect; elsewhere failures are
        counted, since known defects fail at the seed."""
        if outcome.error is not None:
            outcome.failed = True
            if self.name == "registry":
                self.trusted = False
            return outcome
        value = outcome.value
        if self.name == "registry":
            # a flagged check's residual measures a misprint, not accuracy
            if value.status == "pass":
                outcome.ratio = opsmod.registry_check(self.judged)(value)
            outcome.failed = not opsmod.registry_status_ok(value)
            self.trusted &= not outcome.failed
            return outcome
        # solve_sextic returns a SexticSolution whose root is .x
        finite = _finite(value) and _finite(getattr(value, "x", 0.0))
        outcome.ratio = self.ops[index].check(value) if finite else math.inf
        outcome.failed = not outcome.ratio <= 1.0
        return outcome

    def tally(self, index: int, outcome: Outcome) -> None:
        """Check one timed execution.  It must reproduce the checked first
        pass; one that does not is checked in its own right and makes the
        run incorrect."""
        if outcome.same_as(self.reference[index]):
            return
        self.trusted = False
        outcome = self.judge(index, outcome)
        self.rechecked.append(outcome)
        if outcome.failed:
            self.failed_ops.add(index)

    def worst_err_ratio(self) -> float:
        ratios = [o.ratio for o in self.reference + self.rechecked
                  if not o.failed and o.ratio is not None]
        return max(ratios) if ratios else math.nan


def yardstick() -> float:
    """A tanh-sinh sum of a smooth integrand in plain Python floats: the
    kind of work rrcflab's hot paths do, in code no change to rrcflab can
    reach.  Its wall time tells how fast the machine runs at the moment."""
    total, h = 0.0, 1.0 / 200
    for k in range(-400, 401):
        t = k * h
        u = 0.5 * math.pi * math.sinh(t)
        x = math.tanh(u)
        weight = 0.5 * math.pi * math.cosh(t) / math.cosh(u) ** 2
        total += weight * math.exp(-x * x) / (1.0 + x * x)
    return total


@dataclass
class Pass:
    """One run of the list: each operation's wall time, and the wall time
    of the yardstick run just after it."""
    durations: list[float]
    yardsticks: list[float]

    @property
    def slowdown(self) -> float:
        """How much slower than the reference speed the machine ran."""
        return sum(self.yardsticks) / (len(self.yardsticks) * YARDSTICK_S)

    @property
    def wall_s(self) -> float:
        return sum(self.durations)

    @property
    def seconds(self) -> float:
        """The pass's time at the reference speed."""
        return self.wall_s / self.slowdown

    def op_seconds(self, index: int) -> float:
        """An operation's time at the reference speed, by the slowdown of
        the yardstick just after it."""
        return self.durations[index] * YARDSTICK_S / self.yardsticks[index]


def timed_pass(work: Workload, cold: bool, tracer: hooks.Tracer | None = None) -> Pass:
    """Run the list once.  Each operation is called twice: first untimed,
    so that the processor's caches hold its code and data whatever other
    tenants did to them, then timed, followed by a timed yardstick.  A cold
    pass clears the rrcflab caches before both calls; a tracer records the
    timed call only."""
    clock = time.perf_counter
    durations, yardsticks = [], []
    for i, (fn, args) in enumerate(work.bound_calls()):
        if tracer is not None:
            tracer.op_id = i
        for timed in (False, True):
            if cold:
                hooks.clear_caches(work.caches)
            if tracer is not None:
                tracer.paused = not timed
            start = clock()
            try:
                value, error = fn(*args), None
            except Exception as exc:   # counted as a failure by tally
                value, error = None, exc
            stop = clock()
            work.tally(i, Outcome(value=value, error=error))
        durations.append(stop - start)
        start = clock()
        yardstick()
        yardsticks.append(clock() - start)
    return Pass(durations, yardsticks)


def _yardsticks_s(count: int) -> float:
    start = time.perf_counter()
    for _ in range(count):
        yardstick()
    return time.perf_counter() - start


def import_seconds() -> tuple[float, float]:
    """Wall time of a fresh interpreter importing rrcflab, and the slowdown
    the yardsticks just before and after it saw."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    before = _yardsticks_s(IMPORT_YARDSTICKS)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import rrcflab"], env=env, cwd=ROOT, check=True)
    wall = time.perf_counter() - start
    after = _yardsticks_s(IMPORT_YARDSTICKS)
    return wall, (before + after) / (2 * IMPORT_YARDSTICKS * YARDSTICK_S)


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(work: Workload, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics, untraced.  Returns (metrics, sample notes).

    Every time is at the reference speed, and each metric is a median over
    the run: of the imports, of the cold passes, of the warm passes, and
    per operation of its timed cold calls, whose percentiles are then taken
    across operations.  Cold and warm passes alternate in CHUNKS
    stretches, with two imports timed at the start of each, so a slow
    spell does not land on one metric only.  The notes give the wall-clock
    medians and the slowdowns they were divided by.
    """
    import_seconds()                          # may compile bytecode
    imports, cold, warm = [], [], []
    for k in range(CHUNKS):
        imports += [import_seconds(), import_seconds()]
        deadline = time.perf_counter() + seconds / CHUNKS
        if k % 2 == 0:
            while not cold or time.perf_counter() < deadline:
                cold.append(timed_pass(work, cold=True))
        else:
            timed_pass(work, cold=False)      # refills the caches
            while not warm or time.perf_counter() < deadline:
                warm.append(timed_pass(work, cold=False))
    median = statistics.median
    per_op = [median(p.op_seconds(i) for p in cold) for i in range(len(work.ops))]
    metrics = {
        "setup_s": median(wall / slowdown for wall, slowdown in imports),
        "pass_s": median(p.seconds for p in cold),
        "warm_pass_s": median(p.seconds for p in warm),
        "op_p50_ms": 1e3 * _percentile(per_op, 50),
        "op_p90_ms": 1e3 * _percentile(per_op, 90),
        "ok_ratio": 1.0 - work.failed / work.attempted,
    }

    def note(what: str, walls, slowdowns) -> str:
        return (f"median of {what}; wall {median(walls):.6g} s, "
                f"slowdown {median(slowdowns):.3f}")
    per_op_note = f"n={len(per_op)} operations, each the median of {len(cold)} cold calls"
    samples = {
        "setup_s": note(f"{len(imports)} imports", *zip(*imports)),
        "pass_s": note(f"{len(cold)} cold passes", [p.wall_s for p in cold],
                       [p.slowdown for p in cold]),
        "warm_pass_s": note(f"{len(warm)} warm passes", [p.wall_s for p in warm],
                            [p.slowdown for p in warm]),
        "op_p50_ms": per_op_note, "op_p90_ms": per_op_note}
    return metrics, samples


def _hit_ratio(before: dict, after: dict, layer: str) -> float:
    hits = misses = 0
    for cache, info in after.items():
        if cache.__module__ == f"rrcflab.{layer}":
            hits += info.hits - before[cache].hits
            misses += info.misses - before[cache].misses
    return hits / (hits + misses) if hits + misses else 0.0


def measure_traced(work: Workload, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Per-layer metrics: traced cold passes alternate with untraced ones,
    so trace.overhead_ratio compares like with like; then one warm pass
    gives the cache hit ratios.  Times are medians over passes at the
    reference speed, as in measure; counts must repeat exactly in every
    traced pass."""
    start = time.perf_counter()
    plain, traced, self_times, counts = [], [], [], None
    while len(traced) < 2 or time.perf_counter() < start + TRACED_SHARE * seconds:
        plain.append(timed_pass(work, cold=True).seconds)
        tracer = hooks.Tracer()
        with tracer.installed():
            run = timed_pass(work, cold=True, tracer=tracer)
        traced.append(run.seconds)
        self_times.append({name: t / run.slowdown for name, t in tracer.self_times().items()})
        if counts is None:
            counts, branches = tracer.counts, tracer.op_branches
            write_spans(tracer, spans_path)
        elif tracer.counts != counts:
            work.trusted = False                # counts must repeat exactly

    timed_pass(work, cold=False)
    before = {c: c.cache_info() for c in work.caches}
    timed_pass(work, cold=False)
    after = {c: c.cache_info() for c in work.caches}

    self_s = {name: statistics.median(p.get(name, 0.0) for p in self_times)
              for name in set().union(*self_times)}
    metrics = {}
    for metric, _ in PER_LAYER:
        head, _, field = metric.rpartition(".")
        if field == "self_s":
            metrics[metric] = self_s.get(head, 0.0)
        elif field in ("calls", "f_evals", "terms", "integrand_evals"):
            metrics[metric] = counts.get(metric, 0)
    finite = "quadrature.integrate_finite"
    metrics[f"{finite}.evals_per_call"] = (
        counts.get(f"{finite}.integrand_evals", 0) / counts[f"{finite}.calls"]
        if counts.get(f"{finite}.calls") else 0.0)
    metrics["quadrature.errors"] = counts.get(f"{finite}.errors", 0)
    metrics["qseries.cache_hit_ratio"] = _hit_ratio(before, after, "qseries")
    metrics["modular.cache_hit_ratio"] = _hit_ratio(before, after, "modular")
    metrics["check.worst_err_ratio"] = work.worst_err_ratio()
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    for branch in hooks.BRANCHES:
        metrics[f"branch.{branch}.share"] = len(branches[branch]) / len(work.ops)
    return metrics, {"passes": f"{len(traced)} traced, {len(plain)} untraced"}


def write_spans(tracer: hooks.Tracer, path: Path) -> None:
    """One JSON array per line: name, start and end in seconds from the
    pass's first span, parent line index (null at the root), operation."""
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    with path.open("w") as fh:
        for name, start, end, parent, op in tracer.spans:
            fh.write(f'["{name}", {start - origin:.9f}, {end - origin:.9f}, '
                     f'{"null" if parent is None else parent}, {op}]\n')


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = Workload(workload, seed)
    if trace:
        spans = ROOT / ".perfbench" / f"spans-{workload}-seed{seed}.jsonl"
        values, samples = measure_traced(work, seconds, spans)
        units = dict(PER_LAYER)
    else:
        values, samples = measure(work, seconds)
        units = dict(END_TO_END)
    for name, unit in units.items():
        print(f"{workload:10s} {name:46s} {values[name]:14.6g} {unit:10s} "
              + samples.get(name, ""))
    print(f"{workload:10s} {'failed_ratio':46s} {work.failed / work.attempted:14.6g} "
          f"ratio      ({work.failed} of {work.attempted} operations)")
    if not trace:
        print(f"{workload:10s} {'worst_err_ratio':46s} {work.worst_err_ratio():14.6g} ratio")
    for note, text in samples.items():
        if note not in values:
            print(f"{workload:10s} {note}: {text}")
    return {
        "correct": work.trusted,
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
