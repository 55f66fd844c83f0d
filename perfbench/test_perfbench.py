"""Tests of the benchmark itself: seeded inputs repeat, traced counts repeat,
the hooks leave rrcflab as they found it, and the registry is clean at the
seed.  Run with ``PYTHONPATH=src python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import bench, hooks, ops  # noqa: E402


def _namespace_snapshot() -> dict:
    return {(mod.__name__, attr): id(value)
            for mod in hooks.package_modules() for attr, value in vars(mod).items()}


@pytest.mark.parametrize("workload", ["inversions", "kernels"])
def test_same_seed_same_operations(workload):
    first = [op.key() for op in ops.WORKLOADS[workload](7)]
    second = [op.key() for op in ops.WORKLOADS[workload](7)]
    other = [op.key() for op in ops.WORKLOADS[workload](8)]
    assert first == second
    assert first != other


def test_traced_counts_repeat_across_runs():
    counts = []
    for _ in range(2):
        work = bench.Workload("inversions", 3)
        tracer = hooks.Tracer()
        with tracer.installed():
            bench.timed_pass(work, cold=True, tracer=tracer)
        counts.append(dict(tracer.counts))
    assert counts[0] == counts[1]
    # the untimed call before each timed one is not traced
    assert counts[0]["modular.solve_sextic.calls"] == ops.INVERSIONS_PER_FUNCTION
    assert counts[0]["quadrature.integrate_finite.integrand_evals"] > 0
    assert counts[0]["numerics.find_root.f_evals"] > counts[0]["numerics.find_root.calls"]


def test_removing_wrappers_restores_functions_and_results():
    work = bench.Workload("kernels", 2)
    before_ns = _namespace_snapshot()
    before = [bench.Outcome(value=v) for v in _values(work)]
    tracer = hooks.Tracer()
    with tracer.installed():
        assert _namespace_snapshot() != before_ns
        traced = [bench.Outcome(value=v) for v in _values(work)]
    assert _namespace_snapshot() == before_ns
    after = [bench.Outcome(value=v) for v in _values(work)]
    assert all(a.same_as(b) for a, b in zip(before, after))
    assert all(a.same_as(b) for a, b in zip(before, traced))
    assert tracer.counts["special.gamma.calls"] >= 36


def _values(work):
    out = []
    for fn, args in work.bound_calls():
        try:
            out.append(fn(*args))
        except Exception as exc:   # failing kernels fail the same way each time
            out.append(repr(exc))
    return out


def test_registry_is_clean_at_the_seed():
    work = bench.Workload("registry", 0)
    for _ in range(2):   # each operation counts once, however often it runs
        bench.timed_pass(work, cold=True)
    assert work.attempted == len(work.ops) == len(ops.registry_ops(0))
    assert work.failed == 0
    assert work.trusted
    statuses = [o.value.status for o in work.reference]
    assert statuses.count("pass") == len(statuses) - len(ops.FLAGGED_CHECKS)


def test_caches_found_by_discovery():
    names = {c.__qualname__ for c in hooks.package_caches()}
    assert {"_log_qpochhammer", "_rrcf_cached", "_klein_j_cached"} <= names


def test_benchmark_json_lists_the_metrics_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in bench.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in bench.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(ops.WORKLOADS)
    units = dict(bench.END_TO_END + bench.PER_LAYER)
    assert all(m["unit"] == units[m["name"]] for m in spec["end_to_end"] + spec["per_layer"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "registry", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_pass_time_is_divided_by_the_slowdown():
    y = bench.YARDSTICK_S
    run = bench.Pass([0.1, 0.3], yardsticks=[y, 2 * y])
    assert run.slowdown == pytest.approx(1.5)
    assert run.wall_s == pytest.approx(0.4)
    assert run.seconds == pytest.approx(0.4 / 1.5)
    assert [run.op_seconds(i) for i in range(2)] == pytest.approx([0.1, 0.15])
