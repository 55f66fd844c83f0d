"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload registry --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer ones with --trace 1).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("registry", "inversions", "kernels")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "rrcflab" / "__init__.py").is_file():
        print(f"perfbench: no rrcflab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench

    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
