"""Where a ``scatmodes run`` process spends its time: set-up, sweep and exit.

Usage (from the repository root)::

    python3 tools/bench_exit.py [--runs N] [--seed S]

For each workload of ``perfbench/scenarios.py`` it writes the seeded
scenario and launches N fresh ``perfbench/child.py`` children on it, the way
``perfbench/run.py`` does (``--jobs 1``, BLAS thread variables removed), after
one untimed child that warms the file cache.  Each child stamps when its
scenario is loaded and when ``cli.main`` returns (its ``end``), so the wall
time from launch to process end splits into

- set-up: launch to scenario loaded (interpreter start, imports, parsing);
- inner sweep: scenario loaded to ``end``;
- exit tail: ``end`` to process end (the child's stats file and interpreter
  exit).

Prints the median and quartiles of each.  There is no correctness gate:
``perfbench/run.py`` checks the outputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import run as perfbench  # noqa: E402
from scenarios import WORKLOADS, scenario  # noqa: E402

PARTS = (("set-up", "setup_s"), ("inner sweep", "inner_sweep_s"), ("exit tail", "exit_s"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="children per workload (>= 2)")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")
    env, _ = perfbench.child_env()
    print(f"seed {args.seed}, {args.runs} children per workload; "
          f"median [first-third quartile] in s")
    print(f"{'workload':<13}" + "".join(f"{label:>24}" for label, _ in PARTS))
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(scenario(name, args.seed)))
            out = Path(tmp) / name
            perfbench.launch(path, out, env)
            samples = []
            for _ in range(args.runs):
                sample = perfbench.launch(path, out, env)
                if sample["exit_code"] != 0 or "setup_s" not in sample:
                    sys.exit(f"{name}: child exited {sample['exit_code']}:\n"
                             f"{(out / 'stderr.txt').read_text(errors='replace')}")
                sample["exit_s"] = sample["sweep_s"] - sample["inner_sweep_s"]
                samples.append(sample)
            cells = []
            for _, key in PARTS:
                q1, median, q3 = statistics.quantiles([s[key] for s in samples], n=4)
                cells.append(f"{median:.3f} [{q1:.3f}-{q3:.3f}]")
            print(f"{name:<13}" + "".join(f"{cell:>24}" for cell in cells))


if __name__ == "__main__":
    main()
