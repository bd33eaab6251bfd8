"""Sweep scaling with ``--jobs``: one 8-point cloud sweep, solved in-process.

Usage (from the repository root)::

    PYTHONPATH=src python3 tools/bench_jobs.py [--repeats N] [--seed S] [--points P]

Builds the cloud-sweep scenario of ``perfbench/scenarios.py`` (300 dipoles,
900 unknowns, 448 waves, ``iterative``) with 8 frequency points and times
``cli.run_scenario`` under ``--jobs 1``, ``--jobs 2`` and the default
(available cores), the three settings taking turns in each repeat.  One
untimed run first loads the libraries and warms the caches, so the times are
the sweep's, without interpreter start-up.  Prints the median wall time of
each setting and the OpenBLAS thread counts its ``diagnostics.json``
recorded (the perfbench children keep ``--jobs 1``, so scaling is measured
here).
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from scatmodes import cli  # noqa: E402
from scenarios import scenario  # noqa: E402

SETTINGS = (("--jobs 1", 1), ("--jobs 2", 2), ("default", None))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--points", type=int, default=8)
    args = parser.parse_args(argv)
    sc = cli.parse_scenario(scenario("cloud-sweep", args.seed, n_points=args.points))
    times = {name: [] for name, _ in SETTINGS}
    blas = {}
    with tempfile.TemporaryDirectory() as out:
        cli.run_scenario(sc, out, jobs=1)
        for _ in range(args.repeats):
            for name, jobs in SETTINGS:
                start = time.perf_counter()
                diagnostics = cli.run_scenario(sc, out, jobs=jobs)
                times[name].append(time.perf_counter() - start)
                blas[name] = diagnostics["blas"]
    print(f"cloud-sweep seed {args.seed}, {args.points} points, "
          f"{blas['default']['cores']} cores, median of {args.repeats}")
    print(f"{'setting':>9} {'jobs':>4} {'sweep s':>8}  OpenBLAS threads (before)")
    for name, _ in SETTINGS:
        threads = ", ".join(f"{lib['library']} {lib['threads']} ({lib['threads_before']})"
                            for lib in blas[name]["libraries"]) or "no OpenBLAS found"
        print(f"{name:>9} {blas[name]['jobs']:>4} {statistics.median(times[name]):>8.2f}  "
              f"{threads}")


if __name__ == "__main__":
    main()
