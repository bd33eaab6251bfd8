"""Microbenchmark of the spherical-wave table: per-degree evaluation against the per-wave loop.

Usage (from the repository root)::

    PYTHONPATH=src python3 tools/bench_wave_table.py [--repeats N]

Times ``swe.regular_wave_table`` / ``swe.outgoing_wave_table`` (one pass per
degree, vectorised over m and polarisation) against the per-wave Python
loop kept as a test oracle in ``tests/oracles.py``, at the sizes the sweeps
use: the 448-wave basis (l_max = 14) at 4 dipoles, at 300 dipoles and on the
1,035-point quadrature sphere of ``assemble_u4``, and the closed-form U4's
extended basis (l_max = 22) at 4 dipoles.  Prints the median time of each
and the largest difference relative to the table's largest entry.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from oracles import wave_table_per_wave  # noqa: E402
from scatmodes import swe  # noqa: E402

CASES = (  # (l_max, points, kind)
    (14, 4, "regular"),
    (22, 4, "outgoing"),
    (14, 300, "regular"),
    (14, 1035, "regular"),
)


def _median_ms(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=21)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(0)
    table = {"regular": swe.regular_wave_table, "outgoing": swe.outgoing_wave_table}
    print(f"{'l_max':>5} {'points':>6} {'kind':>8} {'per-wave ms':>11} "
          f"{'per-degree ms':>13} {'max rel diff':>12}")
    for l_max, n_points, kind in CASES:
        wave_basis = swe.basis(l_max)
        points = 0.7 * rng.normal(size=(n_points, 3))
        new = table[kind](wave_basis, 2.0, points)
        old = wave_table_per_wave(wave_basis, 2.0, points, kind)
        diff = np.abs(new - old).max() / np.abs(old).max()
        t_old = _median_ms(lambda: wave_table_per_wave(wave_basis, 2.0, points, kind),
                           args.repeats)
        t_new = _median_ms(lambda: table[kind](wave_basis, 2.0, points), args.repeats)
        print(f"{l_max:>5} {n_points:>6} {kind:>8} {t_old:>11.1f} {t_new:>13.1f} {diff:>12.1e}")


if __name__ == "__main__":
    main()
