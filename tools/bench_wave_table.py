"""Microbenchmark of the spherical-wave table: per-point evaluation from prebuilt angular factors.

Usage (from the repository root)::

    PYTHONPATH=src python3 tools/bench_wave_table.py [--repeats N]

Times three ways to the same table, at the sizes the sweeps use: the
per-wave Python loop kept as a test oracle in ``tests/oracles.py``, the full
``swe.wave_table(swe.angular_factors(...), k, kind)`` (angular factors and
radial factors, as a single call builds them), and the per-point part
alone, ``swe.wave_table`` from angular factors built beforehand, which is
what a sweep pays at each frequency.  Sizes: the 390-wave basis (l_max = 13)
of dipole-sweep at 4 dipoles, the 448-wave basis (l_max = 14) at 4 dipoles,
at 300 dipoles and on the 1,035-point quadrature sphere of ``assemble_u4``,
and the closed-form U4's extended basis (l_max = 22) at 4 dipoles.  Prints
the median time of each and the largest difference from the per-wave loop
relative to the table's largest entry.
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
    (13, 4, "regular"),
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
    print(f"{'l_max':>5} {'points':>6} {'kind':>8} {'per-wave ms':>11} "
          f"{'full ms':>8} {'per-point ms':>12} {'max rel diff':>12}")
    for l_max, n_points, kind in CASES:
        wave_basis = swe.basis(l_max)
        points = 0.7 * rng.normal(size=(n_points, 3))
        angular = swe.angular_factors(wave_basis, points)
        new = swe.wave_table(angular, 2.0, kind)
        old = wave_table_per_wave(wave_basis, 2.0, points, kind)
        diff = np.abs(new - old).max() / np.abs(old).max()
        t_old = _median_ms(lambda: wave_table_per_wave(wave_basis, 2.0, points, kind),
                           args.repeats)
        t_full = _median_ms(
            lambda: swe.wave_table(swe.angular_factors(wave_basis, points), 2.0, kind),
            args.repeats)
        t_point = _median_ms(lambda: swe.wave_table(angular, 2.0, kind), args.repeats)
        print(f"{l_max:>5} {n_points:>6} {kind:>8} {t_old:>11.2f} {t_full:>8.2f} "
              f"{t_point:>12.2f} {diff:>12.1e}")


if __name__ == "__main__":
    main()
