"""Stage times of one ``iterative`` cloud-sweep point, solved in-process.

Usage (from the repository root)::

    PYTHONPATH=src python3 tools/bench_iterative.py [--repeats N] [--seed S] [--point P]

Builds the cloud-sweep scenario of ``perfbench/scenarios.py`` (300 dipoles,
900 unknowns, 448 waves, ``iterative``) and times, under the OpenBLAS thread
counts ``run --jobs 1`` sets, the four stages of point P of its sweep:

- assembly: ``assemble_impedance`` (Green blocks, readout, radiation defect);
- factors: the LU factors of Z and Z_bb (``BlockImpedance.factorize``);
- engine: ``iterate`` on ``ScatterOracle.from_blocks``, the block Krylov
  iteration on the factors;
- unitarity: ``scattering_unitarity`` (the bound, or the dense check).

One untimed repeat first loads the libraries and warms the caches.  Prints
the median time of each stage, their sum, and the engine's iteration count
and the unitarity form of the last repeat.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from scatmodes import cli  # noqa: E402
from scatmodes.dipoles import assemble_impedance  # noqa: E402
from scatmodes.iterative import ScatterOracle, iterate  # noqa: E402
from scatmodes.modes import scattering_unitarity  # noqa: E402
from scenarios import scenario  # noqa: E402

STAGES = ("assembly", "factors", "engine", "unitarity")


def _point(sc, k, wave_basis, angular, seed):
    """Stage times (s) of one point, the engine's iteration count and the unitarity form."""
    start = time.perf_counter()
    blocks = assemble_impedance(sc["scene"], k, wave_basis, angular)
    marks = [time.perf_counter()]
    blocks.factorize()
    marks.append(time.perf_counter())
    _, log = iterate(ScatterOracle.from_blocks(blocks), n_modes=sc["n_modes"], seed=seed)
    marks.append(time.perf_counter())
    form = scattering_unitarity(blocks)["unitarity_form"]
    marks.append(time.perf_counter())
    return [b - a for a, b in zip([start] + marks, marks)], log.n_iterations, form


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=11)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--point", type=int, default=0, help="index of the sweep point")
    args = parser.parse_args(argv)
    sc = cli.parse_scenario(scenario("cloud-sweep", args.seed))
    k = 2.0 * math.pi * float(sc["frequencies"][args.point]) / cli.SPEED_OF_LIGHT
    with cli._blas_threads(1):
        wave_basis, angular = cli._sweep_basis(sc)
        _point(sc, k, wave_basis, angular, args.seed)
        runs = [_point(sc, k, wave_basis, angular, args.seed) for _ in range(args.repeats)]
    medians = [1e3 * statistics.median(run[0][i] for run in runs) for i in range(len(STAGES))]
    print(f"cloud-sweep seed {args.seed}, point {args.point} (k = {k:.3f}), "
          f"{args.repeats} repeats: median ms")
    for name, ms in zip(STAGES, medians):
        print(f"  {name:<10} {ms:8.1f}")
    print(f"  {'total':<10} {sum(medians):8.1f}")
    print(f"engine iterations {runs[-1][1]}, unitarity form {runs[-1][2]!r}")


if __name__ == "__main__":
    main()
