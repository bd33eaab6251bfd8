"""Stage times of one ``iterative`` point of a benchmark workload, solved in-process.

Usage (from the repository root)::

    PYTHONPATH=src python3 tools/bench_iterative.py [--workload NAME] [--repeats N]
        [--seed S] [--point P]

Builds the scenario of workload NAME of ``perfbench/scenarios.py`` (by default
cloud-sweep: 300 dipoles, 900 unknowns, 448 waves) and times, under the
OpenBLAS thread counts ``run --jobs 1`` sets, the four stages of point P of its
sweep under ``iterative``, whatever solver the workload names:

- assembly: ``assemble_impedance``, in parts: the fill of Z by Green
  components from the i < j pairs (the rest of the stage), ``swe.wave_table``
  (the readout) and ``_radiation_defect``; a sphere scene's point (hybrid-sweep)
  is folded in by its fold from ``cli._sweep_basis``, whose U4 expansions are
  made before the timed repeats;
- factors: the LU factors of Z and Z_bb (``BlockImpedance.factorize``);
- engine: ``iterate`` on the blocks, their own pencil (the one
  ``cm_scattering`` decomposes; T_b acts through the ``U1_b`` view of the
  readout; blocks are not probed), as ``run`` calls it, the block Krylov
  iteration on the factors, in parts: the block applications (``composed_matvec``),
  Rayleigh-Ritz (``_eig_orthonormal``) and the rest (the Krylov basis and
  the residuals);
- unitarity: ``scattering_unitarity`` (the bound, or the dense check).

One untimed repeat first loads the libraries and warms the caches.  The parts
are timed by wrapping those names during the timed repeats only.  Prints the
median time of each part, each stage as the sum of its parts, their total,
and the engine's iteration count and the unitarity form of the last repeat.
Exits 1, naming it, if a part was never called: its name no longer reaches
the code it times, and its 0 ms would be read as free.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from scatmodes import cli, dipoles, iterative, swe  # noqa: E402
from scatmodes.dipoles import assemble_impedance  # noqa: E402
from scatmodes.iterative import iterate  # noqa: E402
from scatmodes.modes import scattering_unitarity  # noqa: E402
from scenarios import WORKLOADS, scenario  # noqa: E402

STAGES = ("assembly", "factors", "engine", "unitarity")

#: (stage, part, owner, name): the timed parts of a stage; its time beyond them is REST's part
PARTS = (
    ("assembly", "wave table", swe, "wave_table"),
    ("assembly", "radiation defect", dipoles, "_radiation_defect"),
    ("engine", "block applications", iterative, "composed_matvec"),
    ("engine", "Rayleigh-Ritz", iterative, "_eig_orthonormal"),
)
REST = {"assembly": "Green fill by components", "engine": "Krylov basis, residuals"}


@contextlib.contextmanager
def _timed_parts(spent: dict, calls: dict):
    """Wrap the names of ``PARTS`` so each call adds its time to ``spent[part]`` and 1 to
    ``calls[part]``; restore them on exit."""
    saved = [(owner, name, getattr(owner, name)) for _, _, owner, name in PARTS]

    def timed(part, fn):
        def call(*args, **kwargs):
            calls[part] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[part] += time.perf_counter() - start
        return call

    try:
        for (_, part, owner, name), (_, _, fn) in zip(PARTS, saved):
            setattr(owner, name, timed(part, fn))
        yield
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


def _point(sc, k, wave_basis, angular, fold, seed):
    """Stage times (s) of one point, the engine's iteration count and the unitarity form."""
    start = time.perf_counter()
    blocks = assemble_impedance(sc["scene"], k, wave_basis, angular, fold)
    marks = [time.perf_counter()]
    blocks.factorize()
    marks.append(time.perf_counter())
    ms = iterate(blocks, n_modes=sc["n_modes"], seed=seed)
    marks.append(time.perf_counter())
    form = scattering_unitarity(blocks)["unitarity_form"]
    marks.append(time.perf_counter())
    return [b - a for a, b in zip([start] + marks, marks)], ms.diagnostics["iterations"], form


def _parts(stage_times, spent: dict) -> dict:
    """Time (s) of every part of one point by stage: the wrapped parts and each stage's rest."""
    parts = {}
    for stage, total in zip(STAGES, stage_times):
        named = {part: spent[part] for st, part, _, _ in PARTS if st == stage}
        parts[stage] = {REST.get(stage, stage): total - sum(named.values()), **named}
    return parts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="cloud-sweep", choices=WORKLOADS)
    parser.add_argument("--repeats", type=int, default=11)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--point", type=int, default=0, help="index of the sweep point")
    args = parser.parse_args(argv)
    sc = cli.parse_scenario(scenario(args.workload, args.seed))
    k = 2.0 * math.pi * float(sc["frequencies"][args.point]) / cli.SPEED_OF_LIGHT
    runs, calls = [], defaultdict(int)
    with cli._blas_threads(1):
        wave_basis, angular, points = cli._sweep_basis(sc)
        point = (sc, k, wave_basis, angular, points[args.point][0], args.seed)
        _point(*point)
        for _ in range(args.repeats):
            spent = defaultdict(float)
            with _timed_parts(spent, calls):
                stage_times, n_iterations, form = _point(*point)
            runs.append(_parts(stage_times, spent))
    print(f"{args.workload} seed {args.seed}, point {args.point} (k = {k:.3f}), "
          f"{args.repeats} repeats: median ms, each stage the sum of its parts")
    total = 0.0
    for stage in STAGES:
        medians = {part: 1e3 * statistics.median(run[stage][part] for run in runs)
                   for part in runs[0][stage]}
        total += sum(medians.values())
        print(f"  {stage:<28} {sum(medians.values()):8.1f}")
        if len(medians) > 1:
            for part, ms in medians.items():
                print(f"    {part:<26} {ms:8.1f}")
    print(f"  {'total':<28} {total:8.1f}")
    print(f"engine iterations {n_iterations}, unitarity form {form!r}")
    missing = [f"{owner.__name__}.{name}" for _, part, owner, name in PARTS if not calls[part]]
    if missing:
        print(f"never called, so not timed: {', '.join(missing)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
