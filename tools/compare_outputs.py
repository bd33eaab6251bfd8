"""Outputs of ``scatmodes run`` from this tree against those of another tree's ``src/``.

Usage (from the repository root)::

    mkdir -p /tmp/other && git archive REV src | tar -x -C /tmp/other
    python3 tools/compare_outputs.py --parent-src /tmp/other/src
        [--workload NAME|all] [--seeds 1 7]

For each workload of ``perfbench/scenarios.py`` (read, never changed) and each
seed it writes the seeded scenario and runs ``scatmodes run --jobs 1
--dump-vectors`` on it twice, with this tree's ``src/`` and with the other one
on ``PYTHONPATH``: under the workload's solver and its reference, and
dipole-sweep and hybrid-sweep also under the four formulations
(dense-scattering, dense-impedance, t-form, iterative).  On dipole-sweep and
hybrid-sweep it also runs ``scatmodes checks`` on the scenario with both trees
and compares the printed reports byte for byte.

Prints, per run, both exit codes and whether ``traces.csv``, ``vectors.json``
and ``diagnostics.json`` (without its ``blas`` record, which names the host's
thread pools) are identical.  Where ``traces.csv`` differs, the ``compare``
deviation of the two; where ``diagnostics.json`` does, the keys (top level,
or ``per_frequency.KEY`` of the points) that only this tree writes (``+``),
only the other one writes (``-``) or that both write with other values
(``~``).  A run counts as identical only when both sides exit 0 and write
every file, and the files are identical; a ``checks`` report only when both
sides exit 0 and print the same bytes.  The tool exits 0 only when every run
and report is identical, else 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from scatmodes.cli import compare_results  # noqa: E402
from scatmodes.exceptions import ShapeError  # noqa: E402
from scenarios import WORKLOADS, scenario  # noqa: E402

FORMULATIONS = ("dense-scattering", "dense-impedance", "t-form", "iterative")
#: workloads also run under every formulation
ALL_FORMULATIONS = ("dipole-sweep", "hybrid-sweep")
FILES = ("traces.csv", "vectors.json", "diagnostics.json")


def solvers(name: str) -> list[str]:
    """The solver names workload ``name`` is run under."""
    w = WORKLOADS[name]
    extra = FORMULATIONS if name in ALL_FORMULATIONS else ()
    return list(dict.fromkeys((w.solver, w.reference, *extra)))


def scatmodes(src: Path, scenario_path: Path, *args: str) -> tuple[int, bytes]:
    """(exit code, stdout) of ``scatmodes ARGS --scenario SCENARIO_PATH`` with ``src`` as the
    only ``PYTHONPATH`` entry."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "scatmodes.cli", *args, "--scenario", str(scenario_path)]
    proc = subprocess.run(cmd, env=env, cwd=scenario_path.parent, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL)
    return proc.returncode, proc.stdout


def _diagnostics(path: Path) -> dict:
    data = json.loads(path.read_text())
    data.pop("blas", None)
    return data


def diagnostics_diff(ours: dict, theirs: dict) -> list[str]:
    """Keys only this tree writes (+), only the other writes (-), or with other values (~)."""
    points = list(zip(ours.get("per_frequency", []), theirs.get("per_frequency", [])))
    notes = set()
    if len(ours.get("per_frequency", [])) != len(theirs.get("per_frequency", [])):
        notes.add("~per_frequency")
    for a, b, prefix in [(ours, theirs, ""), *((p, q, "per_frequency.") for p, q in points)]:
        for key in a.keys() | b.keys():
            if prefix or key != "per_frequency":
                mark = "+" if key not in b else "-" if key not in a else \
                    "~" if a[key] != b[key] else None
                if mark:
                    notes.add(f"{mark}{prefix}{key}")
    return sorted(notes)


def compare_run(ours: Path, theirs: Path) -> tuple[bool, list[str]]:
    """(identical, one note per file) for the output directories of the two runs."""
    same, notes = True, []
    for name in FILES:
        a, b = ours / name, theirs / name
        if not (a.exists() and b.exists()):
            equal = False
            one_side = "written by one side only" if a.exists() or b.exists() else "absent"
            notes.append(f"{name} {one_side}")
        elif name == "diagnostics.json":
            ours_d, theirs_d = _diagnostics(a), _diagnostics(b)
            equal = json.dumps(ours_d, sort_keys=True) == json.dumps(theirs_d, sort_keys=True)
            notes.append(f"{name} " + ("identical" if equal else
                                       f"differs: {' '.join(diagnostics_diff(ours_d, theirs_d))}"))
        else:
            equal = a.read_bytes() == b.read_bytes()
            note = f"{name} {'identical' if equal else 'differs'}"
            if not equal and name == "traces.csv":
                try:
                    report = compare_results(str(a), str(b), tol=0.0)
                    note += f" (compare: max deviation {report['max_deviation']:.2e})"
                except ShapeError as err:  # the grids or mode counts differ
                    note += f" (compare: {err})"
            notes.append(note)
        same = same and equal
    return same, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent-src", required=True, type=Path,
                        help="the other tree's src/ directory, holding scatmodes/")
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7])
    args = parser.parse_args(argv)
    other = args.parent_src.resolve()
    if not (other / "scatmodes" / "cli.py").is_file():
        parser.error(f"{other} holds no scatmodes/cli.py")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    sides = (ROOT / "src", "ours"), (other, "theirs")
    failures = total = report_failures = reports = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            for seed in args.seeds:
                for solver in solvers(name):
                    case = Path(tmp) / f"{name}-{seed}-{solver}"
                    case.mkdir()
                    path = case / "scenario.json"
                    path.write_text(json.dumps(dict(scenario(name, seed), solver=solver)))
                    codes = [scatmodes(src, path, "run", "--out", str(case / side), "--jobs",
                                       "1", "--dump-vectors")[0] for src, side in sides]
                    same, notes = compare_run(case / "ours", case / "theirs")
                    ok = same and codes == [0, 0]
                    total += 1
                    failures += not ok
                    print(f"{'ok  ' if ok else 'DIFF'} {name} seed {seed} {solver}: "
                          f"exit {codes[0]}/{codes[1]}; " + "; ".join(notes), flush=True)
                if name in ALL_FORMULATIONS:
                    path = Path(tmp) / f"{name}-{seed}-checks.json"
                    path.write_text(json.dumps(scenario(name, seed)))
                    (code, ours), (code_theirs, theirs) = (scatmodes(src, path, "checks")
                                                           for src, _ in sides)
                    ok = ours == theirs and code == code_theirs == 0
                    reports += 1
                    report_failures += not ok
                    print(f"{'ok  ' if ok else 'DIFF'} {name} seed {seed} checks: exit "
                          f"{code}/{code_theirs}; report "
                          f"{'identical' if ours == theirs else 'differs'}", flush=True)
    print(f"{total - failures} of {total} runs identical (exit codes and files)")
    print(f"{reports - report_failures} of {reports} checks reports identical")
    return 0 if failures == report_failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
