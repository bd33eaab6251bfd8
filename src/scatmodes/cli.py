"""Scenario-driven command line front end.

Subcommands
-----------
``run --scenario FILE [--out DIR] [--jobs N] [--seed S] [--dump-vectors]``
    Sweep a JSON scenario over its frequency grid with the selected
    solver path, track modes, and write ``traces.csv`` plus
    ``diagnostics.json`` (and optionally ``vectors.json``).
``compare A B --tol T``
    Optimally match modal traces of two result files per frequency and
    report the worst deviation against a tolerance.
``checks --scenario FILE``
    Run only the invariant suite (unitarity, power identity, path
    equivalence, parity leakage) and exit nonzero on violation.

Identical scenario, seed, jobs and BLAS thread count produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import math
import os
import sys
import numpy as np

from .dipoles import (
    DipoleScene,
    Port,
    assemble_impedance,
    default_basis,
    generalized_scattering,
    transition,
)
from .exceptions import (
    DomainError,
    GeometryError,
    MappingError,
    ResolutionError,
    ShapeError,
    SolveError,
)
from .hybrid import (
    HybridScene,
    assemble_hybrid,
    hybrid_impedance_modes,
    hybrid_scattering_modes,
    hybrid_sweep_basis,
)
from .iterative import ScatterOracle, iterate
from .mie import SphereSpec
from .modes import (
    cm_impedance_substructure,
    cm_scattering,
    cm_t_form,
    parity_leakage,
    parity_restricted,
    scattering_unitarity,
    substructure_power_check,
    substructure_span,
    tilde_tmatrix,
    track_modes,
)
from .network import check_t_power, check_unitary  # noqa: F401 (traced by perfbench/child.py)

SPEED_OF_LIGHT = 299792458.0

CSV_HEADER = [
    "frequency_hz", "trace_id", "mode_rank", "re_t", "im_t",
    "modal_significance", "lambda", "circle_dev", "orth_dev", "cancel_flag",
]


class ScenarioError(ValueError):
    """Scenario file is syntactically or semantically invalid."""


def _need(obj: dict, key: str, context: str):
    if key not in obj:
        raise ScenarioError(f"missing required field '{context}{key}'")
    return obj[key]


def parse_scenario(raw: dict) -> dict:
    """Validate a scenario dictionary; error messages name the offending field."""
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    _need(raw, "version", "")
    scene_raw = _need(raw, "scene", "")
    dipoles_raw = _need(scene_raw, "dipoles", "scene.")
    positions, alphas, regions = [], [], []
    for i, d in enumerate(dipoles_raw):
        ctx = f"scene.dipoles[{i}]."
        positions.append(_need(d, "position", ctx))
        alphas.append(_need(d, "polarizability", ctx))
        regions.append(d.get("region", "controllable"))
    ports = tuple(
        Port(_need(p, "dipole", f"scene.ports[{i}]."),
             _need(p, "axis", f"scene.ports[{i}]."),
             _need(p, "z0", f"scene.ports[{i}]."))
        for i, p in enumerate(scene_raw.get("ports", []))
    )
    n = len(positions)
    alpha_arr = np.zeros((n, 3, 3))
    for i, a in enumerate(alphas):
        a = np.asarray(a, dtype=float)
        alpha_arr[i] = a * np.eye(3) if a.ndim == 0 else a
    scene = DipoleScene(
        positions=np.asarray(positions, dtype=float).reshape(n, 3),
        polarizability=alpha_arr,
        region=tuple(regions),
        ports=ports,
        ground_plane=bool(scene_raw.get("ground_plane", False)),
    )
    sphere = None
    if scene_raw.get("sphere") is not None:
        sp = scene_raw["sphere"]
        sphere = SphereSpec(
            radius=_need(sp, "radius", "scene.sphere."),
            material=sp.get("material", "pec"),
            eps_r=sp.get("eps_r", 1.0),
            mu_r=sp.get("mu_r", 1.0),
        )
    sweep = _need(raw, "sweep", "")
    f_min = _need(sweep, "f_min", "sweep.")
    f_max = _need(sweep, "f_max", "sweep.")
    n_points = _need(sweep, "n_points", "sweep.")
    if not (f_min <= f_max and n_points >= 1):
        raise ScenarioError("sweep must satisfy f_min <= f_max and n_points >= 1")
    solver = _need(raw, "solver", "")
    if solver not in SOLVERS:
        raise ScenarioError(f"unknown solver '{solver}'; valid: {', '.join(SOLVERS)}")
    if solver.startswith("hybrid") and sphere is None:
        raise ScenarioError("solver 'hybrid-*' requires scene.sphere")
    if sphere is not None and not solver.startswith("hybrid"):
        raise ScenarioError(f"scene.sphere requires a hybrid solver, not '{solver}'")
    if ports and solver != "dense-scattering":
        raise ScenarioError("scene.ports requires the dense-scattering solver")
    if scene.ground_plane and solver not in ("dense-scattering", "t-form", "iterative"):
        raise ScenarioError("ground_plane scenes support dense-scattering, t-form or iterative")
    return {
        "scene": scene,
        "sphere": sphere,
        "hybrid": None if sphere is None else HybridScene(scene, sphere),
        "frequencies": np.linspace(f_min, f_max, int(n_points)),
        "solver": solver,
        "n_modes": int(raw.get("n_modes", 6)),
        "tolerances": dict(raw.get("tolerances", {})),
        "output": raw.get("output"),
    }


def load_scenario(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ScenarioError(f"cannot read scenario file: {err}")
    except json.JSONDecodeError as err:
        raise ScenarioError(f"scenario is not valid JSON (line {err.lineno}): {err.msg}")
    return parse_scenario(raw)


def _sweep_basis(sc: dict):
    """One shared wave basis for the whole sweep, sized at the highest frequency.

    A hybrid scene's basis also meets the U4 truncation tolerance at every
    frequency where a few more degrees can (``hybrid_sweep_basis``).
    """
    if sc["sphere"] is not None:
        ks = 2.0 * math.pi * sc["frequencies"] / SPEED_OF_LIGHT
        return hybrid_sweep_basis(sc["hybrid"], ks, sc["tolerances"].get("u4_residual", 1e-6))
    k_max = 2.0 * math.pi * sc["frequencies"][-1] / SPEED_OF_LIGHT
    return default_basis(sc["scene"], k_max)


# Assemblies: (scenario, k, basis) -> (operators, point diagnostics).

def _dipole_operators(sc: dict, k: float, wave_basis):
    """Transition set of a dipole scene; above a ground plane, its parity-allowed part.

    Reports the unitarity of the full S and S_b (``scattering_unitarity``:
    factored or dense, named in ``unitarity_form``).
    """
    ts = transition(sc["scene"], k, wave_basis)
    diag = scattering_unitarity(ts)
    return (parity_restricted(ts) if sc["scene"].ground_plane else ts), diag


def _scattering_operators(sc: dict, k: float, wave_basis):
    """Operators for dense-scattering: ports appended; a ground plane's leakage.

    Unitarity is left to the engine, which checks the same operators.
    """
    scene = sc["scene"]
    if scene.ports:
        return generalized_scattering(scene, k, wave_basis), {}
    ts = transition(scene, k, wave_basis)
    if scene.ground_plane:
        return parity_restricted(ts), {"parity_leakage": parity_leakage(ts)}
    return ts, {}


def _hybrid_system(sc: dict, k: float, wave_basis):
    system = assemble_hybrid(sc["hybrid"], k, wave_basis,
                             residual_tol=sc["tolerances"].get("u4_residual", 1e-6))
    return system, {"u4_residual": float(system.U4.meta["column_residuals"].max(initial=0.0))}


# Engines: (operators, k, scenario, seed, point diagnostics) -> ModeSet.

def _iterative(ts, k: float, sc: dict, seed: int, diag: dict):
    ms, log = iterate(ScatterOracle.from_matrices(ts.T, ts.T_b), n_modes=sc["n_modes"],
                      seed=seed)
    ms.k = k
    diag.update(iterations=log.n_iterations, converged=log.converged)
    return ms


def _record_engine(ms, diag: dict):
    """Copy the scattering engine's name and eigenproblem size into ``diag``."""
    diag["engine"] = ms.diagnostics["solver"]
    diag["rank"] = ms.diagnostics["rank"]
    return ms


def _dense_scattering(ts, k: float, sc: dict, seed: int, diag: dict):
    """``cm_scattering`` on the range of ``S - S_b``, reporting its checks in ``diag``.

    The engine works on the blocks' factors and forms no n x n operator.
    Plain scenes report the unitarity of S and S_b, port scenes of S,
    both with the form of the check; a ground-plane scene reports its
    parity leakage instead.
    """
    ms = cm_scattering(ts, k=k, n_modes=sc["n_modes"])
    scene = sc["scene"]
    if not scene.ground_plane:
        keys = ("unitarity_S", "unitarity_form") if scene.ports \
            else ("unitarity_S", "unitarity_S_b", "unitarity_form")
        diag.update((key, ms.diagnostics[key]) for key in keys)
    return _record_engine(ms, diag)


def _hybrid_scattering(system, k: float, sc: dict, seed: int, diag: dict):
    return _record_engine(
        hybrid_scattering_modes(None, k, system=system, n_modes=sc["n_modes"]), diag)


#: solver name -> (assembly, engine)
SOLVER_TABLE = {
    "dense-scattering": (_scattering_operators, _dense_scattering),
    "dense-impedance": (_dipole_operators,
                        lambda ts, k, *_: cm_impedance_substructure(ts.blocks, k=k)),
    "t-form": (_dipole_operators, lambda ts, k, *_: cm_t_form(ts.T, ts.T_b, k=k)),
    "iterative": (_dipole_operators, _iterative),
    "hybrid-impedance": (_hybrid_system,
                         lambda system, k, *_: hybrid_impedance_modes(None, k, system=system)),
    "hybrid-scattering": (_hybrid_system, _hybrid_scattering),
}
SOLVERS = tuple(SOLVER_TABLE)


def _solve_point(sc: dict, k: float, wave_basis, seed: int):
    """One frequency point; returns (ModeSet, diagnostics dict)."""
    assemble, engine = SOLVER_TABLE[sc["solver"]]
    ops, diag = assemble(sc, k, wave_basis)
    return engine(ops, k, sc, seed, diag), diag


def _fmt(x: float) -> str:
    return repr(float(x))


def _json_scalar(val):
    """Flags as JSON booleans, counts as JSON integers, other numbers as floats."""
    if isinstance(val, (bool, np.bool_)):
        return bool(val)
    if isinstance(val, (int, np.integer)):
        return int(val)
    if isinstance(val, np.floating):
        return float(val)
    return val


def run_scenario(sc: dict, out_dir: str, jobs: int | None = None,
                 seed: int = 42, dump_vectors: bool = False) -> dict:
    """Execute the sweep and write result files; returns the diagnostics dict."""
    freqs = sc["frequencies"]
    wave_basis = _sweep_basis(sc)
    ks = 2.0 * math.pi * freqs / SPEED_OF_LIGHT
    n_jobs = jobs or os.cpu_count() or 1

    def solve(k):
        return _solve_point(sc, float(k), wave_basis, seed)

    if n_jobs > 1 and len(ks) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=n_jobs) as pool:
            results = list(pool.map(solve, ks))
    else:
        results = [solve(k) for k in ks]

    n_modes = sc["n_modes"]
    tops = []
    for (ms, _), f in zip(results, freqs):
        ms.frequency_hz = float(f)
        tops.append(ms.top(n_modes))
    sweep = track_modes(tops, n_track=n_modes)

    # trace id per (point, mode)
    trace_of: dict[tuple[int, int], int] = {}
    for tr in sweep.traces:
        for pt, md in zip(tr.points, tr.modes):
            trace_of[(pt, md)] = tr.trace_id

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "traces.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for i, top in enumerate(tops):
            orth = max(top.diagnostics.get("orthogonality_a", 0.0) or 0.0,
                       top.diagnostics.get("orthogonality_f", 0.0) or 0.0)
            flags = top.diagnostics.get("cancellation_flags")
            lam = top.lam
            for rank in range(top.n_modes):
                t = top.t[rank]
                lam_r = lam[rank].real
                writer.writerow([
                    _fmt(freqs[i]),
                    trace_of.get((i, rank), -1),
                    rank + 1,
                    _fmt(t.real), _fmt(t.imag),
                    _fmt(abs(t)),
                    "inf" if not np.isfinite(lam_r) else _fmt(lam_r),
                    _fmt(top.circle_deviation[rank]),
                    _fmt(orth),
                    int(bool(flags[rank])) if flags is not None and rank < len(flags) else 0,
                ])

    diagnostics = {
        "solver": sc["solver"],
        "seed": seed,
        "n_modes": n_modes,
        "basis_l_max": wave_basis.l_max,
        "basis_size": wave_basis.size,
        "per_frequency": [
            {
                "frequency_hz": float(f),
                "max_circle_deviation": float(ms.circle_deviation.max(initial=0.0)),
                **{key: _json_scalar(val) for key, val in point_diag.items()},
            }
            for f, (ms, point_diag) in zip(freqs, results)
        ],
    }
    with open(os.path.join(out_dir, "diagnostics.json"), "w", encoding="utf-8") as fh:
        json.dump(diagnostics, fh, indent=2, sort_keys=True)
        fh.write("\n")

    if dump_vectors:
        payload = []
        for f, top in zip(freqs, tops):
            vecs = None
            if top.a is not None:
                vecs = [[[_fmt(z.real), _fmt(z.imag)] for z in top.a[:, n]]
                        for n in range(top.n_modes)]
            payload.append({"frequency_hz": float(f), "a": vecs})
        with open(os.path.join(out_dir, "vectors.json"), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")
    return diagnostics


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _read_traces(path: str) -> dict[float, list[complex]]:
    by_freq: dict[float, list[complex]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            f = float(row["frequency_hz"])
            by_freq.setdefault(f, []).append(
                complex(float(row["re_t"]), float(row["im_t"])))
    return by_freq


def _matched(ta: np.ndarray, tb: np.ndarray):
    """Rows of ta and their deviations |ta - tb| under the optimal one-to-one matching."""
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(ta[:, None] - tb[None, :])
    rows, cols = linear_sum_assignment(cost)
    return rows, cost[rows, cols]


def compare_results(path_a: str, path_b: str, tol: float) -> dict:
    """Optimal per-frequency matching of two trace files; worst deviation vs tol."""
    a = _read_traces(path_a)
    b = _read_traces(path_b)
    if sorted(a) != sorted(b):
        raise ShapeError("frequency grids differ between the two result files")
    worst = (0.0, None, None)
    total, count = 0.0, 0
    for f in sorted(a):
        ta = np.array(a[f])
        tb = np.array(b[f])
        if ta.size != tb.size:
            raise ShapeError(f"mode counts differ at frequency {f!r}")
        rows, dev = _matched(ta, tb)
        total += float(dev.sum())
        count += dev.size
        j = int(np.argmax(dev))
        if dev[j] >= worst[0]:
            worst = (float(dev[j]), f, int(rows[j]))
    return {
        "max_deviation": worst[0],
        "mean_deviation": total / max(count, 1),
        "worst_frequency_hz": worst[1],
        "worst_mode_index": worst[2],
        "tol": tol,
        "passed": bool(worst[0] <= tol),
    }


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def run_checks(sc: dict) -> dict:
    """Invariant suite over the sweep grid; no result files are produced."""
    freqs = sc["frequencies"]
    wave_basis = _sweep_basis(sc)
    scene = sc["scene"]
    tol = sc["tolerances"]
    tol_unitary = tol.get("unitarity", 1e-8)
    tol_circle = tol.get("circle", 1e-8)
    tol_power = tol.get("power", 1e-8)
    tol_equiv = tol.get("equivalence", 1e-6)

    report = {"per_frequency": [], "passed": True}
    for f in freqs:
        k = 2.0 * math.pi * float(f) / SPEED_OF_LIGHT
        entry: dict = {"frequency_hz": float(f)}
        if sc["sphere"] is not None:
            system, diag = _hybrid_system(sc, k, wave_basis)
            entry.update(diag)
            blocks = system.blocks
        else:
            blocks = assemble_impedance(scene, k, wave_basis)
        ts = transition(blocks=blocks)
        if sc["sphere"] is None:
            entry["tilde_identity_residual"] = \
                tilde_tmatrix(blocks, ts=ts).meta["identity_residual"]
        ms = cm_scattering(ts.S, ts.S_b, k=k, span=substructure_span(ts))
        if scene.ground_plane:
            entry["parity_leakage"] = parity_leakage(ts)
        else:
            ms_alt = cm_impedance_substructure(blocks, k=k)
            sig = 10.0 * tol_equiv
            t1 = ms.t[np.abs(ms.t) > sig]
            t2 = ms_alt.t[np.abs(ms_alt.t) > sig]
            entry["equivalence"] = float(_matched(t1, t2)[1].max(initial=0.0)) \
                if t1.size == t2.size else math.inf

        entry["unitarity_S"] = ms.diagnostics["unitarity_S"]
        entry["unitarity_S_b"] = ms.diagnostics["unitarity_S_b"]
        entry["t_power"] = check_t_power(ts.T).deviation
        entry["max_circle_deviation"] = float(ms.circle_deviation.max(initial=0.0))
        entry["orthogonality"] = max(ms.diagnostics.get("orthogonality_a", 0.0),
                                     ms.diagnostics.get("orthogonality_f", 0.0))
        entry["power_identity"] = float(
            substructure_power_check(ts.T, ts.T_b, ms).max(initial=0.0))
        ok = (
            entry["unitarity_S"] <= tol_unitary
            and entry["unitarity_S_b"] <= tol_unitary
            and entry["t_power"] <= tol_unitary
            and entry["max_circle_deviation"] <= tol_circle
            and entry["power_identity"] <= tol_power
            and entry.get("equivalence", 0.0) <= tol_equiv
            and entry.get("parity_leakage", 0.0) <= tol_equiv
            and entry.get("tilde_identity_residual", 0.0) <= tol_equiv
        )
        entry["passed"] = bool(ok)
        report["passed"] = report["passed"] and bool(ok)
        report["per_frequency"].append(entry)
    return report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scatmodes",
        description="Characteristic and substructure characteristic modes "
                    "of lossless scatterers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="sweep a scenario and write modal traces")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--jobs", type=int, default=None,
                       help="worker pool size (default: available parallelism)")
    p_run.add_argument("--seed", type=int, default=42,
                       help="random seed for the iterative start vector")
    p_run.add_argument("--dump-vectors", action="store_true")

    p_cmp = sub.add_parser("compare", help="compare two traces.csv files")
    p_cmp.add_argument("result_a")
    p_cmp.add_argument("result_b")
    p_cmp.add_argument("--tol", type=float, required=True)

    p_chk = sub.add_parser("checks", help="run only the invariant suite")
    p_chk.add_argument("--scenario", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            sc = load_scenario(args.scenario)
            out_dir = args.out or sc["output"] or "scatmodes_out"
            diagnostics = run_scenario(sc, out_dir, jobs=args.jobs, seed=args.seed,
                                       dump_vectors=args.dump_vectors)
            print(f"wrote {os.path.join(out_dir, 'traces.csv')} "
                  f"({len(diagnostics['per_frequency'])} frequency points)")
            return 0
        if args.command == "compare":
            report = compare_results(args.result_a, args.result_b, args.tol)
            print(json.dumps(report, indent=2, sort_keys=True))
            return 0 if report["passed"] else 1
        if args.command == "checks":
            sc = load_scenario(args.scenario)
            report = run_checks(sc)
            print(json.dumps(report, indent=2, sort_keys=True))
            return 0 if report["passed"] else 1
    except ScenarioError as err:
        print(f"scenario error: {err}", file=sys.stderr)
        return 2
    except (ShapeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (DomainError, GeometryError, MappingError, ResolutionError, SolveError) as err:
        print(f"solver error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
