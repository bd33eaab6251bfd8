"""Scenario-driven command line front end.

Subcommands
-----------
``run --scenario FILE [--out DIR] [--jobs N] [--seed S] [--dump-vectors]``
    Sweep a JSON scenario over its frequency grid with the selected
    solver path, track modes, and write ``traces.csv`` plus
    ``diagnostics.json`` (and optionally ``vectors.json``, each written
    mode's excitation over the whole wave basis and port channels).
``compare A B --tol T``
    Optimally match modal traces of two result files per frequency and
    report the worst deviation against a tolerance.
``checks --scenario FILE``
    Run only the invariant suite (unitarity, power identity, path
    equivalence, and above a ground plane the parity leakage of the
    mirrored scene) and exit nonzero on violation.

Every scene kind is decomposed on the one block core: a ground-plane
scene's 3N image-reduced system, a port scene's terminated system with its
power-wave channels and a sphere scene's folded one (ports allowed) run
under every solver name, ``hybrid-*`` being aliases of ``dense-*``.

Identical scenario, seed, ``--jobs`` and available cores produce
byte-identical outputs: those fix the OpenBLAS thread counts that ``run``
and ``checks`` set for their sweep (``_blas_threads``).  Inside a
degenerate cluster (t equal to rounding) row order, vectors and trace ids
follow last-digit rounding, so they can differ across BLAS builds or
kernels, while ``compare``, which matches by t, does not.

``main`` has ``gc.freeze`` run at exit, so interpreter exit skips collecting what is alive.
"""

from __future__ import annotations

import argparse
import atexit
import concurrent.futures
import contextlib
import csv
import ctypes
import gc
import json
import math
import os
import sys
import numpy as np
import scipy

from . import swe
from .dipoles import (
    DipoleScene,
    Port,
    default_basis,
    mirror_scene,
    symmetric_positive_definite,
    transition,
)
from .exceptions import (
    DomainError,
    GeometryError,
    ResolutionError,
    ShapeError,
    SolveError,
)
from .hybrid import assemble_hybrid  # noqa: F401 (traced by perfbench/child.py)
from .hybrid import hybrid_impedance_modes  # noqa: F401 (traced by perfbench/child.py)
from .hybrid import hybrid_sweep_basis, sphere_fold
from .iterative import iterate
from .mie import SphereSpec
from .modes import (
    cm_impedance_substructure,
    cm_scattering,
    cm_t_form,
    parity_leakage,
    scattering_unitarity,
    substructure_power_check,
    tilde_tmatrix,
    track_modes,
)
from .network import check_t_power, check_unitary

SPEED_OF_LIGHT = 299792458.0

CSV_HEADER = [
    "frequency_hz", "trace_id", "mode_rank", "re_t", "im_t",
    "modal_significance", "lambda", "circle_dev", "orth_dev", "cancel_flag",
]


class ScenarioError(ValueError):
    """Scenario file is syntactically or semantically invalid."""


_REQUIRED = object()

#: the keys a scenario's ``tolerances`` may set, and their defaults
TOLERANCES = {"unitarity": 1e-8, "circle": 1e-8, "power": 1e-8, "equivalence": 1e-6,
              "u4_residual": 1e-6}

_POLARIZABILITY = "a positive number or a symmetric positive-definite 3x3 tensor"


def _field(obj: dict, key: str, context: str, valid=None, what: str = "",
           default=_REQUIRED):
    """``obj[key]`` (``default`` if given and absent); a ``ScenarioError`` names the field
    where ``obj`` is no JSON object, a required key is missing or ``valid(value)`` fails."""
    if not isinstance(obj, dict):
        raise ScenarioError(f"field '{context.rstrip('.')}' must be a JSON object")
    if key not in obj and default is _REQUIRED:
        raise ScenarioError(f"missing required field '{context}{key}'")
    value = obj.get(key, default)
    if valid is not None and not valid(value):
        raise ScenarioError(f"field '{context}{key}' must be {what}, got {value!r}")
    return value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def _is_count(value, minimum: int = 1) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def _shape(value):
    """Shape of ``value`` read as an array of finite floats; None if it is not one."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        return None
    return arr.shape if np.isfinite(arr).all() else None


def _tensor(value) -> np.ndarray:
    """A polarizability field, a number or a 3x3 tensor, as a 3x3 tensor."""
    a = np.asarray(value, dtype=float)
    return a * np.eye(3) if a.ndim == 0 else a


def _built(context: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``: a library object, whose constructor owns the ranges of its
    fields; its ``DomainError`` becomes a ``ScenarioError`` naming ``context``."""
    try:
        return make(*args, **kwargs)
    except DomainError as err:
        raise ScenarioError(f"field '{context}' is out of range: {err}") from None


def parse_scenario(raw: dict) -> dict:
    """Validate a scenario dictionary; error messages name the offending field."""
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    _field(raw, "version", "", lambda v: _is_count(v) and v == 1, "the integer 1")
    scene_raw = _field(raw, "scene", "")
    positions, alphas, regions = [], [], []
    for i, d in enumerate(_field(scene_raw, "dipoles", "scene.",
                                 lambda v: isinstance(v, list), "a list of objects")):
        ctx = f"scene.dipoles[{i}]."
        positions.append(_field(d, "position", ctx, lambda v: _shape(v) == (3,),
                                "3 finite numbers"))
        alphas.append(_field(d, "polarizability", ctx, lambda v: _shape(v) in ((), (3, 3)),
                             _POLARIZABILITY))
        regions.append(_field(d, "region", ctx, lambda v: v in ("controllable", "background"),
                              "'controllable' or 'background'", "controllable"))
    n = len(positions)
    tensors = np.reshape([_tensor(a) for a in alphas], (n, 3, 3))
    bad = np.flatnonzero(~symmetric_positive_definite(tensors))
    if bad.size:
        raise ScenarioError(f"field 'scene.dipoles[{bad[0]}].polarizability' must be "
                            f"{_POLARIZABILITY}, got {alphas[bad[0]]!r}")
    ports = tuple(
        _built(f"scene.ports[{i}]", Port,
               _field(p, "dipole", f"scene.ports[{i}].",
                      lambda v: _is_count(v, 0) and v < len(regions) and regions[v] == "controllable",
                      "the index of a controllable dipole"),
               _field(p, "axis", f"scene.ports[{i}].", lambda v: v in ("x", "y", "z", 0, 1, 2)
                      and not isinstance(v, bool), "'x', 'y' or 'z'"),
               _field(p, "z0", f"scene.ports[{i}].", _is_number, "a finite number"))
        for i, p in enumerate(_field(scene_raw, "ports", "scene.",
                                     lambda v: isinstance(v, list), "a list of objects", []))
    )
    ground_plane = _field(scene_raw, "ground_plane", "scene.",
                          lambda v: isinstance(v, bool), "true or false", False)
    sp = scene_raw.get("sphere")
    sphere = None if sp is None else _built(
        "scene.sphere", SphereSpec,
        radius=_field(sp, "radius", "scene.sphere.", _is_number, "a finite number"),
        material=_field(sp, "material", "scene.sphere.", lambda v: v in ("pec", "dielectric"),
                        "'pec' or 'dielectric'", "pec"),
        eps_r=_field(sp, "eps_r", "scene.sphere.", _is_number, "a finite number", 1.0),
        mu_r=_field(sp, "mu_r", "scene.sphere.", _is_number, "a finite number", 1.0),
    )
    if sphere is not None and ground_plane:  # the background would be the sphere and its image
        raise ScenarioError("field 'scene.sphere' cannot be combined with a ground plane")
    scene = DipoleScene(positions=np.asarray(positions, dtype=float).reshape(n, 3),
                        polarizability=tensors, region=tuple(regions), ports=ports,
                        ground_plane=ground_plane, sphere=sphere)
    sweep = _field(raw, "sweep", "")
    f_min = _field(sweep, "f_min", "sweep.", _is_number, "a finite number")
    f_max = _field(sweep, "f_max", "sweep.", _is_number, "a finite number")
    n_points = _field(sweep, "n_points", "sweep.", _is_count, "an integer >= 1")
    if not 0 < f_min <= f_max:
        raise ScenarioError("sweep must satisfy 0 < f_min <= f_max")
    solver = _field(raw, "solver", "")
    if solver not in SOLVERS:
        raise ScenarioError(f"unknown solver '{solver}'; valid: {', '.join(SOLVERS)}")
    tolerances = _field(raw, "tolerances", "", lambda v: isinstance(v, dict), "an object", {})
    for key in tolerances:
        if key not in TOLERANCES:
            raise ScenarioError(f"unknown field 'tolerances.{key}'; "
                                f"valid: {', '.join(TOLERANCES)}")
        _field(tolerances, key, "tolerances.", lambda v: _is_number(v) and v > 0,
               "a finite positive number")
    return {
        "scene": scene,
        "frequencies": np.linspace(f_min, f_max, n_points),
        "solver": solver,
        "n_modes": _field(raw, "n_modes", "", _is_count, "an integer >= 1", 6),
        "tolerances": {**TOLERANCES, **tolerances},
        "output": _field(raw, "output", "", lambda v: v is None or isinstance(v, str),
                         "a directory name", None),
    }


def load_scenario(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ScenarioError(f"cannot read scenario file: {err}")
    except UnicodeDecodeError as err:
        raise ScenarioError(f"scenario file is not UTF-8 text (byte {err.start}): {err.reason}")
    except json.JSONDecodeError as err:
        raise ScenarioError(f"scenario is not valid JSON (line {err.lineno}): {err.msg}")
    return parse_scenario(raw)


def _sweep_basis(sc: dict):
    """One shared wave basis for the whole sweep, sized at the highest frequency, the
    angular factors of its wave tables at the dipoles in system order, built once and
    shared read-only by the points, and each point's sphere ``fold`` for ``transition``
    (None without a sphere) with what the point records of it: (basis,
    ``swe.AngularFactors``, [(fold, record)]).

    A sphere scene's basis also meets the U4 truncation tolerance at every frequency
    where a few more degrees can (``hybrid_sweep_basis``); ``sphere_fold`` raises where not.
    """
    scene = sc["scene"]
    if scene.sphere is not None:
        tol = sc["tolerances"]["u4_residual"]
        ks = 2.0 * math.pi * sc["frequencies"] / SPEED_OF_LIGHT
        wave_basis, angular, expansions = hybrid_sweep_basis(scene, ks, tol)
        return wave_basis, angular, [
            (sphere_fold(scene, float(k), wave_basis, expansion, tol),
             {"u4_residual": float(expansion[1].max(initial=0.0))})
            for k, expansion in zip(ks, expansions)]
    k_max = 2.0 * math.pi * sc["frequencies"][-1] / SPEED_OF_LIGHT
    wave_basis = default_basis(scene, k_max)
    return (wave_basis, swe.angular_factors(wave_basis, scene.positions[scene.system_order]),
            [(None, {})] * len(sc["frequencies"]))


# Engines: (blocks, scenario, seed, point diagnostics) -> ModeSet.
# Each records in the point diagnostics what it computed on the way.

def _scattering(blocks, sc: dict, seed: int, diag: dict):
    """``cm_scattering`` on the range of ``S - S_b``: its engine, rank and unitarity checks."""
    ms = cm_scattering(blocks, n_modes=sc["n_modes"])
    diag.update(engine=ms.diagnostics["solver"], rank=ms.diagnostics["rank"])
    diag.update((key, ms.diagnostics[key])
                for key in ("unitarity_S", "unitarity_S_b", "unitarity_form"))
    return ms


def _impedance(blocks, sc: dict, seed: int, diag: dict):
    """``cm_impedance_substructure``: its engine and the spread of the compressed R~."""
    ms = cm_impedance_substructure(blocks, n_modes=sc["n_modes"])
    diag.update(engine=ms.diagnostics["solver"], r_condition=ms.diagnostics["r_condition"])
    return ms


def _t_form(blocks, sc: dict, seed: int, diag: dict):
    diag.update(scattering_unitarity(blocks))
    return cm_t_form(blocks.T, blocks.T_b, basis=blocks.basis)


def _iterative(blocks, sc: dict, seed: int, diag: dict):
    diag.update(scattering_unitarity(blocks))
    ms = iterate(blocks, n_modes=sc["n_modes"], seed=seed)
    diag.update(iterations=ms.diagnostics["iterations"], converged=ms.diagnostics["converged"])
    return ms


#: solver name -> engine; each runs every scene kind (the ``hybrid-*`` names are aliases)
SOLVER_TABLE = {
    "dense-scattering": _scattering,
    "dense-impedance": _impedance,
    "t-form": _t_form,
    "iterative": _iterative,
    "hybrid-impedance": _impedance,
    "hybrid-scattering": _scattering,
}
SOLVERS = tuple(SOLVER_TABLE)


def _solve_point(sc: dict, k: float, wave_basis, seed: int, angular, point=(None, {})):
    """One frequency point, on the factorised blocks ``transition`` assembles for every scene
    kind, a sphere folded in by the point's ``(fold, record)`` from ``_sweep_basis``; returns
    (ModeSet, diagnostics dict)."""
    fold, record = point
    blocks = transition(sc["scene"], k, wave_basis, angular, fold)
    diag = {**record, "factorization_residual": blocks.radiation_defect[0]}
    return SOLVER_TABLE[sc["solver"]](blocks, sc, seed, diag), diag


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


# ---------------------------------------------------------------------------
# BLAS thread pools
# ---------------------------------------------------------------------------

#: (getter, setter) names of an OpenBLAS thread count; numpy's and scipy's
#: bundled builds prefix them, and a 64-bit-integer build appends ``64_``.
_THREAD_CALLS = tuple((f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
                      for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", ""))


def _cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _openblas_pools() -> list[tuple]:
    """(path, get, set) of the thread count of each OpenBLAS mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    pools = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _THREAD_CALLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, put = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                pools.append((path, get, put))
                break
    return pools


@contextlib.contextmanager
def _blas_threads(n_jobs: int):
    """Size each OpenBLAS thread pool for ``n_jobs`` points solved at once.

    numpy and scipy each bundle an OpenBLAS with its own thread pool.  After
    a numpy product that pool's idle threads keep spinning for a while and
    take cores from the scipy factorisation that follows.  So scipy's
    library (under scipy's install, or the only OpenBLAS loaded) gets
    ``max(1, cores // n_jobs)`` threads and every other one 1; each gets
    its previous count back on exit, also on an exception.  Yields the
    record kept as the ``blas`` entry of ``diagnostics.json``; where no
    OpenBLAS is found (no ``/proc``, or MKL or Accelerate) nothing is set
    and its ``libraries`` is empty.
    """
    cores = _cores()
    pools = _openblas_pools()
    scipy_dirs = tuple(os.path.dirname(scipy.__file__) + tail + os.sep for tail in ("", ".libs"))
    before = [get() for _, get, _ in pools]
    try:
        for path, _, put in pools:
            runs_lapack = len(pools) == 1 or path.startswith(scipy_dirs)
            put(max(1, cores // n_jobs) if runs_lapack else 1)
        yield {"jobs": n_jobs, "cores": cores, "libraries": [
            {"library": os.path.basename(path), "threads": get(), "threads_before": count}
            for (path, get, _), count in zip(pools, before)]}
    finally:
        for (_, _, put), count in zip(pools, before):
            put(count)


def run_scenario(sc: dict, out_dir: str, jobs: int | None = None,
                 seed: int = 42, dump_vectors: bool = False) -> dict:
    """Execute the sweep and write result files; returns the diagnostics dict."""
    freqs = sc["frequencies"]
    ks = 2.0 * math.pi * freqs / SPEED_OF_LIGHT
    n_jobs = max(1, min(jobs or _cores(), len(ks)))  # points solved at once

    with _blas_threads(n_jobs) as blas:
        wave_basis, angular, points = _sweep_basis(sc)

        def solve(k, point):
            return _solve_point(sc, float(k), wave_basis, seed, angular, point)

        if n_jobs > 1:
            with concurrent.futures.ThreadPoolExecutor(max_workers=n_jobs) as pool:
                results = list(pool.map(solve, ks, points))
        else:
            results = [solve(k, point) for k, point in zip(ks, points)]

    n_modes = sc["n_modes"]
    tops = [ms.top(n_modes) for ms, _ in results]

    # trace id per (point, mode)
    trace_of: dict[tuple[int, int], int] = {}
    for tr in track_modes(tops):
        for pt, md in zip(tr.points, tr.modes):
            trace_of[(pt, md)] = tr.trace_id

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "traces.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for i, top in enumerate(tops):
            orth, flags = top.orthogonality, top.cancellation
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
                    int(flags[rank]),
                ])

    diagnostics = {
        "solver": sc["solver"],
        "seed": seed,
        "n_modes": n_modes,
        "basis_l_max": wave_basis.l_max,
        "basis_size": wave_basis.size,
        "blas": blas,
        "per_frequency": [
            {
                "frequency_hz": float(f),
                "max_circle_deviation": float(top.circle_deviation.max(initial=0.0)),
                **{key: _json_scalar(val) for key, val in point_diag.items()},
            }
            for f, top, (_, point_diag) in zip(freqs, tops, results)
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
    """t of each mode by frequency in a ``traces.csv``; a malformed file raises ``ShapeError``."""
    by_freq: dict[float, list[complex]] = {}
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:  # bad bytes: U+FFFD
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                f, re_t, im_t = (float(row[key]) for key in ("frequency_hz", "re_t", "im_t"))
            except KeyError as err:
                raise ShapeError(f"{path} has no {err} column") from None
            except (TypeError, ValueError):  # a short row reads None
                f = re_t = im_t = math.nan
            if not all(map(math.isfinite, (f, re_t, im_t))):
                raise ShapeError(f"{path}, line {reader.line_num}: frequency_hz, re_t and im_t "
                                 "must be finite numbers")
            by_freq.setdefault(f, []).append(complex(re_t, im_t))
    return by_freq


def _matched(ta: np.ndarray, tb: np.ndarray):
    """Rows of ta and their deviations |ta - tb| under the optimal one-to-one matching."""
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(ta[:, None] - tb[None, :])
    rows, cols = linear_sum_assignment(cost)
    return rows, cost[rows, cols]


def compare_results(path_a: str, path_b: str, tol: float) -> dict:
    """Optimal per-frequency matching of two trace files; worst deviation vs tol."""
    a, b = _read_traces(path_a), _read_traces(path_b)
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
    """Invariant suite over the sweep grid, on the operators ``run`` decomposes.

    A ground-plane scene also reports the ``parity_leakage`` of its
    mirrored scene, the brute-force test of the image symmetry its reduced
    system assumes.  No result files are produced.
    """
    freqs = sc["frequencies"]
    scene = sc["scene"]
    tol = sc["tolerances"]

    report = {"per_frequency": [], "passed": True}
    with _blas_threads(1):
        wave_basis, angular, points = _sweep_basis(sc)
        for f, (fold, record) in zip(freqs, points):
            k = 2.0 * math.pi * float(f) / SPEED_OF_LIGHT
            blocks = transition(scene, k, wave_basis, angular, fold)
            entry = {"frequency_hz": float(f), **record,
                     "tilde_identity_residual": tilde_tmatrix(blocks)[1]}
            ms = cm_scattering(blocks)
            ms_alt = cm_impedance_substructure(blocks)
            sig = 10.0 * tol["equivalence"]
            t1 = ms.t[np.abs(ms.t) > sig]
            t2 = ms_alt.t[np.abs(ms_alt.t) > sig]
            entry["equivalence"] = float(_matched(t1, t2)[1].max(initial=0.0)) \
                if t1.size == t2.size else math.inf
            if scene.ground_plane:
                entry["parity_leakage"] = \
                    parity_leakage(transition(mirror_scene(scene), k, wave_basis))

            # S, S_b and T on all waves and port channels, checked densely;
            # the engine's own check is reused where it was that one
            engine_dense = ms.diagnostics["unitarity_form"] == "dense"
            for key, op in (("unitarity_S", blocks.S), ("unitarity_S_b", blocks.S_b)):
                entry[key] = ms.diagnostics[key] if engine_dense else check_unitary(op)
            entry["t_power"] = check_t_power(blocks.T)
            entry["max_circle_deviation"] = float(ms.circle_deviation.max(initial=0.0))
            entry["orthogonality"] = ms.orthogonality
            entry["power_identity"] = float(
                substructure_power_check(blocks.T, blocks.T_b, ms).max(initial=0.0))
            ok = (
                entry["unitarity_S"] <= tol["unitarity"]
                and entry["unitarity_S_b"] <= tol["unitarity"]
                and entry["t_power"] <= tol["unitarity"]
                and entry["max_circle_deviation"] <= tol["circle"]
                and entry["power_identity"] <= tol["power"]
                and entry.get("equivalence", 0.0) <= tol["equivalence"]
                and entry.get("parity_leakage", 0.0) <= tol["equivalence"]
                and entry["tilde_identity_residual"] <= tol["equivalence"]
            )
            entry["passed"] = bool(ok)
            report["passed"] = report["passed"] and bool(ok)
            report["per_frequency"].append(entry)
    return report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _int_at_least(lower: int):
    """Argument type of an integer of at least ``lower`` (``--jobs`` 1, ``--seed`` 0)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = lower - 1
        if value < lower:
            raise argparse.ArgumentTypeError(f"expected an integer >= {lower}, got {text!r}")
        return value
    return parse


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
    p_run.add_argument("--jobs", type=_int_at_least(1), default=None,
                       help="points solved at once, which also sizes the BLAS thread "
                            "pools (default: available cores)")
    p_run.add_argument("--seed", type=_int_at_least(0), default=42,
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
    # Unregister first, so the hook is registered once however often main runs.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
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
    except (DomainError, GeometryError, ResolutionError, SolveError) as err:
        print(f"solver error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
