"""Guards for tooling that reaches into the library by name, and for the
work each frequency point does."""

import hashlib
import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from scatmodes import cli
from test_cli import _scenario

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def test_benchmark_traced_bindings_resolve():
    # the benchmark's traced child wraps these module attributes; a missing
    # one makes every traced run fail
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    missing = [f"{module_name}.{name}"
               for module_name, names in child.TRACED_BINDINGS
               for name in names
               if not callable(getattr(importlib.import_module(module_name), name, None))]
    assert child.TRACED_BINDINGS and not missing, missing


def test_assemble_u4_reaches_each_traced_swe_layer_once(monkeypatch):
    # the benchmark's swe.* layer metrics count calls through these module
    # attributes; inlining the projection into the hybrid or building the
    # table twice would silently change what they measure
    from scatmodes import DipoleScene, HybridScene, SphereSpec, assemble_u4, basis, swe

    calls = {}

    def counting(name):
        fn = getattr(swe, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(swe, name, wrapper)

    counting("regular_wave_table")
    counting("project_onto_regular")
    scene = HybridScene(DipoleScene([[0.0, 0.0, 0.5], [0.4, 0.0, 0.0]], 0.1),
                        SphereSpec(0.002, "dielectric", eps_r=4.0))
    assemble_u4(scene, 1.0, basis(8))
    assert calls == {"regular_wave_table": 1, "project_onto_regular": 1}


def _ground_plane(solver):
    scn = _scenario(solver=solver)
    for d in scn["scene"]["dipoles"]:
        d["position"][2] = abs(d["position"][2]) + 0.05
    scn["scene"]["ground_plane"] = True
    return scn


def _port():
    scn = _scenario()
    scn["scene"]["dipoles"] = [
        {"position": [0.0, -0.1, 0.0], "polarizability": 0.02},
        {"position": [0.0, 0.0, 0.0], "polarizability": 0.02},
        {"position": [0.0, 0.1, 0.0], "polarizability": 0.02},
    ]
    scn["scene"]["ports"] = [{"dipole": 1, "axis": "x", "z0": 73.0}]
    return scn


def _hybrid(solver):
    scn = _scenario(solver=solver, tolerances={"u4_residual": 1.0},
                    sweep={"f_min": 4.0e8, "f_max": 4.0e8, "n_points": 1})
    scn["scene"]["dipoles"] = [
        {"position": [0.30, 0.0, 0.03], "polarizability": 0.01},
        {"position": [0.0, 0.31, -0.03], "polarizability": 0.01, "region": "background"},
        {"position": [-0.29, 0.05, 0.0], "polarizability": 0.01},
    ]
    scn["scene"]["sphere"] = {"radius": 0.03, "material": "dielectric", "eps_r": 4.0}
    return scn


FACTORISATION_CASES = {
    **{solver: _scenario(solver=solver)
       for solver in ("dense-scattering", "dense-impedance", "t-form", "iterative")},
    **{f"ground-plane-{solver}": _ground_plane(solver)
       for solver in ("dense-scattering", "t-form", "iterative")},
    "port": _port(),
    "hybrid-impedance": _hybrid("hybrid-impedance"),
    "hybrid-scattering": _hybrid("hybrid-scattering"),
}


@pytest.fixture
def factorisations(monkeypatch):
    """``lu_factor`` calls per distinct matrix.

    A matrix is identified by its entries' magnitudes up to transposition,
    so factorising conj(Z_bb)^T counts against Z_bb; the content, not the
    size, tells Z_bb from Z~ when both are n_c x n_c.
    """
    counts = {}
    lu_factor = scipy.linalg.lu_factor

    def counting(a, *args, **kwargs):
        mag = np.abs(np.asarray(a))
        key = min((m.shape, hashlib.sha1(np.ascontiguousarray(m).tobytes()).hexdigest())
                  for m in (mag, mag.T))
        counts[key] = counts.get(key, 0) + 1
        return lu_factor(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lu_factor", counting)
    return counts


def _assert_each_factorised_once(counts):
    repeated = {shape: n for (shape, _), n in counts.items() if n > 1}
    assert counts and not repeated, f"matrices factorised more than once: {repeated}"


@pytest.mark.parametrize("case", FACTORISATION_CASES)
def test_each_solver_factorises_each_matrix_once_per_point(case, factorisations):
    # Z, Z_bb and the Schur complement Z~ are factorised at most once per
    # frequency point, whichever engine runs on the blocks
    sc = cli.parse_scenario(FACTORISATION_CASES[case])
    wave_basis = cli._sweep_basis(sc)
    for f in sc["frequencies"]:
        factorisations.clear()
        cli._solve_point(sc, 2.0 * math.pi * f / cli.SPEED_OF_LIGHT, wave_basis, seed=1)
        _assert_each_factorised_once(factorisations)


@pytest.mark.parametrize("case", ["dense-scattering", "hybrid-scattering"])
def test_checks_factorise_each_matrix_once_per_point(case, factorisations):
    sc = cli.parse_scenario(FACTORISATION_CASES[case])
    cli.run_checks(sc)
    # the points' matrices differ, so one count over the sweep covers each point
    _assert_each_factorised_once(factorisations)
