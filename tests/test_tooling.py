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


def _count_calls(monkeypatch, calls, module, name):
    """Count calls made through the binding ``module.name`` in ``calls[name]``."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_assemble_u4_reaches_each_traced_swe_layer_once(monkeypatch):
    # the benchmark's swe.* layer metrics count calls through these module
    # attributes; inlining the projection into the hybrid or building the
    # table twice would silently change what they measure
    from scatmodes import DipoleScene, HybridScene, SphereSpec, assemble_u4, basis, swe

    calls = {}
    _count_calls(monkeypatch, calls, swe, "regular_wave_table")
    _count_calls(monkeypatch, calls, swe, "project_onto_regular")
    scene = HybridScene(DipoleScene([[0.0, 0.0, 0.5], [0.4, 0.0, 0.0]], 0.1),
                        SphereSpec(0.002, "dielectric", eps_r=4.0))
    assemble_u4(scene, 1.0, basis(8))
    assert calls == {"regular_wave_table": 1, "project_onto_regular": 1}


def test_assemble_hybrid_projects_nothing_and_tabulates_only_the_dipoles(monkeypatch):
    # U4 comes from the closed form: no quadrature sphere, no projection,
    # and every wave table is evaluated at the N dipole positions at most
    from scatmodes import DipoleScene, HybridScene, SphereSpec, assemble_hybrid, basis, swe

    calls = {}
    _count_calls(monkeypatch, calls, swe, "sphere_quadrature")
    _count_calls(monkeypatch, calls, swe, "project_onto_regular")
    points = []
    wave_table = swe._wave_table

    def recording(wave_basis, k, pts, kind):
        points.append(np.atleast_2d(pts).shape[0])
        return wave_table(wave_basis, k, pts, kind)

    monkeypatch.setattr(swe, "_wave_table", recording)
    positions = [[0.0, 0.0, 0.5], [0.4, 0.0, 0.0], [0.0, -0.45, 0.1]]
    scene = HybridScene(DipoleScene(positions, 0.1, ("background",) + ("controllable",) * 2),
                        SphereSpec(0.05, "dielectric", eps_r=4.0))
    assemble_hybrid(scene, 1.0, basis(8), residual_tol=1.0)
    assert calls == {}
    assert points and max(points) <= len(positions)


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


@pytest.mark.parametrize("case", ["dense-scattering", "hybrid-scattering"])
def test_checks_build_transition_and_schur_system_once_per_point(case, monkeypatch):
    # T, T_b and the Schur elimination are shared by the scattering,
    # modified-transition and impedance checks of a point, not rebuilt for each
    from scatmodes import hybrid, modes

    calls = {}
    for module in (cli, modes, hybrid):
        if hasattr(module, "transition"):
            _count_calls(monkeypatch, calls, module, "transition")
    # every elimination builds one SchurSystem, however often it is asked for
    _count_calls(monkeypatch, calls, modes, "SchurSystem")
    sc = cli.parse_scenario(FACTORISATION_CASES[case])
    cli.run_checks(sc)
    n_points = len(sc["frequencies"])
    assert calls == {"transition": n_points, "SchurSystem": n_points}


@pytest.mark.parametrize("case", ["dense-scattering", "ground-plane-dense-scattering",
                                  "port", "hybrid-scattering"])
def test_scattering_solvers_decompose_only_the_range(case, monkeypatch):
    # the scattering solvers' Schur decompositions are at most 3 N_c square,
    # never n x n over the whole wave basis
    sizes = []
    schur = scipy.linalg.schur

    def recording(a, *args, **kwargs):
        sizes.append(np.shape(a))
        return schur(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", recording)
    sc = cli.parse_scenario(FACTORISATION_CASES[case])
    wave_basis = cli._sweep_basis(sc)
    three_n_c = 3 * int(sc["scene"].is_controllable.sum())
    for f in sc["frequencies"]:
        cli._solve_point(sc, 2.0 * math.pi * f / cli.SPEED_OF_LIGHT, wave_basis, seed=1)
    assert sizes and max(max(shape) for shape in sizes) <= three_n_c < wave_basis.size


@pytest.mark.parametrize("case, builds", [
    ("dense-scattering", False), ("port", False), ("ground-plane-dense-scattering", False),
    ("t-form", True), ("iterative", True), ("checks", True),
])
def test_dense_scattering_builds_no_n_by_n_operator(case, builds, monkeypatch):
    # the range engine and the factored unitarity check work on the blocks'
    # factors; only the engines and checks that read T, T_b, S or S_b build
    # them (every one of them is made from a T built by dipoles._t_of)
    from scatmodes import dipoles

    calls = {}
    _count_calls(monkeypatch, calls, dipoles, "_t_of")
    if case == "checks":
        cli.run_checks(cli.parse_scenario(FACTORISATION_CASES["dense-scattering"]))
    else:
        sc = cli.parse_scenario(FACTORISATION_CASES[case])
        cli._solve_point(sc, 2.0 * math.pi * sc["frequencies"][0] / cli.SPEED_OF_LIGHT,
                         cli._sweep_basis(sc), seed=1)
    assert bool(calls) == builds, calls


def test_iterative_point_holds_few_system_sized_arrays():
    # one iterative point on a 150-dipole two-region scene whose basis
    # (198 waves) is smaller than its 450 unknowns, so the 3N x 3N arrays
    # dominate: the system matrix and its LU factors, plus bounded
    # temporaries, stay under 4.5 Z-sized arrays (scene-order and permuted
    # copies and an all-ordered-pairs Green table take about 5.8)
    import tracemalloc
    import warnings

    from conftest import random_positions

    rng = np.random.default_rng(150)
    n = 150
    dipoles = [{"position": [float(x) for x in p],
                "polarizability": 0.0005 * (1.0 + rng.random()),
                "region": "background" if i % 3 == 0 else "controllable"}
               for i, p in enumerate(random_positions(rng, n, 0.3, min_sep=0.02))]
    sc = cli.parse_scenario(_scenario(solver="iterative", n_modes=4,
                                      sweep={"f_min": 5.0e7, "f_max": 5.0e7, "n_points": 1},
                                      scene={"dipoles": dipoles}))
    wave_basis = cli._sweep_basis(sc)
    z_nbytes = (3 * n) ** 2 * np.dtype(complex).itemsize
    assert 2 * wave_basis.size < 3 * n
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tracemalloc.start()
        try:
            cli._solve_point(sc, 2.0 * math.pi * 5.0e7 / cli.SPEED_OF_LIGHT, wave_basis, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 4.5 * z_nbytes, peak / z_nbytes


def test_hybrid_sweep_computes_each_points_u4_once(monkeypatch):
    # the sweep basis evaluates the closed-form U4 at every frequency; the
    # points reuse those tables instead of evaluating them again
    from scatmodes import hybrid
    from conftest import hybrid_sweep_seed7

    calls = {}
    _count_calls(monkeypatch, calls, hybrid, "u4_expansion")
    sc = cli.parse_scenario(hybrid_sweep_seed7())
    wave_basis = cli._sweep_basis(sc)
    n_points = len(sc["frequencies"])
    assert calls == {"u4_expansion": n_points}  # the first basis tried passes
    for f in sc["frequencies"]:
        cli._solve_point(sc, 2.0 * math.pi * f / cli.SPEED_OF_LIGHT, wave_basis, seed=1)
    assert calls == {"u4_expansion": n_points}
    assert sc["hybrid"]._sweep_u4 == {}
