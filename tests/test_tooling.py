"""Guards for tooling that reaches into the library by name, and for the
work each frequency point does."""

import hashlib
import importlib
import importlib.util
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from scatmodes import cli
from test_cli import _ground_plane, _port, _scenario, _sphere_with_port, _write

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
TOOLS = sorted((Path(__file__).resolve().parents[1] / "tools").glob("*.py"))


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
    from scatmodes import DipoleScene, SphereSpec, assemble_u4, basis, swe

    calls = {}
    _count_calls(monkeypatch, calls, swe, "regular_wave_table")
    _count_calls(monkeypatch, calls, swe, "project_onto_regular")
    scene = DipoleScene([[0.0, 0.0, 0.5], [0.4, 0.0, 0.0]], 0.1,
                        sphere=SphereSpec(0.002, "dielectric", eps_r=4.0))
    assemble_u4(scene, 1.0, basis(8))
    assert calls == {"regular_wave_table": 1, "project_onto_regular": 1}


def test_assemble_hybrid_projects_nothing_and_tabulates_only_the_dipoles(monkeypatch):
    # U4 comes from the closed form: no quadrature sphere, no projection,
    # and every wave table is evaluated at the N dipole positions at most
    from scatmodes import DipoleScene, SphereSpec, assemble_hybrid, basis, swe

    calls = {}
    _count_calls(monkeypatch, calls, swe, "sphere_quadrature")
    _count_calls(monkeypatch, calls, swe, "project_onto_regular")
    points = []
    wave_table = swe.wave_table

    def recording(angular, k, kind="regular"):
        points.append(angular.points.shape[0])
        return wave_table(angular, k, kind)

    monkeypatch.setattr(swe, "wave_table", recording)
    positions = [[0.0, 0.0, 0.5], [0.4, 0.0, 0.0], [0.0, -0.45, 0.1]]
    scene = DipoleScene(positions, 0.1, ("background",) + ("controllable",) * 2,
                        sphere=SphereSpec(0.05, "dielectric", eps_r=4.0))
    assemble_hybrid(scene, 1.0, basis(8), residual_tol=1.0)
    assert calls == {}
    assert points and max(points) <= len(positions)


def test_importing_the_cli_leaves_scipy_special_out():
    # swe's recurrences are the library's spherical Bessel functions, so
    # scipy.special (about 0.04 s of start-up) is not imported
    code = "import sys, scatmodes.cli; print('scipy.special' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("command", [["run", "--jobs", "1"], ["run", "--jobs", "2"], ["checks"]],
                         ids=" ".join)
@pytest.mark.parametrize("scene", ["dipole", "hybrid"])
def test_a_sweep_builds_its_angular_factors_once(monkeypatch, tmp_path, scene, command):
    # the wave tables' angular factors depend on the basis and the dipoles
    # only: a sweep builds them once, and every point's tables (both of a
    # hybrid's) are evaluated from that one read-only copy, in every thread
    from scatmodes import swe

    built, tables = [], []
    angular_factors, wave_table = swe.angular_factors, swe.wave_table

    def building(*args):
        built.append(angular_factors(*args))
        return built[-1]

    def evaluating(angular, k, kind="regular"):
        tables.append(angular)
        return wave_table(angular, k, kind)

    monkeypatch.setattr(swe, "angular_factors", building)
    monkeypatch.setattr(swe, "wave_table", evaluating)
    scn = _scenario() if scene == "dipole" else _hybrid("hybrid-impedance")
    scn["sweep"] = {"f_min": 3.0e8, "f_max": 4.0e8, "n_points": 3}
    argv = command + ["--scenario", _write(tmp_path, scn)]
    if command[0] == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    assert len(built) == 1
    assert len(tables) >= 3 * (2 if scene == "hybrid" else 1)
    assert all(np.shares_memory(t.tangential, built[0].tangential) for t in tables)


def test_tables_from_passed_in_factors_are_the_tables():
    # one path: a table evaluated from the leading rows of a larger basis's
    # factors is byte-identical to the table from the basis's own factors
    # (regular_wave_table's, for regular waves), and its reshape to
    # (n_waves, 3 N) is a column-ordered view of it
    from scatmodes import ShapeError, swe

    points = np.random.default_rng(5).normal(size=(7, 3))
    small, large = swe.basis(6), swe.basis(14)
    factors = swe.angular_factors(large, points)
    for kind in ("regular", "outgoing"):
        for k in (0.4, 2.3):
            ref = swe.wave_table(swe.angular_factors(small, points), k, kind)
            if kind == "regular":
                assert ref.tobytes() == swe.regular_wave_table(small, k, points).tobytes()
            got = swe.wave_table(factors.leading(small, points), k, kind)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
            flat = got.reshape(small.size, -1)
            assert flat.flags.f_contiguous and np.shares_memory(flat, got)
    assert not factors.tangential.flags.writeable and not factors.radial.flags.writeable
    with pytest.raises(ShapeError):
        factors.leading(small, points[::-1])
    with pytest.raises(ShapeError):
        swe.angular_factors(small, points).leading(large, points)


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
       for solver in ("dense-scattering", "dense-impedance", "t-form", "iterative")},
    "port": _port(),
    **{f"port-{solver}": _port(solver) for solver in ("dense-impedance", "t-form", "iterative")},
    "hybrid-impedance": _hybrid("hybrid-impedance"),
    "hybrid-scattering": _hybrid("hybrid-scattering"),
    **{f"sphere-with-port-{solver}": _sphere_with_port(solver)
       for solver in ("hybrid-impedance", "hybrid-scattering")},
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
    wave_basis, angular, points = cli._sweep_basis(sc)
    for f, point in zip(sc["frequencies"], points):
        factorisations.clear()
        cli._solve_point(sc, 2.0 * math.pi * f / cli.SPEED_OF_LIGHT, wave_basis, seed=1,
                         angular=angular, point=point)
        _assert_each_factorised_once(factorisations)


@pytest.mark.parametrize("case", ["dense-scattering", "hybrid-scattering"])
def test_checks_factorise_each_matrix_once_per_point(case, factorisations):
    sc = cli.parse_scenario(FACTORISATION_CASES[case])
    cli.run_checks(sc)
    # the points' matrices differ, so one count over the sweep covers each point
    _assert_each_factorised_once(factorisations)


def test_compressed_impedance_is_factorised_once_per_blocks_object(factorisations):
    # the range engine, the modified transition matrix and the current
    # cross-check all solve with Z~ of one blocks object: one factorisation
    from scatmodes import cm_scattering, recover_currents, tilde_tmatrix, transition
    from conftest import random_scene

    blocks = transition(random_scene(np.random.default_rng(5), 8, 0.8, n_background=3), 1.0)
    recover_currents(cm_scattering(blocks), blocks)
    tilde_tmatrix(blocks)
    # Z, Z_bb and Z~
    assert sorted(shape for shape, _ in factorisations) == [(9, 9), (15, 15), (24, 24)]
    _assert_each_factorised_once(factorisations)


@pytest.mark.parametrize("case", ["dense-scattering", "hybrid-scattering"])
def test_checks_assemble_and_eliminate_once_per_point(case, monkeypatch):
    # one blocks object per point, whose T, T_b and Schur elimination are
    # shared by the scattering, modified-transition and impedance checks of
    # the point, not rebuilt for each
    from scatmodes import dipoles

    calls = {}
    _count_calls(monkeypatch, calls, dipoles, "assemble_impedance")  # every scene's one route
    # the elimination is made once, however often Z~ or U1~ is read
    _count_calls(monkeypatch, calls, dipoles.BlockImpedance, "_eliminate")
    sc = cli.parse_scenario(FACTORISATION_CASES[case])
    cli.run_checks(sc)
    n_points = len(sc["frequencies"])
    assert calls == {"assemble_impedance": n_points, "_eliminate": n_points}


@pytest.mark.parametrize("case", ["dense-scattering", "port", "ground-plane-dense-scattering",
                                  "hybrid-scattering"])
def test_checks_decompose_the_operators_the_solver_decomposes(case, monkeypatch):
    # checks runs on the blocks the run's solver works on: a port
    # scene's power-wave channels appended, a ground-plane scene image-reduced;
    # S and S_b on all waves and channels are checked densely once each per
    # point, by checks itself or, where the engine's own unitarity figures
    # are dense (every sphere point), by the engine alone
    from scatmodes import BlockImpedance, modes

    sc = cli.parse_scenario(FACTORISATION_CASES[case])
    wave_basis, angular, points = cli._sweep_basis(sc)
    ks = 2.0 * math.pi * sc["frequencies"] / cli.SPEED_OF_LIGHT
    run_modes = [cli._solve_point(sc, k, wave_basis, seed=1, angular=angular,
                                  point=point)[0] for k, point in zip(ks, points)]
    decomposed, checked = [], []
    cm_scattering, check_unitary = cli.cm_scattering, cli.check_unitary

    def recording_modes(*args, **kwargs):
        ms = cm_scattering(*args, **kwargs)
        decomposed.append((args[0], ms))
        return ms

    def recording_unitary(op, *args, **kwargs):
        checked.append(op)
        return check_unitary(op, *args, **kwargs)

    monkeypatch.setattr(cli, "cm_scattering", recording_modes)
    monkeypatch.setattr(cli, "check_unitary", recording_unitary)
    monkeypatch.setattr(modes, "check_unitary", recording_unitary)
    report = cli.run_checks(sc)
    assert report["passed"], report

    assert len(decomposed) == len(ks)
    operators = [op for blocks, _ in decomposed for op in (blocks.S, blocks.S_b)]
    assert len(checked) == len(operators)  # S and S_b of each point, through either binding
    assert all(op is expected for op, expected in zip(checked, operators))
    dim = wave_basis.size + len(sc["scene"].ports)
    for (blocks, ms), ms_run in zip(decomposed, run_modes):
        assert isinstance(blocks, BlockImpedance) and blocks.readout.shape[0] == dim
        n = min(ms.n_modes, ms_run.n_modes)
        assert np.abs(ms.t[:n] - ms_run.t[:n]).max() < 1e-12


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
    wave_basis, angular, points = cli._sweep_basis(sc)
    three_n_c = 3 * int(sc["scene"].is_controllable.sum())
    for f, point in zip(sc["frequencies"], points):
        cli._solve_point(sc, 2.0 * math.pi * f / cli.SPEED_OF_LIGHT, wave_basis, seed=1,
                         angular=angular, point=point)
    assert sizes and max(max(shape) for shape in sizes) <= three_n_c < wave_basis.size


@pytest.mark.parametrize("case, builds", [
    ("dense-scattering", False), ("port", False), ("ground-plane-dense-scattering", False),
    ("t-form", True), ("iterative", False), ("checks", True), ("dense-impedance", False),
])
def test_dense_scattering_builds_no_n_by_n_operator(case, builds, monkeypatch):
    # the range engine, the impedance and iterative engines and the factored
    # and bounded unitarity checks work on the blocks' factors; only the
    # engines and checks that read T, T_b, S or S_b build them (every one of
    # them is made by BlockImpedance._operator)
    from scatmodes.dipoles import BlockImpedance

    calls = {}
    _count_calls(monkeypatch, calls, BlockImpedance, "_operator")
    if case == "checks":
        cli.run_checks(cli.parse_scenario(FACTORISATION_CASES["dense-scattering"]))
    else:
        sc = cli.parse_scenario(FACTORISATION_CASES[case])
        wave_basis, angular, _ = cli._sweep_basis(sc)
        cli._solve_point(sc, 2.0 * math.pi * sc["frequencies"][0] / cli.SPEED_OF_LIGHT,
                         wave_basis, seed=1, angular=angular)
    assert bool(calls) == builds, calls


def test_iterative_cloud_point_bounds_unitarity_without_an_n_by_n_operator(monkeypatch):
    # with 3N > n/2 the unitarity figures are bounds from the radiation defect
    # the assembly kept, and the engine acts through the factors: neither
    # reaches BlockImpedance._operator
    from scatmodes.dipoles import BlockImpedance
    from conftest import random_scene

    scene = random_scene(np.random.default_rng(60), 60, 0.3, n_background=20)
    sc = cli.parse_scenario(_scenario(
        solver="iterative", sweep={"f_min": 5.0e7, "f_max": 5.0e7, "n_points": 1},
        scene={"dipoles": [{"position": p.tolist(), "polarizability": a.tolist(), "region": r}
                           for p, a, r in zip(scene.positions, scene.polarizability,
                                              scene.region)]}))
    wave_basis, angular, _ = cli._sweep_basis(sc)
    assert wave_basis.size < 2 * 3 * scene.n_dipoles
    calls = {}
    _count_calls(monkeypatch, calls, BlockImpedance, "_operator")
    _, diag = cli._solve_point(sc, 2.0 * math.pi * 5.0e7 / cli.SPEED_OF_LIGHT, wave_basis,
                               seed=1, angular=angular)
    assert diag["unitarity_form"] == "bound" and diag["converged"]
    assert max(diag["unitarity_S"], diag["unitarity_S_b"]) <= 1e-8
    assert not calls, calls


def _cloud_150():
    """A 150-dipole two-region ``iterative`` scenario at 50 MHz whose basis (198 waves) is
    smaller than its 450 unknowns, so the 3N x 3N arrays dominate: (sc, k, wave basis, angular
    factors, bytes of one Z-sized array)."""
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
    wave_basis, angular, _ = cli._sweep_basis(sc)
    assert 2 * wave_basis.size < 3 * n
    k = 2.0 * math.pi * 5.0e7 / cli.SPEED_OF_LIGHT
    return sc, k, wave_basis, angular, (3 * n) ** 2 * np.dtype(complex).itemsize


def _traced_peak(call):
    """Peak of the memory traced while ``call()`` runs, warnings ignored."""
    import tracemalloc
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_iterative_point_holds_few_system_sized_arrays():
    # one iterative point on the 150-dipole scene: the system matrix and its
    # LU factors, plus bounded temporaries, stay under 4.5 Z-sized arrays
    # (scene-order and permuted copies and an all-ordered-pairs Green table
    # take about 5.8)
    sc, k, wave_basis, angular, z_nbytes = _cloud_150()
    peak = _traced_peak(lambda: cli._solve_point(sc, k, wave_basis, seed=1, angular=angular))
    assert peak <= 4.5 * z_nbytes, peak / z_nbytes


def test_assembly_holds_two_system_sized_arrays():
    # assemble_impedance alone on the 150-dipole scene: Z, the copy of Re Z
    # its radiation check makes, and the chunked pair temporaries stay within
    # 2.0 Z-sized arrays (a fill of all pairs at once takes about 2.2)
    from scatmodes.dipoles import assemble_impedance

    sc, k, wave_basis, angular, z_nbytes = _cloud_150()
    peak = _traced_peak(lambda: assemble_impedance(sc["scene"], k, wave_basis, angular))
    assert peak <= 2.0 * z_nbytes, peak / z_nbytes


def test_hybrid_impedance_engine_holds_no_wave_sized_matrix():
    # on the hybrid-sweep blocks (448 waves, 12 unknowns) the impedance
    # engine applies S_b^H through the Z_bb factors and the sphere's Mie
    # diagonal, so its temporaries stay far below one n_waves x n_waves array
    import tracemalloc

    from conftest import hybrid_sweep_seed7
    from scatmodes.modes import cm_impedance_substructure

    sc = cli.parse_scenario(hybrid_sweep_seed7())
    wave_basis, angular, points = cli._sweep_basis(sc)
    k = 2.0 * math.pi * sc["frequencies"][-1] / cli.SPEED_OF_LIGHT
    blocks = cli.transition(sc["scene"], k, wave_basis, angular, points[-1][0])
    n_nbytes = wave_basis.size ** 2 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        cm_impedance_substructure(blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * n_nbytes, peak / n_nbytes


def test_hybrid_assembly_holds_no_wave_sized_matrix():
    # a hybrid point's assembly at hybrid-sweep's 448-wave basis folds the
    # sphere in by its Mie diagonal, a vector: the peak stays below one
    # n_waves x n_waves complex array (the n x n Mie matrix alone is one)
    from conftest import hybrid_sweep_seed7
    from scatmodes.hybrid import assemble_hybrid, hybrid_sweep_basis

    sc = cli.parse_scenario(hybrid_sweep_seed7())
    ks = 2.0 * math.pi * sc["frequencies"] / cli.SPEED_OF_LIGHT
    wave_basis, _, expansions = hybrid_sweep_basis(sc["scene"], ks, 1e-6)
    assert wave_basis.size == 448
    peak = _traced_peak(lambda: assemble_hybrid(sc["scene"], float(ks[-1]), wave_basis,
                                                expansion=expansions[-1]))
    n_nbytes = wave_basis.size ** 2 * np.dtype(complex).itemsize
    assert peak < n_nbytes, peak / n_nbytes


def test_hybrid_sweep_computes_each_points_u4_once(monkeypatch):
    # the sweep basis evaluates the closed-form U4 at every frequency; the
    # points reuse those tables instead of evaluating them again
    from scatmodes import hybrid
    from conftest import hybrid_sweep_seed7

    calls = {}
    _count_calls(monkeypatch, calls, hybrid, "u4_expansion")
    sc = cli.parse_scenario(hybrid_sweep_seed7())
    wave_basis, angular, points = cli._sweep_basis(sc)
    n_points = len(sc["frequencies"])
    assert calls == {"u4_expansion": n_points}  # the first basis tried passes
    for f, point in zip(sc["frequencies"], points):
        cli._solve_point(sc, 2.0 * math.pi * f / cli.SPEED_OF_LIGHT, wave_basis, seed=1,
                         angular=angular, point=point)
    assert calls == {"u4_expansion": n_points}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_to_the_end(demo, tmp_path, monkeypatch, capsys):
    # the demos call the library by name; each runs in-process to its last
    # line (a plot, where matplotlib is installed, is written to tmp_path)
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("tool", TOOLS, ids=lambda path: path.stem)
def test_tool_loads(tool, monkeypatch):
    # the tools import library names, private ones too (cli._blas_threads,
    # dipoles._readout_product, ...); each loads by path, without running
    # its main, so a removed name fails here
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert callable(runpy.run_path(str(tool), run_name="tool")["main"])


def test_compare_outputs_finds_a_tree_identical_to_itself(monkeypatch, capsys):
    # both sides this tree's src/: one dipole-sweep run under one solver,
    # with every exit code and file identical, exits 0
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = next(path for path in TOOLS if path.stem == "compare_outputs")
    main = runpy.run_path(str(tool), run_name="tool")["main"]
    monkeypatch.setitem(main.__globals__, "solvers", lambda name: ["dense-scattering"])
    root = Path(__file__).resolve().parents[1]
    assert main(["--parent-src", str(root / "src"), "--workload", "dipole-sweep",
                 "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert "exit 0/0" in out and "1 of 1 runs identical" in out
    assert "ok   dipole-sweep seed 1 checks: exit 0/0; report identical" in out
    assert "1 of 1 checks reports identical" in out


def test_compare_outputs_fails_a_run_both_sides_fail(monkeypatch, capsys):
    # a solver name no scenario accepts: both sides exit nonzero and write
    # nothing, which is no comparison, so the run is a DIFF and the tool exits 1;
    # the checks report of the workload's own scenario still matches
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = next(path for path in TOOLS if path.stem == "compare_outputs")
    main = runpy.run_path(str(tool), run_name="tool")["main"]
    monkeypatch.setitem(main.__globals__, "solvers", lambda name: ["no-such-solver"])
    root = Path(__file__).resolve().parents[1]
    assert main(["--parent-src", str(root / "src"), "--workload", "dipole-sweep",
                 "--seeds", "1"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("DIFF") and "traces.csv absent" in out
    assert "exit 0/0; traces" not in out and "0 of 1 runs identical" in out
    assert "1 of 1 checks reports identical" in out


def test_compare_outputs_fails_a_checks_report_both_sides_fail(monkeypatch, capsys):
    # a scenario both sides refuse: the two checks print the same (nothing) but exit
    # 2, which is no comparison either, so the report is a DIFF and the tool exits 1
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = next(path for path in TOOLS if path.stem == "compare_outputs")
    main = runpy.run_path(str(tool), run_name="tool")["main"]
    monkeypatch.setitem(main.__globals__, "solvers", lambda name: ["dense-scattering"])
    monkeypatch.setitem(main.__globals__, "scenario", lambda name, seed: {"version": 1})
    root = Path(__file__).resolve().parents[1]
    assert main(["--parent-src", str(root / "src"), "--workload", "dipole-sweep",
                 "--seeds", "1"]) == 1
    out = capsys.readouterr().out
    assert "DIFF dipole-sweep seed 1 checks: exit 2/2; report identical" in out
    assert "0 of 1 checks reports identical" in out


def test_bench_iterative_times_every_part_it_names(monkeypatch, capsys):
    # every part the stage tool times is called on a cloud point and on a
    # hybrid-sweep point (folded in as run folds it), so no part reads 0 ms;
    # a part whose name no longer reaches the code it times makes the tool
    # exit 1, naming it (here one iterate never calls)
    from scatmodes import modes

    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = next(path for path in TOOLS if path.stem == "bench_iterative")
    main = runpy.run_path(str(tool), run_name="tool")["main"]
    assert main(["--repeats", "1"]) == 0
    assert main(["--workload", "hybrid-sweep", "--repeats", "1"]) == 0
    out, err = capsys.readouterr()
    assert "never called" not in err and "hybrid-sweep seed 7, point 0" in out
    parts = main.__globals__["PARTS"] + (("engine", "dense Schur", modes, "_schur_eig"),)
    monkeypatch.setitem(main.__globals__, "PARTS", parts)
    assert main(["--repeats", "1"]) == 1
    assert "never called, so not timed: scatmodes.modes._schur_eig" in capsys.readouterr().err
