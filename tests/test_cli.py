import atexit
import csv
import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from scatmodes import cli
from scatmodes.cli import (
    SOLVER_TABLE,
    SPEED_OF_LIGHT,
    ScenarioError,
    _sweep_basis,
    compare_results,
    main,
    parse_scenario,
    run_checks,
    run_scenario,
)
from scatmodes.exceptions import SolveError
from scatmodes.mie import SphereSpec
from scatmodes.modes import CANCELLATION_THRESHOLD
from conftest import hybrid_sweep_seed7, random_scene


def _scenario(**overrides):
    base = {
        "version": 1,
        "scene": {
            "dipoles": [
                {"position": [0.0, 0.0, 0.08], "polarizability": 0.02,
                 "region": "controllable"},
                {"position": [0.06, 0.0, -0.05], "polarizability": 0.015,
                 "region": "controllable"},
                {"position": [-0.05, 0.05, 0.0], "polarizability": 0.02,
                 "region": "background"},
                {"position": [0.0, -0.07, -0.02], "polarizability": 0.025,
                 "region": "background"},
            ],
        },
        "sweep": {"f_min": 5.0e8, "f_max": 9.0e8, "n_points": 3},
        "solver": "dense-scattering",
        "n_modes": 5,
    }
    base.update(overrides)
    return base


def _hybrid_scenario(solver):
    scn = _scenario(solver=solver, sweep={"f_min": 5.0e8, "f_max": 5.0e8, "n_points": 1})
    scn["scene"]["dipoles"] = [
        {"position": [0.20, 0.0, 0.02], "polarizability": 0.004},
        {"position": [0.0, 0.21, -0.02], "polarizability": 0.004,
         "region": "background"},
    ]
    scn["scene"]["sphere"] = {"radius": 0.02, "material": "dielectric", "eps_r": 4.0}
    return scn


def _ground_plane(solver="dense-scattering"):
    scn = _scenario(solver=solver)
    for d in scn["scene"]["dipoles"]:
        d["position"][2] = abs(d["position"][2]) + 0.05
    scn["scene"]["ground_plane"] = True
    return scn


def _port(solver="dense-scattering"):
    scn = _scenario(solver=solver)
    scn["scene"]["dipoles"] = [
        {"position": [0.0, -0.1, 0.0], "polarizability": 0.02},
        {"position": [0.0, 0.0, 0.0], "polarizability": 0.02},
        {"position": [0.0, 0.1, 0.0], "polarizability": 0.02},
    ]
    scn["scene"]["ports"] = [{"dipole": 1, "axis": "x", "z0": 73.0}]
    return scn


def _write(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_single_dipole_three_degenerate_dominant_modes(tmp_path):
    sc = parse_scenario(_scenario(
        scene={"dipoles": [{"position": [0.0, 0.0, 0.0], "polarizability": 0.02}]},
        sweep={"f_min": 7.0e8, "f_max": 7.0e8, "n_points": 1},
        n_modes=4,
    ))
    out = tmp_path / "out"
    run_scenario(sc, str(out), jobs=1)
    with open(out / "traces.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    sig = [float(r["modal_significance"]) for r in rows]
    assert abs(sig[0] - sig[1]) < 1e-12 and abs(sig[0] - sig[2]) < 1e-12
    assert sig[3] < 1e-10  # everything beyond the three dipole modes is dark


@pytest.mark.parametrize("scenario", [
    _scenario(scene={"dipoles": [{"position": [0.0, 0.0, 0.0], "polarizability": 0.02}]},
              sweep={"f_min": 7.0e8, "f_max": 7.0e8, "n_points": 1}, n_modes=4),
    dict(_port(), sweep={"f_min": 5.0e8, "f_max": 5.0e8, "n_points": 1}),
], ids=["single-dipole", "port"])
def test_iterative_returns_every_mode_of_a_degenerate_eigenspace(tmp_path, scenario):
    # a single dipole radiates three equal modes, and the port scene has two
    # modes of |t| 0.942179: the block holds every one of them
    traces = []
    for solver in ("dense-scattering", "iterative"):
        run_scenario(parse_scenario(dict(scenario, solver=solver)), str(tmp_path / solver), jobs=1)
        traces.append(str(tmp_path / solver / "traces.csv"))
    report = compare_results(*traces, tol=1e-6)
    assert report["passed"], report


def test_missing_field_names_it(tmp_path, capsys):
    bad = _scenario()
    del bad["sweep"]["n_points"]
    code = main(["run", "--scenario", _write(tmp_path, bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "sweep.n_points" in capsys.readouterr().err


def test_invalid_solver_and_combos(tmp_path):
    # an unknown solver is refused; the hybrid-* names are aliases that run
    # any scene kind, byte for byte as the dense solvers they stand for
    with pytest.raises(ScenarioError):
        parse_scenario(_scenario(solver="magic"))
    for alias, solver in (("hybrid-impedance", "dense-impedance"),
                          ("hybrid-scattering", "dense-scattering")):
        for name in (alias, solver):
            run_scenario(parse_scenario(_scenario(solver=name)), str(tmp_path / name), jobs=1)
        assert (tmp_path / alias / "traces.csv").read_bytes() == \
            (tmp_path / solver / "traces.csv").read_bytes()


def test_dense_scattering_vs_impedance(tmp_path):
    scn = _scenario()
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_scenario(parse_scenario(scn), str(out_a), jobs=1)
    scn["solver"] = "dense-impedance"
    run_scenario(parse_scenario(scn), str(out_b), jobs=1)
    report = compare_results(str(out_a / "traces.csv"), str(out_b / "traces.csv"),
                             tol=1e-6)
    assert report["passed"]
    assert report["max_deviation"] < 1e-6


def test_dense_vs_iterative_top_modes(tmp_path):
    scn = _scenario(n_modes=5)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_scenario(parse_scenario(scn), str(out_a), jobs=1)
    scn["solver"] = "iterative"
    run_scenario(parse_scenario(scn), str(out_b), jobs=1, seed=42)
    report = compare_results(str(out_a / "traces.csv"), str(out_b / "traces.csv"),
                             tol=1e-6)
    assert report["passed"], report


def test_compare_with_itself_and_perturbed(tmp_path):
    sc = parse_scenario(_scenario())
    out = tmp_path / "out"
    run_scenario(sc, str(out), jobs=1)
    path = str(out / "traces.csv")
    report = compare_results(path, path, tol=0.0)
    assert report["passed"] and report["max_deviation"] == 0.0

    # perturb one eigenvalue by +0.1 and expect the offender to be named
    with open(path) as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    data[3][header.index("re_t")] = repr(float(data[3][header.index("re_t")]) + 0.1)
    bad = tmp_path / "bad.csv"
    with open(bad, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(data)
    report = compare_results(path, str(bad), tol=1e-6)
    assert not report["passed"]
    assert abs(report["max_deviation"] - 0.1) < 1e-9
    assert report["worst_frequency_hz"] == float(data[3][0])


def test_ports_scenario_runs(tmp_path):
    sc = parse_scenario(_port())
    out = tmp_path / "out"
    diag = run_scenario(sc, str(out), jobs=1)
    assert os.path.exists(out / "traces.csv")
    assert diag["per_frequency"][0]["unitarity_S"] < 1e-8


def test_ground_plane_scenario_runs(tmp_path):
    sc = parse_scenario(_ground_plane())
    out = tmp_path / "out"
    run_scenario(sc, str(out), jobs=1)
    assert os.path.exists(out / "traces.csv")


def _assert_run_matches_dense_scattering(tmp_path, scenario, solver, tol="1e-6"):
    """``run`` of ``scenario(solver)`` and of ``scenario("dense-scattering")`` exit 0,
    and ``compare --tol tol`` passes on their traces."""
    traces = []
    for name in (solver, "dense-scattering"):
        out = tmp_path / name
        path = _write(tmp_path, scenario(name), f"{name}.json")
        assert main(["run", "--scenario", path, "--out", str(out), "--jobs", "1"]) == 0
        traces.append(str(out / "traces.csv"))
    assert main(["compare", *traces, "--tol", tol]) == 0


def test_ground_plane_dense_impedance_matches_dense_scattering(tmp_path):
    # the image-reduced system serves the impedance engine above a ground
    # plane, and its modes match the scattering engine's within 1e-6
    _assert_run_matches_dense_scattering(tmp_path, _ground_plane, "dense-impedance")


@pytest.mark.parametrize("solver", ["dense-impedance", "t-form"])
def test_port_scene_matches_dense_scattering(tmp_path, solver):
    # the terminated system with its power-wave channel serves every engine,
    # and their modes match the scattering engine's within 1e-6
    _assert_run_matches_dense_scattering(tmp_path, _port, solver)


def test_dense_impedance_writes_n_modes_rows(tmp_path):
    # one controllable dipole has 3 eigencurrents; the impedance engine fills
    # n_modes = 5 with s = 1 modes, as the scattering engine does, so the two
    # runs write the same rows and compare matches them to rounding
    _assert_run_matches_dense_scattering(tmp_path, _hybrid_scenario, "dense-impedance",
                                         tol="1e-12")


def test_hybrid_scenario_runs(tmp_path):
    sc = parse_scenario(_hybrid_scenario("hybrid-scattering"))
    out = tmp_path / "out"
    run_scenario(sc, str(out), jobs=1)
    assert os.path.exists(out / "traces.csv")


def test_checks_subcommand(tmp_path):
    report = run_checks(parse_scenario(_scenario(
        sweep={"f_min": 6.0e8, "f_max": 6.0e8, "n_points": 1})))
    assert report["passed"], report
    entry = report["per_frequency"][0]
    assert entry["unitarity_S"] < 1e-8
    assert entry["equivalence"] < 1e-6
    assert entry["power_identity"] < 1e-8


def test_determinism_byte_identical(tmp_path):
    scn = _scenario(solver="iterative", n_modes=4)
    path = _write(tmp_path, scn)
    assert main(["run", "--scenario", path, "--out", str(tmp_path / "r1"),
                 "--seed", "7", "--jobs", "2", "--dump-vectors"]) == 0
    assert main(["run", "--scenario", path, "--out", str(tmp_path / "r2"),
                 "--seed", "7", "--jobs", "2", "--dump-vectors"]) == 0
    # worker-pool size must not affect results either; diagnostics.json
    # differs only by its record of the pool and the BLAS threads
    assert main(["run", "--scenario", path, "--out", str(tmp_path / "r3"),
                 "--seed", "7", "--jobs", "1", "--dump-vectors"]) == 0
    for name in ("traces.csv", "diagnostics.json", "vectors.json"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()
    for name in ("traces.csv", "vectors.json"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r3" / name).read_bytes()
    d1, d3 = (json.loads((tmp_path / run / "diagnostics.json").read_text())
              for run in ("r1", "r3"))
    assert (d1.pop("blas")["jobs"], d3.pop("blas")["jobs"]) == (2, 1)
    assert d1 == d3


def test_csv_header_exact(tmp_path):
    sc = parse_scenario(_scenario(sweep={"f_min": 6e8, "f_max": 6e8, "n_points": 1}))
    out = tmp_path / "out"
    run_scenario(sc, str(out), jobs=1)
    with open(out / "traces.csv") as fh:
        header = fh.readline().strip()
    assert header == ("frequency_hz,trace_id,mode_rank,re_t,im_t,"
                      "modal_significance,lambda,circle_dev,orth_dev,cancel_flag")


@pytest.mark.parametrize("solver", SOLVER_TABLE)
def test_orth_dev_and_cancel_flag_measure_the_written_modes(tmp_path, solver):
    # every formulation's orth_dev is the orthogonality of the modes it writes (at least
    # that of their excitations), and cancel_flag marks the modes with s = 1 + 2t within
    # CANCELLATION_THRESHOLD of 1: here the two past the one dipole's three
    out = tmp_path / "out"
    run_scenario(parse_scenario(_hybrid_scenario(solver)), str(out), jobs=1, dump_vectors=True)
    with open(out / "traces.csv") as fh:
        rows = list(csv.DictReader(fh))
    a = np.array([[complex(float(re), float(im)) for re, im in col]
                  for col in json.loads((out / "vectors.json").read_text())[0]["a"]]).T
    orth = {float(r["orth_dev"]) for r in rows}
    assert len(orth) == 1
    a_dev = np.abs(a.conj().T @ a - np.eye(a.shape[1])).max()
    assert 0.0 < a_dev <= orth.pop() < 1e-8
    s = np.array([1.0 + 2.0 * complex(float(r["re_t"]), float(r["im_t"])) for r in rows])
    flags = [int(r["cancel_flag"]) for r in rows]
    assert flags == list((np.abs(s - 1.0) < CANCELLATION_THRESHOLD * np.abs(s)).astype(int))
    assert flags == [0, 0, 0, 1, 1]


def test_anisotropic_polarizability_json(tmp_path):
    scn = _scenario()
    scn["scene"]["dipoles"][0]["polarizability"] = [
        [0.02, 0.0, 0.0], [0.0, 0.01, 0.0], [0.0, 0.0, 0.015]]
    sc = parse_scenario(scn)
    out = tmp_path / "out"
    run_scenario(sc, str(out), jobs=1)
    assert os.path.exists(out / "traces.csv")


def test_checks_hybrid_scenario():
    scn = _scenario()
    scn["scene"]["dipoles"] = [
        {"position": [0.30, 0.0, 0.03], "polarizability": 0.01},
        {"position": [0.0, 0.31, -0.03], "polarizability": 0.01,
         "region": "background"},
    ]
    scn["scene"]["sphere"] = {"radius": 0.03, "material": "dielectric", "eps_r": 4.0}
    scn["solver"] = "hybrid-scattering"
    scn["sweep"] = {"f_min": 4.0e8, "f_max": 4.0e8, "n_points": 1}
    scn["tolerances"] = {"u4_residual": 1.0, "unitarity": 1e-6,
                         "power": 1e-6, "circle": 1e-6}
    report = run_checks(parse_scenario(scn))
    entry = report["per_frequency"][0]
    assert "u4_residual" in entry
    assert entry["unitarity_S"] < 1e-6
    assert entry["tilde_identity_residual"] < 1e-12  # gated for every scene kind
    assert report["passed"], report


def test_checks_ground_plane_scenario():
    scn = _ground_plane()
    scn["sweep"] = {"f_min": 6.0e8, "f_max": 6.0e8, "n_points": 1}
    report = run_checks(parse_scenario(scn))
    assert report["passed"], report
    entry = report["per_frequency"][0]
    assert entry["equivalence"] <= 1e-6
    assert entry["parity_leakage"] < 1e-12


def test_hybrid_impedance_scenario_runs(tmp_path):
    sc = parse_scenario(_hybrid_scenario("hybrid-impedance"))
    out = tmp_path / "out"
    run_scenario(sc, str(out), jobs=1)
    assert os.path.exists(out / "traces.csv")


@pytest.mark.parametrize("command, solver", [
    *(("run", solver) for solver in ("dense-scattering", "dense-impedance", "t-form",
                                     "iterative")),
    ("checks", "dense-scattering"),
])
def test_tiny_frequency_is_a_solver_error(tmp_path, capsys, command, solver):
    # at 1e-200 Hz the 1/k^3 of the self terms would overflow Z: the assembly
    # names the wavenumber before any Green block, exit code 1, no traceback
    # and no floating-point RuntimeWarning
    scn = _scenario(solver=solver, sweep={"f_min": 1e-200, "f_max": 1e-200, "n_points": 1})
    argv = [command, "--scenario", _write(tmp_path, scn)]
    if command == "run":
        argv += ["--out", str(tmp_path / "o")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert "DomainError: wavenumber k=2.09584502195168" in err and "is too small" in err
    assert "Traceback" not in err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command", ["run", "checks"])
def test_huge_frequency_is_a_resolution_error(tmp_path, capsys, command):
    # at 1e12 Hz the truncation rule asks for l_max = 1763 (n = 6,223,390
    # waves); one n x n complex operator cannot fit in any host's memory, so
    # the library refuses before it enumerates the basis or builds a table
    scn = _scenario(sweep={"f_min": 1e12, "f_max": 1e12, "n_points": 1})
    argv = [command, "--scenario", _write(tmp_path, scn)]
    if command == "run":
        argv += ["--out", str(tmp_path / "o")]
    tracemalloc.start()
    try:
        assert main(argv) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert "ResolutionError: wave basis l_max=1763 has n=6223390 waves" in err
    assert f"needs {16 * 6223390 ** 2} bytes" in err
    assert "Traceback" not in err
    assert peak < 10 * 2**20, peak


@pytest.mark.parametrize("jobs", ["0", "-1", "two"])
def test_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs):
    # --jobs 0 is not read as all cores, nor --jobs -1 as one job
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", _write(tmp_path, _scenario()), "--out", str(tmp_path / "o"),
              "--jobs", jobs])
    assert exc.value.code == 2
    assert "argument --jobs" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    # the iterative start block's generator takes no negative seed: refused at parsing,
    # not by a worker thread's traceback
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", _write(tmp_path, _scenario(solver="iterative")),
              "--out", str(tmp_path / "o"), "--seed", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed: expected an integer >= 0, got '-1'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_solver_error_exit_code(tmp_path):
    # dipole cloud tighter than the sphere: hybrid assembly must fail
    # with a diagnostic and a nonzero exit, not a traceback
    scn = _scenario()
    scn["scene"]["dipoles"] = [
        {"position": [0.05, 0.0, 0.0], "polarizability": 0.001}]
    scn["scene"]["sphere"] = {"radius": 0.06, "material": "pec"}
    scn["solver"] = "hybrid-scattering"
    path = _write(tmp_path, scn, "bad_geom.json")
    from scatmodes.cli import main as cli_main
    code = cli_main(["run", "--scenario", path, "--out", str(tmp_path / "o")])
    assert code == 1


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("seed", [0, 2])
def test_dense_impedance_indefinite_radiation_exit_code(tmp_path, capsys, seed):
    # a singular compressed radiation matrix must end in a named solver
    # error and exit code 1, not a traceback or NaN eigenvalues
    scene = random_scene(np.random.default_rng(seed), 150, 2.0, n_background=50)
    f = SPEED_OF_LIGHT / (2.0 * math.pi)  # k = 1
    scn = _scenario(solver="dense-impedance", sweep={"f_min": f, "f_max": f, "n_points": 1})
    scn["scene"]["dipoles"] = [
        {"position": p.tolist(), "polarizability": a.tolist(), "region": r}
        for p, a, r in zip(scene.positions, scene.polarizability, scene.region)]
    code = main(["run", "--scenario", _write(tmp_path, scn), "--out", str(tmp_path / "o"),
                 "--jobs", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "SolveError: compressed radiation matrix is indefinite" in err
    assert "Traceback" not in err


_UNITARITY = {"unitarity_S": float, "unitarity_S_b": float, "unitarity_form": str}
_SCATTERING = {"engine": str, "rank": int, **_UNITARITY}
_ITERATIVE = {"iterations": int, "converged": bool, **_UNITARITY}
_ASSEMBLY = {"factorization_residual": float}
_SPHERE = {**_ASSEMBLY, "u4_residual": float}
_IMPEDANCE = {"engine": str, "r_condition": float}


@pytest.mark.parametrize("solver, types", [
    ("dense-scattering", {**_ASSEMBLY, **_SCATTERING}),
    ("hybrid-scattering", {**_SPHERE, **_SCATTERING}),
    ("iterative", {**_ASSEMBLY, **_ITERATIVE}),
    ("dense-impedance", {**_ASSEMBLY, **_IMPEDANCE}),
    ("t-form", {**_ASSEMBLY, **_UNITARITY}),
    ("hybrid-impedance", {**_SPHERE, **_IMPEDANCE}),
    ("port", {**_ASSEMBLY, **_SCATTERING}),
    ("ground-plane-dense-scattering", {**_ASSEMBLY, **_SCATTERING}),
    ("ground-plane-t-form", {**_ASSEMBLY, **_UNITARITY}),
    ("ground-plane-iterative", {**_ASSEMBLY, **_ITERATIVE}),
    ("ground-plane-dense-impedance", {**_ASSEMBLY, **_IMPEDANCE}),
    ("port-dense-impedance", {**_ASSEMBLY, **_IMPEDANCE}),
    ("port-t-form", {**_ASSEMBLY, **_UNITARITY}),
    ("port-iterative", {**_ASSEMBLY, **_ITERATIVE}),
    ("sphere-t-form", {**_SPHERE, **_UNITARITY}),
    ("sphere-iterative", {**_SPHERE, **_ITERATIVE}),
])
def test_point_diagnostics_keep_json_types(tmp_path, solver, types):
    # each point records exactly what its assembly and engine computed (the
    # impedance engine forms no S, so it reports no unitarity, but its
    # engine and the spread of R~); counts stay JSON integers and flags JSON
    # booleans, not 3.0 or 1.0; the assembly's factorization_residual is
    # recorded for every scene kind, a sphere's u4_residual besides
    if solver == "port":
        scn = _port()
    elif solver.startswith("port-"):
        scn = _port(solver.removeprefix("port-"))
    elif solver.startswith("ground-plane-"):
        scn = _ground_plane(solver.removeprefix("ground-plane-"))
    elif solver.startswith("sphere-"):
        scn = _hybrid_scenario(solver.removeprefix("sphere-"))
    elif solver.startswith("hybrid"):
        scn = _hybrid_scenario(solver)
    else:
        scn = _scenario(solver=solver)
    run_scenario(parse_scenario(scn), str(tmp_path), jobs=1)
    with open(tmp_path / "diagnostics.json") as fh:
        points = json.load(fh)["per_frequency"]
    assert points
    for point in points:
        assert {key: type(val) for key, val in point.items()} == \
            {"frequency_hz": float, "max_circle_deviation": float, **types}


@pytest.mark.parametrize("scenario", [_scenario(solver="dense-impedance"),
                                      _hybrid_scenario("hybrid-impedance")])
def test_impedance_points_record_their_engine_and_r_condition(tmp_path, scenario):
    # the values the impedance engine computed, not figures made for the record
    sc = parse_scenario(scenario)
    recorded = run_scenario(sc, str(tmp_path), jobs=1)["per_frequency"]
    wave_basis, angular, points = _sweep_basis(sc)
    for record, f, point in zip(recorded, sc["frequencies"], points):
        k = 2.0 * math.pi * f / SPEED_OF_LIGHT
        blocks = cli.transition(sc["scene"], k, wave_basis, angular, point[0])
        ms = cli.cm_impedance_substructure(blocks)
        assert record["engine"] == ms.diagnostics["solver"] == "eigh"
        assert record["r_condition"] == ms.diagnostics["r_condition"] >= 1.0


def test_tolerance_defaults_are_filled_in_and_a_given_value_overrides_them():
    assert parse_scenario(_scenario())["tolerances"] == cli.TOLERANCES
    sc = parse_scenario(_scenario(tolerances={"equivalence": 1e-3}))
    assert sc["tolerances"] == {**cli.TOLERANCES, "equivalence": 1e-3}


def test_hybrid_sweep_basis_grows_to_meet_u4_tolerance(tmp_path):
    # at 83.5 MHz alone the truncation rule gives l_max = 13, whose U4
    # truncation residual is 1.7e-6; the sweep basis takes one more degree
    # instead of failing the point with a ResolutionError
    sc = parse_scenario(hybrid_sweep_seed7(n_points=1))
    diagnostics = run_scenario(sc, str(tmp_path), jobs=1)
    assert (diagnostics["basis_l_max"], diagnostics["basis_size"]) == (14, 448)
    assert diagnostics["per_frequency"][0]["u4_residual"] <= 1e-6


def test_hybrid_sweep_basis_keeps_a_passing_basis():
    # the full sweep passes with the truncation rule's basis at f_max
    assert _sweep_basis(parse_scenario(hybrid_sweep_seed7()))[0].size == 448
    loose = hybrid_sweep_seed7(n_points=1)
    loose["tolerances"] = {"u4_residual": 2e-6}
    assert _sweep_basis(parse_scenario(loose))[0].l_max == 13


def test_hybrid_u4_failure_stands_when_more_degrees_do_not_help(tmp_path, capsys):
    # a dipole just outside the sphere: eight more degrees cannot meet the
    # tolerance, so the point fails with the library error, exit code 1
    scn = _hybrid_scenario("hybrid-impedance")
    scn["scene"]["dipoles"][0]["position"] = [0.025, 0.0, 0.0]
    code = main(["run", "--scenario", _write(tmp_path, scn), "--out", str(tmp_path / "o"),
                 "--jobs", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "ResolutionError: U4 truncation residual" in err


def _set(path, value):
    """Scenario with the field at ``path`` (a key sequence) set to ``value``."""
    scn = _scenario()
    obj = scn
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value
    return scn


MALFORMED_FIELDS = [
    (("version",), "abc", "version"),
    (("scene", "dipoles", 0, "region"), 5, "scene.dipoles[0].region"),
    (("scene", "sphere"), {"radius": 0.02, "material": "gold"}, "scene.sphere.material"),
    (("scene", "ports"), [{"dipole": 4, "axis": "x", "z0": 73.0}], "scene.ports[0].dipole"),
    (("scene", "ports"), [{"dipole": 2, "axis": "x", "z0": 73.0}], "scene.ports[0].dipole"),
    (("n_modes",), "abc", "n_modes"),
    (("n_modes",), -1, "n_modes"),
    (("n_modes",), 0, "n_modes"),
    (("sweep", "f_min"), "a", "sweep.f_min"),
    (("sweep", "n_points"), "2", "sweep.n_points"),
    (("sweep", "n_points"), 2.5, "sweep.n_points"),
    (("scene", "dipoles"), 5, "scene.dipoles"),
    (("scene", "dipoles", 0, "position"), [0.0, 0.1], "scene.dipoles[0].position"),
    (("scene", "dipoles", 0, "polarizability"), "x", "scene.dipoles[0].polarizability"),
    (("scene", "ports"), [{"dipole": 0, "axis": "w", "z0": 73.0}], "scene.ports[0].axis"),
    (("scene", "ground_plane"), "false", "scene.ground_plane"),
    (("tolerances",), {"unitarity": "tight"}, "tolerances.unitarity"),
    (("tolerances",), {"unitarty": 1e-30}, "tolerances.unitarty"),
    (("tolerances",), {"unitarity": -1e-8}, "tolerances.unitarity"),
    (("scene", "dipoles", 0, "polarizability"), -0.02, "scene.dipoles[0].polarizability"),
    (("scene", "dipoles", 0, "polarizability"),
     [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "scene.dipoles[0].polarizability"),
    (("scene", "dipoles", 0, "polarizability"),
     [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]], "scene.dipoles[0].polarizability"),
    (("scene", "ports"), [{"dipole": 0, "axis": "x", "z0": -50.0}],
     "'scene.ports[0]' is out of range: port reference impedance z0"),
    (("scene", "sphere"), {"radius": -1.0}, "'scene.sphere' is out of range: sphere radius"),
    (("scene", "sphere"), {"radius": 0.02, "material": "dielectric", "eps_r": 0.5},
     "'scene.sphere' is out of range: dielectric eps_r"),
    (("scene", "sphere"), {"radius": 0.02, "material": "dielectric", "mu_r": 0.0},
     "'scene.sphere' is out of range: dielectric mu_r"),
]


@pytest.mark.parametrize("path, value, field", MALFORMED_FIELDS,
                         ids=[f"{field}={value!r}" for _, value, field in MALFORMED_FIELDS])
def test_malformed_field_is_a_scenario_error(tmp_path, capsys, path, value, field):
    # a malformed field ends in a scenario error that names it, exit code 2,
    # under both subcommands that read scenarios; never a traceback or a
    # silently truncated or empty result
    scenario = _write(tmp_path, _set(path, value))
    for command in (["run", "--scenario", scenario, "--out", str(tmp_path / "o")],
                    ["checks", "--scenario", scenario]):
        assert main(command) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_sphere_ranges_are_the_library_s():
    # SphereSpec owns the ranges: a PEC sphere ignores its eps_r and mu_r
    scn = _hybrid_scenario("hybrid-scattering")
    scn["scene"]["sphere"] = {"radius": 0.02, "material": "pec", "eps_r": 0.5, "mu_r": 0.0}
    assert parse_scenario(scn)["scene"].sphere == SphereSpec(0.02, "pec", 0.5, 0.0)


def _sphere_above_ground_plane():
    scn = _hybrid_scenario("hybrid-scattering")
    for d in scn["scene"]["dipoles"]:
        d["position"][2] = abs(d["position"][2]) + 0.05
    scn["scene"]["ground_plane"] = True
    return scn


def _sphere_with_port(solver="hybrid-scattering"):
    """The ``_hybrid_scenario`` scene with a port on its one controllable dipole, at three
    points over 300-600 MHz; the engines return 3 N_c = 3 modes."""
    scn = _hybrid_scenario(solver)
    scn["scene"]["ports"] = [{"dipole": 0, "axis": "x", "z0": 50.0}]
    scn.update(n_modes=3, sweep={"f_min": 3.0e8, "f_max": 6.0e8, "n_points": 3})
    return scn


def test_sphere_above_ground_plane_is_a_scenario_limit(tmp_path, capsys):
    # above a ground plane the sphere's background would be the sphere and its
    # image, which no diagonal T-matrix describes: such a scene is a limit of
    # the scenario (exit 2, naming scene.sphere), not a geometry fault
    scenario = _write(tmp_path, _sphere_above_ground_plane())
    for command in (["run", "--scenario", scenario, "--out", str(tmp_path / "o")],
                    ["checks", "--scenario", scenario]):
        assert main(command) == 2
        err = capsys.readouterr().err
        assert "scenario error: field 'scene.sphere' cannot be combined with a ground plane" in err
        assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_sphere_with_port_runs_under_every_formulation(tmp_path, capsys):
    # the port channel sees no sphere (U4 and the Mie diagonal are 0 there):
    # each of the four formulations runs the scene and agrees with the
    # hybrid-scattering alias, and the scene passes the checks
    traces = {}
    for solver in ("hybrid-scattering", "dense-scattering", "dense-impedance", "t-form",
                   "iterative"):
        out = tmp_path / solver
        path = _write(tmp_path, _sphere_with_port(solver), f"{solver}.json")
        assert main(["run", "--scenario", path, "--out", str(out), "--jobs", "1"]) == 0
        traces[solver] = str(out / "traces.csv")
    reference = traces.pop("hybrid-scattering")
    for solver, trace in traces.items():
        assert main(["compare", trace, reference, "--tol", "1e-12"]) == 0, solver
    assert main(["checks", "--scenario", path]) == 0


def test_checks_pass_a_scene_without_controllable_dipoles():
    # T~ = 0 when every dipole is background: the identity residual is
    # measured against T instead of dividing by the zero norm of T~
    scn = _scenario(sweep={"f_min": 6.0e8, "f_max": 6.0e8, "n_points": 1})
    for d in scn["scene"]["dipoles"]:
        d["region"] = "background"
    report = run_checks(parse_scenario(scn))
    assert report["passed"], report
    assert report["per_frequency"][0]["tilde_identity_residual"] < 1e-12


def _bundled_blas():
    """{"numpy": (basename, get, set), "scipy": ...} of the OpenBLAS each bundles."""
    import scipy

    pools = {mod.__name__: (os.path.basename(path), get, put)
             for path, get, put in cli._openblas_pools()
             for mod in (np, scipy) if path.startswith(os.path.dirname(mod.__file__))}
    if len(pools) != 2:
        pytest.skip("needs numpy and scipy each with its own OpenBLAS")
    return pools


def _blas_counts(pools):
    return {name: get() for name, (_, get, _) in pools.items()}


@pytest.mark.parametrize("jobs", [1, 2])
def test_blas_pools_are_sized_for_jobs_during_a_point(tmp_path, monkeypatch, jobs):
    # numpy's pool (every `@`) runs on one thread, so no spinning worker of it
    # takes a core from scipy's LU and QR, which get the cores of one job
    pools = _bundled_blas()
    engine, seen = SOLVER_TABLE["dense-scattering"], []

    def reading(*args):
        seen.append(_blas_counts(pools))
        return engine(*args)

    monkeypatch.setitem(SOLVER_TABLE, "dense-scattering", reading)
    blas = run_scenario(parse_scenario(_scenario()), str(tmp_path), jobs=jobs)["blas"]
    cores = len(os.sched_getaffinity(0))
    threads = {"numpy": 1, "scipy": max(1, cores // jobs)}
    assert seen == [threads] * 3
    assert (blas["jobs"], blas["cores"]) == (jobs, cores)
    assert {lib["library"]: lib["threads"] for lib in blas["libraries"]} == \
        {pools[name][0]: count for name, count in threads.items()}


def test_blas_counts_come_back_after_run_and_checks(tmp_path, monkeypatch):
    pools = _bundled_blas()
    _, get_scipy, set_scipy = pools["scipy"]
    original = get_scipy()
    set_scipy(1)  # a count that the sweep under --jobs 1 changes
    try:
        before = _blas_counts(pools)
        sc = parse_scenario(_scenario())
        run_scenario(sc, str(tmp_path), jobs=1)
        assert _blas_counts(pools) == before
        run_checks(parse_scenario(_scenario(
            sweep={"f_min": 6.0e8, "f_max": 6.0e8, "n_points": 1})))
        assert _blas_counts(pools) == before

        engine, calls = SOLVER_TABLE["dense-scattering"], []

        def failing(*args):
            calls.append(None)
            if len(calls) > 1:  # the first point to reach its engine solves, a later one fails
                raise SolveError("a later point fails")
            return engine(*args)

        monkeypatch.setitem(SOLVER_TABLE, "dense-scattering", failing)
        for jobs in (1, 2):
            calls.clear()
            with pytest.raises(SolveError):
                run_scenario(sc, str(tmp_path), jobs=jobs)
            assert _blas_counts(pools) == before

        def raising(*args, **kwargs):
            raise SolveError("the engine fails")

        monkeypatch.setattr(cli, "cm_scattering", raising)
        with pytest.raises(SolveError):
            run_checks(sc)
        assert _blas_counts(pools) == before
    finally:
        set_scipy(original)


def test_run_without_openblas_records_no_libraries(tmp_path, monkeypatch):
    # MKL, Accelerate or no /proc: nothing is set, and the record says so
    monkeypatch.setattr(cli, "_openblas_pools", lambda: [])
    path = _write(tmp_path, _scenario())
    assert main(["run", "--scenario", path, "--out", str(tmp_path / "o"), "--jobs", "1"]) == 0
    blas = json.loads((tmp_path / "o" / "diagnostics.json").read_text())["blas"]
    assert blas == {"jobs": 1, "cores": cli._cores(), "libraries": []}


def test_jobs_1_and_2_agree_on_a_two_region_cloud(tmp_path):
    # the two settings run scipy's LAPACK on different thread counts
    scene = random_scene(np.random.default_rng(7), 120, 2.0, n_background=40)
    f = SPEED_OF_LIGHT / (2.0 * math.pi)  # k = 1
    scn = _scenario(solver="iterative", sweep={"f_min": 0.9 * f, "f_max": f, "n_points": 2})
    scn["scene"]["dipoles"] = [
        {"position": p.tolist(), "polarizability": a.tolist(), "region": r}
        for p, a, r in zip(scene.positions, scene.polarizability, scene.region)]
    path = _write(tmp_path, scn)
    for jobs in ("1", "2"):
        assert main(["run", "--scenario", path, "--out", str(tmp_path / jobs),
                     "--jobs", jobs]) == 0
    report = compare_results(str(tmp_path / "1" / "traces.csv"),
                             str(tmp_path / "2" / "traces.csv"), 1e-12)
    assert report["passed"], report


def _one_row_traces(tmp_path):
    path = tmp_path / "traces.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cli.CSV_HEADER)
        writer.writerow([5.0e8, 0, 1, -0.5, 0.5, 0.5 ** 0.5, 1.0, 0.0, 0.0, 0])
    return str(path)


def _subprocess_env():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("lines", [
    [b"trace_id,mode_rank,re_t,im_t", b"0,1,-0.5,0.5"],
    [b"frequency_hz,re_t,im_t", b"500000000.0,abc,0.5"],
    [b"frequency_hz,re_t,im_t", b"500000000.0,nan,0.5"],
    [b"frequency_hz,re_t,im_t", b"500000000.0,\xff,0.5"],
], ids=["no-frequency-column", "non-numeric-cell", "nan-t", "not-utf-8"])
def test_compare_of_a_malformed_trace_file_exits_2_without_a_traceback(tmp_path, lines):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\n".join(lines) + b"\n")
    proc = subprocess.run([sys.executable, "-m", "scatmodes.cli", "compare",
                           _one_row_traces(tmp_path), str(bad), "--tol", "0"],
                          capture_output=True, text=True, env=_subprocess_env(), timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and str(bad) in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["run", "checks"])
def test_a_scenario_that_is_not_utf_8_exits_2_without_a_traceback(tmp_path, command):
    bad = tmp_path / "scenario.json"
    bad.write_bytes(b'{"version": 1, "x": "\xff"}')
    proc = subprocess.run([sys.executable, "-m", "scatmodes.cli", command, "--scenario", str(bad)],
                          capture_output=True, text=True, env=_subprocess_env(), cwd=tmp_path,
                          timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("scenario error: ") and "UTF-8" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_main_registers_the_exit_freeze_once_and_freezes_nothing(tmp_path, monkeypatch):
    registered = []

    def unregister(fn):
        registered[:] = [f for f in registered if f != fn]

    monkeypatch.setattr(atexit, "register", registered.append)
    monkeypatch.setattr(atexit, "unregister", unregister)
    path = _one_row_traces(tmp_path)
    for _ in range(2):
        assert main(["compare", path, path, "--tol", "0"]) == 0
        assert gc.get_freeze_count() == 0
    assert registered == [gc.freeze]


# The probe is registered before scatmodes is imported, so it runs after main's hook.
_EXIT_PROBE = """\
import atexit, gc, sys
atexit.register(lambda: print(gc.get_freeze_count() > 0))
from scatmodes import cli
"""


@pytest.mark.parametrize("call, code, frozen", [
    ("sys.exit(cli.main(['compare', {f!r}, {f!r}, '--tol', '0']))", 0, "True"),
    ("sys.exit(cli.main(['compare', {missing!r}, {missing!r}, '--tol', '0']))", 2, "True"),
    ("", 0, "False"),
], ids=["exit-0", "exit-2", "no-main"])
def test_objects_alive_at_exit_are_frozen_after_main(tmp_path, call, code, frozen):
    script = _EXIT_PROBE + call.format(f=_one_row_traces(tmp_path),
                                       missing=str(tmp_path / "missing.csv"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_subprocess_env(), timeout=120)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.splitlines()[-1] == frozen
