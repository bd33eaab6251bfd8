import csv
import json
import math
import os

import numpy as np
import pytest

from scatmodes.cli import (
    SPEED_OF_LIGHT,
    ScenarioError,
    _sweep_basis,
    compare_results,
    main,
    parse_scenario,
    run_checks,
    run_scenario,
)
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


def test_missing_field_names_it(tmp_path, capsys):
    bad = _scenario()
    del bad["sweep"]["n_points"]
    code = main(["run", "--scenario", _write(tmp_path, bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "sweep.n_points" in capsys.readouterr().err


def test_invalid_solver_and_combos(tmp_path):
    with pytest.raises(ScenarioError):
        parse_scenario(_scenario(solver="magic"))
    with pytest.raises(ScenarioError):
        parse_scenario(_scenario(solver="hybrid-impedance"))  # no sphere
    sc = _scenario()
    sc["scene"]["ports"] = [{"dipole": 0, "axis": "x", "z0": 73.0}]
    sc["solver"] = "dense-impedance"
    with pytest.raises(ScenarioError):
        parse_scenario(sc)


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
    scn = _scenario()
    scn["scene"]["dipoles"] = [
        {"position": [0.0, -0.1, 0.0], "polarizability": 0.02},
        {"position": [0.0, 0.0, 0.0], "polarizability": 0.02},
        {"position": [0.0, 0.1, 0.0], "polarizability": 0.02},
    ]
    scn["scene"]["ports"] = [{"dipole": 1, "axis": "x", "z0": 73.0}]
    sc = parse_scenario(scn)
    out = tmp_path / "out"
    diag = run_scenario(sc, str(out), jobs=1)
    assert os.path.exists(out / "traces.csv")
    assert diag["per_frequency"][0]["unitarity_S"] < 1e-8


def test_ground_plane_scenario_runs(tmp_path):
    scn = _scenario()
    for d in scn["scene"]["dipoles"]:
        d["position"][2] = abs(d["position"][2]) + 0.05
    scn["scene"]["ground_plane"] = True
    sc = parse_scenario(scn)
    out = tmp_path / "out"
    run_scenario(sc, str(out), jobs=1)
    assert os.path.exists(out / "traces.csv")


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
    # worker-pool size must not affect results either
    assert main(["run", "--scenario", path, "--out", str(tmp_path / "r3"),
                 "--seed", "7", "--jobs", "1", "--dump-vectors"]) == 0
    for name in ("traces.csv", "diagnostics.json", "vectors.json"):
        a = (tmp_path / "r1" / name).read_bytes()
        for run in ("r2", "r3"):
            assert a == (tmp_path / run / name).read_bytes(), (name, run)


def test_csv_header_exact(tmp_path):
    sc = parse_scenario(_scenario(sweep={"f_min": 6e8, "f_max": 6e8, "n_points": 1}))
    out = tmp_path / "out"
    run_scenario(sc, str(out), jobs=1)
    with open(out / "traces.csv") as fh:
        header = fh.readline().strip()
    assert header == ("frequency_hz,trace_id,mode_rank,re_t,im_t,"
                      "modal_significance,lambda,circle_dev,orth_dev,cancel_flag")


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
    assert report["passed"], report


def test_checks_ground_plane_scenario():
    scn = _scenario()
    for d in scn["scene"]["dipoles"]:
        d["position"][2] = abs(d["position"][2]) + 0.05
    scn["scene"]["ground_plane"] = True
    scn["sweep"] = {"f_min": 6.0e8, "f_max": 6.0e8, "n_points": 1}
    report = run_checks(parse_scenario(scn))
    assert report["passed"], report
    entry = report["per_frequency"][0]
    assert "equivalence" not in entry
    assert entry["parity_leakage"] < 1e-12


def test_hybrid_impedance_scenario_runs(tmp_path):
    sc = parse_scenario(_hybrid_scenario("hybrid-impedance"))
    out = tmp_path / "out"
    run_scenario(sc, str(out), jobs=1)
    assert os.path.exists(out / "traces.csv")


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


@pytest.mark.parametrize("solver, types", [
    ("dense-scattering", {"rank": int, "engine": str, "unitarity_S": float}),
    ("hybrid-scattering", {"rank": int, "engine": str, "u4_residual": float}),
    ("iterative", {"iterations": int, "converged": bool, "unitarity_S": float}),
])
def test_point_diagnostics_keep_json_types(tmp_path, solver, types):
    # counts stay JSON integers and flags JSON booleans, not 3.0 or 1.0
    scn = _hybrid_scenario(solver) if solver.startswith("hybrid") else _scenario(solver=solver)
    run_scenario(parse_scenario(scn), str(tmp_path), jobs=1)
    with open(tmp_path / "diagnostics.json") as fh:
        points = json.load(fh)["per_frequency"]
    assert points
    for point in points:
        assert {key: type(point[key]) for key in types} == types


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
    assert _sweep_basis(parse_scenario(hybrid_sweep_seed7())).size == 448
    loose = hybrid_sweep_seed7(n_points=1)
    loose["tolerances"] = {"u4_residual": 2e-6}
    assert _sweep_basis(parse_scenario(loose)).l_max == 13


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
