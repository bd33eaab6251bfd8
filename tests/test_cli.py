import csv
import json
import os

import pytest

from scatmodes.cli import (
    ScenarioError,
    compare_results,
    main,
    parse_scenario,
    run_checks,
    run_scenario,
)


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
    scn = _scenario()
    scn["scene"]["dipoles"] = [
        {"position": [0.20, 0.0, 0.02], "polarizability": 0.004},
        {"position": [0.0, 0.21, -0.02], "polarizability": 0.004,
         "region": "background"},
    ]
    scn["scene"]["sphere"] = {"radius": 0.02, "material": "dielectric", "eps_r": 4.0}
    scn["solver"] = "hybrid-scattering"
    scn["sweep"] = {"f_min": 5.0e8, "f_max": 5.0e8, "n_points": 1}
    sc = parse_scenario(scn)
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
    scn = _scenario()
    scn["scene"]["dipoles"] = [
        {"position": [0.20, 0.0, 0.02], "polarizability": 0.004},
        {"position": [0.0, 0.21, -0.02], "polarizability": 0.004,
         "region": "background"},
    ]
    scn["scene"]["sphere"] = {"radius": 0.02, "material": "dielectric", "eps_r": 4.0}
    scn["solver"] = "hybrid-impedance"
    scn["sweep"] = {"f_min": 5.0e8, "f_max": 5.0e8, "n_points": 1}
    sc = parse_scenario(scn)
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
