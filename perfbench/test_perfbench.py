"""Checks of the benchmark's scenario generator, correctness gate and trace accounting.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import csv
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import scenarios  # noqa: E402
from scatmodes import cli  # noqa: E402


@pytest.mark.parametrize("name", list(scenarios.WORKLOADS))
def test_generator_pins_basis_and_unknowns(name, tmp_path):
    w = scenarios.WORKLOADS[name]
    scenes = []
    for seed in (0, 5):
        # two points: the sweep's basis is sized at f_max, the last point
        raw = scenarios.scenario(name, seed, n_points=2)
        assert raw == scenarios.scenario(name, seed, n_points=2)
        scenes.append(raw["scene"])
        sc = cli.parse_scenario(raw)
        assert 3 * sc["scene"].n_dipoles == w.unknowns
        assert 3 * int(sc["scene"].is_controllable.sum()) == w.controllable_unknowns
        diagnostics = cli.run_scenario(sc, str(tmp_path / str(seed)), jobs=1)
        assert diagnostics["basis_size"] == w.basis_size
    assert scenes[0] != scenes[1]


def _rewrite(src, dst, edit):
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    data = edit(header, data)
    with open(dst, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(data)
    return dst


def test_gate_flags_perturbed_traces(tmp_path):
    name = "dipole-sweep"
    w = scenarios.WORKLOADS[name]
    n_points = 2
    n_rows = n_points * w.n_modes
    for solver, out in ((w.solver, "run"), (w.reference, "reference")):
        sc = cli.parse_scenario(dict(scenarios.scenario(name, 3, n_points=n_points), solver=solver))
        cli.run_scenario(sc, str(tmp_path / out), jobs=1)
    traces = tmp_path / "run" / "traces.csv"
    reference = tmp_path / "reference" / "traces.csv"

    reason, deviation = run.check_traces(traces, reference, n_rows)
    assert reason is None and deviation < run.GATE_TOL

    def shift(header, data):
        col = header.index("re_t")
        data[3][col] = repr(float(data[3][col]) + 1e-3)
        return data

    reason, deviation = run.check_traces(_rewrite(traces, tmp_path / "shifted.csv", shift),
                                         reference, n_rows)
    assert reason.startswith("compare failed") and abs(deviation - 1e-3) < 1e-9

    def nan(header, data):
        data[0][header.index("circle_dev")] = "nan"
        return data

    reason, _ = run.check_traces(_rewrite(traces, tmp_path / "nan.csv", nan), reference, n_rows)
    assert reason == "non-finite value in traces.csv"

    reason, _ = run.check_traces(_rewrite(traces, tmp_path / "short.csv", lambda h, d: d[:-1]),
                                 reference, n_rows)
    assert reason == f"{n_rows - 1} rows in traces.csv, expected {n_rows}"


def _spans():
    """A traced sweep over [0, 4] s: two root calls with nested children."""
    return [
        {"name": "dipoles.transition", "start": 1.0, "end": 3.0, "parent": None},
        {"name": "dipoles.assemble_impedance", "start": 1.2, "end": 1.7, "parent": 0},
        {"name": "swe.regular_wave_table", "start": 1.3, "end": 1.4, "parent": 1},
        {"name": "modes.cm_scattering", "start": 3.5, "end": 4.0, "parent": None},
        {"name": "network.check_unitary", "start": 3.6, "end": 3.7, "parent": 3},
    ]


def test_layer_self_times_add_up_to_sweep():
    spans = _spans()
    acc = run.layer_times(spans, sweep_s=4.0)
    assert math.isclose(acc["self_s"]["dipoles.transition"], 1.5)
    assert math.isclose(acc["self_s"]["dipoles.assemble_impedance"], 0.4)
    assert math.isclose(acc["self_s"]["modes.cm_scattering"], 0.4)
    assert acc["calls"]["network.check_unitary"] == 1
    assert math.isclose(acc["cli_self_s"], 1.5)
    assert run.check_spans(spans, loaded=0.0, end=4.0) is None


@pytest.mark.parametrize("index, start, end, parent, reason", [
    (2, 1.6, 1.8, 1, "span 2 (swe.regular_wave_table) outside its parent"),
    (3, 2.5, 4.0, None, "span 3 (modes.cm_scattering) overlaps an earlier sibling"),
    (3, 3.5, 4.5, None, "span 3 (modes.cm_scattering) outside its parent"),
    (4, 3.6, None, 3, "span 4 (network.check_unitary) outside its parent"),
])
def test_trace_check_flags_misnested_spans(index, start, end, parent, reason):
    spans = _spans()
    spans[index].update(start=start, end=end, parent=parent)
    assert run.check_spans(spans, loaded=0.0, end=4.0) == reason


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    assert run.tail([float(v) for v in range(20)]) == (50, 9.0)
    assert run.tail([float(v) for v in range(100)]) == (90, 89.0)
