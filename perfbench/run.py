"""Benchmark of ``scatmodes run`` on seeded scenarios.

Usage (from the repository root)::

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``; with
``--workload all`` it is shared equally among the workloads.  For each
workload the benchmark writes a seeded scenario, runs the reference
formulation of the same scene once (untimed), and then, for its share of
``--seconds``, launches ``scatmodes run`` in fresh child processes
(``--jobs 1``, BLAS thread variables removed so the program's own BLAS
default is measured).  A run takes its share of ``--seconds`` plus the
reference run and the last child, about 5 s more per workload.  Every
child is gated: exit code 0, no traceback, no ``ResolutionError``, finite
values, the expected row count, and ``scatmodes compare --tol 1e-6`` against
the reference.  Failed runs are counted and left out of the medians.

``--trace 0`` reports the end-to-end metrics (medians over passing runs):
``run_s``, ``points_per_s``, ``setup_s`` and ``peak_rss_mb``; ``failed_frac``
and tail percentiles are printed above the result line.  ``--trace 1``
alternates untraced and traced children and reports, per layer function, its
self time ``<module>.<function>_s`` (median over traced children; 0 where the
workload never calls it) and its call count, plus ``traced_sweep_s``,
``cli.self_s`` (sweep time no span covers), ``trace_overhead_s`` and exact
work counts.  A traced child fails the gate unless its spans nest (each child
span inside its parent, siblings disjoint, roots inside the sweep) and its
sweep clock agrees with the parent's launch-to-exit clock.

Scenario, reference output and ``result.json`` (environment block, every
sample, counts) are kept in ``perfbench/out/<workload>/seed-<n>/`` so a run
can be replayed with ``scatmodes run --scenario .../scenario.json``.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import scenarios

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD = BENCH / "child.py"

GATE_TOL = 1e-6  # the tolerance tests/test_cli.py uses for `scatmodes compare`
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SAMPLES = 4  # with --trace 1, two traced and two untraced
# The parent's clock (exit minus scenario loaded) may exceed the child's traced
# sweep only by writing the stats file and interpreter exit: 0.04-0.15 s seen
# on a 2-core Xeon.
EXIT_SLACK_S = 0.5
TRACE_COLUMNS = ("frequency_hz", "re_t", "im_t", "modal_significance", "lambda",
                 "circle_dev", "orth_dev")

END_TO_END = (("run_s", "s"), ("points_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
# Layers as <module>.<function> of the defining module (see child.TRACED_BINDINGS).
LAYERS = (
    "dipoles.transition", "dipoles.assemble_impedance", "hybrid.assemble_hybrid",
    "hybrid.assemble_u4", "hybrid.hybrid_impedance_modes", "mie.mie_tmatrix",
    "swe.regular_wave_table", "swe.project_onto_regular", "modes.cm_scattering",
    "modes.track_modes", "network.check_unitary", "iterative.iterate",
)


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run (no program, reference run failed)."""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env() -> tuple[dict, dict]:
    """Environment for children, and the BLAS thread variables removed from it."""
    env = dict(os.environ)
    removed = {var: env.pop(var, None) for var in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env, removed


def launch(scenario: Path, out: Path, env: dict, trace_id: str | None = None,
           want_env: bool = False) -> dict:
    """Run one child; wall time from launch to exit and its peak RSS."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    stats_path = out / "stats.json"
    cmd = [sys.executable, str(CHILD), str(scenario), str(out), str(stats_path)]
    if trace_id:
        cmd += ["--trace", trace_id]
    if want_env:
        cmd.append("--env")
    with open(out / "stdout.txt", "wb") as fo, open(out / "stderr.txt", "wb") as fe:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = {"exit_code": proc.returncode, "run_s": end - start,
              "peak_rss_mb": usage.ru_maxrss / 1024.0}
    try:
        stats = json.loads(stats_path.read_text())
    except (OSError, ValueError):
        stats = None
    if stats is not None:
        sample["setup_s"] = stats["loaded"] - start
        sample["sweep_s"] = sample["run_s"] - sample["setup_s"]
        sample["inner_sweep_s"] = stats["end"] - stats["loaded"]
        sample["loaded"], sample["end"] = stats["loaded"], stats["end"]
        sample["spans"] = stats.get("spans")
        sample["env"] = stats.get("env")
    return sample


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def check_traces(traces: Path, reference: Path, n_rows: int) -> tuple[str | None, float | None]:
    """Gate one traces.csv: row count, finite values, `scatmodes compare` to the reference.

    Returns (reason for failure or None, compare's max deviation).
    """
    from scatmodes import cli

    try:
        with open(traces, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        values = [float(row[col]) for row in rows for col in TRACE_COLUMNS]
    except (OSError, KeyError, ValueError, TypeError) as err:
        return f"unreadable traces.csv: {err}", None
    if len(rows) != n_rows:
        return f"{len(rows)} rows in traces.csv, expected {n_rows}", None
    if not all(math.isfinite(v) for v in values):
        return "non-finite value in traces.csv", None
    report = io.StringIO()
    with contextlib.redirect_stdout(report), contextlib.redirect_stderr(report):
        code = cli.main(["compare", str(reference), str(traces), "--tol", repr(GATE_TOL)])
    try:
        deviation = json.loads(report.getvalue())["max_deviation"]
    except (ValueError, KeyError):
        deviation = None
    if code != 0:
        return f"compare failed (exit {code}): {report.getvalue().strip()}", deviation
    return None, deviation


def check_child(sample: dict, out: Path) -> str | None:
    """Process-level part of the gate."""
    stderr = (out / "stderr.txt").read_text(errors="replace")
    if "Traceback" in stderr:
        return "traceback"
    if "ResolutionError" in stderr:
        return "ResolutionError"
    if sample["exit_code"] != 0:
        return f"exit code {sample['exit_code']}"
    if "setup_s" not in sample:
        return "child wrote no stats"
    return None


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest of the p50/p75/p90/p95/p99 with >= 10 samples beyond it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in (50, 75, 90, 95, 99):
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            best = (p, ordered[rank - 1])
    return best


def check_spans(spans: list[dict], loaded: float, end: float) -> str | None:
    """Every span lies inside its parent (roots inside the sweep [loaded, end])
    and spans of one parent do not overlap, so self times and cli.self_s
    partition the traced sweep."""
    last_end: dict[int | None, float] = {}
    for i, s in enumerate(spans):
        lo, hi = (loaded, end) if s["parent"] is None else (
            spans[s["parent"]]["start"], spans[s["parent"]]["end"])
        if s["end"] is None or not lo <= s["start"] <= s["end"] <= hi:
            return f"span {i} ({s['name']}) outside its parent"
        if s["start"] < last_end.get(s["parent"], lo):
            return f"span {i} ({s['name']}) overlaps an earlier sibling"
        last_end[s["parent"]] = s["end"]
    return None


def layer_times(spans: list[dict], sweep_s: float) -> dict:
    """Self time and calls per layer, and cli.self_s (sweep time no span covers)."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    self_s = {name: 0.0 for name in LAYERS}
    calls = {name: 0 for name in LAYERS}
    for s, cov in zip(spans, covered):
        self_s[s["name"]] += (s["end"] - s["start"]) - cov
        calls[s["name"]] += 1
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    return {"self_s": self_s, "calls": calls, "cli_self_s": sweep_s - roots}


def work_counts(scenario: dict, out: Path, spans: list[dict] | None) -> dict:
    """Exact work counts from the scenario, diagnostics.json and the spans."""
    diag = json.loads((out / "diagnostics.json").read_text())
    dipoles = scenario["scene"]["dipoles"]
    quad = [s["shape"][0] for s in spans or [] if s["name"] == "swe.project_onto_regular"]
    return {
        "swe.basis_size": diag["basis_size"],
        "dipoles.unknowns": 3 * len(dipoles),
        "dipoles.controllable_unknowns":
            3 * sum(d.get("region", "controllable") == "controllable" for d in dipoles),
        "swe.quadrature_points": max(quad, default=0),
        "iterative.iterations": int(sum(p.get("iterations", 0)
                                        for p in diag["per_frequency"])),
    }


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    """Commit of the checkout; None outside a git repository or without git."""
    # The ceiling keeps git from searching directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(removed: dict, child: dict | None) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "blas_thread_vars_removed_from_child": list(BLAS_THREAD_VARS),
        "blas_thread_vars_in_parent": {k: v for k, v in removed.items() if v is not None},
        **(child or {}),
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = scenarios.WORKLOADS[name]
    run_dir = OUT / name / f"seed-{seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    scenario = scenarios.scenario(name, seed)
    scenario_path = run_dir / "scenario.json"
    scenario_path.write_text(json.dumps(scenario, indent=1) + "\n")
    ref_scenario = dict(scenario, solver=w.reference)
    ref_path = run_dir / "reference-scenario.json"
    ref_path.write_text(json.dumps(ref_scenario, indent=1) + "\n")
    n_points = scenario["sweep"]["n_points"]
    n_rows = n_points * w.n_modes
    env, removed = child_env()

    # Untimed reference run of an independent formulation; it also warms the
    # file cache and byte-code cache before the first timed child.
    ref_out = run_dir / "reference"
    ref = launch(ref_path, ref_out, env, want_env=True)
    reference = ref_out / "traces.csv"
    reason = check_child(ref, ref_out) or check_traces(reference, reference, n_rows)[0]
    if reason is not None:
        raise BenchmarkError(f"{name}: reference run ({w.reference}) failed: {reason}")

    samples = []
    start = time.monotonic()
    while time.monotonic() - start < seconds or len(samples) < MIN_SAMPLES:
        traced = trace and len(samples) % 2 == 1
        out = run_dir / ("traced" if traced else "timed")
        sample = launch(scenario_path, out, env,
                        trace_id=f"{name}-{seed}-{len(samples)}" if traced else None)
        sample["traced"] = traced
        failure = check_child(sample, out)
        deviation = None
        if failure is None:
            failure, deviation = check_traces(out / "traces.csv", reference, n_rows)
        if failure is None and traced:
            failure = check_spans(sample["spans"], sample["loaded"], sample["end"])
            slack = sample["sweep_s"] - sample["inner_sweep_s"]
            if failure is None and not 0.0 <= slack <= EXIT_SLACK_S:
                failure = (f"traced sweep {sample['inner_sweep_s']:.4f} s against "
                           f"{sample['sweep_s']:.4f} s on the parent's clock")
            if failure is None:
                sample["layers"] = layer_times(sample["spans"], sample["inner_sweep_s"])
        if failure is None:
            sample["counts"] = work_counts(scenario, out, sample.get("spans"))
        sample.pop("spans", None)
        sample.pop("env", None)
        sample["max_deviation"] = deviation
        sample["failure"] = failure
        samples.append(sample)

    passed = [s for s in samples if s["failure"] is None]
    untraced = [s for s in passed if not s["traced"]]
    traced_ok = [s for s in passed if s["traced"]]
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "solver": w.solver, "reference": w.reference,
        "n_points": n_points,
        "environment": environment(removed, ref.get("env")),
        "attempted": len(samples), "failed": len(samples) - len(passed),
        "failed_frac": (len(samples) - len(passed)) / len(samples),
        # traced children also count the work handed to swe.project_onto_regular
        "counts": (traced_ok or passed)[-1]["counts"] if passed else None,
        "samples": samples,
    }
    metrics, tails = {}, {}
    if untraced:
        series = {
            "run_s": [s["run_s"] for s in untraced],
            "points_per_s": [n_points / s["sweep_s"] for s in untraced],
            "setup_s": [s["setup_s"] for s in untraced],
            "peak_rss_mb": [s["peak_rss_mb"] for s in untraced],
        }
        for metric, unit in END_TO_END:
            metrics[metric] = {"value": statistics.median(series[metric]), "unit": unit}
            tails[metric] = tail(series[metric])
    if trace and traced_ok and untraced:
        layer = {}
        for name_ in LAYERS:
            layer[f"{name_}_s"] = statistics.median(
                s["layers"]["self_s"][name_] for s in traced_ok)
            layer[f"{name_}.calls"] = statistics.median(
                s["layers"]["calls"][name_] for s in traced_ok)
        layer["traced_sweep_s"] = statistics.median(s["inner_sweep_s"] for s in traced_ok)
        layer["cli.self_s"] = statistics.median(s["layers"]["cli_self_s"] for s in traced_ok)
        layer["trace_overhead_s"] = (layer["traced_sweep_s"]
                                     - statistics.median(s["inner_sweep_s"] for s in untraced))
        layer.update(result["counts"])
        result["per_layer"] = layer
    result["metrics"] = metrics
    result["tails"] = tails
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def per_layer_unit(metric: str) -> str:
    return "s" if metric.endswith("_s") else "count"


def report(result: dict) -> dict:
    """Print one workload's numbers; return its metrics for the result line."""
    c = result["counts"] or {}
    print(f"{result['workload']}  seed {result['seed']}  {result['solver']} "
          f"(gate: {result['reference']})  points {result['n_points']}  "
          f"basis {c.get('swe.basis_size')}  unknowns {c.get('dipoles.unknowns')} "
          f"({c.get('dipoles.controllable_unknowns')} controllable)")
    n_timed = sum(1 for s in result["samples"] if not s["traced"] and s["failure"] is None)
    for metric, unit in END_TO_END:
        if metric in result["metrics"]:
            t = result["tails"][metric]
            extra = f"p{t[0]} {t[1]:.4f}" if t else "no percentile has 10 samples beyond it"
            print(f"  {metric:<14} {result['metrics'][metric]['value']:12.4f} {unit:<5} "
                  f"median of {n_timed}; {extra}")
    print(f"  {'failed_frac':<14} {result['failed_frac']:12.4f} {'-':<5} "
          f"{result['failed']} of {result['attempted']} runs failed")
    for s in result["samples"]:
        if s["failure"] is not None:
            print(f"    failed run: {s['failure']}")
    if "per_layer" not in result:
        return result["metrics"]
    layer = result["per_layer"]
    print(f"  {'layer self time':<32} {'s':>9} {'% of sweep':>10} {'calls':>7}")
    for name in sorted(LAYERS, key=lambda n: -layer[n + "_s"]):
        print(f"  {name:<32} {layer[name + '_s']:9.4f} "
              f"{100.0 * layer[name + '_s'] / layer['traced_sweep_s']:10.2f} "
              f"{layer[name + '.calls']:7.0f}")
    for metric, value in layer.items():
        if not metric.startswith(LAYERS):
            print(f"  {metric:<32} {value:9.4f} {per_layer_unit(metric)}")
    return {m: {"value": v, "unit": per_layer_unit(m)} for m, v in layer.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*scenarios.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "scatmodes" / "cli.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(scenarios.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds / len(names),
                                        bool(args.trace)))
    except BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    metrics = {}
    for result in results:
        shown = report(result)
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        metrics.update({prefix + m: v for m, v in shown.items()})
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    complete = all("per_layer" in r if args.trace else r["metrics"] for r in results)
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
