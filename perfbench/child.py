"""One ``scatmodes run`` in a fresh interpreter, timed from the inside.

Usage::

    python3 child.py SCENARIO OUT_DIR STATS_JSON [--trace RUN_ID] [--env]

The parent records the launch time; this process records when the scenario
is loaded (interpreter start, imports of numpy/scipy/``scatmodes.cli`` and
``load_scenario`` are set-up) and when the sweep ends.  The sweep itself goes
through ``scatmodes.cli.main`` so exit codes and error mapping are the CLI's
own; an uncaught exception leaves its traceback on stderr.  Times are
``time.monotonic()`` values, comparable across processes on one machine.

``--trace`` wraps public functions of each layer, at the bindings their
callers use, in spans kept in memory and written to STATS_JSON at the end.
``--env`` adds the BLAS libraries loaded and their thread counts.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import importlib
import json
import os
import resource
import sys
import time

JOBS = 1  # points are solved one after another; BLAS threads are the program's default
# A runaway child is killed by the kernel after this much CPU time (all
# threads together), so the benchmark always ends.
CPU_LIMIT_S = 300

# (module whose binding is replaced, names) -- every binding a caller looks up
# at call time, so each call into a layer passes through exactly one span.
TRACED_BINDINGS = (
    ("scatmodes.cli", ("transition", "assemble_hybrid", "hybrid_impedance_modes",
                       "cm_scattering", "iterate", "track_modes", "check_unitary")),
    ("scatmodes.swe", ("regular_wave_table", "project_onto_regular")),
    ("scatmodes.hybrid", ("assemble_impedance", "assemble_u4", "mie_tmatrix")),
    ("scatmodes.modes", ("check_unitary",)),
    ("scatmodes.dipoles", ("assemble_impedance",)),
)


class Tracer:
    """In-memory spans: name, start, end, parent span index, run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, fn):
        # <module>.<function> of the defining module, e.g. network.check_unitary
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # "shape" of the first argument counts the work handed to the layer,
            # e.g. the quadrature points given to project_onto_regular.
            shape = getattr(args[0], "shape", None) if args else None
            span = {"name": name, "start": time.monotonic(), "end": None,
                    "parent": self._stack[-1] if self._stack else None,
                    "run_id": self.run_id,
                    "shape": list(shape) if shape is not None else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                self._stack.pop()

        return traced

    def install(self) -> None:
        for module_name, names in TRACED_BINDINGS:
            module = importlib.import_module(module_name)
            for name in names:
                setattr(module, name, self.wrap(getattr(module, name)))


def blas_libraries() -> list[dict]:
    """OpenBLAS builds mapped into this process, with their thread counts."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    entry["threads"] = get_threads()
                    entry["config"] = get_config().decode()
        found.append(entry)
    return found


def environment() -> dict:
    import numpy
    import scipy

    def blas(mod):
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": dep.get("name"), "version": dep.get("version")}

    return {
        "jobs": JOBS,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_libraries": blas_libraries(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("scenario")
    parser.add_argument("out")
    parser.add_argument("stats")
    parser.add_argument("--trace", metavar="RUN_ID")
    parser.add_argument("--env", action="store_true")
    args = parser.parse_args()
    resource.setrlimit(resource.RLIMIT_CPU,
                       (CPU_LIMIT_S, resource.getrlimit(resource.RLIMIT_CPU)[1]))

    from scatmodes import cli

    cli.load_scenario(args.scenario)
    loaded = time.monotonic()
    tracer = None
    if args.trace:
        tracer = Tracer(args.trace)
        tracer.install()
    code = cli.main(["run", "--scenario", args.scenario, "--out", args.out,
                     "--jobs", str(JOBS)])
    end = time.monotonic()

    stats = {"loaded": loaded, "end": end, "exit_code": code}
    if tracer is not None:
        stats["spans"] = tracer.spans
    if args.env:
        stats["env"] = environment()
    with open(args.stats, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
