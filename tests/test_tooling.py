"""Guards for tooling that reaches into the library by name."""

import importlib
import importlib.util
from pathlib import Path

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
