"""Microbenchmark of the sweep's Gram and readout products: scipy's BLAS against numpy's ``@``.

Usage (from the repository root)::

    PYTHONPATH=src python3 tools/bench_gram.py [--repeats N]

Times, at the sizes of a cloud sweep (n = 448 waves, 3N = 900 unknowns),
the three kernels the library runs on scipy's BLAS against the plain
full-matrix numpy formulas kept as test oracles in ``tests/oracles.py``:

- ``check_unitary`` of a 448 x 448 unitary S (``S^H S`` in one triangle);
- ``_readout_product`` of a real 448 x 900 readout and a complex 900 x 448
  block (one real GEMM; the numpy side is the same real GEMM on the
  interleaved float view, through ``@``);
- ``factorization_residual`` of a 900 x 900 Z with ``Re Z = U^T U``.

Everything runs inside ``cli._blas_threads(1)``, the thread counts a
``--jobs 1`` sweep runs with (numpy's OpenBLAS on one thread, scipy's on
every core).  Prints the median time of each side and the largest
deviation from the oracle, absolute for the checks (whose values are
rounding-sized) and relative to the largest entry for the product.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from oracles import factorization_residual_reference, unitary_deviation_reference  # noqa: E402
from scatmodes.cli import _blas_threads  # noqa: E402
from scatmodes.dipoles import _readout_product, factorization_residual  # noqa: E402
from scatmodes.network import check_unitary  # noqa: E402

N_WAVES, N_UNKNOWNS = 448, 900


def _median_ms(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def _cases(rng):
    """(name, library call, oracle call, deviation of the library's result from the oracle's)."""
    s = np.linalg.qr(rng.standard_normal((N_WAVES, N_WAVES))
                     + 1j * rng.standard_normal((N_WAVES, N_WAVES)))[0]
    u = rng.standard_normal((N_WAVES, N_UNKNOWNS)) / N_WAVES
    x = rng.standard_normal((N_UNKNOWNS, N_WAVES)) + 1j * rng.standard_normal((N_UNKNOWNS, N_WAVES))
    flat = x.view(float)
    h = rng.standard_normal((N_UNKNOWNS, N_UNKNOWNS))
    z = u.T @ u + 1j * (h + h.T)

    def scalar(a, b):
        return abs(a - b)

    def matrix(a, b):
        return float(np.abs(a - b).max() / np.abs(b).max())

    return (
        ("check_unitary S^H S", lambda: check_unitary(s),
         lambda: unitary_deviation_reference(s), scalar),
        ("readout u @ x", lambda: _readout_product(u, x),
         lambda: (u @ flat).view(complex), matrix),
        ("factorization_residual U^T U", lambda: factorization_residual(z, u),
         lambda: factorization_residual_reference(z, u), scalar),
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=21)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(0)
    with _blas_threads(1) as record:
        pools = ", ".join(f"{lib['library']} {lib['threads']}" for lib in record["libraries"])
        print(f"cores {record['cores']}; threads: {pools or 'no OpenBLAS found'}")
        print(f"{'kernel':<30} {'numpy ms':>9} {'scipy ms':>9} {'max deviation':>13}")
        for name, library, oracle, deviation in _cases(rng):
            diff = deviation(library(), oracle())
            t_oracle = _median_ms(oracle, args.repeats)
            t_library = _median_ms(library, args.repeats)
            print(f"{name:<30} {t_oracle:>9.1f} {t_library:>9.1f} {diff:>13.1e}")


if __name__ == "__main__":
    main()
