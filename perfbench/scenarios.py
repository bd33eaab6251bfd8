"""Seeded scenario generator for the benchmark workloads.

Each workload is built so that one layer of ``scatmodes`` does most of the
work.  The circumscribing radius (and, for the hybrid scene, the inner radius
of the dipole shell) is pinned, so every seed yields the same wave basis and
the same number of unknowns; only positions and polarisabilities vary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0


def _hz(k: float) -> float:
    """Frequency (Hz) of wavenumber ``k`` (rad/m)."""
    return k * SPEED_OF_LIGHT / (2.0 * math.pi)


@dataclass(frozen=True)
class Workload:
    name: str
    solver: str
    reference: str          # independent formulation used by the correctness gate
    f_min: float
    f_max: float
    n_points: int
    n_modes: int
    basis_size: int         # 2 l_max (l_max + 2) at f_max, fixed by the pinned radius
    unknowns: int           # 3 x dipoles
    controllable_unknowns: int


def _unit_vectors(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def _shell(rng, radii, min_sep):
    """Points at the given radii in random directions, pairwise >= min_sep apart."""
    pts = []
    for r in radii:
        while True:
            p = r * _unit_vectors(rng, 1)[0]
            if all(np.linalg.norm(p - q) >= min_sep for q in pts):
                pts.append(p)
                break
    return np.array(pts)


def _ball(rng, n, radius, min_sep):
    """n points uniform in a ball, pairwise >= min_sep apart (rejection sampling)."""
    pts = np.zeros((0, 3))
    while len(pts) < n:
        p = radius * rng.random() ** (1.0 / 3.0) * _unit_vectors(rng, 1)[0]
        if len(pts) == 0 or np.min(np.linalg.norm(pts - p, axis=1)) >= min_sep:
            pts = np.vstack([pts, p])
    return pts


def _dipoles(positions, alphas, regions):
    return [
        {"position": [float(x) for x in p], "polarizability": float(a), "region": r}
        for p, a, r in zip(positions, alphas, regions)
    ]


def _dipole_scene(rng):
    # README-like: 4 dipoles, 2 controllable + 2 background, farthest pinned at 0.08 m.
    radii = np.concatenate([[0.08], 0.06 + 0.02 * rng.random(3)])
    pos = _shell(rng, radii, min_sep=0.08)
    alphas = 0.015 + 0.01 * rng.random(4)
    regions = ["controllable", "controllable", "background", "background"]
    return {"dipoles": _dipoles(pos, alphas, regions)}


def _hybrid_scene(rng):
    # Dielectric sphere inside a shell of 4 dipoles at 0.65-0.80 m; both shell
    # radii are pinned so the quadrature fit radius and the basis never change.
    radii = np.concatenate([[0.80, 0.65], 0.65 + 0.15 * rng.random(2)])
    pos = _shell(rng, radii, min_sep=0.3)
    k_ref = 2.0
    alphas = 6.0 * math.pi / k_ref**3 * (0.3 + rng.random(4))
    regions = ["background", "controllable", "controllable", "controllable"]
    return {
        "dipoles": _dipoles(pos, alphas, regions),
        "sphere": {"radius": 0.05, "material": "dielectric", "eps_r": 4.0},
    }


def _cloud_scene(rng):
    # Two-region cloud of 300 dipoles (100 background) in a ball of radius 2 m,
    # farthest dipole pinned on the surface: ka = 2 at f_max.
    n, n_bg, radius = 300, 100, 2.0
    pos = _ball(rng, n - 1, 0.97 * radius, min_sep=0.2)
    while True:
        p = radius * _unit_vectors(rng, 1)[0]
        if np.min(np.linalg.norm(pos - p, axis=1)) >= 0.2:
            break
    pos = np.vstack([pos, p])
    k_ref = 1.0
    alphas = 6.0 * math.pi / k_ref**3 * (0.3 + rng.random(n))
    regions = ["background"] * n_bg + ["controllable"] * (n - n_bg)
    return {"dipoles": _dipoles(pos, alphas, regions)}


# Each workload leaves most of the time to one layer (shares from a traced run
# on 2 cores; see BENCHMARK.json for the one-line reasons):
#   dipole-sweep  dense mode engine (modes.cm_scattering) and its unitarity
#                 checks; 12 unknowns, so assembly is negligible and 3 N_c << n.
#   hybrid-sweep  U4 assembly: swe.project_onto_regular and the wave table on the
#                 quadrature sphere; the eigenproblem is a 9x9 pencil.
#   cloud-sweep   Green assembly and the LU solve of 900 unknowns against 448
#                 right-hand sides; the Krylov estimator replaces the dense engine.
WORKLOADS = {
    w.name: w for w in (
        Workload("dipole-sweep", "dense-scattering", "t-form", 5.0e8, 9.0e8, 5, 6,
                 390, 12, 6),
        Workload("hybrid-sweep", "hybrid-impedance", "hybrid-scattering",
                 _hz(1.75), _hz(2.5), 3, 6, 448, 12, 9),
        Workload("cloud-sweep", "iterative", "dense-scattering",
                 _hz(0.8), _hz(1.0), 3, 6, 448, 900, 600),
    )
}

_SCENES = {"dipole-sweep": _dipole_scene, "hybrid-sweep": _hybrid_scene,
           "cloud-sweep": _cloud_scene}


def scenario(name: str, seed: int, n_points: int | None = None) -> dict:
    """Scenario JSON object of workload ``name`` for ``seed``.

    ``n_points`` shortens the sweep.
    """
    w = WORKLOADS[name]
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    return {
        "version": 1,
        "scene": _SCENES[name](rng),
        "sweep": {"f_min": w.f_min, "f_max": w.f_max,
                  "n_points": w.n_points if n_points is None else n_points},
        "solver": w.solver,
        "n_modes": w.n_modes,
    }
