import math

import numpy as np
import pytest

from scatmodes import DipoleScene


def random_positions(rng, n, radius, min_sep):
    """Rejection-sample n points in a ball with pairwise separation."""
    pts = []
    while len(pts) < n:
        p = rng.normal(size=3)
        p *= radius * rng.random() ** (1.0 / 3.0) / np.linalg.norm(p)
        if all(np.linalg.norm(p - q) >= min_sep for q in pts):
            pts.append(p)
    return np.array(pts)


def random_scene(rng, n, ka, k=1.0, n_background=0, anisotropic=False,
                 strength=(0.3, 2.5)):
    """Random lossless dipole cloud of electrical radius ka."""
    radius = ka / k
    pos = random_positions(rng, n, radius, min_sep=0.25 * radius)
    lo, hi = strength
    scal = 6.0 * math.pi / k**3 * (lo + (hi - lo) * rng.random(n))
    if anisotropic:
        alpha = np.zeros((n, 3, 3))
        for i in range(n):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            d = scal[i] * (0.5 + rng.random(3))
            alpha[i] = q @ np.diag(d) @ q.T
    else:
        alpha = scal
    region = ["background"] * n_background + ["controllable"] * (n - n_background)
    return DipoleScene(pos, alpha, tuple(region))


@pytest.fixture(scope="session")
def lossless_bank():
    """50 randomized scenes (N <= 30 dipoles, ka <= 2) for the invariant sweep."""
    rng = np.random.default_rng(2024)
    scenes = []
    for i in range(50):
        if i < 44:
            ka = 0.3 + 0.7 * rng.random()
        elif i < 48:
            ka = 1.0 + 0.5 * rng.random()
        else:
            ka = 2.0
        n = int(rng.integers(4, 31))
        n_bg = int(rng.integers(0, n // 2 + 1))
        scenes.append((random_scene(rng, n, ka, n_background=n_bg,
                                    anisotropic=bool(i % 7 == 3)), 1.0))
    return scenes


@pytest.fixture(scope="session")
def equivalence_bank():
    """20 randomized two-region scenes; all of dimension <= 300."""
    rng = np.random.default_rng(777)
    scenes = []
    for _ in range(20):
        ka = 0.4 + 0.6 * rng.random()
        n = int(rng.integers(5, 13))
        n_bg = int(rng.integers(2, n - 2))
        scenes.append((random_scene(rng, n, ka, n_background=n_bg), 1.0))
    return scenes


@pytest.fixture(scope="session")
def ground_plane_bank():
    """10 randomized scenes above the z = 0 PEC plane."""
    rng = np.random.default_rng(4242)
    scenes = []
    for _ in range(10):
        n = int(rng.integers(3, 7))
        k = 1.0
        pos = random_positions(rng, n, 0.35, min_sep=0.12)
        pos[:, 2] = 0.08 + 0.4 * rng.random(n)
        n_bg = int(rng.integers(0, n // 2 + 1))
        region = ["background"] * n_bg + ["controllable"] * (n - n_bg)
        scenes.append((DipoleScene(pos, 6.0 * math.pi * (0.4 + rng.random(n)),
                                   tuple(region), ground_plane=True), k))
    return scenes


def hybrid_sweep_seed7(n_points=3):
    """Scenario of a dielectric sphere (radius 0.05 m) in a shell of four dipoles.

    One background and three controllable dipoles at 0.65-0.80 m, swept
    over k = 1.75-2.5 rad/m under ``hybrid-impedance``; the truncation
    rule gives l_max = 14 (448 waves) at the top frequency.
    """
    dipoles = [
        ([-0.2682961835807775, -0.5408466484771441, 0.5248829019000624],
         2.6998795137532725, "background"),
        ([0.013312997221893604, -0.6264057904904451, 0.17302759821777125],
         1.5135872108540072, "controllable"),
        ([-0.45266529585251136, -0.10193067290124035, -0.6088734578692179],
         1.561489381827807, "controllable"),
        ([0.5405252558028575, 0.2287844788202931, 0.3163823575400393],
         1.9353393869456519, "controllable"),
    ]
    return {
        "version": 1,
        "scene": {
            "dipoles": [{"position": p, "polarizability": a, "region": r}
                        for p, a, r in dipoles],
            "sphere": {"radius": 0.05, "material": "dielectric", "eps_r": 4.0},
        },
        "sweep": {"f_min": 83498540.2866465, "f_max": 119283628.98092356,
                  "n_points": n_points},
        "solver": "hybrid-impedance",
        "n_modes": 6,
    }
