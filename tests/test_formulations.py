"""Every formulation on every scene kind.

``run`` decomposes one ``BlockImpedance`` per point whatever the scene kind,
so each of the four formulations behind its solver names serves each kind.
On random scenes of the five kinds, each must return ``n_modes`` modes (or
all of them, where the operator is smaller), each with ``f = S_b a``, and the
four must agree on every significant mode, or the point must end in one of the
library's own errors.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from scatmodes import (
    DipoleScene,
    DomainError,
    GeometryError,
    Port,
    ResolutionError,
    ShapeError,
    SolveError,
    SphereSpec,
    transition,
)
from scatmodes import cli
from test_acceptance import optimal_match

SCENE_KINDS = ("plain", "port", "ground-plane", "sphere", "sphere-with-port")
FORMULATIONS = ("dense-scattering", "dense-impedance", "t-form", "iterative")
LIBRARY_ERRORS = (DomainError, GeometryError, ResolutionError, ShapeError, SolveError)


def _shell(rng, n, min_sep=0.25):
    """n points at 0.62-0.80 m from the origin in random directions, pairwise >= min_sep apart:
    the clearances of ``test_scattering_range.test_hybrid_bank``."""
    pts = []
    while len(pts) < n:
        p = rng.normal(size=3)
        p *= (0.62 + 0.18 * rng.random()) / np.linalg.norm(p)
        if all(np.linalg.norm(p - q) >= min_sep for q in pts):
            pts.append(p)
    return np.array(pts)


def _scene(kind, rng, n, n_background, k, pec):
    """A random lossless scene of ``kind``; a port sits on the last (controllable) dipole, a
    sphere is hybrid-sweep's (radius 0.05 m), PEC or dielectric."""
    pos = _shell(rng, n)
    if kind == "ground-plane":
        pos[:, 2] = np.abs(pos[:, 2]) + 0.05
    alpha = 6.0 * math.pi / k**3 * (0.3 + rng.random(n))
    ports = (Port(n - 1, int(rng.integers(3)), 20.0 + 180.0 * rng.random()),) \
        if kind.endswith("port") else ()
    sphere = (SphereSpec(0.05, "pec") if pec else SphereSpec(0.05, "dielectric", eps_r=4.0)) \
        if kind.startswith("sphere") else None
    return DipoleScene(pos, alpha, ("background",) * n_background + ("controllable",) * (
        n - n_background), ports=ports, ground_plane=kind == "ground-plane", sphere=sphere)


def _assert_agree(t_by_formulation, tol):
    """Every mode with |t| > 10 tol of each formulation has its partner in each other
    formulation's modes within tol, under the optimal one-to-one matching."""
    for (name, t), (other, t_other) in itertools.permutations(t_by_formulation.items(), 2):
        sig = t[np.abs(t) > 10.0 * tol]
        assert sig.size <= t_other.size, (name, other)
        worst = optimal_match(sig, t_other)[2].max(initial=0.0)
        assert worst <= tol, (name, other, worst)


@pytest.mark.parametrize("kind", SCENE_KINDS)
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), background=st.floats(0.0, 1.0),
       k=st.floats(0.5, 2.0), pec=st.booleans(), extra=st.integers(0, 3))
def test_every_formulation_agrees_on_every_scene_kind(kind, seed, n, background, k, pec, extra):
    # a sphere scene takes the U4 gate of ``run``'s sweep basis, which passes
    # at these clearances in most examples; a point that fails it, or any
    # other point that cannot be solved, raises instead
    n_background = min(int(background * n), n - 1)  # a controllable dipole carries the port
    sc = {"frequencies": np.array([k * cli.SPEED_OF_LIGHT / (2.0 * math.pi)]),
          "n_modes": 3 * (n - n_background) + extra, "tolerances": cli.TOLERANCES}
    t_by_formulation = {}
    try:
        sc["scene"] = _scene(kind, np.random.default_rng(seed), n, n_background, k, pec)
        wave_basis, angular, points = cli._sweep_basis(sc)
        blocks = transition(sc["scene"], k, wave_basis, angular, points[0][0])
        for solver in FORMULATIONS:
            ms, _ = cli._solve_point({**sc, "solver": solver}, k, wave_basis, 1, angular,
                                     points[0])
            assert ms.n_modes == min(sc["n_modes"], blocks.dim), solver
            f_norm = np.linalg.norm(ms.f)
            assert np.linalg.norm(ms.f - blocks.apply_sb(ms.a)) <= 1e-12 * f_norm, solver
            t_by_formulation[solver] = ms.t
    except LIBRARY_ERRORS as err:
        event(f"{kind}: {type(err).__name__}")
        return
    event(f"{kind}: agreed")
    _assert_agree(t_by_formulation, cli.TOLERANCES["equivalence"])
