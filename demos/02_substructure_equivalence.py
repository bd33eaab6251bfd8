"""Four routes to the same substructure characteristic modes.

A random lossless dipole cloud is split into a controllable and a
background region.  The substructure modes are then computed four ways:

  1. generalized scattering eigenproblem  S a = s S_b a
  2. composed transition operators (excitation and scattered variants)
  3. the modified transition matrix of the controllable region
  4. the impedance route: Schur complement of the background block and
     the real symmetric pencil of the compressed reactance

For lossless scenes these agree to rounding, which this script shows as
a per-mode table.  It also evaluates the scattered-power identity: for
every mode the substructure scattered power equals both -Re(t)/2 and
|t|^2/2 per unit excitation.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment

from scatmodes import (
    DipoleScene,
    cm_impedance_substructure,
    cm_scattering,
    cm_t_form,
    substructure_power_check,
    tilde_tmatrix,
    transition,
)


def random_scene(rng, n, ka, n_background):
    pos = []
    while len(pos) < n:
        p = rng.normal(size=3)
        p *= ka * rng.random() ** (1 / 3) / np.linalg.norm(p)
        if all(np.linalg.norm(p - q) > 0.25 * ka for q in pos):
            pos.append(p)
    alpha = 6.0 * np.pi * (0.3 + rng.random(n))
    region = ("background",) * n_background + ("controllable",) * (n - n_background)
    return DipoleScene(np.array(pos), alpha, region)


def main():
    rng = np.random.default_rng(7)
    k = 1.0
    scene = random_scene(rng, n=8, ka=0.8, n_background=3)
    print(f"scene: {scene.n_dipoles} dipoles "
          f"({np.sum(scene.is_controllable)} controllable), ka ~ 0.8")

    blocks = transition(scene, k)
    ms_scat = cm_scattering(blocks.S, blocks.S_b)
    ms_exc = cm_t_form(blocks.T, blocks.T_b, "excitation")
    ms_sca = cm_t_form(blocks.T, blocks.T_b, "scattered")
    ms_imp = cm_impedance_substructure(blocks)
    t_tilde_matrix, identity_residual = tilde_tmatrix(blocks)
    t_tilde = np.linalg.eigvals(t_tilde_matrix)

    def top(vals, n=8):
        vals = np.asarray(vals)
        return vals[np.argsort(-np.abs(vals))][:n]

    reference = top(ms_scat.t)
    print(f"\n{'|t| scattering':>15} {'t-form (a)':>12} {'t-form (f)':>12} "
          f"{'T-tilde':>12} {'impedance':>12}")
    rows = []
    for t_set in (ms_exc.t, ms_sca.t, t_tilde, ms_imp.t):
        cand = top(t_set)
        cost = np.abs(reference[:, None] - cand[None, :])
        _, cols = linear_sum_assignment(cost)
        rows.append(cand[cols])
    for i in range(len(reference)):
        print(f"{abs(reference[i]):15.10f} " + " ".join(
            f"{abs(rows[j][i]):12.10f}" for j in range(4)))

    print("\nmax |t| spread across the four formulations:",
          f"{max(np.abs(np.abs(rows[j]) - np.abs(reference)).max() for j in range(4)):.2e}")

    resid = substructure_power_check(blocks.T, blocks.T_b, ms_scat)
    print("scattered-power identity, worst residual over all modes:",
          f"{resid.max():.2e}")
    print("modified-transition-matrix identity residual:",
          f"{identity_residual:.2e}")


if __name__ == "__main__":
    main()
