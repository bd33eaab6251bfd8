"""Hybrid backend: dipole cloud around a T-matrix sphere.

The sphere never becomes an unknown: its scattering enters through the
closed-form diagonal transition matrix, coupled to the dipole currents
by the operator U4, itself in closed form: the outgoing waves evaluated
at the dipoles (the addition theorem).  The script computes the
substructure modes of the controllable dipoles, with the background
dipoles plus the sphere forming the background, by both the modified
impedance route and the scattering route, and sweeps the sphere
permittivity to show the background detuning the dominant mode.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment

from scatmodes import (
    DipoleScene,
    HybridScene,
    SphereSpec,
    assemble_hybrid,
    basis,
    hybrid_impedance_modes,
    hybrid_scattering_modes,
)


def main():
    rng = np.random.default_rng(88)
    k = 2.0
    n = 7
    pos = rng.normal(size=(n, 3))
    pos /= np.linalg.norm(pos, axis=1)[:, None]
    pos *= (0.62 + 0.18 * rng.random(n))[:, None]
    scene = DipoleScene(pos, 6.0 * np.pi / k**3 * (0.3 + rng.random(n)),
                        ("background",) * 3 + ("controllable",) * 4)
    sphere = SphereSpec(0.08, "dielectric", eps_r=4.0)
    hs = HybridScene(scene, sphere)
    wb = basis(18)

    system = assemble_hybrid(hs, k, wave_basis=wb)
    print(f"coupling operator U4 in closed form, worst column truncation residual "
          f"on the r_fit = {system.U4.meta['r_fit']:.3f} m sphere "
          f"{system.U4.meta['column_residuals'].max():.1e}")

    ms_s = hybrid_scattering_modes(hs, k, system=system)
    ms_i = hybrid_impedance_modes(hs, k, system=system)
    t_s = np.abs(ms_s.t[np.abs(ms_s.t) > 1e-6])
    t_i = np.abs(ms_i.t[np.abs(ms_i.t) > 1e-6])
    cost = np.abs(t_s[:, None] - t_i[None, :])
    rows, cols = linear_sum_assignment(cost)
    print(f"\n{'|t| scattering route':>21} {'impedance route':>17}")
    order = np.argsort(-t_s[rows])
    for i in order[:8]:
        print(f"{t_s[rows[i]]:21.10f} {t_i[cols[i]]:17.10f}")
    print(f"worst disagreement: {cost[rows, cols].max():.2e}")

    print("\nbackground detuning: dominant |t| over a wavenumber sweep, with a")
    print("larger sphere as the extra background (eps_r = 1 vs eps_r = 100):")
    rng2 = np.random.default_rng(8)
    pos2 = rng2.normal(size=(3, 3))
    pos2 /= np.linalg.norm(pos2, axis=1)[:, None]
    pos2 *= (0.50 + 0.12 * rng2.random(3))[:, None]
    small = DipoleScene(pos2, 6.0 * np.pi / 2.0**3 * (0.5 + 1.5 * rng2.random(3)))
    ks = np.linspace(1.4, 3.0, 9)
    wb2 = basis(14)
    rows = {}
    for eps in (1.0, 100.0):
        hs2 = HybridScene(small, SphereSpec(0.22, "dielectric", eps_r=eps))
        rows[eps] = [np.abs(hybrid_scattering_modes(
            hs2, kk, system=assemble_hybrid(hs2, kk, wave_basis=wb2,
                                            residual_tol=1.0)).t).max()
            for kk in ks]
    print("        k: " + " ".join(f"{kk:6.2f}" for kk in ks))
    for eps, vals in rows.items():
        peak = int(np.argmax(vals))
        print(f"  eps {eps:5.0f}: " + " ".join(f"{v:6.3f}" for v in vals)
              + f"   (peak at k = {ks[peak]:.2f})")


if __name__ == "__main__":
    main()
