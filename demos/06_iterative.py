"""Matrix-free estimation of dominant modes from solver callbacks.

When the scattering operators are only reachable through forward solves
(a block of excitations in, their responses out), the composed
eigenproblem operator can still be applied exactly: reciprocity turns the
Hermitian transposed factor into a forward solve plus conjugations.  A
block Krylov space grown by one block of responses per iteration then
delivers the dominant modes; this script feeds it the point's
``BlockImpedance``, whose actions of T and T_b go through its LU factors
(no n x n operator), and compares its estimates and residual history
against the dense decomposition.  Any other solver's callbacks enter as a
``ScatterOracle(apply, apply_background, dim)``.
"""

import numpy as np

from scatmodes import DipoleScene, cm_t_form, iterate, transition


def main():
    rng = np.random.default_rng(12)
    k = 1.0
    n = 12
    pos = []
    while len(pos) < n:
        p = rng.normal(size=3)
        p *= 0.9 * rng.random() ** (1 / 3) / np.linalg.norm(p)
        if all(np.linalg.norm(p - q) > 0.2 for q in pos):
            pos.append(p)
    scene = DipoleScene(np.array(pos), 6.0 * np.pi * (0.3 + rng.random(n)),
                        ("background",) * 5 + ("controllable",) * 7)
    blocks = transition(scene, k)
    print(f"operator dimension: {blocks.S.shape[0]}")

    dense = cm_t_form(blocks.T, blocks.T_b)
    estimate = iterate(blocks, n_modes=5, seed=42)
    diagnostics = estimate.diagnostics

    print(f"converged after {diagnostics['iterations']} block applications "
          f"({diagnostics['reason']})")
    print(f"\n{'|t| dense':>12} {'|t| matrix-free':>16}")
    for i in range(5):
        print(f"{abs(dense.t[i]):12.10f} {abs(estimate.t[i]):16.10f}")
    print("max top-5 deviation:",
          f"{np.abs(np.abs(dense.t[:5]) - np.abs(estimate.t[:5])).max():.2e}")

    print("\nlargest residual ||N x - theta x|| of the returned pairs per iteration:")
    residuals = diagnostics["residuals"]
    for i, r in enumerate(residuals):
        bar = "#" * max(1, int(40 * r / max(residuals)))
        print(f"  {i:3d}  {r:9.2e}  {bar}")


if __name__ == "__main__":
    main()
