"""Lumped ports in the generalized scattering matrix.

A port adds one power-wave channel to the scattering matrix; for a
lossless scene the augmented matrix stays unitary, so characteristic
modes extend to fed structures without any change of formalism.  On a
symmetric three-dipole scene with a centre port, modes whose current
vanishes at the port element keep their eigenvalues exactly when the
port is added, while modes that drive the port are broadened by the
reference impedance.  ``transition`` assembles the ported scene like
any other: each port terminates its dipole axis in z0 and adds one
channel, a readout row past the wave basis.
"""

import numpy as np

from scatmodes import (
    DipoleScene,
    Port,
    check_unitary,
    cm_scattering,
    transition,
)


def main():
    k = 2.0
    pos = np.array([[0.0, -0.35, 0.0], [0.0, 0.0, 0.0], [0.0, 0.35, 0.0]])
    alpha = 6.0 * np.pi / k**3 * 0.8
    unported = DipoleScene(pos, alpha)
    ported = DipoleScene(pos, alpha, ports=(Port(1, "x", 73.0),))

    blocks = transition(unported, k)
    ported_blocks = transition(ported, k, blocks.basis)
    print(f"augmented scattering matrix: {ported_blocks.S.shape[0]} channels "
          f"({ported_blocks.basis.size} waves + {len(ported.ports)} port)")
    print(f"unitarity deviation: {check_unitary(ported_blocks.S):.2e}")

    ms0 = cm_scattering(blocks.S)
    sb = np.eye(ported_blocks.S.shape[0], dtype=complex)
    ms1 = cm_scattering(ported_blocks.S, sb)

    currents = np.linalg.solve(blocks.system, blocks.readout.T @ ms0.a)
    inv = np.empty_like(blocks.perm)
    inv[blocks.perm] = np.arange(blocks.perm.size)
    port_row = inv[3 * 1 + 0]
    rel = np.abs(currents[port_row]) / np.linalg.norm(currents, axis=0).clip(1e-300)

    print(f"\n{'|t| (no port)':>14} {'port current':>13} {'min |dt| with port':>19}")
    for n in range(ms0.n_modes):
        if abs(ms0.t[n]) < 1e-6:
            continue
        shift = np.abs(ms1.t - ms0.t[n]).min()
        print(f"{abs(ms0.t[n]):14.8f} {rel[n]:13.2e} {shift:19.2e}")
    print("\nmodes with zero port current are untouched; the others move.")


if __name__ == "__main__":
    main()
