"""Characteristic and substructure characteristic modes of lossless scatterers.

Modes are computed from scattering, transition, or impedance operators;
built-in backends are a coupled-dipole volumetric MoM, analytic Mie
spheres, and their hybrid.  One pencil, ``ScatterOracle`` (the actions
of T and T_b), feeds the scattering engine and the matrix-free iterative
solver.
"""

from .dipoles import (
    BACKGROUND,
    CONTROLLABLE,
    BlockImpedance,
    DipoleScene,
    Port,
    assemble_impedance,
    dyadic_green,
    mirror_scene,
    transition,
)
from .exceptions import (
    DomainError,
    GeometryError,
    ResolutionError,
    ShapeError,
    SolveError,
)
from .hybrid import assemble_hybrid, assemble_u4, hybrid_impedance_modes
from .iterative import composed_matvec, iterate
from .mie import SphereSpec, mie_modeset, mie_t_coefficients, mie_tmatrix
from .modes import (
    ModeSet,
    ScatterOracle,
    cm_impedance_substructure,
    cm_scattering,
    cm_t_form,
    recover_currents,
    scattering_unitarity,
    substructure_power_check,
    tilde_tmatrix,
    track_modes,
)
from .network import (
    check_t_power,
    check_unitary,
    check_unitary_factored,
)
from .swe import (
    WaveBasis,
    basis,
    ground_plane_filter,
    mirror_parity,
    project_onto_regular,
    regular_wave_table,
    sphere_quadrature,
    truncation_order,
)

__version__ = "0.1.0"
