"""Characteristic and substructure characteristic modes of lossless scatterers.

Modes are computed from scattering, transition, or impedance operators;
built-in backends are a coupled-dipole volumetric MoM, analytic Mie
spheres, and their hybrid, with a matrix-free iterative solver for
operator-callback access.
"""

from .dipoles import (
    BACKGROUND,
    CONTROLLABLE,
    BlockImpedance,
    DipoleScene,
    Port,
    TransitionSet,
    assemble_impedance,
    assemble_projection,
    dyadic_green,
    generalized_scattering,
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
from .hybrid import (
    HybridScene,
    assemble_hybrid,
    assemble_u4,
    hybrid_impedance_modes,
    hybrid_scattering_modes,
    hybrid_transition,
)
from .iterative import ScatterOracle, composed_matvec, iterate
from .mie import SphereSpec, mie_modeset, mie_t_coefficients, mie_tmatrix
from .modes import (
    ModeSet,
    SchurSystem,
    SweepResult,
    cm_ground_plane,
    cm_impedance_substructure,
    cm_scattering,
    cm_t_form,
    recover_currents,
    scattering_unitarity,
    schur_system,
    substructure_power_check,
    tilde_tmatrix,
    track_modes,
)
from .network import (
    CheckReport,
    CompositeBasis,
    OperatorMatrix,
    check_t_power,
    check_unitary,
    check_unitary_factored,
    s_from_t,
    t_from_s,
)
from .swe import (
    WaveBasis,
    WaveIndex,
    basis,
    ground_plane_filter,
    mirror_parity,
    outgoing_wave_table,
    project_onto_regular,
    regular_wave_field,
    regular_wave_table,
    sphere_quadrature,
    truncation_order,
)

__version__ = "0.1.0"
