"""Constructal architecture selection as an autonomous Filippov inclusion.

Subpackages: :mod:`constructal.hierarchy` (closed-form area-to-point
resistance model), :mod:`constructal.cones` (box cones and Moreau
decomposition), :mod:`constructal.dynamics` (sign-descent and projected
gradient integration with sliding and events), :mod:`constructal.stepping`
(its RODAS4 stepping core), :mod:`constructal.analysis`
(contraction certificates, dissipation reports, search oracles) and
:mod:`constructal.cli` (batch subcommands).
"""

from .cones import Box, kkt_residual, moreau_decompose, tangent_project
from .dynamics import (
    IntegrationOptions,
    ProjectedGradient,
    SignDescent,
    Trajectory,
    integrate,
    integrate_ensemble,
    two_trajectory_run,
    velocity,
)
from .hierarchy import (
    ArchState,
    AssemblyConfig,
    TransportCosts,
    optimal_branching,
    optimal_ratios,
    optimum_state,
    state_box,
)

__version__ = "0.1.0"

__all__ = [
    "ArchState",
    "AssemblyConfig",
    "Box",
    "IntegrationOptions",
    "ProjectedGradient",
    "SignDescent",
    "Trajectory",
    "TransportCosts",
    "integrate",
    "integrate_ensemble",
    "kkt_residual",
    "moreau_decompose",
    "optimal_branching",
    "optimal_ratios",
    "optimum_state",
    "state_box",
    "tangent_project",
    "two_trajectory_run",
    "velocity",
]
