"""Discontinuous Galerkin advection with central numerical fluxes.

Modal Legendre elements on periodic 1D intervals and 2D tensor boxes, an
energy-conserving central-flux spatial operator, explicit Runge-Kutta time
stepping, shifted projections with superconvergence diagnostics, and a
config-driven convergence-study CLI.
"""

from .basis import QuadratureRule, ReferenceOperators, default_rule, error_rule, gauss_rule, reference_operators
from .fields import (
    ModalField,
    Problem,
    SpaceKind,
    l2_project,
    shift_local_matrix_1d,
    shift_local_matrix_2d,
    shifted_projection,
    shifted_projection_1d,
    shifted_projection_2d,
)
from .mesh import Mesh1D, TensorMesh2D, alpha_mesh, random_mesh, tensor_mesh, uniform_mesh
from .metrics import (
    ConvergenceTable,
    convergence_rates,
    error_cell_average,
    error_interface_flux,
    error_l2,
    ls_order,
)
from .operators import (
    SpatialOperator,
    flux_cancellation_residual_2d,
    superconvergence_residual_1d,
    superconvergence_residual_2d,
)
from .study import PROBLEMS, ConfigError, StudyConfig, build_mesh, parse_config, run_study, serialize_config
from .timestepping import (
    SCHEMES,
    IntegrationConfig,
    IntegrationDivergedError,
    RKScheme,
    energy_drift,
    integrate,
    register_scheme,
)
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "QuadratureRule",
    "ReferenceOperators",
    "default_rule",
    "error_rule",
    "gauss_rule",
    "reference_operators",
    "ModalField",
    "Problem",
    "SpaceKind",
    "l2_project",
    "shift_local_matrix_1d",
    "shift_local_matrix_2d",
    "shifted_projection",
    "shifted_projection_1d",
    "shifted_projection_2d",
    "Mesh1D",
    "TensorMesh2D",
    "alpha_mesh",
    "random_mesh",
    "tensor_mesh",
    "uniform_mesh",
    "ConvergenceTable",
    "convergence_rates",
    "error_cell_average",
    "error_interface_flux",
    "error_l2",
    "ls_order",
    "SpatialOperator",
    "flux_cancellation_residual_2d",
    "superconvergence_residual_1d",
    "superconvergence_residual_2d",
    "PROBLEMS",
    "ConfigError",
    "StudyConfig",
    "build_mesh",
    "parse_config",
    "run_study",
    "serialize_config",
    "SCHEMES",
    "IntegrationConfig",
    "IntegrationDivergedError",
    "RKScheme",
    "energy_drift",
    "integrate",
    "register_scheme",
    "run_suite",
]
