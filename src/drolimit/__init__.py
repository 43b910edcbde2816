"""Scaling limits of multi-period Wasserstein-DRO operators on grids."""

from .dual import (
    DualInstance,
    brute_force_sup,
    wasserstein_sup,
)
from .errors import InputError
from .fields import (
    CompactWindow,
    Grid,
    ScalarField,
    gradient_fd,
    gradient_norm,
    lipschitz_estimate,
    load_csv,
    save_csv,
    sup_distance,
)
from .models import (
    Action,
    DiscreteMeasure,
    ReferenceModel,
    brownian_model,
    covariance,
    law,
    psi,
)
from .operators import (
    OperatorConfig,
    Partition,
    ScalingLimitResult,
    compose,
    dro_step,
    dyadic_partition,
    scaling_limit,
)
from .pde import SpaceTimeField, cfl_time_step, generator_apply, solve, step_forward

__version__ = "0.1.0"
