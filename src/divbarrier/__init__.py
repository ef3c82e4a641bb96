"""Dividend valuation for a jump-diffusion surplus process with a
reflecting payout barrier, claim-count discounting and a Parisian
ruin clock.

The public surface re-exports the pieces most callers need; the
individual modules carry the numerics.
"""

from .model import (
    ModelParams,
    ExponentialClaims,
    TabulatedClaims,
    ValidatedModel,
    validate,
    exp_conv_power,
    tabulated_exponential,
    ModelError,
    NonPositivePremium,
    NegativeLoading,
    RNotInUnitInterval,
    InvalidParameter,
)
from .gridmath import GridFunction, NonConvergenceError
from .lundberg import LundbergRoot, psi_r, lundberg_root
from .firstpassage import UpcrossTransform, vy_density, upcross_transform
from .hfun import HFunction, w_d, h_d_sigma0, h_d_sigma_pos, ide_residual
from .expmodel import u_of_d, vartheta, varrho, exp_value_function
from .valuation import (
    BarrierSolution,
    HJBReport,
    CheckResult,
    MonotoneReport,
    ShapeAdvisory,
    value_barrier,
    optimal_barrier,
    barrier_solution_at,
    generator_apply,
    hjb_verify,
    hjb_curve,
    gprime_monotone_check,
    density_shape_advisory,
)
from .simulator import SimConfig, SimEstimate, simulate_value, simulate_h, simulate_upcross

__all__ = [
    "ModelParams", "ExponentialClaims", "TabulatedClaims", "ValidatedModel",
    "validate", "exp_conv_power", "tabulated_exponential",
    "ModelError", "NonPositivePremium", "NegativeLoading",
    "RNotInUnitInterval", "InvalidParameter",
    "GridFunction", "NonConvergenceError",
    "LundbergRoot", "psi_r", "lundberg_root",
    "UpcrossTransform", "vy_density", "upcross_transform",
    "HFunction", "w_d", "h_d_sigma0", "h_d_sigma_pos", "ide_residual",
    "u_of_d", "vartheta", "varrho", "exp_value_function",
    "BarrierSolution", "HJBReport", "CheckResult", "MonotoneReport",
    "ShapeAdvisory",
    "value_barrier", "optimal_barrier", "barrier_solution_at",
    "generator_apply", "hjb_verify", "hjb_curve",
    "gprime_monotone_check", "density_shape_advisory",
    "SimConfig", "SimEstimate", "simulate_value", "simulate_h", "simulate_upcross",
]

__version__ = "0.1.0"
