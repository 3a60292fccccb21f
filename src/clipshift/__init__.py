"""Error-feedback gradient clipping for distributed optimization.

Simulation library and experiment CLI for smoothed clipping with
per-node shift tracking, its differentially private variant, and a
contractive-compression variant, together with executable forms of
the stepsize rules, descent certificates, and privacy-utility bounds
that govern them.
"""

from .data import (
    Dataset,
    NodeShard,
    heterogeneous_split,
    parse_libsvm,
    standard_scale,
    write_libsvm,
)
from .errors import (
    ConfigurationError,
    DataFormatError,
    DivergenceError,
    InfeasibleStepsizeError,
    InvariantError,
)
from .ops import Compressor, clip, compress, node_mean
from .optimizers import (
    METHODS,
    TRACE_DTYPE,
    Batch,
    MethodConfig,
    OptimizerState,
    run,
)
from .problems import KINDS, REGULARIZERS, Problem, SmoothnessInfo
from .rng import gaussian_block, gaussian_sample
from .theory import (
    StepsizeInputs,
    certified_stepsize,
    dp_utility_bound,
    estimate_f_inf,
    eta_of,
    k_star,
    lyapunov_weight,
    press_contraction_margin,
    rate_envelope,
    sigma_min,
    stepsize_branches,
    stepsize_dp,
    stepsize_multi,
    stepsize_press,
    stepsize_single,
)

__version__ = "0.1.0"

__all__ = [
    "Batch",
    "Compressor",
    "ConfigurationError",
    "DataFormatError",
    "Dataset",
    "DivergenceError",
    "InfeasibleStepsizeError",
    "InvariantError",
    "KINDS",
    "METHODS",
    "MethodConfig",
    "NodeShard",
    "OptimizerState",
    "Problem",
    "REGULARIZERS",
    "SmoothnessInfo",
    "StepsizeInputs",
    "TRACE_DTYPE",
    "certified_stepsize",
    "clip",
    "compress",
    "dp_utility_bound",
    "estimate_f_inf",
    "eta_of",
    "gaussian_block",
    "gaussian_sample",
    "heterogeneous_split",
    "k_star",
    "lyapunov_weight",
    "node_mean",
    "parse_libsvm",
    "press_contraction_margin",
    "rate_envelope",
    "run",
    "sigma_min",
    "standard_scale",
    "stepsize_branches",
    "stepsize_dp",
    "stepsize_multi",
    "stepsize_press",
    "stepsize_single",
    "write_libsvm",
]
