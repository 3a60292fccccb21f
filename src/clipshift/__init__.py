"""Error-feedback gradient clipping for distributed optimization.

Simulation library and experiment CLI for smoothed clipping with
per-node shift tracking, its differentially private variant, and a
contractive-compression variant, together with executable forms of
the stepsize rules, descent certificates, and privacy-utility bounds
that govern them. Importing it loads numpy with OpenBLAS on one thread
and unsets OPENBLAS_NUM_THREADS again, unless OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS or OMP_NUM_THREADS was set or numpy came first; then
per-node sums keep outputs thread-independent up to 10 000 rows a node
and d = 10 000. Other BLAS builds were not measured.
"""

import os
import sys

if "numpy" not in sys.modules and os.environ.keys().isdisjoint(
    ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # OpenBLAS reads it once, as numpy loads it
    import numpy  # noqa: F401
    del os.environ["OPENBLAS_NUM_THREADS"]

from .data import Dataset, write_libsvm
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
    "k_star",
    "lyapunov_weight",
    "node_mean",
    "press_contraction_margin",
    "rate_envelope",
    "run",
    "sigma_min",
    "stepsize_branches",
    "stepsize_dp",
    "stepsize_multi",
    "stepsize_press",
    "stepsize_single",
    "write_libsvm",
]
