"""State machines for the six methods and the shared simulation loop.

Plain GD, clipped GD with and without privacy noise, the shifted
clipping iteration for fixed targets, shifted clipping for optimization,
its noisy variant, and its compressed variant all run through one loop
that emits per-iteration telemetry.

Shift semantics: a step observes the iterate x_k, updates the per-node
shifts v (which become the step-k shifts), records telemetry at x_k with
those fresh shifts, and only then moves the iterate.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigurationError, DivergenceError, InvariantError
from .ops import Compressor, check_threshold, check_vector, clip, clip_rows, compress_rows, node_mean
from .rng import gaussian_block, gaussian_sample, stream_slot

__all__ = [
    "METHODS",
    "MethodConfig",
    "OptimizerState",
    "StepStats",
    "IterationRecord",
    "clip21_avg_run",
    "run",
    "step",
]

METHODS = (
    "gd",
    "clip_gd",
    "clip21_avg",
    "clip21_gd",
    "dp_clip_gd",
    "dp_clip21_gd",
    "press_clip21_gd",
)

_DP_METHODS = ("dp_clip_gd", "dp_clip21_gd")
_SHIFTED = ("clip21_gd", "dp_clip21_gd", "press_clip21_gd")

# allowed shift drift per step: 16 ulps of the largest shift row
_DRIFT_TOL = 16.0 * float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class MethodConfig:
    method: str
    gamma: float
    iters: int
    tau: float | None = None
    sigma: float = 0.0
    nu: float = 0.0
    compressor: Compressor | None = None
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigurationError(f"unknown method {self.method!r}")
        gamma = float(self.gamma)
        if not np.isfinite(gamma) or gamma <= 0.0:
            raise ConfigurationError(f"gamma must be a positive real, got {self.gamma}")
        object.__setattr__(self, "gamma", gamma)
        if int(self.iters) < 1:
            raise ConfigurationError(f"iteration count must be >= 1, got {self.iters}")
        object.__setattr__(self, "iters", int(self.iters))
        if int(self.seed) < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))
        if self.method != "gd":
            if self.tau is None or not np.isfinite(float(self.tau)) or float(self.tau) <= 0.0:
                raise ConfigurationError(
                    f"method {self.method} needs a positive clip threshold, got {self.tau}"
                )
            object.__setattr__(self, "tau", float(self.tau))
        sigma = float(self.sigma)
        if not np.isfinite(sigma) or sigma < 0.0:
            raise ConfigurationError(f"sigma must be a finite non-negative real, got {self.sigma}")
        object.__setattr__(self, "sigma", sigma)
        if self.method in _DP_METHODS:
            nu = float(self.nu)
            if not np.isfinite(nu) or nu <= 0.0:
                raise ConfigurationError(
                    f"method {self.method} needs a positive noise clip bound nu, got {self.nu}"
                )
            object.__setattr__(self, "nu", nu)
            if not (self.tau >= 6.0 * nu and nu >= sigma):
                warnings.warn(
                    "privacy calibration expects tau >= 6*nu >= 6*sigma, got "
                    f"tau={self.tau}, nu={nu}, sigma={sigma}",
                    UserWarning,
                    stacklevel=2,
                )
        if self.method == "press_clip21_gd" and self.compressor is None:
            raise ConfigurationError("press_clip21_gd needs a compressor")


@dataclass
class OptimizerState:
    """Iterate plus per-node shift bookkeeping.

    v_bar is maintained incrementally across steps and re-checked against
    the direct average of the shift rows after each one.
    """

    k: int
    x: np.ndarray
    v: np.ndarray  # (n, d), row i is node i's shift
    v_bar: np.ndarray
    active: np.ndarray  # (n,) bool, clip activity observed at the last step

    @classmethod
    def initial(cls, x0: np.ndarray, n: int) -> "OptimizerState":
        x0 = check_vector(x0)
        d = x0.shape[0]
        return cls(
            k=0,
            x=x0.copy(),
            v=np.zeros((n, d)),
            v_bar=np.zeros(d),
            active=np.zeros(n, dtype=bool),
        )


@dataclass(frozen=True)
class StepStats:
    """Telemetry measured at x_k while stepping to x_{k+1}.

    shift_mean_sq is (1/n) sum_i ||grad_i(x_k) - v_k^i||^2 with the
    post-update shifts; direction_norm is the pre-gamma update direction.
    """

    f: float
    grad_norm_sq: float
    shift_mean_sq: float
    direction_norm: float
    active_count: int


@dataclass(frozen=True)
class IterationRecord:
    k: int
    f: float
    grad_norm_sq: float
    lyapunov: float
    active_nodes: int
    v_norm: float
    gamma: float
    wall_micros: int


def _norm(x: np.ndarray) -> float:
    # the same sqrt of a dot that np.linalg.norm computes for a 1-d vector
    return math.sqrt(x @ x)


def _shift_update(targets, v, tau, transmit=None):
    """One shifted-clipping round for every node at once.

    Node i sends m^i = transmit(clip(t^i - v^i, tau)) (the clipped
    residual itself when transmit is None) and moves its shift to
    v^i + m^i, except that an inactive clip whose message is exactly the
    raw residual lands the shift on the target bit-for-bit rather than on
    v + (t - v), which can differ in the last ulp. Returns the new shifts,
    the messages and the clip-activity mask.
    """
    resid = targets - v
    clipped, active = clip_rows(resid, tau)
    if transmit is None:
        # an inactive clip hands the residual back bit-identical
        messages, landed = clipped, ~active
    else:
        messages = transmit(clipped)
        landed = ~active & (messages == resid).all(axis=1)
    return np.where(landed[:, None], targets, v + messages), messages, active


def step(state: OptimizerState, problem, cfg: MethodConfig):
    """One step of any method but clip21_avg, for all nodes at once.

    The unshifted methods move along the mean of the clipped local
    gradients (gd clips nothing); dp_clip_gd adds one clipped Gaussian
    vector per step, drawn from the "aggregate" stream slot so it can
    never collide with per-node noise. The shifted methods send
    clipped residuals against the shifts, with per-node clipped noise
    (dp_clip21_gd) or compression (press_clip21_gd) applied to each
    message, and move along the mean of the new shifts.
    """
    n = problem.n
    f, grads = problem.evaluate(state.x)
    if cfg.method in _SHIFTED:
        transmit = None
        if cfg.method == "dp_clip21_gd":
            block = gaussian_block(cfg.seed, state.k, n, problem.d, cfg.sigma)
            noise = clip_rows(block, cfg.nu)[0]
            transmit = lambda clipped: clipped + noise
        elif cfg.method == "press_clip21_gd":
            transmit = partial(compress_rows, cfg.compressor)
        v, messages, active = _shift_update(grads, state.v, cfg.tau, transmit)
        v_bar = state.v_bar + node_mean(messages)
        direction = node_mean(v)
        # rounding lets the running aggregate drift by about eps per step at
        # the scale of the largest shift row; the root-mean-square row norm
        # never exceeds it and is cheap, so it screens first
        drift = _norm(v_bar - direction)
        tol = _DRIFT_TOL * (state.k + 1)
        if drift > tol * math.sqrt(np.vdot(v, v) / n) and drift > tol * math.sqrt(
            np.einsum("ij,ij->i", v, v).max()
        ):
            raise InvariantError(
                f"aggregate shift drifted from direct average by {drift:.3e} at step {state.k}"
            )
        gap = grads - v
        shift_sq = float(np.vdot(gap, gap)) / n
    else:
        if cfg.method == "gd":
            clipped, active = grads, np.zeros(n, dtype=bool)
        else:
            clipped, active = clip_rows(grads, cfg.tau)
        direction = node_mean(clipped)
        if cfg.method == "dp_clip_gd":
            slot = stream_slot(n, "aggregate")
            zeta = gaussian_sample(cfg.seed, slot, state.k, problem.d, cfg.sigma)
            direction = direction + clip(zeta, cfg.nu)
        v, v_bar, shift_sq = state.v, state.v_bar, 0.0
    gbar = node_mean(grads)
    stats = StepStats(
        f=f,
        grad_norm_sq=float(gbar @ gbar),
        shift_mean_sq=shift_sq,
        direction_norm=_norm(direction),
        active_count=int(np.count_nonzero(active)),
    )
    new = OptimizerState(
        k=state.k + 1, x=state.x - cfg.gamma * direction, v=v, v_bar=v_bar, active=active
    )
    return new, stats


def run(cfg: MethodConfig, problem, x0, *, f_inf=0.0, lyapunov_coeff=0.0, hook=None):
    """Execute cfg.iters steps from x0.

    Returns (final state, list of IterationRecord). Record k describes the
    iterate x_k; the final state holds x_K. lyapunov_coeff is the shift
    weight A in phi = f - f_inf + (A/n) sum_i ||grad_i - v^i||^2, zero for
    plain suboptimality telemetry. The hook, if given, sees each record as
    it is produced. Raises DivergenceError the moment an iterate or
    objective value stops being finite.
    """
    if cfg.method == "clip21_avg":
        raise ConfigurationError("clip21_avg targets fixed vectors; use clip21_avg_run")
    if cfg.method == "press_clip21_gd":
        cfg.compressor.alpha(problem.d)  # surfaces k > d now, not mid-run
    x0 = check_vector(x0)
    if x0.shape[0] != problem.d:
        raise ConfigurationError(
            f"x0 has dimension {x0.shape[0]}, problem has {problem.d}"
        )
    state = OptimizerState.initial(x0, problem.n)
    records = []
    for k in range(cfg.iters):
        started = time.perf_counter_ns()
        if not np.isfinite(state.x).all():
            raise DivergenceError(f"non-finite iterate at iteration {k}", step=k)
        # blowups surface as inf through the finiteness checks below,
        # so numpy's overflow warnings would only add noise here
        with np.errstate(over="ignore", invalid="ignore"):
            state, stats = step(state, problem, cfg)
        if not (math.isfinite(stats.f) and math.isfinite(stats.grad_norm_sq)):
            raise DivergenceError(f"non-finite objective at iteration {k}", step=k)
        record = IterationRecord(
            k=k,
            f=stats.f,
            grad_norm_sq=stats.grad_norm_sq,
            lyapunov=(stats.f - f_inf) + lyapunov_coeff * stats.shift_mean_sq,
            active_nodes=stats.active_count,
            v_norm=stats.direction_norm,
            gamma=cfg.gamma,
            wall_micros=(time.perf_counter_ns() - started) // 1000,
        )
        records.append(record)
        if hook is not None:
            hook(record)
    if not np.isfinite(state.x).all():
        raise DivergenceError(
            f"non-finite iterate at iteration {cfg.iters}", step=cfg.iters
        )
    return state, records


def clip21_avg_run(a, tau, v_init=None, iters=1, hook=None):
    """Shifted clipping toward fixed targets a^i.

    Each step does v^i += clip(a^i - v^i, tau) for every node. Shifts
    start at v_init (zeros when omitted); the hook, if given, sees each
    step's new (n, d) shift rows and the mask of the nodes that clipped on
    that step. Returns the final shift rows, so memory stays O(n d) for
    any iteration count. Once a residual fits inside the clip ball the
    shift lands exactly on the target.
    """
    tau = check_threshold(tau)
    rows = [check_vector(ai) for ai in a]
    if not rows:
        raise ConfigurationError("need at least one target vector")
    d = rows[0].shape[0]
    if any(r.shape[0] != d for r in rows):
        raise ValueError("target vectors disagree on dimension")
    targets = np.stack(rows)
    n = targets.shape[0]
    if v_init is None:
        v = np.zeros((n, d))
    else:
        init_rows = [check_vector(vi) for vi in v_init]
        if len(init_rows) != n or any(r.shape[0] != d for r in init_rows):
            raise ValueError("v_init shape must match the targets")
        v = np.stack(init_rows)
    iters = int(iters)
    if iters < 1:
        raise ConfigurationError(f"iteration count must be >= 1, got {iters}")
    for _ in range(iters):
        v, _messages, active = _shift_update(targets, v, tau)
        if hook is not None:
            hook(v, active)
    return v
