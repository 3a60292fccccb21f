"""State machines for the six methods and the shared simulation loop.

Plain GD, clipped GD with and without privacy noise, the shifted
clipping iteration for fixed targets, shifted clipping for optimization,
its noisy variant, and its compressed variant all run through one loop
that emits per-iteration telemetry. The loop steps a batch: runs that
share the problem and the method but differ in gamma, sigma and seed
(a stepsize grid, a noise sweep) take each step together, and each run
is bit-identical to its solo run.

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
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DivergenceError, InvariantError
from .ops import Compressor, check_count, check_real, check_vector, clip_rows, compress_rows, node_mean
from .rng import gaussian_block, gaussian_sample, stream_slot

__all__ = [
    "METHODS",
    "Batch",
    "MethodConfig",
    "OptimizerState",
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

# allowed shift drift per step: 16 ulps of the scale of the shift rows
_DRIFT_TOL = 16.0 * float(np.finfo(np.float64).eps)


def _required(method: str, what: str, value) -> float:
    """value as a positive real; the error names the method that needs it."""
    try:
        return check_real(what, value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"method {method} needs a positive {what}, got {value}") from None


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
        object.__setattr__(self, "gamma", check_real("gamma", self.gamma))
        object.__setattr__(self, "iters", check_count("iteration count", self.iters))
        object.__setattr__(self, "seed", check_count("seed", self.seed, 0))
        if self.method != "gd":
            object.__setattr__(self, "tau", _required(self.method, "clip threshold", self.tau))
        sigma = check_real("sigma", self.sigma, "non-negative")
        object.__setattr__(self, "sigma", sigma)
        if self.method in _DP_METHODS:
            nu = _required(self.method, "noise clip bound nu", self.nu)
            object.__setattr__(self, "nu", nu)
            if not (self.tau >= 6.0 * nu and nu >= sigma):
                # stacklevel 3 skips this method and the generated __init__,
                # so the warning names the code that built the config
                warnings.warn(
                    "privacy calibration expects tau >= 6*nu >= 6*sigma, got "
                    f"tau={self.tau}, nu={nu}, sigma={sigma}",
                    UserWarning,
                    stacklevel=3,
                )
        if self.method == "press_clip21_gd" and self.compressor is None:
            raise ConfigurationError("press_clip21_gd needs a compressor")


@dataclass(frozen=True)
class OptimizerState:
    """One run's state after its last step: the iterate x_K, the (n, d)
    shifts (row i is node i's), their running aggregate v_bar and the clip
    mask of the last step."""

    k: int
    x: np.ndarray
    v: np.ndarray
    v_bar: np.ndarray
    active: np.ndarray


class IterationRecord(NamedTuple):
    """Telemetry measured at x_k while stepping to x_{k+1}: lyapunov is
    f - f_inf + (A/n) sum_i ||grad_i(x_k) - v_k^i||^2 with the post-update
    shifts, v_norm the norm of the pre-gamma update direction. run is the
    index of the config in the batch that produced the record. A named
    tuple, since a batch makes one per run and step."""

    k: int
    f: float
    grad_norm_sq: float
    lyapunov: float
    active_nodes: int
    v_norm: float
    gamma: float
    wall_micros: int
    run: int = 0


class Batch:
    """R runs of one method on one problem, stepped together.

    The runs share the method, the iteration count, tau, nu and the
    compressor; each has its own gamma, sigma and seed. Each array holds
    one row per run, along a leading axis of length R: x (R, d), the
    shifts v (R, n, d) (row i of a run's block is node i's shift), their
    running aggregates v_bar (R, d), the clip masks active (R, n) and
    drift_scale (R,), and the stepsizes gamma (R, 1). Row r belongs to
    the config ids[r]. A lone run (R = 1) keeps the shapes of an
    unbatched one, without the leading axis (gamma is (1,)): numpy calls
    on one-row arrays cost more, and a one-row axis cost a 10-node,
    20-feature dp-clip21-gd run about 11% of its steps per second (2-core
    Xeon VM, OpenBLAS). lead is (R,) or ().

    v_bar is maintained incrementally across steps and re-checked against
    the direct average of the shift rows after each one; drift_scale is
    the running sum of the root-mean-square shift row over the steps so
    far, the scale of the rounding v_bar may have accumulated. A run that
    leaves (it diverged) is dropped from every array, and the others go on
    unchanged.
    """

    def __init__(self, cfgs, problem, x0):
        cfgs = tuple(cfgs)
        if not cfgs:
            raise ConfigurationError("need at least one method config")
        cfg = cfgs[0]
        shared = lambda c: (c.method, c.iters, c.tau, c.nu, c.compressor)
        if any(shared(c) != shared(cfg) for c in cfgs):
            raise ConfigurationError("the configs of one batch may differ only in gamma, sigma and seed")
        if cfg.method == "clip21_avg":
            raise ConfigurationError("clip21_avg targets fixed vectors; use clip21_avg_run")
        if cfg.method == "press_clip21_gd":
            cfg.compressor.alpha(problem.d)  # surfaces k > d now, not mid-run
        x0 = check_vector(x0)
        if x0.shape[0] != problem.d:
            raise ConfigurationError(f"x0 has dimension {x0.shape[0]}, problem has {problem.d}")
        R, n, d = len(cfgs), problem.n, problem.d
        self.cfg, self.problem, self.k = cfg, problem, 0
        self.lead = (R,) if R > 1 else ()
        self.ids = np.arange(R)
        self.sigma = np.array([c.sigma for c in cfgs])
        self.seed = np.array([c.seed for c in cfgs])
        self.gamma = np.array([c.gamma for c in cfgs]).reshape(self.lead + (1,))
        self.x = np.tile(x0, self.lead + (1,))
        self.v = np.zeros(self.lead + (n, d))
        self.v_bar = np.zeros(self.lead + (d,))
        self.active = np.zeros(self.lead + (n,), dtype=bool)
        self.drift_scale = np.zeros(self.lead)

    def keep(self, rows: np.ndarray) -> None:
        """Keep only the runs whose entry of the mask rows, one per run,
        is True. A lone run that leaves empties the batch."""
        self.ids = self.ids[rows]
        if self.lead:
            for name in ("sigma", "seed", "gamma", "x", "v", "v_bar", "active", "drift_scale"):
                setattr(self, name, getattr(self, name)[rows])
            self.lead = (self.ids.size,)

    def state(self, row: int) -> OptimizerState:
        """The final state of the run in row row."""
        pick = (lambda a: a[row]) if self.lead else (lambda a: a)
        return OptimizerState(
            k=self.k, x=pick(self.x), v=pick(self.v), v_bar=pick(self.v_bar), active=pick(self.active)
        )

    def noise(self, draw) -> np.ndarray:
        """Each run's draw(seed, sigma), stacked along the leading axis.

        Runs that share a seed and have a positive sigma share one unit
        draw, scaled per run: sigma * unit is the product draw forms
        itself, so every run keeps the bits of its solo draw. A zero sigma
        draws alone, exact zeros as in a solo run.
        """
        if not self.lead:  # the lone config is cfg itself
            return draw(self.cfg.seed, self.cfg.sigma)
        seeds, sigmas = self.seed.tolist(), self.sigma.tolist()
        groups = {}
        for row, (seed, sigma) in enumerate(zip(seeds, sigmas)):
            groups.setdefault((seed, row if sigma == 0.0 else -1), []).append(row)
        out = None
        for (seed, _), rows in groups.items():
            if len(rows) == 1:
                part = draw(seed, sigmas[rows[0]])[None]
            else:
                part = np.multiply.outer(self.sigma[rows], draw(seed, 1.0))
            if len(rows) == len(seeds):
                return part  # one group holds every run, in order
            if out is None:
                out = np.empty((len(seeds),) + part.shape[1:])
            out[rows] = part
        return out


def _shift_update(targets, v, tau, transmit=None):
    """One shifted-clipping round for every node at once.

    Node i sends m^i = transmit(clip(t^i - v^i, tau)) (the clipped
    residual itself when transmit is None) and moves its shift to
    v^i + m^i, except that an inactive clip whose message is exactly the
    raw residual lands the shift on the target bit-for-bit rather than on
    v + (t - v), which can differ in the last ulp. The arrays are (n, d)
    or (R, n, d). Returns the new shifts, the messages and the
    clip-activity mask.
    """
    resid = targets - v
    clipped, active = clip_rows(resid, tau)
    if transmit is None:
        # an inactive clip hands the residual back bit-identical
        messages, landed = clipped, ~active
    else:
        messages = transmit(clipped)
        landed = ~active & (messages == resid).all(axis=-1)
    return np.where(landed[..., None], targets, v + messages), messages, active


def step(batch: Batch):
    """One step of every run in the batch, in place.

    The unshifted methods move along the mean of the clipped local
    gradients (gd clips nothing); dp_clip_gd adds one clipped Gaussian
    vector per step, drawn from the "aggregate" stream slot so it can
    never collide with per-node noise. The shifted methods send
    clipped residuals against the shifts, with per-node clipped noise
    (dp_clip21_gd) or compression (press_clip21_gd) applied to each
    message, and move along the mean of the new shifts.

    Elementwise and row-wise work runs on the whole stack; every dot and
    matrix product is one BLAS call per run, the call a run alone makes,
    so each run's numbers are bit-identical to its solo run. Returns, one
    entry per run (scalars for a lone run): f and ||grad f||^2 at x_k,
    the shift term (1/n) sum_i ||grad_i(x_k) - v_k^i||^2, the norm of the
    pre-gamma direction and the mask of the nodes that clipped.
    """
    cfg, problem, lead = batch.cfg, batch.problem, batch.lead
    n = problem.n
    f, grads = problem.evaluate(batch.x)
    if cfg.method in _SHIFTED:
        transmit = None
        if cfg.method == "dp_clip21_gd":
            block = batch.noise(lambda seed, sigma: gaussian_block(seed, batch.k, n, problem.d, sigma))
            noise = clip_rows(block, cfg.nu)[0]
            transmit = lambda clipped: clipped + noise
        elif cfg.method == "press_clip21_gd":
            transmit = partial(compress_rows, cfg.compressor)
        v, messages, active = _shift_update(grads, batch.v, cfg.tau, transmit)
        v_bar = batch.v_bar + node_mean(messages)
        direction = node_mean(v)
        # rounding lets the running aggregate drift by about eps per step at
        # the scale of that step's shift rows, so the allowance grows with the
        # running sum of their root-mean-square norm: rows that have shrunk
        # since do not shrink the rounding v_bar already holds. A drift must
        # also exceed the per-step allowance at the largest current row
        flat_v = v.reshape(lead + (-1,))
        drift_scale = batch.drift_scale + np.sqrt(np.vecdot(flat_v, flat_v) / n)
        off = v_bar - direction
        drift = np.sqrt(np.vecdot(off, off))
        suspect = drift > _DRIFT_TOL * drift_scale
        if suspect.any():
            largest = np.sqrt(np.einsum("...ij,...ij->...i", v, v).max(axis=-1))
            drifted = suspect & (drift > _DRIFT_TOL * (batch.k + 1) * largest)
            if drifted.any():
                raise InvariantError(
                    f"aggregate shift drifted from direct average by {np.extract(drifted, drift)[0]:.3e} "
                    f"at step {batch.k}"
                )
        gap = (grads - v).reshape(lead + (-1,))
        shift_sq = np.vecdot(gap, gap) / n
        batch.v, batch.v_bar, batch.drift_scale = v, v_bar, drift_scale
    else:
        if cfg.method == "gd":
            clipped, active = grads, np.zeros(lead + (n,), dtype=bool)
        else:
            clipped, active = clip_rows(grads, cfg.tau)
        direction = node_mean(clipped)
        if cfg.method == "dp_clip_gd":
            slot = stream_slot(n, "aggregate")
            zeta = batch.noise(lambda seed, sigma: gaussian_sample(seed, slot, batch.k, problem.d, sigma))
            direction = direction + clip_rows(zeta, cfg.nu)[0]
        shift_sq = np.zeros(lead)
    gbar = node_mean(grads)
    batch.x = batch.x - batch.gamma * direction
    batch.active = active
    batch.k += 1
    return f, np.vecdot(gbar, gbar), shift_sq, np.sqrt(np.vecdot(direction, direction)), active


def run(cfgs, problem, x0, *, f_inf=0.0, lyapunov_coeffs=None):
    """Execute iters steps from x0 for each config of cfgs, as one batch.

    The configs may differ only in gamma, sigma and seed. Returns (finals,
    records): finals[r] is config r's final OptimizerState, holding x_K,
    or the DivergenceError that stopped it the moment its iterate or
    objective value stopped being finite; records is the flat list of
    every IterationRecord produced, one per run-step executed, in step
    order and, within a step, in config order. Record k of run r describes
    r's iterate x_k. lyapunov_coeffs[r] is the shift weight A of run r in
    phi = f - f_inf + (A/n) sum_i ||grad_i - v^i||^2; omitted, every
    weight is zero, plain suboptimality telemetry. A batch step's time is
    split evenly over its runs' wall_micros. An InvariantError in any run
    stops the whole batch.
    """
    cfgs = tuple(cfgs)
    batch = Batch(cfgs, problem, x0)
    iters = batch.cfg.iters
    gammas = [c.gamma for c in cfgs]
    weights = np.zeros(len(cfgs)) if lyapunov_coeffs is None else np.array(lyapunov_coeffs, dtype=np.float64)
    if weights.shape != (len(cfgs),):
        raise ConfigurationError(f"need one Lyapunov weight per config, got shape {weights.shape}")
    if not batch.lead:
        weights = weights[0]
    finals = [None] * len(cfgs)
    records = []
    ids = batch.ids.tolist()

    def leave(stay, message, k):
        # the runs where the mask stay is False end here, with their trace so far
        nonlocal weights, ids
        stay = np.reshape(stay, -1)
        for r in batch.ids[~stay].tolist():
            finals[r] = DivergenceError(message, step=k)
        if batch.lead:
            weights = weights[stay]
        batch.keep(stay)
        ids = batch.ids.tolist()

    # blowups surface as inf through the finiteness checks, so numpy's
    # overflow warnings would only add noise here
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(iters):
            started = time.perf_counter_ns()
            if not np.isfinite(batch.x).all():
                leave(np.isfinite(batch.x).all(axis=-1), f"non-finite iterate at iteration {k}", k)
                if not ids:
                    break
            f, grad_sq, shift_sq, v_norm, active = step(batch)
            lyapunov = (f - f_inf) + weights * shift_sq
            if batch.lead:
                counts = active.sum(axis=-1)
                rows = zip(ids, f.tolist(), grad_sq.tolist(), lyapunov.tolist(), counts.tolist(), v_norm.tolist())
            else:
                count = int(np.count_nonzero(active))
                rows = [(ids[0], float(f), float(grad_sq), float(lyapunov), count, float(v_norm))]
            wall = (time.perf_counter_ns() - started) // (1000 * len(ids))
            stay = []
            for r, f_r, grad_sq_r, *rest in rows:
                stay.append(math.isfinite(f_r) and math.isfinite(grad_sq_r))
                if stay[-1]:
                    records.append(IterationRecord(k, f_r, grad_sq_r, *rest, gammas[r], wall, r))
            if not all(stay):
                leave(stay, f"non-finite objective at iteration {k}", k)
                if not ids:
                    break
    if ids and not np.isfinite(batch.x).all():
        leave(np.isfinite(batch.x).all(axis=-1), f"non-finite iterate at iteration {iters}", iters)
    for row, r in enumerate(ids):
        finals[r] = batch.state(row)
    return finals, records


def clip21_avg_run(a, tau, v_init=None, iters=1, hook=None):
    """Shifted clipping toward fixed targets a^i.

    Each step does v^i += clip(a^i - v^i, tau) for every node. Shifts
    start at v_init (zeros when omitted); the hook, if given, sees each
    step's new (n, d) shift rows and the mask of the nodes that clipped on
    that step. Returns the final shift rows, so memory stays O(n d) for
    any iteration count. Once a residual fits inside the clip ball the
    shift lands exactly on the target.
    """
    tau = check_real("clip threshold", tau)
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
    for _ in range(check_count("iteration count", iters)):
        v, _messages, active = _shift_update(targets, v, tau)
        if hook is not None:
            hook(v, active)
    return v
