"""State machines for the six methods and the shared simulation loop.

Plain GD, clipped GD with and without privacy noise, shifted clipping
for optimization, its noisy variant, and its compressed variant all run
through one loop that writes per-iteration telemetry into one trace
array. The shifted clipping iteration for fixed targets, clip21_avg, is
shifted clipping at gamma = 0: the iterate stays at x0, so the shifts
track the fixed local gradients there. The loop steps a batch: runs
that share the problem and the method but differ in gamma, sigma and
seed (a stepsize grid, a noise sweep) take each step together, and each
run is bit-identical to its solo run. The privacy noise of every run is
drawn once per seed, scaled and clipped one chunk of steps at a time.

The loop also advances the batch one chunk of steps at a time. A step
does only the method's own arithmetic and writes every array into
buffers the batch keeps and reuses; at the chunk's end one pass,
vectorised over its steps, forms the telemetry, advances the running
aggregate of the shifts and runs the checks, with the bits and the
order of leaving and raising of one step at a time. step is the same
kernel on a one-step chunk.

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
from .ops import Compressor, check_count, check_real, check_vector, clip_rows, compress_rows, node_mean, rms_rows
from .rng import gaussian_block, gaussian_sample, stream_slot

__all__ = [
    "METHODS",
    "Batch",
    "MethodConfig",
    "OptimizerState",
    "TRACE_DTYPE",
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
_SHIFTED = ("clip21_avg", "clip21_gd", "dp_clip21_gd", "press_clip21_gd")

# allowed shift drift per step: 16 ulps of the scale of the shift rows
_DRIFT_TOL = 16.0 * float(np.finfo(np.float64).eps)

# the power of two a run's drift_scale is carried lower by once its running
# sum passes the float64 range: 2^64 more steps at the top of the range fit
_DRIFT_DOWN = 2.0**-64

# noise elements a chunk holds for the noisy runs, about 128 KB: many steps a
# draw at small shapes, one at shapes where the draw is compute-bound
_NOISE_BUDGET = 16_384

# elements of the step buffers a chunk of run fills, about 128 KiB in all, so
# each buffer stays under 128 KiB, glibc's default mmap threshold: 147 steps
# for a lone 10-node, 20-feature run, 24 for six of them, 20 at 100 x 123
_CHUNK_BUDGET = 16_384


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
        if self.method == "clip21_avg":  # clip21_gd with the iterate held at x0
            if float(self.gamma) != 0.0:
                raise ConfigurationError(f"method clip21_avg steps with gamma 0, got {self.gamma}")
            object.__setattr__(self, "gamma", 0.0)
        else:
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


# one row of a run's trace: the telemetry measured at x_k while stepping to
# x_{k+1}. lyapunov is f - f_inf + (A/n) sum_i ||grad_i(x_k) - v_k^i||^2
# with the post-update shifts, v_norm the norm of the pre-gamma update
# direction, and run the index of the config in the batch. 72 bytes a row
TRACE_DTYPE = np.dtype(
    [
        ("k", np.int64),
        ("f", np.float64),
        ("grad_norm_sq", np.float64),
        ("lyapunov", np.float64),
        ("active_nodes", np.int64),
        ("v_norm", np.float64),
        ("gamma", np.float64),
        ("wall_micros", np.int64),
        ("run", np.int64),
    ]
)


class Batch:
    """R runs of one method on one problem, stepped together.

    The runs share the method, the iteration count, tau, nu and the
    compressor; each has its own gamma, sigma and seed. Each array holds
    one row per run, along a leading axis of length R: x (R, d), the
    shifts v (R, n, d) (row i of a run's block is node i's shift), their
    running aggregates v_bar (R, d), the clip masks active (R, n) and
    drift_scale (R,), and the stepsizes gamma (R, 1). Row r belongs to
    the config ids[r], and so does column r of the noise chunk (steps, R,
    ...), the clipped noise of the steps from chunk_start on. Every run
    starts at x0 with the shifts v0, zeros when omitted. A lone run is a
    batch of one: its arrays hold one row, x (1, d), v (1, n, d) and so on.

    v_bar is maintained incrementally across steps and checked against
    the direct average of the shift rows of each step; drift_scale is the
    running sum of the root-mean-square shift row over v0 and the steps
    so far, the scale of the rounding v_bar may have accumulated, each
    term a sum of per-node squared norms taken in node order. It is held
    times drift_unit (R,), 1 until a run's sum passes the float64 range
    (rows near 1e307 do so in about 18 steps) and a power of two below it
    from then on, which scales exactly. Both advance at the end of each
    chunk of steps, from the per-step terms the chunk's buffers hold; x
    and v advance every step. A run that leaves (it diverged) is dropped
    from every array at the end of its chunk, and the others go on
    unchanged. The batch holds no telemetry: run writes each chunk's
    values of the runs in ids into the trace rows of its steps.

    A step writes every array into buffers the batch keeps. work (4, R,
    n, d) holds a step's [messages, v, grads, residuals]: the
    stacked first three are what a step averages over the nodes, and the
    shifted methods step their shifts in work[1] in place, so between
    chunks v is a view of it (the unshifted methods keep v as given). The
    chunk's buffers (chunk_buffers) are made at the first chunk of the
    runs present and reused by every later chunk. Nothing handed out is a
    view of them: x and active are copies made at each chunk's end, step
    replaces v by a copy and copies f, and state copies every array it
    returns.
    """

    def __init__(self, cfgs, problem, x0, v0=None):
        cfgs = tuple(cfgs)
        if not cfgs:
            raise ConfigurationError("need at least one method config")
        cfg = cfgs[0]
        shared = lambda c: (c.method, c.iters, c.tau, c.nu, c.compressor)
        if any(shared(c) != shared(cfg) for c in cfgs):
            raise ConfigurationError("the configs of one batch may differ only in gamma, sigma and seed")
        if cfg.method == "press_clip21_gd":
            cfg.compressor.alpha(problem.d)  # surfaces k > d now, not mid-run
        x0 = check_vector(x0)
        if x0.shape[0] != problem.d:
            raise ConfigurationError(f"x0 has dimension {x0.shape[0]}, problem has {problem.d}")
        R, n, d = len(cfgs), problem.n, problem.d
        self.cfg, self.problem, self.k = cfg, problem, 0
        self.ids = np.arange(R)
        self.sigma = np.array([c.sigma for c in cfgs])
        self.seed = np.array([c.seed for c in cfgs])
        self.gamma = np.array([c.gamma for c in cfgs])[:, None]
        self.x = np.tile(x0, (R, 1))
        v0 = np.zeros((n, d)) if v0 is None else check_vector(v0, stack=True)
        if v0.shape != (n, d):
            raise ConfigurationError(f"v0 has shape {v0.shape}, problem needs {(n, d)}")
        self.v = np.tile(v0, (R, 1, 1))
        self.v_bar = np.tile(node_mean(v0), (R, 1))
        self.active = np.zeros((R, n), dtype=bool)
        self.work = np.empty((4, R, n, d))
        self.buffers = None  # the chunk buffers, made at the first chunk
        with np.errstate(over="ignore"):  # rows past 1.3e154 take rms_rows's scaled route
            sq = np.vecdot(v0, v0)
            self.drift_scale = np.full(R, rms_rows(rms_rows(v0, sq), np.add.reduce(sq), n))
        self.drift_unit = np.ones(R)
        self.chunk_start, self.chunk = 0, np.empty((0, R))  # no noise drawn yet

    def keep(self, rows: np.ndarray) -> None:
        """Keep only the runs whose entry of the mask rows, one per run,
        is True, with their columns of the noise chunk."""
        self.ids = self.ids[rows]
        for name in ("sigma", "seed", "gamma", "x", "v", "v_bar", "active", "drift_scale", "drift_unit"):
            setattr(self, name, getattr(self, name)[rows])
        self.chunk, self.work, self.buffers = self.chunk[:, rows], self.work[:, rows], None

    def chunk_buffers(self, steps: int):
        """xs (steps + 1, R, d), fs (steps, R), means (steps, 3, R, d), norms
        (steps, 2, R, n) and masks (steps, R, n): views of buffers made at
        the first chunk of the batch's current runs and reused by every
        later one, whose steps are no more."""
        if self.buffers is None or len(self.buffers[1]) < steps:
            R, n, d = self.ids.size, self.problem.n, self.problem.d
            self.buffers = (
                np.empty((steps + 1, R, d)),
                np.empty((steps, R)),
                np.empty((steps, 3, R, d)),
                np.zeros((steps, 2, R, n)),  # the unshifted methods leave them 0
                np.zeros((steps, R, n), dtype=bool),  # and gd these
            )
        return tuple(a[: steps + (a is self.buffers[0])] for a in self.buffers)

    def state(self, row: int) -> OptimizerState:
        """The final state of the run in row row."""
        x, v, v_bar, active = (a[row].copy() for a in (self.x, self.v, self.v_bar, self.active))
        return OptimizerState(k=self.k, x=x, v=v, v_bar=v_bar, active=active)

    def noise(self) -> np.ndarray:
        """This step's clipped privacy noise for every run, (R, n, d) for
        dp_clip21_gd and (R, d) for dp_clip_gd: each run's draw at step k,
        clipped by nu.

        The steps from k on are drawn as one chunk, ending with the run and
        of about _NOISE_BUDGET elements over the columns it holds, one per
        run: one unit draw per seed among the runs with a positive sigma,
        with the bits of its lone draws. Run r's column is sigma_r * unit,
        as a solo draw forms it, or exact zeros at sigma_r = 0, and the
        chunk is clipped once, row-wise and so bit-identical to one step's.
        Each step returns its row of the chunk. With no run at a positive
        sigma there is no chunk, and each step gets exact zeros.
        """
        i = self.k - self.chunk_start
        if i >= len(self.chunk):  # the chunk has run out: draw the next
            cfg, n, d = self.cfg, self.problem.n, self.problem.d
            shape = (n, d) if cfg.method == "dp_clip21_gd" else (d,)
            groups = {}  # rows of the runs with a positive sigma, by seed
            for row, (seed, sigma) in enumerate(zip(self.seed.tolist(), self.sigma.tolist())):
                if sigma > 0.0:
                    groups.setdefault(seed, []).append(row)
            if not groups:
                self.chunk = np.empty((0, self.ids.size))  # frees the spent chunk
                return np.zeros((self.ids.size,) + shape)
            steps = max(1, min(_NOISE_BUDGET // (self.ids.size * math.prod(shape)), cfg.iters - self.k))
            chunk = self.chunk = np.zeros((steps, self.ids.size) + shape)  # frees the spent chunk
            for seed, rows in groups.items():
                unit = (
                    gaussian_block(seed, self.k, n, d, 1.0, steps=steps)
                    if cfg.method == "dp_clip21_gd"
                    else gaussian_sample(seed, stream_slot(n, "aggregate"), self.k, d, 1.0, steps=steps)
                )
                for row in rows:
                    np.multiply(self.sigma[row], unit, out=chunk[:, row])
            self.chunk = clip_rows(chunk, cfg.nu)[0]
            self.chunk_start, i = self.k, 0
        return self.chunk[i]


def _shift_update(targets, v, tau, transmit=None, *, out):
    """One shifted-clipping round for every node at once, in place.

    Node i sends m^i = transmit(clip(t^i - v^i, tau)) (the clipped
    residual itself when transmit is None) and moves its shift to
    v^i + m^i, except that an inactive clip whose message is exactly the
    raw residual lands the shift on the target bit-for-bit rather than on
    v + (t - v), which can differ in the last ulp. The arrays are (R, n,
    d). out = (messages, mask, spare) receives the messages and
    the clip-activity mask; spare, of the shape of v, holds the residuals,
    or the clipped residuals when there is a transmit, which writes the
    messages from them as transmit(clipped, out=messages). v becomes the
    new shifts. Returns v, the messages and the mask.
    """
    messages, active, spare = out
    # the clip writes into the buffer the residuals are not in
    resid, clipped = (spare, messages) if transmit is None else (messages, spare)
    clip_rows(np.subtract(targets, v, out=resid), tau, out=(clipped, active))
    # an inactive clip hands the residual back bit-identical
    landed = np.logical_not(active)
    if transmit is not None:
        transmit(clipped, out=messages)
        landed &= np.logical_and.reduce(np.equal(messages, clipped), axis=-1)
    np.add(v, messages, out=v)
    np.copyto(v, targets, where=landed[..., None])
    return v, messages, active


def _advance(batch: Batch, steps: int):
    """steps steps of every run in the batch, in place, each doing only the
    method's own arithmetic: evaluate at x_k, the shift update or the
    clip, one node mean of the stacked [messages, shifts, gradients] (for
    the unshifted methods [sent gradients, gradients]), one vecdot of the
    stacked [v, grads - v], and the move of x. Every array a step writes
    is a buffer the batch keeps (work, and the chunk's buffers), so a step
    allocates no array of the batch's size.

    Returns the chunk's buffers, whose leading axis is the step in the
    chunk: xs holds x_k to x_{k+steps}, fs the values, means the message
    mean (the increment of v_bar), the direction and the mean gradient,
    norms the squared rows of [v, grads - v], masks the clip masks and
    wide the shift row norms of the steps where those squares overflowed;
    and the perf_counter_ns stamps at the chunk's start and after each step.
    """
    cfg, problem, work = batch.cfg, batch.problem, batch.work
    xs, fs, means, norms, masks = batch.chunk_buffers(steps)
    xs[0] = batch.x
    shifted, n = cfg.method in _SHIFTED, problem.n
    # with no run at a positive sigma the noise is exact zeros, which add as 0.0 does
    noise = batch.noise if batch.sigma.any() else (lambda: 0.0)
    transmit = None
    if cfg.method == "dp_clip21_gd":
        transmit = lambda clipped, out: np.add(clipped, noise(), out=out)
    elif cfg.method == "press_clip21_gd":
        transmit = partial(compress_rows, cfg.compressor)
    messages, v, grads, spare = work
    stacked, pair = work[:3], work[1:3]  # [messages, v, grads] and [v, grads - v]
    if shifted:  # the shifts step in work[1]; batch.v may have been replaced
        np.copyto(v, batch.v)
    wide = {}  # maps a step to its shift row norms
    stamps = [time.perf_counter_ns()]
    for i in range(steps):
        fs[i] = problem._evaluate(xs[i], out=grads)[0]
        mean = means[i]
        if shifted:
            _shift_update(grads, v, cfg.tau, transmit, out=(messages, masks[i], spare))
            # node_mean's sum then divide, into the chunk's buffer
            np.divide(np.add.reduce(stacked, axis=-2, out=mean), n, out=mean)
            np.subtract(grads, v, out=grads)
            v_sq = np.vecdot(pair, pair, out=norms[i])[0]
            # a finite sum rules out a shift row whose square overflowed
            if not math.isfinite(np.add.reduce(v_sq, axis=None)) and np.isinf(v_sq).any():
                wide[i] = rms_rows(v, v_sq)
        else:
            # the sent gradients take work[1], which holds no shifts here
            if cfg.method == "gd":
                np.copyto(work[1], grads)
            else:
                clip_rows(grads, cfg.tau, out=(work[1], masks[i]))
            np.divide(np.add.reduce(pair, axis=-2, out=mean[1:]), n, out=mean[1:])
            if cfg.method == "dp_clip_gd":
                np.add(mean[1], noise(), out=mean[1])
        np.subtract(xs[i], np.multiply(batch.gamma, mean[1], out=xs[i + 1]), out=xs[i + 1])
        batch.k += 1
        stamps.append(time.perf_counter_ns())
    batch.x = xs[steps].copy()
    if shifted:
        batch.v = v
    return xs, fs, means, norms, masks, wide, stamps


def _settle(batch: Batch, xs, fs, means, norms, masks, wide):
    """The end-of-chunk pass over _advance's buffers, vectorised over the
    chunk's steps.

    It forms each step's ||grad f||^2, shift term, v_norm and active node
    count; advances v_bar and drift_scale with np.add.accumulate over
    [carried value, per-step terms], which sums in sequence with the bits
    of one step at a time (v_bar in place of the message means in
    means[:, 0]); and runs the shift-drift check over the runs
    still present at each step, in run's order of leaving. Raises
    InvariantError on the first drifted run, in row order, of the first
    step with one. Returns the telemetry columns, (steps, R) each,
    and per run the chunk steps of its first non-finite iterate
    (x_{k+steps} included) and of its first non-finite f or ||grad f||^2,
    steps + 1 where there is none. The columns may be views of the chunk's
    buffers, which the next chunk overwrites.
    """
    (steps, R), n = fs.shape, batch.problem.n
    k0 = batch.k - steps  # the chunk's first step
    direction, gbar = means[:, 1], means[:, 2]
    grad_sq = np.vecdot(gbar, gbar)

    def first(bad):  # per run, the first step where bad holds, else steps + 1
        return np.where(bad.any(axis=0), bad.argmax(axis=0), steps + 1)

    def running(carried, terms):  # carried + terms[0], + terms[1], ... in sequence
        return np.add.accumulate(np.concatenate((carried[None], terms)))[1:]

    # a finite sum over the chunk rules out a non-finite entry in one call
    bad_x = np.full(R, steps + 1)
    if not math.isfinite(np.add.reduce(xs, axis=None)):
        bad_x = first(~np.isfinite(xs).all(axis=-1))
    bad_f = np.full(R, steps + 1)
    if not math.isfinite(np.add.reduce(fs, axis=None) + np.add.reduce(grad_sq, axis=None)):
        bad_f = first(~(np.isfinite(fs) & np.isfinite(grad_sq)))
    if batch.cfg.method in _SHIFTED:
        # rounding lets the running aggregate drift by about eps per step at
        # the scale of that step's shift rows, so the allowance grows with the
        # running sum of their root-mean-square norm: rows that have shrunk
        # since do not shrink the rounding v_bar already holds. A drift must
        # also exceed the per-step allowance at the largest current row
        v_sq = norms[:, 0]
        # the message means become the running v_bar, in sequence from the carried one
        v_bar = means[:, 0]
        np.add(batch.v_bar, v_bar[0], out=v_bar[0])
        np.add.accumulate(v_bar, axis=0, out=v_bar)
        terms = np.sqrt(np.add.reduce(v_sq, axis=-1) / n)
        for i, rows in wide.items():
            terms[i] = rms_rows(rows, np.add.reduce(v_sq[i], axis=-1), n)
        # drift_scale is carried times drift_unit, a power of two
        unit = batch.drift_unit
        drift_scale = running(batch.drift_scale, terms * unit)
        over = np.isinf(drift_scale[-1])
        if over.any():
            # the sum of rows near the top of the float64 range passed it:
            # carry those runs' scale _DRIFT_DOWN lower from here on, exactly
            down = np.where(over, _DRIFT_DOWN, 1.0)
            unit = unit * down
            drift_scale = running(batch.drift_scale * down, terms * unit)
        off = v_bar - direction
        drift = rms_rows(off, np.vecdot(off, off))
        suspect = drift * unit > _DRIFT_TOL * drift_scale
        if suspect.any():
            at = np.arange(steps)[:, None]  # each step's index in the chunk
            largest = np.sqrt(v_sq.max(axis=-1))
            for i, rows in wide.items():
                largest[i] = rows.max(axis=-1)
            drifted = suspect & (at < np.minimum(bad_x, bad_f + 1)) & (drift > _DRIFT_TOL * (k0 + at + 1) * largest)
            if drifted.any():
                i = int(drifted.any(axis=1).argmax())
                raise InvariantError(
                    f"aggregate shift drifted from direct average by {np.extract(drifted[i], drift[i])[0]:.3e} "
                    f"at step {k0 + i}"
                )
        batch.v_bar, batch.drift_scale, batch.drift_unit = v_bar[-1].copy(), drift_scale[-1].copy(), unit
    batch.active = masks[-1].copy()
    shift_sq = np.add.reduce(norms[:, 1], axis=-1) / n
    columns = (fs, grad_sq, shift_sq, masks.sum(axis=-1), np.sqrt(np.vecdot(direction, direction)))
    return columns, bad_x, bad_f


def step(batch: Batch):
    """One step of every run in the batch, in place: the chunk kernel of
    run on a one-step chunk.

    The unshifted methods move along the mean of the clipped local
    gradients (gd clips nothing); dp_clip_gd adds one clipped Gaussian
    vector per step, drawn from the "aggregate" stream slot so it can
    never collide with per-node noise. The shifted methods send
    clipped residuals against the shifts, with per-node clipped noise
    (dp_clip21_gd) or compression (press_clip21_gd) applied to each
    message, and move along the mean of the new shifts; v_bar advances by
    the mean of the messages and is checked against that mean, and a
    drift raises InvariantError. A non-finite iterate is not checked
    here, but propagates: run checks each iterate.

    Elementwise and row-wise work runs on the whole stack, and every dot
    and matrix product is the BLAS call a run alone makes, so each run's
    numbers are bit-identical to its solo run. A sum over the nodes, such
    as the shift term or the drift scale, is one dot per node row of d
    values, summed along the node axis in node order, never one dot over
    the flattened (n, d) block, so where BLAS runs threaded (see the package
    docstring) the thread count moves no bits while d <= 10 000.
    Returns (R,) arrays, one entry per run: f and ||grad f||^2 at x_k,
    the shift term (1/n) sum_i ||grad_i(x_k) - v_k^i||^2 and the norm of
    the pre-gamma direction; and the (R, n) mask of the nodes that
    clipped.
    """
    (f, grad_sq, shift_sq, _, v_norm), _, _ = _settle(batch, *_advance(batch, 1)[:-1])
    batch.v = batch.v.copy()  # the shifts a caller holds stay this step's
    return f[0].copy(), grad_sq[0], shift_sq[0], v_norm[0], batch.active


def run(cfgs, problem, x0, *, v0=None, f_inf=0.0, lyapunov_coeffs=None):
    """Execute iters steps from x0 and the shifts v0 (zeros when omitted)
    for each config of cfgs, as one batch.

    The configs may differ only in gamma, sigma and seed. Returns (finals,
    trace): finals[r] is config r's final OptimizerState, holding x_K, or
    the DivergenceError that stopped it the moment its iterate or
    objective value stopped being finite. trace is a recarray of
    TRACE_DTYPE with one row per run-step executed, in step order and,
    within a step, in config order. A row's fields k, f, grad_norm_sq,
    lyapunov, active_nodes, v_norm, gamma and wall_micros describe the
    iterate x_k of the run named by its run field; trace.f is a column,
    trace[0].f a value. lyapunov_coeffs[r] is the shift weight A of run r
    in phi = f - f_inf + (A/n) sum_i ||grad_i - v^i||^2; omitted, every
    weight is zero, plain suboptimality telemetry. An InvariantError in
    any run stops the whole batch.

    The batch advances one chunk of steps at a time, _CHUNK_BUDGET
    elements of buffers over the runs still present: a step of the
    chunk does only the method's arithmetic, into buffers the batch keeps
    and every chunk reuses (see Batch), and one pass at the chunk's end
    forms the telemetry, the running aggregates and the checks,
    vectorised over its steps. The trace rows and the finals are copied
    out of those buffers. The chunk ends exactly as its steps would
    one at a time. At step k, the runs whose x_k is not finite leave
    first, with no row for step k; then the shift-drift check runs over
    the runs still present and raises on the first drifted run in row
    order; then the runs whose f or ||grad f||^2 is not finite leave,
    without that row either. A run's steps after it leaves still run to
    the chunk's end, but they never reach the drift check or the trace,
    and the others' numbers do not depend on them; so a chunk's length
    moves no bits. wall_micros is each step's own time plus an even share
    of the end-of-chunk pass, split evenly over the runs that record a row
    at that step, so a run's values sum to its share of the run's time.

    The trace is allocated at iters * R rows before the first step, and
    each chunk writes its runs' values into its rows by slice. After the
    loop, whole-column operations fill k, run and gamma and form lyapunov
    from the shift terms the steps stored there, elementwise as a step's
    scalars would be. The rows a run did not reach, from the step where it
    left, are then dropped; so when no run left, row k * R + r is run r's
    step k.
    """
    cfgs = tuple(cfgs)
    batch = Batch(cfgs, problem, x0, v0)
    R, iters = len(cfgs), batch.cfg.iters
    weights = np.zeros(R) if lyapunov_coeffs is None else np.array(lyapunov_coeffs, dtype=np.float64)
    if weights.shape != (R,):
        raise ConfigurationError(f"need one Lyapunov weight per config, got shape {weights.shape}")
    finals = [None] * R
    recorded = np.full(R, iters)  # steps each run recorded: iters, or the step it left at
    try:
        trace = np.zeros(iters * R, TRACE_DTYPE).view(np.recarray)
    except (MemoryError, ValueError):  # ValueError: more bytes than an address space holds
        raise ConfigurationError(
            f"a trace of {iters * R} rows ({iters} iters x {R} configs) of {TRACE_DTYPE.itemsize} bytes "
            "cannot be allocated"
        ) from None
    grid = trace.reshape(iters, R)  # row k is step k, column r run r
    # the per-step fields; lyapunov holds the shift term until the loop ends
    names = ("f", "grad_norm_sq", "lyapunov", "active_nodes", "v_norm", "wall_micros")
    columns = [grid[name] for name in names]
    where = slice(None)  # the grid columns of the runs still in the batch
    per_run = 4 * problem.d + 3 * problem.n + 1  # buffer elements a run fills a step

    # blowups surface as inf through the finiteness checks, so numpy's
    # overflow warnings would only add noise here
    with np.errstate(over="ignore", invalid="ignore"):
        while batch.k < iters:
            k0 = batch.k
            steps = max(1, min(_CHUNK_BUDGET // (batch.ids.size * per_run), iters - k0))
            *buffers, stamps = _advance(batch, steps)
            values, bad_x, bad_f = _settle(batch, *buffers)
            left = np.minimum(bad_x, bad_f)  # the step each run leaves at, steps + 1 if it stays
            recording = np.maximum((np.arange(steps)[:, None] < left).sum(axis=1), 1)
            spent = np.diff(stamps) * steps + (time.perf_counter_ns() - stamps[-1])
            wall = spent // (1000 * steps * recording)
            for column, value in zip(columns, values + (wall[:, None],)):
                column[k0 : k0 + steps, where] = value
            stay = left > steps
            if not stay.all():
                # each run that leaves keeps its rows before the step it left at
                for row in np.flatnonzero(~stay).tolist():
                    r, k = batch.ids[row], k0 + int(left[row])
                    what = "iterate" if bad_x[row] <= bad_f[row] else "objective"
                    finals[r] = DivergenceError(f"non-finite {what} at iteration {k}", step=k)
                    recorded[r] = k
                batch.keep(stay)
                where = batch.ids
                if not batch.ids.size:
                    break
        for row, r in enumerate(batch.ids.tolist()):
            finals[r] = batch.state(row)
        # (f - f_inf) + A * shift term with the three roundings a step's scalars
        # took: IEEE products and sums commute, so the operand order is free
        lyapunov = grid["lyapunov"]
        np.multiply(lyapunov, weights, out=lyapunov)
        lyapunov += grid["f"] - f_inf
    grid["gamma"] = [c.gamma for c in cfgs]
    grid["k"] = np.arange(iters)[:, None]
    grid["run"] = np.arange(R)
    if (recorded < iters).any():
        trace = trace[trace.k < recorded[trace.run]]
    return finals, trace
