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
does only the method's own arithmetic and writes what it found into
the chunk's buffers; at the chunk's end one pass, vectorised over its
steps, forms the telemetry, advances the running aggregate of the shifts
and runs the checks, with the bits and the order of leaving and raising
of one step at a time. step is the same kernel on a one-step chunk.

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
from .ops import Compressor, check_count, check_real, check_vector, clip_rows, compress_rows, node_mean
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

# noise elements a chunk holds for the noisy runs, about 128 KB: many steps a
# draw at small shapes, one at shapes where the draw is compute-bound
_NOISE_BUDGET = 16_384

# elements of the step buffers a chunk of run fills, about 64 KB: 73 steps for
# a lone 10-node, 20-feature run, 12 for six of them, 10 at 100 x 123
_CHUNK_BUDGET = 8_192


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
    the config ids[r], and so does column r of the noise chunk (steps,
    R, ...), the clipped noise of the steps from chunk_start on. Every
    run starts at x0 with the shifts v0, zeros when omitted. A lone run
    (R = 1) keeps the shapes of an unbatched one, without the leading
    axis (gamma is (1,)): numpy calls on one-row arrays cost more, and a
    one-row axis cost a 10-node, 20-feature dp-clip21-gd run about 11% of
    its steps per second (2-core Xeon VM, OpenBLAS). lead is (R,) or ().

    v_bar is maintained incrementally across steps and checked against
    the direct average of the shift rows of each step; drift_scale is the
    running sum of the root-mean-square shift row over v0 and the steps
    so far, the scale of the rounding v_bar may have accumulated, each
    term a sum of per-node squared norms taken in node order. Both advance
    at the end of each chunk of steps, from the per-step terms the chunk's
    buffers hold; x and v advance every step. A run that leaves (it
    diverged) is dropped from every array at the end of its chunk, and
    the others go on unchanged. The batch holds no telemetry: run writes
    each chunk's values of the runs in ids into the trace rows of its
    steps.
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
        self.lead = (R,) if R > 1 else ()
        self.ids = np.arange(R)
        self.sigma = np.array([c.sigma for c in cfgs])
        self.seed = np.array([c.seed for c in cfgs])
        self.gamma = np.array([c.gamma for c in cfgs]).reshape(self.lead + (1,))
        self.x = np.tile(x0, self.lead + (1,))
        v0 = np.zeros((n, d)) if v0 is None else check_vector(v0, stack=True)
        if v0.shape != (n, d):
            raise ConfigurationError(f"v0 has shape {v0.shape}, problem needs {(n, d)}")
        self.v = np.tile(v0, self.lead + (1, 1))
        self.v_bar = np.tile(node_mean(v0), self.lead + (1,))
        self.active = np.zeros(self.lead + (n,), dtype=bool)
        self.drift_scale = np.full(self.lead, np.sqrt(np.add.reduce(np.vecdot(v0, v0)) / n))
        self.chunk_start, self.chunk = 0, np.empty((0,) + self.lead)  # no noise drawn yet

    def keep(self, rows: np.ndarray) -> None:
        """Keep only the runs whose entry of the mask rows, one per run,
        is True, with their columns of the noise chunk. A lone run that
        leaves empties the batch."""
        self.ids = self.ids[rows]
        if self.lead:
            for name in ("sigma", "seed", "gamma", "x", "v", "v_bar", "active", "drift_scale"):
                setattr(self, name, getattr(self, name)[rows])
            self.chunk = self.chunk[:, rows]
            self.lead = (self.ids.size,)

    def state(self, row: int) -> OptimizerState:
        """The final state of the run in row row."""
        pick = (lambda a: a[row]) if self.lead else (lambda a: a)
        return OptimizerState(
            k=self.k, x=pick(self.x), v=pick(self.v), v_bar=pick(self.v_bar), active=pick(self.active)
        )

    def noise(self) -> np.ndarray:
        """This step's clipped privacy noise for every run, stacked along
        the leading axis: each run's draw at step k, clipped by nu.

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
                self.chunk = np.empty((0,) + self.lead)  # frees the spent chunk
                return np.zeros(self.lead + shape)
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
            self.chunk = clip_rows(chunk, cfg.nu)[0].reshape((steps,) + self.lead + shape)
            self.chunk_start, i = self.k, 0
        return self.chunk[i]


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


def _advance(batch: Batch, steps: int):
    """steps steps of every run in the batch, in place, each doing only the
    method's own arithmetic: evaluate at x_k, the shift update or the
    clip, one node mean of the stacked [messages, shifts, gradients] (for
    the unshifted methods [sent gradients, gradients]), one vecdot of the
    stacked [v, grads - v], and the move of x.

    Returns the chunk's buffers, whose leading axis is the step in the
    chunk: xs holds x_k to x_{k+steps}, fs the values, means the message
    mean (the increment of v_bar), the direction and the mean gradient,
    norms the squared rows of [v, grads - v] and masks the clip masks;
    and the perf_counter_ns stamps at the chunk's start and after each
    step.
    """
    cfg, problem, lead = batch.cfg, batch.problem, batch.lead
    xs = np.empty((steps + 1,) + lead + (problem.d,))
    xs[0] = batch.x
    fs = np.empty((steps,) + lead)
    means = np.empty((steps, 3) + lead + (problem.d,))
    norms = np.zeros((steps, 2) + lead + (problem.n,))
    masks = np.zeros((steps,) + lead + (problem.n,), dtype=bool)
    transmit = None
    if cfg.method == "dp_clip21_gd":
        transmit = lambda clipped: clipped + batch.noise()
    elif cfg.method == "press_clip21_gd":
        transmit = partial(compress_rows, cfg.compressor)
    v = batch.v
    stamps = [time.perf_counter_ns()]
    for i in range(steps):
        fs[i], grads = problem._evaluate(xs[i])
        if cfg.method in _SHIFTED:
            v, messages, masks[i] = _shift_update(grads, v, cfg.tau, transmit)
            work = np.array((messages, v, grads))
            means[i] = node_mean(work)
            np.subtract(grads, v, out=work[2])
            np.vecdot(work[1:], work[1:], out=norms[i])
            del messages, work
        else:
            sent = grads
            if cfg.method != "gd":
                sent, masks[i] = clip_rows(grads, cfg.tau)
            means[i, 1:] = node_mean(np.array((sent, grads)))
            if cfg.method == "dp_clip_gd":
                means[i, 1] += batch.noise()
        np.subtract(xs[i], batch.gamma * means[i, 1], out=xs[i + 1])
        batch.k += 1
        stamps.append(time.perf_counter_ns())
        del grads  # a step's temporaries go before the next step's evaluate
    batch.x, batch.v = xs[steps].copy(), v
    return xs, fs, means, norms, masks, stamps


def _settle(batch: Batch, xs, fs, means, norms, masks):
    """The end-of-chunk pass over _advance's buffers, vectorised over the
    chunk's steps.

    It forms each step's ||grad f||^2, shift term, v_norm and active node
    count; advances v_bar and drift_scale with np.add.accumulate over
    [carried value, per-step terms], which sums in sequence with the bits
    of one step at a time; and runs the shift-drift check over the runs
    still present at each step, in run's order of leaving. Raises
    InvariantError on the first drifted run, in row order, of the first
    step with one. Returns the telemetry columns, (steps,) + lead each,
    and per run the chunk steps of its first non-finite iterate
    (x_{k+steps} included) and of its first non-finite f or ||grad f||^2,
    steps + 1 where there is none.
    """
    steps, n, lead = len(fs), batch.problem.n, batch.lead
    k0 = batch.k - steps  # the chunk's first step
    direction, gbar = means[:, 1], means[:, 2]
    grad_sq = np.vecdot(gbar, gbar)
    at = np.arange(steps).reshape((steps,) + (1,) * len(lead))  # each step's index in the chunk

    def first(bad):  # per run, the first step where bad holds, else steps + 1
        return np.where(bad.any(axis=0), bad.argmax(axis=0), steps + 1)

    bad_x = first(~np.isfinite(xs).all(axis=-1))
    bad_f = first(~(np.isfinite(fs) & np.isfinite(grad_sq)))
    if batch.cfg.method in _SHIFTED:
        # rounding lets the running aggregate drift by about eps per step at
        # the scale of that step's shift rows, so the allowance grows with the
        # running sum of their root-mean-square norm: rows that have shrunk
        # since do not shrink the rounding v_bar already holds. A drift must
        # also exceed the per-step allowance at the largest current row
        v_sq = norms[:, 0]
        v_bar = np.add.accumulate(np.concatenate((batch.v_bar[None], means[:, 0])))[1:]
        terms = np.sqrt(np.add.reduce(v_sq, axis=-1) / n)
        drift_scale = np.add.accumulate(np.concatenate((batch.drift_scale[None], terms)))[1:]
        off = v_bar - direction
        drift = np.sqrt(np.vecdot(off, off))
        suspect = (at < np.minimum(bad_x, bad_f + 1)) & (drift > _DRIFT_TOL * drift_scale)
        if suspect.any():
            drifted = suspect & (drift > _DRIFT_TOL * (k0 + at + 1) * np.sqrt(v_sq.max(axis=-1)))
            if drifted.any():
                i = int(np.reshape(drifted, (steps, -1)).any(axis=1).argmax())
                raise InvariantError(
                    f"aggregate shift drifted from direct average by {np.extract(drifted[i], drift[i])[0]:.3e} "
                    f"at step {k0 + i}"
                )
        batch.v_bar, batch.drift_scale = v_bar[-1].copy(), drift_scale[-1].copy()
    batch.active = masks[-1]
    shift_sq = np.add.reduce(norms[:, 1], axis=-1) / n
    columns = (fs, grad_sq, shift_sq, masks.sum(axis=-1), np.sqrt(np.vecdot(direction, direction)))
    return columns, np.reshape(bad_x, -1), np.reshape(bad_f, -1)


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
    Returns, one entry per run (scalars for a lone run): f and
    ||grad f||^2 at x_k, the shift term (1/n) sum_i ||grad_i(x_k) -
    v_k^i||^2, the norm of the pre-gamma direction and the mask of the
    nodes that clipped.
    """
    (f, grad_sq, shift_sq, _, v_norm), _, _ = _settle(batch, *_advance(batch, 1)[:-1])
    return f[0], grad_sq[0], shift_sq[0], v_norm[0], batch.active


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
    chunk does only the method's arithmetic, and one pass at the chunk's
    end forms the telemetry, the running aggregates and the checks,
    vectorised over its steps. The chunk ends exactly as its steps would
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
    columns = [grid[name] if batch.lead else trace[name] for name in names]
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
            rows = (slice(k0, k0 + steps), where) if batch.lead else slice(k0, k0 + steps)
            for column, value in zip(columns, values + ((wall[:, None] if batch.lead else wall),)):
                column[rows] = value
            del buffers, values  # the next chunk's buffers replace them
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
