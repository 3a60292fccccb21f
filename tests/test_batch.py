"""A batch of runs steps as one: each run is bit-identical to its solo run."""

import tracemalloc
import warnings

import numpy as np
import pytest

from clipshift import (
    Compressor,
    ConfigurationError,
    DivergenceError,
    InvariantError,
    MethodConfig,
    gaussian_block,
    gaussian_sample,
    optimizers,
    run,
)
from clipshift.data import node_block, stack
from clipshift.ops import clip_rows
from clipshift.optimizers import Batch, step
from clipshift.problems import Problem
from clipshift.rng import stream_slot
from conftest import WIDE_NODES, make_wide_sparse_text
from fixed_targets import targets_problem


def _solo(cfg, problem, x0, coeff=0.0):
    [final], trace = run([cfg], problem, x0, f_inf=0.1, lyapunov_coeffs=[coeff])
    return final, trace


def _strip(trace):
    # every field but the timing, which no two runs share, and the run index
    return trace[["k", "f", "grad_norm_sq", "lyapunov", "active_nodes", "v_norm", "gamma"]].tolist()


def _assert_batch_matches_solo(cfgs, problem, x0, coeffs=None):
    coeffs = coeffs or [0.0] * len(cfgs)
    finals, trace = run(cfgs, problem, x0, f_inf=0.1, lyapunov_coeffs=coeffs)
    assert len(finals) == len(cfgs)
    for r, (cfg, final, coeff) in enumerate(zip(cfgs, finals, coeffs)):
        solo_final, solo_trace = _solo(cfg, problem, x0, coeff)
        assert _strip(trace[trace.run == r]) == _strip(solo_trace), r
        if isinstance(solo_final, DivergenceError):
            assert isinstance(final, DivergenceError)
            assert (str(final), final.step) == (str(solo_final), solo_final.step)
        else:
            assert final.x.tobytes() == solo_final.x.tobytes(), r
            assert final.v.tobytes() == solo_final.v.tobytes(), r
            assert final.v_bar.tobytes() == solo_final.v_bar.tobytes(), r
    return finals, trace


_GRID = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
_PLAIN = {
    "gd": {},
    "clip_gd": dict(tau=0.01),
    "clip21_gd": dict(tau=0.01),
    "press_clip21_gd": dict(tau=0.01, compressor=Compressor("top_k", 3)),
}


@pytest.mark.parametrize("method", _PLAIN)
def test_gamma_grid_batch_is_bit_identical_to_solo_runs(logistic_problem, logistic_x0, method):
    L = logistic_problem.smoothness().L
    cfgs = [MethodConfig(method, m / L, 150, **_PLAIN[method]) for m in _GRID]
    _assert_batch_matches_solo(cfgs, logistic_problem, logistic_x0, coeffs=[0.5 * m for m in _GRID])


def test_grid_batch_is_bit_identical_to_solo_runs_above_the_blas_cutoff():
    # the flattened losses and shift blocks hold 12 000 values each, above
    # OpenBLAS's threading cutoff for a dot; each node's row holds 60
    problem = Problem("logistic", block=node_block(make_wide_sparse_text(), WIDE_NODES), lam=1e-4)
    x0 = gaussian_sample(515, problem.n + 1, 0, problem.d, 1.0)
    L = problem.smoothness().L
    cfgs = [MethodConfig("clip21_gd", m / L, 12, tau=0.05) for m in _GRID[1:4]]
    _, trace = _assert_batch_matches_solo(cfgs, problem, x0, coeffs=[0.5, 1.0, 2.0])
    counts = set(trace.active_nodes.tolist())
    assert WIDE_NODES in counts and min(counts) < WIDE_NODES  # every node clips, then some stop


@pytest.mark.filterwarnings("ignore:privacy calibration")
@pytest.mark.parametrize("method", ["dp_clip_gd", "dp_clip21_gd"])
def test_noisy_batches_are_bit_identical_to_solo_runs(logistic_problem, logistic_x0, method):
    L = logistic_problem.smoothness().L
    # a shared seed with several sigmas (zero among them) draws one block
    # of unit normals and scales it per run
    shared = [MethodConfig(method, 0.5 / L, 120, tau=0.01, sigma=s, nu=1.0, seed=0) for s in (0.1, 0.0, 0.05, 0.01)]
    _assert_batch_matches_solo(shared, logistic_problem, logistic_x0)
    # distinct seeds, some repeated, with the grid's stepsizes
    seeds = (3, 4, 3, 5, 4, 4)
    mixed = [
        MethodConfig(method, m / L, 120, tau=0.24, sigma=0.02, nu=0.04, seed=seed) for m, seed in zip(_GRID, seeds)
    ]
    _assert_batch_matches_solo(mixed, logistic_problem, logistic_x0, coeffs=[1.0] * len(mixed))


def test_diverging_run_leaves_the_batch_with_its_partial_trace(quad_problem):
    # on the counterexample gd maps x to (1 - gamma/2) x: gamma 8 gives -3x,
    # whose f overflows at step 324, and gamma 10 gives -4x, at step 256
    cfgs = [MethodConfig("gd", g, 400) for g in (0.5, 8.0, 2.0, 10.0, 1.0)]
    finals, trace = _assert_batch_matches_solo(cfgs, quad_problem, np.array([1.0]))
    assert [type(f).__name__ for f in finals] == ["OptimizerState", "DivergenceError"] * 2 + ["OptimizerState"]
    assert (finals[1].step, finals[3].step) == (324, 256)
    per_run = np.bincount(trace.run, minlength=len(cfgs)).tolist()
    assert per_run == [400, 324, 400, 256, 400]
    # one row per run-step executed, in step order, then config order
    assert len(trace) == sum(per_run)
    rows = list(zip(trace.k.tolist(), trace.run.tolist()))
    assert rows == sorted(rows)


def test_grid_whose_runs_leave_mid_run_matches_solo_runs(logistic_problem, logistic_x0):
    # the runs at 4e155, 1e156 and 1.5e156 overflow f at steps 96, 10 and 7,
    # so the batch goes from 6 runs to 3, and the stacked evaluate and the
    # batch's stacked messages, shifts and gradients shrink with it
    L = logistic_problem.smoothness().L
    gammas = (0.5 / L, 4e155, 1.0 / L, 1e156, 2.0 / L, 1.5e156)
    cfgs = [MethodConfig("clip21_gd", g, 120, tau=0.01) for g in gammas]
    finals, _ = _assert_batch_matches_solo(cfgs, logistic_problem, logistic_x0, coeffs=[0.5] * 6)
    steps = [f.step if isinstance(f, DivergenceError) else None for f in finals]
    assert steps == [None, 96, None, 10, None, 7]


@pytest.mark.parametrize(
    "gammas, iters",
    [((0.5, 1.0, 2.0), 400), ((0.5, 8.0, 2.0, 10.0), 400), ((8.0, 10.0), 400), ((10.0,), 400), ((1.0,), 1)],
    ids=["none-diverge", "some-diverge", "all-diverge", "lone-diverges", "one-step"],
)
def test_trace_has_one_row_per_run_step_executed(quad_problem, gammas, iters):
    # the benchmark counts a call's steps as len(run(...)[1]), which a
    # mapping of columns would silently turn into its number of keys
    finals, trace = run([MethodConfig("gd", g, iters) for g in gammas], quad_problem, np.array([1.0]))
    steps = [f.step if isinstance(f, DivergenceError) else iters for f in finals]
    assert isinstance(trace, np.ndarray) and trace.ndim == 1
    assert len(trace) == sum(steps)
    assert np.bincount(trace.run, minlength=len(gammas)).tolist() == steps
    for r, count in enumerate(steps):
        assert trace.k[trace.run == r].tolist() == list(range(count)), r
    assert (trace.gamma == np.take(gammas, trace.run)).all()


def test_trace_holds_at_most_100_bytes_a_run_step(logistic_problem, logistic_x0):
    # a 6-run grid of 2 000 steps: 72-byte rows, and the step's working
    # arrays, whose size does not grow with the step count
    L = logistic_problem.smoothness().L
    cfgs = [MethodConfig("clip21_gd", m / L, 2000, tau=0.1) for m in _GRID]
    tracemalloc.start()
    try:
        _, trace = run(cfgs, logistic_problem, logistic_x0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace) == 12_000
    assert peak <= 100 * len(trace), f"peak {peak} B, {peak / len(trace):.1f} B a run-step"


def test_every_run_diverging_ends_the_batch(quad_problem):
    cfgs = [MethodConfig("gd", g, 5000) for g in (8.0, 10.0)]
    finals, trace = run(cfgs, quad_problem, np.array([1.0]))
    assert all(isinstance(f, DivergenceError) for f in finals)
    assert len(trace) == 324 + 256


def test_batch_configs_may_differ_only_in_gamma_sigma_and_seed(quad_problem):
    base = MethodConfig("clip21_gd", 0.1, 10, tau=1.0)
    for other in (
        MethodConfig("clip21_gd", 0.1, 10, tau=2.0),
        MethodConfig("clip21_gd", 0.1, 11, tau=1.0),
        MethodConfig("clip_gd", 0.1, 10, tau=1.0),
    ):
        with pytest.raises(ConfigurationError, match="differ only in gamma, sigma and seed"):
            run([base, other], quad_problem, np.array([1.0]))
    with pytest.raises(ConfigurationError, match="at least one"):
        run([], quad_problem, np.array([1.0]))
    with pytest.raises(ConfigurationError, match="one Lyapunov weight per config"):
        run([base, base], quad_problem, np.array([1.0]), lyapunov_coeffs=[0.1])


def test_invariant_failure_in_one_run_stops_the_batch(quad_problem):
    cfgs = [MethodConfig("clip21_gd", g, 10, tau=0.3) for g in (0.1, 0.2)]
    batch = Batch(cfgs, quad_problem, np.array([1.7]))
    step(batch)
    # run 1's shift moved without its message reaching the aggregate
    batch.v[1, 0, 0] += 1e-3
    with pytest.raises(InvariantError, match="drifted"):
        step(batch)


def _per_step_noise(batch):
    """The noise of step batch.k, each run's clipped draw made for that step
    alone: the reference the chunked draws must match bit for bit."""
    cfg, n, d = batch.cfg, batch.problem.n, batch.problem.d

    def one(seed, sigma):
        if cfg.method == "dp_clip21_gd":
            draw = gaussian_block(seed, batch.k, n, d, sigma)
        else:
            draw = gaussian_sample(seed, stream_slot(n, "aggregate"), batch.k, d, sigma)
        return clip_rows(draw, cfg.nu)[0]

    return np.stack([one(seed, sigma) for seed, sigma in zip(batch.seed.tolist(), batch.sigma.tolist())])


def _chunk_lengths(monkeypatch):
    """The steps of every noise draw the optimizers make, in call order."""
    lengths = []
    for name in ("gaussian_block", "gaussian_sample"):
        real = getattr(optimizers, name)

        def counted(*args, real=real, **kwargs):
            lengths.append(kwargs["steps"])
            return real(*args, **kwargs)

        monkeypatch.setattr(optimizers, name, counted)
    return lengths


_DP = dict(tau=0.24, nu=0.04)


@pytest.mark.parametrize(
    "method, iters, sigmas_seeds, chunks",
    [
        # a lone run at the fixture shape: 16384 // 200 = 81 steps a chunk,
        # and 200 steps end mid-chunk
        ("dp_clip21_gd", 200, [(0.02, 7)], [81, 81, 38]),
        # the aggregate slot draws one row a step: 16384 // 20 = 819
        ("dp_clip_gd", 1000, [(0.02, 7)], [819, 181]),
        # a sigma sweep on one seed shares one unit chunk; sigma 0 draws
        # nothing, but its column is held, so the four columns split the
        # budget: 16384 // 800 = 20
        ("dp_clip21_gd", 100, [(0.02, 3), (0.0, 3), (0.01, 3), (0.04, 3)], [20, 20, 20, 20, 20]),
        # two seed groups, one unit chunk each, at the three runs' 27 steps
        ("dp_clip21_gd", 90, [(0.02, 3), (0.01, 4), (0.03, 3)], [27, 27, 27, 27, 27, 27, 9, 9]),
        # two seed groups over three columns: 16384 // 60 = 273
        ("dp_clip_gd", 300, [(0.02, 3), (0.0, 5), (0.01, 4)], [273, 273, 27, 27]),
        # a zero sigma is exact zeros without a draw, lone or batched
        ("dp_clip21_gd", 30, [(0.0, 3)], []),
        ("dp_clip21_gd", 30, [(0.0, 3), (0.0, 4)], []),
    ],
)
def test_chunked_noise_matches_per_step_draws(
    logistic_problem, logistic_x0, monkeypatch, method, iters, sigmas_seeds, chunks
):
    lengths = _chunk_lengths(monkeypatch)
    cfgs = [MethodConfig(method, 0.1, iters, sigma=sigma, seed=seed, **_DP) for sigma, seed in sigmas_seeds]
    batch = Batch(cfgs, logistic_problem, logistic_x0)
    for _ in range(iters):
        assert np.array_equal(batch.noise(), _per_step_noise(batch)), batch.k
        step(batch)
    assert lengths == chunks


@pytest.mark.parametrize(
    "method, noisy",
    [
        pytest.param("dp_clip21_gd", 50, id="dp_clip21_gd"),
        pytest.param("dp_clip_gd", 50, id="dp_clip_gd"),
        # the columns of the runs at sigma 0 count too, and with no noisy
        # run there is no chunk at all
        pytest.param("dp_clip21_gd", 1, id="dp_clip21_gd-one-noisy"),
        pytest.param("dp_clip21_gd", 0, id="dp_clip21_gd-none-noisy"),
    ],
)
def test_noise_chunk_peak_stays_near_the_budget(logistic_problem, logistic_x0, method, noisy):
    # a 50-run sigma sweep on one seed, its first runs noisy: the budget
    # counts the columns the chunk holds, so it holds about 16384
    # elements, not 50 times that; the trace's 10 000 rows take 0.69 MiB
    # of the peak
    sigmas = [0.0008 * (r + 1) if r < noisy else 0.0 for r in range(50)]
    cfgs = [MethodConfig(method, 0.1, 200, sigma=sigma, seed=3, **_DP) for sigma in sigmas]
    tracemalloc.start()
    try:
        run(cfgs, logistic_problem, logistic_x0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_chunk_is_one_step_at_a_large_shape(monkeypatch):
    # 100 nodes of 123 features hold 12 300 elements a step, so the budget
    # leaves one step a draw, where the draw is compute-bound anyway
    rng = np.random.default_rng(5)
    shards = [(rng.standard_normal((3, 123)), np.array([1.0, -1.0, 1.0])) for _ in range(100)]
    problem = Problem("logistic", stack(shards), reg="l2", lam=1e-3)
    lengths = _chunk_lengths(monkeypatch)
    cfg = MethodConfig("dp_clip21_gd", 0.1, 3, sigma=0.02, seed=1, **_DP)
    [final], _ = run([cfg], problem, np.zeros(123))
    assert lengths == [1, 1, 1]
    assert not isinstance(final, DivergenceError)


@pytest.mark.parametrize("method", ["dp_clip21_gd", "dp_clip_gd"])
def test_run_that_leaves_mid_chunk_keeps_the_others_on_their_chunk(quad_problem, monkeypatch, method):
    # gamma 1e300 sends the iterate to about 1e300 after one step, so f
    # overflows and that run leaves at step 1; one chunk of every step
    # holds each seed group's noise, and the others keep their columns of
    # it: (steps, R, n, d) for dp_clip21_gd, (steps, R, d) for dp_clip_gd
    noisy = dict(tau=1.0, nu=0.1, sigma=0.05)
    cfgs = [
        MethodConfig(method, gamma, 300, seed=seed, **noisy)
        for gamma, seed in ((0.1, 1), (1e300, 1), (0.2, 2), (0.05, 1))
    ]
    lengths = _chunk_lengths(monkeypatch)
    finals, trace = run(cfgs, quad_problem, np.array([1.0]), f_inf=0.1, lyapunov_coeffs=[0.0] * 4)
    assert isinstance(finals[1], DivergenceError) and finals[1].step == 1
    assert lengths == [300, 300]  # the batch's two seed groups, drawn once
    _assert_batch_matches_solo(cfgs, quad_problem, np.array([1.0]))
    monkeypatch.setattr(Batch, "noise", _per_step_noise)
    ref_finals, ref_trace = run(cfgs, quad_problem, np.array([1.0]), f_inf=0.1, lyapunov_coeffs=[0.0] * 4)
    assert _strip(trace) == _strip(ref_trace)
    for final, ref in zip(finals, ref_finals):
        if not isinstance(ref, DivergenceError):
            assert final.x.tobytes() == ref.x.tobytes()


def _stepwise(cfgs, problem, x0, v0=None, f_inf=0.1):
    """run's outcome from a loop of one-step chunks: step() once a step,
    with the runs leaving in run's order. At step k the runs whose x_k is
    not finite leave first, then step() runs its drift check over the
    others, then the runs whose f or ||grad f||^2 is not finite leave
    without a row for step k. Returns the finals, as run gives them, and
    the trace rows (k, run, f, grad_norm_sq, lyapunov at weight 1,
    active_nodes, v_norm) in run's order."""
    batch = Batch(cfgs, problem, x0, v0)
    finals, rows = [None] * len(cfgs), []

    def leave(stay, what, k):
        for r in batch.ids[~stay].tolist():
            finals[r] = DivergenceError(f"non-finite {what} at iteration {k}", step=k)
        batch.keep(stay)

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(batch.cfg.iters):
            if not np.isfinite(batch.x).all():
                leave(np.isfinite(batch.x).all(axis=-1), "iterate", k)
                if not batch.ids.size:
                    break
            f, grad_sq, shift_sq, v_norm, active = step(batch)
            stay = np.isfinite(f) & np.isfinite(grad_sq)
            for row in np.flatnonzero(stay).tolist():
                lyapunov = shift_sq[row] * 1.0 + (f[row] - f_inf)
                values = (f[row], grad_sq[row], lyapunov, np.count_nonzero(active[row]), v_norm[row])
                rows.append((k, int(batch.ids[row])) + tuple(float(v) for v in values))
            if not stay.all():
                leave(stay, "objective", k)
                if not batch.ids.size:
                    break
        if batch.ids.size and not np.isfinite(batch.x).all():
            leave(np.isfinite(batch.x).all(axis=-1), "iterate", batch.cfg.iters)
    for row, r in enumerate(batch.ids.tolist()):
        finals[r] = batch.state(row)
    return finals, rows


def _assert_run_matches_stepwise(cfgs, problem, x0, v0=None):
    """run and _stepwise agree bit for bit on every row and final; returns
    the outcome of each run: "ok", or the message and step it left at."""
    finals, trace = run(cfgs, problem, x0, v0=v0, f_inf=0.1, lyapunov_coeffs=[1.0] * len(cfgs))
    ref_finals, ref_rows = _stepwise(cfgs, problem, x0, v0)
    fields = ["k", "run", "f", "grad_norm_sq", "lyapunov", "active_nodes", "v_norm"]
    assert [tuple(row) for row in trace[fields].tolist()] == ref_rows
    outcomes = []
    for final, ref in zip(finals, ref_finals):
        if isinstance(ref, DivergenceError):
            assert isinstance(final, DivergenceError)
            assert (str(final), final.step) == (str(ref), ref.step)
            outcomes.append((str(final), final.step))
        else:
            assert final.k == ref.k
            for name in ("x", "v", "v_bar", "active"):
                assert getattr(final, name).tobytes() == getattr(ref, name).tobytes(), name
            outcomes.append("ok")
    return outcomes


_ALL = {
    "gd": {},
    "clip_gd": dict(tau=0.05),
    "clip21_avg": dict(tau=0.05),
    "clip21_gd": dict(tau=0.05),
    "dp_clip_gd": dict(tau=0.24, nu=0.04, sigma=0.02),
    "dp_clip21_gd": dict(tau=0.24, nu=0.04, sigma=0.02),
    "press_clip21_gd": dict(tau=0.05, compressor=Compressor("top_k", 3)),
}


def _configs(method, gammas, iters, lone, **overrides):
    kwargs = {**_ALL[method], **overrides}
    gammas = [0.0] * len(gammas) if method == "clip21_avg" else gammas
    cfgs = [MethodConfig(method, gamma, iters, seed=1 + r % 2, **kwargs) for r, gamma in enumerate(gammas)]
    return cfgs[:1] if lone else cfgs


@pytest.mark.filterwarnings("ignore:privacy calibration")
@pytest.mark.parametrize("lone", [True, False], ids=["lone", "batch"])
@pytest.mark.parametrize("method", _ALL)
def test_run_matches_a_loop_of_one_step_chunks(logistic_problem, logistic_x0, method, lone):
    # 200 steps: chunks of 147 steps for a lone run at this shape, 49 for three
    L = logistic_problem.smoothness().L
    cfgs = _configs(method, [m / L for m in (0.5, 2.0, 8.0)], 200, lone)
    assert _assert_run_matches_stepwise(cfgs, logistic_problem, logistic_x0) == ["ok"] * len(cfgs)


def _line(a):
    """Two nodes of two rows in d = 1, every feature a or a/2, so every
    margin is at most |a x|: for a <= 1 the objective stays finite
    wherever x does."""
    features = [np.array([[a], [a]]), np.array([[a], [a / 2]])]
    return Problem("logistic", stack([(rows, np.array([1.0, -1.0])) for rows in features]))


# shifts of 1e150 move x by about gamma * 1e150 a step, past the largest
# float after about 1.8e158 / gamma steps, so the shifted runs leave well
# inside a chunk (1 489 steps for a lone run at this shape, 496 for three)
_FAR_SHIFTS = np.full((2, 1), 1e150)
_UNSHIFTED = ("gd", "clip_gd", "dp_clip_gd")
_LEAVES = {
    # a <= 1: the shifted runs' x overflows first; the unshifted runs at
    # a = 8, from x0 = -10, move by 4 gamma, past the largest float at
    # gamma 1e308, and past the last finite margin at 2e307
    "iterate": {
        "shifted": (1.0, (1e157, 1e154, 2.5e156), [("iterate", 18), "ok", ("iterate", 72)]),
        "unshifted": (8.0, (1e308, 0.1, 2e307), [("iterate", 1), "ok", ("objective", 1)]),
    },
    # a = 8: the margin 8 x overflows before x does
    "objective": {
        "shifted": (8.0, (1e157, 1e154, 2.5e156), [("objective", 3), "ok", ("objective", 9)]),
        "unshifted": (8.0, (2e307, 0.1, 1e308), [("objective", 1), "ok", ("iterate", 1)]),
    },
}


@pytest.mark.filterwarnings("ignore:privacy calibration")
@pytest.mark.parametrize("lone", [True, False], ids=["lone", "batch"])
@pytest.mark.parametrize("method", [m for m in _ALL if m != "clip21_avg"])  # its x never moves
@pytest.mark.parametrize("what", _LEAVES)
def test_run_that_leaves_mid_chunk_matches_one_step_chunks(method, lone, what):
    a, gammas, expected = _LEAVES[what]["unshifted" if method in _UNSHIFTED else "shifted"]
    one_feature = dict(compressor=Compressor("top_k", 1)) if method == "press_clip21_gd" else {}
    cfgs = _configs(method, gammas, 300, lone, tau=5.0, **one_feature)
    outcomes = _assert_run_matches_stepwise(cfgs, _line(a), np.array([-10.0]), v0=_FAR_SHIFTS)
    expected = [o if o == "ok" else (f"non-finite {o[0]} at iteration {o[1]}", o[1]) for o in expected]
    assert outcomes == expected[: len(cfgs)]


@pytest.mark.parametrize("iters, budget", [(18, None), (40, 18 * 11)], ids=["last-iterate", "chunk-end"])
def test_iterate_that_overflows_at_a_chunk_end_leaves_at_its_step(monkeypatch, iters, budget):
    # x_18 is the run's last iterate, or (18 steps of 11 buffer elements a
    # chunk) the last iterate of the first chunk, checked at that chunk's end
    if budget:
        monkeypatch.setattr(optimizers, "_CHUNK_BUDGET", budget)
    cfgs = _configs("clip21_gd", (1e157,), iters, True, tau=5.0)
    outcomes = _assert_run_matches_stepwise(cfgs, _line(1.0), np.array([-10.0]), v0=_FAR_SHIFTS)
    assert outcomes == [("non-finite iterate at iteration 18", 18)]


def test_gd_that_leaves_mid_chunk_on_the_counterexample_matches_one_step_chunks(quad_problem):
    # f overflows at steps 324 and 256, inside the first 496-step chunk
    cfgs = [MethodConfig("gd", gamma, 400) for gamma in (8.0, 2.0, 10.0)]
    outcomes = _assert_run_matches_stepwise(cfgs, quad_problem, np.array([1.0]))
    assert [o if o == "ok" else o[1] for o in outcomes] == [324, "ok", 256]


def _corrupt_shifts_at(monkeypatch, at):
    """Make the shift update at its call at move the first node's shift of
    every run without its message reaching the aggregate."""
    real, calls = optimizers._shift_update, []

    def corrupted(*args, **kwargs):
        v, messages, active = real(*args, **kwargs)
        if len(calls) == at:
            v[..., 0, :] += 1e-3 * np.maximum(np.abs(v[..., 0, :]), 1.0)
        calls.append(at)
        return v, messages, active

    monkeypatch.setattr(optimizers, "_shift_update", corrupted)
    return calls


def _drift_message(call, *args, **kwargs):
    try:
        call(*args, **kwargs)
    except InvariantError as error:
        return str(error)
    return None


@pytest.mark.filterwarnings("ignore:privacy calibration")
@pytest.mark.parametrize("lone", [True, False], ids=["lone", "batch"])
@pytest.mark.parametrize("method", ["clip21_avg", "clip21_gd", "dp_clip21_gd", "press_clip21_gd"])
def test_drift_inside_a_chunk_raises_as_one_step_chunks_do(logistic_problem, logistic_x0, monkeypatch, method, lone):
    # step 30 lies inside the first chunk of a lone run and of three
    L = logistic_problem.smoothness().L
    cfgs = _configs(method, [m / L for m in (0.5, 2.0, 8.0)], 100, lone)
    calls = _corrupt_shifts_at(monkeypatch, 30)
    message = _drift_message(run, cfgs, logistic_problem, logistic_x0)
    calls.clear()
    assert message == _drift_message(_stepwise, cfgs, logistic_problem, logistic_x0)
    assert message.startswith("aggregate shift drifted from direct average by ") and message.endswith(" at step 30")


def _chunk_steps(problem, runs):
    # the steps of run's first chunk, from its budget of buffer elements
    return optimizers._CHUNK_BUDGET // (runs * (4 * problem.d + 3 * problem.n + 1))


@pytest.mark.filterwarnings("ignore:privacy calibration")
@pytest.mark.parametrize("lone", [True, False], ids=["lone", "batch"])
@pytest.mark.parametrize("method", ["clip21_avg", "clip21_gd", "dp_clip21_gd", "press_clip21_gd"])
def test_drift_in_a_later_chunk_raises_as_one_step_chunks_do(logistic_problem, logistic_x0, monkeypatch, method, lone):
    # the corrupted step lies 11 steps into the second chunk, whose buffers
    # the first chunk made
    L = logistic_problem.smoothness().L
    cfgs = _configs(method, [m / L for m in (0.5, 2.0, 8.0)], 400, lone)
    at = _chunk_steps(logistic_problem, len(cfgs)) + 11
    calls = _corrupt_shifts_at(monkeypatch, at)
    message = _drift_message(run, cfgs, logistic_problem, logistic_x0)
    calls.clear()
    assert message == _drift_message(_stepwise, cfgs, logistic_problem, logistic_x0)
    assert message.startswith("aggregate shift drifted from direct average by ") and message.endswith(f" at step {at}")


def test_gd_that_leaves_in_a_later_chunk_on_the_counterexample_matches_one_step_chunks(quad_problem):
    # gd maps x to (1 - gamma/2) x: gamma 5.62 and 5.7 overflow f after about
    # 600 and 560 steps, inside a chunk after the first of three runs
    cfgs = [MethodConfig("gd", gamma, 800) for gamma in (5.62, 2.0, 5.7)]
    outcomes = _assert_run_matches_stepwise(cfgs, quad_problem, np.array([1.0]))
    chunk = _chunk_steps(quad_problem, len(cfgs))
    assert outcomes[1] == "ok"
    assert all(step > chunk for _, step in (outcomes[0], outcomes[2]))


@pytest.mark.parametrize("lone", [True, False], ids=["lone", "batch"])
@pytest.mark.parametrize(
    "a, at, checked",
    # run 0's x_18 is not finite (a = 1), so it leaves before step 18's
    # check; its f at step 3 is not (a = 8), and it leaves after step 3's
    [(1.0, 17, True), (1.0, 18, False), (8.0, 3, True), (8.0, 4, False)],
)
def test_drift_check_skips_only_the_runs_that_have_left(monkeypatch, lone, a, at, checked):
    cfgs = _configs("clip21_gd", (1e157, 1e154, 2.5e156), 300, lone, tau=5.0)
    problem, x0 = _line(a), np.array([-10.0])
    calls = _corrupt_shifts_at(monkeypatch, at)
    message = _drift_message(run, cfgs, problem, x0, v0=_FAR_SHIFTS)
    calls.clear()
    assert message == _drift_message(_stepwise, cfgs, problem, x0, v0=_FAR_SHIFTS)
    # in the batch the other two runs are still there to raise
    assert message is None if lone and not checked else message.endswith(f" at step {at}")


# shift rows whose squares overflow: mean 0 on the counterexample, so x
# stays where it is until a row moves without its message
_HUGE_SHIFTS = np.array([[1e307], [-1e307]])


def test_start_shifts_whose_squares_overflow_warn_nothing(quad_problem):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = Batch([MethodConfig("clip21_gd", 0.1, 10, tau=1.0)], quad_problem, np.array([1.0]), -_HUGE_SHIFTS)
    assert batch.drift_scale == 1e307


@pytest.mark.parametrize("lone", [True, False], ids=["lone", "batch"])
def test_drift_of_shift_rows_whose_squares_overflow_raises(quad_problem, monkeypatch, lone):
    # the first node's shift moves by 1e304 at step 3 and x by about 5e302,
    # so f overflows from step 4 on
    cfgs = _configs("clip21_gd", (0.1, 0.2), 40, lone, tau=1.0)
    calls = _corrupt_shifts_at(monkeypatch, 3)
    message = _drift_message(run, cfgs, quad_problem, np.array([1.0]), v0=_HUGE_SHIFTS)
    calls.clear()
    assert message == _drift_message(_stepwise, cfgs, quad_problem, np.array([1.0]), v0=_HUGE_SHIFTS)
    assert message == "aggregate shift drifted from direct average by 5.000e+303 at step 3"


@pytest.mark.parametrize("lone", [True, False], ids=["lone", "batch"])
def test_drift_of_shift_rows_whose_squares_overflow_raises_late_in_a_run(quad_problem, monkeypatch, lone):
    # the running sum of 1e307 root-mean-square shift rows passes the float64
    # range after about 18 steps; the allowance is then carried 2^-64 lower,
    # so the same move as at step 3 still raises at step 30
    cfgs = _configs("clip21_gd", (0.1, 0.2), 40, lone, tau=1.0)
    calls = _corrupt_shifts_at(monkeypatch, 30)
    message = _drift_message(run, cfgs, quad_problem, np.array([1.0]), v0=_HUGE_SHIFTS)
    calls.clear()
    assert message == _drift_message(_stepwise, cfgs, quad_problem, np.array([1.0]), v0=_HUGE_SHIFTS)
    assert message == "aggregate shift drifted from direct average by 5.000e+303 at step 30"


@pytest.mark.parametrize("lone", [True, False], ids=["lone", "batch"])
def test_rounding_of_shift_rows_whose_squares_overflow_passes_the_drift_check(lone):
    # targets of norm near 1e158 that cancel in the mean, so ||grad f||^2
    # stays finite, and start shifts 1e150 off them: clip21_avg moves each
    # shift by 1e149 a step, rounding at 1e158 until it lands
    rng = np.random.default_rng(158)
    half = 1e158 * rng.standard_normal((2, 3))
    a = np.vstack([half, -half])
    cfgs = _configs("clip21_avg", (0.0, 0.0), 60, lone, tau=1e149)
    finals, trace = run(cfgs, targets_problem(a), np.zeros(3), v0=a + 1e150 * rng.standard_normal((4, 3)))
    assert len(trace) == 60 * len(cfgs)
    assert all(np.array_equal(final.v, a) for final in finals)


@pytest.mark.filterwarnings("ignore:privacy calibration")
@pytest.mark.parametrize("lone", [True, False], ids=["lone", "batch"])
@pytest.mark.parametrize("method", ["clip_gd", "clip21_gd", "dp_clip21_gd", "press_clip21_gd"])
def test_nothing_handed_out_aliases_a_reused_buffer(logistic_problem, logistic_x0, method, lone):
    # a step writes into buffers the batch keeps and reuses: the mask step()
    # returns, batch.x, batch.v and batch.active after it, and a state's
    # arrays keep their bytes through later steps and chunks
    L = logistic_problem.smoothness().L
    batch = Batch(_configs(method, [m / L for m in (0.5, 2.0, 8.0)], 100, lone), logistic_problem, logistic_x0)
    held, snapshots = [], []
    for steps in (1, 1, 7, 1, 24, 1):
        if steps == 1:
            mask = step(batch)[4]
            held += [mask, batch.x, batch.v, batch.active]
        else:
            optimizers._settle(batch, *optimizers._advance(batch, steps)[:-1])
        state = batch.state(0)
        held += [state.x, state.v, state.v_bar, state.active]
        assert [a.tobytes() for a in held[: len(snapshots)]] == snapshots
        snapshots = [a.tobytes() for a in held]
    assert batch.x.tobytes() != held[1].tobytes()


@pytest.mark.filterwarnings("ignore:privacy calibration")
@pytest.mark.parametrize("method", _ALL)
def test_a_lone_run_is_a_batch_of_one(logistic_problem, logistic_x0, method):
    # one shape for every run count: a lone batch holds one row of each
    # array, step returns one entry per run, and state hands out the run's own
    n, d = logistic_problem.n, logistic_problem.d
    batch = Batch(_configs(method, [0.1], 10, True), logistic_problem, logistic_x0)
    assert [a.shape for a in (batch.x, batch.v, batch.v_bar, batch.active, batch.gamma)] == [
        (1, d), (1, n, d), (1, d), (1, n), (1, 1)
    ]
    returned = step(batch)
    assert [a.shape for a in returned] == [(1,)] * 4 + [(1, n)]
    assert not any(np.shares_memory(a, buffer) for a in returned for buffer in batch.buffers)
    state = batch.state(0)
    assert [a.shape for a in (state.x, state.v, state.v_bar, state.active)] == [(d,), (n, d), (d,), (n,)]


@pytest.mark.filterwarnings("ignore:privacy calibration")
@pytest.mark.parametrize("lone", [True, False], ids=["lone", "batch"])
@pytest.mark.parametrize("method", ["clip21_gd", "dp_clip21_gd", "press_clip21_gd"])
def test_a_chunk_of_steps_allocates_no_array_of_the_batch_size(monkeypatch, method, lone):
    # 40 nodes of 60 features and 3 runs, or a lone run: one (R, n, d) float64
    # array is 56 KiB, or 18.75 KiB. After a warm chunk, which makes the chunk
    # buffers, the row buffers and one noise chunk for both chunks, a chunk of
    # steps writes into buffers and leaves only small or boolean arrays; a
    # broadcasting or casting ufunc call would add numpy's own buffer, here as
    # large as one such array. A step of 3 runs that allocated its arrays
    # peaked at 404 KiB
    R, n, d = 1 if lone else 3, 40, 60
    rng = np.random.default_rng(4060)
    shards = [(rng.standard_normal((10, d)), np.where(rng.random(10) < 0.5, 1.0, -1.0)) for _ in range(n)]
    problem = Problem("logistic", stack(shards), reg="l2", lam=1e-3)
    steps = _chunk_steps(problem, R)
    monkeypatch.setattr(optimizers, "_NOISE_BUDGET", 2 * steps * R * n * d)
    batch = Batch(_configs(method, (0.01, 0.02, 0.04), 2 * steps, lone), problem, rng.standard_normal(d))
    optimizers._settle(batch, *optimizers._advance(batch, steps)[:-1])
    tracemalloc.start()
    try:
        optimizers._advance(batch, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < R * n * d * 8, f"peak {peak / 1024:.1f} KiB"
