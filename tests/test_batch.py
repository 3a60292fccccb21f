"""A batch of runs steps as one: each run is bit-identical to its solo run."""

import tracemalloc

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
from clipshift.data import node_block, read_libsvm, stack
from clipshift.ops import clip_rows
from clipshift.optimizers import Batch, step
from clipshift.problems import Problem
from clipshift.rng import stream_slot
from conftest import WIDE_NODES, make_wide_sparse_text


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
    problem = Problem("logistic", block=node_block(read_libsvm(make_wide_sparse_text()), WIDE_NODES), lam=1e-4)
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

    if not batch.lead:
        return one(cfg.seed, cfg.sigma)
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
        # a sigma sweep on one seed shares one unit chunk; sigma 0 draws nothing
        ("dp_clip21_gd", 100, [(0.02, 3), (0.0, 3), (0.01, 3), (0.04, 3)], [81, 19]),
        # two seed groups split the budget: 16384 // 400 = 40
        ("dp_clip21_gd", 90, [(0.02, 3), (0.01, 4), (0.03, 3)], [40, 40, 40, 40, 10, 10]),
        ("dp_clip_gd", 300, [(0.02, 3), (0.0, 5), (0.01, 4)], [300, 300]),
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
