"""A batch of runs steps as one: each run is bit-identical to its solo run."""

import numpy as np
import pytest

from clipshift import Compressor, ConfigurationError, DivergenceError, InvariantError, MethodConfig, run
from clipshift.optimizers import Batch, step


def _solo(cfg, problem, x0, coeff=0.0):
    [final], records = run([cfg], problem, x0, f_inf=0.1, lyapunov_coeffs=[coeff])
    return final, records


def _strip(record):
    # every field but the timing, which no two runs share
    return record._replace(wall_micros=0, run=0)


def _assert_batch_matches_solo(cfgs, problem, x0, coeffs=None):
    coeffs = coeffs or [0.0] * len(cfgs)
    finals, records = run(cfgs, problem, x0, f_inf=0.1, lyapunov_coeffs=coeffs)
    assert len(finals) == len(cfgs)
    for r, (cfg, final, coeff) in enumerate(zip(cfgs, finals, coeffs)):
        solo_final, solo_records = _solo(cfg, problem, x0, coeff)
        mine = [rec for rec in records if rec.run == r]
        assert [_strip(rec) for rec in mine] == [_strip(rec) for rec in solo_records], r
        if isinstance(solo_final, DivergenceError):
            assert isinstance(final, DivergenceError)
            assert (str(final), final.step) == (str(solo_final), solo_final.step)
        else:
            assert final.x.tobytes() == solo_final.x.tobytes(), r
            assert final.v.tobytes() == solo_final.v.tobytes(), r
            assert final.v_bar.tobytes() == solo_final.v_bar.tobytes(), r
    return finals, records


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
    finals, records = _assert_batch_matches_solo(cfgs, quad_problem, np.array([1.0]))
    assert [type(f).__name__ for f in finals] == ["OptimizerState", "DivergenceError"] * 2 + ["OptimizerState"]
    assert (finals[1].step, finals[3].step) == (324, 256)
    per_run = [sum(1 for rec in records if rec.run == r) for r in range(len(cfgs))]
    assert per_run == [400, 324, 400, 256, 400]
    # one record per run-step executed, in step order, then config order
    assert len(records) == sum(per_run)
    assert [(rec.k, rec.run) for rec in records] == sorted((rec.k, rec.run) for rec in records)


def test_every_run_diverging_ends_the_batch(quad_problem):
    cfgs = [MethodConfig("gd", g, 5000) for g in (8.0, 10.0)]
    finals, records = run(cfgs, quad_problem, np.array([1.0]))
    assert all(isinstance(f, DivergenceError) for f in finals)
    assert len(records) == 324 + 256


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
