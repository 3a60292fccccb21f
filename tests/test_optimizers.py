"""Method steps, shift tracking, reductions, and the averaging iteration."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clipshift import (
    Compressor,
    ConfigurationError,
    DivergenceError,
    InvariantError,
    MethodConfig,
    NodeShard,
    Problem,
    clip21_avg_run,
    node_mean,
    run,
)
from clipshift.optimizers import Batch, step


def _cfg(method="clip21_gd", **kw):
    base = dict(gamma=0.01, iters=10, tau=1.0)
    base.update(kw)
    return MethodConfig(method=method, **base)


def test_method_config_validation():
    with pytest.raises(ConfigurationError):
        _cfg(gamma=0.0)
    with pytest.raises(ConfigurationError):
        _cfg(gamma=float("inf"))
    with pytest.raises(ConfigurationError):
        _cfg(iters=0)
    with pytest.raises(ConfigurationError):
        _cfg(tau=None)  # clip methods need a threshold
    with pytest.raises(ConfigurationError):
        _cfg(tau=-2.0)
    MethodConfig(method="gd", gamma=0.1, iters=5)  # gd alone needs no tau
    with pytest.raises(ConfigurationError):
        _cfg(method="dp_clip21_gd", sigma=0.1)  # missing nu
    with pytest.raises(ConfigurationError):
        _cfg(method="press_clip21_gd")  # missing compressor
    with pytest.raises(ConfigurationError):
        _cfg(method="newton")
    with pytest.raises(ConfigurationError):
        _cfg(seed=-1)


def test_privacy_calibration_warning():
    with pytest.warns(UserWarning, match="privacy calibration") as caught:
        _cfg(method="dp_clip21_gd", tau=1.0, sigma=0.5, nu=0.5)
    # attributed to the code that built the config, not to the dataclass's
    # generated __init__
    assert caught[0].filename == __file__
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _cfg(method="dp_clip21_gd", tau=6.0, sigma=0.5, nu=1.0)


def test_gd_contraction_on_counterexample(quad_problem):
    # mean gradient is x/2 for curvatures (2, 1), so the map is x -> (1 - gamma/2) x
    cfg = MethodConfig(method="gd", gamma=0.5, iters=8)
    [state], records = run([cfg], quad_problem, np.array([1.0]))
    assert state.x[0] == pytest.approx(0.75**8, rel=1e-15)
    fs = [r.f for r in records]
    assert fs[0] == 0.25
    assert all(a > b for a, b in zip(fs, fs[1:]))
    assert all(r.active_nodes == 0 for r in records)


def test_clip_gd_sticks_at_the_bad_point(quad_problem):
    # at x=1 with tau=1 the clipped gradients cancel exactly
    cfg = _cfg(method="clip_gd", gamma=0.3, iters=50)
    [state], records = run([cfg], quad_problem, np.array([1.0]))
    assert state.x[0] == 1.0  # bit-identical, not just close
    assert all(r.f == 0.25 for r in records)
    assert all(r.active_nodes == 1 for r in records)
    assert all(r.v_norm == 0.0 for r in records)


def test_clip21_escapes_the_bad_point(quad_problem):
    gamma = 0.011747606429224308
    cfg = _cfg(gamma=gamma, iters=3)
    [state], records = run([cfg], quad_problem, np.array([1.0]))
    # step 0: node gradients (2, -1); only the first clips
    assert records[0].active_nodes == 1
    assert records[0].v_norm == 0.0  # messages 1 and -1 cancel
    assert records[1].f == 0.25  # x_1 is still exactly 1
    # step 1: residual 1 fits the ball, the shift lands on 2 exactly
    assert records[1].active_nodes == 0
    assert records[1].v_norm == 0.5
    # two shifted steps move x: x_2 = 1 - gamma * 0.5, x_3 = x_2 - gamma * x_2/2
    x2 = 1.0 - gamma * 0.5
    assert state.x[0] == pytest.approx(x2 * (1.0 - gamma / 2.0), rel=1e-15)
    # shifts land exactly on the local gradients at x_2
    assert np.array_equal(state.v[:, 0], np.array([2.0, -1.0]) * x2)


def test_shift_lands_on_gradient_bitwise(quad_problem):
    cfg = _cfg(gamma=0.005, iters=6)
    batch = Batch([cfg], quad_problem, np.array([1.0]))
    for _ in range(cfg.iters):
        step(batch)
    grads = quad_problem.evaluate(batch.x)[1]
    # once no clip is active the shifts must equal the local gradients
    # from the step that produced them; re-deriving them at the final x
    # after one more step keeps them exact as well
    active = step(batch)[4]
    assert not np.count_nonzero(active)
    assert np.array_equal(batch.v, grads)


def test_aggregate_tracks_direct_mean(logistic_problem, logistic_x0):
    cfg = _cfg(gamma=0.05, tau=0.2, iters=120)
    [state], _ = run([cfg], logistic_problem, logistic_x0)
    assert np.linalg.norm(state.v_bar - state.v.mean(axis=0)) <= 1e-12


def test_deactivation_is_permanent_at_theory_stepsize(quad_problem):
    from clipshift import StepsizeInputs, stepsize_multi

    norms = tuple(float(abs(g)) for g in (2.0, 1.0))
    inputs = StepsizeInputs(L=1.0, L_max=2.0, tau=1.0, grad0_norms=norms, F0=0.25)
    cfg = _cfg(gamma=stepsize_multi(inputs), iters=400)
    _, records = run([cfg], quad_problem, np.array([1.0]))
    last_active = max((r.k for r in records if r.active_nodes), default=-1)
    assert last_active >= 0
    assert all(r.active_nodes == 0 for r in records if r.k > last_active)


def test_huge_threshold_reduces_to_gd(logistic_problem, logistic_x0):
    shared = dict(gamma=0.4, iters=200)
    _, plain = run([MethodConfig(method="gd", **shared)], logistic_problem, logistic_x0)
    _, shifted = run(
        [MethodConfig(method="clip21_gd", tau=1e12, **shared)], logistic_problem, logistic_x0
    )
    for a, b in zip(plain, shifted):
        assert a.f == b.f  # identical trajectories step for step


def test_zero_noise_reduces_to_clip21(logistic_problem, logistic_x0):
    shared = dict(gamma=0.3, tau=0.15, iters=150)
    _, base = run([MethodConfig(method="clip21_gd", **shared)], logistic_problem, logistic_x0)
    _, dp = run(
        [MethodConfig(method="dp_clip21_gd", sigma=0.0, nu=0.02, **shared)],
        logistic_problem,
        logistic_x0,
    )
    _, press = run(
        [MethodConfig(method="press_clip21_gd", compressor=Compressor("identity"), **shared)],
        logistic_problem,
        logistic_x0,
    )
    for a, b, c in zip(base, dp, press):
        assert a.f == b.f == c.f
        assert a.grad_norm_sq == b.grad_norm_sq == c.grad_norm_sq
        assert a.active_nodes == b.active_nodes == c.active_nodes


@pytest.mark.filterwarnings("ignore:privacy calibration")
def test_dp_noise_is_seed_deterministic(logistic_problem, logistic_x0):
    shared = dict(gamma=0.2, tau=0.15, iters=40, sigma=0.05, nu=0.2)
    _, first = run(
        [MethodConfig(method="dp_clip21_gd", seed=9, **shared)], logistic_problem, logistic_x0
    )
    _, second = run(
        [MethodConfig(method="dp_clip21_gd", seed=9, **shared)], logistic_problem, logistic_x0
    )
    _, other = run(
        [MethodConfig(method="dp_clip21_gd", seed=10, **shared)], logistic_problem, logistic_x0
    )
    assert [r.f for r in first] == [r.f for r in second]
    assert [r.f for r in first] != [r.f for r in other]


def test_compression_changes_but_tracks(logistic_problem, logistic_x0):
    shared = dict(gamma=0.2, tau=0.15, iters=300)
    _, base = run([MethodConfig(method="clip21_gd", **shared)], logistic_problem, logistic_x0)
    _, press = run(
        [
            MethodConfig(
                method="press_clip21_gd",
                compressor=Compressor("top_k", logistic_problem.d - 2),
                **shared,
            )
        ],
        logistic_problem,
        logistic_x0,
    )
    assert [r.f for r in base] != [r.f for r in press]
    # mild compression still reaches a comparable objective level
    assert press[-1].f <= base[0].f


def test_divergence_returns_error_with_step_index(quad_problem):
    cfg = MethodConfig(method="gd", gamma=10.0, iters=5000)
    [err], records = run([cfg], quad_problem, np.array([1.0]))
    assert isinstance(err, DivergenceError)
    assert err.step > 0
    assert "iteration" in str(err)
    assert len(records) == err.step


def test_run_rejects_misuse(quad_problem):
    with pytest.raises(ConfigurationError):
        run([_cfg(method="clip21_avg")], quad_problem, np.array([1.0]))
    with pytest.raises(ConfigurationError):
        run([_cfg()], quad_problem, np.array([1.0, 2.0]))  # wrong dimension
    bad = MethodConfig(
        method="press_clip21_gd",
        gamma=0.1,
        iters=3,
        tau=1.0,
        compressor=Compressor("top_k", 5),
    )
    with pytest.raises(ConfigurationError):
        run([bad], quad_problem, np.array([1.0]))  # k exceeds dimension


def test_records_order(quad_problem):
    cfg = _cfg(iters=7)
    [state], records = run([cfg], quad_problem, np.array([1.0]))
    assert [r.k for r in records] == list(range(7))
    assert all(r.run == 0 for r in records)
    assert state.k == 7
    assert all(r.wall_micros >= 0 for r in records)
    assert all(r.gamma == cfg.gamma for r in records)


def test_lyapunov_column_uses_coefficient(quad_problem):
    cfg = _cfg(iters=2)
    _, plain = run([cfg], quad_problem, np.array([1.0]), lyapunov_coeffs=[0.0])
    _, weighted = run([cfg], quad_problem, np.array([1.0]), lyapunov_coeffs=[0.5], f_inf=0.0)
    assert plain[0].lyapunov == plain[0].f
    # at step 0 the shifts are (1, -1) against gradients (2, -1)
    assert weighted[0].lyapunov == pytest.approx(0.25 + 0.5 * 0.5)


def _avg_trace(a, tau, **kwargs):
    """Each step's shift rows and clip mask, as the hook sees them."""
    trace = []
    final = clip21_avg_run(a, tau, hook=lambda v, active: trace.append((v, active)), **kwargs)
    assert np.array_equal(final, trace[-1][0])
    return trace


def test_avg_hand_trace_single_node():
    trace = _avg_trace(np.array([[5.0]]), 1.0, iters=6)
    values = [float(v[0, 0]) for v, _ in trace]
    assert values == [1.0, 2.0, 3.0, 4.0, 5.0, 5.0]
    aggregates = [float(node_mean(v)[0]) for v, _ in trace]
    assert aggregates == values
    # the residual 1 at step 4 sits on the ball and is not clipped
    assert [bool(active[0]) for _, active in trace] == [True] * 4 + [False] * 2


def test_avg_respects_v_init():
    trace = _avg_trace(np.array([[5.0]]), 1.0, v_init=np.array([[3.5]]), iters=3)
    values = [float(v[0, 0]) for v, _ in trace]
    assert values == [4.5, 5.0, 5.0]


def test_avg_contraction_bound_random():
    rng = np.random.default_rng(1234)
    a = rng.standard_normal((6, 9)) * 3.0
    tau = 0.7
    trace = _avg_trace(a, tau, iters=30)
    for k, (v, _) in enumerate(trace):
        for i in range(a.shape[0]):
            gap = float(np.linalg.norm(v[i] - a[i]))
            allowed = max(0.0, float(np.linalg.norm(a[i])) - (k + 1) * tau)
            assert gap <= allowed + 1e-12


def test_avg_exact_recovery_once_inside_ball():
    a = np.array([[0.3, -0.4]])
    final = clip21_avg_run(a, 1.0, iters=1)
    assert np.array_equal(final[0], a[0])


def test_avg_validation():
    with pytest.raises(ConfigurationError):
        clip21_avg_run(np.array([[1.0]]), 0.0)
    with pytest.raises(ConfigurationError):
        clip21_avg_run(np.array([[1.0]]), 1.0, iters=0)
    with pytest.raises(ValueError):
        clip21_avg_run(np.array([[1.0]]), 1.0, v_init=np.array([[1.0, 2.0]]))


def _large_scale_linreg(seed):
    # regression targets of scale 1e6, where an absolute drift tolerance
    # mistook the rounding of the running aggregate for a broken invariant
    rng = np.random.default_rng(seed)
    shards = [NodeShard(i, rng.standard_normal((20, 5)), 1e6 * rng.standard_normal(20)) for i in range(4)]
    return Problem("linreg_nonconvex", shards=shards, reg="l2", lam=0.0)


@pytest.mark.parametrize("tau", [1e3, 1e5, 1e7])
def test_shift_drift_check_is_relative_to_scale(tau):
    for seed in range(5):
        problem = _large_scale_linreg(seed)
        _, records = run([_cfg(gamma=1e-3, tau=tau, iters=50)], problem, np.zeros(5))
        assert len(records) == 50


def test_real_shift_drift_raises_invariant_error():
    problem = _large_scale_linreg(0)
    cfg = _cfg(gamma=1e-3, tau=1e5, iters=1)
    batch = Batch([cfg], problem, np.zeros(5))
    step(batch)
    # a shift row changed without its message reaching the aggregate
    batch.v[2, 0] += 1e-3 * np.abs(batch.v).max()
    with pytest.raises(InvariantError, match="drifted"):
        step(batch)


@pytest.mark.parametrize("x0", [1.7, 1.0])
def test_converging_run_passes_the_shift_drift_check(quad_problem, x0):
    # the aggregate took its rounding while the shifts were large; once they
    # have shrunk, an allowance at their current scale called it a drift
    # (at step 188 from 1.7, 203 from 1.0)
    _, records = run([_cfg(gamma=0.1, tau=0.3, iters=400)], quad_problem, np.array([x0]))
    assert len(records) == 400
    assert records[-1].grad_norm_sq < 1e-16


@given(j=st.integers(-8, 8))
@settings(max_examples=17, deadline=None)
def test_avg_is_scale_equivariant(j):
    # scaling by a power of two is exact, so targets, tau and v_init scaled
    # by c scale every shift by c bit for bit and leave the clip masks alone
    c = 2.0**j
    rng = np.random.default_rng(31)
    a, v_init, tau = 3.0 * rng.standard_normal((5, 4)), rng.standard_normal((5, 4)), 0.4
    base = _avg_trace(a, tau, v_init=v_init, iters=25)
    scaled = _avg_trace(c * a, c * tau, v_init=c * v_init, iters=25)
    for (v, active), (v_c, active_c) in zip(base, scaled):
        assert np.array_equal(v_c, c * v)
        assert np.array_equal(active_c, active)


_EQUIVARIANT = {
    "gd": {},
    "clip_gd": dict(tau=0.3),
    "clip21_gd": dict(tau=0.3),
    "dp_clip21_gd": dict(tau=0.3, sigma=0.04, nu=0.04),
}


def _counterexample_trace(method, x0, c):
    scales = {k: c * v for k, v in _EQUIVARIANT[method].items()}
    cfg = MethodConfig(method=method, gamma=0.1, iters=250, seed=4, **scales)
    return run([cfg], Problem("quad_counterexample"), np.array([c * x0]))[1]


@functools.lru_cache(maxsize=None)
def _unscaled_trace(method, x0):
    return _counterexample_trace(method, x0, 1.0)


@given(j=st.integers(-8, 8), x0=st.sampled_from([1.7, 1.0, -0.6]))
@settings(max_examples=20, deadline=None)
def test_counterexample_runs_are_scale_equivariant(j, x0):
    # the quadratic's gradients are linear in x, so x0, tau, sigma and nu
    # scaled by c = 2^j scale f and grad_norm_sq by c^2 and v_norm by c;
    # 250 steps run past step 188, where the drift check once misfired
    c = 2.0**j
    for method in _EQUIVARIANT:
        scaled = _counterexample_trace(method, x0, c)
        for r, r_c in zip(_unscaled_trace(method, x0), scaled, strict=True):
            assert r_c.f == c * c * r.f, (method, r.k)
            assert r_c.grad_norm_sq == c * c * r.grad_norm_sq, (method, r.k)
            assert r_c.v_norm == c * r.v_norm, (method, r.k)
            assert r_c.active_nodes == r.active_nodes, (method, r.k)
