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
    Problem,
    node_mean,
    run,
)
from clipshift.data import stack
from clipshift.optimizers import Batch, step
from fixed_targets import avg_config, avg_trace, targets_problem


def _cfg(method="clip21_gd", **kw):
    base = dict(gamma=0.01, iters=10, tau=1.0)
    base.update(kw)
    return MethodConfig(method=method, **base)


def test_method_config_validation():
    with pytest.raises(ConfigurationError):
        _cfg(gamma=0.0)
    for gamma in (0.01, -0.01, float("nan")):  # clip21_avg steps at gamma 0 alone
        with pytest.raises(ConfigurationError, match="clip21_avg steps with gamma 0"):
            _cfg(method="clip21_avg", gamma=gamma)
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
    [state], trace = run([cfg], quad_problem, np.array([1.0]))
    assert state.x[0] == pytest.approx(0.75**8, rel=1e-15)
    fs = trace.f
    assert fs[0] == 0.25
    assert (fs[:-1] > fs[1:]).all()
    assert (trace.active_nodes == 0).all()


def test_clip_gd_sticks_at_the_bad_point(quad_problem):
    # at x=1 with tau=1 the clipped gradients cancel exactly
    cfg = _cfg(method="clip_gd", gamma=0.3, iters=50)
    [state], trace = run([cfg], quad_problem, np.array([1.0]))
    assert state.x[0] == 1.0  # bit-identical, not just close
    assert (trace.f == 0.25).all()
    assert (trace.active_nodes == 1).all()
    assert (trace.v_norm == 0.0).all()


def test_clip21_escapes_the_bad_point(quad_problem):
    gamma = 0.011747606429224308
    cfg = _cfg(gamma=gamma, iters=3)
    [state], trace = run([cfg], quad_problem, np.array([1.0]))
    # step 0: node gradients (2, -1); only the first clips
    assert trace.active_nodes[0] == 1
    assert trace.v_norm[0] == 0.0  # messages 1 and -1 cancel
    assert trace.f[1] == 0.25  # x_1 is still exactly 1
    # step 1: residual 1 fits the ball, the shift lands on 2 exactly
    assert trace.active_nodes[1] == 0
    assert trace.v_norm[1] == 0.5
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
    _, trace = run([cfg], quad_problem, np.array([1.0]))
    last_active = trace.k[trace.active_nodes > 0].max(initial=-1)
    assert last_active >= 0
    assert (trace.active_nodes[trace.k > last_active] == 0).all()


def test_huge_threshold_reduces_to_gd(logistic_problem, logistic_x0):
    shared = dict(gamma=0.4, iters=200)
    _, plain = run([MethodConfig(method="gd", **shared)], logistic_problem, logistic_x0)
    _, shifted = run(
        [MethodConfig(method="clip21_gd", tau=1e12, **shared)], logistic_problem, logistic_x0
    )
    assert plain.f.tolist() == shifted.f.tolist()  # identical trajectories step for step


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
    for name in ("f", "grad_norm_sq", "active_nodes"):
        assert base[name].tolist() == dp[name].tolist() == press[name].tolist(), name


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
    assert first.f.tolist() == second.f.tolist()
    assert first.f.tolist() != other.f.tolist()


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
    assert base.f.tolist() != press.f.tolist()
    # mild compression still reaches a comparable objective level
    assert press.f[-1] <= base.f[0]


def test_divergence_returns_error_with_step_index(quad_problem):
    cfg = MethodConfig(method="gd", gamma=10.0, iters=5000)
    [err], trace = run([cfg], quad_problem, np.array([1.0]))
    assert isinstance(err, DivergenceError)
    assert err.step > 0
    assert "iteration" in str(err)
    assert len(trace) == err.step


def test_run_rejects_misuse(quad_problem):
    with pytest.raises(ConfigurationError):
        run([_cfg()], quad_problem, np.array([1.0]), v0=np.zeros((2, 2)))  # wrong shift shape
    with pytest.raises(ConfigurationError):
        run([_cfg()], quad_problem, np.array([1.0]), v0=np.array([[0.0], [np.inf]]))
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


def test_trace_order(quad_problem):
    cfg = _cfg(iters=7)
    [state], trace = run([cfg], quad_problem, np.array([1.0]))
    assert trace.k.tolist() == list(range(7))
    assert (trace.run == 0).all()
    assert state.k == 7
    assert (trace.wall_micros >= 0).all()
    assert (trace.gamma == cfg.gamma).all()


def test_lyapunov_column_uses_coefficient(quad_problem):
    cfg = _cfg(iters=2)
    _, plain = run([cfg], quad_problem, np.array([1.0]), lyapunov_coeffs=[0.0])
    _, weighted = run([cfg], quad_problem, np.array([1.0]), lyapunov_coeffs=[0.5], f_inf=0.0)
    assert plain.lyapunov[0] == plain.f[0]
    # at step 0 the shifts are (1, -1) against gradients (2, -1)
    assert weighted.lyapunov[0] == pytest.approx(0.25 + 0.5 * 0.5)


def _avg_trace(a, tau, iters, v0=None):
    """Each step's shift rows and clip mask; run ends on the last of them,
    with the iterate still at x0 = 0 bit for bit."""
    trace = avg_trace(a, tau, iters, v0)
    [final], _ = run([avg_config(tau, iters)], targets_problem(a), np.zeros(np.shape(a)[1]), v0=v0)
    assert np.array_equal(final.v, trace[-1][0])
    assert final.x.tobytes() == np.zeros(np.shape(a)[1]).tobytes()
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
    trace = _avg_trace(np.array([[5.0]]), 1.0, iters=3, v0=np.array([[3.5]]))
    values = [float(v[0, 0]) for v, _ in trace]
    assert values == [4.5, 5.0, 5.0]


def test_avg_lands_from_far_start_shifts():
    # one step lands every shift from 1e100 on its target; v_bar took that
    # step's rounding at the scale of v0, which the drift check allows for
    a = np.array([[0.3, -0.1], [0.2, 0.4]])
    trace = _avg_trace(a, 1e140, iters=2, v0=np.full((2, 2), 1e100))
    assert all(np.array_equal(v, a) for v, _ in trace)


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
    [final], _ = run([avg_config(1.0, 1)], targets_problem(a), np.zeros(2))
    assert np.array_equal(final.v[0], a[0])


def test_avg_validation():
    with pytest.raises(ConfigurationError):
        avg_config(0.0, 1)
    with pytest.raises(ConfigurationError):
        avg_config(1.0, 0)
    with pytest.raises(ConfigurationError):
        run([avg_config(1.0, 1)], targets_problem([[1.0]]), np.zeros(1), v0=np.array([[1.0, 2.0]]))


def _large_scale_linreg(seed):
    # regression targets of scale 1e6, where an absolute drift tolerance
    # mistook the rounding of the running aggregate for a broken invariant
    rng = np.random.default_rng(seed)
    shards = [(rng.standard_normal((20, 5)), 1e6 * rng.standard_normal(20)) for _ in range(4)]
    return Problem("linreg_nonconvex", stack(shards), reg="l2", lam=0.0)


@pytest.mark.parametrize("tau", [1e3, 1e5, 1e7])
def test_shift_drift_check_is_relative_to_scale(tau):
    for seed in range(5):
        problem = _large_scale_linreg(seed)
        _, trace = run([_cfg(gamma=1e-3, tau=tau, iters=50)], problem, np.zeros(5))
        assert len(trace) == 50


def test_real_shift_drift_raises_invariant_error():
    problem = _large_scale_linreg(0)
    # clip21_avg is the same shift update at gamma 0, so the check covers it too
    for cfg in (_cfg(gamma=1e-3, tau=1e5, iters=1), _cfg(method="clip21_avg", gamma=0.0, tau=1e5, iters=1)):
        batch = Batch([cfg], problem, np.zeros(5))
        step(batch)
        # a shift row changed without its message reaching the aggregate
        batch.v[0, 2, 0] += 1e-3 * np.abs(batch.v).max()
        with pytest.raises(InvariantError, match="drifted"):
            step(batch)


@pytest.mark.parametrize("x0", [1.7, 1.0])
def test_converging_run_passes_the_shift_drift_check(quad_problem, x0):
    # the aggregate took its rounding while the shifts were large; once they
    # have shrunk, an allowance at their current scale called it a drift
    # (at step 188 from 1.7, 203 from 1.0)
    _, trace = run([_cfg(gamma=0.1, tau=0.3, iters=400)], quad_problem, np.array([x0]))
    assert len(trace) == 400
    assert trace.grad_norm_sq[-1] < 1e-16


@given(j=st.integers(-8, 8))
@settings(max_examples=17, deadline=None)
def test_avg_is_scale_equivariant(j):
    # scaling by a power of two is exact, so targets, tau and v_init scaled
    # by c scale every shift by c bit for bit and leave the clip masks alone
    c = 2.0**j
    rng = np.random.default_rng(31)
    a, v_init, tau = 3.0 * rng.standard_normal((5, 4)), rng.standard_normal((5, 4)), 0.4
    base = _avg_trace(a, tau, 25, v_init)
    scaled = _avg_trace(c * a, c * tau, 25, c * v_init)
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
        base, scaled = _unscaled_trace(method, x0), _counterexample_trace(method, x0, c)
        assert len(scaled) == len(base), method
        for name, got, want in (
            ("f", scaled.f, c * c * base.f),
            ("grad_norm_sq", scaled.grad_norm_sq, c * c * base.grad_norm_sq),
            ("v_norm", scaled.v_norm, c * base.v_norm),
            ("active_nodes", scaled.active_nodes, base.active_nodes),
        ):
            assert np.array_equal(got, want), (method, name, base.k[got != want][:1])
