"""Acceptance gate: ten end-to-end checks at fixed tolerances.

Each criterion is one test, so a verbose run prints one pass/fail line
per criterion. Fixtures are seeded and deterministic; runtime limits
are asserted alongside the mathematical claims.
"""

import math
import random
import time

import numpy as np
import pytest

import oracle_bounds as oracle
from clipshift import (
    Compressor,
    MethodConfig,
    Problem,
    StepsizeInputs,
    certified_stepsize,
    clip,
    compress,
    dp_utility_bound,
    eta_of,
    k_star,
    lyapunov_weight,
    node_mean,
    rate_envelope,
    run,
    sigma_min,
    stepsize_branches,
    stepsize_multi,
)
from clipshift.data import stack
from clipshift.errors import DivergenceError
from clipshift.optimizers import Batch, step
from fixed_targets import avg_trace


def _final_grad_sq(problem, state):
    g = node_mean(problem.evaluate(state.x)[1])
    return float(g @ g)


def _multi_inputs(problem, x0, f_inf, tau):
    info = problem.smoothness()
    f0, grads = problem.evaluate(x0)
    norms = tuple(float(np.linalg.norm(g)) for g in grads)
    F0 = max(0.0, f0 - f_inf)
    return StepsizeInputs(L=info.L, L_max=info.L_max, tau=tau, grad0_norms=norms, F0=F0)


def test_criterion_01_averaging_contraction_and_recovery():
    started = time.perf_counter()
    rng = np.random.default_rng(4101)
    for _ in range(50):
        n = int(rng.choice([1, 5, 20]))
        tau = float(rng.choice([0.1, 0.5, 2.0]))
        directions = rng.standard_normal((n, 16))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = rng.uniform(0.05, 10.0, size=n)
        a = directions * radii[:, None]
        horizon = max(
            max(0, int(np.ceil(np.linalg.norm(a[i]) / tau - 1.0))) for i in range(n)
        )
        shifts = [v for v, _active in avg_trace(a, tau, horizon + 1)]
        for k, v in enumerate(shifts):
            gaps = np.linalg.norm(v - a, axis=1)
            allowed = np.maximum(0.0, np.linalg.norm(a, axis=1) - (k + 1) * tau)
            assert (gaps <= allowed + 1e-12).all()
        assert np.abs(shifts[horizon] - a).max() <= 1e-12
    assert time.perf_counter() - started < 1.0


def test_criterion_02_stuck_point_escape():
    started = time.perf_counter()
    problem = Problem("quad_counterexample")  # curvatures (2, 1)
    tau = 1.0
    x0 = np.array([1.0])

    # clipped GD without shifts freezes: the clipped node gradients are
    # exactly +1 and -1, so the update direction is exactly zero
    cfg = MethodConfig(method="clip_gd", gamma=0.05, iters=10_000, tau=tau)
    batch = Batch([cfg], problem, x0)
    for _ in range(cfg.iters):
        step(batch)
        assert batch.x[0] == 1.0  # bit-identical every step

    inputs = StepsizeInputs(L=1.0, L_max=2.0, tau=tau, grad0_norms=(2.0, 1.0), F0=0.25)
    branches, binding = stepsize_branches("clip21_gd", inputs)
    gamma = branches[binding]
    # no node clips from step k* on (criterion 04), and from there the
    # shifted method is exactly GD on f = x^2/4, which shrinks the squared
    # gradient norm, 0.25 at the start, by (1 - gamma/2)^2 per step; the
    # step budget is the horizon plus the steps that contraction needs
    target = 1e-16
    horizon = max(k_star(g, tau) for g in inputs.grad0_norms)
    rate = 1.0 - gamma / 2.0
    budget = horizon + math.ceil(math.log(0.25 / target) / (-2.0 * math.log(rate)))
    bound = 0.25 * rate ** (2 * (budget - horizon))
    shifted = MethodConfig(method="clip21_gd", gamma=gamma, iters=budget, tau=tau)
    [final], _ = run([shifted], problem, x0)
    final_gsq = _final_grad_sq(problem, final)
    assert time.perf_counter() - started < 1.0
    assert final_gsq < target, (
        f"second clause: at the certified stepsize gamma={gamma:.17g} (its "
        f"{binding} branch binds) with clipping horizon k*={horizon}, the derived "
        f"budget of K={budget} steps has closed-form bound "
        f"0.25*(1 - gamma/2)^(2(K - k*))={bound:.6e}, but the squared gradient "
        f"norm reached {final_gsq:.6e}, not below {target:g}"
    )


def test_criterion_03_certified_descent(logistic_problem, logistic_x0, logistic_f_inf):
    started = time.perf_counter()
    for tau in (0.01, 0.1, 1.0):
        inputs = _multi_inputs(logistic_problem, logistic_x0, logistic_f_inf, tau)
        gamma = certified_stepsize("clip21_gd", inputs)
        coeff = lyapunov_weight("clip21_gd", gamma, inputs)
        cfg = MethodConfig(method="clip21_gd", gamma=gamma, iters=5001, tau=tau)
        _, trace = run(
            [cfg], logistic_problem, logistic_x0, f_inf=logistic_f_inf, lyapunov_coeffs=[coeff]
        )
        phi, gsq = trace.lyapunov, trace.grad_norm_sq
        drop = (gamma / 2.0) * gsq[:-1]
        assert (phi[1:] <= phi[:-1] - drop + 1e-10).all()
    assert time.perf_counter() - started < 10.0


def _identity_quad(norm_targets, tau, d=4):
    # (1/d)||x - b_i||^2 per node, so the gradient at zero has norm (2/d)||b_i||
    rng = np.random.default_rng(777)
    shards = []
    for i, target in enumerate(norm_targets):
        direction = rng.standard_normal(d)
        direction /= np.linalg.norm(direction)
        b = direction * (target * tau * d / 2.0)
        shards.append((np.eye(d), b))
    return Problem("linreg_nonconvex", stack(shards), lam=0.0), shards


def test_criterion_04_clipping_horizon_certified():
    started = time.perf_counter()
    tau = 0.5
    for norm_targets in ((2.0,), (5.0,), (2.0, 5.0, 2.0, 5.0)):
        problem, shards = _identity_quad(norm_targets, tau)
        x0 = np.zeros(problem.d)
        xs = [x0.copy()]
        # exact minimizer of the averaged quadratic, for F0
        b_rows = np.stack([b for _, b in shards])
        x_star = b_rows.mean(axis=0)
        f_inf = problem.evaluate(x_star)[0]
        inputs = _multi_inputs(problem, x0, f_inf, tau)
        gamma = stepsize_multi(inputs)
        horizons = [k_star(g, tau) for g in inputs.grad0_norms]
        cfg = MethodConfig(method="clip21_gd", gamma=gamma, iters=1, tau=tau)
        batch = Batch([cfg], problem, x0)
        last_active = [-1] * problem.n
        for k in range(60):
            step(batch)
            xs.append(batch.x[0].copy())
            for i in range(problem.n):
                if batch.active[0, i]:
                    last_active[i] = k
        for i in range(problem.n):
            assert last_active[i] <= horizons[i], (
                f"node {i} still clipped at step {last_active[i]}, "
                f"past its certified horizon {horizons[i]}"
            )
        cutoff = max(last_active)
        for k in range(cutoff + 1, 60):
            gd_next = xs[k] - gamma * node_mean(problem.evaluate(xs[k])[1])
            assert np.linalg.norm(xs[k + 1] - gd_next) <= 1e-12
    assert time.perf_counter() - started < 1.0


def test_criterion_05_reductions(logistic_problem, logistic_x0):
    started = time.perf_counter()
    iters = 1000

    def pair_deviation(cfg_a, cfg_b):
        batch_a = Batch([cfg_a], logistic_problem, logistic_x0)
        batch_b = Batch([cfg_b], logistic_problem, logistic_x0)
        worst = 0.0
        for _ in range(iters):
            step(batch_a)
            step(batch_b)
            worst = max(worst, float(np.abs(batch_a.x - batch_b.x).max()))
        return worst

    base = dict(gamma=0.4, iters=iters)
    assert (
        pair_deviation(
            MethodConfig(method="clip21_gd", tau=1e12, **base),
            MethodConfig(method="gd", **base),
        )
        <= 1e-12
    )
    clipped = dict(gamma=0.4, iters=iters, tau=0.15)
    assert (
        pair_deviation(
            MethodConfig(method="dp_clip21_gd", sigma=0.0, nu=0.02, **clipped),
            MethodConfig(method="clip21_gd", **clipped),
        )
        <= 1e-12
    )
    assert (
        pair_deviation(
            MethodConfig(
                method="press_clip21_gd", compressor=Compressor("identity"), **clipped
            ),
            MethodConfig(method="clip21_gd", **clipped),
        )
        <= 1e-12
    )
    assert time.perf_counter() - started < 5.0


def test_criterion_06_rate_envelope(logistic_problem, logistic_x0, logistic_f_inf):
    started = time.perf_counter()
    tau = 0.1
    inputs = _multi_inputs(logistic_problem, logistic_x0, logistic_f_inf, tau)
    gamma = certified_stepsize("clip21_gd", inputs)
    coeff = lyapunov_weight("clip21_gd", gamma, inputs)
    cfg = MethodConfig(method="clip21_gd", gamma=gamma, iters=1000, tau=tau)
    _, trace = run(
        [cfg], logistic_problem, logistic_x0, f_inf=logistic_f_inf, lyapunov_coeffs=[coeff]
    )
    phi0 = trace.lyapunov[0]
    for K in (10, 100, 1000):
        best = trace.grad_norm_sq[:K].min()
        assert best <= rate_envelope(phi0, gamma, K)
    assert time.perf_counter() - started < 10.0


def _diagonal_strongly_convex(n=5, d=8):
    # diagonal least squares: the Hessian is diag((2/d) mean_i s_ij^2),
    # so the smallest curvature is exact, not estimated
    rng = np.random.default_rng(909)
    scales = rng.uniform(0.5, 1.5, size=(n, d))
    targets = rng.standard_normal((n, d))
    problem = Problem("linreg_nonconvex", stack([(np.diag(scales[i]), targets[i]) for i in range(n)]), lam=0.0)
    hess = (2.0 / d) * np.mean(scales**2, axis=0)
    mu = float(hess.min())
    # exact per-coordinate minimizer and floor value
    x_star = (scales * targets).sum(axis=0) / (scales**2).sum(axis=0)
    f_inf = problem.evaluate(x_star)[0]
    return problem, mu, f_inf


def test_criterion_07_noisy_utility_bound():
    started = time.perf_counter()
    problem, mu, f_inf = _diagonal_strongly_convex()
    x0 = np.zeros(problem.d)
    tau, sigma, nu, K = 1.0, 0.05, 0.05, 500
    info = problem.smoothness()
    f0, grads = problem.evaluate(x0)
    norms = tuple(float(np.linalg.norm(g)) for g in grads)
    F0 = max(0.0, f0 - f_inf)
    inputs = StepsizeInputs(
        L=info.L, L_max=info.L_max, tau=tau, grad0_norms=norms, F0=F0, mu=mu, nu=nu
    )
    gamma = certified_stepsize("dp_clip21_gd", inputs)
    coeff = lyapunov_weight("dp_clip21_gd", gamma, inputs)
    eta = eta_of(tau, norms)  # the utility bound's own input
    noise_sq = min(nu**2, sigma**2)
    cfgs = [
        MethodConfig(
            method="dp_clip21_gd",
            gamma=gamma,
            iters=K + 1,
            tau=tau,
            sigma=sigma,
            nu=nu,
            seed=seed,
        )
        for seed in range(20)
    ]
    finals, trace = run(cfgs, problem, x0, f_inf=f_inf, lyapunov_coeffs=[coeff] * len(cfgs))
    for seed, final in enumerate(finals):
        assert not isinstance(final, DivergenceError), f"seed {seed}: {final}"
        phi = trace.lyapunov[trace.run == seed]
        phi0 = phi[0]
        phiK = phi[K]
        bound = dp_utility_bound(phi0, gamma, mu, K, noise_sq, eta)
        assert phiK <= bound, f"seed {seed}: phi_K={phiK:.6e} above bound {bound:.6e}"
    assert time.perf_counter() - started < 5.0


def _grid_best_final(problem, x0, method, tau, L, iters, **extra):
    cfgs = [
        MethodConfig(method=method, gamma=multiple / L, iters=iters, tau=tau, **extra)
        for multiple in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
    ]
    states, _ = run(cfgs, problem, x0)
    finals = [
        _final_grad_sq(problem, state) for state in states if not isinstance(state, DivergenceError)
    ]
    assert finals, "every grid stepsize diverged"
    return min(finals)


@pytest.mark.filterwarnings("ignore:privacy calibration")
def test_criterion_08_error_feedback_beats_plain_clipping(
    logistic_problem, logistic_x0
):
    started = time.perf_counter()
    tau, iters = 0.01, 10_000
    L = logistic_problem.smoothness().L

    shifted = _grid_best_final(logistic_problem, logistic_x0, "clip21_gd", tau, L, iters)
    plain = _grid_best_final(logistic_problem, logistic_x0, "clip_gd", tau, L, iters)
    assert shifted * 5.0 <= plain, (
        f"shifted clipping reached {shifted:.3e}, plain clipping {plain:.3e}; "
        "the separation is below 5x"
    )

    # small enough that the unshifted method's bias, not the injected
    # noise, sets its plateau; the shifted method has no such bias and
    # its plateau tracks the noise level
    gamma = 0.02 / L
    sweep = {}
    for method in ("dp_clip21_gd", "dp_clip_gd"):
        cfgs = [
            MethodConfig(
                method=method, gamma=gamma, iters=iters, tau=tau, sigma=sigma, nu=1.0, seed=0
            )
            for sigma in (0.1, 0.05, 0.01)
        ]
        states, _ = run(cfgs, logistic_problem, logistic_x0)
        sweep[method] = [_final_grad_sq(logistic_problem, state) for state in states]
    shifted_sweep = sweep["dp_clip21_gd"]
    assert shifted_sweep[0] > shifted_sweep[1] > shifted_sweep[2], (
        f"shifted noisy floors {shifted_sweep} are not monotone in the noise level"
    )
    plain_sweep = sweep["dp_clip_gd"]
    assert max(plain_sweep) <= 2.0 * min(plain_sweep), (
        f"plain noisy clipping improved more than 2x across the sweep: {plain_sweep}"
    )
    assert time.perf_counter() - started < 60.0


def test_criterion_09_rules_match_oracle():
    started = time.perf_counter()
    rnd = random.Random(20240819)
    for case in range(10):
        L = rnd.uniform(0.5, 3.0)
        L_max = L * rnd.uniform(1.0, 2.0)
        tau = rnd.uniform(0.05, 2.0)
        if case == 0:
            n, norms = 1, (0.0,)  # eta = 1 edge
        elif case == 1:
            n = 1
            norms = (rnd.uniform(0.0, 3.0),)
        else:
            n = rnd.choice([2, 5, 10])
            norms = tuple(rnd.uniform(0.0, 3.0) for _ in range(n))
        F0 = rnd.uniform(0.0, 4.0)
        mu = rnd.uniform(0.01, 0.5)
        nu = 0.0 if case == 2 else rnd.uniform(0.0, 0.2)
        K = rnd.choice([10, 100, 1000])
        eps = rnd.uniform(0.05, 0.95)
        delta = 10.0 ** rnd.uniform(-8, -2)
        alpha_frac = rnd.uniform(0.05, 0.95)

        def gap(ours, ref):
            ref = float(ref)
            return abs(ours - ref) / max(abs(ref), 1e-300)

        if n == 1:
            ours = certified_stepsize(
                "clip21_gd", StepsizeInputs(L=L, L_max=L, tau=tau, grad0_norms=norms, F0=F0)
            )
            assert gap(ours, oracle.stepsize_single(L, tau, norms[0], F0)) <= 1e-12

        inputs = StepsizeInputs(L=L, L_max=L_max, tau=tau, grad0_norms=norms, F0=F0)
        assert gap(stepsize_multi(inputs), oracle.stepsize_multi(L, L_max, tau, norms, F0)) <= 1e-12

        dp_inputs = StepsizeInputs(
            L=L, L_max=L_max, tau=tau, grad0_norms=norms, F0=F0, mu=mu, nu=nu
        )
        assert (
            gap(
                certified_stepsize("dp_clip21_gd", dp_inputs),
                oracle.stepsize_dp(L, L_max, tau, norms, F0, mu, nu),
            )
            <= 1e-12
        )

        # compressed rule: keep the start inside the feasible regime
        alpha = rnd.uniform(0.8, 1.0)
        press_norms = tuple(min(g, 1.2 * tau) for g in norms)
        press_inputs = StepsizeInputs(
            L=L, L_max=L_max, tau=tau, grad0_norms=press_norms, F0=F0, alpha_press=alpha
        )
        assert (
            gap(
                certified_stepsize("press_clip21_gd", press_inputs),
                oracle.stepsize_press(L, L_max, tau, press_norms, F0, alpha),
            )
            <= 1e-12
        )

        floor = sigma_min(tau, K, eps, delta, alpha_frac)
        assert gap(floor, oracle.sigma_floor(tau, K, eps, delta, alpha_frac)) <= 1e-12

        phi0 = rnd.uniform(0.1, 5.0)
        gamma = rnd.uniform(0.01, 0.9) / mu * 0.1
        eta = rnd.uniform(0.05, 1.0)
        s2 = rnd.uniform(0.0, 0.5)
        assert (
            gap(
                dp_utility_bound(phi0, gamma, mu, K, s2, eta),
                oracle.dp_utility(phi0, gamma, mu, K, s2, eta),
            )
            <= 1e-12
        )
    assert time.perf_counter() - started < 10.0


def test_criterion_10_primitive_identities(logistic_problem):
    started = time.perf_counter()
    rng = np.random.default_rng(61003)

    # finite differences across all three problem kinds
    def fd(fn, x, h=1e-6):
        g = np.zeros_like(x)
        for j in range(x.size):
            e = np.zeros_like(x)
            e[j] = h
            g[j] = (fn(x + e) - fn(x - e)) / (2.0 * h)
        return g

    reg_shards = [(rng.standard_normal((6, 4)), rng.standard_normal(6)) for _ in range(3)]
    problems = [
        logistic_problem,
        Problem("linreg_nonconvex", stack(reg_shards), reg="nonconvex", lam=0.1),
        Problem("quad_counterexample"),
    ]
    for problem in problems:
        for _ in range(20):
            x = rng.standard_normal(problem.d)
            approx = fd(lambda y: problem.evaluate(y)[0], x)
            exact = node_mean(problem.evaluate(x)[1])
            rel = np.linalg.norm(approx - exact) / max(np.linalg.norm(exact), 1e-8)
            assert rel <= 1e-5

    # sparsification never loses more energy than its contraction factor
    for _ in range(10_000):
        d = int(rng.integers(2, 24))
        k = int(rng.integers(1, d + 1))
        x = rng.standard_normal(d) * 10.0 ** rng.uniform(-2, 2)
        out = compress(Compressor("top_k", k), x)
        assert float(np.sum((out - x) ** 2)) <= (1.0 - k / d) * float(np.sum(x * x)) * (
            1.0 + 1e-12
        ) + 1e-300

    # clip identities on random triples
    for _ in range(10_000):
        d = int(rng.integers(1, 10))
        x = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3)
        tau = 10.0 ** rng.uniform(-3, 3)
        gamma = 10.0 ** rng.uniform(-3, 3)
        norm = float(np.linalg.norm(x))
        clipped = clip(x, tau)
        left = clip(x, gamma * tau)
        right = gamma * clip(x / gamma, tau)
        denom = max(float(np.linalg.norm(left)), 1e-300)
        assert float(np.linalg.norm(left - right)) / denom <= 1e-10
        err = float(np.linalg.norm(clipped - x))
        expect = max(0.0, norm - tau)
        assert abs(err - expect) <= 1e-10 * max(expect, 1.0)
        if norm >= tau:
            err_sq = float(np.sum((clipped - x) ** 2))
            expect_sq = (1.0 - tau / norm) ** 2 * norm**2
            assert abs(err_sq - expect_sq) <= 1e-10 * max(expect_sq, 1e-30)
    assert time.perf_counter() - started < 30.0
