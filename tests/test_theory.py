"""Stepsize rules, certificates, and bounds against the independent oracle."""

import math
import random
import warnings

import numpy as np
import pytest

import oracle_bounds as oracle
from clipshift import (
    Compressor,
    ConfigurationError,
    InfeasibleStepsizeError,
    MethodConfig,
    Problem,
    StepsizeInputs,
    certified_stepsize,
    dp_utility_bound,
    estimate_f_inf,
    eta_of,
    k_star,
    lyapunov_weight,
    press_contraction_margin,
    rate_envelope,
    run,
    sigma_min,
    stepsize_branches,
    stepsize_multi,
)
from clipshift.data import stack


def test_eta_cases():
    assert eta_of(1.0, (0.0, 0.0)) == 1.0  # vanishing gradients
    assert eta_of(2.0, (1.0, 0.5)) == 1.0  # threshold dominates
    assert eta_of(1.0, (4.0, 2.0)) == 0.25
    with pytest.raises(ConfigurationError):
        eta_of(0.0, (1.0,))


def test_single_node_pinned():
    inputs = StepsizeInputs(L=1.0, L_max=1.0, tau=1.0, grad0_norms=(1.0,), F0=1.0)
    # with eta = 1 the shift penalty disappears and the smoothness branch
    # reduces to (1 - 1/sqrt(2))/(2L); the residual branch gives 1/16
    assert certified_stepsize("clip21_gd", inputs) == 0.0625


def test_multi_node_pinned():
    inputs = StepsizeInputs(L=1.0, L_max=2.0, tau=1.0, grad0_norms=(2.0, 1.0), F0=0.25)
    assert stepsize_multi(inputs) == pytest.approx(0.011747606429224308, rel=1e-15)


def test_dp_pinned():
    inputs = StepsizeInputs(
        L=1.0, L_max=1.0, tau=1.0, grad0_norms=(2.0, 0.5), F0=1.0, mu=0.1, nu=0.05
    )
    assert certified_stepsize("dp_clip21_gd", inputs) == pytest.approx(
        0.0032541397552843317, rel=1e-12
    )


def test_dp_certificate_names_an_eta_that_underflows():
    # tau / max ||grad_i(x0)|| is below the smallest subnormal, so eta is 0
    # and the noisy rule's and weight's 2/eta terms would divide by it
    inputs = StepsizeInputs(L=1.0, L_max=2.0, tau=5e-324, grad0_norms=(1e10, 1.0), F0=0.25, mu=0.1)
    message = r"^eta = tau / max_i \|\|grad_i\(x0\)\|\| at tau=5e-324 rounds to 0, and the certificate divides by it$"
    with pytest.raises(InfeasibleStepsizeError, match=message):
        certified_stepsize("dp_clip21_gd", inputs)
    with pytest.raises(InfeasibleStepsizeError, match=message):
        lyapunov_weight("dp_clip21_gd", 0.1, inputs)


def test_press_margin_pinned():
    assert press_contraction_margin(0.9, 0.9) == pytest.approx(0.7876301218409649, rel=1e-12)


def test_press_infeasible_margin_carries_best():
    with pytest.raises(InfeasibleStepsizeError) as err:
        press_contraction_margin(0.5, 1.0)
    assert err.value.best < 0.0


def test_sigma_floor_pinned():
    floor = sigma_min(1.0, 100, 0.5, 1e-5, 0.5)
    assert floor == pytest.approx(2303.292437850279, rel=1e-12)
    assert "feasibility" in sigma_min.__doc__


def test_dp_utility_pinned():
    assert dp_utility_bound(1.0, 0.1, 1.0, 10, 0.01, 1.0) == pytest.approx(
        0.4086784401, rel=1e-12
    )
    with pytest.raises(ConfigurationError):
        dp_utility_bound(1.0, 2.0, 1.0, 10, 0.01, 1.0)  # gamma*mu >= 1


def test_sigma_floor_validation():
    with pytest.raises(ConfigurationError):
        sigma_min(1.0, 100, 1.5, 1e-5, 0.5)
    with pytest.raises(ConfigurationError):
        sigma_min(1.0, 100, 0.5, 2.0, 0.5)
    with pytest.raises(ConfigurationError):
        sigma_min(1.0, 100, 0.5, 1e-5, 1.0)
    with pytest.raises(ConfigurationError):
        sigma_min(1.0, 0, 0.5, 1e-5, 0.5)
    with pytest.raises(ConfigurationError):
        sigma_min(-1.0, 100, 0.5, 1e-5, 0.5)


def test_huge_tau_has_no_certified_stepsize():
    # the tau^2 branches tend to finite limits as tau grows, and those
    # limits bind: sqrt(2)/16 for the two-node rule here, sqrt(2)/64 for
    # the noisy one. Where tau^2 or a branch denominator overflows the
    # rules raise instead of dropping or zeroing that branch
    inputs = dict(L=1.0, L_max=2.0, grad0_norms=(2.0, 1.0), F0=0.25, mu=0.05, alpha_press=1.0)
    near = StepsizeInputs(tau=1e150, **inputs)
    assert _rel_gap(stepsize_multi(near), math.sqrt(2.0) / 16.0) <= 1e-12
    assert _rel_gap(certified_stepsize("dp_clip21_gd", near), math.sqrt(2.0) / 64.0) <= 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # at 1e154 a branch denominator overflows, at 1e200 tau^2 itself
        for tau, shown in ((1e154, r"1e\+154"), (1e200, r"1e\+200")):
            huge = StepsizeInputs(tau=tau, **inputs)
            for rule in (stepsize_multi, lambda inp: certified_stepsize("dp_clip21_gd", inp)):
                with pytest.raises(ConfigurationError, match=rf"^no finite certified stepsize at tau={shown}$"):
                    rule(huge)
        single = StepsizeInputs(L=1.0, L_max=1.0, tau=1e200, grad0_norms=(2.0,), F0=0.25)
        for method, inp in (("clip21_gd", single), ("press_clip21_gd", StepsizeInputs(tau=1e200, **inputs))):
            with pytest.raises(ConfigurationError, match=r"^no finite certified stepsize at tau=1e\+200$"):
                certified_stepsize(method, inp)
        with pytest.raises(ConfigurationError, match=r"^no finite noise floor at tau=1e\+200$"):
            sigma_min(1e200, 10, 0.5, 0.1, 0.5)


def _rel_gap(ours, ref):
    ref = float(ref)
    return abs(ours - ref) / max(abs(ref), 1e-300)


def test_rules_match_oracle_spot_checks():
    single = StepsizeInputs(L=2.0, L_max=2.0, tau=0.5, grad0_norms=(3.0,), F0=1.7)
    assert (
        _rel_gap(certified_stepsize("clip21_gd", single), oracle.stepsize_single(2.0, 0.5, 3.0, 1.7))
        <= 1e-12
    )

    multi = StepsizeInputs(
        L=1.5, L_max=2.5, tau=0.8, grad0_norms=(2.0, 0.3, 1.1), F0=0.9
    )
    assert (
        _rel_gap(stepsize_multi(multi), oracle.stepsize_multi(1.5, 2.5, 0.8, (2.0, 0.3, 1.1), 0.9))
        <= 1e-12
    )

    dp = StepsizeInputs(
        L=1.2, L_max=2.0, tau=1.0, grad0_norms=(1.5, 0.5), F0=0.6, mu=0.05, nu=0.1
    )
    assert (
        _rel_gap(
            certified_stepsize("dp_clip21_gd", dp),
            oracle.stepsize_dp(1.2, 2.0, 1.0, (1.5, 0.5), 0.6, 0.05, 0.1),
        )
        <= 1e-12
    )

    press = StepsizeInputs(
        L=1.0, L_max=1.0, tau=1.0, grad0_norms=(2.0, 1.0), F0=1.0, alpha_press=1.0
    )
    assert (
        _rel_gap(
            certified_stepsize("press_clip21_gd", press),
            oracle.stepsize_press(1.0, 1.0, 1.0, (2.0, 1.0), 1.0, 1.0),
        )
        <= 1e-12
    )

    assert _rel_gap(press_contraction_margin(0.95, 0.4), oracle.press_beta(0.95, 0.4)) <= 1e-12
    assert (
        _rel_gap(sigma_min(0.7, 500, 0.3, 1e-6, 0.25), oracle.sigma_floor(0.7, 500, 0.3, 1e-6, 0.25))
        <= 1e-12
    )
    assert (
        _rel_gap(dp_utility_bound(2.0, 0.01, 0.5, 300, 0.04, 0.7), oracle.dp_utility(2.0, 0.01, 0.5, 300, 0.04, 0.7))
        <= 1e-12
    )


def _branch_cases():
    """(method, inputs) at the spot checks above and at criterion 09's
    sweep, whose seed and draws are replayed here in order."""
    yield "clip21_gd", StepsizeInputs(L=2.0, L_max=2.0, tau=0.5, grad0_norms=(3.0,), F0=1.7)
    yield "clip21_gd", StepsizeInputs(L=1.5, L_max=2.5, tau=0.8, grad0_norms=(2.0, 0.3, 1.1), F0=0.9)
    yield "dp_clip21_gd", StepsizeInputs(
        L=1.2, L_max=2.0, tau=1.0, grad0_norms=(1.5, 0.5), F0=0.6, mu=0.05, nu=0.1
    )
    yield "press_clip21_gd", StepsizeInputs(
        L=1.0, L_max=1.0, tau=1.0, grad0_norms=(2.0, 1.0), F0=1.0, alpha_press=1.0
    )
    rnd = random.Random(20240819)
    for case in range(10):
        L = rnd.uniform(0.5, 3.0)
        L_max = L * rnd.uniform(1.0, 2.0)
        tau = rnd.uniform(0.05, 2.0)
        if case == 0:
            norms = (0.0,)
        elif case == 1:
            norms = (rnd.uniform(0.0, 3.0),)
        else:
            norms = tuple(rnd.uniform(0.0, 3.0) for _ in range(rnd.choice([2, 5, 10])))
        F0 = rnd.uniform(0.0, 4.0)
        mu = rnd.uniform(0.01, 0.5)
        nu = 0.0 if case == 2 else rnd.uniform(0.0, 0.2)
        rnd.choice([10, 100, 1000])  # K, then eps, delta and alpha_frac, unused here
        for _ in range(3):
            rnd.random()
        alpha = rnd.uniform(0.8, 1.0)
        base = dict(L=L, L_max=L_max, tau=tau, F0=F0)
        yield "clip21_gd", StepsizeInputs(grad0_norms=norms, **base)
        yield "dp_clip21_gd", StepsizeInputs(grad0_norms=norms, mu=mu, nu=nu, **base)
        press_norms = tuple(min(g, 1.2 * tau) for g in norms)
        yield "press_clip21_gd", StepsizeInputs(grad0_norms=press_norms, alpha_press=alpha, **base)
        for _ in range(4):  # phi0, gamma, eta and s2 of the utility check
            rnd.random()


def _oracle_branches(method, inp):
    args = (inp.L, inp.L_max, inp.tau, inp.grad0_norms, inp.F0)
    if method == "dp_clip21_gd":
        return oracle.stepsize_dp(*args, inp.mu, inp.nu, branches=True)
    if method == "press_clip21_gd":
        return oracle.stepsize_press(*args, inp.alpha_press, branches=True)
    if inp.n == 1:
        return oracle.stepsize_single(inp.L, inp.tau, inp.grad0_norms[0], inp.F0, branches=True)
    return oracle.stepsize_multi(*args, branches=True)


@pytest.mark.parametrize("method, inputs", list(_branch_cases()))
def test_every_branch_and_the_binding_name_match_the_oracle(method, inputs):
    # the minimum alone would let a wrong branch that does not bind pass
    ours, binding = stepsize_branches(method, inputs)
    table = _oracle_branches(method, inputs)
    assert list(ours) == list(table)
    for name, ref in table.items():
        if math.isinf(ref):
            assert ours[name] == math.inf, name
        else:
            assert _rel_gap(ours[name], ref) <= 1e-12, name
    assert binding == min(table, key=table.get)


def test_counterexample_binds_on_its_tau_sq_branch():
    inputs = StepsizeInputs(L=1.0, L_max=2.0, tau=1.0, grad0_norms=(2.0, 1.0), F0=0.25)
    branches, binding = stepsize_branches("clip21_gd", inputs)
    assert binding == "tau_sq"
    assert branches["tau_sq"] == certified_stepsize("clip21_gd", inputs) == stepsize_multi(inputs)
    assert branches["smoothness"] == pytest.approx(0.0434, rel=1e-3)
    assert branches["implicit"] == pytest.approx(0.417, rel=1e-3)
    assert stepsize_branches("gd", inputs) == ({"inverse_L": 1.0}, "inverse_L")


def test_stepsize_preconditions():
    bare = StepsizeInputs(L=1.0, L_max=1.0, tau=1.0, grad0_norms=(1.0,), F0=1.0)
    for method in ("dp_clip21_gd", "press_clip21_gd"):  # bare has no mu, no alpha_press
        with pytest.raises(ConfigurationError):
            certified_stepsize(method, bare)
    with pytest.raises(ConfigurationError):
        StepsizeInputs(L=0.0, L_max=1.0, tau=1.0, grad0_norms=(1.0,), F0=1.0)
    with pytest.raises(ConfigurationError):
        StepsizeInputs(L=1.0, L_max=1.0, tau=1.0, grad0_norms=(), F0=1.0)
    with pytest.raises(ConfigurationError):
        StepsizeInputs(L=1.0, L_max=1.0, tau=1.0, grad0_norms=(1.0,), F0=-0.1)


def test_stepsizes_are_positive_across_regimes():
    rng = np.random.default_rng(55)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        norms = tuple(float(v) for v in np.abs(rng.standard_normal(n)) * 3.0)
        L = float(rng.uniform(0.5, 3.0))
        L_max = L * float(rng.uniform(1.0, 2.0))
        tau = float(rng.uniform(0.05, 2.0))
        F0 = float(rng.uniform(0.0, 4.0))
        inputs = StepsizeInputs(L=L, L_max=L_max, tau=tau, grad0_norms=norms, F0=F0)
        gamma = stepsize_multi(inputs)
        assert np.isfinite(gamma) and gamma > 0.0


def test_k_star_cases():
    assert k_star(0.5, 1.0) == 0
    assert k_star(1.0, 1.0) == 0  # boundary: no clipping needed
    assert k_star(3.0, 1.0) == 5
    assert k_star(1.0 + 1e-9, 1.0) == 2
    with pytest.raises(ConfigurationError):
        k_star(-1.0, 1.0)
    with pytest.raises(ConfigurationError):
        k_star(1.0, 0.0)


def test_rate_envelope_formula():
    assert rate_envelope(2.0, 0.1, 100) == pytest.approx(2.0 * 2.0 / (0.1 * 100))
    with pytest.raises(ConfigurationError):
        rate_envelope(1.0, 0.0, 10)
    with pytest.raises(ConfigurationError):
        rate_envelope(1.0, 0.1, 0)


# tau = 1 against a largest start norm of 2, so eta = 0.5 in every case
_ETA = 0.5


def _shift_weight(gamma):
    return gamma / (2.0 * (1.0 - (1.0 - _ETA) * (1.0 - 0.5 * _ETA)))


def _no_weight(gamma):
    return 0.0


# each expected gamma is the exact value of the method's own rule: the
# single-node, n-node, noisy and compressed rules, then 1/L
@pytest.mark.parametrize(
    "method,extra,expected,weight",
    [
        ("clip21_gd", dict(grad0_norms=(2.0,)), 0.0905089821505369, _shift_weight),
        ("clip21_gd", {}, 0.011747606429224308, _shift_weight),
        ("dp_clip21_gd", dict(mu=0.1, nu=0.05), 0.002902123976655665, lambda gamma: 2.0 * gamma / _ETA),
        (
            "press_clip21_gd",
            dict(alpha_press=0.9),
            0.004425735289305746,
            lambda gamma: gamma / press_contraction_margin(0.9, _ETA),
        ),
        # no positive contraction margin at alpha = 0.5: no certified
        # stepsize, and the shift term drops out of the telemetry
        ("press_clip21_gd", dict(alpha_press=0.5), None, _no_weight),
        ("gd", {}, 1.0, _no_weight),
        ("clip_gd", {}, 1.0, _no_weight),
        ("dp_clip_gd", {}, 1.0, _no_weight),
    ],
    ids=["clip21-single", "clip21-multi", "dp", "press", "press-no-margin", "gd", "clip-gd", "dp-clip-gd"],
)
def test_certificate_matches_the_per_method_rules(method, extra, expected, weight):
    base = dict(L=1.0, L_max=2.0, tau=1.0, grad0_norms=(2.0, 1.0), F0=0.25)
    inputs = StepsizeInputs(**{**base, **extra})
    if expected is None:
        with pytest.raises(InfeasibleStepsizeError):
            certified_stepsize(method, inputs)
        gamma = 0.1
    else:
        gamma = certified_stepsize(method, inputs)
        assert gamma == expected
    for g in (gamma, 0.1):
        assert lyapunov_weight(method, g, inputs) == weight(g)
    with pytest.raises(ConfigurationError, match="gamma must be a positive real, got 0.0"):
        lyapunov_weight(method, 0.0, inputs)
    with pytest.raises(ConfigurationError, match="gamma must be a positive real, got nan"):
        lyapunov_weight(method, float("nan"), inputs)


def test_f_inf_counterexample_is_exact(quad_problem):
    assert estimate_f_inf(quad_problem, np.array([3.0])) == 0.0


def test_f_inf_estimate_lower_bounds_descent(logistic_problem, logistic_x0, logistic_f_inf):
    assert logistic_f_inf < logistic_problem.evaluate(logistic_x0)[0]
    # a short run never dips below the presolved floor
    cfg = MethodConfig(method="gd", gamma=0.5, iters=200)
    _, trace = run([cfg], logistic_problem, logistic_x0)
    assert (trace.f >= logistic_f_inf).all()


@pytest.mark.parametrize("alpha", [None, math.nan, 0.0, 1.5])
def test_press_weight_checks_alpha_as_its_rule_does(alpha):
    inputs = StepsizeInputs(
        L=1.0, L_max=2.0, tau=1.0, grad0_norms=(2.0, 1.0), F0=0.25, alpha_press=alpha
    )
    with pytest.raises(ConfigurationError) as rule_error:
        certified_stepsize("press_clip21_gd", inputs)
    with pytest.raises(ConfigurationError) as weight_error:
        lyapunov_weight("press_clip21_gd", 0.1, inputs)
    assert not isinstance(weight_error.value, InfeasibleStepsizeError)
    assert str(weight_error.value) == str(rule_error.value)


def test_press_stepsize_requires_feasible_margin():
    inputs = StepsizeInputs(
        L=1.0, L_max=1.0, tau=0.05, grad0_norms=(2.0, 1.0), F0=1.0, alpha_press=0.8
    )
    with pytest.raises(InfeasibleStepsizeError):
        certified_stepsize("press_clip21_gd", inputs)


def _newton_minimum(problem, shards):
    """f(x*) of an l2 logistic problem by damped Newton on its shards,
    written apart from Problem: the d x d Hessian is solved directly."""
    n, lam = problem.n, problem.lam

    def value_grad_hess(x):
        value, grad, hess = 0.5 * lam * x @ x, lam * x, lam * np.eye(x.size)
        for a, b in shards:
            z = -b * (a @ x)
            p = 0.5 * (1.0 + np.tanh(0.5 * z))  # sigmoid(z), overflow-free
            value += np.logaddexp(0.0, z).sum() / (n * b.size)
            grad += a.T @ (-b * p) / (n * b.size)
            hess += (a.T * (p * (1.0 - p))) @ a / (n * b.size)
        return value, grad, hess

    x = np.zeros(problem.d)
    value, grad, hess = value_grad_hess(x)
    for _ in range(100):
        step, t = np.linalg.solve(hess, grad), 1.0
        while value_grad_hess(x - t * step)[0] > value and t > 1e-12:
            t *= 0.5
        x = x - t * step
        value, grad, hess = value_grad_hess(x)
        if grad @ grad <= 1e-30:
            break
    assert grad @ grad <= 1e-28
    return problem.evaluate(x)[0]


def test_f_inf_is_a_tight_certified_bound_for_l2(
    logistic_problem, logistic_shards, logistic_x0, logistic_f_inf
):
    f_star = _newton_minimum(logistic_problem, logistic_shards)
    assert logistic_f_inf <= f_star
    assert f_star - logistic_f_inf <= 1e-9
    # one iteration is still a bound, only a looser one
    short = estimate_f_inf(logistic_problem, logistic_x0, iters=1)
    assert short <= f_star


@pytest.mark.parametrize("reg,lam", [("l2", 0.0), ("nonconvex", 1e-3)])
def test_f_inf_without_strong_convexity_is_best_minus_margin(reg, lam):
    # separable shards: with lam = 0 the logistic loss has no minimizer
    rng = np.random.default_rng(12)
    w = rng.standard_normal(4)
    shards = []
    for i in range(3):
        feats = rng.standard_normal((15, 4))
        shards.append((feats, np.where(feats @ w > 0.0, 1.0, -1.0)))
    problem = Problem("logistic", stack(shards), reg=reg, lam=lam)
    x0 = rng.standard_normal(4)
    f0 = problem.evaluate(x0)[0]
    # no iteration: the best value seen is f(x0)
    assert estimate_f_inf(problem, x0, iters=0, margin=1e-6) == f0 - 1e-6
    value = estimate_f_inf(problem, x0, iters=2000)
    assert np.isfinite(value)
    # every loss term and both regularizers are non-negative
    assert -1e-9 <= value < f0 - 1e-9


def test_f_inf_presolve_survives_an_overflowing_start(logistic_problem):
    # every trial point from 1e308 overflows; each fails the line search
    # instead of reaching Problem.evaluate's input check
    x0 = np.full(logistic_problem.d, 1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        value = estimate_f_inf(logistic_problem, x0, iters=50)
    assert isinstance(value, float)
