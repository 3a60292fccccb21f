"""Every public calculator and type rejects NaN, +-inf and fractional counts
with ConfigurationError, through the one pair of scalar checks in ops."""

import math

import numpy as np
import pytest

from clipshift import (
    Compressor,
    ConfigurationError,
    MethodConfig,
    Problem,
    StepsizeInputs,
    certified_stepsize,
    clip,
    dp_utility_bound,
    estimate_f_inf,
    eta_of,
    gaussian_block,
    gaussian_sample,
    k_star,
    lyapunov_weight,
    press_contraction_margin,
    rate_envelope,
    run,
    sigma_min,
)
from clipshift.data import Dataset, node_block, stack, write_libsvm
from clipshift.ops import check_count, check_real
from fixed_targets import avg_config, targets_problem

_INPUTS = dict(L=1.0, L_max=2.0, tau=0.5, grad0_norms=(1.0, 2.0), F0=1.0)
_FEATURES = np.array([[1.0, 0.5], [-0.5, 1.0], [0.25, -1.0], [1.0, 1.0]])
_LABELS = np.array([1.0, -1.0, 1.0, -1.0])
_TEXT = write_libsvm(Dataset(_FEATURES, _LABELS))
# split by label: the -1 rows 1 and 3 make node 0, the +1 rows node 1
_PAIRS = [(_FEATURES[[1, 3]], _LABELS[[1, 3]]), (_FEATURES[[0, 2]], _LABELS[[0, 2]])]


# name: (callable taking keywords, valid keywords, real parameters, count parameters)
CALLS = {
    "StepsizeInputs": (StepsizeInputs, _INPUTS, ("L", "L_max", "tau", "F0"), ()),
    "eta_of": (eta_of, dict(tau=0.5, grad0_norms=(1.0, 2.0)), ("tau",), ()),
    # a bad norm first or last, through the norms check StepsizeInputs shares
    "eta_of-norms": (
        lambda first, last: eta_of(0.5, (first, last)),
        dict(first=1.0, last=2.0),
        ("first", "last"),
        (),
    ),
    "certified_stepsize-dp": (
        lambda **kw: certified_stepsize("dp_clip21_gd", StepsizeInputs(**_INPUTS, **kw)),
        dict(mu=0.1, nu=0.01),
        ("mu", "nu"),
        (),
    ),
    "press_contraction_margin": (press_contraction_margin, dict(alpha=1.0, eta=0.5), ("alpha", "eta"), ()),
    "certified_stepsize-press": (
        lambda **kw: certified_stepsize("press_clip21_gd", StepsizeInputs(**_INPUTS, **kw)),
        dict(alpha_press=1.0),
        ("alpha_press",),
        (),
    ),
    "lyapunov_weight": (
        lambda **kw: lyapunov_weight("clip21_gd", inputs=StepsizeInputs(**_INPUTS), **kw),
        dict(gamma=0.1),
        ("gamma",),
        (),
    ),
    "k_star": (k_star, dict(grad0_norm=2.0, tau=0.5), ("grad0_norm", "tau"), ()),
    "rate_envelope": (rate_envelope, dict(phi0=1.0, gamma=0.1, K=10), ("phi0", "gamma"), ("K",)),
    "sigma_min": (
        sigma_min,
        dict(tau=0.5, K=10, eps=0.5, delta=0.1, alpha_frac=0.5),
        ("tau", "eps", "delta", "alpha_frac"),
        ("K",),
    ),
    "dp_utility_bound": (
        dp_utility_bound,
        dict(phi0=1.0, gamma=0.1, mu=0.1, K=10, sigma2_min=0.01, eta=0.5),
        ("phi0", "gamma", "mu", "sigma2_min", "eta"),
        ("K",),
    ),
    "estimate_f_inf": (
        lambda **kw: estimate_f_inf(Problem("logistic", stack(_PAIRS), lam=0.1), np.zeros(2), **kw),
        dict(iters=5),
        (),
        ("iters",),
    ),
    "MethodConfig": (
        MethodConfig,
        dict(method="dp_clip21_gd", gamma=0.1, iters=5, tau=1.0, sigma=0.01, nu=0.1, seed=1),
        ("gamma", "tau", "sigma", "nu"),
        ("iters", "seed"),
    ),
    # a clip21_avg run, through the one step kernel
    "clip21_avg_run": (
        lambda **kw: run([avg_config(**kw)], targets_problem([np.ones(2)]), np.zeros(2)),
        dict(tau=0.5, iters=3),
        ("tau",),
        ("iters",),
    ),
    "gaussian_sample": (
        gaussian_sample,
        dict(seed=1, node=0, step=2, d=3, sigma=0.5),
        ("sigma",),
        ("seed", "node", "step", "d"),
    ),
    "gaussian_block": (
        gaussian_block,
        dict(seed=1, step=2, n=2, d=3, sigma=0.5),
        ("sigma",),
        ("seed", "step", "n", "d"),
    ),
    # the chunked form, several steps in one draw
    "gaussian_sample-steps": (
        gaussian_sample,
        dict(seed=1, node=0, step=2, d=3, sigma=0.5, steps=2),
        ("sigma",),
        ("seed", "node", "step", "d", "steps"),
    ),
    "gaussian_block-steps": (
        gaussian_block,
        dict(seed=1, step=2, n=2, d=3, sigma=0.5, steps=2),
        ("sigma",),
        ("seed", "step", "n", "d", "steps"),
    ),
    "Problem": (lambda **kw: Problem("logistic", stack(_PAIRS), **kw), dict(lam=0.1), ("lam",), ()),
    "Problem-quad": (
        lambda beta_q, alpha_q: Problem("quad_counterexample", quad_params=(beta_q, alpha_q)),
        dict(beta_q=2.0, alpha_q=1.0),
        ("beta_q", "alpha_q"),
        (),
    ),
    "node_block": (lambda **kw: node_block(_TEXT, **kw), dict(n=2), (), ("n",)),
    "clip": (lambda **kw: clip(np.ones(2), **kw), dict(tau=0.5), ("tau",), ()),
    "Compressor": (lambda **kw: Compressor("top_k", **kw), dict(k=1), (), ("k",)),
}

_BAD_REALS = (math.nan, math.inf, -math.inf)
_BAD_COUNTS = (2.5, math.nan, math.inf, -math.inf)
_CASES = [
    pytest.param(name, param, bad, id=f"{name}-{param}={bad}")
    for name, (_call, _valid, reals, counts) in CALLS.items()
    for param, bads in [(p, _BAD_REALS) for p in reals] + [(p, _BAD_COUNTS) for p in counts]
    for bad in bads
]


@pytest.mark.parametrize("name", CALLS)
def test_valid_keywords_pass(name):
    call, valid, _reals, _counts = CALLS[name]
    call(**valid)


@pytest.mark.parametrize("name, param, bad", _CASES)
def test_non_finite_reals_and_fractional_counts_are_rejected(name, param, bad):
    call, valid, _reals, _counts = CALLS[name]
    with pytest.raises(ConfigurationError):
        call(**{**valid, param: bad})


def test_integral_counts_are_accepted():
    cfg = MethodConfig("clip21_gd", gamma=0.1, iters=10.0, tau=0.5, seed=np.int64(3))
    assert (cfg.iters, cfg.seed) == (10, 3)
    assert type(cfg.iters) is int and type(cfg.seed) is int
    assert rate_envelope(1.0, 0.5, np.int64(4)) == rate_envelope(1.0, 0.5, 4.0) == 1.0
    assert np.array_equal(gaussian_sample(np.int64(3), 0, 1, 4.0, 1.0), gaussian_sample(3, 0, 1, 4, 1.0))
    assert Compressor("top_k", np.int64(2)).k == 2


@pytest.mark.parametrize(
    "kind, good, bad",
    [
        ("positive", (1e-310, 1.0, 1e308), (0.0, -1.0)),
        ("non-negative", (0.0, 1.0, 1e308), (-1e-310,)),
        ("(0, 1]", (1e-310, 1.0), (0.0, 1.0 + 2**-52)),
        ("(0, 1)", (1e-310, 1.0 - 2**-53), (0.0, 1.0)),
        ("finite", (-1e308, 0.0, 1e308), ()),
    ],
)
def test_check_real_bounds(kind, good, bad):
    for value in good:
        assert check_real("x", value, kind) == value
    for value in bad + _BAD_REALS:
        with pytest.raises(ConfigurationError, match="^x must "):
            check_real("x", value, kind)


def test_check_count_messages():
    with pytest.raises(ConfigurationError, match=r"^n must be >= 2, got 1$"):
        check_count("n", 1, 2)
    with pytest.raises(ConfigurationError, match=r"^n must be non-negative, got -1$"):
        check_count("n", -1, 0)
    with pytest.raises(ConfigurationError, match=r"^n must be an integer, got 2.5$"):
        check_count("n", 2.5)
    assert check_count("n", 0, 0) == 0
