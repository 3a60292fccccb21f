"""Objective values, gradients, and smoothness constants."""

import gc
import tracemalloc
import weakref

import mpmath
import numpy as np
import pytest

from clipshift import ConfigurationError, Problem, node_mean
from clipshift.data import NodeBlock, stack
from reference_chain import scale, split


def _fd_gradient(fn, x, h=1e-6):
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return g


def _rel_err(approx, exact):
    scale = max(np.linalg.norm(exact), 1e-8)
    return np.linalg.norm(approx - exact) / scale


def _random_shards(rng, n, d, m, regression=False):
    shards = []
    for i in range(n):
        feats = rng.standard_normal((m, d))
        if regression:
            labels = rng.standard_normal(m)
        else:
            labels = np.where(rng.random(m) < 0.5, 1.0, -1.0)
        shards.append((feats, labels))
    return shards


def test_problem_keeps_one_copy_of_the_data():
    shards = _random_shards(np.random.default_rng(5), 3, 4, 6)
    first = weakref.ref(shards[0][0])
    problem = Problem("logistic", stack(shards), reg="l2", lam=0.1)
    expected = problem.evaluate(np.ones(4))
    del shards
    gc.collect()
    # the padded block is the only copy; the shards' arrays are released
    assert first() is None
    assert (problem.n, problem.d) == (3, 4)
    value, grads = problem.evaluate(np.ones(4))
    assert value == expected[0] and np.array_equal(grads, expected[1])


def test_problem_adopts_a_block_without_a_copy():
    shards = _random_shards(np.random.default_rng(5), 3, 4, 6)
    stacked = Problem("logistic", stack(shards), reg="l2", lam=0.1)
    block = NodeBlock(stacked._A.copy(), stacked._b.copy(), np.array([b.size for _, b in shards]))
    problem = Problem("logistic", block=block, reg="l2", lam=0.1)
    assert problem._A is block.features and problem._b is block.labels
    for name in ("_w", "_m", "_neg_b"):
        assert np.array_equal(getattr(problem, name), getattr(stacked, name))
    x = np.linspace(-1.0, 1.0, 4)
    assert problem.evaluate(x)[0] == stacked.evaluate(x)[0]
    with pytest.raises(ConfigurationError, match="takes no block"):
        Problem("quad_counterexample", block=block)


@pytest.mark.parametrize("kind,reg", [
    ("logistic", "l2"),
    ("logistic", "nonconvex"),
    ("linreg_nonconvex", "l2"),
    ("linreg_nonconvex", "nonconvex"),
])
def test_fd_gradients_data_problems(kind, reg):
    rng = np.random.default_rng(99)
    shards = _random_shards(rng, 3, 5, 8, regression=kind != "logistic")
    p = Problem(kind, stack(shards), reg=reg, lam=0.1)
    # f_i is the value of the one-shard problem on shard i
    nodes = [Problem(kind, stack([s]), reg=reg, lam=0.1) for s in shards]
    for _ in range(5):
        x = rng.standard_normal(5)
        grads = p.evaluate(x)[1]
        for i in range(p.n):
            fd = _fd_gradient(lambda y, i=i: nodes[i].evaluate(y)[0], x)
            assert _rel_err(fd, grads[i]) <= 1e-5
        fd = _fd_gradient(lambda y: p.evaluate(y)[0], x)
        assert _rel_err(fd, node_mean(grads)) <= 1e-5


def test_fd_gradient_counterexample():
    p = Problem("quad_counterexample", quad_params=(3.0, 0.5))
    coeffs = (3.0, -0.5)  # f_1 = (beta/2) x^2 and f_2 = -(alpha/2) x^2
    for x0 in (0.7, -1.3, 2.0):
        x = np.array([x0])
        grads = p.evaluate(x)[1]
        for i in range(2):
            fd = _fd_gradient(lambda y, i=i: 0.5 * coeffs[i] * float(y @ y), x)
            assert _rel_err(fd, grads[i]) <= 1e-5


def test_counterexample_pinned_values():
    p = Problem("quad_counterexample")  # defaults to curvatures (2, 1)
    x = np.array([1.0])
    # node objectives x^2 and -x^2/2 average to x^2/4
    value, grads = p.evaluate(x)
    assert value == 0.25
    assert np.array_equal(grads[0], [2.0])
    assert np.array_equal(grads[1], [-1.0])
    assert np.array_equal(node_mean(grads), [0.5])
    info = p.smoothness()
    assert info.L_i == (2.0, 1.0)
    assert info.L == 1.0
    assert info.L_max == 2.0
    assert p.n == 2 and p.d == 1


def test_logistic_pinned_at_origin():
    p = Problem("logistic", stack([(np.array([[1.0, -1.0]]), np.array([1.0]))]), reg="l2", lam=0.5)
    value, grads = p.evaluate(np.zeros(2))
    assert value == pytest.approx(np.log(2.0))
    # gradient at 0: -0.5 * label * features / m, reg gradient vanishes
    assert np.allclose(node_mean(grads), [-0.5, 0.5])


def test_linreg_pinned_single_sample():
    p = Problem("linreg_nonconvex", stack([(np.array([[1.0]]), np.array([2.0]))]), lam=0.0)
    value, grads = p.evaluate(np.zeros(1))
    # squared residual without the conventional 1/2
    assert value == 4.0
    assert np.array_equal(node_mean(grads), [-4.0])


def test_zero_lambda_objective_is_finite_far_out():
    # 0 * r(x) read nan once x.x overflowed; with lam = 0 there is no term
    rng = np.random.default_rng(3)
    shards = _random_shards(rng, 3, 4, 6)
    x = np.full(4, 1e200)
    for reg in ("l2", "nonconvex"):
        with np.errstate(over="ignore", invalid="ignore"):
            value, grads = Problem("logistic", stack(shards), reg=reg, lam=0.0).evaluate(x)
        assert np.isfinite(value) and np.isfinite(grads).all()
        losses = [np.logaddexp(0.0, -b * (a @ x)).mean() for a, b in shards]
        assert value == pytest.approx(np.mean(losses), rel=1e-12)


def test_nonconvex_regularizer_is_d_far_out():
    # each term x_j^2 / (1 + x_j^2) is below 1, but once x_j^2 overflows the
    # quotient is inf / inf: r(x) read nan at |x_j| >~ 1.34e154 for any lam
    p = Problem("logistic", stack([(np.zeros((1, 3)), np.array([1.0]))]), reg="nonconvex", lam=0.1)
    loss = p.evaluate(np.zeros(3))[0]  # ln 2, the value with r(0) = 0
    with np.errstate(over="ignore", invalid="ignore"):
        value, grads = p.evaluate(np.full(3, 1e200))
    assert value == loss + 0.1 * 3.0
    assert np.isfinite(grads).all()
    # at an ordinary point r keeps the bits of the plain quotient
    x = np.array([0.5, -1.5, 2.0])
    sq = x * x
    assert p.evaluate(x)[0] == loss + 0.1 * np.sum(sq / (1.0 + sq))


def test_regularizer_gradients():
    shards = [(np.zeros((2, 3)), np.array([1.0, -1.0]))]
    x = np.array([0.5, -1.5, 2.0])
    for reg in ("l2", "nonconvex"):
        p = Problem("logistic", stack(shards), reg=reg, lam=2.0)
        fd = _fd_gradient(lambda y: p.evaluate(y)[0], x)
        assert _rel_err(fd, node_mean(p.evaluate(x)[1])) <= 1e-5
    p_l2 = Problem("logistic", stack(shards), reg="l2", lam=2.0)
    assert np.allclose(node_mean(p_l2.evaluate(x)[1]), 2.0 * x + np.array([-0.0, 0.0, 0.0]))


def test_evaluate_stacks_gradients_in_node_order():
    rng = np.random.default_rng(8)
    shards = _random_shards(rng, 3, 4, 5)
    p = Problem("logistic", stack(shards))
    x = rng.standard_normal(4)
    stacked = p.evaluate(x)[1]
    assert stacked.shape == (3, 4)
    for i in range(3):
        assert np.array_equal(stacked[i], Problem("logistic", stack([shards[i]])).evaluate(x)[1][0])


@pytest.mark.parametrize("kind", ["logistic", "linreg_nonconvex"])
def test_evaluate_returns_arrays_no_later_evaluation_writes(kind):
    rng = np.random.default_rng(31)
    p = Problem(kind, stack(_random_shards(rng, 4, 5, 7, regression=kind != "logistic")), lam=0.1)
    x1, x2 = rng.standard_normal((2, 5))
    g1 = p.evaluate(x1)[1]
    f3, g3 = p.evaluate(np.stack([x1, x2, x1]))
    held = g1.copy(), f3.copy(), g3.copy()
    p.evaluate(x2)
    p.evaluate(np.stack([x2, x1, x2]))
    for array, copy in zip((g1, f3, g3), held):
        assert array.tobytes() == copy.tobytes()


@pytest.mark.parametrize("kind", ["logistic", "linreg_nonconvex"])
def test_stacks_that_shrink_evaluate_each_point_as_alone(kind):
    # one problem evaluates stacks of 6 points, then 3, then one point; each
    # point's numbers match a problem that only ever saw lone points
    rng = np.random.default_rng(32)
    shards = _random_shards(rng, 4, 5, 7, regression=kind != "logistic")
    p, fresh = (Problem(kind, stack(shards), reg="nonconvex", lam=0.1) for _ in range(2))
    x = 3.0 * rng.standard_normal((6, 5))
    alone = [fresh.evaluate(point) for point in x]
    for rows in (6, 3):
        f, grads = p.evaluate(x[:rows])
        for r in range(rows):
            assert f[r].tobytes() == np.float64(alone[r][0]).tobytes(), (rows, r)
            assert grads[r].tobytes() == alone[r][1].tobytes(), (rows, r)
    f, grads = p.evaluate(x[4])
    assert (f, grads.tobytes()) == (alone[4][0], alone[4][1].tobytes())


def test_evaluate_and_smoothness_make_no_row_sized_temporaries():
    # 40 nodes of 600 rows in d = 60: each (n, m_max) row array is 188 KiB,
    # past glibc's default 128 KiB mmap threshold, so a temporary that size
    # would be mapped and faulted in afresh at each call. A warm evaluate
    # writes its rows into the problem's buffers, and smoothness holds one
    # node's 60 x 60 Gram at a time
    rng = np.random.default_rng(40)
    p = Problem("logistic", stack(_random_shards(rng, 40, 60, 600)), lam=0.1)
    row_array = 40 * 600 * 8
    gram = 60 * 60 * 8
    x = rng.standard_normal((3, 60))
    p._evaluate(x)  # the first call makes the row buffers
    tracemalloc.start()
    try:
        peaks = []
        for point in (x, x[:2], x[0]):
            tracemalloc.reset_peak()
            p._evaluate(point)
            peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        p.smoothness()
        smoothness_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(peaks) < row_array, peaks
    assert smoothness_peak < 3 * gram, smoothness_peak


def test_unequal_shards_match_per_shard_reference():
    # shards of different sizes exercise the zero padding of the stacked block
    rng = np.random.default_rng(17)
    lam = 0.1
    for kind in ("logistic", "linreg_nonconvex"):
        shards = []
        for i, m in enumerate((3, 7, 5)):
            labels = rng.standard_normal(m) if kind != "logistic" else np.where(
                rng.random(m) < 0.5, 1.0, -1.0
            )
            shards.append((rng.standard_normal((m, 4)), labels))
        p = Problem(kind, stack(shards), reg="l2", lam=lam)
        for _ in range(5):
            x = rng.standard_normal(4)
            f, grads = p.evaluate(x)
            values = []
            for i, (a, b) in enumerate(shards):
                z = a @ x
                if kind == "logistic":
                    value = np.logaddexp(0.0, -b * z).mean()
                    grad = -(a.T @ (b / (1.0 + np.exp(b * z)))) / b.size
                else:
                    value = float((z - b) @ (z - b)) / b.size
                    grad = 2.0 * (a.T @ (z - b)) / b.size
                value += lam * 0.5 * float(x @ x)
                values.append(value)
                node = Problem(kind, stack([(a, b)]), reg="l2", lam=lam)
                assert node.evaluate(x)[0] == pytest.approx(value, rel=1e-12)
                assert _rel_err(grads[i], grad + lam * x) <= 1e-12
            assert f == pytest.approx(np.mean(values), rel=1e-12)
            assert f == p.evaluate(x)[0]


# margins where softplus and its slope change regime: 36 and 37 bracket
# exp(-|t|) < eps, 709 and 710 the overflow of exp(|t|), 800 and 1e300 lie past it
ORACLE_MARGINS = (0.0, 1e-300, 1.0, 36.0, 37.0, 709.0, 710.0, 800.0, 1e300)


def test_logistic_rows_match_a_50_digit_oracle():
    # one row per signed margin and label; x = 1 carries each margin in the
    # feature, so the l2 term stays 1/2. Node 1 has one row, so the rest of
    # its slab is padding.
    margins = np.array([s * m for m in ORACLE_MARGINS for s in (1.0, -1.0)])
    margins = np.concatenate([margins, margins])
    labels = np.repeat([1.0, -1.0], margins.size // 2)
    p = Problem("logistic", stack([(margins[:, None], labels), (np.ones((1, 1)), np.ones(1))]), reg="l2", lam=1.0)
    x = np.ones(1)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        loss, slope = p._rows(p._A @ x)
        value, grads = p.evaluate(x)
    assert np.isfinite(value) and np.isfinite(grads).all()
    assert np.all(slope[1, 1:] == 0.0)  # padding rows add nothing to a gradient
    eps = np.finfo(np.float64).eps
    with mpmath.workdps(50):
        for z, b, got_loss, got_slope in zip(margins, labels, loss[0], slope[0]):
            t = -mpmath.mpf(b) * mpmath.mpf(z)
            want_loss = float(mpmath.log1p(mpmath.exp(t)))
            want_slope = float(-b / (1 + mpmath.exp(-t)))
            # each reference is the 50-digit value rounded to a float, so one that
            # rounds to 0 or to a subnormal leaves no slack: it must be met exactly
            assert abs(got_slope - want_slope) <= 4 * eps * abs(want_slope), (z, b)
            assert abs(got_loss - want_loss) <= 4 * eps * abs(want_loss), (z, b)


def test_smoothness_bounds_gradient_lipschitz():
    rng = np.random.default_rng(21)
    for kind in ("logistic", "linreg_nonconvex"):
        shards = _random_shards(rng, 3, 5, 12, regression=kind != "logistic")
        p = Problem(kind, stack(shards), reg="l2", lam=0.05)
        info = p.smoothness()
        assert info.L == pytest.approx(np.mean(info.L_i))
        assert info.L_max == max(info.L_i)
        for _ in range(1000):
            x = rng.standard_normal(5) * 2.0
            y = rng.standard_normal(5) * 2.0
            gap = np.linalg.norm(x - y)
            gx, gy = p.evaluate(x)[1], p.evaluate(y)[1]
            for i in range(p.n):
                lhs = np.linalg.norm(gx[i] - gy[i])
                assert lhs <= (info.L_i[i] + 1e-6) * gap


def test_smoothness_spectral_term_matches_svd():
    rng = np.random.default_rng(4)
    feats = rng.standard_normal((9, 4))
    p = Problem("logistic", stack([(feats, np.ones(9))]), lam=0.0)
    info = p.smoothness()
    spectral_sq = np.linalg.svd(feats, compute_uv=False)[0] ** 2
    assert info.L_i[0] == pytest.approx(spectral_sq / (4.0 * 9.0), rel=1e-6)


def test_smoothness_reg_curvature_scales_with_kind():
    block = stack([(np.ones((2, 2)), np.array([1.0, -1.0]))])
    lam = 0.75
    l2 = Problem("logistic", block, reg="l2", lam=lam).smoothness()
    nc = Problem("logistic", block, reg="nonconvex", lam=lam).smoothness()
    # the bounded regularizer has curvature up to 2 per unit weight
    assert nc.L_i[0] - l2.L_i[0] == pytest.approx(lam)


def test_validation_errors():
    with pytest.raises(ConfigurationError):
        Problem("cubic")
    with pytest.raises(ConfigurationError, match="^logistic needs a block of data$"):
        Problem("logistic")
    with pytest.raises(ConfigurationError):
        Problem("logistic", stack(_random_shards(np.random.default_rng(0), 2, 3, 4)), reg="l1")
    with pytest.raises(ConfigurationError):
        Problem("quad_counterexample", quad_params=(1.0, 2.0))
    with pytest.raises(ConfigurationError):
        Problem("quad_counterexample", stack(_random_shards(np.random.default_rng(0), 1, 2, 2)))
    with pytest.raises(ConfigurationError):
        Problem("logistic", stack(_random_shards(np.random.default_rng(0), 2, 3, 4)), lam=-1.0)


# id: (pairs, message) of each block stack refuses
BAD_PAIRS = {
    "no-shards": ([], "a block needs at least one shard"),
    "features-1d": ([(np.ones(2), np.ones(2))], r"shard 0 features must be 2-d, got shape \(2,\)"),
    "features-3d": ([(np.ones((2, 2)), np.ones(2)), (np.ones((1, 2, 2)), np.ones(1))], "shard 1 features must be 2-d"),
    "too-few-labels": ([(np.ones((2, 2)), np.ones(1))], "shard 0 label count must match its feature row count"),
    "labels-2d": ([(np.ones((2, 2)), np.ones((2, 1)))], "shard 0 label count must match"),
    "empty-shard": ([(np.ones((2, 2)), np.ones(2)), (np.zeros((0, 2)), np.zeros(0))], "shard 1 is empty"),
    "nan-feature": ([(np.array([[1.0, np.nan]]), np.ones(1))], "shard 0 holds a non-finite value"),
    "infinite-label": ([(np.ones((1, 2)), np.ones(1)), (np.ones((1, 2)), np.array([-np.inf]))], "shard 1 holds a non-finite"),
    "dimensions-differ": (
        [(np.ones((2, 2)), np.array([1.0, -1.0])), (np.ones((2, 3)), np.array([1.0, -1.0]))],
        r"shards disagree on dimension: \[2, 3\]",
    ),
}


@pytest.mark.parametrize("pairs, message", BAD_PAIRS.values(), ids=BAD_PAIRS)
def test_stack_rejects_a_malformed_shard(pairs, message):
    with pytest.raises(ConfigurationError, match=message):
        stack(pairs)


def test_smoothness_is_exact_where_power_iteration_fell_short():
    # the fixture recipe drawn as the benchmark's stepsize probe draws it
    # (seed 268), where a power iteration that stopped on a 1e-8 change of
    # its Rayleigh quotient left L 3.0e-3 low
    rng = np.random.default_rng(np.random.SeedSequence(268).spawn(2)[0])
    features = rng.standard_normal((500, 20))
    margins = features @ rng.standard_normal(20) + 0.5 * rng.standard_normal(500)
    labels = np.where(margins > np.median(margins), 1.0, -1.0)
    flipped = rng.choice(500, size=75, replace=False)
    labels[flipped] = -labels[flipped]
    shards = [(scale(a), b) for a, b in split(features, labels, 10)]
    lam = 1e-4
    info = Problem("logistic", stack(shards), reg="l2", lam=lam).smoothness()
    for (a, b), L_i in zip(shards, info.L_i):
        exact = np.linalg.norm(a, 2) ** 2
        assert abs((L_i - lam) * 4.0 * b.size / exact - 1.0) <= 1e-12


def test_smoothness_uses_the_smaller_gram_side():
    # d > m: the m x m Gram carries the same largest eigenvalue
    rng = np.random.default_rng(5)
    shards = [(rng.standard_normal((3 + i, 40)), np.ones(3 + i)) for i in range(3)]
    info = Problem("linreg_nonconvex", stack(shards), lam=0.0).smoothness()
    for (a, b), L_i in zip(shards, info.L_i):
        assert L_i == pytest.approx(2.0 * np.linalg.norm(a, 2) ** 2 / b.size, rel=1e-12)


def test_evaluate_rejects_a_point_of_the_wrong_dimension():
    problem = Problem("quad_counterexample")
    for x in (np.zeros(2), np.zeros((3, 2))):
        with pytest.raises(ConfigurationError, match="x has dimension 2, problem has 1"):
            problem.evaluate(x)
