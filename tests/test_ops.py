"""Clip, compressor, and aggregation behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clipshift import Compressor, ConfigurationError, clip, compress, node_mean
from clipshift.ops import clip_rows, compress_rows


def test_clip_rescales_long_vectors():
    out = clip(np.array([3.0, 4.0]), 1.0)
    assert np.allclose(out, [0.6, 0.8])
    assert np.linalg.norm(out) == pytest.approx(1.0)


def test_clip_copies_short_vectors():
    x = np.array([0.3, -0.1])
    out = clip(x, 1.0)
    assert np.array_equal(out, x)
    out[0] = 99.0
    assert x[0] == 0.3  # caller's array untouched


def test_clip_boundary_is_identity():
    # single-coordinate vector puts the norm exactly on the threshold
    x = np.array([2.5])
    assert np.array_equal(clip(x, 2.5), x)


def test_clip_zero_vector():
    assert np.array_equal(clip(np.zeros(4), 0.5), np.zeros(4))


def test_clip_rejects_bad_threshold():
    for tau in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError):
            clip(np.ones(2), tau)


def test_clip_rejects_bad_vectors():
    with pytest.raises(ConfigurationError):
        clip(np.ones((2, 2)), 1.0)
    with pytest.raises(ConfigurationError):
        clip(np.array([1.0, np.nan]), 1.0)


def _random_triples(count):
    rng = np.random.default_rng(7011)
    for _ in range(count):
        d = int(rng.integers(1, 12))
        x = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3)
        tau = 10.0 ** rng.uniform(-3, 3)
        gamma = 10.0 ** rng.uniform(-3, 3)
        yield x, tau, gamma


@pytest.mark.parametrize("count", [10_000])
def test_clip_scaling_identity(count):
    # clip with threshold gamma*tau equals gamma times clip of x/gamma
    worst = 0.0
    for x, tau, gamma in _random_triples(count):
        left = clip(x, gamma * tau)
        right = gamma * clip(x / gamma, tau)
        scale = max(np.linalg.norm(left), 1e-300)
        worst = max(worst, np.linalg.norm(left - right) / scale)
    assert worst <= 1e-10


@pytest.mark.parametrize("count", [10_000])
def test_clip_error_norm_identity(count):
    # ||clip(x) - x|| equals max(0, ||x|| - tau)
    worst = 0.0
    for x, tau, _ in _random_triples(count):
        err = np.linalg.norm(clip(x, tau) - x)
        expect = max(0.0, np.linalg.norm(x) - tau)
        worst = max(worst, abs(err - expect) / max(expect, 1e-12))
    assert worst <= 1e-10


@pytest.mark.parametrize("count", [10_000])
def test_clip_error_square_identity(count):
    # for ||x|| >= tau the squared error is (1 - tau/||x||)^2 ||x||^2
    checked = 0
    for x, tau, _ in _random_triples(count):
        norm = np.linalg.norm(x)
        if norm < tau:
            continue
        err_sq = float(np.sum((clip(x, tau) - x) ** 2))
        expect = (1.0 - tau / norm) ** 2 * norm**2
        assert err_sq == pytest.approx(expect, rel=1e-10, abs=1e-300)
        checked += 1
    assert checked > 1000


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
    st.floats(1e-6, 1e6),
)
@settings(max_examples=200, deadline=None)
def test_clip_never_grows_norm(values, tau):
    x = np.array(values)
    out = clip(x, tau)
    assert np.linalg.norm(out) <= tau * (1.0 + 1e-12) or np.array_equal(out, x)
    assert np.linalg.norm(out) <= np.linalg.norm(x) * (1.0 + 1e-12)


def test_identity_compressor_is_copy():
    c = Compressor("identity")
    x = np.array([1.0, -2.0, 3.0])
    out = compress(c, x)
    assert np.array_equal(out, x)
    out[0] = 0.0
    assert x[0] == 1.0
    assert c.alpha(3) == 1.0


def test_top_k_keeps_largest_magnitudes():
    c = Compressor("top_k", 2)
    out = compress(c, np.array([1.0, -3.0, 2.0, 0.0]))
    assert np.array_equal(out, [0.0, -3.0, 2.0, 0.0])


def test_top_k_breaks_ties_by_position():
    c = Compressor("top_k", 1)
    out = compress(c, np.array([2.0, -2.0, 1.0]))
    assert np.array_equal(out, [2.0, 0.0, 0.0])


def test_top_k_full_dimension_is_identity():
    c = Compressor("top_k", 3)
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(compress(c, x), x)
    assert c.alpha(3) == 1.0


def test_top_k_alpha_and_validation():
    c = Compressor("top_k", 2)
    assert c.alpha(8) == pytest.approx(0.25)
    with pytest.raises(ConfigurationError):
        c.alpha(1)
    with pytest.raises(ConfigurationError):
        compress(c, np.array([1.0]))
    with pytest.raises(ConfigurationError):
        Compressor("top_k", 0)
    with pytest.raises(ConfigurationError):
        Compressor("middle_k", 1)
    with pytest.raises(ConfigurationError):
        Compressor("identity", 3)


@pytest.mark.parametrize("count", [10_000])
def test_top_k_contraction(count):
    # ||C(x) - x||^2 <= (1 - k/d) ||x||^2
    rng = np.random.default_rng(9344)
    for _ in range(count):
        d = int(rng.integers(2, 16))
        k = int(rng.integers(1, d + 1))
        x = rng.standard_normal(d)
        c = Compressor("top_k", k)
        err_sq = float(np.sum((compress(c, x) - x) ** 2))
        bound = (1.0 - k / d) * float(np.sum(x * x))
        assert err_sq <= bound * (1.0 + 1e-12) + 1e-300


def test_row_forms_match_a_per_row_loop():
    rng = np.random.default_rng(5150)
    rows = rng.standard_normal((8, 6)) * rng.uniform(0.05, 3.0, size=(8, 1))
    rows[0] = 0.0
    tau = 1.0
    clipped, active = clip_rows(rows, tau)
    k = 2
    kept = compress_rows(Compressor("top_k", k), rows)
    for i, row in enumerate(rows):
        norm = float(np.linalg.norm(row))
        assert active[i] == (norm > tau)
        if norm > tau:
            assert np.allclose(clipped[i], (tau / norm) * row, rtol=1e-15, atol=0.0)
        else:
            assert np.array_equal(clipped[i], row)
        keep = np.argsort(-np.abs(row), kind="stable")[:k]
        expect = np.zeros_like(row)
        expect[keep] = row[keep]
        assert np.array_equal(kept[i], expect)


def test_clip_rows_scales_a_row_whose_square_overflows():
    # the row's plain sum of squares overflows to inf, but its norm is 5e200;
    # the ordinary row beside it keeps the bits of the plain route
    rows = np.array([[3e200, 4e200], [3.0, 4.0], [0.3, 0.4]])
    clipped, active = clip_rows(rows, 1.0)
    assert clipped[0] == pytest.approx([0.6, 0.8], rel=1e-15)
    assert active.tolist() == [True, True, False]
    assert clipped[1].tobytes() == (rows[1] * (1.0 / np.sqrt(25.0))).tobytes()
    assert clipped[2].tobytes() == rows[2].tobytes()
    # alone or in a stack, the same bits
    assert clip_rows(rows[:1], 1.0)[0].tobytes() == clipped[:1].tobytes()


def test_clip_rows_scales_a_row_whose_square_underflows():
    # the row's plain sum of squares underflows to 0, but its norm is 5e-170,
    # five times tau; the zero row and the row inside the ball come back as
    # they went in
    rows = np.array([[3e-170, 4e-170], [0.0, 0.0], [3e-171, 4e-171]])
    clipped, active = clip_rows(rows, 1e-170)
    assert clipped[0] == pytest.approx([6e-171, 8e-171], rel=1e-15)
    assert active.tolist() == [True, False, False]
    assert clipped[1:].tobytes() == rows[1:].tobytes()
    # at an ordinary tau no such row can pass it
    assert clip_rows(rows, 1.0)[0].tobytes() == rows.tobytes()


@pytest.mark.parametrize("tau", [1.0, 1e-170])
def test_clip_rows_into_out_gives_the_same_bits(tau):
    rng = np.random.default_rng(77)
    rows = rng.standard_normal((3, 4, 5)) * np.array([1e-171, 0.2, 1e200])[:, None, None]
    before = rows.tobytes()
    clipped, active = clip_rows(rows, tau)
    out = (np.empty_like(rows), np.empty(rows.shape[:-1], dtype=bool))
    assert clip_rows(rows, tau, out=out) == out
    assert out[0].tobytes() == clipped.tobytes() and np.array_equal(out[1], active)
    assert rows.tobytes() == before


def _stable_sort_top_k(row, k):
    # the reference: a stable sort on -|x| ranks ties by index
    keep = np.argsort(-np.abs(row), kind="stable")[:k]
    out = np.zeros_like(row)
    out[keep] = row[keep]
    return out


@pytest.mark.parametrize("case", ["gaussian", "heavy-ties", "all-equal", "zeros", "signed-zeros", "infinities"])
def test_top_k_rows_match_a_stable_sort(case):
    rng = np.random.default_rng(6021)
    d = 9
    rows = {
        "gaussian": rng.standard_normal((30, d)),
        "heavy-ties": rng.integers(-2, 3, size=(30, d)).astype(float),
        "all-equal": np.where(rng.random((30, d)) < 0.5, -1.5, 1.5),
        "zeros": np.zeros((3, d)),
        "signed-zeros": rng.choice([0.0, -0.0, 0.25, -0.25], size=(30, d)),
        "infinities": rng.choice([np.inf, -np.inf, 1.0, -0.0], size=(30, d)),
    }[case]
    for k in (1, 2, d // 2, d - 1):
        kept = compress_rows(Compressor("top_k", k), rows)
        for i, row in enumerate(rows):
            # bytes, so that the sign of a kept -0.0 counts
            assert kept[i].tobytes() == _stable_sort_top_k(row, k).tobytes()


@pytest.mark.parametrize("c", [Compressor("top_k", 1), Compressor("top_k", 4), Compressor("identity")])
def test_compress_rows_into_out_gives_the_same_bits(c):
    rng = np.random.default_rng(78)
    rows = rng.choice([0.0, -0.0, 0.5, -0.5, 1.0, np.inf], size=(3, 7, 9))
    out = np.full_like(rows, np.nan)
    assert compress_rows(c, rows, out=out) is out
    assert out.tobytes() == compress_rows(c, rows).tobytes()


def test_node_mean_basics():
    rows = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(node_mean(rows), [2.0, 3.0])
    with pytest.raises(ConfigurationError):
        node_mean(np.ones(3))


def test_node_mean_single_row_is_exact():
    row = np.array([[0.1, -2.7, 3.9]])
    assert np.array_equal(node_mean(row), row[0])
