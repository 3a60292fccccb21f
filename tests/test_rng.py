"""Deterministic noise stream behavior."""

import numpy as np
import pytest

from clipshift import ConfigurationError, gaussian_block, gaussian_sample
from clipshift.rng import stream_slot


def test_same_coordinates_same_draw():
    a = gaussian_sample(3, 1, 7, 16, 0.5)
    b = gaussian_sample(3, 1, 7, 16, 0.5)
    assert np.array_equal(a, b)


def test_streams_are_distinct():
    base = gaussian_sample(3, 1, 7, 16, 1.0)
    assert not np.array_equal(base, gaussian_sample(4, 1, 7, 16, 1.0))
    assert not np.array_equal(base, gaussian_sample(3, 2, 7, 16, 1.0))
    assert not np.array_equal(base, gaussian_sample(3, 1, 8, 16, 1.0))


def test_block_rows_match_per_node_draws():
    block = gaussian_block(11, 4, 5, 9, 0.3)
    for i in range(5):
        assert np.array_equal(block[i], gaussian_sample(11, i, 4, 9, 0.3))


def test_sigma_zero_is_exact_zeros():
    assert np.array_equal(gaussian_sample(1, 0, 0, 7, 0.0), np.zeros(7))
    assert np.array_equal(gaussian_block(1, 0, 3, 7, 0.0), np.zeros((3, 7)))


def test_sigma_scales_bitwise():
    unit = gaussian_sample(5, 2, 9, 11, 1.0)
    assert np.array_equal(gaussian_sample(5, 2, 9, 11, 2.0), 2.0 * unit)
    assert np.array_equal(gaussian_sample(5, 2, 9, 11, 0.3), 0.3 * unit)


def test_odd_dimension_supported():
    out = gaussian_sample(1, 0, 0, 5, 1.0)
    assert out.shape == (5,)
    assert np.isfinite(out).all()


def test_moments_of_a_large_draw():
    # single-coordinate moments over 10^6 draws
    draws = gaussian_sample(202, 0, 0, 1_000_000, 1.0)
    assert abs(draws.mean()) <= 5.0 / 1000.0
    assert 0.99 <= draws.var() <= 1.01


def test_draws_are_finite_and_spread():
    draws = gaussian_sample(77, 3, 1, 4096, 1.0)
    assert np.isfinite(draws).all()
    # Box-Muller with the (0,1] guard cannot produce astronomical values
    assert np.abs(draws).max() < 10.0
    assert np.abs(draws).max() > 2.0


def test_invalid_arguments_rejected():
    with pytest.raises(ConfigurationError):
        gaussian_sample(-1, 0, 0, 4, 1.0)
    with pytest.raises(ConfigurationError):
        gaussian_sample(0, -2, 0, 4, 1.0)
    with pytest.raises(ConfigurationError):
        gaussian_sample(0, 0, 0, 0, 1.0)
    with pytest.raises(ConfigurationError):
        gaussian_sample(0, 0, 0, 4, -1.0)
    with pytest.raises(ConfigurationError):
        gaussian_block(0, 0, 0, 4, 1.0)


def test_stream_slots_follow_the_node_ids():
    for n in (1, 2, 10):
        assert [stream_slot(n, use) for use in ("aggregate", "x0", "v_init")] == [n, n + 1, n + 2]
