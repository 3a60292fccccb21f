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
    with pytest.raises(ConfigurationError):
        gaussian_block(0, 0, 2, 4, 1.0, steps=0)


def test_stream_slots_follow_the_node_ids():
    for n in (1, 2, 10):
        assert [stream_slot(n, use) for use in ("aggregate", "x0", "v_init")] == [n, n + 1, n + 2]


@pytest.mark.parametrize("start", [0, 7, 1000])
@pytest.mark.parametrize("steps", [1, 3, 257])
def test_chunked_rows_match_per_step_draws(start, steps):
    # odd d and step counts that are no multiple of a SIMD width
    for n, d in ((10, 20), (3, 7), (1, 1)):
        block = gaussian_block(5, start, n, d, 0.3, steps=steps)
        sample = gaussian_sample(5, n, start, d, 0.7, steps=steps)
        assert block.shape == (steps, n, d) and sample.shape == (steps, d)
        for s in range(steps):
            assert np.array_equal(block[s], gaussian_block(5, start + s, n, d, 0.3))
            assert np.array_equal(sample[s], gaussian_sample(5, n, start + s, d, 0.7))


def test_chunk_step_words_wrap_like_a_lone_step():
    # the step word (step + 1) * golden is taken mod 2^64 either way
    chunk = gaussian_block(1, 2**64 - 3, 2, 3, 1.0, steps=5)
    assert np.array_equal(chunk[4], gaussian_block(1, 2**64 + 1, 2, 3, 1.0))
    assert np.array_equal(chunk[3], gaussian_block(1, 0, 2, 3, 1.0))


def test_seeds_and_node_words_past_64_bits_are_rejected():
    top = 2**64 - 1
    # the largest seed still draws, and not seed 0's stream; node id + 1 is hashed
    assert not np.array_equal(gaussian_sample(top, 0, 0, 4, 1.0), gaussian_sample(0, 0, 0, 4, 1.0))
    assert np.isfinite(gaussian_sample(0, top - 1, 0, 4, 1.0)).all()
    with pytest.raises(ConfigurationError, match=r"seed must be below 2\^64, got 18446744073709551616"):
        gaussian_sample(top + 1, 0, 0, 4, 1.0)
    with pytest.raises(ConfigurationError, match="seed must be below"):
        gaussian_block(top + 1, 0, 2, 4, 1.0, steps=3)
    for node in (top, top + 1):
        with pytest.raises(ConfigurationError, match=f"node must be below 2\\^64 - 1, got {node}"):
            gaussian_sample(0, node, 0, 4, 1.0)
    # a block's last node id is n - 1, checked before any allocation
    with pytest.raises(ConfigurationError, match=f"node must be below 2\\^64 - 1, got {top}"):
        gaussian_block(0, 0, top + 1, 4, 1.0)


def test_a_draw_into_kept_buffers_gives_the_draws_bits():
    # out and scratch carry nothing from one draw to the next
    out, scratch = np.empty((5, 3, 7)), np.empty(5 * 3 * 8, np.uint64)
    for step, sigma in ((0, 0.3), (5, 0.0), (11, 1.0)):
        drawn = gaussian_block(2, step, 3, 7, sigma, steps=5, out=out, scratch=scratch)
        assert drawn is out and np.array_equal(out, gaussian_block(2, step, 3, 7, sigma, steps=5))
    sample = gaussian_sample(2, 3, 4, 7, 0.3, out=np.empty(7), scratch=scratch)
    assert np.array_equal(sample, gaussian_sample(2, 3, 4, 7, 0.3))
    with pytest.raises(ConfigurationError, match="out must be a C-contiguous float64 array of shape"):
        gaussian_block(2, 0, 3, 7, 0.3, steps=5, out=np.empty((5, 3, 14))[..., ::2], scratch=scratch)
    with pytest.raises(ConfigurationError, match="scratch must be a C-contiguous uint64 array of 120 words"):
        gaussian_block(2, 0, 3, 7, 0.3, steps=5, out=out, scratch=scratch[:119])


@pytest.mark.parametrize(
    "draw",
    [
        lambda: gaussian_block(0, 0, 2**64 - 1, 4, 1.0),
        lambda: gaussian_block(0, 0, 2**62, 4, 0.0),
        lambda: gaussian_sample(0, 0, 0, 4, 1.0, steps=2**62),
        lambda: gaussian_sample(0, 0, 0, 2**62, 1.0),
    ],
    ids=["block-nodes", "block-zero-sigma", "sample-steps", "sample-dimension"],
)
def test_a_draw_past_the_address_space_raises_a_configuration_error(draw):
    # each of these draws holds more than 2^64 bytes, so numpy refuses the
    # array before touching memory
    with pytest.raises(ConfigurationError, match="noise draw of .* values cannot be allocated"):
        draw()


def test_zero_sigma_chunk_is_exact_zeros_without_hashing(monkeypatch):
    def unused(*args):
        raise AssertionError("a zero sigma reached the hash")

    monkeypatch.setattr("clipshift.rng._node_keys", unused)
    assert np.array_equal(gaussian_block(1, 0, 3, 7, 0.0, steps=4), np.zeros((4, 3, 7)))
    assert np.array_equal(gaussian_sample(1, 0, 9, 7, 0.0, steps=4), np.zeros((4, 7)))


def test_transcendentals_give_the_same_bits_at_any_length():
    # the chunked draw rests on this: Box-Muller's log, sqrt, cos and sin of
    # an entry must not depend on how many entries share its call (SIMD body
    # against tail), nor on where the entry sits in the array
    u = (np.arange(1, 1001, dtype=np.float64) * 0.7548776662466927) % 1.0 + 2.0**-53
    inputs = {np.log: u, np.sqrt: -2.0 * np.log(u), np.cos: 2.0 * np.pi * u, np.sin: 2.0 * np.pi * u}
    for fn, x in inputs.items():
        full = fn(x)
        for length in (1, 7, 64, 1000):
            for start in range(0, x.size - length + 1, 37):
                part = fn(x[start : start + length].copy())
                assert np.array_equal(part, full[start : start + length]), (fn.__name__, length, start)
