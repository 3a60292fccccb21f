"""Counter-based Gaussian noise.

Each draw is a pure function of (seed, node, step, coordinate): a 64-bit
key is derived from the first three by chaining a splitmix64-style
finalizer, the coordinate index acts as a counter into that stream, and
pairs of hashed words feed a Box-Muller transform. There is no mutable
generator state, so a single node at a single step can be replayed in
isolation and a whole round can be produced as one block with identical
bits. Noise for different nodes or steps never overlaps because the key
chain separates them before the counter is applied.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConfigurationError

__all__ = ["gaussian_sample", "gaussian_block", "stream_slot"]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# 0-d uint64 arrays: cheaper ufunc operands than numpy scalars
_GOLDEN_U, _M1_U, _M2_U, _S11, _S27, _S30, _S31 = (
    np.array(c, dtype=np.uint64)
    for c in (_GOLDEN, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 11, 27, 30, 31)
)


def _mix(z: np.ndarray) -> np.ndarray:
    # splitmix64 output permutation; uint64 array arithmetic wraps mod 2^64
    z = (z ^ (z >> _S30)) * _M1_U
    z = (z ^ (z >> _S27)) * _M2_U
    return z ^ (z >> _S31)


def _word(value: int) -> np.ndarray:
    # one-element array, so the wrapping multiply never sees a numpy scalar
    return np.array([value & _MASK], dtype=np.uint64)


@lru_cache(maxsize=256)
def _node_keys(seed: int, first: int, count: int) -> np.ndarray:
    """Seed-and-node part of the key chain for nodes first..first+count-1."""
    nodes = np.arange(first + 1, first + count + 1, dtype=np.uint64)
    keys = _mix(_mix(_word(seed + _GOLDEN)) ^ _mix(nodes * _GOLDEN_U))
    keys.flags.writeable = False  # shared by every caller of the cache
    return keys


# offsets past the n node ids of the draws that belong to no single node
_SLOT_OFFSETS = {"aggregate": 0, "x0": 1, "v_init": 2}


def stream_slot(n: int, use: str) -> int:
    """Stream slot (the ``node`` argument of gaussian_sample) of a draw
    that belongs to no single node. With n nodes every slot is allotted
    here, once, so no two uses share a stream:

    - 0..n-1: node i's own noise (dp-clip21-gd), in slot i;
    - n, "aggregate": dp-clip-gd's one aggregate noise vector per step;
    - n + 1, "x0": the start point of ``--x0 gaussian:SCALE`` (step 0);
    - n + 2, "v_init": the shift start of ``--v-init gaussian:SCALE`` (step 0).
    """
    return n + _SLOT_OFFSETS[use]


def _check_draw(seed: int, node: int, step: int, d: int, sigma: float):
    seed, node, step, d = int(seed), int(node), int(step), int(d)
    if seed < 0 or node < 0 or step < 0:
        raise ConfigurationError("seed, node, and step must be non-negative integers")
    if d < 1:
        raise ConfigurationError(f"dimension must be >= 1, got {d}")
    sigma = float(sigma)
    if not np.isfinite(sigma) or sigma < 0.0:
        raise ConfigurationError(f"sigma must be a finite non-negative real, got {sigma}")
    return seed, node, step, d, sigma


def _normal_rows(seed: int, first: int, count: int, step: int, d: int) -> np.ndarray:
    """(count, d) unit normals for nodes first..first+count-1 at one step.

    The key chain folds seed, node and step into one word per row; the
    coordinate index then counts into that stream, and Box-Muller turns
    consecutive word pairs into two normals, over the whole block at once.
    """
    keys = _mix(_node_keys(seed, first, count) ^ _mix(_word((step + 1) * _GOLDEN)))
    nwords = 2 * ((d + 1) // 2)
    idx = np.arange(nwords, dtype=np.uint64)
    words = _mix(idx * _GOLDEN_U + keys[:, None])
    hi = (words >> _S11).astype(np.float64)  # top 53 bits
    u1 = (hi[:, 0::2] + 1.0) * 2.0**-53  # in (0, 1], keeps the log finite
    u2 = hi[:, 1::2] * 2.0**-53  # in [0, 1)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * np.pi) * u2
    out = np.empty_like(hi)
    out[:, 0::2] = r * np.cos(theta)
    out[:, 1::2] = r * np.sin(theta)
    return out[:, :d]


def gaussian_sample(seed: int, node: int, step: int, d: int, sigma: float) -> np.ndarray:
    """d iid N(0, sigma^2) draws for one node at one step.

    sigma = 0 returns exact zeros without touching the hash.
    """
    seed, node, step, d, sigma = _check_draw(seed, node, step, d, sigma)
    if sigma == 0.0:
        return np.zeros(d)
    return sigma * _normal_rows(seed, node, 1, step, d)[0]


def gaussian_block(seed: int, step: int, n: int, d: int, sigma: float) -> np.ndarray:
    """(n, d) block for one step; row i is bit-identical to
    gaussian_sample(seed, i, step, d, sigma)."""
    n = int(n)
    if n < 1:
        raise ConfigurationError(f"node count must be >= 1, got {n}")
    seed, _, step, d, sigma = _check_draw(seed, 0, step, d, sigma)
    if sigma == 0.0:
        return np.zeros((n, d))
    return sigma * _normal_rows(seed, 0, n, step, d)

