"""Counter-based Gaussian noise.

Each draw is a pure function of (seed, node, step, coordinate): a 64-bit
key is derived from the first three by chaining a splitmix64-style
finalizer, the coordinate index acts as a counter into that stream, and
pairs of hashed words feed a Box-Muller transform. There is no mutable
generator state, so a single node at a single step can be replayed in
isolation and a whole round can be produced as one block with identical
bits. Noise for different nodes or steps never overlaps because the key
chain separates them before the counter is applied.

With ``steps=S`` a draw covers S consecutive steps along a leading axis,
in one call: entry s has the bits of step ``step + s`` drawn alone, since
all work after the key chain is elementwise, and numpy's log, cos and sin
give the same bits at any array length.

A draw runs in place on two arrays: out, the C-contiguous float64 result,
and scratch, a C-contiguous uint64 array of 2 ceil(d/2) words a node and
step. The hash runs in scratch, Box-Muller's r in out's first half, and
its theta, cos and sin in scratch, with log, cos and sin reading
contiguous arrays; the pairs are then written into out. A caller that
keeps both (Batch.noise) allocates nothing of the draw's size after its
first draw; one that omits them gets new arrays, and a draw too large
for the address space raises ConfigurationError.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConfigurationError
from .ops import check_count, check_real

__all__ = ["gaussian_sample", "gaussian_block", "stream_slot"]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# 0-d uint64 arrays: cheaper ufunc operands than numpy scalars
_GOLDEN_U, _M1_U, _M2_U, _S11, _S27, _S30, _S31 = (
    np.array(c, dtype=np.uint64)
    for c in (_GOLDEN, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 11, 27, 30, 31)
)


def _mix(z: np.ndarray, spare: np.ndarray | None = None) -> np.ndarray:
    # splitmix64 output permutation, in place, with spare of z's shape for
    # the shifted words; uint64 array arithmetic wraps mod 2^64
    spare = np.empty_like(z) if spare is None else spare
    np.bitwise_xor(z, np.right_shift(z, _S30, out=spare), out=z)
    np.multiply(z, _M1_U, out=z)
    np.bitwise_xor(z, np.right_shift(z, _S27, out=spare), out=z)
    np.multiply(z, _M2_U, out=z)
    return np.bitwise_xor(z, np.right_shift(z, _S31, out=spare), out=z)


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


def check_seed(seed, name: str = "seed") -> int:
    """seed as an int in [0, 2^64): a seed past 64 bits would share the
    stream of its value mod 2^64. name labels the non-negativity error."""
    seed = check_count(name, seed, 0)
    if seed > _MASK:
        raise ConfigurationError(f"seed must be below 2^64, got {seed}")
    return seed


def _check_draw(seed: int, last_node: int, step: int, d: int, sigma: float):
    # plain calls, not a loop: this runs once per chunk of noise. A node is
    # hashed as the 64-bit word node + 1; step words wrap mod 2^64
    checked = (
        check_seed(seed),
        check_count("node", last_node, 0),
        check_count("step", step, 0),
        check_count("dimension", d),
        check_real("sigma", sigma, "non-negative"),
    )
    if checked[1] >= _MASK:
        raise ConfigurationError(f"node must be below 2^64 - 1, got {last_node}")
    return checked


def _top_bits(keys: np.ndarray, parity: int, words: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """The top 53 bits of the hashed words 2j + parity of each row's
    stream, into words, (steps, rows, h); spare, of its shape, is the
    hash's spare. Broadcast copies, then a sum of whole arrays: a ufunc
    with a broadcast operand buffers it."""
    np.copyto(words, keys[..., None])
    np.copyto(spare, np.arange(parity, 2 * words.shape[-1], 2, dtype=np.uint64) * _GOLDEN_U)
    return np.right_shift(_mix(np.add(spare, words, out=words), spare), _S11, out=words)


def _normal_rows(seed: int, first: int, count: int, step: int, sigma: float, tail: tuple, steps, out, scratch):
    """sigma times unit normals for nodes first..first+count-1 at steps
    step..step+steps-1, of shape (steps,) + tail, or tail at step alone
    when steps is None, written into out and returned; tail is (count, d)
    or, for one node, (d,). sigma = 0 gives exact zeros without the hash.

    The key chain folds seed, node and step into one word per row (the
    step words wrap mod 2^64); the coordinate index then counts into that
    stream, and Box-Muller turns words 2j and 2j + 1 into columns 2j and
    2j + 1, over the whole chunk at once and in place: the even words'
    u1 becomes r in out's first half, the odd words' u2 becomes theta in
    scratch's second half, and cos and sin fill scratch before the
    products are laid out in out. log, cos and sin read contiguous arrays.
    """
    chunk, d = (1 if steps is None else check_count("steps", steps)), tail[-1]
    shape, half = tail if steps is None else (chunk,) + tail, chunk * count * ((d + 1) // 2)
    try:
        out = np.empty(shape) if out is None else out
        scratch = np.empty(2 * half, np.uint64) if scratch is None and sigma > 0.0 else scratch
    except (MemoryError, ValueError):  # ValueError: more bytes than an address space holds
        raise ConfigurationError(f"a noise draw of {chunk} x {count} x {d} values cannot be allocated") from None
    if out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ConfigurationError(f"out must be a C-contiguous float64 array of shape {shape}")
    if sigma == 0.0:
        out.fill(0.0)
        return out
    if scratch.dtype != np.uint64 or not scratch.flags.c_contiguous or scratch.size < 2 * half:
        raise ConfigurationError(f"scratch must be a C-contiguous uint64 array of {2 * half} words or more")
    step_words = (np.arange(chunk, dtype=np.uint64) + _word(step + 1)) * _GOLDEN_U
    keys = _mix(_node_keys(seed, first, count) ^ _mix(step_words)[:, None])
    rows, flat = out.reshape(chunk, count, d), scratch.reshape(-1)
    words, spare = (flat[i * half : (i + 1) * half].reshape(chunk, count, -1) for i in (0, 1))
    r, theta = out.reshape(-1)[:half].reshape(words.shape), spare.view(np.float64)
    np.copyto(r, _top_bits(keys, 0, words, spare))
    u1 = np.multiply(np.add(r, 1.0, out=r), 2.0**-53, out=r)  # in (0, 1], keeps the log finite
    np.sqrt(np.multiply(-2.0, np.log(u1, out=r), out=r), out=r)
    np.copyto(theta, _top_bits(keys, 1, words, spare))
    np.multiply(2.0 * np.pi, np.multiply(theta, 2.0**-53, out=theta), out=theta)  # u2 in [0, 1)
    cos = np.cos(theta, out=words.view(np.float64))
    np.multiply(r, cos, out=cos)
    np.multiply(r, np.sin(theta, out=theta), out=theta)
    rows[..., 0::2], rows[..., 1::2] = cos, theta[..., : d // 2]
    return np.multiply(sigma, out, out=out)


def gaussian_sample(
    seed: int, node: int, step: int, d: int, sigma: float, steps: int | None = None, *, out=None, scratch=None
) -> np.ndarray:
    """d iid N(0, sigma^2) draws for one node at one step; with steps=S,
    an (S, d) array whose row s is the draw at step step + s.

    sigma = 0 returns exact zeros without touching the hash. The draw is
    written into out, a C-contiguous float64 array of that shape, made
    when omitted; scratch, a C-contiguous uint64 array of at least
    2 ceil(d/2) words a step, holds the hash and half the Box-Muller work,
    and is made when omitted. Returns out.
    """
    seed, node, step, d, sigma = _check_draw(seed, node, step, d, sigma)
    return _normal_rows(seed, node, 1, step, sigma, (d,), steps, out, scratch)


def gaussian_block(
    seed: int, step: int, n: int, d: int, sigma: float, steps: int | None = None, *, out=None, scratch=None
) -> np.ndarray:
    """(n, d) block for one step; row i is bit-identical to
    gaussian_sample(seed, i, step, d, sigma). With steps=S, an (S, n, d)
    array whose entry s is the block of step step + s. out and scratch
    are as gaussian_sample's, scratch of at least n 2 ceil(d/2) words a
    step. Returns out."""
    n = check_count("node count", n)
    seed, _, step, d, sigma = _check_draw(seed, n - 1, step, d, sigma)
    return _normal_rows(seed, 0, n, step, sigma, (n, d), steps, out, scratch)
