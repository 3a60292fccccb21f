"""Vector primitives shared by every algorithm: the clipping projection,
deterministic contractive compressors, and the common node-mean reduction.

Everything here is float64 and pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

_TINY = float(np.finfo(np.float64).tiny)  # the smallest normal float64
_TINY_NORM = math.sqrt(_TINY)  # below it a row's square can fall out of the normal range

__all__ = [
    "check_count",
    "check_real",
    "check_vector",
    "clip",
    "clip_rows",
    "Compressor",
    "compress",
    "compress_rows",
    "node_mean",
    "rms_rows",
]


def check_vector(x, stack: bool = False) -> np.ndarray:
    """Coerce to a 1-d float64 array, rejecting NaN/Inf components; with
    stack, a 2-d (R, d) stack of such vectors is accepted as well."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 and not (stack and arr.ndim == 2):
        raise ConfigurationError(f"expected a 1-d vector{' or a 2-d stack' if stack else ''}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ConfigurationError("vector has non-finite components")
    return arr


# kind: (what the value must do, the test it must pass); NaN fails every test
_REAL_KINDS = {
    "positive": ("be a positive real", lambda v: 0.0 < v < math.inf),
    "non-negative": ("be a finite non-negative real", lambda v: 0.0 <= v < math.inf),
    "(0, 1]": ("lie in (0, 1]", lambda v: 0.0 < v <= 1.0),
    "(0, 1)": ("lie in (0, 1)", lambda v: 0.0 < v < 1.0),
    "finite": ("be a finite real", lambda v: -math.inf < v < math.inf),
}


def check_real(name: str, value, kind: str = "positive") -> float:
    """value as a float in the range kind names, rejecting NaN and +-inf."""
    wording, ok = _REAL_KINDS[kind]
    v = float(value)
    if not ok(v):
        raise ConfigurationError(f"{name} must {wording}, got {v}")
    return v


def check_count(name: str, value, least: int = 1) -> int:
    """value as an int >= least. Integral floats such as 10.0 and numpy
    ints pass; fractions, NaN and +-inf do not."""
    if not float(value).is_integer():
        raise ConfigurationError(f"{name} must be an integer, got {value}")
    n = int(value)
    if n < least:
        bound = "be non-negative" if least == 0 else f"be >= {least}"
        raise ConfigurationError(f"{name} must {bound}, got {value}")
    return n


def clip(x, tau) -> np.ndarray:
    """Project x onto the closed ball of radius tau.

    Any input inside the ball, the boundary ``||x|| == tau`` included,
    is scaled by exactly 1 and comes back as a bit-identical copy; the
    zero vector never reaches a division by its norm.
    """
    return clip_rows(check_vector(x)[None, :], check_real("clip threshold", tau))[0][0]


def clip_rows(rows: np.ndarray, tau: float, out=None):
    """clip applied to every row (last axis) of an (..., d) array at once.

    Returns the clipped rows and the mask of rows that were scaled, written
    into out = (clipped, mask) when given; clipped must not overlap rows. A
    row inside the ball is scaled by tau/tau, exactly 1, so it comes back
    bit-identical. Each row's norm is the same einsum whatever the leading
    shape, so a row clips to the same bits alone or in a stack. tau is
    trusted here: finite and positive.
    """
    sq = np.asarray(np.einsum("...j,...j->...", rows, rows))  # an array even for one row
    if tau < _TINY_NORM:
        # only so small a tau lets through a nonzero row whose square fell
        # below the normal range: an inf sum sends it down the scaled route
        sq[(sq < _TINY) & (rows != 0).any(axis=-1)] = np.inf
    # a finite row past about 1.3e154 overflows its square; a finite sum of
    # the squares rules that out in one call
    if not math.isfinite(np.add.reduce(sq, axis=None)) and np.isinf(sq).any():
        norms = rms_rows(rows, sq)
    else:
        norms = np.sqrt(sq, out=sq)
    clipped, mask = (np.empty_like(rows), None) if out is None else out
    mask = np.greater(norms, tau, out=mask)
    scale = np.divide(tau, np.maximum(norms, tau, out=norms), out=norms)
    # each row's scale at every entry first: numpy copies a broadcast operand
    # into a buffer of up to 8 192 elements, allocated and freed every call
    np.copyto(clipped, scale[..., None])
    return np.multiply(rows, clipped, out=clipped), mask


def rms_rows(rows, sq, n=1):
    """sqrt(sq / n), sq the plain sums of squares of rows along the last
    axis; where that is not finite on finite rows, it is formed from the
    rows scaled by their largest entry, so no finite row overflows it."""
    out = np.sqrt(sq / n, out=np.empty(np.shape(sq)))
    if math.isfinite(np.add.reduce(out, axis=None)):  # no row to redo
        return out
    redo = ~np.isfinite(out) & np.isfinite(rows).all(axis=-1)
    top = np.abs(rows[redo]).max(axis=-1, keepdims=True)
    out[redo] = top[..., 0] * np.sqrt(np.vecdot(rows[redo] / top, rows[redo] / top) / n)
    return out


@dataclass(frozen=True)
class Compressor:
    """Deterministic contractive compressor, either identity or top-k.

    ``alpha(d)`` is the contraction parameter: 1 for identity, k/d for
    top-k on dimension d.
    """

    kind: str
    k: int | None = None

    def __post_init__(self):
        if self.kind == "identity":
            if self.k is not None:
                raise ConfigurationError("identity compressor takes no k")
        elif self.kind == "top_k":
            try:
                object.__setattr__(self, "k", check_count("k", self.k))
            except (TypeError, ValueError):
                raise ConfigurationError("top_k compressor needs a positive integer k") from None
        else:
            raise ConfigurationError(f"unknown compressor kind {self.kind!r}")

    def alpha(self, d: int) -> float:
        if self.kind == "identity":
            return 1.0
        if self.k > d:
            raise ConfigurationError(f"top_k with k={self.k} exceeds dimension {d}")
        return self.k / d


def compress(c: Compressor, x) -> np.ndarray:
    """Apply the compressor. Top-k keeps the k largest magnitudes; ties keep
    the lower index, which makes the output platform-independent."""
    arr = check_vector(x)
    c.alpha(arr.size)  # rejects k > d
    return compress_rows(c, arr[None, :])[0]


def compress_rows(c: Compressor, rows: np.ndarray, out=None) -> np.ndarray:
    """compress applied to every row (last axis) of an (..., d) array at once,
    written into out when given, which must not overlap rows.

    Top-k selects rather than sorts: a row keeps every entry whose
    magnitude exceeds its k-th largest, then the lowest-index entries tied
    with it until k are kept, exactly what a stable sort on -|x| keeps.
    A NaN would not rank as that sort ranks it, so rows must hold none.
    The magnitudes, each row's k-th largest and the running count of ties
    are formed in out, so the only temporaries of the rows' size are
    boolean, and no call has a broadcast operand (see clip_rows).
    """
    out = np.empty_like(rows) if out is None else out
    if c.kind == "identity" or c.k >= rows.shape[-1]:
        np.copyto(out, rows)
        return out
    kth = rows.shape[-1] - c.k
    np.abs(rows, out=out)
    out.partition(kth, axis=-1)
    np.copyto(out, out[..., kth, None].copy())  # each row's k-th largest, cut, at every entry
    # with cut >= 0, |x| > cut is x > cut or x < -cut, and |x| == cut is x == cut or x == -cut
    above, tied = np.greater(rows, out), np.equal(rows, out)
    flip = np.less(rows, np.negative(out, out=out))
    np.logical_or(above, flip, out=above)
    np.logical_or(tied, np.equal(rows, out, out=flip), out=tied)
    # keep = above | (tied & (count of ties so far <= room)), room = k - count
    # of above. Both counts are whole numbers summed in out (a sum of the
    # bools would cast them, through a buffer), and the count of ties less the
    # room is the running sum of the ties with the first term lowered by room
    np.copyto(out, above)
    room = c.k - np.add.reduce(out, axis=-1)
    np.copyto(out, tied)
    np.subtract(out[..., 0], room, out=out[..., 0])
    np.less_equal(np.add.accumulate(out, axis=-1, out=out), 0.0, out=flip)
    dropped = np.logical_not(np.logical_or(above, np.logical_and(tied, flip, out=tied), out=above), out=above)
    np.copyto(out, rows)
    np.copyto(out, 0.0, where=dropped)
    return out


def node_mean(rows: np.ndarray) -> np.ndarray:
    """Mean over the node axis of an (n, d) array, or of each (n, d) block
    of a stack of them, such as (R, n, d).

    Every aggregation in the package goes through this one reduction so
    that objective gradients and optimizer averages agree bitwise. The
    node axis is summed in order, one row after another, so a block's
    mean has the same bits alone or in a stack.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim < 2:
        raise ConfigurationError(f"expected an (n, d) array or a stack of them, got shape {rows.shape}")
    # the same sum-then-divide as rows.mean(axis=-2), without its overhead
    return np.add.reduce(rows, axis=-2) / rows.shape[-2]
