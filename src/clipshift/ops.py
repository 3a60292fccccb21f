"""Vector primitives shared by every algorithm: the clipping projection,
deterministic contractive compressors, and the common node-mean reduction.

Everything here is float64 and pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

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


def clip_rows(rows: np.ndarray, tau: float):
    """clip applied to every row (last axis) of an (..., d) array at once.

    Returns the clipped rows and the mask of rows that were scaled. A row
    inside the ball is scaled by tau/tau, exactly 1, so it comes back
    bit-identical. Each row's norm is the same einsum whatever the leading
    shape, so a row clips to the same bits alone or in a stack. tau is
    trusted here: finite and positive.
    """
    norms = np.sqrt(np.einsum("...j,...j->...", rows, rows))
    scale = tau / np.maximum(norms, tau)
    return rows * scale[..., None], norms > tau


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


def compress_rows(c: Compressor, rows: np.ndarray) -> np.ndarray:
    """compress applied to every row (last axis) of an (..., d) array at once.

    Top-k selects rather than sorts: a row keeps every entry whose
    magnitude exceeds its k-th largest, then the lowest-index entries tied
    with it until k are kept, exactly what a stable sort on -|x| keeps.
    A NaN would not rank as that sort ranks it, so rows must hold none.
    """
    if c.kind == "identity" or c.k >= rows.shape[-1]:
        return rows.copy()
    mags = np.abs(rows)
    kth = rows.shape[-1] - c.k
    cut = np.partition(mags, kth, axis=-1)[..., kth, None]
    above = mags > cut
    tied = mags == cut
    room = c.k - above.sum(axis=-1, keepdims=True)
    keep = above | (tied & (np.cumsum(tied, axis=-1) <= room))
    return np.where(keep, rows, 0.0)


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
