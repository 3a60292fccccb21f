"""LibSVM-format ingestion and the heterogeneity-inducing preprocessing
chain: label sort, contiguous equal split across nodes, per-shard
standardization.

Feature storage is dense float64 regardless of how sparse the input file
is; target problems are desk-scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataFormatError
from .ops import check_count

__all__ = [
    "Dataset",
    "NodeShard",
    "parse_libsvm",
    "write_libsvm",
    "heterogeneous_split",
    "standard_scale",
]


@dataclass(frozen=True)
class Dataset:
    """Labeled sample matrix. Labels are +1/-1 only."""

    features: np.ndarray  # (m, d) float64
    labels: np.ndarray  # (m,) float64, each +1 or -1

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labs = np.asarray(self.labels, dtype=np.float64)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {feats.shape}")
        if labs.ndim != 1 or labs.shape[0] != feats.shape[0]:
            raise ValueError("label count must match feature row count")
        if feats.shape[0] < 1:
            raise ValueError("dataset must contain at least one sample")
        if not np.isfinite(feats).all():
            raise ValueError("features contain non-finite values")
        if not np.isin(labs, (-1.0, 1.0)).all():
            raise ValueError("labels must be +1 or -1")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def m(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class NodeShard:
    """One node's slice of a dataset.

    Unlike Dataset, labels here may be arbitrary reals so that synthetic
    regression targets can be used directly.
    """

    node_id: int
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labs = np.asarray(self.labels, dtype=np.float64)
        if feats.ndim != 2:
            raise ValueError(f"shard features must be 2-d, got shape {feats.shape}")
        if labs.ndim != 1 or labs.shape[0] != feats.shape[0]:
            raise ValueError("shard label count must match feature row count")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def m(self) -> int:
        return self.features.shape[0]


def _parse_label(token: str, line_number: int) -> float:
    if token in ("+1", "1"):
        return 1.0
    if token in ("-1", "0"):
        return -1.0
    raise DataFormatError(f"unrecognized label {token!r}", line_number)


def _iter_lines(source):
    if isinstance(source, str):
        return source.splitlines()
    if isinstance(source, bytes):
        return source.decode("utf-8").splitlines()
    return [line.rstrip("\r\n") for line in source]


def _parse_entries(tokens, line_number: int, indices: list, values: list) -> int:
    """Check one line's idx:val tokens in order and append their indices
    and values; returns the line's last index, 0 when it has none."""
    prev_index = 0
    for token in tokens:
        idx_text, sep, val_text = token.partition(":")
        if not sep:
            raise DataFormatError(f"expected idx:val, got {token!r}", line_number)
        try:
            index = int(idx_text)
        except ValueError:
            raise DataFormatError(f"bad feature index {idx_text!r}", line_number) from None
        if index < 1:
            raise DataFormatError(f"feature index must be >= 1, got {index}", line_number)
        if index <= prev_index:
            raise DataFormatError(
                f"feature index {index} not ascending after {prev_index}", line_number
            )
        try:
            value = float(val_text)
        except ValueError:
            raise DataFormatError(f"bad feature value {val_text!r}", line_number) from None
        if not math.isfinite(value):
            raise DataFormatError(f"non-finite feature value {val_text!r}", line_number)
        indices.append(index)
        values.append(value)
        prev_index = index
    return prev_index


def parse_libsvm(source) -> Dataset:
    """Parse LibSVM text: one `<label> <idx>:<val> ...` sample per line.

    Indices are 1-based and must be strictly ascending within a line; the
    feature count is the largest index seen anywhere. Accepts a string,
    bytes, or an iterable of lines (CRLF input is fine).
    """
    # one pass collects every entry flat; one scatter fills the dense matrix
    labels, counts, indices, values = [], [], [], []
    max_index = 0
    for line_number, raw in enumerate(_iter_lines(source), start=1):
        line = raw.strip()
        if not line:
            raise DataFormatError("blank line", line_number)
        tokens = line.split()
        labels.append(_parse_label(tokens[0], line_number))
        max_index = max(max_index, _parse_entries(tokens[1:], line_number, indices, values))
        counts.append(len(tokens) - 1)
    if not labels:
        raise DataFormatError("empty input", 1)
    if max_index == 0:
        raise DataFormatError("no feature indices found", 1)
    features = np.zeros((len(labels), max_index))
    features[np.repeat(np.arange(len(labels)), counts), np.array(indices) - 1] = values
    return Dataset(features, np.array(labels))


def write_libsvm(ds: Dataset) -> str:
    """Serialize a Dataset back to LibSVM text.

    Zero entries are omitted except on the first row, which is written
    densely so the feature count survives a round trip even when a whole
    column is zero.
    """
    lines = []
    for r in range(ds.m):
        parts = ["+1" if ds.labels[r] > 0 else "-1"]
        for j in range(ds.d):
            value = ds.features[r, j]
            if r == 0 or value != 0.0:
                parts.append(f"{j + 1}:{value:.17g}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def heterogeneous_split(ds: Dataset, n: int) -> list[NodeShard]:
    """Stable label-ascending sort, then contiguous split into n shards.

    Shard sizes differ by at most one; the first (m mod n) shards take the
    extra sample. The sort puts the -1 block before the +1 block, which is
    what makes the shards heterogeneous. The shards are row slices (views)
    of one private sorted copy, so they never alias the caller's Dataset,
    and the Dataset can be released while they live.
    """
    n = check_count("node count", n)
    if n > ds.m:
        raise ConfigurationError(f"cannot split {ds.m} samples across {n} nodes")
    order = np.argsort(ds.labels, kind="stable")
    feats = ds.features[order]
    labs = ds.labels[order]
    base, extra = divmod(ds.m, n)
    shards = []
    start = 0
    for i in range(n):
        size = base + (1 if i < extra else 0)
        shards.append(
            NodeShard(
                node_id=i,
                features=feats[start : start + size],
                labels=labs[start : start + size],
            )
        )
        start += size
    return shards


def standard_scale(shard: NodeShard) -> NodeShard:
    """Per-feature standardization within one shard.

    Subtracts the column mean and divides by the population standard
    deviation (divisor m, not m-1). Zero-variance columns are centered and
    left at zero; no division happens for them.
    """
    if shard.m < 1:
        raise ConfigurationError("cannot scale an empty shard")
    mean = shard.features.mean(axis=0)
    std = shard.features.std(axis=0)
    scaled = shard.features - mean
    nonzero = std > 0.0
    scaled[:, nonzero] /= std[nonzero]
    scaled[:, ~nonzero] = 0.0
    return NodeShard(node_id=shard.node_id, features=scaled, labels=shard.labels.copy())
