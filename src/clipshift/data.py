"""LibSVM-format ingestion and the heterogeneity-inducing preprocessing
chain: label sort, contiguous equal split across nodes, per-shard
standardization.

read_libsvm checks the text and returns its entries as arrays. Two
consumers fill dense float64 storage from them, however sparse the input
file is (target problems are desk-scale): parse_libsvm builds a Dataset,
which heterogeneous_split and standard_scale take apart shard by shard;
node_block places each sample straight into its shard's slab of one
padded block and scales it there, the same values in one allocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DataFormatError
from .ops import check_count

__all__ = [
    "Dataset",
    "Entries",
    "NodeBlock",
    "NodeShard",
    "read_libsvm",
    "parse_libsvm",
    "node_block",
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
    return (line.rstrip("\r\n") for line in source)


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


class Entries(NamedTuple):
    """The samples of a LibSVM text in file order: a label and an entry
    count per line, and the entries in blocks of whole lines, each block
    (first line, end line, 0-based feature indices, float64 values)."""

    labels: np.ndarray  # (m,) float64, each +1 or -1
    counts: np.ndarray  # (m,) entries on each line
    blocks: list
    d: int  # the largest index seen anywhere


class NodeBlock(NamedTuple):
    """n shards in one zero-padded array: shard i fills the first sizes[i]
    rows of features[i] and labels[i], and its padding rows are zero."""

    features: np.ndarray  # (n, m_max, d) float64
    labels: np.ndarray  # (n, m_max) float64
    sizes: np.ndarray  # (n,) rows of each shard


# entries held as Python objects before they move to a block of arrays
_BLOCK_ENTRIES = 16384


def read_libsvm(source) -> Entries:
    """Read LibSVM text: one `<label> <idx>:<val> ...` sample per line.

    Indices are 1-based and must be strictly ascending within a line; the
    feature count is the largest index seen anywhere. Accepts a string,
    bytes, or an iterable of lines such as an open file, which is read one
    line at a time (CRLF input is fine). A malformed line raises
    DataFormatError with its line number. Once _BLOCK_ENTRIES values are
    held as Python objects, the lines since the last block move to a new
    block of arrays, so the blocks are never joined into one copy.
    """
    labels, counts, blocks = [], [], []
    indices, values = [], []  # the entries of the lines since the last block
    max_index = 0
    for line_number, raw in enumerate(_iter_lines(source), start=1):
        line = raw.strip()
        if not line:
            raise DataFormatError("blank line", line_number)
        tokens = line.split()
        labels.append(_parse_label(tokens[0], line_number))
        max_index = max(max_index, _parse_entries(tokens[1:], line_number, indices, values))
        counts.append(len(tokens) - 1)
        if len(values) >= _BLOCK_ENTRIES:
            _close_block(blocks, counts, indices, values)
    if not labels:
        raise DataFormatError("empty input", 1)
    if max_index == 0:
        raise DataFormatError("no feature indices found", 1)
    _close_block(blocks, counts, indices, values)
    return Entries(np.array(labels), np.array(counts, dtype=np.intp), blocks, max_index)


def _line_number(counts, first: int, position: int) -> int:
    """The 1-based number of the line that holds entry position of the
    entries of the lines from first on, whose entry counts are counts."""
    return first + int(np.searchsorted(np.cumsum(counts[first:]), position, side="right")) + 1


def _close_block(blocks: list, counts: list, indices: list, values: list) -> None:
    """Move the held entries, those of the lines since the last block, to a
    new block. An index too large for an array index is a DataFormatError."""
    first = blocks[-1][1] if blocks else 0
    try:
        columns = np.array(indices, dtype=np.intp) - 1
    except OverflowError:
        position, index = next((p, i) for p, i in enumerate(indices) if i > np.iinfo(np.intp).max)
        raise DataFormatError(f"feature index {index} is too large", _line_number(counts, first, position)) from None
    blocks.append((first, len(counts), columns, np.array(values, dtype=np.float64)))
    indices.clear()
    values.clear()


def _dense(entries: Entries, rows: np.ndarray, total: int) -> np.ndarray:
    """A zero (total, d) matrix with the entries of line l in row rows[l].
    A matrix too large to allocate is a DataFormatError naming the line
    where the largest index, d, first appears."""
    try:
        features = np.zeros((total, entries.d))
    except (MemoryError, ValueError):
        first, _, columns, _ = next(b for b in entries.blocks if (b[2] == entries.d - 1).any())
        line = _line_number(entries.counts, first, int(np.argmax(columns == entries.d - 1)))
        raise DataFormatError(
            f"feature index {entries.d} is too large: {total} dense rows of {entries.d} values do not fit in memory",
            line,
        ) from None
    for first, end, columns, values in entries.blocks:
        features[np.repeat(rows[first:end], entries.counts[first:end]), columns] = values
    return features


def parse_libsvm(source) -> Dataset:
    """The Dataset of LibSVM text, as read by read_libsvm: one dense
    float64 row per line."""
    entries = read_libsvm(source)
    m = len(entries.labels)
    return Dataset(_dense(entries, np.arange(m), m), entries.labels)


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


def _label_split(labels: np.ndarray, n: int):
    """The stable label-ascending order of the samples and the sizes of
    the n contiguous shards it is cut into: the first (m mod n) shards
    take one extra sample."""
    n = check_count("node count", n)
    m = labels.shape[0]
    if n > m:
        raise ConfigurationError(f"cannot split {m} samples across {n} nodes")
    base, extra = divmod(m, n)
    sizes = np.full(n, base)
    sizes[:extra] += 1
    return np.argsort(labels, kind="stable"), sizes


def _standardize(features: np.ndarray) -> None:
    """Standardize the columns of features in place: subtract the column
    mean and divide by the population standard deviation (divisor m, not
    m-1). Zero-variance columns are set to zero; no division happens for
    them."""
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    features -= mean
    nonzero = std > 0.0
    features[:, nonzero] /= std[nonzero]
    features[:, ~nonzero] = 0.0


def heterogeneous_split(ds: Dataset, n: int) -> list[NodeShard]:
    """Stable label-ascending sort, then contiguous split into n shards.

    Shard sizes differ by at most one; the first (m mod n) shards take the
    extra sample. The sort puts the -1 block before the +1 block, which is
    what makes the shards heterogeneous. The shards are row slices (views)
    of one private sorted copy, so they never alias the caller's Dataset,
    and the Dataset can be released while they live.
    """
    order, sizes = _label_split(ds.labels, n)
    feats = ds.features[order]
    labs = ds.labels[order]
    ends = np.cumsum(sizes).tolist()
    return [
        NodeShard(node_id=i, features=feats[end - size : end], labels=labs[end - size : end])
        for i, (size, end) in enumerate(zip(sizes.tolist(), ends))
    ]


def standard_scale(shard: NodeShard) -> NodeShard:
    """Per-feature standardization within one shard, on a copy.

    Subtracts the column mean and divides by the population standard
    deviation (divisor m, not m-1). Zero-variance columns are centered and
    left at zero; no division happens for them.
    """
    if shard.m < 1:
        raise ConfigurationError("cannot scale an empty shard")
    scaled = shard.features.copy()
    _standardize(scaled)
    return NodeShard(node_id=shard.node_id, features=scaled, labels=shard.labels.copy())


def node_block(entries: Entries, n: int) -> NodeBlock:
    """The samples of entries split as heterogeneous_split splits them and
    standardized per shard as standard_scale does, built in place in one
    padded block: each line's entries go straight to its row in the
    label-sorted order, and each shard is scaled where it lies. The values
    are bit-identical to stacking standard_scale of each shard of
    heterogeneous_split."""
    order, sizes = _label_split(entries.labels, n)
    m_max = int(sizes[0])
    # the k-th sample in label order is row k - start_i of shard i
    node = np.repeat(np.arange(n), sizes)
    starts = np.cumsum(sizes) - sizes
    rows = np.empty_like(order)
    rows[order] = node * m_max + np.arange(len(order)) - starts[node]
    features = _dense(entries, rows, n * m_max).reshape(n, m_max, entries.d)
    labels = np.zeros(n * m_max)
    labels[rows] = entries.labels
    for slab, size in zip(features, sizes.tolist()):
        _standardize(slab[:size])
    return NodeBlock(features, labels.reshape(n, m_max), sizes)
