"""LibSVM-format ingestion and the heterogeneity-inducing preprocessing:
label sort, contiguous equal split across nodes, per-shard
standardization.

read_libsvm checks the text and returns its entries as arrays, and
node_block places each sample straight into its shard's slab of one
padded block, dense float64 however sparse the input file is (target
problems are desk-scale), and scales it there. stack builds the same
kind of block from (features, labels) pairs already in memory. A Problem
is built from such a NodeBlock only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DataFormatError
from .ops import check_count

__all__ = ["Dataset", "Entries", "NodeBlock", "read_libsvm", "node_block", "stack", "write_libsvm"]


@dataclass(frozen=True)
class Dataset:
    """Labeled sample matrix, the input of write_libsvm. Labels are +1/-1
    only."""

    features: np.ndarray  # (m, d) float64
    labels: np.ndarray  # (m,) float64, each +1 or -1

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labs = np.asarray(self.labels, dtype=np.float64)
        if feats.ndim != 2:
            raise ConfigurationError(f"features must be 2-d, got shape {feats.shape}")
        if labs.ndim != 1 or labs.shape[0] != feats.shape[0]:
            raise ConfigurationError("label count must match feature row count")
        if feats.shape[0] < 1:
            raise ConfigurationError("dataset must contain at least one sample")
        if not np.isfinite(feats).all():
            raise ConfigurationError("features contain non-finite values")
        if not np.isin(labs, (-1.0, 1.0)).all():
            raise ConfigurationError("labels must be +1 or -1")
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


def node_block(entries: Entries, n: int) -> NodeBlock:
    """The samples of entries split across n nodes and standardized per
    node, built in place in one padded block.

    A stable label-ascending order puts the -1 block before the +1 block,
    which is what makes the shards heterogeneous, and is cut into n
    contiguous shards whose sizes differ by at most one: the first
    (m mod n) take the extra sample. Each line's entries go straight to
    its row of the block, and each shard is scaled where it lies: every
    column loses its mean and is divided by its population standard
    deviation (divisor m_i, not m_i - 1). Zero-variance columns are set
    to zero; no division happens for them.
    """
    n = check_count("node count", n)
    m = len(entries.labels)
    if n > m:
        raise ConfigurationError(f"cannot split {m} samples across {n} nodes")
    base, extra = divmod(m, n)
    sizes = np.full(n, base)
    sizes[:extra] += 1
    order = np.argsort(entries.labels, kind="stable")
    m_max = int(sizes[0])
    # the k-th sample in label order is row k - start_i of shard i
    node = np.repeat(np.arange(n), sizes)
    starts = np.cumsum(sizes) - sizes
    rows = np.empty_like(order)
    rows[order] = node * m_max + np.arange(m) - starts[node]
    features = _dense(entries, rows, n * m_max).reshape(n, m_max, entries.d)
    labels = np.zeros(n * m_max)
    labels[rows] = entries.labels
    for slab, size in zip(features, sizes.tolist()):
        shard = slab[:size]
        std = shard.std(axis=0)
        shard -= shard.mean(axis=0)
        nonzero = std > 0.0
        shard[:, nonzero] /= std[nonzero]
        shard[:, ~nonzero] = 0.0
    return NodeBlock(features, labels.reshape(n, m_max), sizes)


def stack(pairs) -> NodeBlock:
    """The block of the shards given as (features, labels) pairs: pair i
    is copied into the first rows of slab i. Labels may be any reals, so
    that regression targets can be used directly."""
    pairs = [(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)) for a, b in pairs]
    if not pairs:
        raise ConfigurationError("a block needs at least one shard")
    for i, (a, b) in enumerate(pairs):
        if a.ndim != 2:
            raise ConfigurationError(f"shard {i} features must be 2-d, got shape {a.shape}")
        if b.shape != a.shape[:1]:
            raise ConfigurationError(f"shard {i} label count must match its feature row count")
        if not b.size:
            raise ConfigurationError(f"shard {i} is empty")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ConfigurationError(f"shard {i} holds a non-finite value")
    dims = {a.shape[1] for a, _ in pairs}
    if len(dims) != 1:
        raise ConfigurationError(f"shards disagree on dimension: {sorted(dims)}")
    sizes = np.array([b.size for _, b in pairs])
    features = np.zeros((len(pairs), sizes.max(), dims.pop()))
    labels = np.zeros(features.shape[:2])
    for i, (a, b) in enumerate(pairs):
        features[i, : b.size] = a
        labels[i, : b.size] = b
    return NodeBlock(features, labels, sizes)
