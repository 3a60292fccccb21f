"""LibSVM-format ingestion and the heterogeneity-inducing preprocessing:
label sort, contiguous equal split across nodes, per-shard
standardization.

node_block reads LibSVM text twice, into one padded block of dense
float64 however sparse the file is (target problems are desk-scale), and
scales each shard where it lies. stack builds the same kind of block from
(features, labels) pairs already in memory. A Problem is built from such
a NodeBlock only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DataFormatError
from .ops import check_count

__all__ = ["Dataset", "NodeBlock", "node_block", "stack", "write_libsvm"]


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


def _parse_entries(tokens, line_number: int, indices: list, values: list) -> None:
    """Check one line's idx:val tokens in order and append their indices
    and values."""
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


class NodeBlock(NamedTuple):
    """n shards in one zero-padded array: shard i fills the first sizes[i]
    rows of features[i] and labels[i], and its padding rows are zero."""

    features: np.ndarray  # (n, m_max, d) float64
    labels: np.ndarray  # (n, m_max) float64
    sizes: np.ndarray  # (n,) rows of each shard


# entries held as Python objects before they are placed in the block, about
# 70 bytes each: 16 384 parsed no faster and peaked 0.35 MB higher at a9a's shape
_BLOCK_ENTRIES = 4096


def _place(features, rows, end: int, counts: list, indices: list, values: list) -> None:
    """Put the held entries, those of the lines up to line end whose entry
    counts are counts, in their rows of the block features (if any), and
    clear them. An index too large for an array index is a DataFormatError."""
    first = end - len(counts)
    try:
        columns = np.array(indices, dtype=np.intp) - 1
    except OverflowError:
        position, index = next((p, i) for p, i in enumerate(indices) if i > np.iinfo(np.intp).max)
        line = first + int(np.searchsorted(np.cumsum(counts), position, side="right")) + 1
        raise DataFormatError(f"feature index {index} is too large", line) from None
    if features is not None:
        features.reshape(-1, features.shape[2])[np.repeat(rows[first:end], counts), columns] = values
    for held in (counts, indices, values):
        held.clear()


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


def node_block(source, n: int) -> NodeBlock:
    """The samples of LibSVM text, one `<label> <idx>:<val> ...` a line,
    split across n nodes and standardized per node in one padded block.

    Indices are 1-based and strictly ascending within a line; d is the
    largest index anywhere. source is a string, bytes or an iterable of
    lines such as an open file (CRLF is fine). A lenient first read takes
    each line's label and last index, which fix the block; the second
    checks each line and places each _BLOCK_ENTRIES entries in their rows.
    A file that can seek is read again from where it stood, and any other
    source keeps its lines in a list. A malformed line raises
    DataFormatError with its number, ahead of any fault in n or in the size.

    The stable label-ascending order (the -1 samples first, which makes
    the shards heterogeneous) is cut into n contiguous shards whose sizes
    differ by at most one, the first m mod n taking the extra sample. Each
    shard is scaled where it lies: every column loses its mean and is
    divided by its population standard deviation (divisor m_i); a
    zero-variance column is set to zero, with no division.
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    if isinstance(source, str):
        source = source.splitlines()
    seekable = getattr(source, "seekable", lambda: False)()
    start = source.tell() if seekable else 0
    kept, error = [], None  # the lines of a source that cannot be read again
    positive, d, line_of_d = bytearray(), 0, 0  # label classes, 1 for +1
    try:
        for line_number, line in enumerate(source, start=1):
            if not seekable:
                kept.append(line)
            head = line.split(None, 1)
            positive.append(bool(head) and head[0] in ("+1", "1"))
            try:
                last = int(head[1].rsplit(None, 1)[-1].partition(":")[0]) if len(head) > 1 else 0
            except ValueError:  # the second read reports it
                continue
            if last > d:
                d, line_of_d = last, line_number
    except (OSError, UnicodeDecodeError) as exc:
        error = exc  # raised after the lines before it have been checked
    features = rows = late = None  # late: raised once every line has been checked
    try:
        n, m = check_count("node count", n), len(positive)
        if n > m:
            raise ConfigurationError(f"cannot split {m} samples across {n} nodes")
        sizes = np.full(n, m // n)
        sizes[: m % n] += 1
        rows = np.empty(m, dtype=np.intp)
        # the k-th sample in label order takes the k-th row that a shard fills
        rows[np.argsort(positive, kind="stable")] = np.flatnonzero(np.arange(sizes[0]) < sizes[:, None])
        try:
            features = np.zeros((n, sizes[0], d))
        except (MemoryError, ValueError):
            message = f"feature index {d} is too large: {n * sizes[0]} dense rows of {d} values do not fit in memory"
            late = DataFormatError(message, line_of_d)
    except ConfigurationError as exc:
        late = exc
    if seekable:
        source.seek(start)
    counts, indices, values = [], [], []
    for line_number, raw in enumerate(source if seekable else kept, start=1):
        line = raw.strip()
        if not line:
            raise DataFormatError("blank line", line_number)
        tokens = line.split()
        _parse_label(tokens[0], line_number)
        _parse_entries(tokens[1:], line_number, indices, values)
        counts.append(len(tokens) - 1)
        if len(values) >= _BLOCK_ENTRIES:
            _place(features, rows, line_number, counts, indices, values)
    if error is not None:
        raise error
    if not positive:
        raise DataFormatError("empty input", 1)
    if d == 0:
        raise DataFormatError("no feature indices found", 1)
    _place(features, rows, len(positive), counts, indices, values)
    if late is not None:
        raise late
    labels = np.zeros(features.shape[:2])
    labels.flat[rows] = np.where(positive, 1.0, -1.0)
    for slab, size in zip(features, sizes.tolist()):
        shard = slab[:size]
        std = shard.std(axis=0)
        shard -= shard.mean(axis=0)
        nonzero = std > 0.0
        shard[:, nonzero] /= std[nonzero]
        shard[:, ~nonzero] = 0.0
    return NodeBlock(features, labels, sizes)


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
