"""The preprocessing as separate passes, a reference for data.node_block.

parse fills a dense matrix in file order, split sorts a copy by label
and cuts it into contiguous shards, and scale standardizes one shard on
a copy. node_block does all three in one padded block; chain_block
stacks what these passes give, so the two can be compared bit for bit.
"""

import numpy as np

from clipshift.data import stack


def parse(source):
    """The dense (m, d) features and the (m,) labels of well-formed LibSVM
    text (a string, bytes or an iterable of lines), one row a line in file
    order. It checks nothing: a reference for node_block on valid input."""
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    lines = source.splitlines() if isinstance(source, str) else [line.rstrip("\r\n") for line in source]
    tokens = [line.split() for line in lines]
    labels = np.array([1.0 if t[0] in ("+1", "1") else -1.0 for t in tokens])
    entries = [[(int(i) - 1, float(v)) for i, _, v in (e.partition(":") for e in t[1:])] for t in tokens]
    features = np.zeros((len(lines), max(j for row in entries for j, _ in row) + 1))
    for row, pairs in zip(features, entries):
        for j, value in pairs:
            row[j] = value
    return features, labels


def split(features, labels, n):
    """(features, labels) of n shards: a stable label-ascending sort, cut
    into contiguous chunks whose sizes differ by at most one, the first
    (m mod n) taking the extra sample."""
    order = np.argsort(labels, kind="stable")
    features, labels = features[order], labels[order]
    base, extra = divmod(len(labels), n)
    ends = np.cumsum([base + (i < extra) for i in range(n)])
    return [(features[end - size : end], labels[end - size : end]) for end, size in zip(ends, np.diff(ends, prepend=0))]


def scale(features):
    """A copy of features with each column standardized: the column mean
    subtracted and the result divided by the population standard
    deviation, zero-variance columns set to zero."""
    scaled = features.copy()
    mean = scaled.mean(axis=0)
    std = scaled.std(axis=0)
    scaled -= mean
    nonzero = std > 0.0
    scaled[:, nonzero] /= std[nonzero]
    scaled[:, ~nonzero] = 0.0
    return scaled


def chain_block(source, n):
    """The block of LibSVM text on n nodes, through parse, split and scale."""
    return stack([(scale(a), b) for a, b in split(*parse(source), n)])
