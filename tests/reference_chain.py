"""The preprocessing as separate passes, a reference for data.node_block.

parse fills a dense matrix in file order, split sorts a copy by label
and cuts it into contiguous shards, and scale standardizes one shard on
a copy. node_block does all three in one padded block; chain_block
stacks what these passes give, so the two can be compared bit for bit.
"""

import numpy as np

from clipshift.data import read_libsvm, stack


def parse(source):
    """The dense (m, d) features and the (m,) labels of LibSVM text, one
    row a line in file order."""
    entries = read_libsvm(source)
    m = len(entries.labels)
    features = np.zeros((m, entries.d))
    for first, end, columns, values in entries.blocks:
        features[np.repeat(np.arange(first, end), entries.counts[first:end]), columns] = values
    return features, entries.labels


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
