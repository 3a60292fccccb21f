"""Shared fixtures.

The heterogeneous logistic instance mirrors the experiment protocol:
synthetic data, a label-ascending contiguous split so each node sees
(almost) one class, and per-node standardization. A 15% label flip
keeps the shards in genuine conflict: without it every shard stays
separable after sorting, the per-node gradients all vanish at the
optimum, and nothing is ever clipped there. The start point is a
seeded gaussian; at the origin the per-shard feature centering makes
most local gradients vanish, which would leave the clipping paths
untested.
"""

import numpy as np
import pytest

from clipshift import Problem, estimate_f_inf
from clipshift.data import Dataset, node_block, write_libsvm
from clipshift.rng import gaussian_sample
from reference_chain import scale, split

LOGISTIC_SEED = 20240817
LOGISTIC_NODES = 10
LOGISTIC_DIM = 20
LOGISTIC_PER_NODE = 50


def make_logistic_dataset() -> Dataset:
    """The unsplit, unscaled samples of the logistic instance."""
    rng = np.random.default_rng(LOGISTIC_SEED)
    total = LOGISTIC_NODES * LOGISTIC_PER_NODE
    features = rng.standard_normal((total, LOGISTIC_DIM))
    w = rng.standard_normal(LOGISTIC_DIM)
    margins = features @ w + 0.5 * rng.standard_normal(total)
    labels = np.where(margins > np.median(margins), 1.0, -1.0)
    flipped = rng.choice(total, size=total * 15 // 100, replace=False)
    labels[flipped] = -labels[flipped]
    return Dataset(features, labels)


# OpenBLAS threads a dot of more than 10 000 elements, and its partial sums
# then depend on the thread count. The wide sparse set sits above that cutoff
# on WIDE_NODES nodes: 12 000 rows in d = 60 on 200 nodes of 60 rows, so one
# node's rows hold 60 values but the flattened (n, m_max) losses and (n, d)
# shift blocks hold 12 000
WIDE_NODES = 200


def make_wide_sparse_text() -> str:
    """A seeded 12 000 x 60 LibSVM text with 5 nonzeros a row."""
    rng = np.random.default_rng(14)
    m, d, nnz = 12_000, 60, 5
    columns = np.sort(np.argsort(rng.random((m, d)), axis=1)[:, :nnz], axis=1)
    values = rng.standard_normal((m, nnz))
    labels = np.where(values.sum(axis=1) + 0.5 * rng.standard_normal(m) > 0, 1, -1)
    return "".join(
        f"{y:+d} " + " ".join(f"{j + 1}:{v:.5f}" for j, v in zip(row, vals)) + "\n"
        for y, row, vals in zip(labels.tolist(), columns.tolist(), values.tolist())
    )


def make_logistic_problem() -> Problem:
    """The instance as the CLI loads it: written to LibSVM text at full
    precision, read back and split into one block."""
    block = node_block(write_libsvm(make_logistic_dataset()), LOGISTIC_NODES)
    return Problem("logistic", block, reg="l2", lam=1e-4)


@pytest.fixture(scope="session")
def logistic_shards():
    """The instance's (features, labels) per node, through the reference passes."""
    ds = make_logistic_dataset()
    return [(scale(a), b) for a, b in split(ds.features, ds.labels, LOGISTIC_NODES)]


@pytest.fixture(scope="session")
def logistic_problem():
    return make_logistic_problem()


@pytest.fixture(scope="session")
def logistic_x0(logistic_problem):
    return gaussian_sample(515, logistic_problem.n + 1, 0, logistic_problem.d, 1.0)


@pytest.fixture(scope="session")
def logistic_f_inf(logistic_problem, logistic_x0):
    return estimate_f_inf(logistic_problem, logistic_x0, iters=100_000)


@pytest.fixture(scope="session")
def quad_problem():
    return Problem("quad_counterexample")
