"""Seeded inputs and CLI arguments for the three benchmark workloads.

Every input is a pure function of the benchmark seed: the LibSVM file is
written through ``clipshift.data.write_libsvm`` and the start point is
passed on the command line, so the program under test receives only a
file and flags. The generated arrays are returned too, so that the output
checks can recompute row 0 without going through the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# the grid the CLI runs for --gamma grid, as multiples of 1/L; the checks
# recompute each child's stepsize from it
GRID_MULTIPLES = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)

# l2 weight of the tier-1 fixture problem
LAMBDA = 1e-4


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str  # "fixture" or "a9a"
    nodes: int
    method: str
    tau: float
    iters: int
    gamma: str  # a number or "grid"
    sigma: float = 0.0
    nu: float = 0.0
    compressor: str | None = None
    presolve_iters: int | None = None  # None keeps the CLI default

    @property
    def children(self) -> int:
        return len(GRID_MULTIPLES) if self.gamma == "grid" else 1

    @property
    def steps(self) -> int:
        """Optimizer steps one CLI invocation runs, over all grid children."""
        return self.iters * self.children

    @property
    def message_bound(self) -> float:
        """Largest norm a node's message can have: tau, plus nu with noise."""
        return self.tau + self.nu


WORKLOADS = {
    w.name: w
    for w in (
        # criterion 08's shape: six cheap, overhead-bound child runs and
        # seven CSVs behind the default 100 000-step presolve; tau = 0.01
        # sits far below every local gradient norm at x0 (0.3 to 0.6)
        Workload(
            name="fixture-grid",
            shape="fixture",
            nodes=10,
            method="clip21-gd",
            tau=0.01,
            iters=2000,
            gamma="grid",
        ),
        # the same data and presolve with the per-node noise block on
        # every step; tau = 6 nu and nu = 2 sigma meet the privacy
        # calibration, and tau = 0.24 is below every local gradient norm
        # at x0, so clipping is active from row 0
        Workload(
            name="fixture-dp",
            shape="fixture",
            nodes=10,
            method="dp-clip21-gd",
            tau=0.24,
            sigma=0.02,
            nu=0.04,
            iters=5000,
            gamma="1.0",
        ),
        # a9a's shape: a 100 x 320 x 123 stacked block, top-k with
        # k/d = 12/123; the presolve is capped because its default
        # 100 000 iterations cost about 16 minutes at this shape
        Workload(
            name="a9a-press",
            shape="a9a",
            nodes=100,
            method="press-clip21-gd",
            tau=0.05,
            compressor="topk:12",
            iters=400,
            gamma="0.5",
            presolve_iters=100,
        ),
    )
}


# A fixed input for the strict grid stepsize check, run once a round of
# fixture-grid: the fixture recipe at PROBE_SEED, where the CLI's L is
# 3.0e-3 below the exact value, the largest deficit over seeds 0 to 2999.
# It does not depend on --seed, so while the power-iteration fault stands
# it fails every round, the same share of every run.
PROBE_SEED = 268
PROBE = Workload(
    name="grid-stepsize-probe",
    shape="fixture",
    nodes=10,
    method="clip21-gd",
    tau=0.01,
    iters=1,
    gamma="grid",
    presolve_iters=1,
)


@dataclass(frozen=True)
class Inputs:
    features: np.ndarray  # (m, d) as written to the LibSVM file
    labels: np.ndarray  # (m,) of +1 / -1
    x0: np.ndarray  # (d,)

    def rows_per_node(self, nodes: int) -> int:
        """Rows of the largest shard once the data is split."""
        return math.ceil(self.features.shape[0] / nodes)


def fixture_data(rng: np.random.Generator):
    """The recipe of tests/conftest.make_logistic_problem, seeded by rng:
    10 x 50 Gaussian rows in d = 20, labels from a noisy linear model cut
    at its median, 15% of them flipped."""
    total, dim = 10 * 50, 20
    features = rng.standard_normal((total, dim))
    w = rng.standard_normal(dim)
    margins = features @ w + 0.5 * rng.standard_normal(total)
    labels = np.where(margins > np.median(margins), 1.0, -1.0)
    flipped = rng.choice(total, size=total * 15 // 100, replace=False)
    labels[flipped] = -labels[flipped]
    return features, labels


def a9a_data(rng: np.random.Generator):
    """An a9a-shaped set: 32 000 rows of 123 binary features, 14 nonzeros
    a row, drawn without replacement with skewed column popularity; about
    24% positive labels from a noisy linear model, so the label-sorted
    split leaves almost every shard with one class."""
    total, dim, active = 32_000, 123, 14
    popularity = rng.pareto(1.5, dim) + 0.05
    # Gumbel top-k: the `active` largest keys are a weighted draw without
    # replacement, for every row at once
    keys = np.log(popularity) + rng.gumbel(size=(total, dim))
    chosen = np.argpartition(-keys, active, axis=1)[:, :active]
    features = np.zeros((total, dim))
    np.put_along_axis(features, chosen, 1.0, axis=1)
    w = rng.standard_normal(dim)
    margins = features @ w + 0.5 * rng.standard_normal(total)
    labels = np.where(margins > np.quantile(margins, 0.76), 1.0, -1.0)
    return features, labels


def make_inputs(workload: Workload, seed: int) -> Inputs:
    # independent streams for the data and the start point
    data_rng, x0_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    make = fixture_data if workload.shape == "fixture" else a9a_data
    features, labels = make(data_rng)
    return Inputs(features, labels, x0_rng.standard_normal(features.shape[1]))


def write_data(inputs: Inputs, path: str) -> None:
    from clipshift.data import Dataset, write_libsvm

    with open(path, "w", encoding="utf-8") as handle:
        handle.write(write_libsvm(Dataset(inputs.features, inputs.labels)))


def cli_args(workload: Workload, inputs: Inputs, data_path: str, out_path: str) -> list[str]:
    """The flags of one invocation. --x0 takes '=' because argparse reads a
    value that starts with '-' as a flag."""
    x0 = ",".join(repr(float(v)) for v in inputs.x0)
    args = [
        "--data", data_path,
        "--method", workload.method,
        "--nodes", str(workload.nodes),
        "--lambda", repr(LAMBDA),
        "--tau", repr(workload.tau),
        "--gamma", workload.gamma,
        "--iters", str(workload.iters),
        f"--x0={x0}",
        "--out", out_path,
    ]
    if workload.sigma:
        args += ["--sigma", repr(workload.sigma), "--nu", repr(workload.nu)]
    if workload.compressor:
        args += ["--compressor", workload.compressor]
    if workload.presolve_iters is not None:
        args += ["--presolve-iters", str(workload.presolve_iters)]
    return args
