"""clip21_avg through the step kernel, on targets chosen by the test.

Node i of targets_problem(a) holds one least-squares row, features a_i
and label -0.5, and no regularizer, so its local gradient at x = 0 is
2 * (a_i . 0 + 0.5) * a_i / 1 = a_i exactly. clip21_avg steps at gamma 0,
so x stays 0 and the shifts track the fixed vectors a_i.
"""

import numpy as np

from clipshift import MethodConfig, Problem
from clipshift.data import stack
from clipshift.optimizers import Batch, step


def targets_problem(a) -> Problem:
    a = np.asarray(a, dtype=np.float64)
    problem = Problem("linreg_nonconvex", stack([(row[None], np.array([-0.5])) for row in a]), reg="l2", lam=0.0)
    assert np.array_equal(problem.evaluate(np.zeros(problem.d))[1], a)
    return problem


def avg_config(tau, iters) -> MethodConfig:
    return MethodConfig("clip21_avg", gamma=0.0, iters=iters, tau=tau)


def avg_trace(a, tau, iters, v0=None):
    """Each step's (n, d) shift rows and the mask of the nodes that clipped
    on it, for iters steps of clip21_avg toward the rows of a from v0."""
    problem = targets_problem(a)
    batch = Batch([avg_config(tau, iters)], problem, np.zeros(problem.d), v0)
    trace = []
    for _ in range(iters):
        active = step(batch)[4]
        trace.append((batch.v, active))
    return trace
