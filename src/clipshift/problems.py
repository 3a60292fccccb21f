"""Objective families with exact gradients and smoothness constants.

Three kinds share one interface: full-batch logistic regression,
nonconvex-regularized linear regression, and a two-node one-dimensional
quadratic whose local gradients point in opposite directions. The global
objective is always the arithmetic mean of the local ones, and
Problem.evaluate is the one way to evaluate it: f(x) together with all n
local gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .ops import check_real, check_vector

__all__ = ["Problem", "SmoothnessInfo", "KINDS", "REGULARIZERS"]

KINDS = ("logistic", "linreg_nonconvex", "quad_counterexample")
REGULARIZERS = ("l2", "nonconvex")


@dataclass(frozen=True)
class SmoothnessInfo:
    """Per-node and aggregate Lipschitz constants."""

    L_i: tuple[float, ...]
    L: float
    L_max: float


def _reg_value(reg: str, x: np.ndarray):
    """r at x, or at each row of an (R, d) stack of points."""
    if reg == "l2":
        return 0.5 * np.vecdot(x, x)
    sq = x * x
    # each term is at most 1; once x_j^2 overflows the quotient is inf/inf
    return np.sum(np.fmin(sq / (1.0 + sq), 1.0), axis=-1)


def _reg_grad(reg: str, x: np.ndarray) -> np.ndarray:
    if reg == "l2":
        return x
    denom = 1.0 + x * x
    return 2.0 * x / (denom * denom)


class Problem:
    """An evaluatable distributed objective f(x) = (1/n) sum_i f_i(x).

    kind selects the family:
      - "logistic": per-node f_i = (1/m_i) sum_j softplus(-b_ij a_ij.x) + reg
      - "linreg_nonconvex": f_i = (1/m_i) ||A_i x - b_i||^2 + reg
      - "quad_counterexample": n = 2, d = 1, f_1 = (beta/2) x^2 and
        f_2 = -(alpha/2) x^2 with beta > alpha > 0; no block, no reg
    The regularizer term is lam * r(x) with r either 0.5||x||^2 ("l2") or
    sum_j x_j^2/(1+x_j^2) ("nonconvex").

    Data problems take their data as one zero-padded (n, m_max, d)
    NodeBlock A and adopt it without a copy, so all n local gradients come
    from one product A @ x and one batched product of the row slopes with
    A. data.node_block builds the block straight from LibSVM text,
    data.stack from (features, labels) pairs in memory.

    The row arrays of an evaluation, (..., n, m_max) each, are written into
    buffers the Problem keeps and reuses from call to call (see _buffers),
    so a step allocates nothing of the block's row count. That makes a
    Problem unsafe to share between threads that evaluate at once.
    """

    def __init__(self, kind, block=None, reg="l2", lam=0.0, quad_params=None):
        if kind not in KINDS:
            raise ConfigurationError(f"unknown problem kind {kind!r}")
        if reg not in REGULARIZERS:
            raise ConfigurationError(f"unknown regularizer {reg!r}")
        lam = check_real("lambda", lam, "non-negative")
        if kind == "quad_counterexample":
            if block is not None:
                raise ConfigurationError("quad_counterexample takes no block")
            if quad_params is None:
                quad_params = (2.0, 1.0)
            beta_q, alpha_q = (check_real(k, v, "finite") for k, v in zip(("beta_q", "alpha_q"), quad_params))
            if not (beta_q > alpha_q > 0.0):
                raise ConfigurationError(
                    f"quad_counterexample requires beta_q > alpha_q > 0, got ({beta_q}, {alpha_q})"
                )
            self.quad_params = (beta_q, alpha_q)
            self._coeffs = np.array([beta_q, -alpha_q])
            self.n, self.d = 2, 1
        else:
            if quad_params is not None:
                raise ConfigurationError("quad_params only apply to quad_counterexample")
            if block is None:
                raise ConfigurationError(f"{kind} needs a block of data")
            self.quad_params = None
            # padding rows have zero features, label 0 and weight 0, so their
            # slope is exactly zero and their loss never reaches a sum
            self._A, self._b, sizes = block
            self.n, m_max, self.d = self._A.shape
            self._neg_b = -self._b
            self._m = sizes.astype(np.float64)
            # 1/(n m_i) on each row, 0 on padding: a row sum becomes the node
            # mean, and the sum of the node means over the nodes is f
            self._w = (np.arange(m_max) < sizes[:, None]) / (self.n * self._m[:, None])
        self._row_buffers = None  # made at the first evaluate
        self.kind = kind
        self.reg = reg
        self.lam = lam

    def _buffers(self, lead: tuple):
        """The row buffers at the leading shape lead, () for one point or (R,)
        for a stack of R: four float64 (*lead, n, m_max) arrays, for the
        margins, e, the slopes and 1 + e, and a bool one for t >= 0.

        All shapes share one set, sized for the largest stack evaluated so
        far, and each view starts at its buffer's first element. The set is
        replaced only when a larger stack comes.
        """
        rows = lead[0] if lead else 1
        if self._row_buffers is None or len(self._row_buffers[0]) < rows:
            shape = (rows,) + self._w.shape
            self._row_buffers = (*(np.empty(shape) for _ in range(4)), np.empty(shape, dtype=bool))
        return tuple(a[:rows] if lead else a[0] for a in self._row_buffers)

    def _rows(self, z: np.ndarray):
        """Each row's loss and its slope, the loss's derivative with respect
        to the row's margin z = a.x. The losses overwrite z and the slopes
        go to a row buffer, so both last until the next evaluation."""
        _, e, slope, denom, nonneg = self._buffers(z.shape[:-2])
        if self.kind == "logistic":
            # stable softplus of t = -b z: max(t, 0) + log1p(e) with e = exp(-|t|)
            # never overflows; its slope -b sigmoid(t) reuses e, as -b e / (1 + e)
            # for t < 0 and -b / (1 + e) otherwise, so padding rows (b = 0) get 0.
            # Since e <= 1, max(e, [t >= 0]) picks that numerator; np.where
            # would branch per element, slow on a random sign pattern
            t = np.multiply(self._neg_b, z, out=z)
            np.exp(np.negative(np.abs(t, out=e), out=e), out=e)
            np.multiply(self._neg_b, np.maximum(e, np.greater_equal(t, 0, out=nonneg), out=slope), out=slope)
            np.divide(slope, np.add(1.0, e, out=denom), out=slope)
            return np.add(np.maximum(t, 0.0, out=t), np.log1p(e, out=e), out=t), slope
        resid = np.subtract(z, self._b, out=z)
        np.multiply(2.0, resid, out=slope)
        return np.multiply(resid, resid, out=resid), slope

    def evaluate(self, x):
        """f(x) and the (n, d) local gradients, both from one product A @ x.

        The value is the sum over the nodes, in node order, of each node's
        dot of its row losses with their weights 1/(n m_i), plus the
        regularizer. Row i of the gradients is node i's gradient, the
        slope-weighted sum of its rows, and their node_mean is the gradient
        of f. No dot spans more than one node's m_max rows, so where BLAS
        runs threaded (see the package docstring) the value still does not
        depend on the thread count while no node holds over 10 000 rows.

        x may also be an (R, d) stack of points: then f is an (R,) array
        and the gradients an (R, n, d) one. Each point gets the BLAS calls
        it gets alone (one matrix-vector product and one dot per node) and
        the same elementwise work and node sums, so its entries are
        bit-identical to evaluate(x[r]).
        """
        x = check_vector(x, stack=True)
        if x.shape[-1] != self.d:
            raise ConfigurationError(f"x has dimension {x.shape[-1]}, problem has {self.d}")
        value, grads = self._evaluate(x)
        return (float(value) if x.ndim == 1 else value), grads

    def _evaluate(self, x: np.ndarray):
        """evaluate's arithmetic on an x it trusts: a float64 (d,) point or
        (R, d) stack. Values that are not finite propagate instead of
        raising, so the step kernel calls it once a step without a check.
        The value of one point is a numpy float64."""
        if self.kind == "quad_counterexample":  # the mean of its two local values
            # plain multiplication overflows to inf instead of raising,
            # which lets the run loop report divergence
            x0 = x[..., :1]
            value = (0.5 * self._coeffs * x0 * x0).sum(axis=-1) / self.n
            grads = self._coeffs[:, None] * x[..., None, :]
        else:
            # one matrix-vector product per point and node, (..., n, m_max)
            z = self._buffers(x.shape[:-1])[0]
            loss, slope = self._rows(np.matmul(self._A, x[..., None, :, None], out=z[..., None])[..., 0])
            value = np.add.reduce(np.vecdot(loss, self._w), axis=-1)
            if self.lam:  # 0 * r(x) would be nan where r(x) overflows
                value = value + self.lam * _reg_value(self.reg, x)
            grads = np.matmul(slope[..., None, :], self._A)[..., 0, :]
            grads /= self._m[:, None]
            grads += self.lam * _reg_grad(self.reg, x)[..., None, :]
        return value, grads

    def smoothness(self) -> SmoothnessInfo:
        """Per-node Lipschitz constants and the aggregate bounds.

        For data problems L defaults to the mean of the L_i, which upper
        bounds the true global constant.
        """
        if self.kind == "quad_counterexample":
            beta_q, alpha_q = self.quad_params
            return SmoothnessInfo(L_i=(beta_q, alpha_q), L=beta_q - alpha_q, L_max=beta_q)
        # top eigenvalue of the smaller Gram of each slab (A_i^T A_i or A_i A_i^T,
        # unchanged by zero padding rows), one node at a time
        spec_sq = np.array([np.linalg.eigvalsh(a @ a.T if len(a) < self.d else a.T @ a)[-1] for a in self._A])
        if self.kind == "logistic":
            c_reg = 1.0 if self.reg == "l2" else 2.0
            L_i = spec_sq / (4.0 * self._m) + self.lam * c_reg
        else:
            L_i = 2.0 * spec_sq / self._m + 2.0 * self.lam
        L_i = tuple(float(v) for v in L_i)
        return SmoothnessInfo(L_i=L_i, L=sum(L_i) / len(L_i), L_max=max(L_i))
