"""Executable constants and bounds: stepsize rules for each method
family, the per-method certificate (certified stepsize and Lyapunov
weight), the no-more-clipping horizon, the O(1/K) rate envelope, and the
privacy variance floor with its utility bound.

Each stepsize rule is a minimum over printed branch expressions, named
implicit, smoothness, tau_sq, eta_mu, mu_L_max and compression;
stepsize_branches returns them with the name of the one that binds. The
implicit branch, gamma <= phi0/(B - thr)^2 with phi0 itself affine in
gamma, is resolved exactly as a linear inequality (see _implicit_branch).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InfeasibleStepsizeError
from .ops import check_count, check_real, node_mean

__all__ = [
    "StepsizeInputs",
    "certified_stepsize",
    "stepsize_branches",
    "lyapunov_weight",
    "eta_of",
    "stepsize_single",
    "stepsize_multi",
    "stepsize_dp",
    "stepsize_press",
    "press_contraction_margin",
    "k_star",
    "rate_envelope",
    "sigma_min",
    "dp_utility_bound",
    "estimate_f_inf",
]

_THETA_GRID = tuple(10.0 ** (-3.0 + 4.0 * j / 12.0) for j in range(13))
_SMOOTH = 1.0 - 1.0 / math.sqrt(2.0)  # the smoothness branch's numerator


def _check_norms(grad0_norms) -> tuple:
    """The per-node gradient norms as floats: at least one, all finite and non-negative."""
    norms = tuple(float(g) for g in grad0_norms)
    if not norms:
        raise ConfigurationError("grad0_norms must contain at least one entry")
    if any(not np.isfinite(g) or g < 0.0 for g in norms):
        raise ConfigurationError("gradient norms must be finite and non-negative")
    return norms


@dataclass(frozen=True)
class StepsizeInputs:
    """Problem measurements the stepsize rules consume.

    grad0_norms are the per-node gradient norms at the start point, one
    per node. The optional scalars are only needed by the rules that use
    them.
    """

    L: float
    L_max: float
    tau: float
    grad0_norms: tuple
    F0: float
    alpha_press: float | None = None
    mu: float | None = None
    nu: float | None = None

    def __post_init__(self):
        for name in ("L", "L_max", "tau"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        object.__setattr__(self, "grad0_norms", _check_norms(self.grad0_norms))
        object.__setattr__(self, "F0", check_real("F0", self.F0, "non-negative"))

    @property
    def n(self) -> int:
        return len(self.grad0_norms)


def eta_of(tau, grad0_norms) -> float:
    """min(1, tau / max_i ||grad_i(x0)||); 1 when every norm is zero."""
    tau = check_real("tau", tau)
    top = max(_check_norms(grad0_norms))
    return 1.0 if top <= 0.0 else min(1.0, tau / top)


def _start(inp: StepsizeInputs):
    """The norms as an array, eta, B = max_i ||grad_i(x0)|| and (L_max/L)^2."""
    norms = np.asarray(inp.grad0_norms)
    return norms, eta_of(inp.tau, inp.grad0_norms), float(norms.max()), (inp.L_max / inp.L) ** 2


def _nonzero(value: float, what: str) -> float:
    """value, a divisor of a stepsize rule or of the Lyapunov weight;
    InfeasibleStepsizeError naming what rounded to 0 when it is 0."""
    if value == 0.0:
        raise InfeasibleStepsizeError(f"{what} rounds to 0, and the certificate divides by it")
    return value


def _shift_gap(eta: float, tau: float) -> float:
    # 1 - (1-eta)(1-eta/2), the per-step shift-tracking contraction; below
    # eta of about 1.1e-16 both factors round to 1
    gap = 1.0 - (1.0 - eta) * (1.0 - 0.5 * eta)
    return _nonzero(gap, f"the shift gap 1 - (1-eta)(1-eta/2) at tau={tau}, eta={eta}")


def _eta(eta: float, tau: float) -> float:
    # tau / max_i ||grad_i(x0)|| underflows to 0 below the smallest subnormal
    return _nonzero(eta, f"eta = tau / max_i ||grad_i(x0)|| at tau={tau}")


def _L_max_sq(inp: StepsizeInputs) -> float:
    return _nonzero(inp.L_max**2, f"L_max^2 at L_max={inp.L_max}")


def _implicit_branch(F0: float, B: float, threshold: float, slope: float) -> float:
    """Resolve gamma <= phi0(gamma)/(B - threshold)^2 with phi0 = F0 + slope*gamma.

    Vacuous (returns +inf) when B <= threshold or when the slope absorbs
    the whole quadratic coefficient.
    """
    if B <= threshold:
        return math.inf
    coeff = (B - threshold) ** 2 - slope
    if coeff <= 0.0:
        return math.inf
    return F0 / coeff


def _tau_sq(numerator: float, scale: float, F0: float, beta2: float, over: float = 1.0) -> float:
    """The tau^2 branch numerator / over / (scale (sqrt(F0) + sqrt(beta2))^2), +inf
    when the denominator is 0. It raises OverflowError where the denominator
    overflowed, which would zero a branch that tends to a finite limit in tau."""
    denom = scale * (math.sqrt(F0) + math.sqrt(beta2)) ** 2
    numerator = numerator / over
    if not math.isfinite(denom):
        raise OverflowError
    return math.inf if denom == 0.0 else numerator / denom


def _bind(rule, inp: StepsizeInputs) -> tuple[dict, str]:
    """rule's branches at inp and the name of the least, the one that binds.
    An OverflowError, from a float power or from the tau^2 branch's
    denominator, certifies no stepsize: ConfigurationError."""
    try:
        with np.errstate(over="ignore"):
            branches = rule(inp)
    except OverflowError:
        raise ConfigurationError(f"no finite certified stepsize at tau={inp.tau}") from None
    return branches, min(branches, key=branches.get)


def _single(inp: StepsizeInputs) -> dict:
    if inp.n != 1:
        raise ConfigurationError(f"single-node rule needs n=1, got n={inp.n}")
    norm0 = inp.grad0_norms[0]
    eta = eta_of(inp.tau, inp.grad0_norms)
    gap = _shift_gap(eta, inp.tau)
    beta1 = (1.0 - eta) ** 2 * (1.0 + 2.0 / eta) / gap
    beta2 = inp.F0 + inp.tau * abs(norm0 - inp.tau) / (math.sqrt(2.0 * eta) * inp.L)
    return {
        "smoothness": _SMOOTH / (1.0 + math.sqrt(1.0 + 2.0 * beta1)) / inp.L,
        "tau_sq": _tau_sq(inp.tau**2, 4.0 * inp.L**2, inp.F0, beta2),
    }


def _multi(inp: StepsizeInputs) -> dict:
    norms, eta, B, ratio_sq = _start(inp)
    gap = _shift_gap(eta, inp.tau)
    beta1 = 2.0 * (1.0 - eta) ** 2 * (1.0 + 2.0 / eta) / gap * ratio_sq
    # signed differences, exactly as printed; entries below tau only
    # inflate beta2, which keeps the bound conservative
    G0 = math.sqrt(float(np.mean((norms - inp.tau) ** 2)))
    beta2 = inp.F0 + G0 * inp.tau / (2.0 * math.sqrt(2.0 * eta) * inp.L_max)
    slope = float(np.mean(np.maximum(0.0, norms - inp.tau) ** 2)) / (2.0 * gap)
    return {
        "implicit": _implicit_branch(inp.F0, B, inp.tau, slope),
        "smoothness": _SMOOTH / inp.L / (1.0 + math.sqrt(1.0 + 2.0 * beta1)),
        "tau_sq": _tau_sq(inp.tau**2, 16.0, inp.F0, beta2, over=_L_max_sq(inp)),
    }


def _dp(inp: StepsizeInputs) -> dict:
    if inp.mu is None:
        raise ConfigurationError("the noisy stepsize rule needs mu")
    mu = check_real("mu", inp.mu)
    nu = 0.0 if inp.nu is None else check_real("nu", inp.nu, "non-negative")
    norms, eta, B, ratio_sq = _start(inp)
    eta = _eta(eta, inp.tau)
    beta1 = (1.0 + 2.0 / eta) * (1.0 - eta) * (1.0 - 0.5 * eta) / eta * ratio_sq
    G0 = math.sqrt(float(np.mean((np.abs(norms - inp.tau) + nu) ** 2)))
    beta2 = inp.F0 + inp.tau * G0 / (2.0 * math.sqrt(2.0 * eta) * inp.L_max)
    return {
        "eta_mu": eta / (4.0 * mu),
        "mu_L_max": 2.0 * mu / _L_max_sq(inp),
        "implicit": _implicit_branch(inp.F0, B, 0.5 * inp.tau, (2.0 / eta) * G0**2),
        "smoothness": _SMOOTH / (inp.L * (1.0 + math.sqrt(1.0 + 8.0 * beta1))),
        "tau_sq": _tau_sq(inp.tau**2, 64.0 * inp.L_max**2, inp.F0, beta2),
    }


def _press_margin(inp: StepsizeInputs) -> tuple[float, float]:
    """alpha_press, checked, and its contraction margin at inp's eta."""
    if inp.alpha_press is None:
        raise ConfigurationError("the compressed stepsize rule needs alpha_press")
    alpha = check_real("alpha_press", inp.alpha_press, "(0, 1]")
    return alpha, press_contraction_margin(alpha, eta_of(inp.tau, inp.grad0_norms))


def _press(inp: StepsizeInputs) -> dict:
    alpha, beta = _press_margin(inp)
    norms, _, B, ratio_sq = _start(inp)
    root = math.sqrt(1.0 - alpha)
    shrink = 1.0 - root  # 1 - sqrt(1-alpha)
    worst = max((1.0 - beta) * (1.0 + 2.0 / beta), (1.0 - alpha) * (1.0 + 2.0 / alpha))
    beta1 = 2.0 * worst / beta * ratio_sq
    G0 = math.sqrt(float(np.mean((np.maximum(0.0, norms - inp.tau) + root * inp.tau) ** 2)))
    beta2 = inp.F0 + G0 * shrink * inp.tau / (math.sqrt(2.0 * beta) * inp.L_max)
    return {
        "compression": math.inf if root == 0.0 else shrink / (2.0 * root * inp.L_max),
        "implicit": _implicit_branch(inp.F0, B, shrink * inp.tau, G0**2 / beta),
        "smoothness": _SMOOTH / (inp.L * (1.0 + math.sqrt(1.0 + 2.0 * beta1))),
        "tau_sq": _tau_sq(shrink**2 * inp.tau**2, 16.0 * inp.L_max**2, inp.F0, beta2),
    }


def stepsize_single(inp: StepsizeInputs) -> float:
    """Largest certified stepsize for the single-node shifted method."""
    branches, name = _bind(_single, inp)
    return branches[name]


def stepsize_multi(inp: StepsizeInputs) -> float:
    """Largest certified stepsize for the n-node shifted method."""
    branches, name = _bind(_multi, inp)
    return branches[name]


def stepsize_dp(inp: StepsizeInputs) -> float:
    """Largest certified stepsize for the noisy shifted method.

    Requires the gradient-dominance constant mu; nu defaults to 0, which
    collapses the start gap to its noiseless form.
    """
    branches, name = _bind(_dp, inp)
    return branches[name]


def stepsize_press(inp: StepsizeInputs) -> float:
    """Largest certified stepsize for the compressed shifted method."""
    branches, name = _bind(_press, inp)
    return branches[name]


def press_contraction_margin(alpha: float, eta: float) -> float:
    """Best contraction margin beta over the theta grid.

    beta = 1 - max(B1, B2*(1-eta)^2) where B1 and B2 trade off through
    free parameters theta1, theta2 > 0; both are searched over 13
    log-spaced points in [1e-3, 10], first maximum winning. Raises when
    no grid point gives a positive margin.
    """
    alpha = check_real("contraction alpha", alpha, "(0, 1]")
    eta = check_real("eta", eta, "(0, 1]")
    one_minus = 1.0 - alpha
    miss_sq = (1.0 - eta) ** 2
    best = -math.inf
    for theta1 in _THETA_GRID:
        for theta2 in _THETA_GRID:
            b1 = one_minus + (1.0 + 1.0 / theta1) * (1.0 + theta2) * one_minus
            b2 = (1.0 + theta1) + (1.0 + 1.0 / theta1) * (1.0 + 1.0 / theta2) * one_minus
            beta = 1.0 - max(b1, b2 * miss_sq)
            if beta > best:
                best = beta
    if best <= 0.0:
        raise InfeasibleStepsizeError(
            f"no positive contraction margin for alpha={alpha}, eta={eta}; "
            f"best beta found was {best}",
            best=best,
        )
    return best


def stepsize_branches(method: str, inputs: StepsizeInputs) -> tuple[dict, str]:
    """The branches of method's stepsize minimum, name -> value in printed
    order, and the name of the one that binds. The shifted methods take
    their certified rule, the single-node one when n = 1; the unshifted
    baselines take 1/L, ({"inverse_L": 1/L}, "inverse_L")."""
    if method == "clip21_gd":
        return _bind(_single if inputs.n == 1 else _multi, inputs)
    if method == "dp_clip21_gd":
        return _bind(_dp, inputs)
    if method == "press_clip21_gd":
        return _bind(_press, inputs)
    return {"inverse_L": 1.0 / inputs.L}, "inverse_L"


def certified_stepsize(method: str, inputs: StepsizeInputs) -> float:
    """The stepsize ``--gamma auto`` resolves to: stepsize_branches' binding value."""
    branches, name = stepsize_branches(method, inputs)
    return branches[name]


def lyapunov_weight(method: str, gamma: float, inputs: StepsizeInputs) -> float:
    """Coefficient A of the shift term in the Lyapunov function at gamma.

    gamma/(2(1 - (1-eta)(1-eta/2))) for clip21_gd, 2 gamma/eta for
    dp_clip21_gd and gamma/beta for press_clip21_gd, with beta the margin
    of its rule's checked alpha_press. 0 for the methods without a shift
    certificate, and for press_clip21_gd when no positive margin exists.
    """
    gamma = check_real("gamma", gamma)
    eta = eta_of(inputs.tau, inputs.grad0_norms)
    if method == "clip21_gd":
        return gamma / (2.0 * _shift_gap(eta, inputs.tau))
    if method == "dp_clip21_gd":
        return 2.0 * gamma / _eta(eta, inputs.tau)
    if method == "press_clip21_gd":
        try:
            return gamma / _press_margin(inputs)[1]
        except InfeasibleStepsizeError:
            return 0.0
    return 0.0


def k_star(grad0_norm: float, tau: float) -> int:
    """First iteration index from which clipping stays inactive."""
    tau = check_real("tau", tau)
    grad0_norm = check_real("gradient norm", grad0_norm, "non-negative")
    if grad0_norm <= tau:
        return 0
    steps = (2.0 / tau) * (grad0_norm - tau) + 1.0
    if not math.isfinite(steps):
        raise ConfigurationError(f"no finite no-more-clipping horizon at tau={tau}")
    return math.ceil(steps)


def rate_envelope(phi0: float, gamma: float, K: int) -> float:
    """Certified bound 2*phi0/(gamma*K) on the best squared gradient norm."""
    phi0 = check_real("phi0", phi0, "non-negative")
    return 2.0 * phi0 / (check_real("gamma", gamma) * check_count("K", K))


def sigma_min(tau: float, K: int, eps: float, delta: float, alpha_frac: float) -> float:
    """Closed-form floor on min(nu^2, sigma^2) for the privacy target.

    Only the closed form is evaluated: the separate normalization-constant
    feasibility condition on delta is not checked here. A floor that is
    not a finite number (tau so large that tau^2 overflows) raises
    ConfigurationError.
    """
    tau = check_real("tau", tau)
    K = check_count("K", K)
    eps = check_real("eps", eps, "(0, 1)")
    delta = check_real("delta", delta, "(0, 1)")
    alpha_frac = check_real("alpha_frac", alpha_frac, "(0, 1)")
    try:
        floor = 12.0 * tau**2 * math.sqrt(2.0 * K * math.log(1.0 / delta)) / (
            (1.0 - alpha_frac) * eps
        )
    except OverflowError:
        floor = math.inf
    if not math.isfinite(floor):
        raise ConfigurationError(f"no finite noise floor at tau={tau}")
    return floor


def dp_utility_bound(phi0, gamma, mu, K, sigma2_min, eta) -> float:
    """(1 - gamma*mu)^K * phi0 + [2(1 + 2/eta)/(eta*mu)] * sigma2_min."""
    phi0 = check_real("phi0", phi0, "non-negative")
    gamma, mu = check_real("gamma", gamma), check_real("mu", mu)
    if gamma * mu >= 1.0:
        raise ConfigurationError(
            f"need gamma*mu < 1 for the geometric decay, got {gamma * mu}"
        )
    K = check_count("K", K)
    sigma2_min = check_real("sigma2_min", sigma2_min, "non-negative")
    eta = check_real("eta", eta, "(0, 1]")
    noise_amp = 2.0 * (1.0 + 2.0 / eta) / (eta * mu)
    return (1.0 - gamma * mu) ** K * phi0 + noise_amp * sigma2_min


def _lbfgs_direction(g: np.ndarray, pairs: list) -> np.ndarray:
    """-H g by the L-BFGS two-loop recursion over (s, y, 1/s.y), oldest first."""
    q, alphas = -g, []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * float(s @ q))
        q = q - alphas[-1] * y
    s, y, _ = pairs[-1]
    q = q * (float(s @ y) / float(y @ y))
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q = q + (alpha - rho * float(y @ q)) * s
    return q


def estimate_f_inf(problem, x0, iters=100_000, margin=1e-9, L=None):
    """Lower bound on inf f for the suboptimality and Lyapunov telemetry.

    The two-node quadratic gives its exact minimum 0.0. Data problems run
    at most iters L-BFGS iterations: 10 pairs, Armijo backtracking, one
    Problem.evaluate per trial, and the gradient step 1/L (L from
    problem.smoothness() when not given) as the first direction and in
    place of any that does not descend. For reg="l2" with lam > 0, f is
    lam-strongly convex, so at every x inf f >= f(x) - ||grad f(x)||^2 /
    (2 lam): the search stops once that gap is at most 1e-3 * margin and
    returns the bound, certified. Other problems stop on the cap or a
    failed line search and return the best value seen minus margin, an
    estimate. So the value is certified exactly for the quadratic and for
    reg="l2" with lam > 0.
    """
    if problem.kind == "quad_counterexample":
        return 0.0
    if L is None:
        L = problem.smoothness().L
    lam = problem.lam if problem.reg == "l2" else 0.0
    x = np.array(x0, dtype=np.float64)
    pairs = []  # the last 10 (s, y, 1/s.y), oldest first
    # a start point that overflows gives a non-finite bound, which the
    # caller checks; a trial whose value overflows fails the Armijo test
    # like any other; one whose point overflows fails unevaluated, as
    # evaluate rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        f, grads = problem.evaluate(x)
        g = node_mean(grads)
        for _ in range(check_count("iters", iters, 0)):
            gg = float(g @ g)
            if gg == 0.0 or (lam > 0.0 and gg / (2.0 * lam) <= 1e-3 * margin):
                break
            d = _lbfgs_direction(g, pairs) if pairs else -g / L
            slope = float(g @ d)
            if not -math.inf < slope < 0.0:
                pairs, d, slope = [], -g / L, -gg / L
            for t in 0.5 ** np.arange(40.0):
                x_new = x + t * d
                if not np.isfinite(x_new).all():
                    continue
                f_new, grads = problem.evaluate(x_new)
                # a non-finite f_new fails this, and so does a step that no
                # longer lowers f: the search ends at the rounding floor
                if f_new < f and f_new <= f + 1e-4 * t * slope:
                    break
            else:
                break
            g_new = node_mean(grads)
            s, y = x_new - x, g_new - g
            if s @ y > 0.0:
                pairs = pairs[-9:] + [(s, y, 1.0 / float(s @ y))]
            x, f, g = x_new, f_new, g_new
        if lam > 0.0:
            return f - float(g @ g) / (2.0 * lam)
        return f - margin
