"""High-precision reference evaluations of the theoretical bounds.

Every function here is transcribed directly from the closed-form statements and
evaluated with mpmath at 50 significant digits. Nothing is imported from the
package under test; the test suite uses these as an independent cross-check of
the float64 calculators. Inputs are Python floats and are converted exactly
(binary value, not decimal re-parse), so any disagreement beyond ~1e-13
relative is a real defect in the checked code, not input fuzz.

Each stepsize rule names its branches as the package does (implicit,
smoothness, tau_sq, eta_mu, mu_L_max, compression) and returns their
minimum as a float; with branches=True it returns the table of branches
instead, name -> 50-digit value in printed order.
"""

import mpmath

mp = mpmath.mp
mp.dps = 50

_INF = mpmath.inf


def _mpf(x):
    return mpmath.mpf(x)


def _result(table, branches):
    return table if branches else float(min(table.values()))


def _eta(tau, norms):
    top = max(norms)
    if top == 0:
        return _mpf(1)
    return min(_mpf(1), _mpf(tau) / _mpf(top))


def stepsize_single(L, tau, grad0_norm, F0, branches=False):
    L = _mpf(L)
    tau = _mpf(tau)
    g = _mpf(grad0_norm)
    F0 = _mpf(F0)
    eta = _eta(tau, [g])
    denom = 1 - (1 - eta) * (1 - eta / 2)
    b1 = (1 - eta) ** 2 * (1 + 2 / eta) / denom
    G0 = abs(g - tau)
    b2 = F0 + tau * G0 / (mpmath.sqrt(2 * eta) * L)
    first = (1 - 1 / mpmath.sqrt(2)) / (1 + mpmath.sqrt(1 + 2 * b1))
    s = mpmath.sqrt(F0) + mpmath.sqrt(b2)
    second = _INF if s == 0 else tau ** 2 / (4 * L * s ** 2)
    return _result({"smoothness": first / L, "tau_sq": second / L}, branches)


def stepsize_multi(L, L_max, tau, norms, F0, branches=False):
    L = _mpf(L)
    Lm = _mpf(L_max)
    tau = _mpf(tau)
    F0 = _mpf(F0)
    ns = [_mpf(v) for v in norms]
    n = len(ns)
    B = max(ns)
    eta = _eta(tau, ns)
    denom = 1 - (1 - eta) * (1 - eta / 2)
    b1 = 2 * (1 - eta) ** 2 * (1 + 2 / eta) / denom * (Lm / L) ** 2
    G0 = mpmath.sqrt(sum((v - tau) ** 2 for v in ns) / n)
    b2 = F0 + G0 * tau / (2 * mpmath.sqrt(2 * eta) * Lm)
    table = {"implicit": _INF}
    if B > tau:
        c = sum(max(_mpf(0), v - tau) ** 2 for v in ns) / n / (2 * denom)
        gap = (B - tau) ** 2 - c
        table["implicit"] = F0 / gap if gap > 0 else _INF
    table["smoothness"] = (1 - 1 / mpmath.sqrt(2)) / L / (1 + mpmath.sqrt(1 + 2 * b1))
    s = mpmath.sqrt(F0) + mpmath.sqrt(b2)
    table["tau_sq"] = _INF if s == 0 else (tau ** 2 / Lm ** 2) / (16 * s ** 2)
    return _result(table, branches)


def stepsize_dp(L, L_max, tau, norms, F0, mu, nu, branches=False):
    L = _mpf(L)
    Lm = _mpf(L_max)
    tau = _mpf(tau)
    F0 = _mpf(F0)
    mu = _mpf(mu)
    nu = _mpf(nu)
    ns = [_mpf(v) for v in norms]
    n = len(ns)
    B = max(ns)
    eta = _eta(tau, ns)
    b1 = (1 + 2 / eta) * (1 - eta) * (1 - eta / 2) / eta * (Lm / L) ** 2
    G0 = mpmath.sqrt(sum((abs(v - tau) + nu) ** 2 for v in ns) / n)
    b2 = F0 + tau * G0 / (2 * mpmath.sqrt(2 * eta) * Lm)
    table = {"eta_mu": eta / (4 * mu), "mu_L_max": 2 * mu / Lm ** 2, "implicit": _INF}
    thr = tau / 2
    if B > thr:
        c = 2 / eta * G0 ** 2
        gap = (B - thr) ** 2 - c
        table["implicit"] = F0 / gap if gap > 0 else _INF
    table["smoothness"] = (1 - 1 / mpmath.sqrt(2)) / (L * (1 + mpmath.sqrt(1 + 8 * b1)))
    s = mpmath.sqrt(F0) + mpmath.sqrt(b2)
    table["tau_sq"] = _INF if s == 0 else tau ** 2 / (64 * Lm ** 2 * s ** 2)
    return _result(table, branches)


def _theta_grid():
    return [mpmath.mpf(10) ** (mpmath.mpf(4 * j) / 12 - 3) for j in range(13)]


def press_beta(alpha, eta):
    """Best contraction margin over the 13x13 log grid; first maximum wins."""
    alpha = _mpf(alpha)
    eta = _mpf(eta)
    best = -_INF
    for t1 in _theta_grid():
        for t2 in _theta_grid():
            B1 = (1 - alpha) + (1 + 1 / t1) * (1 + t2) * (1 - alpha)
            B2 = (1 + t1) + (1 + 1 / t1) * (1 + 1 / t2) * (1 - alpha)
            beta = 1 - max(B1, B2 * (1 - eta) ** 2)
            if beta > best:
                best = beta
    return best


def stepsize_press(L, L_max, tau, norms, F0, alpha, branches=False):
    L = _mpf(L)
    Lm = _mpf(L_max)
    tau = _mpf(tau)
    F0 = _mpf(F0)
    alpha = _mpf(alpha)
    ns = [_mpf(v) for v in norms]
    n = len(ns)
    B = max(ns)
    eta = _eta(tau, ns)
    beta = press_beta(alpha, eta)
    if beta <= 0:
        raise ValueError("no positive contraction margin, best %s" % mpmath.nstr(beta, 12))
    root = mpmath.sqrt(1 - alpha)
    r = 1 - root
    G0 = mpmath.sqrt(sum((max(_mpf(0), v - tau) + root * tau) ** 2 for v in ns) / n)
    b1 = 2 * max((1 - beta) * (1 + 2 / beta), (1 - alpha) * (1 + 2 / alpha)) / beta * (Lm / L) ** 2
    b2 = F0 + G0 * r * tau / (mpmath.sqrt(2 * beta) * Lm)
    table = {"compression": _INF if root == 0 else r / (2 * root * Lm), "implicit": _INF}
    thr = r * tau
    if B > thr:
        c = G0 ** 2 / beta
        gap = (B - thr) ** 2 - c
        table["implicit"] = F0 / gap if gap > 0 else _INF
    table["smoothness"] = (1 - 1 / mpmath.sqrt(2)) / (L * (1 + mpmath.sqrt(1 + 2 * b1)))
    s = mpmath.sqrt(F0) + mpmath.sqrt(b2)
    table["tau_sq"] = _INF if s == 0 else r ** 2 * tau ** 2 / (16 * Lm ** 2 * s ** 2)
    return _result(table, branches)


def sigma_floor(tau, K, eps, delta, alpha):
    tau = _mpf(tau)
    val = 12 * tau ** 2 * mpmath.sqrt(2 * K * mpmath.log(1 / _mpf(delta)))
    return float(val / ((1 - _mpf(alpha)) * _mpf(eps)))


def dp_utility(phi0, gamma, mu, K, sigma2, eta):
    eta = _mpf(eta)
    mu = _mpf(mu)
    decay = (1 - _mpf(gamma) * mu) ** K * _mpf(phi0)
    A3 = 2 * (1 + 2 / eta) / (eta * mu)
    return float(decay + A3 * _mpf(sigma2))
