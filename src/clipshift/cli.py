"""Experiment runner.

Builds a problem from flags or a flat key=value config file, resolves
the stepsize (explicit, theory rule, or the six-point grid), executes
the chosen method, and writes per-iteration telemetry as CSV plus a
one-line summary on stdout.

Exit codes: 0 success, 2 usage or configuration error, 3 I/O or data
format error, 4 divergence, 5 an internal invariant failed (a bug, not
bad input).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from .data import heterogeneous_split, parse_libsvm, standard_scale
from .errors import ConfigurationError, DataFormatError, DivergenceError, InvariantError
from .ops import Compressor
from .optimizers import METHODS, IterationRecord, MethodConfig, clip21_avg_run, run
from .problems import Problem
from .rng import gaussian_sample
from .theory import (
    LyapunovParams,
    StepsizeInputs,
    estimate_f_inf,
    eta_of,
    k_star,
    press_contraction_margin,
    stepsize_dp,
    stepsize_multi,
    stepsize_press,
    stepsize_single,
)

CSV_HEADER = "k,f,grad_norm_sq,lyapunov,active_nodes,v_norm,gamma,wall_micros"

# stepsize grid from the experiment protocol, as multiples of 1/L
GRID_MULTIPLES = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)

_PROBLEM_NAMES = {
    "logistic": "logistic",
    "linreg": "linreg_nonconvex",
    "linreg_nonconvex": "linreg_nonconvex",
    "counterexample": "quad_counterexample",
    "quad_counterexample": "quad_counterexample",
}


@dataclass
class RunConfig:
    """Fully resolved run description, after merging file and flags."""

    method: str
    problem: str
    data: str | None
    nodes: int
    tau: float | None
    gamma: str
    sigma: float
    nu: float
    lam: float
    reg: str
    iters: int
    seed: int
    compressor: str | None
    out: str
    x0: str
    mu: float | None
    L_override: float | None
    beta_q: float
    alpha_q: float
    presolve_iters: int
    v_init: str


_DEFAULTS = {
    "method": None,  # required
    "problem": None,  # derived from --data when absent
    "data": None,
    "nodes": "10",
    "tau": None,
    "gamma": "auto",
    "sigma": "0",
    "nu": "0",
    "lambda": "0",
    "reg": "l2",
    "iters": "1000",
    "seed": "0",
    "compressor": None,
    "out": "run.csv",
    "x0": None,  # zeros for data problems, 1.0 for the counterexample
    "mu": None,
    "L": None,
    "beta_q": "2",
    "alpha_q": "1",
    "presolve_iters": "100000",
    "v_init": "zeros",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clipshift",
        description="Run one distributed-optimization experiment and write CSV telemetry.",
    )
    # every default is None so that a config file can fill unset flags
    parser.add_argument("--config", help="flat key=value config file; flags override it")
    parser.add_argument("--method", help="one of: " + ", ".join(m.replace("_", "-") for m in METHODS))
    parser.add_argument("--problem", help="logistic | linreg | counterexample")
    parser.add_argument("--data", help="LibSVM data file (required for data problems)")
    parser.add_argument("--nodes", help="node count (default 10; counterexample forces 2)")
    parser.add_argument("--tau", help="clip threshold")
    parser.add_argument("--gamma", help="stepsize: a number, 'auto', or 'grid'")
    parser.add_argument("--sigma", help="privacy noise std (default 0)")
    parser.add_argument("--nu", help="privacy noise clip bound")
    parser.add_argument("--lambda", dest="lam", help="regularization weight (default 0)")
    parser.add_argument("--reg", help="l2 | nonconvex (default l2)")
    parser.add_argument("--iters", help="iteration count K (default 1000)")
    parser.add_argument("--seed", help="master seed (default 0)")
    parser.add_argument("--compressor", help="identity | topk:K")
    parser.add_argument("--out", help="output CSV path (default run.csv)")
    parser.add_argument("--x0", help="zeros | gaussian:SCALE | comma-separated floats")
    parser.add_argument("--mu", help="gradient-dominance constant (needed by dp auto stepsize)")
    parser.add_argument("--L", dest="L_override", help="override the smoothness constant L")
    parser.add_argument("--beta-q", dest="beta_q", help="counterexample curvature beta (default 2)")
    parser.add_argument("--alpha-q", dest="alpha_q", help="counterexample curvature alpha (default 1)")
    parser.add_argument(
        "--presolve-iters",
        dest="presolve_iters",
        help="cap on the L-BFGS iterations of the f_inf presolve (default 100000); "
        "f_inf is a certified lower bound for --reg l2 with --lambda > 0, an estimate otherwise",
    )
    parser.add_argument("--v-init", dest="v_init", help="shift start for clip21-avg: zeros | floats")
    return parser


def load_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigurationError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if not key or not value:
            raise ConfigurationError(f"{path}:{lineno}: empty key or value")
        values[key] = value
    return values


def _as_float(name: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigurationError(f"{name} must be a number, got {text!r}") from None


def _as_int(name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigurationError(f"{name} must be an integer, got {text!r}") from None


def parse_config(argv) -> RunConfig:
    """Merge flags over an optional config file into a validated RunConfig."""
    parser = build_parser()
    args = parser.parse_args(argv)
    file_values = load_config_file(args.config) if args.config else {}
    unknown = set(file_values) - {k.replace("-", "_") for k in _DEFAULTS} - {"L"}
    if unknown:
        raise ConfigurationError(f"unknown config keys: {', '.join(sorted(unknown))}")

    def pick(flag_value, key):
        if flag_value is not None:
            return flag_value
        file_key = key.replace("-", "_")
        if file_key in file_values:
            return file_values[file_key]
        return _DEFAULTS[key]

    method_text = pick(args.method, "method")
    if method_text is None:
        raise ConfigurationError("--method is required")
    method = method_text.replace("-", "_")
    if method not in METHODS:
        raise ConfigurationError(f"unknown method {method_text!r}")

    data = pick(args.data, "data")
    problem_text = pick(args.problem, "problem")
    if problem_text is None:
        problem_text = "logistic" if data else "counterexample"
    problem_text = problem_text.replace("-", "_")
    if problem_text not in _PROBLEM_NAMES:
        raise ConfigurationError(f"unknown problem {problem_text!r}")
    problem = _PROBLEM_NAMES[problem_text]
    if problem != "quad_counterexample" and not data:
        raise ConfigurationError(f"problem {problem_text!r} needs --data")

    nodes = _as_int("--nodes", pick(args.nodes, "nodes"))
    if problem == "quad_counterexample":
        nodes_given = args.nodes is not None or "nodes" in file_values
        if nodes_given and nodes != 2:
            raise ConfigurationError("the counterexample problem has exactly 2 nodes")
        nodes = 2
    elif nodes < 1:
        raise ConfigurationError(f"--nodes must be >= 1, got {nodes}")

    tau_text = pick(args.tau, "tau")
    tau = None if tau_text is None else _as_float("--tau", tau_text)
    if method != "gd" and tau is None:
        raise ConfigurationError(f"method {method_text!r} needs --tau")

    gamma = str(pick(args.gamma, "gamma")).strip()
    if gamma not in ("auto", "grid"):
        _as_float("--gamma", gamma)  # validate now, resolve later

    reg = pick(args.reg, "reg")
    if reg not in ("l2", "nonconvex"):
        raise ConfigurationError(f"--reg must be l2 or nonconvex, got {reg!r}")

    compressor = pick(args.compressor, "compressor")
    if method == "press_clip21_gd" and compressor is None:
        raise ConfigurationError("press-clip21-gd needs --compressor")

    x0 = pick(args.x0, "x0")
    if x0 is None:
        x0 = "1.0" if problem == "quad_counterexample" else "zeros"

    mu_text = pick(args.mu, "mu")
    L_text = pick(args.L_override, "L")

    cfg = RunConfig(
        method=method,
        problem=problem,
        data=data,
        nodes=nodes,
        tau=tau,
        gamma=gamma,
        sigma=_as_float("--sigma", pick(args.sigma, "sigma")),
        nu=_as_float("--nu", pick(args.nu, "nu")),
        lam=_as_float("--lambda", pick(args.lam, "lambda")),
        reg=reg,
        iters=_as_int("--iters", pick(args.iters, "iters")),
        seed=_as_int("--seed", pick(args.seed, "seed")),
        compressor=compressor,
        out=pick(args.out, "out"),
        x0=x0,
        mu=None if mu_text is None else _as_float("--mu", mu_text),
        L_override=None if L_text is None else _as_float("--L", L_text),
        beta_q=_as_float("--beta-q", pick(args.beta_q, "beta_q")),
        alpha_q=_as_float("--alpha-q", pick(args.alpha_q, "alpha_q")),
        presolve_iters=_as_int("--presolve-iters", pick(args.presolve_iters, "presolve_iters")),
        v_init=pick(args.v_init, "v_init"),
    )
    if cfg.iters < 1:
        raise ConfigurationError(f"--iters must be >= 1, got {cfg.iters}")
    if cfg.seed < 0:
        raise ConfigurationError(f"--seed must be non-negative, got {cfg.seed}")
    return cfg


def parse_compressor(text: str) -> Compressor:
    if text == "identity":
        return Compressor("identity")
    head, sep, tail = text.partition(":")
    if head == "topk" and sep:
        return Compressor("top_k", _as_int("--compressor topk", tail))
    raise ConfigurationError(f"--compressor must be identity or topk:K, got {text!r}")


def build_problem(cfg: RunConfig) -> Problem:
    if cfg.problem == "quad_counterexample":
        return Problem("quad_counterexample", quad_params=(cfg.beta_q, cfg.alpha_q))
    try:
        with open(cfg.data, encoding="utf-8") as handle:
            dataset = parse_libsvm(handle)
    except OSError as exc:
        raise DataFormatError(f"cannot read data file {cfg.data}: {exc}") from exc
    shards = [standard_scale(s) for s in heterogeneous_split(dataset, cfg.nodes)]
    return Problem(cfg.problem, shards=shards, reg=cfg.reg, lam=cfg.lam)


def resolve_x0(cfg: RunConfig, problem: Problem) -> np.ndarray:
    # stream slots 0..n-1 belong to per-node noise and slot n to the
    # aggregate-noise baseline, so seeded vectors start at n + 1
    return _parse_vector(cfg.x0, problem, slot=problem.n + 1, what="--x0", seed=cfg.seed)


def _parse_vector(text: str, problem: Problem, slot: int, what: str, seed: int) -> np.ndarray:
    d = problem.d
    if text == "zeros":
        return np.zeros(d)
    if text.startswith("gaussian:"):
        scale = _as_float(what, text.split(":", 1)[1])
        if scale < 0:
            raise ConfigurationError(f"{what} gaussian scale must be non-negative")
        return gaussian_sample(seed, slot, 0, d, scale)
    parts = [p for p in text.split(",") if p.strip()]
    values = [_as_float(what, p) for p in parts]
    if len(values) == 1 and d > 1:
        return np.full(d, values[0])
    if len(values) != d:
        raise ConfigurationError(f"{what} needs {d} values, got {len(values)}")
    return np.asarray(values)


def theory_gamma(cfg: RunConfig, problem: Problem, inputs: StepsizeInputs) -> float:
    if cfg.method == "clip21_gd":
        return stepsize_single(inputs) if problem.n == 1 else stepsize_multi(inputs)
    if cfg.method == "dp_clip21_gd":
        return stepsize_dp(inputs)
    if cfg.method == "press_clip21_gd":
        return stepsize_press(inputs)
    # no certified rule for the unshifted baselines; 1/L is the standard choice
    return 1.0 / inputs.L


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def write_csv(records, path: str) -> None:
    if not records:
        raise ValueError("refusing to write an empty trace")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(CSV_HEADER + "\n")
            for r in records:
                handle.write(
                    f"{r.k},{_fmt(r.f)},{_fmt(r.grad_norm_sq)},{_fmt(r.lyapunov)},"
                    f"{r.active_nodes},{_fmt(r.v_norm)},{_fmt(r.gamma)},{r.wall_micros}\n"
                )
    except OSError as exc:
        raise DataFormatError(f"cannot write {path}: {exc}") from exc


def iters_to_all_inactive(records) -> int:
    """First index from which no node clips again; -1 if clipping persists."""
    last_active = -1
    for r in records:
        if r.active_nodes > 0:
            last_active = r.k
    if last_active < 0:
        return 0
    if last_active == records[-1].k:
        return -1
    return last_active + 1


def _summary_line(method, final_f, final_gsq, inactive_at, gamma, horizon) -> str:
    return (
        f"summary method={method} final_f={_fmt(final_f)} "
        f"final_grad_norm_sq={_fmt(final_gsq)} iters_to_all_inactive={inactive_at} "
        f"gamma={_fmt(gamma)} k_star={horizon}"
    )


def _lyapunov_coeff(cfg: RunConfig, gamma: float, eta: float, alpha: float | None) -> float:
    if cfg.method == "clip21_gd":
        return LyapunovParams.for_clip21(gamma, eta).A
    if cfg.method == "dp_clip21_gd":
        return LyapunovParams.for_dp(gamma, eta).A
    if cfg.method == "press_clip21_gd":
        try:
            beta = press_contraction_margin(alpha, eta)
        except ConfigurationError:
            return 0.0  # no certified margin; fall back to the plain gap
        return LyapunovParams.for_press(gamma, eta, beta).A
    return 0.0


def _grid_paths(out: str):
    stem, dot, ext = out.rpartition(".")
    if not dot:
        stem, ext = out, "csv"
    return [f"{stem}_grid{i}.{ext}" for i in range(len(GRID_MULTIPLES))]


def _run_avg(cfg: RunConfig, problem: Problem, x0: np.ndarray) -> int:
    targets = problem.local_grads(x0)
    v0_row = _parse_vector(cfg.v_init, problem, slot=problem.n + 2, what="--v-init", seed=cfg.seed)
    v_init = np.tile(v0_row, (problem.n, 1))
    trace = clip21_avg_run(targets, cfg.tau, v_init=v_init, iters=cfg.iters)
    f0 = problem.eval_global(x0)
    gsq0 = float(np.sum(problem.grad_global(x0) ** 2))
    records = []
    prev = v_init
    for k, (v_rows, aggregate) in enumerate(trace):
        still_clipping = sum(
            1
            for i in range(problem.n)
            if float(np.linalg.norm(targets[i] - prev[i])) > cfg.tau
        )
        tracking = float(np.sum((v_rows - targets) ** 2)) / problem.n
        records.append(
            IterationRecord(
                k=k,
                f=f0,
                grad_norm_sq=gsq0,
                lyapunov=tracking,
                active_nodes=still_clipping,
                v_norm=float(np.linalg.norm(aggregate)),
                gamma=0.0,
                wall_micros=0,
            )
        )
        prev = v_rows
    write_csv(records, cfg.out)
    horizon = max(
        max(0, int(np.ceil(float(np.linalg.norm(targets[i] - v_init[i])) / cfg.tau - 1.0)))
        for i in range(problem.n)
    )
    print(_summary_line(cfg.method, f0, gsq0, iters_to_all_inactive(records), 0.0, horizon))
    return 0


def run_experiment(cfg: RunConfig) -> int:
    """Execute one configured experiment; returns a process exit code."""
    problem = build_problem(cfg)
    x0 = resolve_x0(cfg, problem)
    if cfg.method == "clip21_avg":
        return _run_avg(cfg, problem, x0)

    info = problem.smoothness(mu=cfg.mu)
    L = cfg.L_override if cfg.L_override is not None else info.L
    if L <= 0:
        raise ConfigurationError(f"need a positive smoothness constant, got {L}")
    f_inf, _estimated = estimate_f_inf(problem, x0, iters=cfg.presolve_iters, L=info.L)
    grad0 = problem.local_grads(x0)
    norms = tuple(float(np.linalg.norm(g)) for g in grad0)
    F0 = max(0.0, problem.eval_global(x0) - f_inf)
    compressor = parse_compressor(cfg.compressor) if cfg.compressor else None
    alpha = compressor.alpha(problem.d) if compressor is not None else None
    # tau is absent for gd; the theory inputs then never reach a clip rule
    inputs = StepsizeInputs(
        L=L,
        L_max=info.L_max,
        tau=cfg.tau if cfg.tau is not None else 1.0,
        grad0_norms=norms,
        F0=F0,
        alpha_press=alpha,
        mu=cfg.mu,
        sigma=cfg.sigma,
        nu=cfg.nu,
    )
    eta = eta_of(inputs.tau, norms)
    if cfg.tau is not None:
        horizon = max(k_star(g, cfg.tau) for g in norms)
    else:
        horizon = 0

    if cfg.gamma == "grid":
        return _run_grid(cfg, problem, x0, L, f_inf, eta, alpha, horizon)

    gamma = theory_gamma(cfg, problem, inputs) if cfg.gamma == "auto" else float(cfg.gamma)
    method_cfg = MethodConfig(
        method=cfg.method,
        gamma=gamma,
        iters=cfg.iters,
        tau=cfg.tau,
        sigma=cfg.sigma,
        nu=cfg.nu,
        compressor=compressor,
        seed=cfg.seed,
    )
    coeff = _lyapunov_coeff(cfg, gamma, eta, alpha)
    collected = []
    try:
        state, records = run(
            method_cfg, problem, x0, f_inf=f_inf, lyapunov_coeff=coeff, hook=collected.append
        )
    except DivergenceError as exc:
        if collected:
            write_csv(collected, cfg.out)
        print(f"diverged: {exc}", file=sys.stderr)
        return 4
    write_csv(records, cfg.out)
    final_f = problem.eval_global(state.x)
    final_gsq = float(np.sum(problem.grad_global(state.x) ** 2))
    print(_summary_line(cfg.method, final_f, final_gsq, iters_to_all_inactive(records), gamma, horizon))
    return 0


def _run_grid(cfg, problem, x0, L, f_inf, eta, alpha, horizon) -> int:
    paths = _grid_paths(cfg.out)
    results = []
    for idx, multiple in enumerate(GRID_MULTIPLES):
        gamma = multiple / L
        method_cfg = MethodConfig(
            method=cfg.method,
            gamma=gamma,
            iters=cfg.iters,
            tau=cfg.tau,
            sigma=cfg.sigma,
            nu=cfg.nu,
            compressor=parse_compressor(cfg.compressor) if cfg.compressor else None,
            seed=cfg.seed,
        )
        coeff = _lyapunov_coeff(cfg, gamma, eta, alpha)
        collected = []
        try:
            state, records = run(
                method_cfg,
                problem,
                x0,
                f_inf=f_inf,
                lyapunov_coeff=coeff,
                hook=collected.append,
            )
        except DivergenceError as exc:
            if collected:
                write_csv(collected, paths[idx])
            print(f"grid child {idx}: gamma={_fmt(gamma)} diverged ({exc})")
            results.append((idx, gamma, None, None))
            continue
        write_csv(records, paths[idx])
        final_gsq = float(np.sum(problem.grad_global(state.x) ** 2))
        final_f = problem.eval_global(state.x)
        print(f"grid child {idx}: gamma={_fmt(gamma)} final_grad_norm_sq={_fmt(final_gsq)}")
        results.append((idx, gamma, final_gsq, (final_f, records)))
    finished = [r for r in results if r[2] is not None]
    if not finished:
        print("diverged: every grid stepsize diverged", file=sys.stderr)
        return 4
    best_idx, best_gamma, best_gsq, (best_f, best_records) = min(
        finished, key=lambda r: r[2]
    )
    write_csv(best_records, cfg.out)
    print(f"grid best: child {best_idx} (gamma={_fmt(best_gamma)})")
    print(
        _summary_line(
            cfg.method, best_f, best_gsq, iters_to_all_inactive(best_records), best_gamma, horizon
        )
    )
    return 0


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv if argv is not None else sys.argv[1:])
        return run_experiment(cfg)
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return 4
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 5
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
