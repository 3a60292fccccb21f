"""Experiment runner.

Builds a problem from flags or a flat key=value config file, resolves
the stepsize (explicit, theory rule, or the six-point grid), executes
the chosen method, and writes per-iteration telemetry as CSV plus a
one-line summary on stdout.

Each option is one row of OPTIONS (config-file key, default, converter,
help); its flag is ``--`` plus the key with ``_`` written as ``-``. The
parser, the defaults, the accepted config-file keys and the fields of
RunConfig all come from that table. An experiment plans its child runs,
one stepsize or the six grid points, steps them as one batch and reports.

Exit codes: 0 success, 2 usage or configuration error, 3 I/O or data
format error, 4 divergence, 5 an internal invariant failed (a bug, not
bad input).
"""

from __future__ import annotations

import argparse
import math
import os
import re
import shutil
import sys
from dataclasses import make_dataclass

import numpy as np

from .data import node_block
from .errors import ConfigurationError, DataFormatError, DivergenceError, InvariantError
from .ops import Compressor, check_count, check_real, node_mean
from .optimizers import METHODS, MethodConfig, run
from .problems import Problem
from .rng import check_seed, gaussian_sample, stream_slot
from .theory import StepsizeInputs, certified_stepsize, estimate_f_inf, k_star, lyapunov_weight

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


_KINDS = {int: "an integer", float: "a number"}


def _as(convert, name: str, text: str):
    """convert(text), with a failure reported against the option name."""
    try:
        return convert(text)
    except ValueError:
        raise ConfigurationError(f"{name} must be {_KINDS[convert]}, got {text!r}") from None


# One row per option: config-file key, default, converter, help. A None
# default means unset; parse_config then derives problem from --data and
# x0 from the problem.
OPTIONS = (
    ("method", None, str, "one of: " + ", ".join(m.replace("_", "-") for m in METHODS)),
    ("problem", None, str, "logistic | linreg | counterexample"),
    ("data", None, str, "LibSVM data file (required for data problems)"),
    ("nodes", 10, int, "node count (default 10; counterexample forces 2)"),
    ("tau", None, float, "clip threshold"),
    ("gamma", "auto", str, "stepsize: a number, 'auto', or 'grid'"),
    ("sigma", 0.0, float, "privacy noise std (default 0)"),
    ("nu", 0.0, float, "privacy noise clip bound"),
    ("lambda", 0.0, float, "regularization weight (default 0)"),
    ("reg", "l2", str, "l2 | nonconvex (default l2)"),
    ("iters", 1000, int, "iteration count K (default 1000)"),
    ("seed", 0, int, "master seed (default 0)"),
    ("compressor", None, str, "identity | topk:K"),
    ("out", "run.csv", str, "output CSV path (default run.csv)"),
    ("x0", None, str, "zeros | gaussian:SCALE | comma-separated floats"),
    ("mu", None, float, "gradient-dominance constant (needed by dp auto stepsize)"),
    ("L", None, float, "override the smoothness constant L"),
    ("beta_q", 2.0, float, "counterexample curvature beta (default 2)"),
    ("alpha_q", 1.0, float, "counterexample curvature alpha (default 1)"),
    (
        "presolve_iters",
        100_000,
        int,
        "cap on the L-BFGS iterations of the f_inf presolve (default 100000); "
        "f_inf is a certified lower bound for --reg l2 with --lambda > 0, an estimate otherwise",
    ),
    ("v_init", "zeros", str, "shift start for clip21-avg: zeros | gaussian:SCALE | floats"),
)


def option_flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def option_field(key: str) -> str:
    """RunConfig field and argparse dest of an option: the key itself,
    except lam for the keyword lambda and L_override for L."""
    return {"lambda": "lam", "L": "L_override"}.get(key, key)


# the fully resolved run description, after merging file and flags
RunConfig = make_dataclass("RunConfig", [option_field(row[0]) for row in OPTIONS])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clipshift",
        description="Run one distributed-optimization experiment and write CSV telemetry.",
    )
    # every default is None so that a config file can fill unset flags
    parser.add_argument("--config", help="flat key=value config file; flags override it")
    for key, _default, _convert, help_text in OPTIONS:
        parser.add_argument(option_flag(key), dest=option_field(key), help=help_text)
    return parser


def _glue_dashed_values(argv) -> list:
    """argv with each value that argparse would take for a flag, one that
    starts with "-" and a digit, "." or inf/nan such as -3e-1, -1,2,3 or
    -inf, joined to the option before it as --opt=VALUE, the form argparse
    reads as a value. The option may be a unique prefix of a flag, as
    argparse accepts."""
    flags = {"--config"} | {option_flag(row[0]) for row in OPTIONS}
    is_flag = lambda tok: tok in flags or sum(f.startswith(tok) for f in flags) == 1
    out = []
    for token in argv:
        if out and is_flag(out[-1]) and re.match(r"-([\d.]|inf|nan)", token, re.IGNORECASE):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def load_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
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


def parse_config(argv) -> RunConfig:
    """Merge flags over an optional config file into a validated RunConfig."""
    flags = vars(build_parser().parse_args(_glue_dashed_values(argv)))
    file_values = load_config_file(flags["config"]) if flags["config"] else {}
    unknown = set(file_values) - {row[0] for row in OPTIONS}
    if unknown:
        raise ConfigurationError(f"unknown config keys: {', '.join(sorted(unknown))}")
    given = {}
    for key, _default, convert, _help in OPTIONS:
        text = flags[option_field(key)]
        if text is None:
            text = file_values.get(key)
        if text is not None:
            given[key] = _as(convert, option_flag(key), text)
    cfg = RunConfig(**{option_field(k): given.get(k, default) for k, default, *_ in OPTIONS})

    if cfg.method is None:
        raise ConfigurationError("--method is required")
    method_text, cfg.method = cfg.method, cfg.method.replace("-", "_")
    if cfg.method not in METHODS:
        raise ConfigurationError(f"unknown method {method_text!r}")

    if cfg.problem is None:
        cfg.problem = "logistic" if cfg.data else "counterexample"
    problem_text = cfg.problem.replace("-", "_")
    if problem_text not in _PROBLEM_NAMES:
        raise ConfigurationError(f"unknown problem {problem_text!r}")
    cfg.problem = _PROBLEM_NAMES[problem_text]
    if cfg.problem != "quad_counterexample" and not cfg.data:
        raise ConfigurationError(f"problem {problem_text!r} needs --data")

    if cfg.problem == "quad_counterexample":
        if "nodes" in given and cfg.nodes != 2:
            raise ConfigurationError("the counterexample problem has exactly 2 nodes")
        cfg.nodes = 2
    else:
        check_count("--nodes", cfg.nodes)

    if cfg.method != "gd" and cfg.tau is None:
        raise ConfigurationError(f"method {method_text!r} needs --tau")
    cfg.gamma = cfg.gamma.strip()
    if cfg.gamma not in ("auto", "grid"):
        _as(float, "--gamma", cfg.gamma)  # validate now, resolve later
    if cfg.reg not in ("l2", "nonconvex"):
        raise ConfigurationError(f"--reg must be l2 or nonconvex, got {cfg.reg!r}")
    if cfg.method == "press_clip21_gd" and cfg.compressor is None:
        raise ConfigurationError("press-clip21-gd needs --compressor")
    if cfg.x0 is None:
        cfg.x0 = "1.0" if cfg.problem == "quad_counterexample" else "zeros"
    check_count("--iters", cfg.iters)
    check_seed(cfg.seed, "--seed")
    check_count("--presolve-iters", cfg.presolve_iters, 0)
    return cfg


def parse_compressor(text: str) -> Compressor:
    if text == "identity":
        return Compressor("identity")
    head, sep, tail = text.partition(":")
    if head == "topk" and sep:
        return Compressor("top_k", _as(int, "--compressor topk", tail))
    raise ConfigurationError(f"--compressor must be identity or topk:K, got {text!r}")


def build_problem(cfg: RunConfig) -> Problem:
    if cfg.problem == "quad_counterexample":
        curvatures = (check_real(option_flag(k), getattr(cfg, k), "finite") for k in ("beta_q", "alpha_q"))
        return Problem("quad_counterexample", quad_params=tuple(curvatures))
    try:
        with open(cfg.data, encoding="utf-8") as handle:
            block = node_block(handle, cfg.nodes)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"cannot read data file {cfg.data}: {exc}") from exc
    # the problem adopts the sorted, scaled block: the one dense copy of the data
    return Problem(cfg.problem, block=block, reg=cfg.reg, lam=cfg.lam)


def resolve_x0(cfg: RunConfig, problem: Problem) -> np.ndarray:
    return _parse_vector(cfg.x0, problem, stream_slot(problem.n, "x0"), "--x0", cfg.seed)


def _parse_vector(text: str, problem: Problem, slot: int, what: str, seed: int) -> np.ndarray:
    d = problem.d
    if text == "zeros":
        return np.zeros(d)
    if text.startswith("gaussian:"):
        scale = _as(float, what, text.split(":", 1)[1])
        return gaussian_sample(seed, slot, 0, d, check_real(f"{what} gaussian scale", scale, "non-negative"))
    parts = [p for p in text.split(",") if p.strip()]
    values = [_as(float, what, p) for p in parts]
    if not np.isfinite(values).all():
        raise ConfigurationError(f"{what} values must be finite, got {text!r}")
    if len(values) == 1 and d > 1:
        return np.full(d, values[0])
    if len(values) != d:
        raise ConfigurationError(f"{what} needs {d} values, got {len(values)}")
    return np.asarray(values)


def _fmt(value: float) -> str:
    return f"{value:.17g}"


# one CSV row, the first 8 fields of a trace row; %.17g writes the bytes _fmt does
_CSV_ROW = "%d,%.17g,%.17g,%.17g,%d,%.17g,%.17g,%d\n"
_CSV_FIELDS = CSV_HEADER.split(",")
# rows formatted per write: the Python tuples of one chunk at a time
_CSV_CHUNK = 256


def write_csv(trace, path: str, rows=None) -> None:
    """Write the rows of a trace, or of a view of one, as CSV: those at the
    indices rows, in order, or all of them when rows is None. The header
    comes first, then each row's CSV_HEADER fields with _CSV_ROW, _CSV_CHUNK
    rows at a time, and only a chunk's rows are ever copied. A float64
    formats as the float it holds, so the bytes do not depend on the
    chunking."""
    rows = np.arange(len(trace)) if rows is None else rows
    if not len(rows):
        raise ConfigurationError("refusing to write an empty trace")
    fields = trace[_CSV_FIELDS]
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(CSV_HEADER + "\n")
            for start in range(0, len(rows), _CSV_CHUNK):
                handle.write("".join(map(_CSV_ROW.__mod__, fields[rows[start : start + _CSV_CHUNK]].tolist())))
    except OSError as exc:
        raise DataFormatError(f"cannot write {path}: {exc}") from exc


def iters_to_all_inactive(trace, rows=None) -> int:
    """First index from which no node clips again, among the rows of trace
    at the indices rows (all of them when None); -1 if clipping persists."""
    rows = np.arange(len(trace)) if rows is None else rows
    clipping = np.flatnonzero(trace.active_nodes[rows])
    if not clipping.size:
        return 0
    last = int(trace.k[rows[clipping[-1]]])
    return -1 if last == trace.k[rows[-1]] else last + 1


def _grid_path(out: str, idx: int) -> str:
    name = os.path.basename(out)  # the extension is the file name's, not a folder's
    stem, dot, ext = name.rpartition(".")
    stem, ext = (stem, ext) if dot else (name, "csv")
    return f"{out[: len(out) - len(name)]}{stem}_grid{idx}.{ext}"


def _plan(cfg: RunConfig, problem: Problem):
    """(x0, v0, f_inf, k*, children): the start point and shifts (None for zeros), f_inf,
    the no-more-clipping horizon and one (MethodConfig, Lyapunov weight) pair per child."""
    x0 = resolve_x0(cfg, problem)
    # one evaluate at x0 gives the norms, F0 and clip21-avg's targets; an
    # overflow there surfaces as inf or nan for the checks, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        f0, grads = problem.evaluate(x0)
        norms = tuple(float(np.linalg.norm(g)) for g in grads)
    if not np.isfinite(norms).all():
        if np.isfinite(grads).all():  # only the sum of squares inside the norm overflowed
            node = int(np.flatnonzero(~np.isfinite(norms))[0])
            raise ConfigurationError(
                f"the norm of node {node}'s gradient at x0 overflows: its entries are finite, "
                "but their sum of squares exceeds the float64 range"
            )
        raise ConfigurationError("gradient norms must be finite and non-negative")
    if cfg.method == "clip21_avg":
        # clip21-gd at gamma 0: x stays at x0, so the shifts track grads; with f_inf = f(x0)
        # and weight 1 the lyapunov column is the mean squared tracking error. It reads no L,
        # f_inf, mu, sigma, nu or compressor; its horizon comes first, so a tiny tau writes no CSV
        v0_row = _parse_vector(cfg.v_init, problem, stream_slot(problem.n, "v_init"), "--v-init", cfg.seed)
        v0 = np.tile(v0_row, (problem.n, 1))
        if not np.isfinite(f0):  # f overflows at x0: stop before writing, as the other methods do
            raise DivergenceError(f"f(x0) is {f0} at the start point", step=0)
        tau = check_real("clip threshold", cfg.tau)
        steps = max(float(np.linalg.norm(t - v)) for t, v in zip(grads, v0)) / tau - 1.0
        if not math.isfinite(steps):
            raise ConfigurationError(f"no finite no-more-clipping horizon at tau={tau}")
        child = MethodConfig("clip21_avg", gamma=0.0, iters=cfg.iters, tau=tau, seed=cfg.seed)
        return x0, v0, f0, max(0, math.ceil(steps)), [(child, 1.0)]
    if cfg.mu is not None:
        check_real("mu", cfg.mu, "non-negative")
    info = problem.smoothness()
    L = cfg.L_override if cfg.L_override is not None else info.L
    if L <= 0:
        raise ConfigurationError(f"need a positive smoothness constant, got {L}")
    f_inf = estimate_f_inf(problem, x0, iters=cfg.presolve_iters, L=info.L)
    gap = f0 - f_inf
    if not np.isfinite(gap):  # f overflows at x0: any run would diverge at once
        raise DivergenceError(f"f(x0) - f_inf is {gap} at the start point", step=0)
    compressor = parse_compressor(cfg.compressor) if cfg.compressor else None
    # tau is absent for gd; the theory inputs then never reach a clip rule
    inputs = StepsizeInputs(
        L=L,
        L_max=info.L_max,
        tau=cfg.tau if cfg.tau is not None else 1.0,
        grad0_norms=norms,
        F0=max(0.0, gap),
        alpha_press=compressor.alpha(problem.d) if compressor is not None else None,
        mu=cfg.mu,
        nu=cfg.nu,
    )
    horizon = max(k_star(g, cfg.tau) for g in norms) if cfg.tau is not None else 0
    if cfg.gamma == "grid":
        gammas = [m / L for m in GRID_MULTIPLES]
    else:
        gammas = [certified_stepsize(cfg.method, inputs) if cfg.gamma == "auto" else float(cfg.gamma)]
    # every child's config is checked before any child's weight
    configs = [
        MethodConfig(
            method=cfg.method,
            gamma=gamma,
            iters=cfg.iters,
            tau=cfg.tau,
            sigma=cfg.sigma,
            nu=cfg.nu,
            compressor=compressor,
            seed=cfg.seed,
        )
        for gamma in gammas
    ]
    return x0, None, f_inf, horizon, [(c, lyapunov_weight(cfg.method, c.gamma, inputs)) for c in configs]


def run_experiment(cfg: RunConfig) -> int:
    """Plan, run and report one configured experiment; returns a process exit code. One
    child writes --out; a grid's six write one trace each, and the best is copied to --out."""
    problem = build_problem(cfg)
    x0, v0, f_inf, horizon, children = _plan(cfg, problem)
    configs = [child for child, _ in children]
    finals, trace = run(configs, problem, x0, v0=v0, f_inf=f_inf, lyapunov_coeffs=[w for _, w in children])
    grid = len(configs) > 1
    finished = []  # (final grad_norm_sq, child index, final f, iters_to_all_inactive, gamma)
    for idx, (child, final) in enumerate(zip(configs, finals)):
        # the child's rows by index, 8 bytes a row, not by a copy of them
        rows, path = np.flatnonzero(trace.run == idx), _grid_path(cfg.out, idx) if grid else cfg.out
        if not isinstance(final, DivergenceError):
            # x_K is finite, but f or the gradient may still overflow there
            with np.errstate(over="ignore", invalid="ignore"):
                final_f, final_grads = problem.evaluate(final.x)
                gbar = node_mean(final_grads)  # the reduction of the trace's grad_norm_sq
                final_gsq = float(np.vecdot(gbar, gbar))
            if not (np.isfinite(final_f) and np.isfinite(final_gsq)):
                final = DivergenceError(f"non-finite objective at iteration {cfg.iters}", step=cfg.iters)
        if len(rows):  # a diverged child's partial trace stays behind for inspection
            write_csv(trace, path, rows)
        if isinstance(final, DivergenceError):
            if not grid:
                print(f"diverged: {final}", file=sys.stderr)
                return 4
            print(f"grid child {idx}: gamma={_fmt(child.gamma)} diverged ({final})")
        else:
            if grid:
                print(f"grid child {idx}: gamma={_fmt(child.gamma)} final_grad_norm_sq={_fmt(final_gsq)}")
            finished.append((final_gsq, idx, final_f, iters_to_all_inactive(trace, rows), child.gamma))
        del rows  # the next child's index is made once this child's is freed
    if not finished:
        print("diverged: every grid stepsize diverged", file=sys.stderr)
        return 4
    final_gsq, idx, final_f, inactive_at, gamma = min(finished, key=lambda r: r[0])
    if grid:
        try:  # the child's trace is already formatted in its own file
            shutil.copyfile(_grid_path(cfg.out, idx), cfg.out)
        except OSError as exc:
            raise DataFormatError(f"cannot write {cfg.out}: {exc}") from exc
        print(f"grid best: child {idx} (gamma={_fmt(gamma)})")
    print(
        f"summary method={cfg.method} final_f={_fmt(final_f)} final_grad_norm_sq={_fmt(final_gsq)} "
        f"iters_to_all_inactive={inactive_at} gamma={_fmt(gamma)} k_star={horizon}"
    )
    return 0


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv if argv is not None else sys.argv[1:])
        return run_experiment(cfg)
    except (DataFormatError, OSError) as exc:
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


if __name__ == "__main__":
    sys.exit(main())
