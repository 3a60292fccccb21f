"""Benchmark of the clipshift CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. Generates the workload's inputs from
the seed, then runs one fresh Python process at a time, each importing
clipshift from ./src and calling ``clipshift.cli.main`` once, until the
next invocation would end after S seconds (at least one runs). Every
invocation's outputs are checked (see checks.py); a non-zero exit code
or a failed check fails the invocation and all its optimizer steps.
Each round of fixture-grid also runs the grid on the fixed input of
workloads.PROBE and checks its stepsizes strictly; while the CLI's
power-iteration fault stands, every such round fails, reported as a
known fault.

--trace 0 reports the end-to-end metrics, each the median over the
invocations but steps_per_s, which pools them. --trace 1 alternates an untraced and a traced invocation
and reports the per-layer metrics of the traced ones. --workload all
runs every workload in turn. The last line of stdout is one JSON object;
the exit code is 1 when any operation failed other than by the known
fault, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import GAMMA_EXACT_RTOL, GAMMA_SEEDED_RTOL, check_invocation, reference, strip_wall
from workloads import PROBE, PROBE_SEED, WORKLOADS, cli_args, make_inputs, write_data

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

# a child that runs longer than this has hung; a run must end within 180 s
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "steps_per_s": "steps/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "data.parse_s": "s",
    "data.split_scale_s": "s",
    "problems.build_s": "s",
    "problems.smoothness_s": "s",
    "problems.smoothness_calls": "count",
    "theory.f_inf_s": "s",
    "problems.setup_evals": "count",
    "problems.evaluate_us": "us",
    "problems.evaluate_calls": "count",
    "problems.evaluate_gflops": "GFLOP/s",
    "ops.compress_rows_us": "us",
    "rng.gaussian_block_us": "us",
    "ops.clip_rows_us": "us",
    "ops.node_mean_us": "us",
    "optimizers.step_self_us": "us",
    "optimizers.run_self_us": "us",
    "cli.write_csv_s": "s",
    "cli.csv_rows": "count",
    "bench.trace_overhead_s": "s",
}

# Problem methods that evaluate the objective or its gradients
EVAL_METHODS = (
    "evaluate",
    "eval_local",
    "grad_local",
    "local_grads",
    "grad_global",
    "eval_global",
    "grad_global_fast",
    "eval_global_fast",
)


def end_to_end(reports: list) -> dict:
    """Medians over the invocations, but steps_per_s pooled: all their
    steps over all their time inside the optimizer runs, which varies
    less from run to run than the median of a few short spans."""
    runs = [run for report in reports for run in report["runs"]]

    def median(key):
        return statistics.median(key(report) for report in reports)

    return {
        "wall_s": median(lambda r: r["wall_s"]),
        "setup_s": median(lambda r: r["runs"][0][0]),
        "steps_per_s": sum(r[2] for r in runs) / sum(r[1] - r[0] for r in runs),
        "cpu_s": median(lambda r: r["cpu_s"]),
        "peak_rss_mb": median(lambda r: r["peak_rss_mb"]),
    }


def per_layer(report: dict, flops_per_eval: float) -> dict:
    spans = report["spans"]

    def calls(name):
        return spans.get(name, [0, 0, 0])[0]

    def total_s(*names):
        return sum(spans.get(n, [0, 0, 0])[1] for n in names) / 1e9

    def per_call_us(name):
        return total_s(name) / calls(name) * 1e6 if calls(name) else 0.0

    steps = calls("optimizers.step")
    evaluate_s = total_s("problems.evaluate")
    return {
        "data.parse_s": total_s("data.parse_libsvm"),
        "data.split_scale_s": total_s("data.heterogeneous_split", "data.standard_scale"),
        "problems.build_s": total_s("problems.__init__"),
        "problems.smoothness_s": total_s("problems.smoothness"),
        "problems.smoothness_calls": calls("problems.smoothness"),
        "theory.f_inf_s": total_s("theory.estimate_f_inf"),
        "problems.setup_evals": sum(report["setup_calls"].get(f"problems.{m}", 0) for m in EVAL_METHODS),
        "problems.evaluate_us": per_call_us("problems.evaluate"),
        "problems.evaluate_calls": calls("problems.evaluate"),
        "problems.evaluate_gflops": (
            calls("problems.evaluate") * flops_per_eval / evaluate_s / 1e9 if evaluate_s else 0.0
        ),
        "ops.compress_rows_us": per_call_us("ops.compress_rows"),
        "rng.gaussian_block_us": per_call_us("rng.gaussian_block"),
        "ops.clip_rows_us": per_call_us("ops.clip_rows"),
        "ops.node_mean_us": per_call_us("ops.node_mean"),
        "optimizers.step_self_us": spans["optimizers.step"][2] / 1e3 / steps if steps else 0.0,
        "optimizers.run_self_us": spans["optimizers.run"][2] / 1e3 / steps if steps else 0.0,
        "cli.write_csv_s": total_s("cli.write_csv"),
        "cli.csv_rows": report["csv_rows"],
    }


class StepsizeProbe:
    """The grid on the fixed input of workloads.PROBE, checked strictly.

    It runs in this process, since it is not timed, and checks each grid
    stepsize against multiple / (exact L) to GAMMA_EXACT_RTOL, which the
    seeded invocations cannot do without failing on some seeds only.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir / "probe"
        self.workdir.mkdir()
        self.inputs = make_inputs(PROBE, PROBE_SEED)
        self.data_path = self.workdir / "data.txt"
        write_data(self.inputs, str(self.data_path))
        self.reference = reference(self.inputs, PROBE.nodes)

    def run(self) -> tuple[list[str], list[str]]:
        """The errors of one probe invocation, as check_invocation splits them."""
        from clipshift import cli

        outdir = Path(tempfile.mkdtemp(dir=self.workdir))
        args = cli_args(PROBE, self.inputs, str(self.data_path), str(outdir / "out.csv"))
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(args)
        except Exception as exc:  # a subprocess would have exited non-zero
            code = f"none, {type(exc).__name__}: {exc}"
        if code != 0:
            result = [f"exit code {code}: {stderr.getvalue().strip()[-300:]}"], []
        else:
            traces = {p.name: p.read_text(encoding="utf-8") for p in sorted(outdir.glob("*.csv"))}
            result = check_invocation(
                PROBE, self.reference, traces, stdout.getvalue(), stderr.getvalue(), GAMMA_EXACT_RTOL
            )
        shutil.rmtree(outdir)
        return result


class WorkloadRun:
    """The invocations of one workload on one set of generated inputs."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.inputs = make_inputs(workload, seed)
        self.data_path = workdir / "data.txt"
        write_data(self.inputs, str(self.data_path))
        self.reference = reference(self.inputs, workload.nodes)
        self.first_traces = None  # every invocation must write these bytes again
        self.probe = StepsizeProbe(workdir) if workload.gamma == "grid" else None
        self.count = 0
        self.attempted = self.failed = 0
        self.known_failed = 0  # operations of probe rounds that failed only the stepsize check
        self.known_errors = []
        self.check_failed = False
        self.reports = {False: [], True: []}  # by trace flag, passing invocations only
        self.errors = []

    def invoke(self, trace: bool) -> None:
        w = self.workload
        outdir = self.workdir / f"invocation{self.count}"
        outdir.mkdir()
        report_path = outdir / "report.json"
        args = cli_args(w, self.inputs, str(self.data_path), str(outdir / "out.csv"))
        command = [sys.executable, str(HERE / "child.py"), str(report_path), str(int(trace)), str(SRC), "--"]
        self.count += 1
        self.attempted += 1 + w.steps
        env = dict(os.environ, TMPDIR=str(self.workdir))
        try:
            proc = subprocess.run(
                command + args, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=env
            )
        except subprocess.TimeoutExpired:
            errors = [f"no exit within {CHILD_TIMEOUT_S} s"]
        else:
            if proc.returncode != 0:
                errors = [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
            else:
                traces = {
                    p.name: p.read_text(encoding="utf-8") for p in sorted(outdir.glob("*.csv"))
                }
                errors, stepsize_errors = check_invocation(
                    w, self.reference, traces, proc.stdout, proc.stderr, GAMMA_SEEDED_RTOL
                )
                errors += stepsize_errors
                stripped = {name: strip_wall(text) for name, text in traces.items()}
                if self.first_traces is None:
                    self.first_traces = stripped
                elif stripped != self.first_traces:
                    errors.append("traces differ from the first invocation's beyond wall_micros")
                self.check_failed |= bool(errors)
                if not errors:
                    report = json.loads(report_path.read_text(encoding="utf-8"))
                    report["csv_rows"] = sum(text.count("\n") - 1 for text in traces.values())
                    self.reports[trace].append(report)
        if errors:
            self.failed += 1 + w.steps
            self.errors += [f"{w.name} invocation {self.count - 1}: {e}" for e in errors]
        shutil.rmtree(outdir)

    def check_probe(self) -> None:
        """One round of the stepsize probe, counted like an invocation.

        A probe that fails only the stepsize check shows the known
        power-iteration fault: it counts as failed, but not against
        `correct` or the exit code.
        """
        errors, stepsize_errors = self.probe.run()
        operations = 1 + PROBE.steps
        self.attempted += operations
        if errors:
            self.failed += operations
            self.check_failed = True
            self.errors += [f"{PROBE.name}: {e}" for e in errors + stepsize_errors]
        elif stepsize_errors:
            self.failed += operations
            self.known_failed += operations
            self.known_errors = [f"{PROBE.name}: {e}" for e in stepsize_errors]

    def metrics(self, trace: bool) -> dict:
        """The metrics over the passing invocations: end to end from the
        untraced ones, per layer each the median over the traced ones."""
        plain, traced = self.reports[False], self.reports[True]
        if not plain or (trace and not traced):
            return {}
        if not trace:
            values = end_to_end(plain)
            return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        w, inputs = self.workload, self.inputs
        # A @ x and the slope-weighted row sums, 2 n m_max d flops each
        flops = 4.0 * w.nodes * inputs.rows_per_node(w.nodes) * inputs.features.shape[1]
        rows = [per_layer(r, flops) for r in traced]
        overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(
            r["wall_s"] for r in plain
        )
        for row in rows:
            row["bench.trace_overhead_s"] = overhead
        return {
            name: {"value": statistics.median(row[name] for row in rows), "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }


def run_workload(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> WorkloadRun:
    bench = WorkloadRun(workload, seed, workdir)
    deadline = time.perf_counter() + seconds
    durations = []
    while True:
        started = time.perf_counter()
        bench.invoke(trace=False)
        if trace:
            bench.invoke(trace=True)
        if bench.probe is not None:
            bench.check_probe()
        durations.append(time.perf_counter() - started)
        if time.perf_counter() + statistics.median(durations) > deadline:
            return bench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "clipshift" / "cli.py").is_file():
        print(f"error: no clipshift sources under {SRC}; run from the root of a source tree", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workroot = ROOT / ".perfbench_work"
    workroot.mkdir(exist_ok=True)
    runs = []
    for name in names:
        workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=workroot))
        try:
            runs.append(run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), workdir))
        finally:
            shutil.rmtree(workdir)
    try:
        workroot.rmdir()
    except OSError:
        pass  # another run still uses it

    metrics = {}
    for bench in runs:
        found = bench.metrics(bool(args.trace))
        for error in bench.errors:
            print(f"FAIL {error}")
        for error in bench.known_errors:
            print(f"KNOWN FAULT, every probe round: {error}")
        print(f"{bench.workload.name}: attempted={bench.attempted} failed={bench.failed} invocations={bench.count}")
        for name, metric in found.items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
        prefix = f"{bench.workload.name}/" if len(runs) > 1 else ""
        metrics.update({prefix + name: metric for name, metric in found.items()})
    result = {
        "correct": not any(b.check_failed for b in runs),
        "attempted": sum(b.attempted for b in runs),
        "failed": sum(b.failed for b in runs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 1 if result["failed"] > sum(b.known_failed for b in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
