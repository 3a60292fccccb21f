"""One clipshift CLI invocation in a fresh process, timed from the inside.

    python3 child.py REPORT TRACE SRC -- CLI-ARGS...

Imports clipshift from SRC, calls ``clipshift.cli.main(CLI-ARGS)``, exits
with its return code and writes a JSON report to REPORT.

With TRACE 0 the only instrumentation is a timestamp at entry to and exit
from each ``run`` call that ``clipshift.cli`` makes. With TRACE 1 the
public functions below are wrapped, at the names their callers look up,
and calls, total time and self time per span are kept in memory and
written out at the end:

- the functions ``clipshift.cli`` imports from the package, and its own
  ``write_csv``;
- ``step``, ``clip_rows``, ``compress_rows``, ``gaussian_block``,
  ``gaussian_sample`` and ``node_mean`` inside ``clipshift.optimizers``;
- the methods of ``Problem``.

Only the standard library is imported before the clock starts, so the
import of clipshift (numpy and scipy with it) is part of the timed set-up.
"""

import functools
import inspect
import json
import resource
import sys
import time

# names looked up inside clipshift.optimizers, wrapped where they are used
OPTIMIZER_NAMES = ("step", "clip_rows", "compress_rows", "gaussian_block", "gaussian_sample", "node_mean")


class Tracer:
    """Aggregated spans: per name, calls, total and self nanoseconds.

    A span's self time is its duration minus the durations of the spans
    that ran directly inside it.
    """

    def __init__(self):
        self.spans = {}  # name -> [calls, total_ns, self_ns]
        self._stack = []  # child-time accumulators of the open spans
        self.setup_calls = None  # span calls when the first optimizer run began

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        entry = spans.setdefault(name, [0, 0, 0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "optimizers.run" and self.setup_calls is None:
                self.setup_calls = {k: v[0] for k, v in spans.items()}
            children = [0]
            stack.append(children)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                stack.pop()
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def install(self, cli):
        optimizers = sys.modules["clipshift.optimizers"]
        problem_cls = cli.Problem
        for attr, value in vars(cli).items():
            if inspect.isfunction(value) and value.__module__.startswith("clipshift."):
                if value.__module__ != "clipshift.cli" or attr == "write_csv":
                    layer = value.__module__.rpartition(".")[2]
                    setattr(cli, attr, self.wrap(f"{layer}.{attr}", value))
        for attr in OPTIMIZER_NAMES:
            value = getattr(optimizers, attr, None)
            if inspect.isfunction(value):
                layer = value.__module__.rpartition(".")[2]
                setattr(optimizers, attr, self.wrap(f"{layer}.{attr}", value))
        for attr, value in list(vars(problem_cls).items()):
            if inspect.isfunction(value) and (attr == "__init__" or not attr.startswith("_")):
                setattr(problem_cls, attr, self.wrap(f"problems.{attr}", value))


def peak_rss_mb() -> float:
    """This process's own peak resident set, from VmHWM.

    Not ru_maxrss: exec keeps the high-water mark of the address space it
    replaces, which after fork or vfork is the parent's.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv):
    report_path, trace, src = argv[0], argv[1] == "1", argv[2]
    cli_args = argv[argv.index("--") + 1 :]
    sys.path.insert(0, src)

    started = time.perf_counter()
    import clipshift.cli as cli

    runs = []  # [entry, exit, steps] per optimizer run
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install(cli)
    real_run = cli.run

    def timed_run(*args, **kwargs):
        entry = time.perf_counter()
        result = real_run(*args, **kwargs)
        runs.append([entry - started, time.perf_counter() - started, len(result[1])])
        return result

    cli.run = timed_run
    code = cli.main(cli_args)
    wall = time.perf_counter() - started
    usage = resource.getrusage(resource.RUSAGE_SELF)
    sys.stdout.flush()

    report = {
        "wall_s": wall,
        "runs": runs,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        report["spans"] = tracer.spans
        report["setup_calls"] = tracer.setup_calls or {}
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
