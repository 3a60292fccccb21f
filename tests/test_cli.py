"""Flag parsing, config files, CSV output, and exit codes."""

import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clipshift import METHODS, TRACE_DTYPE, ConfigurationError, InvariantError, Problem, cli, gaussian_sample
from clipshift.cli import (
    CSV_HEADER,
    GRID_MULTIPLES,
    OPTIONS,
    load_config_file,
    main,
    option_flag,
    parse_compressor,
    parse_config,
)
from conftest import WIDE_NODES, make_wide_sparse_text

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    rng = np.random.default_rng(88)
    path = tmp_path_factory.mktemp("data") / "toy.svm"
    lines = []
    for _ in range(60):
        x = rng.standard_normal(5)
        y = 1 if x.sum() > 0 else -1
        feats = " ".join(f"{j + 1}:{x[j]:.5f}" for j in range(5))
        lines.append(f"{y:+d} {feats}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _base_args(data_file, out, **overrides):
    args = {
        "--method": "clip21-gd",
        "--data": data_file,
        "--nodes": "4",
        "--tau": "0.5",
        "--gamma": "0.1",
        "--iters": "20",
        "--seed": "3",
        "--x0": "gaussian:1.0",
        "--presolve-iters": "200",
        "--out": out,
    }
    args.update(overrides)
    flat = []
    for key, value in args.items():
        if value is not None:
            flat.extend([key, value])
    return flat


def _read_rows(path):
    lines = open(path).read().splitlines()
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


def test_parse_config_validation(data_file):
    with pytest.raises(ConfigurationError, match="--method is required"):
        parse_config([])
    with pytest.raises(ConfigurationError, match="unknown method"):
        parse_config(["--method", "sgd"])
    with pytest.raises(ConfigurationError, match="needs --tau"):
        parse_config(["--method", "clip-gd", "--data", data_file])
    with pytest.raises(ConfigurationError, match="needs --data"):
        parse_config(["--method", "gd", "--problem", "logistic"])
    with pytest.raises(ConfigurationError, match="needs --compressor"):
        parse_config(["--method", "press-clip21-gd", "--data", data_file, "--tau", "1"])
    with pytest.raises(ConfigurationError, match="exactly 2 nodes"):
        parse_config(["--method", "gd", "--problem", "counterexample", "--nodes", "5"])
    with pytest.raises(ConfigurationError, match="--tau must be a number"):
        parse_config(["--method", "clip-gd", "--data", data_file, "--tau", "big"])


def test_counterexample_node_conflict_from_config_file(tmp_path):
    # the node-count conflict must fire for file values too, not just the flag
    path = tmp_path / "bad.cfg"
    path.write_text("method=gd\nproblem=counterexample\nnodes=3\n")
    with pytest.raises(ConfigurationError, match="exactly 2 nodes"):
        parse_config(["--config", str(path)])
    path.write_text("method=gd\nproblem=counterexample\nnodes=2\n")
    assert parse_config(["--config", str(path)]).nodes == 2


def test_hyphen_and_underscore_method_names(data_file):
    for spelling in ("clip21-gd", "clip21_gd"):
        cfg = parse_config(["--method", spelling, "--data", data_file, "--tau", "1"])
        assert cfg.method == "clip21_gd"


def test_counterexample_defaults():
    cfg = parse_config(["--method", "gd"])
    assert cfg.problem == "quad_counterexample"
    assert cfg.nodes == 2
    assert cfg.x0 == "1.0"
    assert cfg.gamma == "auto"


def test_config_file_and_flag_precedence(tmp_path, data_file):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "# comment line\n"
        "method = clip21-gd\n"
        f"data = {data_file}\n"
        "tau = 0.5  # trailing comment\n"
        "iters = 7\n"
    )
    cfg = parse_config(["--config", str(cfg_path)])
    assert cfg.method == "clip21_gd"
    assert cfg.tau == 0.5
    assert cfg.iters == 7
    flagged = parse_config(["--config", str(cfg_path), "--iters", "9", "--tau", "2"])
    assert flagged.iters == 9
    assert flagged.tau == 2.0


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("method clip21-gd\n")
    with pytest.raises(ConfigurationError, match="expected key = value"):
        load_config_file(str(bad))
    bad.write_text("stride = 7\n")
    with pytest.raises(ConfigurationError, match="unknown config keys"):
        parse_config(["--config", str(bad), "--method", "gd"])
    with pytest.raises(ConfigurationError, match="cannot read"):
        load_config_file(str(tmp_path / "missing.cfg"))


def test_parse_compressor_forms():
    assert parse_compressor("identity").kind == "identity"
    c = parse_compressor("topk:4")
    assert (c.kind, c.k) == ("top_k", 4)
    with pytest.raises(ConfigurationError):
        parse_compressor("topk")
    with pytest.raises(ConfigurationError):
        parse_compressor("rank:2")


def test_end_to_end_counterexample(tmp_path, capsys):
    out = str(tmp_path / "trace.csv")
    code = main(["--method", "clip21-gd", "--tau", "1", "--gamma", "auto", "--iters", "15", "--out", out])
    assert code == 0
    rows = _read_rows(out)
    assert len(rows) == 15
    assert [int(r[0]) for r in rows] == list(range(15))
    gamma = float(rows[0][6])
    assert gamma == pytest.approx(0.011747606429224308, rel=1e-15)
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    assert summary.startswith("summary method=clip21_gd ")
    assert "k_star=3" in summary
    assert "iters_to_all_inactive=1" in summary


def test_csv_is_deterministic_modulo_wall_time(tmp_path, data_file):
    out_a = str(tmp_path / "a.csv")
    out_b = str(tmp_path / "b.csv")
    assert main(_base_args(data_file, out_a)) == 0
    assert main(_base_args(data_file, out_b)) == 0

    def strip_wall(path):
        return ["," .join(line.split(",")[:7]) for line in open(path).read().splitlines()]

    assert strip_wall(out_a) == strip_wall(out_b)


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # above OpenBLAS's 10 000-element cutoff a dot over the flattened node
    # block is threaded, and its partial sums follow the thread count; a box
    # with one core caps the threads at 1, so there both runs are alike anyway
    data = tmp_path / "wide.svm"
    data.write_text(make_wide_sparse_text())
    argv = ["--data", str(data), "--nodes", str(WIDE_NODES), "--method", "clip21-gd", "--tau", "0.5"]
    argv += ["--gamma", "auto", "--iters", "10", "--seed", "3", "--x0", "gaussian:1.0", "--presolve-iters", "20"]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        done = subprocess.run(
            [sys.executable, "-m", "clipshift.cli", *argv, "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
            capture_output=True,
            text=True,
            check=True,
        )
        runs.append((done.stdout, [line.split(",")[:7] for line in out.read_text().splitlines()]))
    assert runs[0] == runs[1]
    assert len(runs[0][1]) == 11


def test_seed_changes_the_noise_path(tmp_path, data_file):
    out_a = str(tmp_path / "a.csv")
    out_b = str(tmp_path / "b.csv")
    args_a = _base_args(
        data_file, out_a, **{"--method": "dp-clip21-gd", "--sigma": "0.01", "--nu": "0.08"}
    )
    args_b = _base_args(
        data_file, out_b, **{"--method": "dp-clip21-gd", "--sigma": "0.01", "--nu": "0.08", "--seed": "4"}
    )
    assert main(args_a) == 0
    assert main(args_b) == 0
    col_a = [r[1] for r in _read_rows(out_a)]
    col_b = [r[1] for r in _read_rows(out_b)]
    assert col_a != col_b


def test_grid_runs_all_children_and_selects_best(tmp_path, data_file, capsys):
    out = str(tmp_path / "grid.csv")
    args = _base_args(data_file, out, **{"--method": "clip-gd", "--gamma": "grid", "--iters": "30"})
    assert main(args) == 0
    printed = capsys.readouterr().out
    finals = {}
    for line in printed.splitlines():
        if line.startswith("grid child"):
            idx = int(line.split()[2].rstrip(":"))
            finals[idx] = float(line.rsplit("=", 1)[1])
    assert sorted(finals) == list(range(len(GRID_MULTIPLES)))
    best_line = [l for l in printed.splitlines() if l.startswith("grid best")][0]
    best_idx = int(best_line.split()[3])
    assert finals[best_idx] == min(finals.values())
    stem = out[: -len(".csv")]
    child_paths = [f"{stem}_grid{i}.csv" for i in range(len(GRID_MULTIPLES))]
    for path in child_paths:
        assert _read_rows(path)
    # the winning child's trace is byte-identical to the reported one
    assert open(out).read() == open(child_paths[best_idx]).read()


def test_grid_best_copy_that_cannot_be_written_exits_3(tmp_path, data_file, capsys):
    out = tmp_path / "taken"
    out.mkdir()  # the children write taken_grid<i>.csv beside it; the copy to --out fails
    args = _base_args(data_file, str(out), **{"--gamma": "grid", "--iters": "5"})
    assert main(args) == 3
    assert capsys.readouterr().err == f"error: cannot write {out}: [Errno 21] Is a directory: '{out}'\n"
    assert len(list(tmp_path.glob("taken_grid*.csv"))) == len(GRID_MULTIPLES)


@pytest.mark.parametrize(
    "out, child",
    [
        ("run.csv", "run_grid{}.csv"),
        ("a.b.txt", "a.b_grid{}.txt"),
        ("trace", "trace_grid{}.csv"),
        # a dot in a folder's name is not the file's extension
        ("./trace", "trace_grid{}.csv"),
        ("out.v1/trace", "out.v1/trace_grid{}.csv"),
    ],
)
def test_grid_child_paths_take_the_extension_from_the_file_name(tmp_path, data_file, monkeypatch, out, child):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out.v1").mkdir()
    assert main(_base_args(data_file, out, **{"--gamma": "grid", "--iters": "5"})) == 0
    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file())
    assert written == sorted([os.path.normpath(out)] + [child.format(i) for i in range(len(GRID_MULTIPLES))])


def test_exit_codes(tmp_path, data_file):
    out = str(tmp_path / "x.csv")
    assert main(["--method", "bogus", "--out", out]) == 2
    assert main(["--method", "clip21-gd", "--tau", "1", "--data", "/no/such/file", "--out", out]) == 3
    assert main(["--method", "gd", "--gamma", "10", "--iters", "300", "--out", out]) == 4
    # divergence leaves the partial trace behind
    assert _read_rows(out)


def test_x0_forms(tmp_path, data_file):
    out = str(tmp_path / "x.csv")
    assert main(_base_args(data_file, out, **{"--x0": "zeros"})) == 0
    assert main(_base_args(data_file, out, **{"--x0": "0.1,0.2,0.3,0.4,0.5"})) == 0
    assert main(_base_args(data_file, out, **{"--x0": "0.25"})) == 0  # broadcast scalar
    assert main(_base_args(data_file, out, **{"--x0": "1,2"})) == 2  # wrong length


def test_avg_method_via_cli(tmp_path, data_file, capsys, monkeypatch):
    # clip21-avg steps at gamma 0 and needs neither L nor f_inf
    def unused(*args, **kwargs):
        raise AssertionError("clip21-avg ran a smoothness pass or the f_inf presolve")

    monkeypatch.setattr(Problem, "smoothness", unused)
    monkeypatch.setattr(cli, "estimate_f_inf", unused)
    out = str(tmp_path / "avg.csv")
    args = _base_args(data_file, out, **{"--method": "clip21-avg", "--tau": "0.05", "--iters": "60"})
    assert main(args) == 0
    rows = _read_rows(out)
    # tracking error reaches zero and every node stops clipping
    assert float(rows[-1][3]) == 0.0
    assert int(rows[-1][4]) == 0
    assert {row[6] for row in rows} == {"0"}  # the gamma column
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    assert "method=clip21_avg" in summary


def test_summary_grad_norm_is_the_last_records_when_x_stays(tmp_path, data_file, capsys):
    # clip21-avg never moves x, so the final evaluation repeats the last row's
    out = str(tmp_path / "avg.csv")
    assert main(_base_args(data_file, out, **{"--method": "clip21-avg", "--tau": "0.05", "--iters": "60"})) == 0
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    assert f"final_grad_norm_sq={_read_rows(out)[-1][2]} " in summary


@pytest.mark.parametrize(
    "method, flag, value",
    [
        ("clip21-gd", "--x0", "-3e-1"),
        ("clip21-gd", "--x0", "-1,2,3,4,5"),
        ("clip21-avg", "--v-init", "-0.5e-1"),
        ("clip21-avg", "--v-init", "-1,2,-3,4,-5"),
        # unique prefixes of the flags, which argparse also accepts
        ("clip21-gd", "--x", "-3e-1"),
        ("clip21-avg", "--v-i", "-1,2,-3,4,-5"),
    ],
)
def test_dashed_vector_values_parse_like_the_equals_form(tmp_path, data_file, method, flag, value):
    # argparse reads a token such as -3e-1 or -1,2 as a flag of its own
    full = next(f for f in ("--x0", "--v-init") if f.startswith(flag))
    spaced = _base_args(data_file, str(tmp_path / "spaced.csv"), **{"--method": method, full: None, flag: value})
    joined = _base_args(data_file, str(tmp_path / "joined.csv"), **{"--method": method, full: None})
    joined.append(f"{flag}={value}")
    assert getattr(parse_config(spaced), full[2:].replace("-", "_")) == value
    assert main(spaced) == main(joined) == 0
    strip = lambda rows: [row[:7] for row in rows]
    assert strip(_read_rows(tmp_path / "spaced.csv")) == strip(_read_rows(tmp_path / "joined.csv"))


def test_unknown_flags_after_a_dashed_value_are_still_errors(tmp_path, data_file, capsys):
    args = _base_args(data_file, str(tmp_path / "x.csv"), **{"--x0": "-0.5"})
    with pytest.raises(SystemExit) as exc:
        parse_config(args + ["--bogus", "-1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        parse_config(args + ["--x0"])  # a flag without its value
    assert "unrecognized arguments: --bogus -1" in capsys.readouterr().err


def test_gd_needs_no_tau(tmp_path):
    out = str(tmp_path / "gd.csv")
    assert main(["--method", "gd", "--gamma", "0.5", "--iters", "5", "--out", out]) == 0


def test_dp_auto_needs_mu(tmp_path, data_file):
    args = _base_args(
        data_file,
        str(tmp_path / "dp.csv"),
        **{"--method": "dp-clip21-gd", "--sigma": "0.01", "--nu": "0.01", "--gamma": "auto"},
    )
    assert main(args) == 2
    args.extend(["--mu", "0.05"])
    assert main(args) == 0


@pytest.mark.parametrize(
    "args,gamma",
    [
        (["--method", "clip21-gd", "--tau", "0.3"], "0.0010555574633835415"),
        (["--method", "press-clip21-gd", "--tau", "0.3", "--compressor", "identity"], "0.0009516487933093424"),
        (
            ["--method", "dp-clip21-gd", "--tau", "1", "--nu", "0.1", "--sigma", "0.05", "--mu", "0.05"],
            "0.0028669062407234063",
        ),
        (["--method", "gd"], "1"),
    ],
)
def test_auto_stepsize_on_the_counterexample_is_pinned(tmp_path, capsys, args, gamma):
    out = str(tmp_path / "auto.csv")
    assert main(args + ["--gamma", "auto", "--iters", "5", "--out", out]) == 0
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    assert f" gamma={gamma} " in summary


@pytest.mark.parametrize("mu", ["-1", "nan"])
def test_mu_must_be_finite_and_non_negative(tmp_path, capsys, mu):
    out = tmp_path / "x.csv"
    assert main(["--method", "clip21-gd", "--tau", "1", "--mu", mu, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: mu must be a finite non-negative real, got {float(mu)}\n"
    assert not out.exists()


def test_mu_checks_around_the_shifted_runs(tmp_path, capsys):
    out = tmp_path / "x.csv"
    args = ["--method", "dp-clip21-gd", "--tau", "1", "--nu", "0.1", "--gamma", "auto", "--out", str(out)]
    assert main(args + ["--mu", "0"]) == 2
    assert "mu must be a positive real, got 0.0" in capsys.readouterr().err
    # clip21-avg runs no stepsize rule and never reads mu
    assert main(["--method", "clip21-avg", "--tau", "1", "--mu", "-1", "--iters", "3", "--out", str(out)]) == 0
    # nor the grid, the compressor, sigma, nu or L: one child writes --out alone
    out.unlink()
    capsys.readouterr()
    avg = ["--method", "clip21-avg", "--tau", "1", "--iters", "5", "--gamma", "grid", "--compressor", "bogus"]
    assert main(avg + ["--sigma", "-1", "--nu", "-1", "--L", "-1", "--mu", "-1", "--out", str(out)]) == 0
    assert sorted(os.listdir(tmp_path)) == ["x.csv"]
    printed = capsys.readouterr().out
    assert "grid child" not in printed and printed.startswith("summary method=clip21_avg ")
    assert len(_read_rows(str(out))) == 5


def test_noise_seed_past_64_bits_exits_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    args = ["--method", "dp-clip21-gd", "--tau", "1", "--nu", "0.1", "--sigma", "0.05", "--gamma", "0.1"]
    args += ["--iters", "3", "--out", str(out), "--seed"]
    assert main(args + [str(2**64)]) == 2
    assert capsys.readouterr().err == "error: seed must be below 2^64, got 18446744073709551616\n"
    assert not out.exists()
    assert main(args + [str(2**64 - 1)]) == 0


@pytest.mark.parametrize("method", METHODS)
def test_seed_past_64_bits_exits_2_before_the_data_is_read(tmp_path, data_file, monkeypatch, capsys, method):
    # the seed bound is checked as the flags are parsed, for every method:
    # neither the data file nor the f_inf presolve is reached
    calls = []
    for name in ("build_problem", "estimate_f_inf"):

        def counted(*args, real=getattr(cli, name), name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    out = tmp_path / "x.csv"
    flags = {"--method": method.replace("_", "-"), "--sigma": "0.01", "--nu": "0.05", "--compressor": "identity"}
    assert main(_base_args(data_file, str(out), **flags, **{"--seed": str(2**64)})) == 2
    assert capsys.readouterr().err == "error: seed must be below 2^64, got 18446744073709551616\n"
    assert calls == [] and not out.exists()


def test_one_smoothness_pass_per_run(tmp_path, data_file, monkeypatch):
    calls = []
    real = Problem.smoothness

    def counted(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Problem, "smoothness", counted)
    out = str(tmp_path / "x.csv")
    assert main(_base_args(data_file, out, **{"--lambda": "0.01"})) == 0
    assert len(calls) == 1


def test_invariant_failure_exits_5(tmp_path, data_file, monkeypatch, capsys):
    def broken_run(*args, **kwargs):
        raise InvariantError("aggregate shift drifted from direct average")

    monkeypatch.setattr(cli, "run", broken_run)
    assert main(_base_args(data_file, str(tmp_path / "x.csv"))) == 5
    assert "internal error" in capsys.readouterr().err


def test_grid_steps_its_children_in_one_run_call(tmp_path, data_file, monkeypatch):
    calls = []
    real = cli.run

    def counted(cfgs, *args, **kwargs):
        calls.append([cfg.gamma for cfg in cfgs])
        return real(cfgs, *args, **kwargs)

    monkeypatch.setattr(cli, "run", counted)
    out = str(tmp_path / "grid.csv")
    assert main(_base_args(data_file, out, **{"--gamma": "grid", "--iters": "5"})) == 0
    assert len(calls) == 1 and len(calls[0]) == 6


def test_grid_report_holds_one_childs_rows_at_a_time(tmp_path, data_file, monkeypatch):
    # after run, the report selects each child's 5 000 rows by a copy of
    # 352 KiB and formats its CSV 256 rows at a time, about 120 KiB; each
    # copy is freed before the next child's is made. Holding two at once
    # peaked at 766 KiB
    real = cli.run

    def traced(*args, **kwargs):
        result = real(*args, **kwargs)
        tracemalloc.start()
        return result

    monkeypatch.setattr(cli, "run", traced)
    try:
        assert main(_base_args(data_file, str(tmp_path / "grid.csv"), **{"--gamma": "grid", "--iters": "5000"})) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5000 * TRACE_DTYPE.itemsize + 160 * 1024, f"peak {peak / 1024:.1f} KiB"


def test_grid_child_divergence_keeps_partial_trace(tmp_path, capsys):
    # on the counterexample L = 1, so child 5 runs gd at gamma = 8 and blows up
    out = str(tmp_path / "grid.csv")
    assert main(["--method", "gd", "--gamma", "grid", "--iters", "400", "--out", out]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[5].startswith("grid child 5: gamma=8 diverged (")
    assert printed[6] == "grid best: child 3 (gamma=2)"
    assert printed[7].startswith("summary method=gd ")
    partial = _read_rows(str(tmp_path / "grid_grid5.csv"))
    assert 0 < len(partial) < 400
    assert open(out).read() == open(tmp_path / "grid_grid3.csv").read()


def test_overflowing_final_objective_is_divergence(tmp_path, capsys):
    # gd at gamma 10 maps x to -4x on the counterexample: x_256 = 2^512 is
    # finite, but f(x_256) = x^2/4 overflows, and so does the summary's final_f
    out = tmp_path / "x.csv"
    args = ["--method", "gd", "--gamma", "10", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(args + ["--iters", "256"]) == 4
        captured = capsys.readouterr()
        assert captured.err == "diverged: non-finite objective at iteration 256\n"
        assert captured.out == ""
        assert len(_read_rows(str(out))) == 256  # the whole trace stays written
        assert main(args + ["--iters", "255"]) == 0
    assert "final_f=2.8088955232223686e+306 " in capsys.readouterr().out


def test_grid_child_with_overflowing_final_objective_diverges(tmp_path, capsys):
    # child 5 runs gd at gamma 8, x -> -3x: f stays finite up to x_323 and
    # overflows at x_324, so the child diverges and is never a best candidate
    out = str(tmp_path / "grid.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["--method", "gd", "--gamma", "grid", "--iters", "324", "--out", out]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[5] == "grid child 5: gamma=8 diverged (non-finite objective at iteration 324)"
    assert printed[6] == "grid best: child 3 (gamma=2)"
    assert len(_read_rows(str(tmp_path / "grid_grid5.csv"))) == 324


def test_grid_where_every_child_diverges_exits_4(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    args = ["--method", "gd", "--gamma", "grid", "--iters", "400", "--L", "0.001", "--out", str(out)]
    assert main(args) == 4
    captured = capsys.readouterr()
    assert captured.err == "diverged: every grid stepsize diverged\n"
    assert len([l for l in captured.out.splitlines() if l.endswith(")")]) == len(GRID_MULTIPLES)
    assert not out.exists()


# the 21 options by config key, each with a sample value as written and as
# parsed, and the default the README and --help document ("derived" where
# other options decide it); the flag is "--" + key with "_" written as "-"
OPTION_CASES = {
    "method": ("clip_gd", "clip_gd", None),
    "problem": ("linreg_nonconvex", "linreg_nonconvex", "derived"),
    "data": ("DATA", "DATA", None),
    "nodes": ("3", 3, 10),
    "tau": ("0.25", 0.25, None),
    "gamma": ("grid", "grid", "auto"),
    "sigma": ("0.5", 0.5, 0.0),
    "nu": ("2", 2.0, 0.0),
    "lambda": ("0.01", 0.01, 0.0),
    "reg": ("nonconvex", "nonconvex", "l2"),
    "iters": ("7", 7, 1000),
    "seed": ("5", 5, 0),
    "compressor": ("topk:2", "topk:2", None),
    "out": ("x.csv", "x.csv", "run.csv"),
    "x0": ("0.5", "0.5", "derived"),
    "mu": ("0.1", 0.1, None),
    "L": ("3", 3.0, None),
    "beta_q": ("4", 4.0, 2.0),
    "alpha_q": ("0.5", 0.5, 1.0),
    "presolve_iters": ("0", 0, 100000),
    "v_init": ("0.25", "0.25", "zeros"),
}
_REQUIRED = {"method": "clip21-gd", "tau": "1", "data": "DATA"}


def test_option_table_keeps_the_documented_keys():
    assert [row[0] for row in cli.OPTIONS] == list(OPTION_CASES)


@pytest.mark.parametrize("key", [row[0] for row in cli.OPTIONS])
def test_flag_and_config_key_parse_alike(key, tmp_path, data_file):
    text, parsed, default = OPTION_CASES[key]
    text, parsed = (data_file, data_file) if key == "data" else (text, parsed)
    base = []
    for other, value in _REQUIRED.items():
        if other != key:
            base += ["--" + other, data_file if value == "DATA" else value]
    cfg_path = tmp_path / "one.cfg"
    cfg_path.write_text(f"{key} = {text}\n")
    flag_cfg = parse_config(base + ["--" + key.replace("_", "-"), text])
    assert flag_cfg == parse_config(base + ["--config", str(cfg_path)])
    assert getattr(flag_cfg, cli.option_field(key)) == parsed
    # an empty config file leaves every other option at its documented default
    cfg_path.write_text("")
    defaults = parse_config(base + ["--" + key.replace("_", "-"), text, "--config", str(cfg_path)])
    for other, (_, _, documented) in OPTION_CASES.items():
        if other != key and other not in _REQUIRED and documented != "derived":
            assert getattr(defaults, cli.option_field(other)) == documented, other


@pytest.mark.parametrize(
    "flag, value", [("--x0", "inf"), ("--x0", "nan"), ("--v-init", "inf"), ("--x0", "-inf"), ("--v-init", "-Infinity")]
)
def test_non_finite_vectors_are_configuration_errors(tmp_path, data_file, capsys, flag, value):
    args = _base_args(data_file, str(tmp_path / "x.csv"), **{"--method": "clip21-avg", flag: value})
    assert main(args) == 2
    assert f"error: {flag} values must be finite" in capsys.readouterr().err


def test_non_utf8_data_file_is_a_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.svm"
    bad.write_bytes(b"+1 1:0.5\n\xff\xfe 2:1\n")
    assert main(["--method", "gd", "--data", str(bad), "--out", str(tmp_path / "x.csv")]) == 3
    assert "cannot read data file" in capsys.readouterr().err


def test_non_utf8_config_file_is_a_configuration_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"method = gd\n\xff = 1\n")
    with pytest.raises(ConfigurationError, match="cannot read config file"):
        load_config_file(str(bad))
    assert main(["--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2


def test_negative_presolve_iters_rejected():
    with pytest.raises(ConfigurationError, match="--presolve-iters must be non-negative, got -3"):
        parse_config(["--method", "gd", "--presolve-iters", "-3"])
    assert parse_config(["--method", "gd", "--presolve-iters", "0"]).presolve_iters == 0


def test_overflowing_start_points_exit_with_typed_codes(tmp_path, data_file, capsys):
    # 1e308 overflows the gradient norms; 1e156 overflows the l2 term of the
    # objective, which is reported as divergence. Either way the one line on
    # stderr is the typed error: numpy's overflow warnings would raise here.
    out = str(tmp_path / "x.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for method in ("clip21-gd", "clip21-avg"):
            for start, code in (({"--x0": "1e308"}, 2), ({"--lambda": "1e-3", "--x0": "1e156"}, 4)):
                assert main(_base_args(data_file, out, **{"--method": method, **start})) == code
                assert len(capsys.readouterr().err.splitlines()) == 1


def test_zero_lambda_start_point_far_out_is_finite(tmp_path, data_file):
    # with lam = 0 nothing overflows at 1e200: f is about 4.4e199 and every
    # gradient entry is bounded, so the run goes ahead
    out = str(tmp_path / "x.csv")
    for method in ("clip21-gd", "clip21-avg"):
        assert main(_base_args(data_file, out, **{"--method": method, "--x0": "1e200"})) == 0
        assert all(1e199 < float(row[1]) < 1e200 for row in _read_rows(out))


@pytest.mark.parametrize(
    "method, start, code, message",
    [
        ("clip21-gd", {"--x0": "1e308"}, 2, "gradient norms"),
        ("clip21-gd", {"--lambda": "1e-3", "--x0": "1e156"}, 4, "f(x0) - f_inf"),
        ("clip21-avg", {"--x0": "1e308"}, 2, "gradient norms"),
        ("clip21-avg", {"--lambda": "1e-3", "--x0": "1e156"}, 4, "f(x0) is inf"),
    ],
    ids=["1e308", "1e156", "avg-1e308", "avg-1e156"],
)
def test_overflowing_start_point_stops_before_any_run(
    tmp_path, data_file, monkeypatch, capsys, method, start, code, message
):
    # F0 = max(0, nan) would silently read 0; the start point is rejected instead
    def no_run(*args, **kwargs):
        raise AssertionError("an optimizer run started from an overflowing x0")

    monkeypatch.setattr(cli, "run", no_run)
    out = tmp_path / "x.csv"
    for gamma in ("auto", "grid"):
        args = _base_args(data_file, str(out), **{"--method": method, **start, "--gamma": gamma})
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(args) == code
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def test_gaussian_x0_draws_from_the_slot_after_aggregate_noise(data_file):
    cfg = parse_config(
        ["--method", "gd", "--data", data_file, "--nodes", "4", "--seed", "9", "--x0", "gaussian:0.7"]
    )
    problem = cli.build_problem(cfg)
    expected = gaussian_sample(9, 4 + 1, 0, problem.d, 0.7)
    assert np.array_equal(cli.resolve_x0(cfg, problem), expected)


_TINY_TAU = "error: no finite no-more-clipping horizon at tau=1e-310\n"
# tau^2 overflows, so no certified stepsize is a finite float
_HUGE_TAU = "error: no finite certified stepsize at tau=1e+200\n"
# a divisor of the certificate rounds to 0: the shift gap below eta of about
# 1.1e-16, and L_max^2 at the counterexample's tiny curvatures
_NO_GAP = (
    "error: the shift gap 1 - (1-eta)(1-eta/2) at tau=1e-17, eta=5e-18 rounds to 0, "
    "and the certificate divides by it\n"
)
_NO_L_MAX_SQ = "error: L_max^2 at L_max=1e-300 rounds to 0, and the certificate divides by it\n"
_TINY_CURVATURES = ["--tau", "1", "--beta-q", "1e-300", "--alpha-q", "1e-301", "--iters", "3"]


# (flag overrides on _base_args, or a full argv for the counterexample; exit
# code; exact stderr). Every row writes nothing and prints nothing on stdout.
@pytest.mark.parametrize(
    "overrides, code, stderr",
    [
        ({"--tau": "-1"}, 2, "error: tau must be a positive real, got -1.0\n"),
        ({"--tau": "nan"}, 2, "error: tau must be a positive real, got nan\n"),
        ({"--method": "clip21-avg", "--tau": "0"}, 2, "error: clip threshold must be a positive real, got 0.0\n"),
        ({"--gamma": "-0.1"}, 2, "error: gamma must be a positive real, got -0.1\n"),
        ({"--gamma": "nan"}, 2, "error: gamma must be a positive real, got nan\n"),
        ({"--gamma": "big"}, 2, "error: --gamma must be a number, got 'big'\n"),
        ({"--method": "dp-clip-gd", "--sigma": "-1", "--nu": "0.05"}, 2,
         "error: sigma must be a finite non-negative real, got -1.0\n"),
        ({"--method": "dp-clip21-gd", "--nu": "0"}, 2,
         "error: method dp_clip21_gd needs a positive noise clip bound nu, got 0.0\n"),
        ({"--method": "dp-clip-gd", "--nu": "nan"}, 2,
         "error: method dp_clip_gd needs a positive noise clip bound nu, got nan\n"),
        ({"--method": "dp-clip21-gd", "--gamma": "auto", "--nu": "-1", "--mu": "0.01"}, 2,
         "error: nu must be a finite non-negative real, got -1.0\n"),
        ({"--method": "dp-clip21-gd", "--gamma": "auto", "--nu": "0.05", "--mu": "-1"}, 2,
         "error: mu must be a finite non-negative real, got -1.0\n"),
        ({"--method": "dp-clip21-gd", "--gamma": "auto", "--nu": "0.05", "--mu": "0"}, 2,
         "error: mu must be a positive real, got 0.0\n"),
        ({"--method": "dp-clip21-gd", "--gamma": "auto", "--nu": "0.05"}, 2, "error: the noisy stepsize rule needs mu\n"),
        ({"--iters": "0"}, 2, "error: --iters must be >= 1, got 0\n"),
        ({"--iters": "2.5"}, 2, "error: --iters must be an integer, got '2.5'\n"),
        ({"--seed": "-1"}, 2, "error: --seed must be non-negative, got -1\n"),
        ({"--presolve-iters": "-3"}, 2, "error: --presolve-iters must be non-negative, got -3\n"),
        ({"--nodes": "0"}, 2, "error: --nodes must be >= 1, got 0\n"),
        ({"--lambda": "-1"}, 2, "error: lambda must be a finite non-negative real, got -1.0\n"),
        ({"--lambda": "nan"}, 2, "error: lambda must be a finite non-negative real, got nan\n"),
        ({"--method": "clip-gd", "--L": "-1"}, 2, "error: need a positive smoothness constant, got -1.0\n"),
        ({"--method": "press-clip21-gd", "--compressor": "topk:0"}, 2,
         "error: top_k compressor needs a positive integer k\n"),
        ({"--method": "press-clip21-gd", "--compressor": "topk:99"}, 2, "error: top_k with k=99 exceeds dimension 5\n"),
        (["--method", "clip21-gd", "--tau", "1", "--beta-q", "0.5"], 2,
         "error: quad_counterexample requires beta_q > alpha_q > 0, got (0.5, 1.0)\n"),
        (["--method", "clip21-gd", "--tau", "1", "--beta-q", "inf"], 2, "error: --beta-q must be a finite real, got inf\n"),
        (["--method", "clip21-gd", "--tau", "1", "--alpha-q", "nan"], 2, "error: --alpha-q must be a finite real, got nan\n"),
        ({"--reg": "l1"}, 2, "error: --reg must be l2 or nonconvex, got 'l1'\n"),
        (["--method", "clip21-gd", "--tau", "1e-310", "--gamma", "0.1", "--iters", "3"], 2, _TINY_TAU),
        (["--method", "clip21-avg", "--tau", "1e-310", "--iters", "3"], 2, _TINY_TAU),
        (["--method", "clip21-gd", "--tau", "1e-17", "--gamma", "auto", "--iters", "3"], 2, _NO_GAP),
        # an explicit gamma still takes its Lyapunov weight from the gap
        (["--method", "clip21-gd", "--tau", "1e-17", "--gamma", "0.1", "--iters", "3"], 2, _NO_GAP),
        (["--method", "clip21-gd"] + _TINY_CURVATURES, 2, _NO_L_MAX_SQ),
        (["--method", "dp-clip21-gd", "--nu", "0.1", "--mu", "1"] + _TINY_CURVATURES, 2, _NO_L_MAX_SQ),
        # the trace is allocated before the first step, so an iteration count
        # whose trace no address space holds is refused up front
        (["--method", "gd", "--gamma", "0.1", "--iters", str(10**18)], 2,
         "error: a trace of 1000000000000000000 rows (1000000000000000000 iters x 1 configs) of 72 bytes "
         "cannot be allocated\n"),
        # every gradient entry is finite; only the norm's sum of squares overflows
        (["--method", "clip21-gd", "--tau", "1", "--beta-q", "1e308", "--alpha-q", "1e307", "--iters", "3"], 2,
         "error: the norm of node 0's gradient at x0 overflows: its entries are finite, "
         "but their sum of squares exceeds the float64 range\n"),
    ]
    + [
        (["--method", method, "--tau", "1e200", "--gamma", "auto", "--iters", "3"] + extra, 2, _HUGE_TAU)
        for method, extra in (
            ("clip21-gd", []),
            ("dp-clip21-gd", ["--nu", "0.1", "--mu", "0.05"]),
            ("press-clip21-gd", ["--compressor", "identity"]),
        )
    ]
    + [
        ({"--method": method, flag: f"gaussian:{scale}"}, 2,
         f"error: {flag} gaussian scale must be a finite non-negative real, got {float(scale)}\n")
        for flag, method in (("--x0", "clip21-gd"), ("--v-init", "clip21-avg"))
        for scale in ("nan", "inf", "-1")
    ],
)
def test_invalid_invocations_exit_with_one_error_line(tmp_path, data_file, capsys, overrides, code, stderr):
    out = str(tmp_path / "x.csv")
    if isinstance(overrides, dict):
        args = _base_args(data_file, out, **overrides)
    else:
        args = overrides + ["--out", out]
    assert main(args) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", stderr)
    assert list(tmp_path.iterdir()) == []


def _csv_reference(trace) -> str:
    # the row-by-row formatting, one field at a time
    ints, fields = ("k", "active_nodes", "wall_micros"), CSV_HEADER.split(",")
    lines = [CSV_HEADER]
    for row in trace:
        lines.append(",".join(str(int(row[n])) if n in ints else cli._fmt(float(row[n])) for n in fields))
    return "\n".join(lines) + "\n"


def test_write_csv_matches_row_by_row_formatting(tmp_path):
    # more rows than one chunk, awkward floats, and a strided grid child's view
    rows = 2 * cli._CSV_CHUNK + 3
    rng = np.random.default_rng(16)
    trace = np.zeros(rows, TRACE_DTYPE).view(np.recarray)
    trace["k"] = np.arange(rows)
    for name in ("f", "grad_norm_sq", "lyapunov", "v_norm", "gamma"):
        trace[name] = rng.standard_normal(rows) * 10.0 ** rng.integers(-320, 300, rows)
    trace["f"][:4] = (-0.0, 5e-324, 1.7976931348623157e308, 0.1)
    trace["active_nodes"] = rng.integers(0, 10, rows)
    trace["wall_micros"] = rng.integers(0, 10**6, rows)
    path = tmp_path / "t.csv"
    for view in (trace, trace[1::3], trace[-5:]):
        cli.write_csv(view, str(path))
        assert path.read_text() == _csv_reference(view)


def test_write_csv_refuses_an_empty_trace(tmp_path):
    with pytest.raises(ConfigurationError, match="empty trace"):
        cli.write_csv(np.zeros(0, TRACE_DTYPE).view(np.recarray), str(tmp_path / "t.csv"))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "active, expected", [((0, 0, 0), 0), ((2, 1, 0, 0), 2), ((0, 1, 0, 1), -1), ((1, 0, 3, 0, 0), 3)]
)
def test_iters_to_all_inactive_is_one_past_the_last_clipping_row(active, expected):
    trace = np.zeros(len(active), TRACE_DTYPE).view(np.recarray)
    trace["k"] = np.arange(len(active))
    trace["active_nodes"] = active
    assert cli.iters_to_all_inactive(trace) == expected


# edge values of a real and of a count
_EDGE_REALS = ("0", "-0", "5e-324", "-5e-324", "1e-300", "1e308", "inf", "-inf", "nan")
_EDGE_COUNTS = ("0", "-1", "-7", "2.5", "1e308", "inf", "nan", "")


def _sweep_values(data_file, out_dir):
    """For every OPTIONS row, by key: (ordinary values, edge values), None
    leaving the flag out. The counts that set the work, iters and
    presolve_iters, are always given, at 30 or below."""
    vector = ("1,2", "", "x", "gaussian:", "gaussian:x", *_EDGE_REALS, *("gaussian:" + v for v in _EDGE_REALS))
    return {
        "method": (tuple(m.replace("_", "-") for m in METHODS), (None, "newton", "")),
        "problem": ((None, "logistic", "linreg", "counterexample"), ("quad-counterexample", "svm", "")),
        "data": ((None, data_file), (str(out_dir / "missing.svm"), str(out_dir / "sub"), "")),
        "nodes": ((None, "1", "4", "7"), ("2", "60", "61", *_EDGE_COUNTS)),
        "tau": (("0.5", "0.05", "3"), (None, *_EDGE_REALS)),
        "gamma": ((None, "auto", "grid", "0.1"), ("big", *_EDGE_REALS)),
        "sigma": ((None, "0.01"), _EDGE_REALS),
        "nu": ((None, "0.05"), _EDGE_REALS),
        "lambda": ((None, "0.01"), _EDGE_REALS),
        "reg": ((None, "l2", "nonconvex"), ("l1", "")),
        "iters": (("1", "2", "5"), _EDGE_COUNTS),
        "seed": ((None, "3"), (str(2**64), *_EDGE_COUNTS)),
        "compressor": (
            (None, "identity", "topk:1", "topk:3"),
            ("topk:0", "topk:-1", "topk:", "topk:x", "topk:1.5", "topk:99", "top", ""),
        ),
        "out": ((str(out_dir / "run.csv"),), (str(out_dir / "missing" / "run.csv"), str(out_dir / "sub"))),
        "x0": ((None, "zeros", "gaussian:1.0", "0.5", "1,-1,0.5,2,0"), vector),
        "mu": ((None, "0.05"), _EDGE_REALS),
        "L": ((None, "1"), _EDGE_REALS),
        "beta_q": ((None, "2", "0.5"), _EDGE_REALS),
        "alpha_q": ((None, "1"), _EDGE_REALS),
        "presolve_iters": (("5", "30"), _EDGE_COUNTS),
        "v_init": ((None, "zeros", "gaussian:0.7", "0.25", "0.1,-0.2,0.3,-0.4,0.5"), vector),
    }


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("sweep")
    (out_dir / "sub").mkdir()  # a path that names a directory
    return out_dir


def test_sweep_has_values_for_every_option(data_file, sweep_dir):
    assert list(_sweep_values(data_file, sweep_dir)) == [row[0] for row in OPTIONS]


@given(data=st.data())
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
def test_every_option_value_ends_in_an_exit_code(data_file, sweep_dir, data):
    # on the counterexample or the 60-row toy set, at most 5 iterations: up to
    # three options take an edge value and the rest ordinary ones, and every
    # failure is a typed error with its exit code, never an escaped exception
    values = _sweep_values(data_file, sweep_dir)
    edges = data.draw(st.sets(st.sampled_from(list(values)), max_size=3), label="edges")
    argv = []
    for key, (ordinary, edge) in values.items():
        value = data.draw(st.sampled_from(edge if key in edges else ordinary), label=key)
        argv += [] if value is None else [option_flag(key), value]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the privacy-calibration warning
        assert main(argv) in (0, 2, 3, 4, 5), argv
