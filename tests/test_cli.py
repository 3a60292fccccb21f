"""Flag parsing, config files, CSV output, and exit codes."""

import numpy as np
import pytest

from clipshift import ConfigurationError, InvariantError, Problem, cli
from clipshift.cli import (
    CSV_HEADER,
    GRID_MULTIPLES,
    load_config_file,
    main,
    parse_compressor,
    parse_config,
)


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


def test_avg_method_via_cli(tmp_path, data_file, capsys):
    out = str(tmp_path / "avg.csv")
    args = _base_args(data_file, out, **{"--method": "clip21-avg", "--tau": "0.05", "--iters": "60"})
    assert main(args) == 0
    rows = _read_rows(out)
    # tracking error reaches zero and every node stops clipping
    assert float(rows[-1][3]) == 0.0
    assert int(rows[-1][4]) == 0
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    assert "method=clip21_avg" in summary


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
