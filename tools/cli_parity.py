"""Compare the clipshift CLI of two git revisions, invocation by invocation.

    python tools/cli_parity.py PARENT_REV [CHANGE_REV]

Each side is a ``git archive`` of its revision's src/; with CHANGE_REV
omitted the change side is the working tree's src/. The script writes a
seeded 60 x 5 LibSVM toy set, two sparse 60 x 6 sets (one with a column
that is constant inside some shards, one whose largest index first
appears on a late line), a sparse 12 000 x 60 set and a few config and
malformed files, then runs every invocation kind of the fixed table
kinds() once per side, each in a fresh ``python -m clipshift.cli``
process and its own empty directory, and the change side a second time
to check rerun determinism. clipshift loads OpenBLAS on one thread
unless OPENBLAS_NUM_THREADS is set, and that second run sets it to 2, so
on a box with more than one core it also checks that the outputs do not
depend on the BLAS thread count: the 12 000-row set on 200 nodes puts
12 000 values in each flattened node block, above OpenBLAS's
10 000-element cutoff for a threaded dot. Two processes run at a time.

It prints:
  - the kinds whose exit code, stdout or stderr differ between the sides,
    with the first line of each stream that differs (stderr with each
    side's source directory written as <src>; kinds
    whose stderr differs only in the line number of a warning's source
    location are listed apart, since any edit above that line moves it,
    and so are kinds whose stdout differs only in the digits of the
    summary numbers final_f, final_grad_norm_sq and gamma, with the
    largest relative deviation of each);
  - for each of the first 7 CSV columns (all but wall_micros), the
    largest relative deviation |a - b| / max(|a|, |b|) between the sides
    over every CSV written, and the kinds where the column moved; and
    the same for lyapunov's deviation relative to its row's |f|;
  - whether the second change-side run, on two BLAS threads, reproduced
    the first: exit code, stdout, stderr and the first 7 CSV columns, byte
    for byte.

The exit status is 0 when the sides agree on everything above, else 1;
a warning's moved source line number alone is listed but leaves it 0.
The temporary tree (under $TMPDIR) is removed at the end.
"""

from __future__ import annotations

import argparse
import io
import itertools
import math
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
COLUMNS = ("k", "f", "grad_norm_sq", "lyapunov", "active_nodes", "v_norm", "gamma")
# each column's deviation, then lyapunov's relative to its row's |f|: lyapunov
# is f - f_inf plus the shift term, so where f - f_inf has cancelled to a few
# ulps of f, a one-ulp move of f is a large move relative to lyapunov itself
LABELS = COLUMNS + ("lyapunov/|f|",)
SUMMARY_NUMBERS = ("final_f", "final_grad_norm_sq", "gamma")
CHILD_TIMEOUT_S = 300
JOBS = 2
RERUN_THREADS = "2"  # not clipshift's default of one, so the rerun varies the thread count


def write_inputs(where: Path) -> dict:
    """The files the kinds read, by placeholder name."""
    rng = np.random.default_rng(88)
    lines = []
    for _ in range(60):
        x = rng.standard_normal(5)
        y = 1 if x.sum() > 0 else -1
        lines.append(f"{y:+d} " + " ".join(f"{j + 1}:{x[j]:.5f}" for j in range(5)))
    # sparse sets of 60 rows in d = 6, labelled as the toy set: in "sparse_const"
    # column 3 is 1.0 on every -1 row, so it is constant inside the label-sorted
    # shards that hold only -1 rows; in "sparse_late" index 6, the largest, first
    # appears on line 51
    const, late = [], []
    for line in range(60):
        x = rng.standard_normal(6)
        keep = rng.random(6) < 0.5
        y = 1 if x.sum() > 0 else -1
        if y < 0:
            x[2], keep[2] = 1.0, True
        const.append(f"{y:+d} " + " ".join(f"{j + 1}:{x[j]:.5f}" for j in range(6) if keep[j]))
        keep[5] = keep[5] and line >= 49
        late.append(f"{y:+d} " + " ".join(f"{j + 1}:{x[j]:.5f}" for j in range(6) if keep[j]))
    files = {
        "toy": "\n".join(lines) + "\n",
        "sparse_const": "\n".join(const) + "\n",
        "sparse_late": "\n".join(late) + "\n",
        "cfg": "method = clip21-gd\ntau = 0.5\ngamma = auto\niters = 30  # a comment\nnodes = 4\n",
        "cfg_unknown": "method = gd\nbogus = 1\n",
    }
    # 12 000 rows of 5 nonzeros in d = 60, for 200 nodes of 60 rows
    columns = np.sort(np.argsort(rng.random((12_000, 60)), axis=1)[:, :5], axis=1)
    values = rng.standard_normal((12_000, 5))
    labels = np.where(values.sum(axis=1) + 0.5 * rng.standard_normal(12_000) > 0, 1, -1)
    files["wide"] = "".join(
        f"{y:+d} " + " ".join(f"{j + 1}:{v:.5f}" for j, v in zip(row, vals)) + "\n"
        for y, row, vals in zip(labels.tolist(), columns.tolist(), values.tolist())
    )
    paths = {name: where / f"{name}.txt" for name in files}
    for name, text in files.items():
        paths[name].write_text(text)
    paths["bad_data"] = where / "bad_data.txt"
    paths["bad_data"].write_bytes(b"+1 1:0.5\n\xff\xfe 2:1\n")
    # malformed sets whose first error a second read of the file must keep:
    # a descending index; a malformed line after an index too large to
    # allocate; a malformed line 2, then an undecodable byte past the first
    # 8 KB a text file decodes at once
    malformed = {
        "bad_descending": b"+1 1:1\n-1 3:1 2:5\n",
        "bad_huge_then_malformed": b"+1 1:1\n-1 2:1 1000000000000000:1\n+1 1:1 x:2\n",
        "bad_late_byte": b"+1 1:1\n+7 1:1\n" + b"-1 1:1 2:1\n" * 1000 + b"\xff\n",
    }
    for name, payload in malformed.items():
        paths[name] = where / f"{name}.txt"
        paths[name].write_bytes(payload)
    paths["bad_cfg"] = where / "bad_cfg.txt"
    paths["bad_cfg"].write_bytes(b"method = gd\n\xff = 1\n")
    paths["missing"] = where / "missing.txt"
    paths["cfg"].write_text(paths["cfg"].read_text() + f"data = {paths['toy']}\n")
    return {name: str(path) for name, path in paths.items()}


def kinds(files: dict) -> list:
    """(name, argv) for every invocation kind."""
    toy = ["--data", files["toy"], "--nodes", "4", "--seed", "3", "--presolve-iters", "200"]
    base = toy + ["--x0", "gaussian:1.0", "--iters", "40"]
    # method: (its options but tau, tau on the toy set, tau on the counterexample)
    noise = ["--sigma", "0.01", "--nu", "0.05", "--mu", "0.05"]
    methods = {
        "gd": ([], None, None),
        "clip-gd": ([], "0.5", "1"),
        "dp-clip-gd": (noise, "0.5", "1"),
        "clip21-gd": ([], "0.5", "1"),
        "dp-clip21-gd": (noise, "0.5", "1"),
        "press-clip21-gd": (["--compressor", "topk:1"], "0.5", "1"),
        "clip21-avg": ([], "0.05", "0.3"),
    }
    out = []
    for method, (extra, tau, quad_tau) in methods.items():
        extra = ["--method", method] + extra
        for gamma in ("auto", "grid", "0.1"):
            out.append((f"{method}-{gamma}", base + extra + ["--gamma", gamma] + (["--tau", tau] if tau else [])))
        quad = extra + ["--gamma", "auto", "--iters", "60"] + (["--tau", quad_tau] if quad_tau else [])
        out.append((f"{method}-counterexample", quad))
    avg = toy + ["--method", "clip21-avg", "--iters", "60"]
    for tau in ("0.05", "0.5", "3"):
        for v_init in ("zeros", "gaussian:0.7", "0.25", "0.1,-0.2,0.3,-0.4,0.5"):
            out.append((f"avg-tau{tau}-v{v_init}", avg + ["--tau", tau, "--x0", "gaussian:1.0", "--v-init", v_init]))
    for x0 in ("zeros", "gaussian:1.0", "0.25", "1,-1,0.5,2,0"):
        out.append((f"avg-x0-{x0}", avg + ["--tau", "0.5", "--x0", x0]))
    for nodes in ("1", "10"):
        out.append((f"avg-nodes{nodes}", avg + ["--tau", "0.5", "--nodes", nodes, "--v-init", "gaussian:0.7"]))
    # 60 rows on 7 nodes: shards of 9, 9, 9, 9, 8, 8, 8 rows, so the block has padding rows
    uneven = base + ["--nodes", "7"]
    out += [
        ("uneven-gd-grid", uneven + ["--method", "gd", "--gamma", "grid"]),
        ("uneven-clip21-gd-auto", uneven + ["--method", "clip21-gd", "--tau", "0.5", "--gamma", "auto"]),
        ("uneven-dp-clip21-gd", uneven + ["--method", "dp-clip21-gd", "--tau", "0.5"] + noise + ["--gamma", "0.1"]),
        ("uneven-press-grid", uneven + ["--method", "press-clip21-gd", "--tau", "0.5", "--compressor", "topk:2"]
         + ["--gamma", "grid"]),
        ("uneven-linreg", uneven + ["--problem", "linreg", "--method", "clip21-gd", "--tau", "0.5", "--gamma", "0.01"]),
        ("uneven-avg", avg + ["--nodes", "7", "--tau", "0.5", "--v-init", "gaussian:0.7"]),
    ]
    for data in ("sparse_const", "sparse_late"):
        sparse = ["--data", files[data], "--seed", "3", "--presolve-iters", "200", "--x0", "gaussian:1.0"]
        for nodes in ("4", "7"):
            tag = f"{data.replace('_', '-')}-nodes{nodes}"
            sparse_n = sparse + ["--nodes", nodes, "--iters", "40"]
            out += [
                (f"{tag}-clip21-gd-auto", sparse_n + ["--method", "clip21-gd", "--tau", "0.5", "--gamma", "auto"]),
                (f"{tag}-gd-grid", sparse_n + ["--method", "gd", "--gamma", "grid", "--lambda", "0.01"]),
                (f"{tag}-avg", sparse_n + ["--method", "clip21-avg", "--tau", "0.05"]),
            ]
    wide = ["--data", files["wide"], "--nodes", "200", "--seed", "3", "--presolve-iters", "20", "--x0", "gaussian:1.0"]
    out.append(("wide-clip21-gd", wide + ["--iters", "40", "--method", "clip21-gd", "--tau", "0.5", "--gamma", "0.1"]))
    # six stacked points: 6 x 200 x 60 row values, 563 KB an array of evaluate's
    out.append(("wide-clip21-gd-grid", wide + ["--iters", "40", "--method", "clip21-gd", "--tau", "0.5"]
                + ["--gamma", "grid"]))
    no_tau = base + ["--method", "clip21-gd"]
    clip21 = no_tau + ["--tau", "0.5"]
    out += [
        ("avg-iters1", avg + ["--tau", "0.05", "--iters", "1"]),
        ("avg-far-start-shifts", avg + ["--tau", "1e140", "--v-init", "1e100"]),
        ("avg-lambda", avg + ["--tau", "0.05", "--lambda", "0.01"]),
        ("avg-nonconvex", avg + ["--tau", "0.05", "--reg", "nonconvex", "--lambda", "0.1", "--x0", "0.5"]),
        ("avg-ignores-mu-sigma", avg + ["--tau", "0.5", "--mu", "-1", "--sigma", "-1", "--L", "-1"]),
        # the single-node rule and the compressed rule with a margin: no other
        # --gamma auto kind reaches them with a finite stepsize
        ("clip21-gd-auto-nodes1", clip21 + ["--gamma", "auto", "--nodes", "1"]),
        ("press-clip21-gd-auto-topk3", base + ["--method", "press-clip21-gd", "--tau", "0.5"]
         + ["--compressor", "topk:3", "--gamma", "auto"]),
        ("clip21-gd-lambda", clip21 + ["--lambda", "0.01"]),
        ("clip21-gd-nonconvex", clip21 + ["--reg", "nonconvex", "--lambda", "0.1"]),
        ("linreg-clip21-gd", clip21 + ["--problem", "linreg", "--gamma", "0.01"]),
        ("dp-clip21-gd-warns", base + ["--method", "dp-clip21-gd", "--tau", "0.1", "--sigma", "0.05", "--nu", "0.1"]
         + ["--gamma", "0.1"]),
        ("dp-clip-gd-grid-sigma0", base + ["--method", "dp-clip-gd", "--tau", "0.5", "--nu", "0.05"]
         + ["--gamma", "grid"]),
        ("press-identity-grid", base + ["--method", "press-clip21-gd", "--tau", "0.5", "--compressor", "identity"]
         + ["--gamma", "grid"]),
        # noise is drawn in chunks of 16384 // (runs * elements a step) steps: 819 for
        # dp-clip21-gd's 4 x 5 block, 3276 for dp-clip-gd's one row of 5 (136 and 546 for a
        # grid's six children, which share one seed), so these runs cross a chunk boundary
        # and end mid-chunk
        ("dp-clip21-gd-chunks", base + ["--method", "dp-clip21-gd", "--tau", "0.5"] + noise
         + ["--gamma", "0.1", "--iters", "1000"]),
        ("dp-clip-gd-chunks", base + ["--method", "dp-clip-gd", "--tau", "0.5"] + noise
         + ["--gamma", "0.1", "--iters", "4000"]),
        ("dp-clip21-gd-grid-chunks", base + ["--method", "dp-clip21-gd", "--tau", "0.5"] + noise
         + ["--gamma", "grid", "--iters", "1000"]),
        ("dp-clip-gd-grid-chunks", base + ["--method", "dp-clip-gd", "--tau", "0.5"] + noise
         + ["--gamma", "grid", "--iters", "4000"]),
        # values that start with "-" and a digit, which argparse alone reads as flags
        ("x0-dashed-exponent", clip21 + ["--gamma", "0.1", "--x0", "-3e-1"]),
        ("x0-dashed-list", clip21 + ["--gamma", "0.1", "--x0", "-1,2,3,4,5"]),
        ("v-init-dashed-exponent", avg + ["--tau", "0.5", "--v-init", "-5e-1"]),
        ("v-init-dashed-list", avg + ["--tau", "0.5", "--v-init", "-1,2,-3,4,-5"]),
        ("config-file", ["--config", files["cfg"]]),
        ("config-flag-override", ["--config", files["cfg"], "--iters", "5", "--method", "clip21-avg"]),
        # the counterexample's curvatures (2, -1): gd at gamma 5 scales x by -1.5 a step, so f
        # overflows first at x_875, the final iterate of an 875-step run
        ("quad-final-f-overflows", ["--method", "gd", "--gamma", "5", "--iters", "875"]),
        ("quad-f-overflows-mid-run", ["--method", "gd", "--gamma", "5", "--iters", "900"]),
        ("quad-iterate-overflows", ["--method", "gd", "--gamma", "5", "--iters", "2000"]),
        ("quad-grid-diverging-child", ["--method", "gd", "--gamma", "grid", "--iters", "400"]),
        # the shifted kernels with a child that leaves inside a chunk: at tau 1e300 no
        # message clips, so the gamma-8 child's f overflows at step 324, inside the
        # third 124-step chunk of six runs on the counterexample; at step 323 its
        # residual rows pass 1.3e154, so their norms need the clip's scaled route
        ("quad-dp-clip21-gd-grid-diverging-child", ["--method", "dp-clip21-gd", "--tau", "1e300", "--sigma", "0.05"]
         + ["--nu", "0.1", "--gamma", "grid", "--iters", "400"]),
        ("quad-press-clip21-gd-grid-diverging-child", ["--method", "press-clip21-gd", "--tau", "1e300"]
         + ["--compressor", "identity", "--gamma", "grid", "--iters", "400"]),
        # curvatures 2e-300 and 1e-300 keep f finite up to |x| = 1.3e304, while gamma 4e304
        # multiplies x by -2e4 a step: at step 5 gamma times the direction overflows, so
        # x_6 is the first non-finite value, with f(x_5) finite
        ("quad-clip21-gd-iterate-overflows-mid-run", ["--method", "clip21-gd", "--beta-q", "2e-300"]
         + ["--alpha-q", "1e-300", "--tau", "1e300", "--gamma", "4e304", "--x0", "3.1e282", "--iters", "20"]),
        ("quad-clip21-gd-x0-1.7", ["--method", "clip21-gd", "--tau", "0.3", "--gamma", "0.1", "--x0", "1.7"]
         + ["--iters", "400"]),
        ("quad-clip-gd-stuck", ["--method", "clip-gd", "--tau", "1", "--gamma", "0.3", "--iters", "50"]),
        ("quad-avg", ["--method", "clip21-avg", "--tau", "0.3", "--iters", "20"]),
    ]
    # residual rows whose squares fall below the normal range, so their norms need the
    # clip's scaled route: at x 1e-158 the squares are subnormal; at 1e-165 they are 0,
    # which leaves rows 1e4 times tau unclipped unless the clip takes that route
    tiny = {
        "clip21-gd-tau-1e-160": ["--method", "clip21-gd", "--tau", "1e-160", "--gamma", "0.1", "--x0", "1e-158"],
        "clip21-gd-tau-1e-170": ["--method", "clip21-gd", "--tau", "1e-170", "--gamma", "0.1", "--x0", "1e-165"],
        "clip-gd-tau-1e-170": ["--method", "clip-gd", "--tau", "1e-170", "--gamma", "0.1", "--x0", "1e-165"],
        "avg-tau-1e-170": ["--method", "clip21-avg", "--tau", "1e-170", "--x0", "1e-165"],
        "dp-clip21-gd-tau-1e-170": ["--method", "dp-clip21-gd", "--tau", "1e-170", "--nu", "1e-171"]
        + ["--sigma", "1e-172", "--gamma", "0.1", "--x0", "1e-165"],
        "press-clip21-gd-tau-1e-170": ["--method", "press-clip21-gd", "--compressor", "identity"]
        + ["--tau", "1e-170", "--gamma", "0.1", "--x0", "1e-165"],
    }
    out += [(f"quad-{name}", argv + ["--iters", "20"]) for name, argv in tiny.items()]
    overflow = {
        "x0-1e308": ["--x0", "1e308"],
        "x0-1e306-lambda0": ["--x0", "1e306"],
        "x0-1e200-lambda0": ["--x0", "1e200"],
        "x0-1e156-lambda1e-3": ["--lambda", "1e-3", "--x0", "1e156"],
        "x0-1e200-nonconvex": ["--reg", "nonconvex", "--lambda", "0.1", "--x0", "1e200"],
    }
    for name, extra in overflow.items():
        for method, tau in (("clip21-gd", "0.5"), ("clip21-avg", "0.05")):
            for gamma in ("auto", "grid"):
                argv = toy + ["--iters", "20", "--method", method, "--tau", tau, "--gamma", gamma] + extra
                out.append((f"{method}-{name}-{gamma}", argv))
    tiny_curvatures = ["--tau", "1", "--beta-q", "1e-300", "--alpha-q", "1e-301", "--gamma", "auto", "--iters", "3"]
    errors = {
        "tau-negative": no_tau + ["--tau", "-1"],
        "tau-nan": no_tau + ["--tau", "nan"],
        "tau-missing": no_tau,
        "avg-tau-zero": base + ["--method", "clip21-avg", "--tau", "0"],
        "avg-tau-tiny": ["--method", "clip21-avg", "--tau", "1e-310", "--iters", "3"],
        "gd-tau-tiny": ["--method", "clip21-gd", "--tau", "1e-310", "--gamma", "0.1", "--iters", "3"],
        "gamma-negative": clip21 + ["--gamma", "-0.1"],
        "gamma-word": clip21 + ["--gamma", "big"],
        "iters-zero": clip21 + ["--iters", "0"],
        "iters-fraction": clip21 + ["--iters", "2.5"],
        "seed-negative": clip21 + ["--seed", "-1"],
        "nodes-zero": clip21 + ["--nodes", "0"],
        "lambda-negative": clip21 + ["--lambda", "-1"],
        "reg-unknown": clip21 + ["--reg", "l1"],
        "L-negative": base + ["--method", "clip-gd", "--tau", "0.5", "--L", "-1"],
        "topk-too-big": base + ["--method", "press-clip21-gd", "--tau", "0.5", "--compressor", "topk:99"],
        "topk-zero": base + ["--method", "press-clip21-gd", "--tau", "0.5", "--compressor", "topk:0"],
        "dp-nu-zero": base + ["--method", "dp-clip21-gd", "--tau", "0.5", "--nu", "0"],
        "dp-auto-no-mu": base + ["--method", "dp-clip21-gd", "--tau", "0.5", "--nu", "0.05", "--gamma", "auto"],
        "method-unknown": base + ["--method", "newton"],
        "method-missing": base,
        "beta-q-below-alpha": ["--method", "clip21-gd", "--tau", "1", "--beta-q", "0.5"],
        "beta-q-inf": ["--method", "clip21-gd", "--tau", "1", "--beta-q", "inf"],
        "x0-inf": base + ["--method", "clip21-avg", "--tau", "0.5", "--x0", "inf"],
        "x0-wrong-length": clip21 + ["--x0", "1,2"],
        "v-init-inf": base + ["--method", "clip21-avg", "--tau", "0.5", "--v-init", "inf"],
        "v-init-gaussian-nan": base + ["--method", "clip21-avg", "--tau", "0.5", "--v-init", "gaussian:nan"],
        "data-missing": ["--method", "gd", "--data", files["missing"]],
        "data-not-utf8": ["--method", "gd", "--data", files["bad_data"]],
        "data-descending-index": ["--method", "gd", "--data", files["bad_descending"]],
        "data-unallocatable-index-then-malformed": ["--method", "gd", "--data", files["bad_huge_then_malformed"]],
        "data-more-nodes-than-rows": ["--method", "gd", "--data", files["toy"], "--nodes", "61"],
        "data-malformed-before-late-undecodable-byte": ["--method", "gd", "--data", files["bad_late_byte"]],
        "config-not-utf8": ["--config", files["bad_cfg"]],
        "config-unknown-key": ["--config", files["cfg_unknown"]],
        # a divisor of the certificate rounds to 0: the shift gap at eta = 5e-18, and
        # L_max^2 = 1e-600 in the n-node and noisy rules
        "tau-1e-17-auto": ["--method", "clip21-gd", "--tau", "1e-17", "--gamma", "auto", "--iters", "3"],
        "tau-1e-17-weight": ["--method", "clip21-gd", "--tau", "1e-17", "--gamma", "0.1", "--iters", "3"],
        "tiny-curvatures": ["--method", "clip21-gd"] + tiny_curvatures,
        "dp-tiny-curvatures": ["--method", "dp-clip21-gd", "--nu", "0.1", "--mu", "1"] + tiny_curvatures,
        # finite gradients whose norms' sums of squares overflow
        "norm-overflows": ["--method", "clip21-gd", "--tau", "1", "--beta-q", "1e308", "--alpha-q", "1e307"]
        + ["--iters", "3"],
    }
    for method, extra in (
        ("clip21-gd", []),
        ("dp-clip21-gd", ["--nu", "0.1", "--mu", "0.05"]),
        ("press-clip21-gd", ["--compressor", "identity"]),
    ):
        errors[f"{method}-huge-tau"] = ["--method", method, "--tau", "1e200", "--gamma", "auto", "--iters", "3"] + extra
    out += [(f"error-{name}", argv) for name, argv in errors.items()]
    names = [name for name, _ in out]
    assert len(set(names)) == len(names), "kind names must be unique"
    return out


def checkout(rev: str | None, where: Path) -> Path:
    """The src/ directory of rev, archived under where; the working tree's when rev is None."""
    if rev is None:
        return ROOT / "src"
    cmd = ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"]
    tar = subprocess.run(cmd, check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(where, filter="data")
    return where / "src"


def invoke(src: Path, argv: list, cwd: Path, env: dict) -> dict:
    """Run one invocation in a fresh process with env added to the
    environment; its exit code, stdout, stderr and CSVs."""
    cwd.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src), **env)
    done = subprocess.run(
        [sys.executable, "-m", "clipshift.cli", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    csvs = {}
    for path in sorted(cwd.glob("*.csv")):
        rows = [line.split(",")[: len(COLUMNS)] for line in path.read_text().splitlines()]
        csvs[path.name] = rows
    return {"code": done.returncode, "out": done.stdout, "err": done.stderr.replace(str(src), "<src>"), "csvs": csvs}


def _mask_lines(err: str) -> str:
    return re.sub(r"(\.py):\d+:", r"\1:<line>:", err)


_NUMBER = re.compile(r"\b(" + "|".join(SUMMARY_NUMBERS) + r")=([^\s)]+)")


def _numbers_only(old: str, new: str):
    """The largest relative deviation of each of SUMMARY_NUMBERS, by name,
    when stdout differs in nothing else, else None."""
    if _NUMBER.sub(r"\1=", old) != _NUMBER.sub(r"\1=", new):
        return None
    dev = dict.fromkeys(SUMMARY_NUMBERS, 0.0)
    for (field, a), (_, b) in zip(_NUMBER.findall(old), _NUMBER.findall(new)):
        dev[field] = max(dev[field], _rel(a, b))
    return dev


def _rel(a: str, b: str) -> float:
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def _lyapunov_over_f(row_a: list, row_b: list) -> float:
    """|lyapunov_a - lyapunov_b| / max(|f_a|, |f_b|) for one row of each side."""
    if row_a[3] == row_b[3]:
        return 0.0
    try:
        f_a, f_b, ly_a, ly_b = (float(row[j]) for j in (1, 3) for row in (row_a, row_b))
    except ValueError:
        return math.inf
    scale = max(abs(f_a), abs(f_b))
    return abs(ly_a - ly_b) / scale if math.isfinite(ly_a - ly_b) and scale > 0.0 else math.inf


def csv_deviation(old: dict, new: dict):
    """Largest relative deviation of each of LABELS over the CSVs both sides
    wrote, or a string naming a mismatch of files, row counts or the header."""
    if sorted(old) != sorted(new):
        return f"CSV files {sorted(old)} -> {sorted(new)}"
    dev = [0.0] * len(LABELS)
    for name in old:
        a, b = old[name], new[name]
        if len(a) != len(b):
            return f"{name}: {len(a) - 1} -> {len(b) - 1} rows"
        if a[:1] != b[:1]:
            return f"{name}: header differs"
        for row_a, row_b in zip(a[1:], b[1:]):
            for j, (x, y) in enumerate(zip(row_a, row_b)):
                dev[j] = max(dev[j], _rel(x, y))
            dev[-1] = max(dev[-1], _lyapunov_over_f(row_a, row_b))
    return dev


def _first_difference(old: str, new: str) -> str:
    """The first line where two texts differ, as 'old' -> 'new'; the
    whole texts when their lines agree and only the line ends differ."""
    pairs = itertools.zip_longest(old.splitlines(), new.splitlines(), fillvalue="(none)")
    a, b = next(((a, b) for a, b in pairs if a != b), (old, new))
    return f"{a!r} -> {b!r}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="parent revision")
    parser.add_argument("change", nargs="?", help="change revision (default: the working tree)")
    args = parser.parse_args(argv)

    tmp = Path(tempfile.mkdtemp(prefix="cli_parity_"))
    try:
        (tmp / "inputs").mkdir()
        table = kinds(write_inputs(tmp / "inputs"))
        sides = {"parent": checkout(args.parent, tmp / "parent"), "change": checkout(args.change, tmp / "change")}
        jobs = [(side, name, argv) for name, argv in table for side in ("parent", "change", "rerun")]

        def one(job):
            side, name, argv = job
            src = sides["change" if side == "rerun" else side]
            env = {"OPENBLAS_NUM_THREADS": RERUN_THREADS} if side == "rerun" else {}
            return job[:2], invoke(src, argv, tmp / "runs" / side / name, env)

        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            results = dict(pool.map(one, jobs))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    change = args.change or "working tree"
    print(f"cli parity: {args.parent} -> {change}, {len(table)} invocation kinds")
    streams, line_only, csv_mismatch, moved, rerun_bad = [], [], [], [], []
    numbers_only = {}
    overall = [0.0] * len(LABELS)
    for name, _argv in table:
        old, new, again = results["parent", name], results["change", name], results["rerun", name]
        parts = []
        if old["code"] != new["code"]:
            parts.append(f"exit {old['code']} -> {new['code']}")
        deviation = _numbers_only(old["out"], new["out"]) if old["out"] != new["out"] else None
        if deviation is not None:
            numbers_only[name] = deviation
        elif old["out"] != new["out"]:
            parts.append(f"stdout {_first_difference(old['out'], new['out'])}")
        if old["err"] != new["err"]:
            if _mask_lines(old["err"]) == _mask_lines(new["err"]):
                line_only.append(name)
            else:
                parts.append(f"stderr {_first_difference(old['err'], new['err'])}")
        if parts:
            streams.append(f"  {name}: " + "; ".join(parts))
        dev = csv_deviation(old["csvs"], new["csvs"])
        if isinstance(dev, str):
            csv_mismatch.append(f"  {name}: {dev}")
        else:
            overall = [max(a, b) for a, b in zip(overall, dev)]
            if any(dev):
                moved.append((name, dev))
        if any(again[key] != new[key] for key in ("code", "out", "err", "csvs")):
            rerun_bad.append(name)

    print(f"exit code, stdout or stderr differ in {len(streams)} kinds" + (":" if streams else ""))
    for line in streams:
        print(line)
    if line_only:
        print(f"stderr differs only in a warning's source line number in {len(line_only)} kinds:", ", ".join(line_only))
    if numbers_only:
        print(f"stdout differs only in the digits of summary numbers in {len(numbers_only)} kinds:", ", ".join(numbers_only))
        for field in SUMMARY_NUMBERS:
            largest = max(numbers_only, key=lambda name: numbers_only[name][field])
            print(f"  {field:<19}{numbers_only[largest][field]:.3g} ({largest})")
    if csv_mismatch:
        print(f"CSV files or row counts differ in {len(csv_mismatch)} kinds:")
        for line in csv_mismatch:
            print(line)
    print("largest relative deviation per CSV column (kinds where it moved):")
    for j, column in enumerate(LABELS):
        count = sum(1 for _, dev in moved if dev[j])
        print(f"  {column:<13}{overall[j]:.3g} ({count})")
    for name, dev in moved:
        print(f"  moved in {name}: " + ", ".join(f"{c} {d:.3g}" for c, d in zip(LABELS, dev) if d))
    reproduced = f"rerun determinism, at OPENBLAS_NUM_THREADS={RERUN_THREADS}: {len(table) - len(rerun_bad)} of {len(table)} kinds reproduced"
    print(reproduced + (f"; not: {', '.join(rerun_bad)}" if rerun_bad else ""))
    return int(bool(streams or numbers_only or csv_mismatch or moved or rerun_bad))


if __name__ == "__main__":
    sys.exit(main())
