"""Reading LibSVM text, the one-block loader that splits and scales it
across the nodes, and the writer."""

import contextlib
import importlib
import os
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from clipshift import ConfigurationError, DataFormatError, Dataset, Problem, write_libsvm
from clipshift import cli, data
from clipshift.data import node_block, stack
from conftest import LOGISTIC_NODES, make_logistic_dataset, make_logistic_problem
from reference_chain import chain_block, parse, scale, split


def _block(text, nodes=1):
    """node_block of LibSVM text, as the library builds it."""
    return node_block(text, nodes)


def test_parse_basic_example():
    features, labels = parse("+1 1:0.5 3:-2\n-1 2:1\n")
    assert features.shape == (2, 3)
    assert np.array_equal(features, [[0.5, 0.0, -2.0], [0.0, 1.0, 0.0]])
    assert np.array_equal(labels, [1.0, -1.0])


def test_label_spellings():
    block = _block("1 1:1\n0 1:2\n+1 1:3\n-1 1:4\n")
    # the -1 lines 2 and 4, then the +1 lines 1 and 3
    assert np.array_equal(block.labels[0], [-1.0, -1.0, 1.0, 1.0])
    assert np.array_equal(block.features[0], scale(np.array([[2.0], [4.0], [1.0], [3.0]])))


def test_loader_accepts_bytes_and_iterables():
    text = "+1 1:1 2:2\n-1 1:3\n+1 2:5\n"
    expected = _block(text).features.tobytes()
    # a generator of lines can be read only once, so its lines are kept
    for source in (text.encode(), text.splitlines(), iter(text.splitlines(keepends=True))):
        assert _block(source).features.tobytes() == expected


def _line_of(exc_info):
    return exc_info.value.line_number


def test_parse_errors_carry_line_numbers():
    with pytest.raises(DataFormatError) as err:
        _block("+1 1:1\n+7 1:2\n")
    assert _line_of(err) == 2
    assert "line 2" in str(err.value)

    with pytest.raises(DataFormatError) as err:
        _block("+1 1:1\n-1 3:1 2:5\n")
    assert _line_of(err) == 2

    with pytest.raises(DataFormatError) as err:
        _block("+1 0:1\n")
    assert _line_of(err) == 1

    with pytest.raises(DataFormatError) as err:
        _block("+1 1:x\n")
    assert _line_of(err) == 1

    with pytest.raises(DataFormatError) as err:
        _block("+1 1:inf\n")
    assert _line_of(err) == 1

    with pytest.raises(DataFormatError) as err:
        _block("+1 1:1\n\n-1 1:2\n")
    assert _line_of(err) == 2

    with pytest.raises(DataFormatError) as err:
        _block("+1 1:1\n-1 junk\n")
    assert _line_of(err) == 2


# id: (text, line number, message) of each malformed input
MALFORMED = {
    "blank-line": ("+1 1:1\n\n-1 1:2\n", 2, "blank line"),
    "bad-label": ("+1 1:1\n+7 1:2\n", 2, "unrecognized label '+7'"),
    "missing-colon": ("+1 1:1\n-1 junk\n", 2, "expected idx:val, got 'junk'"),
    "second-colon": ("+1 1:2:3\n", 1, "bad feature value '2:3'"),
    "bad-index": ("-1 2:1 x:1\n", 1, "bad feature index 'x'"),
    "index-below-one": ("+1 0:1\n", 1, "feature index must be >= 1, got 0"),
    "descending-index": ("+1 1:1\n-1 3:1 2:5\n", 2, "feature index 2 not ascending after 3"),
    "repeated-index": ("+1 1:1\n-1 2:1 2:1\n", 2, "feature index 2 not ascending after 2"),
    "bad-value": ("+1 1:x\n", 1, "bad feature value 'x'"),
    "infinite-value": ("+1 1:1 2:-inf\n", 1, "non-finite feature value '-inf'"),
    "nan-value": ("+1 1:nan\n", 1, "non-finite feature value 'nan'"),
    "empty-input": ("", 1, "empty input"),
    "featureless-input": ("+1\n-1\n", 1, "no feature indices found"),
    "first-of-two-token-errors": ("+1 1:1\n-1 3:x 2:1\n", 2, "bad feature value 'x'"),
    "label-before-token-error": ("+1 1:1\n+7 0:1\n", 2, "unrecognized label '+7'"),
    # 2 x 10^15 float64 values are 14 PiB, far beyond the 128 TiB a process maps
    # by default, so the allocation fails whatever the overcommit setting
    "index-too-large-to-allocate": (
        "+1 1:1\n-1 2:1 1000000000000000:1\n", 2,
        "feature index 1000000000000000 is too large: 2 dense rows of 1000000000000000 values do not fit in memory",
    ),
    "index-beyond-int64": ("+1 1:1\n-1 2:1 9223372036854775808:1\n", 2, "feature index 9223372036854775808 is too large"),
}


@pytest.mark.parametrize("text, line_number, message", MALFORMED.values(), ids=MALFORMED)
def test_parse_errors_pin_message_and_line(text, line_number, message):
    with pytest.raises(DataFormatError) as err:
        _block(text)
    assert err.value.line_number == line_number
    assert str(err.value) == f"line {line_number}: {message}"


def test_parse_rejects_empty_and_featureless_input():
    with pytest.raises(DataFormatError):
        _block("")
    with pytest.raises(DataFormatError):
        _block("+1\n-1\n")


def test_round_trip_preserves_everything():
    rng = np.random.default_rng(5)
    # a small dense case, then a 2000 x 60 one with about 90% zeros
    for m, d, zero_share in ((6, 4, 0.4), (2000, 60, 0.9)):
        features = np.round(rng.standard_normal((m, d)), 6)
        features[rng.random((m, d)) < zero_share] = 0.0
        labels = np.where(rng.random(m) < 0.5, 1.0, -1.0)
        ds = Dataset(features, labels)
        text = write_libsvm(ds)
        back, back_labels = parse(text)
        assert back.shape[1] == ds.d
        assert np.array_equal(back, ds.features)
        assert np.array_equal(back_labels, ds.labels)
        assert _block(text, 3).features.tobytes() == chain_block(text, 3).features.tobytes()


def test_round_trip_with_zero_first_row_keeps_dimension():
    # the writer emits the first row densely so an all-zero trailing
    # column cannot silently shrink the feature space
    features = np.array([[0.0, 0.0], [1.0, 0.0]])
    ds = Dataset(features, np.array([1.0, -1.0]))
    assert _block(write_libsvm(ds)).features.shape == (1, 2, 2)
    assert np.array_equal(parse(write_libsvm(ds))[0], features)


def test_split_sorts_by_label_then_chunks():
    features = np.arange(10.0).reshape(5, 2)
    labels = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
    block = _block(write_libsvm(Dataset(features, labels)), 2)
    # ascending labels with a stable order: rows 1, 3 then 0, 2, 4
    assert np.array_equal(block.sizes, [3, 2])
    assert np.array_equal(block.features[0], scale(features[[1, 3, 0]]))
    assert np.array_equal(block.labels[0], [-1.0, -1.0, 1.0])
    assert np.array_equal(block.features[1], np.vstack([scale(features[[2, 4]]), np.zeros((1, 2))]))
    assert np.array_equal(block.labels[1], [1.0, 1.0, 0.0])  # a zero padding row


def test_split_remainder_goes_to_leading_shards():
    assert np.array_equal(_block("+1 1:1\n" * 7, 3).sizes, [3, 2, 2])


def test_split_validation():
    text = "+1 1:1\n" * 3
    with pytest.raises(ConfigurationError):
        _block(text, 0)
    with pytest.raises(ConfigurationError):
        _block(text, 4)


def test_scale_pinned_column():
    block = _block("-1 1:1\n+1 1:2\n+1 1:3\n")
    root = 1.2247448713915889  # sqrt(3/2), population-std normalization
    assert np.allclose(block.features[0, :, 0], [-root, 0.0, root], atol=1e-15)
    assert np.array_equal(block.labels[0], [-1.0, 1.0, 1.0])


def test_scale_zeroes_constant_columns():
    block = _block("-1 1:5 2:1\n+1 1:5 2:3\n")
    assert np.array_equal(block.features[0, :, 0], [0.0, 0.0])
    assert np.allclose(block.features[0, :, 1], [-1.0, 1.0])


def test_scale_is_nearly_idempotent():
    rng = np.random.default_rng(17)
    labels = np.ones(20)
    once = _block(write_libsvm(Dataset(rng.standard_normal((20, 4)), labels)))
    twice = _block(write_libsvm(Dataset(once.features[0], labels)))
    assert np.allclose(once.features, twice.features, atol=1e-12)


def test_dataset_validation():
    with pytest.raises(ConfigurationError):
        Dataset(np.ones((2, 2)), np.array([1.0, 2.0]))  # labels not +-1
    with pytest.raises(ConfigurationError):
        Dataset(np.ones((2, 2)), np.array([1.0]))
    with pytest.raises(ConfigurationError):
        Dataset(np.array([[np.inf, 0.0]]), np.array([1.0]))
    with pytest.raises(ConfigurationError):
        Dataset(np.ones(2), np.array([1.0, -1.0]))  # features not 2-d
    with pytest.raises(ConfigurationError):
        Dataset(np.ones((0, 2)), np.ones(0))


def test_benchmark_writes_data_the_reader_reads_back(tmp_path, monkeypatch):
    # perfbench's workloads write their LibSVM file through write_libsvm(Dataset(...))
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    rng = np.random.default_rng(9)
    features = rng.standard_normal((12, 5))
    features[rng.random((12, 5)) < 0.5] = 0.0
    labels = np.where(rng.random(12) < 0.5, 1.0, -1.0)
    path = tmp_path / "bench.svm"
    workloads.write_data(workloads.Inputs(features, labels, np.zeros(5)), str(path))
    with open(path, encoding="utf-8") as handle:
        back_features, back_labels = parse(handle)
    assert back_features.tobytes() == features.tobytes()
    assert back_labels.tobytes() == labels.tobytes()
    with open(path, encoding="utf-8") as handle:
        assert node_block(handle, 2).features.tobytes() == chain_block(path.read_text(), 2).features.tobytes()


def _load(path, nodes, *flags):
    """cli.build_problem on a data file, as the CLI calls it."""
    return cli.build_problem(cli.parse_config(["--method", "gd", "--data", str(path), "--nodes", str(nodes), *flags]))


@pytest.mark.parametrize("text, line_number, message", MALFORMED.values(), ids=MALFORMED)
def test_cli_loader_errors_pin_message_line_and_exit(tmp_path, capsys, text, line_number, message):
    path = tmp_path / "bad.svm"
    path.write_text(text)
    with pytest.raises(DataFormatError) as err:
        _load(path, 1)
    assert err.value.line_number == line_number
    assert str(err.value) == f"line {line_number}: {message}"
    out = tmp_path / "x.csv"
    assert cli.main(["--method", "gd", "--data", str(path), "--nodes", "1", "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: line {line_number}: {message}\n"
    assert not out.exists()


def test_cli_loader_rejects_more_nodes_than_rows(tmp_path, capsys):
    path = tmp_path / "two.svm"
    path.write_text("+1 1:1\n-1 1:2\n")
    with pytest.raises(ConfigurationError, match="cannot split 2 samples across 3 nodes"):
        _load(path, 3)
    assert cli.main(["--method", "gd", "--data", str(path), "--nodes", "3", "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == "error: cannot split 2 samples across 3 nodes\n"


@contextlib.contextmanager
def _fifo_of(tmp_path, payload: bytes):
    """The path of a FIFO that a thread fills with payload once a reader opens it."""
    path = tmp_path / "pipe.svm"
    os.mkfifo(path)

    def write():
        with contextlib.suppress(BrokenPipeError):
            with open(path, "wb") as pipe:
                pipe.write(payload)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    yield path
    writer.join(timeout=30)
    assert not writer.is_alive()


# id: (file bytes, node count, error) where a second read of the file could
# change which error wins
ERROR_ORDER = {
    "malformed-line-after-an-unallocatable-d": (
        b"+1 1:1\n-1 2:1 1000000000000000:1\n+1 1:1 x:2\n", 1, "line 3: bad feature index 'x'"
    ),
    "malformed-line-before-more-nodes-than-rows": (b"+1 1:1\n-1 junk\n", 5, "line 2: expected idx:val, got 'junk'"),
    # a text file decodes 8 KB at a time, so line 2 is checked before the
    # chunk that holds the undecodable byte is read
    "malformed-line-before-a-late-undecodable-byte": (
        b"+1 1:1\n+7 1:1\n" + b"-1 1:1 2:1\n" * 1000 + b"\xff\n", 1, "line 2: unrecognized label '+7'"
    ),
}


@pytest.mark.parametrize("through", ["file", "fifo"])
@pytest.mark.parametrize("payload, nodes, message", ERROR_ORDER.values(), ids=ERROR_ORDER)
def test_cli_loader_reports_the_first_malformed_line(tmp_path, capsys, through, payload, nodes, message):
    args = ["--method", "gd", "--nodes", str(nodes), "--out", str(tmp_path / "x.csv")]
    if through == "fifo":
        with _fifo_of(tmp_path, payload) as path:
            code = cli.main(["--data", str(path), *args])
    else:
        path = tmp_path / "bad.svm"
        path.write_bytes(payload)
        code = cli.main(["--data", str(path), *args])
    assert (code, capsys.readouterr().err) == (3, f"error: {message}\n")


def test_cli_loader_reads_a_fifo_as_it_reads_a_file(tmp_path):
    # the fixture's 500 lines are about 230 KB: more than a pipe holds at once
    text = write_libsvm(make_logistic_dataset())
    path = tmp_path / "fixture.svm"
    path.write_text(text)
    with _fifo_of(tmp_path, text.encode()) as fifo:
        piped = _load(fifo, LOGISTIC_NODES)
    _assert_same_arrays(piped, _load(path, LOGISTIC_NODES))


def _assert_same_arrays(problem, other):
    for name in ("_A", "_labels", "_w", "_m"):
        a, b = getattr(problem, name), getattr(other, name)
        assert (a.shape, a.dtype) == (b.shape, b.dtype), name
        assert a.tobytes() == b.tobytes(), name  # bit for bit, signed zeros too


def _library_chain(source, nodes, kind="logistic"):
    return Problem(kind, chain_block(source, nodes))


def test_cli_loader_matches_the_library_chain_on_the_fixture_recipe(tmp_path):
    ds = make_logistic_dataset()
    path = tmp_path / "fixture.svm"
    path.write_text(write_libsvm(ds))  # at full precision
    loaded = _load(path, LOGISTIC_NODES)
    _assert_same_arrays(loaded, _library_chain(path.read_text(), LOGISTIC_NODES))
    _assert_same_arrays(loaded, make_logistic_problem())
    # the samples in memory, never written out, give the same block
    in_memory = stack([(scale(a), b) for a, b in split(ds.features, ds.labels, LOGISTIC_NODES)])
    _assert_same_arrays(loaded, Problem("logistic", in_memory))


def _uneven_text() -> str:
    """23 sparse rows in d = 5: index 2 is 1.0 on every -1 row, so it is
    constant inside the shards that hold only -1 rows, and index 5, the
    largest, first appears on line 20."""
    rng = np.random.default_rng(23)
    lines = []
    for line in range(23):
        x = np.round(rng.standard_normal(5), 4)
        keep = rng.random(5) < 0.6
        y = 1 if rng.random() < 0.4 else -1
        if y < 0:
            x[1], keep[1] = 1.0, True
        keep[4] = keep[4] and line >= 19
        lines.append(f"{y:+d} " + " ".join(f"{j + 1}:{x[j]:.17g}" for j in range(5) if keep[j]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("line_end", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("form", ["str", "bytes", "lines", "file"])
@pytest.mark.parametrize("kind", ["logistic", "linreg_nonconvex"])
def test_block_matches_the_library_chain_on_an_uneven_split(tmp_path, line_end, form, kind):
    text = _uneven_text().replace("\n", line_end)
    nodes = 5  # shards of 5, 5, 5, 4 and 4 rows: the last two slabs have a padding row
    expected = _library_chain(text, nodes, kind)
    assert expected._A.shape == (5, 5, 5)
    assert any(np.all(slab == 0.0, axis=0)[1] for slab in expected._A)  # a zero-variance column
    if form == "file":
        path = tmp_path / "uneven.svm"
        path.write_bytes(text.encode())
        problem = _load(path, nodes, "--problem", "linreg" if kind == "linreg_nonconvex" else "logistic")
    else:
        source = {"str": text, "bytes": text.encode(), "lines": text.splitlines(keepends=True)}[form]
        problem = Problem(kind, block=node_block(source, nodes))
    _assert_same_arrays(problem, expected)


def test_loader_places_each_line_in_its_label_order_row():
    block = _block("+1 1:0.5 3:-2\n-1\n0 2:1 5:4\n")
    # a line with no entries is a zero row, and d is the largest index anywhere
    raw = np.array([[0.0, 0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0, 4.0], [0.5, 0.0, -2.0, 0.0, 0.0]])
    assert np.array_equal(block.labels[0], [-1.0, -1.0, 1.0])
    assert block.features[0].tobytes() == scale(raw).tobytes()


def test_block_does_not_depend_on_the_entries_held(monkeypatch):
    text = _uneven_text()
    nodes = 5
    whole = _block(text, nodes)
    monkeypatch.setattr(data, "_BLOCK_ENTRIES", 4)
    assert _block(text, nodes).features.tobytes() == whole.features.tobytes()
    assert _block(text, nodes).labels.tobytes() == whole.labels.tobytes()


def test_loader_holds_a_few_thousand_entries_above_the_block(tmp_path):
    # 2 000 lines of 20 entries over 10 nodes: 40 000 entries, a 328 KiB block.
    # Each entry the second read holds before placing it costs about 70
    # bytes as Python objects and the arrays that place it, so 4 096 held
    # entries peak about 280 KiB above the block; holding 16 384 peaked
    # 1 060 KiB above it
    rng = np.random.default_rng(16384)
    features, labels = rng.standard_normal((2000, 20)), np.where(rng.random(2000) < 0.5, 1.0, -1.0)
    path = tmp_path / "dense.svm"
    path.write_text(write_libsvm(Dataset(features, labels)))
    with open(path, encoding="utf-8") as handle:
        tracemalloc.start()
        try:
            block = node_block(handle, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    above = peak - block.features.nbytes - block.labels.nbytes
    assert above < 4096 * 96, f"peak {above / 1024:.1f} KiB above the block"


@pytest.mark.parametrize(
    "index, message",
    [
        (2**63, "feature index 9223372036854775808 is too large"),
        (2**62, "feature index 4611686018427387904 is too large: 9 dense rows of 4611686018427387904 values"),
    ],
)
def test_huge_index_names_its_line_in_a_later_block(monkeypatch, index, message):
    # a block closes once it holds 4 values: lines 1-2, 3-5, then 6-7, so the
    # huge index is the fourth entry of the block that starts at line 6
    monkeypatch.setattr(data, "_BLOCK_ENTRIES", 4)
    lines = ["+1 1:1 2:1", "-1 1:1 2:1 3:1", "+1 1:2", "-1 2:1", "+1 1:1 3:1", "-1 1:1 2:1", "+1 2:1", "-1 1:3", "+1 3:2"]
    lines[6] += f" {index}:1"
    with pytest.raises(DataFormatError, match=message) as err:
        _block("\n".join(lines))
    assert err.value.line_number == 7


@pytest.mark.parametrize(
    "rows, slab, bound",
    [
        # slabs of 572 rows, one of them padded; parsing to a Dataset, sorting
        # a copy and scaling per shard peaked at about 3.4 blocks
        (4003, 572, 2.5),
        # about 300 000 entries: holding them all beside the block, as arrays
        # built in blocks, peaked at 1.90 blocks
        (20000, 2858, 1.5),
    ],
    ids=["4003-rows", "20000-rows"],
)
def test_cli_loader_peak_memory_stays_near_one_block(tmp_path, rows, slab, bound):
    # rows x 50 at 30% density over 7 nodes; numpy reports its buffers to
    # tracemalloc
    rng = np.random.default_rng(rows)
    features = np.round(rng.standard_normal((rows, 50)), 6)
    features[rng.random((rows, 50)) >= 0.3] = 0.0
    labels = np.where(rng.random(rows) < 0.4, 1.0, -1.0)
    path = tmp_path / "wide.svm"
    path.write_text(write_libsvm(Dataset(features, labels)))
    tracemalloc.start()
    try:
        problem = _load(path, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert problem._A.shape == (7, slab, 50)
    assert peak < bound * problem._A.nbytes
