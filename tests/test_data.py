"""Data parsing, splitting, and scaling."""

import numpy as np
import pytest

from clipshift import (
    ConfigurationError,
    DataFormatError,
    Dataset,
    heterogeneous_split,
    parse_libsvm,
    standard_scale,
    write_libsvm,
)
from clipshift.data import NodeShard


def test_parse_basic_example():
    ds = parse_libsvm("+1 1:0.5 3:-2\n-1 2:1\n")
    assert ds.d == 3
    assert ds.m == 2
    assert np.array_equal(ds.features, [[0.5, 0.0, -2.0], [0.0, 1.0, 0.0]])
    assert np.array_equal(ds.labels, [1.0, -1.0])


def test_label_spellings():
    ds = parse_libsvm("1 1:1\n0 1:2\n+1 1:3\n-1 1:4\n")
    assert np.array_equal(ds.labels, [1.0, -1.0, 1.0, -1.0])


def test_parse_accepts_bytes_and_iterables():
    text = "+1 1:1 2:2\n-1 1:3\n"
    a = parse_libsvm(text)
    b = parse_libsvm(text.encode())
    c = parse_libsvm(text.splitlines())
    for other in (b, c):
        assert np.array_equal(a.features, other.features)
        assert np.array_equal(a.labels, other.labels)


def _line_of(exc_info):
    return exc_info.value.line_number


def test_parse_errors_carry_line_numbers():
    with pytest.raises(DataFormatError) as err:
        parse_libsvm("+1 1:1\n+7 1:2\n")
    assert _line_of(err) == 2
    assert "line 2" in str(err.value)

    with pytest.raises(DataFormatError) as err:
        parse_libsvm("+1 1:1\n-1 3:1 2:5\n")
    assert _line_of(err) == 2

    with pytest.raises(DataFormatError) as err:
        parse_libsvm("+1 0:1\n")
    assert _line_of(err) == 1

    with pytest.raises(DataFormatError) as err:
        parse_libsvm("+1 1:x\n")
    assert _line_of(err) == 1

    with pytest.raises(DataFormatError) as err:
        parse_libsvm("+1 1:inf\n")
    assert _line_of(err) == 1

    with pytest.raises(DataFormatError) as err:
        parse_libsvm("+1 1:1\n\n-1 1:2\n")
    assert _line_of(err) == 2

    with pytest.raises(DataFormatError) as err:
        parse_libsvm("+1 1:1\n-1 junk\n")
    assert _line_of(err) == 2


@pytest.mark.parametrize(
    "text, line_number, message",
    [
        ("+1 1:1\n\n-1 1:2\n", 2, "blank line"),
        ("+1 1:1\n+7 1:2\n", 2, "unrecognized label '+7'"),
        ("+1 1:1\n-1 junk\n", 2, "expected idx:val, got 'junk'"),
        ("+1 1:2:3\n", 1, "bad feature value '2:3'"),
        ("-1 2:1 x:1\n", 1, "bad feature index 'x'"),
        ("+1 0:1\n", 1, "feature index must be >= 1, got 0"),
        ("+1 1:1\n-1 3:1 2:5\n", 2, "feature index 2 not ascending after 3"),
        ("+1 1:1\n-1 2:1 2:1\n", 2, "feature index 2 not ascending after 2"),
        ("+1 1:x\n", 1, "bad feature value 'x'"),
        ("+1 1:1 2:-inf\n", 1, "non-finite feature value '-inf'"),
        ("+1 1:nan\n", 1, "non-finite feature value 'nan'"),
        ("", 1, "empty input"),
        ("+1\n-1\n", 1, "no feature indices found"),
        ("+1 1:1\n-1 3:x 2:1\n", 2, "bad feature value 'x'"),
        ("+1 1:1\n+7 0:1\n", 2, "unrecognized label '+7'"),
    ],
    ids=[
        "blank-line",
        "bad-label",
        "missing-colon",
        "second-colon",
        "bad-index",
        "index-below-one",
        "descending-index",
        "repeated-index",
        "bad-value",
        "infinite-value",
        "nan-value",
        "empty-input",
        "featureless-input",
        "first-of-two-token-errors",
        "label-before-token-error",
    ],
)
def test_parse_errors_pin_message_and_line(text, line_number, message):
    with pytest.raises(DataFormatError) as err:
        parse_libsvm(text)
    assert err.value.line_number == line_number
    assert str(err.value) == f"line {line_number}: {message}"


def test_parse_rejects_empty_and_featureless_input():
    with pytest.raises(DataFormatError):
        parse_libsvm("")
    with pytest.raises(DataFormatError):
        parse_libsvm("+1\n-1\n")


def test_round_trip_preserves_everything():
    rng = np.random.default_rng(5)
    # a small dense case, then a 2000 x 60 one with about 90% zeros
    for m, d, zero_share in ((6, 4, 0.4), (2000, 60, 0.9)):
        features = np.round(rng.standard_normal((m, d)), 6)
        features[rng.random((m, d)) < zero_share] = 0.0
        labels = np.where(rng.random(m) < 0.5, 1.0, -1.0)
        ds = Dataset(features, labels)
        back = parse_libsvm(write_libsvm(ds))
        assert back.d == ds.d
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)


def test_round_trip_with_zero_first_row_keeps_dimension():
    # the writer emits the first row densely so an all-zero trailing
    # column cannot silently shrink the feature space
    features = np.array([[0.0, 0.0], [1.0, 0.0]])
    ds = Dataset(features, np.array([1.0, -1.0]))
    back = parse_libsvm(write_libsvm(ds))
    assert back.d == 2
    assert np.array_equal(back.features, features)


def test_split_sorts_by_label_then_chunks():
    features = np.arange(10.0).reshape(5, 2)
    labels = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
    shards = heterogeneous_split(Dataset(features, labels), 2)
    # ascending labels with a stable order: rows 1, 3 then 0, 2, 4
    assert [s.node_id for s in shards] == [0, 1]
    assert np.array_equal(shards[0].features, features[[1, 3, 0]])
    assert np.array_equal(shards[0].labels, [-1.0, -1.0, 1.0])
    assert np.array_equal(shards[1].features, features[[2, 4]])
    assert np.array_equal(shards[1].labels, [1.0, 1.0])


def test_split_shards_view_a_private_sorted_copy():
    features = np.arange(12.0).reshape(6, 2)
    ds = Dataset(features, np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0]))
    shards = heterogeneous_split(ds, 3)
    for shard in shards:
        assert not np.shares_memory(shard.features, ds.features)
        assert not np.shares_memory(shard.labels, ds.labels)
    # one sorted copy backs every shard
    assert shards[0].features.base is shards[2].features.base is not None


def test_split_remainder_goes_to_leading_shards():
    features = np.ones((7, 1))
    labels = np.ones(7)
    sizes = [s.m for s in heterogeneous_split(Dataset(features, labels), 3)]
    assert sizes == [3, 2, 2]


def test_split_validation():
    ds = Dataset(np.ones((3, 1)), np.ones(3))
    with pytest.raises(ConfigurationError):
        heterogeneous_split(ds, 0)
    with pytest.raises(ConfigurationError):
        heterogeneous_split(ds, 4)


def test_scale_pinned_column():
    shard = NodeShard(0, np.array([[1.0], [2.0], [3.0]]), np.array([1.0, 1.0, -1.0]))
    scaled = standard_scale(shard)
    root = 1.2247448713915889  # sqrt(3/2), population-std normalization
    assert np.allclose(scaled.features[:, 0], [-root, 0.0, root], atol=1e-15)
    assert np.array_equal(scaled.labels, shard.labels)


def test_scale_zeroes_constant_columns():
    shard = NodeShard(1, np.array([[5.0, 1.0], [5.0, 3.0]]), np.array([1.0, -1.0]))
    scaled = standard_scale(shard)
    assert np.array_equal(scaled.features[:, 0], [0.0, 0.0])
    assert np.allclose(scaled.features[:, 1], [-1.0, 1.0])


def test_scale_is_nearly_idempotent():
    rng = np.random.default_rng(17)
    shard = NodeShard(0, rng.standard_normal((20, 4)), np.ones(20))
    once = standard_scale(shard)
    twice = standard_scale(once)
    assert np.allclose(once.features, twice.features, atol=1e-12)


def test_scale_rejects_empty_shard():
    with pytest.raises(ConfigurationError):
        standard_scale(NodeShard(0, np.zeros((0, 2)), np.zeros(0)))


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.ones((2, 2)), np.array([1.0, 2.0]))  # labels not +-1
    with pytest.raises(ValueError):
        Dataset(np.ones((2, 2)), np.array([1.0]))
    with pytest.raises(ValueError):
        Dataset(np.array([[np.inf, 0.0]]), np.array([1.0]))
