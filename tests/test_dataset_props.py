"""Property tests of the feature block reader against whole-file loads, and
of label files written and read back; they need hypothesis (the test
extra)."""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from esh.dataset import (
    FEATURE_HEAD,
    FeatureFile,
    load_features,
    load_labels,
    save_features,
    save_labels,
)
from esh.kernels import block_rows, row_blocks
from oracles import label_set

BLOCK = 64  # values per block while the tests run, so d > BLOCK gives one-row blocks


def whole_file(path, n, d):
    """The rows as read without the block reader: the payload after the
    header, or the CSV parsed at once."""
    if path.suffix == ".eshf":
        return np.frombuffer(path.read_bytes(), "<f4", offset=FEATURE_HEAD).reshape(n, d)
    return np.loadtxt(path, delimiter=",", ndmin=2)


@settings(max_examples=80, deadline=None)
@given(d=st.sampled_from([1, 3, 8, 31, 64, 65, 150]),
       extra=st.sampled_from([0, 1, 20]),
       blocks=st.integers(0, 3),
       offset=st.integers(-1, 1),
       fmt=st.sampled_from(["eshf", "csv"]),
       blank_lines=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_blocks_equal_the_whole_file(d, extra, blocks, offset, fmt, blank_lines, seed):
    # n sits on, or one row either side of, a block boundary
    with mock.patch("esh.kernels.BLOCK_VALUES", BLOCK), tempfile.TemporaryDirectory() as tmp:
        rows = block_rows(d + extra)
        n = max(1, blocks * rows + offset)
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d)).astype(np.float32).astype(np.float64)
        path = Path(tmp) / f"f.{fmt}"
        save_features(X, path)
        if fmt == "csv" and blank_lines:
            # blank lines hold no row, so they move no block boundary
            lines = path.read_text().splitlines(keepends=True)
            for at in sorted(rng.integers(0, n + 1, 3).tolist(), reverse=True):
                lines.insert(at, "\n")
            path.write_text("".join(lines))
        want = whole_file(path, n, d)
        got = list(FeatureFile(path).blocks(rows))
        assert [b.shape[0] for b in got] == [len(range(n)[s]) for s in row_blocks(n, d + extra)]
        assert all(b.dtype == want.dtype and b.flags.writeable for b in got)
        assert np.concatenate(got).tobytes() == want.tobytes()
        loaded = load_features(path)
        assert loaded.dtype == want.dtype and loaded.tobytes() == want.tobytes()


label_ids = st.one_of(st.integers(-3, 3), st.integers(2**63 - 3, 2**63 - 1),
                      st.integers(-(2**63), -(2**63) + 2))


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.lists(label_ids, min_size=1, max_size=4), min_size=1, max_size=20),
       single=st.booleans())
def test_labels_round_trip_through_a_file(rows, single):
    # ids near 0 and both int64 limits, one id per row or several
    if single:
        rows = [row[:1] for row in rows]
    labels = label_set(rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "labels.csv"
        save_labels(labels, path)
        # the bytes of the writer that formatted one row at a time
        assert path.read_bytes() == "".join(";".join(map(str, row)) + "\n" for row in rows).encode()
        back = load_labels(path)
    assert np.array_equal(back.ids, labels.ids)
    assert np.array_equal(back.starts, labels.starts)
    if single:
        assert back.single_array().tolist() == [row[0] for row in rows]
