"""CSV scan: the vectorised chunk parse against per-cell float(), and the
row/column diagnostics of bad cells past the first chunk; the experiment
config schema."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lccsub import presets
from lccsub.fileio import CsvFormatError, parse_experiment, stream_rows

finite = st.floats(allow_nan=False, allow_infinity=False)
cells = st.one_of(
    finite.map(lambda v: f"{v:.17g}"),
    finite.map(repr),
    st.sampled_from([" 1.5", "+1", ".5", "5.", "1_0", "-0", "1e-320"]),
)
labels = st.sampled_from(["0", "1", "1.0", "0.0", "+1", " 0", "-0"])
rows = st.lists(st.tuples(labels, cells, cells, cells), min_size=1, max_size=40)


def stream_all(path, chunk_size=8192):
    chunks = list(stream_rows(path, chunk_size))
    return tuple(np.concatenate([c[i] for c in chunks]) for i in (2, 3, 5))


@settings(max_examples=150, deadline=None)
@given(rows=rows, chunk_size=st.integers(1, 7))
def test_chunk_parse_matches_float_bitwise(rows, chunk_size):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", newline="") as handle:
            handle.write("x1,y,offset,x2\n")
            for y, x1, off, x2 in rows:
                handle.write(f"{x1},{y},{off},{x2}\n")
        feats, got_labels, offsets = stream_all(path, chunk_size)
    want = np.array([[float(c) for c in row] for row in rows])
    assert feats.tobytes() == want[:, [1, 3]].tobytes()
    assert got_labels.tobytes() == want[:, 0].tobytes()
    assert offsets.tobytes() == want[:, 2].tobytes()
    assert feats.flags["C_CONTIGUOUS"] and got_labels.flags["C_CONTIGUOUS"]


BAD_ROW = 9000  # in the second chunk of the default 8192


@pytest.mark.parametrize(
    "bad_line, message",
    [
        ("1,abc,0.5,2", "row 9000, column 'x1': not a number: 'abc'"),
        ("1,0.25,inf,2", "row 9000, column 'x2': non-finite value"),
        ("2,0.25,0.5,2", "row 9000: label 2.0 is not 0 or 1"),
        ("1,0.25,0.5,0", "row 9000: weight must be positive"),
        ("1,0.25,0.5", "row 9000: expected 4 fields, got 3"),
    ],
)
def test_second_chunk_diagnostics(tmp_path, bad_line, message):
    path = tmp_path / "bad.csv"
    lines = ["y,x1,x2,weight"]
    lines += [f"{r % 2},{r / 7:.17g},-{r / 3:.17g},1.5" for r in range(1, 10001)]
    lines[BAD_ROW] = bad_line
    path.write_text("\n".join(lines) + "\n")
    chunks = []
    with pytest.raises(CsvFormatError) as info:
        for chunk in stream_rows(str(path)):
            chunks.append(chunk)
    assert str(info.value) == message
    assert [c[1] for c in chunks] == [1]


def test_experiment_config_accepts_every_key():
    mapping = {
        "n_full": 5000,
        "n_pilot": 300,
        "n_lcc": 400,
        "replications": 3,
        "methods": ["lcc", "cc"],
        "c": 2.5,
        "retain_cases": True,
        "bootstrap_B": 50,
        "master_seed": 11,
        "recycle_pilot": False,
        "implicit_full": False,
        "max_failure_fraction": 0.5,
        "grad_tol": 1e-9,
        "max_iter": 40,
    }
    config = parse_experiment(mapping, presets.steplogit())
    fit_keys = {"grad_tol", "max_iter"}
    for key, value in mapping.items():
        owner = config.fit if key in fit_keys else config
        expected = tuple(value) if key == "methods" else value
        assert getattr(owner, key) == expected, key
