"""CSV scan: the C chunk parse and the label-only pass against per-cell
float(), quoted records, line endings, and the row/column diagnostics of
bad cells past the first chunk; the experiment config schema."""

import csv
import dataclasses
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lccsub import presets
from lccsub.fileio import (
    CsvFormatError,
    convert_records,
    load_config_file,
    parse_experiment,
    parse_population,
    stream_rows,
)

finite = st.floats(allow_nan=False, allow_infinity=False)
cells = st.one_of(
    finite.map(lambda v: f"{v:.17g}"),
    finite.map(repr),
    st.sampled_from([" 1.5", "+1", ".5", "5.", "1_0", "-0", "1e-320", "\t2 ", "\xa03", "4\x0c"]),
)
labels = st.sampled_from(["0", "1", "1.0", "0.0", "+1", " 0", "-0"])
rows = st.lists(st.tuples(labels, cells, cells, cells), min_size=1, max_size=40)


def stream_all(path, chunk_size=8192, fields=(2, 3, 5)):
    chunks = list(stream_rows(path, chunk_size))
    return tuple(np.concatenate([c[i] for c in chunks]) for i in fields)


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
        label_chunks = list(stream_rows(path, chunk_size, labels_only=True))
    want = np.array([[float(c) for c in row] for row in rows])
    assert feats.tobytes() == want[:, [1, 3]].tobytes()
    assert got_labels.tobytes() == want[:, 0].tobytes()
    assert offsets.tobytes() == want[:, 2].tobytes()
    assert feats.flags["C_CONTIGUOUS"] and got_labels.flags["C_CONTIGUOUS"]
    # the label converter, and the records it keeps converted afterwards
    only = np.concatenate([c[3] for c in label_chunks])
    assert only.tobytes() == want[:, 0].tobytes()
    records = [r for c in label_chunks for r in c[2]]
    _, _, kept_feats, kept_labels, _, kept_offsets = convert_records(label_chunks[0][0], records)
    assert kept_feats.tobytes() == feats.tobytes() and kept_feats.flags["C_CONTIGUOUS"]
    assert kept_labels.tobytes() == got_labels.tobytes()
    assert kept_offsets.tobytes() == offsets.tobytes()


BAD_ROW = 9000  # in the second chunk of the default 8192


@pytest.mark.parametrize(
    "bad_line, message",
    [
        ("1,abc,0.5,2", "row 9000, column 'x1': not a number: 'abc'"),
        ("1,0.25,inf,2", "row 9000, column 'x2': non-finite value"),
        ("2,0.25,0.5,2", "row 9000: label 2.0 is not 0 or 1"),
        ("1,0.25,0.5,0", "row 9000: weight must be positive"),
        ("1,0.25,0.5", "row 9000: expected 4 fields, got 3"),
        ("", "row 9000: expected 4 fields, got 0"),
        # numpy's reader would strip \x1f as whitespace; float() does not
        ("1,0.25\x1f,0.5,2", "row 9000, column 'x1': not a number: '0.25\\x1f'"),
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


def reference_parse(path):
    """csv.reader records, each cell through float(): the per-cell path."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    return np.array([[float(c) for c in row] for row in rows])


@pytest.mark.parametrize("chunk_size", [1, 2, 3, 8192])
def test_quoted_newline_across_chunk_boundary(tmp_path, chunk_size):
    path = tmp_path / "quoted.csv"
    # the second record spans lines 2-3, so with chunk_size 2 its quote
    # opens in the first chunk and closes in the next
    path.write_text('y,x1\n0,1\n1,"2\n"\n0,3\n"1","\n4"\n0,5\n')
    chunks = list(stream_rows(str(path), chunk_size))
    feats, labels = stream_all(path, chunk_size, fields=(2, 3))
    want = reference_parse(path)
    assert want.tolist() == [[0, 1], [1, 2], [0, 3], [1, 4], [0, 5]]
    assert labels.tobytes() == want[:, 0].tobytes()
    assert feats.tobytes() == want[:, [1]].tobytes()
    starts = [c[1] for c in chunks]
    sizes = [c[3].size for c in chunks]
    assert starts == list(np.cumsum([1] + sizes[:-1]))


def test_row_numbers_count_records_not_lines(tmp_path):
    path = tmp_path / "quoted.csv"
    path.write_text('y,x1\n0,"1\n"\n1,2\n0,x\n')
    with pytest.raises(CsvFormatError, match="row 3, column 'x1': not a number: 'x'"):
        list(stream_rows(str(path), 2))


def test_blank_chunk_diagnostic_without_numpy_warning(tmp_path):
    path = tmp_path / "trailing.csv"
    path.write_text("y,x1\n0,1\n1,2\n\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CsvFormatError, match="row 3: expected 2 fields, got 0"):
            list(stream_rows(str(path), 2))


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_line_endings_parse_bit_identically(tmp_path, newline):
    lines = ["y,x1,x2"] + [f"{r % 2},{r / 7:.17g},-{r / 3:.17g}" for r in range(1, 20001)]
    unix, other = tmp_path / "unix.csv", tmp_path / "other.csv"
    unix.write_text("\n".join(lines) + "\n")
    other.write_bytes((newline.join(lines) + newline).encode())
    got = stream_all(other, fields=(2, 3))
    assert [g.tobytes() for g in got] == [w.tobytes() for w in stream_all(unix, fields=(2, 3))]
    assert got[0].tobytes() == reference_parse(unix)[:, 1:].tobytes()


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


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
_CONFIG_PRESETS = {
    "correct_spec": presets.correct_gaussian,
    "example2": presets.example2,
    "oatmeal": presets.oatmeal,
    "sim1": presets.simulation1,
    "sim1_desk": presets.simulation1,
    "sim2_desk": lambda: presets.simulation2(20),
    "steplogit": presets.steplogit,
}


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda path: path.stem)
def test_bundled_config_parses(path):
    raw = load_config_file(str(path))
    spec = parse_population(raw["population"])
    preset = _CONFIG_PRESETS[path.stem]()
    assert type(spec) is type(preset)
    for field in dataclasses.fields(spec):
        assert np.array_equal(getattr(spec, field.name), getattr(preset, field.name)), field.name
    if "experiment" in raw:
        config = parse_experiment(raw["experiment"], spec)
        for key, value in raw["experiment"].items():
            expected = tuple(value) if key == "methods" else value
            assert getattr(config, key) == expected, key
