"""File formats: observation CSVs, coefficient files, YAML configs, reports.

CSV contract: UTF-8 with a header row; a `y` column in {0,1}; optional
`weight` (>0) and `offset` columns recognized by name; every other column
is a numeric feature.  Values are rendered with 17 significant digits so
parse -> serialize -> parse is lossless.  All writers go through a
write-temp-then-rename so partial files never appear at the target path.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import chain, islice

import numpy as np

from ._workers import fork_map
from .experiments import ExperimentConfig
from .glm import FitConfig, ModelParams, ObservationSet
from .populations import (
    DiscretePopulation,
    PopulationSpec,
    StepLogit,
    TwoClassGaussian,
)
from .sampling import CHUNK_ROWS

__all__ = [
    "ConfigError",
    "CsvFormatError",
    "format_value",
    "atomic_write",
    "read_observations_csv",
    "write_observations_csv",
    "read_coefficients",
    "write_coefficients",
    "load_config_file",
    "parse_population",
    "parse_experiment",
    "stream_rows",
    "map_shards",
    "shard_plan",
    "convert_records",
    "write_report",
]

LABEL_COLUMN = "y"
WEIGHT_COLUMN = "weight"
OFFSET_COLUMN = "offset"


class ConfigError(Exception):
    """A config or spec file failed validation; message names the field."""


class CsvFormatError(Exception):
    """A data CSV failed validation; message carries row/column context."""


def format_value(x: float) -> str:
    return f"{x:.17g}"


@contextmanager
def atomic_write(path: str, newline=None):
    """Write to a temp file in the target directory, rename on success."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline=newline) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# observation CSVs


@dataclass(frozen=True)
class CsvHeader:
    columns: list
    label_idx: int
    feature_idx: list
    weight_idx: int | None
    offset_idx: int | None

    @property
    def feature_names(self) -> list:
        return [self.columns[i] for i in self.feature_idx]


def _parse_header(columns) -> CsvHeader:
    if LABEL_COLUMN not in columns:
        raise CsvFormatError(f"missing required label column {LABEL_COLUMN!r}")
    seen = set()
    for c in columns:
        if c in seen:
            raise CsvFormatError(f"duplicate column {c!r}")
        seen.add(c)
    label_idx = columns.index(LABEL_COLUMN)
    weight_idx = columns.index(WEIGHT_COLUMN) if WEIGHT_COLUMN in columns else None
    offset_idx = columns.index(OFFSET_COLUMN) if OFFSET_COLUMN in columns else None
    special = {label_idx, weight_idx, offset_idx}
    feature_idx = [i for i in range(len(columns)) if i not in special]
    return CsvHeader(list(columns), label_idx, feature_idx, weight_idx, offset_idx)


def _parse_cell(raw: str, row: int, column: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise CsvFormatError(
            f"row {row}, column {column!r}: not a number: {raw!r}"
        ) from None
    if not np.isfinite(value):
        raise CsvFormatError(f"row {row}, column {column!r}: non-finite value")
    return value


# numpy's C reader strips these as whitespace; float() rejects them
_C_READER_UNSAFE = ("\x1c", "\x1d", "\x1e", "\x1f")


def _column(table, idx):
    return None if idx is None else np.ascontiguousarray(table[:, idx])


def _convert(header: CsvHeader, lines, rows, start: int):
    """One chunk as (header, start, features, labels, weights, offsets).

    `rows` are csv records, or None where numpy's C reader takes the raw
    `lines`.  A chunk the whole-array checks reject is parsed cell by cell,
    which owns every row/column diagnostic.
    """
    try:
        table = (
            np.array(rows, dtype=np.float64)
            if rows
            else np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        )
    except ValueError:
        table = None
    shape = (len(rows or lines), len(header.columns))
    if table is not None and table.shape == shape and np.isfinite(table).all():
        labels = _column(table, header.label_idx)
        weights = _column(table, header.weight_idx)
        if ((labels == 0.0) | (labels == 1.0)).all() and (
            weights is None or (weights > 0.0).all()
        ):
            feats = _column(table, header.feature_idx)
            return header, start, feats, labels, weights, _column(table, header.offset_idx)
    rows = rows or list(csv.reader(lines))
    feats = np.empty((len(rows), len(header.feature_idx)))
    labels = np.empty(len(rows))
    weights = np.empty(len(rows)) if header.weight_idx is not None else None
    offsets = np.empty(len(rows)) if header.offset_idx is not None else None
    for k, row in enumerate(rows):
        r = start + k
        if len(row) != len(header.columns):
            raise CsvFormatError(
                f"row {r}: expected {len(header.columns)} fields, got {len(row)}"
            )
        label = _parse_cell(row[header.label_idx], r, LABEL_COLUMN)
        if label not in (0.0, 1.0):
            raise CsvFormatError(f"row {r}: label {label!r} is not 0 or 1")
        labels[k] = label
        for j, idx in enumerate(header.feature_idx):
            feats[k, j] = _parse_cell(row[idx], r, header.columns[idx])
        if weights is not None:
            weights[k] = _parse_cell(row[header.weight_idx], r, WEIGHT_COLUMN)
            if weights[k] <= 0:
                raise CsvFormatError(f"row {r}: weight must be positive")
        if offsets is not None:
            offsets[k] = _parse_cell(row[header.offset_idx], r, OFFSET_COLUMN)
    return header, start, feats, labels, weights, offsets


def _convert_labels(header: CsvHeader, lines, rows, start: int):
    """(header, start, records, labels, None, None); a chunk whose labels
    are not all 0 or 1 is checked in full by _convert."""
    idx, records = header.label_idx, rows or lines
    try:
        labels = (
            np.array([row[idx] for row in rows], dtype=np.float64)
            if rows
            else np.loadtxt(lines, delimiter=",", comments=None, usecols=idx, ndmin=1)
        )
        valid = labels.shape == (len(records),) and ((labels == 0.0) | (labels == 1.0)).all()
    except (IndexError, ValueError):
        valid = False
    if not valid:
        labels = _convert(header, lines, rows, start)[3]
    return header, start, records, labels, None, None


def convert_records(header: CsvHeader, records):
    """Convert raw records of a labels_only pass as one chunk, rows numbered from 1."""
    rows = [next(csv.reader([r])) if isinstance(r, str) else r for r in records]
    return _convert(header, None, rows, 1)


def _read_header(handle) -> CsvHeader:
    try:
        return _parse_header(next(csv.reader(handle)))
    except StopIteration:
        raise CsvFormatError("empty file: no header row") from None


def stream_rows(
    path: str,
    chunk_size: int = CHUNK_ROWS,
    labels_only: bool = False,
    *,
    offset: int | None = None,
    first_row: int = 1,
    rows: int | None = None,
):
    """Yield (header, row_offset, features, labels, weights, offsets) chunks.

    weights/offsets are None when the columns are absent.  Row numbers in
    error messages are 1-based over data rows.  Each chunk of `chunk_size`
    lines is converted by numpy's C reader in one call; a chunk holding a
    quote is split by csv.reader instead, since a quoted field may hold a
    newline.  With labels_only only the label column is converted and
    checked, and chunks are (header, row_offset, records, labels, None,
    None): the raw records, for convert_records.  A shard of the file
    starts at byte `offset`, numbers its first row `first_row` and reads
    at most `rows` lines; by default the pass reads every row.
    """
    convert = _convert_labels if labels_only else _convert
    with open(path, newline="") as handle:
        header = _read_header(handle)
        if offset is not None:
            handle.seek(offset)
        source = handle if rows is None else islice(handle, rows)
        start = first_row
        while lines := list(islice(source, chunk_size)):
            text = "".join(lines)
            records = None  # csv records, where the C reader cannot take the lines
            if '"' in text:
                # read on past the chunk's lines until its records are whole
                records = list(islice(csv.reader(chain(lines, source)), chunk_size))
            elif text.isspace() or any(c in text for c in _C_READER_UNSAFE):
                records = list(csv.reader(lines))
            yield convert(header, lines, records, start)
            start += len(records or lines)
        if start == 1:
            raise CsvFormatError("no data rows")


_SCAN_BYTES = 1 << 20  # the newline scan for shard starts holds at most this much of the file


def _newline_counts(handle):
    """[(block start, block length, newlines)] per block of the file, or None
    when its records need not end at newlines: a quote may hold one inside a
    field, and a carriage return not followed by one ends a line too."""
    blocks, pos = [], 0
    while block := handle.read(_SCAN_BYTES):
        if block.endswith(b"\r"):
            block += handle.read(1)  # a \r\n split across blocks
        if b'"' in block or (b"\r" in block and block.count(b"\r") != block.count(b"\r\n")):
            return None
        newlines = int(np.count_nonzero(np.frombuffer(block, np.uint8) == 10))
        blocks.append((pos, len(block), newlines))
        pos += len(block)
    return blocks


def _shards(path: str, workers: int):
    """[(offset, first_row, rows)]: contiguous runs of CHUNK_ROWS-line chunks,
    at most one per worker, in file order.  The last shard reads to the end."""
    with open(path, "rb") as handle:
        blocks = _newline_counts(handle)
        if not blocks:
            return [(None, 1, None)]
        through = np.cumsum([newlines for _, _, newlines in blocks])  # newlines up to each block's end
        handle.seek(-1, os.SEEK_END)
        # the header ends at the first newline; a last line may lack its own
        data_rows = int(through[-1]) - 1 + (handle.read(1) != b"\n")
        chunks = -(-data_rows // CHUNK_ROWS)
        workers = min(workers, chunks)
        if workers <= 1:
            return [(None, 1, None)]
        firsts = [s * chunks // workers * CHUNK_ROWS for s in range(workers)]
        offsets = []
        for first in firsts:
            # data row `first` (from 0) begins after newline first + 1 (from 1)
            k = int(np.searchsorted(through, first + 1))
            pos, size, newlines = blocks[k]
            handle.seek(pos)
            ends = np.flatnonzero(np.frombuffer(handle.read(size), np.uint8) == 10)
            offsets.append(pos + int(ends[first - (through[k] - newlines)]) + 1)
    rows = [end - first for first, end in zip(firsts, firsts[1:])] + [None]
    return [(offset, first + 1, n) for offset, first, n in zip(offsets, firsts, rows)]


def shard_plan(path: str):
    """The shards of a pass over `path`, one per usable core at most (see _shards)."""
    return _shards(path, len(os.sched_getaffinity(0)))


def map_shards(path: str, scan, shards, labels_only: bool = False):
    """(header, [scan(chunks, first) for each shard]): one pass, split by core.

    `shards` is shard_plan(path), which a run making several passes over
    one file computes once: contiguous runs of CHUNK_ROWS-line chunks, one
    per usable core at most.  `chunks` is stream_rows over a shard and
    `first` the position (from 0) of its first row, so each chunk holds the
    rows a one-shard pass gives it.  The shards run through fork_map: the
    caller scans shard 0 and forked workers the others, and the first
    exception in file order is raised.  A file whose records need not end
    at newlines is one shard.
    """
    with open(path, newline="") as handle:
        header = _read_header(handle)

    def run(shard):
        offset, first_row, rows = shard
        chunks = stream_rows(
            path, labels_only=labels_only, offset=offset, first_row=first_row, rows=rows
        )
        return scan(chunks, first_row - 1)

    return header, fork_map(run, shards)


def read_observations_csv(path: str):
    """Load a whole CSV as (ObservationSet, feature_names)."""
    feats, labels, weights, offsets = [], [], [], []
    header = None
    for header, _, f, l, w, o in stream_rows(path):
        feats.append(f)
        labels.append(l)
        weights.append(w)
        offsets.append(o)
    obs = ObservationSet(
        np.vstack(feats),
        np.concatenate(labels),
        weights=None if weights[0] is None else np.concatenate(weights),
        offsets=None if offsets[0] is None else np.concatenate(offsets),
    )
    return obs, header.feature_names


_WRITE_ROWS = 1024  # rows formatted per write, which bounds the writer's memory


def write_observations_csv(path: str, obs: ObservationSet, feature_names) -> None:
    """A header, then one `y, features..., weight, offset` record per row, 17 digits each."""
    record = ",".join(["%.17g"] * (obs.p + 3)) + "\r\n"  # "%.17g" % x == format_value(x)
    with atomic_write(path, newline="") as handle:
        csv.writer(handle).writerow([LABEL_COLUMN, *feature_names, WEIGHT_COLUMN, OFFSET_COLUMN])
        for i in range(0, obs.n, _WRITE_ROWS):
            rows = slice(i, i + _WRITE_ROWS)
            table = np.column_stack(
                [obs.labels[rows], obs.features[rows], obs.weights[rows], obs.offsets[rows]]
            )
            handle.write("".join([record % tuple(row) for row in table.tolist()]))


# ---------------------------------------------------------------------------
# coefficient files


def write_coefficients(path: str, params: ModelParams, feature_names=None) -> None:
    """One `name value` line per coefficient, intercept first, 17 digits."""
    names = feature_names or [f"x{i + 1}" for i in range(params.slopes.size)]
    if len(names) != params.slopes.size:
        raise ValueError("feature name count does not match slopes")
    with atomic_write(path) as handle:
        handle.write(f"intercept {format_value(params.intercept)}\n")
        for name, value in zip(names, params.slopes):
            handle.write(f"{name} {format_value(value)}\n")


def read_coefficients(path: str):
    """Read a coefficient file; returns (ModelParams, feature_names)."""
    names, values = [], []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ConfigError(f"{path}:{lineno}: expected 'name value'")
            try:
                values.append(float(parts[1]))
            except ValueError:
                raise ConfigError(
                    f"{path}:{lineno}: not a number: {parts[1]!r}"
                ) from None
            names.append(parts[0])
    if not names or names[0] != "intercept":
        raise ConfigError(f"{path}: first coefficient must be 'intercept'")
    return ModelParams(values[0], values[1:]), names[1:]


# ---------------------------------------------------------------------------
# config / spec files (YAML)


def _require_keys(mapping: dict, allowed: set, required: set, context: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"{context}: unknown key {sorted(unknown)[0]!r}")
    missing = required - set(mapping)
    if missing:
        raise ConfigError(f"{context}: missing key {sorted(missing)[0]!r}")


def parse_population(mapping) -> PopulationSpec:
    if not isinstance(mapping, dict):
        raise ConfigError("population: expected a mapping")
    kind = mapping.get("kind")
    try:
        if kind == "discrete":
            _require_keys(mapping, {"kind", "cells"}, {"kind", "cells"}, "population")
            cells = mapping["cells"]
            if not isinstance(cells, list) or not cells:
                raise ConfigError("population.cells: expected a nonempty list")
            xs, masses, logodds = [], [], []
            for i, cell in enumerate(cells):
                _require_keys(
                    cell,
                    {"x", "mass", "logodds"},
                    {"x", "mass", "logodds"},
                    f"population.cells[{i}]",
                )
                xs.append(cell["x"])
                masses.append(cell["mass"])
                logodds.append(cell["logodds"])
            return DiscretePopulation(xs, masses, logodds)
        if kind == "gaussian2":
            keys = {"kind", "prior1", "mu0", "mu1", "sigma0", "sigma1"}
            _require_keys(mapping, keys, keys, "population")
            return TwoClassGaussian(
                prior1=mapping["prior1"],
                mu0=mapping["mu0"],
                mu1=mapping["mu1"],
                sigma0=mapping["sigma0"],
                sigma1=mapping["sigma1"],
            )
        if kind == "steplogit":
            keys = {"kind", "a", "b", "jump", "threshold"}
            _require_keys(mapping, keys, {"kind"}, "population")
            args = {k: mapping[k] for k in keys - {"kind"} if k in mapping}
            return StepLogit(**args)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"population: {exc}") from exc
    raise ConfigError(
        f"population.kind: expected discrete|gaussian2|steplogit, got {kind!r}"
    )


_FIT_KEYS = ("grad_tol", "max_iter")
# ExperimentConfig's own fields, with the FitConfig keys in place of `fit`
_EXPERIMENT_KEYS = ({f.name for f in fields(ExperimentConfig)} - {"spec", "fit"}) | set(_FIT_KEYS)


def parse_experiment(mapping, spec: PopulationSpec) -> ExperimentConfig:
    if not isinstance(mapping, dict):
        raise ConfigError("experiment: expected a mapping")
    _require_keys(
        mapping,
        _EXPERIMENT_KEYS,
        {"n_full", "n_pilot", "n_lcc", "replications"},
        "experiment",
    )
    kwargs = dict(mapping)
    fit_kwargs = {}
    for key in _FIT_KEYS:
        if key in kwargs:
            fit_kwargs[key] = kwargs.pop(key)
    if "methods" in kwargs:
        kwargs["methods"] = tuple(kwargs["methods"])
    try:
        return ExperimentConfig(spec=spec, fit=FitConfig(**fit_kwargs), **kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"experiment: {exc}") from exc


def load_config_file(path: str) -> dict:
    """Parse a YAML config file into a raw mapping with diagnostics."""
    import yaml  # here: sample and fit read no config
    with open(path) as handle:
        try:
            raw = yaml.safe_load(handle)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a top-level mapping")
    return raw


# ---------------------------------------------------------------------------
# report output


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def write_report(path: str, rows, fmt: str, comments=(), json_extra=None) -> None:
    """Write report rows as CSV (with # comment header) or JSON; '-' is stdout."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    rows = list(rows)
    buf = io.StringIO()
    if fmt == "json":
        payload = {"rows": _jsonable(rows)}
        payload.update(_jsonable(json_extra or {}))
        json.dump(payload, buf, indent=2, sort_keys=True)
        buf.write("\n")
    else:
        for comment in comments:
            buf.write(f"# {comment}\n")
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            for row in rows:
                writer.writerow(
                    {
                        k: format_value(v) if isinstance(v, (float, np.floating)) else v
                        for k, v in row.items()
                    }
                )
    if path == "-":
        sys.stdout.write(buf.getvalue())
        return
    with atomic_write(path, newline="") as handle:
        handle.write(buf.getvalue())
