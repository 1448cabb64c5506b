"""Every input read from a file or a flag: matrices as JSON {"rows":
[[...], ...]} or CSV rows, vectors as JSON arrays or single-column CSV,
inline weight lists, sequence specs and simulation configs.  A JSON value
read as a number must be a JSON number, not true, false, null or a
string; CSV cells are parsed as floats.

Each input is read inside ``reading(source)``, its one error boundary: a
ValueError, TypeError, KeyError or OverflowError (such as from a number
past the float range) becomes one InputError naming source, and an
InputError passes through.  Only ``_read`` and a generator spec translate
errors otherwise.  ``csv``, ``products`` and ``cml`` are imported by the
readers of CSV, sequences and configs, which not every command runs.
"""

from __future__ import annotations

import json
import numbers
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .matcore import Matrix
from .projections import Norm

if TYPE_CHECKING:
    from .products import MatrixSequence

# what reading an input raises for a value it cannot take
_INPUT_FAULTS = (ValueError, TypeError, KeyError, OverflowError)
# the types json gives numbers; bool is a type of its own, not int
_JSON_NUMBER_TYPES = {int, float}
_JSON_TYPE_NAMES = {bool: "boolean", str: "string", type(None): "null", list: "array",
                    dict: "object"}
_SIMULATION_FIELDS = ("matrix", "sequence", "map", "x0", "steps", "norm", "weights")


class InputError(ValueError):
    """Unparseable or invalid input file."""


@contextmanager
def reading(source):
    """The error boundary of the input source: an input fault raised in
    the block becomes an InputError naming source."""
    try:
        yield
    except InputError:
        raise
    except _INPUT_FAULTS as exc:
        raise InputError(f"{source}: {exc}") from exc


def is_real(value) -> bool:
    """True for a real number: a bool, Python's or numpy's, is none."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def integer(value, name: str) -> int:
    """value as an int: an integer, or a float with an integral value
    such as 30.0.  A fractional or non-finite number, a bool or any other
    type raises ValueError naming the field."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def exceeds_index(rows: int, cols: int) -> bool:
    """True when a rows x cols float64 array has more bytes than np.intp
    can index: numpy cannot make it, whatever the memory."""
    return rows * cols * np.dtype(float).itemsize > np.iinfo(np.intp).max


def check_fields(doc: dict, known, what: str) -> None:
    """Raise ValueError naming each key of doc, a spec read from JSON,
    outside known: a misspelt field would otherwise be dropped unread."""
    unknown = [key for key in doc if key not in known]
    if unknown:
        raise ValueError(f"unknown {what}{'s' if len(unknown) > 1 else ''} "
                         + ", ".join(map(repr, unknown)))


def _json_numbers(values) -> None:
    """Raise ValueError unless each of values, as parsed by json, is a
    number.  The types are gathered at C level, one set for all values,
    so an n x n matrix costs no Python step per entry."""
    bad = set(map(type, values)) - _JSON_NUMBER_TYPES
    if bad:
        found = ", ".join(sorted(_JSON_TYPE_NAMES.get(t, t.__name__) for t in bad))
        raise ValueError(f"non-numeric value (expected JSON numbers, found {found})")


def _read(path: Path, as_json: bool):
    """The file's parsed JSON document, or its nonempty CSV rows.  A file
    that cannot be read or parsed, such as JSON nested past the decoder's
    recursion limit or a CSV cell past the csv field limit, raises InputError."""
    try:
        text = path.read_text()
        if as_json:
            return json.loads(text)
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply") from exc
    import csv

    try:
        return [row for row in csv.reader(text.splitlines()) if row]
    except csv.Error as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_object(path) -> dict:
    """A JSON file holding one object: a sequence spec or a simulation config."""
    path = Path(path)
    with reading(path):
        doc = _read(path, as_json=True)
        if not isinstance(doc, dict):
            raise ValueError("expected a JSON object")
        return doc


def load_matrix(path) -> Matrix:
    """A matrix file; Matrix checks that its rows are numbers, square and finite."""
    path = Path(path)
    from_json = path.suffix.lower() == ".json"
    with reading(path):
        rows = _read(path, as_json=from_json)
        if from_json:
            if not isinstance(rows, dict) or "rows" not in rows:
                raise ValueError("expected an object with a 'rows' field")
            rows = rows["rows"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError("expected a list of rows")
        if not rows:
            raise ValueError("empty matrix")
        width = len(rows[0])
        for i, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(f"ragged row {i} (expected {width} values)")
        if from_json:
            _json_numbers(chain.from_iterable(rows))
        return Matrix(rows)


def load_vector(path) -> np.ndarray:
    path = Path(path)
    from_json = path.suffix.lower() == ".json"
    with reading(path):
        doc = _read(path, as_json=from_json)
        if not from_json and any(len(row) != 1 for row in doc):
            raise ValueError("expected a single column")
        return _vector(doc if from_json else [row[0] for row in doc], from_json)


def _vector(values, from_json: bool = True) -> np.ndarray:
    """values, a list (of JSON numbers if from_json), as a nonempty finite vector."""
    if not isinstance(values, list):
        raise ValueError("expected a JSON array")
    if from_json:
        _json_numbers(values)
    x = np.asarray(values, dtype=float)
    if x.size == 0 or not np.all(np.isfinite(x)):
        raise ValueError("empty or non-finite vector")
    return x


def parse_weights(text: str) -> np.ndarray:
    """Weights given inline as a comma-separated list, or as a file path."""
    if "," not in text:
        return load_vector(text)
    with reading(f"weight list {text!r}"):
        return np.asarray([float(v) for v in text.split(",")], dtype=float)


def load_sequence(path) -> MatrixSequence:
    """Sequence spec: {"matrices": [paths], "repeat": k} or
    {"generator": {"kind": ..., "n": ..., "seed": ..., "min_entry": ...}}.
    Relative matrix paths are resolved against the spec file.  Any other
    field, or 'generator' beside 'matrices' or 'repeat', is an error."""
    from .products import MatrixSequence

    path = Path(path)
    doc = load_object(path)
    with reading(path):
        check_fields(doc, ("generator", "matrices", "repeat"), "field")
        if "generator" in doc:
            listed = [name for name in ("matrices", "repeat") if name in doc]
            if listed:
                raise ValueError(f"fields 'generator' and {listed[0]!r} exclude each other")
            if not isinstance(doc["generator"], dict):
                raise ValueError("'generator' must be an object")
            try:
                return MatrixSequence(generator=doc["generator"])
            except _INPUT_FAULTS as exc:
                raise InputError(f"{path}: bad generator spec ({exc})") from exc
        matrices = doc.get("matrices")
        if not isinstance(matrices, list) or not all(isinstance(p, str) for p in matrices):
            raise ValueError("expected 'matrices' (a list of paths) or 'generator'")
        repeat = integer(doc.get("repeat", 1), "repeat")
        if repeat < 1:
            raise ValueError("repeat must be >= 1")
        return MatrixSequence(items=[load_matrix(path.parent / p) for p in matrices] * repeat)


def load_simulation(path) -> tuple:
    """(sequence, map, x0, steps, norm) of a simulation config, with paths
    resolved against its directory; a field outside _SIMULATION_FIELDS is an error."""
    from .cml import make_map
    from .products import MatrixSequence

    path = Path(path)
    config = load_object(path)
    with reading(path):
        check_fields(config, _SIMULATION_FIELDS, "field")
        if "matrix" in config and "sequence" in config:
            raise ValueError("fields 'matrix' and 'sequence' exclude each other")
        steps = integer(config.get("steps", 100), "steps")
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        for name in ("matrix", "sequence"):
            if not isinstance(config.get(name, ""), str):
                raise ValueError(f"field {name!r} must be a path, got {config[name]!r}")
        if "sequence" in config:
            coupling = load_sequence(path.parent / config["sequence"])
        elif "matrix" in config:
            coupling = load_matrix(path.parent / config["matrix"])
        else:
            raise ValueError("field 'matrix' or 'sequence' required")
        if exceeds_index(steps + 1, coupling.n):  # checked before a matrix is repeated
            raise ValueError("steps too large: a (steps + 1) x n float64 state array "
                             "has more bytes than numpy can index")
        seq = MatrixSequence(items=[coupling] * steps) if "matrix" in config else coupling
        for name in ("map", "x0"):
            if config.get(name) is None:
                raise ValueError(f"field {name!r} required")
        mp, x0, weights = make_map(config["map"]), config["x0"], config.get("weights")
        with reading(f"{path}: field 'x0'"):  # a vector file's error names the file
            x0 = load_vector(path.parent / x0) if isinstance(x0, str) else _vector(x0)
        with reading(f"{path}: field 'weights'"):
            weights = None if weights is None else _vector(weights)
        return seq, mp, x0, steps, Norm(config.get("norm", "linf"), weights)
