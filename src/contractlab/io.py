"""File ingestion: matrices as JSON {"rows": [[...], ...]} or CSV (one
row per line), vectors as JSON arrays or single-column CSV, and sequence
spec files pointing at matrix files or a seeded generator.

Every value a JSON file gives as a number must be a JSON number: true,
false, null and strings are rejected, not converted.  CSV cells are text
and are parsed as floats.  ``csv`` and ``products`` are imported by the
functions that read CSV or sequences, so that a command that reads
neither does not load them.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .matcore import Matrix

if TYPE_CHECKING:
    from .products import MatrixSequence

# the types json gives numbers; bool is a type of its own, not int
_JSON_NUMBER_TYPES = {int, float}
_JSON_TYPE_NAMES = {bool: "boolean", str: "string", type(None): "null", list: "array",
                    dict: "object"}


class InputError(ValueError):
    """Unparseable or invalid input file."""


def _json_numbers(values, source: str) -> None:
    """Raise InputError unless each of values, as parsed by json, is a
    number.  The types are gathered at C level, one set for all values,
    so an n x n matrix costs no Python step per entry."""
    bad = set(map(type, values)) - _JSON_NUMBER_TYPES
    if bad:
        found = ", ".join(sorted(_JSON_TYPE_NAMES.get(t, t.__name__) for t in bad))
        raise InputError(f"{source}: non-numeric value (expected JSON numbers, found {found})")


def _finite_rows(rows, source: str, from_json: bool) -> np.ndarray:
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise InputError(f"{source}: expected a list of rows")
    if not rows:
        raise InputError(f"{source}: empty matrix")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise InputError(f"{source}: ragged row {i} (expected {width} values)")
    if from_json:
        _json_numbers(chain.from_iterable(rows), source)
    try:
        a = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{source}: non-numeric value ({exc})") from exc
    if not np.all(np.isfinite(a)):
        raise InputError(f"{source}: non-finite value")
    return a


def _read(path: Path, as_json: bool):
    """The file's text, or its parsed JSON document; a file that cannot be
    read or JSON that does not parse, or nests past the recursion limit
    of the decoder, raises InputError."""
    try:
        text = path.read_text()
        return json.loads(text) if as_json else text
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply") from exc


def load_object(path) -> dict:
    """A JSON file holding one object, such as a sequence spec or a
    simulation config."""
    path = Path(path)
    doc = _read(path, as_json=True)
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object")
    return doc


def load_matrix(path) -> Matrix:
    path = Path(path)
    if path.suffix.lower() == ".json":
        doc = _read(path, as_json=True)
        if not isinstance(doc, dict) or "rows" not in doc:
            raise InputError(f"{path}: expected an object with a 'rows' field")
        rows = doc["rows"]
    else:
        import csv

        rows = [row for row in csv.reader(_read(path, as_json=False).splitlines()) if row]
    a = _finite_rows(rows, str(path), from_json=path.suffix.lower() == ".json")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"{path}: expected a square matrix, got shape {a.shape}")
    return Matrix(a)


def load_vector(path) -> np.ndarray:
    path = Path(path)
    if path.suffix.lower() == ".json":
        return json_vector(_read(path, as_json=True), str(path))
    import csv

    values = []
    for row in csv.reader(_read(path, as_json=False).splitlines()):
        if not row:
            continue
        if len(row) != 1:
            raise InputError(f"{path}: expected a single column")
        values.append(row[0])
    return _finite_vector(values, str(path))


def json_vector(values, source: str) -> np.ndarray:
    """A parsed JSON array of numbers, such as a simulate config's inline
    x0, as a nonempty finite vector; source names it in errors."""
    if not isinstance(values, list):
        raise InputError(f"{source}: expected a JSON array")
    _json_numbers(values, source)
    return _finite_vector(values, source)


def _finite_vector(values, source: str) -> np.ndarray:
    try:
        x = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{source}: non-numeric value ({exc})") from exc
    if x.size == 0 or not np.all(np.isfinite(x)):
        raise InputError(f"{source}: empty or non-finite vector")
    return x


def parse_weights(text: str) -> np.ndarray:
    """Weights given inline as a comma-separated list, or as a file path."""
    if "," in text:
        try:
            return np.asarray([float(v) for v in text.split(",")], dtype=float)
        except ValueError as exc:
            raise InputError(f"bad weight list {text!r}") from exc
    return load_vector(text)


def load_sequence(path) -> MatrixSequence:
    """Sequence spec: {"matrices": [paths], "repeat": k} or
    {"generator": {"kind": ..., "n": ..., "seed": ..., "min_entry": ...}}.
    Relative matrix paths are resolved against the spec file.  Any other
    field, or 'generator' beside 'matrices' or 'repeat', is an error."""
    from .products import MatrixSequence, check_fields, integer

    path = Path(path)
    doc = load_object(path)
    try:
        check_fields(doc, ("generator", "matrices", "repeat"), "field")
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    if "generator" in doc:
        listed = [name for name in ("matrices", "repeat") if name in doc]
        if listed:
            raise InputError(f"{path}: fields 'generator' and {listed[0]!r} exclude each other")
        if not isinstance(doc["generator"], dict):
            raise InputError(f"{path}: 'generator' must be an object")
        try:
            return MatrixSequence(generator=doc["generator"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"{path}: bad generator spec ({exc})") from exc
    matrices = doc.get("matrices")
    if not isinstance(matrices, list) or not all(isinstance(p, str) for p in matrices):
        raise InputError(f"{path}: expected 'matrices' (a list of paths) or 'generator'")
    try:
        repeat = integer(doc.get("repeat", 1), "repeat")
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    if repeat < 1:
        raise InputError(f"{path}: repeat must be >= 1")
    items = [load_matrix(path.parent / p) for p in matrices]
    if not items:
        raise InputError(f"{path}: empty matrix list")
    return MatrixSequence(items=items * repeat)
