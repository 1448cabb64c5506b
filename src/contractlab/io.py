"""File ingestion: matrices as JSON {"rows": [[...], ...]} or CSV (one
row per line), vectors as JSON arrays or single-column CSV, and sequence
spec files pointing at matrix files or a seeded generator."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .matcore import DEFAULT_ZERO_TOL, Matrix
from .products import MatrixSequence, integer


class InputError(ValueError):
    """Unparseable or invalid input file."""


def _finite_rows(rows, source: str) -> np.ndarray:
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise InputError(f"{source}: expected a list of rows")
    if not rows:
        raise InputError(f"{source}: empty matrix")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise InputError(f"{source}: ragged row {i} (expected {width} values)")
    try:
        a = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{source}: non-numeric value ({exc})") from exc
    if not np.all(np.isfinite(a)):
        raise InputError(f"{source}: non-finite value")
    return a


def _read(path: Path, as_json: bool):
    """The file's text, or its parsed JSON document; a file that cannot be
    read or JSON that does not parse raises InputError."""
    try:
        text = path.read_text()
        return json.loads(text) if as_json else text
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}") from exc


def load_object(path) -> dict:
    """A JSON file holding one object, such as a sequence spec or a
    simulation config."""
    path = Path(path)
    doc = _read(path, as_json=True)
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object")
    return doc


def load_matrix(path, zero_tol: float = DEFAULT_ZERO_TOL) -> Matrix:
    path = Path(path)
    if path.suffix.lower() == ".json":
        doc = _read(path, as_json=True)
        if not isinstance(doc, dict) or "rows" not in doc:
            raise InputError(f"{path}: expected an object with a 'rows' field")
        rows = doc["rows"]
    else:
        rows = [row for row in csv.reader(_read(path, as_json=False).splitlines()) if row]
    a = _finite_rows(rows, str(path))
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"{path}: expected a square matrix, got shape {a.shape}")
    return Matrix(a, zero_tol=zero_tol)


def load_vector(path) -> np.ndarray:
    path = Path(path)
    if path.suffix.lower() == ".json":
        values = _read(path, as_json=True)
        if not isinstance(values, list):
            raise InputError(f"{path}: expected a JSON array")
    else:
        values = []
        for row in csv.reader(_read(path, as_json=False).splitlines()):
            if not row:
                continue
            if len(row) != 1:
                raise InputError(f"{path}: expected a single column")
            values.append(row[0])
    try:
        x = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: non-numeric value ({exc})") from exc
    if x.size == 0 or not np.all(np.isfinite(x)):
        raise InputError(f"{path}: empty or non-finite vector")
    return x


def parse_weights(text: str) -> np.ndarray:
    """Weights given inline as a comma-separated list, or as a file path."""
    if "," in text:
        try:
            return np.asarray([float(v) for v in text.split(",")], dtype=float)
        except ValueError as exc:
            raise InputError(f"bad weight list {text!r}") from exc
    return load_vector(text)


def load_sequence(path, zero_tol: float = DEFAULT_ZERO_TOL) -> MatrixSequence:
    """Sequence spec: {"matrices": [paths], "repeat": k} or
    {"generator": {"kind": ..., "n": ..., "seed": ..., "min_entry": ...}}.
    Relative matrix paths are resolved against the spec file."""
    path = Path(path)
    doc = load_object(path)
    if "generator" in doc:
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
    items = [load_matrix(path.parent / p, zero_tol) for p in matrices]
    if not items:
        raise InputError(f"{path}: empty matrix list")
    return MatrixSequence(items=items * repeat)
