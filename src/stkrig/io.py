"""File formats used by the command line tools.

Locations travel as CSV with header ``site_id,x1,...,xd``; panel data as CSV
with header ``t,<site_id>,...`` and one row per time point. Model parameters
travel as JSON with keys sigma_e2, nu, c_coeffs, nugget and d; files written
by the estimation command wrap the same object under a "params" key and both
shapes are accepted wherever a model is read. Every CSV input is read by
_read_csv, every CSV table the package writes goes through write_table, and
result records take their JSON form from json_data.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os

import numpy as np

from .covmodel import ModelParams
from .spectral import TimeSeriesPanel


class PanelFormatError(ValueError):
    """An input file does not follow the documented layout."""


def _number(path: str, r: int, column: str, cell: str) -> float:
    """The finite number in one CSV cell (row r, named column)."""
    try:
        value = float(cell)
    except ValueError:
        raise PanelFormatError(
            "%s: row %d, column %r: cannot parse %r as a number" % (path, r, column, cell)
        ) from None
    if not math.isfinite(value):
        raise PanelFormatError("%s: row %d, column %r is not finite" % (path, r, column))
    return value


def _read_csv(path: str, first: str) -> tuple[list, list]:
    """The stripped header and the (row number, fields) pairs of a CSV file
    whose header starts with the column first and names at least one more,
    and whose rows all have the header's field count; anything else is a
    PanelFormatError that starts with the path."""
    try:
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
    except (UnicodeDecodeError, csv.Error) as err:
        raise PanelFormatError("%s: cannot read as CSV text: %s" % (path, err)) from None
    if not rows:
        raise PanelFormatError("%s: empty file" % path)
    header = [c.strip() for c in rows[0]]
    if header[:1] != [first] or len(header) < 2:
        raise PanelFormatError(
            "%s: header must start with %r (the first column) and name at least one "
            "more column, got %r" % (path, first, rows[0])
        )
    numbered = list(enumerate(rows[1:], start=2))
    for r, row in numbered:
        if len(row) != len(header):
            raise PanelFormatError("%s: row %d has %d fields, expected %d"
                                   % (path, r, len(row), len(header)))
    return header, numbered


def load_locations(path: str) -> tuple[list, np.ndarray]:
    """Read site identifiers and coordinates.

    Returns
    -------
    tuple
        (site_ids, coordinates) with coordinates of shape (m, d).
    """
    header, rows = _read_csv(path, "site_id")
    site_rows = {}
    coords = []
    for r, row in rows:
        site = row[0].strip()
        if not site:
            raise PanelFormatError("%s: row %d, column 'site_id' is blank" % (path, r))
        if site_rows.setdefault(site, r) != r:
            raise PanelFormatError("%s: duplicate site id %r at row %d" % (path, site, r))
        coords.append([_number(path, r, header[c], row[c]) for c in range(1, len(header))])
    if not site_rows:
        raise PanelFormatError("%s: no sites found" % path)
    return list(site_rows), np.asarray(coords, dtype=float)


def load_series(path: str, site_ids: list) -> np.ndarray:
    """Read the observation matrix for the given sites, reordering columns
    to match site_ids. Every site must appear exactly once."""
    header, rows = _read_csv(path, "t")
    columns = header[1:]
    fields = {s: c for c, s in enumerate(columns, start=1)}
    missing = [s for s in site_ids if s not in fields]
    wanted = set(site_ids)
    extra = [s for s in columns if s not in wanted]
    if missing or extra:
        raise PanelFormatError(
            "%s: series columns do not match the locations file; missing %r, "
            "unexpected %r" % (path, missing, extra)
        )
    if len(fields) != len(columns):
        raise PanelFormatError("%s: duplicate series column" % path)
    order = [fields[s] for s in site_ids]
    data = [[_number(path, r, header[c], row[c]) for c in order] for r, row in rows]
    if len(data) < 2:
        raise PanelFormatError("%s: need at least two time points, got %d" % (path, len(data)))
    return np.asarray(data, dtype=float).T


def load_panel(locations_path: str, series_path: str) -> TimeSeriesPanel:
    """Build a panel from a locations file and a series file."""
    ids, coords = load_locations(locations_path)
    observations = load_series(series_path, ids)
    try:
        return TimeSeriesPanel(locations=coords, observations=observations,
                               site_ids=tuple(ids))
    except ValueError as err:
        raise PanelFormatError("%s + %s: %s" % (locations_path, series_path, err)) from None


def save_panel(panel: TimeSeriesPanel, out_dir: str) -> tuple[str, str]:
    """Write locations.csv and series.csv into out_dir; returns the paths."""
    return (
        write_table(os.path.join(out_dir, "locations.csv"),
                    ["site_id"] + ["x%d" % (k + 1) for k in range(panel.d)],
                    panel.site_ids, panel.locations.T),
        write_table(os.path.join(out_dir, "series.csv"), ["t"] + list(panel.site_ids),
                    range(1, panel.n + 1), panel.observations),
    )


def load_model(path: str) -> ModelParams:
    """Read model parameters from a bare JSON object or from an estimation
    result that wraps them under the "params" key."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except ValueError as err:  # malformed JSON or text that does not decode
        raise PanelFormatError("%s: not valid JSON: %s" % (path, err)) from None
    payload = data.get("params", data) if isinstance(data, dict) else data
    if not isinstance(payload, dict):
        raise PanelFormatError("%s: expected a JSON object" % path)
    try:
        return ModelParams.from_dict(payload)
    except (ValueError, TypeError) as err:
        raise PanelFormatError("%s: %s" % (path, err)) from None


def load_single_series(path: str) -> np.ndarray:
    """Read the second column of a CSV with header 't,<name>' as one series;
    a header that names more columns is a PanelFormatError."""
    header, rows = _read_csv(path, "t")
    if len(header) > 2:
        raise PanelFormatError("%s: header must name one series after 't', got %r"
                               % (path, header))
    values = [_number(path, r, header[1], row[1]) for r, row in rows]
    if len(values) < 2:
        raise PanelFormatError("%s: need at least two values" % path)
    return np.asarray(values, dtype=float)


def _make_parent(path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def _label(value) -> str:
    """A row label's CSV cell: a string as it is, an integer in decimal, any
    other number as the repr of a Python float."""
    return str(value) if isinstance(value, (str, int, np.integer)) else repr(float(value))


def write_table(path: str, header, labels, columns) -> str:
    """Write a CSV table and return its path, creating its directory.

    The header row comes first, then one row per label: the label, then
    that row's value from each column. Values are written as the repr of a
    Python float, so they read back exactly.
    """
    rows = np.asarray(columns, dtype=float).T.tolist()
    if len(rows) != len(labels):
        raise ValueError("got %d labels for columns of length %d" % (len(labels), len(rows)))
    _make_parent(path)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([_label(label)] + [repr(v) for v in row]
                         for label, row in zip(labels, rows))
    return path


def json_data(record) -> dict:
    """A result record as JSON data: its dataclass fields in order, arrays,
    lists and tuples as lists, dicts as new dicts, numpy scalars as Python
    numbers, and an object with to_dict (ModelParams) as that dict."""
    return {field.name: _json_value(getattr(record, field.name))
            for field in dataclasses.fields(record)}


def _json_value(value):
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    return value


def write_json(path: str, payload: dict) -> str:
    """Write payload as strict JSON and return the path, creating its
    directory. A NaN or infinite number is a ValueError, raised before the
    file is opened."""
    text = json.dumps(payload, indent=2, allow_nan=False)
    _make_parent(path)
    with open(path, "w") as handle:
        handle.write(text + "\n")
    return path
