"""Deterministic file writers: CSV with shortest round-trip floats, 16-bit
portable graymaps, and JSON with a stable key order. Byte-identical reruns
of the same configuration are a contract, so nothing here depends on dict
iteration order, locale, or wall-clock time."""

from __future__ import annotations

import hashlib
import json

import numpy as np


# The float format of fmt_float and of every CSV cell: the shortest decimal
# that round-trips to the same float.
_float_text = float.__repr__


def fmt_float(x) -> str:
    """Shortest decimal that round-trips to the same float."""
    return _float_text(float(x))


def float_rows(table) -> list:
    """Each row of a 2D float array as comma-separated `_float_text` cells.
    .tolist() already gives Python floats; calling fmt_float per cell would
    make the writers about 40% slower."""
    return [",".join(map(_float_text, row)) for row in np.asarray(table, dtype=float).tolist()]


def grid_csv_bytes(grid) -> bytes:
    """A Husimi grid as CSV `coord_a,coord_b,weight,value`, one line per node
    in row-major order: coord_a runs over grid.axes[0] (the rows of
    grid.values) and coord_b over grid.axes[1]."""
    a, b = np.meshgrid(*grid.axes, indexing="ij")
    table = np.stack([a, b, grid.weights, grid.values], axis=-1)
    # one grid row at a time: Python floats for the whole grid would take
    # several times the size of the text
    rows = (("\n".join(float_rows(row)) + "\n").encode() for row in table)
    return b"".join([b"coord_a,coord_b,weight,value\n", *rows])


def json_text(payload) -> str:
    """The one JSON spelling of every JSON file and of the CLI's JSON
    reports: one-space indent, sorted keys, a final newline."""
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def write_json(path, payload):
    data = json_text(payload).encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def heatmap_bytes(table, fourth_root=False) -> bytes:
    """16-bit binary PGM, row-major, max-normalized; the pre-scaling maximum
    (after the optional fourth-root transform) is recorded in a header
    comment so absolute values can be recovered."""
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.size == 0:
        raise ValueError("heatmap table must be a non-empty 2D array")
    if np.min(table) < 0:
        raise ValueError("heatmap values must be non-negative")
    if fourth_root:
        table = table**0.25
    peak = float(np.max(table))
    if peak > 0:
        scaled = np.round(table / peak * 65535).astype(">u2")
    else:
        scaled = np.zeros(table.shape, dtype=">u2")
    header = (
        "P5\n"
        f"# normalization {fmt_float(peak)}\n"
        f"# transform {'fourth_root' if fourth_root else 'none'}\n"
        f"{table.shape[1]} {table.shape[0]}\n"
        "65535\n"
    ).encode("ascii")
    return header + scaled.tobytes()


def export_heatmap(table, path, fourth_root=False):
    data = heatmap_bytes(table, fourth_root=fourth_root)
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def read_heatmap(path):
    """Inverse of export_heatmap, for tests: (array scaled to u16, peak, transform)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    lines = []
    pos = 0
    while len(lines) < 5:
        nl = blob.index(b"\n", pos)
        lines.append(blob[pos:nl].decode("ascii"))
        pos = nl + 1
    assert lines[0] == "P5"
    peak = float(lines[1].split()[-1])
    transform = lines[2].split()[-1]
    w, h = (int(v) for v in lines[3].split())
    assert lines[4] == "65535"
    arr = np.frombuffer(blob[pos:], dtype=">u2").reshape(h, w)
    return arr, peak, transform


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
