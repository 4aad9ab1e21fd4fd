"""Deterministic file writers: CSV with shortest round-trip floats, 16-bit
portable graymaps, and JSON with a stable key order. Byte-identical reruns
of the same configuration are a contract, so nothing here depends on dict
iteration order, locale, or wall-clock time.

Float formatting is most of the cost of the CSV writers. The Husimi grid
writer formats each axis entry once and each distinct weight of a grid row
once, since a chart repeats them at every node; only the values are
formatted per node."""

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
    .tolist() already gives Python floats; calling fmt_float per cell takes
    about 1.5 times as long (a 300 x 60 table)."""
    return [",".join(map(_float_text, row)) for row in np.asarray(table, dtype=float).tolist()]


def grid_csv_bytes(grid) -> bytes:
    """A Husimi grid as CSV `coord_a,coord_b,weight,value`, one line per node
    in row-major order: coord_a runs over grid.axes[0] (the rows of
    grid.values) and coord_b over grid.axes[1].

    Every cell is the `_float_text` of its float64 value, as `float_rows`
    writes it, but each axis entry is formatted once and each distinct
    64-bit pattern of a weights row once per row (so -0.0 and 0.0 keep their
    own text); the values are formatted per node."""
    axis_a, axis_b = (np.asarray(ax, dtype=float).tolist() for ax in grid.axes)
    weights = np.ascontiguousarray(grid.weights, dtype=float)
    values = np.asarray(grid.values, dtype=float)
    if weights.shape != values.shape or values.shape != (len(axis_a), len(axis_b)):
        raise ValueError(f"grid of shape {values.shape} does not match its axes or weights")
    cells_b = [_float_text(b) + "," for b in axis_b]
    out = [b"coord_a,coord_b,weight,value\n"]
    # one grid row at a time: Python strings for the whole grid would take
    # several times the size of the text
    for a, w_row, v_row in zip(axis_a, weights, values):
        head = _float_text(a) + ","
        bits, inverse = np.unique(w_row.view(np.uint64), return_inverse=True)
        cells_w = [_float_text(w) + "," for w in bits.view(np.float64).tolist()]
        lines = [
            head + b + w + v
            for b, w, v in zip(cells_b, map(cells_w.__getitem__, inverse.tolist()), map(_float_text, v_row.tolist()))
        ]
        out.append(("\n".join(lines) + "\n").encode())
    return b"".join(out)


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
