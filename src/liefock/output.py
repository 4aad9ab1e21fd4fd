"""Deterministic file writers: CSV with shortest round-trip floats, 16-bit
portable graymaps, and JSON with a stable key order. Byte-identical reruns
of the same configuration are a contract, so nothing here depends on dict
iteration order, locale, or wall-clock time.

Float formatting is most of the cost of the writers. The Husimi grid writer
formats each axis entry once and each distinct weight of the grid once,
since a chart repeats them at every node; only the values are formatted per
node, and each line is joined from its cells in C, so `float.__repr__` of
the values is about four fifths of its time.

Every JSON text is `json.dumps(payload, indent=1, sort_keys=True)` plus a
newline (`json_text`). The one large one, a graph export, is never built as
a payload: `records_text` writes a list of records from its columns (the
arrays of a graph), formatting each distinct float and each distinct string
once, through one `%` template, into the same text."""

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


def float_texts(values) -> list:
    """The `_float_text` of each entry of a float array, row-major, as a CSV
    cell writes it; each distinct 64-bit pattern is formatted once."""
    return _by_pattern(values, lambda distinct: list(map(_float_text, distinct)))


def _by_pattern(values, texts_of):
    """texts_of(distinct values) picked per entry of a float array, row-major:
    the distinct values are the distinct 64-bit patterns, so -0.0 and 0.0
    keep their own text."""
    flat = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    bits, inverse = np.unique(flat.view(np.uint64), return_inverse=True)
    texts = texts_of(bits.view(np.float64).tolist())
    return list(map(texts.__getitem__, inverse.tolist()))


def grid_csv_bytes(grid) -> bytes:
    """A Husimi grid as CSV `coord_a,coord_b,weight,value`, one line per node
    in row-major order: coord_a runs over grid.axes[0] (the rows of
    grid.values) and coord_b over grid.axes[1].

    Every cell is the `_float_text` of its float64 value, as `float_rows`
    writes it, but each axis entry is formatted once and each distinct
    64-bit pattern of the weights once per grid (so -0.0 and 0.0 keep their
    own text); the values are formatted per node, one grid row at a time,
    and each line is joined from its four cells in C."""
    axis_a, axis_b = (np.asarray(ax, dtype=float).tolist() for ax in grid.axes)
    weights = np.asarray(grid.weights, dtype=float)
    values = np.asarray(grid.values, dtype=float)
    n_b = len(axis_b)
    if weights.shape != values.shape or values.shape != (len(axis_a), n_b):
        raise ValueError(f"grid of shape {values.shape} does not match its axes or weights")
    cells_b = [_float_text(b) + "," for b in axis_b]
    cells_w = _by_pattern(weights, lambda distinct: [_float_text(w) + "," for w in distinct])
    out = [b"coord_a,coord_b,weight,value\n"]
    # one grid row at a time: the value texts of the whole grid would take
    # about as much memory as the text itself
    for i, (a, v_row) in enumerate(zip(axis_a, values)):
        row_w = cells_w[i * n_b : (i + 1) * n_b]
        cells = zip([_float_text(a) + ","] * n_b, cells_b, row_w, map(_float_text, v_row.tolist()))
        out.append(("\n".join(map("".join, cells)) + "\n").encode())
    return b"".join(out)


def json_text(payload) -> str:
    """The JSON text of the reports, manifests and other small payloads."""
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


# With "\n" between items, the text of a list of values splits back into one
# text per value: the encoder escapes every control character in a string.
_ITEMS = json.JSONEncoder(separators=("\n", ": "))


def _json_texts(values) -> list:
    """json.dumps's text of each of a list of str, None or float values."""
    return _ITEMS.encode(values)[1:-1].split("\n")


def records_text(columns) -> str:
    """The text that `json_text` writes for a list of records, as the value of
    a top-level key: record r is {key: columns[key][r]}, keys sorted.

    A column is a 1-D int or float array, a list of str or None, or a 2-D
    float array whose rows are nested lists (of width 0 too). One `%`
    template writes every record; each distinct float pattern and each
    distinct string of a column is formatted once, ints by `%s` itself."""
    lengths = {len(column) for column in columns.values()}
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal lengths {sorted(lengths)}")
    if lengths <= {0}:
        return "[]"
    slots, cells = [], []
    for key in sorted(columns):
        column = columns[key]
        if type(column) is list:
            distinct = list(dict.fromkeys(column))
            text_of = dict(zip(distinct, _json_texts(distinct)))
            texts = list(map(text_of.__getitem__, column))
        elif column.dtype.kind in "iu":
            texts = column.tolist()
        else:
            texts = _by_pattern(column, _json_texts)
        head = json.dumps(key).replace("%", "%%") + ": "
        if type(column) is list or column.ndim == 1:
            slots.append(head + "%s")
            cells.append(texts)
        else:
            n = column.shape[1]
            slots.append(head + ("[\n    " + ",\n    ".join(["%s"] * n) + "\n   ]" if n else "[]"))
            cells.extend(texts[s::n] for s in range(n))
    template = "{\n   " + ",\n   ".join(slots) + "\n  }"
    return "[\n  " + ",\n  ".join(map(template.__mod__, zip(*cells))) + "\n ]"


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


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
