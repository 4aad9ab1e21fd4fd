"""Deterministic file writers: CSV with shortest round-trip floats, 16-bit
portable graymaps, and JSON with a stable key order. Byte-identical reruns
of the same configuration are a contract, so nothing here depends on dict
iteration order, locale, or wall-clock time.

Float formatting is most of the cost of the CSV writers. The Husimi grid
writer formats each axis entry once and each distinct weight of a grid row
once, since a chart repeats them at every node; only the values are
formatted per node.

`json_text` writes the JSON files and the JSON reports of `liefock algebra`,
`lattice`, `evolve` and `scenario run`; the `closure` and `oracle` reports
still print through `json.dumps` in the CLI. Its text is json.dumps's, but
each list of records in a top-level dict (the vertices and edges of a graph
export) is written through one `%` template: about three times as fast as
json.dumps on the 1.7 MB su3 N=90 flux export."""

from __future__ import annotations

import hashlib
import json
from itertools import chain

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
    """`json.dumps(payload, indent=1, sort_keys=True) + "\\n"`: the same text
    and the same exception types.

    The stdlib writes indented JSON with its pure-Python encoder, one
    generator step per token. When `payload` is a dict with str keys, each
    value that is a record list goes through `_records_text` instead, and
    every other value is json.dumps's text with one space added after each
    newline (a JSON text holds no raw newline, so that indents it one level).

    A record list is a non-empty list of dicts that all have the same
    non-empty set of str keys. Under each key the values are either all
    leaves of exact type str, int, float, bool or None, or all lists of such
    leaves of one non-zero length. Anything else (a numpy scalar, ragged keys
    or lengths, an empty nested list, a tuple) goes to json.dumps; a record
    list holds nothing json.dumps refuses and no cycle."""
    if type(payload) is not dict or not payload or not all(type(key) is str for key in payload):
        return _dumps(payload) + "\n"
    items = []
    for key in sorted(payload):
        text = _records_text(payload[key])
        items.append(_dumps(key) + ": " + (_dumps(payload[key]).replace("\n", "\n ") if text is None else text))
    return "{\n " + ",\n ".join(items) + "\n}\n"


def _dumps(value) -> str:
    return json.dumps(value, indent=1, sort_keys=True)


# With "\n" between items, the text of a list of leaves splits back into one
# text per leaf: the encoder escapes every control character in a string.
_LEAVES = json.JSONEncoder(separators=("\n", ": "))
_LEAF_TYPES = frozenset({str, int, float, bool, type(None)})


def _records_text(records):
    """The text of a record list (see `json_text`) as a value of the
    top-level dict, or None if `records` is not one. One `%` template writes
    every record; the leaves under a key come from one encoder call, and
    slot s of a nested list of length n takes texts[s::n] of them."""
    if type(records) is not list or not records or type(records[0]) is not dict or not records[0]:
        return None
    keys = records[0].keys()
    if not all(type(key) is str for key in keys) or not all(type(r) is dict and r.keys() == keys for r in records):
        return None
    slots, columns = [], []
    for key in sorted(keys):
        column = [record[key] for record in records]
        n = len(column[0]) if type(column[0]) is list else 0
        nested = n and all(type(value) is list and len(value) == n for value in column)
        if nested:
            column = list(chain.from_iterable(column))
        if not set(map(type, column)) <= _LEAF_TYPES:
            return None
        texts = _LEAVES.encode(column)[1:-1].split("\n")
        head = _dumps(key).replace("%", "%%") + ": "
        if nested:
            slots.append(head + "[\n    " + ",\n    ".join(["%s"] * n) + "\n   ]")
            columns.extend(texts[s::n] for s in range(n))
        else:
            slots.append(head + "%s")
            columns.append(texts)
    template = "{\n   " + ",\n   ".join(slots) + "\n  }"
    return "[\n  " + ",\n  ".join(map(template.__mod__, zip(*columns))) + "\n ]"


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
