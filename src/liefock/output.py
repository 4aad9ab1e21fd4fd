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
still print through `json.dumps` in the CLI. On the 1.7 MB su3 N=90 flux
export about 40% of its time is the leaves (float `repr` in the C encoder,
and the split of its text into one string per leaf), the rest grouping the
16,000 records by key tuple, filling their templates and splitting the
fills; `json.dumps` takes about three times as long."""

from __future__ import annotations

import hashlib
import json
from itertools import chain, compress, count, groupby, repeat
from operator import itemgetter

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
    """The JSON spelling of every JSON file and of the CLI's JSON reports
    but `closure` and `oracle`: `json.dumps(payload, indent=1,
    sort_keys=True) + "\\n"`, the same text and the same exception types.

    The stdlib writes indented JSON with its pure-Python encoder, one
    generator step per token. This writer goes one nesting level at a time
    instead: the leaves of a level through one call of the C encoder, the
    dicts of one key tuple and the lists of one length through one `%`
    template each, and their items as the next level. That is about three
    times as fast on the su3 N=90 flux export, where the leaves (the
    encoder's float `repr`, and splitting its text into one string per
    leaf) take about 40% of the time."""
    return _level_texts([[payload]], [()], 0, set())[0][0] + "\n"


# With "\n" between items, the text of a list of leaves splits back into one
# text per leaf: the encoder escapes every control character in a string.
_LEAVES = json.JSONEncoder(separators=("\n", ": "))
_LEAF, _DICT, _LIST = 0, 1, 2


def _leaf_texts(values: list) -> list:
    return _LEAVES.encode(values)[1:-1].split("\n") if values else []


def _kind(cls) -> int:
    """json.dumps's order of checks: lists and tuples, then dicts; the
    encoder writes or refuses everything else."""
    if issubclass(cls, (list, tuple)):
        return _LIST
    return _DICT if issubclass(cls, dict) else _LEAF


def _key_texts(keys) -> list:
    """Dict keys as json.dumps writes them: a key that is not a str is
    written as its JSON text, in quotes."""
    others = [key for key in keys if not isinstance(key, str)]
    for key in others:
        if key is not None and not isinstance(key, (int, float)):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    others = iter(_leaf_texts(others))
    return _leaf_texts([key if isinstance(key, str) else next(others) for key in keys])


def _template(heads, depth, brackets) -> str:
    """A container at nesting `depth` with one `%s` item after each head."""
    if not heads:
        return brackets
    inner = "\n" + " " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(h + "%s" for h in heads) + "\n" + " " * depth + brackets[1]


def _check_acyclic(node, path=()):
    """json.dumps's ValueError if `node` contains itself."""
    kind = _kind(type(node))
    if kind == _LEAF:
        return
    if id(node) in path:
        raise ValueError("Circular reference detected")
    for child in node.values() if kind == _DICT else node:
        _check_acyclic(child, path + (id(node),))


def _level_texts(columns, parents, depth, above) -> list:
    """The JSON texts of the items of each column (a list of values), all at
    nesting `depth`.

    The leaves of every column go through one encoder call. The containers
    of the level are grouped by shape (a dict's key tuple, a list's length),
    one template per group, and their items become the next level's
    columns: one per key of a dict group, one for all items of a list group.
    `parents[i]` are the containers that hold column i, and `above` the ids
    of the containers on the levels above that hold a container: a
    container met again lower down is checked for a cycle, which would
    otherwise add levels without end."""
    leaves, dicts, lists, layout = [], [], [], []
    for column, holders in zip(columns, parents):
        kind_of = {cls: _kind(cls) for cls in set(map(type, column))}
        if len(set(kind_of.values())) == 1:
            kinds = kind_of[type(column[0])]
            parts = [column if kind == kinds else [] for kind in (_LEAF, _DICT, _LIST)]
        else:
            kinds = list(map(kind_of.__getitem__, map(type, column)))
            parts = [list(compress(column, map(kind.__eq__, kinds))) for kind in (_LEAF, _DICT, _LIST)]
        if kinds != _LEAF:  # the column holds containers
            above.update(map(id, holders))
        layout.append((kinds, [(len(into), len(part)) for into, part in zip((leaves, dicts, lists), parts)]))
        for into, part in zip((leaves, dicts, lists), parts):
            into.extend(part)

    containers = dicts + lists
    if not above.isdisjoint(map(id, containers)):
        for node in containers:
            if id(node) in above:
                _check_acyclic(node)

    # a group is numbered by its first member; dicts come first, so a number
    # below len(dicts) is a dict group
    shapes = {}
    group = list(map(shapes.setdefault, chain(map(tuple, dicts), map(len, lists)), count()))
    batches = []  # (group, template, members, first child column, child columns, items per member)
    next_columns, next_parents = [], []
    for gid, members in groupby(sorted(range(len(group)), key=group.__getitem__), key=group.__getitem__):
        members = list(map(containers.__getitem__, members))
        if gid >= len(dicts):
            n = len(members[0])
            batches.append((gid, _template([""] * n, depth, "[]"), len(members), len(next_columns), min(n, 1), n))
            if n:
                next_columns.append(list(chain.from_iterable(members)))
                next_parents.append(members)
            continue
        # keys such as 1, 1.0 and True are equal but written differently:
        # a dict with a key that is not a str is a batch of its own
        regular = all(isinstance(key, str) for key in members[0])
        for batch in [members] if regular else [[m] for m in members]:
            keys = sorted(batch[0])
            heads = [text.replace("%", "%%") + ": " for text in _key_texts(keys)]
            batches.append((gid, _template(heads, depth, "{}"), len(batch), len(next_columns), len(keys), len(keys)))
            next_columns.extend(list(map(itemgetter(key), batch)) for key in keys)
            next_parents.extend([batch] * len(keys))

    child_texts = _level_texts(next_columns, next_parents, depth + 1, above) if next_columns else []
    group_texts = {}
    for gid, template, m, first, width, n in batches:
        columns = child_texts[first:first + width]
        child_texts[first:first + width] = [None] * width  # frees the texts once filled in
        # a dict group has one column per key; a list group has all its
        # items in one column, n to a list
        rows = zip(*columns) if width > 1 else zip(*[iter(columns[0])] * n) if n else repeat((), m)
        group_texts.setdefault(gid, []).extend(map(template.__mod__, rows))
    readers = {gid: iter(texts) for gid, texts in group_texts.items()}
    container_readers = list(map(readers.__getitem__, group))
    leaf_texts = _leaf_texts(leaves)

    out = []
    for kinds, ((leaf_at, n_leaves), (dict_at, n_dicts), (list_at, n_lists)) in layout:
        texts = (
            leaf_texts[leaf_at:leaf_at + n_leaves],
            list(map(next, container_readers[dict_at:dict_at + n_dicts])),
            list(map(next, container_readers[len(dicts) + list_at:len(dicts) + list_at + n_lists])),
        )
        if isinstance(kinds, int):
            out.append(texts[kinds])
        else:
            parts = list(map(iter, texts))
            out.append(list(map(next, map(parts.__getitem__, kinds))))
    return out


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
