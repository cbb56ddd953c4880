"""Canonical JSON text of the artifacts, written in pieces through the C
encoder, with no Python object per cell where a subset's form allows
(`pieces`): a box or fibred window (`_boxes`) from its row ranges, a Pruefer
subgroup {i/N} from N, and the cells of a context whose cells are their own
JSON (`cells_are_json`) without encode_json.  A parsed level that is
exactly the text of the candidate shape its rows suggest is read back into
that shape."""

from __future__ import annotations

import json
from functools import cache
from itertools import repeat
from math import gcd
from pathlib import Path

from ._boxes import SHAPES, Subgroup
from .groups import FiniteSubset

_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode  # the C encoder
_SLICE = 1024  # items per encode call of a long list: small pieces, few calls
_PIECE = 4096  # cells per piece of a subset's text


def encoded(value):
    """An artifact layout as plain JSON: each FiniteSubset in its dicts and
    lists replaced by its encode_json() and each bytes by its list of ints."""
    if isinstance(value, dict):
        return {k: encoded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return list(map(encoded, value))
    if isinstance(value, bytes):
        return list(value)
    return value.encode_json() if isinstance(value, FiniteSubset) else value


@cache
def _tails() -> tuple:  # made on first use, so a process that writes no run pays nothing at import
    tails = [f"{r:02d}" for r in range(100)]
    return tails, tails[::-1]


def _numbers(run: range, sep: str) -> str:
    """sep.join(map(str, run)) for a run of consecutive ints: each block of a
    hundred numbers that share their leading digits q is q and the joined slice
    of the table of last two digits `_tails` (reversed, with -q, below 0), and
    |x| < 100 goes by map(str)."""
    (tails, reverse), out, s, b = _tails(), [], run.start, run.stop
    while s < b:
        if s <= -100:
            q = -s // 100
            e, head = min(b, 1 - 100 * q), "-" + str(q)
            out.append(head + (sep + head).join(reverse[s + 100 * q + 99:e + 100 * q + 99]))
        elif s < 100:
            e = min(b, 100)
            out.append(sep.join(map(str, range(s, e))))
        else:
            q = s // 100
            e, head = min(b, 100 * q + 100), str(q)
            out.append(head + (sep + head).join(tails[s - 100 * q:e - 100 * q]))
        s = e
    return sep.join(out)


def pieces(F: FiniteSubset):
    """(n, text): pieces of n <= _PIECE cells whose texts, joined by commas,
    are `_ENCODE(F.encode_json())` without its brackets.  A shape with rows
    (x, run) writes each run from its range and a Pruefer subgroup each i/N
    from i and N, so no cell is made; any other subset goes through the C
    encoder, by encode_json unless its cells are their own JSON."""
    shape = F._shape
    if type(shape) is Subgroup:
        n = shape.n
        for s in range(0, n, _PIECE):
            part = range(s, min(n, s + _PIECE))
            yield len(part), '"' + '","'.join([f"{i // g}/{n // g}" if i else "0"
                                               for i, g in zip(part, map(gcd, part, repeat(n)))]) + '"'
        return
    if shape is None:
        cells, ctx = F.elements, F.ctx
        for s in range(0, len(cells), _PIECE):
            part = cells[s:s + _PIECE]
            yield len(part), _ENCODE(part if ctx.cells_are_json else list(map(ctx.encode_json, part)))[1:-1]
        return
    for x, run in shape.rows():
        head = "[" + "".join(f"{a:d}," for a in x)  # :d, so a float plane point read back is no match
        for part in (run[i:i + _PIECE] for i in range(0, len(run), _PIECE)):
            yield len(part), head + _numbers(part, "]," + head) + "]"


def is_text_of(F: FiniteSubset, rows) -> bool:
    """Whether the parsed JSON rows have exactly the canonical text of
    `F.encode_json()`, compared piece by piece (so `true` or `1.0` is not 1)."""
    if not isinstance(rows, list):
        return False
    i = 0
    for n, text in pieces(F):
        if _ENCODE(rows[i:i + n])[1:-1] != text:
            return False
        i += n
    return i == len(rows)


def from_rows(ctx, rows: list) -> FiniteSubset:
    """The subset that the parsed JSON list rows encodes: the candidate that
    ctx's shape class (`SHAPES`) infers from the rows, cells unmade, when rows
    is exactly its text; else (rows of another shape or type raise on the way)
    through the validating constructor."""
    try:
        shape = (cls := SHAPES.get(ctx.kind)) and cls.from_rows(ctx, rows)
        if shape and is_text_of(F := FiniteSubset._from_shape(ctx, shape), rows):
            return F
    except (ArithmeticError, TypeError, ValueError, LookupError):
        pass
    return FiniteSubset(ctx, map(ctx.decode_json, rows))


def _write_canonical(value, write) -> None:
    """Canonical JSON in pieces: dicts key by key, a FiniteSubset in its
    `pieces`, bytes (block symbols, as a list of ints) and lists longer than
    _SLICE in slices of _SLICE, lists of subsets or bytes and shorter lists
    that hold a container item by item, and anything else in one C-encoder
    call.  Keys must be str."""
    if isinstance(value, dict):
        for i, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            write(("," if i else "{") + _ENCODE(key) + ":")
            _write_canonical(value[key], write)
        write("}" if value else "{}")
    elif isinstance(value, FiniteSubset):
        for i, (_, text) in enumerate(pieces(value)):
            write(("," if i else "[") + text)
        write("]" if len(value) else "[]")
    elif isinstance(value, bytes) or isinstance(value, (list, tuple)) and len(value) > _SLICE \
            and not isinstance(value[0], (FiniteSubset, bytes)):
        for i in range(0, len(value), _SLICE):
            write(("," if i else "[") + _ENCODE(list(value[i:i + _SLICE]))[1:-1])
        write("]" if value else "[]")
    elif isinstance(value, (list, tuple)) and any(isinstance(v, (dict, list, tuple, bytes, FiniteSubset))
                                                  for v in value):
        for i, item in enumerate(value):
            write("," if i else "[")
            _write_canonical(item, write)
        write("]")
    else:
        write(_ENCODE(value))


def write_json(data, path: Path) -> None:
    """The bytes of json.dumps(encoded(data), sort_keys=True, separators=(",", ":"))
    and a newline, streamed so that no whole artifact is held as one string
    and no level with a row form makes its cells."""
    with open(path, "w") as fh:
        _write_canonical(data, fh.write)
        fh.write("\n")
