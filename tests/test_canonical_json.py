"""`write_json` streams canonical JSON in pieces through the C encoder.

Its bytes must equal `json.dumps(data, sort_keys=True, separators=(",", ":"))`
plus a newline, the one-shot encoding the artifacts were always pinned to.
The writer differs from `json.dumps` on one point, on purpose: an object key
that is not a `str` raises `TypeError` instead of being turned into a string.
"""

import json
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from monotiles import build_lattice_ladder
from monotiles.pipeline import DEFAULT_CONFIG, PipelineConfig, run_pipeline, write_json
from test_tiling import PROPERTY

# around the 1,024-item slice length, and several slices with a ragged end
SIZES = (0, 1, 1023, 1024, 1025, 3001)

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=2 ** 64, max_value=2 ** 200), st.integers(max_value=-2 ** 64),
    st.floats(), st.text(),
    st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é", "☃", "\U0001F600", "\ud800", "</script>"]),
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=12,
)
CELLS = st.lists(st.integers(), min_size=1, max_size=3)


def _cycled(n, pool, as_tuple):
    items = [pool[i % len(pool)] for i in range(n)]
    return tuple(items) if as_tuple else items


# lists of the sizes above, their items drawn from a small pool of values
SIZED = st.builds(_cycled, st.sampled_from(SIZES), st.lists(JSON, min_size=1, max_size=4), st.booleans())
# like a ladder's levels: a first level of one cell, later levels of thousands
LEVELS = st.builds(lambda cell, sizes: [[cell]] + [[cell] * n for n in sizes],
                   CELLS, st.lists(st.sampled_from(SIZES[3:]), min_size=1, max_size=3))
DATA = st.one_of(
    JSON, SIZED, LEVELS,
    st.dictionaries(st.text(max_size=3), st.one_of(JSON, SIZED, LEVELS), max_size=3),
    st.lists(st.one_of(SIZED, LEVELS), max_size=3),
)


def canonical(data) -> bytes:
    return (json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n").encode()


def written(data) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.json"
        write_json(data, path)
        return path.read_bytes()


@PROPERTY
@given(DATA)
def test_write_json_is_byte_identical_to_json_dumps(data):
    assert written(data) == canonical(data)


@pytest.mark.parametrize("n", SIZES)
def test_write_json_list_sizes(n):
    cells = [[i] for i in range(n)]
    for data in (cells, list(range(n)), tuple(range(n)), {"levels": [[[0]], cells]}):
        assert written(data) == canonical(data)


@PROPERTY
@given(st.dictionaries(st.one_of(st.integers(), st.floats(allow_nan=False), st.booleans(), st.none()),
                       JSON, min_size=1, max_size=3),
       st.sampled_from([lambda d: d, lambda d: [d], lambda d: {"a": [0, d]}]))
def test_write_json_rejects_non_str_keys(data, wrap):
    with pytest.raises(TypeError):
        written(wrap(data))


def test_non_str_key_is_an_error_not_a_converted_key():
    assert json.dumps({1: 2}, sort_keys=True, separators=(",", ":")) == '{"1":2}'
    with pytest.raises(TypeError, match="keys must be str, not int"):
        written({1: 2})


def test_sliced_artifacts_are_canonical(tmp_path):
    # ternary Z to depth 7: the top level has 2,187 cells, so the ladder's
    # levels go through the slicing path, which the default config never takes
    config = PipelineConfig.from_json({**DEFAULT_CONFIG, "ladder": {"route": "lattice", "depth": 7, "base": 3}})
    assert run_pipeline(config, tmp_path).ok
    for name in config.artifacts.values():
        raw = (tmp_path / name).read_bytes()
        assert raw == canonical(json.loads(raw)), name
    assert max(len(level) for level in json.loads((tmp_path / "ladder.json").read_bytes())["levels"]) == 2187


def test_write_json_peak_memory_is_well_below_the_file(tmp_path):
    data = build_lattice_ladder(1, 7, 5).to_json()
    path = tmp_path / "ladder.json"
    tracemalloc.start()
    try:
        write_json(data, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    # one encode call over the whole of "levels" peaks at about 3.6 times the file
    assert peak < size / 3, (peak, size)
    assert path.read_bytes() == canonical(data)
