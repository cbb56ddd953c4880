"""`_frozen.frozen` adds the methods `dataclass(frozen=True)` adds, and
importing the package loads neither `dataclasses` nor the inspect, ast and
dis modules it pulls in.  The oracle is `dataclasses` itself, on twin
classes with the same body."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import monotiles
from monotiles._frozen import FrozenInstanceError, frozen
from test_tiling import PROPERTY


def twins():
    """The same class made by `dataclass(frozen=True)` and by `frozen`."""
    def body():
        class Point:
            x: int
            y: object = None
            z: tuple = ()

            def __post_init__(self):
                if self.x < 0:
                    raise ValueError("negative x")
        return Point
    return dataclasses.dataclass(frozen=True)(body()), frozen(body())


CALLS = [((1,), {}), ((1, 2), {}), ((1, [2], (3,)), {}), ((), {"x": 4, "z": (5,)}), ((1,), {"y": 2}),
         ((), {}), ((1, 2, 3, 4), {}), ((1,), {"x": 1}), ((), {"y": 2}), ((1,), {"w": 0}), ((-1,), {})]


def made(cls, args, kwargs):
    """(the value, None) or (None, the exception type) of cls(*args, **kwargs)."""
    try:
        return cls(*args, **kwargs), None
    except Exception as e:  # both constructors must fail alike, whatever the type
        return None, type(e)


def test_construction_repr_and_frozenness_match_dataclasses():
    oracle, cls = twins()
    assert (cls.y, cls.z, hasattr(cls, "x")) == (oracle.y, oracle.z, hasattr(oracle, "x"))
    for args, kwargs in CALLS:
        (want, want_error), (got, error) = made(oracle, args, kwargs), made(cls, args, kwargs)
        assert error is want_error, (args, kwargs)
        if got is None:
            continue
        assert repr(got) == repr(want) and vars(got) == vars(want)
        for act in (lambda p: setattr(p, "x", 9), lambda p: setattr(p, "new", 9), lambda p: delattr(p, "y")):
            with pytest.raises(AttributeError):
                act(want)
            with pytest.raises(FrozenInstanceError):
                act(got)
        assert vars(got) == vars(want)


@PROPERTY
@given(st.lists(st.tuples(st.integers(0, 2), st.sampled_from([None, 0, 1, (), [1]])), min_size=2, max_size=2))
def test_equality_and_hash_match_dataclasses(pairs):
    oracle, cls = twins()
    (a, b), (c, d) = [oracle(*p) for p in pairs], [cls(*p) for p in pairs]
    assert (c == d, c != d, c == c, c == pairs[0]) == (a == b, a != b, a == a, a == pairs[0])
    # hash of the fields, so unhashable fields fail alike
    assert made(hash, (c,), {})[1] is made(hash, (a,), {})[1]
    if made(hash, (a,), {})[1] is None:
        assert hash(c) == hash(a)


def test_an_explicit_eq_and_hash_are_kept():
    @frozen
    class Named:
        name: str

        def __eq__(self, other):
            return isinstance(other, Named) and self.name.lower() == other.name.lower()

        def __hash__(self):
            return hash(self.name.lower())

    assert Named("A") == Named("a") and hash(Named("A")) == hash(Named("a"))


def test_an_eq_alone_gets_the_field_hash_as_with_dataclasses():
    def body():
        class Named:
            name: str

            def __eq__(self, other):
                return isinstance(other, Named) and self.name.lower() == other.name.lower()
        return Named
    oracle, cls = dataclasses.dataclass(frozen=True)(body()), frozen(body())
    assert cls("A") == cls("a") and hash(cls("A")) == hash(oracle("A")) == hash(("A",))


def test_importing_the_package_loads_no_dataclasses():
    env = {**os.environ, "PYTHONPATH": str(Path(monotiles.__file__).parents[1])}
    probe = ("import json, sys, monotiles, monotiles.cli\n"
             "print(json.dumps(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules))))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env,
                          timeout=60, check=True)
    assert json.loads(proc.stdout) == []
