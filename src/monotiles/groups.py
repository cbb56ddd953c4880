"""Computable countable groups with canonical element encodings.

Every context exposes identity, product, inverse, encoding validation, a
JSON descriptor, a generator family and (abelian kinds) rational coordinates
with their relations, so higher layers can stay group-agnostic.  Elements are
plain hashable Python values (ints, Fractions, tuples) that sort
deterministically within one context.
"""

from __future__ import annotations

import math
import operator
import reprlib
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from ._boxes import SHAPES
from ._frozen import frozen
from .errors import EncodingError, InfeasibleError, NotCosetRepsError, UnsupportedGroupError

__all__ = [
    "Certificate", "GroupContext", "Lattice", "Cyclic", "Heisenberg", "Pruefer", "Rationals", "DirectProduct",
    "FiniteSubset", "context_from_descriptor", "standard_generators", "product_set",
]


class GroupContext:
    """Base class for group implementations.

    `params` maps each descriptor key besides "kind" to its JSON type; the
    descriptor holds exactly those attributes.
    """

    kind: str = "abstract"
    params: dict = {}
    # whether every element is its own JSON value up to tuples for lists (ints and tuples of
    # them), so that the C encoder writes a cell as encode_json would: a fact of the class
    cells_are_json = False

    def identity(self):
        raise NotImplementedError

    def mul(self, g, h):
        raise NotImplementedError

    def inv(self, g):
        raise NotImplementedError

    def validate(self, g) -> None:
        """Raise EncodingError unless g is a well-formed element encoding."""
        raise NotImplementedError

    def descriptor(self) -> dict:
        return {"kind": self.kind, **{k: getattr(self, k) for k in self.params}}

    def generators(self) -> list:
        """A small canonical generating family used by defect reports."""
        raise UnsupportedGroupError(f"no generator family for {self!r}")

    def coordinates(self, g) -> list[Fraction]:
        """Rational coordinates of g in an abelian group, up to relations()."""
        raise UnsupportedGroupError(f"no abelian coordinates for group kind {self.kind!r}")

    def relations(self) -> list[list[Fraction]]:
        """Vectors spanning the coordinates of the identity (cyclic orders, Pruefer mod 1)."""
        return []

    def encode_json(self, g):
        return g

    def decode_json(self, obj):
        self.validate(obj)
        return obj

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupContext) and self.descriptor() == other.descriptor()

    def __hash__(self) -> int:
        return hash(repr(self.descriptor()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.descriptor()})"


class _IntTuples(GroupContext):
    """Shared encoding of groups whose elements are d-tuples of ints."""

    d: int
    cells_are_json = True

    def identity(self):
        return (0,) * self.d

    def validate(self, g) -> None:
        if not (isinstance(g, tuple) and len(g) == self.d and all(type(a) is int for a in g)):
            raise EncodingError(f"expected a {self.d}-tuple of ints, got " + reprlib.repr(g))

    def generators(self) -> list:
        units = [tuple(int(j == i) for j in range(self.d)) for i in range(self.d)]
        return [g for unit in units for g in (unit, self.inv(unit))]

    def encode_json(self, g):
        return list(g)

    def decode_json(self, obj):
        g = tuple(obj) if isinstance(obj, list) else obj
        self.validate(g)
        return g


class Lattice(_IntTuples):
    """Z^d with componentwise addition; elements are d-tuples of ints."""

    kind = "lattice"
    params = {"d": int}

    def __init__(self, d: int):
        if type(d) is not int or d < 1:
            raise ValueError(f"lattice rank must be a positive integer, got {d!r}")
        self.d = d

    def mul(self, g, h):
        return tuple(map(operator.add, g, h))

    def inv(self, g):
        return tuple(-a for a in g)

    def coordinates(self, g) -> list[Fraction]:
        return [Fraction(x) for x in g]


class Cyclic(GroupContext):
    """Z/nZ with elements encoded as ints in [0, n)."""

    kind = "cyclic"
    params = {"n": int}
    cells_are_json = True

    def __init__(self, n: int):
        if type(n) is not int or n < 1:
            raise ValueError(f"cyclic order must be a positive integer, got {n!r}")
        self.n = n

    def identity(self):
        return 0

    def mul(self, g, h):
        return (g + h) % self.n

    def inv(self, g):
        return (-g) % self.n

    def validate(self, g) -> None:
        if not (type(g) is int and 0 <= g < self.n):
            raise EncodingError(f"expected an int in [0, {self.n}), got " + reprlib.repr(g))

    def generators(self) -> list:
        return [1] if self.n > 1 else []

    def coordinates(self, g) -> list[Fraction]:
        return [Fraction(g)]

    def relations(self) -> list[list[Fraction]]:
        return [[Fraction(self.n)]]


class Heisenberg(_IntTuples):
    """Discrete Heisenberg group on integer triples.

    Product law: (a, b, c) * (a', b', c') = (a + a', b + b', c + c' + a * b').
    The center is the subgroup {(0, 0, c)}.
    """

    kind = "heisenberg3"
    d = 3

    def mul(self, g, h):
        return (g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[0] * h[1])

    def inv(self, g):
        a, b, c = g
        return (-a, -b, a * b - c)


class _Fractions(GroupContext):
    """Shared encoding of groups whose elements are Fractions ("p/q" in JSON)."""

    def identity(self):
        return Fraction(0)

    def coordinates(self, g) -> list[Fraction]:
        return [g]

    def encode_json(self, g):
        return str(g)

    def decode_json(self, obj):
        try:
            if type(obj) is not int and not isinstance(obj, str):
                raise ValueError
            g = Fraction(obj)
        except (ValueError, ZeroDivisionError):
            raise EncodingError("expected an int or a rational string, got " + reprlib.repr(obj)) from None
        self.validate(g)
        return g


class Pruefer(_Fractions):
    """Pruefer p-group Z[1/p]/Z; elements are reduced fractions in [0, 1)."""

    kind = "pruefer"
    params = {"p": int}

    def __init__(self, p: int):
        if type(p) is not int or p < 2:
            raise ValueError(f"pruefer parameter must be an integer >= 2, got {p!r}")
        self.p = p

    def mul(self, g, h):
        return (g + h) % 1

    def inv(self, g):
        return (-g) % 1

    def validate(self, g) -> None:
        if not isinstance(g, Fraction) or not 0 <= g < 1:
            raise EncodingError("expected a Fraction in [0, 1), got " + reprlib.repr(g))
        # den divides p**k for some k iff it divides p**bit_length(den): no prime exponent reaches it
        if pow(self.p, g.denominator.bit_length(), g.denominator):
            raise EncodingError(f"{g} has a denominator dividing no power of {self.p}")

    def generators(self) -> list:
        return [Fraction(1, self.p)]

    def relations(self) -> list[list[Fraction]]:
        return [[Fraction(1)]]


class Rationals(_Fractions):
    """(Q, +) with elements encoded as Fractions."""

    kind = "rationals"

    def mul(self, g, h):
        return g + h

    def inv(self, g):
        return -g

    def validate(self, g) -> None:
        if not isinstance(g, Fraction):
            raise EncodingError("expected a Fraction, got " + reprlib.repr(g))

    def generators(self) -> list:
        return [Fraction(1)]


class DirectProduct(GroupContext):
    """Direct product of finitely many contexts; elements are tuples."""

    kind = "direct_product"
    params = {"factors": list}

    def __init__(self, factors: Iterable[GroupContext]):
        self.factors = tuple(factors)
        if not self.factors:
            raise ValueError("direct product needs at least one factor")
        self.cells_are_json = all(f.cells_are_json for f in self.factors)

    def identity(self):
        return tuple(f.identity() for f in self.factors)

    def mul(self, g, h):
        return tuple(f.mul(a, b) for f, a, b in zip(self.factors, g, h))

    def inv(self, g):
        return tuple(f.inv(a) for f, a in zip(self.factors, g))

    def validate(self, g) -> None:
        if not (isinstance(g, tuple) and len(g) == len(self.factors)):
            raise EncodingError(f"expected a {len(self.factors)}-tuple, got " + reprlib.repr(g))
        for f, a in zip(self.factors, g):
            f.validate(a)

    def descriptor(self) -> dict:
        return {"kind": "direct_product", "factors": [f.descriptor() for f in self.factors]}

    def generators(self) -> list:
        ident = self.identity()
        return [ident[:i] + (g,) + ident[i + 1:]
                for i, f in enumerate(self.factors) for g in f.generators()]

    def coordinates(self, g) -> list[Fraction]:
        return [x for f, a in zip(self.factors, g) for x in f.coordinates(a)]

    def relations(self) -> list[list[Fraction]]:
        zero = self.coordinates(self.identity())
        out, offset = [], 0
        for f in self.factors:
            width = len(f.coordinates(f.identity()))
            out += [zero[:offset] + r + zero[offset + width:] for r in f.relations()]
            offset += width
        return out

    def encode_json(self, g):
        return [f.encode_json(a) for f, a in zip(self.factors, g)]

    def decode_json(self, obj):
        if not (isinstance(obj, list) and len(obj) == len(self.factors)):
            raise EncodingError(f"expected {len(self.factors)} components, got " + reprlib.repr(obj))
        return tuple(f.decode_json(a) for f, a in zip(self.factors, obj))


_KINDS = {cls.kind: cls for cls in (Lattice, Cyclic, Heisenberg, Pruefer, Rationals, DirectProduct)}


# How deep direct_product descriptors may nest: far below the recursion limit, so every Python version agrees.
_MAX_NESTING = 32


def context_from_descriptor(desc: dict, _nesting: int = 0) -> GroupContext:
    """Rebuild a context from its JSON descriptor, which must hold exactly the
    keys of its kind, each with its JSON type (errors quote it by reprlib.repr)."""
    if not isinstance(desc, dict):
        raise UnsupportedGroupError("group descriptor must be an object, got " + reprlib.repr(desc))
    kind = desc.get("kind")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise UnsupportedGroupError("unknown group kind " + reprlib.repr(kind))
    if desc.keys() != {"kind", *cls.params} or any(type(desc[k]) is not t for k, t in cls.params.items()):
        shape = ", ".join(f"{k}: {t.__name__}" for k, t in cls.params.items()) or "no other keys"
        raise UnsupportedGroupError(f"{kind} descriptor needs exactly ({shape}), got " + reprlib.repr(desc))
    if cls is DirectProduct:
        if _nesting == _MAX_NESTING:
            raise UnsupportedGroupError(f"direct_product descriptors nest at most {_MAX_NESTING} deep")
        return DirectProduct(context_from_descriptor(f, _nesting + 1) for f in desc["factors"])
    return cls(**{k: desc[k] for k in cls.params})


def standard_generators(ctx: GroupContext) -> list:
    """A small canonical generating family used by defect reports."""
    return ctx.generators()


@frozen
class Certificate:
    """Verdict of an exact check, with its first violation when it fails.

    `reason` names the violation and `witness` lists its counterexample;
    `detail` holds the checker's own keys (levels, counts, method).  Both
    hold JSON values only, so `to_json` and `from_json` are inverse.
    """

    ok: bool
    reason: str | None = None
    witness: list | None = None
    detail: dict | None = None

    def __post_init__(self):
        if self.detail is None:
            self.__dict__["detail"] = {}

    @staticmethod
    def fail(ctx: GroupContext, reason: str, witness, **detail) -> "Certificate":
        """A failed certificate.  Witness entries that are ints (block
        indices) stay ints, lists are encoded entry by entry, and anything
        else is a group element encoded by ctx.encode_json (an int element
        of a cyclic group encodes to itself)."""

        def encode(w):
            if isinstance(w, int):
                return w
            if isinstance(w, list):
                return [encode(x) for x in w]
            return ctx.encode_json(w)

        return Certificate(False, reason, [encode(w) for w in witness], detail)

    def to_json(self) -> dict:
        return {"ok": self.ok, "reason": self.reason, "witness": self.witness, **self.detail}

    @staticmethod
    def from_json(data: dict) -> "Certificate":
        if not (isinstance(data, dict) and {"ok", "reason", "witness"} <= data.keys()
                and type(data["ok"]) is bool and isinstance(data["reason"], (str, type(None)))
                and isinstance(data["witness"], (list, type(None)))):
            raise EncodingError("a certificate needs a bool ok, a str/null reason and a list/null witness")
        detail = {k: v for k, v in data.items() if k not in ("ok", "reason", "witness")}
        return Certificate(data["ok"], data["reason"], data["witness"], detail)


@frozen
class FiniteSubset:
    """An immutable finite subset of a group, kept in canonical order, with
    at most one shape (`_boxes`: a Box, Fibres, Subgroup or Product) whose
    closed form answers for its cells.  One made by `_from_shape` makes its
    cells on the first read of `elements`; size, membership, equality and hash
    never do."""

    ctx: GroupContext

    def __init__(self, ctx: GroupContext, elements: Iterable):
        elems = list(elements)
        for g in elems:
            ctx.validate(g)
        unique = sorted(set(elems))
        if len(unique) != len(elems):
            raise ValueError("finite subset contains duplicate elements")
        self.__dict__.update(ctx=ctx, elements=tuple(unique))

    @classmethod
    def _preset(cls, ctx: GroupContext, **entries) -> "FiniteSubset":
        """A subset of ctx holding only the given cells or shape."""
        self = object.__new__(cls)
        self.__dict__.update(ctx=ctx, **entries)
        return self

    @classmethod
    def _trusted(cls, ctx: GroupContext, elements: Iterable) -> "FiniteSubset":
        """Internal constructor for distinct, already valid elements: it only sorts them."""
        return cls._preset(ctx, elements=tuple(sorted(elements)))

    @classmethod
    def _from_shape(cls, ctx: GroupContext, shape) -> "FiniteSubset":
        """Internal constructor for the cells of a shape: nothing is sorted or searched."""
        return cls._preset(ctx, _shape=shape)

    @cached_property
    def elements(self) -> tuple:
        """The cells in canonical order, made from the shape on first read."""
        # through a list: tuple() of an iterator resizes the tuple, and each resize hands it
        # back to the youngest generation, whose next collection traverses it again
        return tuple(list(self._shape.cells()))

    def _cells(self):
        """The cells in canonical order, made afresh (and not kept) when not built."""
        return self.elements if "elements" in self.__dict__ else self._shape.cells()

    @cached_property
    def as_set(self) -> frozenset:
        return frozenset(self.elements)

    @cached_property
    def _shape(self):
        """The shape of the cells, of the class `SHAPES` gives ctx, or None:
        preset by `_from_shape`, or found by a scan of the cells."""
        form = SHAPES.get(self.ctx.kind)
        return form.of(self.elements, self.ctx) if form and self.elements else None

    def __len__(self) -> int:
        return len(self.elements) if "elements" in self.__dict__ else len(self._shape)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g) -> bool:
        """Whether g is a valid element encoding in the subset, by shape when it has one."""
        try:
            self.ctx.validate(g)
        except EncodingError:
            return False
        shape = self.__dict__.get("_shape")
        return shape.contains(g) if shape else g in self.as_set

    def __eq__(self, other) -> bool:
        """Equal groups and cells: by shape when both sides have one preset
        or found (it determines the cells), else cell by cell."""
        if not isinstance(other, FiniteSubset):
            return NotImplemented
        if (self.ctx, len(self)) != (other.ctx, len(other)):
            return False
        mine, theirs = self.__dict__.get("_shape"), other.__dict__.get("_shape")
        return mine == theirs if mine and theirs else self.elements == other.elements

    def __hash__(self) -> int:
        # never reads cells, and equal subsets have equal groups and sizes
        return hash((self.ctx, len(self)))

    def encode_json(self) -> list:
        return [self.ctx.encode_json(g) for g in self._cells()]

    def __repr__(self) -> str:
        return f"FiniteSubset({len(self)} elements of {self.ctx.kind})"


# Largest subset a builder or product_set materializes: no caller needs a
# different value, and the largest scale-ladder level holds 1,953,125 cells.
MAX_CELLS = 5_000_000


def product_set(A: FiniteSubset, *factors: FiniteSubset) -> FiniteSubset:
    """The product set A * B_1 * ... * B_k, whose products must all be distinct."""
    if any(B.ctx != A.ctx for B in factors):
        raise ValueError("product of subsets of different groups")
    if (size := len(A) * math.prod(map(len, factors))) > MAX_CELLS:
        raise InfeasibleError(f"product set would hold {size} cells, over the budget of {MAX_CELLS}")
    mul = A.ctx.mul
    products = A.elements
    for B in factors:
        products = [mul(a, b) for a in products for b in B.elements]
    if len(set(products)) != len(products):
        raise NotCosetRepsError("product set has colliding factorizations")
    return FiniteSubset._trusted(A.ctx, products)
