"""A subset's shape read as one kind of closed form: `box_of` gives
(lo, hi, strides) of a `Box`, `fibres_of` the runs {(a, b): (start, lo, hi)}
of `Fibres` and `subgroup_of` the order N of the `Subgroup` {i/N}, each None
when the subset has no shape of that class.  Reading `_shape` finds the
shape from the cells, and caches it, if it was not preset."""

from monotiles._boxes import Box, Fibres, Subgroup


def box_of(F):
    shape = F._shape
    return (shape.lo, shape.hi, shape.strides) if isinstance(shape, Box) else None


def fibres_of(F):
    shape = F._shape
    return shape.runs if isinstance(shape, Fibres) else None


def subgroup_of(F):
    shape = F._shape
    return shape.n if isinstance(shape, Subgroup) else None
