"""Frozen value classes over annotated fields, made without `dataclasses`:
importing it pulls in inspect, ast and dis, and it compiles each generated
method from source, together about 1 MB of the peak RSS of every process
that imports this package."""


class FrozenInstanceError(AttributeError):
    """A field of a frozen value was set or deleted."""


def frozen(cls):
    """cls with the methods that `dataclass(frozen=True)` adds for its
    annotated fields and cls does not define: `__init__` (fields by position
    or name, class attributes as defaults, then `__post_init__` if defined),
    `__repr__`, `__eq__` (same class, equal fields) and `__hash__`.  Setting
    or deleting an attribute raises FrozenInstanceError, so constructors
    fill `__dict__`."""
    names = tuple(getattr(cls, "__annotations__", ()))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}

    def __init__(self, *args, **kwargs):
        given = {**defaults, **dict(zip(names, args)), **kwargs}
        if len(args) > len(names) or given.keys() != set(names) or set(names[:len(args)]) & kwargs.keys():
            raise TypeError(f"{cls.__name__}() takes each of the fields {', '.join(names)} once")
        self.__dict__.update((n, given[n]) for n in names)
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def fields(self) -> tuple:
        return tuple(self.__dict__[n] for n in names)

    def refuse(self, name, *value):
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    methods = {"__init__": __init__, "__repr__": lambda self: f"{type(self).__qualname__}("
               + ", ".join(f"{n}={v!r}" for n, v in zip(names, fields(self))) + ")",
               "__eq__": lambda self, other: (fields(self) == fields(other) if other.__class__ is self.__class__
                                              else NotImplemented),
               "__hash__": lambda self: hash(fields(self))}
    for name, method in methods.items():
        if cls.__dict__.get(name) is None:  # defining `__eq__` alone leaves `__hash__ = None`
            setattr(cls, name, method)
    cls.__setattr__ = cls.__delattr__ = refuse
    return cls
