"""Record classes: what almc uses of `dataclasses`, without generating code.

`@record` adds to a class each of `__init__`, `__eq__`, `__hash__`, `__repr__`
and, if frozen, `__setattr__` and `__delattr__` that it does not define, as
`dataclasses` would from its annotated fields and their defaults (a value or
a `field`).  Assigning to or deleting a field of a frozen record raises
`AttributeError`.  `slots=True` rebuilds the class with `__slots__`.
"""

from operator import attrgetter

_MISSING = object()
_set = object.__setattr__


class Field:
    def __init__(self, *, default=_MISSING, default_factory=_MISSING,
                 compare=True):
        self.default, self.default_factory = default, default_factory
        self.compare = compare


field = Field


def record(cls=None, /, *, frozen=False, slots=False):
    if cls is None:
        return lambda c: _build(c, frozen, slots)
    return _build(cls, frozen, slots)


def _bind(cls, args, kwargs):
    """The field values of `cls(*args, **kwargs)`."""
    values = list(args)
    for f in cls.__record_fields__[len(args):]:
        if f.name in kwargs:
            values.append(kwargs.pop(f.name))
        elif f.default_factory is not _MISSING:
            values.append(f.default_factory())  # a fresh one per record
        elif f.default is not _MISSING:
            values.append(f.default)
        else:
            raise TypeError(f"{cls.__qualname__}() misses field {f.name!r}")
    if kwargs or len(args) > len(cls.__record_fields__):
        raise TypeError(f"{cls.__qualname__}() takes no such arguments")
    return values


def _frozen(self, name, value=None):
    raise AttributeError(f"cannot assign to or delete field {name!r}")


def _build(cls, frozen, slots):
    own = cls.__dict__
    fields = []
    for name in own.get("__annotations__", {}):
        spec = own.get(name, _MISSING)
        f = spec if isinstance(spec, Field) else Field(default=spec)
        f.name = name
        fields.append(f)
    names = tuple(f.name for f in fields)
    if slots:
        body = {k: v for k, v in own.items()
                if k not in names + ("__dict__", "__weakref__")}
        cls = type(cls)(cls.__name__, cls.__bases__,
                        {**body, "__slots__": names})
        own = cls.__dict__
    cls.__record_fields__, cls.__record_frozen__ = tuple(fields), frozen
    compared = [f.name for f in fields if f.compare]
    get = attrgetter(*compared)
    key = (lambda self: (get(self),)) if len(compared) == 1 else get
    n = len(names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = _bind(self.__class__, args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __repr__(self):
        return f"{self.__class__.__qualname__}(" + ", ".join(
            [f"{name}={getattr(self, name)!r}" for name in names]) + ")"

    # a class that defines `__eq__` gets `__hash__ = None` from Python
    new_hash = own.get("__hash__") is None
    added = {"__init__": __init__, "__eq__": __eq__, "__repr__": __repr__}
    if frozen:
        added.update(__setattr__=_frozen, __delattr__=_frozen)
    for name, method in added.items():
        if name not in own:
            setattr(cls, name, method)
    if new_hash:
        cls.__hash__ = (lambda self: hash(key(self))) if frozen else None
    return cls


def replace(obj, /, **changes):
    """A copy of the record `obj` with the named fields changed."""
    for f in obj.__record_fields__:
        changes.setdefault(f.name, getattr(obj, f.name))
    return obj.__class__(**changes)
