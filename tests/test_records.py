"""Record classes against their `dataclasses` twins, and the start-up import
closure.

Every record class of every almc module is checked against a
`dataclasses.dataclass` built from the same fields, defaults and flags:
equal `repr`, `==` and `hash` on the same field values, frozen assignment
and deletion refused, a fresh object from each default factory, and
`replace` changing only the named fields.
"""

import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import almc
from almc import records
from almc.errors import Span
from almc.records import replace
from almc.syntax.lexer import Token

SRC = os.path.dirname(os.path.dirname(os.path.abspath(almc.__file__)))


def record_classes():
    found = []
    for info in pkgutil.walk_packages(almc.__path__, "almc."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if (isinstance(value, type) and value.__module__ == info.name
                    and "__record_fields__" in vars(value)):
                found.append(value)
    return found


CLASSES = record_classes()


def twin(cls):
    """A `dataclasses.dataclass` with the fields and flags of `cls`."""
    ns = {"__annotations__": {}, "__qualname__": cls.__qualname__}
    for f in cls.__record_fields__:
        ns["__annotations__"][f.name] = "object"
        spec = {"compare": f.compare}
        if f.default is not records._MISSING:
            spec["default"] = f.default
        if f.default_factory is not records._MISSING:
            spec["default_factory"] = f.default_factory
        ns[f.name] = dataclasses.field(**spec)
    return dataclasses.dataclass(frozen=cls.__record_frozen__)(
        type(cls.__name__, (), ns))


def values(cls, tag=1, vary=lambda f: True):
    """One hashable value per field: tagged `tag` where `vary` picks the
    field, else 1."""
    return [f"{f.name}-{tag if vary(f) else 1}" for f in cls.__record_fields__]


def test_every_record_class_is_found():
    assert len(CLASSES) == 54  # update when a record class is added
    assert len({c.__qualname__ for c in CLASSES}) == len(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)
def test_record_matches_dataclass_twin(cls):
    tw = twin(cls)
    names = [f.name for f in cls.__record_fields__]
    base = values(cls)
    same = values(cls)
    # differ only in fields left out of comparison (spans)
    uncompared = values(cls, 2, lambda f: not f.compare)
    other = values(cls, 2)
    a, ta = cls(*base), tw(*base)
    compares = [f.compare for f in cls.__record_fields__]
    assert any(compares) and (uncompared == base) is all(compares)
    for vals in (same, uncompared, other):
        b, tb = cls(*vals), tw(*vals)
        assert (a == b) is (ta == tb)
        assert (a != b) is (ta != tb)
        if cls.__record_frozen__:
            assert (hash(a) == hash(b)) is (hash(ta) == hash(tb))
    assert a != ta and a != tuple(base)
    assert (cls.__hash__ is None) is (tw.__hash__ is None)
    if cls.__record_frozen__:
        assert hash(a) == hash(ta)
    if cls.__repr__.__module__ == records.__name__:
        assert repr(a) == repr(ta)
    # keywords bind as positions do, and the same arguments are refused
    assert [getattr(cls(**dict(zip(names, base))), n) for n in names] == base
    required = [f.name for f in cls.__record_fields__
                if f.default is records._MISSING
                and f.default_factory is records._MISSING]
    for bad in ((*base, 0), base[:len(required) - 1] if required else None):
        if bad is not None:
            with pytest.raises(TypeError):
                tw(*bad)
            with pytest.raises(TypeError):
                cls(*bad)
    with pytest.raises(TypeError):
        cls(*base, no_such_field=1)
    # defaults and default factories
    x, y = cls(*base[:len(required)]), tw(*base[:len(required)])
    assert [getattr(x, n) for n in names] == [getattr(y, n) for n in names]
    for f in cls.__record_fields__:
        if f.default_factory is not records._MISSING:
            assert getattr(x, f.name) is not getattr(cls(*required), f.name)
    # frozen records refuse assignment and deletion, mutable ones take it
    for name in names:
        if cls.__record_frozen__:
            with pytest.raises(AttributeError):
                setattr(a, name, 0)
            with pytest.raises(AttributeError):
                delattr(a, name)
        else:
            setattr(a, name, "new")
            assert getattr(a, name) == "new"
    # replace changes the named field only
    for name in names:
        r = replace(a, **{name: "changed"})
        assert type(r) is cls
        assert [getattr(r, n) for n in names] == [
            "changed" if n == name else getattr(a, n) for n in names]


def test_own_methods_survive():
    assert repr(Token("ident", "x", Span(1, 2, 1, 3))) == "Token('ident', 'x')"
    assert str(Span(3, 4, 3, 5, "f.alm")) == "f.alm:3:4"
    assert Token("int", "1", Span(1, 1)) == Token("int", "1")
    assert Span(line=2) == Span(2, 0, 0, 0, "")
    assert not hasattr(Span(), "__dict__") and not hasattr(Token("a", "b"),
                                                            "__dict__")


def test_startup_imports_no_code_generation():
    """`import almc.cli` (and the modules it leads to) brings in neither
    `dataclasses` nor `inspect`."""
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import almc.cli, almc.semantics, almc.modular\n"
        "new = set(sys.modules) - before\n"
        "print(sorted({'dataclasses', 'inspect'} & new))\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
