"""AST node definitions.

Nodes are frozen records (`almc.records`): hashable, compared field by field
in the same class.  Every node keeps its source span, and spans are excluded
from equality and hashing so that a parse/print round trip compares equal
structurally.
"""

from __future__ import annotations

from almc.records import field, record
from typing import Optional, Union

from almc.errors import Span

NOSPAN = Span()


def _span_field():
    return field(compare=False, default=NOSPAN)


# ---------------------------------------------------------------- terms

@record(frozen=True)
class Var:
    name: str
    span: Span = _span_field()


@record(frozen=True)
class Sym:
    """Identifier constant: object constant, sort name, or true/false."""

    name: str
    span: Span = _span_field()


@record(frozen=True)
class Num:
    value: int
    span: Span = _span_field()


@record(frozen=True)
class App:
    """Function application f(t1, ..., tn); also parameterised constants."""

    name: str
    args: tuple["Term", ...]
    span: Span = _span_field()


@record(frozen=True)
class Arith:
    op: str  # + - * mod
    left: "Term"
    right: "Term"
    span: Span = _span_field()


Term = Union[Var, Sym, Num, App, Arith]


# ---------------------------------------------------------------- literals

@record(frozen=True)
class Lit:
    """`[-] lhs [op rhs]`; op None is the boolean shorthand form."""

    neg: bool
    lhs: Term
    op: Optional[str] = None  # '=', '!=', '<', '<=', '>', '>='
    rhs: Optional[Term] = None
    span: Span = _span_field()


@record(frozen=True)
class OccursLit:
    neg: bool
    action: Term
    span: Span = _span_field()


BodyItem = Union[Lit, OccursLit]


# ---------------------------------------------------------------- axioms

@record(frozen=True)
class DynamicLaw:
    act: Term
    head: Lit
    sort: str  # guard: instance(act, sort)
    body: tuple[BodyItem, ...]
    span: Span = _span_field()


@record(frozen=True)
class Executability:
    act: Term
    sort: str
    body: tuple[BodyItem, ...]
    span: Span = _span_field()


@record(frozen=True)
class Rule:
    """State constraint, definition clause, or fact; head None means `false`."""

    head: Optional[Lit]
    body: tuple[Lit, ...]
    span: Span = _span_field()


Statement = Union[DynamicLaw, Executability, Rule]


# ---------------------------------------------------------------- declarations

@record(frozen=True)
class RangeSort:
    """Integer range sort [lo..hi]; bounds are ints or identifier references."""

    lo: Union[int, str]
    hi: Union[int, str]
    span: Span = _span_field()

    @property
    def name(self) -> str:
        return f"[{self.lo}..{self.hi}]"


SortName = Union[str, RangeSort]


@record(frozen=True)
class AttrDecl:
    name: str
    args: tuple[SortName, ...]  # extra args; the owning sort is implicit
    result: SortName
    span: Span = _span_field()


@record(frozen=True)
class SortDecl:
    names: tuple[str, ...]
    parents: tuple[SortName, ...]
    attrs: tuple[AttrDecl, ...] = ()
    span: Span = _span_field()


@record(frozen=True)
class ConstDecl:
    """Object constant declaration: name(param sorts)* : sort, ..., sort."""

    consts: tuple[tuple[str, tuple[SortName, ...]], ...]
    sorts: tuple[SortName, ...]
    span: Span = _span_field()


@record(frozen=True)
class FuncDecl:
    name: str
    args: tuple[SortName, ...]
    result: SortName
    total: bool
    cat: str  # 'static' | 'fluent'
    basic: bool
    span: Span = _span_field()


@record(frozen=True)
class Module:
    name: str
    depends_on: tuple[str, ...]
    sorts: tuple[SortDecl, ...]
    constants: tuple[ConstDecl, ...]
    functions: tuple[FuncDecl, ...]
    axioms: tuple[Statement, ...]
    span: Span = _span_field()


@record(frozen=True)
class ImportDirective:
    """`import [theory] t from lib`, `import [module] m from lib`, `import t.m from lib`."""

    kind: str  # 'theory' | 'module'
    theory: Optional[str]
    module: Optional[str]
    library: str
    span: Span = _span_field()


@record(frozen=True)
class Theory:
    name: str
    items: tuple[Union[Module, ImportDirective], ...]
    span: Span = _span_field()


# ---------------------------------------------------------------- structure

@record(frozen=True)
class ConstAssign:
    name: str
    value: Term
    span: Span = _span_field()


@record(frozen=True)
class AttrAssign:
    name: str
    args: tuple[Term, ...]
    value: Term
    span: Span = _span_field()


@record(frozen=True)
class InstanceDef:
    objects: tuple[Term, ...]
    sorts: tuple[str, ...]
    where: tuple[Lit, ...]
    attrs: tuple[AttrAssign, ...]
    span: Span = _span_field()


@record(frozen=True)
class StaticAssign:
    lit: Lit
    body: tuple[Lit, ...]
    span: Span = _span_field()


@record(frozen=True)
class Structure:
    name: str
    constants: tuple[ConstAssign, ...]
    instances: tuple[InstanceDef, ...]
    statics: tuple[StaticAssign, ...]
    span: Span = _span_field()


@record(frozen=True)
class System:
    name: str
    theory: Union[Theory, ImportDirective]
    structure: Structure
    span: Span = _span_field()
