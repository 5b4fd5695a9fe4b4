"""Action theories: statement normalization, classification, and checks.

Surface axioms are normalized into four statement kinds over a signature:

* dynamic causal laws (`DynLaw`),
* state constraints (`Constraint`, head `None` meaning `false`),
* clauses of definitions of defined functions (`DefClause`),
* executability conditions (`Exec`).

Literal normalization turns every function atom into the value form
``f(args) = v`` / ``f(args) != v`` (`FunLit`).  Boolean shorthand ``p(t)`` and
``-p(t)`` become ``p(t) = true`` / ``p(t) = false``; order comparisons with a
function on one side are split into ``f(args) = V, V < t`` with a fresh
variable, so that downstream code only ever sees equality-shaped function
literals plus pre-interpreted comparisons (`CmpLit`).

Atoms may contain at most one user-defined function symbol; parameterised
object constants (e.g. ``top(E)``) do not count as function symbols.

The standard companion axioms are appended here: for every basic fluent `f`
the constraint ``dom_f(X..) if f(X..) = Y``, for every other function the same
clause as a definition of ``dom_f``, and for every `total` function the
constraint ``false if dom_f(X..) = false``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from almc.errors import DiagnosticSink, Span
from almc.ontology import (
    ACTIONS, BASIC_FLUENT, FALSE, HIERARCHY_FUNCS, TRUE,
    FuncInfo, Signature, dom_name,
)
from almc.syntax import ast

#: arities of the special hierarchy statics
HIERARCHY_ARITY = {"link": 2, "is_a": 2, "instance": 2, "subsort": 2,
                   "has_child": 1, "has_parent": 1, "source": 1, "sink": 1}

_FLIP = {"=": "!=", "!=": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


@dataclass(frozen=True)
class FunLit:
    """``func(args) op value`` where func is a user or hierarchy function."""

    func: str
    args: tuple[ast.Term, ...]
    op: str  # '=' | '!='
    value: ast.Term
    span: Span = field(compare=False, default=Span())

    @property
    def positive(self) -> bool:
        return self.op == "="


@dataclass(frozen=True)
class CmpLit:
    """Comparison between two pre-interpreted terms."""

    op: str  # '=', '!=', '<', '<=', '>', '>='
    lhs: ast.Term
    rhs: ast.Term
    span: Span = field(compare=False, default=Span())


@dataclass(frozen=True)
class OccLit:
    neg: bool
    action: ast.Term
    span: Span = field(compare=False, default=Span())


BodyLit = Union[FunLit, CmpLit, OccLit]


@dataclass(frozen=True)
class DynLaw:
    act: ast.Term
    sort: str
    head: FunLit
    body: tuple[BodyLit, ...]
    span: Span = field(compare=False, default=Span())


@dataclass(frozen=True)
class Constraint:
    head: Optional[FunLit]  # None encodes the `false` head
    body: tuple[BodyLit, ...]
    span: Span = field(compare=False, default=Span())


@dataclass(frozen=True)
class DefClause:
    head: FunLit  # positive boolean atom of a defined function
    body: tuple[BodyLit, ...]
    span: Span = field(compare=False, default=Span())


@dataclass(frozen=True)
class Exec:
    act: ast.Term
    sort: str
    body: tuple[BodyLit, ...]
    span: Span = field(compare=False, default=Span())


@dataclass
class ActionTheory:
    sig: Signature
    dynamic: list[DynLaw]
    constraints: list[Constraint]
    definitions: list[DefClause]
    executability: list[Exec]


# ------------------------------------------------------------------ terms

def term_vars(t: ast.Term) -> set[str]:
    if isinstance(t, ast.Var):
        return {t.name}
    if isinstance(t, ast.App):
        out: set[str] = set()
        for a in t.args:
            out |= term_vars(a)
        return out
    if isinstance(t, ast.Arith):
        return term_vars(t.left) | term_vars(t.right)
    return set()


def lit_vars(lit: BodyLit) -> set[str]:
    if isinstance(lit, FunLit):
        out = term_vars(lit.value)
        for a in lit.args:
            out |= term_vars(a)
        return out
    if isinstance(lit, CmpLit):
        return term_vars(lit.lhs) | term_vars(lit.rhs)
    return term_vars(lit.action)


class _Normalizer:
    def __init__(self, sig: Signature, sink: DiagnosticSink):
        self.sig = sig
        self.sink = sink
        self.fresh_count = 0
        self.extra: list[CmpLit] = []  # spill from comparison splitting

    # A term is pre-interpreted if it mentions no user-defined function
    # symbol; parameterised object constants are allowed.
    def check_pre_term(self, t: ast.Term, span: Span) -> None:
        if isinstance(t, ast.App):
            if t.name in self.sig.functions or t.name in HIERARCHY_FUNCS:
                self.sink.error(
                    f"nested function symbol {t.name!r}: atoms may contain at "
                    "most one function symbol; name the inner value with a "
                    "variable", span)
                return
            if t.name not in self.sig.objects:
                self.sink.error(f"unknown symbol {t.name!r}", span)
            for a in t.args:
                self.check_pre_term(a, span)
        elif isinstance(t, ast.Arith):
            self.check_pre_term(t.left, span)
            self.check_pre_term(t.right, span)

    def _fresh_var(self) -> ast.Var:
        self.fresh_count += 1
        return ast.Var(f"V_cmp{self.fresh_count}")

    def _func_of(self, t: ast.Term) -> Optional[str]:
        """User/hierarchy function symbol at the root of `t`, if any."""
        if isinstance(t, ast.App):
            if t.name in self.sig.functions or t.name in HIERARCHY_FUNCS:
                return t.name
        if isinstance(t, ast.Sym):
            info = self.sig.functions.get(t.name)
            if info is not None and info.arity == 0:
                return t.name
        return None

    def _as_funlit(self, t: ast.Term, op: str, value: ast.Term,
                   span: Span) -> FunLit:
        name = self._func_of(t)
        assert name is not None
        args = t.args if isinstance(t, ast.App) else ()
        if name in HIERARCHY_FUNCS:
            want = HIERARCHY_ARITY[name]
            if len(args) != want:
                self.sink.error(f"{name} takes {want} argument(s)", span)
        else:
            info = self.sig.functions[name]
            if len(args) != info.arity:
                self.sink.error(
                    f"{name} takes {info.arity} argument(s), got {len(args)}",
                    span)
        for a in args:
            self.check_pre_term(a, span)
        self.check_pre_term(value, span)
        return FunLit(name, tuple(args), op, value, span=span)

    def normalize(self, lit: ast.Lit) -> Optional[BodyLit]:
        span = lit.span
        if lit.op is None:
            # Boolean shorthand: p(t..) / -p(t..).
            name = self._func_of(lit.lhs)
            if isinstance(lit.lhs, ast.Sym) and lit.lhs.name in (TRUE, FALSE):
                # `true` / `-false` literal; normalize to a trivial comparison.
                truth = (lit.lhs.name == TRUE) != lit.neg
                one = ast.Num(1)
                return CmpLit("=" if truth else "!=", one, one, span=span)
            if name is None:
                self.sink.error(
                    "expected a boolean function atom here", span)
                return None
            if name not in HIERARCHY_FUNCS:
                info = self.sig.functions[name]
                if not info.is_boolean:
                    self.sink.error(
                        f"{name!r} is not boolean; write {name}(...) = value",
                        span)
                    return None
            value = ast.Sym(FALSE) if lit.neg else ast.Sym(TRUE)
            return self._as_funlit(lit.lhs, "=", value, span)

        op = _FLIP[lit.op] if lit.neg else lit.op
        lf = self._func_of(lit.lhs)
        rf = self._func_of(lit.rhs) if lit.rhs is not None else None
        if lf is not None and rf is not None:
            self.sink.error(
                "atom mentions two function symbols "
                f"({lf!r} and {rf!r}); name one value with a variable and "
                "constrain it separately", span)
            return None
        if lf is None and rf is None:
            self.check_pre_term(lit.lhs, span)
            self.check_pre_term(lit.rhs, span)
            return CmpLit(op, lit.lhs, lit.rhs, span=span)
        fterm, other = (lit.lhs, lit.rhs) if lf is not None else (lit.rhs, lit.lhs)
        if lf is None:
            # keep comparison orientation when the function is on the right
            op = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}.get(op, op)
        if op in ("=", "!="):
            return self._as_funlit(fterm, op, other, span)
        # f(args) < t  ~~>  f(args) = V, V < t
        v = self._fresh_var()
        self.extra.append(CmpLit(op, v, other, span=span))
        return self._as_funlit(fterm, "=", v, span)

    def body(self, items, allow_occurs: bool) -> tuple[BodyLit, ...]:
        out: list[BodyLit] = []
        for item in items:
            if isinstance(item, ast.OccursLit):
                if not allow_occurs:
                    self.sink.error(
                        "occurs(...) may only appear in executability "
                        "conditions", item.span)
                    continue
                out.append(OccLit(item.neg, item.action, span=item.span))
                continue
            self.extra = []
            norm = self.normalize(item)
            if norm is not None:
                out.append(norm)
            out.extend(self.extra)
        return tuple(out)

    def head(self, lit: ast.Lit, *, context: str) -> Optional[FunLit]:
        self.extra = []
        norm = self.normalize(lit)
        if norm is None:
            return None
        if self.extra or not isinstance(norm, FunLit):
            self.sink.error(f"{context} head must be a function atom",
                            lit.span)
            return None
        if norm.func in HIERARCHY_FUNCS:
            self.sink.error(
                f"{context} head may not use the special function "
                f"{norm.func!r}", lit.span)
            return None
        if norm.op != "=":
            self.sink.error(f"{context} head may not use !=", lit.span)
            return None
        return norm


def _has_fluent_lit(body, sig: Signature) -> bool:
    return any(isinstance(b, FunLit) and b.func in sig.functions
               and sig.functions[b.func].is_fluent for b in body)


def _std_vars(info: FuncInfo) -> tuple[ast.Term, ...]:
    return tuple(ast.Var(f"X{i}") for i in range(info.arity))


def standard_axioms(sig: Signature) -> tuple[list[Constraint], list[DefClause]]:
    """Domain-companion axioms and totality constraints."""
    constraints: list[Constraint] = []
    clauses: list[DefClause] = []
    for f in sig.functions.values():
        if f.dom_of is not None or f.arity == 0:
            continue
        xs = _std_vars(f)
        y = ast.Var("Y")
        head = FunLit(dom_name(f.name), xs, "=", ast.Sym(TRUE))
        body: tuple[BodyLit, ...] = (FunLit(f.name, xs, "=", y),)
        if f.kind == BASIC_FLUENT:
            constraints.append(Constraint(head, body))
        else:
            clauses.append(DefClause(head, body))
        if f.total:
            undef = FunLit(dom_name(f.name), xs, "=", ast.Sym(FALSE))
            constraints.append(Constraint(None, (undef,)))
    return constraints, clauses


def build_action_theory(module: ast.Module, sig: Signature,
                        sink: DiagnosticSink) -> ActionTheory:
    """Normalize and classify the axioms of a flattened module."""
    norm = _Normalizer(sig, sink)
    theory = ActionTheory(sig, [], [], [], [])

    for stmt in module.axioms:
        if isinstance(stmt, ast.DynamicLaw):
            _check_action_sort(stmt.sort, sig, stmt.span, sink)
            head = norm.head(stmt.head, context="dynamic causal law")
            body = norm.body(stmt.body, allow_occurs=False)
            if head is None:
                continue
            info = sig.functions.get(head.func)
            if info is None or info.kind != BASIC_FLUENT:
                sink.error("a dynamic causal law may only set a basic fluent",
                           stmt.span)
                continue
            if info.dom_of is not None and _is_true(head.value):
                sink.error(
                    f"a dynamic causal law may not make {head.func} true; "
                    f"set a value for {info.dom_of} instead", stmt.span)
                continue
            theory.dynamic.append(DynLaw(stmt.act, stmt.sort, head, body,
                                         span=stmt.span))
        elif isinstance(stmt, ast.Executability):
            _check_action_sort(stmt.sort, sig, stmt.span, sink)
            body = norm.body(stmt.body, allow_occurs=True)
            theory.executability.append(Exec(stmt.act, stmt.sort, body,
                                             span=stmt.span))
        else:  # ast.Rule
            body = norm.body(stmt.body, allow_occurs=False)
            if stmt.head is None:
                theory.constraints.append(Constraint(None, body,
                                                     span=stmt.span))
                continue
            head = norm.head(stmt.head, context="rule")
            if head is None:
                continue
            info = sig.functions[head.func]
            if info.is_defined:
                if not _is_true(head.value):
                    sink.error(
                        f"{head.func!r} is a defined function; its clauses "
                        "must have positive heads", stmt.span)
                    continue
                if not info.is_fluent and _has_fluent_lit(body, sig):
                    sink.error(
                        f"definition of static {head.func!r} may not depend "
                        "on fluents", stmt.span)
                    continue
                theory.definitions.append(DefClause(head, body,
                                                    span=stmt.span))
            else:
                if not info.is_fluent and _has_fluent_lit(body, sig):
                    sink.warning(
                        f"state constraint fixes static {head.func!r} from a "
                        "fluent condition; it will be checked, not derived",
                        stmt.span)
                theory.constraints.append(Constraint(head, body,
                                                     span=stmt.span))

    extra_constraints, extra_clauses = standard_axioms(sig)
    theory.constraints.extend(extra_constraints)
    theory.definitions.extend(extra_clauses)
    sink.raise_if_errors()
    return theory


def _is_true(t: ast.Term) -> bool:
    return isinstance(t, ast.Sym) and t.name == TRUE


def _check_action_sort(sort: str, sig: Signature, span: Span,
                       sink: DiagnosticSink) -> None:
    if sort != ACTIONS and not (sig.is_node(sort)
                                and sig.is_subsort(sort, ACTIONS)):
        sink.error(f"{sort!r} is not the actions sort or a subsort of it",
                   span)
