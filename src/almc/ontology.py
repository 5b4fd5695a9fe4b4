"""Sorted signatures: the sort hierarchy, function tables, and object constants.

A signature is built from a single (already flattened) module.  It owns every
name-level coherence check: the hierarchy must be a DAG rooted in `universe`,
declarations may be repeated only consistently, reserved names may not be
taken, and every sort mentioned in a declaration must itself be declared.

Functions fall into five kinds: basic/defined statics, basic/defined fluents,
and attributes (attributes are statics whose first argument is the owning
sort).  For every declared function of positive arity a companion domain
function `dom_<f>` is injected; it is a basic fluent when `f` is a basic
fluent, a defined fluent when `f` is a defined fluent, and a defined static
otherwise.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

from almc.errors import DiagnosticSink, Span
from almc.lpcore import cyclic_components
from almc.records import field, record
from almc.syntax import ast

UNIVERSE = "universe"
ACTIONS = "actions"
BOOLEANS = "booleans"
TRUE = "true"
FALSE = "false"

#: Special statics describing the hierarchy; interpreted natively, never
#: redeclarable by the user.
HIERARCHY_FUNCS = frozenset(
    ["link", "is_a", "instance", "subsort", "has_child", "has_parent",
     "source", "sink"])

RESERVED_NAMES = HIERARCHY_FUNCS | {
    UNIVERSE, ACTIONS, BOOLEANS, TRUE, FALSE, "occurs", "dom",
}

#: Pre-interpreted unbounded numeric sorts.  They may appear in declarations
#: (library modules use them) but cannot be grounded; executable refinements
#: replace them with bounded ranges.
NUMERIC_SORTS = frozenset(
    ["natural_numbers", "positive_natural_numbers", "integers"])

DOM_PREFIX = "dom_"

BASIC_FLUENT = "basic fluent"
DEFINED_FLUENT = "defined fluent"
BASIC_STATIC = "basic static"
DEFINED_STATIC = "defined static"
ATTRIBUTE = "attribute"


def dom_name(fname: str) -> str:
    return DOM_PREFIX + fname


@record(frozen=True)
class FuncInfo:
    name: str
    args: tuple[str, ...]  # sort keys
    result: str  # sort key
    kind: str  # one of the five kind constants
    total: bool = False
    dom_of: Optional[str] = None  # set on injected dom_<f> functions
    span: Span = field(compare=False, default=Span())

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def is_fluent(self) -> bool:
        return self.kind in (BASIC_FLUENT, DEFINED_FLUENT)

    @property
    def is_defined(self) -> bool:
        return self.kind in (DEFINED_FLUENT, DEFINED_STATIC)

    @property
    def is_boolean(self) -> bool:
        return self.result == BOOLEANS


@record(frozen=True)
class ObjectInfo:
    """A module-level object constant, possibly parameterised.

    `top(elevations) : points` yields params=('elevations',), sorts=('points',).
    """

    name: str
    params: tuple[str, ...]
    sorts: tuple[str, ...]
    span: Span = field(compare=False, default=Span())


@record
class Signature:
    #: sort node -> tuple of parent nodes (hierarchy links, child -> parent)
    sorts: dict[str, tuple[str, ...]]
    functions: dict[str, FuncInfo]
    objects: dict[str, ObjectInfo]
    #: range-sort key "[lo..hi]" -> declaration (bounds may be constant names)
    ranges: dict[str, ast.RangeSort]

    # -------------------------------------------------------- hierarchy

    def is_node(self, name: str) -> bool:
        return name in self.sorts

    def parents(self, node: str) -> tuple[str, ...]:
        return self.sorts[node]

    def ancestors(self, node: str) -> set[str]:
        """All nodes reachable by following links upward, excluding `node`."""
        seen: set[str] = set()
        stack = list(self.sorts[node])
        while stack:
            p = stack.pop()
            if p not in seen:
                seen.add(p)
                stack.extend(self.sorts[p])
        return seen

    @cached_property
    def children(self) -> dict[str, list[str]]:
        """Each node's children, built once: the sorts are final."""
        kids: dict[str, list[str]] = {n: [] for n in self.sorts}
        for child, ps in self.sorts.items():
            for p in ps:
                kids[p].append(child)
        return kids

    def descendants(self, node: str) -> set[str]:
        kids = self.children
        seen: set[str] = set()
        stack = list(kids[node])
        while stack:
            c = stack.pop()
            if c not in seen:
                seen.add(c)
                stack.extend(kids[c])
        return seen

    def source_nodes(self) -> list[str]:
        """Nodes with no children, in declaration order."""
        return [n for n, kids in self.children.items() if not kids]

    def is_subsort(self, sub: str, sup: str) -> bool:
        return sub == sup or sup in self.ancestors(sub)


def _check_fresh(name: str, kind: str, taken: dict[str, str],
                 span: Span, sink: DiagnosticSink) -> None:
    if name in RESERVED_NAMES or name.startswith(DOM_PREFIX):
        sink.error(f"{kind} name {name!r} is reserved", span)
    elif name in taken and taken[name] != kind:
        sink.error(f"{name!r} already declared as a {taken[name]}", span)
    else:
        taken.setdefault(name, kind)


def build_signature(module: ast.Module, sink: DiagnosticSink) -> Signature:
    """Build and check the signature of a flattened module.

    Accumulates problems in `sink`; raises via `sink.raise_if_errors()` at the
    end so that several independent mistakes are reported in one run.
    """
    sorts: dict[str, tuple[str, ...]] = {UNIVERSE: (), ACTIONS: (UNIVERSE,)}
    ranges: dict[str, ast.RangeSort] = {}
    taken: dict[str, str] = {}  # name -> "sort" | "function" | "object"

    def note_sortname(s: ast.SortName) -> str:
        if isinstance(s, ast.RangeSort):
            ranges.setdefault(s.name, s)
            return s.name
        return s

    # Pass 1: collect sort nodes so forward references between declarations
    # work regardless of order.
    pending_links: list[tuple[str, ast.SortName, Span]] = []
    for decl in module.sorts:
        for name in decl.names:
            _check_fresh(name, "sort", taken, decl.span, sink)
            sorts.setdefault(name, ())
            for parent in decl.parents:
                pending_links.append((name, parent, decl.span))

    for child, parent, span in pending_links:
        pkey = note_sortname(parent)
        if pkey in ranges:
            sink.error(f"a range sort cannot be a parent ({pkey})", span)
            continue
        if pkey == BOOLEANS:
            sink.error("booleans is pre-interpreted and cannot have subsorts", span)
            continue
        if pkey not in sorts:
            sink.error(f"unknown parent sort {pkey!r}", span)
            continue
        if pkey not in sorts[child]:
            sorts[child] = sorts[child] + (pkey,)

    # One error per cycle of links, naming the first sort of its component
    # that the search enters.
    names = list(sorts)
    ids = {s: i for i, s in enumerate(names)}
    for component in cyclic_components(
            [[ids[p] for p in sorts[s]] for s in names]):
        sink.error(f"sort hierarchy has a cycle through "
                   f"{names[component[-1]]!r}", module.span)

    sig = Signature(sorts=sorts, functions={}, objects={}, ranges=ranges)

    def check_value_sort(key: str, what: str, span: Span) -> None:
        if key == BOOLEANS or key in NUMERIC_SORTS or key in ranges \
                or key in sorts:
            return
        sink.error(f"unknown sort {key!r} in {what}", span)

    def add_function(info: FuncInfo) -> None:
        prev = sig.functions.get(info.name)
        if prev is not None:
            if (prev.args[1:], prev.result, prev.kind, prev.total) == \
               (info.args[1:], info.result, info.kind, info.total) \
               and prev.kind == ATTRIBUTE and prev.args[0] != info.args[0]:
                # The same attribute declared on two sorts: widen the owner
                # argument to their nearest common ancestor.  Axioms narrow
                # back down with explicit instance(...) guards.
                a, b = prev.args[0], info.args[0]
                common = ({a} | sig.ancestors(a)) & ({b} | sig.ancestors(b))
                if not common:  # a failed link, an error in the sink
                    return
                owner = max(sorted(common),
                            key=lambda c: len(sig.ancestors(c) & common))
                sig.functions[info.name] = FuncInfo(
                    info.name, (owner,) + info.args[1:], info.result,
                    ATTRIBUTE, span=prev.span)
                return
            if (prev.args, prev.result, prev.kind, prev.total) != \
               (info.args, info.result, info.kind, info.total):
                sink.error(
                    f"function {info.name!r} redeclared with a different "
                    f"signature (was {prev.kind} "
                    f"{', '.join(prev.args)} -> {prev.result})", info.span)
            return
        _check_fresh(info.name, "function", taken, info.span, sink)
        sig.functions[info.name] = info

    # Attributes: prepend the owning sort as the first argument.
    for decl in module.sorts:
        for attr in decl.attrs:
            for owner in decl.names:
                args = (owner,) + tuple(note_sortname(a) for a in attr.args)
                result = note_sortname(attr.result)
                for key in args[1:]:
                    check_value_sort(key, f"attribute {attr.name!r}", attr.span)
                check_value_sort(result, f"attribute {attr.name!r}", attr.span)
                add_function(FuncInfo(attr.name, args, result, ATTRIBUTE,
                                      span=attr.span))

    for decl in module.functions:
        args = tuple(note_sortname(a) for a in decl.args)
        result = note_sortname(decl.result)
        for key in args:
            check_value_sort(key, f"function {decl.name!r}", decl.span)
        check_value_sort(result, f"function {decl.name!r}", decl.span)
        if decl.basic:
            kind = BASIC_FLUENT if decl.cat == "fluent" else BASIC_STATIC
        else:
            kind = DEFINED_FLUENT if decl.cat == "fluent" else DEFINED_STATIC
        if not decl.basic and result != BOOLEANS:
            sink.error(f"defined function {decl.name!r} must be boolean",
                       decl.span)
        if not decl.basic and decl.total:
            sink.error(f"defined function {decl.name!r} is total by "
                       "definition; drop the total marker", decl.span)
        if decl.total and not args:
            sink.error(f"total marker on 0-ary function {decl.name!r} has no "
                       "effect; declare a value instead", decl.span)
        add_function(FuncInfo(decl.name, args, result, kind,
                              total=decl.total and decl.basic and bool(args),
                              span=decl.span))

    # Companion domain functions.
    for f in list(sig.functions.values()):
        if not f.args:
            continue
        if f.kind == BASIC_FLUENT:
            dkind = BASIC_FLUENT
        elif f.kind == DEFINED_FLUENT:
            dkind = DEFINED_FLUENT
        else:
            dkind = DEFINED_STATIC
        sig.functions[dom_name(f.name)] = FuncInfo(
            dom_name(f.name), f.args, BOOLEANS, dkind, dom_of=f.name,
            span=f.span)

    # Object constants.
    for decl in module.constants:
        target_sorts = tuple(note_sortname(s) for s in decl.sorts)
        for key in target_sorts:
            if key not in sorts and key not in ranges:
                sink.error(f"unknown sort {key!r} in object constant "
                           "declaration", decl.span)
        for name, params in decl.consts:
            pkeys = tuple(note_sortname(p) for p in params)
            for key in pkeys:
                check_value_sort(key, f"object constant {name!r}", decl.span)
            prev = sig.objects.get(name)
            if prev is not None:
                if prev.params != pkeys:
                    sink.error(f"object constant {name!r} redeclared with "
                               "different parameters", decl.span)
                else:
                    merged = prev.sorts + tuple(
                        s for s in target_sorts if s not in prev.sorts)
                    sig.objects[name] = ObjectInfo(name, pkeys, merged,
                                                   span=prev.span)
                continue
            _check_fresh(name, "object", taken, decl.span, sink)
            sig.objects[name] = ObjectInfo(name, pkeys, target_sorts,
                                           span=decl.span)

    sink.raise_if_errors()
    return sig
