"""Module system and structures.

Three jobs live here:

* resolving `import` directives against library search paths and flattening a
  theory's module hierarchy into a single module (union of declarations and
  axioms, dependencies first, duplicates removed).  A library's theory may
  itself import from libraries; each library is resolved once, a module
  reached by two import paths is kept once, and an import that leads back
  to a library still being resolved is reported as a circular import;
* expanding a structure into a concrete object universe (plain instances,
  parameterised instance schemas with `where` clauses, and parameterised
  object constants declared in modules);
* enumerating the candidate pre-models of a system: one per placement of
  objects into source nodes of the sort hierarchy, with the structure's
  attribute values.  The semantics layer derives the other static values
  (`semantics.system_pre_models`).
"""

from __future__ import annotations

import os
from almc.records import field, record
from itertools import product
from typing import Iterator, Optional, Union

from almc.errors import DiagnosticSink, InputError, SemanticError, Span
from almc.ontology import (
    BOOLEANS, FALSE, NUMERIC_SORTS, TRUE, ObjectInfo, Signature,
)
from almc.bat import ActionTheory, Constraint, FunLit
from almc.syntax import ast, parse_file
from almc.syntax.printer import term_str

LIBRARY_PATH_VAR = "ALM_LIBRARY_PATH"
MAX_PLACEMENTS = 1_000_000

#: Ground values are object names (str), integers, or "true"/"false".
Value = Union[str, int]


# ================================================================ libraries

def read_input(path: str) -> str:
    """Text of a source file; a file that cannot be read is an input error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError:
        raise InputError(f"cannot read {path}: not UTF-8 text")


@record
class Library:
    """Parsed library file: its theory, and the theory's modules with
    imports expanded once it is resolved."""

    name: str
    theory: ast.Theory
    modules: Optional[list[ast.Module]] = None


def library_search_paths(extra: tuple[str, ...] = ()) -> list[str]:
    paths = list(extra)
    env = os.environ.get(LIBRARY_PATH_VAR, "")
    paths.extend(p for p in env.split(os.pathsep) if p)
    return paths or ["."]


def load_library(name: str, search_paths: list[str],
                 cache: Optional[dict[str, Library]] = None) -> Library:
    if cache is not None and name in cache:
        return cache[name]
    for d in search_paths:
        path = os.path.join(d, name + ".alm")
        if os.path.exists(path):
            node = parse_file(read_input(path), path)
            theory = node.theory if isinstance(node, ast.System) else node
            if not isinstance(theory, ast.Theory):
                raise InputError(f"library {path} does not contain a theory")
            lib = Library(name, theory)
            if cache is not None:
                cache[name] = lib
            return lib
    raise InputError(
        f"library {name!r} not found on search path "
        f"({os.pathsep.join(search_paths)})")


def resolve_theory(theory: ast.Theory, search_paths: list[str],
                   sink: DiagnosticSink,
                   cache: Optional[dict[str, Library]] = None,
                   _active: frozenset[str] = frozenset()) -> list[ast.Module]:
    """All modules of `theory` with imports expanded, dependency-safe order.

    A module whose name is already taken is skipped.  Each library is
    resolved once per `cache`; `_active` holds the libraries still being
    resolved, so importing from one of them is a cycle.
    """
    cache = cache if cache is not None else {}
    modules: dict[str, ast.Module] = {}
    for item in theory.items:
        found = [item] if isinstance(item, ast.Module) else \
            _resolve_import(item, search_paths, sink, cache, _active)
        for m in found:
            modules.setdefault(m.name, m)
    return list(modules.values())


def _resolve_import(item: ast.ImportDirective, search_paths: list[str],
                    sink: DiagnosticSink, cache: dict[str, Library],
                    active: frozenset[str]) -> list[ast.Module]:
    lib = load_library(item.library, search_paths, cache)
    if item.kind == "theory" and item.theory != lib.theory.name:
        sink.error(f"library {item.library!r} has no theory "
                   f"{item.theory!r}", item.span)
        return []
    if lib.name in active:
        sink.error(f"circular import of {item.library}", item.span)
        return []
    if lib.modules is None:
        lib.modules = resolve_theory(lib.theory, search_paths, sink, cache,
                                     active | {lib.name})
    if item.kind == "theory":
        return lib.modules
    by_name = {m.name: m for m in lib.modules}
    if item.module not in by_name:
        sink.error(f"module {item.module!r} not found in library "
                   f"{item.library!r}", item.span)
        return []
    # faults in the library's `depends on` are reported when the importing
    # theory is flattened
    return dependency_order([by_name[item.module]], by_name, DiagnosticSink())


def dependency_order(roots: list[ast.Module], by_name: dict[str, ast.Module],
                     sink: DiagnosticSink) -> list[ast.Module]:
    """`roots` and the modules of `by_name` they depend on, each module
    after its dependencies.  An unknown dependency and a dependency cycle
    are reported at the module that names them."""
    order: dict[str, ast.Module] = {}
    active: set[str] = set()

    def visit(mod: ast.Module) -> None:
        if mod.name in order:
            return
        if mod.name in active:
            sink.error(f"module dependency cycle through {mod.name!r}",
                       mod.span)
            return
        active.add(mod.name)
        for dep in mod.depends_on:
            if dep in by_name:
                visit(by_name[dep])
            else:
                sink.error(f"module {mod.name!r} depends on unknown module "
                           f"{dep!r}", mod.span)
        active.remove(mod.name)
        order[mod.name] = mod

    for mod in roots:
        visit(mod)
    return list(order.values())


def flatten(modules: list[ast.Module], name: str,
            sink: DiagnosticSink) -> ast.Module:
    """Union of the given modules as one dependency-free module.

    Each module's declarations and axioms follow those of the modules it
    depends on; duplicates are kept once.
    """
    ordered = dependency_order(modules, {m.name: m for m in modules}, sink)

    def union(part: str) -> tuple:
        return tuple(dict.fromkeys(x for m in ordered
                                   for x in getattr(m, part)))

    return ast.Module(name=name, depends_on=(), sorts=union("sorts"),
                      constants=union("constants"),
                      functions=union("functions"), axioms=union("axioms"))


def flatten_system(node: Union[ast.System, ast.Theory],
                   search_paths: list[str],
                   sink: DiagnosticSink) -> ast.Module:
    """The modules of a system description's theory, or of a bare theory,
    imports expanded, flattened into one."""
    theory = node.theory if isinstance(node, ast.System) else node
    if isinstance(theory, ast.ImportDirective):
        theory = ast.Theory(theory.theory or theory.module, (theory,),
                            span=theory.span)
    modules = resolve_theory(theory, search_paths, sink)
    sink.raise_if_errors()
    if not modules:
        raise SemanticError(f"theory {theory.name!r} declares no modules",
                            theory.span)
    flat = flatten(modules, theory.name, sink)
    sink.raise_if_errors()
    return flat


# ================================================================ pre-models

def range_values(sig: Signature, consts: dict[str, Value], key: str) -> range:
    """The integers of range sort `key`, its bounds read from `consts`."""
    def bound(b: Union[int, str]) -> int:
        v = b if isinstance(b, int) else consts.get(b)
        if not isinstance(v, int):
            raise SemanticError(
                f"range bound {b!r} is not a structure integer constant")
        return v

    r = sig.ranges[key]
    return range(bound(r.lo), bound(r.hi) + 1)


def object_key(name: str, args: tuple[Value, ...] = ()) -> str:
    """The key of a ground object: its name, or a parameterised instance
    written out with its arguments."""
    if not args:
        return name
    return f"{name}({', '.join(map(str, args))})"


_BOOLEAN_VALUES = (TRUE, FALSE)


@record
class PreModel:
    sig: Signature
    consts: dict[str, Value]
    universe: list[str]  # object keys, deterministic order
    #: direct membership in source nodes: object -> frozenset of sorts
    is_a: dict[str, frozenset[str]]
    #: full membership: sort -> tuple of objects (instance closure), in
    #: universe order
    members: dict[str, tuple[str, ...]]
    #: (func name, ground args) -> value, for statics and attributes
    statics: dict[tuple[str, tuple[Value, ...]], Value]
    #: declared links object -> declared sorts (for reporting)
    declared: dict[str, tuple[str, ...]]
    #: the same closure by object: object -> every node it is an instance of
    nodes: dict[str, frozenset[str]]

    def sort_values(self, key: str, span: Span = Span()) -> tuple[Value, ...]:
        """Ground values of a sort key: node members, booleans, or a range,
        as a tuple that a node shares with every caller.  An unbounded
        numeric sort is an error located at `span`."""
        if key == BOOLEANS:
            return _BOOLEAN_VALUES
        if key in NUMERIC_SORTS:
            raise SemanticError(
                f"the numeric sort {key!r} is unbounded and cannot be "
                "grounded; use a range sort instead", span)
        if key in self.sig.ranges:
            return tuple(self.range_values(key))
        return self.members.get(key, ())

    def range_values(self, key: str) -> range:
        return range_values(self.sig, self.consts, key)

    def is_instance(self, obj: Value, sort: str) -> bool:
        if sort == BOOLEANS:
            return obj in (TRUE, FALSE)
        if sort in NUMERIC_SORTS:
            return isinstance(obj, int) and \
                (obj >= 1 if sort == "positive_natural_numbers"
                 else obj >= 0 if sort == "natural_numbers" else True)
        if sort in self.sig.ranges:
            return isinstance(obj, int) and obj in self.range_values(sort)
        return sort in self.nodes.get(obj, ())

    def static_value(self, func: str, args: tuple[Value, ...]) -> Optional[Value]:
        return self.statics.get((func, args))

    def holds_is_a(self, obj: Value, sort: str) -> bool:
        """`is_a(obj, sort)`: the object is placed in the sort or declared
        in it."""
        return sort in self.is_a.get(obj, frozenset()) \
            or sort in self.declared.get(obj, ())


# -------------------------------------------------- term / literal evaluation

class UndefinedArithmetic(SemanticError):
    """Arithmetic without a value (`mod` by zero).  A grounder drops the
    ground instance, as gringo does; elsewhere it is a semantic error."""


def eval_ground_term(t: ast.Term, consts: dict[str, Value],
                     env: Optional[dict[str, Value]] = None) -> Value:
    """Evaluate a pre-interpreted term to a ground value."""
    if isinstance(t, ast.Var):
        if env is None or t.name not in env:
            raise SemanticError(f"unbound variable {t.name}", t.span)
        return env[t.name]
    if isinstance(t, ast.Sym):
        return consts.get(t.name, t.name)
    if isinstance(t, ast.Num):
        return t.value
    if isinstance(t, ast.Arith):
        lv = eval_ground_term(t.left, consts, env)
        rv = eval_ground_term(t.right, consts, env)
        if not isinstance(lv, int) or not isinstance(rv, int):
            raise SemanticError("arithmetic over non-integers", t.span)
        if t.op == "+":
            return lv + rv
        if t.op == "-":
            return lv - rv
        if t.op == "*":
            return lv * rv
        if t.op == "mod":
            if rv == 0:
                raise UndefinedArithmetic(f"{lv} mod 0 is undefined", t.span)
            return lv % rv
        raise SemanticError(f"unknown operator {t.op}", t.span)
    if isinstance(t, ast.App):
        args = tuple([eval_ground_term(a, consts, env) for a in t.args])
        return object_key(t.name, args)
    raise SemanticError(f"cannot evaluate term {t!r}")


def compare(op: str, lv: Value, rv: Value, span: Span = Span()) -> bool:
    if op == "=":
        return lv == rv
    if op == "!=":
        return lv != rv
    if not isinstance(lv, int) or not isinstance(rv, int):
        raise SemanticError(f"order comparison {op} over non-integers "
                            f"({lv!r}, {rv!r})", span)
    return {"<": lv < rv, "<=": lv <= rv,
            ">": lv > rv, ">=": lv >= rv}[op]


# -------------------------------------------------- universe construction

@record
class _Universe:
    #: object key -> declared sorts, in the order the objects are made
    declared: dict[str, list[str]] = field(default_factory=dict)
    #: object key -> attribute assignments (func, extra args) -> value
    attrs: list[tuple[str, str, tuple[Value, ...], Value]] = \
        field(default_factory=list)

    def add(self, key: str, sorts: list[str]) -> None:
        have = self.declared.setdefault(key, [])
        for s in sorts:
            if s not in have:
                have.append(s)


def _declared_members(uni: _Universe, sig: Signature, sort: str,
                      consts: dict[str, Value]) -> list[Value]:
    """Objects declared (directly or via subsorts) in `sort` so far."""
    if sort == BOOLEANS:
        return [TRUE, FALSE]
    if sort in sig.ranges:
        return list(range_values(sig, consts, sort))
    below = {sort} | sig.descendants(sort)
    return [key for key, sorts in uni.declared.items()
            if any(s in below for s in sorts)]


def build_universe(sig: Signature, structure: ast.Structure,
                   sink: DiagnosticSink) -> tuple[_Universe, dict[str, Value]]:
    consts: dict[str, Value] = {}
    for c in structure.constants:
        try:
            consts[c.name] = eval_ground_term(c.value, consts)
        except SemanticError as e:
            sink.error(e.message, c.span)

    uni = _Universe()

    def check_sorts(sorts, span) -> list[str]:
        out = []
        for s in sorts:
            if not sig.is_node(s):
                sink.error(f"unknown sort {s!r} in instance declaration", span)
            else:
                out.append(s)
        return out

    plain_defs = []
    schema_defs = []
    for idef in structure.instances:
        plain = [o for o in idef.objects if not isinstance(o, ast.App)]
        if not plain:
            schema_defs.append(idef)
        elif len(plain) == len(idef.objects):
            plain_defs.append(idef)
        else:
            # a schema's attributes and where clause would not bind them
            sink.error(f"instance {term_str(plain[0])} cannot share a line "
                       "with parameterised objects", plain[0].span)

    # Plain structure instances and module object constants first.
    for idef in plain_defs:
        sorts = check_sorts(idef.sorts, idef.span)
        for o in idef.objects:
            if not isinstance(o, ast.Sym):
                sink.error("instance name must be an identifier", idef.span)
                continue
            uni.add(o.name, sorts)
            for a in idef.attrs:
                _add_attr(uni, sig, o.name, a, consts, {}, sink)

    for oinfo in sig.objects.values():
        if not oinfo.params:
            uni.add(oinfo.name, check_sorts(oinfo.sorts, oinfo.span))

    # Parameterised module constants and instance schemas, to fixpoint.
    pending: list[tuple[str, object]] = \
        [("const", o) for o in sig.objects.values() if o.params] + \
        [("schema", d) for d in schema_defs]
    for _round in range(20):
        changed = False
        for kind, item in pending:
            if kind == "const":
                oinfo = item
                assert isinstance(oinfo, ObjectInfo)
                domains = [_declared_members(uni, sig, p, consts)
                           for p in oinfo.params]
                for combo in product(*domains):
                    key = object_key(oinfo.name, tuple(combo))
                    if key not in uni.declared:
                        uni.add(key, check_sorts(oinfo.sorts, oinfo.span))
                        changed = True
            else:
                changed |= _expand_schema(uni, sig, item, consts, sink)
        if not changed:
            break
        if len(uni.declared) > 100000:
            sink.error("instance expansion exceeds 100000 objects",
                       structure.span)
            break
    else:
        sink.error("instance expansion did not reach a fixpoint",
                   structure.span)

    sink.raise_if_errors()
    return uni, consts


def _schema_var_sorts(idef: ast.InstanceDef, sig: Signature,
                      sink: DiagnosticSink) -> dict[str, str]:
    """Infer a sort for each schema parameter variable.

    Sources: attribute assignments whose value is the variable (the
    attribute's result sort) and `instance(X, s)` literals in the where
    clause; a negated one is refused, as no sort's complement is computed.
    """
    out: dict[str, str] = {}

    def note(var: str, sort: str, span: Span) -> None:
        prev = out.get(var)
        if prev is None or prev == sort:
            out[var] = sort
            return
        # keep the more specific of two comparable sorts
        if sig.is_node(prev) and sig.is_node(sort):
            if sort in sig.descendants(prev):
                out[var] = sort
                return
            if prev in sig.descendants(sort):
                return
        sink.error(f"parameter {var} constrained to both {prev!r} "
                   f"and {sort!r}", span)

    for a in idef.attrs:
        info = sig.functions.get(a.name)
        if info is None:
            continue
        if isinstance(a.value, ast.Var):
            note(a.value.name, info.result, a.span)
        for pos, arg in enumerate(a.args, start=1):
            if isinstance(arg, ast.Var) and pos < len(info.args):
                note(arg.name, info.args[pos], a.span)
    for w in idef.where:
        if w.neg and w.op is None and isinstance(w.lhs, ast.App) \
                and w.lhs.name == "instance":
            raise SemanticError("a negated instance(...) literal is not "
                                "supported in a where clause", w.span)
        if (isinstance(w.lhs, ast.App) and w.lhs.name == "instance"
                and w.op is None and len(w.lhs.args) == 2
                and isinstance(w.lhs.args[0], ast.Var)
                and isinstance(w.lhs.args[1], ast.Sym)):
            note(w.lhs.args[0].name, w.lhs.args[1].name, w.span)
    return out


def _expand_schema(uni: _Universe, sig: Signature, idef: ast.InstanceDef,
                   consts: dict[str, Value], sink: DiagnosticSink) -> bool:
    sorts = [s for s in idef.sorts if sig.is_node(s)]
    var_sorts = _schema_var_sorts(idef, sig, sink)
    changed = False
    for o in idef.objects:
        if not isinstance(o, ast.App):
            continue
        # parameter positions may mix variables and ground terms,
        # e.g. carry(box, P)
        params: list[str] = []
        ground: dict[int, Value] = {}
        for pos, p in enumerate(o.args):
            if isinstance(p, ast.Var):
                params.append(p.name)
            else:
                try:
                    ground[pos] = eval_ground_term(p, consts)
                except SemanticError as e:
                    sink.error(e.message, idef.span)
                    return False
        missing = [v for v in params if v not in var_sorts]
        if missing:
            sink.error(
                f"cannot infer a sort for parameter(s) {', '.join(missing)}; "
                "add an attribute assignment or an instance(...) condition",
                idef.span)
            return False
        domains = [_declared_members(uni, sig, var_sorts[v], consts)
                   for v in params]
        for combo in product(*domains):
            env = dict(zip(params, combo))
            if not _where_holds(idef.where, consts, env, sink):
                continue
            it = iter(combo)
            args = tuple(ground[pos] if pos in ground else next(it)
                         for pos in range(len(o.args)))
            key = object_key(o.name, args)
            if key in uni.declared:
                # created elsewhere (e.g. a parameterised constant):
                # merge any sorts this definition adds
                new = [s for s in sorts if s not in uni.declared[key]]
                if new:
                    uni.add(key, new)
                    changed = True
                continue
            uni.add(key, sorts)
            for a in idef.attrs:
                _add_attr(uni, sig, key, a, consts, env, sink)
            changed = True
    return changed


def _where_holds(where, consts, env, sink: DiagnosticSink) -> bool:
    for w in where:
        if w.op is None:
            if isinstance(w.lhs, ast.App) and w.lhs.name == "instance":
                continue  # used for sorting parameters, always true here
            sink.error("unsupported where-clause literal", w.span)
            return False
        lv = eval_ground_term(w.lhs, consts, env)
        rv = eval_ground_term(w.rhs, consts, env)
        ok = compare(w.op, lv, rv, w.span)
        if w.neg:
            ok = not ok
        if not ok:
            return False
    return True


def _add_attr(uni: _Universe, sig: Signature, okey: str,
              a: ast.AttrAssign, consts: dict[str, Value],
              env: dict[str, Value], sink: DiagnosticSink) -> None:
    info = sig.functions.get(a.name)
    if info is None or info.kind != "attribute":
        sink.error(f"{a.name!r} is not a declared attribute", a.span)
        return
    try:
        extra = tuple(eval_ground_term(x, consts, env) for x in a.args)
        value = eval_ground_term(a.value, consts, env)
    except SemanticError as e:
        sink.error(e.message, a.span)
        return
    if len(extra) + 1 != info.arity:
        sink.error(f"attribute {a.name!r} takes {info.arity - 1} extra "
                   f"argument(s)", a.span)
        return
    uni.attrs.append((a.name, okey, extra, value))


# -------------------------------------------------- placement enumeration

def enumerate_placements(sig: Signature, structure: ast.Structure,
                         sink: DiagnosticSink) -> Iterator[PreModel]:
    """Pre-model candidates, one per object placement, deterministic order.

    Each candidate carries the placement and the structure's attribute
    assignments, and no other static value.  `semantics.system_pre_models`
    completes it by solving its statics program: the structure's `values of
    statics` and the theory's static axioms derive the rest, each answer
    set gives one pre-model, and a candidate whose statics conflict gives
    none.

    What every placement shares is computed once, as the fixed part: each
    object's sources among its declared sorts and the nodes above them, the
    members those give every node, and the attribute values.  A placement
    then adds only the sources its choice axes pick, and the objects they
    bring to a node are merged into its members in universe order
    (`_make_placement`).
    """
    uni, consts = build_universe(sig, structure, sink)

    # For each object and each declared non-source sort, the object must sit
    # in exactly one source node below that sort.
    source_nodes = set(sig.source_nodes())
    choice_axes: list[tuple[str, list[str]]] = []  # (object, options)
    fixed = {key: {s for s in sorts if s in source_nodes}
             for key, sorts in uni.declared.items()}
    for key, sorts in uni.declared.items():
        for s in sorts:
            if s in source_nodes:
                continue
            options = sorted(set(sig.descendants(s)) & source_nodes)
            if not options:
                sink.error(f"sort {s!r} has no source subsorts to place "
                           f"{key} into")
                continue
            if fixed[key] & set(options):
                continue  # membership already witnessed by a declared source
            choice_axes.append((key, options))
    sink.raise_if_errors()

    total = 1
    for _, options in choice_axes:
        total *= len(options)
        if total > MAX_PLACEMENTS:
            raise SemanticError(f"placement enumeration exceeds "
                                f"{MAX_PLACEMENTS} candidates", structure.span)

    # Instance closure: membership in a node = is_a in some source below it.
    above = {n: frozenset({n, *sig.ancestors(n)}) for n in source_nodes}
    nodes = {key: frozenset().union(*map(above.get, srcs))
             for key, srcs in fixed.items()}
    members: dict[str, list[str]] = {n: [] for n in sig.sorts}
    for key, ns in nodes.items():
        for n in ns:
            members[n].append(key)
    # Attribute assignments from the structure.
    statics: dict[tuple[str, tuple[Value, ...]], Value] = {}
    for func, okey, extra, value in uni.attrs:
        keyargs = (okey,) + extra
        prev = statics.setdefault((func, keyargs), value)
        if prev != value:
            raise SemanticError(f"conflicting values {prev} and {value} for "
                                f"attribute {func} of {okey}", structure.span)
    base = PreModel(
        sig=sig,
        consts=consts,
        universe=list(uni.declared),
        is_a={k: frozenset(v) for k, v in fixed.items()},
        members={n: tuple(v) for n, v in members.items()},
        statics=statics,
        declared={k: tuple(v) for k, v in uni.declared.items()},
        nodes=nodes,
    )
    position = {key: i for i, key in enumerate(base.universe)}
    for combo in product(*[options for _, options in choice_axes]):
        yield _make_placement(base, above, position, zip(choice_axes, combo))


def _make_placement(base: PreModel, above: dict[str, frozenset[str]],
                    position: dict[str, int], chosen: Iterator) -> PreModel:
    """The fixed part `base` with each object of a choice axis also placed
    in the source it chose: ``((object, options), source)`` pairs."""
    is_a, nodes, members = dict(base.is_a), dict(base.nodes), \
        dict(base.members)
    joined: dict[str, list[str]] = {}  # node -> objects the choices add
    for (key, _), src in chosen:
        is_a[key] |= {src}
        for n in above[src] - nodes[key]:
            joined.setdefault(n, []).append(key)
        nodes[key] |= above[src]
    for n, keys in joined.items():
        members[n] = tuple(sorted((*members[n], *keys),
                                  key=position.__getitem__))
    return PreModel(base.sig, base.consts, base.universe, is_a, members,
                    dict(base.statics), base.declared, nodes)


def structure_static_rules(theory: ActionTheory, structure: ast.Structure,
                           sink: DiagnosticSink) -> list[Constraint]:
    """Normalize the structure's `values of statics` clauses."""
    from almc.bat import _Normalizer
    norm = _Normalizer(theory.sig, sink)
    rules: list[Constraint] = []
    for sa in structure.statics:
        norm.extra = []
        head = norm.normalize(sa.lit)
        extra = list(norm.extra)
        body = norm.body(sa.body, allow_occurs=False)
        if not isinstance(head, FunLit):
            sink.error("values of statics must assign a function value",
                       sa.span)
            continue
        info = theory.sig.functions.get(head.func)
        if info is None or info.is_fluent:
            sink.error(f"{head.func!r} is not a static", sa.span)
            continue
        rules.append(Constraint(head, tuple(list(body) + extra),
                                span=sa.span))
    sink.raise_if_errors()
    return rules
