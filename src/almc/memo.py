"""The reads stage of one system's grounders, shared per statement under a
verifying trace (`ReadsMemo`)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from almc.errors import Span
from almc.lpcore import Budget
from almc.modular import PreModel, Value
from almc.ontology import ACTIONS

if TYPE_CHECKING:
    from almc.semantics import BindingPlan, Grounder


class Trace:
    """The queries of one reading: the values of each sort it asked for,
    and the arguments of each `is_instance`, `static_value` and
    `holds_is_a` query."""

    __slots__ = ("sorts", "instances", "statics", "is_a")

    def __init__(self) -> None:
        self.sorts: dict[str, tuple[Value, ...]] = {}
        self.instances: set[tuple[Value, str]] = set()
        self.statics: set[tuple[str, tuple]] = set()
        self.is_a: set[tuple[Value, str]] = set()


class Changes:
    """Where one pre-model may answer a query of the reads stage otherwise
    than another pre-model of the same system, found once per pair from
    what each query reads (`PreModel`): the sorts whose members differ,
    the statics whose values differ, and the ``(object, sort)`` pairs where
    the instance closure or the placement differs.  Every other query
    answers alike."""

    __slots__ = ("sorts", "statics", "instances", "is_a")

    def __init__(self, a: PreModel, b: PreModel):
        self.sorts = {n for n, v in a.members.items()
                      if v is not b.members[n] and v != b.members[n]}
        self.statics = {k for k, _ in a.statics.items() ^ b.statics.items()}
        self.instances = {(o, s) for o, ns in a.nodes.items()
                          if ns is not b.nodes[o] for s in ns ^ b.nodes[o]}
        self.is_a = {(o, s) for o, ss in a.is_a.items()
                     if ss is not b.is_a[o] for s in ss ^ b.is_a[o]}

    @staticmethod
    def between(a: PreModel, b: PreModel) -> Optional[Changes]:
        """The changes from `a` to `b`, or None where the two differ in
        what is compared whole: the objects and their declared sorts, the
        object constants and the actions."""
        if a.universe != b.universe or a.declared != b.declared \
                or a.consts != b.consts \
                or a.members.keys() != b.members.keys() \
                or a.members.get(ACTIONS) != b.members.get(ACTIONS):
            return None
        return Changes(a, b)

    def moved(self, trace: Trace) -> Optional[set[str]]:
        """The sorts of `trace` whose members changed, or None if another
        of its queries may answer otherwise."""
        if self.statics.isdisjoint(trace.statics) \
                and self.instances.isdisjoint(trace.instances) \
                and self.is_a.isdisjoint(trace.is_a):
            return self.sorts.intersection(trace.sorts)
        return None


class TracedPreModel:
    """A pre-model for one grounder's reads stage through a `ReadsMemo`:
    it records the queries of the statement being read (`sort_values`,
    `is_instance`, `static_value`, `holds_is_a`) in `trace`.  The
    signature is the theory's, and the object constants are compared
    whole."""

    def __init__(self, pm: PreModel):
        self.pm, self.sig, self.consts = pm, pm.sig, pm.consts
        self.trace = Trace()

    def sort_values(self, key: str, span: Span = Span()
                    ) -> tuple[Value, ...]:
        out = self.trace.sorts[key] = self.pm.sort_values(key, span)
        return out

    def is_instance(self, obj: Value, sort: str) -> bool:
        self.trace.instances.add((obj, sort))
        return self.pm.is_instance(obj, sort)

    def static_value(self, func: str, args: tuple[Value, ...]
                     ) -> Optional[Value]:
        self.trace.statics.add((func, args))
        return self.pm.static_value(func, args)

    def holds_is_a(self, obj: Value, sort: str) -> bool:
        self.trace.is_a.add((obj, sort))
        return self.pm.holds_is_a(obj, sort)


class ReadsMemo:
    """The reads stage of the grounders of one system, memoised per
    statement under a verifying trace (Mokhov, Mitchell, Peyton Jones,
    *Build systems à la carte*, ICFP 2018).  The pre-models of a system
    differ only in the placement of its objects, which most statements do
    not read.  A statement's reads entry (`Grounder._read_statement`) is a
    function of the answers its computation gets from the pre-model, of
    the object constants and of the grounder's actions.  So the memo keeps
    each entry computed so far with the pre-model it was read from and the
    queries it asked (`Trace`).  A later grounder reuses an entry, as the
    same object, when its pre-model answers every recorded query alike,
    which is checked against where the two pre-models differ (`Changes`),
    found once per pair, rather than query by query.

    Placements move objects between sorts, so the sorts' values are traced
    by member: when a recorded sort's members differ here, and every other
    query answers alike, the grounder evaluates the bindings of just the
    members added or removed (`Grounder._reads_alike`), and the entry is
    reused if none survives here and none survived there.  Otherwise the
    entry is computed and recorded anew.  The memo also keeps each
    statement's binding plan (`Grounder.reads_plan`), which depends on the
    theory alone."""

    def __init__(self) -> None:
        #: statement index -> [[pre-model, trace, entry, its domains]]
        self.entries: dict[int, list[list]] = {}
        #: statement index -> its reads plan
        self.plans: dict[int, BindingPlan] = {}
        #: the pre-model being read, and its changes from the pre-model of
        #: each entry (`Changes.between`), found once and kept by the entry
        #: pre-model's id, which the entry keeps alive
        self.reading: Optional[PreModel] = None
        self.known: dict[int, Optional[Changes]] = {}

    def read(self, g: Grounder, i: int, stmt,
             budget: Optional[Budget]) -> tuple:
        """The reads entry of the `i`-th statement `stmt` of `g`, whose
        pre-model is a `TracedPreModel` while its reads stage runs."""
        traced = g.pm
        pm = traced.pm
        if self.reading is not pm:
            self.reading, self.known = pm, {}
        plan = self.plans.get(i)
        if plan is None:
            plan = self.plans[i] = g.reads_plan(stmt)
        seen = self.entries.setdefault(i, [])
        for entry in seen:
            old, trace, read, domains = entry
            changes = self.known.get(id(old), False)
            if changes is False:
                changes = self.known[id(old)] = Changes.between(old, pm)
            moved = None if changes is None else changes.moved(trace)
            if moved is None:
                continue
            if not moved:
                return read
            if domains is None:  # the domains of the entry's reading
                domains = entry[3] = plan.domains(
                    lambda source: trace.sorts[source]
                    if isinstance(source, str) else g._source_values(source))
            traced.trace = Trace()  # the check's own queries
            if g._reads_alike(stmt, plan, domains, moved, read, budget):
                return read
        traced.trace = trace = Trace()
        read = g._read_statement(stmt, plan, budget)
        seen.append([pm, trace, read, None])
        return read
