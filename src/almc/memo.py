"""The reads stage of one system's grounders, shared per statement under a
verifying trace (`ReadsMemo`)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from almc.lpcore import Budget
from almc.modular import PreModel, Value
from almc.ontology import ACTIONS

if TYPE_CHECKING:
    from almc.semantics import BindingPlan, Grounder


class Trace:
    """The dynamic queries of one reading: the arguments of each
    `is_instance`, `static_value` and `holds_is_a` query (its sorts are
    static, named by its binding plan)."""

    __slots__ = ("instances", "statics", "is_a")

    def __init__(self) -> None:
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

    def moved(self, sorts: frozenset, trace: Trace) -> Optional[set[str]]:
        """The `sorts` of a reading whose members changed, or None if a
        query of its `trace` may answer otherwise."""
        if self.statics.isdisjoint(trace.statics) \
                and self.instances.isdisjoint(trace.instances) \
                and self.is_a.isdisjoint(trace.is_a):
            return self.sorts.intersection(sorts)
        return None


class TracedPreModel:
    """A pre-model for one grounder's reads stage through a `ReadsMemo`:
    it records the dynamic queries of the statement being read in `trace`
    and forwards `sort_values`, whose sorts the binding plan names.  The
    signature is the theory's, and the object constants are compared
    whole."""

    def __init__(self, pm: PreModel):
        self.pm, self.sig, self.consts = pm, pm.sig, pm.consts
        self.sort_values = pm.sort_values
        self.trace = Trace()

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
    the object constants and of the grounder's actions.  The sorts it asks
    for are static dependencies, named by its binding plan
    (`Grounder.reads_plan`, from the theory alone); its other queries are
    dynamic.  So the memo keeps each entry with the pre-model it was read
    from, the domains it was bound over and the dynamic queries it asked
    (`Trace`).  A later grounder reuses an entry, as the same object, when
    its pre-model gives the plan's sorts the same members and answers
    every recorded query alike, checked against where the two pre-models
    differ (`Changes`), found once per pair.

    Placements move objects between sorts, so sorts are compared by
    member: when a plan's sort has other members here, and every recorded
    query answers alike, the grounder evaluates the bindings of just the
    members added or removed (`Grounder._reads_alike`), and the entry is
    reused if none survives here and none survived there.  Otherwise the
    entry is computed and recorded anew."""

    def __init__(self) -> None:
        #: statement index -> [(pre-model, trace, entry, its domains)]
        self.entries: dict[int, list[tuple]] = {}
        #: statement index -> its reads plan and the sort keys it narrows by
        self.plans: dict[int, tuple[BindingPlan, frozenset[str]]] = {}
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
        if i not in self.plans:
            plan = g.reads_plan(stmt)
            self.plans[i] = plan, frozenset(
                s for _, s in plan.narrows if isinstance(s, str))
        plan, sorts = self.plans[i]
        seen = self.entries.setdefault(i, [])
        for old, trace, read, domains in seen:
            changes = self.known.get(id(old), False)
            if changes is False:
                changes = self.known[id(old)] = Changes.between(old, pm)
            moved = None if changes is None else changes.moved(sorts, trace)
            if moved is None:
                continue
            if not moved:
                return read
            traced.trace = Trace()  # the check's own queries
            if g._reads_alike(stmt, plan, domains, read, budget):
                return read
        traced.trace = trace = Trace()
        domains = tuple(g._domains(stmt, plan))
        read = g._read_statement(stmt, plan, domains, budget)
        seen.append((pm, trace, read, domains))
        return read
