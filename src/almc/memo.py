"""The reads stage of one system's grounders, shared per statement under a
verifying trace (`ReadsMemo`)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from almc.errors import Span
from almc.lpcore import Budget
from almc.modular import PreModel, Value

if TYPE_CHECKING:
    from almc.semantics import Grounder


class TracedPreModel:
    """A pre-model for one grounder's reads stage through a `ReadsMemo`:
    it keeps its answer to each query asked of it (`answer`), and records
    the queries of the statement being read (`sort_values`, `is_instance`,
    `static_value`, `holds_is_a`) with their answers in `trace`.  The
    signature is the theory's, and the object constants are compared
    whole."""

    def __init__(self, pm: PreModel):
        self.pm, self.sig, self.consts = pm, pm.sig, pm.consts
        self.answers: dict[tuple, object] = {}
        self.trace: dict[tuple, object] = {}

    def answer(self, query: tuple):
        """The pre-model's answer to ``(method name, *args)``."""
        try:
            return self.answers[query]
        except KeyError:
            out = self.answers[query] = \
                getattr(self.pm, query[0])(*query[1:])
            return out

    def _ask(self, *query):
        out = self.trace[query] = self.answer(query)
        return out

    def sort_values(self, key: str, span: Span = Span()) -> list[Value]:
        query = ("sort_values", key)
        if query not in self.answers:  # an unbounded sort is located
            self.answers[query] = self.pm.sort_values(key, span)
        return self._ask(*query)

    def is_instance(self, obj: Value, sort: str) -> bool:
        return self._ask("is_instance", obj, sort)

    def static_value(self, func: str, args: tuple[Value, ...]
                     ) -> Optional[Value]:
        return self._ask("static_value", func, args)

    def holds_is_a(self, obj: Value, sort: str) -> bool:
        return self._ask("holds_is_a", obj, sort)


class ReadsMemo:
    """The reads stage of the grounders of one system, memoised per
    statement under a verifying trace (Mokhov, Mitchell, Peyton Jones,
    *Build systems à la carte*, ICFP 2018).  The pre-models of a system
    differ only in the placement of its objects, which most statements do
    not read.  A statement's reads entry (`Grounder._read_statement`) is a
    function of the answers its computation gets from the pre-model, of
    the object constants and of the grounder's actions.  So the memo keeps
    each entry computed so far with those answers (`TracedPreModel`), and
    a later grounder reuses an entry, as the same object, when its
    pre-model gives the same answer to every recorded query; otherwise it
    computes and records the entry anew."""

    def __init__(self) -> None:
        #: statement index -> [((constants, actions), trace, entry)]
        self.entries: dict[int, list[tuple]] = {}

    def read(self, g: Grounder, i: int, stmt,
             budget: Optional[Budget]) -> tuple:
        """The reads entry of the `i`-th statement `stmt` of `g`, whose
        pre-model is a `TracedPreModel` while its reads stage runs."""
        traced = g.pm
        whole = (traced.consts, g.actions)
        seen = self.entries.setdefault(i, [])
        for known, trace, read in seen:
            if known == whole and all(traced.answer(query) == answer
                                      for query, answer in trace.items()):
                return read
        traced.trace = {}
        read = g._read_statement(stmt, budget)
        seen.append((whole, traced.trace, read))
        return read
