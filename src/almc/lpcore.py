"""Embedded answer-set solver.

Programs are normal logic programs (rule heads, positive and
negation-as-failure body literals) extended with:

* *choice atoms* — atoms that may be freely included in a model without
  requiring rule support (the `{a}` idiom); generators for fluent values,
  action occurrences, and consistency-restoring switches are built from
  these;
* *constraints* — headless rules that forbid their bodies;
* *at-most-k groups* over sets of atoms (used for action-set cardinality
  and, with a bound lowered as models are found, for the branch-and-bound
  of consistency-restoring search);
* *consistency-restoring rules* — rules that may be used only when the
  regular rules are inconsistent, applied in cardinality-minimal (default)
  or subset-minimal numbers (CR-Prolog, Balduccini & Gelfond 2003).  They
  are solved as a rewrite: a copy of the program makes each of them an
  ordinary rule guarded by a private choice atom, under one at-most group
  over those atoms whose bound falls as models are found (`solve_cr`), so
  every program goes through the same search and the same certifier.

The search is branch-and-propagate over a trail of atoms (smodels): every
counter is a function of the assignment, so backtracking pops atoms and
reverts their counts.  Propagation implements forward rule firing,
dead-rule support counting, last-literal refutation for rules with a false
head, and backchaining on a unique remaining support.  Support counting
cannot see an atom that only supports itself through a positive loop
(`p :- q. q :- p.`), so the search also falsifies unfounded sets, as
clasp does: at every propagation fixpoint, that is before every decision
and at every total assignment, every atom of a cyclic component of the
positive dependency graph that no alive rule can derive from outside the
unfounded set is made false.  Each such atom keeps a source pointer, the
alive rule that last founded it (smodels: Simons, Niemelä, Soininen,
*Extending and implementing the stable model semantics*, AIJ 2002), so a
check revisits only the atoms whose source died or that were undone
without one.  Tight programs, whose graph has no cycle, skip this check
(Fages 1994).  Each propagated atom records the reason for its
value, and each conflict is resolved over those reasons into a learned
nogood (first-UIP, as in clasp); backtracking stays chronological, so the
models come in the order of a search without learning, and the nogoods
live for one search.  Every total assignment that survives is an answer
set; it is still certified by an independent reduct + least-model check
(`is_answer_set`) before it is reported.  The certifier keeps its own index
of the rules, built once per program shape: each rule's head and
positive-body size, and for each atom the tuple of rules whose positive
body holds it and the tuple of those whose negative body holds it.  It
shares no table with the search it checks.

Solving is multi-shot, after clingo's `#external` atoms (Gebser, Kaminski,
Kaufmann, Schaub, *Multi-shot ASP solving with clingo*, TPLP 2019).  A
program keeps one search state while it is unchanged, and each call to
`answer_sets` passes only the facts that hold for that call.  Each atom
ever passed as a fact is made external once: it gets a rule `a :- x_a`
whose body is a fresh choice atom, its switch.  A call sets the switches
in ascending order of their atoms (true for its facts, false for the
others), each propagated on its own, on top of the level-0 propagation
that all calls share (the base mark).  However it ends, it undoes to the
mark after its last switch, not to the base mark, so the next call keeps
the switches it shares with this one up to the first that differs, as a
CDCL solver keeps the part of its trail that the next call would rebuild
(van der Tak, Ramos, Heule, *Reusing the assignment trail in CDCL
solvers*, JSAT 2011), and sets only the rest.

Atoms are interned from arbitrary hashable keys; callers deal only in keys.
"""

from __future__ import annotations

import time
from almc.records import record
from itertools import chain, islice
from typing import Hashable, Iterator, Optional, Sequence

from almc.errors import BudgetExceeded

UNDEF, TRUE, FALSE = 0, 1, 2

_NO_HEAD = -1
_LOST = "lost"  # the reason of an atom whose rules are all dead
_APPLIED = object()  # (_APPLIED, i) switches consistency-restoring rule i


@record
class Budget:
    max_decisions: Optional[int] = None
    deadline: Optional[float] = None  # time.monotonic() value
    decisions: int = 0  # made so far, by every search given this budget

    @staticmethod
    def of(max_decisions: Optional[int] = None,
           seconds: Optional[float] = None) -> "Budget":
        return Budget(max_decisions,
                      None if seconds is None else time.monotonic() + seconds)

    def check_time(self) -> None:
        """Raise `BudgetExceeded` once the deadline has passed."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded("time budget exhausted")

    def decide(self) -> None:
        """Count one decision; the clock is read at decisions 1, 65, 129…"""
        self.decisions += 1
        if self.max_decisions is not None \
                and self.decisions > self.max_decisions:
            raise BudgetExceeded(
                f"decision budget ({self.max_decisions}) exhausted")
        if self.decisions % 64 == 1:
            self.check_time()


def cyclic_components(succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """The strongly connected components that hold a cycle (more than one
    node, or a self-loop) of the graph on nodes 0..len(succ)-1 with an edge
    from each v to every node of succ[v].  An iterative Tarjan search
    (*Depth-first search and linear graph algorithms*, SIAM J. Comput. 1972)
    gives them in the order it completes them, each in the order its nodes
    leave the search's stack, so a component's last node is the first of
    its nodes that the search entered.  A root with no out-edge lies on no
    cycle and starts no search."""
    n = len(succ)
    cyclic: list[list[int]] = []
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0 or not succ[root]:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        component.append(w)
                        if w == v:
                            break
                    # a self-loop is a cycle of length one
                    if len(component) > 1 or v in succ[v]:
                        cyclic.append(component)
    return cyclic


class Program:
    """A ground program under construction."""

    def __init__(self) -> None:
        self._ids: dict[Hashable, int] = {}
        self.keys: list[Hashable] = []
        self.choice: set[int] = set()
        #: (head, pos tuple, neg tuple); head _NO_HEAD encodes a constraint
        self.rules: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []
        self.cr_rules: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []
        self.atmost: list[tuple[tuple[int, ...], int]] = []
        # caches for the program shape given by `_stamp()`
        self._search: Optional[tuple[tuple, _Search]] = None
        self._index: Optional[tuple[tuple, tuple]] = None

    # ------------------------------------------------------------ building

    def atom(self, key: Hashable) -> int:
        i = self._ids.get(key)
        if i is None:
            i = len(self.keys)
            self._ids[key] = i
            self.keys.append(key)
        return i

    def add_rule(self, head: Optional[int], pos=(), neg=()) -> None:
        self.rules.append((head if head is not None else _NO_HEAD,
                           tuple(pos), tuple(neg)))

    def add_fact(self, key: Hashable) -> None:
        self.add_rule(self.atom(key))

    def add_constraint(self, pos=(), neg=()) -> None:
        self.add_rule(None, pos, neg)

    def add_choice(self, key: Hashable) -> int:
        i = self.atom(key)
        self.choice.add(i)
        return i

    def add_cr_rule(self, head: int, pos=(), neg=()) -> int:
        """Returns the index of the new consistency-restoring rule."""
        self.cr_rules.append((head, tuple(pos), tuple(neg)))
        return len(self.cr_rules) - 1

    def add_atmost(self, keys, bound: int) -> None:
        self.atmost.append((tuple(self.atom(k) for k in keys), bound))

    def copy(self) -> "Program":
        """A copy that can be extended without changing this program."""
        new = Program()
        new._ids = dict(self._ids)
        new.keys = list(self.keys)
        new.choice = set(self.choice)
        new.rules = list(self.rules)
        new.cr_rules = list(self.cr_rules)
        new.atmost = list(self.atmost)
        return new

    def _stamp(self) -> tuple:
        """Changes whenever an atom, a regular rule, a choice atom or a
        group is added: the caches read nothing else."""
        return (len(self.keys), len(self.rules), len(self.choice),
                len(self.atmost))

    # ------------------------------------------------------------ solving

    def answer_sets(self, max_models: Optional[int] = None,
                    budget: Optional[Budget] = None,
                    facts: Sequence[Hashable] = ()) -> Iterator[frozenset]:
        """Answer sets of the regular rules, as frozensets of atom keys.

        `facts` are atom keys that hold for this call only, as if added with
        `add_fact` after the other rules; the program itself is unchanged, so
        one ground program serves many calls.  A fact the program never
        mentions constrains nothing: it is added to every answer set.

        The calls share one search state while the program is unchanged:
        each fact atom is an external atom of that search, and a call only
        sets their switches.  A call made while another one on the program
        is suspended gets a search of its own.  The models, and their order,
        are those of a copy extended with `add_fact` and solved alone.
        """
        atoms: dict[int, None] = {}
        unmentioned = []
        for key in facts:
            a = self._ids.get(key)
            if a is None:
                unmentioned.append(key)
            else:
                atoms[a] = None
        search = self._multi_shot(atoms)
        run = search.run(budget,
                         lambda model: self.is_answer_set(model, atoms), atoms)
        keys = self.keys
        try:
            for model in islice(run, max_models):
                yield frozenset(chain((keys[a] for a in model), unmentioned))
        finally:
            run.close()  # undo to the last switch's mark, also after a cut

    def _multi_shot(self, atoms) -> "_Search":
        """The program's search, built on first use and rebuilt after the
        program changes, with `atoms` declared external."""
        stamp = self._stamp()
        if self._search is None or self._search[0] != stamp:
            self._search = (stamp, _Search(self))
        search = self._search[1]
        if search.busy:
            search = _Search(self)
        new = [a for a in atoms if a not in search.externals]
        if new:
            search.declare(new)
        return search

    def solve_cr(self, max_models: Optional[int] = None,
                 budget: Optional[Budget] = None,
                 minimality: str = "card") -> list[tuple[frozenset, frozenset]]:
        """Models using a minimal set of consistency-restoring rules.

        Returns (model keys, applied rule indices) pairs.  With
        minimality="card" the applied sets all have the smallest workable
        cardinality; with "set" they are the subset-minimal ones.  Answer
        sets of the regular rules apply none, so they win if there are any.

        The consistency-restoring rules are solved as ordinary rules of a
        copy: rule i, `h :- body`, becomes `h :- body, applied_i` over a
        fresh choice atom `applied_i`, numbered after the program's atoms,
        and the copy gets one at-most group, its last, over those atoms with
        bound n.  With "card" one search over the copy is branch-and-bound
        (clasp's model-guided optimization): a model that applies fewer
        rules than the best so far resets the list and lowers the group's
        bound to its count, and to one below once `max_models` are held.
        As the search branches in a fixed order, the models come in the
        order of a search bounded by the optimum alone.  With "set" the
        whole enumeration is filtered by inclusion, then cut to `max_models`.
        """
        base, n = len(self.keys), len(self.cr_rules)
        prog = self.copy()
        prog.cr_rules = []
        for i, (h, pos, neg) in enumerate(self.cr_rules):
            prog.add_rule(h, pos + (prog.add_choice((_APPLIED, i)),), neg)
        prog.add_atmost([(_APPLIED, i) for i in range(n)], n)
        solver = _Search(prog)
        card = minimality == "card"
        best = n
        found: list[tuple[frozenset, frozenset]] = []
        for model in solver.run(budget, prog.is_answer_set):
            applied = frozenset(a - base for a in model if a >= base)
            if card and len(applied) < best:
                best, found = len(applied), []
            found.append((frozenset(self.keys[a] for a in model if a < base),
                          applied))
            if card:
                full = max_models is not None and len(found) >= max_models
                solver.lower_bound(best - 1 if full else best)
            elif not applied:
                solver.lower_bound(0)
        if not card:
            applied_sets = {a for _, a in found}
            minimal = {a for a in applied_sets
                       if not any(b < a for b in applied_sets)}
            found = [(m, a) for m, a in found if a in minimal]
        return found[:max_models]

    def loop_atoms(self) -> list[int]:
        """Non-choice atoms in a cyclic component of the positive dependency
        graph, in which an edge leads from a rule's head to each atom of its
        positive body.  Only these atoms can be unfounded while support
        counting still sees an alive rule for them.

        Choice atoms are founded whenever they are true, so they lose their
        out-edges and lie on no cycle.  The list is empty for a tight
        program.  It is computed anew on each call; a program's search
        (`_Search`), kept per program shape, asks for it once.
        """
        n = len(self.keys)
        # the spare last list takes the constraints' edges, and is dropped
        succ: list[list[int]] = [[] for _ in range(n + 1)]
        for head, pos, _ in self.rules:
            succ[head].extend(pos)
        succ.pop()
        for a in self.choice:
            succ[a].clear()
        return list(chain.from_iterable(cyclic_components(succ)))

    def _certifier(self) -> tuple:
        """The certifier's index of the regular rules, built once per
        program shape: the rules' heads and positive-body sizes, the rules
        without a positive body, and for each atom a tuple of the rules
        whose positive body holds it and a tuple of those whose negative
        body holds it."""
        stamp = self._stamp()
        if self._index is not None and self._index[0] == stamp:
            return self._index[1]
        n = len(self.keys)
        pos_of: list[list[int]] = [[] for _ in range(n)]
        neg_of: list[list[int]] = [[] for _ in range(n)]
        for r, (_, pos, neg) in enumerate(self.rules):
            for b in pos:
                pos_of[b].append(r)
            for b in neg:
                neg_of[b].append(r)
        index = ([h for h, _, _ in self.rules],
                 [len(pos) for _, pos, _ in self.rules],
                 [r for r, (_, pos, _) in enumerate(self.rules) if not pos],
                 [tuple(w) for w in pos_of],
                 [tuple(w) for w in neg_of])
        self._index = (stamp, index)
        return index

    def is_answer_set(self, model: set[int], facts=()) -> bool:
        """Reduct + least-model certification of a candidate against the
        regular rules plus the atoms `facts`, as if added with `add_fact`.

        A rule with a negative body atom in the model is dropped by the
        reduct.  The least model of the rest, grown from the candidate's
        choice atoms and the facts, must be the candidate: a fired
        constraint or a derived atom outside the candidate ends the check."""
        heads, need, bodyless, pos_rules, neg_rules = self._certifier()
        need = need[:]
        for a in model:
            for r in neg_rules[a]:
                need[r] = -1  # dropped by the reduct
        choice = self.choice
        stack = [a for a in model if a in choice]
        stack += facts
        stack += [heads[r] for r in bodyless if need[r] == 0]
        derived: set[int] = set()
        while stack:
            h = stack.pop()
            if h == _NO_HEAD or h not in model:
                return False
            if h in derived:
                continue
            derived.add(h)
            for r in pos_rules[h]:
                need[r] -= 1
                if need[r] == 0:
                    stack.append(heads[r])
        return len(derived) == len(model)


class _Search:
    """One search state over a program.

    The counters are functions of the assignment alone: `need[r]` counts
    the body literals of rule r that are not true, `bad[r]` those that are
    false (r is dead while it is positive), `support[h]` the alive rules
    with head h, and `gcount[g]` the true members of group g.  `_assign`
    applies an atom's updates at once and `_undo_to` reverts them.

    Each assigned atom keeps the reason for its value in `reason[a]`, one
    value naming a nogood (literals no answer set has together) whose other
    literals came earlier on the trail: the int r for rule r (its body true
    and its head false), `~r` for a body literal of the one alive rule r of
    a true head, `_LOST` for an atom whose rules are all dead, a 1-tuple
    for an at-most group, a frozenset for an unfounded set (its loop
    nogood), a list for a learned nogood, and None for decisions and
    switches.  Their literals are read off the program only when a conflict
    is analysed (`_antecedents`), so propagation allocates nothing.
    `_assign` also keeps each atom's trail position in `position[a]`, from
    which conflict analysis tells the level of a literal and orders them.

    Each loop atom a (`Program.loop_atoms`) keeps in `src[a]` its source,
    the rule through which an unfounded-set check last founded it, or -1
    when it has none; `src` holds -2 for every other atom, which needs
    none.  After a check, every loop atom that is not false and has a
    source is founded through it: the source is alive, and the sources of
    its positive body's loop atoms were set before it.  Between checks,
    `_assign` lists in `lost` each atom whose source dies, and `pending`
    holds every loop atom without a source that is not false: `_undo_to`
    lists again each atom that it unassigns without one.  `_unfounded`
    reads only those lists.

    `_learn` resolves a conflict to its first unique implication point
    (Gebser, Kaufmann, Schaub, *Conflict-driven answer set solving*, AIJ
    2012), and `_nogoods` propagates the learned nogoods with two watched
    literals.  Backtracking stays chronological (Nadel, Ryvchin,
    *Chronological backtracking*, SAT 2018): the last open decision is
    flipped, so the models come in the order of a search without learning.
    After the undo, `_reassert` asserts the new nogood, and each nogood
    whose implied literal was undone, where it is unit again.  A learned
    nogood follows from the program, the run's switches and the bound of
    the last at-most group, which only falls (`lower_bound`), so it holds
    until the run ends.

    `declare` makes atoms external: each gets a rule whose body is a fresh
    choice atom, its switch, numbered after the program's atoms.  The level-0
    propagation (`_start`) leaves the switches undecided; its trail length
    is the base mark.  A run sets the switches in ascending order of their
    external atoms, each assigned and propagated on its own, and `kept`
    holds `(switch, value, trail mark before it)` for each switch in place.
    It searches, and undoes to `switched`, the mark after the last kept
    switch, so the next run keeps every switch up to the first whose value
    differs (`_assume`) and one state serves any number of runs.  The
    search holds no reference to the program.

    Kept switches change no model.  Propagation only adds the literals
    that the program, the assignment and the group bounds force, and each
    of its checks runs again when an atom it reads leaves the queue, so it
    ends at the closure of what it started from, or at a conflict when that
    closure holds an atom both true and false, in whatever order the
    literals came.  The assignment at a kept switch's mark is thus level 0
    plus the switches before it, propagated, and at `switched` level 0 plus
    all of them: what setting every switch at once from the base mark
    gives.  The counters are functions of the assignment, an undo keeps the
    sources' invariant, and the unfounded-set check, which runs after the
    last switch, falsifies only above `switched`.  So each run makes its
    first decision from the assignment of a run from the base mark, and
    yields the same models in the same order.
    """

    def __init__(self, program: Program):
        self.n = self.n_model = len(program.keys)
        self.choice = set(program.choice)
        self.externals: dict[int, int] = {}  # external atom -> its switch
        self.switches: list[tuple[int, int]] = []  # the externals, sorted
        self.kept: list[tuple[int, int, int]] = []
        self.base = -1  # trail mark after level 0; -1 before `_start`
        self.switched = 0  # trail mark after the kept switches
        self.base_ok = True
        self.busy = False  # a run is in progress

        # watch lists are built as lists and kept as tuples, which share
        # one empty tuple: most atoms are in no group and no loop
        rules = program.rules
        self.rhead: list[int] = [head for head, _, _ in rules]
        self.rpos: list[tuple[int, ...]] = [pos for _, pos, _ in rules]
        self.rneg: list[tuple[int, ...]] = [neg for _, _, neg in rules]
        posw: list[list[int]] = [[] for _ in range(self.n)]
        negw: list[list[int]] = [[] for _ in range(self.n)]
        # the spare last list takes the constraints
        headw: list[list[int]] = [[] for _ in range(self.n + 1)]
        for r, (head, pos, neg) in enumerate(rules):
            for b in pos:
                posw[b].append(r)
            for b in neg:
                negw[b].append(r)
            headw[head].append(r)
        headw.pop()
        self.support = [len(w) for w in headw]
        self.posw = [tuple(w) for w in posw]
        self.negw = [tuple(w) for w in negw]
        self.headw = [tuple(w) for w in headw]

        self.gmembers = [m for m, _ in program.atmost]
        self.gbound = [k for _, k in program.atmost]
        self.gcount = [0] * len(self.gbound)
        self.gtag = [(g,) for g in range(len(self.gbound))]  # their reasons
        gwatch: list[list[int]] = [[] for _ in range(self.n)]
        for g, members in enumerate(self.gmembers):
            for a in members:
                gwatch[a].append(g)
        self.gwatch = [tuple(w) for w in gwatch]

        self.status = [UNDEF] * self.n
        self.reason: list = [None] * self.n
        self.position = [0] * self.n  # trail position, while assigned
        self.need = [len(p) + len(ng)
                     for p, ng in zip(self.rpos, self.rneg)]
        self.bad = [0] * len(self.rhead)
        self.trail: list[int] = []
        self.queue: list[int] = []
        # learned nogoods, as literals 2a + v - 1 (atom a has value v):
        # watch lists by literal, the (trail position, nogood) of each
        # literal a nogood implied, and the last conflict as (atom or -1,
        # reason): its nogood is the reason's plus the atom's literal
        self.watches: dict[int, list[list[int]]] = {}
        self.implied: list[tuple[int, list[int]]] = []
        self.conflict: Optional[tuple] = None

        # branch order: choice atoms first, then everything else
        self.order = sorted(self.choice) + \
            [a for a in range(self.n) if a not in self.choice]

        # Unfounded-set bookkeeping over the loop atoms, none of which has a
        # source yet.  lwatch lists each rule whose head is a loop atom once
        # for each occurrence of a loop atom in its positive body.
        self.loop_atoms = program.loop_atoms()
        self.src = src = [-2] * self.n
        for a in self.loop_atoms:
            src[a] = -1
        self.pending = list(self.loop_atoms)
        self.lost: list[int] = []
        lwatch: list[list[int]] = [[] for _ in range(self.n)]
        for a in self.loop_atoms:
            for r in self.headw[a]:
                for b in self.rpos[r]:
                    if src[b] == -1:
                        lwatch[b].append(r)
        self.lwatch = [tuple(w) for w in lwatch]

    def declare(self, atoms) -> None:
        """Make each atom external with a rule `a :- x_a` over a fresh
        switch `x_a`.  Level 0 is propagated again by the next run, and
        every switch is set again."""
        self._undo_to(0)
        self.base = -1
        self.kept.clear()
        for a in atoms:
            x, r = self.n, len(self.rhead)
            self.n += 1
            self.choice.add(x)
            self.externals[a] = x
            for table in (self.negw, self.headw, self.gwatch, self.lwatch):
                table.append(())
            self.posw.append((r,))
            self.status.append(UNDEF)
            self.reason.append(None)
            self.position.append(0)
            self.support.append(0)
            self.src.append(-2)
            self.rhead.append(a)
            self.rpos.append((x,))
            self.rneg.append(())
            self.need.append(1)
            self.bad.append(0)
            self.headw[a] += (r,)
            self.support[a] += 1
        self.switches = sorted(self.externals.items())

    def _start(self) -> None:
        """Propagate level 0 and set the base mark."""
        self.base_ok = self._init()
        self.base = self.switched = len(self.trail)

    def _assume(self, facts) -> bool:
        """Switch the external atoms in `facts` on and the others off, in
        ascending order of the atoms, from the trail at `switched`.  The
        kept switches before the first whose value differs stay; the trail
        is undone to that one's mark, and it and the ones after it are set,
        each assigned and propagated on its own.  On a conflict the trail
        is undone to the failing switch's mark, the end of the kept ones.
        As each mark holds the closure of level 0 and the switches before
        it, whatever order they were propagated in (see the class
        docstring), the assignment after the last switch, and whether a
        conflict is met, are those of setting every switch from the base
        mark."""
        on = set(facts)
        kept, switches = self.kept, self.switches
        i = 0
        for (a, _), (_, val, mark) in zip(switches, kept):
            if val != (TRUE if a in on else FALSE):
                self._undo_to(mark)
                del kept[i:]
                break
            i += 1
        for a, x in switches[i:]:
            mark, val = len(self.trail), TRUE if a in on else FALSE
            if not (self._assign(x, val, None) and self._propagate()):
                self._undo_to(mark)
                self.switched = mark
                return False
            kept.append((x, val, mark))
        self.switched = len(self.trail)
        return True

    def _assign(self, a: int, val: int, why) -> bool:
        s = self.status[a]
        if s != UNDEF:
            if s != val:
                self.conflict = (a, why)
            return s == val
        self.status[a] = val
        self.reason[a] = why
        self.position[a] = len(self.trail)
        self.trail.append(a)
        self.queue.append(a)
        if val == TRUE:
            kill, fill = self.negw[a], self.posw[a]
            for g in self.gwatch[a]:
                self.gcount[g] += 1
        else:
            kill, fill = self.posw[a], self.negw[a]
        need, bad, support, rhead, src = self.need, self.bad, self.support, \
            self.rhead, self.src
        for r in fill:
            need[r] -= 1
        for r in kill:
            bad[r] += 1
            if bad[r] == 1 and rhead[r] != _NO_HEAD:
                h = rhead[r]
                support[h] -= 1
                if src[h] == r:
                    self.lost.append(h)
        return True

    def _undo_to(self, mark: int) -> None:
        """Pop atoms off the trail and revert their counts; empty the queue.
        A loop atom left without a source is pending again."""
        self.queue.clear()
        trail, status, need, bad, support, rhead, src = self.trail, \
            self.status, self.need, self.bad, self.support, self.rhead, \
            self.src
        while len(trail) > mark:
            a = trail.pop()
            if status[a] == TRUE:
                kill, fill = self.negw[a], self.posw[a]
                for g in self.gwatch[a]:
                    self.gcount[g] -= 1
            else:
                kill, fill = self.posw[a], self.negw[a]
            status[a] = UNDEF
            if src[a] == -1:
                self.pending.append(a)
            for r in fill:
                need[r] += 1
            for r in kill:
                bad[r] -= 1
                if bad[r] == 0 and rhead[r] != _NO_HEAD:
                    support[rhead[r]] += 1

    def _enforce_support(self, a: int) -> bool:
        """`a` is true with a single alive rule: satisfy its body.  An atom
        derived by one of its own rules has that rule's body true already."""
        w = self.reason[a]
        if type(w) is int and w >= 0 and self.rhead[w] == a:
            return True
        status = self.status
        r = next(r for r in self.headw[a] if not self.bad[r])
        for b in self.rpos[r]:
            if status[b] != TRUE and not self._assign(b, TRUE, ~r):
                return False
        for b in self.rneg[r]:
            if status[b] != FALSE and not self._assign(b, FALSE, ~r):
                return False
        return True

    def _propagate(self) -> bool:
        """Draw the consequences of each queued atom from the counters as
        they stand when it leaves the queue; each check may run again."""
        status, need, bad, support = self.status, self.need, self.bad, \
            self.support
        rhead, choice, assign = self.rhead, self.choice, self._assign
        queue, watches = self.queue, self.watches
        while queue:
            a = queue.pop()
            true = status[a] == TRUE
            if true:
                kill, fill = self.negw[a], self.posw[a]
            else:
                kill, fill = self.posw[a], chain(self.negw[a], self.headw[a])
            for r in kill:  # rules that a made dead
                h = rhead[r]
                if h == _NO_HEAD or h in choice:
                    continue
                if support[h] == 0:
                    if status[h] == TRUE:
                        self.conflict = (h, _LOST)
                        return False
                    if status[h] == UNDEF:
                        assign(h, FALSE, _LOST)
                elif support[h] == 1 and status[h] == TRUE \
                        and not self._enforce_support(h):
                    return False
            # rules with one body literal fewer to make true, and rules
            # whose head a is false
            for r in fill:
                if bad[r]:
                    continue
                h = rhead[r]
                if h == _NO_HEAD or status[h] == FALSE:
                    if need[r] == 0:
                        self.conflict = (-1, r)
                        return False
                    if need[r] == 1:  # falsify the one undefined literal
                        for b in self.rpos[r]:
                            if status[b] == UNDEF:
                                assign(b, FALSE, r)
                        for b in self.rneg[r]:
                            if status[b] == UNDEF:
                                assign(b, TRUE, r)
                elif need[r] == 0 and status[h] == UNDEF:
                    assign(h, TRUE, r)
            if watches:
                lit = a + a + status[a] - 1
                if lit in watches and not self._nogoods(lit):
                    return False
            if not true:
                continue
            for g in self.gwatch[a]:
                if not self._at_most(g):
                    return False
            if a in choice:
                continue
            if support[a] == 0:
                self.conflict = (a, _LOST)
                return False
            if support[a] == 1 and not self._enforce_support(a):
                return False
        return True

    def _nogoods(self, lit: int) -> bool:
        """`lit` has become true: each learned nogood that watches it
        watches another literal that is not true, or else asserts the
        opposite of its other watched literal, or is violated."""
        status, watches = self.status, self.watches
        watching, keep = watches[lit], []
        for j, ng in enumerate(watching):
            if ng[0] == lit:
                ng[0], ng[1] = ng[1], lit
            other = ng[0]
            s = status[other >> 1]
            if s == 2 - (other & 1):  # the nogood holds already
                keep.append(ng)
                continue
            for k in range(2, len(ng)):
                free = ng[k]
                if status[free >> 1] != 1 + (free & 1):
                    ng[1], ng[k] = free, lit
                    watches.setdefault(free, []).append(ng)
                    break
            else:
                keep.append(ng)
                if s != UNDEF:
                    watches[lit] = keep + watching[j + 1:]
                    self.conflict = (-1, ng)
                    return False
                self.implied.append((len(self.trail), ng))
                self._assign(other >> 1, 2 - (other & 1), ng)
        watches[lit] = keep
        return True

    def _reassert(self, mark: int, learned: Optional[list[int]]) -> bool:
        """After an undo to `mark`, assert the opposite of the one open
        literal of `learned` and of each nogood whose implied literal the
        undo removed, where the other literals still hold."""
        redo = [learned] if learned else []
        implied, status = self.implied, self.status
        while implied and implied[-1][0] >= mark:
            redo.append(implied.pop()[1])
        for ng in redo:
            open_lit = -1
            for lit in ng:
                s = status[lit >> 1]
                if s == 1 + (lit & 1):
                    continue
                if s != UNDEF or open_lit >= 0:
                    break  # false, or a second open literal
                open_lit = lit
            else:
                if open_lit < 0:
                    self.conflict = (-1, ng)
                    return False
                implied.append((len(self.trail), ng))
                self._assign(open_lit >> 1, 2 - (open_lit & 1), ng)
        return True

    def _antecedents(self, p: int, why, limit: int) -> list[int]:
        """The atoms of the nogood named by reason `why`, other than `p`,
        all assigned before trail position `limit`.  A dead rule stands for
        one of its false literals."""
        status, position, rhead, rpos, rneg = self.status, self.position, \
            self.rhead, self.rpos, self.rneg

        def dead(r: int) -> int:
            return next(chain(
                (b for b in rpos[r]
                 if status[b] == FALSE and position[b] < limit),
                (b for b in rneg[r]
                 if status[b] == TRUE and position[b] < limit)))

        if type(why) is int:
            if why < 0:  # p is a body literal of the one support ~why
                h = rhead[~why]
                return [h] + [dead(r) for r in self.headw[h] if r != ~why]
            atoms = [b for b in chain(rpos[why], rneg[why]) if b != p]
            h = rhead[why]
            return atoms + [h] if h != _NO_HEAD and h != p else atoms
        if why is _LOST:
            return [dead(r) for r in self.headw[p]]
        if type(why) is tuple:  # p exceeds the bound, or p = -1 does
            g = why[0]
            true = sorted((m for m in self.gmembers[g]
                           if m != p and status[m] == TRUE
                           and position[m] < limit), key=position.__getitem__)
            return true[:self.gbound[g] + (p < 0)]
        if type(why) is list:
            return [lit >> 1 for lit in why if lit >> 1 != p]
        # the unfounded set `why`: every rule from outside it is dead
        return [dead(r) for a in why for r in self.headw[a]
                if not any(b in why for b in rpos[r])]

    def _learn(self, lo: int, cur: int) -> Optional[list[int]]:
        """The first-UIP nogood of `self.conflict`, with its two latest
        literals first and the current level's latest first of all.  The
        current level starts at trail position `cur`; literals below `lo`
        (level 0) hold throughout the run and are left out.  None if the
        conflict has no literal at the current level, or is a flipped
        decision that an asserted literal contradicts."""
        p, why = self.conflict
        if why is None:
            return None
        trail, status, reason, position = self.trail, self.status, \
            self.reason, self.position
        seen: set[int] = set()
        lower: list[int] = []  # atoms below the current level
        count = 0  # atoms of the resolvent at the current level

        def add(atoms) -> None:
            nonlocal count
            for b in atoms:
                if b not in seen:
                    seen.add(b)
                    i = position[b]
                    if i >= cur:
                        count += 1
                    elif i >= lo:
                        lower.append(b)

        add(self._antecedents(p, why, len(trail)) + [p] * (p >= 0))
        if not count:
            return None
        # Resolve the current level's atoms, latest first, until one is
        # left.  An atom without a reason (the level's decision) stays, and
        # so resolution goes on past it: a literal asserted after the undo
        # may precede it in its level.
        kept: list[int] = []
        i = len(trail)
        while count > len(kept):
            i -= 1
            q = trail[i]
            if q not in seen:
                continue
            if count == 1 or reason[q] is None:
                kept.append(q)  # the first unique implication point
            else:
                count -= 1
                add(self._antecedents(q, reason[q], i))
        lower.sort(key=position.__getitem__, reverse=True)
        nogood = [a + a + status[a] - 1 for a in kept + lower]
        if len(nogood) > 1:
            for lit in nogood[:2]:
                self.watches.setdefault(lit, []).append(nogood)
        return nogood

    def _init(self) -> bool:
        # an atom without rules is false, and the head of a fact is true
        for a in range(self.n):
            if self.support[a] == 0 and a not in self.choice:
                self._assign(a, FALSE, _LOST)
        for r, h in enumerate(self.rhead):
            if self.need[r] == 0:
                if h == _NO_HEAD:
                    return False
                self._assign(h, TRUE, r)
        return self._propagate()

    def _unfounded(self) -> list[int]:
        """The greatest unfounded set among the loop atoms.

        A loop atom that is not false is founded when an alive rule derives
        it from choice atoms, atoms outside loops and founded loop atoms; the
        rest cannot be true in any answer set that extends the assignment.
        Atoms outside loops count as founded, because support counting
        already falsifies them when they lose their last rule.

        The check is incremental, with source pointers (smodels; clasp:
        Gebser, Kaufmann, Schaub, *Conflict-driven answer set solving: From
        theory to practice*, AIJ 2012).  It first unsources each `lost` atom
        whose source is still dead, and every atom founded through one of
        them; each atom still sourced is then founded, by induction over the
        order in which the sources were set.  The candidates are the
        unsourced atoms that are not false: each is pending or was just
        unsourced.  Each alive rule of a candidate counts the loop atoms of
        its positive body without a source, all before any candidate gets
        one: a count taken later would miss an atom already sourced, which
        still takes one from it.  A rule that counts none becomes the
        source of its head, and each atom that gets a source takes one from
        the count of every rule that `lwatch` lists for it, which makes a
        source of each rule whose count reaches 0.  That is the fixpoint of
        the definition above, started from the atoms still sourced: every
        candidate it founds gets a source, in the order of the fixpoint,
        and only those do, so the candidates left without one are the
        greatest unfounded set.  They stay pending.
        """
        src, bad, rhead, lwatch = self.src, self.bad, self.rhead, self.lwatch
        pending, stack = self.pending, []
        for a in self.lost:
            r = src[a]
            if r >= 0 and bad[r]:
                src[a] = -1
                stack.append(a)
        self.lost.clear()
        while stack:
            b = stack.pop()
            pending.append(b)
            for r in lwatch[b]:
                h = rhead[r]
                if src[h] == r:
                    src[h] = -1
                    stack.append(h)
        if not pending:
            return pending
        status, headw, rpos = self.status, self.headw, self.rpos
        candidates = {a for a in pending
                      if src[a] == -1 and status[a] != FALSE}
        waiting: dict[int, int] = {}  # rule -> body loop atoms not sourced
        founded = []  # (atom, its new source), set once every count is taken
        for a in candidates:
            for r in headw[a]:
                if bad[r]:
                    continue
                k = [src[b] for b in rpos[r]].count(-1)
                if not k:
                    founded.append((a, r))
                    break
                waiting[r] = k
        for a, r in founded:
            src[a] = r
            stack.append(a)
        while stack:
            for r in lwatch[stack.pop()]:
                k = waiting.get(r)
                if k is None:
                    continue
                waiting[r] = k - 1
                if k == 1:
                    h = rhead[r]
                    if src[h] == -1:
                        src[h] = r
                        stack.append(h)
        self.pending = [a for a in candidates if src[a] == -1]
        return self.pending

    def lower_bound(self, k: int) -> None:
        """Lower the bound of the last at-most group within the running
        search."""
        self.gbound[-1] = k

    def _at_most(self, g: int) -> bool:
        """False if group g has too many true members; at its bound, the
        undefined members are falsified."""
        if self.gcount[g] > self.gbound[g]:
            self.conflict = (-1, self.gtag[g])
            return False
        if self.gcount[g] == self.gbound[g]:
            for m in self.gmembers[g]:
                if self.status[m] == UNDEF:
                    self._assign(m, FALSE, self.gtag[g])
        return True

    def _within_bound(self) -> bool:
        """Apply the last group's bound again to a state the search has
        backtracked to: `lower_bound` may have lowered it since."""
        return not self.gbound or (self._at_most(-1) and self._propagate())

    def _pick(self) -> int:
        for a in self.order:
            if self.status[a] == UNDEF:
                return a
        return -1

    def run(self, budget: Optional[Budget], certify,
            facts=()) -> Iterator[set[int]]:
        """Yield every answer set that passes `certify`, with the external
        atoms in `facts` switched on and the other switches off
        (`_assume`).  However the run ends (exhausted, closed early, or by
        `BudgetExceeded`), the assignment is undone to `switched`, the mark
        after the last switch that it set, and the learned nogoods are
        dropped.  The budget's clock is read at decisions and at each total
        assignment, before it is certified and again after, since
        certification reads the whole program."""
        self.busy = True
        try:
            if self.base < 0:
                self._start()
            conflict = not (self.base_ok and self._assume(facts))
            # decision stack: (trail mark, atom, next value or 0 when
            # exhausted)
            stack: list[list[int]] = []
            while True:
                if not conflict:
                    unfounded = self.loop_atoms and self._unfounded()
                    if unfounded:
                        why = frozenset(unfounded)
                        conflict = not (all(self._assign(b, FALSE, why)
                                            for b in why)
                                        and self._propagate())
                        continue
                    a = self._pick()
                    if a < 0:
                        if budget is not None:
                            budget.check_time()
                        model = {i for i in range(self.n_model)
                                 if self.status[i] == TRUE}
                        if certify(model):
                            if budget is not None:
                                budget.check_time()
                            yield model
                        conflict, self.conflict = True, None
                    else:
                        if budget is not None:
                            budget.decide()
                        stack.append([len(self.trail), a, TRUE])
                        conflict = not (self._assign(a, FALSE, None)
                                        and self._propagate())
                else:
                    learned = self._learn(stack[0][0], stack[-1][0]) \
                        if stack and self.conflict else None
                    while stack and stack[-1][2] == 0:
                        stack.pop()
                    if not stack:
                        return
                    mark, a, val = stack[-1]
                    self._undo_to(mark)
                    stack[-1][2] = 0
                    conflict = not (self._reassert(mark, learned)
                                    and self._assign(a, val, None)
                                    and self._propagate()
                                    and self._within_bound())
        finally:
            self._undo_to(self.switched)
            self.watches.clear()
            self.implied.clear()
            self.busy = False
