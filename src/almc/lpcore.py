"""Embedded answer-set solver.

Programs are normal logic programs (rule heads, positive and
negation-as-failure body literals) extended with:

* *choice atoms* — atoms that may be freely included in a model without
  requiring rule support (the `{a}` idiom); generators for fluent values,
  action occurrences, and consistency-restoring switches are built from
  these;
* *constraints* — headless rules that forbid their bodies;
* *at-most-k groups* over sets of atoms (used for action-set cardinality
  and for the iterative-deepening loop of consistency-restoring search);
* *consistency-restoring rules* — rules that may be used only when the
  regular rules are inconsistent, applied in cardinality-minimal (default)
  or subset-minimal numbers.

The search is branch-and-propagate with a trail for backtracking.
Propagation implements forward rule firing, dead-rule support counting,
last-literal refutation for rules with a false head, and backchaining on a
unique remaining support.  Because unfounded loops are not propagated, every
total assignment is certified by an independent reduct + least-model check
(`is_answer_set`) before it is reported; the enumeration is therefore sound
and complete for finite programs.

Atoms are interned from arbitrary hashable keys; callers deal only in keys.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Hashable, Iterator, Optional

from almc.errors import BudgetExceeded

UNDEF, TRUE, FALSE = 0, 1, 2

_NO_HEAD = -1


@dataclass
class Budget:
    max_decisions: Optional[int] = None
    deadline: Optional[float] = None  # time.monotonic() value

    @staticmethod
    def of(max_decisions: Optional[int] = None,
           seconds: Optional[float] = None) -> "Budget":
        return Budget(max_decisions,
                      time.monotonic() + seconds if seconds else None)


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

    # ------------------------------------------------------------ solving

    def answer_sets(self, max_models: Optional[int] = None,
                    budget: Optional[Budget] = None,
                    prefer_true: bool = False) -> Iterator[frozenset]:
        """Answer sets of the regular rules, as frozensets of atom keys."""
        solver = _Search(self, (), set(), prefer_true)
        for model in solver.run(max_models, budget):
            yield frozenset(self.keys[a] for a in model)

    def solve_cr(self, max_models: Optional[int] = None,
                 budget: Optional[Budget] = None,
                 minimality: str = "card") -> list[tuple[frozenset, frozenset]]:
        """Models using a minimal set of consistency-restoring rules.

        Returns (model keys, applied rule indices) pairs.  With
        minimality="card" the applied sets all have the smallest workable
        cardinality; with "set" they are the subset-minimal ones.
        """
        regular = list(self.answer_sets(max_models, budget))
        if regular:
            return [(m, frozenset()) for m in regular]
        if not self.cr_rules:
            return []
        n = len(self.cr_rules)
        applied_atoms = []
        extra_rules = []
        base = len(self.keys)
        extra_choice = set()
        for i, (head, pos, neg) in enumerate(self.cr_rules):
            a = base + i
            applied_atoms.append(a)
            extra_choice.add(a)
            extra_rules.append((head, pos + (a,), neg))

        def models_with_bound(k: int):
            solver = _Search(self, tuple(extra_rules), extra_choice, False,
                             extra_atmost=[(tuple(applied_atoms), k)],
                             n_extra=n)
            out = []
            for model in solver.run(max_models, budget):
                applied = frozenset(a - base for a in model if a >= base)
                keys = frozenset(self.keys[a] for a in model if a < base)
                out.append((keys, applied))
            return out

        if minimality == "card":
            for k in range(1, n + 1):
                found = models_with_bound(k)
                if found:
                    return found
            return []
        # subset-minimal: collect everything, filter by inclusion
        found = models_with_bound(n)
        applied_sets = {a for _, a in found}
        minimal = {a for a in applied_sets
                   if not any(b < a for b in applied_sets)}
        return [(m, a) for m, a in found if a in minimal]

    def is_answer_set(self, model: set[int],
                      extra_rules=(), n_extra: int = 0,
                      extra_choice: frozenset = frozenset()) -> bool:
        """Reduct + least-model certification of a candidate."""
        rules = self.rules if not extra_rules else \
            list(self.rules) + list(extra_rules)
        n = len(self.keys) + n_extra
        choice = self.choice | set(extra_choice)
        # Constraint violation and reduct construction in one pass.
        derived = [False] * n
        queue = [a for a in choice if a in model]
        for a in queue:
            derived[a] = True
        # counting scheme over the reduct
        watch: list[list[int]] = [[] for _ in range(n)]
        need: list[int] = []
        heads: list[int] = []
        kept = 0
        for head, pos, neg in rules:
            if any(b in model for b in neg):
                continue  # dropped by the reduct
            if head == _NO_HEAD:
                if all(b in model for b in pos):
                    return False  # violated constraint
                continue
            need.append(0)
            heads.append(head)
            cnt = 0
            for b in pos:
                if not derived[b]:
                    watch[b].append(kept)
                    cnt += 1
            need[kept] = cnt
            if cnt == 0 and not derived[head]:
                derived[head] = True
                queue.append(head)
            kept += 1
        qi = 0
        while qi < len(queue):
            a = queue[qi]
            qi += 1
            for r in watch[a]:
                need[r] -= 1
                if need[r] == 0:
                    h = heads[r]
                    if not derived[h]:
                        derived[h] = True
                        queue.append(h)
        lm = {a for a in range(n) if derived[a]}
        return lm == set(model)


class _Search:
    """One enumeration over a program plus optional extra rules/atoms."""

    def __init__(self, program: Program, extra_rules, extra_choice: set[int],
                 prefer_true: bool, extra_atmost=None, n_extra: int = 0):
        self.program = program
        self.n = len(program.keys) + n_extra
        self.choice = program.choice | extra_choice
        self.prefer_true = prefer_true
        rules = list(program.rules) + list(extra_rules)
        self.extra_rules = tuple(extra_rules)
        self.n_extra = n_extra
        self.extra_choice = frozenset(extra_choice)

        self.rhead: list[int] = []
        self.rpos: list[tuple[int, ...]] = []
        self.rneg: list[tuple[int, ...]] = []
        self.posw: list[list[int]] = [[] for _ in range(self.n)]
        self.negw: list[list[int]] = [[] for _ in range(self.n)]
        self.headw: list[list[int]] = [[] for _ in range(self.n)]
        self.support = [0] * self.n
        for head, pos, neg in rules:
            r = len(self.rhead)
            self.rhead.append(head)
            self.rpos.append(pos)
            self.rneg.append(neg)
            for b in pos:
                self.posw[b].append(r)
            for b in neg:
                self.negw[b].append(r)
            if head != _NO_HEAD:
                self.headw[head].append(r)
                self.support[head] += 1

        groups = list(program.atmost) + list(extra_atmost or [])
        self.gmembers = [tuple(m) for m, _ in groups]
        self.gbound = [k for _, k in groups]
        self.gcount = [0] * len(groups)
        self.gwatch: list[list[int]] = [[] for _ in range(self.n)]
        for g, members in enumerate(self.gmembers):
            for a in members:
                self.gwatch[a].append(g)

        self.status = [UNDEF] * self.n
        self.need = [len(p) + len(ng)
                     for p, ng in zip(self.rpos, self.rneg)]
        self.dead = [False] * len(self.rhead)
        self.trail: list[tuple[int, int]] = []  # (tag, id)
        self.queue: list[int] = []

        # branch order: choice atoms first, then everything else
        order = sorted(self.choice) + \
            [a for a in range(self.n) if a not in self.choice]
        self.order = order

    # tags for the trail
    _T_ATOM, _T_NEED, _T_DEAD, _T_SUPP, _T_GCNT = range(5)

    def _assign(self, a: int, val: int) -> bool:
        s = self.status[a]
        if s != UNDEF:
            return s == val
        self.status[a] = val
        self.trail.append((self._T_ATOM, a))
        self.queue.append(a)
        return True

    def _kill(self, r: int) -> bool:
        if self.dead[r]:
            return True
        self.dead[r] = True
        self.trail.append((self._T_DEAD, r))
        h = self.rhead[r]
        if h == _NO_HEAD:
            return True
        self.support[h] -= 1
        self.trail.append((self._T_SUPP, h))
        if h in self.choice:
            return True
        s = self.support[h]
        if s == 0:
            if self.status[h] == TRUE:
                return False
            if self.status[h] == UNDEF:
                return self._assign(h, FALSE)
        elif s == 1 and self.status[h] == TRUE:
            return self._enforce_support(h)
        return True

    def _dec_need(self, r: int) -> bool:
        if self.dead[r]:
            return True
        self.need[r] -= 1
        self.trail.append((self._T_NEED, r))
        h = self.rhead[r]
        if self.need[r] == 0:
            if h == _NO_HEAD or self.status[h] == FALSE:
                return False
            return self._assign(h, TRUE)
        if self.need[r] == 1 and (h == _NO_HEAD or self.status[h] == FALSE):
            return self._refute_last(r)
        return True

    def _refute_last(self, r: int) -> bool:
        """Exactly one unsatisfied body literal remains: falsify it."""
        for b in self.rpos[r]:
            if self.status[b] == UNDEF:
                return self._assign(b, FALSE)
        for b in self.rneg[r]:
            if self.status[b] == UNDEF:
                return self._assign(b, TRUE)
        return True  # the remaining literal was handled concurrently

    def _enforce_support(self, a: int) -> bool:
        """`a` is true with a single alive candidate rule: satisfy its body."""
        alive = -1
        for r in self.headw[a]:
            if not self.dead[r]:
                alive = r
                break
        if alive < 0:
            return False
        for b in self.rpos[alive]:
            if self.status[b] == UNDEF and not self._assign(b, TRUE):
                return False
            if self.status[b] == FALSE:
                return False
        for b in self.rneg[alive]:
            if self.status[b] == UNDEF and not self._assign(b, FALSE):
                return False
            if self.status[b] == TRUE:
                return False
        return True

    def _on_true(self, a: int) -> bool:
        for r in self.negw[a]:
            if not self._kill(r):
                return False
        for r in self.posw[a]:
            if not self._dec_need(r):
                return False
        for g in self.gwatch[a]:
            self.gcount[g] += 1
            self.trail.append((self._T_GCNT, g))
            if self.gcount[g] > self.gbound[g]:
                return False
            if self.gcount[g] == self.gbound[g]:
                for m in self.gmembers[g]:
                    if self.status[m] == UNDEF and not self._assign(m, FALSE):
                        return False
        if a not in self.choice:
            s = self.support[a]
            if s == 0:
                return False
            if s == 1 and not self._enforce_support(a):
                return False
        return True

    def _on_false(self, a: int) -> bool:
        for r in self.posw[a]:
            if not self._kill(r):
                return False
        for r in self.negw[a]:
            if not self._dec_need(r):
                return False
        for r in self.headw[a]:
            if self.dead[r]:
                continue
            if self.need[r] == 0:
                return False
            if self.need[r] == 1 and not self._refute_last(r):
                return False
        return True

    def _propagate(self) -> bool:
        while self.queue:
            a = self.queue.pop()
            ok = self._on_true(a) if self.status[a] == TRUE \
                else self._on_false(a)
            if not ok:
                self.queue.clear()
                return False
        return True

    def _undo_to(self, mark: int) -> None:
        while len(self.trail) > mark:
            tag, x = self.trail.pop()
            if tag == self._T_ATOM:
                self.status[x] = UNDEF
            elif tag == self._T_NEED:
                self.need[x] += 1
            elif tag == self._T_DEAD:
                self.dead[x] = False
            elif tag == self._T_SUPP:
                self.support[x] += 1
            else:
                self.gcount[x] -= 1

    def _init(self) -> bool:
        for a in range(self.n):
            if self.support[a] == 0 and a not in self.choice \
                    and self.status[a] == UNDEF:
                if not self._assign(a, FALSE):
                    return False
        for r in range(len(self.rhead)):
            if self.need[r] == 0 and not self.dead[r]:
                h = self.rhead[r]
                if h == _NO_HEAD:
                    return False
                if not self._assign(h, TRUE):
                    return False
        return self._propagate()

    def _pick(self) -> int:
        for a in self.order:
            if self.status[a] == UNDEF:
                return a
        return -1

    def run(self, max_models: Optional[int],
            budget: Optional[Budget]) -> Iterator[set[int]]:
        if not self._init():
            return
        first = TRUE if self.prefer_true else FALSE
        second = FALSE if self.prefer_true else TRUE
        # decision stack: (trail mark, atom, next value or 0 when exhausted)
        stack: list[list[int]] = []
        found = 0
        decisions = 0
        conflict = False
        while True:
            if not conflict:
                a = self._pick()
                if a < 0:
                    model = {i for i in range(self.n)
                             if self.status[i] == TRUE}
                    if self.program.is_answer_set(
                            model, self.extra_rules, self.n_extra,
                            self.extra_choice):
                        yield model
                        found += 1
                        if max_models is not None and found >= max_models:
                            return
                    conflict = True
                else:
                    decisions += 1
                    if budget is not None:
                        if budget.max_decisions is not None \
                                and decisions > budget.max_decisions:
                            raise BudgetExceeded(
                                f"decision budget ({budget.max_decisions}) "
                                "exhausted")
                        if budget.deadline is not None \
                                and decisions % 64 == 0 \
                                and time.monotonic() > budget.deadline:
                            raise BudgetExceeded("time budget exhausted")
                    stack.append([len(self.trail), a, second])
                    if self._assign(a, first):
                        conflict = not self._propagate()
                    else:
                        conflict = True
            else:
                while stack and stack[-1][2] == 0:
                    self._undo_to(stack.pop()[0])
                if not stack:
                    return
                mark, a, val = stack[-1]
                self._undo_to(mark)
                stack[-1][2] = 0
                if self._assign(a, val):
                    conflict = not self._propagate()
                else:
                    conflict = True
