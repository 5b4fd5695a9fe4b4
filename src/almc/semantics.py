"""Grounding and transition-diagram semantics.

A `Grounder` pairs an action theory with one pre-model and produces ground
logic programs for the solver:

* statics, attributes, and hierarchy atoms are fixed by the pre-model, so
  they are evaluated away during grounding (partial evaluation);
* fluent atoms become value atoms ``('v', f, args, value, step)``; the
  negation `-p` is the value atom with value "false", and disequality
  ``f(args) != v`` becomes a derived atom ``('neq', f, args, v, step)`` with
  one defining rule per sibling value;
* one program shape covers everything: `build_program(horizon)` grounds the
  state constraints and definitions at steps 0..horizon and, when horizon is
  positive, adds dynamic causal laws, executability conditions, inertia with
  a domain guard, and the per-step closed-world assumption for defined
  fluents.  `horizon = 0` is exactly the single-state program.

Grounding is body-ordered, as in gringo (Gebser, Kaminski, König, Schaub,
*Advances in gringo series 3*, LPNMR 2011): a statement's variables are
bound in nested loops, and each literal is ground (`ground_lit`, the one
literal evaluator) as soon as its variables are bound, so a statically
false literal cuts off every binding below it.  What that takes from the
theory alone, the variables' order, the sorts that narrow each domain and
the literals ground at each depth, is a statement's *binding plan*
(`binding_plan`); each domain is asked of the pre-model whenever the
statement is bound.  Rule templates are ground in two stages.  The
*reads* stage (`reads`), the only one that walks the pre-model, binds each
statement over its static and comparison literals and keeps the surviving
bindings, less those the pre-model rules out: a static head that holds
discharges its rule, and a law's action must be an instance of the law's
sort.  The *template* stage grounds the fluent and occurrence literals of
those bindings and drops a binding at a statically false one.  A
binding's ground literals never depend on the step, so each
surviving binding becomes a step-free *rule template*, computed once per
grounder by its first `build_program` call, with each key numbered when a
kept rule first meets it; every call then adds the steps to the
templates, in statement, binding, step order, through per-step rows of
atom ids interned on first use.  A ground instance whose arithmetic has
no value (`X mod 0`) is dropped, as gringo drops it, and the budget's
deadline is read in both stages, while a program's rows are made, and once
per template and every few hundred steps while steps are added.

Pre-models come from `system_pre_models`, which grounds and solves one more
program per placement of the structure's objects: a grounder whose atoms
are the derived statics instead of the fluents grounds the rules that
derive static values (`statics_theory`), and each answer set completes the
placement into one pre-model, as the paper's translation into a logic
program decides these values.  A compiled system builds one grounder per
pre-model (`CompiledSystem.grounders`).  When the ground fluent instances,
values, actions and object constants are fixed, the template stage reads
nothing else from the pre-model.  So `program_key`, the reads and those
four, covers everything a history program or a diagram reads from a
pre-model, and it is computed without grounding a template: it records what
the grounding reads, not what it produces, as a verifying trace does
(Mokhov, Mitchell, Peyton Jones, *Build systems à la carte*, ICFP 2018).
Pre-models that differ only in what no rule reads, such as monkey's 8
placements, get equal keys.  A compiled system groups its grounders by key
(`CompiledSystem.groups`), and every task enumerates the states or grounds
the programs of a group once, so only the group's first grounder runs the
template stage.  The grounders of one system share their reads stage per
statement (`ReadsMemo`), which keeps the first pre-model's reading of
each: its sorts are named by its binding plan, its other queries are
recorded, and a later pre-model that answers them alike reuses the
reading instead of reading the statement again.  Sorts are compared by
member: where a placement only adds members to a sort or removes them,
the reading is reused when no binding of those members survives
(`_reads_alike`).  A later pre-model that cannot reuse it reads the
statement for itself alone.

Only the facts of a state change from one solve to the next, so each
program shape is ground once and solved many times with a state's facts
passed to the solver (`Program.answer_sets(facts=...)`): a grounder keeps
its horizon-0 program (`state_program()`) for state generation and for
every certification, and `compute_transitions` grounds one horizon-1
program for all its source states.  The solver keeps one search state and
one certifier index per program and makes the facts external atoms of that
search, so each of these solves only switches the facts of its state.

States are enumerated by adding free choices over the values of basic
fluents (with the companion domain atoms closed as "false unless a value
exists", so that every domain is settled) to a copy of the horizon-0
program.  Every candidate is then certified (`certify_state`): the
program with the candidate's non-defined atoms as facts must have exactly
one answer set, equal to the candidate.  A candidate read off an answer
set of a program that contains the state rules is always one answer set
of that program, so the check needs no search when the theory is
`stratified`, which makes the program stratified and so its answer set
unique: the test runs once per grounder, and nothing is read per
candidate.  Otherwise the program is solved for up to two answer sets,
and a candidate with two witnesses that the theory is not well-founded;
its diagram is kept even when no state is left, so that `states` and
`transitions` can mark it ``[not well-founded]``.  Each answer set is
read back in one pass (`ModelReader`).
"""

from __future__ import annotations

from almc.records import record, replace
from functools import cached_property
from itertools import chain, islice, product
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from almc.bat import (
    ActionTheory, CmpLit, DynLaw, Exec, FunLit, OccLit, _has_fluent_lit,
    lit_vars, term_vars,
)
from almc.errors import (
    BudgetExceeded, DiagnosticSink, SemanticError, Span,
)
from almc.lpcore import _NO_HEAD, Budget, Program
from almc.memo import ReadsMemo, TracedPreModel
from almc.modular import (
    PreModel, UndefinedArithmetic, Value, compare, enumerate_placements,
    eval_ground_term, structure_static_rules,
)
from almc.ontology import (
    ACTIONS, FALSE, TRUE, UNIVERSE, FuncInfo, dom_name,
)
from almc.syntax import ast

if TYPE_CHECKING:
    from almc.tasks import CompiledSystem

MAX_GROUND_INSTANCES = 2_000_000


# ------------------------------------------------------------ static truth

def hier_true(pm: PreModel, name: str, args: tuple[Value, ...]) -> bool:
    """Truth of a hierarchy literal.  Here and in `static_truth` the
    pre-model is read only through its query methods, which the reads
    stage records (`TracedPreModel`)."""
    sig = pm.sig
    if name == "instance":
        o, c = args
        return isinstance(c, str) and pm.is_instance(o, c)
    if name == "is_a":
        return pm.holds_is_a(*args)
    if name == "link":
        c1, c2 = args
        return c1 in sig.sorts and c2 in sig.parents(c1)
    if name == "subsort":
        c1, c2 = args
        return c1 in sig.sorts and c2 in sig.ancestors(c1)
    if name == "has_child":
        return any(args[0] in ps for ps in sig.sorts.values())
    if name == "has_parent":
        return args[0] in sig.sorts and bool(sig.parents(args[0]))
    if name == "source":
        return args[0] in sig.sorts \
            and not any(args[0] in ps for ps in sig.sorts.values())
    if name == "sink":
        return args[0] == UNIVERSE
    raise SemanticError(f"unknown hierarchy function {name}")


def static_truth(pm: PreModel, lit: FunLit,
                 argvals: tuple[Value, ...], val: Value) -> bool:
    """Ground truth of a static/attribute/hierarchy literal."""
    sig = pm.sig
    if lit.func not in sig.functions:  # hierarchy special function
        truth = hier_true(pm, lit.func, argvals)
        want = val == TRUE
        return (truth == want) if lit.op == "=" else (truth != want)
    info = sig.functions[lit.func]
    if info.dom_of is not None and not info.is_fluent:
        # domain of a static: true iff the base static has a value, as a
        # defined function always has
        defined = sig.functions[info.dom_of].is_defined \
            or pm.static_value(info.dom_of, argvals) is not None
        sv: Optional[Value] = TRUE if defined else FALSE
    else:
        sv = pm.static_value(lit.func, argvals)
        if sv is None and info.is_defined:
            sv = FALSE  # closed world for defined statics
    if sv is None:
        return False  # undefined: neither = nor != holds
    return (sv == val) if lit.op == "=" else (sv != val)


# ------------------------------------------------------------ grounder

@record(frozen=True)
class State:
    """A state: fluent part of an interpretation, as (f, args) -> value."""

    values: tuple[tuple[tuple, Value], ...]  # sorted ((f, args), value)

    def as_dict(self) -> dict:
        return dict(self.values)

    def value(self, f: str, args: tuple = ()) -> Optional[Value]:
        return next((v for key, v in self.values if key == (f, args)), None)

    def atoms(self) -> list[tuple[str, tuple, Value]]:
        return [(f, args, v) for (f, args), v in self.values]


# A rule template is a ground rule without its step: ``(lits, j)``.
# Each literal is a code ``2 * i + o``, which stands for the atom
# keys[i] + (step + o,) at an instantiating step, where keys are the
# step-free keys that `Grounder._ground_templates` numbers.  lits is the
# head (-1 makes a constraint), the positive body up to index j, then the
# negative body.  `Grounder.define_neqs` defines the disequality atoms
# among them after the templates are added.  A template is the tuple of
# rules added together at each step.

# The sources of a binding plan that are not sorts: the sort nodes, which a
# hierarchy literal's sort argument ranges over, and the actions, which an
# occurrence literal's action ranges over.
_NODES, _ACTIONS = 0, 1


@record(frozen=True, slots=True)
class BindingPlan:
    """What binding a statement's variables and grounding some of its
    literals takes from the theory alone (`Grounder.binding_plan`), kept
    per statement by a `ReadsMemo` for all the pre-models of a system."""

    names: tuple[str, ...]  # the variables, in binding order
    #: ``(variable position, source)`` in the order the domains are
    #: narrowed, a source being a sort key, `_NODES` or `_ACTIONS`
    narrows: tuple[tuple[int, object], ...]
    lits: tuple  # the literals to ground
    first: list[int]  # the positions of those with no variable
    stages: list[list[int]]  # of those whose last variable is names[d]
    #: the variables no literal gives a sort, an error once the domains are
    #: asked for
    missing: list[str]


#: A mask: steps are added to templates, and their rows made, in runs of
#: this many plus one between two readings of the budget's deadline.
_STEPS_PER_CHECK = 255


def _check_time(budget: Optional[Budget]) -> None:
    if budget is not None:
        budget.check_time()


class Grounder:
    def __init__(self, theory: ActionTheory, pm: PreModel,
                 sink: Optional[DiagnosticSink] = None,
                 atoms: Optional[frozenset[str]] = None):
        """`atoms` names the functions whose literals ground to atoms: the
        fluents by default, the derived statics for the statics program of
        `system_pre_models`.  Every other literal is decided by `pm`."""
        self.theory = theory
        self.pm = pm
        self.sig = theory.sig
        #: receives the warnings issued while the rule templates are built
        self.sink = sink
        # Ground instances of every atom function: argument tuples and value
        # domain, in signature order.
        self.tuples: dict[str, tuple[tuple[Value, ...], ...]] = {}
        self.values: dict[str, tuple[Value, ...]] = {}
        count = 0
        for f in self.sig.functions.values():
            if not (f.is_fluent if atoms is None else f.name in atoms):
                continue
            doms = [pm.sort_values(a, f.span) for a in f.args]
            size = 1
            for d in doms:
                size *= len(d)
            count += size
            if count > MAX_GROUND_INSTANCES:
                raise BudgetExceeded(
                    f"too many ground function instances (over "
                    f"{MAX_GROUND_INSTANCES}); bound your sorts")
            self.tuples[f.name] = tuple(product(*doms))
            self.values[f.name] = pm.sort_values(f.result, f.span)
        self.actions: list[Value] = list(pm.members.get(ACTIONS, ()))
        #: `reads`, computed on first use
        self._reads: Optional[tuple] = None
        #: rule templates by group, built by the first `build_program` call
        self._templates: Optional[tuple[tuple, ...]] = None
        self._state_program: Optional[Program] = None

    # ---------------------------------------------------- variable domains

    def binding_plan(self, stmt, lits) -> BindingPlan:
        """How `_bindings` binds the statement's variables and grounds
        `lits`, from the theory alone: each variable is bound in the order
        a literal of the statement first gives it a sort, over the values
        of that sort narrowed by every other sort a literal gives it, and
        each literal is ground once its last variable is bound."""
        sig = self.sig
        names: dict[str, int] = {}
        narrows: list[tuple[int, object]] = []

        def narrow(var: str, source) -> None:
            narrows.append((names.setdefault(var, len(names)), source))

        def from_funlit(lit: FunLit) -> None:
            info = sig.functions.get(lit.func)
            if info is not None:
                for a, sort in zip(lit.args, info.args):
                    if isinstance(a, ast.Var):
                        narrow(a.name, sort)
                if isinstance(lit.value, ast.Var):
                    narrow(lit.value.name, info.result)
                return
            # hierarchy functions
            if lit.func in ("instance", "is_a"):
                o, c = lit.args
                if isinstance(c, ast.Var):
                    narrow(c.name, _NODES)
                if isinstance(o, ast.Var):
                    positive = isinstance(lit.value, ast.Sym) \
                        and lit.value.name == TRUE and lit.op == "="
                    narrow(o.name, c.name if positive
                           and isinstance(c, ast.Sym) and sig.is_node(c.name)
                           else UNIVERSE)
            else:
                for a in lit.args:
                    if isinstance(a, ast.Var):
                        narrow(a.name, _NODES)

        law = isinstance(stmt, (DynLaw, Exec))
        head = getattr(stmt, "head", None)
        own = [*stmt.body, head] if isinstance(stmt, DynLaw) \
            else [*stmt.body] if law or head is None else [head, *stmt.body]
        if law and isinstance(stmt.act, ast.Var):
            narrow(stmt.act.name, stmt.sort)
        needed = term_vars(stmt.act) if law else set()
        seen: dict[int, set[str]] = {}  # id of a literal -> its variables
        for lit in own:
            if isinstance(lit, FunLit):
                from_funlit(lit)
            elif isinstance(lit, OccLit) and isinstance(lit.action, ast.Var):
                narrow(lit.action.name, _ACTIONS)
            needed |= seen.setdefault(id(lit), lit_vars(lit))
        # stages[d]: the literals whose last variable is the d-th bound
        stages: list[list[int]] = [[] for _ in range(len(names) + 1)]
        for i, lit in enumerate(lits):
            vs = seen[id(lit)] if id(lit) in seen else lit_vars(lit)
            stages[max([names.get(v, -1) + 1 for v in vs], default=0)
                   ].append(i)
        return BindingPlan(tuple(names), tuple(narrows), tuple(lits),
                           stages[0], stages[1:], sorted(needed - set(names)))

    def _domains(self, stmt, plan: BindingPlan) -> list[Sequence[Value]]:
        """The domains of the plan's variables, in binding order: the values of
        each one's first source less those missing from a later one, asked in
        narrowing order, which fixes the error reported first.  No other code
        of the reads stage asks for a sort (`static_truth`, `hier_true`,
        `_surviving`, `ground_lit` on static literals), so a reading's sorts
        are its plan's (`ReadsMemo`)."""
        pm, span = self.pm, stmt.span
        domains: list = [None] * len(plan.names)
        for j, source in plan.narrows:
            got = pm.sort_values(source, span) if isinstance(source, str) \
                else tuple(self.sig.sorts) if source is _NODES \
                else self.actions
            if domains[j] is None:
                domains[j] = got
            else:
                keep = set(got)
                domains[j] = [v for v in domains[j] if v in keep]
        if plan.missing:
            raise SemanticError(
                "cannot determine a sort for variable(s) "
                f"{', '.join(plan.missing)}", getattr(stmt, "span", Span()))
        size = 1
        for d in domains:
            size *= len(d)
            if size > MAX_GROUND_INSTANCES:
                raise BudgetExceeded(
                    "too many ground instances of a statement", stmt.span)
        return domains

    def _bindings(self, plan: BindingPlan, domains, budget: Optional[Budget]
                  ) -> Iterator[tuple[dict[str, Value], list]]:
        """Bind the plan's variables over `domains` in nested loops,
        grounding each of its literals (`ground_lit`) as soon as its
        variables are bound, so that a statically false literal cuts off
        every binding below it.  Yields ``(env, results)`` for each binding
        under which no literal is statically false; both are reused."""
        lits = plan.lits
        env: dict[str, Value] = {}
        results: list = [True] * len(lits)
        for i in plan.first:
            results[i] = self.ground_lit(lits[i], env)
            if results[i] is False:
                return iter(())
        if not plan.names:
            return iter([(env, results)])
        return self._bind(lits, plan.names, domains, plan.stages, env,
                          results, budget)

    def _bind(self, lits, names, domains, stages, env, results,
              budget: Optional[Budget]
              ) -> Iterator[tuple[dict[str, Value], list]]:
        """The nested loops of `_bindings`, one iterator per bound variable
        on a stack: a plain generator, which refers to no closure, so the
        grounder is freed by reference counting once it is dropped."""
        ground_lit = self.ground_lit
        last = len(names) - 1
        stack = [iter(domains[0])]
        while stack:
            d = len(stack) - 1
            name, stage = names[d], stages[d]
            for v in stack[d]:
                env[name] = v
                for i in stage:
                    r = ground_lit(lits[i], env)
                    if r is False:
                        break
                    results[i] = r
                else:
                    if d < last:
                        if d == 0:
                            _check_time(budget)
                        stack.append(iter(domains[d + 1]))
                        break
                    yield env, results
            else:
                stack.pop()

    # ---------------------------------------------------- literal grounding

    def eval_term(self, t: ast.Term, env: dict[str, Value]) -> Value:
        return eval_ground_term(t, self.pm.consts, env)

    def _typed(self, info: FuncInfo, argvals: tuple[Value, ...]) -> bool:
        return all(map(self.pm.is_instance, argvals, info.args))

    def ground_lit(self, lit, env: dict[str, Value]):
        """Ground one body literal under `env`: False if it is statically
        false (undefined arithmetic included), True if it holds with no
        atom, otherwise ``(step-free key, positive)``."""
        consts = self.pm.consts
        try:
            if isinstance(lit, FunLit):
                argvals = tuple([eval_ground_term(a, consts, env)
                                 for a in lit.args])
                val = eval_ground_term(lit.value, consts, env)
            elif isinstance(lit, CmpLit):
                return compare(lit.op, eval_ground_term(lit.lhs, consts, env),
                               eval_ground_term(lit.rhs, consts, env),
                               lit.span)
            else:
                return (("occ", eval_ground_term(lit.action, consts, env)),
                        not lit.neg)
        except UndefinedArithmetic:
            return False
        if lit.func not in self.tuples:
            return static_truth(self.pm, lit, argvals, val)
        info = self.sig.functions[lit.func]
        if not self._typed(info, argvals):
            return False
        if val not in self.values[lit.func]:
            if lit.op == "=":
                return False
            # f(args) != v with v outside the range: holds iff f defined
            return (("v", dom_name(lit.func), argvals, TRUE), True) \
                if info.args else True
        if lit.op == "=":
            return (("v", lit.func, argvals, val), True)
        return (("neq", lit.func, argvals, val), True)

    # ---------------------------------------------------- rule templates

    def _is_static_lit(self, lit) -> bool:
        """Is the body literal decided by the pre-model alone: a comparison
        literal, or a static, attribute or hierarchy literal that grounds to
        no atom?"""
        return isinstance(lit, CmpLit) or \
            isinstance(lit, FunLit) and not self._is_atom_lit(lit)

    def _read_bindings(self, budget: Optional[Budget],
                       memo: Optional[ReadsMemo] = None) -> tuple:
        """The reads stage, the only one that walks the pre-model: the
        reads entry of each statement (`_read_statement`), in the order
        state constraints, definitions, dynamic laws, executability
        conditions.  With a `memo`, the pre-model is read through a
        `TracedPreModel`, the binding plans are the memo's, and an entry is
        reused when the pre-model answers the entry's recorded queries
        alike and its plan's sorts differ at most in members whose bindings
        would not survive (`_reads_alike`).  The budget's clock is read
        before each statement, computed or reused."""
        th, pm = self.theory, self.pm
        if memo is not None:
            self.pm = TracedPreModel(pm)
        try:
            out = []
            for i, stmt in enumerate(chain(th.constraints, th.definitions,
                                           th.dynamic, th.executability)):
                _check_time(budget)
                if memo is None:
                    plan = self.reads_plan(stmt)
                    out.append(self._read_statement(
                        stmt, plan, self._domains(stmt, plan), budget))
                else:
                    out.append(memo.read(self, i, stmt, budget))
            return tuple(out)
        finally:
            self.pm = pm

    def reads_plan(self, stmt) -> BindingPlan:
        """The binding plan of the reads stage: the statement's static and
        comparison literals."""
        return self.binding_plan(
            stmt, [lit for lit in stmt.body if self._is_static_lit(lit)])

    def _read_statement(self, stmt, plan: BindingPlan, domains,
                        budget: Optional[Budget]) -> tuple:
        """One statement's reads entry: the pair ``(names, bindings)`` of
        its variables and of the bindings, each the tuple of its variables'
        values, that survive the statement's static and comparison literals
        (`_bindings` by its reads plan over `domains`) and its pre-model
        checks (`_surviving`), in binding order."""
        kept = tuple(self._surviving(stmt, plan, domains, budget))
        return (plan.names if kept else (), kept)

    def _surviving(self, stmt, plan: BindingPlan, domains,
                   budget: Optional[Budget]) -> Iterator[tuple]:
        """The bindings over `domains` that survive the statement's static
        literals and its pre-model checks.  A binding whose static head
        holds is dropped, as the rule is discharged, and so is a law's
        binding whose action is not an instance of its sort.  An action
        that is a variable needs no check: its domain is narrowed from the
        members of that sort first (`binding_plan`), and a node's members
        are exactly its instances."""
        pm = self.pm
        head = getattr(stmt, "head", None)
        static_head = head is not None and not self._is_atom_lit(head)
        law = isinstance(stmt, (DynLaw, Exec))
        typed = law and isinstance(stmt.act, ast.Var)
        for env, _ in self._bindings(plan, domains, budget):
            try:
                if law:
                    if not typed and not pm.is_instance(
                            self.eval_term(stmt.act, env), stmt.sort):
                        continue
                elif static_head and static_truth(
                        pm, head, tuple(self.eval_term(a, env)
                                        for a in head.args),
                        self.eval_term(head.value, env)):
                    continue
            except UndefinedArithmetic:
                continue
            yield tuple(env.values())

    def _reads_alike(self, stmt, plan: BindingPlan, old: tuple,
                     read: tuple, budget: Optional[Budget]) -> bool:
        """Would reading `stmt` give the reads entry `read` again?  `read`
        was read from a pre-model that gave the plan's variables the
        domains `old` and answered every recorded query as this one does
        (`ReadsMemo`), though some of the plan's sorts have other members.

        Here the domains are narrowed as by every reading (`_domains`): a
        variable none of whose sorts moved gets an equal domain, and any
        other changes at most by members removed and added.  The reading
        visits the bindings over the members common to both, which keep
        their order, exactly as before, asks the same queries under them
        and gets the same answers, so they survive as before.  So the entry
        is `read` again if no removed member has a surviving binding in
        `read` and no binding that takes an added member survives here.
        Only those bindings are evaluated: for each variable, those that
        take an added member there, common members before it and any
        member after it."""
        new = self._domains(stmt, plan)
        kept = read[1]
        common, added = [], []
        for j, (was, now) in enumerate(zip(old, new)):
            if was == now:
                common.append(now)
                added.append(())
                continue
            had, has = set(was), set(now)
            common.append([v for v in now if v in had])
            if common[j] != [v for v in was if v in has]:
                return False
            gone = had - has
            if gone and any(b[j] in gone for b in kept):
                return False
            added.append([v for v in now if v not in had])
        return not any(
            next(self._surviving(stmt, plan, [*common[:j], more, *new[j + 1:]],
                                 budget), None) is not None
            for j, more in enumerate(added) if more)

    def reads(self, budget: Optional[Budget] = None,
              memo: Optional[ReadsMemo] = None) -> tuple:
        """The reads stage (`_read_bindings`), run on first use, through
        `memo` if one is given, and kept."""
        if self._reads is None:
            self._reads = self._read_bindings(budget, memo)
        return self._reads

    def _completed(self, stmt, read: tuple, budget: Optional[Budget]
                   ) -> Iterator[tuple[dict[str, Value], list]]:
        """The template stage of one statement: each binding of its reads
        entry `read` (`_read_bindings`) with its fluent and occurrence
        literals ground (`ground_lit`), unless one is statically false, as
        ``(env, results)`` in body order, both reused as in `_bindings`."""
        names, kept = read
        lits = stmt.body
        later = [i for i, lit in enumerate(lits)
                 if not self._is_static_lit(lit)]
        env: dict[str, Value] = {}
        results: list = [True] * len(lits)
        ground_lit = self.ground_lit
        for n, values in enumerate(kept):
            if not n & 255:
                _check_time(budget)
            env.update(zip(names, values))
            for i in later:
                r = ground_lit(lits[i], env)
                if r is False:
                    break
                results[i] = r
            else:
                yield env, results

    def _ground_templates(self, budget: Optional[Budget]
                          ) -> tuple[list, tuple[tuple, ...]]:
        """The template stage: the step-free keys, in the order first met,
        and the rule templates of every binding of the reads (`reads`)
        whose fluent and occurrence literals are not statically false, and
        of the fixed rules, in six groups that `build_program` instantiates
        over different step ranges.  A rule's keys are numbered once the
        rule is kept, head first, so that every key is used.  Beyond the
        reads, they depend only on `program_key`'s fluent instances, values
        and constants."""
        th = self.theory
        ids: dict[tuple, int] = {}
        keys: list = []

        def num(key: tuple, o: int = 0) -> int:
            i = ids.get(key)
            if i is None:
                i = ids[key] = len(keys)
                keys.append(key)
            return 2 * i + o

        def rule(head: int, pos, neg=()) -> tuple:
            return ((head, *pos, *neg), 1 + len(pos))

        def kept(head: int, results, pos=()) -> tuple:
            """The rule of a kept binding: `head`, `pos`, then the body's
            positive and negative keys (`ground_lit` results), in order."""
            return rule(head, [*pos, *(num(r[0]) for r in results
                                       if r is not True and r[1])],
                        [num(r[0]) for r in results
                         if r is not True and not r[1]])

        reads = iter(self.reads(budget))
        state: list = []
        for stmt in th.constraints + th.definitions:
            head = stmt.head
            static_head = head is not None and not self._is_atom_lit(head)
            for env, results in self._completed(stmt, next(reads), budget):
                if head is None or static_head:
                    # the reads stage dropped a binding whose static head
                    # holds: what is left is a plain constraint
                    state.append((kept(-1, results),))
                    continue
                try:
                    argvals = tuple(self.eval_term(a, env) for a in head.args)
                    val = self.eval_term(head.value, env)
                except UndefinedArithmetic:
                    continue
                info = self.sig.functions[head.func]
                if not self._typed(info, argvals) \
                        or val not in self.values[head.func]:
                    if self.sink is not None:
                        self.sink.warning(
                            f"ill-typed head {head.func}"
                            f"({', '.join(map(str, argvals))}) = {val}; "
                            "rule treated as a constraint", stmt.span)
                    state.append((kept(-1, results),))
                    continue
                state.append((kept(num(("v", head.func, argvals, val)),
                                   results),))

        dynamic: list = []
        for stmt in th.dynamic:
            for env, results in self._completed(stmt, next(reads), budget):
                try:
                    act = self.eval_term(stmt.act, env)
                    argvals = tuple(self.eval_term(a, env)
                                    for a in stmt.head.args)
                    val = self.eval_term(stmt.head.value, env)
                except UndefinedArithmetic:
                    continue
                info = self.sig.functions[stmt.head.func]
                if not self._typed(info, argvals) \
                        or val not in self.values[stmt.head.func]:
                    continue
                dynamic.append((kept(
                    num(("v", stmt.head.func, argvals, val), 1), results,
                    (num(("occ", act)),)),))

        executable: list = []
        for stmt in th.executability:
            for env, results in self._completed(stmt, next(reads), budget):
                act = self.eval_term(stmt.act, env)
                executable.append((kept(-1, results, (num(("occ", act)),)),))

        # closed world assumption for defined functions
        closed = [(rule(num(("v", f, args, FALSE)), (),
                        (num(("v", f, args, TRUE)),)),)
                  for f, args_list in self.tuples.items()
                  if self.sig.functions[f].is_defined
                  for args in args_list]

        # a function has at most one value
        unique: list = []
        for fname, args_list in self.tuples.items():
            vals = self.values[fname]
            if len(vals) < 2:
                continue
            for args in args_list:
                codes = [num(("v", fname, args, v)) for v in vals]
                unique.extend((((-1, a, b), 3),)
                              for i, a in enumerate(codes)
                              for b in codes[i + 1:])

        # inertia for basic fluents
        inertia: list = []
        for f in map(self.sig.functions.get, self.tuples):
            if f.kind != "basic fluent":
                continue
            if f.dom_of is not None:
                for args in self.tuples[f.name]:
                    t, u = ("v", f.name, args, TRUE), ("v", f.name, args, FALSE)
                    inertia.append((rule(num(t, 1), (num(t),), (num(u, 1),)),
                                    rule(num(u, 1), (num(u),), (num(t, 1),))))
                continue
            dn = dom_name(f.name) if f.args else None
            for args in self.tuples[f.name]:
                for v in self.values[f.name]:
                    key = ("v", f.name, args, v)
                    h = num(key, 1)  # head first, as in every rule
                    guard = (num(("v", dn, args, TRUE), 1),) if dn else ()
                    neq = num(("neq", f.name, args, v), 1)
                    inertia.append((rule(h, (*guard, num(key)), (neq,)),))
        return keys, tuple(map(tuple, (state, dynamic, executable, closed,
                                       unique, inertia)))

    # ---------------------------------------------------- program assembly

    def build_program(self, horizon: int,
                      budget: Optional[Budget] = None) -> Program:
        """The ground program for steps 0..horizon.

        The first call grounds the rule templates (`_ground_templates`);
        every call adds each template at each step of its group's range,
        template by template, so the rules come in statement, binding, step
        order, and interns each atom when first met, head before body.
        Then `define_neqs` (from mark 0) defines every disequality atom.  The
        budget's deadline is checked while templates are ground, while the
        rows of the steps are made, and once per template and every
        `_STEPS_PER_CHECK` + 1 steps while they are added, so that a huge
        horizon stops before its memory grows.  A horizon whose steps times
        step-free keys, at least one, exceed `MAX_GROUND_INSTANCES` is
        refused before any row is made."""
        if self._templates is None:
            self._templates = self._ground_templates(budget)
        keys, groups = self._templates
        h = horizon
        if (h + 1) * max(len(keys), 1) > MAX_GROUND_INSTANCES:
            raise BudgetExceeded(
                f"horizon {h} would ground over {MAX_GROUND_INSTANCES} atoms "
                "or steps; use a smaller horizon")
        ranges = (range(h + 1), range(h), range(max(h, 1)), range(h + 1),
                  range(h + 1), range(h))
        prog = Program()
        atom, add = prog.atom, prog.rules.append
        # rows[s][2 * i + o] is the atom of key i at step s + o, None until
        # first met; the spare last slot is the head of every constraint
        row = [None] * (2 * len(keys)) + [_NO_HEAD]
        rows = []
        for step in range(h + 1):
            if not step & _STEPS_PER_CHECK:
                _check_time(budget)
            rows.append(row.copy())
        for templates, steps in zip(groups, ranges):
            for template in templates:
                _check_time(budget)
                for step in steps:
                    if step & _STEPS_PER_CHECK == _STEPS_PER_CHECK:
                        _check_time(budget)
                    get = rows[step].__getitem__
                    for lits, j in template:
                        ids = tuple(map(get, lits))
                        if None in ids:
                            # intern the atoms first met here, head first
                            for c in lits:
                                if get(c) is None:
                                    t = step + (c & 1)
                                    rows[t][c & -2] = a = \
                                        atom(keys[c >> 1] + (t,))
                                    if t:
                                        rows[t - 1][c | 1] = a
                            ids = tuple(map(get, lits))
                        add((ids[0], ids[1:j], ids[j:]))
        self.define_neqs(prog)
        return prog

    def state_program(self, budget: Optional[Budget] = None) -> Program:
        """The horizon-0 program, ground on first use and then shared:
        solve it with a state's facts (`state_facts`), or extend a copy."""
        if self._state_program is None:
            self._state_program = self.build_program(0, budget)
        return self._state_program

    def program_key(self, budget: Optional[Budget] = None,
                    memo: Optional[ReadsMemo] = None) -> tuple:
        """Everything a history program reads from the pre-model: the
        bindings that survive each statement's static literals and
        pre-model checks (`reads`), the ground fluent instances
        and values, the actions and the object constants.  The rule
        templates are a function of this key, so grounders with equal keys
        ground equal programs at every horizon.  Computed without grounding
        a template or a program, once per grounder by a compiled system
        (`CompiledSystem.groups`), whose grounders share one `memo`: each
        statement is read once and then checked per pre-model by the
        queries its reading made."""
        return (self.reads(budget, memo), tuple(self.tuples.items()),
                tuple(self.values.items()), tuple(self.actions),
                tuple(self.pm.consts.items()))

    def define_neqs(self, prog: Program, since: int = 0) -> None:
        """Define each disequality atom ``('neq', f, args, v, step)`` that
        `prog` interned from atom id `since` on (the range is read once, at
        the start), in atom order, by one rule per sibling value of f.

        Each disequality atom of a solved program is so defined once: only
        `build_program` (from mark 0) and the later additions to its
        program (`tasks._ground_history` and `find_plans`' goal, each from
        the program's size before its rules) intern one, and each of them
        calls this.  An atom before an addition's mark was defined by
        whoever interned it; the sibling atoms made here are not neq atoms."""
        keys, atom, add = prog.keys, prog.atom, prog.rules.append
        for a in range(since, len(keys)):
            if keys[a][0] != "neq":
                continue
            _, fname, args, v, step = keys[a]
            for w in self.values[fname]:
                if w != v:
                    add((a, (atom(("v", fname, args, w, step)),), ()))

    def _is_atom_lit(self, lit: FunLit) -> bool:
        return lit.func in self.tuples

    # ---------------------------------------------------- state machinery

    @cached_property
    def stratified(self) -> bool:
        """`stratified` of the theory, computed on the first
        certification and not once per state."""
        return stratified(self.theory)

    def basic_nondom_fluents(self) -> list[FuncInfo]:
        return [f for f in self.sig.functions.values()
                if f.kind == "basic fluent" and f.dom_of is None]

    def add_generation(self, prog: Program, step: int = 0) -> None:
        """Free choices over basic fluent values plus domain closure."""
        for f in self.basic_nondom_fluents():
            for args in self.tuples[f.name]:
                for v in self.values[f.name]:
                    prog.add_choice(("v", f.name, args, v, step))
        for f in self.sig.functions.values():
            if f.kind == "basic fluent" and f.dom_of is not None:
                for args in self.tuples[f.name]:
                    prog.add_rule(
                        prog.atom(("v", f.name, args, FALSE, step)), (),
                        (prog.atom(("v", f.name, args, TRUE, step)),))

    def state_facts(self, state: State, step: int) -> list[tuple]:
        """The value atoms of the state's non-defined fluents at `step`."""
        return [("v", f, args, v, step) for f, args, v in state.atoms()
                if not self.sig.functions[f].is_defined]

    @cached_property
    def state_reader(self) -> "ModelReader":
        """The reader of the state program and of the generation programs
        made from it."""
        return ModelReader(self, 0)


class ModelReader(dict):
    """Reads an answer set of a grounder's programs in one pass: into the
    values of steps `first`..`horizon`, each as the `values` of a `State`,
    and the action sets of steps 0..horizon-1.  It maps each atom key, on
    its first use, to ``(step - first, position, ((f, args), value))`` for
    a value atom of a step that is read, ``(step, -1, action)`` for an
    occurrence before `horizon`, and None for any other atom.  A step's
    values are put at their instances' positions in sorted order, so they
    come out in `State` order without a sort."""

    def __init__(self, g: Grounder, horizon: int, first: int = 0):
        self.positions = {inst: i for i, inst in enumerate(sorted(
            (f, args) for f, ts in g.tuples.items() for args in ts))}
        self.horizon, self.first = horizon, first

    def __missing__(self, key: tuple):
        entry = None
        if key[0] == "v" and key[4] >= self.first:
            inst = key[1], key[2]
            entry = (key[4] - self.first, self.positions[inst],
                     (inst, key[3]))
        elif key[0] == "occ" and key[2] < self.horizon:
            entry = (key[2], -1, key[1])
        self[key] = entry
        return entry

    def __call__(self, model: frozenset
                 ) -> tuple[list[tuple], list[frozenset]]:
        width = len(self.positions)
        rows = [[None] * width for _ in range(self.first, self.horizon + 1)]
        acts: list[list] = [[] for _ in range(self.horizon)]
        for entry in map(self.__getitem__, model):
            if entry is not None:
                step, i, item = entry
                if i < 0:
                    acts[step].append(item)
                else:
                    rows[step][i] = item
        return ([tuple(filter(None, row)) for row in rows],
                list(map(frozenset, acts)))


@record
class StateSpace:
    states: list[State]
    well_founded: bool
    #: fluent assignments whose definitional check found several answer sets
    ambiguous: list[State]


def enumerate_states(g: Grounder, budget: Optional[Budget] = None
                     ) -> StateSpace:
    """States of the diagram defined by `g.pm`, each certified.  Distinct
    answer sets of the generation program give distinct candidates, so
    none is certified twice.  Proof: the program's atoms are value and
    disequality atoms of step 0 and occurrence atoms of executability
    conditions.  No rule derives an occurrence and none is a choice, so no
    answer set holds one, and only `define_neqs` derives a disequality
    atom, which so holds exactly when a sibling value does.  An answer set
    is thus fixed by its values, of which each fluent instance has at most
    one (the uniqueness constraints), and they are its candidate."""
    gen = g.state_program(budget).copy()
    g.add_generation(gen, 0)
    read = g.state_reader
    states: list[State] = []
    ambiguous: list[State] = []
    for model in gen.answer_sets(budget=budget):
        cand = State(read(model)[0][0])
        verdict = certify_state(g, cand, budget)
        if verdict == "state":
            states.append(cand)
        elif verdict == "ambiguous":
            ambiguous.append(cand)
    states.sort(key=lambda s: s.values)
    return StateSpace(states, well_founded=not ambiguous, ambiguous=ambiguous)


def stratified(theory: ActionTheory) -> bool:
    """Does no cycle of the theory's fluent dependencies pass through a
    negated defined function?

    The edges go from the head of each definition, and of each state
    constraint whose head is a fluent, to every function its body reads.
    An edge is negative when it reads a defined function other than as
    ``= true`` or ``!= false``: a false defined atom holds by the closed
    world assumption, and so does ``d != true``, while a false basic atom
    is an atom like any other.  Basic-headed state constraints count, as
    a negated defined fluent can reach its own definition through a basic
    fluent that no state fixes (`certify_state` has an example)."""
    fns = theory.sig.functions
    edges: dict[str, set[tuple[str, bool]]] = {}
    for clause in chain(theory.definitions, theory.constraints):
        head = clause.head
        if head is None or not (fns[head.func].is_defined
                                or fns[head.func].is_fluent):
            continue
        for lit in clause.body:
            if not isinstance(lit, FunLit) or lit.func not in fns:
                continue
            positive = not fns[lit.func].is_defined or (
                isinstance(lit.value, ast.Sym)
                and (lit.op == "=") == (lit.value.name == TRUE))
            edges.setdefault(head.func, set()).add((lit.func, not positive))
    # look for a cycle containing a negative edge
    for start in edges:
        stack = [(start, False)]
        seen: set[tuple[str, bool]] = set()
        while stack:
            node, has_neg = stack.pop()
            for nxt, negated in edges.get(node, ()):
                flag = has_neg or negated
                if nxt == start and flag:
                    return False
                if (nxt, flag) not in seen:
                    seen.add((nxt, flag))
                    stack.append((nxt, flag))
    return True


def certify_state(g: Grounder, cand: State, budget: Optional[Budget] = None,
                  derived: bool = True) -> str:
    """Definitional check: 'state', 'ambiguous' (several answer sets), or
    'rejected'.  The full check solves the horizon-0 program Π with the
    candidate's non-defined atoms F as facts: the candidate is a state if
    Π ∪ F has exactly one answer set, equal to the candidate, and every
    basic fluent's domain is settled.

    Precondition: the candidate is the value atoms at a step t of an
    answer set M of a program that contains Π's rules at step t and whose
    other rules derive no defined atom of step t, and no disequality atom
    of step t except by `define_neqs`; and M settles every basic fluent's
    domain at step t.  The generation program of `enumerate_states` meets
    it, and so does a history program of `temporal_project`, except at
    step 0 when the history observes a defined fluent there: that
    observation is a fact, and the caller passes ``derived=False`` to get
    the full check, which needs only the precondition's domain part.

    Both callers settle the domains.  The generation program closes each
    domain atom: ``dom_f(x̄) = false`` unless it is true (`add_generation`).
    A history program closes it at step 0 by its default, as each dom_f is
    a boolean basic fluent (`_ground_history`), and dom inertia carries
    that to every later step: a value of dom_f(x̄) at step s holds at s+1
    unless the other value does.  So the candidate, M's values at step t,
    settles every domain, and the full check's domain test always passes.

    Under the precondition, when the theory is `stratified`, the verdict
    needs no search: 'state'.

    Proof.  Let N be the atoms of Π (at step t) true in M.  Π's rules
    mention step t only, so N satisfies the reduct Π^N, as M satisfies its
    own.  Each atom of N is in F, or is a defined atom, which only Π's
    rules derive in M, or a disequality atom, which holds iff a sibling
    value does, as in Π; by induction on its derivation in M it is in the
    least model of Π^N ∪ F.  So N is an answer set of Π ∪ F, and its value
    atoms are the candidate.  It is the only one: give each fluent f a
    level L(f) no lower than its body's and higher than its negated body's
    (`stratified` says one exists), and put f's atoms at 2·L(f), except a
    defined d's false atoms and ``d != true`` at 2·L(d)+1.  The only
    negation in Π is the closed world assumption, d = false if not
    d = true, so Π ∪ F is stratified and has at most one answer set (Apt,
    Blair, Walker, *Towards a theory of declarative knowledge*, 1988);
    constraints can only remove it.  So the full check finds one answer
    set, the candidate.

    Stratified definitions alone are not enough: with ``d1 if b.``,
    ``d2 if -d1.`` and the state constraint ``b if -d2.``, where `b` is a
    basic fluent with no value in the candidate, Π ∪ F has a second answer
    set, which derives `b` from ``-d2``."""
    if derived and g.stratified:
        return "state"
    answers = list(g.state_program(budget).answer_sets(
        max_models=2, budget=budget, facts=g.state_facts(cand, 0)))
    if len(answers) != 1:
        return "ambiguous" if len(answers) == 2 else "rejected"
    return "state" if g.state_reader(answers[0])[0][0] == cand.values \
        else "rejected"


Transition = tuple[int, frozenset, int]


def compute_transitions(g: Grounder, states: list[State],
                        action_sets: str = "singleton",
                        budget: Optional[Budget] = None) -> list[Transition]:
    """Transitions between the given states, as (from, actions, to) triples.

    `action_sets` is "singleton" (the empty set and singletons) or
    "powerset"; any other value raises `ValueError`.  A model's target is
    the state whose `values` are its step-1 values (`ModelReader`).  No
    triple repeats: a certified state's step-0 part is the one answer set
    of the horizon-0 program with its facts, and neq and dom atoms follow
    from values, so two models differ in their actions or step-1 values."""
    if action_sets not in ("singleton", "powerset"):
        raise ValueError(f"unknown action_sets {action_sets!r}")
    index = {s.values: i for i, s in enumerate(states)}
    out: list[Transition] = []
    prog = g.build_program(1, budget)
    occ_keys = [("occ", a, 0) for a in g.actions]
    for k in occ_keys:
        prog.add_choice(k)
    if action_sets == "singleton":
        prog.add_atmost(occ_keys, 1)
    read = ModelReader(g, 1, first=1)
    for i, s0 in enumerate(states):
        for model in prog.answer_sets(budget=budget,
                                      facts=g.state_facts(s0, 0)):
            (values,), (acts,) = read(model)
            j = index.get(values)
            if j is not None:  # else not a certified state: no transition
                out.append((i, acts, j))
    return out


@record
class Diagram:
    states: list[State]
    transitions: list[Transition]
    well_founded: bool


def statics_theory(theory: ActionTheory, structure: ast.Structure,
                   sink: DiagnosticSink) -> tuple[ActionTheory, frozenset]:
    """The rules that derive static values, and the derived statics: the
    structure's `values of statics`, then the state constraints and the
    definitions that mention no fluent, less the domain definitions of the
    statics that no rule derives.  The derived statics are the other rules'
    heads and their domains; every other static is fixed by the placement."""
    sig = theory.sig
    rules = [r for r in chain(structure_static_rules(theory, structure, sink),
                              theory.constraints, theory.definitions)
             if not _has_fluent_lit(r.body, sig) and
             (r.head is None or not sig.functions[r.head.func].is_fluent)]
    heads = {r.head.func for r in rules if r.head is not None
             and sig.functions[r.head.func].dom_of is None}
    derived = heads | {dom_name(f) for f in heads if sig.functions[f].args}
    rules = [r for r in rules if r.head is None or r.head.func in derived]
    return ActionTheory(sig, [], rules, [], []), frozenset(derived)


def system_pre_models(theory: ActionTheory, structure: ast.Structure,
                      sink: DiagnosticSink,
                      budget: Optional[Budget] = None) -> list[PreModel]:
    """Each placement (`enumerate_placements`) completed by each answer set
    of its statics program, in placement and answer-set order.

    The statics program is the horizon-0 program of a grounder over
    `statics_theory` whose atoms are the derived statics, as fluents are in
    a state program, with the structure's values of them as facts.
    Stratified definitions give one answer set; conflicting statics give
    none.  Placements with equal program keys and facts share one program
    and its answer sets, and the grounders of several placements share one
    `ReadsMemo`.  The budget is read for every placement and while a
    program is ground and solved."""
    rules, derived = statics_theory(theory, structure, sink)
    sig = theory.sig
    solved: dict[tuple, list] = {}
    out = []
    placements = enumerate_placements(sig, structure, sink)
    ahead = list(islice(placements, 2))
    memo = ReadsMemo() if len(ahead) > 1 else None
    for n, pm in enumerate(chain(ahead, placements)):
        _check_time(budget)
        # a fluent sort's error first; it depends on the sort and the
        # constants alone, so the first placement finds it for all
        for f in sig.functions.values() if not n else ():
            for key in (*f.args, f.result) if f.is_fluent else ():
                pm.sort_values(key, f.span)
        g = Grounder(rules, pm, sink, derived)
        facts = tuple(("v", f, args, v, 0)
                      for (f, args), v in pm.statics.items() if f in derived)
        group = (g.program_key(budget, memo), facts)
        if group not in solved:
            prog = g.build_program(0, budget)
            for fact in facts:
                prog.add_fact(fact)
            # domains and false defined statics are read off (`static_truth`)
            kept = [k for k in prog.keys if k[0] == "v"
                    and sig.functions[k[1]].dom_of is None
                    and not (k[3] == FALSE and sig.functions[k[1]].is_defined)]
            solved[group] = [[(k[1:3], k[3]) for k in kept if k in model]
                             for model in prog.answer_sets(budget=budget)]
        out.extend(replace(pm, statics={**pm.statics, **dict(values)})
                   for values in solved[group])
    return out


def build_diagrams(cs: CompiledSystem, action_sets: str = "singleton",
                   budget: Optional[Budget] = None,
                   with_transitions: bool = True) -> list[Diagram]:
    """One diagram per pre-model with a non-empty set of states, or with
    a candidate that is not well-founded, in pre-model order.  The
    pre-models of a group (`cs.groups`) ground equal programs, so the
    first one's diagram is every member's."""
    shared: dict[Grounder, Diagram] = {}
    for group in cs.groups:
        g = group[0]
        space = enumerate_states(g, budget)
        trans = (compute_transitions(g, space.states, action_sets, budget)
                 if with_transitions and space.states else [])
        shared.update(dict.fromkeys(
            group, Diagram(space.states, trans, space.well_founded)))
    return [d for d in map(shared.get, cs.grounders)
            if d.states or not d.well_founded]
