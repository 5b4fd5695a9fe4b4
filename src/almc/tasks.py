"""Reasoning tasks over a compiled system: projection and planning.

A *history* records what was observed and what happened along an actual
evolution of the system:

    observed(loc_in(monkey), initial_monkey, 0).
    happened(move(under_banana), 0).
    -happened(cytokinesis, 2).

Temporal projection finds every trajectory compatible with a history; a
query is entailed at step i when it holds there in every model.  Planning
searches for occurrence assignments reaching a goal within a horizon, one
action per step, with no gaps, using as few occurrences as possible
(branch-and-bound over consistency-restoring occurrence rules).

Observations, goals and queries are ground literals over the signature,
all evaluated by `normalize_goal` and then `Grounder.ground_lit`.  An
observation must give a fluent a value within its sorts; statics and the
hierarchy in a goal or query are decided by each pre-model, and a fluent
literal's atom is read off the trajectories.

Systems can have several pre-models that differ only in how objects are
placed into source sorts.  A `CompiledSystem` computes its pre-models once,
on first use, keeps one `Grounder` per pre-model (`grounders`) and groups
them by `Grounder.program_key` (`groups`), which is what grounding reads
from the pre-model: the bindings that survive each statement's static
literals, the ground fluent instances, values, actions and constants.  The
pre-models of a group ground equal programs, since statics are evaluated
away, and every task reads the groups.  Both tasks here get their programs
from one generator (`_history_programs`), which splits the groups, for
planning, by the ground goal and grounds, extends and yields one program
per group, so only the group's first grounder grounds rule templates.  As
a final guard it skips a program equal to one it has already yielded:
atoms, rules, choice atoms, consistency-restoring rules and cardinality
groups are compared as they are (`program_fingerprint`).  Each distinct
program is solved once and the trajectories/plans are merged across
pre-models; a projection keeps the grounders of every pre-model with a
trajectory, which ground its queries.  A plan is validated by projecting
the history with the plan's occurrences given to the solver as facts and
reading its goal as a query.
"""

from __future__ import annotations

from almc.records import field, record
from functools import cached_property
from itertools import chain
from typing import Callable, Hashable, Iterator, Optional, Sequence, Union

from almc.bat import (
    ActionTheory, FunLit, _Normalizer, build_action_theory, lit_vars,
)
from almc.errors import DiagnosticSink, InputError, SemanticError
from almc.lpcore import Budget, Program
from almc.memo import ReadsMemo
from almc.modular import Value, flatten_system
from almc.ontology import (
    ACTIONS, BASIC_FLUENT, FALSE, TRUE, Signature, build_signature,
)
from almc.semantics import (
    Grounder, ModelReader, State, certify_state, enumerate_states,
    stratified, system_pre_models,
)
from almc.syntax import ast, tokenize
from almc.syntax.parser import _Parser


# ================================================================ compilation

@record
class CompiledSystem:
    module: ast.Module  # flattened
    sig: Signature
    theory: ActionTheory
    structure: Optional[ast.Structure]  # None for a bare theory
    sink: DiagnosticSink
    #: the command's budget, which the derivation of the pre-models reads
    budget: Optional[Budget] = None

    @cached_property
    def grounders(self) -> list[Grounder]:
        """One grounder per pre-model, computed on first use: `check`,
        `flatten` and `bat` never need the pre-models.  A structure with
        no pre-model is a semantic error located at the structure."""
        pms = system_pre_models(self.theory, self.structure, self.sink,
                                self.budget)
        if not pms:
            raise SemanticError(
                f"structure {self.structure.name!r} has no pre-model: its "
                "statics have no consistent values in any placement of its "
                "objects", self.structure.span)
        return [Grounder(self.theory, pm, self.sink) for pm in pms]

    @cached_property
    def groups(self) -> list[list[Grounder]]:
        """The grounders grouped by equal `Grounder.program_key`, in
        grounder order.  A group's grounders ground equal programs at every
        horizon, so every task grounds and solves them with the first.  The
        grounders of several pre-models share one `ReadsMemo`: each
        statement is read for the first pre-model and then reused by every
        later one that answers the queries of that reading alike, or whose
        sorts differ from it only in members with no surviving binding."""
        memo = ReadsMemo() if len(self.grounders) > 1 else None
        groups: dict[tuple, list[Grounder]] = {}
        for g in self.grounders:
            groups.setdefault(g.program_key(self.budget, memo), []).append(g)
        return list(groups.values())


def compile_system(node: Union[ast.System, ast.Theory],
                   search_paths: list[str],
                   sink: Optional[DiagnosticSink] = None,
                   budget: Optional[Budget] = None) -> CompiledSystem:
    """Flatten a system description, or a bare theory, and build its
    signature and action theory.  A bare theory compiles with the
    structure None: it has no pre-models, so only `check` and `bat`
    compile one."""
    sink = sink if sink is not None else DiagnosticSink()
    module = flatten_system(node, search_paths, sink)
    sig = build_signature(module, sink)
    theory = build_action_theory(module, sig, sink)
    structure = node.structure if isinstance(node, ast.System) else None
    return CompiledSystem(module, sig, theory, structure, sink, budget)


# ================================================================ histories

@record
class History:
    #: (function term, value term, step)
    observed: list[tuple[ast.Term, ast.Term, int]] = field(default_factory=list)
    #: (action term, step, positive)
    happened: list[tuple[ast.Term, int, bool]] = field(default_factory=list)

    @property
    def max_step(self) -> int:
        steps = [s for _, _, s in self.observed] + \
                [s + 1 for _, s, _ in self.happened]
        return max(steps, default=0)


def parse_history(text: str, filename: str = "") -> History:
    """`observed(term, value, step).`, `[-]happened(action, step).`"""
    parser = _Parser(tokenize(text, filename))
    hist = History()
    while not parser.at("eof"):
        neg = parser.eat("-") is not None
        name_tok = parser.expect("ident")
        parser.expect("(")
        args = [parser.parse_term()]
        while parser.eat(","):
            args.append(parser.parse_term())
        parser.expect(")")
        parser.expect(".")
        if name_tok.text == "observed":
            if neg or len(args) not in (2, 3):
                raise InputError("expected observed(term, value, step)",
                                 name_tok.span)
            if len(args) == 2:  # boolean shorthand: observed(p(..), step)
                fterm, value, step_t = args[0], ast.Sym(TRUE), args[1]
            else:
                fterm, value, step_t = args
            hist.observed.append((fterm, value, _step(step_t)))
        elif name_tok.text == "happened":
            if len(args) != 2:
                raise InputError("expected happened(action, step)",
                                 name_tok.span)
            hist.happened.append((args[0], _step(args[1]), not neg))
        else:
            raise InputError(f"unknown history statement {name_tok.text!r}",
                             name_tok.span)
    return hist


def _step(t: ast.Term) -> int:
    if not isinstance(t, ast.Num):
        raise InputError("step must be an integer literal", t.span)
    return t.value


def parse_goal(text: str, filename: str = "") -> list[ast.Lit]:
    """Goal file: one or more literals, each terminated by a dot."""
    parser = _Parser(tokenize(text, filename))
    out = []
    while not parser.at("eof"):
        lit = parser.parse_literal()
        if isinstance(lit, ast.OccursLit):
            raise InputError("a goal cannot mention occurs", lit.span)
        parser.expect(".")
        out.append(lit)
    if not out:
        raise InputError("a goal needs one or more literals",
                         parser.peek().span)
    return out


# ================================================================ trajectories

@record(frozen=True)
class Trajectory:
    states: tuple[State, ...]
    occurrences: tuple[frozenset, ...]  # one action set per step


@record
class ProjectionResult:
    trajectories: list[Trajectory]
    horizon: int
    #: the grounder of every pre-model with a trajectory, which ground
    #: queries (`entails_at`)
    grounders: list[Grounder] = field(default_factory=list)
    #: how much of the initial situation the history states (`_coverage`);
    #: unobserved instances default to "undefined at step 0"
    coverage: tuple[int, int] = (0, 0)

    @property
    def consistent(self) -> bool:
        return bool(self.trajectories)


def _observation_lits(cs: CompiledSystem, hist: History) -> list:
    """The history's observations `f(t̄) = v` in the theory's normal form,
    one literal per observation (`normalize_goal`)."""
    return normalize_goal(cs, [ast.Lit(False, f, "=", v, span=f.span)
                               for f, v, _ in hist.observed])


def _ground_history(g: Grounder, hist: History, observed: list,
                    prog: Program, horizon: int) -> None:
    """Add the history to `prog`; `observed` holds the history's
    `_observation_lits`, which `g` grounds (`Grounder.ground_lit`), and
    define the disequality atoms interned here (`Grounder.define_neqs`)."""
    since = len(prog.keys)
    for lit, (fterm, _, step) in zip(observed, hist.observed):
        if step > horizon:
            raise InputError(
                f"observation at step {step} beyond horizon {horizon}",
                fterm.span)
        r = g.ground_lit(lit, {})
        if not isinstance(r, tuple):
            raise InputError("an observation must give a fluent a value "
                             "within its sorts", fterm.span)
        if step == 0:
            prog.add_fact(r[0] + (step,))
        else:
            # reality check: fail only if the function holds another value
            prog.add_constraint((prog.atom(("neq",) + r[0][1:] + (step,)),))
    g.define_neqs(prog, since)
    # default closure of the initial situation: a boolean basic fluent that
    # is not derivably true at step 0 is false there (defeasible, so
    # observations and state constraints win); dom_f companions are boolean
    # basic fluents, so this also closes unobserved domains
    for f in g.sig.functions.values():
        if f.kind != BASIC_FLUENT or set(g.values[f.name]) != {TRUE, FALSE}:
            continue
        for args in g.tuples[f.name]:
            prog.add_rule(prog.atom(("v", f.name, args, FALSE, 0)), (),
                          (prog.atom(("v", f.name, args, TRUE, 0)),))
    for aterm, step, positive in hist.happened:
        if step >= horizon:
            raise InputError(
                f"occurrence at step {step} needs a horizon past {step}",
                aterm.span)
        act = g.eval_term(aterm, {})
        if act not in g.actions:
            raise InputError(f"{act} is not an action of the system",
                             aterm.span)
        key = ("occ", act, step)
        if positive:
            prog.add_fact(key)
        else:
            prog.add_constraint((prog.atom(key),))


def program_fingerprint(prog: Program) -> tuple:
    """The program's literal content.  Equal fingerprints mean identical
    programs, which have the same answer sets; two programs that differ
    only in the order of their atoms or rules get different fingerprints."""
    return (tuple(prog.keys), tuple(prog.rules), frozenset(prog.choice),
            tuple(prog.cr_rules), tuple(prog.atmost))


def _history_programs(
        cs: CompiledSystem, hist: History, observed: list, horizon: int,
        budget: Optional[Budget] = None,
        extend: Optional[Callable[[Grounder, Program], None]] = None,
        extend_key: Callable[[Grounder], Hashable] = lambda g: None,
) -> Iterator[tuple[list[Grounder], Program]]:
    """The history program of each group of equal pre-models, grounded up
    to `horizon` and extended by `extend(g, prog)`, skipping any program
    equal to one already yielded.  `observed` holds the history's
    `_observation_lits`.

    The groups are `cs.groups` split by `extend_key(g)`, which covers what
    `extend` reads from the grounder, in the order of their first
    grounders.  A group's first grounder grounds, extends and yields its
    program with the group's grounders; a group whose program was already
    yielded joins that program's list."""
    group_of = {g: i for i, group in enumerate(cs.groups) for g in group}
    split: dict[tuple, list[Grounder]] = {}
    for g in cs.grounders:
        split.setdefault((group_of[g], extend_key(g)), []).append(g)
    yielded: dict[tuple, list[Grounder]] = {}
    for members in split.values():
        g = members[0]
        prog = g.build_program(horizon, budget)
        _ground_history(g, hist, observed, prog, horizon)
        if extend is not None:
            extend(g, prog)
        fp = program_fingerprint(prog)
        if fp in yielded:
            yielded[fp].extend(members)
        else:
            yielded[fp] = members
            yield members, prog


def temporal_project(cs: CompiledSystem, hist: History,
                     horizon: Optional[int] = None,
                     budget: Optional[Budget] = None,
                     facts: Sequence[tuple] = ()) -> ProjectionResult:
    """Trajectories of the history up to `horizon` (default: the history's
    last step).  `facts` are atom keys that hold in addition to the history,
    passed to the solver so that the history program stays the same."""
    n = hist.max_step if horizon is None else horizon
    observed = _observation_lits(cs, hist)
    # an observed defined value is a fact at step 0, which the state rules
    # need not derive (`certify_state`'s precondition)
    fns = cs.sig.functions
    given_at_0 = any(step == 0 and isinstance(lit, FunLit)
                     and lit.func in fns and fns[lit.func].is_defined
                     for lit, (_, _, step) in zip(observed, hist.observed))
    found: dict[Trajectory, None] = {}
    with_models: list[list[Grounder]] = []
    for members, prog in _history_programs(cs, hist, observed, n, budget):
        g = members[0]
        read = ModelReader(g, n)
        state_cache: dict[State, str] = {}
        with_model = False
        for model in prog.answer_sets(budget=budget, facts=facts):
            values, occs = read(model)
            states = tuple(map(State, values))
            for i, s in enumerate(states):
                verdict = state_cache.get(s)
                if verdict is None:
                    verdict = certify_state(g, s, budget,
                                            derived=i > 0 or not given_at_0)
                    state_cache[s] = verdict
                if verdict != "state":
                    break
            else:
                found.setdefault(Trajectory(states, tuple(occs)))
                with_model = True
        if with_model:
            with_models.append(members)
    return ProjectionResult(list(found), n,
                            [g for ms in with_models for g in ms],
                            _coverage(cs, hist, observed))


def _holds(state: State, key: tuple) -> bool:
    """Does the step-free key of a fluent literal (`Grounder.ground_lit`)
    hold in the state?"""
    kind, f, args, val = key
    v = state.value(f, args)
    return v == val if kind == "v" else v is not None and v != val


def entails_at(cs: CompiledSystem, result: ProjectionResult,
               lit: ast.Lit, step: int) -> bool:
    """Does the literal hold at `step` in every model of the history?"""
    return entails_all(result, normalize_goal(cs, [lit]), step)


def entails_all(result: ProjectionResult, lits: list, step: int) -> bool:
    """Do the literals, as `normalize_goal` gives them, all hold at `step`
    in every model of the history?

    Every pre-model with a trajectory grounds each literal as the planner
    grounds a goal (`Grounder.ground_lit`): a static or hierarchy literal
    must be true in each of them, and a fluent literal's key must hold in
    every trajectory's state.  `f(t̄) != v` holds only where f is defined
    with a value other than v.
    """
    if not result.trajectories:
        return False
    for fl in lits:
        for g in result.grounders:
            r = g.ground_lit(fl, {})
            if r is True:
                continue
            if r is False or not all(_holds(t.states[step], r[0])
                                     for t in result.trajectories):
                return False
    return True


def _coverage(cs: CompiledSystem, hist: History,
              observed: list) -> tuple[int, int]:
    """(observed-at-0 instances, all ground basic fluent instances), from
    the history's `_observation_lits`."""
    g = cs.grounders[0]
    basic = {f.name: len(g.tuples[f.name]) for f in g.basic_nondom_fluents()}
    seen = set()
    for lit, (_, _, step) in zip(observed, hist.observed):
        r = g.ground_lit(lit, {})
        if step == 0 and isinstance(r, tuple) and r[0][1] in basic:
            seen.add(r[0][1:3])
    return (len(seen), sum(basic.values()))


# ================================================================ planning

@record(frozen=True)
class Plan:
    steps: tuple[tuple[Value, ...], ...]  # sorted action set per step

    def __str__(self) -> str:
        return "\n".join(f"step {i}: {{{', '.join(map(str, acts))}}}"
                         for i, acts in enumerate(self.steps))

    @property
    def occurrences(self) -> int:
        return sum(len(acts) for acts in self.steps)


@record
class PlanningResult:
    plans: list[Plan]
    horizon: int
    note: str = ""


def find_plans(cs: CompiledSystem, hist: History, goal: list[ast.Lit],
               horizon: int, budget: Optional[Budget] = None,
               max_plans: Optional[int] = None,
               minimality: str = "card",
               sequential: bool = True) -> PlanningResult:
    goal_lits = normalize_goal(cs, goal)

    def goal_body(g: Grounder) -> Optional[tuple]:
        """The goal literals ground by `g` (`Grounder.ground_lit`), or None
        if one is statically false."""
        body = tuple(g.ground_lit(lit, {}) for lit in goal_lits)
        return None if any(r is False for r in body) else body

    def extend(g: Grounder, prog: Program) -> None:
        # goal(I) <- goal literals at I;  success <- goal(I);  <- not success
        since = len(prog.keys)
        success = prog.atom(("success",))
        body = goal_body(g)
        if body is not None:
            atoms = [r for r in body if r is not True]
            for i in range(horizon + 1):
                gi = prog.atom(("goal", i))
                prog.add_rule(gi,
                              [prog.atom(k + (i,)) for k, p in atoms if p],
                              [prog.atom(k + (i,)) for k, p in atoms if not p])
                prog.add_rule(success, (gi,))
        g.define_neqs(prog, since)
        prog.add_constraint((), (success,))

        # occurrences: one consistency-restoring switch per action and step,
        # (by default) at most one action per step, no gaps
        occ_keys: list[list] = []
        for i in range(horizon):
            step_keys = [("occ", a, i) for a in sorted(g.actions, key=repr)]
            occ_keys.append(step_keys)
            for k in step_keys:
                prog.add_cr_rule(prog.atom(k))
            if sequential:
                prog.add_atmost(step_keys, 1)
        for i in range(horizon):
            shp = prog.atom(("some_action", i))
            for k in occ_keys[i]:
                prog.add_rule(shp, (prog.atom(k),))
        for i in range(horizon - 1):
            prog.add_constraint((prog.atom(("some_action", i + 1)),),
                                (prog.atom(("some_action", i)),))

    plans: dict[Plan, None] = {}
    for _, prog in _history_programs(cs, hist, _observation_lits(cs, hist),
                                     horizon, budget, extend, goal_body):
        for model, _applied in prog.solve_cr(max_models=max_plans,
                                             budget=budget,
                                             minimality=minimality):
            by_step: dict[int, list] = {}
            for k in model:
                if k[0] == "occ":
                    by_step.setdefault(k[2], []).append(k[1])
            length = max(by_step, default=-1) + 1
            steps = tuple(tuple(sorted(by_step.get(i, ()), key=repr))
                          for i in range(length))
            plans.setdefault(Plan(steps))
            if max_plans is not None and len(plans) >= max_plans:
                return PlanningResult(list(plans), horizon)
    note = "" if plans else \
        f"no plan within horizon {horizon}; horizon exhausted"
    return PlanningResult(list(plans), horizon, note)


def normalize_goal(cs: CompiledSystem, goal: list[ast.Lit]) -> list:
    """Ground goal or query literals in the theory's normal form.

    Raises `SemanticError` for an unknown symbol or a non-ground literal.
    """
    return [fl for lits in normalize_each(cs, goal) for fl in lits]


def normalize_each(cs: CompiledSystem, lits: list[ast.Lit]) -> list[list]:
    """`normalize_goal` of each literal alone; the errors of all of them
    are raised together."""
    norm = _Normalizer(cs.sig, cs.sink)
    out = []
    for lit in lits:
        norm.extra = []
        fl = norm.normalize(lit)
        out.append([] if fl is None else [fl] + norm.extra)
    cs.sink.raise_if_errors()
    for fl in chain.from_iterable(out):
        if lit_vars(fl):
            raise SemanticError("history, goal and query literals must be "
                                "ground", fl.span)
    return out


def prefer_most_specific(cs: CompiledSystem,
                         result: PlanningResult) -> PlanningResult:
    """Optional post-filter on a plan set: when two plans coincide except
    that one replaces an action by a strictly more specific one (instance of
    strictly more action sorts, agreeing on all shared attribute values),
    keep only the more specific plan."""
    pm = cs.grounders[0].pm
    action_sorts = [s for s in cs.sig.sorts
                    if s == ACTIONS or cs.sig.is_subsort(s, ACTIONS)]
    attr_names = {f.name for f in cs.sig.functions.values()
                  if f.kind == "attribute"}
    acts = list(pm.members.get(ACTIONS, ()))
    # judge specificity by declared sorts (and their ancestors), not by the
    # placement chosen for this pre-model
    sorts_of = {}
    for a in acts:
        closure: set[str] = set()
        for d in pm.declared.get(a, ()):
            closure.add(d)
            closure |= cs.sig.ancestors(d)
        sorts_of[a] = frozenset(closure & set(action_sorts))
    attrs_of = {}
    for a in acts:
        vals = []
        for (f, args), v in pm.statics.items():
            if f in attr_names and args and args[0] == a:
                vals.append((f, args[1:], v))
        attrs_of[a] = frozenset(vals)

    def refines(a, b) -> bool:
        return sorts_of[b] < sorts_of[a] and attrs_of[b] <= attrs_of[a]

    def plan_refines(p: Plan, q: Plan) -> bool:
        if len(p.steps) != len(q.steps):
            return False
        strict = False
        for pa, qa in zip(p.steps, q.steps):
            if tuple(pa) == tuple(qa):
                continue
            if len(pa) == 1 and len(qa) == 1 \
                    and refines(next(iter(pa)), next(iter(qa))):
                strict = True
                continue
            return False
        return strict

    kept = [p for p in result.plans
            if not any(plan_refines(q, p) for q in result.plans)]
    return PlanningResult(kept, result.horizon, result.note)


def validate_plan(cs: CompiledSystem, hist: History, goal: list[ast.Lit],
                  plan: Plan, budget: Optional[Budget] = None) -> bool:
    """Re-execute: the history with the plan's occurrences, given to the
    solver as facts, must reach the goal."""
    end = len(plan.steps)
    occs = [("occ", a, i) for i, acts in enumerate(plan.steps) for a in acts]
    result = temporal_project(cs, hist, horizon=end, budget=budget,
                              facts=occs)
    return entails_all(result, normalize_goal(cs, goal), end)


# ================================================================ well-founded

@record
class WellFoundedReport:
    well_founded: Optional[bool]  # None when undetermined
    method: str  # "syntactic" | "semantic"
    witness: Optional[State] = None  # an ambiguous fluent assignment


def check_well_founded(cs: CompiledSystem,
                       budget: Optional[Budget] = None) -> WellFoundedReport:
    """Is every candidate state's definitional check deterministic?

    First a syntactic test (`stratified`): if no cycle of the definitions
    and of the fluent-headed state constraints passes through a negated
    defined function, the state program with a candidate's non-defined
    atoms as facts is stratified, so it has at most one answer set.
    Otherwise the states of each group of equal pre-models
    (`CompiledSystem.groups`) are enumerated once and each fluent
    assignment is certified.
    """
    if stratified(cs.theory):
        return WellFoundedReport(True, "syntactic")
    for g, *_ in cs.groups:
        space = enumerate_states(g, budget)
        if space.ambiguous:
            return WellFoundedReport(False, "semantic",
                                     witness=space.ambiguous[0])
    return WellFoundedReport(True, "semantic")
