"""Reasoning tasks over a compiled system: projection and planning.

A *history* records what was observed and what happened along an actual
evolution of the system:

    observed(loc_in(monkey), initial_monkey, 0).
    happened(move(under_banana), 0).
    -happened(cytokinesis, 2).

Temporal projection finds every trajectory compatible with a history; a
query `f(args) = v at step i` is entailed when it holds on all of them.
Planning searches for occurrence assignments reaching a goal within a
horizon, one action per step, with no gaps, using as few occurrences as
possible (iterative deepening over consistency-restoring occurrence rules).

Systems can have several pre-models that differ only in how objects are
placed into source sorts.  A `CompiledSystem` computes its pre-models once,
on first use, and keeps one `Grounder` per pre-model (`grounders`); every
task iterates that list.  The ground programs such pre-models induce are
often literally identical because statics are evaluated away, so both tasks
fingerprint the ground program and solve each distinct program once,
merging trajectories/plans across pre-models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from almc.bat import (
    ActionTheory, CmpLit, FunLit, _Normalizer, build_action_theory, lit_vars,
)
from almc.errors import DiagnosticSink, InputError, SemanticError
from almc.lpcore import Budget, Program
from almc.modular import Value, compare, eval_ground_term, flatten_system
from almc.ontology import (
    ACTIONS, BASIC_FLUENT, FALSE, TRUE, Signature, build_signature,
)
from almc.semantics import (
    Grounder, State, certify_state, enumerate_states, system_pre_models,
)
from almc.syntax import ast, parse_file, tokenize
from almc.syntax.parser import _Parser


# ================================================================ compilation

@dataclass
class CompiledSystem:
    source: ast.System
    module: ast.Module  # flattened
    sig: Signature
    theory: ActionTheory
    structure: ast.Structure
    sink: DiagnosticSink

    @cached_property
    def grounders(self) -> list[Grounder]:
        """One grounder per pre-model, computed on first use: `check`,
        `flatten` and `bat` never need the pre-models."""
        return [Grounder(self.theory, pm) for pm in
                system_pre_models(self.theory, self.structure, self.sink)]


def compile_system(node: ast.System, search_paths: list[str],
                   sink: Optional[DiagnosticSink] = None) -> CompiledSystem:
    sink = sink if sink is not None else DiagnosticSink()
    module = flatten_system(node, search_paths, sink)
    sig = build_signature(module, sink)
    theory = build_action_theory(module, sig, sink)
    return CompiledSystem(node, module, sig, theory, node.structure, sink)


def compile_file(path: str, search_paths: list[str],
                 sink: Optional[DiagnosticSink] = None) -> CompiledSystem:
    with open(path, encoding="utf-8") as fh:
        node = parse_file(fh.read(), path)
    if not isinstance(node, ast.System):
        raise InputError(f"{path} does not contain a system description")
    return compile_system(node, search_paths, sink)


# ================================================================ histories

@dataclass
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
    return out


# ================================================================ trajectories

@dataclass(frozen=True)
class Trajectory:
    states: tuple[State, ...]
    occurrences: tuple[frozenset, ...]  # one action set per step

    @property
    def horizon(self) -> int:
        return len(self.states) - 1


@dataclass
class ProjectionResult:
    trajectories: list[Trajectory]
    horizon: int
    #: object-constant values of the structure, for grounding queries
    consts: dict = field(default_factory=dict)

    @property
    def consistent(self) -> bool:
        return bool(self.trajectories)


def _ground_history(cs: CompiledSystem, g: Grounder, hist: History,
                    prog: Program, horizon: int) -> None:
    norm = _Normalizer(cs.sig, cs.sink)
    neq_keys: set = set()
    for fterm, vterm, step in hist.observed:
        if step > horizon:
            raise InputError(
                f"observation at step {step} beyond horizon {horizon}",
                fterm.span)
        norm.extra = []
        lit = norm.normalize(ast.Lit(False, fterm, "=", vterm))
        if not isinstance(lit, FunLit) or norm.extra:
            raise SemanticError("observation must be a function atom",
                                fterm.span)
        info = cs.sig.functions.get(lit.func)
        if info is None or not info.is_fluent:
            raise InputError(f"observed {lit.func!r} is not a fluent",
                             fterm.span)
        args = tuple(g.eval_term(a, {}) for a in lit.args)
        val = g.eval_term(lit.value, {})
        if val not in g.values[lit.func]:
            raise InputError(
                f"{val!r} is not in the range of {lit.func}", vterm.span)
        if step == 0:
            prog.add_fact(("v", lit.func, args, val, step))
        else:
            # reality check: fail only if the function holds another value
            nk = ("neq", lit.func, args, val, step)
            prog.add_constraint((prog.atom(nk),))
            neq_keys.add(nk)
    g.define_neqs(prog, neq_keys)
    # default closure of the initial situation: a boolean basic fluent that
    # is not derivably true at step 0 is false there (defeasible, so
    # observations and state constraints win); dom_f companions are boolean
    # basic fluents, so this also closes unobserved domains
    for f in cs.sig.functions.values():
        if f.kind != BASIC_FLUENT:
            continue
        if set(g.values[f.name]) != {TRUE, FALSE}:
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
        key = ("occ", act, step)
        if positive:
            prog.add_fact(key)
        else:
            prog.add_constraint((prog.atom(key),))
    cs.sink.raise_if_errors()


def program_fingerprint(prog: Program) -> str:
    keys = prog.keys
    rules = sorted(
        (repr(keys[h] if h >= 0 else None),
         tuple(sorted(repr(keys[b]) for b in pos)),
         tuple(sorted(repr(keys[b]) for b in neg)))
        for h, pos, neg in prog.rules)
    choices = sorted(repr(keys[a]) for a in prog.choice)
    crs = sorted(
        (repr(keys[h]),
         tuple(sorted(repr(keys[b]) for b in pos)),
         tuple(sorted(repr(keys[b]) for b in neg)))
        for h, pos, neg in prog.cr_rules)
    groups = sorted((tuple(sorted(repr(keys[a]) for a in m)), k)
                    for m, k in prog.atmost)
    return repr((rules, choices, crs, groups))


def _close_domains(g: Grounder, state: State) -> State:
    """Make the minimal reading explicit: a basic fluent with no derived
    value has a false domain atom in the state."""
    unsettled = g.unsettled_domains(state)
    if not unsettled:
        return state
    vals = state.as_dict()
    vals.update(dict.fromkeys(unsettled, FALSE))
    return State.of(vals)


def temporal_project(cs: CompiledSystem, hist: History,
                     horizon: Optional[int] = None,
                     budget: Optional[Budget] = None,
                     max_trajectories: Optional[int] = None
                     ) -> ProjectionResult:
    n = hist.max_step if horizon is None else horizon
    seen_programs: set[str] = set()
    found: dict[Trajectory, None] = {}
    consts = cs.grounders[0].pm.consts if cs.grounders else {}
    for g in cs.grounders:
        prog = g.build_program(n, cs.sink)
        _ground_history(cs, g, hist, prog, n)
        fp = program_fingerprint(prog)
        if fp in seen_programs:
            continue
        seen_programs.add(fp)
        state_cache: dict[State, str] = {}
        for model in prog.answer_sets(budget=budget):
            states = tuple(_close_domains(g, g.state_from_model(model, i))
                           for i in range(n + 1))
            ok = True
            for s in states:
                verdict = state_cache.get(s)
                if verdict is None:
                    verdict = certify_state(g, s, budget)
                    state_cache[s] = verdict
                if verdict != "state":
                    ok = False
                    break
            if not ok:
                continue
            occs = tuple(
                frozenset(k[1] for k in model if k[0] == "occ" and k[2] == i)
                for i in range(n))
            found.setdefault(Trajectory(states, occs))
            if max_trajectories is not None \
                    and len(found) >= max_trajectories:
                return ProjectionResult(list(found), n, consts)
    return ProjectionResult(list(found), n, consts)


def entails_at(cs: CompiledSystem, result: ProjectionResult,
               lit: ast.Lit, step: int) -> bool:
    """Does the literal hold at `step` in every model of the history?

    `f(t̄) != v` holds only where f is defined with a value other than v.
    """
    if not result.trajectories:
        return False
    for fl in _normalize_goal(cs, [lit]):
        if isinstance(fl, CmpLit):
            if not compare(fl.op, eval_ground_term(fl.lhs, result.consts),
                           eval_ground_term(fl.rhs, result.consts), fl.span):
                return False
            continue
        args = tuple(eval_ground_term(a, result.consts) for a in fl.args)
        val = eval_ground_term(fl.value, result.consts)
        for t in result.trajectories:
            v = t.states[step].value(fl.func, args)
            holds = (v == val) if fl.op == "=" \
                else (v is not None and v != val)
            if not holds:
                return False
    return True


def initial_coverage(cs: CompiledSystem, hist: History) -> tuple[int, int]:
    """(observed-at-0 instances, all ground basic fluent instances).

    Unobserved instances default to "undefined at step 0"; the count lets
    callers report how much of the initial situation was stated explicitly.
    """
    if not cs.grounders:
        return (0, 0)
    g = cs.grounders[0]
    total = sum(len(g.tuples[f.name]) for f in g.basic_nondom_fluents())
    norm = _Normalizer(cs.sig, cs.sink)
    seen = set()
    for fterm, vterm, step in hist.observed:
        if step != 0:
            continue
        norm.extra = []
        lit = norm.normalize(ast.Lit(False, fterm, "=", vterm))
        if not isinstance(lit, FunLit):
            continue
        info = cs.sig.functions.get(lit.func)
        if info is None or info.kind != BASIC_FLUENT \
                or info.dom_of is not None:
            continue
        args = tuple(g.eval_term(a, {}) for a in lit.args)
        if args in g.tuples.get(lit.func, []):
            seen.add((lit.func, args))
    return (len(seen), total)


# ================================================================ planning

@dataclass(frozen=True)
class Plan:
    steps: tuple[tuple[Value, ...], ...]  # sorted action set per step

    def __str__(self) -> str:
        return "\n".join(f"step {i}: {{{', '.join(map(str, acts))}}}"
                         for i, acts in enumerate(self.steps))

    @property
    def occurrences(self) -> int:
        return sum(len(acts) for acts in self.steps)


@dataclass
class PlanningResult:
    plans: list[Plan]
    horizon: int
    note: str = ""


def find_plans(cs: CompiledSystem, hist: History, goal: list[ast.Lit],
               horizon: int, budget: Optional[Budget] = None,
               max_plans: Optional[int] = None,
               minimality: str = "card",
               sequential: bool = True) -> PlanningResult:
    goal_lits = _normalize_goal(cs, goal)

    seen_programs: set[str] = set()
    plans: dict[Plan, None] = {}
    for g in cs.grounders:
        prog = g.build_program(horizon, cs.sink)
        _ground_history(cs, g, hist, prog, horizon)

        # goal(I) <- goal literals at I;  success <- goal(I);  <- not success
        success = prog.atom(("success",))
        goal_neqs: set = set()
        for i in range(horizon + 1):
            pos: list = []
            neg: list = []
            if not g.ground_body(goal_lits, {}, i, pos, neg, goal_neqs):
                continue
            gi = prog.atom(("goal", i))
            prog.add_rule(gi, [prog.atom(k) for k in pos],
                          [prog.atom(k) for k in neg])
            prog.add_rule(success, (gi,))
        g.define_neqs(prog, goal_neqs)
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

        fp = program_fingerprint(prog)
        if fp in seen_programs:
            continue
        seen_programs.add(fp)

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


def _normalize_goal(cs: CompiledSystem, goal: list[ast.Lit]) -> list:
    norm = _Normalizer(cs.sig, cs.sink)
    out = []
    for lit in goal:
        norm.extra = []
        fl = norm.normalize(lit)
        if fl is None:
            continue
        out.append(fl)
        out.extend(norm.extra)
    cs.sink.raise_if_errors()
    for fl in out:
        if lit_vars(fl):
            raise SemanticError("goal literals must be ground", fl.span)
    return out


def prefer_most_specific(cs: CompiledSystem,
                         result: PlanningResult) -> PlanningResult:
    """Optional post-filter on a plan set: when two plans coincide except
    that one replaces an action by a strictly more specific one (instance of
    strictly more action sorts, agreeing on all shared attribute values),
    keep only the more specific plan."""
    if not cs.grounders:
        return result
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
    """Re-execute: history + the plan's occurrences must reach the goal."""
    run = History(observed=list(hist.observed),
                  happened=list(hist.happened))
    for i, acts in enumerate(plan.steps):
        for a in acts:
            run.happened.append((_term_of(a), i, True))
    end = len(plan.steps)
    result = temporal_project(cs, run, horizon=end, budget=budget)
    return result.consistent \
        and all(entails_at(cs, result, lit, end) for lit in goal)


def _term_of(value: Value) -> ast.Term:
    """Parse a ground value back into a term (inverse of rendering)."""
    if isinstance(value, int):
        return ast.Num(value)
    text = str(value)
    if "(" not in text:
        return ast.Sym(text)
    return _Parser(tokenize(text)).parse_term()


# ================================================================ well-founded

@dataclass
class WellFoundedReport:
    well_founded: Optional[bool]  # None when undetermined
    method: str  # "syntactic" | "semantic"
    witness: Optional[State] = None  # an ambiguous fluent assignment


def check_well_founded(cs: CompiledSystem,
                       budget: Optional[Budget] = None) -> WellFoundedReport:
    """Is every candidate state's definitional check deterministic?

    First a syntactic test: if no definition cycle passes through a negated
    defined function, the defined part is uniquely determined by the basic
    part.  Otherwise the states of every pre-model are enumerated and each
    fluent assignment is certified.
    """
    if _stratified_definitions(cs.theory):
        return WellFoundedReport(True, "syntactic")
    for g in cs.grounders:
        space = enumerate_states(g, budget)
        if space.ambiguous:
            return WellFoundedReport(False, "semantic",
                                     witness=space.ambiguous[0])
    return WellFoundedReport(True, "semantic")


def _stratified_definitions(theory: ActionTheory) -> bool:
    defined = {f.name for f in theory.sig.functions.values() if f.is_defined}
    edges: dict[str, set[tuple[str, bool]]] = {d: set() for d in defined}
    for clause in theory.definitions:
        d = clause.head.func
        for lit in clause.body:
            if not isinstance(lit, FunLit) or lit.func not in defined:
                continue
            positive = (lit.op == "=") == (
                isinstance(lit.value, ast.Sym) and lit.value.name == TRUE)
            edges[d].add((lit.func, not positive))
    # look for a cycle containing a negative edge
    for start in defined:
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
