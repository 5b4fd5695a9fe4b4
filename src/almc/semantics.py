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

Pre-models come from `system_pre_models`; callers build one grounder per
pre-model once and pass the grounders around (`build_diagrams` takes them).

States are enumerated by adding free choices over the values of basic
fluents (with the companion domain atoms closed as "false unless a value
exists", a generation aid only).  Every candidate is then certified: the
program with the candidate's non-defined atoms as facts must have exactly
one answer set, equal to the candidate.  Candidates sharing a fluent
assignment whose certification finds two answer sets witness that the theory
is not well-founded.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional, Union

from almc.bat import (
    ActionTheory, CmpLit, Constraint, DefClause, DynLaw, Exec, FunLit,
    OccLit, lit_vars, term_vars,
)
from almc.errors import (
    BudgetExceeded, DiagnosticSink, SemanticError, Span,
)
from almc.lpcore import Budget, Program
from almc.modular import (
    PreModel, Value, compare, enumerate_placements, eval_ground_term,
    structure_static_rules,
)
from almc.ontology import (
    ACTIONS, BOOLEANS, FALSE, TRUE, UNIVERSE, FuncInfo, Signature, dom_name,
)
from almc.syntax import ast

MAX_GROUND_INSTANCES = 2_000_000


# ------------------------------------------------------------ static truth

def hier_true(pm: PreModel, name: str, args: tuple[Value, ...]) -> bool:
    sig = pm.sig
    if name == "instance":
        o, c = args
        return isinstance(c, str) and pm.is_instance(o, c)
    if name == "is_a":
        o, c = args
        return (c in pm.is_a.get(o, frozenset())
                or c in pm.declared.get(o, ()))
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
        # domain of a static: true iff the base static has a value
        base = sig.functions[info.dom_of]
        if base.is_defined:
            defined = True  # defined functions are total
        else:
            defined = pm.static_value(info.dom_of, argvals) is not None
        sv: Optional[Value] = TRUE if defined else FALSE
    else:
        sv = pm.static_value(lit.func, argvals)
        if sv is None and info.is_defined:
            sv = FALSE  # closed world for defined statics
    if sv is None:
        return False  # undefined: neither = nor != holds
    return (sv == val) if lit.op == "=" else (sv != val)


# ------------------------------------------------------------ grounder

@dataclass(frozen=True)
class State:
    """A state: fluent part of an interpretation, as (f, args) -> value."""

    values: tuple[tuple[tuple, Value], ...]  # sorted ((f, args), value)

    @staticmethod
    def of(mapping: dict) -> "State":
        return State(tuple(sorted(mapping.items())))

    def as_dict(self) -> dict:
        return dict(self.values)

    def value(self, f: str, args: tuple = ()) -> Optional[Value]:
        return dict(self.values).get((f, args))

    def atoms(self) -> list[tuple[str, tuple, Value]]:
        return [(f, args, v) for (f, args), v in self.values]


class Grounder:
    def __init__(self, theory: ActionTheory, pm: PreModel):
        self.theory = theory
        self.pm = pm
        self.sig = theory.sig
        # Ground instances of every fluent: argument tuples and value domain.
        self.tuples: dict[str, list[tuple[Value, ...]]] = {}
        self.values: dict[str, list[Value]] = {}
        count = 0
        for f in self.sig.functions.values():
            if not f.is_fluent:
                continue
            doms = [pm.sort_values(a) for a in f.args]
            size = 1
            for d in doms:
                size *= len(d)
            count += size
            if count > MAX_GROUND_INSTANCES:
                raise BudgetExceeded(
                    f"too many ground fluent instances (over "
                    f"{MAX_GROUND_INSTANCES}); bound your sorts")
            self.tuples[f.name] = [tuple(t) for t in product(*doms)]
            self.values[f.name] = list(pm.sort_values(f.result))
        self.actions: list[Value] = list(pm.members.get(ACTIONS, ()))

    # ---------------------------------------------------- variable domains

    def sort_domain(self, key: str) -> list[Value]:
        return self.pm.sort_values(key)

    def _var_domains(self, stmt) -> dict[str, list[Value]]:
        domains: dict[str, list[Value]] = {}

        def narrow(var: str, dom: list[Value]) -> None:
            if var in domains:
                cur = set(dom)
                domains[var] = [v for v in domains[var] if v in cur]
            else:
                domains[var] = list(dom)

        def from_funlit(lit: FunLit) -> None:
            if lit.func in self.sig.functions:
                info = self.sig.functions[lit.func]
                for i, a in enumerate(lit.args):
                    if isinstance(a, ast.Var) and i < info.arity:
                        narrow(a.name, self.sort_domain(info.args[i]))
                if isinstance(lit.value, ast.Var):
                    narrow(lit.value.name, self.sort_domain(info.result))
                return
            # hierarchy functions
            nodes = list(self.sig.sorts)
            if lit.func in ("instance", "is_a"):
                o, c = lit.args
                if isinstance(c, ast.Var):
                    narrow(c.name, nodes)
                if isinstance(o, ast.Var):
                    positive = isinstance(lit.value, ast.Sym) \
                        and lit.value.name == TRUE and lit.op == "="
                    if positive and isinstance(c, ast.Sym) \
                            and self.sig.is_node(c.name):
                        narrow(o.name, self.sort_domain(c.name))
                    else:
                        narrow(o.name, self.sort_domain(UNIVERSE))
            else:
                for a in lit.args:
                    if isinstance(a, ast.Var):
                        narrow(a.name, nodes)

        lits = []
        if isinstance(stmt, (DynLaw, Exec)):
            if isinstance(stmt.act, ast.Var):
                narrow(stmt.act.name, self.sort_domain(stmt.sort))
            lits.extend(stmt.body)
            if isinstance(stmt, DynLaw):
                lits.append(stmt.head)
        else:
            if getattr(stmt, "head", None) is not None:
                lits.append(stmt.head)
            lits.extend(stmt.body)
        for lit in lits:
            if isinstance(lit, FunLit):
                from_funlit(lit)
            elif isinstance(lit, OccLit):
                if isinstance(lit.action, ast.Var):
                    narrow(lit.action.name, self.actions)

        needed: set[str] = set()
        for lit in lits:
            needed |= lit_vars(lit)
        if isinstance(stmt, (DynLaw, Exec)):
            needed |= term_vars(stmt.act)
        missing = needed - set(domains)
        if missing:
            raise SemanticError(
                "cannot determine a sort for variable(s) "
                f"{', '.join(sorted(missing))}", getattr(stmt, "span", Span()))
        return domains

    def envs(self, stmt) -> Iterator[dict[str, Value]]:
        domains = self._var_domains(stmt)
        names = list(domains)
        size = 1
        for n in names:
            size *= len(domains[n])
            if size > MAX_GROUND_INSTANCES:
                raise BudgetExceeded(
                    "too many ground instances of a statement", stmt.span)
        for combo in product(*[domains[n] for n in names]):
            yield dict(zip(names, combo))

    # ---------------------------------------------------- literal grounding

    def eval_term(self, t: ast.Term, env: dict[str, Value]) -> Value:
        return eval_ground_term(t, self.pm.consts, env)

    def _typed(self, info: FuncInfo, argvals: tuple[Value, ...]) -> bool:
        return all(self.pm.is_instance(v, s)
                   for v, s in zip(argvals, info.args))

    def ground_body(self, body, env: dict[str, Value], step: int,
                    pos: list, neg: list, neqs: set) -> bool:
        """Ground body literals into atom keys; False if statically false."""
        for lit in body:
            if isinstance(lit, CmpLit):
                if not compare(lit.op, self.eval_term(lit.lhs, env),
                               self.eval_term(lit.rhs, env), lit.span):
                    return False
                continue
            if isinstance(lit, OccLit):
                key = ("occ", self.eval_term(lit.action, env), step)
                (neg if lit.neg else pos).append(key)
                continue
            argvals = tuple(self.eval_term(a, env) for a in lit.args)
            val = self.eval_term(lit.value, env)
            info = self.sig.functions.get(lit.func)
            if info is None or not info.is_fluent:
                if not static_truth(self.pm, lit, argvals, val):
                    return False
                continue
            if not self._typed(info, argvals):
                return False
            if val not in self.values[lit.func]:
                if lit.op == "=":
                    return False
                # f(args) != v with v outside the range: holds iff f defined
                if info.args:
                    pos.append(("v", dom_name(lit.func), argvals, TRUE, step))
                continue
            if lit.op == "=":
                pos.append(("v", lit.func, argvals, val, step))
            else:
                key = ("neq", lit.func, argvals, val, step)
                pos.append(key)
                neqs.add(key)
        return True

    # ---------------------------------------------------- program assembly

    def build_program(self, horizon: int,
                      sink: Optional[DiagnosticSink] = None) -> Program:
        prog = Program()
        neqs: set = set()
        th = self.theory

        def add(head_key, pos_keys, neg_keys) -> None:
            head = prog.atom(head_key) if head_key is not None else None
            prog.add_rule(head, [prog.atom(k) for k in pos_keys],
                          [prog.atom(k) for k in neg_keys])

        for stmt in th.constraints + th.definitions:
            for env in self.envs(stmt):
                head = stmt.head
                head_static = (head is not None
                               and not self._is_fluent_lit(head))
                for step in range(horizon + 1):
                    pos: list = []
                    neg: list = []
                    if not self.ground_body(stmt.body, env, step, pos, neg,
                                            neqs):
                        continue
                    if head is None:
                        add(None, pos, neg)
                        continue
                    argvals = tuple(self.eval_term(a, env)
                                    for a in head.args)
                    val = self.eval_term(head.value, env)
                    if head_static:
                        # statics are fixed: a satisfied head discharges the
                        # rule, anything else is a plain constraint
                        if static_truth(self.pm, head, argvals, val):
                            continue
                        add(None, pos, neg)
                        continue
                    info = self.sig.functions[head.func]
                    if not self._typed(info, argvals) \
                            or val not in self.values[head.func]:
                        if sink is not None:
                            sink.warning(
                                f"ill-typed head {head.func}"
                                f"({', '.join(map(str, argvals))}) = {val}; "
                                "rule treated as a constraint", stmt.span)
                        add(None, pos, neg)
                        continue
                    add(("v", head.func, argvals, val, step), pos, neg)

        for stmt in th.dynamic:
            for env in self.envs(stmt):
                act = self.eval_term(stmt.act, env)
                if not self.pm.is_instance(act, stmt.sort):
                    continue
                argvals = tuple(self.eval_term(a, env)
                                for a in stmt.head.args)
                val = self.eval_term(stmt.head.value, env)
                info = self.sig.functions[stmt.head.func]
                if not self._typed(info, argvals) \
                        or val not in self.values[stmt.head.func]:
                    continue
                for step in range(horizon):
                    pos = [("occ", act, step)]
                    neg: list = []
                    if not self.ground_body(stmt.body, env, step, pos, neg,
                                            neqs):
                        continue
                    add(("v", stmt.head.func, argvals, val, step + 1),
                        pos, neg)

        for stmt in th.executability:
            for env in self.envs(stmt):
                act = self.eval_term(stmt.act, env)
                if not self.pm.is_instance(act, stmt.sort):
                    continue
                for step in range(max(horizon, 1)):
                    pos = [("occ", act, step)]
                    neg = []
                    if not self.ground_body(stmt.body, env, step, pos, neg,
                                            neqs):
                        continue
                    add(None, pos, neg)

        # closed world assumption for defined fluents, per step
        for f in self.sig.functions.values():
            if f.kind != "defined fluent":
                continue
            for args in self.tuples[f.name]:
                for step in range(horizon + 1):
                    add(("v", f.name, args, FALSE, step),
                        (), [("v", f.name, args, TRUE, step)])

        # a function has at most one value
        for fname, args_list in self.tuples.items():
            vals = self.values[fname]
            for args in args_list:
                for i in range(len(vals)):
                    for j in range(i + 1, len(vals)):
                        for step in range(horizon + 1):
                            add(None, [("v", fname, args, vals[i], step),
                                       ("v", fname, args, vals[j], step)], ())

        # inertia for basic fluents
        for f in self.sig.functions.values():
            if f.kind != "basic fluent" or horizon == 0:
                continue
            if f.dom_of is not None:
                for args in self.tuples[f.name]:
                    for step in range(horizon):
                        add(("v", f.name, args, TRUE, step + 1),
                            [("v", f.name, args, TRUE, step)],
                            [("v", f.name, args, FALSE, step + 1)])
                        add(("v", f.name, args, FALSE, step + 1),
                            [("v", f.name, args, FALSE, step)],
                            [("v", f.name, args, TRUE, step + 1)])
                continue
            dn = dom_name(f.name) if f.args else None
            for args in self.tuples[f.name]:
                for v in self.values[f.name]:
                    for step in range(horizon):
                        guard = [("v", dn, args, TRUE, step + 1)] if dn else []
                        nk = ("neq", f.name, args, v, step + 1)
                        neqs.add(nk)
                        add(("v", f.name, args, v, step + 1),
                            guard + [("v", f.name, args, v, step)], [nk])

        self.define_neqs(prog, neqs)
        return prog

    def define_neqs(self, prog: Program, keys) -> None:
        """Define each disequality atom ``('neq', f, args, v, step)`` by one
        rule per sibling value of f."""
        for key in sorted(keys, key=repr):
            _, fname, args, v, step = key
            for w in self.values[fname]:
                if w != v:
                    prog.add_rule(prog.atom(key),
                                  (prog.atom(("v", fname, args, w, step)),))

    def _is_fluent_lit(self, lit: FunLit) -> bool:
        info = self.sig.functions.get(lit.func)
        return info is not None and info.is_fluent

    # ---------------------------------------------------- state machinery

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

    def add_state_facts(self, prog: Program, state: State,
                        step: int) -> None:
        for f, args, v in state.atoms():
            info = self.sig.functions[f]
            if info.is_defined:
                continue
            prog.add_fact(("v", f, args, v, step))

    def state_from_model(self, model: frozenset, step: int) -> State:
        vals = {}
        for key in model:
            if key[0] == "v" and key[4] == step:
                vals[(key[1], key[2])] = key[3]
        return State.of(vals)

    def unsettled_domains(self, state: State) -> list[tuple[str, tuple]]:
        """The ``(dom_f, args)`` instances of basic fluents f whose domain
        atom has no value in the state."""
        vals = state.as_dict()
        out = []
        for f in self.basic_nondom_fluents():
            if not f.args:
                continue
            dn = dom_name(f.name)
            out.extend((dn, args) for args in self.tuples[f.name]
                       if (dn, args) not in vals)
        return out


@dataclass
class StateSpace:
    states: list[State]
    well_founded: bool
    #: fluent assignments whose definitional check found several answer sets
    ambiguous: list[State]


def enumerate_states(g: Grounder, budget: Optional[Budget] = None,
                     max_states: Optional[int] = None) -> StateSpace:
    """States of the diagram defined by `g.pm`, each certified."""
    gen = g.build_program(0)
    g.add_generation(gen, 0)
    seen: set[State] = set()
    states: list[State] = []
    ambiguous: list[State] = []
    for model in gen.answer_sets(budget=budget):
        cand = g.state_from_model(model, 0)
        if cand in seen:
            continue
        seen.add(cand)
        verdict = certify_state(g, cand, budget)
        if verdict == "state":
            states.append(cand)
            if max_states is not None and len(states) > max_states:
                raise BudgetExceeded("state limit exceeded")
        elif verdict == "ambiguous":
            ambiguous.append(cand)
    states.sort(key=lambda s: s.values)
    return StateSpace(states, well_founded=not ambiguous, ambiguous=ambiguous)


def certify_state(g: Grounder, cand: State,
                  budget: Optional[Budget] = None) -> str:
    """Definitional check: 'state', 'ambiguous' (several answer sets), or
    'rejected'."""
    prog = g.build_program(0)
    g.add_state_facts(prog, cand, 0)
    answers = []
    for model in prog.answer_sets(max_models=2, budget=budget):
        answers.append(model)
    if len(answers) != 1:
        return "ambiguous" if len(answers) == 2 else "rejected"
    got = g.state_from_model(answers[0], 0)
    if got != cand:
        return "rejected"
    # the domain of every basic fluent must be settled one way or the other
    return "rejected" if g.unsettled_domains(cand) else "state"


Transition = tuple[int, frozenset, int]


def compute_transitions(g: Grounder, states: list[State],
                        action_sets: str = "upto1",
                        budget: Optional[Budget] = None) -> list[Transition]:
    """Transitions between the given states, as (from, actions, to) triples.

    `action_sets` is "upto1" (the empty set and singletons) or "powerset".
    """
    index = {s: i for i, s in enumerate(states)}
    out: list[Transition] = []
    for i, s0 in enumerate(states):
        prog = g.build_program(1)
        g.add_state_facts(prog, s0, 0)
        occ_keys = [("occ", a, 0) for a in g.actions]
        for k in occ_keys:
            prog.add_choice(k)
        if action_sets == "upto1":
            prog.add_atmost(occ_keys, 1)
        seen: set[tuple[frozenset, int]] = set()
        for model in prog.answer_sets(budget=budget):
            acts = frozenset(k[1] for k in model if k[0] == "occ")
            s1 = g.state_from_model(model, 1)
            j = index.get(s1)
            if j is None:
                continue  # not a certified state; cannot label a transition
            if (acts, j) not in seen:
                seen.add((acts, j))
                out.append((i, acts, j))
    return out


@dataclass
class Diagram:
    grounder: Grounder
    states: list[State]
    transitions: list[Transition]
    well_founded: bool


def system_pre_models(theory: ActionTheory, structure: ast.Structure,
                      sink: DiagnosticSink) -> list[PreModel]:
    """Placements completed with derivable statics; conflicts dropped."""
    rules = structure_static_rules(theory, structure, sink)
    out = []
    for pm in enumerate_placements(theory.sig, structure, sink):
        if complete_statics(theory, rules, pm):
            out.append(pm)
    return out


def build_diagrams(grounders: list[Grounder], action_sets: str = "upto1",
                   budget: Optional[Budget] = None,
                   with_transitions: bool = True) -> list[Diagram]:
    """One diagram per pre-model with a non-empty set of states."""
    diagrams = []
    for g in grounders:
        space = enumerate_states(g, budget)
        if not space.states:
            continue
        trans = compute_transitions(g, space.states, action_sets, budget) \
            if with_transitions else []
        diagrams.append(Diagram(g, space.states, trans, space.well_founded))
    return diagrams


# ------------------------------------------------------------ statics fixpoint

def complete_statics(theory: ActionTheory, struct_rules: list[Constraint],
                     pm: PreModel) -> bool:
    """Derive static/attribute values to a fixpoint; False on conflict.

    Uses the structure's `values of statics` clauses, the definitions of
    defined statics, and the state constraints whose bodies mention no
    fluents.  Closed world for defined statics is implicit (missing = false).
    """
    g = Grounder(theory, pm)

    def static_only(body) -> bool:
        for lit in body:
            if isinstance(lit, OccLit):
                return False
            if isinstance(lit, FunLit) and g._is_fluent_lit(lit):
                return False
        return True

    derive_rules: list = []
    check_rules: list = []
    for c in struct_rules:
        derive_rules.append(c)
    for c in theory.constraints:
        if not static_only(c.body):
            continue
        if c.head is None:
            check_rules.append(c)
        elif not g._is_fluent_lit(c.head):
            derive_rules.append(c)
    for d in theory.definitions:
        info = theory.sig.functions.get(d.head.func)
        if info is None or info.is_fluent:
            continue
        if info.dom_of is not None:
            continue  # domains of statics are evaluated, not stored
        if static_only(d.body):
            derive_rules.append(d)

    for _ in range(200):
        changed = False
        for rule in derive_rules:
            for env in g.envs(rule):
                if not _static_body_true(g, rule.body, env):
                    continue
                head = rule.head
                argvals = tuple(g.eval_term(a, env) for a in head.args)
                val = g.eval_term(head.value, env)
                prev = pm.static_value(head.func, argvals)
                if prev is None:
                    pm.statics[(head.func, argvals)] = val
                    changed = True
                elif prev != val:
                    return False
        if not changed:
            break
    else:
        raise BudgetExceeded("static value derivation did not converge")

    for rule in check_rules:
        for env in g.envs(rule):
            if _static_body_true(g, rule.body, env):
                return False
    return True


def _static_body_true(g: Grounder, body, env) -> bool:
    for lit in body:
        if isinstance(lit, CmpLit):
            if not compare(lit.op, g.eval_term(lit.lhs, env),
                           g.eval_term(lit.rhs, env), lit.span):
                return False
            continue
        assert isinstance(lit, FunLit)
        argvals = tuple(g.eval_term(a, env) for a in lit.args)
        val = g.eval_term(lit.value, env)
        if not static_truth(g.pm, lit, argvals, val):
            return False
    return True
