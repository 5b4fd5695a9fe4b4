"""Pre-model, state and transition semantics.

The T0-style fixture values are frozen from the worked example; the random
suite generates small action theories as source text and re-checks the
static values of every pre-model and every enumerated state and transition
with evaluators written here from scratch.
"""

import random
import time
import tracemalloc
from collections import Counter
from itertools import chain, islice, product

import pytest

from almc import semantics, tasks
from almc.bat import CmpLit, Constraint, DynLaw, FunLit, OccLit
from almc.errors import BudgetExceeded, DiagnosticSink
from almc.lpcore import Budget, Program, _Search
from almc.memo import ReadsMemo
from almc.modular import (
    UndefinedArithmetic, build_universe, compare, enumerate_placements,
)
from almc.ontology import BASIC_FLUENT, DEFINED_FLUENT, FALSE, TRUE, dom_name
from almc.records import replace
from almc.semantics import (
    Grounder, State, build_diagrams, enumerate_states, compute_transitions,
    static_truth, stratified, system_pre_models,
)
from almc.syntax.parser import parse_file, parse_literal_text
from almc.tasks import (
    History, check_well_founded, compile_system, entails_at, parse_history,
    program_fingerprint, temporal_project,
)

from conftest import CORPUS, parse_path, read


def compile_src(src: str, search=()):
    sink = DiagnosticSink()
    return compile_system(parse_file(src), [str(p) for p in search], sink)


def grounder_of(cs):
    pms = system_pre_models(cs.theory, cs.structure, cs.sink)
    return Grounder(cs.theory, pms[0])


def state_key(state):
    return frozenset((f, args, v) for f, args, v in state.atoms())


def state_from_model(model, step):
    """The state at `step` of an answer set, read by a scan of the whole
    model and a sort: the reference for `ModelReader`."""
    vals = {}
    for key in model:
        if key[0] == "v" and key[4] == step:
            vals[(key[1], key[2])] = key[3]
    return State(tuple(sorted(vals.items())))


# ---------------------------------------------------------------- T0 fixture

T0_STATES = [
    {("dom_f", ("x",)): "false", ("dom_g", ("x",)): "true",
     ("g", ("x",)): "o"},
    {("dom_f", ("x",)): "false", ("dom_g", ("x",)): "true",
     ("g", ("x",)): "z"},
    {("dom_f", ("x",)): "true", ("dom_g", ("x",)): "true",
     ("f", ("x",)): "o", ("g", ("x",)): "o"},
    {("dom_f", ("x",)): "true", ("dom_g", ("x",)): "true",
     ("f", ("x",)): "o", ("g", ("x",)): "z"},
    {("dom_f", ("x",)): "true", ("dom_g", ("x",)): "true",
     ("f", ("x",)): "z", ("g", ("x",)): "o"},
    {("dom_f", ("x",)): "true", ("dom_g", ("x",)): "true",
     ("f", ("x",)): "z", ("g", ("x",)): "z"},
]

# full transition relation over the indices above, action sets of size <= 1
T0_TRANSITIONS = {
    (0, frozenset(), 0), (0, frozenset({"a"}), 2), (0, frozenset({"b"}), 0),
    (1, frozenset(), 1), (1, frozenset({"a"}), 1), (1, frozenset({"b"}), 1),
    (2, frozenset(), 2), (2, frozenset({"a"}), 2), (2, frozenset({"b"}), 0),
    (3, frozenset(), 3), (3, frozenset({"a"}), 3), (3, frozenset({"b"}), 1),
    (4, frozenset(), 4), (4, frozenset({"a"}), 2), (4, frozenset({"b"}), 0),
    (5, frozenset(), 5), (5, frozenset({"a"}), 5), (5, frozenset({"b"}), 1),
}


@pytest.fixture(scope="module")
def t0():
    sink = DiagnosticSink()
    cs = compile_system(parse_path(CORPUS / "t0.alm"), [], sink)
    g = grounder_of(cs)
    space = enumerate_states(g)
    return g, space


def test_t0_states_exact(t0):
    g, space = t0
    got = {state_key(s) for s in space.states}
    want = {frozenset((f, a, v) for (f, a), v in d.items()) for d in T0_STATES}
    assert got == want
    assert space.well_founded


def numbered(states, trans, fixture):
    """`trans` over the indices of `fixture`, a list of states as dicts,
    with each action set as a set of strings."""
    index = [fixture.index(dict(((f, a), v) for f, a, v in s.atoms()))
             for s in states]
    return {(index[i], frozenset(map(str, acts)), index[j])
            for i, acts, j in trans}


def test_t0_transitions_exact(t0):
    g, space = t0
    trans = compute_transitions(g, space.states)
    assert numbered(space.states, trans, T0_STATES) == T0_TRANSITIONS


@pytest.mark.parametrize("condition", [
    "impossible occurs(a) if instance(a, t0_actions), occurs(b).",
    "impossible occurs(A) if instance(A, t0_actions), occurs(B), A != B.",
])
def test_occurrence_in_an_executability_condition(condition):
    """With a forbidden together with b, or any two actions together, the
    powerset of t0's actions gives the transitions of the empty set and
    the single actions alone: the three of {a, b} go."""
    src = read(CORPUS / "t0.alm")
    last = "        false if -dom_g(X), instance(X, c2).\n"
    assert src.count(last) == 1
    g = grounder_of(compile_src(src.replace(
        last, f"{last}        {condition}\n")))
    space = enumerate_states(g)
    trans = compute_transitions(g, space.states, "powerset")
    assert numbered(space.states, trans, T0_STATES) == T0_TRANSITIONS


# A counter over [0..3] that act0 steps up and a state constraint keeps
# below 3: four states (no value, 0, 1, 2), each kept by the empty set; act0
# keeps no value, steps 0 to 1 and 1 to 2, and from 2 has no transition
COUNTER_STATES = [
    {("dom_cnt", ("x",)): "false"},
    *({("dom_cnt", ("x",)): "true", ("cnt", ("x",)): n} for n in range(3)),
]
COUNTER_TRANSITIONS = {
    *((i, frozenset(), i) for i in range(4)),
    (0, frozenset({"act0"}), 0), (1, frozenset({"act0"}), 2),
    (2, frozenset({"act0"}), 3),
}


@pytest.mark.parametrize("reached", [
    "cnt(X) = 3", "cnt(X) > 2", "2 < cnt(X)", "cnt(X) >= 3", "3 <= cnt(X)"])
def test_order_comparisons_with_a_function_term(reached):
    """An order comparison of a function term with a number, on either
    side, says what the equality says on a counter over [0..3]."""
    g = grounder_of(compile_src(fixture_source("""\
          basic
            cnt : elems -> [0..3]""", f"""\
        occurs(A) causes cnt(X) = Y + 1 if instance(A, acts), cnt(X) = Y.
        false if {reached}.""")))
    space = enumerate_states(g)
    assert {state_key(s) for s in space.states} == {
        frozenset((f, a, v) for (f, a), v in d.items())
        for d in COUNTER_STATES}
    trans = compute_transitions(g, space.states)
    assert numbered(space.states, trans, COUNTER_STATES) == \
        COUNTER_TRANSITIONS


def test_action_sets_take_the_cli_names(t0):
    # "singleton" allows the empty set and single actions, as the CLI's
    # --action-sets does; a name the library does not know is an error,
    # not the powerset
    g, space = t0
    assert len(compute_transitions(g, space.states, "singleton")) == 18
    assert len(compute_transitions(g, space.states, "powerset")) == 21
    for name in ("upto1", "Singleton", ""):
        with pytest.raises(ValueError):
            compute_transitions(g, space.states, name)


def test_empty_action_set_is_inertia(t0):
    g, space = t0
    trans = compute_transitions(g, space.states)
    for i, acts, j in trans:
        if not acts:
            assert i == j


def test_diagrams_ground_one_program_per_horizon(monkeypatch):
    # states and transitions reuse one horizon-0 and one horizon-1 program
    # per pre-model, whatever the number of states; the pre-models, whose
    # statics programs are ground too, are derived first
    cs = compile_system(parse_path(CORPUS / "travel.alm"), [],
                        DiagnosticSink())
    grounders = cs.grounders
    calls = Counter()
    build = Grounder.build_program

    def counting(self, horizon, sink=None):
        calls[self, horizon] += 1
        return build(self, horizon, sink)

    monkeypatch.setattr(Grounder, "build_program", counting)
    diagrams = build_diagrams(cs)
    assert sum(len(d.states) for d in diagrams) > 2
    assert set(calls.values()) == {1}
    assert len(calls) <= 2 * len(grounders)


def test_travel_certifies_only_the_models_it_returns(monkeypatch):
    # travel's symmetric and transitive connectivity rules form positive
    # loops; the search falsifies their unfounded sets, so every candidate
    # it hands to the certifier is an answer set that it then returns
    cs = compile_system(parse_path(CORPUS / "travel.alm"), [],
                        DiagnosticSink())
    calls = Counter()
    certify = Program.is_answer_set
    answer_sets = Program.answer_sets

    def counting_certify(self, *args, **kwargs):
        calls["certify"] += 1
        return certify(self, *args, **kwargs)

    def counting_answer_sets(self, *args, **kwargs):
        for model in answer_sets(self, *args, **kwargs):
            calls["models"] += 1
            yield model

    monkeypatch.setattr(Program, "is_answer_set", counting_certify)
    monkeypatch.setattr(Program, "answer_sets", counting_answer_sets)
    grounders = cs.grounders
    assert any(g.state_program().loop_atoms() for g in grounders)
    diagrams = build_diagrams(cs)
    assert sum(len(d.transitions) for d in diagrams) > 0
    assert calls["models"] > 0
    assert calls["certify"] == calls["models"]


def test_travel_finds_one_unfounded_set_per_source_state(monkeypatch):
    # each source state's switches leave step-1 connectivity atoms without
    # a founding rule; source pointers find that set once, at the run's
    # root, and no model of the run finds it again
    cs = compile_system(parse_path(CORPUS / "travel.alm"), [],
                        DiagnosticSink())
    g = grounder_of(cs)
    states = enumerate_states(g).states
    found: list[int] = []  # per run, the unfounded sets found
    answer_sets, unfounded = Program.answer_sets, _Search._unfounded

    def counting_answer_sets(self, *args, **kwargs):
        found.append(0)
        yield from answer_sets(self, *args, **kwargs)

    def counting_unfounded(self):
        got = unfounded(self)
        found[-1] += bool(got)
        return got

    monkeypatch.setattr(Program, "answer_sets", counting_answer_sets)
    monkeypatch.setattr(_Search, "_unfounded", counting_unfounded)
    assert compute_transitions(g, states)
    assert len(states) == 189
    assert found == [1] * 189


def test_not_well_founded_fixture_has_no_states():
    sink = DiagnosticSink()
    cs = compile_system(parse_path(CORPUS / "n_w_f.alm"), [], sink)
    g = grounder_of(cs)
    space = enumerate_states(g)
    assert not space.well_founded
    assert space.states == []


def test_three_pre_models_for_alice():
    sink = DiagnosticSink()
    cs = compile_system(parse_path(CORPUS / "professors.alm"), [], sink)
    pms = system_pre_models(cs.theory, cs.structure, sink)
    assert len(pms) == 3


# ------------------------------------------------------------ random BATs

STATICS = ["s0", "s1", "s2"]


def neg(rng):
    return "-" if rng.random() < 0.5 else ""


def make_source(rng, reads_d=False):
    """A random action theory over the fluents p, q, r and the defined d.
    With `reads_d`, it also has a nullary basic fluent u, unset in some
    states, and a defined e that reads d, and state constraints with a
    basic head read d or e, negated or not; d may read u.  Those draws
    come after every other, so the stream without `reads_d` is kept."""
    n_obj = rng.randrange(1, 3)
    objects = [f"e{i}" for i in range(n_obj)]
    n_act = rng.randrange(1, 3)
    actions = [f"act{i}" for i in range(n_act)]
    fluents = ["p", "q", "r"][: rng.randrange(2, 4)]
    total = {f for f in fluents if rng.random() < 0.3}

    def lit(f=None):
        f = f or rng.choice(fluents)
        sign = "-" if rng.random() < 0.4 else ""
        return f"{sign}{f}(X)"

    axioms = []
    for _ in range(rng.randrange(1, 4)):
        body = f"instance(A, acts), instance(X, elems)"
        if rng.random() < 0.5:
            body += f", {lit()}"
        axioms.append(f"occurs(A) causes {lit()} if {body}.")
    if rng.random() < 0.5:
        axioms.append(f"false if {lit()}, {lit()}, instance(X, elems).")
    if rng.random() < 0.5:
        axioms.append(f"{lit()} if {lit()}, instance(X, elems).")
    d_at = len(axioms)
    axioms.append(f"d(X) if {lit()}, {lit()}, instance(X, elems).")
    if rng.random() < 0.5:
        axioms.append(
            f"impossible occurs(A) if instance(A, acts), "
            f"instance(X, elems), {lit()}.")

    # defined statics, stratified in name order: a clause reads a lower
    # static, negated or not, and its own static only positively; the
    # clauses come in random order, and d may read a static
    statics = STATICS[: rng.randrange(1, 4)]
    clauses = []
    for i, st in enumerate(statics):
        for _ in range(rng.randrange(1, 3)):
            body = ["instance(X, elems)"]
            if i and rng.random() < 0.8:
                body.append(f"{neg(rng)}{rng.choice(statics[:i])}(X)")
            if rng.random() < 0.4:
                body.append(f"X {rng.choice(['=', '!='])} "
                            f"{rng.choice(objects)}")
            if rng.random() < 0.3:
                body += [f"{st}(Y)", "instance(Y, elems)", "X != Y"]
            clauses.append(f"{st}(X) if {', '.join(body)}.")
    rng.shuffle(clauses)
    axioms += clauses
    if rng.random() < 0.5:
        axioms[d_at] = \
            f"{axioms[d_at][:-1]}, {neg(rng)}{rng.choice(statics)}(X)."

    defined = ""
    if reads_d:
        defined = "\n            e : elems -> booleans"
        axioms.append(f"e(X) if {neg(rng)}d(X), instance(X, elems).")
        for _ in range(rng.randrange(1, 3)):
            head = rng.choice(["u", "-u", lit()])
            axioms.append(f"{head} if {neg(rng)}{rng.choice('de')}(X), "
                          "instance(X, elems).")
        if rng.random() < 0.5:
            axioms[d_at] = f"{axioms[d_at][:-1]}, {neg(rng)}u."
        fluents.append("u")

    decls = "\n".join(
        f"              {'total ' if f in total else ''}{f} : "
        f"{'' if f == 'u' else 'elems -> '}booleans" for f in fluents)
    static_decls = "\n".join(f"            {st} : elems -> booleans"
                             for st in statics)
    ax = "\n".join(f"        {a}" for a in axioms)
    insts = "\n".join(f"      {o} in elems" for o in objects) + "\n" + \
        "\n".join(f"      {a} in acts" for a in actions)
    return f"""
system description rnd
  theory t
    module m
      sort declarations
        elems :: universe
        acts :: actions
      function declarations
        statics
          defined
{static_decls}
        fluents
          basic
{decls}
          defined
            d : elems -> booleans{defined}
      axioms
{ax}
  structure b
    instances
{insts}
"""


def envs(g, stmt):
    """Every binding of the statement's variables: the full product of
    their domains, in binding order."""
    plan = g.binding_plan(stmt, ())
    for combo in product(*g._domains(stmt, plan)):
        yield dict(zip(plan.names, combo))


def lit_true(g, pm, lit, env, values):
    """Truth of a ground body literal against a state's value map."""
    if isinstance(lit, CmpLit):
        return compare(lit.op, g.eval_term(lit.lhs, env),
                       g.eval_term(lit.rhs, env), lit.span)
    assert isinstance(lit, FunLit)
    argvals = tuple(g.eval_term(a, env) for a in lit.args)
    val = g.eval_term(lit.value, env)
    info = g.sig.functions.get(lit.func)
    if info is None or not info.is_fluent:
        return static_truth(pm, lit, argvals, val)
    cur = values.get((lit.func, argvals))
    if lit.op == "=":
        return cur == val
    return cur is not None and cur != val


def check_state(g, pm, theory, state):
    values = {(f, a): v for f, a, v in state.atoms()}
    # (c) state constraints hold
    for c in theory.constraints:
        for env in envs(g, c):
            if all(lit_true(g, pm, b, env, values) for b in c.body
                   if not isinstance(b, OccLit)):
                assert c.head is not None, (c, env, values)
                assert lit_true(g, pm, c.head, env, values), (c, env, values)
    # (b) defined fluents are exactly the definitional fixpoint; static
    # clauses are checked by `stratified_statics`
    derived = {}
    changed = True
    while changed:
        changed = False
        for clause in theory.definitions:
            if not g._is_atom_lit(clause.head):
                continue
            for env in envs(g, clause):
                base = dict(values)
                base.update(derived)
                if all(lit_true(g, pm, b, env, base) for b in clause.body):
                    key = (clause.head.func,
                           tuple(g.eval_term(a, env)
                                 for a in clause.head.args))
                    if derived.get(key) != TRUE:
                        derived[key] = TRUE
                        changed = True
    for f in theory.sig.functions.values():
        if f.kind != DEFINED_FLUENT:
            continue
        for args in g.tuples[f.name]:
            want = derived.get((f.name, args), FALSE)
            assert values.get((f.name, args), FALSE) == want, \
                (f.name, args, values)


def check_transitions(g, theory, states, trans):
    affected = set()
    for law in theory.dynamic:
        affected.add(law.head.func)
        affected.add(dom_name(law.head.func))
    # indirect effects: state-constraint heads may be forced to follow
    for c in theory.constraints:
        if c.head is not None:
            affected.add(c.head.func)
            affected.add(dom_name(c.head.func))
    basic = {f.name for f in theory.sig.functions.values()
             if f.kind == BASIC_FLUENT}
    for i, acts, j in trans:
        a = {(f, args): v for f, args, v in states[i].atoms()}
        b = {(f, args): v for f, args, v in states[j].atoms()}
        if not acts:
            assert i == j
            continue
        for key in set(a) | set(b):
            if key[0] not in basic:
                continue  # defined fluents follow their definitions
            if a.get(key) != b.get(key):
                assert key[0] in affected, (key, i, j, acts)


def static_lit_true(g, lit, env, true):
    """Truth of a static body literal, the defined statics `STATICS` read
    from the set `true` of their true instances."""
    if isinstance(lit, CmpLit):
        return compare(lit.op, g.eval_term(lit.lhs, env),
                       g.eval_term(lit.rhs, env), lit.span)
    argvals = tuple(g.eval_term(a, env) for a in lit.args)
    val = g.eval_term(lit.value, env)
    if lit.func not in STATICS:
        return static_truth(g.pm, lit, argvals, val)
    holds = ((lit.func, argvals) in true) == (val == TRUE)
    return holds if lit.op == "=" else not holds


def stratified_statics(g, theory):
    """The true instances of the defined statics of a random BAT, stratum
    by stratum in name order, each to its own fixpoint: a stratum reads
    the lower ones, complete by then, and itself only positively."""
    true = set()
    for st in STATICS:
        clauses = [c for c in theory.definitions if c.head.func == st]
        changed = True
        while changed:
            changed = False
            for c in clauses:
                for env in envs(g, c):
                    key = (st, tuple(g.eval_term(a, env) for a in c.head.args))
                    if key not in true and all(
                            static_lit_true(g, b, env, true) for b in c.body):
                        true.add(key)
                        changed = True
    return true


def test_100_random_bats_satisfy_inertia_cwa_and_constraints():
    rng = random.Random(413)
    n_states = 0
    n_true = n_negated = 0
    for trial in range(100):
        src = make_source(rng)
        cs = compile_src(src)
        pms = system_pre_models(cs.theory, cs.structure, cs.sink)
        (pm,) = pms
        g = Grounder(cs.theory, pm)
        # the pre-model's defined statics are those of the stratified
        # evaluation, and nothing else is stored for them
        true = stratified_statics(g, cs.theory)
        assert {(f, args) for (f, args), v in pm.statics.items()
                if f in STATICS} == true
        assert all(pm.statics[key] == TRUE for key in true)
        n_true += len(true)
        n_negated += "-s" in src
        space = enumerate_states(g)
        for s in space.states:
            check_state(g, pm, cs.theory, s)
        trans = compute_transitions(g, space.states)
        check_transitions(g, cs.theory, space.states, trans)
        n_states += len(space.states)
    assert n_states > 100  # the suite is not vacuous
    assert n_true > 50 and n_negated > 50


# ------------------------------------------------------------ grounding oracle

def reference_program(g, horizon):
    """`Grounder.build_program` by its definition: every binding in the
    full product of the variable domains, at every step, with the body
    literals ground one by one in body order and the rule dropped at the
    first statically false one."""
    prog = Program()
    neqs = set()
    th = g.theory

    def add(head, pos, neg=()):
        h = None if head is None else prog.atom(head)
        prog.add_rule(h, [prog.atom(k) for k in pos],
                      [prog.atom(k) for k in neg])
        neqs.update(k for k in [*pos, *neg] if k[0] == "neq")

    def body(lits, env, step, pos, neg):
        for lit in lits:
            r = g.ground_lit(lit, env)
            if r is False:
                return False
            if r is not True:
                (pos if r[1] else neg).append(r[0] + (step,))
        return True

    def head_of(lit, env):
        try:
            return (tuple(g.eval_term(a, env) for a in lit.args),
                    g.eval_term(lit.value, env))
        except UndefinedArithmetic:
            return None

    for stmt in th.constraints + th.definitions:
        for env in envs(g, stmt):
            for step in range(horizon + 1):
                pos, neg = [], []
                if not body(stmt.body, env, step, pos, neg):
                    continue
                if stmt.head is None:
                    add(None, pos, neg)
                    continue
                ground = head_of(stmt.head, env)
                if ground is None:
                    continue
                (args, val), f = ground, stmt.head.func
                info = g.sig.functions.get(f)
                if info is None or not info.is_fluent:
                    if not static_truth(g.pm, stmt.head, args, val):
                        add(None, pos, neg)
                elif g._typed(info, args) and val in g.values[f]:
                    add(("v", f, args, val, step), pos, neg)
                else:
                    add(None, pos, neg)
    for stmt in th.dynamic + th.executability:
        dynamic = isinstance(stmt, DynLaw)
        for env in envs(g, stmt):
            act = g.eval_term(stmt.act, env)
            if not g.pm.is_instance(act, stmt.sort):
                continue
            if dynamic:
                ground = head_of(stmt.head, env)
                if ground is None:
                    continue
                (args, val), f = ground, stmt.head.func
                if not (g._typed(g.sig.functions[f], args)
                        and val in g.values[f]):
                    continue
            for step in range(horizon if dynamic else max(horizon, 1)):
                pos, neg = [("occ", act, step)], []
                if body(stmt.body, env, step, pos, neg):
                    add(("v", f, args, val, step + 1) if dynamic else None,
                        pos, neg)
    fluents = g.sig.functions.values()
    for f in fluents:
        if f.kind == DEFINED_FLUENT:
            for args in g.tuples[f.name]:
                for step in range(horizon + 1):
                    add(("v", f.name, args, FALSE, step), (),
                        [("v", f.name, args, TRUE, step)])
    for f, args_list in g.tuples.items():
        vals = g.values[f]
        for args in args_list:
            for i, vi in enumerate(vals):
                for vj in vals[i + 1:]:
                    for step in range(horizon + 1):
                        add(None, [("v", f, args, vi, step),
                                   ("v", f, args, vj, step)])
    for f in fluents:
        if f.kind != BASIC_FLUENT:
            continue
        for args in g.tuples[f.name]:
            if f.dom_of is not None:
                for step in range(horizon):
                    for v, w in ((TRUE, FALSE), (FALSE, TRUE)):
                        add(("v", f.name, args, v, step + 1),
                            [("v", f.name, args, v, step)],
                            [("v", f.name, args, w, step + 1)])
                continue
            for v in g.values[f.name]:
                for step in range(horizon):
                    guard = [("v", dom_name(f.name), args, TRUE, step + 1)] \
                        if f.args else []
                    add(("v", f.name, args, v, step + 1),
                        guard + [("v", f.name, args, v, step)],
                        [("neq", f.name, args, v, step + 1)])
    # each disequality atom by one rule per sibling value, in atom order
    for key in sorted(neqs, key=prog.atom):
        _, f, args, v, step = key
        for w in g.values[f]:
            if w != v:
                add(key, [("v", f, args, w, step)])
    return prog


GROUND_SYSTEMS = ["t0", "travel", "monkey_and_banana", "cell_cycle2",
                  "professors", "n_w_f"]


def corpus_grounders():
    for name in GROUND_SYSTEMS:
        cs = compile_system(parse_path(CORPUS / f"{name}.alm"), [str(CORPUS)],
                            DiagnosticSink())
        yield from cs.grounders


def random_bat_grounders():
    rng = random.Random(413)
    for _ in range(100):
        yield from compile_src(make_source(rng)).grounders


def test_templates_ground_the_reference_programs():
    """Body-ordered binding into step-free templates gives, rule for rule,
    the programs of the full product filtered literal by literal."""
    checked = 0
    for g in [*corpus_grounders(), *random_bat_grounders()]:
        for horizon in range(4):
            prog = g.build_program(horizon)
            assert program_fingerprint(prog) == \
                program_fingerprint(reference_program(g, horizon)), horizon
            # what `cli.program_text` exports, and all it exports
            assert not prog.choice and not prog.cr_rules and not prog.atmost
            checked += 1
    assert checked == 4 * (16 + 100)


def test_templates_ground_the_reference_programs_past_step_9():
    """At horizon 11 the rules that define the disequality atoms come in
    ascending atom order, past step 9 as before it."""
    t0 = compile_system(parse_path(CORPUS / "t0.alm"), [], DiagnosticSink())
    grounders = [*t0.grounders, *islice(random_bat_grounders(), 20)]
    ordered = 0
    for g in grounders:
        prog = g.build_program(11)
        assert program_fingerprint(prog) == \
            program_fingerprint(reference_program(g, 11))
        heads = [h for h, _, _ in prog.rules
                 if h >= 0 and prog.keys[h][0] == "neq"]
        steps = {prog.keys[h][4] for h in heads}
        ordered += heads == sorted(heads) and {2, 10} <= steps
    assert ordered == len(grounders) == 21


# ------------------------------------------------------------ group keys

# The tests' own form of a template rule: (head, pos, neg), each key a pair
# (step-free key, offset), and a head of None for a constraint.

def pair_rule(head, pos=(), neg=()):
    return (head, tuple(pos), tuple(neg))


def body_pairs(results):
    """Positive and negative body pairs (offset 0) of a body's literal
    results (`Grounder.ground_lit`), each in body order."""
    pos = [(r[0], 0) for r in results if r is not True and r[1]]
    neg = [(r[0], 0) for r in results if r is not True and not r[1]]
    return pos, neg


def decoded(keys, groups):
    """The numbered template groups of `_ground_templates` in pair form."""
    def pair(c):
        return None if c < 0 else (keys[c >> 1], c & 1)

    return tuple(
        tuple(tuple((pair(lits[0]), tuple(map(pair, lits[1:j])),
                     tuple(map(pair, lits[j:])))
                    for lits, j in template)
              for template in templates)
        for templates in groups)


def direct_templates(g):
    """The state, dynamic and executability templates ground in one pass:
    every binding of the whole body (`bindings` below), the static and
    fluent literals together, with the static head and the action's sort
    checked after the body."""
    th = g.theory
    state, dynamic, executable = [], [], []

    def bindings(stmt):
        plan = g.binding_plan(stmt, stmt.body)
        return g._bindings(plan, g._domains(stmt, plan), None)

    def ground_head(lit, env):
        try:
            return (tuple(g.eval_term(a, env) for a in lit.args),
                    g.eval_term(lit.value, env))
        except UndefinedArithmetic:
            return None

    def fits(f, args, val):
        return g._typed(g.sig.functions[f], args) and val in g.values[f]

    for stmt in th.constraints + th.definitions:
        for env, results in bindings(stmt):
            pos, neg = body_pairs(results)
            head = stmt.head
            ground = None if head is None else ground_head(head, env)
            if head is not None and ground is None:
                continue
            if head is None or not g._is_atom_lit(head):
                if head is None or not static_truth(g.pm, head, *ground):
                    state.append((pair_rule(None, pos, neg),))
            elif fits(head.func, *ground):
                state.append((pair_rule((("v", head.func, *ground), 0),
                                        pos, neg),))
            else:
                state.append((pair_rule(None, pos, neg),))
    for stmt in th.dynamic + th.executability:
        for env, results in bindings(stmt):
            act = g.eval_term(stmt.act, env)
            if not g.pm.is_instance(act, stmt.sort):
                continue
            pos, neg = body_pairs(results)
            body = [(("occ", act), 0)] + pos
            if isinstance(stmt, DynLaw):
                ground = ground_head(stmt.head, env)
                if ground is not None and fits(stmt.head.func, *ground):
                    dynamic.append((pair_rule(
                        (("v", stmt.head.func, *ground), 1), body, neg),))
            else:
                executable.append((pair_rule(None, body, neg),))
    return tuple(map(tuple, (state, dynamic, executable)))


READERS = ["false if instance(X, kind_a), p(X).",
           "occurs(A) causes p(X) if instance(A, acts), instance(X, kind_a).",
           "impossible occurs(A) if instance(A, acts), instance(X, kind_a), "
           "q(X).",
           ""]


def placed_bat_systems():
    """Random BATs whose objects are placed into one of two source sorts,
    which a state constraint, a causal law, an executability condition or
    nothing reads, so that their pre-models group alike or not."""
    rng, kinds = random.Random(413), random.Random(7)
    for _ in range(100):
        src = make_source(rng).replace(
            "        acts :: actions",
            "        kind_a, kind_b :: elems\n        acts :: actions")
        yield compile_src(src.replace(
            "      axioms\n",
            "      axioms\n        " + kinds.choice(READERS) + "\n"))


def group_sizes(grounders):
    """The number of grounders per `program_key`, and, under each key, the
    numbered templates, which must be the same for every grounder: the rule
    templates are a function of the key."""
    groups = {}
    for g in grounders:
        templates = g._ground_templates(None)
        assert decoded(*templates)[:3] == direct_templates(g)
        seen = groups.setdefault(g.program_key(), [templates, 0])
        assert seen[0] == templates
        seen[1] += 1
    return sorted(n for _, n in groups.values())


def test_equal_program_keys_give_equal_templates():
    """The key is sound: pre-models with equal keys ground equal templates,
    each equal to one-pass grounding over the whole body."""
    for name in GROUND_SYSTEMS:
        cs = compile_system(parse_path(CORPUS / f"{name}.alm"), [str(CORPUS)],
                            DiagnosticSink())
        sizes = group_sizes(cs.grounders)
        if name == "monkey_and_banana":
            assert sizes == [8]
        elif name == "cell_cycle2":
            assert sizes == [2]
    rng = random.Random(413)
    for _ in range(100):
        assert group_sizes(compile_src(make_source(rng)).grounders) == [1]
    grouped = split = 0
    for cs in placed_bat_systems():
        sizes = group_sizes(cs.grounders)
        assert sum(sizes) == len(cs.grounders) > 1
        grouped += sizes[-1] > 1
        split += len(sizes) > 1
    assert grouped > 0 and split > 0


def test_numbering_interns_only_used_keys():
    """`_ground_templates` numbers a rule's keys once the rule is kept, so
    every key it returns appears in a rule.  In DROPPED_HEADS, a causal law
    and a state constraint drop every binding at the head, after their
    bodies, which name keys that no other rule has, are ground."""
    for g in [*corpus_grounders(), *random_bat_grounders(),
              *compile_src(DROPPED_HEADS).grounders]:
        keys, groups = g._ground_templates(None)
        used = {c >> 1 for templates in groups for template in templates
                for lits, _ in template for c in lits if c >= 0}
        assert used == set(range(len(keys)))


def ungrouped(cs, run):
    """`run()` with grouping switched off: `Grounder.program_key` gives
    every grounder a key, and so a group, of its own.  `cs.groups` is
    cached, so it is dropped before and after the run."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(Grounder, "program_key",
                  lambda self, budget=None, memo=None: id(self))
        cs.__dict__.pop("groups", None)
        try:
            result = run()
            assert len(cs.groups) == len(cs.grounders)
            return result
        finally:
            cs.__dict__.pop("groups", None)


# objects e0 and e1 are each placed in kind_a or kind_b; only e1's
# placement is read, so the 4 pre-models have the keys A, B, A, B
INTERLEAVED = """
system description interleaved
  theory t
    module m
      sort declarations
        elems :: universe
        kind_a, kind_b :: elems
        acts :: actions
      function declarations
        fluents
          basic
            p : elems -> booleans
      axioms
        occurs(A) causes p(X) if instance(A, acts), instance(X, elems).
        false if instance(X, kind_a), p(X), X = e1.
  structure s
    instances
      e0 in elems
      e1 in elems
      act0 in acts
"""

# n_w_f with x placed in c1 or c2, which no rule reads: not stratified,
# not well-founded, and 2 pre-models with one key
NWF_PLACED = """
system description n_w_f_placed
  theory n_w_f
    module main
      sort declarations
        c :: universe
        c1, c2 :: c
      function declarations
        fluents
          defined
            f : c -> booleans
            g : c -> booleans
      axioms
        f(X) if -g(X).
        g(X) if -f(X).
  structure n_w_f
    instances
      x in c
"""


def diagram_results(cs):
    """What `states`, `transitions` and `check --well-founded` compute."""
    return ([build_diagrams(cs, sets) for sets in ("singleton", "powerset")],
            build_diagrams(cs, with_transitions=False),
            check_well_founded(cs))


def test_equal_program_keys_give_equal_diagrams(monkeypatch):
    """The key is sound for diagrams too: run with every pre-model a group
    of its own, the states, the transitions of both kinds of action sets
    and the semantic well-foundedness check are the grouped runs'.  With
    `stratified` off, the well-foundedness check is semantic and each
    state takes the full definitional check by search.  A system whose
    pre-models all have keys of their own is skipped, as both runs are
    the same computation.  Monkey (8 pre-models of 10,416 states)
    and cell_cycle2 take minutes per run, so only their templates are
    checked (above)."""
    for module in (semantics, tasks):
        monkeypatch.setattr(module, "stratified", lambda th: False)
    systems = [compile_system(parse_path(CORPUS / f"{name}.alm"),
                              [str(CORPUS)], DiagnosticSink())
               for name in ("t0", "travel", "professors", "n_w_f")]
    systems += [compile_src(INTERLEAVED), compile_src(NWF_PLACED)]
    checked = split = ambiguous = 0
    for cs in [*systems, *placed_bat_systems()]:
        if len(cs.groups) == len(cs.grounders):
            continue
        grouped = diagram_results(cs)
        assert ungrouped(cs, lambda: diagram_results(cs)) == grouped
        checked += 1
        split += len(cs.groups) > 1
        ambiguous += grouped[2].witness is not None
    assert checked > 20 and split > 0 and ambiguous > 0


# ------------------------------------------------------------ verdicts

def full_verdict(g, cand):
    """The definitional check by search, written here from its definition:
    the horizon-0 program with the candidate's non-defined atoms as facts
    has one answer set, the candidate, and the domain of every basic
    fluent instance with arguments has a value."""
    answers = list(g.state_program().answer_sets(
        max_models=2, facts=g.state_facts(cand, 0)))
    if len(answers) == 2:
        return "ambiguous"
    if not answers or state_from_model(answers[0], 0) != cand:
        return "rejected"
    values = cand.as_dict()
    settled = all((dom_name(f.name), args) in values
                  for f in g.basic_nondom_fluents() if f.args
                  for args in g.tuples[f.name])
    return "state" if settled else "rejected"


def verdict_oracle(monkeypatch):
    """Check every `certify_state` call of `enumerate_states` and
    `temporal_project` against `full_verdict`.  Returns a counter of
    (theory `stratified`, verdict, whether the call solved a program)."""
    seen = Counter()
    solves = [0]
    certify, answer_sets = semantics.certify_state, Program.answer_sets

    def counting(prog, *args, **kwargs):
        solves[0] += 1
        return answer_sets(prog, *args, **kwargs)

    def checked(g, cand, budget=None, derived=True):
        before = solves[0]
        verdict = certify(g, cand, budget, derived)
        seen[stratified(g.theory), verdict, solves[0] > before] += 1
        assert verdict == full_verdict(g, cand), (cand, derived)
        return verdict

    monkeypatch.setattr(Program, "answer_sets", counting)
    for module in (semantics, tasks):
        monkeypatch.setattr(module, "certify_state", checked)
    return seen


def fixture_source(fluents, axioms):
    return f"""
system description fixture
  theory t
    module m
      sort declarations
        elems :: universe
        acts :: actions
      function declarations
        fluents
{fluents}
      axioms
{axioms}
  structure s
    instances
      x in elems
      act0 in acts
"""


# ROADMAP item 7's fixture: -d makes p true, and -p makes d true
P_D = fixture_source("""\
          basic
            p : booleans
          defined
            d : booleans""", """\
        p if -d.
        d if -p.
        occurs(A) causes -p if instance(A, acts).""")

# stratified definitions, yet a negated defined fluent reaches its own
# definition through the basic b: with b unset, the state program has two
# answer sets, one without b and one that derives it from -d2
CROSS_STRATA = fixture_source("""\
          basic
            b : booleans
          defined
            d1 : booleans
            d2 : booleans""", """\
        d1 if b.
        d2 if -d1.
        b if -d2.""")

# d follows p, so an observation of d at step 0, which is a fact of the
# history program, needs the full check
OBSERVED_D = fixture_source("""\
          basic
            p : elems -> booleans
          defined
            d : elems -> booleans""", """\
        d(X) if p(X).""")


# every binding of the causal law and of the state constraint is dropped at
# its head, where `Y mod 0` has no value; the occurrence of act0 and
# `d(x) != true` appear in no other rule
DROPPED_HEADS = fixture_source("""\
          basic
            f : elems -> [0..2]
          defined
            d : elems -> booleans""", """\
        occurs(A) causes f(X) = Y mod 0 if instance(A, acts), f(X) = Y.
        f(X) = Y mod 0 if d(X) != true, f(X) = Y.""")


def test_corpus_verdicts_without_search_are_the_full_checks(monkeypatch):
    """Each state of the t0, travel and professors diagrams, and each
    trajectory state of the golden projections and of monkey's validated
    plans, gets the full check's verdict, and these stratified theories
    solve nothing to get it.  The theories that are not stratified (n_w_f,
    NWF_PLACED, and the P_D and CROSS_STRATA fixtures) still solve."""
    from test_golden import CASES, run_case
    seen = verdict_oracle(monkeypatch)
    for name in ("t0", "travel", "professors"):
        build_diagrams(compile_system(parse_path(CORPUS / f"{name}.alm"),
                                      [], DiagnosticSink()),
                       with_transitions=False)
    for name, argv in CASES.items():
        if name.startswith("project-") or name == "plan-mb-h6":
            run_case(argv)
    assert set(seen) == {(True, "state", False)}
    assert seen[True, "state", False] > 200
    one_action = parse_history("happened(act0, 0).")
    ambiguous = 0
    for src, hist in ((read(CORPUS / "n_w_f.alm"), History()),
                      (NWF_PLACED, History()), (P_D, one_action),
                      (CROSS_STRATA, one_action)):
        seen.clear()
        cs = compile_src(src)
        build_diagrams(cs)
        temporal_project(cs, hist)
        assert seen and all(not strat and searched
                            for strat, _, searched in seen), src
        ambiguous += seen[False, "ambiguous", True]
    assert ambiguous > 0


def test_random_bat_verdicts_without_search_are_the_full_checks(
        monkeypatch):
    """The 100 random BATs of the inertia suite, and 100 whose basic-headed
    state constraints read a defined fluent (`make_source(reads_d=True)`):
    each candidate state and each state of a one-action projection gets
    the full check's verdict.  Some of the latter are not stratified, and
    one has a candidate that is ambiguous."""
    seen = verdict_oracle(monkeypatch)
    rng, variant = random.Random(413), random.Random(417)
    hist = parse_history("happened(act0, 0).")
    for src in chain((make_source(rng) for _ in range(100)),
                     (make_source(variant, reads_d=True)
                      for _ in range(100))):
        cs = compile_src(src)
        build_diagrams(cs, with_transitions=False)
        temporal_project(cs, hist)
    assert seen[True, "state", False] > 1000
    assert seen[False, "state", True] > 1000
    assert seen[False, "ambiguous", True] > 0
    assert not any(searched for strat, _, searched in seen if strat)


def test_certified_candidates_settle_every_domain(monkeypatch):
    """`certify_state` reads no domain: its precondition says that each
    candidate settles the domain of every basic fluent instance with
    arguments, and so does each candidate of `enumerate_states` and of
    `temporal_project`, on the corpus diagrams, the golden projections and
    monkey's validated plans, and on the diagrams and one-action
    projections of the 100 random BATs of the inertia suite and of 100
    `make_source(reads_d=True)` BATs."""
    from test_golden import CASES, run_case
    certify = semantics.certify_state
    domains = Counter()

    def checked(g, cand, budget=None, derived=True):
        values = cand.as_dict()
        doms = [(dom_name(f.name), args) for f in g.basic_nondom_fluents()
                if f.args for args in g.tuples[f.name]]
        assert all(d in values for d in doms), cand
        domains[bool(doms)] += 1
        domains["false"] += FALSE in map(values.get, doms)
        return certify(g, cand, budget, derived)

    for module in (semantics, tasks):
        monkeypatch.setattr(module, "certify_state", checked)
    for name in GROUND_SYSTEMS:
        if name != "cell_cycle2":
            build_diagrams(compile_system(
                parse_path(CORPUS / f"{name}.alm"), [str(CORPUS)],
                DiagnosticSink()), with_transitions=False)
    for name, argv in CASES.items():
        if name.startswith("project-") or name == "plan-mb-h6":
            run_case(argv)
    rng, variant = random.Random(413), random.Random(417)
    hist = parse_history("happened(act0, 0).")
    for src in chain((make_source(rng) for _ in range(100)),
                     (make_source(variant, reads_d=True)
                      for _ in range(100))):
        cs = compile_src(src)
        build_diagrams(cs, with_transitions=False)
        temporal_project(cs, hist)
    assert domains[True] > 1000 and domains["false"] > 1000


def test_negation_through_a_basic_fluent_is_not_stratified():
    """Reading only the definitions, CROSS_STRATA and P_D would count as
    stratified; through their basic-headed state constraints they are not.
    CROSS_STRATA is not well-founded, and its diagram says so."""
    cross, p_d = compile_src(CROSS_STRATA), compile_src(P_D)
    assert not stratified(cross.theory) and not stratified(p_d.theory)
    report = check_well_founded(cross)
    assert (report.well_founded, report.method) == (False, "semantic")
    assert report.witness.as_dict() == {("d1", ()): FALSE, ("d2", ()): TRUE}
    (diagram,) = build_diagrams(cross, with_transitions=False)
    assert not diagram.well_founded and len(diagram.states) == 2
    report = check_well_founded(p_d)
    assert (report.well_founded, report.method) == (True, "semantic")


def test_observed_defined_value_at_step_0_gets_the_full_check(monkeypatch):
    """An observed value of d at step 0 is a fact, which the state rules
    need not derive: the history that observes d(x) but not p(x) is
    inconsistent, and the one that observes both has one trajectory."""
    cs = compile_src(OBSERVED_D)
    assert stratified(cs.theory)
    seen = verdict_oracle(monkeypatch)
    alone = temporal_project(cs, parse_history("observed(d(x), true, 0)."))
    assert not alone.consistent
    assert seen == {(True, "rejected", True): 1}
    both = temporal_project(cs, parse_history(
        "observed(d(x), true, 0).\nobserved(p(x), true, 0)."))
    assert len(both.trajectories) == 1


STATIC_HEAD = """
system description heads
  theory t
    module m
      sort declarations
        elems :: universe
        kind_a, kind_b :: elems
      function declarations
        statics
          basic
            st : booleans
        fluents
          basic
            p : elems -> booleans
      axioms
        st if p(X).
  structure s
    instances
      e0 in elems
    values of statics
      st if instance(e0, kind_a).
"""

ACTION_SORT = """
system description acts
  theory t
    module m
      sort declarations
        elems :: universe
        go :: actions
        go_a, go_b :: go
      function declarations
        fluents
          basic
            p : elems -> booleans
      axioms
        occurs(a0) causes p(e0) if instance(a0, go_a).
        impossible occurs(a0) if instance(a0, go_b), p(e0).
  structure s
    instances
      e0 in elems
      a0 in go
"""


@pytest.mark.parametrize("src", [STATIC_HEAD, ACTION_SORT],
                         ids=["static-head", "action-sort"])
def test_program_keys_tell_apart_what_the_templates_read(src):
    """The key is not too coarse: two placements that differ only in the
    truth of a static head (the structure makes `st` true for kind_a only,
    and a nullary static has no domain definition that would read it),
    or only in the sort of a law's action, ground different templates and
    get different keys."""
    a, b = compile_src(src).grounders
    assert a.program_key()[1:] == b.program_key()[1:]
    assert a.program_key() != b.program_key()
    assert a.build_program(1).rules != b.build_program(1).rules


def test_memoised_program_keys_are_exact(monkeypatch):
    """The reads memo (`ReadsMemo`) changes no key: every `program_key`
    that a compiled system or `system_pre_models` takes through a memo
    equals the key whose reads stage runs on that grounder alone, with no
    memo, on the corpus, the random BATs and the placed BATs."""
    program_key = Grounder.program_key
    memoised = []

    def exact(self, budget=None, memo=None):
        key = program_key(self, budget, memo)
        assert key == (self._read_bindings(None),) + key[1:]
        memoised.append(memo is not None)
        return key

    monkeypatch.setattr(Grounder, "program_key", exact)
    systems = [compile_system(parse_path(CORPUS / f"{name}.alm"),
                              [str(CORPUS)], DiagnosticSink())
               for name in GROUND_SYSTEMS]
    rng = random.Random(413)
    systems += [compile_src(make_source(rng)) for _ in range(100)]
    for cs in [*systems, *placed_bat_systems()]:
        assert len(cs.groups) <= len(cs.grounders)
    assert sum(memoised) > 600 and not all(memoised)


# e0 is placed in kind_a or kind_b, and the first axiom reads the placement
# through one query; the second reads only the sort elems
PLACED_READS = """
system description placed
  theory t
    module m
      sort declarations
        elems :: universe
        kind_a, kind_b :: elems
      function declarations
        statics
          basic
            d : booleans
{}        fluents
          basic
            p : booleans
            q : elems -> booleans
      axioms
        {}
        false if q(X), -p.
  structure s
    instances
      e0 in elems
    values of statics
      d if instance(e0, kind_a).
"""
OVER_KIND_A = "          defined\n            w : kind_a -> booleans\n"


@pytest.mark.parametrize("decls,axiom", [
    (OVER_KIND_A, "false if -w(X), p."),
    ("", "false if is_a(e0, kind_a), p."),
    ("", "false if d, p.")], ids=["domain", "is-a", "derived-static"])
def test_memoised_keys_tell_apart_one_query(decls, axiom):
    """Two placements that differ only in one query of a statement (the
    members of kind_a, which only the domain of X reads, also in the
    domain definition of w; an is_a literal; a static derived from the
    placement) get different keys: the second pre-model computes that
    statement anew and reuses the other statement's entry itself."""
    cs = compile_src(PLACED_READS.format(decls, axiom))
    assert len(cs.groups) == 2
    a, b = cs.grounders
    assert a.program_key()[1:] == b.program_key()[1:]
    assert a.reads()[0] != b.reads()[0]
    assert a.reads()[1] is b.reads()[1]


def test_memoised_keys_ignore_a_sort_no_statement_reads():
    """Placements that differ only in kind_a and kind_b, which no
    statement reads, get equal keys, and the second pre-model reuses the
    first one's reads entries themselves."""
    cs = compile_src(PLACED_READS.format("", "false if q(X), p."))
    a, b = cs.grounders
    assert [a.pm.is_a["e0"], b.pm.is_a["e0"]] == [{"kind_a"}, {"kind_b"}]
    assert cs.groups == [[a, b]]
    assert a.program_key() == b.program_key()
    assert all(x is y for x, y in zip(a.reads(), b.reads()))
    # the object constants are compared whole: a pre-model with one more
    # constant, which no statement reads, reads every statement anew
    memo = ReadsMemo()
    c, d = (Grounder(cs.theory, pm)
            for pm in (a.pm, replace(a.pm, consts={"n": 1})))
    assert c.reads(None, memo) == d.reads(None, memo)
    assert not any(x is y for x, y in zip(c.reads(), d.reads()))


# e0 is placed in kind_a or kind_b, so it leaves kind_a and joins kind_b;
# the statement's bindings of e0 survive, or `st` drops them
MEMBER_READS = """
system description members
  theory t
    module m
      sort declarations
        elems :: universe
        kind_a, kind_b :: elems
      function declarations
        statics
          basic
            st : elems -> booleans
        fluents
          basic
            p : booleans
            q : kind_b -> booleans
            r : kind_a -> booleans
      axioms
        {}
  structure s
    instances
      e0 in elems
      e1 in kind_b
    values of statics
      st(e1).
"""


@pytest.mark.parametrize("axiom,reused", [
    ("false if q(X), p.", False), ("false if q(X), st(X), p.", True),
    ("false if r(X), p.", False), ("false if r(X), st(X), p.", True),
    ("false if instance(Y, elems), q(X), p.", False)],
    ids=["joins-survives", "joins-dropped", "leaves-survived",
         "leaves-dropped", "joins-a-later-sort"])
def test_memo_reads_a_moved_member_by_its_bindings(monkeypatch, axiom,
                                                   reused):
    """The reads memo compares a plan's sorts by member
    (`Grounder._reads_alike`): e0 joins kind_b and leaves kind_a in the
    second pre-model.  Where a binding of e0 survives, in that pre-model
    or in the first, the statement is read anew and the keys differ; where
    `st` drops it, the first pre-model's entry is reused as it is.  Either
    way the entry is the one that reading the statement alone gives.  In
    the last case the moved sort, kind_b, is not the first one the
    statement narrows by: elems, which does not move, is."""
    cs = compile_src(MEMBER_READS.format(axiom))
    a, b = cs.grounders
    assert [a.pm.members["kind_b"], b.pm.members["kind_b"]] == \
        [("e1",), ("e0", "e1")]
    computed = []
    read_statement = Grounder._read_statement

    def noted(self, stmt, *args):
        computed.append((self, stmt))
        return read_statement(self, stmt, *args)

    monkeypatch.setattr(Grounder, "_read_statement", noted)
    assert len(cs.groups) == 2
    first, second = a.reads()[0], b.reads()[0]
    assert (first is second) == (first == second) == reused
    assert ((b, cs.theory.constraints[0]) in computed) == (not reused)
    assert second == b._read_bindings(None)[0]
    assert a.program_key() != b.program_key()


def reference_placements(sig, structure, sink):
    """Each placement built on its own, from the universe up, as the
    placements were before they shared their fixed part: the fields of
    every `PreModel` that `enumerate_placements` yields, in order."""
    uni, consts = build_universe(sig, structure, sink)
    sources = set(sig.source_nodes())
    objects = list(uni.declared)
    declared = {o: tuple(ss) for o, ss in uni.declared.items()}
    axes = [(o, sorted(sig.descendants(s) & sources))
            for o in objects for s in uni.declared[o] if s not in sources]
    axes = [(o, options) for o, options in axes
            if not sources & set(options) & set(uni.declared[o])]
    statics = {(f, (o, *extra)): v for f, o, extra, v in uni.attrs}
    for combo in product(*[options for _, options in axes]):
        is_a = {o: {s for s in uni.declared[o] if s in sources}
                for o in objects}
        for (o, _), chosen in zip(axes, combo):
            is_a[o].add(chosen)
        nodes = {o: frozenset(n for s in srcs for n in {s, *sig.ancestors(s)})
                 for o, srcs in is_a.items()}
        members = {n: tuple(o for o in objects if n in nodes[o])
                   for n in sig.sorts}
        yield (consts, objects, {o: frozenset(v) for o, v in is_a.items()},
               list(members.items()), statics, declared, nodes)


PARAMETERISED = """
system description params
  theory t
    module m
      sort declarations
        points :: universe
        marks :: universe
        red, blue :: marks
        hops :: actions
      object constants
        peak(points) : marks
      function declarations
        fluents
          basic
            at : points -> booleans
      axioms
        false if at(P), at(Q), P != Q.
  structure s
    instances
      p1, p2 in points
      c1 in red
      hop(P) in hops where instance(P, points)
      flag(P) in marks where instance(P, points)
      ring(P) in red where instance(P, points)
"""


def test_placements_share_their_fixed_part_exactly():
    """`enumerate_placements` builds what its placements share once; each
    placement equals, field by field and in order, one built on its own
    (`reference_placements`), with every node's members in universe
    order, on the corpus, the placed BATs and parameterised objects
    placed into a sort with two sources, one of whose members (`ring`)
    come after them."""
    systems = [compile_system(parse_path(CORPUS / f"{name}.alm"),
                              [str(CORPUS)], DiagnosticSink())
               for name in ("t0", "travel", "professors", "n_w_f",
                            "monkey_and_banana", "cell_cycle1",
                            "cell_cycle2")]
    counts = []
    for cs in [*systems, *placed_bat_systems(), compile_src(PARAMETERISED)]:
        got = [(pm.consts, pm.universe, pm.is_a, list(pm.members.items()),
                pm.statics, pm.declared, pm.nodes)
               for pm in enumerate_placements(cs.sig, cs.structure,
                                              cs.sink)]
        assert got == list(reference_placements(cs.sig, cs.structure,
                                                cs.sink))
        counts.append(len(got))
    assert counts[4] == 8 and counts[-1] == 16 and sum(counts) > 300


def test_a_huge_horizon_stops_before_its_rows_are_made():
    """`build_program` reads the budget's deadline while it makes the rows
    of its steps: a passed deadline stops a horizon of 100,000 on t0, under
    the cap on its atoms, with its templates already ground, before it
    takes memory."""
    cs = compile_system(parse_path(CORPUS / "t0.alm"), [], DiagnosticSink())
    (g,) = cs.grounders
    g.build_program(1)
    assert 100_001 * len(g._templates[0]) <= semantics.MAX_GROUND_INSTANCES
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="time budget exhausted"):
            g.build_program(100_000, Budget.of(seconds=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


@pytest.mark.parametrize("system,keys,refused", [
    ("t0", 14, 142_857), ("statics", 0, 2_000_000)])
def test_a_horizon_over_the_atom_cap_is_refused_before_its_rows(
        system, keys, refused):
    """A horizon whose steps times step-free keys exceed
    `MAX_GROUND_INSTANCES` is refused at once, with no budget, before a
    row is made: t0 has 14 keys, so 142,857 steps fit (horizon 142,856)
    and horizon 142,857 does not.  A program with no key still makes a
    row per step, so it counts as one key per step."""
    cs = compile_system(parse_path(CORPUS / "t0.alm"), [], DiagnosticSink()) \
        if system == "t0" else statics_system(
            "          basic\n            p : c -> booleans\n", [])
    (g,) = cs.grounders
    g.build_program(1)
    assert len(g._templates[0]) == keys
    for horizon in (refused, 10 ** 20):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded,
                               match=f"^horizon {horizon} would ground over "
                                     "2000000 atoms"):
                g.build_program(horizon)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


# ------------------------------------------------------------ static values

def statics_system(decls, axioms, structure="      a in c\n      b in c\n",
                   sorts="        c :: universe\n"):
    """A system of statics over a sort c, with an empty fluent part."""
    axioms = "".join(f"        {a}\n" for a in axioms)
    return compile_src(f"""
system description derived
  theory t
    module m
      sort declarations
{sorts}      function declarations
        statics
{decls}      axioms
{axioms}  structure s
    instances
{structure}""")


def entailed(cs, query):
    """`project --query` over the empty history, at step 0."""
    return entails_at(cs, temporal_project(cs, History(), 0),
                      parse_literal_text(query), 0)


ORDER_DECLS = """          defined
            p : c -> booleans
            q : c -> booleans
"""
ORDER_AXIOMS = ["q(X) if instance(X, c), -p(X).",
                "p(X) if instance(X, c), X = b."]


@pytest.mark.parametrize("axioms", [ORDER_AXIOMS, ORDER_AXIOMS[::-1]],
                         ids=["negation-first", "negation-last"])
def test_static_values_do_not_depend_on_the_axiom_order(axioms):
    """Stratified definitions have one pre-model whatever the order of
    their clauses: p(b) holds, so q(b) does not."""
    cs = statics_system(ORDER_DECLS, axioms)
    (g,) = cs.grounders
    assert g.pm.statics == {("q", ("a",)): TRUE, ("p", ("b",)): TRUE}
    assert entailed(cs, "q(a)") and entailed(cs, "p(b)")
    assert not entailed(cs, "q(b)") and not entailed(cs, "p(a)")


def test_domain_of_a_derived_static_follows_its_values():
    """dom_p is derived from p's values: p(a) is derived and p(b) has no
    value, whatever the order of the axioms."""
    decls = """          basic
            p : c -> booleans
          defined
            q : c -> booleans
"""
    axioms = ["q(X) if instance(X, c), dom_p(X).",
              "p(X) if instance(X, c), X = a."]
    for order in (axioms, axioms[::-1]):
        cs = statics_system(decls, order)
        (g,) = cs.grounders
        assert g.pm.statics == {("p", ("a",)): TRUE, ("q", ("a",)): TRUE}
        assert entailed(cs, "q(a)") and not entailed(cs, "q(b)")


def test_even_negative_loop_gives_two_pre_models_in_a_fixed_order():
    decls = """          defined
            p : booleans
            q : booleans
"""
    cs = statics_system(decls, ["p if -q.", "q if -p."],
                        structure="      a in c\n")
    assert [g.pm.statics for g in cs.grounders] == \
        [{("q", ()): TRUE}, {("p", ()): TRUE}]


def test_conflicting_placement_is_dropped_and_the_others_kept():
    """e0 is placed into kind_a or kind_b; in kind_a the structure gives p
    both values, so only the kind_b placement is a pre-model."""
    cs = statics_system(
        "          basic\n            p : c -> booleans\n", [],
        sorts="        c :: universe\n        kind_a, kind_b :: c\n",
        structure="      e0 in c\n    values of statics\n"
                  "      p(e0) if instance(e0, kind_a).\n      -p(e0).\n")
    placements = list(enumerate_placements(cs.sig, cs.structure, cs.sink))
    assert [sorted(pm.is_a["e0"]) for pm in placements] == \
        [["kind_a"], ["kind_b"]]
    (pm,) = system_pre_models(cs.theory, cs.structure, cs.sink)
    assert pm.is_a["e0"] == {"kind_b"}
    assert pm.statics == {("p", ("e0",)): FALSE}


def test_cell_cycle2_part_of_is_the_transitive_closure():
    """The recursive definition of part_of derives the closure of
    is_part_of, in both of cell_cycle2's pre-models, and no false value
    of it is stored."""
    cs = compile_system(parse_path(CORPUS / "cell_cycle2.alm"),
                        [str(CORPUS)], DiagnosticSink())
    assert len(cs.grounders) == 2
    for g in cs.grounders:
        assert {k: v for k, v in g.pm.statics.items()
                if k[0] == "part_of"} == {
            ("part_of", ("cell", "sample")): TRUE,
            ("part_of", ("nucleus", "cell")): TRUE,
            ("part_of", ("nucleus", "sample")): TRUE}


def test_passed_deadline_stops_pre_model_derivation(monkeypatch):
    """A budget whose deadline has passed stops `system_pre_models` before
    it grounds any template, also where no static rule is read."""
    grounded = []
    monkeypatch.setattr(Grounder, "_ground_templates",
                        lambda self, budget: grounded.append(self))
    for name in GROUND_SYSTEMS:
        cs = compile_system(parse_path(CORPUS / f"{name}.alm"),
                            [str(CORPUS)], DiagnosticSink())
        with pytest.raises(BudgetExceeded):
            system_pre_models(cs.theory, cs.structure, cs.sink,
                              Budget(deadline=time.monotonic() - 1))
    assert grounded == []


def test_stratified_corpus_statics_need_no_decision():
    """Propagation alone solves the statics programs of the corpus, so a
    decision budget of 0 derives the same pre-models as no budget."""
    for name in GROUND_SYSTEMS:
        cs = compile_system(parse_path(CORPUS / f"{name}.alm"),
                            [str(CORPUS)], DiagnosticSink())
        budget = Budget(max_decisions=0)
        assert system_pre_models(cs.theory, cs.structure, cs.sink, budget) \
            == system_pre_models(cs.theory, cs.structure, cs.sink)
        assert budget.decisions == 0


def test_grouped_statics_programs_give_the_ungrouped_pre_models(
        monkeypatch):
    """Placements with equal program keys and facts share one statics
    program and its answer sets; solving each placement alone gives the
    same pre-models, in the same order."""
    systems = [compile_system(parse_path(CORPUS / f"{name}.alm"),
                              [str(CORPUS)], DiagnosticSink())
               for name in GROUND_SYSTEMS]
    systems += [compile_src(STATIC_HEAD), *placed_bat_systems()]
    alone = iter(range(10 ** 9))
    grouped = [system_pre_models(cs.theory, cs.structure, cs.sink)
               for cs in systems]
    monkeypatch.setattr(Grounder, "program_key",
                        lambda self, budget=None, memo=None: next(alone))
    assert grouped == [system_pre_models(cs.theory, cs.structure, cs.sink)
                       for cs in systems]
    assert next(alone) >= sum(map(len, grouped))  # one key per placement


# ------------------------------------------------------------ reading models

TRAVEL_3X1 = read(CORPUS / "travel.alm").replace(
    "      bob, john in agents\n", "      bob in agents\n")


def reference_transitions(g, states, action_sets="singleton"):
    """`compute_transitions` as it read its models before `ModelReader`:
    the occurrences by one scan of the model, and the target as a `State`
    (`state_from_model`), looked up by record."""
    index = {s: i for i, s in enumerate(states)}
    prog = g.build_program(1)
    occ_keys = [("occ", a, 0) for a in g.actions]
    for k in occ_keys:
        prog.add_choice(k)
    if action_sets == "singleton":
        prog.add_atmost(occ_keys, 1)
    out = []
    for i, s0 in enumerate(states):
        seen = set()
        for model in prog.answer_sets(facts=g.state_facts(s0, 0)):
            acts = frozenset(k[1] for k in model if k[0] == "occ")
            j = index.get(state_from_model(model, 1))
            if j is not None and (acts, j) not in seen:
                seen.add((acts, j))
                out.append((i, acts, j))
    return out


def test_transitions_read_by_their_atoms_are_the_reference_ones():
    """Singleton and powerset transitions, in order, on t0, professors,
    travel, n_w_f, travel with 3 points and 1 agent, P_D (whose empty
    action changes its state) and the 100 random BATs of seed 413 (the
    corpus systems whose diagrams are small: monkey has 10,416 states, and
    cell_cycle2's cannot be enumerated).  No `(from, actions, to)` triple
    repeats, though `compute_transitions` drops none: two answer sets for
    a certified state differ in their actions or their step-1 values."""
    rng = random.Random(413)
    systems = [compile_system(parse_path(CORPUS / f"{name}.alm"), [],
                              DiagnosticSink())
               for name in ("t0", "professors", "travel", "n_w_f")]
    systems += [compile_src(src) for src in chain(
        (TRAVEL_3X1, P_D), (make_source(rng) for _ in range(100)))]
    sizes = []
    for cs in systems:
        for g, *_ in cs.groups:
            states = enumerate_states(g).states
            for sets in ("singleton", "powerset"):
                got = compute_transitions(g, states, sets)
                assert got == reference_transitions(g, states, sets)
                assert len(set(got)) == len(got)
                sizes.append(len(got))
    assert sizes[:2] == [18, 21] and sum(sizes) > 2000
    (g, *_), = compile_src(P_D).groups
    states = enumerate_states(g).states
    assert any(not acts and i != j
               for i, acts, j in compute_transitions(g, states))


def generation_systems():
    """The corpus systems whose states can be enumerated (cell_cycle2's
    cannot, ROADMAP "Not planned"), the 100 random BATs of seed 413, and
    100 whose basic-headed constraints read a defined fluent."""
    for name in ("t0", "travel", "professors", "n_w_f",
                 "monkey_and_banana"):
        yield compile_system(parse_path(CORPUS / f"{name}.alm"),
                             [str(CORPUS)], DiagnosticSink())
    rng, variant = random.Random(413), random.Random(417)
    for src in chain((make_source(rng) for _ in range(100)),
                     (make_source(variant, reads_d=True)
                      for _ in range(100))):
        yield compile_src(src)


def test_generation_candidates_are_pairwise_distinct():
    """What `enumerate_states`' docstring proves: the generation program
    has value, disequality and occurrence atoms only, no answer set holds
    an occurrence, and distinct answer sets give distinct candidates.  The
    state reader gives each candidate as a scan and a sort of the model
    would (`state_from_model`)."""
    kinds, total = set(), 0
    for cs in generation_systems():
        for g, *_ in cs.groups:
            gen = g.state_program().copy()
            g.add_generation(gen, 0)
            kinds.update(k[0] for k in gen.keys)
            candidates = []
            for model in gen.answer_sets():
                assert not any(k[0] == "occ" for k in model)
                cand = state_from_model(model, 0)
                assert g.state_reader(model) == ([cand.values], [])
                candidates.append(cand)
            assert len(set(candidates)) == len(candidates)
            total += len(candidates)
    assert kinds == {"v", "neq", "occ"}
    assert total > 20000
