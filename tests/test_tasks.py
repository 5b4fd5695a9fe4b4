import gc
import random
import time
import weakref
from collections import Counter
from itertools import chain

import pytest

from almc import lpcore, semantics, tasks
from almc.cli import compile_from_path, main
from almc.bat import FunLit
from almc.errors import BudgetExceeded, DiagnosticSink, InputError
from almc.lpcore import Program
from almc.memo import ReadsMemo
from almc.semantics import Grounder, State, StateSpace
from almc.syntax.parser import parse_file, parse_literal_text
from almc.tasks import (
    History, WellFoundedReport, check_well_founded, compile_system,
    entails_at, find_plans, Plan, normalize_goal, parse_goal, parse_history,
    prefer_most_specific, temporal_project, validate_plan,
)

from conftest import CORPUS
from test_semantics import (
    INTERLEAVED, NWF_PLACED, compile_src, make_source, state_from_model,
    ungrouped,
)


TOGGLE = """
system description toggle
  theory t
    module m
      sort declarations
        switches :: universe
        flip :: actions
          attributes
            target : switches
      function declarations
        fluents
          basic
            total up : switches -> booleans
      axioms
        occurs(A) causes up(S) if instance(A, flip), target(A) = S, -up(S).
        occurs(A) causes -up(S) if instance(A, flip), target(A) = S, up(S).
  structure b
    instances
      s1 in switches
      flip(S) in flip where instance(S, switches)
        target = S
"""


@pytest.fixture(scope="module")
def toggle():
    sink = DiagnosticSink()
    return compile_system(parse_file(TOGGLE), [], sink)


# ------------------------------------------------------------ history files

def test_parse_history_forms():
    hist = parse_history("""
        observed(up(s1), true, 0).
        observed(up(s1), 2).
        happened(flip(s1), 0).
        -happened(flip(s1), 1).
    """)
    assert len(hist.observed) == 2
    assert hist.observed[1][2] == 2  # boolean shorthand
    assert hist.happened == [(hist.happened[0][0], 0, True),
                             (hist.happened[1][0], 1, False)]
    assert hist.max_step == 2


def test_history_rejects_garbage():
    with pytest.raises(InputError):
        parse_history("seen(up(s1), true, 0).")
    with pytest.raises(InputError):
        parse_history("observed(up(s1), true, X).")
    with pytest.raises(InputError):
        parse_goal("occurs(flip(s1)).")


# ------------------------------------------------------------ projection

def test_projection_applies_happenings(toggle):
    hist = parse_history("observed(up(s1), false, 0). happened(flip(s1), 0).")
    res = temporal_project(toggle, hist)
    assert res.consistent and len(res.trajectories) == 1
    t = res.trajectories[0]
    assert t.states[0].value("up", ("s1",)) == "false"
    assert t.states[1].value("up", ("s1",)) == "true"
    assert entails_at(toggle, res, parse_literal_text("up(s1)"), 1)
    assert not entails_at(toggle, res, parse_literal_text("up(s1)"), 0)


def test_projection_contradictory_happenings_are_inconsistent(toggle):
    hist = parse_history(
        "observed(up(s1), false, 0)."
        "happened(flip(s1), 0). -happened(flip(s1), 0).")
    res = temporal_project(toggle, hist)
    assert not res.consistent


def test_projection_reality_check_rejects_bad_observation(toggle):
    hist = parse_history(
        "observed(up(s1), false, 0). observed(up(s1), false, 1)."
        "happened(flip(s1), 0).")
    res = temporal_project(toggle, hist)
    assert not res.consistent


def test_projection_does_not_guess_occurrences(toggle):
    hist = parse_history("observed(up(s1), false, 0).")
    res = temporal_project(toggle, hist, horizon=2)
    assert len(res.trajectories) == 1
    t = res.trajectories[0]
    assert all(not occ for occ in t.occurrences)
    assert t.states[2].value("up", ("s1",)) == "false"


def test_initial_coverage(toggle):
    hist = parse_history("observed(up(s1), false, 0).")
    assert temporal_project(toggle, hist).coverage == (1, 1)
    assert temporal_project(toggle, parse_history("")).coverage == (0, 1)


# ------------------------------------------------------------ one literal path

@pytest.fixture(scope="module")
def t0():
    return compile_from_path(str(CORPUS / "t0.alm"), [])


T0_HIST = "observed(g(x), o, 0).\n"


@pytest.mark.parametrize("fact", [
    "observed(g(nosuch), o, 0).",  # an argument outside g's sorts
    "observed(g(z), o, 1).",  # z is a c3, g takes a c2
    "observed(g(x), a, 0).",  # a value outside g's range
    "observed(attr_1(a), o, 0).",  # a static
    "observed(link(c2, c1), true, 0).",  # the hierarchy
    "observed(o, o, 0).",  # no function at all
])
def test_observation_gives_a_fluent_a_value_within_its_sorts(t0, fact):
    hist = parse_history(T0_HIST + fact, "t0.hist")
    with pytest.raises(InputError) as exc:
        temporal_project(t0, hist, horizon=1)
    assert str(exc.value.span).startswith("t0.hist:2:")
    assert "within its sorts" in exc.value.message


def test_initial_coverage_counts_what_projection_grounds(t0):
    # an observation past step 0 is not counted; one outside the fluent's
    # sorts is rejected before coverage is counted (see above)
    hist = parse_history(T0_HIST + "observed(g(x), o, 1).")
    assert temporal_project(t0, hist).coverage == (1, 2)


@pytest.mark.parametrize("query,entailed", [
    ("attr_1(a) = o", True), ("attr_1(a) != z", True),
    ("attr_1(a) = z", False), ("attr_2(a) = o", False),
    ("instance(a, t0_actions)", True), ("instance(x, c1)", True),
    ("instance(b, c2)", False), ("-instance(b, c2)", True),
    ("link(c2, c1)", True), ("g(x) = o", True), ("g(x) != o", False),
])
def test_static_and_hierarchy_queries_on_t0(t0, query, entailed):
    """Queries ground like goals: statics and the hierarchy are read off
    the pre-models, fluents off the trajectories."""
    res = temporal_project(t0, parse_history(T0_HIST), horizon=0)
    assert entails_at(t0, res, parse_literal_text(query), 0) is entailed


@pytest.mark.parametrize("goal,plans", [
    ("f(x) = o. attr_1(a) = o.", [(("a",),)]),
    ("f(x) = o. attr_1(a) = z.", []),
    ("f(x) = o. instance(a, t0_actions).", [(("a",),)]),
])
def test_planner_and_validation_agree_on_static_goals(t0, goal, plans):
    hist, goal = parse_history(T0_HIST), parse_goal(goal)
    found = find_plans(t0, hist, goal, horizon=1).plans
    assert [p.steps for p in found] == plans
    assert all(validate_plan(t0, hist, goal, p) for p in found)
    assert not validate_plan(t0, hist, goal, Plan((("b",),)))


def test_each_disequality_atom_is_defined_once(t0, monkeypatch):
    """An observation past step 0 and a `!=` goal name disequality atoms of
    basic fluents, which inertia defines at steps 1..horizon: they are not
    defined again, so no rule of a history program repeats, and projection
    and planning find what they find when those atoms are defined twice."""
    hist = parse_history(T0_HIST + "observed(g(x), o, 1).")
    goal = parse_goal("f(x) != z.")
    programs = []
    history_programs = tasks._history_programs

    def kept(*args, **kwargs):
        for members, prog in history_programs(*args, **kwargs):
            programs.append(prog)
            yield members, prog

    def run():
        programs.clear()
        found = (temporal_project(t0, hist, horizon=2).trajectories,
                 find_plans(t0, hist, goal, horizon=2).plans)
        return found, [max(Counter(p.rules).values()) for p in programs]

    monkeypatch.setattr(tasks, "_history_programs", kept)
    found, repeats = run()
    assert repeats == [1, 1] and all(found)
    monkeypatch.setattr(Program, "__contains__", lambda self, key: False)
    twice, repeats = run()
    assert twice == found and min(repeats) > 1


@pytest.mark.parametrize("sort,entailed", [
    ("person", True), ("professor", True),
    ("assistant", False), ("associate", False), ("full", False),
])
def test_placement_queries_read_every_pre_model(sort, entailed):
    """Alice is placed in assistant, associate or full, one pre-model each,
    and the three ground one history program: a query reads all three."""
    cs = compile_from_path(str(CORPUS / "professors.alm"), [])
    res = temporal_project(cs, parse_history(""), horizon=0)
    assert len(cs.grounders) == len(res.grounders) == 3
    lit = parse_literal_text(f"instance(alice, {sort})")
    assert entails_at(cs, res, lit, 0) is entailed


# ------------------------------------------------------------ planning

def test_minimal_plan_found(toggle):
    hist = parse_history("observed(up(s1), false, 0).")
    goal = parse_goal("up(s1).")
    res = find_plans(toggle, hist, goal, horizon=3)
    assert len(res.plans) == 1
    (plan,) = res.plans
    assert plan.occurrences == 1
    assert [sorted(map(str, step)) for step in plan.steps] == [["flip(s1)"]]
    assert str(plan) == "step 0: {flip(s1)}"
    assert validate_plan(toggle, hist, goal, plan)


def test_goal_already_true_yields_empty_plan(toggle):
    hist = parse_history("observed(up(s1), true, 0).")
    goal = parse_goal("up(s1).")
    res = find_plans(toggle, hist, goal, horizon=2)
    assert len(res.plans) == 1
    assert res.plans[0].occurrences == 0
    assert res.plans[0].steps == ()


def test_unreachable_goal_reports_horizon_exhausted(toggle):
    hist = parse_history(
        "observed(up(s1), false, 0). -happened(flip(s1), 0).")
    goal = parse_goal("up(s1).")
    res = find_plans(toggle, hist, goal, horizon=1)
    assert res.plans == []
    assert "horizon" in (res.note or "")


def test_plans_respect_forbidden_occurrences(toggle):
    # flip is forbidden at step 0, so the 1-step plan is pushed out of reach
    # and a contiguous plan cannot start later
    hist = parse_history(
        "observed(up(s1), false, 0). -happened(flip(s1), 0).")
    goal = parse_goal("up(s1).")
    res = find_plans(toggle, hist, goal, horizon=3)
    for plan in res.plans:
        assert not plan.steps or not plan.steps[0]


def test_prefer_most_specific_keeps_unrelated_plans(toggle):
    hist = parse_history("observed(up(s1), false, 0).")
    goal = parse_goal("up(s1).")
    res = find_plans(toggle, hist, goal, horizon=3)
    assert prefer_most_specific(toggle, res).plans == res.plans


# ------------------------------------------------------------ monkey fixture

@pytest.fixture(scope="module")
def monkey():
    return compile_from_path(str(CORPUS / "monkey_and_banana.alm"),
                             [str(CORPUS)])


def test_monkey_projection_unique_trajectory(monkey):
    hist = parse_history((CORPUS / "gamma1.hist").read_text())
    res = temporal_project(monkey, hist)
    assert res.consistent and len(res.trajectories) == 1
    t = res.trajectories[0]
    assert t.states[1].value("loc_in", ("monkey",)) == "initial_box"
    lit = parse_literal_text("loc_in(monkey) = initial_box")
    assert entails_at(monkey, res, lit, 1)


def test_validation_reads_disequality_goals_like_queries(monkey):
    """`f != v` holds only where f is defined, in validation as in
    projection queries and in the planner's goal rule."""
    goal = parse_goal("loc_in(monkey) != initial_box.")
    observed = parse_history("observed(loc_in(monkey), initial_monkey, 0).")
    assert validate_plan(monkey, observed, goal, Plan(()))
    # unobserved, loc_in(monkey) is undefined at step 0
    assert not validate_plan(monkey, parse_history(""), goal, Plan(()))


@pytest.fixture(scope="module")
def monkey_task(monkey):
    hist = parse_history((CORPUS / "mb.hist").read_text())
    goal = parse_goal((CORPUS / "mb.goal").read_text())
    return hist, goal, find_plans(monkey, hist, goal, horizon=6).plans


def test_monkey_solves_one_history_program_per_task(monkey, monkey_task,
                                                    monkeypatch):
    """Monkey's 8 pre-models ground to one history program, so each task
    solves one program, and validation gives the plan's occurrences to
    the solver as facts."""
    hist, goal, plans = monkey_task
    assert len(monkey.grounders) == 8 and len(plans) == 2
    state_programs = {id(g.state_program()) for g in monkey.grounders}
    calls = []
    answer_sets, solve_cr = Program.answer_sets, Program.solve_cr

    def counted_answer_sets(self, *args, **kwargs):
        if id(self) not in state_programs:
            calls.append(("answer_sets", list(kwargs.get("facts", ()))))
        return answer_sets(self, *args, **kwargs)

    def counted_solve_cr(self, *args, **kwargs):
        calls.append(("solve_cr", []))
        return solve_cr(self, *args, **kwargs)

    monkeypatch.setattr(Program, "answer_sets", counted_answer_sets)
    monkeypatch.setattr(Program, "solve_cr", counted_solve_cr)

    assert find_plans(monkey, hist, goal, horizon=6).plans == plans
    assert calls.count(("solve_cr", [])) == 1

    for plan in plans:
        calls.clear()
        assert validate_plan(monkey, hist, goal, plan)
        occs = [("occ", a, i) for i, acts in enumerate(plan.steps)
                for a in acts]
        assert calls == [("answer_sets", occs)]

    calls.clear()
    assert temporal_project(monkey, hist, horizon=2).consistent
    assert calls == [("answer_sets", [])]


@pytest.mark.parametrize("horizon,n_plans", [(5, 0), (7, 2)])
def test_monkey_planning_is_one_search(monkey, monkeypatch, horizon,
                                       n_plans):
    """`Program.solve_cr` finds the minimal plans, or proves there are
    none, in one branch-and-bound search, not in a regular search plus one
    per bound k (56 searches at horizon 5, 7 at horizon 7)."""
    hist = parse_history((CORPUS / "mb.hist").read_text())
    goal = parse_goal((CORPUS / "mb.goal").read_text())
    solve_cr, search_init = Program.solve_cr, lpcore._Search.__init__
    inside, searches = [], []

    def counted_solve_cr(self, *args, **kwargs):
        inside.append(self)
        try:
            return solve_cr(self, *args, **kwargs)
        finally:
            inside.pop()

    def counted_init(self, *args, **kwargs):
        if inside:
            searches.append(self)
        search_init(self, *args, **kwargs)

    monkeypatch.setattr(Program, "solve_cr", counted_solve_cr)
    monkeypatch.setattr(lpcore._Search, "__init__", counted_init)
    assert len(find_plans(monkey, hist, goal, horizon).plans) == n_plans
    assert len(searches) == 1


def _planning_decisions(monkey, horizon, n_plans):
    hist = parse_history((CORPUS / "mb.hist").read_text())
    goal = parse_goal((CORPUS / "mb.goal").read_text())
    budget = lpcore.Budget()
    assert len(find_plans(monkey, hist, goal, horizon, budget).plans) \
        == n_plans
    return budget.decisions


@pytest.mark.parametrize("horizon,n_plans,most", [(5, 0, 40), (7, 2, 300)])
def test_monkey_planning_learns_from_its_conflicts(monkey, horizon, n_plans,
                                                   most):
    """With nogoods learned from each conflict, planning makes few
    decisions: without learning it made 85 at horizon 5 (the proof that
    no plan exists) and 1,636 at horizon 7."""
    assert _planning_decisions(monkey, horizon, n_plans) <= most


@pytest.mark.parametrize("horizon,n_plans,most", [(5, 0, 10), (7, 2, 60)])
def test_monkey_planning_checks_unfounded_sets_at_every_fixpoint(
        monkey, horizon, n_plans, most):
    """With unfounded sets falsified at every propagation fixpoint,
    planning makes 4 decisions at horizon 5 and 38 at horizon 7. With
    unfounded sets checked only before a non-choice decision it made 15
    and 88."""
    assert _planning_decisions(monkey, horizon, n_plans) <= most


def test_validation_rejects_a_plan_that_misses_the_goal(monkey, monkey_task):
    hist, goal, plans = monkey_task
    steps = plans[0].steps
    assert not validate_plan(monkey, hist, goal, Plan(steps[:-1]))
    assert not validate_plan(monkey, hist, goal, Plan(steps[::-1]))


def test_monkey_is_well_founded(monkey):
    report = check_well_founded(monkey)
    assert report.well_founded and report.method == "syntactic"


@pytest.mark.parametrize("system, history", [
    ("monkey_and_banana", "gamma1"), ("cell_cycle2", "cc_phases")])
def test_projection_grounds_no_state_program(system, history):
    """A stratified theory's trajectory states are certified without a
    search, so projecting never grounds the horizon-0 state program."""
    cs = compile_from_path(str(CORPUS / f"{system}.alm"), [str(CORPUS)])
    hist = parse_history((CORPUS / f"{history}.hist").read_text())
    assert temporal_project(cs, hist).trajectories
    assert all(g._state_program is None for g in cs.grounders)


def test_not_well_founded_detected():
    cs = compile_from_path(str(CORPUS / "n_w_f.alm"), [])
    report = check_well_founded(cs)
    assert not report.well_founded
    assert report.method == "semantic"


def test_monkey_grounds_one_history_program_per_task(monkey, monkey_task,
                                                     monkeypatch):
    """Monkey's 8 pre-models share one group key, so projection, planning
    and validation each ground the history horizon once, not 8 times."""
    hist, goal, plans = monkey_task
    horizons = []
    build = Grounder.build_program

    def counted(self, horizon, budget=None):
        horizons.append(horizon)
        return build(self, horizon, budget)

    monkeypatch.setattr(Grounder, "build_program", counted)
    for run, horizon in [
            (lambda: temporal_project(monkey, hist, horizon=3), 3),
            (lambda: find_plans(monkey, hist, goal, horizon=6), 6),
            (lambda: validate_plan(monkey, hist, goal, plans[0]),
             len(plans[0].steps))]:
        horizons.clear()
        run()
        assert horizons.count(horizon) == 1


def record_stages(monkeypatch):
    """Record each run of the reads stage and of the template stage as
    ``(stage, grounder, exception or None)``, the runs of the statics
    programs that derive the pre-models (`system_pre_models`) included,
    and each statement whose reads entry is computed rather than reused
    (`ReadsMemo`) as ``("statement", grounder, None)``."""
    runs = []
    for stage, name in (("reads", "_read_bindings"),
                        ("templates", "_ground_templates")):
        def recorded(self, budget, *memo, stage=stage,
                     real=getattr(Grounder, name)):
            try:
                out = real(self, budget, *memo)
            except Exception as exc:
                runs.append((stage, self, exc))
                raise
            runs.append((stage, self, None))
            return out
        monkeypatch.setattr(Grounder, name, recorded)
    read_statement = Grounder._read_statement

    def computed(self, *args):
        runs.append(("statement", self, None))
        return read_statement(self, *args)

    monkeypatch.setattr(Grounder, "_read_statement", computed)
    return runs


def statements_read(runs, grounders):
    """Per grounder, in order, the statements its reads stage computed
    and those it reused."""
    total = [len(g.theory.constraints + g.theory.definitions
                 + g.theory.dynamic + g.theory.executability)
             for g in grounders]
    computed = [sum(stage == "statement" and h is g for stage, h, _ in runs)
                for g in grounders]
    return computed, [t - c for t, c in zip(total, computed)]


MB = [str(CORPUS / "monkey_and_banana.alm"), "--lib", str(CORPUS),
      "--history", str(CORPUS / "mb.hist")]


def test_monkey_plan_and_validation_ground_templates_once(monkeypatch,
                                                          capsys):
    """`plan --validate` reads each of monkey's 8 pre-models once to key
    it, and grounds rule templates once, for the first of the group: the
    keys are cached, so validation finds the templates already ground.
    The reads are memoised per statement (`ReadsMemo`): the first
    pre-model computes all 43 statements, and each later one reuses all
    43.  The 5 that read the sorts `carry` or `climb`, where its placement
    of the `move` actions differs, are reused by member: no binding of a
    `move` action that leaves or joins those sorts survives.  The same
    holds for the statics programs that derive the pre-models, whose
    theory has no causal law: each placement is read once, its first
    computes all 6 statements and each later one reuses all 6, and the
    templates of their one group are ground once."""
    runs = record_stages(monkeypatch)
    code = main(["plan", *MB, "--goal", str(CORPUS / "mb.goal"),
                 "--horizon", "6", "--validate"])
    out = capsys.readouterr().out
    assert code == 0 and out.count("re-execution: reaches the goal") == 2
    stages = [(stage, g) for stage, g, _ in runs if stage != "statement"]
    statics = [(stage, g) for stage, g in stages if not g.theory.dynamic]
    assert [stage for stage, _ in statics] == \
        ["reads", "templates"] + ["reads"] * 7
    assert len({id(g) for _, g in statics}) == 8
    assert statements_read(runs, [g for stage, g in statics
                                  if stage == "reads"]) == \
        ([6] + [0] * 7, [0] + [6] * 7)
    stages = [(stage, g) for stage, g in stages if g.theory.dynamic]
    reads = [g for stage, g in stages if stage == "reads"]
    assert len(reads) == len({id(g) for g in reads}) == 8
    assert statements_read(runs, reads) == ([43] + [0] * 7, [0] + [43] * 7)
    assert [(stage, g) for stage, g in stages if stage == "templates"] \
        == [("templates", reads[0])]


def test_zero_budget_stops_pre_model_derivation(monkeypatch, capsys):
    """Deriving the pre-models is the first grounding a projection does,
    so `--budget-seconds 0` stops it there (exit 4), before any reads or
    template stage."""
    runs = record_stages(monkeypatch)
    stopped = []
    derive = tasks.system_pre_models

    def recorded(*args):
        try:
            return derive(*args)
        except BudgetExceeded:
            stopped.append(args[-1])
            raise

    monkeypatch.setattr(tasks, "system_pre_models", recorded)
    assert main(["project", *MB, "--budget-seconds", "0"]) == 4
    assert "budget exhausted" in capsys.readouterr().err
    assert len(stopped) == 1 and stopped[0].deadline is not None
    assert runs == []


def test_deadline_after_the_first_reads_stops_a_member(monkeypatch, capsys):
    """The reads stage reads the clock before each statement, computed or
    reused: a deadline that passes once the first of monkey's pre-models
    has been read stops the second, all of whose statements the memo would
    reuse, before its first statement, with exit 4."""
    read_bindings = Grounder._read_bindings
    read = ReadsMemo.read
    runs, statements = [], []

    def expiring(self, budget, memo=None):
        try:
            out = read_bindings(self, budget, memo)
        except BudgetExceeded:
            runs.append(("stopped", self))
            raise
        runs.append(("read", self))
        if self.theory.dynamic:
            budget.deadline = time.monotonic() - 1
        return out

    def noted(memo, g, *args):
        statements.append(g)
        return read(memo, g, *args)

    monkeypatch.setattr(Grounder, "_read_bindings", expiring)
    monkeypatch.setattr(ReadsMemo, "read", noted)
    assert main(["project", *MB, "--budget-seconds", "100"]) == 4
    assert "budget exhausted" in capsys.readouterr().err
    runs = [(what, g) for what, g in runs if g.theory.dynamic]
    assert [what for what, _ in runs] == ["read", "stopped"]
    assert statements.count(runs[0][1]) == 43
    assert runs[1][1] not in statements


def test_grounders_are_freed_by_reference_counting():
    # grounding leaves no reference cycle behind, so a projection's
    # grounders, templates and programs go as soon as the system does
    cs = compile_from_path(str(CORPUS / "monkey_and_banana.alm"),
                           [str(CORPUS)])
    hist = parse_history((CORPUS / "gamma1.hist").read_text())
    gc.collect()
    gc.disable()
    try:
        result = temporal_project(cs, hist)
        assert result.consistent and len(result.grounders) == 8
        dead = [weakref.ref(g) for g in cs.grounders]
        del cs, result
        assert [ref() for ref in dead] == [None] * 8
    finally:
        gc.enable()


def keyed_history_programs(cs, run, goal=()):
    """(group key, program fingerprint) of the history program of every
    pre-model, from a task run with grouping switched off (`ungrouped`)."""
    goal_lits = normalize_goal(cs, list(goal))
    keys = {g: (g.program_key(),
                tuple(g.ground_lit(lit, {}) for lit in goal_lits))
            for g in cs.grounders}
    found = []
    ground_history = tasks._ground_history
    fingerprint = tasks.program_fingerprint

    def noted(g, *args):
        found.append([keys[g]])
        return ground_history(g, *args)

    def recorded(prog):
        found[-1].append(fingerprint(prog))
        return found[-1][-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(tasks, "_ground_history", noted)
        m.setattr(tasks, "program_fingerprint", recorded)
        ungrouped(cs, run)
    return [tuple(pair) for pair in found]


def assert_equal_keys_give_equal_programs(pairs):
    programs = {}
    for key, fp in pairs:
        assert programs.setdefault(key, fp) == fp
    return len(pairs) - len(programs)  # pre-models sharing a program


def test_equal_group_keys_give_equal_history_programs():
    shared = 0
    cases = [
        ("monkey_and_banana.alm", "mb.hist", "mb.goal", 3),
        ("monkey_and_banana.alm", "gamma1.hist", None, 1),
        ("cell_cycle2.alm", "cc_phases.hist", None, 3),
        ("professors.alm", None, None, 1),
        ("travel.alm", None, None, 1),
        ("t0.alm", "", "f(x) = o.", 1),
    ]
    for system, hist, goal, horizon in cases:
        cs = compile_from_path(str(CORPUS / system), [str(CORPUS)])
        h = parse_history((CORPUS / hist).read_text() if hist else "")
        if goal is None:
            pairs = keyed_history_programs(
                cs, lambda: temporal_project(cs, h, horizon))
        else:
            g = parse_goal((CORPUS / goal).read_text()
                           if goal.endswith(".goal") else goal)
            pairs = keyed_history_programs(
                cs, lambda: find_plans(cs, h, g, horizon), g)
        assert len(pairs) == len(cs.grounders)
        shared += assert_equal_keys_give_equal_programs(pairs)
    assert shared >= 2 * 7  # monkey's 8 pre-models, twice

    # random BATs whose objects are placed into one of two source sorts,
    # which a state constraint, a causal law, an executability condition or
    # nothing reads, so that their pre-models group alike or not
    rng, kinds = random.Random(413), random.Random(7)
    readers = ["false if instance(X, kind_a), p(X).",
               "occurs(A) causes p(X) if instance(A, acts), "
               "instance(X, kind_a).",
               "impossible occurs(A) if instance(A, acts), "
               "instance(X, kind_a), q(X).",
               ""]
    shared = distinct = 0
    for _ in range(100):
        src = make_source(rng).replace(
            "        acts :: actions",
            "        kind_a, kind_b :: elems\n        acts :: actions")
        src = src.replace("      axioms\n", "      axioms\n        "
                          + kinds.choice(readers) + "\n")
        cs = compile_system(parse_file(src), [], DiagnosticSink())
        hist = parse_history("happened(act0, 0).")
        goal = parse_goal("d(e0).")
        for pairs in [
                keyed_history_programs(
                    cs, lambda: temporal_project(cs, hist, 2)),
                keyed_history_programs(
                    cs, lambda: find_plans(cs, hist, goal, 2), goal)]:
            assert len(pairs) == len(cs.grounders) > 1
            sharing = assert_equal_keys_give_equal_programs(pairs)
            shared += sharing
            distinct += len(pairs) - sharing > 1
    assert shared > 0 and distinct > 0


# ------------------------------------------------------------ one grouping

def count_enumerations(monkeypatch):
    """Stub `enumerate_states` and `compute_transitions` with counters:
    one empty state per call, well-founded, and no transitions."""
    calls = Counter()

    def states(g, budget=None):
        calls["states"] += 1
        return StateSpace([State(())], True, [])

    def transitions(g, states, action_sets="singleton", budget=None):
        calls["transitions"] += 1
        return []

    monkeypatch.setattr(semantics, "enumerate_states", states)
    monkeypatch.setattr(tasks, "enumerate_states", states)
    monkeypatch.setattr(semantics, "compute_transitions", transitions)
    return calls


@pytest.mark.parametrize("command", ["states", "transitions"])
def test_monkey_diagrams_enumerate_once_for_8_pre_models(
        monkeypatch, capsys, command):
    """Monkey's 8 pre-models share one key: one enumeration, 8 blocks."""
    calls = count_enumerations(monkeypatch)
    assert main([command, str(CORPUS / "monkey_and_banana.alm"),
                 "--lib", str(CORPUS)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out
            if line.startswith("model ")] == [f"model {m}" for m in range(8)]
    assert calls["states"] == 1
    assert calls["transitions"] == (command == "transitions")


def test_well_founded_check_enumerates_once_per_group(monkeypatch):
    cs = compile_src(NWF_PLACED)
    assert len(cs.grounders) == 2 and len(cs.groups) == 1
    assert not check_well_founded(cs).well_founded
    calls = count_enumerations(monkeypatch)
    assert check_well_founded(cs) == WellFoundedReport(True, "semantic")
    assert calls["states"] == 1


def yielded_members(monkeypatch, cs, run):
    """The grounders of each program that `_history_programs` yields, as
    indices into `cs.grounders`, taken when the program is yielded."""
    seen = []
    history_programs = tasks._history_programs

    def spied(*args, **kwargs):
        for members, prog in history_programs(*args, **kwargs):
            seen.append([cs.grounders.index(g) for g in members])
            yield members, prog

    with monkeypatch.context() as m:
        m.setattr(tasks, "_history_programs", spied)
        run()
    return seen


def test_programs_are_yielded_in_first_member_order(monkeypatch):
    # a goal on the hierarchy splits professors' one key group: alice is
    # an associate in the second pre-model only
    cs = compile_from_path(str(CORPUS / "professors.alm"), [])
    goal = parse_goal("instance(alice, associate).")
    assert yielded_members(monkeypatch, cs, lambda: find_plans(
        cs, History(), goal, 1)) == [[0, 2], [1]]
    # key groups [[0, 2], [1, 3]], split by e0's placement, which is kind_a
    # in pre-models 0 and 1
    cs = compile_src(INTERLEAVED)
    assert [[cs.grounders.index(g) for g in group]
            for group in cs.groups] == [[0, 2], [1, 3]]
    goal = parse_goal("instance(e0, kind_a).")
    assert yielded_members(monkeypatch, cs, lambda: find_plans(
        cs, History(), goal, 1)) == [[0], [1], [2], [3]]


# ------------------------------------------------------------ reading models

def reference_project(cs, hist, horizon=None, facts=()):
    """`temporal_project` as it read its models before `ModelReader`: the
    state of each step by a scan and a sort of the whole model
    (`state_from_model`), and the occurrences of each step by another
    scan, n + 1 and n readings of a model at horizon n."""
    n = hist.max_step if horizon is None else horizon
    observed = tasks._observation_lits(cs, hist)
    fns = cs.sig.functions
    given_at_0 = any(step == 0 and isinstance(lit, FunLit)
                     and lit.func in fns and fns[lit.func].is_defined
                     for lit, (_, _, step) in zip(observed, hist.observed))
    found, with_models = {}, []
    for members, prog in tasks._history_programs(cs, hist, observed, n):
        g, cache, with_model = members[0], {}, False
        for model in prog.answer_sets(facts=facts):
            states = tuple(state_from_model(model, i) for i in range(n + 1))
            for i, s in enumerate(states):
                if s not in cache:
                    cache[s] = semantics.certify_state(
                        g, s, derived=i > 0 or not given_at_0)
                if cache[s] != "state":
                    break
            else:
                occs = tuple(frozenset(k[1] for k in model
                                       if k[0] == "occ" and k[2] == i)
                             for i in range(n))
                found.setdefault(tasks.Trajectory(states, occs))
                with_model = True
        if with_model:
            with_models.append(members)
    return tasks.ProjectionResult(list(found), n,
                                  [g for ms in with_models for g in ms],
                                  tasks._coverage(cs, hist, observed))


def golden_projections():
    """(system, history) of every golden `project` case."""
    from test_golden import CASES, ROOT
    for name, argv in sorted(CASES.items()):
        if name.startswith("project-"):
            lib = [str(ROOT / argv[i + 1]) for i, a in enumerate(argv)
                   if a == "--lib"]
            hist = argv[argv.index("--history") + 1]
            yield (compile_from_path(str(ROOT / argv[1]), lib),
                   parse_history((ROOT / hist).read_text(), hist))


def test_projections_read_in_one_pass_are_the_reference_ones(monkey,
                                                             monkey_task):
    """Trajectories in order, the grounders with one and the coverage, on
    every golden projection, the one-action projections of the random
    BATs, t0 at horizon 300, and monkey's validation of its carry plan,
    whose occurrences are facts."""
    runs = [(cs, hist, None, ()) for cs, hist in golden_projections()]
    rng, variant = random.Random(413), random.Random(417)
    one_action = parse_history("happened(act0, 0).")
    runs += [(compile_src(src), one_action, None, ()) for src in chain(
        (make_source(rng) for _ in range(100)),
        (make_source(variant, reads_d=True) for _ in range(100)))]
    t0 = compile_from_path(str(CORPUS / "t0.alm"), [])
    runs.append((t0, parse_history((CORPUS / "t0.hist").read_text()), 300,
                 ()))
    hist, _, plans = monkey_task
    (carry,) = [p for p in plans if "carry" in str(p)]
    runs.append((monkey, hist, 6, [("occ", a, i) for i, (a,) in
                                   enumerate(carry.steps)]))
    trajectories = 0
    for cs, hist, horizon, facts in runs:
        got = temporal_project(cs, hist, horizon, facts=facts)
        assert got == reference_project(cs, hist, horizon, facts)
        trajectories += len(got.trajectories)
    assert trajectories > 50
    assert len(got.trajectories) == 1
    assert got.trajectories[0].occurrences == tuple(map(frozenset,
                                                        carry.steps))


def test_projection_reads_each_model_once(monkeypatch, monkey_task):
    """One reading per model, at the program's horizon, however long it
    is: t0 at horizon 40, and monkey's plans validated at horizon 6.  Once
    the pre-models are derived, the history programs are the only ones
    solved, as the theories are stratified (`certify_state`)."""
    t0 = compile_from_path(str(CORPUS / "t0.alm"), [])
    monkey = compile_from_path(str(CORPUS / "monkey_and_banana.alm"),
                               [str(CORPUS)])
    assert t0.groups and monkey.groups  # the pre-models, derived here
    hist, goal, plans = monkey_task
    reads, models = Counter(), [0]
    call, answer_sets = semantics.ModelReader.__call__, Program.answer_sets

    def counting_call(self, model):
        reads[self.horizon] += 1
        return call(self, model)

    def counting_answer_sets(self, *args, **kwargs):
        for model in answer_sets(self, *args, **kwargs):
            models[0] += 1
            yield model

    monkeypatch.setattr(semantics.ModelReader, "__call__", counting_call)
    monkeypatch.setattr(Program, "answer_sets", counting_answer_sets)
    temporal_project(t0, parse_history((CORPUS / "t0.hist").read_text()),
                     horizon=40)
    assert reads == {40: 1} and models == [1]
    assert all(validate_plan(monkey, hist, goal, p) for p in plans)
    assert reads == {40: 1, 6: 2} and models == [3]


def test_deadline_after_grounding_stops_a_search_without_decisions(
        monkeypatch):
    """t0's projection makes no decision, so its search reads the clock
    only at the answer set it finds, before certifying it: a deadline that
    passes as soon as the history program is ground stops it there."""
    t0 = compile_from_path(str(CORPUS / "t0.alm"), [])
    hist = parse_history((CORPUS / "t0.hist").read_text())
    assert t0.groups  # the pre-models, derived before the deadline
    budget = lpcore.Budget()
    build = Grounder.build_program

    def expiring(self, horizon, budget=None):
        prog = build(self, horizon, budget)
        budget.deadline = time.monotonic() - 1
        return prog

    monkeypatch.setattr(Grounder, "build_program", expiring)
    with pytest.raises(BudgetExceeded):
        temporal_project(t0, hist, budget=budget)
    assert budget.decisions == 0
