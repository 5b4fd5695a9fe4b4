import pytest

from almc.errors import DiagnosticSink, InputError
from almc.syntax.parser import parse_file, parse_literal_text
from almc.tasks import (
    check_well_founded, compile_file, compile_system, entails_at, find_plans,
    Plan, initial_coverage, parse_goal, parse_history, prefer_most_specific,
    temporal_project, validate_plan,
)

from conftest import CORPUS


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
    assert initial_coverage(toggle, hist) == (1, 1)
    assert initial_coverage(toggle, parse_history("")) == (0, 1)


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
    return compile_file(str(CORPUS / "monkey_and_banana.alm"), [str(CORPUS)])


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


def test_monkey_is_well_founded(monkey):
    report = check_well_founded(monkey)
    assert report.well_founded and report.method == "syntactic"


def test_not_well_founded_detected():
    cs = compile_file(str(CORPUS / "n_w_f.alm"), [])
    report = check_well_founded(cs)
    assert not report.well_founded
    assert report.method == "semantic"
