"""End-to-end acceptance checks.

Each test covers one acceptance criterion, re-runs it from the public API,
enforces the criterion's wall-clock budget, and prints a single PASS/FAIL
line.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

The heavier random suites reuse the generators and independent oracles from
test_lpcore / test_semantics so that a regression there and here means the
same thing.
"""

import time
from contextlib import contextmanager

from almc.cli import compile_from_path
from almc.semantics import (
    Grounder, compute_transitions, enumerate_states, system_pre_models,
)
from almc.syntax.parser import parse_file, parse_literal_text
from almc.syntax.printer import pretty
from almc.tasks import (
    check_well_founded, entails_at, find_plans, parse_goal,
    parse_history, temporal_project, validate_plan,
)

from conftest import ALM_FILES, CORPUS, parse_path, read
import test_lpcore
import test_modular
import test_parser
import test_semantics


@contextmanager
def criterion(num, desc, bound):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"\ncriterion {num:2d} ({desc}): FAIL "
              f"({time.monotonic() - start:.2f}s)")
        raise
    elapsed = time.monotonic() - start
    ok = elapsed < bound
    verdict = "PASS" if ok else "FAIL (time budget exceeded)"
    print(f"\ncriterion {num:2d} ({desc}): {verdict} "
          f"({elapsed:.2f}s < {bound:g}s)")
    assert ok, f"criterion {num} took {elapsed:.2f}s, budget {bound:g}s"


def test_01_grammar_conformance():
    with criterion(1, "grammar conformance", 1.0):
        assert len(ALM_FILES) >= 12
        for path in ALM_FILES:
            text = read(path)
            node = parse_file(text, str(path))
            assert pretty(node) == text, path.name
        assert len(test_parser.NEGATIVE) >= 50
        for src in test_parser.NEGATIVE:
            exc = test_parser._reject(src)
            span = getattr(exc, "span", None)
            assert span is not None and span.line >= 1, src


def test_02_flattening_matches_reference():
    with criterion(2, "flatten(motion) == flat_motion", 1.0):
        got = test_modular.flat_of("motion")
        want = test_modular.flat_of("flat_motion")
        assert test_modular.sort_links(got) == test_modular.sort_links(want)
        assert test_modular.func_decls(got) == test_modular.func_decls(want)
        assert set(got.axioms) == set(want.axioms)
        assert len(got.axioms) == 13


def test_03_six_state_fixture_semantics():
    with criterion(3, "6-state fixture: exact states + transitions", 5.0):
        cs = compile_from_path(str(CORPUS / "t0.alm"), [])
        (pm,) = system_pre_models(cs.theory, cs.structure, cs.sink)
        g = Grounder(cs.theory, pm)
        space = enumerate_states(g)
        got = {test_semantics.state_key(s) for s in space.states}
        want = {frozenset((f, a, v) for (f, a), v in d.items())
                for d in test_semantics.T0_STATES}
        assert got == want
        # cross-check every state with the independent evaluator
        for s in space.states:
            test_semantics.check_state(g, pm, cs.theory, s)
        index = {test_semantics.state_key(s): test_semantics.T0_STATES.index(
            dict(((f, a), v) for f, a, v in s.atoms()))
            for s in space.states}
        trans = compute_transitions(g, space.states)
        renum = {i: index[test_semantics.state_key(space.states[i])]
                 for i in range(len(space.states))}
        arcs = {(renum[i], frozenset(map(str, acts)), renum[j])
                for i, acts, j in trans}
        # exact relation; in particular the four singled-out arcs
        assert arcs == test_semantics.T0_TRANSITIONS
        assert {(0, frozenset({"b"}), 0), (1, frozenset({"a"}), 1),
                (4, frozenset({"a"}), 2), (4, frozenset({"b"}), 0)} <= arcs
        test_semantics.check_transitions(g, cs.theory, space.states, trans)


def test_04_underspecified_hierarchy_three_models():
    with criterion(4, "underspecified hierarchy: 3 models", 1.0):
        cs = compile_from_path(str(CORPUS / "professors.alm"), [])
        pms = system_pre_models(cs.theory, cs.structure, cs.sink)
        assert len(pms) == 3
        placements = set()
        for pm in pms:
            ranks = {s for s in pm.is_a.get("alice", ())
                     if s in {"assistant", "associate", "full"}}
            assert len(ranks) == 1
            placements |= ranks
        assert placements == {"assistant", "associate", "full"}


def test_05_travel_diagram_arcs():
    with criterion(5, "travel diagram structure", 10.0):
        cs = compile_from_path(str(CORPUS / "travel.alm"), [])
        pms = system_pre_models(cs.theory, cs.structure, cs.sink)
        assert len(pms) == 1
        g = Grounder(cs.theory, pms[0])
        space = enumerate_states(g)
        trans = compute_transitions(g, space.states)
        assert len(space.states) == 189
        assert len(trans) == 657
        # every connected paris<->rome crossing is realized for both agents
        want = {(who, o, d) for who in ("bob", "john")
                for o, d in (("paris", "rome"), ("rome", "paris"))}
        found = set()
        for i, acts, j in trans:
            if len(acts) != 1:
                continue
            name = str(next(iter(acts)))
            for who, o, d in want:
                if name != f"go({who}, {o}, {d})":
                    continue
                src, dst = space.states[i], space.states[j]
                if (src.value("connected", (o, d)) == "true"
                        and src.value("loc_in", (who,)) == o
                        and dst.value("loc_in", (who,)) == d):
                    found.add((who, o, d))
        assert found == want
        # no move ends in new_york when the origin is known disconnected
        for i, acts, j in trans:
            for act in acts:
                name = str(act)
                if not name.endswith(", new_york)"):
                    continue
                origin = name[3:-1].split(", ")[1]
                src = space.states[i]
                assert src.value("connected", (origin, "new_york")) != "false"


def test_06_temporal_projection_unique_trajectory():
    with criterion(6, "projection: unique trajectory", 5.0):
        cs = compile_from_path(str(CORPUS / "monkey_and_banana.alm"),
                               [str(CORPUS)])
        hist = parse_history(read(CORPUS / "gamma1.hist"))
        res = temporal_project(cs, hist)
        assert res.consistent
        assert len(res.trajectories) == 1
        t = res.trajectories[0]
        assert t.states[1].value("loc_in", ("monkey",)) == "initial_box"
        lit = parse_literal_text("loc_in(monkey) = initial_box")
        assert entails_at(cs, res, lit, 1)


def test_07_planning_two_minimal_plans():
    with criterion(7, "planning: exactly 2 minimal plans", 60.0):
        cs = compile_from_path(str(CORPUS / "monkey_and_banana.alm"),
                               [str(CORPUS)])
        hist = parse_history(read(CORPUS / "mb.hist"))
        goal = parse_goal(read(CORPUS / "mb.goal"))
        res = find_plans(cs, hist, goal, horizon=6)
        assert len(res.plans) == 2
        shared = ["move(initial_box)", "grasp(box)", None, "release(box)",
                  "climb(box)", "grasp(banana)"]
        middles = set()
        for plan in res.plans:
            assert plan.occurrences == 6
            steps = [sorted(map(str, s)) for s in plan.steps]
            for k, fixed in enumerate(shared):
                if fixed is not None:
                    assert steps[k] == [fixed]
            middles.add(steps[2][0])
            assert validate_plan(cs, hist, goal, plan)
        assert middles == {"carry(box, under_banana)",
                           "move(under_banana)"}


def test_08_well_foundedness_classification():
    with criterion(8, "well-foundedness classification", 5.0):
        cs = compile_from_path(str(CORPUS / "monkey_and_banana.alm"),
                               [str(CORPUS)])
        assert check_well_founded(cs).well_founded
        bad = compile_from_path(str(CORPUS / "n_w_f.alm"), [])
        report = check_well_founded(bad)
        assert not report.well_founded
        # the witness: some state program admits more than one answer set
        (pm,) = system_pre_models(bad.theory, bad.structure, bad.sink)
        space = enumerate_states(Grounder(bad.theory, pm))
        assert not space.well_founded


def test_09_solver_random_program_properties():
    with criterion(9, "solver vs exhaustive oracle", 120.0):
        test_lpcore.test_500_random_programs_match_exhaustive_oracle()
        test_lpcore.test_200_random_cr_programs()


def test_10_inertia_cwa_property_suite():
    with criterion(10, "inertia/CWA random theory suite", 120.0):
        test_semantics.test_100_random_bats_satisfy_inertia_cwa_and_constraints()


def test_11_cell_division_scenarios():
    with criterion(11, "cell division projections", 10.0):
        cs = compile_from_path(str(CORPUS / "cell_cycle2.alm"),
                               [str(CORPUS)])

        def end_state(hist_name):
            hist = parse_history(read(CORPUS / hist_name))
            res = temporal_project(cs, hist)
            assert res.consistent and len(res.trajectories) == 1
            return res.trajectories[0].states[-1]

        full = end_state("cc_phases.hist")
        assert str(full.value("num", ("cell", "sample"))) == "2"
        assert str(full.value("num", ("nucleus", "cell"))) == "1"
        # cytokinesis never happens: one cell left with two nuclei
        blocked = end_state("cc_12_9.hist")
        assert str(blocked.value("num", ("cell", "sample"))) == "1"
        assert str(blocked.value("num", ("nucleus", "cell"))) == "2"
