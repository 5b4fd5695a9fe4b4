import gc
import io
import json
import re
import sys
import weakref
from collections import Counter
from itertools import product

import pytest

from almc import cli, modular
from almc.cli import (
    build_arg_parser, compile_from_path, main, parse_command_line,
)
from almc.errors import InputError

from conftest import ALM_FILES, CORPUS, ROOT, read
from test_modular import LIBRARIES


LIB = ["--lib", str(CORPUS)]
GOLDEN = ROOT / "tests" / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("path", ALM_FILES, ids=lambda p: p.name)
def test_check_accepts_every_corpus_file(capsys, path):
    code, out, _ = run(capsys, "check", str(path), *LIB)
    assert code == 0
    assert f"{path}: ok" in out


def test_check_well_founded_flags_bad_theory(capsys):
    code, out, _ = run(capsys, "check", str(CORPUS / "n_w_f.alm"),
                       "--well-founded")
    assert code == 3
    assert "not well-founded" in out


def test_check_well_founded_monkey(capsys):
    code, out, _ = run(capsys, "check", str(CORPUS / "monkey_and_banana.alm"),
                       *LIB, "--well-founded")
    assert code == 0
    assert "well-founded (syntactic check)" in out


@pytest.mark.parametrize("cmd, header", [
    ("states", "model 0: 0 state(s) [not well-founded]\n"),
    ("transitions", "model 0: 0 state(s), 0 transition(s) "
                    "[not well-founded]\n")], ids=["states", "transitions"])
def test_diagram_without_states_is_marked_not_well_founded(capsys, cmd,
                                                           header):
    # every candidate of n_w_f is ambiguous, so its one diagram has no
    # states; it is printed with its marker, and only `check
    # --well-founded` exits 3
    code, out, _ = run(capsys, cmd, str(CORPUS / "n_w_f.alm"))
    assert code == 0
    assert out == header


@pytest.mark.parametrize("cmd", ["states", "transitions"])
def test_json_lines_mark_a_diagram_that_is_not_well_founded(capsys, cmd):
    # n_w_f's one diagram has no states, so its one record says that it is
    # not well-founded; t0's diagram is well-founded and gets no such record
    code, out, _ = run(capsys, cmd, str(CORPUS / "n_w_f.alm"), "--json-lines")
    assert code == 0
    assert [json.loads(line) for line in out.splitlines()] == [
        {"type": "diagram", "model": 0, "well_founded": False}]
    code, out, _ = run(capsys, cmd, str(CORPUS / "t0.alm"), "--json-lines")
    assert code == 0
    assert out and all(json.loads(line)["type"] != "diagram"
                       for line in out.splitlines())


@pytest.mark.parametrize("cmd", ["states", "transitions"])
@pytest.mark.parametrize("name", ["t0", "professors", "travel", "n_w_f"])
def test_diagram_records_are_printed_as_emit_json_prints_them(capsys, cmd,
                                                              name):
    # the records of a diagram are rendered once, less their model number,
    # and printed with it: each line is its record dumped with sorted keys
    code, out, _ = run(capsys, cmd, str(CORPUS / f"{name}.alm"),
                       "--json-lines")
    assert code == 0 and out
    for line in out.splitlines():
        assert line == json.dumps(json.loads(line), sort_keys=True)


@pytest.mark.parametrize("json_lines", [[], ["--json-lines"]],
                         ids=["text", "json"])
@pytest.mark.parametrize("cmd", ["states", "transitions"])
def test_shared_diagram_is_rendered_once(monkeypatch, capsys, cmd,
                                         json_lines):
    """Professors' 3 pre-models form one group, so `build_diagrams` gives
    them one diagram: it is rendered once, and printed for each model as
    the golden output has it."""
    rendered = Counter()
    once = cli.rendered_once

    def spying(diagrams, render):
        assert len(diagrams) == 3 and len(set(map(id, diagrams))) == 1

        def counting(d):
            rendered[id(d)] += 1
            return render(d)
        return once(diagrams, counting)

    monkeypatch.setattr(cli, "rendered_once", spying)
    code, out, _ = run(capsys, cmd, str(CORPUS / "professors.alm"),
                       *json_lines)
    golden = f"{cmd}-professors{'-json' if json_lines else ''}.out"
    assert code == 0 and out == (GOLDEN / golden).read_text()
    assert list(rendered.values()) == [1]


@pytest.mark.parametrize("argv", [
    ["states", "t0.alm"],
    ["states", "travel.alm", "--json-lines"],
    ["transitions", "travel.alm"],
    ["project", "t0.alm", "--history", str(CORPUS / "t0.hist"),
     "--horizon", "30"]], ids=["t0", "travel-json", "travel", "project"])
def test_each_fluent_instance_is_named_once_per_command(monkeypatch,
                                                        capsys, argv):
    named = Counter()
    fun_text = cli.fun_text

    def counting(f, args):
        named[f, args] += 1
        return fun_text(f, args)

    monkeypatch.setattr(cli, "fun_text", counting)
    for _ in range(2):
        named.clear()
        code, out, _ = run(capsys, argv[0], str(CORPUS / argv[1]), *argv[2:])
        assert code == 0
        assert named and set(named.values()) == {1}
        assert all(fun_text(*inst) in out for inst in named)


def test_budget_seconds_stop_a_long_projection_without_decisions(capsys):
    # projecting 5,000 steps of t0 takes about 0.7 s, well over 0.2 s (2,000
    # steps took 0.22-0.25 s and could finish within the budget), and the
    # search makes no decision: the clock is read once per template and at
    # the answer set found
    code, _, err = run(capsys, "project", str(CORPUS / "t0.alm"),
                       "--history", str(CORPUS / "t0.hist"), "--horizon",
                       "5000", "--budget-seconds", "0.2")
    assert code == 4
    assert "budget exhausted" in err


def test_check_well_founded_needs_a_structure(capsys):
    # a bare theory has no states to check: a usage error, not a silent ok
    path = CORPUS / "commonsense_lib.alm"
    code, out, err = run(capsys, "check", str(path), "--well-founded")
    assert code == 1
    assert out == ""
    assert "--well-founded needs a system description with a structure" \
        in err and str(path) in err


def test_flatten_motion_prints_flat_module(capsys):
    code, out, _ = run(capsys, "flatten", str(CORPUS / "motion.alm"))
    assert code == 0
    assert out.startswith("module motion\n")
    # laws from both source modules are present in the flattened output
    assert "occurs(X) causes loc_in(A) = D if instance(X, move)" in out
    assert "instance(X, carry)" in out
    ref = run(capsys, "flatten", str(CORPUS / "flat_motion.alm"))[1]

    def body(text):
        # normalize declaration grouping: "a, b :: s" == "a :: s" + "b :: s"
        lines = set()
        for line in text.splitlines()[1:]:
            head, sep, parents = line.partition(" :: ")
            if sep and "(" not in head:
                pad = head[: len(head) - len(head.lstrip())]
                for name in head.split(","):
                    lines.add(f"{pad}{name.strip()} :: {parents}")
            else:
                lines.add(line)
        return lines

    assert body(out) == body(ref)


def test_hierarchy_lists_links(capsys):
    code, out, _ = run(capsys, "hierarchy", str(CORPUS / "professors.alm"))
    assert code == 0
    lines = set(out.splitlines())
    assert {"assistant :: professor", "associate :: professor",
            "full :: professor", "professor :: person"} <= lines


SYSTEM = """system description s
  theory t
    module m
      sort declarations
        things :: universe
      function declarations
        fluents
          basic
            f : things -> {result}
      axioms
        {axiom}
  structure st
    instances
      x in things
"""


def records_of(out):
    """Each line of `out` as a JSON record."""
    records = [json.loads(line) for line in out.splitlines()]
    assert records and all(isinstance(r, dict) and "type" in r
                           for r in records)
    return records


def test_hierarchy_json_lines_are_the_printed_links(capsys):
    t0 = str(CORPUS / "t0.alm")
    _, text, _ = run(capsys, "hierarchy", t0)
    code, out, _ = run(capsys, "hierarchy", t0, "--json-lines")
    assert code == 0
    records = records_of(out)
    assert {r["type"] for r in records} == {"link"}
    assert [f"{r['sort']} :: {r['parent']}" for r in records] == \
        text.splitlines()


def test_project_json_lines_are_the_printed_trajectories_and_queries(capsys):
    argv = ["project", str(CORPUS / "monkey_and_banana.alm"), *LIB,
            "--history", str(CORPUS / "gamma1.hist"),
            "--query", "loc_in(monkey) = initial_box", "--at", "1"]
    _, text, _ = run(capsys, *argv)
    code, out, _ = run(capsys, *argv, "--json-lines")
    assert code == 0
    trajectories, queries = [], []
    for line in text.splitlines():
        if line.startswith("trajectory "):
            trajectories.append(([], []))
        elif line.startswith("  step "):
            values = line.split(": ", 1)[1]
            trajectories[-1][0].append(
                dict(re.findall(r"([^=]+?)=([^,]*)(?:, |$)", values)))
            trajectories[-1][1].append("")
        elif line.startswith("  occurs: "):
            trajectories[-1][1][-1] = line[len("  occurs: "):]
        else:
            literal, step, verdict = re.fullmatch(
                r"query '(.*)' at step (\d+): (entailed|not entailed)",
                line).groups()
            queries.append((literal, int(step), verdict == "entailed"))
    records = records_of(out)
    assert {r["type"] for r in records} == {"trajectory", "query"}
    assert [(r["steps"], [", ".join(o) for o in r["occurrences"]] + [""])
            for r in records if r["type"] == "trajectory"] == trajectories
    assert [r["index"] for r in records if r["type"] == "trajectory"] == \
        list(range(len(trajectories)))
    assert [(r["literal"], r["step"], r["entailed"]) for r in records
            if r["type"] == "query"] == queries \
        == [("loc_in(monkey) = initial_box", 1, True)]


def test_flatten_of_a_system_builds_no_signature(capsys, tmp_path):
    """`flatten` prints the flattened module, whose signature it never
    builds: an unknown sort fails `check`, not `flatten`."""
    system = tmp_path / "s.alm"
    system.write_text(SYSTEM.format(result="nosuch",
                                    axiom="f(X) = X if instance(X, things)."))
    code, out, _ = run(capsys, "flatten", str(system))
    assert code == 0
    assert out.startswith("module t\n") and "f : things -> nosuch" in out
    code, _, err = run(capsys, "check", str(system))
    assert code == 3 and "unknown sort 'nosuch'" in err


def test_hierarchy_of_a_system_builds_no_action_theory(capsys, tmp_path):
    """`hierarchy` prints the sort links, not the action theory: an
    axiom over an unknown function fails `bat`, not `hierarchy`."""
    system = tmp_path / "s.alm"
    system.write_text(SYSTEM.format(result="things",
                                    axiom="false if nosuch(X)."))
    code, out, _ = run(capsys, "hierarchy", str(system))
    assert code == 0 and "things :: universe\n" in out
    code, _, err = run(capsys, "bat", str(system))
    assert code == 3 and "expected a boolean function atom" in err


def test_bat_summarizes_theory(capsys):
    code, out, _ = run(capsys, "bat", str(CORPUS / "travel.alm"))
    assert code == 0
    assert "dynamic causal laws: 1" in out
    assert "executability conditions: 3" in out


def test_states_t0(capsys):
    code, out, _ = run(capsys, "states", str(CORPUS / "t0.alm"))
    assert code == 0
    assert "model 0: 6 state(s)" in out


def test_transitions_t0(capsys):
    code, out, _ = run(capsys, "transitions", str(CORPUS / "t0.alm"))
    assert code == 0
    assert "6 state(s), 18 transition(s)" in out


def test_states_json_lines_are_records(capsys):
    code, out, _ = run(capsys, "states", str(CORPUS / "t0.alm"),
                       "--json-lines")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 6
    assert all(r["type"] == "state" for r in records)


def test_project_monkey_query(capsys):
    code, out, _ = run(capsys, "project",
                       str(CORPUS / "monkey_and_banana.alm"), *LIB,
                       "--history", str(CORPUS / "gamma1.hist"),
                       "--query", "loc_in(monkey) = initial_box", "--at", "1")
    assert code == 0
    assert "query 'loc_in(monkey) = initial_box' at step 1: entailed" in out


@pytest.mark.parametrize("mode", [[], ["--json-lines"]])
def test_project_query_that_cannot_be_ground_prints_nothing(capsys, mode):
    # the query fails when a pre-model grounds it, after the projection;
    # no trajectory or coverage note comes before the message
    code, out, err = run(capsys, "project", str(CORPUS / "t0.alm"),
                         "--history", str(CORPUS / "t0.hist"),
                         "--query", "nosuch < 3", *mode)
    assert code == 3
    assert out == ""
    assert "order comparison < over non-integers" in err
    assert "note:" not in err


def test_project_inconsistent_history(capsys, tmp_path):
    bad = tmp_path / "bad.hist"
    bad.write_text("observed(loc_in(monkey), initial_monkey, 0).\n"
                   "observed(loc_in(monkey), initial_box, 0).\n")
    code, _, err = run(capsys, "project",
                       str(CORPUS / "monkey_and_banana.alm"), *LIB,
                       "--history", str(bad))
    assert code == 3
    assert "inconsistent" in err


def test_plan_monkey_validates(capsys):
    code, out, _ = run(capsys, "plan",
                       str(CORPUS / "monkey_and_banana.alm"), *LIB,
                       "--history", str(CORPUS / "mb.hist"),
                       "--goal", str(CORPUS / "mb.goal"),
                       "--horizon", "6", "--validate", "--most-specific")
    assert code == 0
    assert out.count("plan ") == 1
    assert "step 2: {carry(box, under_banana)}" in out
    assert "reaches the goal" in out and "FAILS" not in out


def test_emit_asp_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.lp", tmp_path / "b.lp"
    assert run(capsys, "emit-asp", str(CORPUS / "t0.alm"),
               "--horizon", "1", "-o", str(a))[0] == 0
    assert run(capsys, "emit-asp", str(CORPUS / "t0.alm"),
               "--horizon", "1", "-o", str(b))[0] == 0
    text = a.read_text()
    assert text == b.read_text()
    assert text.startswith("% ground program export\n")
    assert "occurs(a, 0)" in text


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "check", str(CORPUS / "missing.alm"))
    assert code == 2
    assert "cannot read" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["plan", str(CORPUS / "t0.alm")])
    assert exc.value.code == 1


def test_budget_exhaustion_exit_code(capsys):
    code, _, err = run(capsys, "states", str(CORPUS / "travel.alm"),
                       "--budget-nodes", "5")
    assert code == 4
    assert "budget" in err


def test_decision_budget_counts_every_search(capsys):
    # t0's diagram takes 13 searches of at most 8 decisions each, 20 in
    # all: the budget is one total for the command, not a limit per search
    argv = ["transitions", str(CORPUS / "t0.alm"), "--budget-nodes"]
    code, _, err = run(capsys, *argv, "10")
    assert code == 4
    assert "decision budget (10) exhausted" in err
    assert run(capsys, *argv, "100")[0] == 0


def test_bat_prints_each_warning_once(capsys, tmp_path):
    system = tmp_path / "warn.alm"
    system.write_text("""system description warn
  theory warn_theory
    module main
      sort declarations
        c1 :: universe
      object constants
        o : c1
      function declarations
        statics
          basic
            s : c1 -> booleans
        fluents
          basic
            g : c1 -> c1
      axioms
        s(X) if g(X) = o.
  structure base
    instances
      x in c1
""")
    code, _, err = run(capsys, "bat", str(system))
    assert code == 0
    assert err.count("warning: state constraint fixes static 's'") == 1


def run_to_exit(capsys, *argv):
    """Exit code and stderr, whether the error is caught by argparse or
    by the command."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


GAMMA1 = ["project", str(CORPUS / "monkey_and_banana.alm"), *LIB,
          "--history", str(CORPUS / "gamma1.hist")]
MB_PLAN = ["plan", str(CORPUS / "monkey_and_banana.alm"), *LIB,
           "--history", str(CORPUS / "mb.hist"),
           "--goal", str(CORPUS / "mb.goal")]


@pytest.mark.parametrize("argv,flag", [
    (GAMMA1 + ["--query", "loc_in(monkey) = initial_box", "--at", "9"],
     "--at"),
    (GAMMA1 + ["--query", "loc_in(monkey) = initial_box", "--at", "-1"],
     "--at"),
    (GAMMA1 + ["--horizon", "-1"], "--horizon"),
    (MB_PLAN + ["--horizon", "-1"], "--horizon"),
    (["emit-asp", str(CORPUS / "t0.alm"), "--horizon", "-1"], "--horizon"),
], ids=["at-beyond-horizon", "at-negative", "project-horizon",
        "plan-horizon", "emit-asp-horizon"])
def test_out_of_range_step_is_usage_error(capsys, argv, flag):
    code, err = run_to_exit(capsys, *argv)
    assert code == 1
    assert flag in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--history", "--goal"])
def test_missing_history_or_goal_is_input_error(capsys, flag, tmp_path):
    argv = list(MB_PLAN) + ["--horizon", "1"]
    argv[argv.index(flag) + 1] = str(tmp_path / "missing.txt")
    code, err = run_to_exit(capsys, *argv)
    assert code == 2
    assert "cannot read" in err and "missing.txt" in err


@pytest.mark.parametrize("text, where", [("", "1:1"),
                                         ("% no literal\n\n", "3:1")],
                         ids=["empty", "comment"])
def test_goal_without_a_literal_is_input_error(capsys, tmp_path, text,
                                               where):
    goal = tmp_path / "empty.goal"
    goal.write_text(text)
    code, err = run_to_exit(
        capsys, "plan", str(CORPUS / "t0.alm"),
        "--history", str(CORPUS / "t0.hist"), "--goal", str(goal),
        "--horizon", "1")
    assert code == 2
    assert f"{goal}:{where}: a goal needs one or more literals" in err


def test_missing_system_file_is_input_error():
    with pytest.raises(InputError, match="cannot read"):
        compile_from_path(str(CORPUS / "nope.alm"), [])


@pytest.mark.parametrize("kind", ["non_utf8", "directory"])
def test_unreadable_library_is_input_error(capsys, tmp_path, kind):
    library = tmp_path / "lib.alm"
    if kind == "directory":
        library.mkdir()
    else:
        library.write_bytes(b"\xff\xfe" + "theory x\n".encode("utf-16-le"))
    theory = tmp_path / "t.alm"
    theory.write_text("theory t\n  import theory x from lib\n")
    code, out, err = run(capsys, "check", str(theory), "--lib", str(tmp_path))
    assert code == 2
    assert f"cannot read {library}" in err
    assert out == ""


@pytest.mark.parametrize("imports,code", [
    ("import module m1 from mid\n  import module m2 from side\n", 0),
    ("import module ma from cyc_a\n", 3),
], ids=["diamond", "cycle"])
def test_check_resolves_libraries_that_import(capsys, tmp_path, imports,
                                              code):
    for name, text in LIBRARIES.items():
        (tmp_path / f"{name}.alm").write_text(text)
    theory = tmp_path / "t.alm"
    theory.write_text(f"theory t\n  {imports}")
    got, _, err = run(capsys, "check", str(theory), "--lib", str(tmp_path))
    assert got == code
    assert err.count("circular import") == (code == 3)


@pytest.mark.parametrize("text,where", [
    ("theory e\n", "1:1"),
    ("system description s\n  theory e\n  structure b\n", "2:3"),
], ids=["theory", "system"])
def test_empty_theory_is_a_located_semantic_error(capsys, tmp_path, text,
                                                  where):
    path = tmp_path / "e.alm"
    path.write_text(text)
    code, _, err = run(capsys, "check", str(path))
    assert code == 3
    assert f"almc: {path}:{where}: theory 'e' declares no modules" in err


T0_STATES = ["states", str(CORPUS / "t0.alm")]


@pytest.mark.parametrize("argv,flag", [
    (T0_STATES + ["--budget-seconds", "-1"], "--budget-seconds"),
    (T0_STATES + ["--budget-seconds", "nan"], "--budget-seconds"),
    (T0_STATES + ["--budget-seconds", "inf"], "--budget-seconds"),
    (T0_STATES + ["--budget-seconds", "soon"], "--budget-seconds"),
    (T0_STATES + ["--budget-nodes", "-1"], "--budget-nodes"),
    (T0_STATES + ["--budget-nodes", "2.5"], "--budget-nodes"),
    (MB_PLAN + ["--horizon", "5", "--max-plans", "0"], "--max-plans"),
    (MB_PLAN + ["--horizon", "5", "--max-plans", "-1"], "--max-plans"),
], ids=["seconds-negative", "seconds-nan", "seconds-inf", "seconds-word",
        "nodes-negative", "nodes-fraction", "max-plans-0", "max-plans-neg"])
def test_bad_budget_or_count_is_usage_error(capsys, argv, flag):
    code, err = run_to_exit(capsys, *argv)
    assert code == 1
    assert flag in err
    assert "Traceback" not in err


@pytest.mark.parametrize("budget", [["--budget-seconds", "0"],
                                    ["--budget-nodes", "0"]],
                         ids=["seconds", "nodes"])
def test_zero_budget_stops_the_search(capsys, budget):
    code, err = run_to_exit(capsys, *T0_STATES, *budget)
    assert code == 4
    assert "budget exhausted" in err


def test_emit_asp_to_unwritable_path_is_input_error(capsys, tmp_path):
    target = tmp_path / "no_such_dir" / "x.lp"
    code, err = run_to_exit(capsys, "emit-asp", str(CORPUS / "t0.alm"),
                            "-o", str(target))
    assert code == 2
    assert "cannot write" in err and "x.lp" in err
    assert "Traceback" not in err


def test_emit_asp_over_the_atom_cap_is_budget_exhausted(capsys):
    """`emit-asp` takes no budget flags, but a horizon over the cap on a
    program's atoms stops before any row is made, as exit 4."""
    code, out, err = run(capsys, "emit-asp", str(CORPUS / "t0.alm"),
                         "--horizon", "100000000000000000000")
    assert code == 4
    assert err == ("almc: budget exhausted: horizon 100000000000000000000 "
                   "would ground over 2000000 atoms or steps; use a smaller "
                   "horizon\n")
    assert out == ""


def test_non_utf8_history_is_input_error(capsys, tmp_path):
    hist = tmp_path / "utf16.hist"
    hist.write_bytes(b"\xff\xfe" + "happened(move(initial_box), 0).\n"
                     .encode("utf-16-le"))
    code, out, err = run(capsys, *GAMMA1[:-1], str(hist))
    assert code == 2
    assert f"cannot read {hist}: not UTF-8 text" in err
    assert out == ""


@pytest.mark.parametrize("line", ["happened(move(nowhere), 0).",
                                  "-happened(move(nowhere), 0)."],
                         ids=["positive", "negated"])
def test_unknown_action_in_history_is_input_error(capsys, tmp_path, line):
    hist = tmp_path / "bad.hist"
    hist.write_text("observed(loc_in(monkey), initial_monkey, 0).\n"
                    + line + "\n")
    code, out, err = run(capsys, *GAMMA1[:-1], str(hist))
    assert code == 2
    assert f"{hist}:2:" in err
    assert "move(nowhere) is not an action" in err
    assert out == ""


@pytest.mark.parametrize("line", [
    "observed(g(nosuch), o, 0).", "observed(g(x), a, 1).",
    "observed(attr_1(a), o, 0).", "observed(o, o, 0).",
], ids=["argument", "value", "static", "no-function"])
def test_observation_outside_a_fluents_sorts_is_input_error(capsys, tmp_path,
                                                            line):
    hist = tmp_path / "bad.hist"
    hist.write_text("observed(g(x), o, 0).\n" + line + "\n")
    code, out, err = run(capsys, "project", str(CORPUS / "t0.alm"),
                         "--history", str(hist), "--horizon", "1")
    assert code == 2
    assert f"{hist}:2:" in err and "within its sorts" in err
    assert out == ""


def test_bad_history_fails_before_the_coverage_note(capsys, tmp_path):
    hist = tmp_path / "bad.hist"
    hist.write_text("observed(g(nosuch), o, 0).\n")
    code, out, err = run(capsys, "project", str(CORPUS / "t0.alm"),
                         "--history", str(hist))
    assert code == 2 and out == ""
    assert err.startswith(f"almc: {hist}:1:") and "note:" not in err
    hist.write_text("observed(g(x), o, 0).\n")
    code, _, err = run(capsys, "project", str(CORPUS / "t0.alm"),
                       "--history", str(hist))
    assert code == 0
    assert err.startswith("note: initial situation observes 1 of 2 basic "
                          "fluent instances")


def test_project_normalizes_each_literal_once(capsys, monkeypatch):
    # the observations serve the coverage note and the projection, and
    # each query its check up front and its verdict
    import almc.cli
    import almc.tasks
    seen = []
    normalize_each = almc.tasks.normalize_each

    def counted(cs, lits):
        seen.extend(map(repr, lits))
        return normalize_each(cs, lits)

    monkeypatch.setattr(almc.tasks, "normalize_each", counted)
    monkeypatch.setattr(almc.cli, "normalize_each", counted)
    code, out, _ = run(capsys, *GAMMA1, "--query",
                       "loc_in(monkey) = initial_box", "--query",
                       "loc_in(box) = initial_box")
    assert code == 0 and out.count("entailed") == 2
    assert len(seen) == len(set(seen)) == 4, seen


@pytest.mark.parametrize("query,code,message", [
    ("bogus(monkey) = x", 3, "almc: 1:1: error: unknown symbol 'bogus'"),
    ("loc_in(monkey) =", 2, "almc: 1:17: expected a term"),
], ids=["unknown-symbol", "parse-error"])
def test_bad_query_fails_before_projecting(capsys, query, code, message):
    got, out, err = run(capsys, *GAMMA1, "--query", query)
    assert got == code
    assert out == ""  # no trajectory is printed before the error
    assert err.startswith(message)
    assert "1:1: 1:1:" not in err


def test_plan_json_lines_carry_the_validation_verdict(capsys):
    argv = ["plan", str(CORPUS / "monkey_and_banana.alm"), *LIB,
            "--history", str(CORPUS / "mb.hist"),
            "--goal", str(CORPUS / "mb.goal"), "--horizon", "6",
            "--json-lines"]
    code, out, _ = run(capsys, *argv, "--validate")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 2
    assert all(r["validated"] is True for r in records)
    # without --validate the records are as before
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert [json.loads(line) for line in out.splitlines()] == \
        [{k: v for k, v in r.items() if k != "validated"} for r in records]


@pytest.mark.parametrize("command", ["check", "flatten", "bat", "emit-asp"])
def test_json_lines_is_rejected_where_no_records_are_printed(capsys, command):
    code, err = run_to_exit(capsys, command, str(CORPUS / "t0.alm"),
                            "--json-lines")
    assert code == 1
    assert "--json-lines" in err


def test_zero_budget_stops_the_grounding(capsys):
    # projection on cell_cycle2 makes no search decision, so only a
    # deadline read while grounding can stop it
    code, out, err = run(capsys, "project", str(CORPUS / "cell_cycle2.alm"),
                         *LIB, "--history", str(CORPUS / "cc_phases.hist"),
                         "--budget-seconds", "0")
    assert code == 4
    assert "budget exhausted" in err and out == ""


MOD_ZERO = """system description modzero
  theory modzero_theory
    module main
      function declarations
        fluents
          basic
            f : [0..2] -> [0..2]
      axioms
        false if f(X) = Y, X mod Y = 1.
  structure base
"""


def test_mod_by_zero_drops_the_ground_instance(capsys, tmp_path):
    """`X mod 0` has no value, so the instances with Y = 0 are dropped,
    as gringo drops them; the constraint forbids only f(1) = 2."""
    system = tmp_path / "modzero.alm"
    system.write_text(MOD_ZERO)
    code, out, err = run(capsys, "states", str(system), "--json-lines")
    assert code == 0 and err == ""
    got = {frozenset(json.loads(line)["atoms"].items())
           for line in out.splitlines()}
    want = set()
    for f0, f1, f2 in product([None, "0", "1", "2"], [None, "0", "1"],
                              [None, "0", "1", "2"]):
        atoms = {}
        for x, v in enumerate((f0, f1, f2)):
            atoms[f"dom_f({x})"] = "false" if v is None else "true"
            if v is not None:
                atoms[f"f({x})"] = v
        want.add(frozenset(atoms.items()))
    assert len(want) == 48 and got == want


# 21 objects, each placed in kind_a or kind_b: 2**21 placements
CROWDED = """system description crowded
  theory t
    module m
      sort declarations
        elems :: universe
        kind_a, kind_b :: elems
      function declarations
        fluents
          basic
            p : elems -> booleans
      axioms
        false if p(X), instance(X, kind_a).
  structure s
    instances
""" + "".join(f"      e{i} in elems\n" for i in range(21))


def test_too_many_placements_are_refused_at_the_structure(
        capsys, tmp_path, monkeypatch):
    """More than `MAX_PLACEMENTS` placements is a semantic error located at
    the structure, raised before any placement is built."""
    system = tmp_path / "crowded.alm"
    system.write_text(CROWDED)
    built = []
    monkeypatch.setattr(modular, "_make_placement",
                        lambda *args: built.append(args))
    code, out, err = run(capsys, "states", str(system))
    assert (code, out, built) == (3, "", [])
    assert err == (f"almc: {system}:13:3: placement enumeration exceeds "
                   f"{modular.MAX_PLACEMENTS} candidates\n")


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_ends_quietly(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["states", str(CORPUS / "professors.alm")])
    err = capsys.readouterr().err
    assert code == 0 and err == ""


ILL_TYPED = """system description illtyped
  theory illtyped_theory
    module main
      sort declarations
        c1 :: universe
      function declarations
        fluents
          basic
            f : c1 -> [0..2]
            g : c1 -> booleans
      axioms
        f(X) = 3 if g(X).
  structure base
    instances
      x in c1
"""


def test_ill_typed_head_warns_once(capsys, tmp_path):
    system = tmp_path / "illtyped.alm"
    system.write_text(ILL_TYPED)
    code, out, err = run(capsys, "emit-asp", str(system), "--horizon", "2")
    assert code == 0
    assert err.count("warning: ill-typed head f(x) = 3; rule treated as a "
                     "constraint") == 1
    # the rule is a constraint at every step
    assert all(f":- val(g(x), true, {i})." in out.splitlines()
               for i in range(3))


ORDERED_STATICS = """system description order
  theory t
    module m
      sort declarations
        c :: universe
      function declarations
        statics
          defined
            p : c -> booleans
            q : c -> booleans
      axioms
        {first}
        {second}
  structure s
    instances
      a in c
      b in c
"""


@pytest.mark.parametrize("swap", [False, True], ids=["as-given", "swapped"])
def test_static_values_follow_the_definitions_not_their_order(
        capsys, tmp_path, swap):
    axioms = ["q(X) if instance(X, c), -p(X).",
              "p(X) if instance(X, c), X = b."]
    if swap:
        axioms.reverse()
    system = tmp_path / "order.alm"
    system.write_text(ORDERED_STATICS.format(first=axioms[0],
                                             second=axioms[1]))
    history = tmp_path / "empty.hist"
    history.write_text("")
    code, out, _ = run(capsys, "project", str(system), "--history",
                       str(history), "--query", "q(b)", "--query", "q(a)",
                       "--at", "0")
    assert code == 0
    assert "query 'q(b)' at step 0: not entailed" in out
    assert "query 'q(a)' at step 0: entailed" in out


CLASHING_STATICS = """system description clash
  theory t
    module m
      sort declarations
        c :: universe
      function declarations
        statics
          basic
            p : booleans
        fluents
          basic
            f : c -> booleans
  structure s
    instances
      a in c
    values of statics
      p.
      -p.
"""


@pytest.mark.parametrize("command", [
    ["states"], ["transitions"], ["emit-asp"],
    ["project", "--history", "{history}"],
    ["plan", "--history", "{history}", "--goal", "{goal}", "--horizon", "1"],
], ids=lambda c: c[0])
def test_no_pre_model_is_a_located_semantic_error(capsys, tmp_path, command):
    """Every command that needs the pre-models fails at the structure, not
    with empty output or a blame on the history."""
    system = tmp_path / "clash.alm"
    system.write_text(CLASHING_STATICS)
    (tmp_path / "empty.hist").write_text("")
    (tmp_path / "f.goal").write_text("f(a).\n")
    code, out, err = run(capsys, command[0], str(system), *(
        a.format(history=tmp_path / "empty.hist", goal=tmp_path / "f.goal")
        for a in command[1:]))
    assert code == 3 and out == ""
    assert err.strip() == (
        f"almc: {system}:13:3: structure 's' has no pre-model: its statics "
        "have no consistent values in any placement of its objects")


def test_conflicting_attribute_values_are_a_located_semantic_error(
        capsys, tmp_path, monkeypatch):
    """Two values of one attribute of an object are a semantic error at the
    structure that names both, raised before any placement is built, not
    the generic "no pre-model" error."""
    system = tmp_path / "t0_clash.alm"
    system.write_text(read(CORPUS / "t0.alm").replace(
        "        attr_1 = o\n", "        attr_1 = o\n        attr_1 = z\n"))
    built = []
    monkeypatch.setattr(modular, "_make_placement",
                        lambda *args: built.append(args))
    code, out, err = run(capsys, "states", str(system))
    assert (code, out, built) == (3, "", [])
    assert err == (f"almc: {system}:23:3: conflicting values o and z for "
                   "attribute attr_1 of a\n")


def test_attribute_on_a_sort_with_an_unknown_parent_is_a_located_error(
        capsys, tmp_path):
    """An attribute declared on two sorts is widened to their nearest
    common ancestor.  A sort whose parent is unknown has none, and the
    error is that parent, not a traceback from the widening."""
    system = tmp_path / "t0_nowhere.alm"
    text = read(CORPUS / "t0.alm")
    assert text.count("            attr_2 : c3\n") == 1
    system.write_text(text.replace(
        "            attr_2 : c3\n",
        "            attr_2 : c3\n        other :: nowhere\n"
        "          attributes\n            attr_1 : c3\n"))
    code, out, err = run(capsys, "check", str(system))
    assert (code, out) == (3, "")
    assert err == (f"almc: {system}:11:9: error: unknown parent sort "
                   "'nowhere'\n")


def test_negated_instance_in_a_where_clause_is_refused(capsys, tmp_path):
    """`-instance(P, s)` in a where clause would need the complement of s,
    which neither the parameter sorting nor the filter computes: it is a
    located semantic error, and not read as `instance(P, s)`."""
    system = tmp_path / "mb_neg.alm"
    text = read(CORPUS / "monkey_and_banana.alm")
    clause = "move(P) in move where instance(P, floor_points)"
    assert text.count(clause) == 1
    system.write_text(text.replace(clause, clause.replace("where ",
                                                          "where -")))
    code, out, err = run(capsys, "states", str(system), *LIB)
    assert (code, out) == (3, "")
    assert err == (f"almc: {system}:29:29: a negated instance(...) literal "
                   "is not supported in a where clause\n")


def test_unbounded_numeric_sort_is_located_at_its_function(capsys):
    code, out, err = run(capsys, "states", str(CORPUS / "cell_cycle1.alm"),
                         *LIB)
    assert code == 3 and out == ""
    assert err.strip() == (
        f"almc: {CORPUS / 'cell_cycle_lib.alm'}:20:11: the numeric sort "
        "'natural_numbers' is unbounded and cannot be grounded; use a range "
        "sort instead")


UNBOUNDED_VARIABLE = """system description big
  theory t
    module m
      sort declarations
        c :: universe
          attributes
            w : natural_numbers
      function declarations
        statics
          defined
            big : c -> booleans
      axioms
        big(X) if w(X) = N, N > 2.
  structure s
    instances
      a in c
        w = 3
"""


def test_unbounded_rule_variable_is_located_at_its_axiom(capsys, tmp_path):
    """A rule variable bound through an attribute over an unbounded numeric
    sort cannot be ground; the message names the axiom that binds it."""
    system = tmp_path / "big.alm"
    system.write_text(UNBOUNDED_VARIABLE)
    code, out, err = run(capsys, "states", str(system))
    assert code == 3 and out == ""
    assert err.strip() == (
        f"almc: {system}:13:9: the numeric sort 'natural_numbers' is "
        "unbounded and cannot be grounded; use a range sort instead")


# ------------------------------------------------------------ usage output

T0, T0_HIST = str(CORPUS / "t0.alm"), str(CORPUS / "t0.hist")
COMMAND_NAMES = ["check", "flatten", "hierarchy", "bat", "states",
                 "transitions", "project", "plan", "emit-asp"]
T0_PLAN = ["plan", T0, "--history", T0_HIST, "--goal", T0_HIST]

USAGE_CASES = {
    "help": ["-h"],
    "no-arguments": [],
    "unknown-command": ["bogus", T0],
    **{f"help-{name}": [name, "-h"] for name in COMMAND_NAMES},
    "unrecognized-option": ["project", T0, "--history", T0_HIST, "--bogus"],
    "missing-required": T0_PLAN,
    "bad-natural": ["emit-asp", T0, "--horizon", "one"],
    "bad-positive": T0_PLAN + ["--horizon", "1", "--max-plans", "0"],
    "bad-seconds": ["states", T0, "--budget-seconds", "soon"],
    "bad-choice": ["transitions", T0, "--action-sets", "all"],
}


@pytest.mark.parametrize("argv", USAGE_CASES.values(), ids=USAGE_CASES)
def test_usage_output_is_the_full_parsers(capsys, monkeypatch, argv):
    # argparse wraps its messages to the terminal's width
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as got:
        main(list(argv))
    out, err = capsys.readouterr()
    with pytest.raises(SystemExit) as want:
        build_arg_parser().parse_args(list(argv))
    assert (got.value.code, out, err) == (want.value.code,
                                          *capsys.readouterr())
    assert got.value.code == (0 if "-h" in argv else 1)
    if "bogus" in argv or "--bogus" in argv or not argv:
        # the top-level usage names every command
        assert "{" + ",".join(COMMAND_NAMES) + "}" in err


VALID_ARGV = [
    ["check", T0, "--well-founded", "--budget-nodes", "3"],
    ["flatten", T0, "--lib", "a", "--lib", "b"],
    ["hierarchy", T0, "--json-lines"],
    ["transitions", T0, "--action-sets", "powerset", "--budget-seconds", "2"],
    ["project", T0, "--history", T0_HIST, "--query", "f(x) = o", "--at",
     "1"],
    T0_PLAN + ["--horizon", "1", "--cr-min", "set", "--max-plans", "2",
               "--concurrent", "--validate"],
    ["emit-asp", T0, "-o", "out.lp", "--horizon", "2"],
]


@pytest.mark.parametrize("argv", VALID_ARGV, ids=lambda a: a[0])
def test_one_commands_parser_reads_what_the_full_parser_reads(argv):
    assert vars(parse_command_line(argv)) == \
        vars(build_arg_parser().parse_args(argv))


def test_main_freezes_the_import_heap_once(capsys):
    threshold = gc.get_threshold()
    assert run(capsys, "check", T0)[0] == 0
    frozen = gc.get_freeze_count()
    assert frozen > 0

    class Node:
        pass

    cycle = Node()
    cycle.self = cycle
    ref = weakref.ref(cycle)
    del cycle
    assert run(capsys, "check", T0)[0] == 0
    assert gc.get_freeze_count() == frozen
    assert gc.isenabled() and gc.get_threshold() == threshold
    # what is made after the first command is collected as before
    gc.collect()
    assert ref() is None


def test_non_decimal_digit_in_a_system_is_a_located_input_error(capsys,
                                                                 tmp_path):
    # `²` passes `str.isdigit` but not `int`
    path = tmp_path / "t.alm"
    path.write_text((CORPUS / "t0.alm").read_text().replace(
        "g : c2 -> c3", "g : c2 -> [0..²]"), encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert code == 2 and out == ""
    assert err == f"almc: {path}:17:27: unexpected character '²'\n"


def test_non_decimal_digit_in_a_query_is_a_located_input_error(capsys):
    code, out, err = run(capsys, "project", T0, "--history", T0_HIST,
                         "--query", "f(x) = ²")
    assert code == 2 and out == ""
    assert err == "almc: 1:8: unexpected character '²'\n"


@pytest.mark.parametrize("command", [
    ["emit-asp"],
    ["project", "--history", str(CORPUS / "gamma1.hist")],
], ids=lambda c: c[0])
def test_plain_name_on_a_schema_line_is_a_located_semantic_error(
        capsys, tmp_path, command):
    """A plain name on an instance line with parameterised objects is
    refused at the name; it was dropped, in no sort and not an action."""
    text = read(CORPUS / "monkey_and_banana.alm")
    assert text.count("grasp(C) in grasp where") == 1
    system = tmp_path / "mixed.alm"
    system.write_text(text.replace("grasp(C) in grasp where",
                                   "noop, grasp(C) in grasp where"))
    code, out, err = run(capsys, command[0], str(system), *LIB, *command[1:])
    assert code == 3 and out == ""
    assert err.strip() == (
        f"almc: {system}:36:7: error: instance noop cannot share a line "
        "with parameterised objects")
