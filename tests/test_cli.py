import json

import pytest

from almc.cli import main

from conftest import ALM_FILES, CORPUS


LIB = ["--lib", str(CORPUS)]


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
