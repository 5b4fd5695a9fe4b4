"""Fuzz of the `almc` command line.

Hypothesis draws flag values and history, goal and query text, some of it
well-formed and some not, and runs `project`, `plan`, `states` and
`transitions` on t0 and on monkey-and-banana.  Whatever it draws, a run
must end with a documented exit code (0-4) and never with a traceback.
Horizons and step numbers stay small so that each run is cheap.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from almc.cli import main

from conftest import CORPUS

SYSTEMS = {
    "t0": [str(CORPUS / "t0.alm")],
    "monkey": [str(CORPUS / "monkey_and_banana.alm"), "--lib", str(CORPUS)],
}

# pieces of history and goal text, mostly names the two systems declare
WORDS = [
    "observed(", "happened(", "-happened(", ")", "(", ", ", ".", "\n", "%",
    " = ", " != ", "-", "0", "1", "2", "3", "-1", "X",
    "f(x)", "g(x)", "dom_f(x)", "a", "b", "o", "z", "x", "true", "false",
    "attr_1(a)", "attr_2(b)", "instance(a, t0_actions)", "link(c2, c1)",
    "g(o)", "c2", "t0_actions",
    "loc_in(monkey)", "loc_in(box)", "holding(monkey, banana)",
    "initial_monkey", "initial_box", "under_banana", "top(box)",
    "move(initial_box)", "move(nowhere)", "grasp(banana)", "climb(box)",
    "nowhere", "monkey", "banana",
]

FACTS = [
    "observed(loc_in(monkey), initial_monkey, 0).",
    "observed(loc_in(box), initial_box, 0).",
    "happened(move(initial_box), 0).",
    "observed(f(x), o, 0).",
    "observed(g(x), o, 0).",
    "happened(a, 0).",
    "-happened(b, 0).",
    "observed(g(o), o, 0).",
    "observed(attr_1(a), o, 0).",
    "observed(g(x), a, 1).",
    "attr_1(a) = o.",
    "instance(a, t0_actions).",
]

text = st.one_of(
    st.lists(st.sampled_from(FACTS), max_size=3).map("\n".join),
    st.lists(st.sampled_from(WORDS), max_size=12).map("".join),
    st.text(max_size=20),
).map(lambda s: s.encode("utf-8"))
raw = st.binary(max_size=20)
# valid values are repeated so that most runs get past argument parsing
step = st.sampled_from(["0", "1", "2"] * 3 + ["-1", "x", ""])


@st.composite
def command(draw):
    system = draw(st.sampled_from(sorted(SYSTEMS)))
    name = draw(st.sampled_from(
        ["project", "plan"] + (["states", "transitions"]
                               if system == "t0" else [])))
    argv = [name, *SYSTEMS[system]]
    files = {}
    if name in ("project", "plan"):
        files["--history"] = draw(st.one_of(text, raw))
        if name == "plan" or draw(st.booleans()):  # plan needs a horizon
            argv += ["--horizon", draw(step)]
    if name == "project":
        for _ in range(draw(st.integers(0, 2))):
            argv += ["--query", draw(st.sampled_from(WORDS + FACTS))]
        if draw(st.booleans()):
            argv += ["--at", draw(step)]
    if name == "plan":
        files["--goal"] = draw(st.one_of(text, raw))
        for flag in ("--validate", "--most-specific", "--concurrent"):
            if draw(st.booleans()):
                argv.append(flag)
        if draw(st.booleans()):
            argv += ["--max-plans", draw(st.sampled_from(["1", "2", "0"]))]
        if draw(st.booleans()):
            argv += ["--cr-min", draw(st.sampled_from(["card", "set", "x"]))]
    if name == "transitions" and draw(st.booleans()):
        argv += ["--action-sets",
                 draw(st.sampled_from(["singleton", "powerset", "x"]))]
    if draw(st.booleans()):
        argv += ["--budget-nodes",
                 draw(st.sampled_from(["3", "500", "500", "0", "-2"]))]
    # every search is cut short, so that an unlucky draw stays cheap
    argv += ["--budget-seconds",
             draw(st.sampled_from(["2"] * 4 + ["0.5", "0", "-1", "nan"]))]
    if draw(st.booleans()):
        argv.append("--json-lines")
    return argv, files


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(command())
def test_cli_never_raises_a_traceback(drawn):
    argv, files = list(drawn[0]), drawn[1]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for flag, data in files.items():
            path = Path(tmp) / flag.strip("-")
            path.write_bytes(data)
            argv += [flag, str(path)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    assert code in range(5), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
