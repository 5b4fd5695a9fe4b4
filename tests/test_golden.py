"""Golden outputs: the exact stdout and exit code of CLI commands on the
corpus.  A refactor that keeps these byte-identical keeps what users see.

Each case's expected stdout is `golden/<case>.out`; the exit codes are in
`golden/exit_codes.json`.  After an intended change of output, regenerate
them from the repository root with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from almc.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

LIB = ["--lib", "corpus"]
MONKEY = ["corpus/monkey_and_banana.alm", *LIB]


def _cases() -> dict[str, list[str]]:
    cases = {}
    for path in sorted((ROOT / "corpus").glob("*.alm")):
        for cmd in ("check", "flatten", "hierarchy", "bat"):
            cases[f"{cmd}-{path.stem}"] = [cmd, f"corpus/{path.name}", *LIB]
    for stem in ("t0", "professors", "travel"):
        for cmd in ("states", "transitions"):
            cases[f"{cmd}-{stem}"] = [cmd, f"corpus/{stem}.alm"]
            cases[f"{cmd}-{stem}-json"] = [cmd, f"corpus/{stem}.alm",
                                           "--json-lines"]
    cases["emit-asp-t0"] = ["emit-asp", "corpus/t0.alm", "--horizon", "1"]
    cases["emit-asp-monkey"] = ["emit-asp", *MONKEY, "--horizon", "1"]
    cases["project-gamma1"] = [
        "project", *MONKEY, "--history", "corpus/gamma1.hist",
        "--query", "loc_in(monkey) = initial_box", "--at", "1"]
    for hist in ("cc_phases", "cc_12_9"):
        cases[f"project-{hist}"] = [
            "project", "corpus/cell_cycle2.alm", *LIB,
            "--history", f"corpus/{hist}.hist"]
    plan = ["plan", *MONKEY, "--history", "corpus/mb.hist",
            "--goal", "corpus/mb.goal"]
    cases["plan-mb-h5"] = plan + ["--horizon", "5"]
    cases["plan-mb-h6"] = plan + ["--horizon", "6", "--validate",
                                  "--most-specific"]
    return cases


CASES = _cases()


def run_case(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    code, out = run_case(CASES[name])
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert out == expected
    assert code == json.loads(EXIT_CODES.read_text())[name]


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out = run_case(argv)
        (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8")
    EXIT_CODES.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
