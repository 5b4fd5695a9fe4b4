"""Checks of each command's exit code and stdout against its known answer.

A check returns "" when the output is right and otherwise a one-line
reason.  The answers come from `gen.py`; nothing here runs the program.
"""

from __future__ import annotations

import re

_MODEL = re.compile(r"^model (\d+): (\d+) state\(s\)(?:, (\d+) transition\(s\))?")
_STATE = re.compile(r"^  state (\d+): (.*)$")
_ARC = re.compile(r"^  (\d+) --\{(.*)\}--> (\d+)$")
_STEP = re.compile(r"^  step (\d+): (.*)$")
_PLAN = re.compile(r"^plan (\d+) \((\d+) occurrence\(s\)\):$")
_PLAN_STEP = re.compile(r"^  step (\d+): \{(.*)\}$")


def split_top(text: str) -> list[str]:
    """Split at ", " outside parentheses."""
    out, depth, start, i = [], 0, 0, 0
    while i < len(text):
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif depth == 0 and text.startswith(", ", i):
            out.append(text[start:i])
            i += 2
            start = i
            continue
        i += 1
    if text[start:]:
        out.append(text[start:])
    return out


def parse_assignment(text: str) -> dict[str, str]:
    """`f(a, b)=v, g=w` as {"f(a, b)": "v", "g": "w"}."""
    out = {}
    for item in split_top(text):
        depth = 0
        for i, c in enumerate(item):
            depth += c == "("
            depth -= c == ")"
            if c == "=" and depth == 0:
                out[item[:i]] = item[i + 1:]
                break
        else:
            raise ValueError(f"not an assignment: {item!r}")
    return out


def parse_diagrams(stdout: str) -> list[dict]:
    models: list[dict] = []
    for line in stdout.splitlines():
        m = _MODEL.match(line)
        if m:
            models.append({"states": int(m.group(2)),
                           "transitions": int(m.group(3) or 0),
                           "state_list": [], "arcs": []})
            continue
        m = _STATE.match(line)
        if m and models:
            models[-1]["state_list"].append(parse_assignment(m.group(2)))
            continue
        m = _ARC.match(line)
        if m and models:
            acts = tuple(split_top(m.group(2)))
            models[-1]["arcs"].append((int(m.group(1)), acts,
                                       int(m.group(3))))
    return models


def _one_diagram(stdout: str, states: int, transitions: int):
    models = parse_diagrams(stdout)
    if len(models) != 1:
        return None, f"{len(models)} models, want 1"
    d = models[0]
    got = (d["states"], d["transitions"], len(d["state_list"]),
           len(d["arcs"]))
    if got != (states, transitions, states, transitions):
        return None, (f"states/transitions/listed {got}, "
                      f"want {states}/{transitions}")
    return d, ""


def check_travel(rc, stdout, stderr, states, transitions, agents=None,
                 crossing=None, far=None) -> str:
    if rc != 0:
        return f"exit {rc}"
    d, why = _one_diagram(stdout, states, transitions)
    if d is None or crossing is None:
        return why
    sl = d["state_list"]
    o, t = crossing
    want = {(a, x, y) for a in agents for x, y in ((o, t), (t, o))}
    found = set()
    for i, acts, j in d["arcs"]:
        if len(acts) != 1:
            continue
        for a, x, y in want:
            if acts[0] == f"go({a}, {x}, {y})" \
                    and sl[i].get(f"connected({x}, {y})") == "true" \
                    and sl[i].get(f"loc_in({a})") == x \
                    and sl[j].get(f"loc_in({a})") == y:
                found.add((a, x, y))
        # no move into `far` from an origin known to be disconnected
        name = acts[0]
        if name.startswith("go(") and name.endswith(f", {far})"):
            origin = split_top(name[3:-1])[1]
            if sl[i].get(f"connected({origin}, {far})") == "false":
                return f"arc {i} --{name}--> {j} leaves a disconnected origin"
    if found != want:
        return f"crossings {sorted(want - found)} missing"
    return ""


def check_t0(rc, stdout, stderr, states, transitions) -> str:
    if rc != 0:
        return f"exit {rc}"
    d, why = _one_diagram(stdout, len(states), len(transitions))
    if d is None:
        return why
    index = {}
    for i, s in enumerate(d["state_list"]):
        if s not in states:
            return f"state {i} is not a fixture state: {s}"
        index[i] = states.index(s)
    arcs = {(index[i], "".join(acts), index[j]) for i, acts, j in d["arcs"]}
    want = {tuple(t) for t in transitions}
    if arcs != want:
        return f"arcs differ from the fixture: {sorted(arcs ^ want)}"
    return ""


def check_models(rc, stdout, stderr, models, states_each) -> str:
    if rc != 0:
        return f"exit {rc}"
    got = parse_diagrams(stdout)
    counts = [(m["states"], len(m["state_list"])) for m in got]
    if counts != [(states_each, states_each)] * models:
        return f"models/states {counts}, want {models} x {states_each}"
    return ""


def check_trajectory(rc, stdout, stderr, step, values=None,
                     query=None) -> str:
    if rc != 0:
        return f"exit {rc}"
    lines = stdout.splitlines()
    heads = [line for line in lines if line.startswith("trajectory ")]
    if heads != ["trajectory 0:"]:
        return f"{len(heads)} trajectories, want 1"
    steps = [_STEP.match(line) for line in lines]
    steps = [m for m in steps if m]
    if not steps or int(steps[-1].group(1)) != step \
            or len(steps) != step + 1:
        return f"{len(steps)} steps, want {step + 1}"
    end = parse_assignment(steps[-1].group(2))
    for k, v in (values or {}).items():
        if end.get(k) != v:
            return f"{k}={end.get(k)} at step {step}, want {v}"
    if query is not None and \
            f"query {query!r} at step {step}: entailed" not in lines:
        return f"query {query!r} not entailed at step {step}"
    return ""


def check_no_plan(rc, stdout, stderr, horizon) -> str:
    if rc != 3:
        return f"exit {rc}, want 3"
    if stdout.strip():
        return "plans printed"
    if f"no plan within horizon {horizon}" not in stderr:
        return "no 'no plan within horizon' message"
    return ""


def parse_plans(stdout: str) -> list[dict]:
    plans: list[dict] = []
    for line in stdout.splitlines():
        m = _PLAN.match(line)
        if m:
            plans.append({"occurrences": int(m.group(2)), "steps": [],
                          "validated": False})
            continue
        m = _PLAN_STEP.match(line)
        if m and plans:
            plans[-1]["steps"].append(m.group(2))
            continue
        if line == "  re-execution: reaches the goal" and plans:
            plans[-1]["validated"] = True
    return plans


def check_plans(rc, stdout, stderr, plans, validated) -> str:
    if rc != 0:
        return f"exit {rc}"
    got = parse_plans(stdout)
    steps = sorted(p["steps"] for p in got)
    if steps != sorted(plans):
        return f"plans {steps}, want {sorted(plans)}"
    for p in got:
        if p["occurrences"] != len(p["steps"]):
            return f"plan with {p['occurrences']} occurrence(s) " \
                   f"lists {len(p['steps'])} step(s)"
        if validated and not p["validated"]:
            return "a plan does not report 'reaches the goal'"
    return ""


CHECKS = {"travel": check_travel, "t0": check_t0, "models": check_models,
          "trajectory": check_trajectory, "no_plan": check_no_plan,
          "plans": check_plans}


def check(command: dict, rc, stdout: str, stderr: str) -> str:
    return CHECKS[command["check"]](rc, stdout, stderr, **command["expect"])
