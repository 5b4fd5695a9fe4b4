"""Seeded inputs and known answers for the benchmark batches.

Every input file the program receives is written here, from the corpus
text and a seed.  The seed draws

* a consistent renaming of each structure's object names, applied to the
  system text and to the history, goal and query text that mention them;
* a shuffle of the structure's instance declarations (blocks, and the
  names inside a plain `a, b, c in sort` line);
* for the `project` workload, which of the two minimal monkey plans is
  re-executed.

None of these changes an answer, so every expected answer below is fixed
by hand (acceptance gate, the travel closed form, the t0 fixture) and only
renamed.  A batch is a list of commands; each command is the argv given to
`almc.cli.main` plus the check that its exit code and stdout must pass.
"""

from __future__ import annotations

import os
import random
import re

KEYWORDS = frozenset(
    """
    system description theory module structure
    sort declarations object constants function
    fluents statics attributes basic defined total axioms
    instances values of depends on import from in where if
    causes impossible occurs instance mod
    true false universe actions booleans is_a link subsort has_child
    has_parent source sink
    """.split())

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_PLAIN_NAMES = re.compile(r"^[a-z][a-z0-9_]*(, [a-z][a-z0-9_]*)*$")

# the two minimal 6-step monkey plans (acceptance gate, criterion 7)
CARRY_PLAN = ["move(initial_box)", "grasp(box)", "carry(box, under_banana)",
              "release(box)", "climb(box)", "grasp(banana)"]
MOVE_PLAN = ["move(initial_box)", "grasp(box)", "move(under_banana)",
             "release(box)", "climb(box)", "grasp(banana)"]

# t0 fixture, written by hand: states and the full transition relation over
# their indices with action sets of size at most one
T0_STATES = [
    {"dom_f(x)": "false", "dom_g(x)": "true", "g(x)": "o"},
    {"dom_f(x)": "false", "dom_g(x)": "true", "g(x)": "z"},
    {"dom_f(x)": "true", "dom_g(x)": "true", "f(x)": "o", "g(x)": "o"},
    {"dom_f(x)": "true", "dom_g(x)": "true", "f(x)": "o", "g(x)": "z"},
    {"dom_f(x)": "true", "dom_g(x)": "true", "f(x)": "z", "g(x)": "o"},
    {"dom_f(x)": "true", "dom_g(x)": "true", "f(x)": "z", "g(x)": "z"},
]
T0_TRANSITIONS = [
    (0, "", 0), (0, "a", 2), (0, "b", 0),
    (1, "", 1), (1, "a", 1), (1, "b", 1),
    (2, "", 2), (2, "a", 2), (2, "b", 0),
    (3, "", 3), (3, "a", 3), (3, "b", 1),
    (4, "", 4), (4, "a", 2), (4, "b", 0),
    (5, "", 5), (5, "a", 5), (5, "b", 1),
]


def travel_counts(agents: int) -> tuple[int, int]:
    """States and transitions of travel with 3 points and M agents.

    21 connectivity states over 3 points, times 3^M agent placements.  Each
    state has its empty-action arc.  Each agent has 78 move arcs over the
    21 x 3 (connectivity, own position) pairs, for every placement of the
    other M - 1 agents.
    """
    states = 21 * 3 ** agents
    return states, states + 78 * agents * 3 ** (agents - 1)


class Renamer:
    """Seeded, consistent renaming of object names."""

    def __init__(self, rng: random.Random, taken: set[str]):
        self.rng = rng
        self.taken = set(taken) | KEYWORDS
        self.map: dict[str, str] = {}

    def fresh(self) -> str:
        while True:
            word = "".join(self.rng.choice("bdfgklmnprstvz")
                           + self.rng.choice("aeiou")
                           for _ in range(self.rng.randint(2, 4)))
            if word not in self.taken:
                self.taken.add(word)
                return word

    def add(self, names) -> None:
        for n in names:
            if n not in self.map:
                self.map[n] = self.fresh()

    def __call__(self, text: str) -> str:
        if not self.map:
            return text
        pat = re.compile(r"(?<![A-Za-z0-9_])("
                         + "|".join(map(re.escape, self.map))
                         + r")(?![A-Za-z0-9_])")
        return pat.sub(lambda m: self.map[m.group(1)], text)


def instance_names(text: str) -> list[str]:
    """Plain object names declared in the structure's instances section."""
    names = []
    lines = text.splitlines()
    start, end = _instances_section(lines)
    for line in lines[start:end]:
        if _indent(line) != 6 or " in " not in line:
            continue
        head = line.strip().split(" in ", 1)[0]
        if _PLAIN_NAMES.match(head):
            names.extend(head.split(", "))
    return names


def shuffle_instances(text: str, rng: random.Random) -> str:
    lines = text.splitlines()
    start, end = _instances_section(lines)
    blocks: list[list[str]] = []
    for line in lines[start:end]:
        if _indent(line) == 6:
            blocks.append([line])
        else:
            blocks[-1].append(line)
    rng.shuffle(blocks)
    for block in blocks:
        head, _, rest = block[0].strip().partition(" in ")
        if _PLAIN_NAMES.match(head):
            names = head.split(", ")
            rng.shuffle(names)
            block[0] = " " * 6 + ", ".join(names) + " in " + rest
    body = [line for block in blocks for line in block]
    return "\n".join(lines[:start] + body + lines[end:]) + "\n"


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip(" "))


def _instances_section(lines: list[str]) -> tuple[int, int]:
    start = next(i for i, line in enumerate(lines)
                 if line == "    instances") + 1
    end = start
    while end < len(lines) and (_indent(lines[end]) > 4
                                or not lines[end].strip()):
        end += 1
    return start, end


def travel_text(corpus_text: str, points: list[str],
                agents: list[str]) -> str:
    """The corpus travel system with the given point and agent names."""
    text = corpus_text.replace("      bob, john in agents\n",
                               f"      {', '.join(agents)} in agents\n")
    return text.replace("      new_york, paris, rome in points\n",
                        f"      {', '.join(points)} in points\n")


class Inputs:
    """Writes the seeded input files of one run into `out_dir`."""

    def __init__(self, corpus: str, out_dir: str, seed: int):
        self.corpus = corpus
        self.out = out_dir
        self.rng = random.Random(seed)
        os.makedirs(out_dir, exist_ok=True)

    def read(self, name: str) -> str:
        with open(os.path.join(self.corpus, name), encoding="utf-8") as fh:
            return fh.read()

    def path(self, name: str) -> str:
        return os.path.join(self.out, name)

    def write(self, name: str, text: str) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def system(self, name: str, text: str, extra_texts=()) -> Renamer:
        """Rename and shuffle a system; returns the renaming for the
        history, goal, query and answer text that goes with it."""
        taken = set(_IDENT.findall(text))
        for t in extra_texts:
            taken |= set(_IDENT.findall(t))
        rn = Renamer(self.rng, taken)
        rn.add(instance_names(text))
        self.write(name, shuffle_instances(rn(text), self.rng))
        return rn


def cmd(argv: list[str], check: str, **expect) -> dict:
    return {"argv": argv, "check": check, "expect": expect}


def diagram_batch(inp: Inputs) -> list[dict]:
    travel = inp.read("travel.alm")
    batch = []
    for agents in (["bob"], ["bob", "john"]):
        name = f"travel_3x{len(agents)}.alm"
        rn = inp.system(name, travel_text(
            travel, ["new_york", "paris", "rome"], agents))
        states, arcs = travel_counts(len(agents))
        expect = {"states": states, "transitions": arcs}
        if len(agents) == 2:
            # acceptance gate, criterion 5
            expect.update(agents=[rn.map[a] for a in agents],
                          crossing=[rn.map["paris"], rn.map["rome"]],
                          far=rn.map["new_york"])
        batch.append(cmd(["transitions", inp.path(name)],
                         "travel", **expect))
    inp.system("professors.alm", inp.read("professors.alm"))
    batch.append(cmd(["states", inp.path("professors.alm")],
                     "models", models=3, states_each=1))
    return batch + t0_batch(inp)


def t0_batch(inp: Inputs) -> list[dict]:
    """The t0 fixture through every task: diagram, projection, planning.

    Every workload ends with these three small commands, so that each
    layer's time is measured on every workload."""
    rn = inp.system("t0.alm", inp.read("t0.alm"))
    system = inp.path("t0.alm")
    # from fixture state 0 (g(x) = o, f undefined) only arc (0, a, 2)
    # reaches f(x) = o, and it does so in one step
    start = rn("observed(g(x), o, 0).\n")
    goal = rn("f(x) = o")
    return [
        cmd(["transitions", system], "t0",
            states=[{rn(k): rn(v) for k, v in s.items()} for s in T0_STATES],
            transitions=[[i, rn(a), j] for i, a, j in T0_TRANSITIONS]),
        cmd(["project", system, "--history",
             inp.write("t0_run.hist", start + rn("happened(a, 0).\n")),
             "--query", goal, "--at", "1"],
            "trajectory", step=1, values={rn("f(x)"): "o"}, query=goal),
        cmd(["plan", system, "--history", inp.write("t0_start.hist", start),
             "--goal", inp.write("t0.goal", goal + ".\n"), "--horizon", "1",
             "--validate"],
            "plans", plans=[[rn("a")]], validated=True),
    ]


def project_batch(inp: Inputs) -> list[dict]:
    batch = []
    hists = {h: inp.read(h) for h in ("cc_phases.hist", "cc_12_9.hist")}
    rn = inp.system("cell_cycle2.alm", inp.read("cell_cycle2.alm"),
                    hists.values())
    # acceptance gate, criterion 11: (cells, nuclei) at the end
    for hname, (cells, nuclei) in (("cc_phases.hist", (2, 1)),
                                   ("cc_12_9.hist", (1, 2))):
        path = inp.write(hname, rn(hists[hname]))
        end = {rn("num(cell, sample)"): str(cells),
               rn("num(nucleus, cell)"): str(nuclei)}
        batch.append(cmd(["project", inp.path("cell_cycle2.alm"),
                          "--history", path],
                         "trajectory", step=3, values=end))

    gamma1, mb = inp.read("gamma1.hist"), inp.read("mb.hist")
    rn = monkey_system(inp, [gamma1, mb])
    system = inp.path("monkey_and_banana.alm")
    # acceptance gate, criterion 6
    query = rn("loc_in(monkey) = initial_box")
    batch.append(cmd(["project", system, "--lib", inp.out,
                      "--history", inp.write("gamma1.hist", rn(gamma1)),
                      "--query", query, "--at", "1"],
                     "trajectory", step=1, query=query))
    plan = inp.rng.choice([CARRY_PLAN, MOVE_PLAN])
    run = rn(mb) + "".join(f"happened({rn(a)}, {i}).\n"
                           for i, a in enumerate(plan))
    query = rn("holding(monkey, banana)")
    batch.append(cmd(["project", system, "--lib", inp.out,
                      "--history", inp.write("plan_run.hist", run),
                      "--query", query, "--at", "6"],
                     "trajectory", step=6, query=query))
    return batch + t0_batch(inp)


def monkey_system(inp: Inputs, texts: list[str]) -> Renamer:
    """Monkey and banana with its library, which `--lib` finds next to it."""
    lib = inp.read("commonsense_library.alm")
    inp.write("commonsense_library.alm", lib)
    return inp.system("monkey_and_banana.alm",
                      inp.read("monkey_and_banana.alm"), [lib] + texts)


def plan_batch(inp: Inputs) -> list[dict]:
    mb, goal = inp.read("mb.hist"), inp.read("mb.goal")
    rn = monkey_system(inp, [mb, goal])
    base = ["plan", inp.path("monkey_and_banana.alm"), "--lib", inp.out,
            "--history", inp.write("mb.hist", rn(mb)),
            "--goal", inp.write("mb.goal", rn(goal))]
    carry = [rn(a) for a in CARRY_PLAN]
    move = [rn(a) for a in MOVE_PLAN]
    return [
        cmd(base + ["--horizon", "5"], "no_plan", horizon=5),
        # --most-specific keeps the carry plan: carry refines move
        cmd(base + ["--horizon", "6", "--validate", "--most-specific"],
            "plans", plans=[carry], validated=True),
        # acceptance gate, criterion 7
        cmd(base + ["--horizon", "7"], "plans", plans=[carry, move],
            validated=False),
    ] + t0_batch(inp)


BATCHES = {"diagram": diagram_batch, "project": project_batch,
           "plan": plan_batch}
WORKLOADS = tuple(BATCHES)


def make_batch(workload: str, corpus: str, out_dir: str,
               seed: int) -> list[dict]:
    return BATCHES[workload](Inputs(corpus, out_dir, seed))
