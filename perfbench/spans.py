"""Per-layer spans and counters, recorded from outside the program.

`Tracer.install()` replaces the layer entry points listed in `SPANS` by
wrappers that record a span around each call.  A function imported by name
is replaced in every almc module that holds it, so a call through
`almc.cli` or `almc.tasks` is recorded like a call through its home
module.  A generator (`Program.answer_sets`) is timed only inside `next()`.

Per span name the tracer keeps the call count, the inclusive time of the
outermost active call (recursion and nesting of the same name count once)
and the self time: the span minus the child spans it covers.  Spans and
counts stay in memory; `metrics()` reduces them when the batch ends.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute path, span name, is a generator)
SPANS = [
    ("almc.syntax.parser", "parse_file", "syntax.parse", False),
    ("almc.syntax.parser", "parse_literal_text", "syntax.parse", False),
    ("almc.modular", "flatten_system", "modular.flatten", False),
    ("almc.modular", "flatten", "modular.flatten", False),
    ("almc.ontology", "build_signature", "ontology.signature", False),
    ("almc.bat", "build_action_theory", "bat.theory", False),
    ("almc.semantics", "system_pre_models", "semantics.pre_models", False),
    ("almc.semantics", "Grounder.build_program", "semantics.ground", False),
    ("almc.semantics", "enumerate_states", "semantics.enumerate_states",
     False),
    ("almc.semantics", "compute_transitions", "semantics.transitions", False),
    ("almc.semantics", "certify_state", "semantics.certify_state", False),
    ("almc.lpcore", "Program.answer_sets", "lpcore.answer_sets", True),
    ("almc.lpcore", "Program.solve_cr", "lpcore.solve_cr", False),
    ("almc.lpcore", "Program.is_answer_set", "lpcore.certify", False),
    ("almc.tasks", "compile_system", "tasks.compile", False),
    ("almc.tasks", "program_fingerprint", "tasks.fingerprint", False),
    ("almc.tasks", "temporal_project", "tasks.project", False),
    ("almc.tasks", "find_plans", "tasks.find_plans", False),
    ("almc.tasks", "validate_plan", "tasks.validate_plan", False),
    ("almc.cli", "main", "cli.main", False),
]

# spans whose fingerprints are deduplicated together, as the program does
TASKS = ("tasks.project", "tasks.find_plans")

# per-layer metrics (name, unit), in the order they are reported
LAYER_METRICS = [
    ("syntax.parse_s", "s"), ("modular.flatten_s", "s"),
    ("ontology.signature_s", "s"), ("bat.theory_s", "s"),
    ("semantics.pre_models_s", "s"), ("semantics.pre_models", "count"),
    ("semantics.ground_s", "s"), ("semantics.ground_calls", "count"),
    ("semantics.ground_rules", "count"), ("semantics.ground_atoms", "count"),
    ("semantics.enumerate_states_s", "s"), ("semantics.transitions_s", "s"),
    ("semantics.certify_state_s", "s"),
    ("semantics.certify_state_calls", "count"),
    ("lpcore.search_s", "s"), ("lpcore.answer_sets_calls", "count"),
    ("lpcore.solve_cr_calls", "count"), ("lpcore.models", "count"),
    ("lpcore.certify_s", "s"), ("lpcore.certify_calls", "count"),
    ("lpcore.certify_rejected", "count"),
    ("lpcore.certify_accept_ratio", "ratio"),
    ("tasks.fingerprint_s", "s"), ("tasks.fingerprint_calls", "count"),
    ("tasks.distinct_programs", "count"),
    ("tasks.distinct_program_ratio", "ratio"),
    ("tasks.project_s", "s"), ("tasks.find_plans_s", "s"),
    ("tasks.validate_plan_s", "s"), ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, start, child time]
        self.depth: Counter = Counter()
        self.calls: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.count: Counter = Counter()
        self.tasks: list[int] = []  # ids of the active task spans
        self.task_serial = 0
        self.fingerprints: set = set()

    # ------------------------------------------------------------ spans

    def enter(self, name: str) -> None:
        self.depth[name] += 1
        self.stack.append([name, perf_counter(), 0.0])

    def leave(self) -> None:
        end = perf_counter()
        name, start, child = self.stack.pop()
        dur = end - start
        self.self_time[name] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        self.depth[name] -= 1
        if not self.depth[name]:
            self.incl[name] += dur

    def wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            if name in TASKS:
                tracer.task_serial += 1
                tracer.tasks.append(tracer.task_serial)
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave()
                if name in TASKS:
                    tracer.tasks.pop()
            tracer.observe(name, args, result)
            return result

        return traced

    def wrap_generator(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            inner = fn(*args, **kwargs)

            def timed_next():
                try:
                    while True:
                        tracer.enter(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer.leave()
                        tracer.count["lpcore.models"] += 1
                        yield item
                finally:
                    inner.close()

            return timed_next()

        return traced

    # ------------------------------------------------------------ counters

    def observe(self, name: str, args, result) -> None:
        c = self.count
        if name == "semantics.pre_models":
            c["semantics.pre_models"] += len(result)
        elif name == "semantics.ground":
            c["semantics.ground_rules"] += \
                len(result.rules) + len(result.cr_rules)
            c["semantics.ground_atoms"] += len(result.keys)
        elif name == "lpcore.certify":
            c["lpcore.certify_accepted" if result
              else "lpcore.certify_rejected"] += 1
        elif name == "lpcore.solve_cr":
            # models found under consistency-restoring rules; regular
            # models were already counted as answer_sets yields
            c["lpcore.models"] += sum(1 for _, applied in result if applied)
        elif name == "tasks.fingerprint":
            key = (self.tasks[-1] if self.tasks else 0, result)
            if key not in self.fingerprints:
                self.fingerprints.add(key)
                c["tasks.distinct_programs"] += 1

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap every entry point in SPANS wherever almc holds it."""
        replaced = {}
        for module, path, name, is_gen in SPANS:
            owner = importlib.import_module(module)
            attr = path.split(".")
            for part in attr[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, attr[-1])
            wrapper = (self.wrap_generator if is_gen else self.wrap)(
                original, name)
            setattr(owner, attr[-1], wrapper)
            replaced[id(original)] = (original, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("almc") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])

    # ------------------------------------------------------------ reduction

    def metrics(self) -> dict:
        """Per-layer values of one traced batch (`trace.overhead_s` is
        added by the caller, which also has the untraced batch)."""
        calls, incl, st, c = self.calls, self.incl, self.self_time, self.count
        certify = calls["lpcore.certify"]
        fps = calls["tasks.fingerprint"]
        return {
            "syntax.parse_s": incl["syntax.parse"],
            "modular.flatten_s": incl["modular.flatten"],
            "ontology.signature_s": incl["ontology.signature"],
            "bat.theory_s": incl["bat.theory"],
            "semantics.pre_models_s": incl["semantics.pre_models"],
            "semantics.pre_models": c["semantics.pre_models"],
            "semantics.ground_s": incl["semantics.ground"],
            "semantics.ground_calls": calls["semantics.ground"],
            "semantics.ground_rules": c["semantics.ground_rules"],
            "semantics.ground_atoms": c["semantics.ground_atoms"],
            "semantics.enumerate_states_s":
                incl["semantics.enumerate_states"],
            "semantics.transitions_s": incl["semantics.transitions"],
            "semantics.certify_state_s": incl["semantics.certify_state"],
            "semantics.certify_state_calls": calls["semantics.certify_state"],
            "lpcore.search_s":
                st["lpcore.answer_sets"] + st["lpcore.solve_cr"],
            "lpcore.answer_sets_calls": calls["lpcore.answer_sets"],
            "lpcore.solve_cr_calls": calls["lpcore.solve_cr"],
            "lpcore.models": c["lpcore.models"],
            "lpcore.certify_s": incl["lpcore.certify"],
            "lpcore.certify_calls": certify,
            "lpcore.certify_accepted": c["lpcore.certify_accepted"],
            "lpcore.certify_rejected": c["lpcore.certify_rejected"],
            "lpcore.certify_accept_ratio":
                c["lpcore.certify_accepted"] / certify if certify else 0.0,
            "tasks.fingerprint_s": incl["tasks.fingerprint"],
            "tasks.fingerprint_calls": fps,
            "tasks.distinct_programs": c["tasks.distinct_programs"],
            "tasks.distinct_program_ratio":
                c["tasks.distinct_programs"] / fps if fps else 0.0,
            "tasks.project_s": incl["tasks.project"],
            "tasks.find_plans_s": incl["tasks.find_plans"],
            "tasks.validate_plan_s": incl["tasks.validate_plan"],
            "cli.self_s": st["cli.main"],
        }


def self_check(runs: list[dict]) -> list[str]:
    """Consistency of the counters of several traced batches of one input.

    Counts must agree with each other within a batch and be identical
    across batches (which run under different hash seeds)."""
    problems = []
    for k, m in enumerate(runs):
        if m["lpcore.certify_calls"] != \
                m["lpcore.certify_accepted"] + m["lpcore.certify_rejected"]:
            problems.append(f"run {k}: certify_calls != accepted + rejected")
        if m["lpcore.models"] > m["lpcore.certify_accepted"]:
            problems.append(f"run {k}: models > accepted certifications")
        if m["tasks.distinct_programs"] > m["tasks.fingerprint_calls"]:
            problems.append(f"run {k}: distinct_programs > fingerprint_calls")
    counts = [{k: v for k, v in m.items()
               if not k.endswith("_s") and not k.endswith("_ratio")}
              for m in runs]
    for k, other in enumerate(counts[1:], 1):
        diff = sorted(n for n in counts[0] if counts[0][n] != other[n])
        if diff:
            problems.append(f"run {k}: counts differ from run 0: {diff}")
    return problems
