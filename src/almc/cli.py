"""Command-line front end.

Subcommands: check, flatten, hierarchy, bat, states, transitions, project,
plan, emit-asp.  Exit codes: 0 ok, 1 usage, 2 input error, 3 semantic
error, 4 budget exhausted.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from collections import Counter
from functools import cache
from typing import Callable, Iterable, Iterator, Optional

from almc.errors import (
    AlmError, BudgetExceeded, InputError, SemanticError,
)
from almc.lpcore import Budget, Program
from almc.modular import (
    LIBRARY_PATH_VAR, flatten_system, library_search_paths, read_input,
)
from almc.ontology import build_signature
from almc.semantics import Diagram, State, build_diagrams
from almc.syntax import ast, parse_file, parse_literal_text, pretty
from almc.errors import DiagnosticSink
from almc.tasks import (
    CompiledSystem, check_well_founded, compile_system, entails_all,
    find_plans, normalize_each, parse_goal, parse_history,
    prefer_most_specific, temporal_project, validate_plan,
)

EXIT_OK, EXIT_USAGE, EXIT_INPUT, EXIT_SEMANTIC, EXIT_BUDGET = 0, 1, 2, 3, 4


class UsageError(Exception):
    """A flag value that only the command's inputs show to be invalid."""


# ------------------------------------------------------------ rendering

def fun_text(f: str, args: tuple) -> str:
    return f"{f}({', '.join(map(str, args))})" if args else f


def atom_text(key) -> str:
    """Stable ASP-style rendering of a ground atom key of `build_program`:
    a value, disequality or occurrence atom."""
    kind = key[0]
    if kind == "v":
        _, f, args, v, step = key
        return f"val({fun_text(f, args)}, {v}, {step})"
    if kind == "neq":
        _, f, args, v, step = key
        return f"other_value({fun_text(f, args)}, {v}, {step})"
    return f"occurs({key[1]}, {key[2]})"


def state_text(state: State, name: Callable[[str, tuple], str]) -> str:
    """The state's line, each fluent instance named by `name`, which a
    command makes once (`cache(fun_text)`) to name each instance once."""
    return ", ".join([f"{name(f, args)}={v}"
                      for (f, args), v in state.values])


def state_atoms(state: State, name: Callable[[str, tuple], str]) -> dict:
    """The state as the `atoms` of a JSON record."""
    return {name(f, args): str(v) for (f, args), v in state.values}


def rendered_once(diagrams: list[Diagram],
                  render: Callable[[Diagram], Iterable]
                  ) -> Callable[[Diagram], Iterable]:
    """`render` of each diagram once: `build_diagrams` gives the models of
    a group one diagram, whose parts are kept for its later models, and
    the parts of a diagram that one model has are printed as rendered."""
    uses = Counter(map(id, diagrams))
    kept: dict[int, list] = {}

    def parts(d: Diagram) -> Iterable:
        if uses[id(d)] == 1:
            return render(d)
        if id(d) not in kept:
            kept[id(d)] = list(render(d))
        return kept[id(d)]

    return parts


def program_text(prog: Program) -> str:
    """Deterministic text export of a ground program of `build_program`,
    one rule per line; such a program has no choice atoms, no
    consistency-restoring rules and no cardinality groups."""
    keys = prog.keys
    rendered = []
    for head, pos, neg in prog.rules:
        body = ", ".join(
            [atom_text(keys[b])
             for b in sorted(pos, key=lambda b: atom_text(keys[b]))]
            + [f"not {atom_text(keys[b])}"
               for b in sorted(neg, key=lambda b: atom_text(keys[b]))])
        if head < 0:
            rendered.append(f":- {body}." if body else ":- .")
        elif body:
            rendered.append(f"{atom_text(keys[head])} :- {body}.")
        else:
            rendered.append(f"{atom_text(keys[head])}.")
    return "\n".join(["% ground program export", *sorted(rendered)]) + "\n"


def emit_json(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


# ------------------------------------------------------------ loading

def load_source(path: str):
    return parse_file(read_input(path), path)


def compile_from_path(path: str, search_paths: list[str],
                      sink: Optional[DiagnosticSink] = None,
                      budget: Optional[Budget] = None) -> CompiledSystem:
    """Read, parse and compile a system description file; `budget` is the
    command's, which the derivation of its pre-models reads too."""
    node = load_source(path)
    if not isinstance(node, ast.System):
        raise InputError(
            f"{path} is a theory; this command needs a system description "
            "(theory + structure)")
    return compile_system(node, search_paths, sink, budget)


def make_budget(args) -> Optional[Budget]:
    if args.budget_nodes is None and args.budget_seconds is None:
        return None
    return Budget.of(args.budget_nodes, args.budget_seconds)


def search_paths_of(args) -> list[str]:
    return library_search_paths(args.lib or [])


# ------------------------------------------------------------ subcommands

def cmd_check(args, sink: DiagnosticSink) -> int:
    node = load_source(args.file)
    if args.well_founded and not isinstance(node, ast.System):
        raise UsageError("--well-founded needs a system description with a "
                         f"structure; {args.file} holds a theory")
    # a theory file is validated as the union of its modules, imports expanded
    budget = make_budget(args)
    cs = compile_system(node, search_paths_of(args), sink, budget)
    wf = check_well_founded(cs, budget) if args.well_founded else None
    print(f"{args.file}: ok "
          f"({len(cs.sig.sorts)} sorts, {len(cs.sig.functions)} functions)")
    if wf is not None:
        verdict = "well-founded" if wf.well_founded else "not well-founded"
        print(f"{args.file}: {verdict} ({wf.method} check)")
        if not wf.well_founded:
            return EXIT_SEMANTIC
    return EXIT_OK


def cmd_flatten(args, sink: DiagnosticSink) -> int:
    node = load_source(args.file)
    sys.stdout.write(pretty(flatten_system(node, search_paths_of(args),
                                           sink)))
    return EXIT_OK


def cmd_hierarchy(args, sink: DiagnosticSink) -> int:
    node = load_source(args.file)
    sig = build_signature(flatten_system(node, search_paths_of(args), sink),
                          sink)
    for name in sorted(sig.sorts):
        for parent in sorted(sig.parents(name)):
            if args.json_lines:
                emit_json({"type": "link", "sort": name, "parent": parent})
            else:
                print(f"{name} :: {parent}")
    return EXIT_OK


def cmd_bat(args, sink: DiagnosticSink) -> int:
    cs = compile_system(load_source(args.file), search_paths_of(args), sink)
    sig, theory = cs.sig, cs.theory
    print(f"functions: {len(sig.functions)}")
    for f in sorted(sig.functions.values(), key=lambda f: f.name):
        arrow = " * ".join(f.args) + " -> " if f.args else ""
        print(f"  {f.name} : {arrow}{f.result}  [{f.kind}"
              f"{', total' if f.total else ''}]")
    print(f"dynamic causal laws: {len(theory.dynamic)}")
    print(f"state constraints: {len(theory.constraints)}")
    print(f"definition clauses: {len(theory.definitions)}")
    print(f"executability conditions: {len(theory.executability)}")
    return EXIT_OK


def cmd_diagrams(args, sink: DiagnosticSink) -> int:
    """`states`, and `transitions` with the transitions too, of each
    model's diagram.  Each diagram is rendered once (`rendered_once`):
    into its lines, or into its records, each less its model number."""
    budget = make_budget(args)
    cs = compile_from_path(args.file, search_paths_of(args), sink, budget)
    arcs = args.command == "transitions"
    diagrams = build_diagrams(cs, getattr(args, "action_sets", "singleton"),
                              budget, with_transitions=arcs)
    name = cache(fun_text)

    def render(d: Diagram) -> Iterator:
        for i, s in enumerate(d.states):
            if not args.json_lines:
                yield f"  state {i}: {state_text(s, name)}"
            elif not arcs:
                atoms = json.dumps(state_atoms(s, name), sort_keys=True)
                yield (f'{{"atoms": {atoms}, "index": {i}, "model": ',
                       ', "type": "state"}')
        for i, acts, j in sorted((i, sorted(map(str, acts)), j)
                                 for i, acts, j in d.transitions):
            yield (f'{{"actions": {json.dumps(acts)}, "from": {i}, '
                   '"model": ', f', "to": {j}, "type": "transition"}}') \
                if args.json_lines else f"  {i} --{{{', '.join(acts)}}}--> {j}"

    parts = rendered_once(diagrams, render)
    for m, d in enumerate(diagrams):
        if args.json_lines:
            if not d.well_founded:
                emit_json({"type": "diagram", "model": m,
                           "well_founded": False})
        else:
            print(f"model {m}: {len(d.states)} state(s)"
                  + (f", {len(d.transitions)} transition(s)" if arcs else "")
                  + ("" if d.well_founded else " [not well-founded]"))
        for part in parts(d):
            # a record is printed as `emit_json` prints it, its model
            # number put between its two parts
            print(part if isinstance(part, str) else f"{part[0]}{m}{part[1]}")
    return EXIT_OK


def cmd_project(args, sink: DiagnosticSink) -> int:
    budget = make_budget(args)
    cs = compile_from_path(args.file, search_paths_of(args), sink, budget)
    hist = parse_history(read_input(args.history), args.history)
    horizon = hist.max_step if args.horizon is None else args.horizon
    if args.at is not None and args.at > horizon:
        raise UsageError(f"--at {args.at} is beyond the horizon {horizon}")
    # a query that cannot be parsed or normalized fails before anything is
    # projected, a bad history before the note on its coverage, and a query
    # that cannot be ground before anything is printed
    texts = args.query or []
    queries = list(zip(texts, normalize_each(
        cs, [parse_literal_text(q) for q in texts])))
    result = temporal_project(cs, hist, horizon=horizon, budget=budget)
    step = horizon if args.at is None else args.at
    verdicts = [(q, entails_all(result, lits, step)) for q, lits in queries]
    covered, total = result.coverage
    if covered < total and not args.json_lines:
        print(f"note: initial situation observes {covered} of {total} basic "
              "fluent instances; the rest default to undefined", file=sys.stderr)
    if not result.consistent:
        print("inconsistent history: no models", file=sys.stderr)
        return EXIT_SEMANTIC
    name = cache(fun_text)
    for k, t in enumerate(result.trajectories):
        if args.json_lines:
            emit_json({"type": "trajectory", "index": k,
                       "steps": [state_atoms(s, name) for s in t.states],
                       "occurrences": [sorted(map(str, o))
                                       for o in t.occurrences]})
            continue
        print(f"trajectory {k}:")
        for i, s in enumerate(t.states):
            print(f"  step {i}: {state_text(s, name)}")
            if i < len(t.occurrences) and t.occurrences[i]:
                print(f"  occurs: {', '.join(sorted(map(str, t.occurrences[i])))}")
    for q, verdict in verdicts:
        if args.json_lines:
            emit_json({"type": "query", "literal": q, "step": step,
                       "entailed": verdict})
        else:
            print(f"query {q!r} at step {step}: "
                  + ("entailed" if verdict else "not entailed"))
    return EXIT_OK


def cmd_plan(args, sink: DiagnosticSink) -> int:
    budget = make_budget(args)  # one for pre-models, search and validation
    cs = compile_from_path(args.file, search_paths_of(args), sink, budget)
    hist = parse_history(read_input(args.history), args.history)
    goal = parse_goal(read_input(args.goal), args.goal)
    result = find_plans(cs, hist, goal, args.horizon, budget=budget,
                        max_plans=args.max_plans,
                        minimality=args.cr_min,
                        sequential=not args.concurrent)
    if args.most_specific:
        result = prefer_most_specific(cs, result)
    if not result.plans:
        print(result.note or "no plans", file=sys.stderr)
        return EXIT_SEMANTIC
    for k, plan in enumerate(sorted(result.plans, key=lambda p: p.steps)):
        if not args.json_lines:
            print(f"plan {k} ({plan.occurrences} occurrence(s)):")
            for line in str(plan).splitlines():
                print(f"  {line}")
        ok = validate_plan(cs, hist, goal, plan, budget) \
            if args.validate else None
        if args.json_lines:
            record = {"type": "plan", "index": k,
                      "steps": [list(map(str, acts)) for acts in plan.steps]}
            if ok is not None:
                record["validated"] = ok
            emit_json(record)
        elif ok is not None:
            print(f"  re-execution: {'reaches the goal' if ok else 'FAILS'}")
    return EXIT_OK


def cmd_emit_asp(args, sink: DiagnosticSink) -> int:
    cs = compile_from_path(args.file, search_paths_of(args), sink)
    prog = cs.grounders[0].build_program(args.horizon)
    text = program_text(prog)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc.strerror}")
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ------------------------------------------------------------ entry point

class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def natural(text: str) -> int:
    """Type of --horizon, --at and --budget-nodes: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def positive(text: str) -> int:
    """Type of --max-plans: an integer of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return int(text)


def seconds(text: str) -> float:
    """Type of --budget-seconds: a finite, non-negative number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a finite non-negative number, got {text!r}")
    return value


def _arg(*names, **options):
    return names, options


# Every subcommand: its help, its handler, whether it takes the budget flags
# and `--json-lines` (only the commands that print records), and its own
# arguments, which follow those.
COMMANDS = {
    "check": (
        "parse and validate", cmd_check, True, False,
        [_arg("--well-founded", action="store_true",
              help="also run the well-foundedness check (a system "
              "description only)")]),
    "flatten": ("print the flattened module", cmd_flatten, False, False, []),
    "hierarchy": (
        "print the sort hierarchy links", cmd_hierarchy, False, True, []),
    "bat": (
        "summarize the normalized action theory", cmd_bat, False, False, []),
    "states": (
        "enumerate the states of each model", cmd_diagrams, True, True, []),
    "transitions": (
        "compute the transition diagram", cmd_diagrams, True, True,
        [_arg("--action-sets", choices=["singleton", "powerset"],
              default="singleton",
              help="action sets labelling transitions")]),
    "project": (
        "temporal projection over a history", cmd_project, True, True,
        [_arg("--history", required=True, help="history fact file"),
         _arg("--horizon", type=natural, default=None),
         _arg("--query", action="append", default=[],
              help="literal to test for entailment (repeatable)"),
         _arg("--at", type=natural, default=None,
              help="step for --query (default: final step)")]),
    "plan": (
        "find minimal plans for a goal", cmd_plan, True, True,
        [_arg("--history", required=True, help="initial facts file"),
         _arg("--goal", required=True, help="goal literal file"),
         _arg("--horizon", type=natural, required=True),
         _arg("--cr-min", choices=["card", "set"], default="card"),
         _arg("--max-plans", type=positive, default=None),
         _arg("--concurrent", action="store_true",
              help="allow several actions per step"),
         _arg("--most-specific", action="store_true",
              help="drop plans using a shadowed, less specific action"),
         _arg("--validate", action="store_true",
              help="re-execute each plan and report the outcome")]),
    "emit-asp": (
        "export the ground program as text", cmd_emit_asp, False, False,
        [_arg("--horizon", type=natural, default=0),
         _arg("--output", "-o", default=None)]),
}


class _Reparse(Exception):
    """A one-command parser met what only the full parser prints."""


class _OneCommandParser(_Parser):
    """Prints nothing: help and usage errors go to the full parser, whose
    usage lists every command."""

    def error(self, message: str):
        raise _Reparse

    def print_help(self, file=None):
        raise _Reparse


def build_arg_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone, which raises
    `_Reparse` where the full parser would print."""
    top = (_Parser if command is None else _OneCommandParser)(
        prog="almc", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    for name, (text, fn, budgeted, records, own) in COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=text)
        p.add_argument("file", help="input .alm file")
        p.add_argument("--lib", action="append", default=[],
                       help="library search directory (repeatable; "
                            f"also ${LIBRARY_PATH_VAR})")
        if budgeted:
            p.add_argument("--budget-nodes", type=natural, default=None,
                           help="search decision limit (all searches)")
            p.add_argument("--budget-seconds", type=seconds, default=None,
                           help="wall-clock limit for grounding and "
                                "solving")
        if records:
            p.add_argument("--json-lines", action="store_true",
                           help="machine-readable line-delimited output")
        for names, options in own:
            p.add_argument(*names, **options)
        p.set_defaults(fn=fn)
    return top


def parse_command_line(argv: list[str]) -> argparse.Namespace:
    """`argv` parsed by its command's parser alone, or by the full parser
    for help, a usage error or no known command."""
    if argv and argv[0] in COMMANDS:
        try:
            return build_arg_parser(argv[0]).parse_args(argv)
        except _Reparse:
            pass
    return build_arg_parser().parse_args(argv)


def _print_warnings(sink: DiagnosticSink) -> None:
    """Each distinct warning once: pre-models that ground alike warn
    alike."""
    for text in dict.fromkeys(str(d) for d in sink.items
                              if d.severity == "warning"):
        print(text, file=sys.stderr)


_heap_frozen = False


def main(argv: Optional[list[str]] = None) -> int:
    global _heap_frozen
    if not _heap_frozen:
        # what exists now, mostly what the imports made, lives as long as
        # the process: the collector need not scan it again in every full
        # collection of every command
        gc.freeze()
        _heap_frozen = True
    args = parse_command_line(sys.argv[1:] if argv is None else argv)
    sink = DiagnosticSink()
    try:
        return args.fn(args, sink)
    except BrokenPipeError:
        # the reader closed stdout (`almc states ... | head`): stop quietly,
        # and point stdout at /dev/null so that the flush at exit cannot
        # fail again
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):
            pass  # stdout has no file descriptor
        return EXIT_OK
    except UsageError as exc:
        print(f"almc {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"almc: budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InputError as exc:
        print(f"almc: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SemanticError as exc:
        print(f"almc: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except AlmError as exc:
        print(f"almc: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        _print_warnings(sink)


if __name__ == "__main__":
    sys.exit(main())
