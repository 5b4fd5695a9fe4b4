"""Command-line front end.

Subcommands: check, flatten, hierarchy, bat, states, transitions, project,
plan, emit-asp.  Exit codes: 0 ok, 1 usage, 2 input error, 3 semantic
error, 4 budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from almc.bat import build_action_theory
from almc.errors import (
    AlmError, BudgetExceeded, InputError, SemanticError,
)
from almc.lpcore import Budget, Program
from almc.modular import (
    LIBRARY_PATH_VAR, flatten, library_search_paths, resolve_theory,
)
from almc.ontology import build_signature
from almc.semantics import State, build_diagrams
from almc.syntax import ast, parse_file, parse_literal_text, pretty
from almc.errors import DiagnosticSink
from almc.tasks import (
    CompiledSystem, check_well_founded, compile_system, entails_at,
    find_plans, initial_coverage, parse_goal, parse_history,
    prefer_most_specific, temporal_project, validate_plan,
)

EXIT_OK, EXIT_USAGE, EXIT_INPUT, EXIT_SEMANTIC, EXIT_BUDGET = 0, 1, 2, 3, 4


class UsageError(Exception):
    """A flag value that only the command's inputs show to be invalid."""


# ------------------------------------------------------------ rendering

def fun_text(f: str, args: tuple) -> str:
    return f"{f}({', '.join(map(str, args))})" if args else f


def atom_text(key) -> str:
    """Stable ASP-style rendering of a ground atom key."""
    kind = key[0]
    if kind == "v":
        _, f, args, v, step = key
        return f"val({fun_text(f, args)}, {v}, {step})"
    if kind == "neq":
        _, f, args, v, step = key
        return f"other_value({fun_text(f, args)}, {v}, {step})"
    if kind == "occ":
        return f"occurs({key[1]}, {key[2]})"
    name = key[0]
    rest = key[1:]
    return f"{name}({', '.join(map(str, rest))})" if rest else str(name)


def state_text(state: State) -> str:
    return ", ".join(f"{fun_text(f, args)}={v}"
                     for f, args, v in state.atoms())


def program_text(prog: Program) -> str:
    """Deterministic text export of a ground program, one rule per line."""
    keys = prog.keys
    lines = ["% ground program export"]

    def body_text(pos, neg):
        parts = [atom_text(keys[b]) for b in sorted(pos, key=lambda b: atom_text(keys[b]))]
        parts += [f"not {atom_text(keys[b])}"
                  for b in sorted(neg, key=lambda b: atom_text(keys[b]))]
        return ", ".join(parts)

    rendered = []
    for head, pos, neg in prog.rules:
        body = body_text(pos, neg)
        if head < 0:
            rendered.append(f":- {body}." if body else ":- .")
        elif body:
            rendered.append(f"{atom_text(keys[head])} :- {body}.")
        else:
            rendered.append(f"{atom_text(keys[head])}.")
    lines.extend(sorted(rendered))
    choice = sorted(atom_text(keys[a]) for a in prog.choice)
    if choice:
        lines.append("% free choices")
        lines.extend(f"{{{a}}}." for a in choice)
    crs = []
    for head, pos, neg in prog.cr_rules:
        body = body_text(pos, neg)
        crs.append(f"{atom_text(keys[head])} :+ {body}." if body
                   else f"{atom_text(keys[head])} :+ .")
    if crs:
        lines.append("% consistency-restoring rules")
        lines.extend(sorted(crs))
    groups = []
    for members, k in prog.atmost:
        names = "; ".join(sorted(atom_text(keys[a]) for a in members))
        groups.append(f":- {k + 1} <= #count {{ {names} }}.")
    if groups:
        lines.append("% cardinality bounds")
        lines.extend(sorted(groups))
    return "\n".join(lines) + "\n"


def emit_json(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


# ------------------------------------------------------------ loading

def read_input(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}")


def load_source(path: str):
    return parse_file(read_input(path), path)


def flatten_any(node, search_paths: list[str], sink: DiagnosticSink):
    """Flattened module of a system description or a bare theory."""
    if isinstance(node, ast.System):
        cs = compile_system(node, search_paths, sink)
        return cs.module, cs
    modules = resolve_theory(node, search_paths, sink)
    if not modules:
        raise InputError(f"theory {node.name} declares no modules")
    flat = flatten(modules, node.name, sink)
    sink.raise_if_errors()
    return flat, None


def signature_and_theory(flat: ast.Module, cs: Optional[CompiledSystem],
                         sink: DiagnosticSink):
    """Signature and action theory, reusing those a compiled system has."""
    if cs is not None:
        return cs.sig, cs.theory
    sig = build_signature(flat, sink)
    return sig, build_action_theory(flat, sig, sink)


def compile_from_path(path: str, search_paths: list[str],
                      sink: DiagnosticSink) -> CompiledSystem:
    node = load_source(path)
    if not isinstance(node, ast.System):
        raise InputError(
            f"{path} is a theory; this command needs a system description "
            "(theory + structure)")
    return compile_system(node, search_paths, sink)


def make_budget(args) -> Optional[Budget]:
    if args.budget_nodes is None and args.budget_seconds is None:
        return None
    return Budget.of(args.budget_nodes, args.budget_seconds)


def search_paths_of(args) -> list[str]:
    return library_search_paths(args.lib or [])


# ------------------------------------------------------------ subcommands

def cmd_check(args) -> int:
    sink = DiagnosticSink()
    node = load_source(args.file)
    # a theory file is validated as the union of its modules, imports expanded
    flat, cs = flatten_any(node, search_paths_of(args), sink)
    sig, _ = signature_and_theory(flat, cs, sink)
    wf = check_well_founded(cs, make_budget(args)) \
        if args.well_founded and cs is not None else None
    _print_warnings(sink)
    print(f"{args.file}: ok "
          f"({len(sig.sorts)} sorts, {len(sig.functions)} functions)")
    if wf is not None:
        verdict = "well-founded" if wf.well_founded else "not well-founded"
        print(f"{args.file}: {verdict} ({wf.method} check)")
        if not wf.well_founded:
            return EXIT_SEMANTIC
    return EXIT_OK


def _print_warnings(sink: DiagnosticSink) -> None:
    for d in sink.items:
        if d.severity == "warning":
            print(d, file=sys.stderr)


def cmd_flatten(args) -> int:
    sink = DiagnosticSink()
    node = load_source(args.file)
    flat, _ = flatten_any(node, search_paths_of(args), sink)
    sys.stdout.write(pretty(flat))
    return EXIT_OK


def cmd_hierarchy(args) -> int:
    sink = DiagnosticSink()
    node = load_source(args.file)
    flat, cs = flatten_any(node, search_paths_of(args), sink)
    sig = cs.sig if cs is not None else build_signature(flat, sink)
    for name in sorted(sig.sorts):
        for parent in sorted(sig.parents(name)):
            if args.json_lines:
                emit_json({"type": "link", "sort": name, "parent": parent})
            else:
                print(f"{name} :: {parent}")
    return EXIT_OK


def cmd_bat(args) -> int:
    sink = DiagnosticSink()
    node = load_source(args.file)
    flat, cs = flatten_any(node, search_paths_of(args), sink)
    sig, theory = signature_and_theory(flat, cs, sink)
    _print_warnings(sink)
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


def cmd_states(args) -> int:
    sink = DiagnosticSink()
    cs = compile_from_path(args.file, search_paths_of(args), sink)
    diagrams = build_diagrams(cs.grounders, budget=make_budget(args),
                              with_transitions=False)
    for m, d in enumerate(diagrams):
        if not args.json_lines:
            print(f"model {m}: {len(d.states)} state(s)"
                  + ("" if d.well_founded else " [not well-founded]"))
        for i, s in enumerate(d.states):
            if args.json_lines:
                emit_json({"type": "state", "model": m, "index": i,
                           "atoms": {fun_text(f, a): str(v)
                                     for f, a, v in s.atoms()}})
            else:
                print(f"  state {i}: {state_text(s)}")
    return EXIT_OK


def cmd_transitions(args) -> int:
    sink = DiagnosticSink()
    cs = compile_from_path(args.file, search_paths_of(args), sink)
    mode = "powerset" if args.action_sets == "powerset" else "upto1"
    diagrams = build_diagrams(cs.grounders, mode, make_budget(args))
    for m, d in enumerate(diagrams):
        if not args.json_lines:
            print(f"model {m}: {len(d.states)} state(s), "
                  f"{len(d.transitions)} transition(s)")
            for i, s in enumerate(d.states):
                print(f"  state {i}: {state_text(s)}")
        for i, acts, j in sorted(d.transitions,
                                 key=lambda t: (t[0], sorted(map(str, t[1])), t[2])):
            if args.json_lines:
                emit_json({"type": "transition", "model": m, "from": i,
                           "actions": sorted(map(str, acts)), "to": j})
            else:
                print(f"  {i} --{{{', '.join(sorted(map(str, acts)))}}}--> {j}")
    return EXIT_OK


def cmd_project(args) -> int:
    sink = DiagnosticSink()
    cs = compile_from_path(args.file, search_paths_of(args), sink)
    hist = parse_history(read_input(args.history), args.history)
    horizon = hist.max_step if args.horizon is None else args.horizon
    if args.at is not None and args.at > horizon:
        raise UsageError(f"--at {args.at} is beyond the horizon {horizon}")
    covered, total = initial_coverage(cs, hist)
    if covered < total and not args.json_lines:
        print(f"note: initial situation observes {covered} of {total} basic "
              "fluent instances; the rest default to undefined", file=sys.stderr)
    result = temporal_project(cs, hist, horizon=horizon,
                              budget=make_budget(args))
    if not result.consistent:
        print("inconsistent history: no models", file=sys.stderr)
        return EXIT_SEMANTIC
    for k, t in enumerate(result.trajectories):
        if args.json_lines:
            emit_json({"type": "trajectory", "index": k,
                       "steps": [{fun_text(f, a): str(v)
                                  for f, a, v in s.atoms()}
                                 for s in t.states],
                       "occurrences": [sorted(map(str, o))
                                       for o in t.occurrences]})
            continue
        print(f"trajectory {k}:")
        for i, s in enumerate(t.states):
            print(f"  step {i}: {state_text(s)}")
            if i < len(t.occurrences) and t.occurrences[i]:
                print(f"  occurs: {', '.join(sorted(map(str, t.occurrences[i])))}")
    for q in args.query or []:
        lit = parse_literal_text(q)
        step = horizon if args.at is None else args.at
        verdict = entails_at(cs, result, lit, step)
        if args.json_lines:
            emit_json({"type": "query", "literal": q, "step": step,
                       "entailed": verdict})
        else:
            print(f"query {q!r} at step {step}: "
                  + ("entailed" if verdict else "not entailed"))
    return EXIT_OK


def cmd_plan(args) -> int:
    sink = DiagnosticSink()
    cs = compile_from_path(args.file, search_paths_of(args), sink)
    hist = parse_history(read_input(args.history), args.history)
    goal = parse_goal(read_input(args.goal), args.goal)
    result = find_plans(cs, hist, goal, args.horizon,
                        budget=make_budget(args),
                        max_plans=args.max_plans,
                        minimality=args.cr_min,
                        sequential=not args.concurrent)
    if args.most_specific:
        result = prefer_most_specific(cs, result)
    if not result.plans:
        print(result.note or "no plans", file=sys.stderr)
        return EXIT_SEMANTIC
    for k, plan in enumerate(sorted(result.plans, key=lambda p: p.steps)):
        if args.json_lines:
            emit_json({"type": "plan", "index": k,
                       "steps": [list(map(str, acts)) for acts in plan.steps]})
            continue
        print(f"plan {k} ({plan.occurrences} occurrence(s)):")
        for line in str(plan).splitlines():
            print(f"  {line}")
        if args.validate:
            ok = validate_plan(cs, hist, goal, plan, make_budget(args))
            print(f"  re-execution: {'reaches the goal' if ok else 'FAILS'}")
    return EXIT_OK


def cmd_emit_asp(args) -> int:
    sink = DiagnosticSink()
    cs = compile_from_path(args.file, search_paths_of(args), sink)
    if not cs.grounders:
        raise SemanticError("no pre-model: structure is inconsistent")
    prog = cs.grounders[0].build_program(args.horizon, sink)
    text = program_text(prog)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
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


def step_number(text: str) -> int:
    """Type of --horizon and --at: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_arg_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="almc", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, budgeted=True):
        p.add_argument("file", help="input .alm file")
        p.add_argument("--lib", action="append", default=[],
                       help="library search directory (repeatable; "
                            f"also ${LIBRARY_PATH_VAR})")
        p.add_argument("--json-lines", action="store_true",
                       help="machine-readable line-delimited output")
        if budgeted:
            p.add_argument("--budget-nodes", type=int, default=None,
                           help="search decision limit")
            p.add_argument("--budget-seconds", type=float, default=None,
                           help="wall-clock limit for solving")

    p = sub.add_parser("check", help="parse and validate")
    common(p)
    p.add_argument("--well-founded", action="store_true",
                   help="also run the well-foundedness check")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("flatten", help="print the flattened module")
    common(p, budgeted=False)
    p.set_defaults(fn=cmd_flatten)

    p = sub.add_parser("hierarchy", help="print the sort hierarchy links")
    common(p, budgeted=False)
    p.set_defaults(fn=cmd_hierarchy)

    p = sub.add_parser("bat", help="summarize the normalized action theory")
    common(p, budgeted=False)
    p.set_defaults(fn=cmd_bat)

    p = sub.add_parser("states", help="enumerate the states of each model")
    common(p)
    p.set_defaults(fn=cmd_states)

    p = sub.add_parser("transitions", help="compute the transition diagram")
    common(p)
    p.add_argument("--action-sets", choices=["singleton", "powerset"],
                   default="singleton",
                   help="action sets labelling transitions")
    p.set_defaults(fn=cmd_transitions)

    p = sub.add_parser("project", help="temporal projection over a history")
    common(p)
    p.add_argument("--history", required=True, help="history fact file")
    p.add_argument("--horizon", type=step_number, default=None)
    p.add_argument("--query", action="append", default=[],
                   help="literal to test for entailment (repeatable)")
    p.add_argument("--at", type=step_number, default=None,
                   help="step for --query (default: final step)")
    p.set_defaults(fn=cmd_project)

    p = sub.add_parser("plan", help="find minimal plans for a goal")
    common(p)
    p.add_argument("--history", required=True, help="initial facts file")
    p.add_argument("--goal", required=True, help="goal literal file")
    p.add_argument("--horizon", type=step_number, required=True)
    p.add_argument("--cr-min", choices=["card", "set"], default="card")
    p.add_argument("--max-plans", type=int, default=None)
    p.add_argument("--concurrent", action="store_true",
                   help="allow several actions per step")
    p.add_argument("--most-specific", action="store_true",
                   help="drop plans using a shadowed, less specific action")
    p.add_argument("--validate", action="store_true",
                   help="re-execute each plan and report the outcome")
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("emit-asp", help="export the ground program as text")
    common(p, budgeted=False)
    p.add_argument("--horizon", type=step_number, default=0)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(fn=cmd_emit_asp)

    return top


def main(argv: Optional[list[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.fn(args)
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


if __name__ == "__main__":
    sys.exit(main())
