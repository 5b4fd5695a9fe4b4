import os

import pytest

from almc.errors import DiagnosticSink, InputError, SemanticError
from almc.modular import (
    LIBRARY_PATH_VAR, build_universe, enumerate_placements, eval_ground_term,
    compare, flatten, library_search_paths, load_library, resolve_theory,
)
from almc.ontology import build_signature
from almc.syntax import ast
from almc.syntax.parser import parse_file

from conftest import CORPUS, parse_path


def flat_of(name: str, search=()):
    sink = DiagnosticSink()
    node = parse_path(CORPUS / f"{name}.alm")
    theory = node.theory if isinstance(node, ast.System) else node
    mods = resolve_theory(theory, [str(p) for p in search], sink)
    flat = flatten(mods, theory.name, sink)
    sink.raise_if_errors()
    return flat


def sort_name(s: ast.SortName) -> str:
    return s if isinstance(s, str) else s.name


def sort_links(mod: ast.Module):
    links, attrs = set(), set()
    for sd in mod.sorts:
        for n in sd.names:
            for p in sd.parents:
                links.add((n, sort_name(p)))
            for a in sd.attrs:
                attrs.add((n, a.name,
                           tuple(sort_name(x) for x in a.args),
                           sort_name(a.result)))
    return links, attrs


def func_decls(mod: ast.Module):
    return {(f.name, tuple(sort_name(a) for a in f.args),
             sort_name(f.result), f.total, f.cat, f.basic)
            for f in mod.functions}


# ------------------------------------------------------------ flattening

def test_flatten_motion_matches_reference_module():
    got = flat_of("motion")
    want = flat_of("flat_motion")
    assert sort_links(got) == sort_links(want)
    assert func_decls(got) == func_decls(want)
    assert len(got.functions) == 6  # 4 fluents + 2 defined statics
    assert set(got.axioms) == set(want.axioms)
    assert len(got.axioms) == 13


def test_flatten_is_idempotent_for_single_module():
    flat = flat_of("travel")
    again_sink = DiagnosticSink()
    again = flatten([flat], flat.name, again_sink)
    assert set(again.axioms) == set(flat.axioms)
    assert func_decls(again) == func_decls(flat)


def test_dependency_order_respects_depends_on():
    flat = flat_of("motion")
    # the carrying module refines the moving module; both contribute axioms
    heads = {getattr(a, "sort", None) for a in flat.axioms
             if isinstance(a, (ast.DynamicLaw, ast.Executability))}
    assert heads == {"move", "carry"}


# ------------------------------------------------------------ libraries

def test_load_library_finds_theory_on_search_path():
    sink = DiagnosticSink()
    lib = load_library("commonsense_library", [str(CORPUS)])
    theory = lib.theory
    assert theory.name == "motion"
    names = {m.name for m in theory.items if isinstance(m, ast.Module)}
    assert {"moving", "carrying_things", "climbing"} <= names


def test_missing_library_is_an_error():
    with pytest.raises(InputError) as exc:
        load_library("no_such_library", [str(CORPUS)])
    assert "no_such_library" in str(exc.value)


def test_import_theory_pulls_all_modules():
    node = parse_path(CORPUS / "monkey_and_banana.alm")
    sink = DiagnosticSink()
    mods = resolve_theory(node.theory, [str(CORPUS)], sink)
    sink.raise_if_errors()
    assert [m.name for m in mods] == ["moving", "carrying_things",
                                      "climbing", "main"]


def test_import_single_module():
    node = parse_path(CORPUS / "cell_cycle1.alm")
    sink = DiagnosticSink()
    mods = resolve_theory(node.theory, [str(CORPUS)], sink)
    sink.raise_if_errors()
    assert [m.name for m in mods] == ["sequence", "basic_cell_cycle"]


LIBRARIES = {
    "base": """
theory base
  module m0
    sort declarations
      things :: universe
""",
    # libraries that themselves import from a library
    "mid": """
theory mid
  import module m0 from base
  module m1 depends on m0
    sort declarations
      gadgets :: things
""",
    "side": """
theory side
  import theory base from base
  module m2 depends on m0
    sort declarations
      widgets :: things
""",
    # two libraries that import from each other
    "cyc_a": """
theory cyc_a
  import module mb from cyc_b
  module ma
    sort declarations
      as :: universe
""",
    "cyc_b": """
theory cyc_b
  import module ma from cyc_a
  module mb
    sort declarations
      bs :: universe
""",
}


def resolve_with_libraries(tmp_path, imports: str):
    for name, text in LIBRARIES.items():
        (tmp_path / f"{name}.alm").write_text(text)
    sink = DiagnosticSink()
    theory = parse_file(f"theory t\n{imports}")
    mods = resolve_theory(theory, [str(tmp_path)], sink)
    return [m.name for m in mods], [d.message for d in sink.errors]


def test_import_module_from_a_library_that_imports(tmp_path):
    names, errors = resolve_with_libraries(
        tmp_path, "  import module m1 from mid\n")
    assert (names, errors) == (["m0", "m1"], [])


def test_library_module_reached_by_two_import_paths(tmp_path):
    names, errors = resolve_with_libraries(
        tmp_path, "  import module m1 from mid\n"
                  "  import module m2 from side\n"
                  "  import module m0 from base\n")
    assert (names, errors) == (["m0", "m1", "m2"], [])


def test_import_cycle_between_libraries_is_one_error(tmp_path):
    names, errors = resolve_with_libraries(
        tmp_path, "  import module ma from cyc_a\n")
    assert names == ["ma"]
    assert errors == ["circular import of cyc_a"]


def test_library_path_variable_extends_the_search_path(monkeypatch,
                                                      tmp_path):
    monkeypatch.delenv(LIBRARY_PATH_VAR, raising=False)
    assert library_search_paths() == ["."]
    monkeypatch.setenv(LIBRARY_PATH_VAR,
                       os.pathsep.join([str(CORPUS), "", str(tmp_path)]))
    assert library_search_paths() == [str(CORPUS), str(tmp_path)]
    # paths given on the command line come first
    assert library_search_paths(("lib",)) == ["lib", str(CORPUS),
                                              str(tmp_path)]
    node = parse_path(CORPUS / "cell_cycle1.alm")
    sink = DiagnosticSink()
    mods = resolve_theory(node.theory, library_search_paths(), sink)
    assert [m.name for m in mods] == ["sequence", "basic_cell_cycle"]


# ------------------------------------------------------------ pre-models

def compiled(name: str, search=()):
    sink = DiagnosticSink()
    node = parse_path(CORPUS / f"{name}.alm")
    flat = flat_of(name, search)
    sig = build_signature(flat, sink)
    sink.raise_if_errors()
    return node, sig, sink


def test_alice_has_three_placements():
    node, sig, sink = compiled("professors")
    pms = list(enumerate_placements(sig, node.structure, sink))
    placements = sorted(next(iter(pm.is_a["alice"])) for pm in pms)
    assert placements == ["assistant", "associate", "full"]


def test_declared_source_membership_suppresses_choice():
    # box sits in two declared source sorts: no placement axis for it,
    # and top(box), declared in both points (via the object constant) and
    # movable_points, is witnessed by the source movable_points
    node, sig, sink = compiled("monkey_and_banana", [CORPUS])
    pms = list(enumerate_placements(sig, node.structure, sink))
    first = pms[0]
    assert first.is_a["box"] == frozenset({"carriables", "elevations"})
    assert all(pm.is_a["top(box)"] == frozenset({"movable_points"})
               for pm in pms)
    # the three move(P) schema instances (one per floor point) each choose
    # between the two source sorts below move: carry and climb
    assert len(pms) == 2 ** 3


def test_schema_instances_with_mixed_arguments():
    node, sig, sink = compiled("monkey_and_banana", [CORPUS])
    uni, consts = build_universe(sig, node.structure, sink)
    keys = set(uni.declared)
    assert "carry(box, under_banana)" in keys
    assert "carry(box, top(box))" not in keys  # where-clause: floor only
    assert "grasp(banana)" in keys and "grasp(box)" in keys
    assert "climb(box)" in keys
    # attribute assignments recorded per expansion
    dests = {(okey, v) for f, okey, extra, v in uni.attrs if f == "dest"}
    assert ("carry(box, under_banana)", "under_banana") in dests


def test_structure_attributes_reach_the_pre_model():
    node, sig, sink = compiled("t0")
    (pm,) = enumerate_placements(sig, node.structure, sink)
    assert pm.static_value("attr_1", ("a",)) == "o"
    assert pm.static_value("attr_2", ("b",)) == "o"
    assert pm.static_value("attr_1", ("b",)) is None


def test_range_values_resolve_symbolic_bounds():
    src = """
system description s
  theory t
    module m
      sort declarations
        counters :: universe
          attributes
            cap : [0..limit]
  structure b
    constants
      limit = 3
    instances
      c in counters
"""
    sink = DiagnosticSink()
    node = parse_file(src)
    flat = flatten([m for m in node.theory.items], node.theory.name, sink)
    sig = build_signature(flat, sink)
    (pm,) = enumerate_placements(sig, node.structure, sink)
    assert list(pm.range_values("[0..limit]")) == [0, 1, 2, 3]
    assert pm.is_instance(2, "[0..limit]") and not pm.is_instance(9, "[0..limit]")


# ------------------------------------------------------------ term evaluation

def test_eval_ground_term():
    consts = {"limit": 4}
    lit = ast.App("top", (ast.Sym("box"),))
    assert eval_ground_term(lit, {}) == "top(box)"
    assert eval_ground_term(ast.Sym("limit"), consts) == 4
    arith = ast.Arith("*", ast.Num(3), ast.Sym("limit"))
    assert eval_ground_term(arith, consts) == 12
    with pytest.raises(SemanticError):
        eval_ground_term(ast.Var("X"), consts)


def test_compare_ops():
    assert compare("=", "a", "a")
    assert compare("!=", "a", "b")
    assert compare("<", 1, 2) and compare(">=", 2, 2)
    with pytest.raises(SemanticError):
        compare("<", "a", "b")
