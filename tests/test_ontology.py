import pytest

from almc.errors import DiagnosticSink, SemanticError
from almc.ontology import (
    ATTRIBUTE, BASIC_FLUENT, BASIC_STATIC, DEFINED_FLUENT, DEFINED_STATIC,
    build_signature, dom_name,
)
from almc.syntax.parser import parse_file


def sig_of(src: str, expect_errors: bool = False):
    sink = DiagnosticSink()
    mod = parse_file(src).items[0]
    if expect_errors:
        with pytest.raises(SemanticError) as exc:
            build_signature(mod, sink)
        return exc.value
    sig = build_signature(mod, sink)
    sink.raise_if_errors()
    return sig


BASE = """
theory t
  module m
    sort declarations
      things :: universe
      agents :: things
      carriables :: things
      move :: actions
        attributes
          actor : agents
      carry :: move
    function declarations
      statics
        basic
          under : things * things -> booleans
        defined
          near : things -> booleans
      fluents
        basic
          loc : things -> things
          total holding : agents -> booleans
        defined
          reachable : things -> booleans
"""


def test_kinds_and_dom_companions():
    sig = sig_of(BASE)
    f = sig.functions
    assert f["under"].kind == BASIC_STATIC
    assert f["near"].kind == DEFINED_STATIC
    assert f["loc"].kind == BASIC_FLUENT
    assert f["reachable"].kind == DEFINED_FLUENT
    assert f["actor"].kind == ATTRIBUTE
    assert f["actor"].args == ("move",)
    # companion domain functions track the kind of the underlying function
    assert f[dom_name("loc")].kind == BASIC_FLUENT
    assert f[dom_name("reachable")].kind == DEFINED_FLUENT
    assert f[dom_name("under")].kind == DEFINED_STATIC
    assert f[dom_name("actor")].kind == DEFINED_STATIC
    assert f[dom_name("loc")].dom_of == "loc"
    assert f["holding"].total and not f["loc"].total


def test_zero_arity_functions_get_no_dom():
    sig = sig_of("""
theory t
  module m
    function declarations
      statics
        basic
          symmetric : booleans
""")
    assert "symmetric" in sig.functions
    assert dom_name("symmetric") not in sig.functions


def test_hierarchy_queries():
    sig = sig_of(BASE)
    assert sig.is_subsort("carry", "actions")
    assert sig.is_subsort("agents", "things")
    assert not sig.is_subsort("things", "agents")
    assert "universe" in sig.ancestors("carry")
    assert {"agents", "carriables"} <= sig.descendants("things")
    sources = set(sig.source_nodes())
    assert "carry" in sources and "move" not in sources
    assert "agents" in sources and "things" not in sources


def test_attribute_on_two_sorts_widens_to_common_ancestor():
    sig = sig_of("""
theory t
  module m
    sort declarations
      parts :: universe
      duplicate :: actions
        attributes
          target : parts
      prevent :: actions
        attributes
          target : parts
""")
    assert sig.functions["target"].args == ("actions",)
    assert sig.functions["target"].kind == ATTRIBUTE


def test_attribute_conflicting_result_is_an_error():
    err = sig_of("""
theory t
  module m
    sort declarations
      parts :: universe
      duplicate :: actions
        attributes
          target : parts
      prevent :: actions
        attributes
          target : booleans
""", expect_errors=True)
    assert "redeclared" in str(err)


def test_consistent_redeclaration_is_allowed():
    sig = sig_of("""
theory t
  module m
    sort declarations
      s :: universe
    function declarations
      fluents
        basic
          p : s -> booleans
          p : s -> booleans
""")
    assert sig.functions["p"].kind == BASIC_FLUENT


@pytest.mark.parametrize("src,needle", [
    ("theory t\n  module m\n    sort declarations\n      a :: missing\n",
     "unknown parent"),
    ("theory t\n  module m\n    sort declarations\n      a :: b\n      b :: a\n",
     "cycle"),
    ("theory t\n  module m\n    sort declarations\n      link :: universe\n",
     "reserved"),
    ("theory t\n  module m\n    function declarations\n      statics\n"
     "        basic\n          dom_x : booleans\n",
     "reserved"),
    ("theory t\n  module m\n    sort declarations\n      booleans :: universe\n",
     "booleans"),
    ("theory t\n  module m\n    sort declarations\n      a :: universe\n"
     "    function declarations\n      fluents\n        basic\n"
     "          a : booleans\n",
     "already declared"),
    ("theory t\n  module m\n    function declarations\n      fluents\n"
     "        basic\n          f : nowhere -> booleans\n",
     "unknown sort"),
], ids=["unknown-parent", "cycle", "reserved-sort", "dom-prefix",
        "booleans-subsort", "sort-function-clash", "unknown-arg-sort"])
def test_coherence_errors(src, needle):
    err = sig_of(src, expect_errors=True)
    assert needle in str(err)


@pytest.mark.parametrize("links,named", [
    ("a :: b\n      b :: a\n      c :: d\n      d :: c\n", ["a", "c"]),
    ("a :: a\n", ["a"]),
    # a figure eight: the cycles a-b-c and b-c share one component
    ("a :: b\n      b :: c\n      c :: b, a\n", ["a"]),
], ids=["two-cycles", "self-loop", "figure-eight"])
def test_one_cycle_message_per_component(links, named):
    """Each cycle of links is reported once per strongly connected
    component, at the first of its sorts that the search enters."""
    sink = DiagnosticSink()
    mod = parse_file("theory t\n  module m\n    sort declarations\n      "
                     + links).items[0]
    with pytest.raises(SemanticError):
        build_signature(mod, sink)
    assert [d.message for d in sink.errors] == [
        f"sort hierarchy has a cycle through {s!r}" for s in named]


def test_object_constants():
    sig = sig_of("""
theory t
  module m
    sort declarations
      points :: universe
      elevations :: universe
    object constants
      top(elevations) : points
      origin : points
""")
    assert sig.objects["top"].params == ("elevations",)
    assert sig.objects["top"].sorts == ("points",)
    assert sig.objects["origin"].params == ()


def test_object_redeclaration_merges_sorts():
    sig = sig_of("""
theory t
  module m
    sort declarations
      carriables, elevations :: universe
    object constants
      box : carriables
      box : elevations
""")
    assert set(sig.objects["box"].sorts) == {"carriables", "elevations"}
