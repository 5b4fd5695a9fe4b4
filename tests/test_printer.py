import pytest

from almc.syntax import ast, pretty
from almc.syntax.parser import parse_file

from conftest import ALM_FILES, parse_path, read


@pytest.mark.parametrize("path", ALM_FILES, ids=lambda p: p.name)
def test_pretty_round_trip_is_exact(path):
    text = read(path)
    node = parse_path(path)
    assert pretty(node) == text


@pytest.mark.parametrize("path", ALM_FILES, ids=lambda p: p.name)
def test_reparse_is_structurally_identical(path):
    node = parse_path(path)
    again = parse_file(pretty(node), str(path))
    assert again == node  # spans are excluded from node equality


def test_printer_is_idempotent():
    for path in ALM_FILES:
        once = pretty(parse_path(path))
        assert pretty(parse_file(once)) == once


ARITH = """\
theory t
  module m
    sort declarations
      things :: universe
    function declarations
      fluents
        basic
          f : things -> [0..9]
          g : things -> [0..9]
          h : things -> [0..9]
    axioms
      f(X) = (A + B) * C if g(X) = A, h(X) = B, f(X) = C.
      f(X) = A - (B - C) if g(X) = A, h(X) = B, f(X) = C.
      f(X) = A - B - C if g(X) = A, h(X) = B, f(X) = C.
"""


def test_parenthesised_arithmetic_round_trips():
    """Parentheses group a term against the operators' precedence and
    left-to-right association, and are printed only where they do."""
    node = parse_file(ARITH)
    assert pretty(node) == ARITH
    assert parse_file(pretty(node)) == node
    a, b, c = ast.Var("A"), ast.Var("B"), ast.Var("C")
    assert [rule.head.rhs for rule in node.items[0].axioms] == [
        ast.Arith("*", ast.Arith("+", a, b), c),
        ast.Arith("-", a, ast.Arith("-", b, c)),
        ast.Arith("-", ast.Arith("-", a, b), c)]
