"""Recursive-descent parser for system descriptions and library theories.

The language has no statement separators outside of axiom-terminating dots,
so section boundaries are driven entirely by the reserved keywords; the few
genuinely ambiguous list boundaries (object-constant sort lists, structure
attribute assignments vs. the next instance definition) are resolved with
bounded lookahead.  Nodes get their span by position, as their last field:
a keyword argument takes the slower path of the records' `__init__`.
"""

from __future__ import annotations

from typing import Optional, Union

from almc.errors import InputError, Span
from almc.syntax import ast
from almc.syntax.lexer import Token, tokenize

_REL_OPS = ("=", "!=", "<", "<=", ">", ">=")


#: The parser's largest fixed lookahead past the current token.
_LOOKAHEAD = 2


class _Parser:
    def __init__(self, tokens: list[Token]):
        """`tokens` end with one `eof` token.  The parser never moves past
        it and never looks further than `_LOOKAHEAD` tokens ahead, except
        in loops that stop at the first `eof`, so with that many copies of
        it appended every lookahead is a plain index."""
        self.toks = tokens + tokens[-1:] * _LOOKAHEAD
        self.pos = 0

    # ---------------------------------------------------------- plumbing

    def peek(self, off: int = 0) -> Token:
        return self.toks[self.pos + off]

    def at(self, kind: str, text: Optional[str] = None, off: int = 0) -> bool:
        t = self.toks[self.pos + off]
        return t.kind == kind and (text is None or t.text == text)

    def at_kw(self, *words: str, off: int = 0) -> bool:
        t = self.toks[self.pos + off]
        return t.kind == "kw" and t.text in words

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            raise InputError(f"expected {want!r}, found {t.text or t.kind!r}", t.span)
        return self.next()

    def expect_kw(self, word: str) -> Token:
        t = self.peek()
        if not (t.kind == "kw" and t.text == word):
            raise InputError(f"expected keyword {word!r}, found {t.text or t.kind!r}", t.span)
        return self.next()

    def expect_name(self) -> str:
        """A unit name (system/theory/module/structure); case-insensitive start."""
        t = self.peek()
        if t.kind not in ("ident", "var"):
            raise InputError(f"expected a name, found {t.text or t.kind!r}", t.span)
        return self.next().text

    def eat(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        t = self.toks[self.pos]
        if t.kind != kind or (text is not None and t.text != text):
            return None
        if kind != "eof":
            self.pos += 1
        return t

    # ---------------------------------------------------------- terms

    def parse_term(self) -> ast.Term:
        return self._parse_add()

    def _parse_add(self) -> ast.Term:
        t = self._parse_mul()
        while self.toks[self.pos].kind in ("+", "-"):
            op = self.next()
            rhs = self._parse_mul()
            t = ast.Arith(op.text, t, rhs, op.span)
        return t

    def _parse_mul(self) -> ast.Term:
        t = self._parse_primary()
        while self.at("*") or self.at_kw("mod"):
            op = self.next()
            rhs = self._parse_primary()
            t = ast.Arith(op.text, t, rhs, op.span)
        return t

    def _parse_primary(self) -> ast.Term:
        t = self.toks[self.pos]
        if t.kind == "int":
            self.pos += 1
            return ast.Num(int(t.text), t.span)
        if t.kind == "var":
            self.pos += 1
            return ast.Var(t.text, t.span)
        if t.kind == "ident":
            self.pos += 1
            if self.eat("("):
                args = [self.parse_term()]
                while self.eat(","):
                    args.append(self.parse_term())
                self.expect(")")
                return ast.App(t.text, tuple(args), t.span)
            return ast.Sym(t.text, t.span)
        if self.eat("("):
            inner = self.parse_term()
            self.expect(")")
            return inner
        raise InputError(f"expected a term, found {t.text or t.kind!r}", t.span)

    # ---------------------------------------------------------- literals

    def parse_literal(self) -> ast.BodyItem:
        start = self.peek().span
        neg = self.eat("-") is not None
        if self.at_kw("occurs"):
            self.next()
            self.expect("(")
            act = self.parse_term()
            self.expect(")")
            return ast.OccursLit(neg, act, start)
        if self.at_kw("instance"):
            self.next()
            self.expect("(")
            obj = self.parse_term()
            self.expect(",")
            sort = self.parse_term()
            self.expect(")")
            return ast.Lit(neg, ast.App("instance", (obj, sort), start),
                           None, None, start)
        lhs = self.parse_term()
        for op in ("!=", "<=", ">=", "=", "<", ">"):
            if self.at(op):
                self.next()
                rhs = self.parse_term()
                return ast.Lit(neg, lhs, op, rhs, start)
        return ast.Lit(neg, lhs, None, None, start)

    def parse_plain_literal(self) -> ast.Lit:
        lit = self.parse_literal()
        if isinstance(lit, ast.OccursLit):
            raise InputError("occurs literal not allowed here", lit.span)
        return lit

    def _parse_body(self, allow_occurs: bool) -> tuple[ast.BodyItem, ...]:
        body = [self.parse_literal() if allow_occurs else self.parse_plain_literal()]
        while self.eat(","):
            body.append(self.parse_literal() if allow_occurs else self.parse_plain_literal())
        return tuple(body)

    # ---------------------------------------------------------- axioms

    def parse_axiom(self) -> ast.Statement:
        if self.at_kw("occurs"):
            return self._parse_dynamic_law()
        if self.at_kw("impossible"):
            return self._parse_executability()
        return self._parse_rule()

    def _parse_guard(self) -> tuple[ast.Term, str, tuple[ast.BodyItem, ...]]:
        self.expect_kw("if")
        self.expect_kw("instance")
        self.expect("(")
        act = self.parse_term()
        self.expect(",")
        sort = self.expect("ident")
        self.expect(")")
        body: tuple[ast.BodyItem, ...] = ()
        if self.eat(","):
            body = self._parse_body(allow_occurs=True)
        self.expect(".")
        return act, sort.text, body

    def _parse_dynamic_law(self) -> ast.DynamicLaw:
        start = self.expect_kw("occurs").span
        self.expect("(")
        act = self.parse_term()
        self.expect(")")
        self.expect_kw("causes")
        head = self.parse_plain_literal()
        gact, sort, body = self._parse_guard()
        if gact != act:
            raise InputError("guard instance(...) must mention the occurring action", start)
        return ast.DynamicLaw(act, head, sort, body, start)

    def _parse_executability(self) -> ast.Executability:
        start = self.expect_kw("impossible").span
        self.expect_kw("occurs")
        self.expect("(")
        act = self.parse_term()
        self.expect(")")
        gact, sort, body = self._parse_guard()
        if gact != act:
            raise InputError("guard instance(...) must mention the occurring action", start)
        return ast.Executability(act, sort, body, start)

    def _parse_rule(self) -> ast.Rule:
        start = self.peek().span
        head: Optional[ast.Lit]
        if self.at("ident", "false") and (self.at_kw("if", off=1) or self.at(".", off=1)):
            self.next()
            head = None
        else:
            head = self.parse_plain_literal()
        body: tuple[ast.Lit, ...] = ()
        if self.at_kw("if"):
            self.next()
            body = tuple(self._parse_body(allow_occurs=False))  # type: ignore[arg-type]
        self.expect(".")
        return ast.Rule(head, body, start)

    # ---------------------------------------------------------- sort names

    def parse_sortname(self) -> ast.SortName:
        if self.at("["):
            start = self.next().span
            lo = self._parse_bound()
            self.expect("..")
            hi = self._parse_bound()
            self.expect("]")
            return ast.RangeSort(lo, hi, start)
        return self.expect("ident").text

    def _parse_bound(self) -> Union[int, str]:
        if self.at("int"):
            return int(self.next().text)
        neg = self.eat("-")
        if neg:
            return -int(self.expect("int").text)
        return self.expect("ident").text

    def _at_sortname(self, off: int = 0) -> bool:
        return self.at("ident", off=off) or self.at("[", off=off)

    # ---------------------------------------------------------- declarations

    def _parse_sort_decls(self) -> tuple[ast.SortDecl, ...]:
        decls = []
        while self._starts_sort_decl():
            start = self.peek().span
            names = [self.expect("ident").text]
            while self.eat(","):
                names.append(self.expect("ident").text)
            self.expect("::")
            parents = [self.parse_sortname()]
            while self.eat(","):
                parents.append(self.parse_sortname())
            attrs: list[ast.AttrDecl] = []
            if self.at_kw("attributes"):
                self.next()
                while self.at("ident") and self.at(":", off=1):
                    attrs.append(self._parse_attr_decl())
            decls.append(ast.SortDecl(tuple(names), tuple(parents), tuple(attrs), start))
        return tuple(decls)

    def _starts_sort_decl(self) -> bool:
        # ident (, ident)* '::'
        if not self.at("ident"):
            return False
        off = 1
        while self.at(",", off=off) and self.at("ident", off=off + 1):
            off += 2
        return self.at("::", off=off)

    def _parse_attr_decl(self) -> ast.AttrDecl:
        name = self.expect("ident")
        self.expect(":")
        parts = [self.parse_sortname()]
        while self.eat("*"):
            parts.append(self.parse_sortname())
        if self.eat("->"):
            result = self.parse_sortname()
            return ast.AttrDecl(name.text, tuple(parts), result, name.span)
        if len(parts) != 1:
            raise InputError("attribute declaration without '->' takes no arguments", name.span)
        return ast.AttrDecl(name.text, (), parts[0], name.span)

    def _parse_const_decls(self) -> tuple[ast.ConstDecl, ...]:
        decls = []
        while self.at("ident"):
            start = self.peek().span
            consts = [self._parse_const_name()]
            while self.at(",") and self.at("ident", off=1) and \
                    (self.at(":", off=2) or self.at("(", off=2) or self.at(",", off=2)):
                self.next()
                consts.append(self._parse_const_name())
            self.expect(":")
            sorts = [self.parse_sortname()]
            while self.at(",") and self._at_sortname(off=1) and not self.at(":", off=2) \
                    and not self.at("(", off=2):
                self.next()
                sorts.append(self.parse_sortname())
            decls.append(ast.ConstDecl(tuple(consts), tuple(sorts), start))
        return tuple(decls)

    def _parse_const_name(self) -> tuple[str, tuple[ast.SortName, ...]]:
        name = self.expect("ident").text
        params: list[ast.SortName] = []
        if self.eat("("):
            params.append(self.parse_sortname())
            while self.eat(","):
                params.append(self.parse_sortname())
            self.expect(")")
        return name, tuple(params)

    def _parse_function_decls(self) -> tuple[ast.FuncDecl, ...]:
        decls = []
        while self.at_kw("statics", "fluents"):
            cat = "static" if self.next().text == "statics" else "fluent"
            while self.at_kw("basic", "defined"):
                basic = self.next().text == "basic"
                while self.at_kw("total") or (self.at("ident") and self.at(":", off=1)):
                    start = self.peek().span
                    total = self.eat("kw", "total") is not None
                    name = self.expect("ident").text
                    self.expect(":")
                    parts = [self.parse_sortname()]
                    while self.eat("*"):
                        parts.append(self.parse_sortname())
                    if self.eat("->"):
                        result = self.parse_sortname()
                        args = tuple(parts)
                    else:
                        if len(parts) != 1:
                            raise InputError("missing '->' in function declaration", start)
                        args, result = (), parts[0]
                    decls.append(ast.FuncDecl(name, args, result, total, cat, basic, start))
        return tuple(decls)

    # ---------------------------------------------------------- modules

    def parse_module(self) -> ast.Module:
        start = self.expect_kw("module").span
        name = self.expect("ident").text
        depends: list[str] = []
        if self.at_kw("depends"):
            self.next()
            self.expect_kw("on")
            depends.append(self.expect("ident").text)
            while self.eat(","):
                depends.append(self.expect("ident").text)
        sorts: tuple[ast.SortDecl, ...] = ()
        constants: tuple[ast.ConstDecl, ...] = ()
        functions: tuple[ast.FuncDecl, ...] = ()
        axioms: list[ast.Statement] = []
        while True:
            if self.at_kw("sort") and self.at_kw("declarations", off=1):
                self.next(), self.next()
                sorts = self._parse_sort_decls()
            elif self.at_kw("object") and self.at_kw("constants", off=1):
                self.next(), self.next()
                constants = self._parse_const_decls()
            elif self.at_kw("function") and self.at_kw("declarations", off=1):
                self.next(), self.next()
                functions = self._parse_function_decls()
            elif self.at_kw("axioms"):
                self.next()
                while not (self.at("eof") or
                           self.at_kw("module", "structure", "import", "theory", "sort",
                                      "object", "function", "axioms")):
                    axioms.append(self.parse_axiom())
            else:
                break
        return ast.Module(name, tuple(depends), sorts, constants, functions,
                          tuple(axioms), start)

    def parse_import(self) -> ast.ImportDirective:
        start = self.expect_kw("import").span
        kind: str
        theory: Optional[str] = None
        module: Optional[str] = None
        if self.at_kw("theory"):
            self.next()
            kind, theory = "theory", self.expect("ident").text
        elif self.at_kw("module"):
            self.next()
            kind, module = "module", self.expect("ident").text
        else:
            first = self.expect("ident").text
            if self.eat("."):
                kind, theory, module = "module", first, self.expect("ident").text
            else:
                kind, theory = "theory", first
        self.expect_kw("from")
        library = self.expect("ident").text
        return ast.ImportDirective(kind, theory, module, library, start)

    def parse_theory(self) -> ast.Theory:
        start = self.expect_kw("theory").span
        name = self.expect("ident").text
        items: list[Union[ast.Module, ast.ImportDirective]] = []
        while True:
            if self.at_kw("module") and self.at("ident", off=1):
                items.append(self.parse_module())
            elif self.at_kw("import"):
                items.append(self.parse_import())
            else:
                break
        return ast.Theory(name, tuple(items), start)

    # ---------------------------------------------------------- structure

    def parse_structure(self) -> ast.Structure:
        start = self.expect_kw("structure").span
        name = self.expect_name()
        constants: list[ast.ConstAssign] = []
        instances: list[ast.InstanceDef] = []
        statics: list[ast.StaticAssign] = []
        while True:
            if self.at_kw("constants"):
                self.next()
                while self.at("ident") and self.at("=", off=1):
                    cname = self.next()
                    self.next()
                    constants.append(ast.ConstAssign(cname.text, self.parse_term(),
                                                     cname.span))
            elif self.at_kw("instances"):
                self.next()
                while self.at("ident") or self.at("var"):
                    instances.append(self._parse_instance_def())
            elif self.at_kw("values") and self.at_kw("of", off=1) and self.at_kw("statics", off=2):
                self.next(), self.next(), self.next()
                while self.at("ident") or self.at("-") or self.at_kw("instance"):
                    lit = self.parse_plain_literal()
                    body: tuple[ast.Lit, ...] = ()
                    if self.at_kw("if"):
                        self.next()
                        body = tuple(self._parse_body(allow_occurs=False))  # type: ignore[arg-type]
                    self.expect(".")
                    statics.append(ast.StaticAssign(lit, body, lit.span))
            else:
                break
        return ast.Structure(name, tuple(constants), tuple(instances), tuple(statics),
                             start)

    def _parse_instance_def(self) -> ast.InstanceDef:
        start = self.peek().span
        objects = [self.parse_term()]
        while self.eat(","):
            objects.append(self.parse_term())
        self.expect_kw("in")
        sorts = [self.expect("ident").text]
        while self.at(",") and self.at("ident", off=1) and not self._comma_starts_instance(2):
            self.next()
            sorts.append(self.expect("ident").text)
        where: tuple[ast.Lit, ...] = ()
        if self.at_kw("where"):
            self.next()
            where = tuple(self._parse_body(allow_occurs=False))  # type: ignore[arg-type]
        attrs: list[ast.AttrAssign] = []
        while self.at("ident") and self._next_is_attr_assign():
            aname = self.next()
            args: list[ast.Term] = []
            if self.eat("("):
                args.append(self.parse_term())
                while self.eat(","):
                    args.append(self.parse_term())
                self.expect(")")
            self.expect("=")
            attrs.append(ast.AttrAssign(aname.text, tuple(args), self.parse_term(),
                                        aname.span))
        return ast.InstanceDef(tuple(objects), tuple(sorts), where, tuple(attrs), start)

    def _comma_starts_instance(self, off: int) -> bool:
        # after ", ident": another sort iff not followed by something instance-like
        return self.at_kw("in", off=off) or self.at("(", off=off) or self.at(",", off=off)

    def _next_is_attr_assign(self) -> bool:
        """Distinguish `attr (args)? = value` from the next `objs in sort` def."""
        off = 0
        depth = 0
        while True:
            t = self.peek(off)
            if t.kind == "eof":
                return False
            if t.kind == "(":
                depth += 1
            elif t.kind == ")":
                depth -= 1
            elif depth == 0:
                if t.kind == "=":
                    return True
                if t.kind == "kw" and t.text in ("in", "where", "instances", "values",
                                                 "constants", "structure"):
                    return False
                if t.kind == ",":
                    return False
            off += 1

    # ---------------------------------------------------------- top level

    def parse_system(self) -> ast.System:
        start = self.expect_kw("system").span
        self.expect_kw("description")
        name = self.expect_name()
        theory: Union[ast.Theory, ast.ImportDirective]
        if self.at_kw("import"):
            theory = self.parse_import()
        else:
            theory = self.parse_theory()
        structure = self.parse_structure()
        self.expect("eof")
        return ast.System(name, theory, structure, start)

    def parse_top(self) -> Union[ast.System, ast.Theory]:
        if self.at_kw("system"):
            return self.parse_system()
        if self.at_kw("theory"):
            theory = self.parse_theory()
            self.expect("eof")
            return theory
        t = self.peek()
        raise InputError("expected 'system description' or 'theory'", t.span)


def parse_file(text: str, filename: str = "") -> Union[ast.System, ast.Theory]:
    return _Parser(tokenize(text, filename)).parse_top()


def parse_literal_text(text: str, filename: str = "") -> ast.Lit:
    """Parse a single plain literal (used for goal files)."""
    p = _Parser(tokenize(text, filename))
    lit = p.parse_plain_literal()
    p.eat(".")
    p.expect("eof")
    return lit
