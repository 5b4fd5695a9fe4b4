"""Tokenizer.

Identifiers start with a lowercase letter, variables with an uppercase one.
`%` starts a comment running to end of line.  Structural keywords are
reserved and may not be used as identifiers; `true`/`false` and the special
function names (is_a, link, ...) lex as ordinary identifiers and are policed
later by the ontology.
"""

from __future__ import annotations

from almc.records import field, record

from almc.errors import NO_SPAN, InputError, Span

KEYWORDS = frozenset(
    """
    system description theory module structure
    sort declarations object constants function
    fluents statics attributes basic defined total axioms
    instances values of depends on import from in where if
    causes impossible occurs instance mod
    """.split()
)

# Longest symbols first so the scanner is greedy.
SYMBOLS = ["::", "..", "->", "!=", "<=", ">=", ":", ",", ".", "(", ")",
           "[", "]", "=", "<", ">", "+", "-", "*"]


@record(frozen=True, slots=True)
class Token:
    kind: str  # "ident" | "var" | "int" | "kw" | a symbol string | "eof"
    text: str
    span: Span = field(compare=False, default=NO_SPAN)

    def __init__(self, kind, text, span=NO_SPAN):
        _kind(self, kind)
        _text(self, text)
        _span(self, span)

    def __repr__(self) -> str:
        return f"Token({self.kind!r}, {self.text!r})"


_kind, _text, _span = (Token.__dict__[name].__set__
                       for name in Token.__slots__)  # as for `Span`


def tokenize(text: str, filename: str = "") -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j],
                                Span(start_line, start_col, line, start_col + (j - i), filename)))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            span = Span(start_line, start_col, line, start_col + (j - i), filename)
            if word in KEYWORDS:
                tokens.append(Token("kw", word, span))
            elif word[0].isupper():
                tokens.append(Token("var", word, span))
            else:
                tokens.append(Token("ident", word, span))
            col += j - i
            i = j
            continue
        for sym in SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token(sym, sym,
                                    Span(start_line, start_col, line, start_col + len(sym), filename)))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise InputError(f"unexpected character {c!r}",
                             Span(line, col, line, col + 1, filename))
    tokens.append(Token("eof", "", Span(line, col, line, col, filename)))
    # `object` is only structural in the section header `object constants`;
    # elsewhere it is an ordinary identifier (a popular attribute name).
    for k, tok in enumerate(tokens):
        if tok.kind == "kw" and tok.text == "object":
            nxt = tokens[k + 1]
            if not (nxt.kind == "kw" and nxt.text == "constants"):
                tokens[k] = Token("ident", tok.text, tok.span)
    return tokens
