"""Tokenizer.

Identifiers start with a lowercase letter, variables with an uppercase one,
and numbers are decimal digits.  `%` starts a comment running to end of
line.  Structural keywords are reserved and may not be used as identifiers;
`true`/`false` and the special function names (is_a, link, ...) lex as
ordinary identifiers and are policed later by the ontology.
"""

from __future__ import annotations

import re

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


# One match per token, with the blanks before it in the first group; then
# a newline, a comment (not captured: it takes no columns), an int (decimal
# digits only, which `int()` reads), a word (a letter or `_`, then letters,
# digits or `_`; the class also admits a non-decimal digit such as `²`
# first, which `tokenize` rejects), a symbol (longest first), or any other
# character, which is an error.
_TOKEN = re.compile(
    r"([ \t\r]*)(?:(\n)|%[^\n]*|(\d+)|([^\W\d]\w*)|("
    + "|".join(map(re.escape, SYMBOLS)) + r")|(.))?", re.DOTALL)


def tokenize(text: str, filename: str = "") -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    objects = []  # where `object` lexed as a keyword
    line, col = 1, 1
    for blank, newline, num, word, sym, other in _TOKEN.findall(text):
        col += len(blank)
        if word:
            n = len(word)
            span = Span(line, col, line, col + n, filename)
            if word in KEYWORDS:
                if word == "object":
                    objects.append(len(tokens))
                append(Token("kw", word, span))
            elif word[0].isupper():
                append(Token("var", word, span))
            elif word[0].isalpha() or word[0] == "_":
                append(Token("ident", word, span))
            else:
                raise InputError(f"unexpected character {word[0]!r}",
                                 Span(line, col, line, col + 1, filename))
            col += n
        elif sym:
            n = len(sym)
            append(Token(sym, sym, Span(line, col, line, col + n, filename)))
            col += n
        elif newline:
            line += 1
            col = 1
        elif num:
            n = len(num)
            append(Token("int", num, Span(line, col, line, col + n, filename)))
            col += n
        elif other:
            raise InputError(f"unexpected character {other!r}",
                             Span(line, col, line, col + 1, filename))
    append(Token("eof", "", Span(line, col, line, col, filename)))
    # `object` is only structural in the section header `object constants`;
    # elsewhere it is an ordinary identifier (a popular attribute name).
    for k in objects:
        nxt = tokens[k + 1]
        if not (nxt.kind == "kw" and nxt.text == "constants"):
            tokens[k] = Token("ident", "object", tokens[k].span)
    return tokens
