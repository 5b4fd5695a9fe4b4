import random

import pytest
from hypothesis import given, strategies as st

from almc.errors import InputError, Span
from almc.syntax.lexer import KEYWORDS, SYMBOLS, Token, tokenize

from conftest import CORPUS
from test_parser import NEGATIVE


def kinds(text):
    return [(t.kind, t.text) for t in tokenize(text)[:-1]]


def test_empty_input_is_just_eof():
    toks = tokenize("")
    assert len(toks) == 1 and toks[0].kind == "eof"


def test_identifier_variable_number():
    assert kinds("loc_in Box 42") == [
        ("ident", "loc_in"), ("var", "Box"), ("int", "42")]


def test_keywords_are_reserved():
    assert kinds("module m") == [("kw", "module"), ("ident", "m")]
    assert kinds("causes impossible") == [
        ("kw", "causes"), ("kw", "impossible")]


def test_object_is_soft_keyword():
    # structural only in the header "object constants"
    assert kinds("object constants")[0] == ("kw", "object")
    assert kinds("object = nucleus")[0] == ("ident", "object")
    assert kinds("object")[0] == ("ident", "object")


def test_greedy_symbols():
    assert [k for k, _ in kinds("a :: b")] == ["ident", "::", "ident"]
    assert [k for k, _ in kinds("[0..8]")] == ["[", "int", "..", "int", "]"]
    assert [k for k, _ in kinds("X != Y")] == ["var", "!=", "var"]
    assert [k for k, _ in kinds("s -> t")] == ["ident", "->", "ident"]


def test_comments_run_to_end_of_line():
    assert kinds("a % rest is ignored :: ->\nb") == [
        ("ident", "a"), ("ident", "b")]


def test_spans_locate_tokens():
    toks = tokenize("ab\n  cd", "f.alm")
    assert toks[0].span.line == 1 and toks[0].span.col == 1
    assert toks[1].span.line == 2 and toks[1].span.col == 3
    assert toks[1].span.filename == "f.alm"


def test_unexpected_character_is_located():
    with pytest.raises(InputError) as exc:
        tokenize("a @ b")
    assert exc.value.span.col == 3


_WORDS = st.one_of(
    st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True),
    st.from_regex(r"[A-Z][a-z0-9_]{0,6}", fullmatch=True),
    st.integers(min_value=0, max_value=9999).map(str),
    st.sampled_from(sorted(KEYWORDS)),
    st.sampled_from(SYMBOLS),
)


@given(st.lists(_WORDS, max_size=30))
def test_space_separated_tokens_round_trip(words):
    text = " ".join(words)
    toks = tokenize(text)[:-1]
    assert [t.text for t in toks] == words
    # re-tokenizing the token texts is a fixpoint
    assert [t.text for t in tokenize(" ".join(t.text for t in toks))[:-1]] \
        == [t.text for t in toks]


@given(st.lists(_WORDS, max_size=30), st.integers(0, 3))
def test_whitespace_and_comments_are_invisible(words, style):
    sep = {0: " ", 1: "\t", 2: "\n", 3: " %c\n"}[style]
    text = sep.join(words)
    assert [t.text for t in tokenize(text)[:-1]] == words


def test_token_equality_ignores_span():
    assert tokenize("abc")[0] == Token("ident", "abc")


@pytest.mark.parametrize("text, col, char", [
    ("f : a -> [0..²]", 14, "²"),
    ("1²", 2, "²"),
    ("x = ½", 5, "½"),
], ids=["range-bound", "after-a-number", "vulgar-fraction"])
def test_non_decimal_digit_is_an_unexpected_character(text, col, char):
    # `str.isdigit` accepts these but `int` does not: no int token
    with pytest.raises(InputError) as exc:
        tokenize(text)
    assert exc.value.message == f"unexpected character {char!r}"
    assert (exc.value.span.line, exc.value.span.col) == (1, col)


def test_unicode_letters_and_decimal_digits():
    assert kinds("café ǅx ße a² ٣٤ Été") == [
        ("ident", "café"), ("ident", "ǅx"), ("ident", "ße"),
        ("ident", "a²"), ("int", "٣٤"), ("var", "Été")]


def test_eof_after_a_trailing_comment_is_where_the_comment_starts():
    # a comment takes no columns
    eof = tokenize("ab % note")[-1]
    assert (eof.kind, eof.span.line, eof.span.col) == ("eof", 1, 4)
    eof = tokenize("ab % note\n  ")[-1]
    assert (eof.span.line, eof.span.col) == (2, 3)


# ------------------------------------------------- reference scanner

def reference_tokenize(text, filename=""):
    """The character-by-character scanner that the one-pattern lexer
    replaced, kept as the reference for its token kinds, texts and spans."""
    tokens = []
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
            tokens.append(Token("int", text[i:j], Span(
                start_line, start_col, line, start_col + (j - i), filename)))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            span = Span(start_line, start_col, line, start_col + (j - i),
                        filename)
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
                tokens.append(Token(sym, sym, Span(
                    start_line, start_col, line, start_col + len(sym),
                    filename)))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise InputError(f"unexpected character {c!r}",
                             Span(line, col, line, col + 1, filename))
    tokens.append(Token("eof", "", Span(line, col, line, col, filename)))
    for k, tok in enumerate(tokens):
        if tok.kind == "kw" and tok.text == "object":
            nxt = tokens[k + 1]
            if not (nxt.kind == "kw" and nxt.text == "constants"):
                tokens[k] = Token("ident", tok.text, tok.span)
    return tokens


def _outcome(lex, text):
    """Kinds, texts and spans of the tokens (a token's equality leaves its
    span out), or the error's message and span."""
    try:
        return [(t.kind, t.text, t.span) for t in lex(text, "f.alm")]
    except InputError as exc:
        return exc.message, exc.span


def _expected(text):
    """The reference's outcome, except that a non-decimal digit (`²`) in
    what the reference lexed as a number is an unexpected character."""
    want = _outcome(reference_tokenize, text)
    before = want
    if not isinstance(want, list):  # the tokens before the error
        line, col = want[1].line, want[1].col
        at = sum(len(s) + 1 for s in text.split("\n")[:line - 1]) + col - 1
        before = _outcome(reference_tokenize, text[:at])
    for kind, word, span in before:
        if kind == "int" and not word.isdecimal():
            k = next(k for k, c in enumerate(word) if not c.isdecimal())
            col = span.col + k
            return (f"unexpected character {word[k]!r}",
                    Span(span.line, col, span.line, col + 1, "f.alm"))
    return want


def _assert_same(text):
    # spans compare by every field, the file name included
    assert _outcome(tokenize, text) == _expected(text), text


@pytest.mark.parametrize("path", sorted(CORPUS.iterdir()),
                         ids=lambda p: p.name)
def test_corpus_lexes_as_by_the_reference(path):
    _assert_same(path.read_text(encoding="utf-8"))


def test_negative_sources_lex_as_by_the_reference():
    for text in NEGATIVE:
        _assert_same(text)


_ALPHABET = (list("abxzABXZ059_:.,()[]=<>+-*!@ \t\r\n%")
             + list("\u00e9\u00df\u01c5\u0663\u00b2\u00bd$")
             + ["object", "constants", "object constants", "module", "X1"])


def test_random_strings_lex_as_by_the_reference():
    rng = random.Random(23)
    for _ in range(20_000):
        _assert_same("".join(rng.choice(_ALPHABET)
                             for _ in range(rng.randrange(25))))
