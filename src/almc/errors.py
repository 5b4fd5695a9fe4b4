"""Shared error and diagnostic types.

Every front-end object carries a source span so diagnostics can point at the
offending text.  Exit-code policy lives in the CLI; here we only distinguish
input errors (bad text) from semantic errors (well-formed text that violates
a language rule) and budget exhaustion.
"""

from __future__ import annotations

from almc.records import field, record


@record(frozen=True, slots=True)
class Span:
    """Half-open source region (1-based lines and columns)."""

    line: int = 0
    col: int = 0
    end_line: int = 0
    end_col: int = 0
    filename: str = ""

    def __init__(self, line=0, col=0, end_line=0, end_col=0, filename=""):
        # one per token: see the slot setters below
        _line(self, line)
        _col(self, col)
        _end_line(self, end_line)
        _end_col(self, end_col)
        _filename(self, filename)

    def __str__(self) -> str:
        where = f"{self.line}:{self.col}"
        return f"{self.filename}:{where}" if self.filename else where


# the `__set__` of each slot fills a frozen record faster than
# `object.__setattr__` does
_line, _col, _end_line, _end_col, _filename = (
    Span.__dict__[name].__set__ for name in Span.__slots__)
NO_SPAN = Span()


class AlmError(Exception):
    """Base class for all language-level errors."""

    def __init__(self, message: str, span: Span = NO_SPAN):
        self.message = message
        self.span = span
        super().__init__(f"{span}: {message}" if span != NO_SPAN else message)


class InputError(AlmError):
    """Lexical or syntactic error in the source text."""


class SemanticError(AlmError):
    """Declaration, typing, or coherence violation."""


class BudgetExceeded(AlmError):
    """A node or wall-clock budget was exhausted before completion."""


@record
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str
    span: Span = NO_SPAN

    def __str__(self) -> str:
        loc = f"{self.span}: " if self.span != NO_SPAN else ""
        return f"{loc}{self.severity}: {self.message}"


@record
class DiagnosticSink:
    """Collects diagnostics; errors may be turned into exceptions by callers."""

    items: list[Diagnostic] = field(default_factory=list)

    def error(self, message: str, span: Span = NO_SPAN) -> None:
        self.items.append(Diagnostic("error", message, span))

    def warning(self, message: str, span: Span = NO_SPAN) -> None:
        self.items.append(Diagnostic("warning", message, span))

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.items if d.severity == "error"]

    def raise_if_errors(self) -> None:
        errs = self.errors
        if errs:
            # the exception prefixes the first location; say it only once
            first = f"{errs[0].severity}: {errs[0].message}"
            raise SemanticError("; ".join([first] + [str(e) for e in errs[1:]]),
                                errs[0].span)
