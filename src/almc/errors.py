"""Shared error and diagnostic types.

Every front-end object carries a source span so diagnostics can point at the
offending text.  Exit-code policy lives in the CLI; here we only distinguish
input errors (bad text) from semantic errors (well-formed text that violates
a language rule) and budget exhaustion.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Span:
    """Half-open source region (1-based lines and columns)."""

    line: int = 0
    col: int = 0
    end_line: int = 0
    end_col: int = 0
    filename: str = ""

    def __str__(self) -> str:
        where = f"{self.line}:{self.col}"
        return f"{self.filename}:{where}" if self.filename else where


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


@dataclass
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str
    span: Span = NO_SPAN

    def __str__(self) -> str:
        loc = f"{self.span}: " if self.span != NO_SPAN else ""
        return f"{loc}{self.severity}: {self.message}"


@dataclass
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
