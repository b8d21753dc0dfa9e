"""Lexer and recursive-descent parser for RCNDL source text.

The language has three clause forms, each terminated by a period:

    ?- A : [0.3, 0.7]; B, C : [ ... ].     query (root cliques with priors)
    A, B -> C : [p00, p01, p10, p11].      inference rule
    D, E.                                  observation declaration

Identifiers start with a letter and continue with letters, digits or
underscores.  ``%`` starts a comment running to end of line.  Probability
literals must lie in [0, 1]; the sentinel ``-1.0`` is accepted to mean
"unknown" and is resolved later by the preprocessor.

The lexer is one pass yielding ``(kind, text, offset)``; line and column are
computed only for a clause's position or an error.  A well-formed rule or
observation clause (names, arrow, brackets and numbers with only whitespace
between) is one token, matched where a clause starts and converted with
``split``; so is a well-formed probability list (comments allowed).  Any
other clause is lexed token by token up to its period, and a clause or list
that fails a check is read again token by token, for the same error either
way.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ArityError, ParseError
from .model import (
    Clause,
    ObservationClause,
    QueryClause,
    RuleClause,
    Scope,
    SourcePos,
    UNKNOWN,
    trusted_scope,
)

_SKIP = r"(?:\s|%[^\n]*(?![^\n]))*"  # a comment ends at a newline, never earlier
_NUMBER = r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?"
_NAME = r"[A-Za-z][A-Za-z0-9_]*"
_CLAUSE_RE = re.compile(  # a rule or observation clause, no comment inside
    rf"{_SKIP}(?P<names>{_NAME}(?:\s*,\s*{_NAME})*)\s*(?:->\s*(?P<body>{_NAME})"
    rf"\s*:\s*\[(?P<cond>\s*{_NUMBER}(?:\s*,\s*{_NUMBER})*)\s*\]\s*)?\."
)
_TOKEN_RE = re.compile(  # a token with the whitespace after it
    rf"""(?:
      (?P<ident>{_NAME})
    | (?P<list>\[{_SKIP}{_NUMBER}(?:{_SKIP},{_SKIP}{_NUMBER})*{_SKIP}\])
    | (?P<punct>[\[\],;:.])
    | (?P<arrow>->)
    | (?P<number>{_NUMBER})
    | (?P<query>\?\s*-)
    | \s+ | %[^\n]*
    | (?P<bad>.)
    )\s*""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class SourceProgram:
    """The parsed clause list, in source order."""

    clauses: tuple[Clause, ...]

    @property
    def query(self) -> QueryClause | None:
        for c in self.clauses:
            if isinstance(c, QueryClause):
                return c
        return None


class _Parser:
    """Tokens are ``(kind, text, offset)``, a ``clause`` token holding its
    match in place of its text; a punctuation mark is its own kind."""

    def __init__(self, text: str):
        self.src = text
        self.line, self.bol, self.mark, self.i = 1, 0, 0, 0
        self.tokens = self.lex(0, len(text), True) + [("eof", "", len(text))]

    def lex(self, start: int, end: int, clauses: bool = False) -> list[tuple]:
        """The tokens from ``start`` to ``end``.  With ``clauses``, a clause
        start (``start``, or after a period) may give one ``clause`` token,
        its match in place of its text; a period ends the clause."""
        tokens, at = [], start
        while at < end:
            m = clauses and _CLAUSE_RE.match(self.src, at, end)
            if m:
                tokens.append(("clause", m, m.start("names")))
                at = m.end()
                continue
            for m in _TOKEN_RE.finditer(self.src, at, end):
                kind = m.lastgroup
                if kind == "bad":
                    raise ParseError(f"unexpected character {m.group(kind)!r}",
                                     *self.where(m.start()))
                if kind:  # not whitespace or a comment
                    text = m.group(kind)
                    tokens.append((text if kind == "punct" else kind, text, m.start()))
                    if text == "." and clauses:
                        break
            at = m.end()
        return tokens

    def alone(self, tokens: list[tuple], end: int, read):
        """``read()`` over ``tokens`` alone, then go on after them.  The
        file's tokens are set aside, not spliced: linear time."""
        outer, self.tokens, self.i = (self.tokens, self.i + 1), [
            *tokens, ("eof", "", end)], 0
        value = read()
        self.tokens, self.i = outer
        return value

    def where(self, at: int) -> tuple[int, int]:
        """Line and column of ``at``, counted on from the offset asked before,
        which is never later: clause starts, then at most one error."""
        newlines = self.src.count("\n", self.mark, at)
        if newlines:
            self.line += newlines
            self.bol = self.src.rfind("\n", self.mark, at) + 1
        self.mark = at
        return self.line, at - self.bol + 1

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise self.unexpected(repr(kind))
        self.i += 1
        return tok

    def unexpected(self, wanted: str) -> ParseError:
        kind, text, at = self.tokens[self.i]
        found = "[" if kind == "list" else text or "end of input"
        return ParseError(f"expected {wanted}, found {found!r}", *self.where(at))

    # clause := "?-" query "." | head "->" body "." | observations "."
    def program(self) -> SourceProgram:
        clauses: list[Clause] = []
        seen_query = False
        while self.tokens[self.i][0] != "eof":
            clause = self.clause()
            if isinstance(clause, QueryClause):
                if seen_query:
                    raise ParseError("multiple query clauses are not supported",
                                     clause.pos.line, clause.pos.column)
                seen_query = True
            clauses.append(clause)
        return SourceProgram(tuple(clauses))

    def clause(self) -> Clause:
        kind, m, at = self.tokens[self.i]
        pos = SourcePos(*self.where(at))
        if kind == "clause":
            clause = one_token_clause(m, pos)
            if clause is None:  # read it alone token by token, for the message
                return self.alone(self.lex(at, m.end()), m.end(), self.clause)
            self.i += 1
            return clause
        if kind == "query":
            self.i += 1
            cliques = [self.clique(pos)]
            while self.tokens[self.i][0] == ";":
                self.i += 1
                cliques.append(self.clique(pos))
            self.expect(".")
            return QueryClause(tuple(cliques), pos)
        names = self.proposition_list()
        kind = self.tokens[self.i][0]
        if kind == "arrow":
            self.i += 1
            body = self.expect("ident")[1]
            self.expect(":")
            head = self.scope(names, "rule head", pos)
            cond = self.pr_list(head.n_states, "rule head")
            self.expect(".")
            return RuleClause(head, body, cond, pos)
        if kind == ".":
            self.i += 1
            return ObservationClause(
                self.scope(names, "observation clause", pos).vars, pos)
        raise self.unexpected("'->' or '.'")

    def clique(self, pos: SourcePos) -> tuple[Scope, tuple[float, ...]]:
        names = self.proposition_list()
        self.expect(":")
        scope = self.scope(names, "query clique", pos)
        return scope, self.pr_list(scope.n_states, "query clique")

    def scope(self, names: list[str], what: str, pos: SourcePos) -> Scope:
        if len(set(names)) != len(names):
            raise ParseError(f"duplicate variable in {what}", pos.line, pos.column)
        return trusted_scope(tuple(names))

    def proposition_list(self) -> list[str]:
        names = [self.expect("ident")[1]]
        while self.tokens[self.i][0] == ",":
            self.i += 1
            names.append(self.expect("ident")[1])
        return names

    def pr_list(self, expected: int, what: str) -> tuple[float, ...]:
        kind, text, at = self.tokens[self.i]
        if kind == "list":
            values = checked_values(text[1:-1], expected)
            if values is not None:
                self.i += 1
                return values
            # otherwise read it alone token by token, for the same message
            end = at + len(text)
            return self.alone([("[", "[", at), *self.lex(at + 1, end)], end,
                              lambda: self.pr_list(expected, what))
        open_at = self.expect("[")[2]
        values = [self.pr()]
        while self.tokens[self.i][0] == ",":
            self.i += 1
            values.append(self.pr())
        self.expect("]")
        if len(values) != expected:
            raise ArityError("%d:%d: probability list for %s needs %d entries, got %d"
                             % (*self.where(open_at), what, expected, len(values)))
        return tuple(values)

    def pr(self) -> float:
        _, text, at = self.expect("number")
        value = float(text)
        if not (0.0 <= value <= 1.0 or value == UNKNOWN):
            raise ParseError(f"probability literal {text} outside [0, 1]",
                             *self.where(at))
        return value


def one_token_clause(m: re.Match, pos: SourcePos) -> Clause | None:
    """The clause of a ``clause`` token, or None where a check fails."""
    names, body, cond = m.group("names", "body", "cond")
    names = tuple(map(str.strip, names.split(",")))
    if len(names) > 1 and len(set(names)) != len(names):
        return None
    if cond is None:
        return ObservationClause(names, pos)
    values = checked_values(cond, 1 << len(names))
    return None if values is None else RuleClause(trusted_scope(names), body,
                                                  values, pos)


def checked_values(text: str, expected: int) -> tuple[float, ...] | None:
    """The ``expected`` probabilities between commas in ``text``, or None
    where a check fails."""
    try:
        values = tuple(map(float, text.split(",")))
    except ValueError:  # a comment, or a space float() does not strip
        return None
    in_range = 0.0 <= min(values) and max(values) <= 1.0 or all(
        0.0 <= v <= 1.0 or v == UNKNOWN for v in values)
    return values if in_range and len(values) == expected else None


def parse_program(text: str) -> SourceProgram:
    """Parse RCNDL source into a clause list, or raise a positioned ParseError."""
    return _Parser(text).program()


def render_program(program: SourceProgram) -> str:
    """Canonical source text, each float as its shortest round-trip literal;
    ``parse_program(render_program(p))`` equals ``p`` (positions aside)."""
    lines = []
    for clause in program.clauses:
        if isinstance(clause, QueryClause):
            parts = [
                f"{', '.join(scope.vars)} : [{', '.join(repr(v) for v in prior)}]"
                for scope, prior in clause.cliques
            ]
            lines.append("?- " + "; ".join(parts) + ".")
        elif isinstance(clause, RuleClause):
            lines.append(
                f"{', '.join(clause.head.vars)} -> {clause.body} : "
                f"[{', '.join(repr(v) for v in clause.cond)}]."
            )
        else:
            lines.append(f"{', '.join(clause.vars)}.")
    return "\n".join(lines) + ("\n" if lines else "")
