"""The parser as it was before the one-pass lexer: one regex match and one
``Token`` per lexeme.  Kept verbatim as the reference that the parser in
``rcndl.parser`` must agree with, positions and error texts included (see
``tests/test_parser.py``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from rcndl.errors import ArityError, ParseError
from rcndl.model import (
    Clause,
    ObservationClause,
    QueryClause,
    RuleClause,
    Scope,
    SourcePos,
    UNKNOWN,
)
from rcndl.parser import SourceProgram

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>%[^\n]*)
    | (?P<query>\?\s*-)
    | (?P<arrow>->)
    | (?P<number>-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)
    | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
    | (?P<punct>[\[\],;:.])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind not in ("ws", "comment"):
            tok_kind = lexeme if kind == "punct" else kind
            tokens.append(Token(tok_kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line, tok.column,
            )
        return self.next()

    # clause := "?-" query "." | head "->" body "." | observations "."
    def program(self) -> SourceProgram:
        clauses: list[Clause] = []
        seen_query = False
        while self.peek().kind != "eof":
            clause = self.clause()
            if isinstance(clause, QueryClause):
                if seen_query:
                    raise ParseError(
                        "multiple query clauses are not supported",
                        clause.pos.line, clause.pos.column,
                    )
                seen_query = True
            clauses.append(clause)
        return SourceProgram(tuple(clauses))

    def clause(self) -> Clause:
        tok = self.peek()
        pos = SourcePos(tok.line, tok.column)
        if tok.kind == "query":
            self.next()
            cliques = [self.clique()]
            while self.peek().kind == ";":
                self.next()
                cliques.append(self.clique())
            self.expect(".")
            return QueryClause(tuple(cliques), pos)

        names = self.proposition_list()
        tok = self.peek()
        if tok.kind == "arrow":
            self.next()
            body = self.expect("ident").text
            self.expect(":")
            head = Scope(names)
            cond = self.pr_list(head.n_states, "rule head")
            self.expect(".")
            return RuleClause(head, body, cond, pos)
        if tok.kind == ".":
            self.next()
            if len(set(names)) != len(names):
                raise ParseError("duplicate variable in observation clause",
                                 pos.line, pos.column)
            return ObservationClause(tuple(names), pos)
        raise ParseError(
            f"expected '->' or '.', found {tok.text or 'end of input'!r}",
            tok.line, tok.column,
        )

    def clique(self) -> tuple[Scope, tuple[float, ...]]:
        names = self.proposition_list()
        self.expect(":")
        scope = Scope(names)
        return scope, self.pr_list(scope.n_states, "query clique")

    def proposition_list(self) -> list[str]:
        names = [self.expect("ident").text]
        while self.peek().kind == ",":
            self.next()
            names.append(self.expect("ident").text)
        return names

    def pr_list(self, expected: int, what: str) -> tuple[float, ...]:
        open_tok = self.expect("[")
        values = [self.pr()]
        while self.peek().kind == ",":
            self.next()
            values.append(self.pr())
        self.expect("]")
        if len(values) != expected:
            raise ArityError(
                f"{open_tok.line}:{open_tok.column}: probability list for "
                f"{what} needs {expected} entries, got {len(values)}"
            )
        return tuple(values)

    def pr(self) -> float:
        tok = self.expect("number")
        value = float(tok.text)
        if value == UNKNOWN:
            return UNKNOWN
        if not 0.0 <= value <= 1.0:
            raise ParseError(
                f"probability literal {tok.text} outside [0, 1]",
                tok.line, tok.column,
            )
        return value


def parse_program(text: str) -> SourceProgram:
    """Parse RCNDL source into a clause list, or raise a positioned ParseError."""
    return _Parser(tokenize(text)).program()
