"""Evidence file parsing.

One constraint per line.  Supported forms:

    P(X) = 0.95                       marginal constraint on one variable
    X = true                          Bayesian shorthand for P(X) = 1
    X = false                         Bayesian shorthand for P(X) = 0
    P(X | Y, !Z) = 0.7                conditional constraint; '!' negates

Any line may end with ``threshold t`` to set that constraint's gradient
threshold.  ``#`` starts a comment; blank lines are ignored.
"""

from __future__ import annotations

import re

from .errors import ParseError, RcndlError
from .model import (
    ConditionalConstraint,
    ConstraintSet,
    MarginalConstraint,
    Scope,
)

_IDENT = r"[A-Za-z][A-Za-z0-9_]*"
_NUM = r"[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?"

_MARGINAL_RE = re.compile(
    rf"^P\(\s*({_IDENT})\s*\)\s*=\s*({_NUM})\s*(?:threshold\s+({_NUM})\s*)?$"
)
_BAYES_RE = re.compile(
    rf"^({_IDENT})\s*=\s*(true|false)\s*(?:threshold\s+({_NUM})\s*)?$",
    re.IGNORECASE,
)
_CONDITIONAL_RE = re.compile(
    rf"^P\(\s*({_IDENT})\s*\|\s*([^)]+)\)\s*=\s*({_NUM})\s*"
    rf"(?:threshold\s+({_NUM})\s*)?$"
)


def _prob(text: str, line_no: int) -> float:
    v = float(text)
    if not 0.0 <= v <= 1.0:
        raise ParseError(f"probability {text} outside [0, 1]", line_no, 1)
    return v


def parse_evidence(text: str) -> list[ConstraintSet]:
    """Parse an evidence file into constraint sets, in file order."""
    constraints: list[ConstraintSet] = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            constraints.append(_constraint(line, line_no))
        except ParseError:
            raise
        except RcndlError as exc:  # grammatical, but not a valid constraint
            raise ParseError(str(exc), line_no, 1) from exc
    return constraints


def _constraint(line: str, line_no: int) -> ConstraintSet:
    m = _CONDITIONAL_RE.match(line)
    if m:
        target, conds, value, thr = m.groups()
        condition = []
        for part in conds.split(","):
            part = part.strip()
            neg = part.startswith("!")
            name = part[1:].strip() if neg else part
            if not re.fullmatch(_IDENT, name):
                raise ParseError(f"bad condition variable {part!r}", line_no, 1)
            condition.append((name, not neg))
        return ConditionalConstraint(
            target=target,
            condition=tuple(condition),
            prob=_prob(value, line_no),
            threshold=float(thr) if thr else None,
        )

    m = _MARGINAL_RE.match(line)
    if m:
        var, value, thr = m.groups()
        v = _prob(value, line_no)
        return MarginalConstraint(
            scope=Scope((var,)),
            targets=(1.0 - v, v),
            threshold=float(thr) if thr else None,
        )

    m = _BAYES_RE.match(line)
    if m:
        var, value, thr = m.groups()
        v = 1.0 if value.lower() == "true" else 0.0
        return MarginalConstraint(
            scope=Scope((var,)),
            targets=(1.0 - v, v),
            threshold=float(thr) if thr else None,
        )

    raise ParseError(f"unrecognized evidence line: {line!r}", line_no, 1)
