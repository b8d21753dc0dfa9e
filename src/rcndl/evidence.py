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

_THRESHOLD = rf"\s*(?:threshold\s+({_NUM})\s*)?$"
# P(X) = v, or with the conditions of P(X | Y, !Z) = v
_PROB_RE = re.compile(
    rf"^P\(\s*({_IDENT})\s*(?:\|\s*([^)]+))?\)\s*=\s*({_NUM}){_THRESHOLD}")
_BAYES_RE = re.compile(rf"^({_IDENT})\s*=\s*(true|false){_THRESHOLD}",
                       re.IGNORECASE)


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
    m = _PROB_RE.match(line) or _BAYES_RE.match(line)
    if not m:
        raise ParseError(f"unrecognized evidence line: {line!r}", line_no, 1)
    *fields, thr = m.groups()
    threshold = float(thr) if thr else None
    if thr and not 0.0 <= threshold < float("inf"):
        raise ParseError(f"threshold {thr} must be finite and non-negative",
                         line_no, 1)

    var, value = fields[0], fields[-1]
    if m.re is _PROB_RE and fields[1] is not None:
        condition = []
        for part in fields[1].split(","):
            part = part.strip()
            neg = part.startswith("!")
            name = part[1:].strip() if neg else part
            if not re.fullmatch(_IDENT, name):
                raise ParseError(f"bad condition variable {part!r}", line_no, 1)
            condition.append((name, not neg))
        return ConditionalConstraint(
            target=var,
            condition=tuple(condition),
            prob=_prob(value, line_no),
            threshold=threshold,
        )

    # P(X) = v, or the Bayesian shorthand X = true|false
    if m.re is _BAYES_RE:
        v = 1.0 if value.lower() == "true" else 0.0
    else:
        v = _prob(value, line_no)
    return MarginalConstraint(
        scope=Scope((var,)),
        targets=(1.0 - v, v),
        threshold=threshold,
    )
