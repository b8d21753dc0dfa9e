"""Generated programs run through reasoning with freely drawn evidence.

Each draw is a program from ``tests/test_preprocess.py``'s
``clause_programs()`` with a marginal constraint on every observation,
one conditional constraint per rule (its body given every head variable
true) and up to two linear sets over clause scopes, with rows of small
integers.  The targets and right-hand sides are drawn without regard to
the program, so zero targets, Bayesian limits, infeasible and
contradictory sets all occur.
Preprocessing must end in a network or an ``RcndlError``.  The evidence
is well formed, so reasoning must end in a result, or in an
``InfeasibleEvidenceError`` or ``ConvergenceError`` that names what
cannot be met; never in any other exception.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rcndl import (
    GREATEST_GRADIENT,
    PROGRAM_ORDER,
    ConditionalConstraint,
    ConvergenceError,
    EvidenceSet,
    InfeasibleEvidenceError,
    LinearConstraint,
    MarginalConstraint,
    RcndlError,
    parse_program,
    posterior_marginal,
    preprocess,
    run_reasoning,
)
from rcndl.preprocess import GROUP, OBS, RULE
from tests.test_preprocess import clause_programs

MAX_PASSES = 5


def evidence(draw, net):
    """A marginal set per observation, a conditional per rule and up to
    two linear sets."""
    constraints = []
    for node in net.nodes:
        if node.kind == OBS:
            weights = [draw(st.integers(0, 4))
                       for _ in range(node.scope.n_states)]
            if not any(weights):
                weights[-1] = 1
            constraints.append(MarginalConstraint(
                node.scope, tuple(w / sum(weights) for w in weights)))
        elif node.kind == RULE:  # scope: the head, then the body
            *head, body = node.scope.vars
            constraints.append(ConditionalConstraint(
                body, tuple((v, True) for v in head),
                draw(st.sampled_from((0.0, 0.1, 0.5, 0.9, 1.0)))))
    clauses = [node.scope for node in net.nodes if node.kind != GROUP]
    for _ in range(draw(st.integers(0, 2))):
        scope = draw(st.sampled_from(clauses))
        row = st.lists(st.integers(-2, 2), min_size=scope.n_states,
                       max_size=scope.n_states).map(tuple)
        rows = draw(st.lists(row, min_size=1, max_size=2))
        rhs = [draw(st.floats(-2.0, 2.0)) for _ in rows]
        constraints.append(LinearConstraint(scope, tuple(rows), tuple(rhs)))
    return EvidenceSet(
        tuple(constraints),
        policy=draw(st.sampled_from((GREATEST_GRADIENT, PROGRAM_ORDER))),
        max_passes=MAX_PASSES,
        default_threshold=draw(st.sampled_from((1e-3, 1e-8))))


@settings(max_examples=150, deadline=None)
@given(clause_programs(), st.data())
def test_generated_programs_reason_or_raise_a_library_error(text, data):
    try:
        net = preprocess(parse_program(text))
    except RcndlError:
        return
    ev = evidence(data.draw, net)
    try:
        post, trace = run_reasoning(net, ev)
    except (InfeasibleEvidenceError, ConvergenceError):
        return
    assert trace.passes <= MAX_PASSES
    for v in post.introducer:
        p = posterior_marginal(post, v)
        assert np.isfinite(p).all() and abs(sum(p) - 1.0) < 1e-9, (text, v, p)
