"""The batched scheduler against the edge-by-edge reference, bit for bit.

Networks are single-parent trees, optionally with units in which a rule
is headed by two siblings (``P -> A``, ``P -> B``, ``A, B -> C``), which
makes preprocessing join the siblings' clauses through a group node.
Evidence mixes marginal, conditional and linear constraint sets.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rcndl import (
    ConditionalConstraint,
    EvidenceSet,
    GREATEST_GRADIENT,
    LinearConstraint,
    MarginalConstraint,
    PROGRAM_ORDER,
    Scope,
    apply_constraint,
    parse_program,
    preprocess,
    run_reasoning,
)
from tests import reference_scheduler as reference
from tests.conftest import outcome

PROB = st.integers(50, 950).map(lambda k: k / 1000)


@st.composite
def networks(draw):
    """Model text plus the scope of every rule clause, as (head..., body)."""
    n = draw(st.integers(2, 7))
    p = draw(PROB)
    lines = [f"?- X0 : [{1 - p!r}, {p!r}]."]
    rules = []
    for i in range(1, n):
        parent = draw(st.integers(0, i - 1))
        lines.append(f"X{parent} -> X{i} : [{draw(PROB)}, {draw(PROB)}].")
        rules.append((f"X{parent}", f"X{i}"))
    variables = [f"X{i}" for i in range(n)]
    for u in range(draw(st.integers(0, 2))):
        hub = draw(st.sampled_from(variables))
        a, b, c = f"A{u}", f"B{u}", f"C{u}"
        lines.append(f"{hub} -> {a} : [{draw(PROB)}, {draw(PROB)}].")
        lines.append(f"{hub} -> {b} : [{draw(PROB)}, {draw(PROB)}].")
        cond = ", ".join(str(draw(PROB)) for _ in range(4))
        lines.append(f"{a}, {b} -> {c} : [{cond}].")
        rules += [(hub, a), (hub, b), (a, b, c)]
        variables += [a, b, c]
    observed = draw(st.lists(st.sampled_from(variables), min_size=1,
                             max_size=4, unique=True))
    lines += [f"{v}." for v in observed]
    return "\n".join(lines), rules, observed


def constraint(draw, rules, observed):
    kind = draw(st.sampled_from(("marginal", "conditional", "linear")))
    if kind == "marginal":
        v = draw(PROB)
        return MarginalConstraint(Scope((draw(st.sampled_from(observed)),)),
                                  (1.0 - v, v))
    scope = Scope(draw(st.sampled_from(rules)))
    if kind == "conditional":
        cond_vars = draw(st.lists(st.sampled_from(scope.vars[:-1]),
                                  min_size=1, unique=True))
        condition = tuple((v, draw(st.booleans())) for v in cond_vars)
        return ConditionalConstraint(scope.vars[-1], condition, draw(PROB))
    # rows whose right-hand sides some full-support table over the scope meets
    weights = np.array([draw(PROB) for _ in range(scope.n_states)])
    q = weights / weights.sum()
    coefficient = st.integers(0, 3).map(float)
    rows = np.array([[draw(coefficient) for _ in range(scope.n_states)]
                     for _ in range(draw(st.integers(1, 2)))])
    return LinearConstraint(scope, tuple(map(tuple, rows.tolist())),
                            tuple((rows @ q).tolist()))


@st.composite
def problems(draw):
    text, rules, observed = draw(networks())
    cons = tuple(constraint(draw, rules, observed)
                 for _ in range(draw(st.integers(1, 4))))
    ev = EvidenceSet(
        cons,
        policy=draw(st.sampled_from((GREATEST_GRADIENT, PROGRAM_ORDER))),
        max_passes=draw(st.integers(1, 4)),
        default_threshold=draw(st.sampled_from((1e-2, 1e-5, 1e-9))),
    )
    return preprocess(parse_program(text)), ev


def same_tables(a, b):
    return len(a.tables) == len(b.tables) and all(
        x.scope == y.scope and x.probs.tobytes() == y.probs.tobytes()
        for x, y in zip(a.tables, b.tables)
    )


@settings(max_examples=150, deadline=None)
@given(problems())
def test_run_reasoning_matches_edge_by_edge_reference(problem):
    net, ev = problem
    got = outcome(run_reasoning, net, ev)
    want = outcome(reference.run_reasoning, net, ev)
    if isinstance(want[0], type):
        assert got == want
        return
    (post, trace), (ref_post, ref_trace) = got, want
    assert same_tables(post, ref_post)
    assert trace.steps == ref_trace.steps
    assert trace.passes == ref_trace.passes
    assert trace.converged == ref_trace.converged
    assert trace.final_gradients == ref_trace.final_gradients


@settings(max_examples=50, deadline=None)
@given(problems())
def test_apply_constraint_matches_edge_by_edge_reference(problem):
    net, ev = problem
    got = outcome(apply_constraint, net, ev.constraints[0])
    want = outcome(reference.apply_constraint, net, ev.constraints[0])
    if isinstance(want[0], type):
        assert got == want
        return
    assert got[1] == want[1]
    assert same_tables(got[0], want[0])
