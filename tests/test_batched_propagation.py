"""The batched scheduler against the edge-by-edge reference, bit for bit.

Networks are single-parent trees, optionally with units in which a rule
is headed by two siblings (``P -> A``, ``P -> B``, ``A, B -> C``), which
makes preprocessing join the siblings' clauses through a group node, and
optionally with a second root clique and rules of its own, disconnected
from the first tree.  Evidence mixes marginal, conditional and linear
constraint sets.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcndl import (
    ConditionalConstraint,
    EvidenceSet,
    GREATEST_GRADIENT,
    JointTable,
    LinearConstraint,
    MarginalConstraint,
    PROGRAM_ORDER,
    Scope,
    apply_constraint,
    parse_program,
    preprocess,
    propagate_clause_update,
    run_reasoning,
    scheduler,
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
    if draw(st.booleans()):  # a second tree, sharing no variable with X0's
        q = draw(PROB)
        lines[0] = lines[0][:-1] + f"; Y0 : [{1 - q!r}, {q!r}]."
        m = draw(st.integers(1, 3))
        for i in range(1, m):
            parent = draw(st.integers(0, i - 1))
            lines.append(f"Y{parent} -> Y{i} : [{draw(PROB)}, {draw(PROB)}].")
            rules.append((f"Y{parent}", f"Y{i}"))
        variables += [f"Y{i}" for i in range(m)]
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


def test_network_without_edges_matches_reference():
    net = preprocess(parse_program("?- A, B : [0.1, 0.2, 0.3, 0.4]."))
    ev = EvidenceSet((ConditionalConstraint("B", (("A", True),), 0.5),))
    (post, trace), (ref_post, ref_trace) = (run_reasoning(net, ev),
                                            reference.run_reasoning(net, ev))
    assert not net.edges
    assert same_tables(post, ref_post)
    assert trace.steps == ref_trace.steps
    assert same_tables(propagate_clause_update(net, 0), net)


def component(net, home):
    """The nodes joined to ``home`` by edges, sorted."""
    seen, stack = {home}, [home]
    while stack:
        i = stack.pop()
        for ei in net.adjacency[i]:
            j = net.edges[ei].other(i)
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return tuple(sorted(seen))


@st.composite
def reweighted_networks(draw):
    """A network whose tables are reweighted, state by state, by integer
    weights of 0-15, so that clauses disagree on their separators and some
    separator events lose all their mass."""
    text, _, _ = draw(networks())
    net = preprocess(parse_program(text))
    for i, t in enumerate(net.tables):
        w = draw(st.lists(st.integers(0, 15), min_size=t.probs.size,
                          max_size=t.probs.size))
        p = t.probs * w
        if p.sum() > 0:
            net = net.with_table(i, JointTable(t.scope, p / p.sum()))
    return net


@settings(max_examples=100, deadline=None)
@given(reweighted_networks())
def test_propagation_from_every_node_matches_reference(net):
    """From every node, group nodes included: the plan covers the node's
    component only, and propagating matches the reference byte for byte
    or fails with the same error."""
    homes = range(len(net.nodes))
    plans = scheduler.compile_plans(net, list(homes))
    for home in homes:
        assert plans[home].touched == component(net, home)
        got = outcome(propagate_clause_update, net, home)
        want = outcome(reference.propagate_clause_update, net, home)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert same_tables(got, want)


@settings(max_examples=30, deadline=None)
@given(problems())
def test_state_maps_built_once_per_edge_side(problem):
    """A run reads each distinct state map of the edge sides once, however
    many homes its constraints have: a map is keyed by the side's scope
    length and the separator's positions in that scope."""
    net, ev = problem
    calls = []
    real = scheduler.substate_map

    def key(scope, sub):
        return len(scope), tuple(scope.vars.index(v) for v in sub.vars)

    def counting(scope, sub):
        calls.append(key(scope, sub))
        return real(scope, sub)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scheduler, "substate_map", counting)
        outcome(run_reasoning, net, ev)
        run_calls = len(calls)
        scheduler.compile_plans(net, list(range(len(net.nodes))))
    keys = {key(net.nodes[n].scope, e.separator)
            for e in net.edges for n in (e.a, e.b)}
    assert run_calls <= 2 * len(net.edges)
    compile_calls = calls[run_calls:]
    assert len(compile_calls) == len(set(compile_calls)) == len(keys)
    assert set(compile_calls) == keys
