"""The batched scheduler against the edge-by-edge reference, bit for bit.

Networks are single-parent trees, optionally with units in which a rule
is headed by two siblings (``P -> A``, ``P -> B``, ``A, B -> C``), which
makes preprocessing join the siblings' clauses through a group node, and
optionally with a second root clique and rules of its own, disconnected
from the first tree or, on request, joined to it by a rule headed by both
root variables.  Evidence mixes marginal, conditional and linear
constraint sets.
"""

import sys

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
    jeffrey_update,
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
def networks(draw, forest=None, min_units=0, bridge=False):
    """Model text plus the scope of every rule clause, as (head..., body).
    ``forest`` True or False asks for the second tree or leaves it out,
    and ``min_units`` sets the fewest sibling-headed units (group nodes);
    by default both are drawn.  ``bridge`` joins a second tree to the
    first by a rule headed by both root variables, through a group over
    the two root cliques: two query cliques without parents, one
    component."""
    n = draw(st.integers(2, 7))
    p = draw(PROB)
    lines = [f"?- X0 : [{1 - p!r}, {p!r}]."]
    rules = []
    for i in range(1, n):
        parent = draw(st.integers(0, i - 1))
        lines.append(f"X{parent} -> X{i} : [{draw(PROB)}, {draw(PROB)}].")
        rules.append((f"X{parent}", f"X{i}"))
    variables = [f"X{i}" for i in range(n)]
    if draw(st.booleans()) if forest is None else forest:
        # a second tree, sharing no variable with X0's
        q = draw(PROB)
        lines[0] = lines[0][:-1] + f"; Y0 : [{1 - q!r}, {q!r}]."
        m = draw(st.integers(1, 3))
        for i in range(1, m):
            parent = draw(st.integers(0, i - 1))
            lines.append(f"Y{parent} -> Y{i} : [{draw(PROB)}, {draw(PROB)}].")
            rules.append((f"Y{parent}", f"Y{i}"))
        variables += [f"Y{i}" for i in range(m)]
        if bridge:
            cond = ", ".join(str(draw(PROB)) for _ in range(4))
            lines.append(f"X0, Y0 -> J : [{cond}].")
            rules.append(("X0", "Y0", "J"))
            variables.append("J")
    for u in range(draw(st.integers(min_units, 2))):
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
    return LinearConstraint(scope, rows, rows @ q)


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
    seen, stack, adj = {home}, [home], reference.adjacency(net)
    while stack:
        i = stack.pop()
        for ei in adj[i]:
            j = reference.far_end(net, ei, i)
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return tuple(sorted(seen))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_component_is_the_lowest_node_of_each_tree(data):
    """Preprocessing names each node's tree by the lowest node reachable
    from it over the edges, a query clique without parents.  Bridged draws
    put two such cliques in one tree, whose higher one is not its name."""
    forest = data.draw(st.booleans())
    text, _, _ = data.draw(networks(forest=forest, bridge=data.draw(st.booleans())))
    net = preprocess(parse_program(text))
    for i in range(len(net.nodes)):
        lowest = min(component(net, i))
        assert net.index.component[i] == lowest
        assert net.nodes[lowest].kind == "root" and not net.nodes[lowest].parents


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
    """From every node, group nodes included: the route covers the node's
    component only, and propagating matches the rooted reference byte for
    byte or fails with the same error."""
    homes = range(len(net.nodes))
    routes = scheduler.compile_schedule(net, list(homes))
    for home in homes:
        assert routes[home].touched == component(net, home)
        got = outcome(propagate_clause_update, net, home)
        want = outcome(reference.propagate_clause_update, net, home)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert same_tables(got, want)


@settings(max_examples=30, deadline=None)
@given(problems())
def test_state_maps_built_once_per_edge_side(problem):
    """Preprocessing makes each distinct state map once, keyed by the
    scope's length and the sub-variables' positions in it, and every edge
    side reads its map from that pool.  A run, its plans, a constraint's
    application and a clause's propagation make none."""
    net, ev = problem
    calls = []
    real = sys.modules["rcndl.model"].substate_map

    def key(scope, sub):
        return len(scope), tuple(scope.vars.index(v) for v in sub.vars)

    def counting(scope, sub):
        calls.append(key(scope, sub))
        return real(scope, sub)

    with pytest.MonkeyPatch.context() as mp:
        for module in (scheduler, sys.modules["rcndl.preprocess"],
                       sys.modules["rcndl.tables"]):
            mp.setattr(module, "substate_map", counting, raising=False)
        outcome(run_reasoning, net, ev)
        scheduler.compile_schedule(net, list(range(len(net.nodes))))
        outcome(apply_constraint, net, ev.constraints[0])
        propagate_clause_update(net, len(net.nodes) - 1)
        assert calls == []
        again = preprocess(net.program)
    keys = {key(net.nodes[n].scope, e.separator)
            for e in net.edges for n in (e.a, e.b)}
    assert len(calls) == len(set(calls))
    assert keys <= set(calls)
    ix = net.index
    for side, end in enumerate(ix.ends):
        first = ix.event_first[side]
        assert np.array_equal(
            ix.events[first:first + net.nodes[end].scope.n_states],
            real(net.nodes[end].scope, net.edges[side >> 1].separator))
    for name, a in again.index._asdict().items():
        assert np.array_equal(a, getattr(ix, name))


@settings(max_examples=30, deadline=None)
@given(problems())
def test_posteriors_share_the_prior_index(problem):
    """The index depends only on structure: every network over new tables
    holds the prior's index object."""
    net, ev = problem
    derived = [net.over(net.flat.copy()), net.with_table(0, net.tables[0]),
               propagate_clause_update(net, 0)]
    for fn, arg in ((run_reasoning, ev), (apply_constraint, ev.constraints[0])):
        result = outcome(fn, net, arg)
        if not isinstance(result[0], type):
            derived.append(result[0])
    assert all(n.index is net.index for n in derived)


def same_routes(got, want):
    """Routes equal array for array: the clauses touched, and every
    level's positions (slices on the way up), events and edges, with the
    events it skips."""
    assert got.keys() == want.keys()
    for h in want:
        assert got[h].touched == want[h].touched
        assert len(got[h].levels) == len(want[h].levels)
        for (a, skip), (b, want_skip) in zip(got[h].levels, want[h].levels):
            for name in ("near_pos", "near_event", "far_pos", "far_event",
                         "edges"):
                x, y = getattr(a, name), getattr(b, name)
                if isinstance(y, slice):
                    assert isinstance(x, slice) and x == y, name
                else:
                    assert x.dtype == y.dtype and np.array_equal(x, y), name
            assert skip == want_skip


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    reweighted_networks(),
    st.one_of(networks(forest=True, min_units=1),
              networks(forest=True, bridge=True)).map(
        lambda drawn: preprocess(parse_program(drawn[0])))))
def test_schedule_matches_reference_builder(net):
    """From every node, group nodes included, on trees, forests and trees
    with two query cliques without parents: the routes gathered from the
    index are those of the per-run reference builder, which roots each
    component by a walk in Python."""
    homes = list(range(len(net.nodes)))
    same_routes(scheduler.compile_schedule(net, homes),
                reference.compile_schedule(net, homes))


@settings(max_examples=100, deadline=None)
@given(st.one_of(networks(forest=True), networks(min_units=1), networks(),
                 networks(forest=True, bridge=True))
       .map(lambda drawn: preprocess(parse_program(drawn[0]))), st.data())
def test_rooted_and_breadth_first_references_agree(net, data):
    """From every node of a consistent network with groups, forests or
    both, after a Jeffrey update of the node's first variable (so the
    network stays consistent, as every run keeps it): the rooted walk and
    the breadth-first walk away from the node give the same bytes, since
    either way every crossing reads a near clause already final and a far
    clause not yet updated."""
    for home, table in enumerate(net.tables):
        v = data.draw(PROB)
        target = MarginalConstraint(Scope(table.scope.vars[:1]), (1.0 - v, v))
        updated = net.with_table(home, jeffrey_update(table, target))
        rooted, breadth_first = set(), set()
        assert same_tables(
            reference.propagate_clause_update(updated, home, rooted),
            reference.propagate_breadth_first(updated, home, breadth_first))
        assert rooted == breadth_first == set(component(net, home))
