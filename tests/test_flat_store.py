"""The network's one flat table array, from preprocessing to posterior.

A ``PreparedNetwork`` keeps every table in one read-only array; ``tables``
reads them as views.  A run copies the prior's array once and returns a
network over the copy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcndl import (
    JointTable,
    RcndlError,
    Scope,
    marginalize,
    posterior_marginal,
    run_reasoning,
)
from rcndl.scheduler import marginal_spread
from tests.test_batched_propagation import problems


def posterior(net, ev):
    """The run's posterior, or the prior where the run raised."""
    try:
        return run_reasoning(net, ev)[0]
    except RcndlError:
        return net


@settings(max_examples=60, deadline=None)
@given(problems())
def test_run_leaves_the_prior_array_unchanged(problem):
    net, ev = problem
    before = net.flat.tobytes()
    post = posterior(net, ev)
    assert net.flat.tobytes() == before
    assert post.start is net.start


@settings(max_examples=40, deadline=None)
@given(problems())
def test_tables_and_arrays_are_read_only(problem):
    net, ev = problem
    for n in (net, posterior(net, ev)):
        with pytest.raises(ValueError):
            n.flat[0] = 0.5
        with pytest.raises(ValueError):
            n.start[0] = 1
        for t in n.tables:
            with pytest.raises(ValueError):
                t.probs[0] = 0.5


@settings(max_examples=60, deadline=None)
@given(problems())
def test_reads_match_marginalize_byte_for_byte(problem):
    net, ev = problem
    post = posterior(net, ev)
    for v in post.introducer:
        sub = Scope((v,))
        want = marginalize(post.tables[post.introducer[v]], sub).probs
        assert np.array(posterior_marginal(post, v)).tobytes() == want.tobytes()
        values = [marginalize(post.tables[i], sub).probs[1]
                  for i in post.holders[v]]
        assert marginal_spread(post, v) == max(values) - min(values)


@settings(max_examples=40, deadline=None)
@given(problems())
def test_tables_are_a_sequence_of_views(problem):
    net, _ = problem
    tables = net.tables
    n = len(net.nodes)
    assert len(tables) == n
    listed = list(tables)
    assert len(listed) == n
    for i, (node, t) in enumerate(zip(net.nodes, listed)):
        assert t.scope == node.scope
        assert np.shares_memory(t.probs, net.flat)
        assert t.probs.tobytes() == \
            net.flat[net.start[i]:net.start[i + 1]].tobytes()
        assert tables[i - n].probs.tobytes() == t.probs.tobytes()
    assert [t.scope for t in tables[1:]] == [t.scope for t in listed[1:]]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            tables[i]


@settings(max_examples=40, deadline=None)
@given(problems(), st.data())
def test_with_table_changes_only_its_slice(problem, data):
    net, _ = problem
    i = data.draw(st.integers(0, len(net.nodes) - 1))
    old = net.tables[i]
    w = np.arange(1, old.probs.size + 1, dtype=float)
    new = JointTable(old.scope, w / w.sum())
    before = net.flat.copy()
    changed = net.with_table(i, new)
    a, b = net.start[i], net.start[i + 1]
    assert net.flat.tobytes() == before.tobytes()
    assert changed.flat[a:b].tobytes() == new.probs.tobytes()
    assert changed.flat[:a].tobytes() == before[:a].tobytes()
    assert changed.flat[b:].tobytes() == before[b:].tobytes()
    with pytest.raises(ValueError):
        changed.flat[0] = 0.5

