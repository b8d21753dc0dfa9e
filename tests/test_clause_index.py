"""Indexed clause lookups against plain scans, and the shared state maps.

Preprocessing, ``joint_over`` and ``home_clause`` find the nodes covering a
variable set through the per-variable holder index.  Here each lookup is
compared with a scan over every node, on the generated networks of
``test_batched_propagation`` (single-parent trees, with and without
sibling-headed rules that need group nodes).
"""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcndl import (
    JointTable,
    MarginalConstraint,
    Scope,
    ScopeError,
    marginalize,
    parse_program,
    preprocess,
    state_index,
)
from rcndl.model import lift, product, substate_map
from rcndl.preprocess import GROUP, OBS, RULE
from rcndl.scheduler import home_clause
from tests.test_batched_propagation import constraint, networks


def scan(nodes, vars, skip=None):
    """Smallest-scope, lowest-index node of ``nodes`` whose scope contains
    every variable in ``vars``, leaving out nodes of kind ``skip``."""
    best = None
    for n in nodes:
        if n.kind == skip or not set(vars) <= set(n.scope.vars):
            continue
        if best is None or len(n.scope) < len(best.scope):
            best = n
    return None if best is None else best.idx


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lookups_match_scans_over_every_node(data):
    text, rules, observed = data.draw(networks())
    # repeated and multi-variable observations, so that an observation
    # can cover a later one's variables
    extra = data.draw(st.lists(
        st.sampled_from(observed + [", ".join(r) for r in rules]), max_size=2))
    net = preprocess(parse_program("\n".join([text] + [f"{e}." for e in extra])))
    nodes = net.nodes

    for node in nodes:
        if node.kind not in (RULE, OBS):
            continue
        assert node.parents == (scan(nodes[:node.idx], node.separator.vars,
                                     skip=OBS),), node.label

    # the generated constraints, and uniform marginals over part of a
    # node's scope, which a group node may cover before any clause does
    cons = [constraint(data.draw, rules, observed)
            for _ in range(data.draw(st.integers(1, 4)))]
    for _ in range(data.draw(st.integers(1, 4))):
        vars = data.draw(st.sampled_from(nodes)).scope.vars
        sub = Scope(data.draw(st.lists(st.sampled_from(vars), min_size=1,
                                       max_size=3, unique=True)))
        cons.append(MarginalConstraint(sub, (1 / sub.n_states,) * sub.n_states))
    for c in cons:
        needed = c.variables()
        home = scan(nodes, needed, skip=GROUP)
        if home is None:  # only a group node covers them
            with pytest.raises(ScopeError):
                home_clause(net, c)
        else:
            assert home_clause(net, c) == home
        target = Scope(needed)
        want = marginalize(net.tables[scan(nodes, needed)], target)
        assert net.joint_over(target).probs.tobytes() == want.probs.tobytes()


def test_substate_map_matches_bit_definition():
    # every ordered choice of up to 3 variables for n <= 6, where maps are
    # cached, and one choice beyond the cached sizes; ``lift`` of a 2-D row
    # array and ``product`` with a table over the whole scope follow the
    # same definition
    cases = [
        (n, positions)
        for n in range(1, 7)
        for k in range(1, min(n, 3) + 1)
        for positions in permutations(range(n), k)
    ] + [(13, (12, 0, 5))]
    for n, positions in cases:
        scope = Scope(f"V{i}" for i in range(n))
        sub = Scope(scope.vars[p] for p in positions)
        got = substate_map(scope, sub)
        k = len(positions)
        want = [
            sum(((j >> (n - 1 - p)) & 1) << (k - 1 - t)
                for t, p in enumerate(positions))
            for j in range(1 << n)
        ]
        assert got.tolist() == want, (n, positions)
        assert got.flags.writeable is False

        rows = np.arange(2.0, 2 + 2 * sub.n_states).reshape(2, -1)
        assert lift(rows, sub, scope).tolist() == rows[:, want].tolist()

        a = JointTable(sub, np.arange(1.0, 1 + sub.n_states), _validate=False)
        b = JointTable(scope, 1 / np.arange(2.0, 2 + scope.n_states),
                       _validate=False)
        ab = product(a, b)
        assert ab.scope.vars == sub.vars + tuple(
            v for v in scope.vars if v not in sub)
        # each state of the product as a value per variable
        values = [{v: (j >> (n - 1 - t)) & 1 for t, v in enumerate(ab.scope.vars)}
                  for j in range(1 << n)]
        assert ab.probs.tolist() == [
            a.probs[state_index(sub, {v: x[v] for v in sub.vars})]
            * b.probs[state_index(scope, x)]
            for x in values
        ], (n, positions)
