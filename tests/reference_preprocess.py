"""Reference passes of ``preprocess``, one clause at a time.

``build_edges`` is the clause-tree edge rule as a function of a node list:
group membership closed by a fixpoint, and a depth-first search over a
private adjacency for the cycle test.  The builder's ``build_edges`` must
give the same edges in the same order, or reject the same node lists as
multiply connected.

``_tables`` is the numeric pass node by node, through ``JointTable``s:
each rule a ``multiply_condition`` of its upstream marginal, each group a
``_join`` of its members, two tables at a time, in the join order the
builder's pieces record.  The batched pass must
write the same tables byte for byte, and ``joint_over`` must read the
same joint as ``_join``.
"""

from __future__ import annotations

import numpy as np

from rcndl.errors import MultiplyConnectedError, NetworkStructureError
from rcndl.model import (
    JointTable,
    Scope,
    marginalize,
    multiply_condition,
    normalized,
    product,
    substate_map,
)
from rcndl.parser import SourceProgram
from rcndl.preprocess import GROUP, OBS, ROOT, RULE, Edge, _Builder
from rcndl.tables import _OVERLAP_TOL, _complete_cond, _complete_prior


def build_edges(nodes):
    groups = {frozenset(n.parents): n.idx for n in nodes if n.kind == GROUP}

    # transitive membership: a clause inside an inner group is also
    # connected through every group containing that inner group
    grouped: dict[int, set[int]] = {n.idx: set() for n in nodes}
    for key, g in groups.items():
        for m in key:
            grouped[m].add(g)
    changed = True
    while changed:
        changed = False
        for key, g in groups.items():
            outer = grouped[g]
            for m in key:
                if not outer <= grouped[m]:
                    grouped[m] |= outer
                    changed = True

    edges: list[Edge] = []
    for node in nodes:
        if node.kind == GROUP:
            for m in node.parents:
                edges.append(Edge(m, node.idx, nodes[m].scope))
        elif node.parents:
            (p,) = node.parents
            shared = grouped.get(p, set()) & grouped.get(node.idx, set())
            if shared:
                continue  # connected through a common group already
            edges.append(Edge(p, node.idx, node.separator))

    # Singly connected check: the propagation graph must be a forest.
    seen: set[int] = set()
    adj: dict[int, list[tuple[int, int]]] = {n.idx: [] for n in nodes}
    for ei, e in enumerate(edges):
        adj[e.a].append((e.b, ei))
        adj[e.b].append((e.a, ei))
    for start in adj:
        if start in seen:
            continue
        seen.add(start)
        stack = [(start, -1)]
        while stack:
            i, via = stack.pop()
            for j, ei in adj[i]:
                if ei == via:
                    continue
                if j in seen:
                    raise MultiplyConnectedError(
                        f"clause sharing structure has a cycle through "
                        f"{nodes[j].label!r}"
                    )
                seen.add(j)
                stack.append((j, ei))
    return tuple(edges)


def _conditional(table: JointTable, sep: Scope) -> JointTable:
    """The table divided by its own marginal over ``sep`` (0/0 -> 0)."""
    marg = marginalize(table, sep).probs[substate_map(table.scope, sep)]
    out = np.where(marg > 0.0, table.probs / np.where(marg > 0.0, marg, 1.0), 0.0)
    return JointTable(table.scope, out, _validate=False)


def _join(tables, order: tuple[int, ...]) -> JointTable:
    """The normalized joint of the clauses in join ``order``, over their
    variables in that order: each member multiplied on as its conditional
    on what it shares with the joint so far, exact by running intersection
    (Lauritzen & Spiegelhalter, 1988), or, sharing nothing, as its table."""
    acc = tables[order[0]]
    for table in (tables[m] for m in order[1:]):
        shared = [v for v in table.scope.vars if v in acc.scope]
        acc = product(acc, _conditional(table, Scope(shared)) if shared else table)
    return normalized(acc)


def _tables(program: SourceProgram, b: _Builder) -> list[JointTable]:
    """The numeric pass: each node's table from earlier ones, in node order."""
    query = program.query
    joins: dict[int, list[int]] = {}  # group -> its members in join order
    for g, _, m, *_ in b.pieces:
        joins.setdefault(g, []).append(m)
    tables: list[JointTable] = []
    for node in b.nodes:
        if node.kind == ROOT:  # the first nodes are the query's cliques
            scope, prior = query.cliques[node.idx]
            table = JointTable(scope, _complete_prior(
                prior, f"{query.pos}: query clique {scope.vars}"))
            if node.parents:  # an earlier clique's overlap marginal agrees
                mine = marginalize(table, node.separator).probs
                theirs = marginalize(tables[node.parents[0]], node.separator).probs
                if np.abs(mine - theirs).max() > _OVERLAP_TOL:
                    raise NetworkStructureError(
                        f"query cliques disagree on overlap "
                        f"{node.separator.vars}: {mine} vs {theirs}"
                    )
        elif node.kind == RULE:
            rule = program.clauses[node.clause_idx]
            head_joint = marginalize(tables[node.parents[0]], rule.head)
            table = multiply_condition(head_joint, _complete_cond(rule.cond),
                                       rule.body)
        elif node.kind == OBS:
            table = marginalize(tables[node.parents[0]], node.scope)
        else:
            table = _join(tables, joins[node.idx])
        tables.append(table)
    return tables
