"""Reference passes of ``preprocess``, one clause at a time.

``_order_rules``, ``covering_node`` and ``_connecting_closure`` are the
structural lookups as they were before they were made to cost time in the
size of what they find rather than of the network: rules ordered by whole
passes over the remaining list, every holder of the rarest variable
scanned, and the closure's connectivity re-walked pair by pair each round.
The faster ones must return the same or raise the same error.

``build_edges`` is the clause-tree edge rule as a function of a node list:
group membership closed by a fixpoint, and a depth-first search over a
private adjacency for the cycle test.  The builder's ``build_edges`` must
give the same edges in the same order, or reject the same node lists as
multiply connected.

``_tables`` is the numeric pass node by node, through ``JointTable``s:
each rule a ``multiply_condition`` of its upstream marginal (the
conditional step, kept here), each group a ``_join`` of its members, two
tables at a time, in the join order the builder's pieces record.  The
batched pass must write the same tables byte for byte, and
``joint_over`` must read the same joint as ``_join``.
"""

from __future__ import annotations

import numpy as np

from rcndl.errors import (
    ArityError,
    MultiplyConnectedError,
    NetworkStructureError,
    ScopeError,
)
from rcndl.model import (
    RuleClause,
    JointTable,
    Scope,
    marginalize,
    normalized,
    product,
    substate_map,
)
from rcndl.parser import SourceProgram
from rcndl.preprocess import GROUP, OBS, ROOT, RULE, Edge, _Builder
from rcndl.tables import _OVERLAP_TOL, _complete_cond, _complete_prior


def multiply_condition(head_joint, cond, body):
    """Extend a joint over the head scope by a conditional for one new variable.

    ``cond[i]`` is the probability that ``body`` is true given head
    configuration ``i``; the result ranges over ``head ++ [body]``.
    """
    n = head_joint.scope.n_states
    c = np.asarray(cond, dtype=float)
    if c.shape != (n,):
        raise ArityError(f"conditional list needs {n} entries, got {c.shape}")
    if body in head_joint.scope:
        raise ScopeError(f"body variable {body!r} already occurs in the head")
    out = np.empty(2 * n)
    out[0::2] = head_joint.probs * (1.0 - c)
    out[1::2] = head_joint.probs * c
    return JointTable(Scope(tuple(head_joint.scope.vars) + (body,)), out,
                      _validate=False)


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


def _order_rules(program: SourceProgram) -> list[int]:
    """Topological order of rule clause indices, stable in program order."""
    clauses = program.clauses
    query = program.query
    introduced: set[str] = set()
    if query is not None:
        for scope, _ in query.cliques:
            introduced |= set(scope.vars)

    rule_idx = [i for i, c in enumerate(clauses) if isinstance(c, RuleClause)]
    bodies: dict[str, int] = {}
    for i in rule_idx:
        body = clauses[i].body
        if body in bodies:
            raise NetworkStructureError(
                f"{clauses[i].pos}: variable {body!r} is defined by more "
                f"than one rule"
            )
        if body in introduced:
            raise NetworkStructureError(
                f"{clauses[i].pos}: variable {body!r} is already introduced "
                f"by the query"
            )
        bodies[body] = i

    ordered: list[int] = []
    remaining = list(rule_idx)
    while remaining:
        progressed = False
        for i in list(remaining):
            if set(clauses[i].head.vars) <= introduced:
                ordered.append(i)
                remaining.remove(i)
                introduced.add(clauses[i].body)
                progressed = True
        if not progressed:
            bad = clauses[remaining[0]]
            missing = sorted(set(bad.head.vars) - introduced)
            raise NetworkStructureError(
                f"{bad.pos}: head variables {missing} of rule for "
                f"{bad.body!r} are never introduced (undefined or cyclic)"
            )
    return ordered


def covering_node(
    nodes, holders, vars: tuple[str, ...], skip: str | None = None
) -> int | None:
    """The smallest-scope node whose scope contains every variable in
    ``vars``, lowest index first among equals, leaving out nodes of kind
    ``skip``; None if there is none.

    Candidates come from the shortest holder list among ``vars``.
    """
    needed = set(vars)
    best = None
    for i in min((holders.get(v, ()) for v in vars), key=len):
        node = nodes[i]
        if (node.kind != skip and needed <= set(node.scope.vars)
                and (best is None or len(node.scope) < len(nodes[best].scope))):
            best = i
    return best


def _connecting_closure(nodes, seeds: tuple[int, ...]) -> tuple[int, ...]:
    """The seeds closed under upstream links until connected, ascending."""
    members = set(seeds)

    def connected() -> bool:
        comp = {next(iter(members))}
        frontier = list(comp)
        while frontier:
            i = frontier.pop()
            for j in members:
                if j in comp:
                    continue
                if j in nodes[i].parents or i in nodes[j].parents:
                    comp.add(j)
                    frontier.append(j)
        return len(comp) == len(members)

    while not connected():
        expanded = set(members)
        for i in members:
            expanded.update(nodes[i].parents)
        if expanded == members:
            break  # independent components; disjoint by construction
        members = expanded
    return tuple(sorted(members))
