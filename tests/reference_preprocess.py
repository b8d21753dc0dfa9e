"""Reference clause-tree edge rule, as a function of a node list.

This is the edge rule ``preprocess`` used before its one-pass membership
and disjoint-set forest check: group membership closed by a fixpoint, and
a depth-first search over a private adjacency for the cycle test.  The
builder's ``build_edges`` must give the same edges in the same order, or
reject the same node lists as multiply connected.
"""

from __future__ import annotations

from rcndl.errors import MultiplyConnectedError
from rcndl.preprocess import GROUP, Edge


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
