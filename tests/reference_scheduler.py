"""Reference reasoning loop: one Jeffrey update per edge crossing.

This is the straightforward form of the scheduler's propagation, kept as
the reference that the batched implementation in ``rcndl.scheduler`` must
reproduce bit for bit.  It roots the updated clause's component at its
lowest-index node, crosses the edges from the updated clause up to that
root one at a time, then walks breadth-first down from the root, crossing
every edge but those of the way up.  At every edge it builds a
``MarginalConstraint`` from the near clause's separator marginal, and it
reads each step's marginal snapshot variable by variable.  A linear set
is solved to a tenth of its threshold, never looser than the kernel's
default 1e-9.  ``propagate_breadth_first`` is the walk breadth-first away
from the updated clause; on a consistent network both walks give the same
bytes, since every crossing reads a final near clause and a far clause
not yet updated.

``compile_schedule`` builds the same routes the straightforward way, on
every call: it keys the edge sides' state maps itself, roots each
component by a walk in Python and walks it breadth-first from the root.
The routes that ``rcndl.scheduler`` gathers from the network's
``PropagationIndex`` must equal its routes array for array.

``marginal_spread`` measures how far the clauses holding a variable
disagree on its marginal, which propagation must keep within round-off.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from rcndl.engine import (
    conditional_update,
    gradient_scalar,
    jeffrey_update,
    lec_solve,
)
from rcndl.errors import ConvergenceError, InfeasibleEvidenceError, ScopeError
from rcndl.model import (
    ConditionalConstraint,
    MarginalConstraint,
    Scope,
    marginalize,
    substate_map,
)
from rcndl.preprocess import PreparedNetwork
from rcndl.preprocess import ranges as _ranges
from rcndl.scheduler import (
    GREATEST_GRADIENT,
    RunTrace,
    _Level,
    _named,
    _Route,
    Step,
    home_clause,
    joint_constraint,
    posterior_marginal,
    validate_evidence,
)


def adjacency(net):
    """Each node's incident edges, in edge order."""
    out = [[] for _ in net.nodes]
    for ei, e in enumerate(net.edges):
        out[e.a].append(ei)
        out[e.b].append(ei)
    return out


def far_end(net, ei, i):
    """The end of edge ``ei`` that is not clause ``i``."""
    return net.edges[ei].a + net.edges[ei].b - i


def _cross(net, i, ei):
    """``net`` with the clause across edge ``ei`` from clause ``i``
    Jeffrey-updated to ``i``'s separator marginal."""
    edge = net.edges[ei]
    j = far_end(net, ei, i)
    sep_dist = marginalize(net.tables[i], edge.separator)
    refreshed = jeffrey_update(
        net.tables[j],
        MarginalConstraint(edge.separator, tuple(sep_dist.probs)),
    )
    return net.with_table(j, refreshed)


def propagate_breadth_first(net, updated, visited=None):
    """``visited``, if given, collects the clauses the walk updates and
    the one it starts from."""
    visited = set() if visited is None else visited
    visited.add(updated)
    queue, adj = deque([updated]), adjacency(net)
    while queue:
        i = queue.popleft()
        for ei in adj[i]:
            j = far_end(net, ei, i)
            if j in visited:
                continue
            net = _cross(net, i, ei)
            visited.add(j)
            queue.append(j)
    return net


def _down(net, node):
    """The lowest-index node of ``node``'s component and the crossings
    breadth-first down from it, as (near clause, edge) pairs."""
    seen, stack, adj = {node}, [node], adjacency(net)
    while stack:
        for ei in adj[stack.pop()]:
            for j in (net.edges[ei].a, net.edges[ei].b):
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
    root = min(seen)
    seen, queue, order = {root}, deque([root]), []
    while queue:
        i = queue.popleft()
        for ei in adj[i]:
            j = far_end(net, ei, i)
            if j not in seen:
                seen.add(j)
                queue.append(j)
                order.append((i, ei))
    return root, order


def _way_up(net, updated, order):
    """The (clause, edge) crossings from ``updated`` up to its root."""
    parent = {far_end(net, ei, i): (i, ei) for i, ei in order}
    up, i = [], updated
    while i in parent:
        p, ei = parent[i]
        up.append((i, ei))
        i = p
    return up


def propagate_clause_update(net, updated, visited=None):
    """``visited``, if given, collects the clauses of the component."""
    root, order = _down(net, updated)
    up = _way_up(net, updated, order)
    for i, ei in up:
        net = _cross(net, i, ei)
    path = {ei for _, ei in up}
    for i, ei in order:
        if ei not in path:
            net = _cross(net, i, ei)
    if visited is not None:
        visited |= {root, *(far_end(net, ei, i) for i, ei in order)}
    return net


def apply_constraint(net, c, tolerance=1e-9, visited=None):
    home = home_clause(net, c)
    table = net.tables[home]
    if isinstance(c, MarginalConstraint):
        new = jeffrey_update(table, c)
    elif isinstance(c, ConditionalConstraint):
        new = conditional_update(table, c)
    else:
        new, _ = lec_solve(table, c, min(1e-9, tolerance))
    net = net.with_table(home, new)
    return propagate_clause_update(net, home, visited), home


def run_reasoning(net, ev):
    homes = validate_evidence(net, ev)
    trace = RunTrace()
    cons = ev.constraints
    if not cons:
        trace.converged = True
        return net, trace

    def scalar(c):
        return gradient_scalar(net.tables[home_clause(net, c)], c)

    def below_thresholds():
        return all(scalar(c) < ev.threshold(i) for i, c in enumerate(cons))

    used = [(c, ev.threshold(i)) for i, c in enumerate(cons)]
    converged = False
    for pass_no in range(1, ev.max_passes + 1):
        if below_thresholds():
            converged = True
            break
        if pass_no == 2:
            used = [joint_constraint(net, net.flat, ev, homes, i)
                    for i in range(len(cons))]
        unused = list(range(len(cons)))
        while unused:
            if ev.policy == GREATEST_GRADIENT:
                pick = max(unused, key=lambda i: (scalar(cons[i]), -i))
            else:
                pick = unused[0]
            unused.remove(pick)
            g_before = scalar(cons[pick])
            visited = set()
            try:
                net, home = apply_constraint(net, used[pick][0],
                                             used[pick][1] / 10, visited)
            except (InfeasibleEvidenceError, ConvergenceError) as exc:
                raise _named(exc, cons[pick]) from exc
            trace.steps.append(Step(
                pass_no=pass_no,
                constraint=cons[pick].label(),
                gradient_before=g_before,
                home=home,
                touched=tuple(sorted(visited)),
                marginals={v: posterior_marginal(net, v)[1]
                           for v in net.introducer},
            ))
        trace.passes = pass_no

    trace.converged = converged or below_thresholds()
    trace.final_gradients = {}
    for i, c in enumerate(cons):  # a repeated label gets its 1-based position
        key = c.label()
        if key in trace.final_gradients:
            key = f"{key} [{i + 1}]"
        trace.final_gradients[key] = scalar(c)
    return net, trace


def compile_schedule(net: PreparedNetwork, homes: list[int]) -> dict[int, _Route]:
    """One route per distinct home clause, gathered from a crossing index.
    Side ``2e`` of edge ``e`` is its end ``a``, side ``2e + 1`` its end
    ``b``; crossing ``c`` reads side ``c`` and updates side ``c ^ 1``.
    The index places each side's states in the flat array and their events
    in a pool that holds each state map once: a map depends only on the
    scope's length and the separator's positions in it, so it is looked up
    once per such key."""
    ends, keys, maps, offsets, size = [], {}, [], [], 0  # key -> pool offset
    for e in net.edges:
        for n in (e.a, e.b):
            scope = net.nodes[n].scope.vars
            key = (len(scope), tuple(map(scope.index, e.separator.vars)))
            if key not in keys:
                keys[key] = size
                maps.append(substate_map(net.nodes[n].scope, e.separator))
                size += maps[-1].size
            ends.append(n)
            offsets.append(keys[key])
    events = np.concatenate([np.empty(0, np.intp)] + maps)
    index = (net.start[ends], np.array(offsets, np.intp),
             np.diff(net.start)[ends], events)
    links = [[2 * e + (ends[2 * e] != i) for e in adj]  # crossings away
             for i, adj in enumerate(adjacency(net))]
    n_events = np.array([e.separator.n_states for e in net.edges], np.intp)
    routes = {}
    for h in dict.fromkeys(homes):
        root, order = _down(net, h)
        touched, levels = _levels(root, links, ends, index, n_events)
        way, up, down = _way_up(net, h, order), [], []
        for i, ei in way:  # each crossing a level of its own
            sep, p = net.edges[ei].separator, far_end(net, ei, i)
            up.append((_Level(slice(net.start[i], net.start[i + 1]),
                              substate_map(net.nodes[i].scope, sep),
                              slice(net.start[p], net.start[p + 1]),
                              substate_map(net.nodes[p].scope, sep),
                              np.array([ei], np.intp)), (0, 0)))
        path = [ei for _, ei in way][::-1]  # top down
        for d, lv in enumerate(levels):
            crossed = lv.edges.tolist()
            if d >= len(path):
                down.append((lv, (0, 0)))
            elif len(crossed) > 1:  # else the way up's crossing alone
                k = crossed.index(path[d])
                a = int(n_events[crossed[:k]].sum())
                down.append((lv, (a, a + int(n_events[path[d]]))))
        routes[h] = _Route(touched, tuple(up + down))
    return routes


def _levels(root: int, links, ends, index, n_events):
    """The clauses of ``root``'s component, ascending, and the
    breadth-first crossings away from ``root``, grouped by depth."""
    seen, frontier, order, bounds = {root}, [root], [], [0]
    while frontier:
        reached = []
        for i in frontier:
            for c in links[i]:
                if (j := ends[c ^ 1]) not in seen:
                    seen.add(j)
                    order.append(c)
                    reached.append(j)
        frontier = reached
        bounds.append(len(order))
    bounds.pop()  # the empty depth that ended the walk
    crossings = np.array(order, dtype=np.intp)
    edges = crossings >> 1
    counted = np.concatenate(([0], np.cumsum(n_events[edges])))
    first = counted[bounds]  # event ids restart at each level
    offset = counted[:-1] - np.repeat(first[:-1], np.diff(bounds))
    flat_first, side_first, side_sizes, side_events = index
    near, far = [], []
    for sides, out in ((crossings, near), (crossings ^ 1, far)):
        sizes = side_sizes[sides]
        cut = np.concatenate(([0], np.cumsum(sizes)))[bounds].tolist()
        e = side_events[_ranges(side_first[sides], sizes)]
        e += np.repeat(offset, sizes)
        p = _ranges(flat_first[sides], sizes)
        out.extend((p[a:b], e[a:b]) for a, b in zip(cut, cut[1:]))
    levels = tuple(_Level(*near[k], *far[k], edges[a:b])
                   for k, (a, b) in enumerate(zip(bounds, bounds[1:])))
    return tuple(sorted(seen)), levels


def marginal_spread(net, var):
    """Largest disagreement on P(var) across the nodes containing it."""
    if var not in net.introducer:
        raise ScopeError(f"unknown variable {var!r}")
    sub = Scope((var,))
    values = [marginalize(net.tables[i], sub).probs[1] for i in net.covers[var]]
    return max(values) - min(values)
