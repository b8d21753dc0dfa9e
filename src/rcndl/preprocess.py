"""Phase 1 of the interpreter: validate, order and propagate priors.

Preprocessing turns a parsed program into a ``PreparedNetwork`` in which
every clause carries a full joint table over its scope, in two passes.

The structural pass reads scopes only.  It makes a node per root clique,
rule and observation, each hanging off one upstream node covering its
separator.  When a rule's head (or an observation) spans several upstream
clauses, those clauses (closed under their own upstream links, less the
members of any group among them) are joined through an explicit *group*
node, off which the rule hangs through its head separator; a join over
more than ``MAX_VARIABLES`` variables is refused.  Upstream links inside
a group give way to its member edges, and the edges left must form a
forest: a cycle means the clause sharing structure is not singly
connected, and the program is rejected before any table is computed.

The numeric pass (``tables``) then fills every table, depth by depth,
straight into one flat array, which becomes read-only and which the
network holds.  The represented joint is exact for singly connected
clause networks.

Every node's scope is indexed by variable: ``covers[v]`` lists the nodes
whose scope contains ``v`` by scope length, then index.  The smallest node
covering a variable set is then the first that holds them all among the
covers of its rarest variable (``covering_node``), so hanging each clause
off its upstream node, finding an evidence home clause and reading a joint
stop at the smallest cover, however many larger nodes hold the variable.
No clause hangs off an observation: the structural pass lists them apart.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    ArityError,
    MultiplyConnectedError,
    NetworkStructureError,
    ScopeError,
)
from .model import (
    JointTable,
    ObservationClause,
    QueryClause,
    RuleClause,
    Scope,
    check_variable_limit,
    marginalize,
    trusted_scope,
)
from .parser import SourceProgram
from .tables import (
    GROUP,
    OBS,
    ROOT,
    RULE,
    StateMaps,
    fill,
    fold,
    join_pieces,
    join_scope,
    ranges,
)


# --------------------------------------------------------------------------
# Network structure
# --------------------------------------------------------------------------

class Node(NamedTuple):
    """One propagation node: a root clique, rule, observation, or group.

    ``separator`` is the scope shared with the single upstream neighbor:
    the head for rules, the full variable set for observations, the overlap
    with an earlier clique for non-first root cliques.  Group nodes join
    several upstream clauses and have no separator of their own; each
    member connects to the group through its full scope.
    """

    idx: int
    kind: str
    scope: Scope
    separator: Scope | None
    parents: tuple[int, ...]
    clause_idx: int
    label: str


class Edge(NamedTuple):
    """An undirected propagation edge with its separator scope."""

    a: int
    b: int
    separator: Scope


class PropagationIndex(NamedTuple):
    """The clause tree's crossings, from which preprocessing builds the
    ``PropagationSchedule``, and each variable's states in its introducer,
    as read-only arrays.  Side ``2e`` of edge ``e`` is its end ``a``, side
    ``2e + 1`` its end ``b``; crossing ``c`` reads side ``c`` and updates
    side ``c ^ 1``, so both directions share one entry per side."""

    ends: np.ndarray         # side -> its clause; net.start places its table
    event_first: np.ndarray  # side -> where its state map starts in events
    events: np.ndarray       # each distinct state map preprocessing read, once
    away: np.ndarray         # crossings by the clause they leave, edge order
    away_start: np.ndarray   # node -> its first crossing in away; len(nodes) + 1
    n_events: np.ndarray     # edge -> number of separator events
    component: np.ndarray    # node -> its tree's lowest node, a query clique
    false_pos: np.ndarray    # variable by variable, the flat positions of its
    true_pos: np.ndarray     # false and of its true states in its introducer
    true_var: np.ndarray     # each position's variable, the same in both


class _Level(NamedTuple):
    """Every edge crossing at one depth of a propagation, concatenated.

    ``near_*`` list the states of the clauses crossed from, ``far_*`` those
    of the clauses updated: each state's position in the flat array (an
    index array, or a slice where the level holds one crossing) and the
    separator event it belongs to.  The events of the crossings' separators
    are numbered one after another, in crossing order.  ``edges`` are the
    crossed edges, in the same order.
    """

    near_pos: np.ndarray | slice
    near_event: np.ndarray
    far_pos: np.ndarray | slice
    far_event: np.ndarray
    edges: np.ndarray


class PropagationSchedule(NamedTuple):
    """Every clause tree's propagation, rooted once per network at the
    tree's lowest node (``PropagationIndex.component``) and shared by every
    posterior.  Keyed by that root, ``down`` holds the tree's levels by
    depth and ``touched`` the tree's nodes, ascending.  Row ``i`` of ``up``
    is node ``i``'s crossing back up over the crossing that reached it
    (all -1 at a root): the node above it; node ``i``'s table in ``flat``
    (start, stop) and where its state map on that edge starts in
    ``PropagationIndex.events``; the same three for the node above; the
    edge; and the event range, in its level down, of the crossing that
    reached node ``i``."""

    down: dict[int, tuple[_Level, ...]]
    touched: dict[int, tuple[int, ...]]
    up: np.ndarray


@dataclass(frozen=True, eq=False)  # equal only if identical
class PreparedNetwork:
    """A validated network whose clauses all carry joint tables.

    The tables live in one read-only float64 array in node order: node
    ``i``'s table is ``flat[start[i]:start[i + 1]]``.  A reasoning run
    returns a network over a new array.  What a run reads that depends
    only on structure, ``preprocess`` builds once per network, and every
    network over new tables shares the same objects: ``index``, each edge
    side's table and state map and each variable's states in its
    introducer, and ``schedule``, each tree's levels down from its root
    and each node's crossing up, from which a run takes a home's route by
    a walk up from the home.
    """

    program: SourceProgram
    nodes: tuple[Node, ...]
    flat: np.ndarray = field(repr=False)   # every table, read-only
    start: np.ndarray = field(repr=False)  # table offsets, len(nodes) + 1
    edges: tuple[Edge, ...]
    introducer: dict[str, int]          # variable -> node that introduces it
    covers: dict[str, tuple[int, ...]] = field(repr=False)  # by scope length
    observables: frozenset[str]
    index: PropagationIndex = field(repr=False)  # shared by every posterior
    schedule: PropagationSchedule = field(repr=False)  # likewise

    @cached_property
    def tables(self) -> tuple[JointTable, ...]:
        """The tables as ``JointTable`` views of ``flat``, made when first read."""
        s = self.start.tolist()
        return tuple(JointTable(n.scope, self.flat[a:b], _validate=False)
                     for n, a, b in zip(self.nodes, s, s[1:]))

    @cached_property
    def marginals(self) -> dict[str, tuple[float, float]]:
        """``(P(not v), P(v))`` for every variable ``v``, each summed from its
        introducer's slice of ``flat`` in ascending position order, as
        ``marginalize`` sums a table; made when first read."""
        ix, n = self.index, len(self.introducer)
        false, true = (np.bincount(ix.true_var, self.flat[pos], minlength=n).tolist()
                       for pos in (ix.false_pos, ix.true_pos))
        return dict(zip(self.introducer, zip(false, true)))

    def over(self, flat: np.ndarray) -> "PreparedNetwork":
        """The network with its tables in ``flat``, which becomes read-only."""
        flat.setflags(write=False)
        return replace(self, flat=flat)

    def with_table(self, idx: int, table: JointTable) -> "PreparedNetwork":
        """The network over a copy of ``flat`` with node ``idx``'s slice
        replaced by ``table``."""
        flat = self.flat.copy()
        flat[self.start[idx]:self.start[idx + 1]] = table.probs
        return self.over(flat)

    def joint_over(self, target: Scope) -> JointTable:
        """The network's current joint distribution over ``target``.

        Served from the smallest covering node; a scope that no single node
        covers is marginalized from the exact joint of the clauses
        connecting its variables, joined as for a group node but not kept.
        """
        best = covering_node(self.nodes, self.covers, target.vars)
        if best is not None:
            return marginalize(self.tables[best], target)
        for v in target.vars:
            if v not in self.introducer:
                raise ScopeError(f"unknown variable {v!r}")
        order = _join_order(self.nodes, self.introducer, target.vars,
                            "joint_over")
        scope, maps = join_scope(self.nodes, order), StateMaps()
        pieces = np.array([(0, *row) for row in
                           join_pieces(self.nodes, order, scope, maps)],
                          dtype=np.intp)
        maps.pool()
        joint = fold(self.flat, self.start, maps, pieces,
                     np.array([scope.n_states]))
        return marginalize(JointTable(scope, joint, _validate=False), target)


def covering_node(
    nodes, covers, vars: tuple[str, ...], skip: str | None = None
) -> int | None:
    """The smallest-scope node whose scope contains every variable in
    ``vars``, lowest index first among equals, leaving out nodes of kind
    ``skip``; None if there is none.

    ``covers[v]`` lists the nodes holding ``v`` by scope length, then
    index, so the answer is the first candidate from the shortest such
    list among ``vars`` that holds them all.
    """
    held = [covers.get(v, ()) for v in vars]
    for i in min(held, key=len):
        node = nodes[i]
        if node.kind != skip and (len(held) == 1 or all(
                v in node.scope.vars for v in vars)):
            return i
    return None


def _connecting_closure(nodes, seeds) -> tuple[int, ...]:
    """The seeds closed under upstream links until connected, ascending.

    The seeds are the introducers of variables that no single node covers,
    so there are at least two.  The set repeatedly absorbs its members'
    parents until the members form one component under the parent relation
    (or until no parents remain to add, which leaves independent components
    that the join combines by outer product).  A group in the set may come
    with its own members, which the join leaves out.  A disjoint-set forest
    counts the components, and each round links only the parent links it
    added, so the closure costs time in its size.
    """
    members = frontier = set(seeds)
    links = [(i, p) for i in members for p in nodes[i].parents if p in members]
    root: dict[int, int] = {}  # a disjoint-set forest over the members
    parts = len(members)
    while True:
        for i, j in links:
            while i in root:
                i = root[i]
            while j in root:
                j = root[j]
            if i != j:
                root[i] = j
                parts -= 1
        if parts == 1:
            break
        # only the members added last can have parents outside the set
        new = {p for i in frontier for p in nodes[i].parents} - members
        if not new:
            break  # independent components; disjoint by construction
        members = members | new
        parts += len(new)
        links = [(i, p) for i in frontier for p in nodes[i].parents if p in new]
        links += [(i, p) for i in new for p in nodes[i].parents if p in members]
        frontier = new
    return tuple(sorted(members))


def _join_order(nodes, introducer, vars: tuple[str, ...],
                where) -> tuple[int, ...]:
    """The clauses connecting the introducers of ``vars``, in the order
    ``fold`` multiplies them together.

    The members are the connecting closure less the members of any group
    in it, which that group already joins.  They are ordered like Prim's
    algorithm: start at the lowest-index member, then repeatedly take the
    pool member sharing the most variables with one joined member (lowest
    index first among equals).  The members form a clause tree, so a
    maximum-overlap spanning tree of them is a junction tree (Jensen &
    Jensen, UAI 1994): each member's overlap with the members before it is
    its separator with its tree neighbour.

    Beyond ``MAX_VARIABLES`` variables the join is refused, naming
    ``where``, from the scopes alone.
    """
    closure = _connecting_closure(nodes, {introducer[v] for v in vars})
    inner = {m for g in closure if nodes[g].kind == GROUP for m in nodes[g].parents}
    members = tuple(m for m in closure if m not in inner)
    scopes = [set(nodes[m].scope.vars) for m in members]
    check_variable_limit(f"{where}: a joint over the clauses connecting "
                         f"{', '.join(vars)}", len(set().union(*scopes)))
    # each member's largest overlap with a joined member
    weight = [len(s & scopes[0]) for s in scopes]
    pool = list(range(1, len(members)))
    order = [members[0]]
    while pool:
        k = max(pool, key=weight.__getitem__)
        pool.remove(k)
        for j in pool:
            weight[j] = max(weight[j], len(scopes[j] & scopes[k]))
        order.append(members[k])
    return tuple(order)


# --------------------------------------------------------------------------
# Preprocessing proper
# --------------------------------------------------------------------------

def _order_rules(program: SourceProgram) -> list[int]:
    """Rule clause indices pass by pass, in program order, each pass taking
    every rule whose head the query or an earlier rule introduces, rules
    earlier in the same pass included.

    The first pass is one walk in program order.  A later rule's pass is
    the latest pass of the rules introducing its head, one later for each
    that comes after it in the program, so the later passes are found in
    one walk over the rules they hold in dependency order.
    """
    clauses = program.clauses
    query = program.query
    introduced: set[str] = set()
    if query is not None:
        for scope, _ in query.cliques:
            introduced.update(scope.vars)

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

    first, later = [], []  # the first pass, and the rules it leaves
    for i in rule_idx:
        if introduced.issuperset(clauses[i].head.vars):
            first.append(i)
            introduced.add(clauses[i].body)
        else:
            later.append(i)
    # a later rule's pass is at least 2, whatever the first pass gives it
    passes = dict.fromkeys(later, 2)
    waiting: dict[int, int] = {}  # rule -> head variables still to come
    users: dict[int, list[int]] = {}  # rule -> rules whose head it introduces
    for i in later:  # -1 introduces what no rule does: it never comes
        deps = {bodies.get(v, -1) for v in clauses[i].head.vars
                if v not in introduced}
        waiting[i] = len(deps)
        for j in deps:
            users.setdefault(j, []).append(i)
    done = [i for i in later if not waiting[i]]
    for j in done:  # grows while it is read
        for i in users.get(j, ()):
            passes[i] = max(passes[i], passes[j] + (j > i))
            waiting[i] -= 1
            if not waiting[i]:
                done.append(i)
    if len(done) < len(later):
        bad = clauses[min(i for i in later if waiting[i])]
        introduced.update(clauses[i].body for i in done)
        missing = sorted(set(bad.head.vars) - introduced)
        raise NetworkStructureError(
            f"{bad.pos}: head variables {missing} of rule for "
            f"{bad.body!r} are never introduced (undefined or cyclic)"
        )
    return first + sorted(sorted(done), key=passes.__getitem__)


class _Builder:
    """The structural pass: nodes, group joins and edges, from scopes, and
    every state map the numeric pass and the propagation index read."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.pieces: list[tuple[int, ...]] = []  # (group, *join_pieces row)
        self.introducer: dict[str, int] = {}
        # as PreparedNetwork.covers, but the observations, which no clause
        # hangs off, are held apart until the structure is complete
        self.covers: dict[str, list[int]] = {}
        self.observed: dict[str, list[int]] = {}
        self.width: list[int] = []  # node -> its number of variables
        self.maps = StateMaps()
        self.depth: list[int] = []  # node -> 0 for roots, else parents' + 1
        # node -> its separator's map in its upstream node and in itself
        self.up: list[int] = []
        self.down: list[int] = []
        self.sides: list[int] = []  # edge side -> its map, by build_edges
        self.component: list[int] = []  # node -> its tree's lowest node, likewise

    def add(self, kind, scope, separator, parents, clause_idx, label) -> int:
        idx = len(self.nodes)
        nodes, depth, width = self.nodes, self.depth, self.width
        nodes.append(Node(idx, kind, scope, separator, parents, clause_idx, label))
        width.append(len(scope.vars))
        held = self.observed if kind == OBS else self.covers
        for v in scope.vars:
            insort(held.setdefault(v, []), idx, key=width.__getitem__)
        depth.append(0 if kind == ROOT else 1 + max(map(depth.__getitem__, parents)))
        if separator is None:
            self.up.append(-1)
            self.down.append(-1)
        else:  # a rule's head and an observation's variables lead its scope
            self.up.append(self.maps(nodes[parents[0]].scope, separator.vars))
            self.down.append(self.maps(scope, separator.vars) if kind == ROOT
                             else self.maps.prefix(scope, len(separator.vars)))
        return idx

    def upstream_for(self, vars: tuple[str, ...], where) -> int:
        """Single node covering ``vars``, else a new group node over the
        clauses connecting them (no earlier group covers ``vars`` either);
        ``where`` names the clause asking."""
        best = covering_node(self.nodes, self.covers, vars)
        if best is not None:
            return best
        order = _join_order(self.nodes, self.introducer, vars, where)
        members = tuple(sorted(order))
        label = "group(" + "; ".join(self.nodes[m].label for m in members) + ")"
        scope = join_scope(self.nodes, order)
        idx = self.add(GROUP, scope, None, members, -1, label)
        self.pieces += [(idx, *row) for row in
                        join_pieces(self.nodes, order, scope, self.maps)]
        return idx

    def build_edges(self) -> tuple[Edge, ...]:
        """One edge per non-root node, plus member edges for groups.

        Upstream links internal to a group are covered by the group's
        member edges and are skipped.  The edges must form a forest: an
        edge whose ends a disjoint-set forest already joins closes a cycle,
        which means the clause sharing structure is not singly connected.
        Each union links the higher root under the lower, so one pass in
        index order leaves ``component`` naming each tree by its lowest node.
        """
        # transitive membership: a clause inside an inner group is also
        # connected through every group containing that inner group.  A
        # group's index exceeds its members', so one downward pass will do.
        grouped: dict[int, set[int]] = {}
        for node in reversed(self.nodes):
            if node.kind == GROUP:
                outer = grouped.get(node.idx, set()) | {node.idx}
                for m in node.parents:
                    grouped.setdefault(m, set()).update(outer)

        # a member's side of its edge to a group maps the group's states
        # onto its own, as the join did
        into = {(g, m): proj for g, _, m, _, _, proj in self.pieces}
        edges: list[Edge] = []
        sides = self.sides
        for node in self.nodes:
            if node.kind == GROUP:
                for m in node.parents:
                    scope = self.nodes[m].scope
                    edges.append(Edge(m, node.idx, scope))
                    sides += (self.maps.prefix(scope, len(scope)),
                              into[node.idx, m])
            elif node.parents:
                (p,) = node.parents
                inner = grouped.get(node.idx)
                if not inner or inner.isdisjoint(grouped.get(p, ())):
                    edges.append(Edge(p, node.idx, node.separator))
                    sides += (self.up[node.idx], self.down[node.idx])

        root = self.component = list(range(len(self.nodes)))  # disjoint sets

        def find(i: int) -> int:
            while root[i] != i:
                root[i] = root[root[i]]
                i = root[i]
            return i

        for e in edges:
            a, b = find(e.a), find(e.b)
            if a == b:
                raise MultiplyConnectedError(
                    f"clause sharing structure has a cycle through "
                    f"{self.nodes[e.b].label!r}"
                )
            root[max(a, b)] = min(a, b)
        for i, r in enumerate(root):  # root[r] is final: r <= i
            root[i] = root[r]
        return tuple(edges)


def _propagation_index(b: _Builder, edges, start) -> PropagationIndex:
    """The ``PropagationIndex`` of the clause tree ``b`` built, whose
    tables start at ``start``; each side's state map is read from the
    builder's pool."""
    scopes = [n.scope.vars for n in b.nodes]
    ends = np.array([n for e in edges for n in (e.a, e.b)], dtype=np.intp)
    intro = np.array(list(b.introducer.values()), dtype=np.intp)
    shift = np.array([len(scopes[i]) - 1 - scopes[i].index(v)
                      for v, i in b.introducer.items()], dtype=np.intp)
    # every state of each variable's introducer, variable by variable
    first, sizes = start[intro], np.diff(start)[intro]
    pos = ranges(first, sizes)
    var = np.repeat(np.arange(intro.size, dtype=np.intp), sizes)
    true = ((pos - first[var]) >> shift[var] & 1).astype(bool)
    index = PropagationIndex(
        ends=ends, event_first=b.maps.first[np.array(b.sides, dtype=np.intp)],
        events=b.maps.events,
        away=np.argsort(ends, kind="stable"), away_start=np.concatenate(
            ([0], np.cumsum(np.bincount(ends, minlength=len(b.nodes))))),
        n_events=np.array([1 << len(e.separator.vars) for e in edges],
                          dtype=np.intp),
        component=np.array(b.component, dtype=np.intp),
        false_pos=pos[~true], true_pos=pos[true], true_var=var[true])
    for a in index:
        a.setflags(write=False)
    return index


def _propagation_schedule(ix: PropagationIndex, start) -> PropagationSchedule:
    """Every tree's ``PropagationSchedule``, from the crossing index ``ix``
    of tables that start at ``start``.

    One breadth-first walk of the index from every tree's root at once, one
    depth at a time, finds each node's crossing from its parent, and one
    gather of every crossing's states and events makes each tree's levels.
    The clause tree is a forest, so each crossing away from a clause
    reaches a new one, except the crossing back over the edge that reached
    it.
    """
    n = ix.component.size
    roots = np.flatnonzero(ix.component == np.arange(n))
    degree = np.diff(ix.away_start)
    first, states = start[ix.ends], np.diff(start)[ix.ends]  # sides' tables
    level = ix.away[ranges(ix.away_start[roots], degree[roots])]
    walk = np.repeat(roots, degree[roots])  # each crossing's root, ascending
    found, level_of = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    while level.size:
        level_of.append(len(found) * n + walk)  # one level per depth, tree
        found.append(level)
        far = ix.ends[level ^ 1]
        onward = ix.away[ranges(ix.away_start[far], degree[far])]
        keep = onward != np.repeat(level ^ 1, degree[far])
        level, walk = onward[keep], np.repeat(walk, degree[far])[keep]
    crossings, level_of = np.concatenate(found), np.concatenate(level_of)
    bounds = np.append(np.flatnonzero(np.diff(level_of, prepend=-1)), level_of.size)
    edges = crossings >> 1
    counted = np.concatenate(([0], np.cumsum(ix.n_events[edges])))
    # event ids restart at each level
    offset = counted[:-1] - np.repeat(counted[bounds[:-1]], np.diff(bounds))
    near, far = [], []
    for sides, out in ((crossings, near), (crossings ^ 1, far)):
        sizes = states[sides]
        cut = np.concatenate(([0], np.cumsum(sizes)))[bounds].tolist()
        e = ix.events[ranges(ix.event_first[sides], sizes)]
        e += np.repeat(offset, sizes)
        p = ranges(first[sides], sizes)
        out.extend((p[a:b], e[a:b]) for a, b in zip(cut, cut[1:]))
    down = {r: [] for r in roots.tolist()}  # by depth
    spans, trees = bounds.tolist(), (level_of[bounds[:-1]] % n).tolist()
    for k, (a, b, r) in enumerate(zip(spans, spans[1:], trees)):
        down[r].append(_Level(*near[k], *far[k], edges[a:b]))
    touched = {r: [] for r in down}
    for i, r in enumerate(ix.component.tolist()):
        touched[r].append(i)

    # each reached node's crossing back up to the node that reached it
    back = crossings ^ 1
    node, parent = ix.ends[back], ix.ends[crossings]
    up = np.full((n, 10), -1, np.intp)
    up[node] = np.column_stack((
        parent, start[node], start[node + 1], ix.event_first[back],
        start[parent], start[parent + 1], ix.event_first[crossings],
        edges, offset, offset + ix.n_events[edges]))
    up.setflags(write=False)
    return PropagationSchedule(
        {r: tuple(lvs) for r, lvs in down.items()},
        {r: tuple(t) for r, t in touched.items()}, up)


def preprocess(program: SourceProgram) -> PreparedNetwork:
    """Validate the program and propagate priors so every clause has a table."""
    clauses = program.clauses
    query = program.query
    if query is None:
        raise NetworkStructureError("program has no query clause")

    # The query must come before any rule that consumes its variables.
    qpos = next(i for i, c in enumerate(clauses) if isinstance(c, QueryClause))
    query_vars: set[str] = set()
    for scope, _ in query.cliques:
        query_vars |= set(scope.vars)
    for c in clauses[:qpos]:
        if isinstance(c, RuleClause) and set(c.head.vars) & query_vars:
            raise NetworkStructureError(
                f"{c.pos}: rule uses query variables but precedes the query"
            )

    b = _Builder()

    # Root cliques.  A later clique overlapping an earlier one hangs off it
    # with the overlap as separator.
    for scope, _ in query.cliques:
        parents, sep = (), None
        earlier = {j for v in scope.vars for j in b.covers.get(v, ())}
        if len(earlier) > 1:
            raise MultiplyConnectedError(
                f"query clique {scope.vars} overlaps more than one "
                f"earlier clique"
            )
        if earlier:
            parents = tuple(earlier)
            held = b.nodes[parents[0]].scope.vars
            sep = trusted_scope(tuple(v for v in scope.vars if v in held))
        idx = b.add(ROOT, scope, sep, parents, qpos, ", ".join(scope.vars))
        for v in scope.vars:
            b.introducer.setdefault(v, idx)

    # Rules in dependency order, each hanging off a single covering node.
    for ci in _order_rules(program):
        rule = clauses[ci]
        head = rule.head.vars
        if len(rule.cond) != 1 << len(head):
            raise ArityError(f"{rule.pos}: conditional list needs "
                             f"{rule.head.n_states} entries, got {len(rule.cond)}")
        upstream = b.upstream_for(head, rule.pos)
        # the body is not in the head: _order_rules refuses such a rule
        idx = b.add(RULE, trusted_scope(head + (rule.body,)), rule.head,
                    (upstream,), ci, f"{', '.join(head)} -> {rule.body}")
        b.introducer[rule.body] = idx

    # Observations: leaves over their variables, off a covering node.
    for ci, clause in enumerate(clauses):
        if not isinstance(clause, ObservationClause):
            continue
        for v in clause.vars:
            if v not in b.introducer:
                raise NetworkStructureError(
                    f"{clause.pos}: observed variable {v!r} does not occur "
                    f"in any clause"
                )
        scope = Scope(clause.vars)
        upstream = b.upstream_for(clause.vars, clause.pos)
        b.add(OBS, scope, scope, (upstream,), ci, ", ".join(clause.vars))

    edges = b.build_edges()
    for v, seen in b.observed.items():  # every observed variable is covered
        b.covers[v] = sorted(sorted(b.covers[v] + seen), key=b.width.__getitem__)
    b.maps.pool()
    start = np.cumsum([0, *(1 << w for w in b.width)], dtype=np.intp)
    index = _propagation_index(b, edges, start)

    flat = fill(program, b, start)
    for a in (flat, start):
        a.setflags(write=False)
    return PreparedNetwork(
        program=program,
        nodes=tuple(b.nodes),
        flat=flat,
        start=start,
        edges=edges,
        introducer=dict(b.introducer),
        covers={v: tuple(c) for v, c in b.covers.items()},
        observables=frozenset(b.observed),
        index=index,
        schedule=_propagation_schedule(index, start),
    )


def render_intermediate(net: PreparedNetwork) -> str:
    """The preprocessed program with each clause's joint prior, six decimals."""
    lines = []
    for node in net.nodes:
        if node.kind == GROUP:
            continue
        probs = ", ".join(f"{p:.6f}" for p in net.tables[node.idx].probs)
        prefix = "?- " if node.kind == ROOT else ""
        lines.append(f"{prefix}{node.label} : [{probs}].")
    return "\n".join(lines) + "\n"
