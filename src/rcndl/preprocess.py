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

The numeric pass then fills the tables in node order, each from earlier
ones: a query clique's completed prior, which must agree with an earlier
clique on their overlap; a rule's ``multiply_condition`` of its upstream
node's marginal over the head; an observation's upstream marginal over
its variables; a group's exact union joint, its members multiplied on
along a maximum-overlap spanning tree, each as its conditional on its
separator with the part joined so far (running intersection).  So every
propagation edge is a plain pairwise separator and the represented joint
is exact for singly connected clause networks.  The tables end in one
read-only flat array, which the network holds.

Every node's scope is indexed by variable: ``holders[v]`` lists, in
ascending order, the nodes whose scope contains ``v``.  The smallest node
covering a variable set is then found among the holders of its rarest
variable (``covering_node``), so hanging each clause off its upstream
node, finding an evidence home clause and reading a joint all cost time in
the number of candidates, not in the size of the network.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import (
    MultiplyConnectedError,
    NetworkStructureError,
    ScopeError,
    SizeLimitError,
)
from .model import (
    JointTable,
    MAX_VARIABLES,
    ObservationClause,
    QueryClause,
    RuleClause,
    Scope,
    UNIT_SUM_TOL,
    UNKNOWN,
    marginalize,
    multiply_condition,
    normalized,
    product,
    substate_map,
)
from .parser import SourceProgram

_OVERLAP_TOL = 1e-9


# --------------------------------------------------------------------------
# Network structure
# --------------------------------------------------------------------------

ROOT, RULE, OBS, GROUP = "root", "rule", "obs", "group"


@dataclass(frozen=True)
class Node:
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


@dataclass(frozen=True)
class Edge:
    """An undirected propagation edge with its separator scope."""

    a: int
    b: int
    separator: Scope

    def other(self, i: int) -> int:
        return self.b if i == self.a else self.a


@dataclass(frozen=True)
class PreparedNetwork:
    """A validated network whose clauses all carry joint tables.

    The tables live in one read-only float64 array in node order: node
    ``i``'s table is ``flat[start[i]:start[i + 1]]``.  A reasoning run
    returns a network over a new array.
    """

    program: SourceProgram
    nodes: tuple[Node, ...]
    flat: np.ndarray = field(repr=False)   # every table, read-only
    start: np.ndarray = field(repr=False)  # table offsets, len(nodes) + 1
    edges: tuple[Edge, ...]
    introducer: dict[str, int]          # variable -> node that introduces it
    holders: dict[str, tuple[int, ...]]  # variable -> nodes holding it, ascending
    observables: frozenset[str]
    adjacency: tuple[tuple[int, ...], ...]   # node -> incident edge indices

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(self.introducer)

    @cached_property
    def tables(self) -> tuple[JointTable, ...]:
        """The tables as ``JointTable`` views of ``flat``, made when first read."""
        s = self.start.tolist()
        return tuple(JointTable(n.scope, self.flat[a:b], _validate=False)
                     for n, a, b in zip(self.nodes, s, s[1:]))

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
        best = covering_node(self.nodes, self.holders, target.vars)
        if best is not None:
            return marginalize(self.tables[best], target)
        for v in target.vars:
            if v not in self.introducer:
                raise ScopeError(f"unknown variable {v!r}")
        order = _join_order(self.nodes, self.introducer, target.vars,
                            "joint_over")
        return marginalize(_join(self.tables, order), target)


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
    """The seeds closed under upstream links until connected, ascending.

    The seeds are the introducers of variables that no single node covers,
    so there are at least two.  The set repeatedly absorbs its members'
    parents until the members form one component under the parent relation
    (or until no parents remain to add, which leaves independent components
    that the join combines by outer product).  A group in the set may come
    with its own members, which the join leaves out.
    """
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


def _conditional(table: JointTable, sep: Scope) -> JointTable:
    """The table divided by its own marginal over ``sep`` (0/0 -> 0)."""
    marg = marginalize(table, sep).probs[substate_map(table.scope, sep)]
    out = np.where(marg > 0.0, table.probs / np.where(marg > 0.0, marg, 1.0), 0.0)
    return JointTable(table.scope, out, _validate=False)


def _join_order(nodes, introducer, vars: tuple[str, ...],
                where) -> tuple[int, ...]:
    """The clauses connecting the introducers of ``vars``, in the order
    ``_join`` multiplies them together.

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
    closure = _connecting_closure(
        nodes, tuple(dict.fromkeys(introducer[v] for v in vars)))
    inner = {m for g in closure if nodes[g].kind == GROUP for m in nodes[g].parents}
    members = tuple(m for m in closure if m not in inner)
    scopes = [set(nodes[m].scope.vars) for m in members]
    n = len(set().union(*scopes))
    if n > MAX_VARIABLES:
        raise SizeLimitError(
            f"{where}: a joint over the clauses connecting {', '.join(vars)} "
            f"would span {n} variables, over the {MAX_VARIABLES}-variable limit"
        )
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


# --------------------------------------------------------------------------
# Unknown-probability completion
# --------------------------------------------------------------------------

def _complete_prior(prior: tuple[float, ...], where: str) -> np.ndarray:
    """Fill ``-1.0`` entries of a prior list by spreading the residual mass,
    then check that the result is a distribution."""
    p = np.asarray(prior, dtype=float)
    unknown = p == UNKNOWN
    if unknown.any():
        known_sum = p[~unknown].sum()
        residual = 1.0 - known_sum
        if residual < -1e-9:
            raise NetworkStructureError(
                f"{where}: known prior entries sum to {known_sum}, leaving "
                "no mass for the unknown entries"
            )
        p[unknown] = max(residual, 0.0) / unknown.sum()
    if p.min() < -1e-12:
        raise NetworkStructureError(f"{where}: negative prior entry {p.min():g}")
    if abs(p.sum() - 1.0) > UNIT_SUM_TOL:
        raise NetworkStructureError(
            f"{where}: prior entries sum to {p.sum():.12f}, not 1"
        )
    return p


def _complete_cond(cond: tuple[float, ...]) -> np.ndarray:
    """Unknown conditionals default to the maximum-entropy value 1/2."""
    c = np.asarray(cond, dtype=float)
    c[c == UNKNOWN] = 0.5
    return c


# --------------------------------------------------------------------------
# Preprocessing proper
# --------------------------------------------------------------------------

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


class _Builder:
    """The structural pass: nodes, group joins and edges, from scopes."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.joins: dict[int, tuple[int, ...]] = {}  # group -> join order
        self.introducer: dict[str, int] = {}
        self.holders: dict[str, list[int]] = {}

    def add(self, kind, scope, separator, parents, clause_idx, label) -> int:
        idx = len(self.nodes)
        self.nodes.append(
            Node(idx, kind, scope, separator, parents, clause_idx, label)
        )
        for v in scope.vars:
            self.holders.setdefault(v, []).append(idx)
        return idx

    def upstream_for(self, vars: tuple[str, ...], where) -> int:
        """Single node covering ``vars``, else a new group node over the
        clauses connecting them (no earlier group covers ``vars`` either);
        ``where`` names the clause asking."""
        best = covering_node(self.nodes, self.holders, vars, skip=OBS)
        if best is not None:
            return best
        order = _join_order(self.nodes, self.introducer, vars, where)
        members = tuple(sorted(order))
        label = "group(" + "; ".join(self.nodes[m].label for m in members) + ")"
        scope = Scope(dict.fromkeys(v for m in order for v in self.nodes[m].scope))
        idx = self.add(GROUP, scope, None, members, -1, label)
        self.joins[idx] = order
        return idx

    def build_edges(self) -> tuple[Edge, ...]:
        """One edge per non-root node, plus member edges for groups.

        Upstream links internal to a group are covered by the group's
        member edges and are skipped.  The edges must form a forest: an
        edge whose ends a disjoint-set forest already joins closes a cycle,
        which means the clause sharing structure is not singly connected.
        """
        # transitive membership: a clause inside an inner group is also
        # connected through every group containing that inner group.  A
        # group's index exceeds its members', so one downward pass will do.
        grouped: list[set[int]] = [set() for _ in self.nodes]
        for node in reversed(self.nodes):
            if node.kind == GROUP:
                for m in node.parents:
                    grouped[m] |= grouped[node.idx] | {node.idx}

        edges: list[Edge] = []
        for node in self.nodes:
            if node.kind == GROUP:
                edges += [Edge(m, node.idx, self.nodes[m].scope)
                          for m in node.parents]
            elif node.parents:
                (p,) = node.parents
                if not grouped[p] & grouped[node.idx]:  # else via a group
                    edges.append(Edge(p, node.idx, node.separator))

        root = list(range(len(self.nodes)))  # disjoint-set forest

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
            root[a] = b
        return tuple(edges)


def _tables(program: SourceProgram, b: _Builder) -> list[JointTable]:
    """The numeric pass: each node's table from earlier ones, in node order."""
    query = program.query
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
            table = _join(tables, b.joins[node.idx])
        tables.append(table)
    return tables


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
        for j in range(len(b.nodes)):
            shared = tuple(v for v in scope.vars if v in b.nodes[j].scope)
            if shared:
                if parents:
                    raise MultiplyConnectedError(
                        f"query clique {scope.vars} overlaps more than one "
                        f"earlier clique"
                    )
                parents, sep = (j,), Scope(shared)
        idx = b.add(ROOT, scope, sep, parents, qpos, ", ".join(scope.vars))
        for v in scope.vars:
            b.introducer.setdefault(v, idx)

    # Rules in dependency order, each hanging off a single covering node.
    for ci in _order_rules(program):
        rule = clauses[ci]
        upstream = b.upstream_for(rule.head.vars, rule.pos)
        idx = b.add(RULE, Scope(rule.head.vars + (rule.body,)), rule.head,
                    (upstream,), ci, f"{', '.join(rule.head.vars)} -> {rule.body}")
        b.introducer[rule.body] = idx

    # Observations: leaves over their variables, off a covering node.
    observables: set[str] = set()
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
        observables |= set(clause.vars)

    edges = b.build_edges()
    adjacency: list[list[int]] = [[] for _ in b.nodes]
    for ei, e in enumerate(edges):
        adjacency[e.a].append(ei)
        adjacency[e.b].append(ei)

    tables = _tables(program, b)
    flat = np.concatenate([t.probs for t in tables])
    start = np.cumsum([0] + [t.probs.size for t in tables], dtype=np.intp)
    for a in (flat, start):
        a.setflags(write=False)
    return PreparedNetwork(
        program=program,
        nodes=tuple(b.nodes),
        flat=flat,
        start=start,
        edges=edges,
        introducer=dict(b.introducer),
        holders={v: tuple(h) for v, h in b.holders.items()},
        observables=frozenset(observables),
        adjacency=tuple(tuple(a) for a in adjacency),
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
