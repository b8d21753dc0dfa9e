"""Phase 1 of the interpreter: validate, order and propagate priors.

Preprocessing turns a parsed program into a ``PreparedNetwork`` in which
every clause carries a full joint table over its scope:

* query cliques carry their (completed) priors,
* each rule carries ``multiply_condition(head_joint, cond, body)`` where the
  head joint is assembled exactly from the clauses introducing the head
  variables,
* each observation clause carries the current marginal over its variables.

The clauses are also arranged into a propagation tree.  When a rule's head
spans several upstream clauses, those clauses (closed under their own
upstream links) are joined through an explicit *group* node carrying their
exact union joint; the rule then hangs off the group through its head
separator.  This keeps every propagation edge a plain pairwise separator
and keeps the represented joint exact for singly connected clause
networks, including separator joints that the pairwise upstream tables
alone could not express.

Every node's scope is indexed by variable: ``holders[v]`` lists, in
ascending order, the nodes whose scope contains ``v``.  The smallest node
covering a variable set is then found among the holders of its rarest
variable (``covering_node``), so hanging each clause off its upstream
node, finding an evidence home clause and reading a joint all cost time in
the number of candidates, not in the size of the network.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    MultiplyConnectedError,
    NetworkStructureError,
)
from .model import (
    JointTable,
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
    """A validated network whose clauses all carry joint tables."""

    program: SourceProgram
    nodes: tuple[Node, ...]
    tables: tuple[JointTable, ...]
    edges: tuple[Edge, ...]
    introducer: dict[str, int]          # variable -> node that introduces it
    holders: dict[str, tuple[int, ...]]  # variable -> nodes holding it, ascending
    observables: frozenset[str]
    adjacency: tuple[tuple[int, ...], ...]   # node -> incident edge indices

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(self.introducer)

    def clause_nodes(self) -> tuple[Node, ...]:
        return tuple(n for n in self.nodes if n.kind != GROUP)

    def with_table(self, idx: int, table: JointTable) -> "PreparedNetwork":
        tables = list(self.tables)
        tables[idx] = table
        return replace(self, tables=tuple(tables))

    def joint_over(self, target: Scope) -> JointTable:
        """The network's current joint distribution over ``target``.

        Served from the smallest covering node; scopes not covered by any
        single node are assembled by elimination over the connecting
        clauses.
        """
        best = covering_node(self.nodes, self.holders, target.vars)
        if best is not None:
            return marginalize(self.tables[best], target)
        for v in target.vars:
            if v not in self.introducer:
                raise NetworkStructureError(f"unknown variable {v!r}")
        members = _connecting_closure(
            self.nodes, tuple(dict.fromkeys(self.introducer[v] for v in target.vars))
        )
        return normalized(marginalize(_assemble(self.nodes, self.tables, members),
                                      target))


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
    """Close a seed set under upstream links until it is connected.

    Single seeds stay as they are.  Multi-seed sets repeatedly absorb their
    members' parents until the members form one component under the parent
    relation (or until no parents remain to add, which leaves genuinely
    independent components that combine by outer product).
    """
    members = set(seeds)
    if len(members) <= 1:
        return tuple(members)

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


def _drop_subsumed(nodes, members: tuple[int, ...]) -> tuple[int, ...]:
    """Remove observation nodes and members another member makes redundant.

    A member is redundant only when its scope lies inside that of a fellow
    member that enters with its *full* table (a group or a separator-less
    root clique); such members would double-count if multiplied on.
    Members inside a fellow rule's scope stay: the rule enters as a
    conditional on its separator, which never duplicates information.
    """
    keep = [i for i in sorted(members) if nodes[i].kind != OBS]
    return tuple(
        i for i in keep
        if not any(
            j != i
            and nodes[j].separator is None
            and set(nodes[i].scope.vars) <= set(nodes[j].scope.vars)
            for j in keep
        )
    )


def _conditional(table: JointTable, sep: Scope) -> JointTable:
    """The table divided by its own marginal over ``sep`` (0/0 -> 0)."""
    marg = marginalize(table, sep).probs[substate_map(table.scope, sep)]
    out = np.where(marg > 0.0, table.probs / np.where(marg > 0.0, marg, 1.0), 0.0)
    return JointTable(table.scope, out, _validate=False)


def _assemble(nodes, tables, members: tuple[int, ...]) -> JointTable:
    """Exact joint over a connected member set.

    Observation nodes and members whose scope lies inside another member's
    are redundant and dropped.  A member whose separator is already covered
    extends the accumulated factor by its conditional on the separator.
    Failing that, a member overlapping the accumulated scope extends it by
    its conditional on the overlap: it is joined to the factor from below,
    or through a member it subsumes.  On a clause tree the overlap is the
    separator of that join, so the product stays exact.  A member sharing
    no variable with the factor starts a new (disjoint) component with its
    full table.  Consistent separator marginals across the set make the
    result independent of which member seeds a component.
    """
    pool = list(_drop_subsumed(nodes, members))
    acc: JointTable | None = None
    while pool:
        if acc is not None:
            covered = [i for i in pool if nodes[i].separator
                       and nodes[i].separator.issubset(acc.scope)]
            overlapping = [i for i in pool
                           if set(nodes[i].scope.vars) & set(acc.scope.vars)]
            if covered or overlapping:
                i = (covered or overlapping)[0]
                sep = nodes[i].separator if covered else Scope(
                    v for v in nodes[i].scope.vars if v in acc.scope)
                acc = product(acc, _conditional(tables[i], sep))
                pool.remove(i)
                continue
        # prefer a member nothing else in the pool could condition on
        start = next(
            (
                i for i in pool
                if nodes[i].separator is None or not any(
                    j != i
                    and set(nodes[i].separator.vars) <= set(nodes[j].scope.vars)
                    for j in pool
                )
            ),
            pool[0],
        )
        acc = tables[start] if acc is None else product(acc, tables[start])
        pool.remove(start)
    if acc is None:
        raise NetworkStructureError("empty clause group")
    return acc


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
    def __init__(self, program: SourceProgram):
        self.program = program
        self.nodes: list[Node] = []
        self.tables: list[JointTable] = []
        self.introducer: dict[str, int] = {}
        self.holders: dict[str, list[int]] = {}
        self.groups: dict[frozenset[int], int] = {}

    def add(self, kind, scope, separator, parents, clause_idx, label) -> int:
        idx = len(self.nodes)
        self.nodes.append(
            Node(idx, kind, scope, separator, parents, clause_idx, label)
        )
        for v in scope.vars:
            self.holders.setdefault(v, []).append(idx)
        return idx

    def upstream_for(self, vars: tuple[str, ...]) -> int:
        """Single node covering ``vars``, creating a group node if needed."""
        best = covering_node(self.nodes, self.holders, vars, skip=OBS)
        if best is not None:
            return best
        seeds = tuple(dict.fromkeys(self.introducer[v] for v in vars))
        closure = _connecting_closure(self.nodes, seeds)
        # a member already inside a fellow member group is linked through it
        members = tuple(
            m for m in closure
            if not any(
                g != m and self.nodes[g].kind == GROUP
                and m in self.nodes[g].parents
                for g in closure
            )
        )
        if len(members) == 1:
            return members[0]
        key = frozenset(members)
        if key in self.groups:
            return self.groups[key]
        joint = normalized(_assemble(self.nodes, self.tables, members))
        label = "group(" + "; ".join(self.nodes[m].label for m in members) + ")"
        idx = self.add(GROUP, joint.scope, None, members, -1, label)
        self.tables.append(joint)
        self.groups[key] = idx
        return idx

    def build_edges(self) -> tuple[Edge, ...]:
        """One edge per non-root node, plus member edges for groups.

        Upstream links internal to a group are covered by the group's
        member edges and are skipped; a resulting cycle means the clause
        sharing structure is not singly connected.
        """
        # transitive membership: a clause inside an inner group is also
        # connected through every group containing that inner group
        grouped: dict[int, set[int]] = {n.idx: set() for n in self.nodes}
        for key, g in self.groups.items():
            for m in key:
                grouped[m].add(g)
        changed = True
        while changed:
            changed = False
            for key, g in self.groups.items():
                outer = grouped[g]
                for m in key:
                    if not outer <= grouped[m]:
                        grouped[m] |= outer
                        changed = True

        edges: list[Edge] = []
        for node in self.nodes:
            if node.kind == GROUP:
                for m in node.parents:
                    edges.append(Edge(m, node.idx, self.nodes[m].scope))
            elif node.parents:
                (p,) = node.parents
                shared = grouped.get(p, set()) & grouped.get(node.idx, set())
                if shared:
                    continue  # connected through a common group already
                edges.append(Edge(p, node.idx, node.separator))

        # Singly connected check: the propagation graph must be a forest.
        seen: set[int] = set()
        adj: dict[int, list[tuple[int, int]]] = {n.idx: [] for n in self.nodes}
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
                            f"{self.nodes[j].label!r}"
                        )
                    seen.add(j)
                    stack.append((j, ei))
        return tuple(edges)


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

    b = _Builder(program)

    # Root cliques.  Later cliques overlapping earlier ones hang off them
    # with the overlap as separator; their overlap marginals must agree.
    clique_nodes: list[int] = []
    for scope, prior in query.cliques:
        table = JointTable(
            scope, _complete_prior(prior, f"{query.pos}: query clique {scope.vars}")
        )
        overlap_parent = None
        overlap_vars: tuple[str, ...] = ()
        for j in clique_nodes:
            shared = tuple(v for v in scope.vars if v in b.nodes[j].scope)
            if shared:
                if overlap_parent is not None:
                    raise MultiplyConnectedError(
                        f"query clique {scope.vars} overlaps more than one "
                        f"earlier clique"
                    )
                overlap_parent, overlap_vars = j, shared
        new_vars = [v for v in scope.vars if v not in b.introducer]
        if len(new_vars) + len(overlap_vars) != len(scope):
            raise MultiplyConnectedError(
                f"query clique {scope.vars} repeats variables outside its "
                f"single overlap"
            )
        sep = Scope(overlap_vars) if overlap_vars else None
        parents = (overlap_parent,) if overlap_parent is not None else ()
        idx = b.add(ROOT, scope, sep, parents, qpos, ", ".join(scope.vars))
        if overlap_parent is not None:
            mine = marginalize(table, sep).probs
            theirs = marginalize(b.tables[overlap_parent], sep).probs
            if np.abs(mine - theirs).max() > _OVERLAP_TOL:
                raise NetworkStructureError(
                    f"query cliques disagree on overlap {sep.vars}: "
                    f"{mine} vs {theirs}"
                )
        b.tables.append(table)
        clique_nodes.append(idx)
        for v in new_vars:
            b.introducer[v] = idx

    # Rules in dependency order, each hanging off a single covering node.
    for ci in _order_rules(program):
        rule = clauses[ci]
        upstream = b.upstream_for(rule.head.vars)
        head_joint = marginalize(b.tables[upstream], rule.head)
        table = multiply_condition(head_joint, _complete_cond(rule.cond), rule.body)
        idx = b.add(RULE, table.scope, rule.head, (upstream,), ci,
                    f"{', '.join(rule.head.vars)} -> {rule.body}")
        b.tables.append(table)
        b.introducer[rule.body] = idx

    # Observations: leaves carrying the current marginal over their variables.
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
        upstream = b.upstream_for(clause.vars)
        table = marginalize(b.tables[upstream], scope)
        b.add(OBS, scope, scope, (upstream,), ci, ", ".join(clause.vars))
        b.tables.append(table)
        observables |= set(clause.vars)

    edges = b.build_edges()
    adjacency: list[list[int]] = [[] for _ in b.nodes]
    for ei, e in enumerate(edges):
        adjacency[e.a].append(ei)
        adjacency[e.b].append(ei)

    return PreparedNetwork(
        program=program,
        nodes=tuple(b.nodes),
        tables=tuple(b.tables),
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
