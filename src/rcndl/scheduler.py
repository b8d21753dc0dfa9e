"""Phase 2 of the interpreter: iterative evidence application.

Evidence arrives as constraint sets with per-set gradient thresholds.  The
reasoning loop runs in passes: within a pass every constraint set is used
exactly once, ordered either by greatest current gradient or by program
order, and each use updates the constraint's home clause and propagates the
change through the clause tree.  The loop stops when, at a pass boundary,
every gradient is below its threshold (or the pass budget runs out).  In
the first pass each set is applied on its own; from the second on, a set
is applied jointly with every other set its home clause holds (one linear
set, ``stacked``), since cyclic projections onto sets that pin a clause
together can need thousands of passes.

Propagation walks the clause tree breadth-first away from the updated
clause, visiting each clause at most once.  Every edge carries a separator
scope, and crossing an edge means a marginal (Jeffrey) update of the far
clause with the near clause's separator distribution; group nodes make this
exact even where a rule head spans several upstream clauses.

A network holds every clause table in one read-only float64 array from
preprocessing on.  A run copies it once and updates the copy in place; the
posterior is the network over the copy.  A crossing index locates, for
each side of each edge, the states of that side's clause and their
separator events, with one state-map lookup per distinct (scope length,
separator positions) key.  For each distinct home clause a plan gathers
from it the breadth-first crossings away from the home, grouped by depth:
crossings at one depth touch disjoint far clauses and read near clauses
already final, so each depth is a few batched numpy operations.  Each
separator event belongs to one crossing and sums its states in ascending
order, as one update per edge would, so the results are bit-for-bit those
of the edge-by-edge walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import (
    SolverOptions,
    conditional_update,
    gradient_scalar,
    jeffrey_update,
    lec_solve,
)
from .errors import (
    ConvergenceError,
    InfeasibleEvidenceError,
    NetworkStructureError,
    ProbabilityError,
    ScopeError,
)
from .model import (
    ConditionalConstraint,
    ConstraintSet,
    JointTable,
    LinearConstraint,
    MarginalConstraint,
    Scope,
    event_factors,
    event_indices,
    lift,
    marginalize,  # unused here; perfbench/tracer.py wraps it by this name
    substate_map,
)
from .preprocess import GROUP, PreparedNetwork, covering_node

GREATEST_GRADIENT = "greatest-gradient"
PROGRAM_ORDER = "program-order"

DEFAULT_THRESHOLD = 1e-3
DEFAULT_MAX_PASSES = 100


@dataclass(frozen=True)
class EvidenceSet:
    """The evidence for one reasoning run."""

    constraints: tuple[ConstraintSet, ...]
    policy: str = GREATEST_GRADIENT
    max_passes: int = DEFAULT_MAX_PASSES
    default_threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self):
        if self.policy not in (GREATEST_GRADIENT, PROGRAM_ORDER):
            raise ProbabilityError(f"unknown ordering policy {self.policy!r}")
        if self.max_passes < 0:
            raise ProbabilityError(f"pass budget {self.max_passes} is negative")
        # a negative or NaN threshold is never met, an infinite one always
        for t in (self.default_threshold, *(c.threshold for c in self.constraints)):
            if t is not None and not 0.0 <= t < np.inf:
                raise ProbabilityError(
                    f"threshold {t!r} must be finite and non-negative")

    def threshold(self, i: int) -> float:
        t = self.constraints[i].threshold
        return self.default_threshold if t is None else t


@dataclass
class Step:
    """One constraint use inside a pass."""

    pass_no: int
    constraint: str
    gradient_before: float
    home: int
    touched: tuple[int, ...]
    marginals: dict[str, float]


@dataclass
class RunTrace:
    steps: list[Step] = field(default_factory=list)
    passes: int = 0
    converged: bool = False
    final_gradients: dict[str, float] = field(default_factory=dict)


def home_clause(net: PreparedNetwork, c: ConstraintSet) -> int:
    """Smallest-scope node containing all constrained variables."""
    needed = c.variables()
    # evidence lands on clauses, not internal group joints
    best = covering_node(net.nodes, net.holders, needed, skip=GROUP)
    if best is None:
        raise ScopeError(
            f"no clause scope contains the constrained variables {sorted(needed)}"
        )
    return best


def validate_evidence(net: PreparedNetwork, ev: EvidenceSet) -> list[int]:
    """Marginal evidence must target declared observables; conditional and
    linear constraints only need their variables inside some clause scope.

    Returns the home clause of each constraint set, in order.
    """
    homes = []
    for c in ev.constraints:
        if isinstance(c, MarginalConstraint):
            undeclared = [v for v in c.scope.vars if v not in net.observables]
            if undeclared:
                raise NetworkStructureError(
                    f"evidence on {undeclared} but these variables are not "
                    f"declared as observations"
                )
        homes.append(home_clause(net, c))  # raises if no scope covers them
    return homes


# --------------------------------------------------------------------------
# Per-home propagation plans over a network's flat array
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Level:
    """Every edge crossing at one depth of a propagation, concatenated.

    ``near_*`` list the states of the clauses crossed from, ``far_*`` those
    of the clauses updated: each state's position in the flat array and the
    separator event it belongs to.  The events of the crossings' separators
    are numbered one after another, in crossing order; ``n_events`` counts
    them all.  ``edges`` are the crossed edges, in the same order.
    """

    near_pos: np.ndarray
    near_event: np.ndarray
    far_pos: np.ndarray
    far_event: np.ndarray
    edges: np.ndarray
    n_events: int


@dataclass(frozen=True)
class _Plan:
    """Propagation away from one home clause."""

    touched: tuple[int, ...]        # the home's connected component, sorted
    levels: tuple[_Level, ...]


def _ranges(first: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``first[k], ..., first[k] + sizes[k] - 1`` for each ``k`` in turn (no
    size zero), as one running sum of steps of 1 and jumps to each start."""
    out = np.ones(sizes.sum(), dtype=np.intp)
    out[np.cumsum(sizes[:-1])] = first[1:] - first[:-1] - sizes[:-1] + 1
    out[:1] = first[:1]
    return np.cumsum(out, out=out)


def _table(net: PreparedNetwork, flat: np.ndarray, i: int) -> JointTable:
    """Node ``i``'s table as a read-only view of ``flat``."""
    return JointTable(net.nodes[i].scope, flat[net.start[i]:net.start[i + 1]],
                      _validate=False)


def compile_plans(net: PreparedNetwork, homes: list[int]) -> dict[int, _Plan]:
    """One plan per distinct home clause, gathered from a crossing index.
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
             for i, adj in enumerate(net.adjacency)]
    n_events = np.array([e.separator.n_states for e in net.edges], np.intp)
    return {h: _plan(h, links, ends, index, n_events)
            for h in dict.fromkeys(homes)}


def _plan(home: int, links, ends, index, n_events) -> _Plan:
    """The breadth-first crossings away from ``home``, grouped by depth."""
    seen, frontier, order, bounds = {home}, [home], [], [0]
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
    levels = tuple(
        _Level(*near[k], *far[k], edges[a:b], int(first[k + 1] - first[k]))
        for k, (a, b) in enumerate(zip(bounds, bounds[1:])))
    return _Plan(tuple(sorted(seen)), levels)


def _propagate(net: PreparedNetwork, flat: np.ndarray, plan: _Plan) -> None:
    """Jeffrey-update every far clause in ``flat`` to its near clause's
    separator marginal, one depth at a time."""
    for lv in plan.levels:
        n = lv.n_events
        target = np.bincount(lv.near_event, flat[lv.near_pos], minlength=n)
        current = np.bincount(lv.far_event, flat[lv.far_pos], minlength=n)
        # the separators are looked up only to word an infeasible crossing
        factors = event_factors(target, current,
                                (net.edges[e].separator for e in lv.edges))
        flat[lv.far_pos] *= factors[lv.far_event]


def _true_states(net: PreparedNetwork) -> tuple[np.ndarray, np.ndarray]:
    """For each variable in ``net.introducer`` order, the positions in
    ``flat`` of the states where it is true in the clause introducing it,
    and the variable's index at each position."""
    intro = np.array(list(net.introducer.values()), dtype=np.intp)
    scopes = [net.nodes[i].scope.vars for i in intro.tolist()]
    shift = np.array([len(s) - 1 - s.index(v) for v, s in zip(net.introducer, scopes)],
                     dtype=np.intp)
    first = net.start[intro]
    sizes = net.start[intro + 1] - first
    pos = _ranges(first, sizes)
    var = np.repeat(np.arange(intro.size, dtype=np.intp), sizes)
    true = ((pos - first[var]) >> shift[var] & 1).astype(bool)
    return pos[true], var[true]


def stacked(sets: list[ConstraintSet] | tuple[ConstraintSet, ...],
            table: JointTable) -> LinearConstraint:
    """Constraint sets over variables of ``table``'s scope as one linear set
    over it: a marginal set's event indicators, a linear set's rows, and a
    conditional set's one row ``(P(x, S) - v P(S)) / P(S)``, with ``P(S)``
    read off ``table``, so that each row's residual there is its set's
    gradient."""
    scope, rows, rhs = table.scope, [], []
    for c in sets:
        if isinstance(c, LinearConstraint):
            r, b = lift(c.row_matrix, c.scope, scope), c.rhs
        elif isinstance(c, MarginalConstraint):
            r, b = lift(np.eye(c.scope.n_states), c.scope, scope), c.targets
        else:
            cond = dict(c.condition)
            r = np.zeros((1, scope.n_states))
            r[0, event_indices(scope, cond)] -= c.prob
            r[0, event_indices(scope, {**cond, c.target: True})] += 1.0
            r, b = r / table.prob_of(cond), (0.0,)
        rows += r.tolist()
        rhs += b
    return LinearConstraint(scope, tuple(map(tuple, rows)), tuple(rhs))


def joint_constraint(net: PreparedNetwork, flat: np.ndarray, ev: EvidenceSet,
                     homes: list[int], i: int) -> tuple[ConstraintSet, float]:
    """Set ``i`` with every set whose variables its home clause holds,
    ``stacked`` on the home's table in ``flat``, and their smallest
    threshold; set ``i`` and its threshold where it is the only one."""
    scope = net.nodes[homes[i]].scope
    held = [j for j, c in enumerate(ev.constraints)
            if set(c.variables()) <= set(scope.vars)]
    if held == [i]:
        return ev.constraints[i], ev.threshold(i)
    return (stacked([ev.constraints[j] for j in held], _table(net, flat, homes[i])),
            min(map(ev.threshold, held)))


def _named(exc: InfeasibleEvidenceError | ConvergenceError,
           c: ConstraintSet) -> InfeasibleEvidenceError | ConvergenceError:
    """The error restated with the constraint being applied first, a
    stalled solve keeping its best iterate, and a zero-mass event given as
    variable values."""
    if isinstance(exc, ConvergenceError):
        return ConvergenceError(f"{c.label()}: {exc}", exc.best)
    if exc.event is None:
        return InfeasibleEvidenceError(f"{c.label()}: {exc}")
    return InfeasibleEvidenceError(
        f"{c.label()}: event {exc.event} has zero prior probability but "
        f"target {exc.target}",
        exc.event, exc.target,
    )


def update_table(
    table: JointTable, c: ConstraintSet,
    tolerance: float = SolverOptions.tolerance,
) -> JointTable:
    """The single-constraint MCE posterior of a table: the kernel for each
    kind of constraint set is chosen here and nowhere else.

    The closed-form kernels are exact.  The linear kernel stops once every
    row residual is within ``min(1e-9, tolerance)``, so a caller asking
    for a tighter gradient than the default gets it.
    """
    if isinstance(c, MarginalConstraint):
        return jeffrey_update(table, c)
    if isinstance(c, ConditionalConstraint):
        return conditional_update(table, c)
    if isinstance(c, LinearConstraint):
        opts = SolverOptions(tolerance=min(SolverOptions.tolerance, tolerance))
        return lec_solve(table, c, opts)[0]
    raise TypeError(f"unknown constraint type {type(c).__name__}")


def _apply(net: PreparedNetwork, flat: np.ndarray, home: int, plan: _Plan,
           c: ConstraintSet, tolerance: float) -> None:
    """Update ``home``'s table in ``flat`` to meet ``c`` and propagate it."""
    table = update_table(_table(net, flat, home), c, tolerance)
    flat[net.start[home]:net.start[home + 1]] = table.probs
    _propagate(net, flat, plan)


def propagate_clause_update(net: PreparedNetwork, updated: int) -> PreparedNetwork:
    """Carry one clause's new table through the rest of the clause tree.

    Breadth-first from the updated clause; every clause is visited at most
    once per propagation.  Each crossed edge applies a Jeffrey update to
    the far clause with the near clause's current separator marginal.
    """
    flat = net.flat.copy()
    _propagate(net, flat, compile_plans(net, [updated])[updated])
    return net.over(flat)


def apply_constraint(
    net: PreparedNetwork, c: ConstraintSet
) -> tuple[PreparedNetwork, int]:
    """Apply one constraint set to its home clause and propagate."""
    home = home_clause(net, c)
    flat = net.flat.copy()
    _apply(net, flat, home, compile_plans(net, [home])[home], c,
           SolverOptions.tolerance)
    return net.over(flat), home


def run_reasoning(
    net: PreparedNetwork, ev: EvidenceSet
) -> tuple[PreparedNetwork, RunTrace]:
    """Iterate constraint applications until every gradient is in tolerance.

    One pass uses each constraint set exactly once.  Under the
    greatest-gradient policy the next constraint within a pass is the
    not-yet-used one with the largest current gradient magnitude (ties in
    program order); under program order they run in the order given.
    Convergence is checked at pass boundaries.  The prior's ``flat`` is
    copied once and the copy updated in place; the posterior is a network
    over it.
    """
    homes = validate_evidence(net, ev)
    trace = RunTrace()
    cons = ev.constraints
    if not cons:
        trace.converged = True
        return net, trace

    flat = net.flat.copy()
    plans = compile_plans(net, homes)
    names = list(net.introducer)
    true_pos, true_var = _true_states(net)

    def gradient(i: int) -> float:
        return gradient_scalar(_table(net, flat, homes[i]), cons[i])

    def below_thresholds() -> bool:
        return all(gradient(i) < ev.threshold(i) for i in range(len(cons)))

    # each set on its own in the first pass, then jointly with the sets
    # its home also holds, which cyclic passes can take thousands to meet
    used = [(c, ev.threshold(i)) for i, c in enumerate(cons)]
    converged = False
    for pass_no in range(1, ev.max_passes + 1):
        if below_thresholds():
            converged = True
            break
        if pass_no == 2:
            used = [joint_constraint(net, flat, ev, homes, i)
                    for i in range(len(cons))]
        unused = list(range(len(cons)))
        while unused:
            if ev.policy == GREATEST_GRADIENT:
                g_before, neg_pick = max((gradient(i), -i) for i in unused)
                pick = -neg_pick
            else:
                pick = unused[0]
                g_before = gradient(pick)
            unused.remove(pick)
            home, (c, threshold) = homes[pick], used[pick]
            try:
                # solved to a tenth of the threshold its gradient must meet
                _apply(net, flat, home, plans[home], c, threshold / 10)
            except (InfeasibleEvidenceError, ConvergenceError) as exc:
                raise _named(exc, cons[pick]) from exc
            p_true = np.bincount(true_var, flat[true_pos], minlength=len(names))
            trace.steps.append(Step(
                pass_no=pass_no,
                constraint=cons[pick].label(),
                gradient_before=g_before,
                home=home,
                touched=plans[home].touched,
                marginals=dict(zip(names, p_true.tolist())),
            ))
        trace.passes = pass_no

    final = [gradient(i) for i in range(len(cons))]
    trace.converged = converged or all(
        g < ev.threshold(i) for i, g in enumerate(final))
    trace.final_gradients = {c.label(): g for c, g in zip(cons, final)}
    return net.over(flat), trace


def _marginal(net: PreparedNetwork, i: int, sub: Scope) -> np.ndarray:
    """Node ``i``'s marginal over the one-variable ``sub``, summed from its
    slice of ``flat`` as ``marginalize`` sums a table."""
    return np.bincount(substate_map(net.nodes[i].scope, sub),
                       net.flat[net.start[i]:net.start[i + 1]], minlength=2)


def posterior_marginal(net: PreparedNetwork, var: str) -> tuple[float, float]:
    """``[P(not var), P(var)]`` read from the clause introducing the variable."""
    if var not in net.introducer:
        raise ScopeError(f"unknown variable {var!r}")
    p = _marginal(net, net.introducer[var], Scope((var,)))
    return float(p[0]), float(p[1])


def marginal_spread(net: PreparedNetwork, var: str) -> float:
    """Largest disagreement on P(var) across the nodes containing it."""
    if var not in net.introducer:
        raise ScopeError(f"unknown variable {var!r}")
    sub = Scope((var,))
    values = [_marginal(net, i, sub)[1] for i in net.holders[var]]
    return max(values) - min(values)
