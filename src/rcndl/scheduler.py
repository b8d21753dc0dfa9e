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
together can need thousands of passes.  After a step, the first gradient
read sums every marginal set's events on its home in one ``bincount``
(``marginal_gradients``); a conditional or linear set's gradient is read
on its own, when asked for.

A network holds every clause table in one read-only float64 array from
preprocessing on; a run copies it once and updates the copy in place.
Propagation carries the home clause's new table to every other clause of
its component, each once, by a crossing away from the home: a marginal
(Jeffrey) update of the far clause with the near clause's separator
distribution (group nodes make this exact where a rule head spans several
upstream clauses).  Preprocessing builds the propagation schedule once
per network (``PropagationSchedule``): it roots each clause tree at its
lowest node, a query clique, and gathers every crossing at one depth below
the root into one level, since they touch disjoint far clauses and read
near clauses already final; each node keeps the crossing that reached it.
A run takes each home's route by a walk up those crossings to the root, a
level made for each, then runs the tree's levels down, with a factor of
exactly 1.0 on each edge of the way up (a level of no other crossing is
left out).  A level is a few numpy calls: a gather and a
``bincount`` of each side, a division and a scatter of the rescaled far
side.  Each separator event sums its states in ascending order, as one
update per edge would, so the results are bit-for-bit those of the
edge-by-edge walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .engine import (
    TOLERANCE,
    _condition_event,
    conditional_update,
    gradient_scalar,
    jeffrey_update,
    lec_solve,
    marginal_gradient,
)
from .errors import (
    ConvergenceError,
    InfeasibleEvidenceError,
    NetworkStructureError,
    ProbabilityError,
    ScopeError,
)
from .model import (
    DEFAULT_MAX_PASSES,
    DEFAULT_THRESHOLD,
    GREATEST_GRADIENT,
    PROGRAM_ORDER,
    ConditionalConstraint,
    ConstraintSet,
    JointTable,
    LinearConstraint,
    MarginalConstraint,
    Scope,
    event_factors,
    lift,
    marginalize,  # unused here; perfbench/tracer.py wraps it by this name
)
from .preprocess import GROUP, PreparedNetwork, _Level, covering_node
from .tables import ranges


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
    best = covering_node(net.nodes, net.covers, needed, skip=GROUP)
    if best is None:
        raise ScopeError(f"{c.label()}: no clause scope contains the "
                         f"constrained variables {sorted(needed)}")
    return best


def validate_evidence(net: PreparedNetwork, ev: EvidenceSet) -> list[int]:
    """Every variable of a set must be the model's, and marginal evidence
    must target declared observables; conditional and linear constraints
    only need their variables inside some clause scope.  Each failure
    leads with the set's label.

    Returns the home clause of each constraint set, in order.
    """
    homes = []
    for c in ev.constraints:
        for v in c.variables():
            if v not in net.introducer:
                raise ScopeError(f"{c.label()}: unknown variable {v!r}")
        if isinstance(c, MarginalConstraint):
            undeclared = [v for v in c.scope.vars if v not in net.observables]
            if undeclared:
                raise NetworkStructureError(
                    f"{c.label()}: evidence on {undeclared} but these "
                    f"variables are not declared as observations")
        homes.append(home_clause(net, c))  # raises if no scope covers them
    return homes


# --------------------------------------------------------------------------
# Propagation over a network's flat array, along the network's schedule
# --------------------------------------------------------------------------

class _Route(NamedTuple):
    """Propagation from one home clause: up to its component's root, one
    crossing at a time, then down the component's levels from the root.

    ``levels`` pairs each level with the event range in it of a crossing
    not to make.  Each crossing of the way up is a level of its own, whose
    positions are slices of the flat array, with the empty range.  The
    levels down are shared by every route in the component; each skips the
    crossing that the way up took the other way (none below the home),
    whose far clause is final already, and a level of it alone is left out.
    """

    touched: tuple[int, ...]        # the home's component, ascending
    levels: tuple[tuple[_Level, tuple[int, int]], ...]


def _table(net: PreparedNetwork, flat: np.ndarray, i: int) -> JointTable:
    """Node ``i``'s table as a read-only view of ``flat``."""
    return JointTable(net.nodes[i].scope, flat[net.start[i]:net.start[i + 1]],
                      _validate=False)


def route_from(net: PreparedNetwork, home: int) -> _Route:
    """The route from ``home``: a walk up the network's schedule to the
    root of the home's tree, a level made for each crossing of the way,
    then the tree's levels down, each skipping the crossing the walk took
    the other way."""
    sc, events = net.schedule, net.index.events
    up, skip, i = [], [], home
    while i not in sc.down:  # a root keys its tree's levels
        row = sc.up[i]
        p, a, b, e, pa, pb, pe, _, s, t = row.tolist()
        edge = row[7:8]  # a view of the row, cheaper than a new array
        up.append((_Level(slice(a, b), events[e:e + b - a], slice(pa, pb),
                          events[pe:pe + pb - pa], edge), (0, 0)))
        skip.append((s, t))
        i = p
    levels = sc.down[i]
    skip = skip[::-1] + [(0, 0)] * (len(levels) - len(skip))
    # a level that holds only a crossing of the way up has nothing to do
    down = [(lv, s) for lv, s in zip(levels, skip)
            if lv.edges.size > 1 or s == (0, 0)]
    return _Route(sc.touched[i], tuple(up + down))


def _propagate(net: PreparedNetwork, flat: np.ndarray, route: _Route) -> None:
    """Jeffrey-update every far clause in ``flat`` to its near clause's
    separator marginal, one level of the route at a time.  Each side's
    state map is onto its separator, so both sums have every event."""
    for lv, (a, b) in route.levels:
        target = np.bincount(lv.near_event, flat[lv.near_pos])
        far = flat[lv.far_pos]  # a view where far_pos is a slice, else a copy
        current = np.bincount(lv.far_event, far)
        if a < b:  # crossed on the way up: a factor of 1.0
            target[a:b] = current[a:b]
        if current.min() > 0.0:  # every event has mass: the common case
            factors = target / current
        else:  # the separators are looked up only to word an infeasible one
            factors = event_factors(target, current, [
                net.edges[e].separator for e in lv.edges.tolist()])
        far *= factors[lv.far_event]
        flat[lv.far_pos] = far


def _gather(net: PreparedNetwork, cons: tuple[ConstraintSet, ...],
            homes: list[int], marg: list[int]) -> tuple[np.ndarray, ...]:
    """``marginal_gradients``' index of the marginal sets ``marg``: the flat
    positions of their homes' states, each state's event (``lift``-ed onto
    the home, the sets' events numbered one after another), their targets
    and each set's first event."""
    h = np.array([homes[i] for i in marg], np.intp)
    first = np.cumsum([0] + [cons[i].scope.n_states for i in marg])
    event = np.concatenate([np.empty(0, np.intp)] + [
        lift(np.arange(f, g), cons[i].scope, net.nodes[homes[i]].scope)
        for i, f, g in zip(marg, first, first[1:])])
    return (ranges(net.start[h], np.diff(net.start)[h]), event,
            np.array([t for i in marg for t in cons[i].targets]), first[:-1])


def marginal_gradients(flat: np.ndarray, pos: np.ndarray, event: np.ndarray,
                       targets: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Every marginal set's ``gradient_scalar`` on ``flat`` from one
    ``bincount`` of its home's states by its events, each event's states
    summed in ascending order, as ``marginalize`` sums them."""
    mass = np.bincount(event, flat[pos], minlength=targets.size)
    return np.maximum.reduceat(np.abs(marginal_gradient(targets, mass)), first)


def stacked(sets: list[ConstraintSet] | tuple[ConstraintSet, ...],
            table: JointTable) -> LinearConstraint:
    """Constraint sets over variables of ``table``'s scope as one linear set
    over the variables they hold, in ``table``'s order: a marginal set's
    event indicators, a linear set's rows, and a conditional set's one row
    ``(P(x, S) - v P(S)) / P(S)``, with ``P(S)`` read off ``table``, so
    that each row's residual there is its set's gradient.  Each set's rows
    are built over its own scope and lifted onto the variables the sets
    hold: this is the one place that decides which states they span."""
    held = {v for c in sets for v in c.scope.vars}
    scope = Scope(v for v in table.scope.vars if v in held)
    rows, rhs = [], []
    for c in sets:
        if isinstance(c, LinearConstraint):
            r, b = c.rows, c.rhs
        elif isinstance(c, MarginalConstraint):
            r, b = np.eye(c.scope.n_states), c.targets
        else:
            q, false, true = _condition_event(table, c)
            r, b = np.zeros((1, c.scope.n_states)), (0.0,)
            r[0, false], r[0, true] = -c.prob, 1.0 - c.prob
            r /= q[false] + q[true]
        rows.append(lift(r, c.scope, scope))
        rhs.append(b)
    return LinearConstraint(scope, np.concatenate(rows), np.concatenate(rhs))


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
    """The error restated with the constraint being applied first, keeping
    a stalled solve's best iterate or a zero-mass event and its target."""
    return type(exc)(f"{c.label()}: {exc}", *(
        (exc.best,) if isinstance(exc, ConvergenceError) else (exc.event, exc.target)))


def update_table(table: JointTable, c: ConstraintSet,
                 tolerance: float) -> JointTable:
    """The single-constraint MCE posterior of a table: the kernel for each
    kind of constraint set is chosen here and nowhere else.

    The closed-form kernels are exact.  The linear kernel stops once every
    row residual is within ``min(TOLERANCE, tolerance)``, so no caller
    solves looser than 1e-9: the reasoning loop passes a tenth of the
    constraint's gradient threshold, ``oracle_mce`` its ``tol`` or a tenth.
    """
    if isinstance(c, MarginalConstraint):
        return jeffrey_update(table, c)
    if isinstance(c, ConditionalConstraint):
        return conditional_update(table, c)
    if isinstance(c, LinearConstraint):
        return lec_solve(table, c, min(TOLERANCE, tolerance))[0]
    raise TypeError(f"unknown constraint type {type(c).__name__}")


def _apply(net: PreparedNetwork, flat: np.ndarray, home: int, route: _Route,
           c: ConstraintSet, tolerance: float) -> None:
    """Update ``home``'s table in ``flat`` to meet ``c`` and propagate it."""
    table = update_table(_table(net, flat, home), c, tolerance)
    flat[net.start[home]:net.start[home + 1]] = table.probs
    _propagate(net, flat, route)


def propagate_clause_update(net: PreparedNetwork, updated: int) -> PreparedNetwork:
    """Carry one clause's new table through the rest of the clause tree.

    Up from the updated clause to its component's root, then down from the
    root over every edge not crossed on the way up, so every clause of the
    component is updated once, by a crossing away from the updated clause.
    Each crossed edge applies a Jeffrey update to the far clause with the
    near clause's current separator marginal.
    """
    flat = net.flat.copy()
    _propagate(net, flat, route_from(net, updated))
    return net.over(flat)


def apply_constraint(
    net: PreparedNetwork, c: ConstraintSet
) -> tuple[PreparedNetwork, int]:
    """Apply one constraint set to its home clause and propagate; the set
    is validated as ``run_reasoning`` validates evidence."""
    [home] = validate_evidence(net, EvidenceSet((c,)))
    flat = net.flat.copy()
    _apply(net, flat, home, route_from(net, home), c, TOLERANCE)
    return net.over(flat), home


def run_reasoning(
    net: PreparedNetwork, ev: EvidenceSet
) -> tuple[PreparedNetwork, RunTrace]:
    """Iterate constraint applications until every gradient is in tolerance.

    One pass uses each constraint set exactly once.  Under the
    greatest-gradient policy the next constraint within a pass is the
    not-yet-used one with the largest current gradient magnitude (ties in
    program order); under program order they run in the order given.
    Convergence is checked at pass boundaries.  A gradient is evaluated
    at most once between two updates, so the check at a pass's start, its
    first pick and the final gradients share values.  The prior's ``flat`` is
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
    routes = {h: route_from(net, h) for h in dict.fromkeys(homes)}
    marg = [i for i, c in enumerate(cons) if isinstance(c, MarginalConstraint)]
    gather = _gather(net, cons, homes, marg)
    names, ix = list(net.introducer), net.index
    known: dict[int, float] = {}  # gradients on the tables as they stand

    def gradient(i: int) -> float:
        if not known and marg:  # every marginal set's at once
            known.update(zip(marg, marginal_gradients(flat, *gather).tolist()))
        if i not in known:  # any other set's on its own, when asked for
            known[i] = gradient_scalar(_table(net, flat, homes[i]), cons[i])
        return known[i]

    def below_thresholds() -> bool:
        return all(gradient(i) < ev.threshold(i) for i in range(len(cons)))

    # each set on its own in the first pass, then jointly with the sets
    # its home also holds, which cyclic passes can take thousands to meet
    used = [(c, ev.threshold(i)) for i, c in enumerate(cons)]
    for pass_no in range(1, ev.max_passes + 1):
        if below_thresholds():
            break
        if pass_no == 2:
            used = [joint_constraint(net, flat, ev, homes, i)
                    for i in range(len(cons))]
        unused = list(range(len(cons)))
        while unused:
            pick = (max(unused, key=gradient)  # the first of equal ones
                    if ev.policy == GREATEST_GRADIENT else unused[0])
            g_before = gradient(pick)
            unused.remove(pick)
            home, (c, threshold) = homes[pick], used[pick]
            try:
                # solved to a tenth of the threshold its gradient must meet
                _apply(net, flat, home, routes[home], c, threshold / 10)
            except (InfeasibleEvidenceError, ConvergenceError) as exc:
                raise _named(exc, cons[pick]) from exc
            known.clear()
            p_true = np.bincount(ix.true_var, flat[ix.true_pos], minlength=len(names))
            trace.steps.append(Step(
                pass_no=pass_no,
                constraint=cons[pick].label(),
                gradient_before=g_before,
                home=home,
                touched=routes[home].touched,
                marginals=dict(zip(names, p_true.tolist())),
            ))
        trace.passes = pass_no

    trace.converged = below_thresholds()
    labels = [c.label() for c in cons]  # a repeated label gets its position
    trace.final_gradients = {s if s not in labels[:i] else f"{s} [{i + 1}]":
                             gradient(i) for i, s in enumerate(labels)}
    return net.over(flat), trace


def posterior_marginal(net: PreparedNetwork, var: str) -> tuple[float, float]:
    """``[P(not var), P(var)]`` read from the clause introducing the variable."""
    if var not in net.introducer:
        raise ScopeError(f"unknown variable {var!r}")
    return net.marginals[var]
