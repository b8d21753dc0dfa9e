"""Phase 2 of the interpreter: iterative evidence application.

Evidence arrives as constraint sets with per-set gradient thresholds.  The
reasoning loop runs in passes: within a pass every constraint set is used
exactly once, ordered either by greatest current gradient or by program
order, and each use updates the constraint's home clause and propagates the
change through the clause tree.  The loop stops when, at a pass boundary,
every gradient is below its threshold (or the pass budget runs out).

Propagation walks the clause tree breadth-first away from the updated
clause, visiting each clause at most once.  Every edge carries a separator
scope, and crossing an edge means a marginal (Jeffrey) update of the far
clause with the near clause's separator distribution; group nodes make this
exact even where a rule head spans several upstream clauses.

During a run every clause table lives in one flat, mutable float64 array.
A crossing index built once per run locates, for each side of each edge,
the states of that side's clause and their separator events.  For each
distinct home clause a plan gathers from it the breadth-first crossings
away from the home, grouped by depth: crossings at one depth touch disjoint
far clauses and read near clauses already final, so each depth is a few
batched numpy operations.  Each separator event belongs to one crossing and
sums its states in ascending order, as one update per edge would, so the
results are bit-for-bit those of the edge-by-edge walk.  The run returns an
immutable ``PreparedNetwork`` whose tables are read-only slices of one copy
of the flat array.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
    marginalize,
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
# Flat table store and per-home propagation plans
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Level:
    """Every edge crossing at one depth of a propagation, concatenated.

    ``near_*`` list the states of the clauses crossed from, ``far_*`` those
    of the clauses updated: each state's position in the flat store and the
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


class _TableStore:
    """Every table of a network in one mutable float64 array.

    Table ``i`` occupies ``flat[start[i]:start[i + 1]]``.  ``table`` hands
    out read-only views for immediate use; ``network`` copies the tables out.
    """

    def __init__(self, net: PreparedNetwork):
        self.start = np.cumsum([0] + [t.probs.size for t in net.tables],
                               dtype=np.intp)
        self.flat = np.concatenate([t.probs for t in net.tables])
        self.scopes = [t.scope for t in net.tables]
        self.separators = [e.separator for e in net.edges]

    def table(self, i: int) -> JointTable:
        return JointTable(self.scopes[i], self.flat[self.start[i]:self.start[i + 1]],
                          _validate=False)

    def write(self, i: int, table: JointTable) -> None:
        self.flat[self.start[i]:self.start[i + 1]] = table.probs

    def network(self, net: PreparedNetwork) -> PreparedNetwork:
        flat, s = self.flat.copy(), self.start.tolist()
        return replace(net, tables=tuple(
            JointTable(scope, flat[a:b], _validate=False)
            for scope, a, b in zip(self.scopes, s, s[1:])))

    def compile_plans(
        self, net: PreparedNetwork, homes: list[int]
    ) -> dict[int, _Plan]:
        """One plan per distinct home clause, gathered from a crossing index.
        Side ``2e`` of edge ``e`` is its end ``a``, side ``2e + 1`` its end
        ``b``; crossing ``c`` reads side ``c`` and updates side ``c ^ 1``.
        The index places each side's states in the store and their events in
        a pool that holds each distinct (shared) state map once."""
        ends = [n for e in net.edges for n in (e.a, e.b)]
        sizes = np.diff(self.start)[ends]
        pool, offsets, size = {}, [], 0  # id -> (offset, map)
        for s, n in enumerate(ends):
            m = substate_map(self.scopes[n], self.separators[s >> 1])
            if id(m) not in pool:
                pool[id(m)], size = (size, m), size + m.size
            offsets.append(pool[id(m)][0])
        events = np.concatenate([np.empty(0, np.intp)]
                                + [m for _, m in pool.values()])
        index = (self.start[ends], np.array(offsets, np.intp), sizes, events)
        links = [[2 * e + (ends[2 * e] != i) for e in adj]  # crossings away
                 for i, adj in enumerate(net.adjacency)]
        n_events = np.array([sep.n_states for sep in self.separators], np.intp)
        return {h: self._plan(h, links, ends, index, n_events)
                for h in dict.fromkeys(homes)}

    @staticmethod
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
        store_first, side_first, side_sizes, side_events = index
        near, far = [], []
        for sides, out in ((crossings, near), (crossings ^ 1, far)):
            sizes = side_sizes[sides]
            cut = np.concatenate(([0], np.cumsum(sizes)))[bounds].tolist()
            e = side_events[_ranges(side_first[sides], sizes)]
            e += np.repeat(offset, sizes)
            p = _ranges(store_first[sides], sizes)
            out.extend((p[a:b], e[a:b]) for a, b in zip(cut, cut[1:]))
        levels = tuple(
            _Level(*near[k], *far[k], edges[a:b], int(first[k + 1] - first[k]))
            for k, (a, b) in enumerate(zip(bounds, bounds[1:])))
        return _Plan(tuple(sorted(seen)), levels)

    def propagate(self, plan: _Plan) -> None:
        """Jeffrey-update every far clause to its near clause's separator
        marginal, one depth at a time."""
        flat = self.flat
        for lv in plan.levels:
            n = lv.n_events
            target = np.bincount(lv.near_event, flat[lv.near_pos], minlength=n)
            current = np.bincount(lv.far_event, flat[lv.far_pos], minlength=n)
            # the separators are looked up only to word an infeasible crossing
            factors = event_factors(target, current,
                                    map(self.separators.__getitem__, lv.edges))
            flat[lv.far_pos] *= factors[lv.far_event]

    def true_states(self, net: PreparedNetwork) -> tuple[np.ndarray, np.ndarray]:
        """For each variable in ``net.introducer`` order, the positions of
        the states where it is true in the clause introducing it, and the
        variable's index at each position."""
        intro = np.array(list(net.introducer.values()), dtype=np.intp)
        shift = np.array([len(self.scopes[i]) - 1 - self.scopes[i].vars.index(v)
                          for v, i in net.introducer.items()], dtype=np.intp)
        sizes = self.start[intro + 1] - self.start[intro]
        pos = _ranges(self.start[intro], sizes)
        var = np.repeat(np.arange(intro.size, dtype=np.intp), sizes)
        true = ((pos - self.start[intro][var]) >> shift[var] & 1).astype(bool)
        return pos[true], var[true]


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


def propagate_clause_update(net: PreparedNetwork, updated: int) -> PreparedNetwork:
    """Carry one clause's new table through the rest of the clause tree.

    Breadth-first from the updated clause; every clause is visited at most
    once per propagation.  Each crossed edge applies a Jeffrey update to
    the far clause with the near clause's current separator marginal.
    """
    store = _TableStore(net)
    store.propagate(store.compile_plans(net, [updated])[updated])
    return store.network(net)


def apply_constraint(
    net: PreparedNetwork, c: ConstraintSet
) -> tuple[PreparedNetwork, int]:
    """Apply one constraint set to its home clause and propagate."""
    home = home_clause(net, c)
    store = _TableStore(net)
    store.write(home, update_table(store.table(home), c))
    store.propagate(store.compile_plans(net, [home])[home])
    return store.network(net), home


def run_reasoning(
    net: PreparedNetwork, ev: EvidenceSet
) -> tuple[PreparedNetwork, RunTrace]:
    """Iterate constraint applications until every gradient is in tolerance.

    One pass uses each constraint set exactly once.  Under the
    greatest-gradient policy the next constraint within a pass is the
    not-yet-used one with the largest current gradient magnitude (ties in
    program order); under program order they run in the order given.
    Convergence is checked at pass boundaries.
    """
    homes = validate_evidence(net, ev)
    trace = RunTrace()
    cons = ev.constraints
    if not cons:
        trace.converged = True
        return net, trace

    store = _TableStore(net)
    plans = store.compile_plans(net, homes)
    names = list(net.introducer)
    true_pos, true_var = store.true_states(net)

    def gradient(i: int) -> float:
        return gradient_scalar(store.table(homes[i]), cons[i])

    def below_thresholds() -> bool:
        return all(gradient(i) < ev.threshold(i) for i in range(len(cons)))

    converged = False
    for pass_no in range(1, ev.max_passes + 1):
        if below_thresholds():
            converged = True
            break
        unused = list(range(len(cons)))
        while unused:
            if ev.policy == GREATEST_GRADIENT:
                g_before, neg_pick = max((gradient(i), -i) for i in unused)
                pick = -neg_pick
            else:
                pick = unused[0]
                g_before = gradient(pick)
            unused.remove(pick)
            home = homes[pick]
            try:
                # solved to a tenth of the threshold its gradient must meet
                store.write(home, update_table(store.table(home), cons[pick],
                                               ev.threshold(pick) / 10))
                store.propagate(plans[home])
            except (InfeasibleEvidenceError, ConvergenceError) as exc:
                raise _named(exc, cons[pick]) from exc
            p_true = np.bincount(true_var, store.flat[true_pos],
                                 minlength=len(names))
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
    return store.network(net), trace


def posterior_marginal(net: PreparedNetwork, var: str) -> tuple[float, float]:
    """``[P(not var), P(var)]`` read from the clause introducing the variable."""
    if var not in net.introducer:
        raise ScopeError(f"unknown variable {var!r}")
    p = marginalize(net.tables[net.introducer[var]], Scope((var,))).probs
    return float(p[0]), float(p[1])


def marginal_spread(net: PreparedNetwork, var: str) -> float:
    """Largest disagreement on P(var) across the nodes containing it."""
    if var not in net.introducer:
        raise ScopeError(f"unknown variable {var!r}")
    sub = Scope((var,))
    values = [
        marginalize(net.tables[i], sub).probs[1] for i in net.holders[var]
    ]
    return max(values) - min(values)
