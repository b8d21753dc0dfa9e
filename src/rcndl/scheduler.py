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
For each distinct home clause a plan is compiled once per run: the
breadth-first crossings away from the home, grouped by depth.  Crossings at
the same depth touch disjoint far clauses and read near clauses that are
already final, so each depth runs as a few batched numpy operations over
concatenated gather/scatter indices.  The sums accumulate in the same order
as one update per edge would, so the results are bit-for-bit those of the
edge-by-edge walk.  The run returns an ordinary immutable
``PreparedNetwork`` whose tables are copied out of the flat array.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .engine import (
    conditional_update,
    gradient_scalar,
    jeffrey_update,
    lec_solve,
)
from .errors import (
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
    them all.
    """

    near_pos: np.ndarray
    near_event: np.ndarray
    far_pos: np.ndarray
    far_event: np.ndarray
    separators: tuple[Scope, ...]
    n_events: int


@dataclass(frozen=True)
class _Plan:
    """Propagation away from one home clause."""

    touched: tuple[int, ...]        # the home's connected component, sorted
    levels: tuple[_Level, ...]


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

    def _span(self, i: int) -> slice:
        return slice(self.start[i], self.start[i + 1])

    def table(self, i: int) -> JointTable:
        return JointTable(self.scopes[i], self.flat[self._span(i)],
                          _validate=False)

    def write(self, i: int, table: JointTable) -> None:
        self.flat[self._span(i)] = table.probs

    def network(self, net: PreparedNetwork) -> PreparedNetwork:
        return replace(net, tables=tuple(
            JointTable(scope, self.flat[self._span(i)].copy(), _validate=False)
            for i, scope in enumerate(self.scopes)
        ))

    def compile_plans(
        self, net: PreparedNetwork, homes: list[int]
    ) -> dict[int, _Plan]:
        """One plan per distinct home clause."""
        maps: dict[tuple[int, int], np.ndarray] = {}  # shared by the plans

        def event_map(node: int, ei: int) -> np.ndarray:
            if (node, ei) not in maps:
                maps[node, ei] = substate_map(self.scopes[node],
                                              net.edges[ei].separator)
            return maps[node, ei]

        return {h: self._plan(net, h, event_map) for h in dict.fromkeys(homes)}

    def _plan(self, net: PreparedNetwork, home: int, event_map) -> _Plan:
        """The breadth-first crossings away from ``home``, grouped by depth."""
        visited = {home}
        frontier = [home]
        levels = []
        while True:
            near, far, edges = [], [], []
            for i in frontier:
                for ei in net.adjacency[i]:
                    j = net.edges[ei].other(i)
                    if j not in visited:
                        visited.add(j)
                        near.append(i)
                        far.append(j)
                        edges.append(ei)
            if not edges:
                return _Plan(tuple(sorted(visited)), tuple(levels))
            separators = tuple(net.edges[ei].separator for ei in edges)
            n_events = np.array([sep.n_states for sep in separators],
                                dtype=np.intp)
            starts = np.cumsum(n_events) - n_events
            levels.append(_Level(
                *self._states(near, edges, starts, event_map),
                *self._states(far, edges, starts, event_map),
                separators, int(n_events.sum()),
            ))
            frontier = far

    def _states(self, nodes: list[int], edges: list[int], starts: np.ndarray,
                event_map) -> tuple[np.ndarray, np.ndarray]:
        """Store position and separator event of every state of each node in
        turn: node ``k``'s events are read through ``edges[k]`` and offset by
        ``starts[k]``."""
        idx = np.asarray(nodes, dtype=np.intp)
        first = self.start[idx]
        sizes = self.start[idx + 1] - first
        before = np.cumsum(sizes) - sizes
        pos = np.repeat(first - before, sizes) + np.arange(sizes.sum())
        events = np.concatenate([event_map(n, ei) for n, ei in zip(nodes, edges)])
        return pos, events + np.repeat(starts, sizes)

    def propagate(self, plan: _Plan) -> None:
        """Jeffrey-update every far clause to its near clause's separator
        marginal, one depth at a time."""
        flat = self.flat
        for lv in plan.levels:
            n = lv.n_events
            target = np.bincount(lv.near_event, flat[lv.near_pos], minlength=n)
            current = np.bincount(lv.far_event, flat[lv.far_pos], minlength=n)
            factors = event_factors(target, current, lv.separators)
            flat[lv.far_pos] *= factors[lv.far_event]

    def true_states(self, net: PreparedNetwork) -> tuple[np.ndarray, np.ndarray]:
        """For each variable in ``net.introducer`` order, the positions of
        the states where it is true in the clause introducing it, and the
        variable's index at each position."""
        pos, var = [], []
        for k, (v, i) in enumerate(net.introducer.items()):
            states = np.nonzero(substate_map(self.scopes[i], Scope((v,))))[0]
            pos.append(states + self.start[i])
            var.append(np.full(states.size, k, dtype=np.intp))
        return np.concatenate(pos), np.concatenate(var)


def _named(exc: InfeasibleEvidenceError,
           c: ConstraintSet) -> InfeasibleEvidenceError:
    """The error restated with the constraint being applied, and with a
    zero-mass event given as variable values."""
    if exc.event is None:
        return InfeasibleEvidenceError(f"{c.label()}: {exc}")
    return InfeasibleEvidenceError(
        f"{c.label()}: event {exc.event} has zero prior probability but "
        f"target {exc.target}",
        exc.event, exc.target,
    )


def update_table(table: JointTable, c: ConstraintSet) -> JointTable:
    """The single-constraint MCE posterior of a table: the kernel for each
    kind of constraint set is chosen here and nowhere else."""
    if isinstance(c, MarginalConstraint):
        return jeffrey_update(table, c)
    if isinstance(c, ConditionalConstraint):
        return conditional_update(table, c)
    if isinstance(c, LinearConstraint):
        return lec_solve(table, c)[0]
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
                pick = max(unused, key=lambda i: (gradient(i), -i))
            else:
                pick = unused[0]
            unused.remove(pick)
            g_before = gradient(pick)
            home = homes[pick]
            try:
                store.write(home, update_table(store.table(home), cons[pick]))
                store.propagate(plans[home])
            except InfeasibleEvidenceError as exc:
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

    trace.converged = converged or below_thresholds()
    trace.final_gradients = {c.label(): gradient(i) for i, c in enumerate(cons)}
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
