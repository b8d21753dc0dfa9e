"""Reference reasoning loop: one Jeffrey update per edge crossing.

This is the straightforward form of the scheduler's propagation, kept as
the reference that the batched implementation in ``rcndl.scheduler`` must
reproduce bit for bit.  It walks the clause tree breadth-first away from
the updated clause, builds a ``MarginalConstraint`` from the near clause's
separator marginal at every edge, and reads each step's marginal snapshot
variable by variable.  A linear set is solved to a tenth of its
threshold, never looser than the kernel's default 1e-9.
"""

from __future__ import annotations

from collections import deque

from rcndl.engine import (
    SolverOptions,
    conditional_update,
    gradient_scalar,
    jeffrey_update,
    lec_solve,
)
from rcndl.errors import ConvergenceError, InfeasibleEvidenceError
from rcndl.model import ConditionalConstraint, MarginalConstraint, marginalize
from rcndl.scheduler import (
    GREATEST_GRADIENT,
    RunTrace,
    _named,
    Step,
    home_clause,
    joint_constraint,
    posterior_marginal,
    validate_evidence,
)


def propagate_clause_update(net, updated, visited=None):
    """``visited``, if given, collects the clauses the walk updates and
    the one it starts from."""
    visited = set() if visited is None else visited
    visited.add(updated)
    queue = deque([updated])
    while queue:
        i = queue.popleft()
        for ei in net.adjacency[i]:
            edge = net.edges[ei]
            j = edge.other(i)
            if j in visited:
                continue
            sep_dist = marginalize(net.tables[i], edge.separator)
            refreshed = jeffrey_update(
                net.tables[j],
                MarginalConstraint(edge.separator, tuple(sep_dist.probs)),
            )
            net = net.with_table(j, refreshed)
            visited.add(j)
            queue.append(j)
    return net


def apply_constraint(net, c, tolerance=1e-9, visited=None):
    home = home_clause(net, c)
    table = net.tables[home]
    if isinstance(c, MarginalConstraint):
        new = jeffrey_update(table, c)
    elif isinstance(c, ConditionalConstraint):
        new = conditional_update(table, c)
    else:
        new, _ = lec_solve(table, c,
                           SolverOptions(tolerance=min(1e-9, tolerance)))
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
    trace.final_gradients = {c.label(): scalar(c) for c in cons}
    return net, trace
