"""Desk-scale ground truth against the decomposed machinery.

The oracle expands a prepared network into the single joint table over all
of its variables (the junction product: every clause table multiplied,
every propagation-edge separator divided out) and solves MCE problems
directly on it.  It exists to validate the clause-local engine and
scheduler, not to compete with them: the guard on variable count keeps
expansion to desk scale.
"""

from __future__ import annotations

import numpy as np

from .engine import cross_entropy, gradient_scalar
from .errors import ConvergenceError, ProbabilityError, SizeLimitError
from .model import (
    ConstraintSet,
    JointTable,
    MAX_VARIABLES,
    marginalize,
    normalized,
    product,
)
from .preprocess import OBS, Edge, PreparedNetwork
from .scheduler import stacked, update_table

CYCLE_CAP = 100_000


def expand_full_joint(net: PreparedNetwork) -> JointTable:
    """The exact joint over every network variable, in introducer order:
    the product adds each node's new variables after those before it.

    Computed as the product of all clause and group tables divided by the
    separator marginal of every propagation edge (observation leaves drop
    out, being equal to their own separators).
    """
    variables = tuple(net.introducer)
    if len(variables) > MAX_VARIABLES:
        raise SizeLimitError(
            f"{len(variables)} variables exceeds the {MAX_VARIABLES}-variable "
            f"expansion guard"
        )
    nodes, edges = _junction(net)
    acc = net.tables[nodes[0]]
    for i in nodes[1:]:
        acc = product(acc, net.tables[i])
    for edge in edges:
        sep = marginalize(net.tables[edge.a], edge.separator)
        acc = product(acc, JointTable(sep.scope, _safe_reciprocal(sep.probs),
                                      _validate=False))
    return normalized(acc)


def _junction(net: PreparedNetwork) -> tuple[list[int], list[Edge]]:
    """The nodes and propagation edges of the junction product, in network
    order, observation leaves and their edges dropped."""
    nodes = [v.idx for v in net.nodes if v.kind != OBS]
    edges = [e for e in net.edges
             if net.nodes[e.a].kind != OBS and net.nodes[e.b].kind != OBS]
    return nodes, edges


def _safe_reciprocal(values: np.ndarray) -> np.ndarray:
    return np.where(values > 0.0, 1.0 / np.where(values > 0.0, values, 1.0), 0.0)


def oracle_mce(
    joint: JointTable,
    constraints: list[ConstraintSet] | tuple[ConstraintSet, ...],
    tol: float = 1e-12,
) -> JointTable:
    """MCE distribution satisfying every constraint, relative to ``joint``.

    Cycles until every gradient is below ``tol`` at the start of a cycle,
    for at most ``CYCLE_CAP`` cycles.  A cycle is an exact single-constraint
    MCE projection onto each set in the given (program) order; once a cycle
    has not halved the largest gradient, the next is one projection onto
    all sets at once, ``stacked`` into one linear set over the joint, since
    cycling that slowly can take many thousands of cycles (sets that
    together pin a marginal).  Only then: stacking lifts every row onto the
    whole joint.  Linear projections are solved to ``min(1e-9, tol)``.  The
    fixed order makes the oracle an order-independent check of the
    scheduler's greatest-gradient runs.  ``tol`` must be positive and finite.
    """
    if not 0.0 < tol < np.inf:  # NaN fails too
        raise ProbabilityError(f"oracle tolerance {tol!r} must be finite "
                               f"and positive")
    current, worst = joint, np.inf
    for _ in range(CYCLE_CAP):
        last, worst = worst, max((gradient_scalar(current, c)
                                  for c in constraints), default=0.0)
        if worst < tol:
            return current
        for c in ([stacked(constraints, current)] if worst > last / 2
                  else constraints):
            current = update_table(current, c, tol)
    raise ConvergenceError(
        f"oracle did not satisfy all constraints within {tol} after "
        f"{CYCLE_CAP} cycles",
        best=current,
    )


def ce_decomposition_check(
    prior_net: PreparedNetwork,
    posterior_net: PreparedNetwork,
) -> tuple[float, float]:
    """Cross entropy of the full joints vs the clause-wise decomposition.

    Returns ``(full, decomposed)`` where the decomposed side sums each
    clause's cross entropy and subtracts the cross entropy of every
    propagation-edge separator; for networks without group nodes this is
    exactly the root term plus the per-rule clause-minus-head terms.  The
    two sides agree whenever both joints factor over the clause tree.
    """
    full = cross_entropy(
        expand_full_joint(posterior_net),
        expand_full_joint(prior_net),
    )
    nodes, edges = _junction(prior_net)
    decomposed = 0.0
    for i in nodes:
        decomposed += cross_entropy(posterior_net.tables[i], prior_net.tables[i])
    for edge in edges:
        decomposed -= cross_entropy(
            marginalize(posterior_net.tables[edge.a], edge.separator),
            marginalize(prior_net.tables[edge.a], edge.separator),
        )
    return full, decomposed
