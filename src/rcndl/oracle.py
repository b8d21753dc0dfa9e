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
from .errors import ConvergenceError, SizeLimitError
from .model import (
    ConstraintSet,
    JointTable,
    MAX_VARIABLES,
    Scope,
    lift,
    marginalize,
    normalized,
    product,
)
from .preprocess import OBS, PreparedNetwork
from .scheduler import stacked, update_table

DEFAULT_CYCLE_CAP = 100_000


def expand_full_joint(net: PreparedNetwork, max_vars: int = MAX_VARIABLES) -> JointTable:
    """The exact joint over every network variable.

    Computed as the product of all clause and group tables divided by the
    separator marginal of every propagation edge (observation leaves drop
    out, being equal to their own separators).
    """
    variables = tuple(net.introducer)
    if len(variables) > max_vars:
        raise SizeLimitError(
            f"{len(variables)} variables exceeds the {max_vars}-variable "
            f"expansion guard"
        )
    acc: JointTable | None = None
    for node in net.nodes:
        if node.kind == OBS:
            continue
        table = net.tables[node.idx]
        acc = table if acc is None else product(acc, table)
    for edge in net.edges:
        if net.nodes[edge.a].kind == OBS or net.nodes[edge.b].kind == OBS:
            continue
        sep = marginalize(net.tables[edge.a], edge.separator)
        acc = product(acc, JointTable(sep.scope, _safe_reciprocal(sep.probs),
                                      _validate=False))
    scope = Scope(variables)
    acc = JointTable(scope, lift(acc.probs, acc.scope, scope), _validate=False)
    return normalized(acc)


def _safe_reciprocal(values: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.where(values > 0.0, 1.0 / np.where(values > 0.0, values, 1.0), 0.0)


def oracle_mce(
    joint: JointTable,
    constraints: list[ConstraintSet] | tuple[ConstraintSet, ...],
    tol: float = 1e-12,
    cycle_cap: int = DEFAULT_CYCLE_CAP,
) -> JointTable:
    """MCE distribution satisfying every constraint, relative to ``joint``.

    Cycles until every gradient is below ``tol`` at the start of a cycle.
    A cycle is an exact single-constraint MCE projection onto each set in
    the given (program) order; once a cycle has not halved the largest
    gradient, the next is one projection onto all sets at once, ``stacked``
    into one linear set over the joint, since cycling that slowly can take
    many thousands of cycles (sets that together pin a marginal).  Only
    then: stacking lifts every row onto the whole joint.  Linear
    projections are solved to ``min(1e-9, tol)``.  The fixed order makes
    the oracle an order-independent check of the scheduler's
    greatest-gradient runs.
    """
    current, worst = joint, np.inf
    for _ in range(cycle_cap):
        last, worst = worst, max((gradient_scalar(current, c)
                                  for c in constraints), default=0.0)
        if worst < tol:
            return current
        for c in ([stacked(constraints, current)] if worst > last / 2
                  else constraints):
            current = update_table(current, c, tol)
    raise ConvergenceError(
        f"oracle did not satisfy all constraints within {tol} after "
        f"{cycle_cap} cycles",
        best=current,
    )


def ce_decomposition_check(
    prior_net: PreparedNetwork,
    posterior_net: PreparedNetwork,
    max_vars: int = MAX_VARIABLES,
) -> tuple[float, float]:
    """Cross entropy of the full joints vs the clause-wise decomposition.

    Returns ``(full, decomposed)`` where the decomposed side sums each
    clause's cross entropy and subtracts the cross entropy of every
    propagation-edge separator; for networks without group nodes this is
    exactly the root term plus the per-rule clause-minus-head terms.  The
    two sides agree whenever both joints factor over the clause tree.
    """
    full = cross_entropy(
        expand_full_joint(posterior_net, max_vars),
        expand_full_joint(prior_net, max_vars),
    )
    decomposed = 0.0
    for node in prior_net.nodes:
        if node.kind == OBS:
            continue
        decomposed += cross_entropy(
            posterior_net.tables[node.idx], prior_net.tables[node.idx]
        )
    for edge in prior_net.edges:
        if (prior_net.nodes[edge.a].kind == OBS
                or prior_net.nodes[edge.b].kind == OBS):
            continue
        decomposed -= cross_entropy(
            marginalize(posterior_net.tables[edge.a], edge.separator),
            marginalize(prior_net.tables[edge.a], edge.separator),
        )
    return full, decomposed
