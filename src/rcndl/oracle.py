"""Desk-scale ground truth against the decomposed machinery.

The oracle expands a prepared network into the single joint table over all
of its variables (the junction product: every clause table multiplied,
every propagation-edge separator divided out) and solves MCE problems on
it with no loop: one cycle of single-set projections, then one joint
projection.  It validates the clause-local engine and scheduler, not
competing with them: the variable guard keeps expansion to desk scale.
"""

from __future__ import annotations

import numpy as np

from .engine import cross_entropy, gradient_scalar
from .errors import ConvergenceError, ProbabilityError
from .model import (
    ConstraintSet,
    JointTable,
    check_variable_limit,
    marginalize,
    normalized,
    product,
)
from .preprocess import OBS, Edge, PreparedNetwork
from .scheduler import stacked, update_table


def expand_full_joint(net: PreparedNetwork) -> JointTable:
    """The exact joint over every network variable, in introducer order:
    the product adds each node's new variables after those before it.

    Computed as the product of all clause and group tables divided by the
    separator marginal of every propagation edge (observation leaves drop
    out, being equal to their own separators).
    """
    check_variable_limit("expand_full_joint: the full joint", len(net.introducer))
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

    The first table whose every gradient is below ``tol`` of: ``joint``;
    one cycle of exact single-set projections in program order, linear
    ones solved to ``min(1e-9, tol)``; and the cycle's end projected onto
    all sets ``stacked`` into one, solved to a tenth of that as its
    conditional rows hold the cycle's condition masses.  Each projection
    tilts by the sets' rows, so the last is the I-projection of ``joint``
    (Csiszár 1975).  ``tol`` must be positive and finite.  Where the joint
    projection misses it, the ``ConvergenceError`` names the gradient left
    and carries that joint as ``best``; one raised by its ``lec_solve``
    carries the solver's ``(table, DualState)``.
    """
    if not 0.0 < tol < np.inf:  # NaN fails too
        raise ProbabilityError(f"oracle tolerance {tol!r} must be finite "
                               f"and positive")

    def worst(table: JointTable) -> float:
        return max((gradient_scalar(table, c) for c in constraints), default=0.0)

    current = joint
    if worst(current) < tol:
        return current
    for c in constraints:
        current = update_table(current, c, tol)
    if worst(current) >= tol:
        current = update_table(current, stacked(constraints, current), tol / 10)
        if (left := worst(current)) >= tol:
            raise ConvergenceError(f"oracle left a gradient of {left:.3g}, "
                                   f"not below {tol}", best=current)
    return current


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
