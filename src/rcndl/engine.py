"""MCE update kernels.

Four ways of moving a joint table toward evidence, all minimizing cross
entropy to the current table subject to the constraint:

* ``jeffrey_update`` -- marginal constraints, the closed-form event rescale.
* ``conditional_update`` -- a target for P(x | event), multiplicative
  closed form followed by renormalization.
* ``lec_solve`` -- general linear equality rows, solved through the dual
  with Fletcher-Reeves conjugate gradients.
* ``constraint_gradient`` -- the dual gradient of a constraint set at the
  current table; its infinity norm is the scheduling and termination signal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, InfeasibleEvidenceError, ScopeError
from .model import (
    ConditionalConstraint,
    ConstraintSet,
    JointTable,
    LinearConstraint,
    MarginalConstraint,
    event_indices,
    lift,
    marginalize,
    scale_events,
)


def cross_entropy(p: JointTable, q: JointTable) -> float:
    """Kullback-Leibler divergence  sum p log(p/q), with 0 log(0/q) = 0.

    Requires identical scopes and q > 0 wherever p > 0.
    """
    if p.scope != q.scope:
        raise ScopeError(
            f"cross entropy needs identical scopes, got {p.scope.vars} "
            f"and {q.scope.vars}"
        )
    support = p.probs > 0.0
    if np.any(support & (q.probs <= 0.0)):
        raise InfeasibleEvidenceError(
            "first distribution has mass where the second has none"
        )
    ps = p.probs[support]
    return float(np.sum(ps * np.log(ps / q.probs[support])))


def jeffrey_update(table: JointTable, c: MarginalConstraint) -> JointTable:
    """MCE posterior for a marginal constraint set.

    Every state in partition event ``l`` is scaled by
    ``target_l / current_l``, which satisfies the constraint exactly and
    preserves the conditional distribution within each event.
    """
    if not c.scope.issubset(table.scope):
        raise ScopeError(
            f"constraint partition {c.scope.vars} not within table scope "
            f"{table.scope.vars}"
        )
    return scale_events(table, c.scope, np.asarray(c.targets, dtype=float))


def conditional_update(table: JointTable, c: ConditionalConstraint) -> JointTable:
    """MCE posterior for a single conditional constraint P(x | S) = v.

    States inside the condition event are tilted multiplicatively: with
    ``R = (1-v) Q1 / (v Q0)`` where Q0, Q1 are the prior masses of the
    x-false and x-true parts of the event, the x-false part is scaled by
    ``R**v`` and the x-true part by ``R**(v-1)``; states outside the event
    keep their relative weights and the whole table is renormalized.  The
    result satisfies the constraint exactly (it is the minimizer of the
    cross entropy subject to the one linear row the constraint induces).
    """
    for var in c.variables():
        if var not in table.scope:
            raise ScopeError(f"constraint variable {var!r} not in table scope")
    cond = dict(c.condition)
    ev_true = event_indices(table.scope, {**cond, c.target: True})
    ev_false = event_indices(table.scope, {**cond, c.target: False})
    q = table.probs
    q0 = float(q[ev_false].sum())
    q1 = float(q[ev_true].sum())
    if q0 + q1 <= 0.0:
        raise InfeasibleEvidenceError(
            f"condition event {cond} has zero prior probability"
        )
    v = c.prob
    out = q.copy()
    if v == 0.0 or v == 1.0:
        # Bayesian limit: all event mass moves to one side of the target.
        kill = ev_true if v == 0.0 else ev_false
        keep_mass = (q1 if v == 1.0 else q0)
        if keep_mass <= 0.0:
            raise InfeasibleEvidenceError(
                f"target side of {c.label()} has zero prior probability"
            )
        out[kill] = 0.0
    elif q1 == 0.0 or q0 == 0.0:
        raise InfeasibleEvidenceError(
            f"{c.label()}: one side of the condition event has zero prior "
            f"probability but the target needs mass on both sides"
        )
    else:
        r = ((1.0 - v) * q1) / (v * q0)
        out[ev_false] = q[ev_false] * r ** v
        out[ev_true] = q[ev_true] * r ** (v - 1.0)
    total = out.sum()
    return JointTable(table.scope, out / total, _validate=False)


@dataclass
class SolverOptions:
    """Knobs for the dual minimization in ``lec_solve``."""

    tolerance: float = 1e-9        # infinity norm of the dual gradient
    max_iterations: int = 10_000
    armijo_c1: float = 1e-4
    lambda_bound: float = 1e6      # divergence guard on the multipliers


@dataclass
class DualState:
    """Multipliers, dual value and dual gradient at solver exit."""

    lambdas: np.ndarray
    value: float
    gradient: np.ndarray
    iterations: int = 0
    converged: bool = field(default=False)


def dual_value_and_gradient(
    prior: np.ndarray, rows: np.ndarray, rhs: np.ndarray, lambdas: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Dual objective, its gradient, and the tilted distribution at lambda.

    The dual is the log-partition form
    ``D(l) = log sum_j q_j exp(-(A^T l)_j) + l . b``; its k-th partial is
    ``b_k - sum_j a_kj p_j`` with ``p`` the normalized tilted distribution,
    i.e. exactly the violation of row k at the current iterate.
    """
    support = prior > 0.0
    expo = -(rows[:, support].T @ lambdas)
    m = expo.max() if expo.size else 0.0
    w = prior[support] * np.exp(expo - m)
    z = w.sum()
    value = float(np.log(z) + m + lambdas @ rhs)
    p = np.zeros_like(prior)
    p[support] = w / z
    grad = rhs - rows @ p
    return value, grad, p


def lec_solve(
    table: JointTable, c: LinearConstraint, opts: SolverOptions | None = None
) -> tuple[JointTable, DualState]:
    """Solve a linear-equality-constraint MCE problem by dual minimization.

    Returns the tilted posterior ``p_j ~ q_j exp(-(A^T l)_j)`` at the dual
    minimum, found with Fletcher-Reeves conjugate gradients and a
    backtracking Armijo line search.  The search direction restarts to
    steepest descent every ``k+1`` iterations or whenever it stops being a
    descent direction.
    """
    opts = opts or SolverOptions()
    if not c.scope.issubset(table.scope):
        raise ScopeError(
            f"constraint scope {c.scope.vars} not within table scope "
            f"{table.scope.vars}"
        )
    rows = (c.row_matrix if c.scope == table.scope
            else lift(c.row_matrix, c.scope, table.scope))
    rhs = np.asarray(c.rhs, dtype=float)
    k = len(rhs)
    prior = table.probs

    lam = np.zeros(k)
    value, grad, p = dual_value_and_gradient(prior, rows, rhs, lam)
    direction = -grad
    g_dot = float(grad @ grad)
    iterations = 0
    last_decrease = None
    for it in range(opts.max_iterations):
        gnorm = float(np.abs(grad).max()) if k else 0.0
        if gnorm <= opts.tolerance:
            iterations = it
            break
        if np.abs(lam).max() > opts.lambda_bound:
            raise InfeasibleEvidenceError(
                f"dual multipliers diverged (|lambda| > {opts.lambda_bound}); "
                f"the linear system is infeasible on the prior's support"
            )
        if it % (k + 1) == 0 or float(grad @ direction) >= 0.0:
            direction = -grad
        slope = float(grad @ direction)

        # Initial trial step from the exact directional curvature (the dual
        # Hessian is the row covariance under the tilted distribution), with
        # Armijo halving as the safeguard and growth when it underestimates.
        r = rows.T @ direction
        curvature = float(p @ r**2 - (p @ r) ** 2)
        if curvature > 1e-300:
            step = -slope / curvature
        elif last_decrease is not None and slope < 0.0:
            step = min(1.0, 2.0 * last_decrease / -slope)
        else:
            step = 1.0
        if not np.isfinite(step) or step <= 0.0:
            step = 1.0
        gnorm_now = float(np.abs(grad).max())

        def acceptable(cand_value, cand_grad, step):
            if cand_value <= value + opts.armijo_c1 * step * slope:
                return True
            # Near the optimum the theoretical decrease falls below float
            # resolution of the dual value; accept on gradient progress.
            flat = abs(cand_value - value) <= 1e-13 * max(1.0, abs(value))
            return flat and float(np.abs(cand_grad).max()) < gnorm_now

        cand = lam + step * direction
        cand_value, cand_grad, cand_p = dual_value_and_gradient(
            prior, rows, rhs, cand
        )
        if acceptable(cand_value, cand_grad, step):
            # grow the step only while the decrease is clearly resolvable;
            # in the flat terminal regime growth would chase float noise
            resolution = 1e-12 * max(1.0, abs(value))
            for _ in range(60):
                if value - cand_value <= resolution:
                    break
                bigger = step * 2.0
                b_value, b_grad, b_p = dual_value_and_gradient(
                    prior, rows, rhs, lam + bigger * direction
                )
                if not (b_value < cand_value
                        and b_value <= value + opts.armijo_c1 * bigger * slope):
                    break
                step, cand_value, cand_grad, cand_p = (
                    bigger, b_value, b_grad, b_p
                )
            cand = lam + step * direction
        else:
            while step > 1e-20:
                step *= 0.5
                cand = lam + step * direction
                cand_value, cand_grad, cand_p = dual_value_and_gradient(
                    prior, rows, rhs, cand
                )
                if acceptable(cand_value, cand_grad, step):
                    break
        last_decrease = max(value - cand_value, 0.0)
        lam, value, p = cand, cand_value, cand_p
        new_dot = float(cand_grad @ cand_grad)
        beta = new_dot / g_dot if g_dot > 0 else 0.0
        direction = -cand_grad + beta * direction
        grad, g_dot = cand_grad, new_dot
    else:
        state = DualState(lam, value, grad, opts.max_iterations, False)
        raise ConvergenceError(
            f"dual minimization did not reach tolerance {opts.tolerance} in "
            f"{opts.max_iterations} iterations (|grad| = {np.abs(grad).max():.3e})",
            best=(JointTable(table.scope, p / p.sum(), _validate=False), state),
        )

    posterior = JointTable(table.scope, p / p.sum(), _validate=False)
    return posterior, DualState(lam, value, grad, iterations, True)


def constraint_gradient(table: JointTable, c: ConstraintSet) -> np.ndarray:
    """Dual gradient of a constraint set at the current table.

    For marginal sets this is simply target minus current probability per
    event; for conditional sets the analogous difference of conditionals;
    for linear sets the row residuals ``b - A p``.
    """
    if isinstance(c, MarginalConstraint):
        current = marginalize(table, c.scope).probs
        return np.asarray(c.targets, dtype=float) - current
    if isinstance(c, ConditionalConstraint):
        cond = dict(c.condition)
        mass = table.prob_of(cond)
        if mass <= 0.0:
            raise InfeasibleEvidenceError(
                f"condition event of {c.label()} has zero probability"
            )
        current = table.prob_of({**cond, c.target: True}) / mass
        return np.array([c.prob - current])
    if isinstance(c, LinearConstraint):
        rows = (c.row_matrix if c.scope == table.scope
                else lift(c.row_matrix, c.scope, table.scope))
        return np.asarray(c.rhs, dtype=float) - rows @ table.probs
    raise TypeError(f"unknown constraint type {type(c).__name__}")


def gradient_scalar(table: JointTable, c: ConstraintSet) -> float:
    """Infinity norm of the constraint-set gradient (the scheduling scalar)."""
    return float(np.abs(constraint_gradient(table, c)).max())
