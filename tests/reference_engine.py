"""Reference linear kernel: Fletcher-Reeves conjugate gradients on the dual.

This is the solver the paper names for linear systems.  Its dual
evaluation masks the prior's support, copies ``rows[:, support]`` and
``prior[support]`` and scatters the tilted distribution back every time;
``rcndl.engine`` drops the states without mass once per solve and
minimizes the same dual with damped Newton steps.  The two kernels' posteriors are
compared within a bound derived from their residuals.
"""

from __future__ import annotations

import numpy as np

from rcndl.engine import DualState
from rcndl.errors import ConvergenceError, InfeasibleEvidenceError, ScopeError
from rcndl.model import JointTable, LinearConstraint, lift

ARMIJO_C1 = 1e-4
LAMBDA_BOUND = 1e6      # divergence guard on the multipliers


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
    table: JointTable, c: LinearConstraint, tolerance: float = 1e-9,
    max_iterations: int = 10_000,
) -> tuple[JointTable, DualState]:
    """Solve a linear-equality-constraint MCE problem by dual minimization.

    Returns the tilted posterior ``p_j ~ q_j exp(-(A^T l)_j)`` at the dual
    minimum, found with Fletcher-Reeves conjugate gradients and a
    backtracking Armijo line search.  The search direction restarts to
    steepest descent every ``k+1`` iterations or whenever it stops being a
    descent direction.
    """
    if not c.scope.issubset(table.scope):
        raise ScopeError(
            f"constraint scope {c.scope.vars} not within table scope "
            f"{table.scope.vars}"
        )
    rows = c.rows if c.scope == table.scope else lift(c.rows, c.scope, table.scope)
    rhs = np.asarray(c.rhs, dtype=float)
    k = len(rhs)
    prior = table.probs

    lam = np.zeros(k)
    value, grad, p = dual_value_and_gradient(prior, rows, rhs, lam)
    direction = -grad
    g_dot = float(grad @ grad)
    iterations = 0
    last_decrease = None
    for it in range(max_iterations):
        gnorm = float(np.abs(grad).max()) if k else 0.0
        if gnorm <= tolerance:
            iterations = it
            break
        if np.abs(lam).max() > LAMBDA_BOUND:
            raise InfeasibleEvidenceError(
                f"dual multipliers diverged (|lambda| > {LAMBDA_BOUND}); "
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
            if cand_value <= value + ARMIJO_C1 * step * slope:
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
                        and b_value <= value + ARMIJO_C1 * bigger * slope):
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
        state = DualState(lam, value, grad, max_iterations, False)
        raise ConvergenceError(
            f"dual minimization did not reach tolerance {tolerance} in "
            f"{max_iterations} iterations (|grad| = {np.abs(grad).max():.3e})",
            best=(JointTable(table.scope, p / p.sum(), _validate=False), state),
        )

    posterior = JointTable(table.scope, p / p.sum(), _validate=False)
    return posterior, DualState(lam, value, grad, iterations, True)
