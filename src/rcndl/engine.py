"""MCE update kernels.

Four ways of moving a joint table toward evidence, all minimizing cross
entropy to the current table subject to the constraint:

* ``jeffrey_update`` -- marginal constraints, the closed-form event rescale.
* ``conditional_update`` -- a target for P(x | event), multiplicative
  closed form followed by renormalization.
* ``lec_solve`` -- general linear equality rows, solved through the dual
  on the prior's support with damped Newton steps, once no target lies
  beyond its row's range there.
* ``constraint_gradient`` -- the dual gradient of a constraint set at the
  current table; its infinity norm is the scheduling and termination signal.

Each reads the table's marginal over the set's ``scope`` alone, since the
MCE update against a set is a factor on that scope (Csiszár 1975), and the
kernels write their result back with ``scale_events``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (ConvergenceError, InfeasibleEvidenceError,
                     ProbabilityError, ScopeError)
from .model import (
    ConditionalConstraint,
    ConstraintSet,
    JointTable,
    LinearConstraint,
    MarginalConstraint,
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


def _within(table: JointTable, c: ConstraintSet) -> None:
    """Refuse a constraint set over a variable that the table lacks."""
    if not c.scope.issubset(table.scope):
        raise ScopeError(
            f"constraint scope {c.scope.vars} not within table scope "
            f"{table.scope.vars}"
        )


def _condition_event(table: JointTable, c: ConditionalConstraint
                     ) -> tuple[np.ndarray, int, int]:
    """The table's marginal over ``c.scope`` and the two states there of
    the condition event, the target false and the target true: the target
    is the scope's first variable, its most significant bit."""
    q = marginalize(table, c.scope).probs
    n = len(c.scope)
    false = sum(int(val) << (n - 2 - k) for k, (_, val) in enumerate(c.condition))
    true = false | 1 << (n - 1)
    if q[false] + q[true] <= 0.0:
        raise InfeasibleEvidenceError(
            f"condition event of {c.label()} has zero probability")
    return q, false, true


def jeffrey_update(table: JointTable, c: MarginalConstraint) -> JointTable:
    """MCE posterior for a marginal constraint set.

    Every state in partition event ``l`` is scaled by
    ``target_l / current_l``, which satisfies the constraint exactly and
    preserves the conditional distribution within each event.
    """
    _within(table, c)
    return scale_events(table, c.scope, np.asarray(c.targets, dtype=float))


def conditional_update(table: JointTable, c: ConditionalConstraint) -> JointTable:
    """MCE posterior for a single conditional constraint P(x | S) = v.

    On the table's marginal over ``c.scope``, the condition event's two
    states are tilted multiplicatively: with ``R = (1-v) Q1 / (v Q0)``
    where Q0, Q1 are the prior masses of its x-false and x-true states, the
    x-false state is scaled by ``R**v`` and the x-true state by
    ``R**(v-1)``; the marginal is renormalized and every state of the table
    scaled by its restriction's ratio.  The result satisfies the constraint
    exactly (it is the minimizer of the cross entropy subject to the one
    linear row the constraint induces).
    """
    _within(table, c)
    q, false, true = _condition_event(table, c)
    q0, q1 = float(q[false]), float(q[true])
    v = c.prob
    out = q.copy()
    if v == 0.0 or v == 1.0:
        # Bayesian limit: all event mass moves to one side of the target.
        kill = true if v == 0.0 else false
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
        out[false] *= r ** v
        out[true] *= r ** (v - 1.0)
    return scale_events(table, c.scope, out / out.sum())


TOLERANCE = 1e-9       # infinity norm of the row residual at exit
MAX_ITERATIONS = 10_000
ARMIJO_C1 = 1e-4
TILT_BOUND = 1e6       # divergence guard on |lambda_k| * (max a_k - min a_k)
TILT_STEP = 20.0       # largest change of a log-probability ratio per step
MAX_HALVINGS = 60      # backtracking steps down to 2**-60 of a Newton step
FLAT = 1e-12           # relative change that float arithmetic cannot resolve


@dataclass(eq=False)  # equal only if identical
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
    i.e. exactly the violation of row k at the current iterate.  The sums
    run over every state given, so ``prior`` must have full support: the
    exponent is shifted by its largest value, which a state without mass
    could hold while every state with mass underflows.
    """
    # updated in place: an evaluation allocates one array of the states'
    # size
    w = rows.T @ lambdas
    np.negative(w, out=w)
    m = w.max() if w.size else 0.0
    w -= m
    np.exp(w, out=w)
    w *= prior
    z = w.sum()
    value = float(np.log(z) + m + lambdas @ rhs)
    w /= z
    return value, rhs - rows @ w, w


def row_covariance(rows: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The dual Hessian, the rows' covariance under ``p``, built one row at
    a time so that no temporary of the rows' size is made."""
    mean = rows @ p
    h = np.empty((len(mean), len(mean)))
    for i, row in enumerate(rows):
        centred = row - mean[i]
        centred *= p
        # sum p (a_i - m_i)(a_j - m_j) for any m, exact or rounded; without
        # the second term a state whose p rounds the mean to a_j drops out
        h[i] = rows @ centred - mean * centred.sum()
    return h


def lec_solve(
    table: JointTable, c: LinearConstraint, tolerance: float = TOLERANCE
) -> tuple[JointTable, DualState]:
    """Solve a linear-equality-constraint MCE problem by dual minimization.

    Returns the tilted posterior ``p_j ~ q_j exp(-(A^T l)_j)`` at the dual
    minimum, with every row residual ``|b - A p|`` within ``tolerance``.
    A set whose scope is not the table's is solved on the table's marginal
    over its scope, and the result is scaled back by ``scale_events``.
    The minimizer puts no mass where the prior has none, so states without
    mass are dropped from the prior and the rows once, and the posterior is
    scattered back once, on exit.  The dual is minimized with damped Newton
    steps: each solves the row covariance under the current tilt for the
    gradient and backtracks, from a step that changes no log-probability
    ratio by more than ``TILT_STEP``, until the Armijo condition holds.
    Once the decrease a step promises is below what the dual value
    resolves, the step is taken without a search and must shrink the
    residual.

    Raises ``InfeasibleEvidenceError`` before the first step when a
    right-hand side lies beyond its row's range on the support by more
    than ``tolerance``; later, when part of the gradient lies outside the
    covariance's range (no tilt of the prior's support moves those row
    combinations) or when the tilt diverges.  Raises ``ConvergenceError``,
    with the last iterate, when no step makes progress or
    ``MAX_ITERATIONS`` run out.  ``tolerance`` must be finite and
    non-negative; otherwise ``ProbabilityError``.
    """
    if not 0.0 <= tolerance < np.inf:  # NaN fails too
        raise ProbabilityError(
            f"tolerance {tolerance!r} must be finite and non-negative")
    _within(table, c)
    rows, rhs = c.rows, c.rhs
    # max|a_k| (1 for a zero row, whose multiplier never moves) and the
    # width max a_k - min a_k, how far a unit multiplier moves a
    # log-probability ratio
    top, bottom = rows.max(axis=1), rows.min(axis=1)
    unit, width = np.maximum(top, -bottom), top - bottom
    unit[unit == 0.0] = 1.0
    prior = marginalize(table, c.scope).probs
    support = prior > 0.0
    if not support.all():
        # an I-projection puts no mass where the prior has none
        prior, rows = prior[support], rows[:, support]
        top, bottom = rows.max(axis=1), rows.min(axis=1)
    # a target beyond its row's range on the support has no I-projection
    beyond = np.maximum(rhs - top, bottom - rhs)
    if beyond.max() > tolerance:
        k = int(beyond.argmax())
        raise InfeasibleEvidenceError(
            f"right-hand side {rhs[k]:.12g} of row {k} lies outside the row's "
            f"range [{bottom[k]:.12g}, {top[k]:.12g}]; the linear system is "
            "infeasible on the prior's support"
        )

    def dual(lambdas):
        # through the module attribute, so a wrapper installed there sees
        # every evaluation
        return dual_value_and_gradient(prior, rows, rhs, lambdas)

    def posterior():
        probs = np.zeros(support.shape)
        probs[support] = p / p.sum()
        if c.scope != table.scope:  # each event scaled to its tilt
            return scale_events(table, c.scope, probs)
        return JointTable(table.scope, probs, _validate=False)

    def failure(message):
        return ConvergenceError(
            f"{message} (|b - A p| = {residual:.3e}, tolerance {tolerance})",
            best=(posterior(), DualState(lam, value, grad, it, False)),
        )

    lam = np.zeros(len(rhs))
    value, grad, p = dual(lam)
    it = 0
    while (residual := float(np.abs(grad).max())) > tolerance:
        if it == MAX_ITERATIONS:
            raise failure(f"dual minimization did not converge in {it} "
                          f"iterations")
        if float((np.abs(lam) * width).max()) > TILT_BOUND:
            raise InfeasibleEvidenceError(
                f"dual tilt diverged (|lambda_k| (max a_k - min a_k) > "
                f"{TILT_BOUND}); the linear system is infeasible on the "
                f"prior's support"
            )
        hessian = row_covariance(rows, p)
        with np.errstate(over="ignore", invalid="ignore"):
            # on rows of unit scale, so that lstsq's cut of small singular
            # values keeps rows with small coefficients
            newton = np.linalg.lstsq(hessian / np.outer(unit, unit),
                                     grad / unit, rcond=None)[0] / unit
            unreduced = np.abs(grad - hessian @ newton)
            # bound each log-probability ratio's change: far from the
            # minimum a whole step can overshoot into an underflowing tilt
            spread = float(np.ptp(rows.T @ newton))
        # a residual no tilt moves (beyond rounding), or a step too large
        # to take, from a covariance that underflowed with the residual open
        if not (np.isfinite(unreduced).all() and np.isfinite(spread)) or (
                unreduced.max() > 0.5 * residual
                and (unreduced > FLAT * unit).any()):
            raise InfeasibleEvidenceError(
                "no tilt of the prior's support reduces the row residual "
                f"(|b - A p| = {residual:.3e}); the linear system is "
                "infeasible on the prior's support"
            )
        decrement = float(grad @ newton)
        step = 1.0 if spread <= TILT_STEP else TILT_STEP / spread
        if decrement <= FLAT * max(1.0, abs(value)):
            # the dual value cannot tell this step from none: take it
            # without a search, and only if it shrinks the residual
            c_value, c_grad, c_p = dual(lam - step * newton)
            if float(np.abs(c_grad).max()) >= residual:
                raise failure(f"dual minimization stalled after {it} "
                              f"iterations")
        else:
            for _ in range(MAX_HALVINGS):
                c_value, c_grad, c_p = dual(lam - step * newton)
                if c_value <= value - ARMIJO_C1 * step * decrement:
                    break
                step *= 0.5
            else:
                raise failure(f"no damped Newton step decreased the dual "
                              f"after {it} iterations")
        lam, value, grad, p = lam - step * newton, c_value, c_grad, c_p
        it += 1
    return posterior(), DualState(lam, value, grad, it, True)


def constraint_gradient(table: JointTable, c: ConstraintSet) -> np.ndarray:
    """Dual gradient of a constraint set at the current table.

    For marginal sets this is simply target minus current probability per
    event; for conditional sets the analogous difference of conditionals;
    for linear sets the row residuals ``b - A p`` on the set's marginal.
    """
    if isinstance(c, MarginalConstraint):
        current = marginalize(table, c.scope).probs
        return np.asarray(c.targets, dtype=float) - current
    if isinstance(c, ConditionalConstraint):
        q, false, true = _condition_event(table, c)
        return np.array([c.prob - q[true] / (q[false] + q[true])])
    if isinstance(c, LinearConstraint):
        return c.rhs - c.rows @ marginalize(table, c.scope).probs
    raise TypeError(f"unknown constraint type {type(c).__name__}")


def gradient_scalar(table: JointTable, c: ConstraintSet) -> float:
    """Infinity norm of the constraint-set gradient (the scheduling scalar)."""
    return float(np.abs(constraint_gradient(table, c)).max())
