"""MCE update kernels.

Four ways of moving a joint table toward evidence, all minimizing cross
entropy to the current table subject to the constraint:

* ``jeffrey_update`` -- marginal constraints, the closed-form event rescale.
* ``conditional_update`` -- a target for P(x | event), multiplicative
  closed form followed by renormalization.
* ``lec_solve`` -- general linear equality rows, solved through the dual
  on the prior's support with damped Newton steps.
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
    """Knobs for the dual minimization in ``lec_solve``.

    ``tolerance`` bounds the row residual ``|b - A p|`` (the dual gradient)
    at exit.  The caller sets it from its own stopping point, never looser
    than the 1e-9 default: ``scheduler.update_table`` solves to
    ``min(1e-9, tolerance)`` for the tolerance it is given, which the
    reasoning loop sets to a tenth of the constraint's gradient threshold
    and ``oracle_mce`` to its own ``tol``.
    """

    tolerance: float = 1e-9        # infinity norm of the row residual
    max_iterations: int = 10_000


ARMIJO_C1 = 1e-4
TILT_BOUND = 1e6       # divergence guard on |lambda_k| * (max a_k - min a_k)
TILT_STEP = 20.0       # largest change of a log-probability ratio per step
MAX_HALVINGS = 60      # backtracking steps down to 2**-60 of a Newton step
FLAT = 1e-12           # relative change that float arithmetic cannot resolve


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
    table: JointTable, c: LinearConstraint, opts: SolverOptions | None = None
) -> tuple[JointTable, DualState]:
    """Solve a linear-equality-constraint MCE problem by dual minimization.

    Returns the tilted posterior ``p_j ~ q_j exp(-(A^T l)_j)`` at the dual
    minimum.  The minimizer puts no mass where the prior has none, so states
    without mass are dropped from the prior and the lifted rows once, and
    the posterior is scattered back to the table's scope once, on exit.
    The dual is minimized with damped Newton steps: each solves the row
    covariance under the current tilt for the gradient and backtracks, from
    a step that changes no log-probability ratio by more than
    ``TILT_STEP``, until the Armijo condition holds.  Once the decrease a
    step promises is below what the dual value resolves, the step is taken
    without a search and must shrink the residual.

    Raises ``InfeasibleEvidenceError`` when part of the gradient lies
    outside the covariance's range (no tilt of the prior's support moves
    those row combinations) or when the tilt diverges, and
    ``ConvergenceError``, with the last iterate, when no step makes
    progress or the iteration budget runs out.
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
    # max|a_k| (1 for a zero row, whose multiplier never moves) and the
    # width max a_k - min a_k, how far a unit multiplier moves a
    # log-probability ratio, from the unlifted rows without a temporary
    top, bottom = c.row_matrix.max(axis=1), c.row_matrix.min(axis=1)
    unit, width = np.maximum(top, -bottom), top - bottom
    unit[unit == 0.0] = 1.0
    prior = table.probs
    support = prior > 0.0
    if not support.all():
        # an I-projection puts no mass where the prior has none
        prior, rows = prior[support], rows[:, support]

    def dual(lambdas):
        # through the module attribute, so a wrapper installed there sees
        # every evaluation
        return dual_value_and_gradient(prior, rows, rhs, lambdas)

    def posterior():
        probs = np.zeros(support.shape)
        probs[support] = p / p.sum()
        return JointTable(table.scope, probs, _validate=False)

    def failure(message):
        return ConvergenceError(
            f"{message} (|b - A p| = {residual:.3e}, tolerance "
            f"{opts.tolerance})",
            best=(posterior(), DualState(lam, value, grad, it, False)),
        )

    lam = np.zeros(len(rhs))
    value, grad, p = dual(lam)
    it = 0
    while (residual := float(np.abs(grad).max())) > opts.tolerance:
        if it == opts.max_iterations:
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
