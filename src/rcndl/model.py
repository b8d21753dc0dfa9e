"""Domain types shared by every stage of the interpreter.

A network is a collection of small joint probability tables over ordered
scopes of binary variables.  State indexing follows one fixed convention
everywhere: for a scope ``(x0, x1, ..., x_{n-1})``, state ``j`` assigns
``x_k`` the value ``(j >> (n-1-k)) & 1``.  In other words the *first*
variable in the scope is the most significant bit and ``false`` orders
before ``true``, so the table over ``(A, B)`` is laid out as
``[p(~A,~B), p(~A,B), p(A,~B), p(A,B)]``.

That is C order for an array of shape ``(2,) * n``, so a flat table is
also an array with one axis per scope variable.  ``axes`` gives that view
over any larger scope, with a length-1 axis for each variable the table
lacks; tables and rows over different scopes are combined by broadcasting
these views (``product``, ``lift``).  The map from the states of a scope to
those of a sub-scope (``substate_map``) is the lifted view of the
sub-scope's state numbers.  It depends only on the scope's length and the
positions of the sub-variables, so each distinct one over a clause-sized
scope is built once per process and shared read-only.

Every sum over the events of a partition is a ``np.bincount`` over that
map, which adds each event's states in state order.  A sum over axes adds
them in an order numpy picks from the array's shape and strides, which
changes the last bit of a sizeable share of marginals and would break the
scheduler's bit-for-bit agreement with its edge-by-edge reference; so no
event sum goes over axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ArityError, InfeasibleEvidenceError, ProbabilityError, ScopeError

UNIT_SUM_TOL = 1e-9

# The most variables a group joint or a full-joint expansion may span.
MAX_VARIABLES = 25

# Sentinel accepted in source probability lists for "unknown".
UNKNOWN = -1.0


@dataclass(frozen=True)
class Scope:
    """An ordered tuple of distinct variable names."""

    vars: tuple[str, ...]

    def __init__(self, vars: Iterable[str]):
        vs = tuple(vars)
        if not vs:
            raise ScopeError("scope must contain at least one variable")
        if len(set(vs)) != len(vs):
            raise ScopeError(f"duplicate variable in scope {vs}")
        object.__setattr__(self, "vars", vs)

    def __len__(self) -> int:
        return len(self.vars)

    def __iter__(self):
        return iter(self.vars)

    def __contains__(self, var: str) -> bool:
        return var in self.vars

    def index(self, var: str) -> int:
        try:
            return self.vars.index(var)
        except ValueError:
            raise ScopeError(f"variable {var!r} not in scope {self.vars}") from None

    def issubset(self, other: "Scope") -> bool:
        return set(self.vars) <= set(other.vars)

    @property
    def n_states(self) -> int:
        return 1 << len(self.vars)


def state_index(scope: Scope, assignment: Mapping[str, bool]) -> int:
    """Index of the state in which each scope variable takes the given value.

    The assignment must cover exactly the scope's variables.
    """
    if set(assignment) != set(scope.vars):
        missing = set(scope.vars) - set(assignment)
        extra = set(assignment) - set(scope.vars)
        raise ScopeError(
            f"assignment does not match scope: missing {sorted(missing)}, "
            f"extra {sorted(extra)}"
        )
    n = len(scope)
    j = 0
    for k, v in enumerate(scope.vars):
        if assignment[v]:
            j |= 1 << (n - 1 - k)
    return j


def event_label(scope: Scope, state: int) -> str:
    """The state of ``scope`` as variable values, e.g. ``A=true, B=false``."""
    n = len(scope)
    return ", ".join(
        f"{v}={'true' if (state >> (n - 1 - k)) & 1 else 'false'}"
        for k, v in enumerate(scope.vars)
    )


# Maps over scopes of more variables are rebuilt on every call: building one
# then costs about as much as the table work it serves, and keeping it would
# pin 2^n words (a full-joint oracle table has up to 2^25 states).
_CACHED_MAX_VARS = 12


def _positions(sub: Scope, scope: Scope) -> tuple[int, ...]:
    try:
        return tuple(map(scope.vars.index, sub.vars))
    except ValueError:  # raise the ScopeError naming the missing variable
        return tuple(scope.index(v) for v in sub.vars)


def _axes(values: np.ndarray, n: int, positions: tuple[int, ...]) -> np.ndarray:
    """``values``, whose last axis runs over the states of a sub-scope, as a
    view with one axis per variable of an ``n``-variable scope: the
    sub-scope's ``k``-th variable on axis ``positions[k]`` (after any leading
    axes), length 1 on the others."""
    lead = values.shape[:-1]
    m = len(positions)
    order = sorted(range(m), key=positions.__getitem__)
    cube = values.reshape(lead + (2,) * m).transpose(
        *range(len(lead)), *(len(lead) + k for k in order)
    )
    shape = [1] * n
    for p in positions:
        shape[p] = 2
    return cube.reshape(lead + tuple(shape))


def _lift(values: np.ndarray, n: int, positions: tuple[int, ...]) -> np.ndarray:
    # Leading axes vary fastest, the layout of the gather values[..., map]:
    # BLAS rounds products with rows laid out otherwise differently.
    lead = values.shape[:-1]
    out = np.moveaxis(np.empty((1 << n,) + lead, dtype=values.dtype), 0, -1)
    out.reshape(lead + (2,) * n)[...] = _axes(values, n, positions)
    return out


def _build_state_map(n: int, positions: tuple[int, ...]) -> np.ndarray:
    out = _lift(np.arange(1 << len(positions), dtype=np.intp), n, positions)
    out.setflags(write=False)
    return out


_cached_state_map = lru_cache(maxsize=1024)(_build_state_map)


def substate_map(scope: Scope, sub: Scope) -> np.ndarray:
    """For each state of ``scope``, the index of its restriction to ``sub``:
    the sub-scope's state numbers lifted onto ``scope``.

    The map depends only on the scope's length and the positions of the
    sub-variables in it, so for scopes of up to 12 variables it is built
    once per such key and shared.  The returned array is read-only.
    """
    n, positions = len(scope.vars), _positions(sub, scope)
    if n <= _CACHED_MAX_VARS:
        return _cached_state_map(n, positions)
    return _build_state_map(n, positions)


def lift(values, sub: Scope, scope: Scope) -> np.ndarray:
    """Values over the states of ``sub`` (the last axis; leading axes such
    as constraint rows are kept) repeated over the states of ``scope``:
    ``out[..., j]`` is ``values[..., s]`` for ``s`` the restriction of state
    ``j`` to ``sub``.  A fresh array."""
    return _lift(np.asarray(values), len(scope), _positions(sub, scope))


def event_indices(scope: Scope, partial: Mapping[str, bool]) -> np.ndarray:
    """Indices of all states of ``scope`` consistent with a partial assignment."""
    mask = np.ones(scope.n_states, dtype=bool)
    for var, val in partial.items():
        mask &= substate_map(scope, Scope((var,))) == int(val)
    return np.nonzero(mask)[0]


@dataclass(frozen=True)
class JointTable:
    """A probability distribution over the states of a scope."""

    scope: Scope
    probs: np.ndarray = field(repr=False)

    def __init__(self, scope: Scope, probs, *, _validate: bool = True):
        p = np.asarray(probs, dtype=float)
        if p.shape != (scope.n_states,):
            raise ArityError(
                f"table over {scope.vars} needs {scope.n_states} entries, "
                f"got {p.shape}"
            )
        if _validate:
            if p.min() < -1e-12:
                raise ProbabilityError(f"negative probability {p.min()} in table")
            if abs(p.sum() - 1.0) > UNIT_SUM_TOL:
                raise ProbabilityError(f"table sums to {p.sum():.12f}, not 1")
            p = np.clip(p, 0.0, None)
        p.setflags(write=False)
        object.__setattr__(self, "scope", scope)
        object.__setattr__(self, "probs", p)

    def __repr__(self):
        vals = ", ".join(f"{v:.6f}" for v in self.probs)
        return f"JointTable({'/'.join(self.scope.vars)}: [{vals}])"

    def prob_of(self, partial: Mapping[str, bool]) -> float:
        """Total probability of the event described by a partial assignment."""
        return float(self.probs[event_indices(self.scope, partial)].sum())


def axes(table: JointTable, scope: Scope) -> np.ndarray:
    """The table as a broadcastable view with one axis per variable of
    ``scope``, in scope order: length 2 for the table's own variables,
    length 1 for each variable it lacks."""
    return _axes(table.probs, len(scope), _positions(table.scope, scope))


def product(a: JointTable, b: JointTable) -> JointTable:
    """The unnormalized pointwise product of two tables, over the union of
    their scopes with ``a``'s variables first."""
    scope = Scope(a.scope.vars + tuple(v for v in b.scope.vars if v not in a.scope))
    values = axes(a, scope) * axes(b, scope)
    return JointTable(scope, values.reshape(-1), _validate=False)


def normalized(t: JointTable) -> JointTable:
    """The table divided by its total mass."""
    return JointTable(t.scope, t.probs / t.probs.sum(), _validate=False)


def marginalize(table: JointTable, sub: Scope) -> JointTable:
    """Sum the table down onto a sub-scope (any variable order)."""
    if not sub.issubset(table.scope):
        raise ScopeError(
            f"{sub.vars} is not a subset of table scope {table.scope.vars}"
        )
    out = np.bincount(substate_map(table.scope, sub), table.probs,
                      minlength=sub.n_states)
    return JointTable(sub, out, _validate=False)


def multiply_condition(
    head_joint: JointTable, cond: Sequence[float], body: str
) -> JointTable:
    """Extend a joint over the head scope by a conditional for one new variable.

    ``cond[i]`` is the probability that ``body`` is true given head
    configuration ``i``; the result ranges over ``head ++ [body]``.
    """
    n = head_joint.scope.n_states
    c = np.asarray(cond, dtype=float)
    if c.shape != (n,):
        raise ArityError(f"conditional list needs {n} entries, got {c.shape}")
    if body in head_joint.scope:
        raise ScopeError(f"body variable {body!r} already occurs in the head")
    out = np.empty(2 * n)
    out[0::2] = head_joint.probs * (1.0 - c)
    out[1::2] = head_joint.probs * c
    return JointTable(Scope(tuple(head_joint.scope.vars) + (body,)), out,
                      _validate=False)


def scale_events(
    table: JointTable, partition: Scope, targets: np.ndarray
) -> JointTable:
    """Rescale each event of a partition to hit the target event probabilities.

    This is the shared mechanical core of the marginal (Jeffrey) update:
    every state belonging to partition event ``l`` is multiplied by
    ``targets[l] / current[l]``.  Events with zero target and zero current
    mass are left alone; positive target on a zero-mass event is infeasible.
    """
    smap = substate_map(table.scope, partition)
    current = np.bincount(smap, table.probs, minlength=partition.n_states)
    factors = event_factors(targets, current, (partition,))
    return JointTable(table.scope, table.probs * factors[smap], _validate=False)


def event_factors(
    target: np.ndarray, current: np.ndarray, partitions: Iterable[Scope]
) -> np.ndarray:
    """``target / current`` per event, for the events of ``partitions``
    concatenated in order; 1 where an event has neither mass nor target.

    The first event with positive target but no current mass is infeasible.
    """
    mass = current > 0.0
    infeasible = ~mass & (target > 0.0)
    if infeasible.any():
        e = l = int(np.argmax(infeasible))
        for sep in partitions:
            if l < sep.n_states:
                break
            l -= sep.n_states
        raise InfeasibleEvidenceError(
            f"event {l} of partition {sep.vars} has zero prior probability "
            f"but target {target[e]}",
            event_label(sep, l), target[e],
        )
    return np.divide(target, current, out=np.ones(current.size), where=mass)


# --------------------------------------------------------------------------
# Parsed clause forms
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SourcePos:
    line: int
    column: int

    def __str__(self):
        return f"{self.line}:{self.column}"


@dataclass(frozen=True)
class QueryClause:
    """``?- c1 : [..]; c2 : [..].`` -- the root cliques with their priors."""

    cliques: tuple[tuple[Scope, tuple[float, ...]], ...]
    pos: SourcePos | None = None


@dataclass(frozen=True)
class RuleClause:
    """``h1, h2 -> b : [..].`` -- conditionals P(body | head config)."""

    head: Scope
    body: str
    cond: tuple[float, ...]
    pos: SourcePos | None = None


@dataclass(frozen=True)
class ObservationClause:
    """``v1, v2.`` -- declares observable variables."""

    vars: tuple[str, ...]
    pos: SourcePos | None = None


Clause = QueryClause | RuleClause | ObservationClause


# --------------------------------------------------------------------------
# Constraint sets (evidence)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MarginalConstraint:
    """Target probabilities for the event partition of a variable set."""

    scope: Scope
    targets: tuple[float, ...]
    threshold: float | None = None

    def __post_init__(self):
        t = np.asarray(self.targets, dtype=float)
        if t.shape != (self.scope.n_states,):
            raise ArityError(
                f"marginal constraint over {self.scope.vars} needs "
                f"{self.scope.n_states} targets"
            )
        # tolerate float rounding from propagated separator marginals; a
        # NaN fails both comparisons
        if not (t.min() >= -1e-12 and t.max() <= 1.0 + 1e-12):
            raise ProbabilityError("marginal targets must lie in [0, 1]")
        if abs(t.sum() - 1.0) > UNIT_SUM_TOL:
            raise ProbabilityError(f"marginal targets sum to {t.sum()}, not 1")

    def variables(self) -> tuple[str, ...]:
        return self.scope.vars

    def label(self) -> str:
        if len(self.scope) == 1:
            return f"P({self.scope.vars[0]})={self.targets[1]:g}"
        return f"P({','.join(self.scope.vars)})=[{','.join(f'{t:g}' for t in self.targets)}]"


@dataclass(frozen=True)
class ConditionalConstraint:
    """A target value for P(target | condition event)."""

    target: str
    condition: tuple[tuple[str, bool], ...]
    prob: float
    threshold: float | None = None

    def __post_init__(self):
        cond_vars = [v for v, _ in self.condition]
        if len(set(cond_vars)) != len(cond_vars):
            raise ScopeError("duplicate variable in condition event")
        if self.target in cond_vars:
            raise ScopeError(
                f"target {self.target!r} may not appear in its own condition"
            )
        if not 0.0 <= self.prob <= 1.0:
            raise ProbabilityError("conditional target must lie in [0, 1]")

    def variables(self) -> tuple[str, ...]:
        return (self.target,) + tuple(v for v, _ in self.condition)

    def label(self) -> str:
        conds = ", ".join(v if val else f"!{v}" for v, val in self.condition)
        return f"P({self.target}|{conds})={self.prob:g}"


@dataclass(frozen=True)
class LinearConstraint:
    """Rows ``a_k`` over the states of a scope with right-hand sides ``b_k``."""

    scope: Scope
    rows: tuple[tuple[float, ...], ...]
    rhs: tuple[float, ...]
    threshold: float | None = None

    def __post_init__(self):
        if len(self.rows) != len(self.rhs):
            raise ArityError("row count does not match right-hand side count")
        if not self.rows:
            raise ArityError("a linear constraint needs at least one row")
        for r in self.rows:
            if len(r) != self.scope.n_states:
                raise ArityError(
                    f"linear row needs {self.scope.n_states} coefficients"
                )
        if not (np.isfinite(self.row_matrix).all()
                and np.isfinite(self.rhs).all()):
            raise ProbabilityError(
                "linear rows and right-hand sides must be finite numbers")

    @cached_property
    def row_matrix(self) -> np.ndarray:
        """The rows as a read-only ``(k, n_states)`` float array, built once."""
        a = np.asarray(self.rows, dtype=float)
        a.setflags(write=False)
        return a

    def variables(self) -> tuple[str, ...]:
        return self.scope.vars

    def label(self) -> str:
        return f"linear[{len(self.rows)} rows on {','.join(self.scope.vars)}]"


ConstraintSet = MarginalConstraint | ConditionalConstraint | LinearConstraint
