"""Domain types shared by every stage of the interpreter.

A network is a collection of small joint probability tables over ordered
scopes of binary variables.  State indexing follows one fixed convention
everywhere: for a scope ``(x0, x1, ..., x_{n-1})``, state ``j`` assigns
``x_k`` the value ``(j >> (n-1-k)) & 1``.  In other words the *first*
variable in the scope is the most significant bit and ``false`` orders
before ``true``, so the table over ``(A, B)`` is laid out as
``[p(~A,~B), p(~A,B), p(A,~B), p(A,B)]``.

That is C order for an array of shape ``(2,) * n``, so a flat table is
also an array with one axis per scope variable, and a private axis view
gives it over any larger scope, with a length-1 axis for each variable the
table lacks.  That view serves two places only: building the map from the
states of a scope to those of a sub-scope (``substate_map``, the
sub-scope's state numbers broadcast over the scope) and the broadcast
``product`` of two tables.  The map depends only on the scope's length and
the positions of the sub-variables, so each distinct one over a
clause-sized scope is built once per process and shared read-only.  Every
lift of values over a sub-scope onto a scope (``lift``) is a gather
through that map.  Every kind of constraint set holds its variables as a
``scope``, and no kernel reads a set's events or rows on its whole table:
each reads the table's marginal over the set's scope and writes the
result back with ``scale_events``.

Every sum over the events of a partition is a ``np.bincount`` over that
map, which adds each event's states in state order.  A sum over axes adds
them in an order numpy picks from the array's shape and strides, which
changes the last bit of a sizeable share of marginals and would break the
scheduler's bit-for-bit agreement with its edge-by-edge reference; so no
event sum goes over axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from .errors import (ArityError, InfeasibleEvidenceError, ProbabilityError,
                     ScopeError, SizeLimitError)

UNIT_SUM_TOL = 1e-9

# The most variables a group joint or a full-joint expansion may span.
MAX_VARIABLES = 25

# Sentinel accepted in source probability lists for "unknown".
UNKNOWN = -1.0

# The scheduler's ordering policies and run defaults, defined here so that
# the command line reads them without loading the scheduler.
GREATEST_GRADIENT = "greatest-gradient"
PROGRAM_ORDER = "program-order"
DEFAULT_THRESHOLD = 1e-3
DEFAULT_MAX_PASSES = 100


def check_variable_limit(what: str, n: int) -> None:
    """Refuse ``what``, a table that would span ``n`` variables, beyond
    ``MAX_VARIABLES``: the one check and wording of the limit."""
    if n > MAX_VARIABLES:
        raise SizeLimitError(f"{what} would span {n} variables, over the "
                             f"{MAX_VARIABLES}-variable limit")


@dataclass(frozen=True, slots=True)
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


def trusted_scope(vars: tuple[str, ...]) -> Scope:
    """The ``Scope`` over ``vars``, a tuple of distinct names, unchecked."""
    scope = object.__new__(Scope)
    object.__setattr__(scope, "vars", vars)
    return scope


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
    """``values`` over the states of a sub-scope as a view with one axis per
    variable of an ``n``-variable scope: the sub-scope's ``k``-th variable on
    axis ``positions[k]``, length 1 on the others."""
    order = sorted(range(len(positions)), key=positions.__getitem__)
    shape = [2 if p in positions else 1 for p in range(n)]
    return values.reshape((2,) * len(positions)).transpose(order).reshape(shape)


def _build_state_map(n: int, positions: tuple[int, ...]) -> np.ndarray:
    out = np.empty(1 << n, dtype=np.intp)
    out.reshape((2,) * n)[...] = _axes(np.arange(1 << len(positions)), n, positions)
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
    return np.asarray(values)[..., substate_map(scope, sub)]


@dataclass(frozen=True, eq=False)  # equal only if identical
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
        if _validate:  # written so that a NaN fails both checks
            if not p.min() >= -1e-12:
                raise ProbabilityError(
                    f"negative or NaN probability {p.min()} in table")
            if not abs(p.sum() - 1.0) <= UNIT_SUM_TOL:
                raise ProbabilityError(f"table sums to {p.sum():.12f}, not 1")
            p = np.clip(p, 0.0, None)
        p.setflags(write=False)
        object.__setattr__(self, "scope", scope)
        object.__setattr__(self, "probs", p)

    def __repr__(self):
        vals = ", ".join(f"{v:.6f}" for v in self.probs)
        return f"JointTable({'/'.join(self.scope.vars)}: [{vals}])"


def product(a: JointTable, b: JointTable) -> JointTable:
    """The unnormalized pointwise product of two tables, over the union of
    their scopes with ``a``'s variables first: the broadcast product of
    their axis views."""
    scope = Scope(a.scope.vars + tuple(v for v in b.scope.vars if v not in a.scope))
    values = (_axes(a.probs, len(scope), _positions(a.scope, scope))
              * _axes(b.probs, len(scope), _positions(b.scope, scope)))
    return JointTable(scope, values.reshape(-1), _validate=False)


def normalized(t: JointTable) -> JointTable:
    """The table divided by its total mass."""
    return JointTable(t.scope, t.probs / t.probs.sum(), _validate=False)


def marginalize(table: JointTable, sub: Scope) -> JointTable:
    """Sum the table down onto a sub-scope (any variable order); a table
    over ``sub`` itself is its own marginal."""
    if sub == table.scope:
        return table
    if not sub.issubset(table.scope):
        raise ScopeError(
            f"{sub.vars} is not a subset of table scope {table.scope.vars}"
        )
    out = np.bincount(substate_map(table.scope, sub), table.probs,
                      minlength=sub.n_states)
    return JointTable(sub, out, _validate=False)


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

    The first event with positive target but no current mass is infeasible,
    named by its variables' values.
    """
    if current.min() > 0.0:  # every event has mass: the common case
        return target / current
    mass = current > 0.0
    infeasible = ~mass & (target > 0.0)
    if infeasible.any():
        e = l = int(np.argmax(infeasible))
        for sep in partitions:
            if l < sep.n_states:
                break
            l -= sep.n_states
        event = event_label(sep, l)
        raise InfeasibleEvidenceError(
            f"event {event} has zero prior probability but target {target[e]}",
            event, target[e])
    return np.divide(target, current, out=np.ones(current.size), where=mass)


# --------------------------------------------------------------------------
# Parsed clause forms
# --------------------------------------------------------------------------

# A parse makes one of each per clause, so they are named tuples: about a
# third of the cost of a frozen dataclass, with the same repr.

class SourcePos(NamedTuple):
    line: int
    column: int

    def __str__(self):
        return f"{self.line}:{self.column}"


class QueryClause(NamedTuple):
    """``?- c1 : [..]; c2 : [..].`` -- the root cliques with their priors."""

    cliques: tuple[tuple[Scope, tuple[float, ...]], ...]
    pos: SourcePos | None = None


class RuleClause(NamedTuple):
    """``h1, h2 -> b : [..].`` -- conditionals P(body | head config)."""

    head: Scope
    body: str
    cond: tuple[float, ...]
    pos: SourcePos | None = None


class ObservationClause(NamedTuple):
    """``v1, v2.`` -- declares observable variables."""

    vars: tuple[str, ...]
    pos: SourcePos | None = None


Clause = QueryClause | RuleClause | ObservationClause


# --------------------------------------------------------------------------
# Constraint sets (evidence)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MarginalConstraint:
    """Target probabilities for the event partition of a variable set,
    given as any array-like and held as a tuple of floats."""

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
        object.__setattr__(self, "targets", tuple(t.tolist()))

    def variables(self) -> tuple[str, ...]:
        return self.scope.vars

    def label(self) -> str:
        if len(self.scope) == 1:
            return f"P({self.scope.vars[0]})={self.targets[1]:g}"
        return f"P({','.join(self.scope.vars)})=[{','.join(f'{t:g}' for t in self.targets)}]"


@dataclass(frozen=True)
class ConditionalConstraint:
    """A target value for P(target | condition event), the condition held
    as a tuple of ``(variable, value)`` pairs.  ``scope`` holds the target,
    then the condition's variables: the target is the most significant bit
    of the set's states, and the condition event is the two states that
    agree with the condition's values."""

    target: str
    condition: tuple[tuple[str, bool], ...]
    prob: float
    threshold: float | None = None
    scope: Scope = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "condition", tuple(map(tuple, self.condition)))
        cond_vars = [v for v, _ in self.condition]
        if len(set(cond_vars)) != len(cond_vars):
            raise ScopeError("duplicate variable in condition event")
        if self.target in cond_vars:
            raise ScopeError(
                f"target {self.target!r} may not appear in its own condition"
            )
        if not 0.0 <= self.prob <= 1.0:
            raise ProbabilityError("conditional target must lie in [0, 1]")
        object.__setattr__(self, "scope", Scope((self.target, *cond_vars)))

    def variables(self) -> tuple[str, ...]:
        return self.scope.vars

    def label(self) -> str:
        conds = ", ".join(v if val else f"!{v}" for v, val in self.condition)
        return f"P({self.target}|{conds})={self.prob:g}"


@dataclass(frozen=True, eq=False)
class LinearConstraint:
    """Rows ``a_k`` over the states of a scope with right-hand sides ``b_k``,
    given as any array-like and held as read-only float copies, a ``(k,
    n_states)`` and a ``(k,)`` array.  Sets are equal only if identical."""

    scope: Scope
    rows: np.ndarray
    rhs: np.ndarray
    threshold: float | None = None

    def __post_init__(self):
        n = self.scope.n_states
        try:  # in C order: BLAS rounds products over other layouts differently
            rows = np.array(self.rows, dtype=float, order="C")
        except ValueError as exc:  # rows of unequal length
            raise ArityError(f"linear row needs {n} coefficients") from exc
        rhs = np.array(self.rhs, dtype=float)
        if rhs.ndim != 1 or rows.shape[:1] != rhs.shape:
            raise ArityError("row count does not match right-hand side count")
        if not rhs.size:
            raise ArityError("a linear constraint needs at least one row")
        if rows.shape[1:] != (n,):
            raise ArityError(f"linear row needs {n} coefficients")
        if not (np.isfinite(rows).all() and np.isfinite(rhs).all()):
            raise ProbabilityError(
                "linear rows and right-hand sides must be finite numbers")
        for name, a in (("rows", rows), ("rhs", rhs)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def variables(self) -> tuple[str, ...]:
        return self.scope.vars

    def label(self) -> str:
        return f"linear[{len(self.rows)} rows on {','.join(self.scope.vars)}]"


ConstraintSet = MarginalConstraint | ConditionalConstraint | LinearConstraint
