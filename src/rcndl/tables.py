"""The numeric pass of preprocessing: every clause table, depth by depth.

The structural pass (``preprocess``) has settled the clause tree from
scopes alone.  Query cliques are depth 0; any other node lies one deeper
than the deepest of its parents (a group's parents are its members), so
each depth reads only tables already written.  A query clique gets its
completed prior, which must agree with an earlier clique on their
overlap.  At every further depth one gather and one ``np.bincount`` give
each rule its upstream node's marginal over the head, times its
conditional, and each observation its upstream marginal over its
variables.  The groups at a depth are joined together (``fold``): each
member enters as its conditional on its separator with the members
before it along a maximum-overlap spanning tree (running intersection),
one product of gathers per place in the join order, and each group is
divided by its sum.  So every propagation edge is a plain pairwise
separator.  Each product and each sum is the one a join of two tables at
a time would make, so batching changes no bit.  The tables are written
straight into one flat array.

Every state map the passes read (``model.substate_map``) depends only on
a scope's length and the sub-variables' positions in it.  The structural
pass numbers each such key once in a ``StateMaps`` pool; the numeric pass
and the propagation index read every map from that pool.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .errors import ArityError, NetworkStructureError
from .model import UNIT_SUM_TOL, UNKNOWN, Scope, substate_map, trusted_scope
from .parser import SourceProgram

# the kinds of clause-tree node
ROOT, RULE, OBS, GROUP = "root", "rule", "obs", "group"

_OVERLAP_TOL = 1e-9


class StateMaps:
    """The distinct state maps of a build, each made once.

    A map (``model.substate_map``) depends only on the scope's length and
    the sub-variables' positions in it.  Calling the pool with a scope and
    sub-variables numbers that key; ``pool`` then makes each numbered map,
    after the structure has passed its checks, and lays them end to end,
    and ``read`` gathers any of them from there.
    """

    def __init__(self):
        self.ids: dict[tuple[int, ...], int] = {}
        self.wanted: list[tuple[Scope, tuple[str, ...]]] = []
        self.prefixes: dict[tuple[int, int], int] = {}

    def __call__(self, scope: Scope, sub: tuple[str, ...]) -> int:
        key = (len(scope.vars), *map(scope.vars.index, sub))
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.wanted)
            self.wanted.append((scope, sub))
        return i

    def prefix(self, scope: Scope, k: int) -> int:
        """The number of the map onto the first ``k`` variables of ``scope``,
        looked up by the two lengths alone."""
        i = self.prefixes.get((len(scope.vars), k))
        if i is None:
            i = self.prefixes[len(scope.vars), k] = self(scope, scope.vars[:k])
        return i

    def pool(self) -> None:
        """Make the maps: map ``i`` is ``sizes[i]`` long from ``first[i]``
        in ``events``."""
        maps = [substate_map(scope, Scope(sub)) for scope, sub in self.wanted]
        self.sizes = np.array([m.size for m in maps], dtype=np.intp)
        self.first = np.cumsum(self.sizes) - self.sizes
        self.events = np.concatenate([np.empty(0, np.intp)] + maps)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.events[self.first[i]:self.first[i] + self.sizes[i]]

    def read(self, ids: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """The maps ``ids`` one after another, each plus its offset."""
        sizes = self.sizes[ids]
        return (self.events[ranges(self.first[ids], sizes)]
                + np.repeat(offsets, sizes))


def join_scope(nodes, order: tuple[int, ...]) -> Scope:
    """The variables of a join, in the order its members bring them."""
    return trusted_scope(tuple(dict.fromkeys(
        v for m in order for v in nodes[m].scope.vars)))


def join_pieces(nodes, order: tuple[int, ...], scope: Scope,
                maps: StateMaps) -> list[tuple[int, ...]]:
    """A row per member of the join ``order`` over ``scope``, as ``fold``
    reads it: the member's place in the order, the member, the map of its
    separator with the members before it and that separator's number of
    events, and the map from the join's states to the member's.  A member
    sharing nothing with those before it, the first one included, has no
    separator map (-1)."""
    rows, seen = [], set()
    for place, m in enumerate(order):
        vars = nodes[m].scope.vars
        shared = tuple(v for v in vars if v in seen)
        rows.append((place, m, maps(nodes[m].scope, shared) if shared else -1,
                     1 << len(shared), maps(scope, vars)))
        seen.update(vars)
    return rows


def fold(flat: np.ndarray, start: np.ndarray, maps: StateMaps,
         pieces: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The normalized joins of several groups, one after another in a new
    array, from the member tables in ``flat``.

    ``pieces`` holds the ``join_pieces`` rows of every group, each led by
    the group's place in the output; ``sizes`` gives the groups' numbers
    of states in that order.  A group is its first member's table times,
    place by place, each later member's conditional on its separator
    (0/0 read as 0), or its table where it has none: exact by running
    intersection (Lauritzen & Spiegelhalter, 1988).  Then it is divided by
    its own sum.  Each product and each sum is the one that joining two
    tables at a time would make.
    """
    group, place, member, sep, events, proj = pieces.T
    n = start[member + 1] - start[member]
    first = np.cumsum(n) - n
    factor = flat[ranges(start[member], n)]
    c = sep >= 0
    at = ranges(first[c], n[c])
    bins = maps.read(sep[c], np.cumsum(events[c]) - events[c])
    marg = np.bincount(bins, factor[at])[bins]
    factor[at] = np.where(marg > 0.0,
                          factor[at] / np.where(marg > 0.0, marg, 1.0), 0.0)
    out_first = np.cumsum(sizes) - sizes
    out = np.ones(sizes.sum())
    for k in range(place.max() + 1):
        here = np.flatnonzero(place == k)
        out[ranges(out_first[group[here]], sizes[group[here]])] *= factor[
            maps.read(proj[here], first[here])]
    # a contiguous row sums pairwise exactly as the table alone would
    sums = np.empty(sizes.size)
    for size in set(sizes.tolist()):
        g = np.flatnonzero(sizes == size)
        sums[g] = out[ranges(out_first[g], sizes[g])].reshape(-1, size).sum(axis=1)
    out /= np.repeat(sums, sizes)
    return out


def ranges(first: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``first[k], ..., first[k] + sizes[k] - 1`` for each ``k`` in turn."""
    ends = sizes.cumsum()  # array methods: this runs per depth, on few nodes
    return (np.arange(ends[-1] if ends.size else 0)
            + (first - ends + sizes).repeat(sizes))


def _complete_prior(prior: tuple[float, ...], where: str) -> np.ndarray:
    """Fill ``-1.0`` entries of a prior list by spreading the residual mass,
    then check that the result is a distribution."""
    p = np.asarray(prior, dtype=float)
    unknown = p == UNKNOWN
    if unknown.any():
        known_sum = p[~unknown].sum()
        residual = 1.0 - known_sum
        if residual < -1e-9:
            raise NetworkStructureError(
                f"{where}: known prior entries sum to {known_sum}, leaving "
                "no mass for the unknown entries"
            )
        p[unknown] = max(residual, 0.0) / unknown.sum()
    if p.min() < -1e-12:
        raise NetworkStructureError(f"{where}: negative prior entry {p.min():g}")
    if abs(p.sum() - 1.0) > UNIT_SUM_TOL:
        raise NetworkStructureError(
            f"{where}: prior entries sum to {p.sum():.12f}, not 1"
        )
    return p


def _complete_cond(cond: tuple[float, ...]) -> np.ndarray:
    """Unknown conditionals default to the maximum-entropy value 1/2."""
    c = np.asarray(cond, dtype=float)
    c[c == UNKNOWN] = 0.5
    return c


def fill(program: SourceProgram, b, start: np.ndarray) -> np.ndarray:
    """The numeric pass: every node's table, written into one new array
    depth by depth.  ``b`` is the structural pass's builder: the nodes,
    their depths, their separators' maps in their upstream node and in
    themselves (``up``, ``down``), the groups' join pieces and the pool."""
    query, nodes, maps = program.query, b.nodes, b.maps
    flat = np.empty(start[-1])
    for i, (scope, prior) in enumerate(query.cliques):  # the first nodes
        p = _complete_prior(prior, f"{query.pos}: query clique {scope.vars}")
        if p.shape != (scope.n_states,):
            raise ArityError(f"table over {scope.vars} needs "
                             f"{scope.n_states} entries, got {p.shape}")
        flat[start[i]:start[i + 1]] = np.clip(p, 0.0, None)
        if nodes[i].parents:  # an earlier clique's overlap marginal agrees
            (j,) = nodes[i].parents
            mine = np.bincount(maps[b.down[i]], flat[start[i]:start[i + 1]])
            theirs = np.bincount(maps[b.up[i]], flat[start[j]:start[j + 1]])
            if np.abs(mine - theirs).max() > _OVERLAP_TOL:
                raise NetworkStructureError(
                    f"query cliques disagree on overlap "
                    f"{nodes[i].separator.vars}: {mine} vs {theirs}"
                )

    size = np.diff(start)
    kind = np.array([n.kind for n in nodes])
    parent = np.array([n.parents[0] if n.parents else -1 for n in nodes],
                      dtype=np.intp)
    up = np.array(b.up, dtype=np.intp)
    events = size >> (kind == RULE)  # a rule's head has half its states
    # every depth's rules, then its observations, then its groups
    depth = np.array(b.depth, dtype=np.intp)
    key = 3 * depth + (kind == OBS) + 2 * (kind == GROUP)
    order = np.argsort(key, kind="stable")
    bound = np.searchsorted(key[order], np.arange(3 * depth.max() + 4))
    rules = order[kind[order] == RULE]
    conds = _complete_cond(np.fromiter(chain.from_iterable(
        program.clauses[nodes[i].clause_idx].cond for i in rules.tolist()),
        float, events[rules].sum()))
    pieces = np.array(b.pieces, dtype=np.intp).reshape(-1, 6)
    pieces = pieces[np.argsort(depth[pieces[:, 0]], kind="stable")]
    piece_bound = np.searchsorted(depth[pieces[:, 0]],
                                  np.arange(depth.max() + 2))
    used = 0  # conditional entries of the depths done
    for d in range(1, depth.max() + 1):
        rule, obs, groups = (order[bound[k]:bound[k + 1]]
                             for k in range(3 * d, 3 * d + 3))
        # rules and observations: one gather and one bincount
        mine = order[bound[3 * d]:bound[3 * d + 2]]
        if mine.size:
            off = np.cumsum(events[mine]) - events[mine]
            above = parent[mine]
            marg = np.bincount(maps.read(up[mine], off),
                               flat[ranges(start[above], size[above])])
            heads = off[rule.size] if obs.size else marg.size
            flat[ranges(start[obs], size[obs])] = marg[heads:]
            head, c = marg[:heads], conds[used:used + heads]
            used += heads
            to = ranges(start[rule], size[rule])
            flat[to[0::2]] = head * (1.0 - c)
            flat[to[1::2]] = head * c
        # groups: one fold over all of them
        if groups.size:
            rows = pieces[piece_bound[d]:piece_bound[d + 1]]
            rows[:, 0] = np.searchsorted(groups, rows[:, 0])
            flat[ranges(start[groups], size[groups])] = fold(
                flat, start, maps, rows, size[groups])
    return flat
