"""Deterministic, seeded input generators for the benchmark workloads.

Each generator returns a ``Problem`` whose texts depend only on the seed:
the same seed gives byte-identical model and evidence text.  Generators use
only the standard library, so the inputs do not depend on the code being
measured.  Every CPT entry lies in (0.1, 0.9), so every table has full
support.  Evidence targets are read off a *second* seeded network with the
same structure, so every evidence set is feasible by construction (that
second network satisfies all of it).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Problem:
    """Generated inputs for one workload instance.

    ``evidence_text`` is RCNDL evidence syntax.  ``linear_text`` holds linear
    equality sets, which the evidence grammar cannot express, one per line in
    this module's own format (see ``decode_linear``).
    """

    workload: str
    seed: int
    model_text: str
    evidence_text: str
    threshold: float
    linear_text: str = ""
    source_cpts: dict = field(default_factory=dict, compare=False)


def _prob(rng: random.Random) -> float:
    return round(rng.uniform(0.1, 0.9), 6)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _rng(workload: str, seed: int, network: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{network}")


# --------------------------------------------------------------------------
# tree-marginal: one 400-variable single-parent tree, marginal evidence
# --------------------------------------------------------------------------

def _tree_shape(rng: random.Random, n: int) -> list[int]:
    """Parent of every variable but the root, as a random recursive tree."""
    return [-1] + [rng.randrange(i) for i in range(1, n)]


def _tree_marginals(parent, root_p, cond) -> list[float]:
    """P(X_i = true) for a single-parent tree, by one forward sweep."""
    p = [root_p]
    for i in range(1, len(parent)):
        q = p[parent[i]]
        c0, c1 = cond[i]
        p.append((1.0 - q) * c0 + q * c1)
    return p


def _pick_islands(rng: random.Random, parent: list[int], count: int) -> list[int]:
    """``count`` leaves whose parents root pairwise disjoint subtrees.

    Each picked leaf's parent (its island root) is neither equal to nor an
    ancestor of another picked leaf's parent, and is not the tree root.
    """
    def ancestors(i):
        out = set()
        while i >= 0:
            out.add(i)
            i = parent[i]
        return out

    has_child = set(parent[1:])
    leaves = [i for i in range(1, len(parent))
              if i not in has_child and parent[i] != 0]
    rng.shuffle(leaves)
    picked, roots = [], []
    for leaf in leaves:
        top = parent[leaf]
        if any(top in ancestors(r) or r in ancestors(top) for r in roots):
            continue
        picked.append(leaf)
        roots.append(top)
        if len(picked) == count:
            return sorted(picked)
    raise ValueError("tree has too few independent leaves")


def tree_marginal(seed: int, n: int = 400, n_obs: int = 20,
                  n_constraints: int = 10, threshold: float = 1e-6) -> Problem:
    """A random recursive tree over ``X0..X399`` with ``n_obs`` observed
    leaves, ``n_constraints`` of them under marginal evidence.

    Each constrained leaf's parent ignores its own parent (equal CPT
    entries), so the constrained leaves sit in separate islands of the
    tree: one pass of ten steps converges for every seed, while each step
    still pushes a Jeffrey update across every edge.
    """
    shape_rng = _rng("tree-marginal", seed, 0)
    parent = _tree_shape(shape_rng, n)
    constrained = _pick_islands(shape_rng, parent, n_constraints)
    has_child = set(parent[1:])
    others = [i for i in range(1, n) if i not in has_child and i not in constrained]
    observed = sorted(constrained + shape_rng.sample(others, n_obs - n_constraints))
    island_roots = {parent[i] for i in constrained}

    nets = []
    for network in (1, 2):
        rng = _rng("tree-marginal", seed, network)
        root_p = _prob(rng)
        cond = [None]
        for i in range(1, n):
            c0, c1 = _prob(rng), _prob(rng)
            cond.append((c0, c0) if i in island_roots else (c0, c1))
        nets.append((root_p, cond))
    (root_p, cond), (root_p2, cond2) = nets
    targets = _tree_marginals(parent, root_p2, cond2)

    lines = [f"?- X0 : [{_fmt(1.0 - root_p)}, {_fmt(root_p)}]."]
    for i in range(1, n):
        c0, c1 = cond[i]
        lines.append(f"X{parent[i]} -> X{i} : [{_fmt(c0)}, {_fmt(c1)}].")
    lines += [f"X{i}." for i in observed]
    evidence = [f"P(X{i}) = {targets[i]:.12f}" for i in constrained]
    return Problem(
        workload="tree-marginal", seed=seed,
        model_text="\n".join(lines) + "\n",
        evidence_text="\n".join(evidence) + "\n",
        threshold=threshold,
    )


# --------------------------------------------------------------------------
# wide-linear: an 11-variable root clique and two 12-variable rule clauses
# --------------------------------------------------------------------------

def _encode_row(bits: list[int]) -> str:
    return int("".join(map(str, bits)), 2).to_bytes(len(bits) // 8, "big").hex()


def wide_linear(seed: int, root_vars: int = 11, n_sets: int = 6,
                rows_per_set: int = 16, block_vars: int = 3,
                threshold: float = 1e-7) -> Problem:
    """Two rules with 11-variable heads hang off one 11-variable root clique;
    each rule body has one observed leaf child.  Linear sets of 16 rows sit
    on the two 12-variable rule clauses (4096 states each).

    The values of the first ``block_vars`` root variables cut the root
    states into blocks.  Every set fixes the network-2 mass of the blocks
    and puts its other rows on random events inside a block of its own, and
    each leaf's CPT ignores its parent.  The sets and the leaf marginals are
    then exactly compatible, so one pass converges for every seed.
    """
    roots = [f"R{k}" for k in range(root_vars)]
    n_root = 1 << root_vars
    n_blocks = 1 << block_vars
    block_shift = root_vars - block_vars + 1     # clause state -> root block
    bodies = ("Y1", "Y2")
    leaves = ("L1", "L2")

    nets = []
    for network in (1, 2):
        rng = _rng("wide-linear", seed, network)
        w = [_prob(rng) for _ in range(n_root)]
        total = math.fsum(w)
        prior = [x / total for x in w]
        conds = [[_prob(rng) for _ in range(n_root)] for _ in bodies]
        leaf = [_prob(rng) for _ in leaves]
        nets.append((prior, conds, leaf))
    (prior, conds, leaf), (prior2, conds2, leaf2) = nets

    head = ", ".join(roots)
    lines = [f"?- {head} : [{', '.join(repr(p) for p in prior)}]."]
    for body, cond in zip(bodies, conds):
        lines.append(f"{head} -> {body} : [{', '.join(_fmt(c) for c in cond)}].")
    for body, lf, c in zip(bodies, leaves, leaf):
        lines.append(f"{body} -> {lf} : [{_fmt(c)}, {_fmt(c)}].")
    lines += [f"{lf}." for lf in leaves]
    evidence = [f"P({lf}) = {c:.12f}" for lf, c in zip(leaves, leaf2)]

    row_rng = _rng("wide-linear", seed, 3)
    n_states = 2 * n_root
    block_of = [j >> block_shift for j in range(n_states)]
    linear = []
    for s in range(n_sets):
        body = bodies[s % len(bodies)]
        # network-2 joint over (R0..R10, body): state 2*root_state + body
        joint2 = []
        for p, c in zip(prior2, conds2[s % len(bodies)]):
            joint2 += [p * (1.0 - c), p * c]
        rows = [[int(block_of[j] == b) for j in range(n_states)]
                for b in range(n_blocks - 1)]
        while len(rows) < rows_per_set:
            rows.append([row_rng.getrandbits(1) if block_of[j] == s else 0
                         for j in range(n_states)])
        rhs = [math.fsum(q for q, bit in zip(joint2, row) if bit) for row in rows]
        scope = ",".join(roots + [body])
        linear.append(f"{scope} | {' '.join(f'{r:.17g}' for r in rhs)} | "
                      + " ".join(_encode_row(row) for row in rows))
    return Problem(
        workload="wide-linear", seed=seed,
        model_text="\n".join(lines) + "\n",
        evidence_text="\n".join(evidence) + "\n",
        threshold=threshold,
        linear_text="\n".join(linear) + "\n",
    )


def decode_linear(text: str) -> list[tuple[tuple[str, ...], tuple, tuple]]:
    """``(scope, rows, rhs)`` per line; rows are 0/1 float tuples."""
    out = []
    for line in text.splitlines():
        if not line.strip():
            continue
        scope, rhs, rows = (part.strip() for part in line.split("|"))
        n_states = 1 << len(scope.split(","))
        decoded = tuple(
            tuple(float(b) for b in format(int(r, 16), f"0{n_states}b"))
            for r in rows.split()
        )
        out.append((tuple(scope.split(",")), decoded,
                    tuple(float(x) for x in rhs.split())))
    return out


# --------------------------------------------------------------------------
# build-large: 2001 clauses in 400 hub units, 400 four-variable groups
# --------------------------------------------------------------------------

def build_large(seed: int, units: int = 400, threshold: float = 1e-3) -> Problem:
    """Root ``R`` and 400 hubs ``H_i`` in a random recursive tree.  Each hub
    has children ``A_i`` and ``B_i`` and a sibling-headed rule
    ``A_i, B_i -> C_i`` with ``C_i`` observed.  The sibling head forces one
    bounded group node over ``(parent(H_i), H_i, A_i, B_i)`` per unit."""
    shape_rng = _rng("build-large", seed, 0)
    hub_parent = ["R"] + [f"H{shape_rng.randrange(i)}" for i in range(1, units)]
    constrained = shape_rng.randrange(units)

    nets = []
    for network in (1, 2):
        rng = _rng("build-large", seed, network)
        root_p = _prob(rng)
        unit = [
            {
                "H": (_prob(rng), _prob(rng)),
                "A": (_prob(rng), _prob(rng)),
                "B": (_prob(rng), _prob(rng)),
                "C": tuple(_prob(rng) for _ in range(4)),
            }
            for _ in range(units)
        ]
        nets.append((root_p, unit))
    (root_p, unit), (root_p2, unit2) = nets

    lines = [f"?- R : [{_fmt(1.0 - root_p)}, {_fmt(root_p)}]."]
    cpts = {}
    for i in range(units):
        u = unit[i]
        rules = [
            (hub_parent[i], f"H{i}", u["H"]),
            (f"H{i}", f"A{i}", u["A"]),
            (f"H{i}", f"B{i}", u["B"]),
            (f"A{i}, B{i}", f"C{i}", u["C"]),
        ]
        for head, body, cond in rules:
            lines.append(f"{head} -> {body} : [{', '.join(_fmt(c) for c in cond)}].")
            cpts[body] = cond
        lines.append(f"C{i}.")

    # network-2 marginal of the constrained C_k by a forward sweep
    ph = {"R": root_p2}
    for i in range(units):
        q = ph[hub_parent[i]]
        c0, c1 = unit2[i]["H"]
        ph[f"H{i}"] = (1.0 - q) * c0 + q * c1
    k = constrained
    u2 = unit2[k]
    h = ph[f"H{k}"]
    pc = 0.0
    for hv, wh in ((0, 1.0 - h), (1, h)):
        pa, pb = u2["A"][hv], u2["B"][hv]
        for a, wa in ((0, 1.0 - pa), (1, pa)):
            for b, wb in ((0, 1.0 - pb), (1, pb)):
                pc += wh * wa * wb * u2["C"][2 * a + b]
    return Problem(
        workload="build-large", seed=seed,
        model_text="\n".join(lines) + "\n",
        evidence_text=f"P(C{k}) = {pc:.12f}\n",
        threshold=threshold,
        source_cpts=cpts,
    )


GENERATORS = {
    "tree-marginal": tree_marginal,
    "wide-linear": wide_linear,
    "build-large": build_large,
}
