"""Hash what ``preprocess`` and ``run_reasoning`` produce, to show that a
change leaves them byte-identical, and measure how close two sets of
posteriors are where it does not.

    python3 tools/fingerprint.py [--src DIR] [--programs N] [--values F.npz] > out.json
    python3 tools/fingerprint.py --close PARENT.npz CHANGE.npz > close.json

``--src`` names the ``src`` directory whose ``rcndl`` is imported (default:
this checkout's).  The script prints one JSON object:

* ``workloads``: seeds 1-3 of every generator in ``perfbench/generate.py``
  (imported read-only), solved as the benchmark solves them;
* ``paper``: the two demo models with each demo evidence file, under both
  ordering policies; each model's full joint (``expand_full_joint``) and,
  for each run, the ``(full, decomposed)`` cross entropies of
  ``ce_decomposition_check`` against the prior;
* ``programs``: N generated programs of 1-3 root cliques (some
  overlapping), rules with heads of 1-3 variables and observations of 1-3
  variables; each accepted program's network and three ``joint_over``
  reads are hashed, each rejected one gives its error type; ``inexact``
  counts the accepted programs whose node tables or reads differ from
  the program's joint, enumerated state by state, by more than 1e-12;
* ``program_runs``: for each accepted program, by program number, a run
  with a marginal constraint on every observation and one conditional
  constraint per rule clause (its body given every head variable true),
  targets read off the program's joint tilted state by state, so that the
  set is feasible and each greatest-gradient pick is decided by a real
  gradient, not by round-off.  A set whose variables lie inside the scope
  of another observation kept (observations are kept widest first, unless
  inside one kept already) is left out: that observation's marginal fixes
  it exactly, so its gradient after that use would be round-off.  At
  threshold 0 one pass uses every constraint and propagates from every
  home: plans over groups and, where root cliques are disjoint, forests.
  A second pass would order constraints that the first left exactly met
  by round-off;
* ``program_runs_in_order``: the same runs under program order, which
  uses each set when its turn comes and reads only that set's gradient
  before the step;
* ``oracle_runs``: for each accepted program, by program number,
  ``oracle_mce(expand_full_joint(net), sets, 1e-12)`` on the sets of its
  ``program_runs`` entry, its posterior hashed, or the error's type and
  text: the oracle on whole network joints of up to 14 variables, 1,178
  of the 1,613 accepted at the default N with groups;
* ``messages``: the text of every rejection, by program number;
* ``chains``: the chain program (``?- R``, then ``R -> B_i`` for i < k,
  ``B0 -> C0`` and ``C_{i-1}, B_i -> C_i``, then the observation
  ``C_{k-1}``) for k = 2-14: each accepted network's hash, or the error
  type and text.  From k = 5 the chain is multiply connected and from
  k = 13 a group would exceed the variable limit, so this covers the
  refusals whose cost depends on when preprocessing refuses;
* ``shapes``: the networks of five programs whose setup once grew as the
  square of their length (``shape_program``), at 50 and 300 clauses: a
  chain of rules listed last first, one-variable query cliques, a star of
  rules off a one-variable root, the same star off a rule's body, and
  repeated observations of a rule's body;
* ``linear``: N seeded linear sets passed straight to ``lec_solve(table,
  c)``: priors over 1-3 variables, some with states without mass, and 1-3
  rows of small integers, some pairs nearly parallel and some rows scaled
  by 1e6 or 1e-6; the right-hand sides are read off a distribution on the
  support or drawn freely around the rows' ranges.  Each entry hashes the
  posterior with the solver's iteration count, or gives the error type,
  so a change to the linear kernel shows here, not only through the few
  linear sets of ``workloads``;
* ``linear_messages``: the text of every ``linear`` error, by number;
* ``stacked``: N seeded mixes of one to three marginal, conditional and
  linear sets over 1-3 variables of a table over 1-4 variables, some with
  states without mass, made one linear set by ``scheduler.stacked`` and
  applied by ``scheduler.update_table``; targets are read off a tilt's
  marginal over each set's variables (``rcndl.marginalize``), so most
  mixes are feasible, and a condition event without mass is refused.
  Each entry hashes the stacked rows and right-hand sides with the
  posterior, or gives the error's type and text;
* ``oracle``: ``oracle_mce(table, sets, 1e-12)`` on each ``stacked``
  mix, its posterior hashed, or the error's type and text;
* ``parse``: the parsed clause list, every source position included, of
  each workload model, of N more generated programs and of mutated models
  (MUTANTS copies of each demo model and of seed 1 of every workload, each
  with one to three characters inserted, replaced, deleted or swapped, or
  names renamed to the name before them, which may repeat a variable in a
  clause); a mutant that does not parse gives its error type and text
  instead;
* ``evidence``: the parsed constraint list (``repr`` of
  ``parse_evidence``) of each demo evidence file, of seed 1's evidence of
  every workload and of MUTANTS mutants of each, made as for ``parse`` but
  from the characters of ``tests/test_evidence_fuzz.py``; a text that does
  not parse gives its error type and text instead;
* ``cli``: the stdout, stderr and exit code of ``python -m rcndl.cli`` run
  on the ``paper`` models and evidence files: ``check``, ``run --json``,
  ``run --trace`` and ``oracle --json``, each in a fresh interpreter that
  imports the ``rcndl`` under ``--src``; and the failures of ``run`` on the
  three-variable model with evidence on an undeclared variable (``P(A) =
  0.5``), on an unknown one (``P(Z) = 0.5``) and on an emptied event (``C
  = true`` then ``C = false``), and of ``oracle`` on a 26-variable rule
  chain, written to temporary files.  A failing command gives its exit
  code, its stdout's hash and its stderr's text, so a diff shows a changed
  error text.

Each hash covers node kinds, scopes, separators, parents, clause indices,
labels, edges in order, each node's incident edges, the variable indices
(each variable's introducer and its nodes, ascending), every table's
bytes and, for runs, the posterior tables and every trace field.  To check
a change, run the script against a second checkout of the parent commit
(``git worktree`` or ``git archive``) and against the change, and diff the
two outputs.

``--values`` also saves, for every ``workloads``, ``paper``,
``program_runs`` and ``program_runs_in_order`` run (as ``program_runs/<k>``
and ``program_runs_in_order/<k>``), the posterior tables, each
variable's posterior P(var), and the pass and step counts; for every
``stacked``, ``oracle`` and ``oracle_runs`` entry, as ``stacked/<k>``,
``oracle/<k>`` and ``oracle_runs/<k>``, the posterior table and each
variable's P(var), with no counts.  ``--close`` reads two
such files and prints, per run, the largest absolute difference of the
tables and of the marginals with both sides' pass and step counts, and,
under ``max``, the largest differences over all runs and the list of runs
whose pass or step counts differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PROGRAM_SEED = 20240601
LINEAR_SEED = 20240602
STACKED_SEED = 20240603
EXACT_TOL = 1e-12
MUTANTS = 200  # mutated copies parsed of each model
MUTANT_CHARS = "[],;:.%?->_ \n\r0159eE+ABX\u0661\x1c@"
EVIDENCE_CHARS = "()|!=,.#_ \n\r0159eE+-PABXtrue\u0661\x1c"
IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def tables_digest(net) -> str:
    return digest(*((t.scope.vars, t.probs.tobytes()) for t in net.tables))


def network_digest(net) -> str:
    adjacency = [[] for _ in net.nodes]  # node -> incident edges, in order
    for ei, e in enumerate(net.edges):
        adjacency[e.a].append(ei)
        adjacency[e.b].append(ei)
    return digest(
        [(n.idx, n.kind, n.scope.vars,
          None if n.separator is None else n.separator.vars,
          n.parents, n.clause_idx, n.label) for n in net.nodes],
        [(e.a, e.b, e.separator.vars) for e in net.edges],
        tuple(map(tuple, adjacency)), net.introducer,
        {v: tuple(sorted(c)) for v, c in net.covers.items()},
        sorted(net.observables), tables_digest(net),
    )


def run(rcndl, net, constraints, policy, threshold, max_passes=100):
    """``run_reasoning``'s posterior and trace, or the error it raised."""
    ev = rcndl.EvidenceSet(tuple(constraints), policy=policy,
                           max_passes=max_passes, default_threshold=threshold)
    try:
        return rcndl.run_reasoning(net, ev)
    except rcndl.RcndlError as exc:
        return f"{type(exc).__name__}: {exc}"


def run_digest(result) -> str:
    if isinstance(result, str):
        return result
    post, trace = result
    return digest(tables_digest(post), trace.steps, trace.passes,
                  trace.converged, trace.final_gradients)


def run_values(rcndl, result) -> dict:
    """The arrays ``--close`` compares; none for a run that raised."""
    if isinstance(result, str):
        return {}
    post, trace = result
    return {
        "tables": np.concatenate([t.probs for t in post.tables]),
        "marginals": np.array([rcndl.posterior_marginal(post, v)[1]
                               for v in post.introducer]),
        "counts": np.array([trace.passes, len(trace.steps)]),
    }


def generators():
    """``perfbench/generate.py``, the benchmark's stdlib-only input generators."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import generate

    return generate


def workloads(rcndl, values: dict) -> dict:
    generate = generators()
    out = {}
    for name, gen in generate.GENERATORS.items():
        for seed in (1, 2, 3):
            p = gen(seed)
            net = rcndl.preprocess(rcndl.parse_program(p.model_text))
            constraints = rcndl.parse_evidence(p.evidence_text) + [
                rcndl.LinearConstraint(rcndl.Scope(scope), rows, rhs)
                for scope, rows, rhs in generate.decode_linear(p.linear_text)
            ]
            result = run(rcndl, net, constraints, rcndl.GREATEST_GRADIENT,
                         p.threshold)
            out[f"{name}/{seed}"] = {
                "network": network_digest(net),
                "run": run_digest(result),
            }
            values[f"workloads/{name}/{seed}"] = run_values(rcndl, result)
    return out


DEMOS = ROOT / "demos"
PAPER = {
    "three_vars": ["evidence_uncertain.txt"],
    "cancer": ["evidence_cancer_bayesian.txt", "evidence_cancer_uncertain.txt"],
}


def paper(rcndl, values: dict) -> dict:
    out = {}
    for model, files in PAPER.items():
        text = (DEMOS / "models" / f"{model}.rcndl").read_text()
        net = rcndl.preprocess(rcndl.parse_program(text))
        out[model] = network_digest(net)
        out[f"{model}/joint"] = digest(rcndl.expand_full_joint(net).probs.tobytes())
        for name in files:
            constraints = rcndl.parse_evidence((DEMOS / name).read_text())
            for policy in (rcndl.GREATEST_GRADIENT, rcndl.PROGRAM_ORDER):
                key = f"{model}/{name}/{policy}"
                result = run(rcndl, net, constraints, policy, 1e-6)
                out[key] = run_digest(result)
                if not isinstance(result, str):
                    out[f"{key}/ce"] = digest(tuple(map(
                        float, rcndl.ce_decomposition_check(net, result[0]))))
                values[f"paper/{key}"] = run_values(rcndl, result)
    return out


# Evidence that ``rcndl run`` refuses on the three-variable model.
FAILING_EVIDENCE = {
    "undeclared": "P(A) = 0.5\n",
    "unknown": "P(Z) = 0.5\n",
    "emptied-event": "C = true\nC = false\n",
}


def cli(src: Path) -> dict:
    """The ``cli`` section: each command's stdout, stderr and exit code,
    hashed; a failing command gives its exit code, its stdout's hash and
    its stderr's text."""
    env = dict(os.environ, PYTHONPATH=str(src))

    def command(*args) -> str:
        res = subprocess.run([sys.executable, "-m", "rcndl.cli", *map(str, args)],
                             capture_output=True, env=env, timeout=120)
        if res.returncode:
            return (f"exit {res.returncode} {digest(res.stdout)}: "
                    f"{res.stderr.decode()}")
        return digest(res.stdout, res.stderr, res.returncode)

    out = {}
    for model, files in PAPER.items():
        path = DEMOS / "models" / f"{model}.rcndl"
        out[f"check/{model}"] = command("check", path)
        for name in files:
            flags = (path, DEMOS / name, "--threshold", "1e-6")
            out[f"run/{model}/{name}"] = command("run", *flags, "--json")
            out[f"run-trace/{model}/{name}"] = command("run", *flags, "--trace")
            out[f"oracle/{model}/{name}"] = command("oracle", *flags, "--json")
    with tempfile.TemporaryDirectory() as tmp:
        def write(name: str, text: str) -> Path:
            (Path(tmp) / name).write_text(text)
            return Path(tmp) / name

        for name, text in FAILING_EVIDENCE.items():
            out[f"run/three_vars/{name}"] = command(
                "run", DEMOS / "models" / "three_vars.rcndl", write(name, text))
        # one variable over the limit of a full-joint expansion
        chain = "?- X0 : [0.5, 0.5].\n" + "".join(
            f"X{i - 1} -> X{i} : [0.3, 0.6].\n" for i in range(1, 26))
        out["oracle/chain-26"] = command(
            "oracle", write("chain.rcndl", chain), write("empty.txt", ""))
    return out


def generated_program(rng: random.Random) -> str:
    """Uniform-prior root cliques, each overlapping at most one earlier
    clique (on variables no other clique holds), then rules and
    observations over the variables introduced so far."""
    cliques: list[list[str]] = []
    count: dict[str, int] = {}
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(1, 3)
        scope: list[str] = []
        sole = [[v for v in c if count[v] == 1] for c in cliques]
        sole = [vs for vs in sole if vs]
        if sole and rng.random() < 0.5:
            vs = rng.choice(sole)
            scope = rng.sample(vs, rng.randint(1, min(size, len(vs))))
        while len(scope) < size:
            scope.append(f"V{len(count)}")
            count[scope[-1]] = 0
        for v in scope:
            count[v] += 1
        cliques.append(scope)
    lines = ["?- " + "; ".join(
        f"{', '.join(c)} : [{', '.join([repr(0.5 ** len(c))] * 2 ** len(c))}]"
        for c in cliques) + "."]
    variables = list(count)
    for _ in range(rng.randint(1, 6)):
        head = rng.sample(variables, min(rng.randint(1, 3), len(variables)))
        body = f"V{len(variables)}"
        cond = ", ".join(str(rng.randint(5, 95) / 100)
                         for _ in range(2 ** len(head)))
        lines.append(f"{', '.join(head)} -> {body} : [{cond}].")
        variables.append(body)
    for _ in range(rng.randint(0, 3)):
        obs = rng.sample(variables, min(rng.randint(1, 3), len(variables)))
        lines.append(", ".join(obs) + ".")
    return "\n".join(lines) + "\n"


def program_joint(rcndl, net):
    """The program's joint, built state by state as every root clique's
    prior times every rule's conditional and normalized (the generated
    priors are uniform, so overlapping cliques only rescale it), and the
    function giving each joint state's state number over a variable list."""
    variables = tuple(net.introducer)
    n = len(variables)
    states = np.arange(1 << n)
    bit = {v: (states >> (n - 1 - k)) & 1 for k, v in enumerate(variables)}

    def config(vars):
        return sum(bit[v] << (len(vars) - 1 - t) for t, v in enumerate(vars))

    joint = np.ones(1 << n)
    for clause in net.program.clauses:
        if isinstance(clause, rcndl.QueryClause):
            for scope, prior in clause.cliques:
                joint *= np.asarray(prior)[config(scope.vars)]
        elif isinstance(clause, rcndl.RuleClause):
            p_true = np.asarray(clause.cond)[config(clause.head.vars)]
            joint *= np.where(bit[clause.body] == 1, p_true, 1.0 - p_true)
    joint /= joint.sum()
    return joint, config


def enumeration_error(rcndl, net, reads) -> float:
    """The largest distance of a node table or a read from the same
    marginal of the program's joint."""
    joint, config = program_joint(rcndl, net)
    return max(
        np.abs(t.probs - np.bincount(config(t.scope.vars), joint,
                                     minlength=t.probs.size)).max()
        for t in (*net.tables, *reads))


def program_sets(rcndl, net, k: int) -> list:
    """The constraint sets of accepted program ``k``, as ``program_runs``
    describes them."""
    joint, config = program_joint(rcndl, net)
    joint *= np.random.default_rng(k).uniform(0.5, 1.5, joint.size)
    joint /= joint.sum()
    kept: list = []  # observations, widest first, each inside no other kept

    def fixed(node) -> bool:  # by the marginal of another kept observation
        return any(o is not node and set(node.scope.vars) <= set(o.scope.vars)
                   for o in kept)

    for node in sorted((n for n in net.nodes if n.kind == "obs"),
                       key=lambda n: -len(n.scope)):
        if not fixed(node):
            kept.append(node)
    cons = []
    for node in net.nodes:
        if fixed(node):
            continue
        target = np.bincount(config(node.scope.vars), joint,
                             minlength=node.scope.n_states)
        if node.kind == "obs":
            cons.append(rcndl.MarginalConstraint(node.scope, tuple(target)))
        elif node.kind == "rule":  # scope: the head, then the body
            *head, body = node.scope.vars
            cons.append(rcndl.ConditionalConstraint(
                body, tuple((v, True) for v in head),
                float(target[-1] / (target[-2] + target[-1]))))
    return cons


def programs(rcndl, n: int, values: dict
             ) -> tuple[dict, list, dict, dict, dict, dict]:
    """The ``programs``, ``program_outcomes``, ``program_runs``,
    ``program_runs_in_order``, ``messages`` and ``oracle_runs`` sections."""
    rng = random.Random(PROGRAM_SEED)
    summary: dict[str, int] = {"count": n, "accepted": 0, "inexact": 0}
    outcomes, runs, in_order, messages, oracle_runs = [], {}, {}, {}, {}
    for k in range(n):
        text = generated_program(rng)
        try:
            net = rcndl.preprocess(rcndl.parse_program(text))
        except rcndl.RcndlError as exc:
            name = type(exc).__name__
            summary[name] = summary.get(name, 0) + 1
            outcomes.append(name)
            messages[str(k)] = str(exc)
            continue
        summary["accepted"] += 1
        variables = list(net.introducer)
        reads = [net.joint_over(rcndl.Scope(
            rng.sample(variables, min(rng.randint(2, 3), len(variables)))))
            for _ in range(3)]
        outcomes.append(digest(network_digest(net),
                               [t.probs.tobytes() for t in reads]))
        summary["inexact"] += int(enumeration_error(rcndl, net, reads) > EXACT_TOL)
        cons = program_sets(rcndl, net, k)
        for policy, out, name in ((rcndl.GREATEST_GRADIENT, runs, "program_runs"),
                                  (rcndl.PROGRAM_ORDER, in_order,
                                   "program_runs_in_order")):
            result = run(rcndl, net, cons, policy, 0.0, max_passes=1)
            out[str(k)] = run_digest(result)
            values[f"{name}/{k}"] = run_values(rcndl, result)
        oracle_runs[str(k)] = oracle_entry(
            rcndl, rcndl.expand_full_joint(net), cons, values, f"oracle_runs/{k}")
    return summary, outcomes, runs, in_order, messages, oracle_runs


def chain_program(k: int) -> str:
    """The chain program of ``chains``; each link's head spans two
    branches, so the groups grow by two variables per link."""
    lines = ["?- R : [0.5, 0.5]."]
    lines += [f"R -> B{i} : [0.3, 0.6]." for i in range(k)]
    lines.append("B0 -> C0 : [0.2, 0.7].")
    lines += [f"C{i - 1}, B{i} -> C{i} : [0.1, 0.2, 0.3, 0.4]."
              for i in range(1, k)]
    return "\n".join(lines + [f"C{k - 1}."]) + "\n"


def chains(rcndl) -> dict:
    out = {}
    for k in range(2, 15):
        try:
            net = rcndl.preprocess(rcndl.parse_program(chain_program(k)))
            out[str(k)] = network_digest(net)
        except rcndl.RcndlError as exc:
            out[str(k)] = f"{type(exc).__name__}: {exc}"
    return out


SHAPES = ("reverse-chain", "cliques", "star", "hub", "observed")


def shape_program(shape: str, n: int) -> str:
    """A program in one of ``SHAPES`` with ``n`` rules or cliques:
    ``X_{k} -> X_{k+1}`` for k from n - 1 down to 0 under ``?- X0``;
    ``?- V0; ...; V_{n-1}``; ``R -> B_i`` for i < n under ``?- R``; or the
    same rules under ``?- X`` and ``X -> R``, where no one-variable clause
    holds ``R``; or ``n`` observations ``R.`` under ``?- X`` and
    ``X -> R``."""
    if shape == "cliques":
        return "?- " + "; ".join(f"V{i} : [0.25, 0.75]" for i in range(n)) + ".\n"
    if shape == "observed":
        return "?- X : [0.5, 0.5].\nX -> R : [0.2, 0.9].\n" + "R.\n" * n
    if shape == "reverse-chain":
        lines = ["?- X0 : [0.5, 0.5]."]
        lines += [f"X{k} -> X{k + 1} : [0.3, 0.6]." for k in reversed(range(n))]
    else:
        lines = (["?- R : [0.5, 0.5]."] if shape == "star" else
                 ["?- X : [0.5, 0.5].", "X -> R : [0.2, 0.9]."])
        lines += [f"R -> B{i} : [0.3, 0.6]." for i in range(n)]
    return "\n".join(lines) + "\n"


def shapes(rcndl) -> dict:
    return {f"{shape}/{n}": network_digest(
                rcndl.preprocess(rcndl.parse_program(shape_program(shape, n))))
            for shape in SHAPES for n in (50, 300)}


def linear_problem(rcndl, k: int):
    """The table and linear set of ``linear`` entry ``k``."""
    rng = np.random.default_rng((LINEAR_SEED, k))
    n = int(rng.integers(1, 4))
    size = 2 ** n
    prior = rng.integers(1, 1001, size).astype(float)
    if rng.random() < 0.5:
        prior[rng.random(size) < 0.4] = 0.0
        prior[rng.integers(size)] = 1.0
    rows = rng.integers(-2, 3, (int(rng.integers(1, 4)), size)).astype(float)
    if len(rows) > 1 and rng.random() < 0.3:
        rows[1] = rows[0] + rng.choice((1e-3, 1e-5, 1e-7)) * rows[1]
    rows *= rng.choice((1.0, 1e6, 1e-6), (len(rows), 1), p=(0.6, 0.2, 0.2))
    if rng.random() < 0.5:
        tilted = prior * rng.uniform(0.1, 10.0, size)
        rhs = rows @ (tilted / tilted.sum())
    else:
        low, high = rows.min(axis=1), rows.max(axis=1)
        reach = (high - low) / 2 + np.abs(rows).max(axis=1) / 4
        rhs = rng.uniform(low - reach, high + reach)
    table = rcndl.JointTable(rcndl.Scope(tuple(f"L{i}" for i in range(n))),
                             prior / prior.sum())
    return table, rcndl.LinearConstraint(
        table.scope, tuple(map(tuple, rows.tolist())), tuple(rhs.tolist()))


def linear(rcndl, n: int) -> tuple[dict, dict]:
    """The ``linear`` and ``linear_messages`` sections."""
    outcomes, messages = {}, {}
    for k in range(n):
        try:
            post, state = rcndl.lec_solve(*linear_problem(rcndl, k))
            outcomes[str(k)] = digest(post.probs.tobytes(), state.iterations)
        except rcndl.RcndlError as exc:
            outcomes[str(k)] = type(exc).__name__
            messages[str(k)] = str(exc)
    return outcomes, messages


def stacked_problem(rcndl, k: int):
    """The table and constraint sets of ``stacked`` entry ``k``."""
    rng = np.random.default_rng((STACKED_SEED, k))
    n = int(rng.integers(1, 5))
    size = 2 ** n
    variables = tuple(f"S{i}" for i in range(n))
    prior = rng.integers(1, 1001, size).astype(float)
    if rng.random() < 0.4:
        prior[rng.random(size) < 0.3] = 0.0
        prior[rng.integers(size)] = 1.0
    table = rcndl.JointTable(rcndl.Scope(variables), prior / prior.sum())
    tilted = table.probs * rng.uniform(0.5, 2.0, size)
    tilted = rcndl.JointTable(table.scope, tilted / tilted.sum())
    sets = []
    for _ in range(int(rng.integers(1, 4))):
        width = int(rng.integers(1, min(n, 3) + 1))
        scope = rcndl.Scope(rng.permutation(variables)[:width].tolist())
        target = rcndl.marginalize(tilted, scope).probs
        kind = rng.choice(("marginal", "conditional", "linear"))
        if kind == "conditional" and width > 1:
            condition = tuple((v, bool(rng.integers(2))) for v in scope.vars[1:])
            # on ``target``: the condition's state with scope.vars[0], the
            # top bit, false, and the one with it true
            false = sum(val << width - 2 - i for i, (_, val) in enumerate(condition))
            both = target[false | 1 << width - 1]
            mass = target[false] + both
            sets.append(rcndl.ConditionalConstraint(
                scope.vars[0], condition, both / mass if mass > 0.0 else 0.5))
        elif kind == "linear":  # as tuples, which older sources also take
            rows = rng.integers(-2, 3, (int(rng.integers(1, 3)), scope.n_states))
            sets.append(rcndl.LinearConstraint(
                scope, tuple(map(tuple, rows.astype(float).tolist())),
                tuple((rows @ target).tolist())))
        else:
            sets.append(rcndl.MarginalConstraint(scope, tuple(target.tolist())))
    return table, sets


def posterior_values(rcndl, post) -> dict:
    """The arrays ``--close`` compares for one posterior table."""
    marginals = [rcndl.marginalize(post, rcndl.Scope((v,))).probs[1]
                 for v in post.scope.vars]
    return {"tables": post.probs, "marginals": np.array(marginals)}


def stacked(rcndl, n: int, values: dict) -> dict:
    """The ``stacked`` section."""
    out = {}
    for k in range(n):
        table, sets = stacked_problem(rcndl, k)
        try:
            c = rcndl.scheduler.stacked(sets, table)
            post = rcndl.scheduler.update_table(table, c, 1e-9)
            out[str(k)] = digest(np.asarray(c.rows, float).tobytes(),
                                 np.asarray(c.rhs, float).tobytes(),
                                 post.probs.tobytes())
            values[f"stacked/{k}"] = posterior_values(rcndl, post)
        except rcndl.RcndlError as exc:
            out[str(k)] = f"{type(exc).__name__}: {exc}"
    return out


def oracle_entry(rcndl, table, sets, values: dict, key: str) -> str:
    """The hash of ``oracle_mce(table, sets, 1e-12)``, its values saved
    under ``key``, or the error's type and text."""
    try:
        post = rcndl.oracle_mce(table, sets, 1e-12)
    except rcndl.RcndlError as exc:
        return f"{type(exc).__name__}: {exc}"
    values[key] = posterior_values(rcndl, post)
    return digest(post.probs.tobytes())


def oracle(rcndl, n: int, values: dict) -> dict:
    """The ``oracle`` section."""
    return {str(k): oracle_entry(rcndl, *stacked_problem(rcndl, k), values,
                                 f"oracle/{k}")
            for k in range(n)}


def parse_outcome(rcndl, parse, text: str) -> str:
    """The hash of ``repr(parse(text))`` (exact floats and any source
    positions), or the error type and text."""
    try:
        return digest(repr(parse(text)))
    except rcndl.RcndlError as exc:
        return f"{type(exc).__name__}: {exc}"


def mutant(rng: random.Random, text: str, chars: str = MUTANT_CHARS) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.choice(("insert", "replace", "delete", "swap", "rename"))
        names = list(IDENT_RE.finditer(text))
        if op == "rename" and len(names) > 1:  # to the name before it
            k = rng.randrange(1, len(names))
            a, b = names[k].span()
            text = text[:a] + names[k - 1].group() + text[b:]
        elif op in ("insert", "replace"):
            text = text[:i] + rng.choice(chars) + text[i + (op == "replace"):]
        elif op == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + text[i + 1:i + 2] + text[i:i + 1] + text[i + 2:]
    return text


def parses(rcndl, n: int) -> dict:
    generate = generators()
    rng = random.Random(PROGRAM_SEED + 1)
    models = {path.stem: path.read_text()
              for path in sorted((ROOT / "demos" / "models").glob("*.rcndl"))}
    out = {}
    for name, gen in generate.GENERATORS.items():
        for seed in (1, 2, 3):
            text = gen(seed).model_text
            out[f"{name}/{seed}"] = parse_outcome(rcndl, rcndl.parse_program, text)
            if seed == 1:
                models[name] = text
    for k in range(n):
        out[f"program/{k}"] = parse_outcome(rcndl, rcndl.parse_program,
                                            generated_program(rng))
    for name, text in models.items():
        for k in range(MUTANTS):
            out[f"{name}/mutant/{k}"] = parse_outcome(rcndl, rcndl.parse_program,
                                                      mutant(rng, text))
    return out


def evidence(rcndl) -> dict:
    rng = random.Random(PROGRAM_SEED + 2)
    texts = {path.stem: path.read_text()
             for path in sorted((ROOT / "demos").glob("evidence_*.txt"))}
    for name, gen in generators().GENERATORS.items():
        texts[name] = gen(1).evidence_text
    out = {}
    for name, text in texts.items():
        out[name] = parse_outcome(rcndl, rcndl.parse_evidence, text)
        for k in range(MUTANTS):
            out[f"{name}/mutant/{k}"] = parse_outcome(
                rcndl, rcndl.parse_evidence, mutant(rng, text, EVIDENCE_CHARS))
    return out


def closeness(first: str, second: str) -> dict:
    """Per run of two ``--values`` files: the largest absolute differences
    of the posterior tables and marginals, and both pass and step counts.
    A run that raised saved nothing, so where one side raised the
    differences and that side's counts are ``null``; an entry saved with
    no counts (``stacked``, ``oracle``, ``oracle_runs``) has ``null``
    counts on both sides.
    ``max`` holds the largest differences and ``counts_differ``, the runs
    whose pass or step counts differ (a run that raised on one side only
    among them)."""
    sides = [np.load(first), np.load(second)]
    runs = sorted({key.split("|")[0] for side in sides for key in side.files})
    out, worst = {}, {"table": 0.0, "marginal": 0.0, "counts_differ": []}
    for name in runs:
        got = [{key.split("|")[1]: side[key] for key in side.files
                if key.split("|")[0] == name} for side in sides]
        entry = {"table": None, "marginal": None}
        if all("tables" in g for g in got):
            for field, arrays in (("table", "tables"),
                                  ("marginal", "marginals")):
                a, b = (g[arrays] for g in got)
                if a.shape == b.shape:
                    entry[field] = float(np.abs(a - b).max(initial=0.0))
                    worst[field] = max(worst[field], entry[field])
        entry["passes"] = [int(g["counts"][0]) if "counts" in g else None
                           for g in got]
        entry["steps"] = [int(g["counts"][1]) if "counts" in g else None
                          for g in got]
        if bool(got[0]) != bool(got[1]) or any(
                a != b for a, b in (entry["passes"], entry["steps"])):
            worst["counts_differ"].append(name)
        out[name] = entry
    return {"runs": out, "max": worst}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="directory holding the rcndl package to import")
    ap.add_argument("--programs", type=int, default=2000,
                    help="number of generated programs, of linear sets and "
                         "of stacked mixes (default 2000)")
    ap.add_argument("--values", metavar="FILE",
                    help="also save the workload, paper, program_runs, "
                         "program_runs_in_order, stacked, oracle and "
                         "oracle_runs posteriors to this .npz file")
    ap.add_argument("--close", nargs=2, metavar="FILE",
                    help="compare two --values files instead of hashing")
    args = ap.parse_args(argv)
    if args.close:
        json.dump(closeness(*args.close), sys.stdout, indent=1)
        print()
        return
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import rcndl

    print(f"rcndl from {Path(rcndl.__file__).parent}", file=sys.stderr)
    values: dict = {}
    summary, outcomes, runs, in_order, messages, oracle_runs = programs(
        rcndl, args.programs, values)
    linear_outcomes, linear_messages = linear(rcndl, args.programs)
    json.dump({
        "workloads": workloads(rcndl, values),
        "paper": paper(rcndl, values),
        "programs": summary,
        "program_outcomes": outcomes,
        "program_runs": runs,
        "program_runs_in_order": in_order,
        "oracle_runs": oracle_runs,
        "messages": messages,
        "chains": chains(rcndl),
        "shapes": shapes(rcndl),
        "linear": linear_outcomes,
        "linear_messages": linear_messages,
        "stacked": stacked(rcndl, args.programs, values),
        "oracle": oracle(rcndl, args.programs, values),
        "parse": parses(rcndl, args.programs),
        "evidence": evidence(rcndl),
        "cli": cli(src),
    }, sys.stdout, indent=1)
    print()
    if args.values:
        np.savez(args.values, **{f"{name}|{field}": array
                                 for name, arrays in values.items()
                                 for field, array in arrays.items()})


if __name__ == "__main__":
    main()
