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
  ordering policies;
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
  gradient, not by round-off (except where one observation's marginal
  already fixes a later constraint).  At threshold 0 one pass uses every
  constraint and propagates from every home: plans over groups and, where
  root cliques are disjoint, forests.  A second pass would order
  constraints that the first left exactly met by round-off;
* ``messages``: the text of every rejection, by program number;
* ``chains``: the chain program (``?- R``, then ``R -> B_i`` for i < k,
  ``B0 -> C0`` and ``C_{i-1}, B_i -> C_i``, then the observation
  ``C_{k-1}``) for k = 2-14: each accepted network's hash, or the error
  type and text.  From k = 5 the chain is multiply connected and from
  k = 13 a group would exceed the variable limit, so this covers the
  refusals whose cost depends on when preprocessing refuses;
* ``parse``: the parsed clause list, every source position included, of
  each workload model, of N more generated programs and of mutated models
  (MUTANTS copies of each demo model and of seed 1 of every workload, each
  with one to three characters inserted, replaced, deleted or swapped, or
  names renamed to the name before them, which may repeat a variable in a
  clause); a mutant that does not parse gives its error type and text
  instead.

Each hash covers node kinds, scopes, separators, parents, clause indices,
labels, edges in order, adjacency, the variable indices, every table's
bytes and, for runs, the posterior tables and every trace field.  To check
a change, run the script against a second checkout of the parent commit
(``git worktree`` or ``git archive``) and against the change, and diff the
two outputs.

``--values`` also saves, for every ``workloads`` and ``paper`` run, the
posterior tables, each variable's posterior P(var), and the pass and step
counts.  ``--close`` reads two such files and prints, per run, the largest
absolute difference of the tables and of the marginals with both sides'
pass and step counts, and, under ``max``, the largest differences over all
runs and the list of runs whose pass or step counts differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PROGRAM_SEED = 20240601
EXACT_TOL = 1e-12
MUTANTS = 200  # mutated copies parsed of each model
MUTANT_CHARS = "[],;:.%?->_ \n\r0159eE+ABX\u0661\x1c@"
IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def tables_digest(net) -> str:
    return digest(*((t.scope.vars, t.probs.tobytes()) for t in net.tables))


def network_digest(net) -> str:
    return digest(
        [(n.idx, n.kind, n.scope.vars,
          None if n.separator is None else n.separator.vars,
          n.parents, n.clause_idx, n.label) for n in net.nodes],
        [(e.a, e.b, e.separator.vars) for e in net.edges],
        net.adjacency, net.introducer, net.holders, sorted(net.observables),
        tables_digest(net),
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


def paper(rcndl, values: dict) -> dict:
    demos = ROOT / "demos"
    pairs = {
        "three_vars": ["evidence_uncertain.txt"],
        "cancer": ["evidence_cancer_bayesian.txt",
                   "evidence_cancer_uncertain.txt"],
    }
    out = {}
    for model, files in pairs.items():
        text = (demos / "models" / f"{model}.rcndl").read_text()
        net = rcndl.preprocess(rcndl.parse_program(text))
        out[model] = network_digest(net)
        for name in files:
            constraints = rcndl.parse_evidence((demos / name).read_text())
            for policy in (rcndl.GREATEST_GRADIENT, rcndl.PROGRAM_ORDER):
                key = f"{model}/{name}/{policy}"
                result = run(rcndl, net, constraints, policy, 1e-6)
                out[key] = run_digest(result)
                values[f"paper/{key}"] = run_values(rcndl, result)
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


def program_run(rcndl, net, k: int) -> str:
    """The ``program_runs`` entry of accepted program ``k``."""
    joint, config = program_joint(rcndl, net)
    joint *= np.random.default_rng(k).uniform(0.5, 1.5, joint.size)
    joint /= joint.sum()
    cons = []
    for node in net.nodes:
        target = np.bincount(config(node.scope.vars), joint,
                             minlength=node.scope.n_states)
        if node.kind == "obs":
            cons.append(rcndl.MarginalConstraint(node.scope, tuple(target)))
        elif node.kind == "rule":  # scope: the head, then the body
            *head, body = node.scope.vars
            cons.append(rcndl.ConditionalConstraint(
                body, tuple((v, True) for v in head),
                float(target[-1] / (target[-2] + target[-1]))))
    return run_digest(run(rcndl, net, cons, rcndl.GREATEST_GRADIENT, 0.0,
                          max_passes=1))


def programs(rcndl, n: int) -> tuple[dict, list, dict, dict]:
    rng = random.Random(PROGRAM_SEED)
    summary: dict[str, int] = {"count": n, "accepted": 0, "inexact": 0}
    outcomes, runs, messages = [], {}, {}
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
        runs[str(k)] = program_run(rcndl, net, k)
    return summary, outcomes, runs, messages


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


def parse_outcome(rcndl, text: str) -> str:
    try:
        return digest(repr(rcndl.parse_program(text)))  # exact floats, positions
    except rcndl.RcndlError as exc:
        return f"{type(exc).__name__}: {exc}"


def mutant(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.choice(("insert", "replace", "delete", "swap", "rename"))
        names = list(IDENT_RE.finditer(text))
        if op == "rename" and len(names) > 1:  # to the name before it
            k = rng.randrange(1, len(names))
            a, b = names[k].span()
            text = text[:a] + names[k - 1].group() + text[b:]
        elif op in ("insert", "replace"):
            text = text[:i] + rng.choice(MUTANT_CHARS) + text[i + (op == "replace"):]
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
            out[f"{name}/{seed}"] = parse_outcome(rcndl, text)
            if seed == 1:
                models[name] = text
    for k in range(n):
        out[f"program/{k}"] = parse_outcome(rcndl, generated_program(rng))
    for name, text in models.items():
        for k in range(MUTANTS):
            out[f"{name}/mutant/{k}"] = parse_outcome(rcndl, mutant(rng, text))
    return out


def closeness(first: str, second: str) -> dict:
    """Per run of two ``--values`` files: the largest absolute differences
    of the posterior tables and marginals, and both pass and step counts.
    A run that raised saved nothing, so where one side raised the
    differences and that side's counts are ``null``.  ``max`` holds the
    largest differences and ``counts_differ``, the runs whose pass or step
    counts differ (a run that raised on one side only among them)."""
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
        entry["passes"] = [int(g["counts"][0]) if g else None for g in got]
        entry["steps"] = [int(g["counts"][1]) if g else None for g in got]
        if entry["passes"][0] != entry["passes"][1] or (
                entry["steps"][0] != entry["steps"][1]):
            worst["counts_differ"].append(name)
        out[name] = entry
    return {"runs": out, "max": worst}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="directory holding the rcndl package to import")
    ap.add_argument("--programs", type=int, default=2000,
                    help="number of generated programs (default 2000)")
    ap.add_argument("--values", metavar="FILE",
                    help="also save the workload and paper posteriors to "
                         "this .npz file")
    ap.add_argument("--close", nargs=2, metavar="FILE",
                    help="compare two --values files instead of hashing")
    args = ap.parse_args(argv)
    if args.close:
        json.dump(closeness(*args.close), sys.stdout, indent=1)
        print()
        return
    sys.path.insert(0, str(Path(args.src).resolve()))
    import rcndl

    print(f"rcndl from {Path(rcndl.__file__).parent}", file=sys.stderr)
    summary, outcomes, runs, messages = programs(rcndl, args.programs)
    values: dict = {}
    json.dump({
        "workloads": workloads(rcndl, values),
        "paper": paper(rcndl, values),
        "programs": summary,
        "program_outcomes": outcomes,
        "program_runs": runs,
        "messages": messages,
        "chains": chains(rcndl),
        "parse": parses(rcndl, args.programs),
    }, sys.stdout, indent=1)
    print()
    if args.values:
        np.savez(args.values, **{f"{name}|{field}": array
                                 for name, arrays in values.items()
                                 for field, array in arrays.items()})


if __name__ == "__main__":
    main()
