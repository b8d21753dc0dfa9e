"""Workload drivers: timed pipelines, correctness checks and CLI calls.

Everything here drives rcndl from outside the package: the in-process
workloads call the public functions through their modules (so the tracer
can replace them), and ``paper-cli`` runs the ``rcndl`` command line in
fresh interpreters.  Correctness checks run outside the timed regions and
use references that do not share the timed code path where one exists:
the full-joint oracle, direct numpy marginals and the generator's own CPTs.
"""

from __future__ import annotations

import gc
import importlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import generate
from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Modules by import path: the package attribute ``rcndl.preprocess`` is the
# function, not the module.
parser = importlib.import_module("rcndl.parser")
evidence = importlib.import_module("rcndl.evidence")
model = importlib.import_module("rcndl.model")
preprocess = importlib.import_module("rcndl.preprocess")
scheduler = importlib.import_module("rcndl.scheduler")
engine = importlib.import_module("rcndl.engine")
oracle = importlib.import_module("rcndl.oracle")

# Instances per run.  Every seed gives the same pass and step counts; only
# wide-linear's solver iterations vary a little between instances, so its
# run averages two.
INSTANCES = {"tree-marginal": 1, "wide-linear": 2, "build-large": 1}
MIN_ROUNDS = 3
SPREAD_TOL = 1e-9
ORACLE_TOL = 1e-6
ORACLE_MCE_TOL = 1e-9
CPT_TOL = 1e-12
PAPER_THRESHOLD = 1e-6
PAPER = (
    ("demos/models/three_vars.rcndl", "demos/evidence_uncertain.txt"),
    ("demos/models/cancer.rcndl", "demos/evidence_cancer_uncertain.txt"),
)
CHILD_TIMEOUT_S = 120.0

# The speed of a shared host drifts by tens of percent over minutes, and all
# code slows together: the median wall time of identical solves moved by
# 0.2 of itself between runs, its ratio to a fixed kernel timed beside each
# solve by 0.06.  So every end-to-end timing is reported at reference host
# speed: wall time x reference time / the calibration time measured beside
# it.  In-process solves are calibrated by a kernel run just before and just
# after, each for a share of the solve's time; CLI calls by a
# ``python3 -c "import numpy"`` child run just after.
# The reference times are medians on the host that set the baseline.
CALIBRATION_STEPS = 10_000
CALIBRATION_REF_S = 0.0106
CALIBRATION_SHARE = 0.05
START_REF_S = 0.174


# --------------------------------------------------------------------------
# In-process pipeline
# --------------------------------------------------------------------------

@dataclass
class Instance:
    problem: generate.Problem
    linear: list = field(default_factory=list)   # decoded (scope, rows, rhs)
    reference: dict | None = None                # checked posterior marginals
    oracle: dict | None = None                   # oracle P(var), where checked


@dataclass
class Outcome:
    prior: object
    ev: object
    posterior: object
    trace: object
    marginals: dict
    solve_s: float
    setup_s: float
    reason_s: float


def make_instances(workload: str, seed: int, count: int | None = None) -> list[Instance]:
    gen = generate.GENERATORS[workload]
    count = INSTANCES[workload] if count is None else count
    out = []
    for k in range(count):
        problem = gen(seed * 1000 + k)
        out.append(Instance(problem, generate.decode_linear(problem.linear_text)))
    return out


def solve(inst: Instance) -> Outcome:
    """Model and evidence text in, every posterior marginal out."""
    p = inst.problem
    t0 = perf_counter()
    net = preprocess.preprocess(parser.parse_program(p.model_text))
    t1 = perf_counter()
    constraints = evidence.parse_evidence(p.evidence_text)
    constraints += [model.LinearConstraint(model.Scope(scope), rows, rhs)
                    for scope, rows, rhs in inst.linear]
    ev = scheduler.EvidenceSet(tuple(constraints), default_threshold=p.threshold)
    t2 = perf_counter()
    posterior, trace = scheduler.run_reasoning(net, ev)
    t3 = perf_counter()
    marginals = {v: scheduler.posterior_marginal(posterior, v)
                 for v in posterior.introducer}
    t4 = perf_counter()
    return Outcome(net, ev, posterior, trace, marginals,
                   t4 - t0, t1 - t0, t3 - t2)


def _constraint_scope(c):
    if isinstance(c, model.ConditionalConstraint):
        return model.Scope(c.variables())
    return c.scope


def _max_spread(net) -> float:
    """Largest disagreement on any P(var) across the tables holding it,
    from direct numpy sums over each table."""
    lo: dict[str, float] = {}
    hi: dict[str, float] = {}
    for node, table in zip(net.nodes, net.tables):
        vars_ = node.scope.vars
        cube = np.asarray(table.probs).reshape((2,) * len(vars_))
        for k, v in enumerate(vars_):
            others = tuple(a for a in range(len(vars_)) if a != k)
            p1 = float(cube.sum(axis=others)[1]) if others else float(cube[1])
            lo[v] = min(lo.get(v, p1), p1)
            hi[v] = max(hi.get(v, p1), p1)
    return max(hi[v] - lo[v] for v in hi)


def _max_cpt_error(net, source_cpts: dict) -> float:
    """Largest |P(body | head) - source CPT entry| over every rule clause."""
    worst = 0.0
    for node, table in zip(net.nodes, net.tables):
        if node.kind != "rule":
            continue
        t = np.asarray(table.probs).reshape(-1, 2)
        cond = t[:, 1] / t.sum(axis=1)
        src = np.asarray(source_cpts[node.scope.vars[-1]])
        worst = max(worst, float(np.abs(cond - src).max()))
    return worst


def oracle_marginals(net, constraints, stats: dict) -> dict[str, float]:
    """P(var) for every variable from the full-joint oracle."""
    t0 = perf_counter()
    joint = oracle.expand_full_joint(net)
    t1 = perf_counter()
    ref = oracle.oracle_mce(joint, list(constraints), tol=ORACLE_MCE_TOL)
    t2 = perf_counter()
    stats.setdefault("oracle.expand_s", []).append(t1 - t0)
    stats.setdefault("oracle.mce_s", []).append(t2 - t1)
    cube = ref.probs.reshape((2,) * len(ref.scope))
    out = {}
    for k, v in enumerate(ref.scope.vars):
        others = tuple(a for a in range(len(ref.scope)) if a != k)
        out[v] = float(cube.sum(axis=others)[1])
    return out


def check(inst: Instance, out: Outcome, stats: dict) -> list[str]:
    """Problems with one solve's output; an empty list means correct."""
    problems = []
    workload = inst.problem.workload
    if not out.trace.converged:
        problems.append("did not converge")
    for i, c in enumerate(out.ev.constraints):
        g = engine.constraint_gradient(
            out.posterior.joint_over(_constraint_scope(c)), c)
        if not float(np.abs(g).max()) < out.ev.threshold(i):
            problems.append(f"{c.label()}: gradient {np.abs(g).max():.3e} "
                            f"not below {out.ev.threshold(i)}")
    if workload in ("tree-marginal", "build-large"):
        spread = _max_spread(out.posterior)
        if spread > SPREAD_TOL:
            problems.append(f"marginal spread {spread:.3e}")
    if workload in ("wide-linear", "paper-cli"):
        ref = inst.oracle = oracle_marginals(out.prior, out.ev.constraints, stats)
        diff = max(abs(out.marginals[v][1] - ref[v]) for v in ref)
        stats.setdefault("oracle.max_abs_diff", []).append(diff)
        if diff > ORACLE_TOL:
            problems.append(f"oracle disagreement {diff:.3e}")
    if workload == "build-large":
        err = _max_cpt_error(out.prior, inst.problem.source_cpts)
        if err > CPT_TOL:
            problems.append(f"rule conditional off its CPT by {err:.3e}")
    return problems


# --------------------------------------------------------------------------
# Child processes
# --------------------------------------------------------------------------

@dataclass
class ChildResult:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_mib: float


def work_dir() -> Path:
    """Scratch directory inside the checkout for child output files."""
    path = ROOT / ".perfbench-work"
    path.mkdir(exist_ok=True)
    return path


def run_child(argv: list[str]) -> ChildResult:
    """Run a child to completion; wall time and the child's own peak RSS."""
    with tempfile.TemporaryFile(dir=work_dir()) as out, \
            tempfile.TemporaryFile(dir=work_dir()) as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env={**os.environ, "PYTHONPATH": str(SRC)})
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildResult(proc.returncode, out.read().decode(),
                           err.read().decode(), wall, usage.ru_maxrss / 1024.0)


def rcndl_argv(*args: str) -> list[str]:
    """The ``rcndl`` command, run from the checkout's sources."""
    return [sys.executable, "-m", "rcndl.cli", *args]


# --------------------------------------------------------------------------
# Measurement loop
# --------------------------------------------------------------------------

def calibration_s(budget_s: float = 0.0) -> float:
    """Mean wall time of a fixed kernel that mixes interpreter and
    small-array numpy work, as rcndl does, run until ``budget_s`` is spent
    (at least once)."""
    a = np.ones(8)
    total = 0
    runs = 0
    t0 = perf_counter()
    while True:
        for k in range(CALIBRATION_STEPS):
            total += k * k
            a = a * 1.0000001
        runs += 1
        elapsed = perf_counter() - t0
        if elapsed >= budget_s:
            return elapsed / runs


def start_calibration_s() -> float:
    """Wall time of a fresh interpreter that imports numpy and exits."""
    res = run_child([sys.executable, "-c", "import numpy"])
    if res.returncode != 0:
        raise RuntimeError(f"calibration child failed: {res.stderr}")
    return res.wall_s


class Run:
    """Counters, samples and report lines of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.stats: dict[str, list[float]] = {}
        self.lines: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)

    def add(self, key: str, value: float) -> None:
        self.stats.setdefault(key, []).append(value)


def attempt(run: Run, inst: Instance, traced: bool = False):
    """One solve counted as one attempted problem.

    The first solve of an instance is checked; later solves must reproduce
    its posterior exactly.  Returns ``(outcome, tracer)``, or ``(None,
    None)`` when the solve failed.
    """
    run.attempted += 1
    gc.collect()
    tracer = Tracer() if traced else None
    try:
        if tracer:
            with tracer:
                out = solve(inst)
        else:
            out = solve(inst)
    except Exception:
        run.fail(f"{inst.problem.workload} seed {inst.problem.seed} raised:\n"
                 + traceback.format_exc())
        return None, None
    if inst.reference is None:
        problems = check(inst, out, run.stats)
        if problems:
            run.fail(f"{inst.problem.workload} seed {inst.problem.seed}: "
                     + "; ".join(problems))
            return None, None
        inst.reference = out.marginals
    elif out.marginals != inst.reference or not out.trace.converged:
        run.fail(f"{inst.problem.workload} seed {inst.problem.seed}: "
                 "posterior differs from the checked solve")
        return None, None
    return out, tracer


def layer_sample(out: Outcome, tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced solve, plus exact structure counts."""
    m = layer_metrics(tracer.spans)
    net = out.prior
    m["solve_s"] = out.solve_s
    m["scheduler.passes"] = out.trace.passes
    m["scheduler.steps"] = len(out.trace.steps)
    m["preprocess.nodes"] = len(net.nodes)
    m["preprocess.groups"] = sum(n.kind == "group" for n in net.nodes)
    m["preprocess.edges"] = len(net.edges)
    m["preprocess.table_states"] = sum(t.probs.size for t in net.tables)
    m["parser.clauses"] = len(net.program.clauses)
    m["evidence.constraints"] = len(out.ev.constraints)
    t0 = perf_counter()
    preprocess.render_intermediate(net)
    m["preprocess.render_s"] = perf_counter() - t0
    return m


def measure(run: Run, instances: list[Instance], seconds: float, traced: bool,
            repeats: int = 1, each_round=None) -> list[dict]:
    """Solve every instance round by round until ``seconds`` have passed.

    Each round makes ``repeats`` untraced solves of every instance and, when
    traced, one traced solve; ``each_round`` adds work of its own.  Returns
    per-instance sample lists.
    """
    for inst in instances:
        attempt(run, inst)
    samples = [{"solve_s": [], "setup_s": [], "reason_s": [],
                "wall_solve_s": [], "layers": []} for _ in instances]
    start = perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or perf_counter() - start < seconds:
        if each_round:
            each_round()
        for inst, s in zip(instances, samples):
            for _ in range(repeats):
                budget = CALIBRATION_SHARE * (s["wall_solve_s"] or [0.0])[-1]
                before = calibration_s(budget)
                out, _ = attempt(run, inst)
                if out:
                    after = calibration_s(CALIBRATION_SHARE * out.solve_s)
                    factor = 2 * CALIBRATION_REF_S / (before + after)
                    s["solve_s"].append(out.solve_s * factor)
                    s["setup_s"].append(out.setup_s * factor)
                    s["reason_s"].append(out.reason_s * factor)
                    s["wall_solve_s"].append(out.solve_s)
            if traced:
                out, tracer = attempt(run, inst, traced=True)
                if out:
                    s["layers"].append(layer_sample(out, tracer))
        rounds += 1
    return samples


# --------------------------------------------------------------------------
# paper-cli
# --------------------------------------------------------------------------

def paper_instances() -> list[Instance]:
    return [
        Instance(generate.Problem(
            workload="paper-cli", seed=0,
            model_text=(ROOT / model_path).read_text(),
            evidence_text=(ROOT / evidence_path).read_text(),
            threshold=PAPER_THRESHOLD,
        ))
        for model_path, evidence_path in PAPER
    ]


def check_cli_run(inst: Instance, res: ChildResult) -> list[str]:
    """``rcndl run --json`` output against the oracle and the thresholds."""
    if res.returncode != 0:
        return [f"exit {res.returncode}: {res.stderr.strip()}"]
    payload = json.loads(res.stdout)
    post = payload["posteriors"]
    problems = [] if payload["converged"] else ["did not converge"]
    diff = max(abs(post[v] - inst.oracle[v]) for v in inst.oracle)
    if diff > ORACLE_TOL:
        problems.append(f"oracle disagreement {diff:.3e}")
    for c in evidence.parse_evidence(inst.problem.evidence_text):
        (v,) = c.scope.vars
        table = model.JointTable(c.scope, [1.0 - post[v], post[v]])
        g = float(np.abs(engine.constraint_gradient(table, c)).max())
        threshold = PAPER_THRESHOLD if c.threshold is None else c.threshold
        if not g < threshold:
            problems.append(f"{c.label()}: gradient {g:.3e} not below {threshold}")
    return problems


def paper_cli_round(run: Run, instances: list[Instance], seed: int,
                    traced: bool):
    """Per-round CLI calls: ``run --json`` and ``check`` on both networks,
    plus ``oracle --json`` and a fresh ``import rcndl`` when traced."""
    order_rng = random.Random(f"paper-cli:{seed}")
    threshold = repr(PAPER_THRESHOLD)
    rendered = [
        preprocess.render_intermediate(
            preprocess.preprocess(parser.parse_program(i.problem.model_text)))
        for i in instances
    ]

    def call(kind, argv, ok):
        run.attempted += 1
        res = run_child(argv)
        problems = ok(res)
        if problems:
            run.fail(f"rcndl {kind} {argv[4]}: " + "; ".join(problems))
            return
        run.add(f"cli.{kind}_s", res.wall_s)
        run.add(f"cli.{kind}_ref_s",
                res.wall_s * START_REF_S / start_calibration_s())
        if kind == "run":
            run.add("cli.run_rss_mib", res.maxrss_mib)

    def exit_ok(res):
        return [] if res.returncode == 0 else [f"exit {res.returncode}"]

    def each_round():
        order = list(range(len(PAPER)))
        order_rng.shuffle(order)
        for k in order:
            model_path, evidence_path = PAPER[k]
            call("run", rcndl_argv("run", model_path, evidence_path,
                                   "--threshold", threshold, "--json"),
                 lambda res, k=k: check_cli_run(instances[k], res))
            call("check", rcndl_argv("check", model_path),
                 lambda res, k=k: exit_ok(res) or (
                     [] if res.stdout == rendered[k] else ["wrong output"]))
            if traced:
                call("oracle", rcndl_argv("oracle", model_path, evidence_path,
                                          "--threshold", threshold, "--json"),
                     exit_ok)
        if traced:
            code = ("import time; t = time.perf_counter(); import rcndl; "
                    "print(time.perf_counter() - t)")
            run.attempted += 1
            res = run_child([sys.executable, "-c", code])
            if res.returncode != 0:
                run.fail(f"import rcndl: {res.stderr.strip()}")
            else:
                run.add("cli.import_s", float(res.stdout))

    return each_round


# --------------------------------------------------------------------------
# One workload, end to end
# --------------------------------------------------------------------------

def rss_probe(workload: str, seed: int) -> int:
    """Generate and solve one instance; the parent reads this process's RSS."""
    (inst,) = make_instances(workload, seed, count=1)
    return 0 if solve(inst).trace.converged else 1


def run_workload(workload: str, seed: int, seconds: float,
                 traced: bool, runner: Path) -> tuple[Run, dict[str, float]]:
    """Measure one workload; returns the run and the metric values.

    Untraced runs give the end-to-end metrics, traced runs the per-layer
    metrics.  A timing is the mean over instances of each instance's
    median, at reference host speed (see ``CALIBRATION_REF_S``).
    """
    run = Run()
    cli = workload == "paper-cli"
    if cli:
        instances = paper_instances()
        samples = measure(run, instances, seconds, traced, repeats=10,
                          each_round=paper_cli_round(run, instances, seed, traced))
    else:
        instances = make_instances(workload, seed)
        samples = measure(run, instances, seconds, traced)

    values: dict[str, float] = {}
    for key in ("solve_s", "setup_s", "reason_s"):
        per_instance = [s[key] for s in samples]
        values[key] = mean_of_medians(per_instance)
        run.lines.append(summary_line(key if not cli else f"in-process {key}",
                                      "s", sum(per_instance, []), values[key]))
    if cli:
        for key, source, unit in (("solve_s", "cli.run_ref_s", "s"),
                                  ("setup_s", "cli.check_ref_s", "s"),
                                  ("peak_rss_mib", "cli.run_rss_mib", "MiB")):
            pooled = run.stats.get(source, [])
            values[key] = statistics.median(pooled) if pooled else 0.0
            run.lines.append(summary_line(key, unit, pooled, values[key]))
    wall = (statistics.median(run.stats.get("cli.run_s", [0.0])) if cli else
            mean_of_medians([s["wall_solve_s"] for s in samples]))
    run.lines.append(f"solve_s wall clock, not scaled = {wall:.6g} s")
    if not cli and not traced:
        probe = run_child([sys.executable, str(runner), "--workload", workload,
                           "--seed", str(seed), "--rss-probe"])
        run.attempted += 1
        if probe.returncode != 0:
            run.fail(f"memory probe exited {probe.returncode}: {probe.stderr}")
        values["peak_rss_mib"] = probe.maxrss_mib
        run.lines.append(f"peak_rss_mib = {probe.maxrss_mib:.6g} MiB  n=1")
    if not traced:
        return run, values

    layers: dict[str, float] = {}
    traced_samples = [s["layers"] for s in samples if s["layers"]]
    for name in set().union(*(m.keys() for ls in traced_samples for m in ls)):
        layers[name] = mean_of_medians(
            [[m.get(name, 0.0) for m in ls] for ls in traced_samples])
    layers["trace.overhead_s"] = (
        layers.pop("solve_s", 0.0)
        - mean_of_medians([s["wall_solve_s"] for s in samples]))
    for name in ("oracle.expand_s", "oracle.mce_s", "cli.import_s",
                 "cli.run_s", "cli.check_s", "cli.oracle_s"):
        if run.stats.get(name):
            layers[name] = statistics.median(run.stats[name])
    if run.stats.get("oracle.max_abs_diff"):
        layers["oracle.max_abs_diff"] = max(run.stats["oracle.max_abs_diff"])
    return run, layers


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------

def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 20:
        return None
    q = math.floor(100 * (n - 10) / n)
    ordered = sorted(samples)
    return q, ordered[math.ceil(q / 100 * n) - 1]


def summary_line(name: str, unit: str, samples: list[float], value: float) -> str:
    parts = [f"{name} = {value:.6g} {unit}", f"n={len(samples)}"]
    if samples:
        parts.append(f"median={statistics.median(samples):.6g}")
    tail = tail_percentile(samples)
    if tail:
        parts.append(f"p{tail[0]}={tail[1]:.6g}")
    return "  ".join(parts)


def mean_of_medians(per_instance: list[list[float]]) -> float:
    medians = [statistics.median(s) for s in per_instance if s]
    return statistics.fmean(medians) if medians else 0.0
