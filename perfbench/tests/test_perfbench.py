"""Tests of the benchmark itself: generators, tracer and exact counters.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import generate  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from tracer import METHOD_TARGETS, TARGETS, Tracer, layer_metrics  # noqa: E402

# Small versions of each generated workload keep the tests fast.
SMALL = {
    "tree-marginal": lambda seed: generate.tree_marginal(
        seed, n=60, n_obs=8, n_constraints=4),
    "wide-linear": lambda seed: generate.wide_linear(seed, root_vars=6),
    "build-large": lambda seed: generate.build_large(seed, units=12),
}


def small_instance(workload: str, seed: int) -> W.Instance:
    problem = SMALL[workload](seed)
    return W.Instance(problem, generate.decode_linear(problem.linear_text))


def patched_attributes():
    out = {}
    for module, attr, _, _ in TARGETS:
        mod = importlib.import_module(module)
        out[(module, attr)] = mod.__dict__[attr]
    for module, cls_name, attr, _ in METHOD_TARGETS:
        cls = getattr(importlib.import_module(module), cls_name)
        out[(module, cls_name, attr)] = cls.__dict__[attr]
    return out


@pytest.mark.parametrize("workload", sorted(generate.GENERATORS))
def test_generators_are_deterministic_per_seed(workload):
    gen = generate.GENERATORS[workload]
    a, b, other = gen(7), gen(7), gen(8)
    for field in ("model_text", "evidence_text", "linear_text"):
        assert getattr(a, field) == getattr(b, field)
    assert a.model_text != other.model_text


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_small_instances_pass_their_checks(workload):
    inst = small_instance(workload, 3)
    out = W.solve(inst)
    assert W.check(inst, out, {}) == []


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_tracing_changes_no_result_and_restores_every_attribute(workload):
    before = patched_attributes()
    plain = W.solve(small_instance(workload, 5))
    with Tracer() as tracer:
        traced = W.solve(small_instance(workload, 5))
    assert patched_attributes() == before
    assert tracer.spans
    assert traced.marginals == plain.marginals
    for a, b in zip(plain.posterior.tables, traced.posterior.tables):
        assert np.array_equal(a.probs, b.probs)


def test_tracer_restores_attributes_when_the_solve_raises():
    before = patched_attributes()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    assert patched_attributes() == before


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_exact_counters_repeat(workload):
    keys = ("scheduler.edges_crossed", "engine.lec_calls")
    counts = []
    for _ in range(2):
        with Tracer() as tracer:
            out = W.solve(small_instance(workload, 11))
        m = layer_metrics(tracer.spans)
        counts.append((out.trace.passes, len(out.trace.steps),
                       *(m.get(k, 0.0) for k in keys)))
    assert counts[0] == counts[1]


def test_self_time_subtracts_child_coverage():
    with Tracer() as tracer:
        W.solve(small_instance("tree-marginal", 2))
    (run_span,) = [s for s in tracer.spans if s.name == "scheduler.run_reasoning"]
    m = layer_metrics(tracer.spans)
    assert 0.0 < m["scheduler.self_s"] < run_span.duration
    assert m["scheduler.run_s"] == pytest.approx(run_span.duration)


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tree-marginal",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""


@pytest.mark.parametrize("trace, names", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_run_prints_every_metric_in_its_last_line(trace, names):
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tree-marginal",
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
