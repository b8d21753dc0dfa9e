"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload tree-marginal --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; rcndl is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` alternates untraced and traced solves and reports the
per-layer metrics.  Human-readable lines go to stdout first; the last line
is ``{"correct", "attempted", "failed", "metrics"}`` as JSON.  Exits 2
without a result when the sources are missing.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is imported here or in any child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tree-marginal", "wide-linear", "build-large", "paper-cli")

END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "reason_s": "s",
    "peak_rss_mib": "MiB",
}
COUNT = "count"
PER_LAYER = {
    "scheduler.propagate_s": "s",
    "scheduler.edges_crossed": COUNT,
    "scheduler.with_table_calls": COUNT,
    "scheduler.snapshot_s": "s",
    "scheduler.snapshot_calls": COUNT,
    "scheduler.gradient_s": "s",
    "scheduler.gradient_calls": COUNT,
    "scheduler.home_clause_s": "s",
    "scheduler.home_clause_calls": COUNT,
    "scheduler.run_s": "s",
    "scheduler.self_s": "s",
    "scheduler.passes": COUNT,
    "scheduler.steps": COUNT,
    "engine.lec_s": "s",
    "engine.lec_calls": COUNT,
    "engine.lec_iterations": COUNT,
    "engine.dual_evals": COUNT,
    "engine.dual_eval_s": "s",
    "engine.jeffrey_s": "s",
    "engine.jeffrey_calls": COUNT,
    "engine.conditional_s": "s",
    "engine.conditional_calls": COUNT,
    "model.marginalize_s": "s",
    "model.marginalize_calls": COUNT,
    "model.scale_events_s": "s",
    "model.scale_events_calls": COUNT,
    "model.bytes_computed": "B",
    "preprocess.build_s": "s",
    "preprocess.nodes": COUNT,
    "preprocess.groups": COUNT,
    "preprocess.edges": COUNT,
    "preprocess.table_states": COUNT,
    "preprocess.render_s": "s",
    "parser.parse_s": "s",
    "parser.clauses": COUNT,
    "evidence.parse_s": "s",
    "evidence.constraints": COUNT,
    "oracle.expand_s": "s",
    "oracle.mce_s": "s",
    "oracle.max_abs_diff": "prob",
    "cli.import_s": "s",
    "cli.run_s": "s",
    "cli.check_s": "s",
    "cli.oracle_s": "s",
    "trace.overhead_s": "s",
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rss-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rcndl" / "__init__.py").is_file():
        print(f"error: no rcndl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads as W

    if args.rss_probe:
        return W.rss_probe(args.workload, args.seed)

    traced = bool(args.trace)
    try:
        run, values = W.run_workload(args.workload, args.seed, args.seconds,
                                     traced, Path(__file__).resolve())
    finally:
        shutil.rmtree(W.work_dir(), ignore_errors=True)

    lines = [f"workload {args.workload}  seed {args.seed}  "
             f"seconds {args.seconds:g}  trace {args.trace}"] + run.lines
    lines.append(f"fail_rate = {run.failed / max(run.attempted, 1):.6g} 1  "
                 f"({run.failed} of {run.attempted} problems)")
    units = PER_LAYER if traced else END_TO_END
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    if traced:
        for name in units:
            lines.append(f"{name} = {metrics[name]['value']:.6g} {units[name]}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
