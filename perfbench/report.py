"""Run every workload and print every metric by name and unit.

    python3 perfbench/report.py [--seeds 10] [--seconds 20] [--trace] [--out FILE]

Each run is its own process (``perfbench/run.py``), so its peak RSS is its
own.  With several seeds, each metric is reported as the median over seeds
and the quartile spread (third minus first quartile, as a share of the
median) that the benchmark's bounds are compared with.  ``--trace`` adds
one traced run per workload on the first seed and checks that each
workload exercises the layer it was chosen for.  ``--out`` writes every
result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if res.returncode != 0:
        raise SystemExit(f"{workload}: exit {res.returncode}\n{res.stderr}")
    result = json.loads(res.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    return result


def summarize(runs: list[dict]) -> dict[str, dict[str, float]]:
    """Median over runs and quartile spread of each metric, and fail_rate."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        spread = 0.0
        if len(values) >= 2 and median:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
        out[name] = {"median": median, "spread": spread}
    failed = sum(r["failed"] for r in runs)
    out["fail_rate"] = {"median": failed / sum(r["attempted"] for r in runs),
                        "spread": 0.0}
    return out


def job_checks(layers: dict[str, dict], plain: dict[str, dict]) -> list[str]:
    """What the traced run must show for each workload to do its job."""
    def v(workload, name, source=layers):
        return source[workload]["metrics"][name]["value"]

    checks = [
        ("tree-marginal: scheduler.propagate_s >= reason_s / 2",
         v("tree-marginal", "scheduler.propagate_s")
         >= v("tree-marginal", "scheduler.run_s") / 2),
        ("wide-linear: engine.lec_s + scheduler.gradient_s >= reason_s / 2",
         v("wide-linear", "engine.lec_s") + v("wide-linear", "scheduler.gradient_s")
         >= v("wide-linear", "scheduler.run_s") / 2),
        ("build-large: preprocess.build_s >= solve_s / 2",
         v("build-large", "preprocess.build_s")
         >= v("build-large", "solve_s", plain) / 2),
        ("tree-marginal: engine.lec_calls == 0",
         v("tree-marginal", "engine.lec_calls") == 0),
        ("build-large: engine.lec_calls == 0",
         v("build-large", "engine.lec_calls") == 0),
    ]
    return [f"{'PASS' if ok else 'FAIL'}  {text}" for text, ok in checks]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=1,
                    help="runs per workload, on seeds 1..N")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    plain = {w: [run_once(w, seed, args.seconds, 0)
                 for seed in range(1, args.seeds + 1)] for w in WORKLOADS}
    summary = {w: summarize(runs) for w, runs in plain.items()}
    units = {**END_TO_END, "fail_rate": "1"}
    print(f"{'workload':<15}{'metric':<14}{'median':>14}  unit  "
          f"{'spread':>8}  (over {args.seeds} seed(s))")
    for w, metrics in summary.items():
        for name, unit in units.items():
            m = metrics[name]
            print(f"{w:<15}{name:<14}{m['median']:>14.6g}  {unit:<4}  "
                  f"{m['spread']:>8.4f}")

    layers = {}
    if args.trace:
        layers = {w: run_once(w, 1, args.seconds, 1) for w in WORKLOADS}
        for w, res in layers.items():
            print(f"\n{w} (traced, seed 1)")
            for name, m in res["metrics"].items():
                print(f"  {name:<30}{m['value']:>16.6g} {m['unit']}")
        print()
        first = {w: runs[0] for w, runs in plain.items()}
        for line in job_checks(layers, first):
            print(line)

    if args.out:
        args.out.write_text(json.dumps({
            "machine": {"nproc": len(os.sched_getaffinity(0)),
                        "python": platform.python_version(),
                        "numpy": version("numpy"),
                        "blas_threads": 1},
            "seconds": args.seconds,
            "summary": summary,
            "end_to_end": plain,
            "per_layer": layers,
        }, indent=1) + "\n")
    runs = [r for rs in plain.values() for r in rs] + list(layers.values())
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
