"""Command-line front end.

    rcndl run MODEL EVIDENCE [flags]     parse, preprocess, reason, report
    rcndl check MODEL                    dump the preprocessed intermediate form
    rcndl oracle MODEL EVIDENCE [flags]  compare the scheduler to the full-joint oracle

Text reports print probabilities with six decimals; ``--json`` emits every
number at full precision.  Exit codes: 0 converged (or nothing to do),
1 input error, 2 non-convergence within the pass budget.  Each command
imports the modules it runs: ``check`` loads no reasoning module, ``run``
no oracle.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .errors import RcndlError
from .model import (DEFAULT_MAX_PASSES, DEFAULT_THRESHOLD, GREATEST_GRADIENT,
                    PROGRAM_ORDER, Scope, marginalize)
from .parser import parse_program
from .preprocess import preprocess, render_intermediate

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NO_CONVERGENCE = 2


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise RcndlError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:  # one read() decodes the whole file
        raise RcndlError(f"cannot read {path}: byte offset {exc.start} is not "
                         f"UTF-8 ({exc.reason})") from exc


def _load(model_path: str, evidence_path: str, args):
    from .evidence import parse_evidence
    from .scheduler import EvidenceSet

    net = preprocess(parse_program(_read(model_path)))
    return net, EvidenceSet(
        constraints=tuple(parse_evidence(_read(evidence_path))),
        policy=args.order,
        max_passes=args.max_passes,
        default_threshold=args.threshold,
    )


def cmd_run(args) -> int:
    from .scheduler import posterior_marginal, run_reasoning

    net, ev = _load(args.model, args.evidence, args)
    if args.dump_intermediate:
        print(render_intermediate(net), end="")
    posterior, trace = run_reasoning(net, ev)

    if args.json:
        import json
        payload = {
            "converged": trace.converged,
            "passes": trace.passes,
            "posteriors": {v: posterior_marginal(posterior, v)[1]
                           for v in posterior.introducer},
            "final_gradients": trace.final_gradients,
            "steps": [
                {
                    "pass": s.pass_no,
                    "constraint": s.constraint,
                    "gradient_before": s.gradient_before,
                    "clauses_touched": list(s.touched),
                    "marginals": s.marginals,
                }
                for s in trace.steps
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        if args.trace:
            for s in trace.steps:
                marg = ", ".join(f"P({v})={p:.6f}" for v, p in s.marginals.items())
                print(f"pass {s.pass_no}: use {s.constraint} "
                      f"(|gradient| = {s.gradient_before:.6f}), "
                      f"clauses touched: {list(s.touched)}; {marg}")
        state = "converged" if trace.converged else "did not converge"
        print(f"{state} after {trace.passes} pass(es)")
        print("posterior marginals:")
        for v in posterior.introducer:
            print(f"  P({v}) = {posterior_marginal(posterior, v)[1]:.6f}")
        print("final gradients:")
        for label, g in trace.final_gradients.items():
            print(f"  {label}: {g:.6f}")
    return EXIT_OK if trace.converged else EXIT_NO_CONVERGENCE


def cmd_check(args) -> int:
    net = preprocess(parse_program(_read(args.model)))
    print(render_intermediate(net), end="")
    return EXIT_OK


def cmd_oracle(args) -> int:
    from .oracle import expand_full_joint, oracle_mce
    from .scheduler import posterior_marginal, run_reasoning

    net, ev = _load(args.model, args.evidence, args)
    posterior, trace = run_reasoning(net, ev)
    joint = expand_full_joint(net)
    reference = oracle_mce(joint, list(ev.constraints), tol=args.oracle_tol)

    rows = []
    for v in net.introducer:
        mine = posterior_marginal(posterior, v)[1]
        ref = float(marginalize(reference, Scope((v,))).probs[1])
        rows.append((v, mine, ref, abs(mine - ref)))

    if args.json:
        import json
        print(json.dumps({
            "converged": trace.converged,
            "passes": trace.passes,
            "posteriors": {v: m for v, m, _, _ in rows},
            "oracle": {v: r for v, _, r, _ in rows},
            "differences": {v: d for v, _, _, d in rows},
        }, indent=2))
    else:
        print(f"{'variable':<12}{'scheduler':>12}{'oracle':>12}{'diff':>14}")
        for v, mine, ref, diff in rows:
            print(f"{v:<12}{mine:>12.6f}{ref:>12.6f}{diff:>14.3e}")
        print(f"passes: {trace.passes}, "
              f"{'converged' if trace.converged else 'not converged'}")
    return EXIT_OK if trace.converged else EXIT_NO_CONVERGENCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcndl",
        description="MCE reasoning over recursive causal networks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("model", help="RCNDL model file")
        p.add_argument("evidence", help="evidence file")
        p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                       help="default gradient threshold "
                            f"(default {DEFAULT_THRESHOLD})")
        p.add_argument("--max-passes", type=int, default=DEFAULT_MAX_PASSES,
                       help=f"pass budget (default {DEFAULT_MAX_PASSES})")
        p.add_argument("--order", choices=[GREATEST_GRADIENT, PROGRAM_ORDER],
                       default=GREATEST_GRADIENT,
                       help="constraint ordering policy within a pass")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output at full precision")

    p_run = sub.add_parser("run", help="reason over a model with evidence")
    add_common(p_run)
    p_run.add_argument("--dump-intermediate", action="store_true",
                       help="print the preprocessed form before reasoning")
    p_run.add_argument("--trace", action="store_true",
                       help="print one line per constraint use")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="preprocess and dump the "
                                           "intermediate form")
    p_check.add_argument("model", help="RCNDL model file")
    p_check.set_defaults(func=cmd_check)

    p_oracle = sub.add_parser("oracle", help="compare against the full-joint "
                                             "oracle")
    add_common(p_oracle)
    p_oracle.add_argument("--oracle-tol", type=float, default=1e-12,
                          help="largest gradient left by the oracle (default "
                               "1e-12, which joints of about 20 variables may "
                               "not meet: exit 1, naming the gradient left)")
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RcndlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
