"""Clause-by-clause reasoning vs the expanded full joint, on the cancer model.

The oracle expands the whole network into one table over all 2^5 states and
projects it directly; the scheduler only ever touches the small per-clause
tables.  Hard (certain) evidence agrees after a single pass; soft evidence
converges to the same place as the thresholds shrink.

Run:  python demos/04_oracle_comparison.py
"""

from pathlib import Path

from rcndl import (
    EvidenceSet,
    Scope,
    expand_full_joint,
    marginalize,
    oracle_mce,
    parse_evidence,
    parse_program,
    posterior_marginal,
    preprocess,
    run_reasoning,
)

here = Path(__file__).parent
net = preprocess(parse_program((here / "models" / "cancer.rcndl").read_text()))
joint = expand_full_joint(net)
print(f"full joint spans {len(joint.scope)} variables, "
      f"{joint.scope.n_states} states\n")

for name, path in (("hard evidence", "evidence_cancer_bayesian.txt"),
                   ("soft evidence", "evidence_cancer_uncertain.txt")):
    constraints = tuple(parse_evidence((here / path).read_text()))
    posterior, trace = run_reasoning(
        net, EvidenceSet(constraints, default_threshold=1e-9)
    )
    reference = oracle_mce(joint, list(constraints))
    print(f"{name} ({', '.join(c.label() for c in constraints)}), "
          f"{trace.passes} pass(es):")
    print(f"  {'variable':<10}{'scheduler':>12}{'oracle':>12}{'diff':>12}")
    for v in net.introducer:
        mine = posterior_marginal(posterior, v)[1]
        ref = float(marginalize(reference, Scope((v,))).probs[1])
        print(f"  {v:<10}{mine:>12.6f}{ref:>12.6f}{abs(mine - ref):>12.3e}")
    print()
