"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``criterion N: PASS/FAIL`` line and, on failure, a
per-value breakdown of computed-vs-expected with deltas.  The expected
values are six-decimal reference figures; where exact arithmetic provably
cannot land inside the half-ulp window (a handful of the reference figures
are themselves inexact), the corresponding checks fail honestly rather
than being loosened.
"""

import json

import numpy as np
import pytest

from rcndl import (
    EvidenceSet,
    GREATEST_GRADIENT,
    MarginalConstraint,
    JointTable,
    LinearConstraint,
    PROGRAM_ORDER,
    Scope,
    apply_constraint,
    ce_decomposition_check,
    expand_full_joint,
    jeffrey_update,
    lec_solve,
    marginalize,
    oracle_mce,
    parse_evidence,
    parse_program,
    posterior_marginal,
    preprocess,
    run_reasoning,
)
from rcndl.cli import main
from rcndl.engine import constraint_gradient, dual_value_and_gradient
from rcndl.scheduler import home_clause
from tests.conftest import CANCER, THREE_VARS
from tests.reference_scheduler import marginal_spread

TABLE_ROWS = [(0.33, 0.95), (1.0, 0.15), (0.15, 0.67),
              (0.27, 0.05), (0.65, 0.85), (0.95, 0.85)]
TABLE_PRINTED = {
    1: {"B": (0.290038, 0.274248), "C": (0.276089, 0.274341)},
    2: {"B": (0.866627, 0.866627), "C": (0.895002, 0.866627)},
    3: {"B": (0.429631, 0.435663), "C": (0.418813, 0.433291)},
    4: {"B": (0.873383, 0.870505), "C": (0.869070, 0.871116)},
    5: {"B": (0.379245, 0.398768), "C": (0.415431, 0.393405)},
    6: {"B": (0.443543, 0.448283), "C": (0.457625, None)},
}
TABLE_MCE = [0.274364, 0.866537, 0.433053, 0.871064, 0.394492, 0.447418]


class Checks:
    def __init__(self, criterion):
        self.criterion = criterion
        self.rows = []

    def check(self, name, got, want, tol):
        ok = abs(got - want) <= tol
        self.rows.append((name, got, want, tol, ok))
        return ok

    def check_bool(self, name, ok):
        self.rows.append((name, float(ok), 1.0, 0.0, bool(ok)))
        return ok

    def finish(self):
        passed = all(ok for *_, ok in self.rows)
        print(f"criterion {self.criterion}: {'PASS' if passed else 'FAIL'}")
        if not passed:
            lines = [
                f"  {name}: got {got:.7f}, expected {want:.7f} "
                f"(tol {tol:g}, off by {abs(got - want):.2e})"
                for name, got, want, tol, ok in self.rows
                if not ok
            ]
            pytest.fail(
                f"criterion {self.criterion} deviations:\n" + "\n".join(lines),
                pytrace=False,
            )


@pytest.fixture(scope="module")
def net61():
    return preprocess(parse_program(THREE_VARS))


@pytest.fixture(scope="module")
def net_cancer():
    return preprocess(parse_program(CANCER))


def run_table_instance(net, pb, pc, first, passes):
    order = (f"P(B) = {pb}\nP(C) = {pc}" if first == "B"
             else f"P(C) = {pc}\nP(B) = {pb}")
    ev = EvidenceSet(tuple(parse_evidence(order)), policy=PROGRAM_ORDER,
                     max_passes=passes, default_threshold=0.0)
    post, _ = run_reasoning(net, ev)
    return posterior_marginal(post, "A")[1]


def test_criterion_1_intermediate_form(tmp_path, capsys):
    c = Checks(1)
    model = tmp_path / "model.rcndl"
    model.write_text(THREE_VARS)
    assert main(["check", str(model)]) == 0
    out = capsys.readouterr().out
    with capsys.disabled():
        for line in (
            "A -> B : [0.240000, 0.060000, 0.420000, 0.280000].",
            "A -> C : [0.060000, 0.240000, 0.630000, 0.070000].",
            "B : [0.660000, 0.340000].",
            "C : [0.690000, 0.310000].",
        ):
            c.check_bool(f"dump contains {line!r}", line in out)
        c.finish()


def test_criterion_2_single_jeffrey_step(net61):
    c = Checks(2)
    net, _ = apply_constraint(
        net61, MarginalConstraint(Scope(("C",)), (0.05, 0.95))
    )
    ac = net.tables[next(n.idx for n in net.nodes if n.label == "A -> C")]
    for i, want in enumerate([0.004348, 0.735484, 0.045652, 0.214516]):
        c.check(f"[A,C][{i}]", ac.probs[i], want, 5e-7)
    c.check("P(A)", posterior_marginal(net, "A")[1], 0.260168, 5e-7)
    c.finish()


def test_criterion_3_iteration_trace(net61):
    c = Checks(3)
    cons = tuple(parse_evidence("P(B) = 0.33\nP(C) = 0.95"))
    # greatest gradient picks the C constraint first
    g = [abs(constraint_gradient(net61.tables[home_clause(net61, x)], x)).max()
         for x in cons]
    c.check_bool("C selected first", g[1] > g[0])

    net, _ = apply_constraint(net61, cons[1])
    ab_idx = next(n.idx for n in net.nodes if n.label == "A -> B")
    ab = net.tables[ab_idx]
    for i, want in enumerate([0.591866, 0.147966, 0.156101, 0.104067]):
        c.check(f"[A,B] after C-step [{i}]", ab.probs[i], want, 5e-7)

    net, _ = apply_constraint(net, cons[0])
    ab = net.tables[ab_idx]
    for i, want in enumerate([0.530171, 0.193740, 0.139829, 0.136260]):
        c.check(f"[A,B] after B-step [{i}]", ab.probs[i], want, 5e-7)
    c.check("P(A) at threshold 0.01", posterior_marginal(net, "A")[1],
            0.276089, 5e-7)
    g_c = constraint_gradient(net.tables[home_clause(net, cons[1])], cons[1])
    c.check("final |grad C|", abs(g_c).max(), 0.002700, 5e-7)

    ev = EvidenceSet(cons, default_threshold=0.001)
    post, trace = run_reasoning(net61, ev)
    c.check("P(A) at threshold 0.001", posterior_marginal(post, "A")[1],
            0.274341, 5e-7)
    c.finish()


def test_criterion_4_table_of_constraint_problems(net61, tmp_path, capsys):
    c = Checks(4)
    model = tmp_path / "model.rcndl"
    model.write_text(THREE_VARS)
    for row, (pb, pc) in enumerate(TABLE_ROWS, 1):
        for first in "BC":
            for step in (1, 2):
                want = TABLE_PRINTED[row][first][step - 1]
                if want is None:
                    continue
                got = run_table_instance(net61, pb, pc, first, step)
                c.check(f"row {row} {first}-first step {step}", got, want, 5e-7)
        evidence = tmp_path / f"ev{row}.txt"
        evidence.write_text(f"P(B) = {pb}\nP(C) = {pc}\n")
        code = main(["oracle", str(model), str(evidence), "--json"])
        payload = json.loads(capsys.readouterr().out)
        with capsys.disabled():
            c.check_bool(f"row {row} oracle command ran", code in (0, 2))
            c.check(f"row {row} MCE value", payload["oracle"]["A"],
                    TABLE_MCE[row - 1], 5e-7)
    with capsys.disabled():
        c.finish()


def test_criterion_5_cooper_bayesian(net_cancer):
    c = Checks(5)
    ev = EvidenceSet(tuple(parse_evidence("D = false\nE = true")))
    post, trace = run_reasoning(net_cancer, ev)
    c.check_bool("exactly one pass", trace.passes == 1 and trace.converged)
    c.check("P(A)", posterior_marginal(post, "A")[1], 0.097278, 5e-7)
    c.check_bool(
        "both gradients exactly zero",
        all(v == 0.0 for v in trace.final_gradients.values()),
    )
    c.finish()


def test_criterion_6_cooper_uncertain(net_cancer, tmp_path, capsys):
    c = Checks(6)
    # headache constraint first (the greater gradient), one pass
    ev = EvidenceSet(
        tuple(parse_evidence("P(D) = 0.75\nP(E) = 0.10")),
        policy=GREATEST_GRADIENT, max_passes=1, default_threshold=0.0,
    )
    post, trace = run_reasoning(net_cancer, ev)
    c.check_bool("E constraint used first",
                 trace.steps[0].constraint == "P(E)=0.1")
    c.check("P(A) after one pass", posterior_marginal(post, "A")[1],
            0.336083, 5e-7)

    model = tmp_path / "cancer.rcndl"
    model.write_text(CANCER)
    evidence = tmp_path / "ev.txt"
    evidence.write_text("P(D) = 0.75\nP(E) = 0.10\n")
    main(["oracle", str(model), str(evidence), "--json"])
    payload = json.loads(capsys.readouterr().out)
    with capsys.disabled():
        c.check("oracle MCE value", payload["oracle"]["A"], 0.336007, 5e-7)

        # coma constraint first needs the second pass to get close
        ev_d = EvidenceSet(
            tuple(parse_evidence("P(D) = 0.75\nP(E) = 0.10")),
            policy=PROGRAM_ORDER, max_passes=1, default_threshold=0.0,
        )
        one, _ = run_reasoning(net_cancer, ev_d)
        c.check_bool(
            "one coma-first pass is not yet close",
            abs(posterior_marginal(one, "A")[1] - 0.336007) > 1e-4,
        )
        ev_d2 = EvidenceSet(
            tuple(parse_evidence("P(D) = 0.75\nP(E) = 0.10")),
            policy=PROGRAM_ORDER, max_passes=2, default_threshold=0.0,
        )
        two, _ = run_reasoning(net_cancer, ev_d2)
        c.check_bool(
            "second coma-first pass within 1e-4 of the MCE result",
            abs(posterior_marginal(two, "A")[1] - 0.336007) <= 1e-4,
        )
        c.finish()


def _random_network(rng):
    n = int(rng.integers(3, 6))
    names = [f"V{i}" for i in range(n)]
    p = rng.uniform(0.1, 0.9)
    lines = [f"?- {names[0]} : [{1 - p:.6f}, {p:.6f}]."]
    introduced = [names[0]]
    group_used = False
    for v in names[1:]:
        if len(introduced) >= 2 and not group_used and rng.uniform() < 0.3:
            head = list(rng.choice(introduced, size=2, replace=False))
            group_used = True
        else:
            head = [str(rng.choice(introduced))]
        conds = ", ".join(
            f"{rng.uniform(0.05, 0.95):.6f}" for _ in range(2 ** len(head))
        )
        lines.append(f"{', '.join(head)} -> {v} : [{conds}].")
        introduced.append(v)
    lines.append(f"{', '.join(names)}.")
    return preprocess(parse_program("\n".join(lines))), names


def test_criterion_7_property_suite(net61, net_cancer):
    c = Checks(7)
    rng = np.random.default_rng(2024)

    # (a) + (b): Jeffrey updates satisfy their constraint exactly, preserve
    # within-event conditionals, and always yield valid tables
    from rcndl.model import substate_map
    worst_sat = worst_cond = worst_sum = worst_neg = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        scope = Scope(tuple(f"x{i}" for i in range(n)))
        t = JointTable(scope, rng.dirichlet(np.ones(2 ** n)))
        k = int(rng.integers(1, n + 1))
        part = Scope(tuple(
            scope.vars[i] for i in rng.choice(n, size=k, replace=False)
        ))
        targets = rng.dirichlet(np.ones(part.n_states))
        post = jeffrey_update(t, MarginalConstraint(part, tuple(targets)))
        worst_sum = max(worst_sum, abs(post.probs.sum() - 1.0))
        worst_neg = max(worst_neg, -min(post.probs.min(), 0.0))
        got = marginalize(post, part).probs
        worst_sat = max(worst_sat, np.abs(got - targets).max())
        smap = substate_map(scope, part)
        prior_ev = marginalize(t, part).probs
        for ev in range(part.n_states):
            sel = smap == ev
            if prior_ev[ev] <= 0 or targets[ev] <= 0:
                continue
            worst_cond = max(worst_cond, np.abs(
                post.probs[sel] / targets[ev] - t.probs[sel] / prior_ev[ev]
            ).max())
    c.check_bool("(a) unit sum within 1e-9 after 1000 updates",
                 worst_sum <= 1e-9)
    c.check_bool("(a) nonnegative after 1000 updates", worst_neg == 0.0)
    c.check_bool("(b) constraint satisfaction exact (1e-12)",
                 worst_sat <= 1e-12)
    c.check_bool("(b) within-event conditionals preserved (1e-9)",
                 worst_cond <= 1e-9)

    # (c) dual gradient vs central finite differences
    worst_fd = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        q = rng.dirichlet(np.ones(2 ** n))
        k = int(rng.integers(1, 4))
        rows = rng.normal(size=(k, 2 ** n))
        rhs = rows @ rng.dirichlet(np.ones(2 ** n))
        lam = rng.normal(scale=0.5, size=k)
        _, grad, _ = dual_value_and_gradient(q, rows, rhs, lam)
        for i in range(k):
            up, dn = lam.copy(), lam.copy()
            up[i] += 1e-6
            dn[i] -= 1e-6
            fd = (dual_value_and_gradient(q, rows, rhs, up)[0]
                  - dual_value_and_gradient(q, rows, rhs, dn)[0]) / 2e-6
            worst_fd = max(worst_fd, abs(fd - grad[i]) / max(abs(grad[i]), 1e-3))
    c.check_bool("(c) dual gradient matches finite differences (1e-5)",
                 worst_fd <= 1e-5)

    # (d) dual solve equals the Jeffrey update on marginal rows
    worst_eq = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        scope = Scope(tuple(f"x{i}" for i in range(n)))
        t = JointTable(scope, rng.dirichlet(np.ones(2 ** n)))
        var = int(rng.integers(n))
        target = float(rng.uniform(0.05, 0.95))
        row = tuple(float((j >> (n - 1 - var)) & 1) for j in range(2 ** n))
        sol, _ = lec_solve(t, LinearConstraint(scope, (row,), (target,)))
        jef = jeffrey_update(t, MarginalConstraint(
            Scope((scope.vars[var],)), (1 - target, target)
        ))
        worst_eq = max(worst_eq, np.abs(sol.probs - jef.probs).max())
    c.check_bool("(d) dual solve equals Jeffrey on marginals (1e-6)",
                 worst_eq <= 1e-6)

    # (e) scheduler limit equals the oracle limit on random networks
    worst_lim = 0.0
    for _ in range(50):
        net, names = _random_network(rng)
        picks = rng.choice(names, size=2, replace=False)
        cons = tuple(
            MarginalConstraint(
                Scope((v,)),
                (1 - (p := float(rng.uniform(0.05, 0.95))), p),
            )
            for v in picks
        )
        post, trace = run_reasoning(
            net, EvidenceSet(cons, default_threshold=1e-11, max_passes=2000)
        )
        ref = oracle_mce(expand_full_joint(net), list(cons), tol=1e-13)
        for v in names:
            worst_lim = max(worst_lim, abs(
                posterior_marginal(post, v)[1]
                - marginalize(ref, Scope((v,))).probs[1]
            ))
    c.check_bool("(e) scheduler limit equals oracle limit (1e-4, 50 nets)",
                 worst_lim <= 1e-4)

    # (f) cross-entropy decomposition equality on both example networks
    ev61 = EvidenceSet(tuple(parse_evidence("P(B) = 0.33\nP(C) = 0.95")),
                       default_threshold=0.001)
    post61, _ = run_reasoning(net61, ev61)
    full, dec = ce_decomposition_check(net61, post61)
    c.check_bool("(f) decomposition equality, three-variable model (1e-9)",
                 abs(full - dec) <= 1e-9)
    evc = EvidenceSet(tuple(parse_evidence("D = false\nE = true")))
    postc, _ = run_reasoning(net_cancer, evc)
    full, dec = ce_decomposition_check(net_cancer, postc)
    c.check_bool("(f) decomposition equality, cancer model (1e-9)",
                 abs(full - dec) <= 1e-9)

    # (g) cross-clause marginal consistency after every propagation
    worst_spread = 0.0
    for _ in range(20):
        net, names = _random_network(rng)
        for _ in range(8):
            v = str(rng.choice(names))
            tv = float(rng.uniform(0.05, 0.95))
            net, _ = apply_constraint(
                net, MarginalConstraint(Scope((v,)), (1 - tv, tv))
            )
            worst_spread = max(
                worst_spread, max(marginal_spread(net, u) for u in names)
            )
    c.check_bool("(g) cross-clause consistency after propagation (1e-9)",
                 worst_spread <= 1e-9)
    c.finish()


def test_criterion_8_ordering_needs_no_more_passes(net61):
    c = Checks(8)
    for row, (pb, pc) in enumerate(TABLE_ROWS, 1):
        cons = tuple(parse_evidence(f"P(B) = {pb}\nP(C) = {pc}"))
        passes = {}
        for policy in (GREATEST_GRADIENT, PROGRAM_ORDER):
            _, trace = run_reasoning(
                net61, EvidenceSet(cons, policy=policy,
                                   default_threshold=0.01)
            )
            assert trace.converged
            passes[policy] = trace.passes
        c.check_bool(
            f"row {row}: greatest-gradient passes "
            f"({passes[GREATEST_GRADIENT]}) <= program order "
            f"({passes[PROGRAM_ORDER]})",
            passes[GREATEST_GRADIENT] <= passes[PROGRAM_ORDER],
        )
        c.check_bool(
            f"row {row}: no more passes than the two reported",
            passes[GREATEST_GRADIENT] <= 2,
        )
    c.finish()
