import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcndl import (
    ConvergenceError,
    EvidenceSet,
    GREATEST_GRADIENT,
    InfeasibleEvidenceError,
    JointTable,
    LinearConstraint,
    MarginalConstraint,
    NetworkStructureError,
    PROGRAM_ORDER,
    Scope,
    ScopeError,
    apply_constraint,
    expand_full_joint,
    jeffrey_update,
    marginalize,
    oracle_mce,
    parse_evidence,
    parse_program,
    posterior_marginal,
    preprocess,
    propagate_clause_update,
    run_reasoning,
)
from rcndl.engine import gradient_scalar
from rcndl.errors import ProbabilityError
from rcndl.scheduler import home_clause, marginal_spread
from tests.conftest import CANCER, THREE_VARS


def node_by_label(net, label):
    return next(n for n in net.nodes if n.label == label)


def evidence(text, **kw):
    return EvidenceSet(tuple(parse_evidence(text)), **kw)


class TestPropagation:
    def test_soft_evidence_reaches_sibling_clause(self, three_vars_net):
        net, _ = apply_constraint(
            three_vars_net, MarginalConstraint(Scope(("C",)), (0.05, 0.95))
        )
        ab = net.tables[node_by_label(net, "A -> B").idx]
        np.testing.assert_allclose(
            ab.probs, [0.591866, 0.147966, 0.156101, 0.104067], atol=1e-6
        )
        assert posterior_marginal(net, "A")[1] == pytest.approx(0.260168, abs=5e-7)

    def test_observation_leaves_follow(self, three_vars_net):
        net, _ = apply_constraint(
            three_vars_net, MarginalConstraint(Scope(("C",)), (0.05, 0.95))
        )
        obs_b = net.tables[node_by_label(net, "B").idx]
        assert obs_b.probs[1] == pytest.approx(0.252034, abs=5e-7)

    def test_pushing_current_marginal_changes_nothing(self, three_vars_net):
        idx = node_by_label(three_vars_net, "A -> C").idx
        net = propagate_clause_update(three_vars_net, idx)
        for a, b in zip(net.tables, three_vars_net.tables):
            np.testing.assert_allclose(a.probs, b.probs, atol=1e-14)

    def test_cross_clause_consistency_after_propagation(self, cancer_net):
        rng = np.random.default_rng(13)
        net = cancer_net
        for _ in range(30):
            var = rng.choice(list(net.observables))
            v = float(rng.uniform(0.05, 0.95))
            net, _ = apply_constraint(
                net, MarginalConstraint(Scope((var,)), (1.0 - v, v))
            )
            for check in net.variables:
                assert marginal_spread(net, check) <= 1e-9

    def test_cancer_coma_evidence_matches_full_joint_oracle(self, cancer_net):
        c = MarginalConstraint(Scope(("D",)), (0.25, 0.75))
        net, _ = apply_constraint(cancer_net, c)
        reference = jeffrey_update(expand_full_joint(cancer_net), c)
        for var in net.variables:
            ref = marginalize(reference, Scope((var,))).probs[1]
            assert posterior_marginal(net, var)[1] == pytest.approx(
                ref, abs=1e-12
            ), var

    def test_home_clause_is_smallest_covering_scope(self, cancer_net):
        c = MarginalConstraint(Scope(("D",)), (0.25, 0.75))
        assert cancer_net.nodes[home_clause(cancer_net, c)].label == "D"
        c2 = MarginalConstraint(Scope(("B", "C")), (0.25, 0.25, 0.25, 0.25))
        assert cancer_net.nodes[home_clause(cancer_net, c2)].label == "B, C -> D"

    def test_zero_mass_separator_event_with_positive_target_is_infeasible(
        self, three_vars_net
    ):
        # the observation clause on B puts no mass on B=true, while the rule
        # clause it hangs off gives B=true positive probability
        obs_b = node_by_label(three_vars_net, "B").idx
        net = three_vars_net.with_table(
            obs_b, JointTable(Scope(("B",)), [1.0, 0.0])
        )
        with pytest.raises(InfeasibleEvidenceError,
                           match=r"event 1 of partition \('B',\)"):
            propagate_clause_update(net, node_by_label(net, "A -> B").idx)


class TestRunReasoningThreeVars:
    def test_conflicting_sets_one_clause_holds_are_infeasible(
        self, three_vars_net
    ):
        # P(B) must be 0.5 under both conditionals; the joint step of the
        # second pass names the conflict instead of spending the budget
        ev = evidence("P(B|A) = 0.5\nP(B|!A) = 0.5\nP(B) = 0.9")
        with pytest.raises(InfeasibleEvidenceError,
                           match=r"^P\(B\|A\)=0.5: .*infeasible"):
            run_reasoning(three_vars_net, ev)

    def test_loose_threshold_trace(self, three_vars_net):
        ev = evidence("P(B) = 0.33\nP(C) = 0.95", default_threshold=0.01)
        post, trace = run_reasoning(three_vars_net, ev)
        assert [s.constraint for s in trace.steps] == ["P(C)=0.95", "P(B)=0.33"]
        assert trace.passes == 1
        assert trace.converged
        assert posterior_marginal(post, "A")[1] == pytest.approx(0.276089, abs=1e-6)
        assert trace.final_gradients["P(C)=0.95"] == pytest.approx(0.0027, abs=5e-7)
        ab = post.tables[node_by_label(post, "A -> B").idx]
        np.testing.assert_allclose(
            ab.probs, [0.530171, 0.193740, 0.139829, 0.136260], atol=1e-6
        )

    def test_tight_threshold_needs_second_pass(self, three_vars_net):
        ev = evidence("P(B) = 0.33\nP(C) = 0.95", default_threshold=0.001)
        post, trace = run_reasoning(three_vars_net, ev)
        assert trace.passes == 2
        assert posterior_marginal(post, "A")[1] == pytest.approx(0.274341, abs=5e-7)
        assert trace.final_gradients["P(C)=0.95"] == pytest.approx(
            0.000014, abs=1e-6
        )

    def test_greatest_gradient_picks_larger_violation_first(self, three_vars_net):
        ev = evidence("P(B) = 0.33\nP(C) = 0.95")
        _, trace = run_reasoning(three_vars_net, ev)
        assert trace.steps[0].constraint == "P(C)=0.95"
        assert trace.steps[0].gradient_before == pytest.approx(0.64)

    def test_program_order_policy(self, three_vars_net):
        ev = evidence("P(B) = 0.33\nP(C) = 0.95", policy=PROGRAM_ORDER)
        _, trace = run_reasoning(three_vars_net, ev)
        assert trace.steps[0].constraint == "P(B)=0.33"

    @pytest.mark.parametrize("pb,pc", [
        (0.33, 0.95), (1.0, 0.15), (0.15, 0.67),
        (0.27, 0.05), (0.65, 0.85), (0.95, 0.85),
    ])
    def test_policies_reach_the_same_limit(self, three_vars_net, pb, pc):
        results = {}
        for policy in (GREATEST_GRADIENT, PROGRAM_ORDER):
            ev = evidence(f"P(B) = {pb}\nP(C) = {pc}",
                          policy=policy, default_threshold=1e-10)
            post, trace = run_reasoning(three_vars_net, ev)
            assert trace.converged
            results[policy] = posterior_marginal(post, "A")[1]
        assert results[GREATEST_GRADIENT] == pytest.approx(
            results[PROGRAM_ORDER], abs=2e-3
        )

    def test_posterior_marginal_returns_both_sides(self, three_vars_net):
        assert posterior_marginal(three_vars_net, "A") == pytest.approx(
            (0.3, 0.7)
        )
        assert posterior_marginal(three_vars_net, "B") == pytest.approx(
            (0.66, 0.34)
        )
        ev = evidence("P(B) = 0.33\nP(C) = 0.95", default_threshold=0.001)
        post, _ = run_reasoning(three_vars_net, ev)
        lo, hi = posterior_marginal(post, "A")
        assert hi == pytest.approx(0.274341, abs=5e-7)
        assert lo == pytest.approx(1.0 - hi)

    def test_limit_is_the_joint_mce_solution(self, three_vars_net):
        ev = evidence("P(B) = 0.33\nP(C) = 0.95", default_threshold=1e-11)
        post, _ = run_reasoning(three_vars_net, ev)
        ref = oracle_mce(
            expand_full_joint(three_vars_net), list(ev.constraints)
        )
        assert posterior_marginal(post, "A")[1] == pytest.approx(
            marginalize(ref, Scope(("A",))).probs[1], abs=1e-9
        )

    def test_empty_evidence_zero_passes(self, three_vars_net):
        post, trace = run_reasoning(three_vars_net, EvidenceSet(()))
        assert trace.passes == 0 and trace.converged
        assert posterior_marginal(post, "A")[1] == pytest.approx(0.7)

    def test_already_satisfied_evidence_zero_passes(self, three_vars_net):
        ev = evidence("P(B) = 0.34\nP(C) = 0.31")
        post, trace = run_reasoning(three_vars_net, ev)
        assert trace.passes == 0 and trace.converged

    def test_max_passes_exhaustion_reports_nonconvergence(self, three_vars_net):
        ev = EvidenceSet(
            tuple(parse_evidence("P(B) = 0.33\nP(C) = 0.95")),
            max_passes=1, default_threshold=0.0,
        )
        _, trace = run_reasoning(three_vars_net, ev)
        assert not trace.converged
        assert trace.passes == 1
        assert set(trace.final_gradients) == {"P(B)=0.33", "P(C)=0.95"}

    def test_per_constraint_threshold_overrides_default(self, three_vars_net):
        ev = EvidenceSet(
            tuple(parse_evidence("P(B) = 0.33 threshold 1.0\nP(C) = 0.95")),
            default_threshold=0.01,
        )
        _, trace = run_reasoning(three_vars_net, ev)
        assert trace.converged

    def test_step_records_carry_marginals(self, three_vars_net):
        ev = evidence("P(C) = 0.95", default_threshold=0.01)
        _, trace = run_reasoning(three_vars_net, ev)
        assert trace.steps[0].marginals["A"] == pytest.approx(0.260168, abs=5e-7)
        assert trace.steps[0].touched  # propagation reached other clauses


class TestRunReasoningCancer:
    def test_certain_evidence_single_pass(self, cancer_net):
        ev = evidence("D = false\nE = true")
        post, trace = run_reasoning(cancer_net, ev)
        assert trace.passes == 1 and trace.converged
        assert trace.final_gradients["P(D)=0"] == 0.0
        assert trace.final_gradients["P(E)=1"] == 0.0
        # exact conditioning on the two hard findings
        assert posterior_marginal(post, "A")[1] == pytest.approx(
            0.04 / 0.4112, abs=1e-12
        )

    def test_certain_evidence_matches_conditioning_all_variables(self, cancer_net):
        ev = evidence("D = false\nE = true")
        post, _ = run_reasoning(cancer_net, ev)
        joint = expand_full_joint(cancer_net)
        conditioned = jeffrey_update(
            jeffrey_update(
                joint, MarginalConstraint(Scope(("E",)), (0.0, 1.0))
            ),
            MarginalConstraint(Scope(("D",)), (1.0, 0.0)),
        )
        for var in post.variables:
            assert posterior_marginal(post, var)[1] == pytest.approx(
                marginalize(conditioned, Scope((var,))).probs[1], abs=1e-12
            )

    def test_soft_evidence_one_pass_headache_first(self, cancer_net):
        ev = EvidenceSet(
            tuple(parse_evidence("P(D) = 0.75\nP(E) = 0.10")),
            max_passes=1, default_threshold=0.0,
        )
        post, trace = run_reasoning(cancer_net, ev)
        # greater initial violation puts the E constraint first
        assert trace.steps[0].constraint == "P(E)=0.1"
        assert posterior_marginal(post, "A")[1] == pytest.approx(
            0.336083, abs=5e-7
        )

    def test_soft_evidence_coma_first_second_pass_close(self, cancer_net):
        ev = EvidenceSet(
            tuple(parse_evidence("P(D) = 0.75\nP(E) = 0.10")),
            policy=PROGRAM_ORDER, max_passes=2, default_threshold=0.0,
        )
        post, _ = run_reasoning(cancer_net, ev)
        assert abs(posterior_marginal(post, "A")[1] - 0.336007) <= 1e-4

    def test_limit_matches_oracle(self, cancer_net):
        ev = evidence("P(D) = 0.75\nP(E) = 0.10", default_threshold=1e-10)
        post, _ = run_reasoning(cancer_net, ev)
        ref = oracle_mce(expand_full_joint(cancer_net), list(ev.constraints))
        for var in post.variables:
            assert posterior_marginal(post, var)[1] == pytest.approx(
                marginalize(ref, Scope((var,))).probs[1], abs=1e-8
            )


class TestMonotoneImprovement:
    def test_each_step_moves_toward_the_joint_mce_solution(self, three_vars_net):
        from rcndl import cross_entropy
        prior = expand_full_joint(three_vars_net)
        cons = tuple(parse_evidence("P(B) = 0.33\nP(C) = 0.95"))
        reference = oracle_mce(prior, list(cons))
        net = three_vars_net
        ce_prior_prev = 0.0
        ce_ref_prev = cross_entropy(reference, prior)
        for c in (cons[1], cons[0]) * 4:
            net, _ = apply_constraint(net, c)
            recon = expand_full_joint(net)
            ce_prior = cross_entropy(recon, prior)
            ce_ref = cross_entropy(reference, recon)
            assert ce_prior >= ce_prior_prev - 1e-9
            assert ce_ref <= ce_ref_prev + 1e-9
            ce_prior_prev, ce_ref_prev = ce_prior, ce_ref
        assert ce_ref_prev <= 1e-9  # the iteration reached the limit


class TestEvidenceValidation:
    def test_marginal_on_undeclared_variable(self, three_vars_net):
        ev = evidence("P(A) = 0.5")  # A never declared as an observation
        with pytest.raises(NetworkStructureError):
            run_reasoning(three_vars_net, ev)

    def test_conditional_over_in_scope_variables_allowed(self, three_vars_net):
        ev = evidence("P(B | A) = 0.9", default_threshold=1e-9)
        post, trace = run_reasoning(three_vars_net, ev)
        assert trace.converged
        ab = post.tables[node_by_label(post, "A -> B").idx]
        assert ab.probs[3] / (ab.probs[2] + ab.probs[3]) == pytest.approx(0.9)

    def test_unknown_variable_rejected(self, three_vars_net):
        ev = evidence("P(Q) = 0.5")
        with pytest.raises(Exception):
            run_reasoning(three_vars_net, ev)

    def test_reads_of_unknown_variables_name_them(self, three_vars_net):
        with pytest.raises(ScopeError, match="unknown variable 'Q'"):
            three_vars_net.joint_over(Scope(("A", "Q")))
        with pytest.raises(ScopeError, match="unknown variable 'Q'"):
            posterior_marginal(three_vars_net, "Q")
        with pytest.raises(ScopeError, match="unknown variable 'Q'"):
            marginal_spread(three_vars_net, "Q")

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            EvidenceSet((), policy="fastest")

    @pytest.mark.parametrize("kw", [
        {"default_threshold": -1e-9},
        {"default_threshold": float("nan")},
        {"default_threshold": float("inf")},
        {"max_passes": -1},
        {"constraints": (MarginalConstraint(Scope(("B",)), (0.5, 0.5), -1.0),)},
    ])
    def test_unreachable_stopping_rule_rejected(self, kw):
        with pytest.raises(ProbabilityError):
            EvidenceSet(**{"constraints": (), **kw})

    def test_zero_threshold_and_pass_budget_allowed(self, three_vars_net):
        ev = evidence("P(B) = 0.5", default_threshold=0.0, max_passes=0)
        post, trace = run_reasoning(three_vars_net, ev)
        assert (trace.passes, trace.converged) == (0, False)


class TestBayesianOnePassProperty:
    def test_random_networks_converge_in_one_pass(self):
        rng = np.random.default_rng(101)
        for trial in range(25):
            net, observed = _random_network(rng)
            k = int(rng.integers(1, min(3, len(observed)) + 1))
            chosen = list(rng.choice(observed, size=k, replace=False))
            cons = []
            joint = expand_full_joint(net)
            for var in chosen:
                # pick a value with nonzero probability to stay feasible
                pv = marginalize(joint, Scope((var,))).probs[1]
                val = 1.0 if (pv > 0.5 or pv > 0) and rng.uniform() < pv else 0.0
                if (val == 1.0 and pv == 0.0) or (val == 0.0 and pv == 1.0):
                    val = 1.0 - val
                cons.append(
                    MarginalConstraint(Scope((var,)), (1.0 - val, val))
                )
            post, trace = run_reasoning(net, EvidenceSet(tuple(cons)))
            assert trace.passes <= 1, trial
            for g in trace.final_gradients.values():
                assert g <= 1e-12  # zero up to float rounding


CHAIN = "?- X0 : [0.4, 0.6].\nX0 -> X1 : [0.3, 0.8].\nX1.\n"


def _tilted_linear(net, rows, weights):
    """Rows over the ``X0 -> X1`` clause with right-hand sides read off
    that clause's table tilted by ``weights``, so the set is feasible."""
    scope = Scope(("X0", "X1"))
    q = next(t.probs for t in net.tables if t.scope == scope) * weights
    return LinearConstraint(scope, rows,
                            tuple((np.asarray(rows) @ (q / q.sum())).tolist()))


class TestThresholdBelowKernelDefault:
    """The linear kernel solves to a tenth of the caller's threshold, so
    thresholds below its 1e-9 default are met rather than stalled at it."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=10989)  # stalled the kernel before its Newton step
    def test_linear_evidence_converges_at_1e_10(self, seed):
        # rows ~ U(-1, 1) and a Dirichlet tilt, drawn through numpy: rows
        # whose every coefficient is tiny are a separate scaling problem
        rng = np.random.default_rng(seed)
        rows = rng.uniform(-1.0, 1.0, size=(rng.integers(1, 3), 4))
        net = preprocess(parse_program(CHAIN))
        c = _tilted_linear(net, tuple(map(tuple, rows.tolist())),
                           rng.dirichlet(np.ones(4)))
        _, trace = run_reasoning(
            net, EvidenceSet((c,), default_threshold=1e-10, max_passes=2))
        assert trace.converged, trace.final_gradients

    def test_oracle_meets_1e_11(self):
        # at a fixed 1e-9 kernel tolerance this draw stalled: the scheduler
        # used up its passes and the oracle raised ConvergenceError
        net = preprocess(parse_program(CHAIN))
        c = _tilted_linear(net, ((0.3, 0.9, 0.8, -0.3),), (2, 4, 3, 1))
        post, trace = run_reasoning(
            net, EvidenceSet((c,), default_threshold=1e-10, max_passes=20))
        assert trace.passes == 1 and trace.converged
        ref = oracle_mce(expand_full_joint(net), [c], tol=1e-11)
        assert gradient_scalar(marginalize(ref, c.scope), c) < 1e-11
        for v in ("X0", "X1"):
            assert posterior_marginal(post, v)[1] == pytest.approx(
                marginalize(ref, Scope((v,))).probs[1], abs=1e-9)

    @pytest.mark.parametrize("rows", [((0, 0, 0, 1.19e-7),),
                                      ((0, 0, 0, 1.19e-7), (0, 1, 0, 0))])
    def test_rows_with_tiny_coefficients_converge(self, rows):
        # the lone row needs |lambda| near 4e7, a tilt of only about 5
        net = preprocess(parse_program(CHAIN))
        c = _tilted_linear(net, rows, (1.56, 0.37, 0.4, 1.66))
        _, trace = run_reasoning(
            net, EvidenceSet((c,), default_threshold=1e-10))
        assert trace.converged, trace.final_gradients


def test_stalled_linear_solve_names_its_constraint():
    # no float tilt of the clause puts P(!X0, X1) at 0.33 to within 1e-18;
    # the error says which set stalled and keeps the solver's best iterate
    net = preprocess(parse_program(CHAIN))
    c = LinearConstraint(Scope(("X0", "X1")), ((0, 1, 0, 0), (0, 0, 1, 0)),
                         (0.33, 0.12))
    with pytest.raises(ConvergenceError,
                       match=r"^linear\[2 rows on X0,X1\]: ") as err:
        run_reasoning(net, EvidenceSet((c,), default_threshold=1e-17))
    assert err.value.best is not None


def test_unreachable_target_fails_within_a_few_iterations():
    # the residual stops one rounding step from 0.33, above the 1e-18
    # tolerance; the solve says so once a step fails to shrink it
    net = preprocess(parse_program(CHAIN))
    c = LinearConstraint(Scope(("X0", "X1")), ((0, 1, 0, 0),), (0.33,))
    with pytest.raises(ConvergenceError,
                       match=r"^linear\[1 rows on X0,X1\]: .* stalled") as err:
        run_reasoning(net, EvidenceSet((c,), default_threshold=1e-17))
    _, state = err.value.best
    assert state.iterations <= 10
    assert np.abs(state.gradient).max() > 1e-18


def _random_network(rng, n_vars=None):
    """A random singly connected program with every variable observable."""
    n = n_vars or int(rng.integers(3, 6))
    names = [f"V{i}" for i in range(n)]
    lines = [f"?- {names[0]} : [{_pair(rng)}]."]
    introduced = [names[0]]
    group_used = False
    for v in names[1:]:
        if len(introduced) >= 2 and not group_used and rng.uniform() < 0.3:
            head = list(rng.choice(introduced, size=2, replace=False))
            group_used = True  # one multi-clause head keeps the tree simple
        else:
            head = [str(rng.choice(introduced))]
        conds = ", ".join(
            f"{rng.uniform(0.05, 0.95):.6f}" for _ in range(2 ** len(head))
        )
        lines.append(f"{', '.join(head)} -> {v} : [{conds}].")
        introduced.append(v)
    lines.append(f"{', '.join(names)}.")
    return preprocess(parse_program("\n".join(lines))), names


def _pair(rng):
    p = rng.uniform(0.1, 0.9)
    return f"{1 - p:.6f}, {p:.6f}"
