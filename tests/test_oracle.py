from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcndl import (
    ConvergenceError,
    EvidenceSet,
    JointTable,
    MarginalConstraint,
    Scope,
    SizeLimitError,
    ce_decomposition_check,
    cross_entropy,
    expand_full_joint,
    marginalize,
    oracle_mce,
    parse_evidence,
    parse_program,
    preprocess,
    run_reasoning,
)
from rcndl.model import QueryClause, RuleClause
from tests.conftest import brute_force_cancer, brute_force_three_vars
from tests.test_batched_propagation import networks


def enumerated_joint(program, variables):
    """The joint over ``variables`` (first = most significant bit), state by
    state: each root clique's prior times every rule's conditional."""
    n = len(variables)
    states = np.arange(1 << n)
    bit = {v: (states >> (n - 1 - k)) & 1 for k, v in enumerate(variables)}

    def config(vars):
        return sum(bit[v] << (len(vars) - 1 - t) for t, v in enumerate(vars))

    joint = np.ones(1 << n)
    for clause in program.clauses:
        if isinstance(clause, QueryClause):
            for scope, prior in clause.cliques:
                joint *= np.asarray(prior)[config(scope.vars)]
        elif isinstance(clause, RuleClause):
            p_true = np.asarray(clause.cond)[config(clause.head.vars)]
            joint *= np.where(bit[clause.body] == 1, p_true, 1.0 - p_true)
    return joint, config


class TestExpandFullJoint:
    def test_three_vars_joint(self, three_vars_net):
        joint = expand_full_joint(three_vars_net)
        assert joint.scope.vars == ("A", "B", "C")
        np.testing.assert_allclose(joint.probs, brute_force_three_vars(),
                                   atol=1e-13)

    def test_marginal_onto_clause_scope(self, three_vars_net):
        joint = expand_full_joint(three_vars_net)
        ab = marginalize(joint, Scope(("A", "B")))
        np.testing.assert_allclose(ab.probs, [0.24, 0.06, 0.42, 0.28],
                                   atol=1e-13)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_generated_networks_match_enumeration(self, data):
        # sibling-headed units give group nodes; a variable set that no
        # single node covers is assembled from several clauses
        text, _, _ = data.draw(networks())
        net = preprocess(parse_program(text))
        variables = tuple(net.introducer)
        want, config = enumerated_joint(net.program, variables)
        joint = expand_full_joint(net)
        assert joint.scope.vars == variables
        np.testing.assert_allclose(joint.probs, want, rtol=0, atol=1e-12)
        # every pair, and a few larger sets
        subsets = [Scope(pair) for pair in combinations(variables, 2)] + [
            Scope(data.draw(st.lists(st.sampled_from(variables), min_size=1,
                                     max_size=4, unique=True)))
            for _ in range(3)
        ]
        for sub in subsets:
            marginal = np.bincount(config(sub.vars), want,
                                   minlength=sub.n_states)
            np.testing.assert_allclose(net.joint_over(sub).probs, marginal,
                                       rtol=0, atol=1e-12)

    def test_joint_over_two_groups_apart(self):
        # the group over (X1, X4, A0, B0) joins X0's clauses through the
        # rule X1 -> X4 it subsumes, so it must enter conditioned on X1
        net = preprocess(parse_program("""
            ?- X0 : [0.7, 0.3].
            X0 -> X1 : [0.2, 0.9].
            X1 -> X4 : [0.4, 0.6].
            X4 -> A0 : [0.3, 0.8].
            X4 -> B0 : [0.6, 0.1].
            A0, B0 -> C0 : [0.1, 0.5, 0.7, 0.9].
            X0 -> A1 : [0.2, 0.4].
            X0 -> B1 : [0.9, 0.3].
            A1, B1 -> C1 : [0.3, 0.2, 0.8, 0.6].
        """))
        variables = tuple(net.introducer)
        want, config = enumerated_joint(net.program, variables)
        for vars in (("C0", "C1"), ("X0", "X1", "C0"), ("C1", "X4")):
            np.testing.assert_allclose(
                net.joint_over(Scope(vars)).probs,
                np.bincount(config(vars), want, minlength=1 << len(vars)),
                rtol=0, atol=1e-12)

    def test_cancer_joint(self, cancer_net):
        joint = expand_full_joint(cancer_net)
        np.testing.assert_allclose(joint.probs, brute_force_cancer(),
                                   atol=1e-13)
        pb = marginalize(joint, Scope(("B",))).probs[1]
        assert pb == pytest.approx(0.2 * 0.8 + 0.8 * 0.2, abs=1e-13)

    def test_single_clause_network(self):
        net = preprocess(parse_program("?- A, B : [0.1, 0.2, 0.3, 0.4]."))
        joint = expand_full_joint(net)
        np.testing.assert_allclose(joint.probs, [0.1, 0.2, 0.3, 0.4])

    def test_round_trip_every_clause_table(self, cancer_net):
        joint = expand_full_joint(cancer_net)
        for node in cancer_net.nodes:
            expected = marginalize(joint, node.scope)
            np.testing.assert_allclose(
                cancer_net.tables[node.idx].probs, expected.probs,
                atol=1e-12, err_msg=node.label,
            )

    def test_size_guard(self, three_vars_net):
        with pytest.raises(SizeLimitError):
            expand_full_joint(three_vars_net, max_vars=2)


class TestOracleMce:
    def test_satisfied_constraints_leave_joint_unchanged(self, three_vars_net):
        joint = expand_full_joint(three_vars_net)
        out = oracle_mce(joint, [
            MarginalConstraint(Scope(("B",)), (0.66, 0.34)),
            MarginalConstraint(Scope(("C",)), (0.69, 0.31)),
        ])
        np.testing.assert_allclose(out.probs, joint.probs, atol=1e-12)

    def test_two_marginals_on_three_vars(self, three_vars_net):
        joint = expand_full_joint(three_vars_net)
        out = oracle_mce(joint, [
            MarginalConstraint(Scope(("B",)), (0.67, 0.33)),
            MarginalConstraint(Scope(("C",)), (0.05, 0.95)),
        ])
        # cross-checked against an independent dual solve of both rows
        assert marginalize(out, Scope(("A",))).probs[1] == pytest.approx(
            0.27433184, abs=1e-7
        )

    def test_agrees_with_joint_dual_solve(self, three_vars_net):
        from rcndl import LinearConstraint, lec_solve
        joint = expand_full_joint(three_vars_net)
        cycled = oracle_mce(joint, [
            MarginalConstraint(Scope(("B",)), (0.35, 0.65)),
            MarginalConstraint(Scope(("C",)), (0.15, 0.85)),
        ])
        rows = (
            tuple(float((j >> 1) & 1) for j in range(8)),
            tuple(float(j & 1) for j in range(8)),
        )
        dual, _ = lec_solve(
            joint, LinearConstraint(joint.scope, rows, (0.65, 0.85))
        )
        np.testing.assert_allclose(cycled.probs, dual.probs, atol=1e-8)

    def test_minimality_against_perturbed_satisfiers(self, three_vars_net):
        rng = np.random.default_rng(59)
        joint = expand_full_joint(three_vars_net)
        cons = [
            MarginalConstraint(Scope(("B",)), (0.67, 0.33)),
            MarginalConstraint(Scope(("C",)), (0.05, 0.95)),
        ]
        best = oracle_mce(joint, cons)
        base = cross_entropy(best, joint)
        for _ in range(1000):
            # random distribution forced onto both constraints
            q = JointTable(joint.scope, rng.dirichlet(np.ones(8)))
            for c in cons * 30:
                from rcndl import jeffrey_update
                q = jeffrey_update(q, c)
            if max(abs(marginalize(q, Scope(("B",))).probs[1] - 0.33),
                   abs(marginalize(q, Scope(("C",))).probs[1] - 0.95)) > 1e-9:
                continue
            assert cross_entropy(q, joint) >= base - 1e-9

    def test_cycle_cap(self, three_vars_net):
        joint = expand_full_joint(three_vars_net)
        with pytest.raises(ConvergenceError) as err:
            oracle_mce(joint, [
                MarginalConstraint(Scope(("B",)), (0.67, 0.33)),
                MarginalConstraint(Scope(("C",)), (0.05, 0.95)),
            ], tol=1e-12, cycle_cap=2)
        assert err.value.best is not None


class TestCeDecomposition:
    def test_prior_vs_prior_is_zero(self, three_vars_net):
        full, dec = ce_decomposition_check(three_vars_net, three_vars_net)
        assert full == pytest.approx(0.0, abs=1e-15)
        assert dec == pytest.approx(0.0, abs=1e-15)

    def test_three_vars_posterior(self, three_vars_net):
        ev = EvidenceSet(
            tuple(parse_evidence("P(B) = 0.33\nP(C) = 0.95")),
            default_threshold=0.001,
        )
        post, _ = run_reasoning(three_vars_net, ev)
        full, dec = ce_decomposition_check(three_vars_net, post)
        assert full == pytest.approx(dec, abs=1e-9)
        assert full > 0.0

    def test_cancer_bayesian_posterior(self, cancer_net):
        ev = EvidenceSet(tuple(parse_evidence("D = false\nE = true")))
        post, _ = run_reasoning(cancer_net, ev)
        full, dec = ce_decomposition_check(cancer_net, post)
        assert full == pytest.approx(dec, abs=1e-9)
        # conditioning: the cross entropy is -log of the evidence probability
        assert full == pytest.approx(-np.log(0.4112), abs=1e-12)

    def test_cancer_uncertain_posterior(self, cancer_net):
        ev = EvidenceSet(
            tuple(parse_evidence("P(D) = 0.75\nP(E) = 0.10")),
            default_threshold=1e-9,
        )
        post, _ = run_reasoning(cancer_net, ev)
        full, dec = ce_decomposition_check(cancer_net, post)
        assert full == pytest.approx(dec, abs=1e-9)
