import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rcndl.model
import rcndl.oracle
from rcndl import (
    ConditionalConstraint,
    ConvergenceError,
    EvidenceSet,
    GREATEST_GRADIENT,
    JointTable,
    LinearConstraint,
    MarginalConstraint,
    NetworkStructureError,
    Scope,
    SizeLimitError,
    ce_decomposition_check,
    cross_entropy,
    expand_full_joint,
    gradient_scalar,
    marginalize,
    oracle_mce,
    parse_evidence,
    PROGRAM_ORDER,
    parse_program,
    preprocess,
    run_reasoning,
)
from rcndl.errors import ProbabilityError
from rcndl.model import QueryClause, RuleClause, substate_map
from tests.conftest import brute_force_cancer, brute_force_three_vars
from tests.test_batched_propagation import PROB, networks


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


@st.composite
def nested_programs(draw):
    """A root ``X0``, half the time a disjoint root ``Y0``, then up to ten
    rules headed by one to three of the last three variables introduced
    (so groups join other groups and the rules around them), and up to
    three observations of one to three variables."""
    p, q = draw(PROB), draw(PROB)
    variables = ["X0", "Y0"] if draw(st.booleans()) else ["X0"]
    lines = ["?- " + "; ".join(f"{v} : [{1 - r!r}, {r!r}]"
                               for v, r in zip(variables, (p, q))) + "."]
    for i in range(1, draw(st.integers(1, 10)) + 1):
        head = draw(st.lists(st.sampled_from(variables[-3:]), min_size=1,
                             max_size=3, unique=True))
        cond = ", ".join(str(draw(PROB)) for _ in range(1 << len(head)))
        lines.append(f"{', '.join(head)} -> V{i} : [{cond}].")
        variables.append(f"V{i}")
    for _ in range(draw(st.integers(0, 3))):
        lines.append(", ".join(draw(st.lists(st.sampled_from(variables),
                                             min_size=1, max_size=3,
                                             unique=True))) + ".")
    return "\n".join(lines)


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

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_nested_groups_match_enumeration(self, data):
        # every node table, groups included, and joint_over reads that no
        # single node may cover
        try:
            net = preprocess(parse_program(data.draw(nested_programs())))
        except NetworkStructureError:
            assume(False)
        variables = tuple(net.introducer)
        want, config = enumerated_joint(net.program, variables)
        reads = [(n.scope.vars, net.tables[n.idx]) for n in net.nodes]
        for _ in range(3):
            vars = tuple(data.draw(st.lists(st.sampled_from(variables),
                                            min_size=1, max_size=4, unique=True)))
            reads.append((vars, net.joint_over(Scope(vars))))
        for vars, table in reads:
            np.testing.assert_allclose(
                table.probs,
                np.bincount(config(vars), want, minlength=1 << len(vars)),
                rtol=0, atol=1e-12, err_msg=str(vars))

    def test_joint_over_two_groups_apart(self):
        # first: the group over (X1, X4, A0, B0) joins X0's clauses through
        # the rule X1 -> X4 it subsumes, so it must enter conditioned on X1;
        # second: with the members of the group under V9 left out, V9's
        # rule comes before its tree neighbour V6 -> V7 in index order, and
        # a join in that order is off by 2.4e-3; third: the clauses under
        # V9 and V10 chain away from the first member, so a member's
        # overlap counts with every joined member (with the first one
        # only, the read is off by 0.02)
        cases = [("""
            ?- X0 : [0.7, 0.3].
            X0 -> X1 : [0.2, 0.9].
            X1 -> X4 : [0.4, 0.6].
            X4 -> A0 : [0.3, 0.8].
            X4 -> B0 : [0.6, 0.1].
            A0, B0 -> C0 : [0.1, 0.5, 0.7, 0.9].
            X0 -> A1 : [0.2, 0.4].
            X0 -> B1 : [0.9, 0.3].
            A1, B1 -> C1 : [0.3, 0.2, 0.8, 0.6].
        """, (("C0", "C1"), ("X0", "X1", "C0"), ("C1", "X4"))), ("""
            ?- V0 : [0.5, 0.5]; V1, V2, V3 : [%s].
            V2, V3 -> V4 : [0.76, 0.14, 0.18, 0.92].
            V1 -> V5 : [0.33, 0.08].
            V1, V0 -> V6 : [0.05, 0.45, 0.44, 0.26].
            V6 -> V7 : [0.85, 0.51].
            V3 -> V8 : [0.09, 0.13].
            V2, V6, V5 -> V9 : [0.12, 0.83, 0.73, 0.93, 0.48, 0.45, 0.44, 0.2].
            V2 -> V10 : [0.11, 0.72].
            V6, V0 -> V11 : [0.16, 0.28, 0.24, 0.06].
            V0.
        """ % ", ".join(["0.125"] * 8), (("V5", "V7", "V9"),)), ("""
            ?- V0, V1, V2 : [%s]; V0, V3 : [0.25, 0.25, 0.25, 0.25].
            V3, V2 -> V4 : [0.86, 0.84, 0.31, 0.86].
            V3, V4 -> V5 : [0.77, 0.37, 0.63, 0.14].
            V4, V3, V5 -> V6 : [0.56, 0.06, 0.4, 0.38, 0.49, 0.48, 0.05, 0.43].
            V6, V5 -> V7 : [0.26, 0.37, 0.25, 0.87].
            V6 -> V8 : [0.15, 0.55].
            V8 -> V9 : [0.64, 0.79].
            V8, V7 -> V10 : [0.46, 0.71, 0.07, 0.93].
        """ % ", ".join(["0.125"] * 8), (("V6", "V9", "V10"),))]
        for text, reads in cases:
            net = preprocess(parse_program(text))
            want, config = enumerated_joint(net.program, tuple(net.introducer))
            want /= want.sum()  # the third case's uniform cliques overlap
            for vars in reads:
                np.testing.assert_allclose(
                    net.joint_over(Scope(vars)).probs,
                    np.bincount(config(vars), want, minlength=1 << len(vars)),
                    rtol=0, atol=1e-12, err_msg=str(vars))

    def test_group_over_a_group_and_its_dependents(self):
        # the outer group joins the inner group(X2 -> X3; X2 -> X4) with
        # the rules above and below it
        net = preprocess(parse_program("""
            ?- X0 : [0.3, 0.7].
            X0 -> X1 : [0.51, 0.81].
            X0, X1 -> X2 : [0.29, 0.75, 0.73, 0.1].
            X2 -> X3 : [0.32, 0.76].
            X2 -> X4 : [0.79, 0.51].
            X3, X4 -> X5 : [0.47, 0.59, 0.52, 0.46].
            X4, X5 -> X6 : [0.17, 0.66, 0.68, 0.34].
            X3, X6 -> X7 : [0.78, 0.1, 0.12, 0.62].
        """))
        want, config = enumerated_joint(net.program, tuple(net.introducer))
        reads = [(n.scope.vars, net.tables[n.idx]) for n in net.nodes]
        reads.append((("X1", "X4"), net.joint_over(Scope(("X1", "X4")))))
        for vars, table in reads:
            np.testing.assert_allclose(
                table.probs,
                np.bincount(config(vars), want, minlength=1 << len(vars)),
                rtol=0, atol=1e-12, err_msg=str(vars))

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

    def test_size_guard(self, monkeypatch):
        # a 26-variable rule chain: one variable over the guard, refused
        # before the first product of its 2**26-state joint is made
        text = "?- X0 : [0.5, 0.5].\n" + "".join(
            f"X{i - 1} -> X{i} : [0.3, 0.6].\n" for i in range(1, 26))
        net = preprocess(parse_program(text))
        assert len(net.introducer) == 26

        def product(*args):
            raise AssertionError("expansion began before the size guard")

        monkeypatch.setattr(rcndl.oracle, "product", product)
        with pytest.raises(SizeLimitError) as err:
            expand_full_joint(net)
        assert str(err.value) == ("expand_full_joint: the full joint would span "
                                  "26 variables, over the 25-variable limit")


def test_expansion_lifts_nothing_onto_the_whole_joint(monkeypatch):
    """The product in node order is already in introducer order, so
    expanding a 14-variable chain builds no state map over more than the
    12 variables whose maps are cached (those are built once, unseen)."""
    text = "?- X0 : [0.4, 0.6].\n" + "".join(
        f"X{i} -> X{i + 1} : [0.3, 0.8].\n" for i in range(13))
    net = preprocess(parse_program(text))
    built, real = [], rcndl.model._build_state_map

    def spy(n, positions):
        built.append(n)
        return real(n, positions)

    monkeypatch.setattr(rcndl.model, "_build_state_map", spy)
    joint = expand_full_joint(net)
    assert joint.scope.vars == tuple(net.introducer) and len(net.introducer) == 14
    assert max(built, default=0) <= 12


def pinned_chain(n):
    """The joint of an ``n``-variable rule chain, and four sets on it:
    P(X1|X0), P(X1|!X0) and P(X1), which together fix its (X0, X1) clause
    with P(X0) = 0.3, and a marginal on the last variable."""
    net = preprocess(parse_program("?- X0 : [0.4, 0.6].\n" + "".join(
        f"X{i} -> X{i + 1} : [0.3, 0.8].\n" for i in range(n - 1))))
    p0, a, b = 0.3, 0.62, 0.627
    p1 = p0 * a + (1 - p0) * b
    return expand_full_joint(net), (
        ConditionalConstraint("X1", (("X0", True),), a),
        ConditionalConstraint("X1", (("X0", False),), b),
        MarginalConstraint(Scope(("X1",)), (1 - p1, p1)),
        MarginalConstraint(Scope((f"X{n - 1}",)), (0.7, 0.3)))


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

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf")])
    def test_tolerance_must_be_finite_and_positive(self, three_vars_net, tol):
        # refused before any projection: `gradient < tol` never holds at
        # NaN or 0
        joint = expand_full_joint(three_vars_net)
        with pytest.raises(ProbabilityError) as err:
            oracle_mce(joint, [MarginalConstraint(Scope(("B",)), (0.67, 0.33))],
                       tol=tol)
        assert str(err.value) == (f"oracle tolerance {tol!r} must be finite "
                                  f"and positive")

    def test_a_gradient_floor_above_tol_raises_without_spinning(
            self, monkeypatch):
        # on a 2**20-state joint the summed marginals leave a gradient
        # near 2e-12, which no further projection removes; the oracle
        # makes at most one projection per set and one joint projection,
        # then says what it left
        joint, cons = pinned_chain(20)
        calls, real = [], rcndl.oracle.update_table

        def spy(table, c, tolerance):
            calls.append(c)
            assert len(calls) <= 50, "the oracle is cycling"
            return real(table, c, tolerance)

        monkeypatch.setattr(rcndl.oracle, "update_table", spy)
        with pytest.raises(ConvergenceError,
                           match=r"^oracle left a gradient of \S+, not "
                                 r"below 1e-12$") as err:
            oracle_mce(joint, cons, tol=1e-12)
        assert len(calls) <= len(cons) + 1
        best = err.value.best
        assert isinstance(best, JointTable) and best.scope == joint.scope
        left = max(gradient_scalar(best, c) for c in cons)
        assert f"gradient of {left:.3g}," in str(err.value) and left >= 1e-12


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


@st.composite
def tilted_problems(draw):
    """A network from ``networks()``, its full joint, and one to four
    marginal, conditional or linear constraint sets whose targets are read
    off one randomly tilted copy of that joint, so that they can all be met
    at once."""
    text, rules, observed = draw(networks())
    net = preprocess(parse_program(text))
    joint = expand_full_joint(net)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    tilted = joint.probs * rng.uniform(0.5, 1.5, joint.probs.size)
    tilted /= tilted.sum()

    def marginal(scope):
        return np.bincount(substate_map(joint.scope, scope), tilted,
                           minlength=scope.n_states)

    cons = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("marginal", "conditional", "linear")))
        if kind == "marginal":
            scope = Scope((draw(st.sampled_from(observed)),))
            cons.append(MarginalConstraint(scope, tuple(marginal(scope).tolist())))
            continue
        *head, body = draw(st.sampled_from(rules))
        if kind == "conditional":
            condition = tuple((v, draw(st.booleans())) for v in draw(
                st.lists(st.sampled_from(head), min_size=1, unique=True)))
            scope = Scope(tuple(v for v, _ in condition) + (body,))
            m = marginal(scope)
            # the condition's state with the body, the last bit, false
            state = sum(int(val) << len(condition) - k
                        for k, (_, val) in enumerate(condition))
            true, false = m[state | 1], m[state]
            cons.append(ConditionalConstraint(body, condition,
                                              float(true / (true + false))))
            continue
        scope = Scope((*head, body))
        rows = np.array([[draw(st.integers(0, 3)) for _ in range(scope.n_states)]
                         for _ in range(draw(st.integers(1, 2)))], dtype=float)
        cons.append(LinearConstraint(scope, rows, rows @ marginal(scope)))
    return net, joint, cons


def enumerated_gradient(joint, c):
    """The gradient of a marginal or conditional set on ``joint``, read
    state by state off each state's bits, with no rcndl kernel or map: a
    fault that the kernels share with the oracle shows here."""
    n = len(joint.scope)
    states = np.arange(joint.scope.n_states)
    bit = {v: (states >> (n - 1 - k)) & 1 for k, v in enumerate(joint.scope.vars)}
    if isinstance(c, MarginalConstraint):
        event = sum(bit[v] << (len(c.scope) - 1 - k)
                    for k, v in enumerate(c.scope.vars))
        mass = np.bincount(event, joint.probs, minlength=c.scope.n_states)
        return np.abs(np.array(c.targets) - mass).max()
    held = np.logical_and.reduce([bit[v] == val for v, val in c.condition])
    both = joint.probs[held].sum()
    return abs(c.prob - joint.probs[held & (bit[c.target] == 1)].sum() / both)


def mixed_condition_problem():
    """Conditional sets on the two condition events of a two-variable
    head whose values differ, which the drawn problems seldom hold: a
    condition event read with its bits swapped is the other one."""
    net = preprocess(parse_program(
        "?- X : [0.4, 0.6].\nX -> A : [0.3, 0.8].\nX -> B : [0.6, 0.2].\n"
        "A, B -> C : [0.1, 0.7, 0.4, 0.9].\nC.\n"))
    cons = [ConditionalConstraint("C", (("A", True), ("B", False)), 0.35),
            ConditionalConstraint("C", (("A", False), ("B", True)), 0.8)]
    return net, expand_full_joint(net), cons


class TestSchedulerAgainstOracle:
    """Property 7(e) for every evidence kind, on networks with groups."""

    @settings(max_examples=60, deadline=None)
    @given(tilted_problems(), st.sampled_from((GREATEST_GRADIENT, PROGRAM_ORDER)))
    @example(mixed_condition_problem(), GREATEST_GRADIENT)
    def test_posterior_is_the_oracle_mce(self, problem, policy):
        # sets on neighbouring clauses that both pin their separator can
        # take thousands of passes to meet 1e-12 (3,249 at most in 9,500
        # draws); the budget leaves room above that
        net, joint, cons = problem
        post, trace = run_reasoning(net, EvidenceSet(
            tuple(cons), policy=policy, default_threshold=1e-12,
            max_passes=20_000))
        assert trace.converged, trace.final_gradients
        # within the threshold, plus the expansion's rounding (at most
        # 5.0e-15 from each set's gradient on its home in 2,364 sets)
        full = expand_full_joint(post)
        for c in cons:
            if not isinstance(c, LinearConstraint):
                assert enumerated_gradient(full, c) < 1e-12 + 1e-14, c.label()
        calls = {"update_table": 0, "stacked": 0}

        def counting(name):
            real = getattr(rcndl.oracle, name)

            def spy(*args):
                calls[name] += 1
                return real(*args)
            return spy

        with pytest.MonkeyPatch.context() as mp:
            for name in calls:
                mp.setattr(rcndl.oracle, name, counting(name))
            ref = oracle_mce(joint, cons, tol=1e-12)
        # one cycle of single projections, then at most one joint one
        assert calls["update_table"] <= len(cons) + 1, calls
        assert calls["stacked"] <= 1, calls
        for t in post.tables:
            diff = np.abs(t.probs - marginalize(ref, t.scope).probs).max()
            assert diff <= 1e-10, (t.scope, diff)

    def test_sets_that_pin_a_clause_are_met_jointly(self):
        # P(X1|X0), P(X1|!X0) and P(X1) fix the (X0, X1) clause; with
        # nearly equal conditionals, cyclic projections had not met 1e-12
        # after 100,000 passes (scheduler) or cycles (oracle), with P(X0)
        # still 3e-3 away
        net = preprocess(parse_program(
            "?- X0 : [0.4, 0.6].\nX0 -> X1 : [0.3, 0.8].\nX1.\n"))
        p0, a, b = 0.3, 0.62, 0.627
        p1 = p0 * a + (1 - p0) * b
        cons = (ConditionalConstraint("X1", (("X0", True),), a),
                ConditionalConstraint("X1", (("X0", False),), b),
                MarginalConstraint(Scope(("X1",)), (1 - p1, p1)))
        post, trace = run_reasoning(net, EvidenceSet(
            cons, default_threshold=1e-12))
        assert trace.converged and trace.passes == 2
        ref = oracle_mce(expand_full_joint(net), cons, tol=1e-12)
        for joint in (post.tables[1], ref):
            assert marginalize(joint, Scope(("X0",))).probs[1] == \
                pytest.approx(p0, abs=1e-12)

    def test_a_stacked_cycle_allocates_near_the_joints_size(self):
        # the sets hold X0, X1 and X15 of a 16-variable chain: stacked,
        # they are solved on the joint's 8-state marginal over those
        # three, where rows over the whole joint took about 20 joints
        joint, cons = pinned_chain(16)
        tracemalloc.start()
        try:
            post = oracle_mce(joint, cons, tol=1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * joint.probs.nbytes, peak / joint.probs.nbytes
        assert marginalize(post, Scope(("X0",))).probs[1] == \
            pytest.approx(0.3, abs=1e-12)
