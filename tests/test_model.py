import numpy as np
import pytest

from rcndl import (
    ArityError,
    ConditionalConstraint,
    EvidenceSet,
    JointTable,
    MarginalConstraint,
    RcndlError,
    Scope,
    ScopeError,
    marginalize,
    multiply_condition,
    state_index,
)


class TestStateIndex:
    def test_single_variable(self):
        s = Scope(("A",))
        assert state_index(s, {"A": False}) == 0
        assert state_index(s, {"A": True}) == 1

    def test_first_variable_is_most_significant(self):
        assert state_index(Scope(("A", "B")), {"A": True, "B": False}) == 2

    def test_second_variable_is_least_significant(self):
        assert state_index(Scope(("B", "C")), {"B": False, "C": True}) == 1

    def test_bijection(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            scope = Scope(tuple(f"v{i}" for i in range(n)))
            seen = {
                state_index(scope, {
                    f"v{i}": bool((j >> (n - 1 - i)) & 1) for i in range(n)
                })
                for j in range(2 ** n)
            }
            assert seen == set(range(2 ** n))

    def test_missing_variable_rejected(self):
        with pytest.raises(ScopeError):
            state_index(Scope(("A", "B")), {"A": True})

    def test_extra_variable_rejected(self):
        with pytest.raises(ScopeError):
            state_index(Scope(("A",)), {"A": True, "B": False})


class TestScope:
    def test_duplicates_rejected(self):
        with pytest.raises(ScopeError):
            Scope(("A", "A"))

    def test_empty_rejected(self):
        with pytest.raises(ScopeError):
            Scope(())


class TestMarginalize:
    def test_onto_single_variable(self):
        t = JointTable(Scope(("A", "C")), [0.06, 0.24, 0.63, 0.07])
        m = marginalize(t, Scope(("C",)))
        np.testing.assert_allclose(m.probs, [0.69, 0.31])

    def test_onto_full_scope_is_identity(self):
        t = JointTable(Scope(("A", "B")), [0.24, 0.06, 0.42, 0.28])
        m = marginalize(t, t.scope)
        np.testing.assert_allclose(m.probs, t.probs)

    def test_three_variable_table(self):
        t = JointTable(Scope(("A", "B")), [0.24, 0.06, 0.42, 0.28])
        np.testing.assert_allclose(
            marginalize(t, Scope(("B",))).probs, [0.66, 0.34]
        )

    def test_reordered_subscope(self):
        t = JointTable(Scope(("A", "B")), [0.1, 0.2, 0.3, 0.4])
        m = marginalize(t, Scope(("B", "A")))
        np.testing.assert_allclose(m.probs, [0.1, 0.3, 0.2, 0.4])

    def test_not_a_subset(self):
        t = JointTable(Scope(("A",)), [0.4, 0.6])
        with pytest.raises(ScopeError):
            marginalize(t, Scope(("B",)))


class TestMultiplyCondition:
    def test_two_state_head(self):
        head = JointTable(Scope(("A",)), [0.3, 0.7])
        t = multiply_condition(head, [0.2, 0.4], "B")
        assert t.scope.vars == ("A", "B")
        np.testing.assert_allclose(t.probs, [0.24, 0.06, 0.42, 0.28])

    def test_second_rule(self):
        head = JointTable(Scope(("A",)), [0.3, 0.7])
        t = multiply_condition(head, [0.8, 0.1], "C")
        np.testing.assert_allclose(t.probs, [0.06, 0.24, 0.63, 0.07])

    def test_all_zero_conditional(self):
        head = JointTable(Scope(("A",)), [0.3, 0.7])
        t = multiply_condition(head, [0.0, 0.0], "B")
        np.testing.assert_allclose(t.probs[1::2], 0.0)
        np.testing.assert_allclose(t.probs[0::2], [0.3, 0.7])

    def test_marginalizing_back_recovers_head(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            scope = Scope(tuple(f"x{i}" for i in range(n)))
            head = JointTable(scope, rng.dirichlet(np.ones(2 ** n)))
            cond = rng.uniform(size=2 ** n)
            t = multiply_condition(head, cond, "y")
            back = marginalize(t, scope)
            np.testing.assert_allclose(back.probs, head.probs, atol=1e-12)

    def test_length_mismatch(self):
        head = JointTable(Scope(("A",)), [0.3, 0.7])
        with pytest.raises(ArityError):
            multiply_condition(head, [0.2, 0.4, 0.5], "B")

    def test_body_already_in_head(self):
        head = JointTable(Scope(("A",)), [0.3, 0.7])
        with pytest.raises(ScopeError):
            multiply_condition(head, [0.2, 0.4], "A")


class TestJointTable:
    def test_unit_sum_enforced(self):
        with pytest.raises(ValueError):
            JointTable(Scope(("A",)), [0.5, 0.6])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            JointTable(Scope(("A",)), [1.1, -0.1])

    def test_wrong_length(self):
        with pytest.raises(ArityError):
            JointTable(Scope(("A", "B")), [0.5, 0.5])

    def test_invalid_probabilities_raise_package_errors(self):
        a = Scope(("A",))
        for make in (
            lambda: JointTable(a, [1.1, -0.1]),
            lambda: JointTable(a, [0.5, 0.6]),
            lambda: MarginalConstraint(a, (1.5, -0.5)),
            lambda: MarginalConstraint(a, (0.5, 0.6)),
            lambda: ConditionalConstraint("A", (("B", True),), 1.5),
            lambda: EvidenceSet((), policy="fastest"),
        ):
            with pytest.raises(RcndlError):
                make()

    def test_prob_of_partial_assignment(self):
        t = JointTable(Scope(("A", "B")), [0.24, 0.06, 0.42, 0.28])
        assert t.prob_of({"A": True}) == pytest.approx(0.7)
        assert t.prob_of({"A": True, "B": False}) == pytest.approx(0.42)
