import numpy as np
import pytest

from rcndl import (
    ArityError,
    ConditionalConstraint,
    EvidenceSet,
    JointTable,
    LinearConstraint,
    MarginalConstraint,
    RcndlError,
    Scope,
    ScopeError,
    conditional_update,
    jeffrey_update,
    lec_solve,
    marginalize,
    parse_program,
    preprocess,
)
from rcndl.errors import ProbabilityError
from rcndl.model import event_indices
from tests.conftest import THREE_VARS
from tests.reference_preprocess import multiply_condition


class TestStateIndex:
    """The one state that a full assignment selects, by ``event_indices``."""

    def test_single_variable(self):
        s = Scope(("A",))
        assert event_indices(s, {"A": False}).tolist() == [0]
        assert event_indices(s, {"A": True}).tolist() == [1]

    def test_first_variable_is_most_significant(self):
        assert event_indices(Scope(("A", "B")),
                             {"A": True, "B": False}).tolist() == [2]

    def test_second_variable_is_least_significant(self):
        assert event_indices(Scope(("B", "C")),
                             {"B": False, "C": True}).tolist() == [1]

    def test_bijection(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            scope = Scope(tuple(f"v{i}" for i in range(n)))
            seen = [
                event_indices(scope, {
                    f"v{i}": bool((j >> (n - 1 - i)) & 1) for i in range(n)
                }).tolist()
                for j in range(2 ** n)
            ]
            assert seen == [[j] for j in range(2 ** n)]

    def test_extra_variable_rejected(self):
        with pytest.raises(ScopeError):
            event_indices(Scope(("A",)), {"A": True, "B": False})


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
        # the table itself: a linear set's gradient on its own table sums
        # nothing
        assert m is t

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
    """The reference's conditional step, against which the batched fill is
    checked."""

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

    @pytest.mark.parametrize("probs", [[np.nan, 1.0], [np.nan, np.nan]])
    def test_nan_rejected(self, probs):
        # a NaN fails every comparison, so a check must fail on it
        with pytest.raises(ProbabilityError):
            JointTable(Scope(("A",)), probs)

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

    @pytest.mark.parametrize("make", [
        lambda a: MarginalConstraint(a, (np.nan, np.nan)),
        lambda a: MarginalConstraint(a, (0.5, np.nan)),
        lambda a: LinearConstraint(a, ((0.0, np.nan),), (0.5,)),
        lambda a: LinearConstraint(a, ((0.0, np.inf),), (0.5,)),
        lambda a: LinearConstraint(a, ((0.0, 1.0),), (np.nan,)),
        lambda a: LinearConstraint(a, ((0.0, 1.0),), (-np.inf,)),
    ])
    def test_non_finite_constraint_numbers_rejected(self, make):
        # accepted, they cost a run its pass or iteration budget
        with pytest.raises(ProbabilityError):
            make(Scope(("A",)))

    def test_linear_constraint_without_rows_rejected(self):
        # the dual of an empty set has no multipliers to solve for
        with pytest.raises(ArityError):
            LinearConstraint(Scope(("A",)), (), ())

    def test_prob_of_partial_assignment(self):
        t = JointTable(Scope(("A", "B")), [0.24, 0.06, 0.42, 0.28])
        assert t.prob_of({"A": True}) == pytest.approx(0.7)
        assert t.prob_of({"A": True, "B": False}) == pytest.approx(0.42)


class TestLinearConstraint:
    """Rows and right-hand sides held as read-only float arrays, built
    once from any array-like; sets compare by identity."""

    AB = Scope(("A", "B"))
    ROWS = ((1.0, 0.0, 0.5, 0.0), (0.0, 2.0, 0.0, 1.0))
    RHS = (0.25, 0.5)

    def test_tuples_lists_and_arrays_give_the_same_bytes(self):
        made = [LinearConstraint(self.AB, self.ROWS, self.RHS),
                LinearConstraint(self.AB, [list(r) for r in self.ROWS],
                                 list(self.RHS)),
                LinearConstraint(self.AB, np.asfortranarray(self.ROWS),
                                 np.array(self.RHS))]
        for c in made:
            assert c.rows.dtype == c.rhs.dtype == np.float64
            assert c.rows.shape == (2, 4) and c.rhs.shape == (2,)
            assert c.rows.flags.c_contiguous
            assert (c.rows.tobytes(), c.rhs.tobytes()) == (
                made[0].rows.tobytes(), made[0].rhs.tobytes())

    def test_arrays_passed_in_are_copied(self):
        rows, rhs = np.array(self.ROWS), np.array(self.RHS)
        c = LinearConstraint(self.AB, rows, rhs)
        assert rows.flags.writeable and rhs.flags.writeable
        rows[0, 0] = rhs[0] = 7.0
        assert c.rows[0, 0] == 1.0 and c.rhs[0] == 0.25

    def test_rows_and_rhs_are_read_only(self):
        c = LinearConstraint(self.AB, self.ROWS, self.RHS)
        for a in (c.rows, c.rhs):
            with pytest.raises(ValueError):
                a[0] = 1.0

    @pytest.mark.parametrize("rows, rhs, message", [
        (((1.0, 0.0, 0.0, 0.0), (1.0, 0.0)), (0.5, 0.5),
         "linear row needs 4 coefficients"),
        ((1.0, 0.0, 0.0, 0.0), (0.5, 0.5, 0.5, 0.5),
         "linear row needs 4 coefficients"),
        (((1.0, 0.0, 0.0, 0.0),), ((0.5,),),
         "row count does not match right-hand side count"),
        (((1.0, 0.0, 0.0),), (0.5,), "linear row needs 4 coefficients"),
        (((1.0, 0.0, 0.0, 0.0),), (0.5, 0.5),
         "row count does not match right-hand side count"),
    ], ids=["ragged", "one-dimensional", "rhs-two-dimensional", "width",
            "count"])
    def test_malformed_shapes_rejected(self, rows, rhs, message):
        with pytest.raises(ArityError, match=message):
            LinearConstraint(self.AB, rows, rhs)

    def test_equality_and_hashing_go_by_identity(self):
        a = LinearConstraint(self.AB, self.ROWS, self.RHS)
        b = LinearConstraint(self.AB, self.ROWS, self.RHS)
        assert a == a and b == b and a != b
        assert len({a, b, a}) == 2
        hash(EvidenceSet((a, MarginalConstraint(Scope(("A",)), (0.5, 0.5)))))


class TestValueConstraints:
    """Marginal and conditional sets hold their fields as tuples, so sets
    built from lists, arrays or tuples compare and hash by value."""

    AC = JointTable(Scope(("A", "C")), [0.06, 0.24, 0.63, 0.07])

    @pytest.mark.parametrize("vars, targets, label", [
        (("A",), (0.2, 0.8), "P(A)=0.8"),
        (("A", "C"), (0.1, 0.2, 0.3, 0.4), "P(A,C)=[0.1,0.2,0.3,0.4]"),
    ])
    def test_marginal_sets_from_any_array_like_are_one_value(
            self, vars, targets, label):
        made = [MarginalConstraint(Scope(vars), t) for t in
                (list(targets), np.array(targets), targets)]
        for c in made:
            assert c.targets == targets
            assert all(type(t) is float for t in c.targets)
            assert c == made[0] and c.label() == label
            assert hash(EvidenceSet((c,))) == hash(EvidenceSet((made[0],)))
            assert (jeffrey_update(self.AC, c).probs.tobytes()
                    == jeffrey_update(self.AC, made[0]).probs.tobytes())
        assert len(set(made)) == 1

    def test_conditional_sets_from_nested_lists_are_one_value(self):
        made = [ConditionalConstraint("C", cond, 0.5) for cond in
                ([["A", True]], [("A", True)], (("A", True),))]
        for c in made:
            assert c.condition == (("A", True),)
            assert c == made[0] and c.label() == "P(C|A)=0.5"
            assert hash(EvidenceSet((c,))) == hash(EvidenceSet((made[0],)))
            assert (conditional_update(self.AC, c).probs.tobytes()
                    == conditional_update(self.AC, made[0]).probs.tobytes())

    def test_wrong_number_of_targets(self):
        with pytest.raises(ArityError) as exc:
            MarginalConstraint(Scope(("A", "C")), (0.5, 0.5))
        assert str(exc.value) == "marginal constraint over ('A', 'C') needs 4 targets"


class TestIdentityEquality:
    """Records that hold arrays compare and hash by identity: a table, a
    prepared network and a solver state, each made twice from the same
    inputs."""

    MAKE = {
        "table": lambda: JointTable(Scope(("A", "B")), [0.25] * 4),
        "network": lambda: preprocess(parse_program(THREE_VARS)),
        "state": lambda: lec_solve(
            JointTable(Scope(("A",)), [0.5, 0.5]),
            LinearConstraint(Scope(("A",)), ((0.0, 1.0),), (0.4,)))[1],
    }

    @pytest.mark.parametrize("kind", MAKE)
    def test_equal_only_if_identical(self, kind):
        a, b = self.MAKE[kind](), self.MAKE[kind]()
        assert a == a and b == b and a != b and not a == b

    @pytest.mark.parametrize("kind", MAKE)
    def test_hashable(self, kind):
        a, b = self.MAKE[kind](), self.MAKE[kind]()
        assert hash(a) == hash(a) and len({a, b, a}) == 2
