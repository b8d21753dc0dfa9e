import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rcndl.engine
from rcndl import (
    ConditionalConstraint,
    ConvergenceError,
    InfeasibleEvidenceError,
    JointTable,
    LinearConstraint,
    MarginalConstraint,
    Scope,
    ScopeError,
    conditional_update,
    constraint_gradient,
    cross_entropy,
    gradient_scalar,
    jeffrey_update,
    lec_solve,
    marginalize,
)
from rcndl.engine import dual_value_and_gradient
from rcndl.errors import ProbabilityError
from rcndl.model import lift, scale_events, substate_map
from rcndl.scheduler import stacked, update_table
from tests import reference_engine as reference
from tests.conftest import outcome

AC_PRIOR = JointTable(Scope(("A", "C")), [0.06, 0.24, 0.63, 0.07])
AB_PRIOR = JointTable(Scope(("A", "B")), [0.24, 0.06, 0.42, 0.28])


def random_table(rng, n=None):
    n = n or int(rng.integers(1, 5))
    scope = Scope(tuple(f"v{i}" for i in range(n)))
    return JointTable(scope, rng.dirichlet(np.ones(2 ** n)))


class TestCrossEntropy:
    def test_identity_is_zero(self):
        assert cross_entropy(AC_PRIOR, AC_PRIOR) == 0.0

    def test_asymmetric(self):
        post = jeffrey_update(
            AC_PRIOR, MarginalConstraint(Scope(("C",)), (0.05, 0.95))
        )
        assert cross_entropy(post, AC_PRIOR) != pytest.approx(
            cross_entropy(AC_PRIOR, post)
        )

    def test_zero_times_log_zero(self):
        p = JointTable(Scope(("A",)), [0.0, 1.0])
        q = JointTable(Scope(("A",)), [0.5, 0.5])
        assert cross_entropy(p, q) == pytest.approx(np.log(2.0))

    def test_absolute_continuity_violation(self):
        p = JointTable(Scope(("A",)), [0.5, 0.5])
        q = JointTable(Scope(("A",)), [0.0, 1.0])
        with pytest.raises(InfeasibleEvidenceError):
            cross_entropy(p, q)

    def test_scope_mismatch(self):
        with pytest.raises(ScopeError):
            cross_entropy(AC_PRIOR, AB_PRIOR)

    def test_positive_and_minimal_among_satisfiers(self):
        # MCE optimality spot check: the Jeffrey posterior has lower cross
        # entropy than perturbed distributions satisfying the constraint.
        rng = np.random.default_rng(5)
        c = MarginalConstraint(Scope(("C",)), (0.05, 0.95))
        post = jeffrey_update(AC_PRIOR, c)
        base = cross_entropy(post, AC_PRIOR)
        assert base > 0.0
        for _ in range(200):
            # redistribute within each C-event, keeping the event masses
            false_part = rng.dirichlet(np.ones(2)) * 0.05
            true_part = rng.dirichlet(np.ones(2)) * 0.95
            q = JointTable(
                AC_PRIOR.scope,
                [false_part[0], true_part[0], false_part[1], true_part[1]],
            )
            assert cross_entropy(q, AC_PRIOR) >= base - 1e-12


class TestJeffreyUpdate:
    def test_soft_evidence_on_c(self):
        post = jeffrey_update(
            AC_PRIOR, MarginalConstraint(Scope(("C",)), (0.05, 0.95))
        )
        np.testing.assert_allclose(
            post.probs, [0.004348, 0.735484, 0.045652, 0.214516], atol=5e-7
        )

    def test_target_equal_to_prior_is_identity(self):
        post = jeffrey_update(
            AC_PRIOR, MarginalConstraint(Scope(("C",)), (0.69, 0.31))
        )
        np.testing.assert_allclose(post.probs, AC_PRIOR.probs, atol=1e-15)

    def test_certain_evidence_conditions(self):
        post = jeffrey_update(
            AC_PRIOR, MarginalConstraint(Scope(("C",)), (0.0, 1.0))
        )
        np.testing.assert_allclose(
            post.probs, [0.0, 0.24 / 0.31, 0.0, 0.07 / 0.31], atol=1e-12
        )

    def test_infeasible_mass_on_zero_event(self):
        t = JointTable(Scope(("A", "B")), [0.5, 0.0, 0.5, 0.0])
        with pytest.raises(InfeasibleEvidenceError):
            jeffrey_update(t, MarginalConstraint(Scope(("B",)), (0.5, 0.5)))

    def test_partition_not_in_scope(self):
        with pytest.raises(ScopeError):
            jeffrey_update(
                AC_PRIOR, MarginalConstraint(Scope(("Z",)), (0.5, 0.5))
            )

    def test_constraint_satisfaction_and_conditional_preservation(self):
        # randomized: the constraint holds exactly and conditionals within
        # each event are untouched
        rng = np.random.default_rng(17)
        for _ in range(1000):
            t = random_table(rng)
            n = len(t.scope)
            k = int(rng.integers(1, n + 1))
            part_vars = tuple(
                t.scope.vars[i]
                for i in rng.choice(n, size=k, replace=False)
            )
            part = Scope(part_vars)
            targets = rng.dirichlet(np.ones(part.n_states))
            prior_events = marginalize(t, part).probs
            targets[prior_events == 0.0] = 0.0
            s = targets.sum()
            if s <= 0.0:
                continue
            targets = targets / s
            c = MarginalConstraint(part, tuple(targets))
            post = jeffrey_update(t, c)
            np.testing.assert_allclose(
                marginalize(post, part).probs, targets, atol=1e-12
            )
            # conditionals preserved event by event
            post_events = marginalize(post, part).probs
            from rcndl.model import substate_map
            smap = substate_map(t.scope, part)
            for ev in range(part.n_states):
                if prior_events[ev] <= 0.0 or post_events[ev] <= 0.0:
                    continue
                sel = smap == ev
                np.testing.assert_allclose(
                    post.probs[sel] / post_events[ev],
                    t.probs[sel] / prior_events[ev],
                    atol=1e-9,
                )

    def test_idempotent(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            t = random_table(rng)
            var = t.scope.vars[int(rng.integers(len(t.scope)))]
            v = float(rng.uniform(0.05, 0.95))
            c = MarginalConstraint(Scope((var,)), (1.0 - v, v))
            once = jeffrey_update(t, c)
            twice = jeffrey_update(once, c)
            np.testing.assert_allclose(twice.probs, once.probs, atol=1e-14)


class TestConditionalUpdate:
    def test_satisfies_constraint_exactly(self):
        c = ConditionalConstraint("B", (("A", True),), 0.9)
        post = conditional_update(AB_PRIOR, c)
        pa = post.probs[2] + post.probs[3]
        assert post.probs[3] / pa == pytest.approx(0.9, abs=1e-12)
        assert post.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_dual_solver(self):
        # the same constraint as one linear row: P(A,B) - 0.9 P(A) = 0
        c = ConditionalConstraint("B", (("A", True),), 0.9)
        post = conditional_update(AB_PRIOR, c)
        row = (0.0, 0.0, -0.9, 0.1)
        sol, _ = lec_solve(
            AB_PRIOR, LinearConstraint(AB_PRIOR.scope, (row,), (0.0,))
        )
        np.testing.assert_allclose(post.probs, sol.probs, atol=1e-8)

    def test_current_conditional_is_fixed_point(self):
        cur = 0.28 / 0.7
        c = ConditionalConstraint("B", (("A", True),), cur)
        post = conditional_update(AB_PRIOR, c)
        np.testing.assert_allclose(post.probs, AB_PRIOR.probs, atol=1e-12)

    def test_whole_space_condition_reduces_to_marginal_update(self):
        c = ConditionalConstraint("B", (), 0.9)
        post = conditional_update(AB_PRIOR, c)
        ref = jeffrey_update(
            AB_PRIOR, MarginalConstraint(Scope(("B",)), (0.1, 0.9))
        )
        np.testing.assert_allclose(post.probs, ref.probs, atol=1e-12)

    def test_bayesian_conditional(self):
        c = ConditionalConstraint("B", (("A", True),), 1.0)
        post = conditional_update(AB_PRIOR, c)
        assert post.probs[2] == 0.0
        pa = post.probs[2] + post.probs[3]
        assert post.probs[3] == pytest.approx(pa)

    def test_zero_probability_condition_rejected(self):
        t = JointTable(Scope(("A", "B")), [0.5, 0.5, 0.0, 0.0])
        with pytest.raises(InfeasibleEvidenceError):
            conditional_update(t, ConditionalConstraint("B", (("A", True),), 0.5))

    def test_target_inside_condition_rejected(self):
        with pytest.raises(ScopeError):
            ConditionalConstraint("A", (("A", True),), 0.5)

    def test_randomized_against_dual_solver(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            t = random_table(rng, n=3)
            v = float(rng.uniform(0.1, 0.9))
            c = ConditionalConstraint("v1", (("v0", bool(rng.integers(2))),), v)
            post = conditional_update(t, c)
            # encode as linear row: P(v1 & cond) - v P(cond) = 0
            cond_val = dict(c.condition)["v0"]
            row = np.zeros(8)
            for j in range(8):
                v0 = bool((j >> 2) & 1)
                v1 = bool((j >> 1) & 1)
                if v0 == cond_val:
                    row[j] = (1.0 if v1 else 0.0) - v
            sol, _ = lec_solve(
                t, LinearConstraint(t.scope, (tuple(row),), (0.0,))
            )
            np.testing.assert_allclose(post.probs, sol.probs, atol=1e-7)

    def test_sets_off_the_tables_variable_order(self):
        # 1-3 condition variables in any order, 1-2 table variables outside
        # the set, and the table's variables shuffled
        rng = np.random.default_rng(32)
        for _ in range(200):
            k, extra = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            names = [f"v{i}" for i in range(k + 1 + extra)]
            target, *held = rng.permutation(names)[:k + 1].tolist()
            c = ConditionalConstraint(
                target, [[v, bool(rng.integers(2))] for v in held],
                float(rng.uniform(0.05, 0.95)))
            table = JointTable(Scope(rng.permutation(names).tolist()),
                               rng.dirichlet(np.ones(2 ** len(names))))
            post = update_table(table, c, 1e-9)
            solved, _ = lec_solve(table, stacked([c], table), 1e-13)
            np.testing.assert_allclose(post.probs, solved.probs, rtol=0,
                                       atol=1e-12)
            assert gradient_scalar(post, c) < 1e-12
            # the conditional read state by state, not off the set's scope
            value = {v: substate_map(table.scope, Scope((v,))) for v in names}
            event = np.logical_and.reduce(
                [value[v] == x for v, x in c.condition])
            hit = post.probs[event & (value[target] == 1)].sum()
            assert abs(hit / post.probs[event].sum() - c.prob) < 1e-12
            # the tilt is a factor on c.scope: the conditional given it stays
            smap = substate_map(table.scope, c.scope)
            np.testing.assert_allclose(
                post.probs / marginalize(post, c.scope).probs[smap],
                table.probs / marginalize(table, c.scope).probs[smap],
                rtol=0, atol=1e-12)
            # scope is derived, and left out of comparison and hashing
            twin = ConditionalConstraint(target, c.condition, c.prob)
            assert twin == c and hash(twin) == hash(c)
            assert twin.scope.vars == (target, *held)


class TestLecSolve:
    def test_marginal_row_matches_jeffrey(self):
        jef = jeffrey_update(
            AC_PRIOR, MarginalConstraint(Scope(("C",)), (0.05, 0.95))
        )
        sol, state = lec_solve(
            AC_PRIOR,
            LinearConstraint(AC_PRIOR.scope, ((0.0, 1.0, 0.0, 1.0),), (0.95,)),
        )
        assert state.converged
        np.testing.assert_allclose(sol.probs, jef.probs, atol=1e-6)

    def test_satisfied_constraint_is_identity(self):
        sol, state = lec_solve(
            AC_PRIOR,
            LinearConstraint(AC_PRIOR.scope, ((0.0, 1.0, 0.0, 1.0),), (0.31,)),
        )
        np.testing.assert_allclose(state.lambdas, 0.0, atol=1e-9)
        np.testing.assert_allclose(sol.probs, AC_PRIOR.probs, atol=1e-9)

    def test_two_rows_on_three_variable_joint(self, three_vars_net):
        from rcndl import expand_full_joint
        joint = expand_full_joint(three_vars_net)
        rows = (
            tuple(float((j >> 1) & 1) for j in range(8)),   # P(B)
            tuple(float(j & 1) for j in range(8)),          # P(C)
        )
        sol, state = lec_solve(
            joint, LinearConstraint(joint.scope, rows, (0.33, 0.95))
        )
        assert state.converged
        pa = marginalize(sol, Scope(("A",))).probs[1]
        # joint minimum-cross-entropy solution, cross-checked against the
        # cycled-projection limit
        assert pa == pytest.approx(0.27433184, abs=1e-7)

    def test_rows_over_subscope_are_lifted(self):
        sub = Scope(("C",))
        sol, _ = lec_solve(
            AC_PRIOR, LinearConstraint(sub, ((0.0, 1.0),), (0.95,))
        )
        jef = jeffrey_update(
            AC_PRIOR, MarginalConstraint(sub, (0.05, 0.95))
        )
        np.testing.assert_allclose(sol.probs, jef.probs, atol=1e-6)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            q = rng.dirichlet(np.ones(2 ** n))
            k = int(rng.integers(1, 4))
            rows = rng.normal(size=(k, 2 ** n))
            rhs = rows @ rng.dirichlet(np.ones(2 ** n))
            lam = rng.normal(scale=0.5, size=k)
            _, grad, _ = dual_value_and_gradient(q, rows, rhs, lam)
            eps = 1e-6
            for i in range(k):
                up, dn = lam.copy(), lam.copy()
                up[i] += eps
                dn[i] -= eps
                fd = (
                    dual_value_and_gradient(q, rows, rhs, up)[0]
                    - dual_value_and_gradient(q, rows, rhs, dn)[0]
                ) / (2 * eps)
                denom = max(abs(grad[i]), 1e-3)
                assert abs(fd - grad[i]) / denom <= 1e-5

    def test_randomized_marginal_equivalence(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            t = random_table(rng)
            n = len(t.scope)
            var = int(rng.integers(n))
            target = float(rng.uniform(0.05, 0.95))
            row = tuple(
                float((j >> (n - 1 - var)) & 1) for j in range(2 ** n)
            )
            sol, _ = lec_solve(
                t, LinearConstraint(t.scope, (row,), (target,))
            )
            jef = jeffrey_update(
                t,
                MarginalConstraint(
                    Scope((t.scope.vars[var],)), (1.0 - target, target)
                ),
            )
            np.testing.assert_allclose(sol.probs, jef.probs, atol=1e-6)

    def test_infeasible_diverges_with_diagnostic(self, monkeypatch):
        # with one state in the support, the row's range there is [0, 0]:
        # the target beyond it is refused before the first evaluation
        calls = count_evaluations(monkeypatch)
        t = JointTable(Scope(("x",)), [1.0, 0.0])
        with pytest.raises(InfeasibleEvidenceError):
            lec_solve(t, LinearConstraint(t.scope, ((0.0, 1.0),), (0.5,)))
        assert len(calls) == 0

    def test_target_outside_offset_row_diverges(self):
        # the row's range is [1e7, 1e7 + 1] and the target beyond it
        t = JointTable(Scope(("x",)), [0.5, 0.5])
        c = LinearConstraint(t.scope, ((1e7, 1e7 + 1),), (1e7 + 2,))
        with pytest.raises(InfeasibleEvidenceError,
                           match=r"^right-hand side 10000002 of row 0 lies "
                                 r"outside the row's range \[10000000, "
                                 r"10000001\]; the linear system is "
                                 r"infeasible on the prior's support$"):
            lec_solve(t, c)

    def test_target_inside_offset_row_is_met(self):
        # the offset moves no log-probability ratio, so the multiplier of
        # a row of width 1 may pass 1e6 / max|a| on the way
        t = JointTable(Scope(("x",)), [0.5, 0.5])
        c = LinearConstraint(t.scope, ((1e7, 1e7 + 1),), (1e7 + 0.9,))
        post, state = lec_solve(t, c)
        assert state.converged
        np.testing.assert_allclose(post.probs, [0.1, 0.9], atol=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_target_beyond_the_rows_largest_value_is_infeasible(self):
        # the row's largest value is 1: infeasible, not 10,000 iterations
        # of a tilt running to state 0
        t = JointTable(Scope(("x", "y")), [0.25] * 4)
        c = LinearConstraint(t.scope, ((1, -1, -1, -2),), (1.875,))
        with pytest.raises(InfeasibleEvidenceError,
                           match=r"^right-hand side 1\.875 of row 0 lies "
                                 r"outside the row's range \[-2, 1\]"):
            lec_solve(t, c)

    @pytest.mark.parametrize("target", [3.0, -1.0])
    def test_target_outside_a_tied_extreme_is_refused_before_any_step(
            self, target, monkeypatch):
        # the largest value 2 is shared by states of mass 0.1 and 0.3, so
        # the covariance does not underflow as the tilt runs off: beyond
        # it, the whole iteration budget used to run out
        calls = count_evaluations(monkeypatch)
        t = JointTable(Scope(("x", "y")), [0.1, 0.2, 0.3, 0.4])
        c = LinearConstraint(t.scope, ((2, 0, 2, 1),), (target,))
        with pytest.raises(InfeasibleEvidenceError,
                           match=r"lies outside the row's range \[0, 2\]"):
            lec_solve(t, c)
        assert len(calls) == 0

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_targets_beyond_the_supports_range_are_refused(self, data):
        # a prior with states without mass, one of which holds a value
        # beyond the support's extreme, and a row whose extreme on the
        # support is tied across two states: a target past that extreme is
        # infeasible though the whole table's range holds it
        n = data.draw(st.integers(2, 3))
        size = 2 ** n
        weights = np.array([data.draw(st.integers(1, 1000))
                            for _ in range(size)], dtype=float)
        massless = sorted(data.draw(st.sets(st.integers(0, size - 1),
                                            min_size=1, max_size=size - 2)))
        weights[massless] = 0.0
        support = np.flatnonzero(weights)
        row = np.array([data.draw(st.integers(-3, 3)) for _ in range(size)],
                       dtype=float)
        sign = data.draw(st.sampled_from((1.0, -1.0)))
        extreme = sign * (sign * row[support]).max()
        tied = data.draw(st.lists(st.sampled_from(support.tolist()),
                                  min_size=2, max_size=2, unique=True))
        row[tied] = extreme
        row[massless[0]] = extreme + sign * 5
        target = extreme + sign * data.draw(st.integers(1, 4999)) / 1000
        t = JointTable(Scope(tuple(f"v{i}" for i in range(n))),
                       weights / weights.sum())
        c = LinearConstraint(t.scope, (tuple(row),), (target,))
        with pytest.MonkeyPatch.context() as mp:
            calls = count_evaluations(mp)
            with pytest.raises(InfeasibleEvidenceError,
                               match="lies outside the row's range"):
                lec_solve(t, c)
        assert len(calls) == 0

    def test_rows_within_their_ranges_that_no_tilt_meets_together(self):
        # each target lies within its row's range, but the two states
        # cannot both hold 0.8: the range check passes the set and the
        # covariance shows that no tilt reduces the residual
        t = JointTable(Scope(("x", "y")), [0.25] * 4)
        c = LinearConstraint(t.scope, ((1, 0, 0, 0), (0, 1, 0, 0)),
                             (0.8, 0.8))
        with pytest.raises(InfeasibleEvidenceError,
                           match=r"^no tilt of the prior's support reduces "
                                 r"the row residual \(\|b - A p\| = "
                                 r"3\.000e-01\); the linear system is "
                                 r"infeasible on the prior's support$"):
            lec_solve(t, c)

    def test_opposite_multipliers_diverge(self):
        # two rows 1e-5 apart ask for P(y) = 0.5 and P(x) = 0.6 on the
        # disjoint states 1 and 2; their multipliers run off in opposite
        # directions while the tilt they make together stays bounded
        t = JointTable(Scope(("x", "y")), [0.25] * 4)
        c = LinearConstraint(t.scope, ((0, 1, 0, 0), (0, 1, 1e-5, 0)),
                             (0.5, 0.5 + 1e-5 * 0.6))
        with pytest.raises(InfeasibleEvidenceError,
                           match=r"^dual tilt diverged \(\|lambda_k\| "
                                 r"\(max a_k - min a_k\) > 1000000.0\); "
                                 r"the linear system is infeasible on the "
                                 r"prior's support$"):
            lec_solve(t, c)

    def test_no_damped_step_below_the_rows_rounding(self):
        # two copies of one constant row, met exactly by every distribution:
        # at 6e10, one unit in the last place of A p (7.6e-6) exceeds the
        # tolerance, the covariance is rounding, and no step along its
        # Newton direction lowers the dual
        t = JointTable(Scope(("x", "y")), [
            0.259959722059665, 0.3108365641128366,
            0.35747928450113087, 0.07172442932636737])
        row = (61796153964.142654,) * 4
        c = LinearConstraint(t.scope, (row, row), (row[0], row[0]))
        with pytest.raises(ConvergenceError,
                           match=r"^no damped Newton step decreased the dual "
                                 r"after 0 iterations \(\|b - A p\| = "
                                 r"7\.629e-06, tolerance 1e-06\)$") as err:
            lec_solve(t, c, 1e-6)
        post, state = err.value.best
        assert not state.converged and not state.lambdas.any()
        np.testing.assert_allclose(post.probs, t.probs, rtol=1e-15)

    def test_stalled_restart_cycle_takes_a_newton_step(self, monkeypatch):
        # Near 1e-10 every conjugate-gradient step on this feasible set was
        # below the dual value's resolution: the per-evaluation reference
        # spins in place until its iteration budget runs out.
        t = JointTable(Scope(("x", "y")),
                       [0.27999999999999997, 0.12, 0.11999999999999997, 0.48])
        c = LinearConstraint(t.scope, (
            (-0.7009954711770339, 0.08656960002593639,
             0.18827207180554972, -0.8170444123662604),
            (0.7216350382828047, 0.7166741349014909,
             0.10124587442660848, 0.4702062865423222),
        ), (-0.782952200182379, 0.4649540138097193))
        monkeypatch.setattr(rcndl.engine, "MAX_ITERATIONS", 200)
        with pytest.raises(ConvergenceError):
            reference.lec_solve(t, c, tolerance=1e-11, max_iterations=200)
        sol, state = lec_solve(t, c, 1e-11)
        assert state.converged
        assert np.abs(constraint_gradient(sol, c)).max() < 1e-11

    def test_iteration_budget_respected(self, monkeypatch):
        monkeypatch.setattr(rcndl.engine, "MAX_ITERATIONS", 1)
        t = JointTable(Scope(("x", "y")), [0.25, 0.25, 0.25, 0.25])
        from rcndl import ConvergenceError
        with pytest.raises(ConvergenceError) as err:
            lec_solve(
                t,
                LinearConstraint(t.scope, ((0.0, 1.0, 0.0, 1.0),), (0.9,)),
                1e-15,
            )
        assert err.value.best is not None


@st.composite
def linear_problems(draw, case):
    """A table, a linear set whose right-hand sides a tilt of the table
    meets, and a tolerance.  ``case`` is "partial" (some states without
    mass), "full" (every state has mass) or "lifted" (rows over a strict
    sub-scope)."""
    n = draw(st.integers(2 if case == "lifted" else 1, 4))
    scope = Scope(tuple(f"v{i}" for i in range(n)))
    low = 0 if case != "full" else 1
    weights = np.array([draw(st.integers(low, 1000))
                        for _ in range(scope.n_states)], dtype=float)
    if case == "partial":
        weights[draw(st.integers(0, scope.n_states - 1))] = 0.0
    if not weights.any():
        weights[-1] = 1.0
    table = JointTable(scope, weights / weights.sum())
    sub = scope
    if case == "lifted":
        sub = Scope(tuple(draw(st.lists(st.sampled_from(scope.vars),
                                        min_size=1, max_size=n - 1,
                                        unique=True))))
    k = draw(st.integers(1, 3))
    rows = np.array([[draw(st.integers(-1000, 1000)) / 1000
                      for _ in range(sub.n_states)] for _ in range(k)])
    tilt = np.array([draw(st.integers(1, 1000))
                     for _ in range(scope.n_states)], dtype=float)
    q = table.probs * tilt
    rhs = lift(rows, sub, scope) @ (q / q.sum())
    tolerance = draw(st.sampled_from((1e-6, 1e-9, 1e-11)))
    return table, LinearConstraint(sub, rows, rhs), tolerance


def sensitivity_norm(table, c, p):
    """``||J||_inf`` for ``J = diag(p) (A - Ap)^T H^+``, the first-order
    change of the I-projection ``p`` per unit change of the right-hand
    sides, with ``H`` the rows' covariance under ``p``.  The inverse is
    taken on rows of unit scale, where ``pinv`` keeps every direction that
    small coefficients give."""
    rows = lift(c.rows, c.scope, table.scope)
    unit = np.abs(rows).max(axis=1, keepdims=True)
    unit[unit == 0.0] = 1.0
    centred = (rows - (rows @ p)[:, None]) / unit
    sensitivity = (p[:, None] * centred.T) @ np.linalg.pinv(
        (centred * p) @ centred.T) / unit.T
    return float(np.abs(sensitivity).sum(axis=1).max())


def count_evaluations(monkeypatch):
    """The arguments of every call to ``rcndl.engine.dual_value_and_gradient``
    paired with its result, recorded by a wrapper installed on the module
    attribute."""
    calls = []
    original = rcndl.engine.dual_value_and_gradient

    def wrapper(*args):
        calls.append((args, original(*args)))
        return calls[-1][1]

    monkeypatch.setattr(rcndl.engine, "dual_value_and_gradient", wrapper)
    return calls


class TestRestrictionOncePerSolve:
    """``lec_solve`` drops the prior's states without mass once per solve
    and minimizes the dual on what is left with damped Newton steps; the
    conjugate-gradient kernel in ``tests/reference_engine.py`` is the
    reference it must agree with."""

    @pytest.mark.parametrize("case", ["partial", "full", "lifted"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_agrees_with_conjugate_gradient_reference(self, case, data):
        # Each kernel's posterior is the exact I-projection for right-hand
        # sides off by its residual r, so to first order the two differ by
        # at most ||J||_inf (r_new + r_ref); the factor 2 covers the
        # second-order term and 1e-14 the rounding of p itself.
        table, c, tolerance = data.draw(linear_problems(case))
        post, state = lec_solve(table, c, tolerance)
        assert state.converged
        assert np.abs(constraint_gradient(post, c)).max() <= tolerance
        want = outcome(reference.lec_solve, table, c, tolerance)
        if isinstance(want[0], type):
            assert want[0] is ConvergenceError, want
            return
        ref_post, ref_state = want
        residuals = (np.abs(state.gradient).max()
                     + np.abs(ref_state.gradient).max())
        bound = 2 * sensitivity_norm(table, c, post.probs) * residuals + 1e-14
        assert np.abs(post.probs - ref_post.probs).max() <= bound

    def test_every_evaluation_goes_through_the_module_attribute(
            self, monkeypatch):
        # the benchmark tracer counts dual evaluations by patching this name
        table = JointTable(Scope(("a", "b")), [0.0, 0.3, 0.5, 0.2])
        c = LinearConstraint(Scope(("b",)), ((0.5, -1.0),), (-0.4,))
        calls = count_evaluations(monkeypatch)
        post, state = lec_solve(table, c)
        assert state.iterations > 1
        # the first evaluation, at least one per step, and the solution is
        # the last one seen
        assert len(calls) > state.iterations
        assert not calls[0][0][3].any()
        (*_, lambdas), (value, gradient, p) = calls[-1]
        assert lambdas.tobytes() == state.lambdas.tobytes()
        assert (value, gradient.tobytes()) == (state.value,
                                               state.gradient.tobytes())
        # the set is solved on the table's marginal over (b,), so the last
        # p lies on that marginal's support, scattered and scaled back
        on = marginalize(table, c.scope).probs > 0.0
        tilt = np.zeros(c.scope.n_states)
        tilt[on] = p / p.sum()
        assert post.probs.tobytes() == \
            scale_events(table, c.scope, tilt).probs.tobytes()
        support = table.probs > 0.0
        assert not post.probs[~support].any()
        # no evaluation sees rows wider than the set's own states
        assert all(rows.shape[1] <= c.scope.n_states
                   for (_, rows, _, _), _ in calls)

    def test_a_sub_scope_solve_that_stops_carries_the_whole_table(
            self, monkeypatch):
        # the best iterate is scaled back onto the table's scope, and its
        # marginal on the set's scope is the solver's last iterate
        monkeypatch.setattr(rcndl.engine, "MAX_ITERATIONS", 1)
        table = JointTable(Scope(("a", "b", "d")),
                           [0.0, 0.1, 0.2, 0.05, 0.25, 0.1, 0.2, 0.1])
        c = LinearConstraint(Scope(("d", "b")), ((0.5, -1.0, 2.0, 0.0),),
                             (-0.4,))
        calls = count_evaluations(monkeypatch)
        with pytest.raises(ConvergenceError) as err:
            lec_solve(table, c, 1e-15)
        best, state = err.value.best
        assert best.scope == table.scope and state.iterations == 1
        *_, (_, _, p) = calls[-1]
        assert np.abs(marginalize(best, c.scope).probs
                      - p / p.sum()).max() <= 1e-15
        assert not best.probs[table.probs == 0.0].any()

    @pytest.mark.parametrize("case", ["partial", "full"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_the_dual_sums_over_the_support_only(self, case, data):
        table, c, tolerance = data.draw(linear_problems(case))
        support = table.probs > 0.0
        with pytest.MonkeyPatch.context() as mp:
            calls = count_evaluations(mp)
            post, _ = lec_solve(table, c, tolerance)
        for (prior, rows, _, _), _ in calls:
            assert prior.shape == (support.sum(),)
            assert rows.shape == (len(c.rhs), support.sum())
            if support.all():
                # passed as they are, with no copy
                assert prior is table.probs and rows is c.rows
        assert not post.probs[~support].any()


class TestInputChecks:
    """Each check names what it refused, in full."""

    def test_conditional_variable_outside_the_table(self):
        c = ConditionalConstraint("B", (("A", True),), 0.5)
        with pytest.raises(ScopeError) as exc:
            conditional_update(AC_PRIOR, c)
        assert str(exc.value) == ("constraint scope ('B', 'A') not within "
                                  "table scope ('A', 'C')")

    def test_linear_scope_outside_the_table(self):
        c = LinearConstraint(Scope(("B",)), ((1.0, 0.0),), (0.5,))
        with pytest.raises(ScopeError) as exc:
            lec_solve(AC_PRIOR, c)
        assert str(exc.value) == ("constraint scope ('B',) not within table "
                                  "scope ('A', 'C')")

    @pytest.mark.parametrize("tolerance", [float("nan"), -1.0, float("inf")])
    def test_tolerance_outside_its_domain(self, tolerance):
        c = LinearConstraint(AC_PRIOR.scope, ((0.0, 1.0, 0.0, 1.0),), (0.5,))
        with pytest.raises(ProbabilityError) as exc:
            lec_solve(AC_PRIOR, c, tolerance)
        assert str(exc.value) == (f"tolerance {tolerance!r} must be finite "
                                  f"and non-negative")

    def test_certain_target_side_without_mass(self):
        table = JointTable(Scope(("A", "B")), [0.5, 0.0, 0.5, 0.0])
        c = ConditionalConstraint("B", (("A", True),), 1.0)
        with pytest.raises(InfeasibleEvidenceError) as exc:
            conditional_update(table, c)
        assert str(exc.value) == (
            "target side of P(B|A)=1 has zero prior probability")

    @pytest.mark.parametrize("apply", [
        constraint_gradient, lambda table, c: update_table(table, c, 1e-9)],
        ids=["constraint_gradient", "update_table"])
    def test_object_of_no_constraint_kind(self, apply):
        with pytest.raises(TypeError) as exc:
            apply(AC_PRIOR, object())
        assert str(exc.value) == "unknown constraint type object"


class TestConstraintGradient:
    def test_marginal_gradient_values(self, three_vars_net):
        from rcndl.scheduler import home_clause
        cC = MarginalConstraint(Scope(("C",)), (0.05, 0.95))
        cB = MarginalConstraint(Scope(("B",)), (0.67, 0.33))
        net = three_vars_net
        gC = constraint_gradient(net.tables[home_clause(net, cC)], cC)
        gB = constraint_gradient(net.tables[home_clause(net, cB)], cB)
        assert gC[1] == pytest.approx(0.64, abs=1e-12)
        assert gB[1] == pytest.approx(-0.01, abs=1e-12)

    def test_satisfied_constraint_gradient_zero(self):
        c = MarginalConstraint(Scope(("C",)), (0.69, 0.31))
        g = constraint_gradient(AC_PRIOR, c)
        np.testing.assert_allclose(g, 0.0, atol=1e-15)

    def test_conditional_gradient(self):
        c = ConditionalConstraint("B", (("A", True),), 0.9)
        g = constraint_gradient(AB_PRIOR, c)
        assert g[0] == pytest.approx(0.9 - 0.4, abs=1e-12)

    def test_linear_gradient_is_row_residual(self):
        lc = LinearConstraint(
            AC_PRIOR.scope, ((0.0, 1.0, 0.0, 1.0),), (0.95,)
        )
        g = constraint_gradient(AC_PRIOR, lc)
        assert g[0] == pytest.approx(0.64, abs=1e-12)

    def test_scalar_is_infinity_norm(self):
        c = MarginalConstraint(Scope(("A", "C")), (0.1, 0.3, 0.4, 0.2))
        g = constraint_gradient(AC_PRIOR, c)
        assert gradient_scalar(AC_PRIOR, c) == pytest.approx(np.abs(g).max())
