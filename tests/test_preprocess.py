import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rcndl
from rcndl import (
    ArityError,
    MultiplyConnectedError,
    NetworkStructureError,
    PreparedNetwork,
    QueryClause,
    RuleClause,
    Scope,
    SizeLimitError,
    SourceProgram,
    marginalize,
    parse_program,
    preprocess,
    render_intermediate,
)
from rcndl.model import SourcePos
from rcndl.preprocess import GROUP, OBS, ROOT, RULE, _Builder
from tests import reference_preprocess as reference
from tests.conftest import CANCER, THREE_VARS, brute_force_cancer, outcome

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"
spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
fingerprint = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fingerprint)


def tables_by_label(net):
    return {n.label: net.tables[n.idx] for n in net.nodes}


class TestThreeVarsPreprocess:
    def test_rule_tables(self, three_vars_net):
        t = tables_by_label(three_vars_net)
        np.testing.assert_allclose(t["A -> B"].probs, [0.24, 0.06, 0.42, 0.28])
        np.testing.assert_allclose(t["A -> C"].probs, [0.06, 0.24, 0.63, 0.07])

    def test_observation_marginals(self, three_vars_net):
        t = tables_by_label(three_vars_net)
        np.testing.assert_allclose(t["B"].probs, [0.66, 0.34])
        np.testing.assert_allclose(t["C"].probs, [0.69, 0.31])

    def test_intermediate_form_text(self, three_vars_net):
        text = render_intermediate(three_vars_net)
        assert "A -> B : [0.240000, 0.060000, 0.420000, 0.280000]." in text
        assert "A -> C : [0.060000, 0.240000, 0.630000, 0.070000]." in text
        assert "B : [0.660000, 0.340000]." in text
        assert "C : [0.690000, 0.310000]." in text

    def test_no_group_nodes_needed(self, three_vars_net):
        assert all(n.kind != GROUP for n in three_vars_net.nodes)

    def test_deterministic(self):
        a = preprocess(parse_program(THREE_VARS))
        b = preprocess(parse_program(THREE_VARS))
        for ta, tb in zip(a.tables, b.tables):
            assert ta.scope == tb.scope
            assert np.array_equal(ta.probs, tb.probs)


class TestCancerPreprocess:
    def test_every_clause_table_matches_brute_force(self, cancer_net):
        full = brute_force_cancer()
        scope_all = Scope(("A", "B", "C", "D", "E"))
        from rcndl import JointTable
        joint = JointTable(scope_all, full)
        for node in cancer_net.nodes:
            if node.kind == OBS or node.kind == GROUP:
                continue
            expected = marginalize(joint, node.scope)
            np.testing.assert_allclose(
                cancer_net.tables[node.idx].probs, expected.probs, atol=1e-12,
                err_msg=node.label,
            )

    def test_two_parent_head_joint(self, cancer_net):
        full = brute_force_cancer()
        from rcndl import JointTable
        joint = JointTable(Scope(("A", "B", "C", "D", "E")), full)
        got = cancer_net.joint_over(Scope(("B", "C")))
        expected = marginalize(joint, Scope(("B", "C")))
        np.testing.assert_allclose(got.probs, expected.probs, atol=1e-12)
        # correlated through the shared cause: not the product of marginals
        pb = expected.probs[2] + expected.probs[3]
        pc = expected.probs[1] + expected.probs[3]
        assert abs(expected.probs[3] - pb * pc) > 1e-3

    def test_head_joint_of_full_clause_scope_is_table(self, cancer_net):
        node = next(n for n in cancer_net.nodes if n.label == "A -> B")
        got = cancer_net.joint_over(node.scope)
        np.testing.assert_allclose(got.probs, cancer_net.tables[node.idx].probs)

    def test_group_node_created_for_two_parent_rule(self, cancer_net):
        groups = [n for n in cancer_net.nodes if n.kind == GROUP]
        assert len(groups) == 1
        assert set(groups[0].scope.vars) == {"A", "B", "C"}

    def test_intermediate_form_skips_the_group_node(self, cancer_net):
        # one line per clause of the program, in node order; the group that
        # joins A, B and C is not a clause
        assert render_intermediate(cancer_net) == (
            "?- A : [0.800000, 0.200000].\n"
            "A -> B : [0.640000, 0.160000, 0.040000, 0.160000].\n"
            "A -> C : [0.760000, 0.040000, 0.160000, 0.040000].\n"
            "B, C -> D : [0.608000, 0.032000, 0.008000, 0.032000, "
            "0.056000, 0.224000, 0.008000, 0.032000].\n"
            "C -> E : [0.368000, 0.552000, 0.016000, 0.064000].\n"
            "D : [0.680000, 0.320000].\n"
            "E : [0.384000, 0.616000].\n"
        )

    def test_rule_table_marginal_matches_head_joint(self, cancer_net):
        for node in cancer_net.nodes:
            if node.kind != RULE:
                continue
            head = node.separator
            mine = marginalize(cancer_net.tables[node.idx], head)
            upstream = cancer_net.joint_over(head)
            np.testing.assert_allclose(mine.probs, upstream.probs, atol=1e-12)

    def test_propagation_graph_is_a_tree(self, cancer_net):
        # nodes = edges + number of connected components (here 1)
        assert len(cancer_net.edges) == len(cancer_net.nodes) - 1


class TestStructureErrors:
    def test_no_query(self):
        with pytest.raises(NetworkStructureError):
            preprocess(parse_program("A -> B : [0.2, 0.4]."))

    def test_undefined_head_variable(self):
        with pytest.raises(NetworkStructureError):
            preprocess(parse_program("?- A : [0.3, 0.7]. X -> B : [0.2, 0.4]."))

    def test_body_defined_twice(self):
        text = "?- A : [0.3, 0.7]. A -> B : [0.2, 0.4]. A -> B : [0.5, 0.5]."
        with pytest.raises(NetworkStructureError):
            preprocess(parse_program(text))

    def test_body_shadows_query_variable(self):
        with pytest.raises(NetworkStructureError):
            preprocess(parse_program("?- A, B : [0.1, 0.2, 0.3, 0.4]. A -> B : [0.2, 0.4]."))

    def test_cycle_detected(self):
        text = "?- A : [0.3, 0.7]. B -> C : [0.2, 0.4]. C -> B : [0.5, 0.5]."
        with pytest.raises(NetworkStructureError):
            preprocess(parse_program(text))

    def test_rule_before_query(self):
        with pytest.raises(NetworkStructureError):
            preprocess(parse_program("A -> B : [0.2, 0.4]. ?- A : [0.3, 0.7]."))

    def test_undeclared_observation_variable(self):
        with pytest.raises(NetworkStructureError):
            preprocess(parse_program("?- A : [0.3, 0.7]. Z."))

    def test_head_inside_one_clause_is_fine(self):
        # a second multi-variable head covered by one existing clause scope
        # hangs off that clause; no cycle arises
        text = """
        ?- A : [0.5, 0.5].
        A -> B : [0.2, 0.4].
        A -> C : [0.8, 0.1].
        B, C -> D : [0.1, 0.2, 0.3, 0.4].
        A, B -> E : [0.1, 0.2, 0.3, 0.4].
        """
        net = preprocess(parse_program(text))
        assert len(net.edges) == len(net.nodes) - 1

    def test_overlapping_groups_rejected(self):
        # two cross-branch heads whose clause groups share two clauses
        # close a loop in the sharing structure
        text = """
        ?- A : [0.5, 0.5].
        A -> B : [0.2, 0.4].
        A -> C : [0.8, 0.1].
        A -> E : [0.3, 0.6].
        B, C -> D : [0.1, 0.2, 0.3, 0.4].
        B, E -> F : [0.1, 0.2, 0.3, 0.4].
        """
        with pytest.raises(MultiplyConnectedError):
            preprocess(parse_program(text))

    def test_joint_beyond_the_variable_limit_refused(self):
        # two 13-rule chains from R: the first group, joining them under
        # C, would span 27 variables (a 2^27-state table), and so would a
        # read across them; both are refused before anything is allocated
        chains = ["?- R : [0.5, 0.5]."]
        for x in "AB":
            names = ["R"] + [f"{x}{i}" for i in range(1, 14)]
            chains += [f"{a} -> {b} : [0.3, 0.6]." for a, b in zip(names, names[1:])]
        text = "\n".join(chains)
        with pytest.raises(SizeLimitError, match=r"^28:1: .* connecting A13, "
                           r"B13 would span 27 variables, over the 25-"):
            preprocess(parse_program(text + "\nA13, B13 -> C : [0.1, 0.2, 0.3, 0.4]."))
        net = preprocess(parse_program(text))
        with pytest.raises(SizeLimitError, match="^joint_over: .* span 27 "):
            net.joint_over(Scope(("A13", "B13")))


class TestHandBuiltPrograms:
    """A program built without the parser gets the checks the parser's
    grammar would otherwise make first."""

    A = Scope(("A",))

    def test_rule_with_the_wrong_number_of_conditionals(self):
        program = SourceProgram((
            QueryClause(((self.A, (0.5, 0.5)),), SourcePos(1, 1)),
            RuleClause(self.A, "B", (0.5,), SourcePos(2, 1)),
        ))
        with pytest.raises(ArityError) as exc:
            preprocess(program)
        assert str(exc.value) == "2:1: conditional list needs 2 entries, got 1"

    def test_query_clique_prior_of_the_wrong_length(self):
        program = SourceProgram((
            QueryClause(((self.A, (0.2, 0.3, 0.5)),), SourcePos(1, 1)),))
        with pytest.raises(ArityError) as exc:
            preprocess(program)
        assert str(exc.value) == "table over ('A',) needs 2 entries, got (3,)"


CHAIN_CYCLE = (
    "clause sharing structure has a cycle through 'group(R; R -> B4; "
    "group(R -> B3; group(R -> B2; group(R; R -> B0; R -> B1; B0 -> C0); "
    "C0, B1 -> C1); C1, B2 -> C2); C2, B3 -> C3)'"
)


class TestChainFamily:
    def test_four_links_exact_against_enumeration(self):
        net = preprocess(parse_program(fingerprint.chain_program(4)))
        assert [n.kind for n in net.nodes].count(GROUP) == 3
        read = net.joint_over(Scope(("C3", "B0", "R")))
        assert fingerprint.enumeration_error(rcndl, net, [read]) <= 1e-12

    @pytest.mark.parametrize("k", [*range(5, 13), 13, 16])
    def test_refused_on_scopes_alone(self, k):
        # from k = 5 the links close a cycle, and from k = 13 the group
        # under C12 would span 26 variables; the refusal comes before any
        # table is computed (at k = 12 the groups built first would take
        # half a gigabyte)
        program = parse_program(fingerprint.chain_program(k))
        if k < 13:
            error, message = MultiplyConnectedError, CHAIN_CYCLE
        else:
            error, message = SizeLimitError, (
                f"{k + 14}:1: a joint over the clauses connecting C11, B12 "
                f"would span 26 variables, over the 25-variable limit")
        tracemalloc.start()
        try:
            with pytest.raises(error) as info:
                preprocess(program)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == message
        assert peak < 2 ** 20

    def test_structure_refused_before_numbers(self):
        # a prior summing to 1.1 and an observation of an unknown variable:
        # the structural pass reports the observation first
        with pytest.raises(NetworkStructureError,
                           match=r"^1:41: observed variable 'Z' does not "
                                 r"occur in any clause$"):
            preprocess(parse_program(
                "?- A : [0.5, 0.6]. A -> B : [0.1, 0.2]. Z."))


@st.composite
def clause_programs(draw):
    """1-3 uniform-prior root cliques, each overlapping at most one earlier
    clique (on variables no other clique holds), then rules with heads of
    1-3 variables and observations of 1-3 variables.  Every such program
    reaches the edge rule; some are multiply connected."""
    cliques: list[list[str]] = []
    count: dict[str, int] = {}
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 3))
        sole = [vs for vs in ([v for v in c if count[v] == 1] for c in cliques)
                if vs]
        scope: list[str] = []
        if sole and draw(st.booleans()):
            vs = draw(st.sampled_from(sole))
            scope = draw(st.lists(st.sampled_from(vs), min_size=1,
                                  max_size=min(size, len(vs)), unique=True))
        while len(scope) < size:
            scope.append(f"V{len(count)}")
            count[scope[-1]] = 0
        for v in scope:
            count[v] += 1
        cliques.append(scope)
    lines = ["?- " + "; ".join(
        f"{', '.join(c)} : [{', '.join([repr(0.5 ** len(c))] * 2 ** len(c))}]"
        for c in cliques) + "."]
    variables = list(count)

    def some():
        k = min(draw(st.integers(1, 3)), len(variables))
        return draw(st.lists(st.sampled_from(variables), min_size=k,
                             max_size=k, unique=True))

    for _ in range(draw(st.integers(2, 8))):
        head = some()
        cond = ", ".join(f"{0.1 + 0.8 * k / 2 ** len(head):.3f}"
                         for k in range(2 ** len(head)))
        lines.append(f"{', '.join(head)} -> V{len(variables)} : [{cond}].")
        variables.append(f"V{len(variables)}")
    lines += [", ".join(some()) + "." for _ in range(draw(st.integers(0, 3)))]
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(clause_programs())
def test_edge_rule_matches_reference(text):
    # the node list the builder hands its edge rule, every draw
    seen = []
    build_edges = _Builder.build_edges

    def spy(builder):
        seen.append(list(builder.nodes))
        return build_edges(builder)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Builder, "build_edges", spy)
        got = outcome(preprocess, parse_program(text))
    (nodes,) = seen
    want = outcome(reference.build_edges, nodes)
    if isinstance(want[0], type):
        assert want[0] is MultiplyConnectedError
        assert got[0] is MultiplyConnectedError
    else:
        assert isinstance(got, PreparedNetwork), got
        assert got.edges == want


class TestQueryCliques:
    def test_disjoint_cliques_combine_as_product(self):
        net = preprocess(parse_program(
            "?- A : [0.4, 0.6]; B : [0.9, 0.1]. A, B -> C : [0.1, 0.2, 0.3, 0.4]."
        ))
        got = net.joint_over(Scope(("A", "B")))
        np.testing.assert_allclose(
            got.probs, [0.36, 0.04, 0.54, 0.06], atol=1e-12
        )

    def test_overlapping_cliques_agreeing_on_overlap(self):
        net = preprocess(parse_program(
            "?- A, B : [0.2, 0.2, 0.3, 0.3]; B, C : [0.1, 0.4, 0.2, 0.3]."
        ))
        # P(B) from the first clique is [0.5, 0.5], matching the second
        got = net.joint_over(Scope(("A", "C")))
        assert got.scope.vars == ("A", "C")
        np.testing.assert_allclose(got.probs.sum(), 1.0)

    def test_overlapping_cliques_disagreeing_rejected(self):
        with pytest.raises(NetworkStructureError):
            preprocess(parse_program(
                "?- A, B : [0.2, 0.2, 0.3, 0.3]; B, C : [0.3, 0.3, 0.2, 0.2]."
            ))

    def test_clique_overlapping_two_earlier_cliques_rejected(self):
        with pytest.raises(MultiplyConnectedError,
                           match=r"^query clique \('A', 'B'\) overlaps more "
                                 r"than one earlier clique$"):
            preprocess(parse_program(
                "?- A : [0.5, 0.5]; B : [0.5, 0.5]; "
                "A, B : [0.25, 0.25, 0.25, 0.25]."
            ))


class TestUnknownCompletion:
    def test_prior_residual_spread_uniformly(self):
        net = preprocess(parse_program("?- A, B : [0.4, -1.0, -1.0, 0.2]."))
        root = net.tables[0]
        np.testing.assert_allclose(root.probs, [0.4, 0.2, 0.2, 0.2])

    def test_prior_overfull_rejected(self):
        with pytest.raises(NetworkStructureError):
            preprocess(parse_program("?- A, B : [0.8, 0.7, -1.0, -1.0]."))

    def test_prior_not_summing_to_one_rejected(self):
        with pytest.raises(NetworkStructureError,
                           match=r"^1:1: query clique \('A',\): prior "
                                 r"entries sum to 1\.100000000000, not 1$"):
            preprocess(parse_program("?- A : [0.5, 0.6]."))

    def test_prior_negative_entry_rejected(self):
        query = QueryClause(((Scope(("A",)), (-0.5, 1.5)),), SourcePos(3, 1))
        with pytest.raises(NetworkStructureError,
                           match=r"^3:1: query clique \('A',\): negative"):
            preprocess(SourceProgram((query,)))

    def test_unknown_conditional_defaults_to_half(self):
        net = preprocess(parse_program(
            "?- A : [0.3, 0.7]. A -> B : [-1.0, 0.4]."
        ))
        t = tables_by_label(net)["A -> B"]
        np.testing.assert_allclose(t.probs, [0.15, 0.15, 0.42, 0.28])


class TestTopologicalOrdering:
    def test_rules_reordered_by_dependency(self):
        # C's rule appears before B's but depends on it
        text = "?- A : [0.3, 0.7]. B -> C : [0.2, 0.4]. A -> B : [0.2, 0.4]. C."
        net = preprocess(parse_program(text))
        labels = [n.label for n in net.nodes if n.kind == RULE]
        assert labels == ["A -> B", "B -> C"]
        t = tables_by_label(net)
        np.testing.assert_allclose(
            marginalize(t["B -> C"], Scope(("C",))).probs,
            [1 - (0.66 * 0.2 + 0.34 * 0.4)] + [0.66 * 0.2 + 0.34 * 0.4],
            atol=1e-12,
        )

    def test_root_node_first(self, cancer_net):
        assert cancer_net.nodes[0].kind == ROOT
