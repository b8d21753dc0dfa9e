"""The depth-batched numeric pass against the node-by-node reference.

``preprocess`` fills every table one depth at a time; the reference
``_tables`` builds them one node at a time through ``JointTable``s.  The
flat array must hold the reference's tables byte for byte, or both must
refuse the program with the same error, and ``joint_over`` on a scope no
node covers must read the reference ``_join`` byte for byte.
"""

import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench.generate import build_large
from rcndl import Scope, marginalize, model, parse_program, preprocess
from rcndl.preprocess import _Builder, _join_order, covering_node
from tests import reference_preprocess as reference
from tests.conftest import CANCER, THREE_VARS, outcome
from tests.test_batched_propagation import problems, reweighted_networks
from tests.test_preprocess import fingerprint

# the outer group joins the inner group(X2 -> X3; X2 -> X4) with the
# rules above and below it
NESTED = """\
?- X0 : [0.3, 0.7].
X0 -> X1 : [0.51, 0.81].
X0, X1 -> X2 : [0.29, 0.75, 0.73, 0.1].
X2 -> X3 : [0.32, 0.76].
X2 -> X4 : [0.79, 0.51].
X3, X4 -> X5 : [0.47, 0.59, 0.52, 0.46].
X4, X5 -> X6 : [0.17, 0.66, 0.68, 0.34].
X3, X6 -> X7 : [0.78, 0.1, 0.12, 0.62].
"""

FIXED = [THREE_VARS, CANCER, NESTED,
         *(fingerprint.chain_program(k) for k in (2, 3, 4))]

# conditional entries: 0 and 1 leave zero-mass states, so members'
# conditionals meet 0/0; -1 is unknown
ENTRY = st.sampled_from((0.0, 1.0, -1.0, 0.125, 0.5, 0.875))


def same_tables(program):
    """``preprocess(program)``, after checking its tables against the
    reference pass over the same structure (or its error against the
    reference's, or that the structural pass refused the program)."""
    built = []
    build_edges = _Builder.build_edges

    def spy(builder):
        edges = build_edges(builder)
        built.append(builder)
        return edges

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Builder, "build_edges", spy)
        got = outcome(preprocess, program)
    if not built:
        assert isinstance(got[0], type), got
        return None
    want = outcome(reference._tables, program, built[0])
    if isinstance(want[0], type):
        assert got == want
        return None
    assert got.flat.tobytes() == b"".join(t.probs.tobytes() for t in want)
    return got


def same_joint(net, vars):
    """``joint_over`` a scope no node covers reads the reference join
    marginalized, byte for byte, or fails as the join order does."""
    target = Scope(vars)
    if covering_node(net.nodes, net.covers, target.vars) is not None:
        return
    got = outcome(net.joint_over, target)
    order = outcome(_join_order, net.nodes, net.introducer, target.vars,
                    "joint_over")
    if isinstance(order[0], type):
        assert got == order
        return
    want = marginalize(reference._join(net.tables, order), target)
    assert got.scope == want.scope
    assert got.probs.tobytes() == want.probs.tobytes()


def uncovered_pairs(net):
    """Every pair of variables that no single node holds together."""
    vs = list(net.introducer)
    return [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]
            if covering_node(net.nodes, net.covers, (a, b)) is None]


@pytest.mark.parametrize("text", FIXED)
def test_fixed_programs_match_reference(text):
    net = same_tables(parse_program(text))
    for pair in uncovered_pairs(net):
        same_joint(net, pair)


def prior(draw, n: int, uniform: bool) -> list[float]:
    if uniform:
        p = [0.5 ** n] * 2 ** n
    else:
        w = [draw(st.integers(0, 3)) for _ in range(2 ** n)]
        w[0] += sum(w) == 0
        p = [x / sum(w) for x in w]
    return [-1.0 if draw(st.integers(0, 3)) == 0 else x for x in p]


@st.composite
def programs(draw):
    """1-3 root cliques, each overlapping at most one earlier clique (on
    variables no other clique holds) or none, with uniform or drawn priors
    that may hold zeros and unknown entries, so overlaps may disagree;
    then rules with heads of 1-3 variables and conditionals of 0, 1,
    unknown and between, and observations of 1-3 variables."""
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
        f"{', '.join(c)} : "
        f"[{', '.join(map(repr, prior(draw, len(c), draw(st.booleans()))))}]"
        for c in cliques) + "."]
    variables = list(count)

    def some():
        k = min(draw(st.integers(1, 3)), len(variables))
        return draw(st.lists(st.sampled_from(variables), min_size=k,
                             max_size=k, unique=True))

    for _ in range(draw(st.integers(1, 8))):
        head = some()
        cond = ", ".join(repr(draw(ENTRY)) for _ in range(2 ** len(head)))
        lines.append(f"{', '.join(head)} -> V{len(variables)} : [{cond}].")
        variables.append(f"V{len(variables)}")
    lines += [", ".join(some()) + "." for _ in range(draw(st.integers(0, 3)))]
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(programs(), st.data())
def test_generated_programs_match_reference(text, data):
    net = same_tables(parse_program(text))
    if net is not None:
        pairs = uncovered_pairs(net)
        if pairs:
            same_joint(net, data.draw(st.sampled_from(pairs)))
        same_joint(net, data.draw(st.lists(
            st.sampled_from(list(net.introducer)), min_size=2, max_size=3,
            unique=True)))


@settings(max_examples=100, deadline=None)
@given(problems())
def test_propagation_networks_match_reference(problem):
    same_tables(problem[0].program)


@settings(max_examples=100, deadline=None)
@given(reweighted_networks())
def test_joint_over_reweighted_tables_matches_reference(net):
    """Tables that disagree on their separators, some events without
    mass: the join reads the current tables as the reference does."""
    for pair in uncovered_pairs(net):
        same_joint(net, pair)


def test_no_per_node_table_work(monkeypatch):
    """One preprocess of a 2,001-clause network makes as many
    ``JointTable``s and calls ``marginalize`` as often, through the
    preprocessing modules, as one of 251 clauses."""
    calls = Counter()
    for name in ("marginalize", "JointTable"):
        def spy(*args, _real=getattr(model, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        for module in ("rcndl.preprocess", "rcndl.tables"):
            monkeypatch.setattr(sys.modules[module], name, spy, raising=False)
    counts = []
    for units in (50, 400):
        program = parse_program(build_large(1, units=units).model_text)
        calls.clear()
        preprocess(program)
        counts.append(dict(calls))
    assert len(program.clauses) == 2001
    assert counts[0] == counts[1]
