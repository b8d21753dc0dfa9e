"""Setup (parse and preprocess) costs time in the number of clauses.

The five shapes of ``tools/fingerprint.py``'s ``shape_program`` each once
took time growing as the square of their length: rules listed after the
rules they depend on, many query cliques, a variable held by many rules,
with and without a one-variable clause holding it, and a variable
observed many times.  The faster
structural lookups must agree with the old ones in
``tests/reference_preprocess.py``.
"""

import gc
import random
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcndl import Scope, SourceProgram, parse_program, preprocess
from rcndl.model import ObservationClause, QueryClause, RuleClause, SourcePos
from rcndl.preprocess import (GROUP, OBS, _connecting_closure, _order_rules,
                              covering_node)
from tests import reference_preprocess as reference
from tests.conftest import outcome
from tests.test_preprocess import clause_programs, fingerprint


def setup_seconds(text: str, times: int) -> float:
    """The wall time of parsing and preprocessing ``text`` ``times`` times
    over, per time, with the collector off as ``timeit`` has it: a full
    collection costs time in everything the test session holds, not in
    the program."""
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(times):
            preprocess(parse_program(text))
        return (perf_counter() - t0) / times
    finally:
        gc.enable()


@pytest.mark.parametrize("shape", fingerprint.SHAPES)
def test_setup_grows_linearly(shape):
    # Three runs at 2,000 clauses, each between two runs at 500 clauses
    # that are four programs long, so that every run does the same work.
    # Each run at 2,000 is compared with the mean of its two neighbours,
    # so a host whose speed changes from run to run moves both sides of a
    # ratio alike.  The least of the three ratios must be at most 6;
    # quadratic growth would make them about 16.
    small, large = (fingerprint.shape_program(shape, n) for n in (500, 2000))
    around = [setup_seconds(small, 4)]
    ratios = []
    for _ in range(3):
        t = setup_seconds(large, 1)
        around.append(setup_seconds(small, 4))
        ratios.append(2 * t / (around[-2] + around[-1]))
    assert min(ratios) <= 6, (shape, ratios)


@st.composite
def rule_lists(draw):
    """A query over some of ``V0..V11`` and rules defining the others,
    shuffled; each head is drawn from the variables defined before its
    body in a random order, and now and then also names an undefined
    ``U0``, a variable defined later (which may close a cycle) or its own
    body, or the body is one the query or another rule defines."""
    names = [f"V{i}" for i in range(12)]
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    query = names[:rng.randint(1, 3)]
    bodies = names[len(query):]
    rng.shuffle(bodies)
    if rng.random() < 0.1:
        bodies.append(rng.choice(names))
    clauses = []
    for k, body in enumerate(bodies):
        before = query + bodies[:k]
        head = rng.sample(before, min(rng.randint(1, 3), len(before)))
        if rng.random() < 0.05:
            head[-1] = rng.choice(("U0", body, *bodies[k + 1:]))
        head = list(dict.fromkeys(head))
        clauses.append(RuleClause(Scope(head), body, (0.5,) * 2 ** len(head),
                                  SourcePos(k + 2, 1)))
    clauses.append(ObservationClause((query[0],), SourcePos(1, 9)))
    rng.shuffle(clauses)
    cliques = tuple((Scope((v,)), (0.5, 0.5)) for v in query)
    clauses.insert(rng.randint(0, len(clauses)),
                   QueryClause(cliques, SourcePos(1, 1)))
    return SourceProgram(tuple(clauses))


@settings(max_examples=500, deadline=None)
@given(rule_lists())
def test_rule_order_matches_reference(program):
    assert outcome(_order_rules, program) == outcome(reference._order_rules,
                                                     program)


@settings(max_examples=200, deadline=None)
@given(clause_programs(), st.randoms(use_true_random=False))
def test_lookups_match_reference(text, rng):
    """The smallest cover of any one to three variables, every kind left
    out or none, and the connecting closure of any introducers."""
    net = outcome(preprocess, parse_program(text))
    if isinstance(net, tuple):
        return
    variables = list(net.introducer)
    holders = {v: tuple(sorted(c)) for v, c in net.covers.items()}
    for _ in range(20):
        vars = tuple(rng.sample(variables, min(rng.randint(1, 3), len(variables))))
        skip = rng.choice((None, OBS, GROUP, "rule", "root"))
        assert (covering_node(net.nodes, net.covers, vars, skip)
                == reference.covering_node(net.nodes, holders, vars, skip))
        seeds = tuple(dict.fromkeys(net.introducer[v] for v in vars))
        assert (_connecting_closure(net.nodes, seeds)
                == reference._connecting_closure(net.nodes, seeds))
