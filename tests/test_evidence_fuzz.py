"""Mutated evidence files run end to end.

Each draw mutates the evidence of a demo model, or of seed 1 of the
``tree-marginal`` benchmark workload, the way ``tools/fingerprint.py``
mutates models: one to three characters inserted, replaced, deleted or
swapped, or a name renamed to the name before it.  Parsing and running
the result must end in a valid run or an ``RcndlError``, never in any
other exception.
"""

import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench import generate
from rcndl import (
    EvidenceSet,
    RcndlError,
    parse_evidence,
    parse_program,
    posterior_marginal,
    preprocess,
    run_reasoning,
)

DEMOS = Path(__file__).resolve().parents[1] / "demos"
IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
CHARS = "()|!=,.#_ \n\r0159eE+-PABXtrue١\x1c"


def mutant(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.choice(("insert", "replace", "delete", "swap", "rename"))
        names = list(IDENT_RE.finditer(text))
        if op == "rename" and len(names) > 1:  # to the name before it
            k = rng.randrange(1, len(names))
            a, b = names[k].span()
            text = text[:a] + names[k - 1].group() + text[b:]
        elif op in ("insert", "replace"):
            text = text[:i] + rng.choice(CHARS) + text[i + (op == "replace"):]
        elif op == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + text[i + 1:i + 2] + text[i:i + 1] + text[i + 2:]
    return text


@pytest.fixture(scope="module")
def cases():
    """(network, evidence text, threshold) for each model and evidence file."""
    models = {m: (DEMOS / "models" / f"{m}.rcndl").read_text()
              for m in ("three_vars", "cancer")}
    tree = generate.GENERATORS["tree-marginal"](1)
    pairs = [(models["three_vars"], (DEMOS / "evidence_uncertain.txt").read_text(), 1e-3),
             (models["cancer"], (DEMOS / "evidence_cancer_bayesian.txt").read_text(), 1e-3),
             (models["cancer"], (DEMOS / "evidence_cancer_uncertain.txt").read_text(), 1e-3),
             (tree.model_text, tree.evidence_text, tree.threshold)]
    return [(preprocess(parse_program(m)), e, t) for m, e, t in pairs]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3), st.integers(0, 2 ** 32))
def test_mutated_evidence_runs_or_raises_a_library_error(cases, which, seed):
    net, text, threshold = cases[which]
    text = mutant(random.Random(seed), text)
    try:
        ev = EvidenceSet(tuple(parse_evidence(text)),
                         default_threshold=threshold, max_passes=20)
        post, trace = run_reasoning(net, ev)
    except RcndlError:
        return
    assert trace.passes <= 20
    for v in post.introducer:
        p = posterior_marginal(post, v)
        assert np.isfinite(p).all() and abs(sum(p) - 1.0) < 1e-9, (text, v, p)
