import numpy as np
import pytest

from rcndl import parse_program, preprocess

THREE_VARS = """\
?- A : [0.3, 0.7].
A -> B : [0.2, 0.4].
A -> C : [0.8, 0.1].
B.
C.
"""

CANCER = """\
?- A : [0.8, 0.2].
A -> B : [0.2, 0.8].
A -> C : [0.05, 0.2].
B, C -> D : [0.05, 0.8, 0.8, 0.8].
C -> E : [0.6, 0.8].
D.
E.
"""


def outcome(fn, *args):
    """The call's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as e:  # both sides must fail the same way
        return type(e), str(e)


@pytest.fixture(scope="session")
def three_vars_net():
    return preprocess(parse_program(THREE_VARS))


@pytest.fixture(scope="session")
def cancer_net():
    return preprocess(parse_program(CANCER))


def brute_force_three_vars() -> np.ndarray:
    """The 8-state joint of the three-variable model, built state by state."""
    pa = [0.3, 0.7]
    pb = [0.2, 0.4]   # P(B=1 | A=a)
    pc = [0.8, 0.1]
    out = np.zeros(8)
    for a in (0, 1):
        for bv in (0, 1):
            for c in (0, 1):
                p = pa[a]
                p *= pb[a] if bv else 1 - pb[a]
                p *= pc[a] if c else 1 - pc[a]
                out[(a << 2) | (bv << 1) | c] = p
    return out


def brute_force_cancer() -> np.ndarray:
    """The 32-state joint of the cancer model, built state by state."""
    pa = [0.8, 0.2]
    pb = {0: 0.2, 1: 0.8}
    pc = {0: 0.05, 1: 0.2}
    pd = {(0, 0): 0.05, (0, 1): 0.8, (1, 0): 0.8, (1, 1): 0.8}
    pe = {0: 0.6, 1: 0.8}
    out = np.zeros(32)
    for a in (0, 1):
        for bv in (0, 1):
            for c in (0, 1):
                for d in (0, 1):
                    for e in (0, 1):
                        p = pa[a]
                        p *= pb[a] if bv else 1 - pb[a]
                        p *= pc[a] if c else 1 - pc[a]
                        p *= pd[(bv, c)] if d else 1 - pd[(bv, c)]
                        p *= pe[c] if e else 1 - pe[c]
                        out[(a << 4) | (bv << 3) | (c << 2) | (d << 1) | e] = p
    return out
