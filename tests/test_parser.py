import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcndl import (
    ArityError,
    ObservationClause,
    ParseError,
    QueryClause,
    RcndlError,
    RuleClause,
    ScopeError,
    SourceProgram,
    parse_program,
    render_program,
)
from rcndl.parser import _Parser
from tests import reference_parser as reference
from tests.conftest import CANCER, THREE_VARS, outcome
from tests.test_batched_propagation import networks
from tests.test_cli import run_cli
from tests.test_preprocess import clause_programs

DEMO_MODELS = sorted((Path(__file__).resolve().parents[1]
                      / "demos" / "models").glob("*.rcndl"))


class TestParseProgram:
    def test_three_vars_program(self):
        p = parse_program(THREE_VARS)
        assert len(p.clauses) == 5
        q, r1, r2, o1, o2 = p.clauses
        assert isinstance(q, QueryClause)
        assert q.cliques[0][0].vars == ("A",)
        assert q.cliques[0][1] == (0.3, 0.7)
        assert isinstance(r1, RuleClause)
        assert r1.head.vars == ("A",) and r1.body == "B"
        assert r1.cond == (0.2, 0.4)
        assert r2.body == "C" and r2.cond == (0.8, 0.1)
        assert isinstance(o1, ObservationClause) and o1.vars == ("B",)
        assert o2.vars == ("C",)

    def test_cancer_program_two_variable_head(self):
        p = parse_program(CANCER)
        rule_d = p.clauses[3]
        assert isinstance(rule_d, RuleClause)
        assert rule_d.head.vars == ("B", "C")
        assert rule_d.body == "D"
        assert rule_d.cond == (0.05, 0.8, 0.8, 0.8)

    def test_empty_input(self):
        assert parse_program("").clauses == ()
        assert parse_program("   % only a comment\n").clauses == ()

    def test_comments_and_whitespace_insignificant(self):
        text = "?- A % prior\n : [0.3,\n0.7]. % done\nA->B:[0.2,0.4]."
        p = parse_program(text)
        assert len(p.clauses) == 2

    def test_query_prefix_may_contain_space(self):
        p = parse_program("? - A : [0.3, 0.7].")
        assert isinstance(p.clauses[0], QueryClause)

    def test_multiple_cliques_in_query(self):
        p = parse_program("?- A : [0.5, 0.5]; B, C : [0.1, 0.2, 0.3, 0.4].")
        q = p.clauses[0]
        assert len(q.cliques) == 2
        assert q.cliques[1][0].vars == ("B", "C")

    def test_unknown_sentinel_accepted(self):
        p = parse_program("?- A : [-1.0, 0.7].")
        assert p.clauses[0].cliques[0][1] == (-1.0, 0.7)

    def test_positions_attached(self):
        p = parse_program("\n\n  ?- A : [0.3, 0.7].")
        assert p.clauses[0].pos.line == 3
        assert p.clauses[0].pos.column == 3


class TestParseErrors:
    def test_out_of_range_literal(self):
        with pytest.raises(ParseError):
            parse_program("?- A : [1.5, 0.7].")

    def test_negative_non_sentinel(self):
        with pytest.raises(ParseError):
            parse_program("?- A : [-0.5, 0.7].")

    def test_wrong_list_length_for_rule(self):
        with pytest.raises(ArityError):
            parse_program("?- A : [0.3, 0.7]. A -> B : [0.2, 0.4, 0.5].")

    def test_wrong_list_length_for_query(self):
        with pytest.raises(ArityError):
            parse_program("?- A, B : [0.3, 0.7].")

    def test_multiple_queries_rejected(self):
        with pytest.raises(ParseError):
            parse_program("?- A : [0.3, 0.7]. ?- B : [0.5, 0.5].")

    def test_missing_period(self):
        with pytest.raises(ParseError):
            parse_program("?- A : [0.3, 0.7]")

    def test_stray_character(self):
        with pytest.raises(ParseError) as err:
            parse_program("?- A : [0.3, 0.7]. @")
        assert err.value.line == 1

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_program("?- A : [0.3,\n 2.0].")
        assert err.value.line == 2

    def test_duplicate_head_variable(self):
        with pytest.raises(ParseError) as err:
            parse_program("?- A : [0.3, 0.7]. A, A -> B : [0.1, 0.2, 0.3, 0.4].")
        assert str(err.value) == "1:20: duplicate variable in rule head"

    @pytest.mark.parametrize("text, message", [
        ("?- A : [0.3, 0.7].\n A, A -> B : [0.1, 0.2, 0.3, 0.4].",
         "2:2: duplicate variable in rule head"),
        ("?- A : [0.3, 0.7]; B, B : [0.1, 0.2, 0.3, 0.4].",
         "1:1: duplicate variable in query clique"),
        ("?- A : [0.3, 0.7]. A -> B : [0.2, 0.4]. B, B.",
         "1:41: duplicate variable in observation clause"),
    ])
    def test_duplicate_variable_is_positioned(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert str(err.value) == message

    def test_rule_missing_arrow_or_period(self):
        with pytest.raises(ParseError):
            parse_program("A B.")


class TestRenderProgram:
    def test_round_trip_three_vars(self):
        p = parse_program(THREE_VARS)
        again = parse_program(render_program(p))
        assert _strip_positions(again) == _strip_positions(p)

    def test_round_trip_cancer(self):
        p = parse_program(CANCER)
        again = parse_program(render_program(p))
        assert _strip_positions(again) == _strip_positions(p)

    def test_empty_program_renders_empty(self):
        assert render_program(parse_program("")) == ""

    def test_round_trip_random_programs(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n_vars = int(rng.integers(1, 5))
            names = [f"V{i}" for i in range(n_vars)]
            lines = [f"?- {names[0]} : [{rng.uniform():.17g}, "
                     f"{rng.uniform():.17g}]."]
            for i in range(1, n_vars):
                head = names[max(0, i - 2):i]
                conds = ", ".join(
                    f"{rng.uniform():.17g}" for _ in range(2 ** len(head))
                )
                lines.append(f"{', '.join(head)} -> {names[i]} : [{conds}].")
            lines.append(f"{names[-1]}.")
            p = parse_program("\n".join(lines))
            again = parse_program(render_program(p))
            assert _strip_positions(again) == _strip_positions(p)

    def test_full_precision_literals_survive(self):
        p = parse_program("?- A : [0.12345678901234567, 0.87654321098765433].")
        again = parse_program(render_program(p))
        assert again.clauses[0].cliques[0][1] == p.clauses[0].cliques[0][1]


def _strip_positions(program):
    out = []
    for c in program.clauses:
        if isinstance(c, QueryClause):
            out.append(("q", c.cliques))
        elif isinstance(c, RuleClause):
            out.append(("r", c.head.vars, c.body, c.cond))
        else:
            out.append(("o", c.vars))
    return out


# --------------------------------------------------------------------------
# The one-pass lexer against the per-token reference parser
# --------------------------------------------------------------------------

# ASCII, Arabic-Indic and fullwidth digits: float() reads them all
DIGITS = tuple("".join(map(chr, range(zero, zero + 10)))
               for zero in (0x30, 0x660, 0xFF10))
# between tokens: nothing, ASCII and Unicode spaces and line ends, then
# what a list token cannot convert with split and float: comments that hold
# list punctuation, and a space float() does not strip
SPACES = ("", " ", "  ", "\t", "\n", "\r\n", "\u00a0", "\u2028")
ODD_SPACES = SPACES + ("% note\n", "% ], 0.5 [\n", "%\n", "\x1c")
LITERALS = ("1.", "0.", "5e-1", "0.5E+0", "00.25", "-1", "-1.0", "-0", "1.5",
            "-0.5", "1e999")
CHARS = st.sampled_from(list("[],;:.%?->_ \n\r09eE+A") + ["\u0661", "\x1c"])


def mutate(text, op, i, ch):
    """``text`` with ``ch`` inserted at ``i``, or the character there
    deleted or swapped with the next one."""
    if op == "insert":
        return text[:i] + ch + text[i:]
    if op == "delete":
        return text[:i] + text[i + 1:]
    return text[:i] + text[i + 1:i + 2] + text[i:i + 1] + text[i + 2:]


@st.composite
def mutations(draw, text):
    op = draw(st.sampled_from(("insert", "delete", "swap")))
    # uniform over the text: hypothesis favours small integers
    i = random.Random(draw(st.integers(0, 2 ** 32))).randint(0, len(text))
    return mutate(text, op, i, draw(CHARS | st.characters()))


@st.composite
def respelled_programs(draw):
    """A generated program, its tokens re-joined with random spaces and
    comments, numbers respelled and line ends maybe CRLF.  Some draws also
    reuse a variable name, add a list entry or spell an odd literal."""
    text = draw(clause_programs() | networks().map(lambda n: n[0]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    spaces = rng.choice((SPACES, ODD_SPACES))
    odd = rng.random() < 0.5
    tokens = reference.tokenize(text)[:-1]
    names = [tok.text for tok in tokens if tok.kind == "ident"]
    out = []
    for tok in tokens:
        out += rng.choices(spaces, k=rng.randrange(3))
        lexeme = tok.text
        if tok.kind == "query":
            lexeme = rng.choice(("?-", "? -", "?\n -"))
        elif tok.kind == "ident" and odd and rng.random() < 0.05:
            lexeme = rng.choice(names)
        elif tok.kind == "number":
            if odd and rng.random() < 0.2:
                lexeme = rng.choice(LITERALS)
            elif odd and rng.random() < 0.02:
                lexeme += ", 0.5"
            elif rng.random() < 0.5:
                lexeme = f"{float(lexeme):.4e}"
            lexeme = lexeme.translate(str.maketrans("0123456789",
                                                    rng.choice(DIGITS)))
        out.append(lexeme)
    out.append(rng.choice(("", "\n", "% no line end")))
    text = "".join(out)
    return text.replace("\n", "\r\n") if rng.random() < 0.5 else text


class _Recording(reference._Parser):
    """The reference parser, noting the token that starts each clause."""

    def clause(self):
        self.start = self.peek()
        return super().clause()


def reference_outcome(text):
    try:
        parser = _Recording(reference.tokenize(text))
        return repr(parser.program())
    except ScopeError as e:
        # the one intended difference: a duplicate variable in a rule head
        # or query clique is a ParseError at the clause, not a ScopeError
        assert str(e).startswith("duplicate variable in scope"), e
        tok = parser.start
        what = "query clique" if tok.kind == "query" else "rule head"
        return ParseError, f"{tok.line}:{tok.column}: duplicate variable in {what}"
    except Exception as e:
        return type(e), str(e)


def assert_parsed_as_reference(text):
    got = outcome(parse_program, text)
    if isinstance(got, SourceProgram):
        got = repr(got)  # exact floats, signed zeros and every SourcePos
    assert got == reference_outcome(text)


@settings(max_examples=400, deadline=None)
@given(respelled_programs())
def test_parse_matches_reference(text):
    assert_parsed_as_reference(text)


@pytest.mark.parametrize("text", [
    # a comment runs to its line end, also where a ']' inside it could
    # close a list that is malformed further on
    "?- A : [0.3 % ], 0.5 [\n 0.7].",
    "?- A : [0.3 % ]\n, 0.7].",
    "?- A : [0.3, % 0.7]\n 0.7 % ]\n].",
    "?- A : [0.3, 0.7] % ].\n.",
    # a list where the grammar wants something else
    "?- A : [0.3, 0.7]. A -> B [0.2, 0.4].",
    "?- A [0.3, 0.7].",
    "A [0.3, 0.7].",
])
def test_parse_of_irregular_lists_matches_reference(text):
    assert_parsed_as_reference(text)


def test_commented_lists_leave_the_file_tokens_in_place():
    # a list with a comment in it is read again token by token; splicing
    # those tokens into the file's token list would move every later token,
    # so a file of such lists would parse in time quadratic in its length
    text = "?- X0 : [0.5, 0.5].\n" + "".join(
        f"X{k} -> X{k + 1} : [0.25, % c\n 0.75].\n" for k in range(3000))
    p = _Parser(text)
    tokens = p.tokens
    before = list(tokens)
    program = p.program()
    assert p.tokens is tokens and tokens == before
    assert len(program.clauses) == 3001
    assert repr(program) == reference_outcome(text)


@settings(max_examples=400, deadline=None)
@given(respelled_programs().flatmap(mutations))
def test_parse_of_a_mutant_matches_reference(text):
    assert_parsed_as_reference(text)


@st.composite
def demo_mutants(draw):
    text = draw(st.sampled_from(DEMO_MODELS)).read_text()
    for _ in range(draw(st.integers(1, 3))):
        text = draw(mutations(text))
    return text


@settings(max_examples=300, deadline=None)
@given(st.text() | demo_mutants())
def test_any_text_parses_or_raises_a_library_error(text):
    try:
        assert isinstance(parse_program(text), SourceProgram)
    except RcndlError:
        pass


def test_check_exits_cleanly_on_mutated_models(tmp_path):
    rng = random.Random(8)
    for k in range(6):
        text = DEMO_MODELS[k % len(DEMO_MODELS)].read_text()
        op = rng.choice(("insert", "delete", "swap"))
        text = mutate(text, op, rng.randrange(len(text)), rng.choice("[,.:-A1"))
        path = tmp_path / f"mutant{k}.rcndl"
        path.write_text(text)
        res = run_cli("check", str(path))
        assert res.returncode in (0, 1), (text, res.stderr)
        assert "Traceback" not in res.stderr, (text, res.stderr)
