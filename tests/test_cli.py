import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rcndl
from rcndl import ConditionalConstraint, MarginalConstraint, ParseError, parse_evidence
from rcndl.cli import main
from tests.conftest import CANCER, THREE_VARS


class TestEvidenceGrammar:
    def test_marginal_line(self):
        (c,) = parse_evidence("P(C) = 0.95")
        assert isinstance(c, MarginalConstraint)
        assert c.scope.vars == ("C",)
        assert c.targets == pytest.approx((0.05, 0.95))
        assert c.threshold is None

    def test_bayesian_shorthand(self):
        cs = parse_evidence("D = false\nE = TRUE")
        assert cs[0].targets == (1.0, 0.0)
        assert cs[1].targets == (0.0, 1.0)

    def test_conditional_with_negation(self):
        (c,) = parse_evidence("P(X | Y, !Z) = 0.7")
        assert isinstance(c, ConditionalConstraint)
        assert c.target == "X"
        assert c.condition == (("Y", True), ("Z", False))
        assert c.prob == 0.7

    def test_threshold_suffix(self):
        (c,) = parse_evidence("P(C) = 0.95 threshold 0.0001")
        assert c.threshold == 0.0001
        (c,) = parse_evidence("E = true THRESHOLD 1e-4")  # any case here
        assert c.threshold == 1e-4
        (c,) = parse_evidence("P(C) = 0.95 threshold 0")
        assert c.threshold == 0.0

    def test_comments_and_blank_lines(self):
        cs = parse_evidence("# a comment\n\nP(C) = 0.95  # trailing\n")
        assert len(cs) == 1

    def test_order_preserved(self):
        cs = parse_evidence("P(B) = 0.33\nP(C) = 0.95")
        assert cs[0].scope.vars == ("B",)
        assert cs[1].scope.vars == ("C",)

    def test_bad_line_rejected_with_position(self):
        with pytest.raises(ParseError) as err:
            parse_evidence("P(C) = 0.95\nP(C = oops")
        assert err.value.line == 2

    def test_out_of_range_probability(self):
        with pytest.raises(ParseError):
            parse_evidence("P(C) = 1.5")

    @pytest.mark.parametrize("text, message", [
        ("P(C) = 1.5", "1:1: probability 1.5 outside [0, 1]"),
        ("P(C) = 0.95\nP(C = oops",
         "2:1: unrecognized evidence line: 'P(C = oops'"),
        ("X = maybe", "1:1: unrecognized evidence line: 'X = maybe'"),
        ("P(C) = 0.5 THRESHOLD 0.1",
         "1:1: unrecognized evidence line: 'P(C) = 0.5 THRESHOLD 0.1'"),
        ("P(X | Y, 2Z) = 0.7", "1:1: bad condition variable '2Z'"),
        ("P(B) = 0.5 threshold -1",
         "1:1: threshold -1 must be finite and non-negative"),
        ("P(C) = 0.95\nB = true threshold 1e999",
         "2:1: threshold 1e999 must be finite and non-negative"),
    ])
    def test_malformed_line_messages(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_evidence(text)
        assert str(err.value) == message


@pytest.fixture
def model_file(tmp_path):
    p = tmp_path / "model.rcndl"
    p.write_text(THREE_VARS)
    return str(p)


@pytest.fixture
def cancer_file(tmp_path):
    p = tmp_path / "cancer.rcndl"
    p.write_text(CANCER)
    return str(p)


def run_cli(*args):
    """``python -m rcndl.cli`` in a subprocess, importing this package."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(rcndl.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "rcndl.cli", *args],
                          capture_output=True, text=True, env=env, timeout=60)


def evidence_file(tmp_path, text):
    p = tmp_path / "evidence.txt"
    p.write_text(text)
    return str(p)


class TestCheckCommand:
    def test_intermediate_form(self, model_file, capsys):
        assert main(["check", model_file]) == 0
        out = capsys.readouterr().out
        assert "A -> B : [0.240000, 0.060000, 0.420000, 0.280000]." in out
        assert "A -> C : [0.060000, 0.240000, 0.630000, 0.070000]." in out
        assert "B : [0.660000, 0.340000]." in out
        assert "C : [0.690000, 0.310000]." in out

    def test_single_query_model(self, tmp_path, capsys):
        p = tmp_path / "one.rcndl"
        p.write_text("?- A : [0.25, 0.75].\n")
        assert main(["check", str(p)]) == 0
        assert capsys.readouterr().out == "?- A : [0.250000, 0.750000].\n"

    def test_parse_error_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.rcndl"
        p.write_text("?- A : [0.3, 0.7]")
        assert main(["check", str(p)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/model.rcndl"]) == 1

    @pytest.mark.parametrize("text, message", [
        ("?- A : [0.3, 0.7].\nA, A -> B : [0.1, 0.2, 0.3, 0.4].\n",
         "error: 2:1: duplicate variable in rule head"),
        ("% two cliques\n  ?- B : [0.5, 0.5]; A, A : [0.1, 0.2, 0.3, 0.4].\n",
         "error: 2:3: duplicate variable in query clique"),
    ])
    def test_duplicate_variable_is_positioned(self, tmp_path, text, message):
        p = tmp_path / "dup.rcndl"
        p.write_text(text)
        res = run_cli("check", str(p))
        assert res.returncode == 1
        assert res.stderr == message + "\n"

    def test_query_prior_not_summing_to_one(self, tmp_path):
        p = tmp_path / "bad.rcndl"
        p.write_text("\n?- A : [0.3, 0.8].\n")
        res = run_cli("check", str(p))
        assert res.returncode == 1
        assert "2:1: query clique ('A',): prior entries sum to" in res.stderr
        assert "Traceback" not in res.stderr


class TestRunCommand:
    def test_converged_run(self, model_file, tmp_path, capsys):
        ev = evidence_file(tmp_path, "P(B) = 0.33\nP(C) = 0.95")
        code = main(["run", model_file, ev, "--threshold", "0.001"])
        out = capsys.readouterr().out
        assert code == 0
        assert "P(A) = 0.274341" in out
        assert "converged after 2 pass(es)" in out

    def test_empty_evidence_reports_priors(self, model_file, tmp_path, capsys):
        ev = evidence_file(tmp_path, "# nothing\n")
        assert main(["run", model_file, ev]) == 0
        out = capsys.readouterr().out
        assert "converged after 0 pass(es)" in out
        assert "P(A) = 0.700000" in out

    def test_cancer_bayesian(self, cancer_file, tmp_path, capsys):
        ev = evidence_file(tmp_path, "D = false\nE = true")
        assert main(["run", cancer_file, ev]) == 0
        out = capsys.readouterr().out
        assert "converged after 1 pass(es)" in out
        assert "P(A) = 0.097276" in out

    def test_nonconvergence_exit_code(self, model_file, tmp_path, capsys):
        ev = evidence_file(tmp_path, "P(B) = 0.33\nP(C) = 0.95")
        code = main(["run", model_file, ev,
                     "--threshold", "0", "--max-passes", "2"])
        assert code == 2
        assert "did not converge" in capsys.readouterr().out

    def test_contradictory_evidence_names_constraint_and_event(
        self, tmp_path, capsys
    ):
        p = tmp_path / "contra.rcndl"
        p.write_text("?- A : [0.5, 0.5]. A -> B : [0.2, 0.7]. B.")
        ev = evidence_file(tmp_path, "P(B) = 1.0\nP(B) = 0.0")
        assert main(["run", str(p), ev]) == 1
        assert capsys.readouterr().err == (
            "error: P(B)=0: event B=false has zero prior probability but "
            "target 1.0\n"
        )

    @pytest.mark.parametrize("line, message", [
        ("P(B|B) = 0.5", "target 'B' may not appear in its own condition"),
        ("P(B|A,A) = 0.5", "duplicate variable in condition event"),
    ])
    def test_invalid_constraint_is_positioned(self, model_file, tmp_path,
                                              line, message):
        res = run_cli("run", model_file, evidence_file(tmp_path, line))
        assert res.returncode == 1
        assert res.stderr == f"error: 1:1: {message}\n"

    @pytest.mark.parametrize("evidence, flags, message", [
        ("P(B) = 0.5 threshold -1", [],
         "1:1: threshold -1 must be finite and non-negative"),
        ("P(B) = 0.5", ["--threshold", "-1"],
         "threshold -1.0 must be finite and non-negative"),
        ("P(B) = 0.5", ["--threshold", "nan"],
         "threshold nan must be finite and non-negative"),
        ("P(B) = 0.5", ["--max-passes", "-3"], "pass budget -3 is negative"),
    ])
    def test_unreachable_stopping_rule_is_an_input_error(
            self, model_file, tmp_path, capsys, evidence, flags, message):
        ev = evidence_file(tmp_path, evidence)
        assert main(["run", model_file, ev, *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_infeasible_evidence_exit_code(self, tmp_path, capsys):
        p = tmp_path / "zero.rcndl"
        p.write_text("?- A : [1.0, 0.0]. A -> B : [0.0, 1.0]. B.")
        ev = evidence_file(tmp_path, "B = true")
        assert main(["run", str(p), ev]) == 1
        assert "error" in capsys.readouterr().err

    def test_trace_flag(self, model_file, tmp_path, capsys):
        ev = evidence_file(tmp_path, "P(C) = 0.95")
        main(["run", model_file, ev, "--trace"])
        out = capsys.readouterr().out
        assert "pass 1: use P(C)=0.95" in out

    def test_dump_intermediate_flag(self, model_file, tmp_path, capsys):
        ev = evidence_file(tmp_path, "P(C) = 0.95")
        main(["run", model_file, ev, "--dump-intermediate"])
        out = capsys.readouterr().out
        assert "A -> B : [0.240000, 0.060000, 0.420000, 0.280000]." in out

    def test_program_order_flag(self, model_file, tmp_path, capsys):
        ev = evidence_file(tmp_path, "P(B) = 0.33\nP(C) = 0.95")
        main(["run", model_file, ev, "--order", "program-order", "--trace",
              "--max-passes", "1", "--threshold", "0"])
        out = capsys.readouterr().out
        assert out.index("P(B)=0.33") < out.index("P(C)=0.95")

    def test_json_output_contains_every_number(self, model_file, tmp_path,
                                               capsys):
        ev = evidence_file(tmp_path, "P(B) = 0.33\nP(C) = 0.95")
        code = main(["run", model_file, ev, "--threshold", "0.001", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True
        assert payload["passes"] == 2
        assert payload["posteriors"]["A"] == pytest.approx(0.2743407, abs=1e-6)
        assert set(payload["posteriors"]) == {"A", "B", "C"}
        assert len(payload["steps"]) == 4
        assert payload["final_gradients"]["P(C)=0.95"] == pytest.approx(
            1.37e-5, abs=1e-6
        )


class TestOracleCommand:
    def test_comparison_report(self, model_file, tmp_path, capsys):
        ev = evidence_file(tmp_path, "P(B) = 0.33\nP(C) = 0.95")
        code = main(["oracle", model_file, ev, "--threshold", "0.001"])
        out = capsys.readouterr().out
        assert code == 0
        assert "scheduler" in out and "oracle" in out
        line = next(l for l in out.splitlines() if l.startswith("A"))
        fields = line.split()
        assert float(fields[1]) == pytest.approx(0.274341, abs=1e-6)
        assert float(fields[2]) == pytest.approx(0.274332, abs=1e-6)

    def test_empty_evidence_identical(self, model_file, tmp_path, capsys):
        ev = evidence_file(tmp_path, "")
        assert main(["oracle", model_file, ev, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for v, d in payload["differences"].items():
            assert d <= 1e-12

    def test_json_sides_match_text(self, cancer_file, tmp_path, capsys):
        ev = evidence_file(tmp_path, "P(D) = 0.75\nP(E) = 0.10")
        assert main(["oracle", cancer_file, ev, "--json",
                     "--threshold", "1e-9"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["posteriors"]["A"] == pytest.approx(0.336010, abs=1e-5)
        assert payload["oracle"]["A"] == pytest.approx(0.336010, abs=1e-5)


class TestVersionFlag:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
