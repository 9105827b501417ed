import io
import json

import pytest

from argstable import SolveReport, cli
from argstable.cli import main
from tests.common import odd_cycles, recursion_headroom

CHAIN_APX = "arg(a).\narg(b).\narg(c).\natt(a,b).\natt(b,c).\n"
KNOT_APX = (
    "arg(a).\narg(b).\narg(c).\narg(d).\narg(e).\n"
    "att(a,b).\natt(b,a).\natt(b,c).\natt(c,d).\natt(d,e).\natt(e,c).\n"
)
CHAIN_TGF = "a\nb\nc\n#\na b\nb c\n"


@pytest.fixture
def run(capsys, monkeypatch, tmp_path):
    def invoke(argv, text=None, stdin=None, env=None):
        if text is not None:
            path = tmp_path / "input.apx"
            path.write_text(text)
            argv = argv + ["--input", str(path)]
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        for key, value in (env or {}).items():
            monkeypatch.setenv(key, value)
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestSolve:
    def test_default_engine(self, run):
        code, out, err = run(["solve"], text=KNOT_APX)
        assert code == 0
        assert out == "{a}\n{b,d}\n"
        assert err == ""

    @pytest.mark.parametrize("engine", ["alpha", "gamma", "lambda", "oracle"])
    def test_every_engine_agrees(self, run, engine):
        code, out, _ = run(["solve", "--engine", engine], text=KNOT_APX)
        assert code == 0
        assert out == "{a}\n{b,d}\n"

    def test_json_with_witness(self, run):
        code, out, _ = run(["solve", "--engine", "alpha", "--json"], text=CHAIN_APX)
        assert code == 0
        assert out == (
            '{"engine": "alpha", "extension": ["a", "c"], "witness": ["d(b)"]}\n'
        )

    def test_json_oracle_has_no_witness(self, run):
        code, out, _ = run(["solve", "--engine", "oracle", "--json"], text=CHAIN_APX)
        assert code == 0
        assert json.loads(out) == {
            "engine": "oracle",
            "extension": ["a", "c"],
            "witness": None,
        }

    def test_json_one_object_per_extension(self, run):
        code, out, _ = run(["solve", "--json"], text=KNOT_APX)
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["extension"] for r in rows] == [["a"], ["b", "d"]]
        assert all(r["engine"] == "gamma" for r in rows)

    def test_cross_check_passes(self, run):
        code, out, err = run(["solve", "--cross-check"], text=KNOT_APX)
        assert code == 0
        assert out == "{a}\n{b,d}\n"
        assert err == ""

    def test_cross_check_disagreement(self, run, monkeypatch):
        monkeypatch.setitem(
            cli._ENGINES, "gamma", lambda af, bound: SolveReport("gamma", (), {})
        )
        code, out, err = run(["solve", "--cross-check"], text=KNOT_APX)
        assert code == 4
        assert out == ""
        assert err.splitlines() == [
            "argstable: alpha: {a} {b,d}",
            "argstable: gamma: (none)",
            "argstable: lambda: {a} {b,d}",
            "argstable: oracle: {a} {b,d}",
            "argstable: error: engines disagree",
        ]

    def test_deep_search_finishes_under_a_low_recursion_limit(self, run):
        # 200 independent odd cycles take about 200 nested decisions.
        with recursion_headroom(150):
            code, out, err = run(
                ["solve", "--engine", "alpha"],
                text=odd_cycles(200).to_apx(),
                env={"ARGSTABLE_BOUND": "10000"},
            )
        assert (code, out, err) == (0, "{}\n", "")

    def test_empty_framework(self, run):
        code, out, _ = run(["solve"], text="")
        assert code == 0
        assert out == "{}\n"

    def test_reads_stdin_by_default(self, run):
        code, out, _ = run(["solve"], stdin=CHAIN_APX)
        assert code == 0
        assert out == "{a,c}\n"

    def test_tgf_format(self, run):
        code, out, _ = run(["solve", "--format", "tgf"], stdin=CHAIN_TGF)
        assert code == 0
        assert out == "{a,c}\n"

    def test_deterministic(self, run):
        first = run(["solve"], text=KNOT_APX)
        second = run(["solve"], text=KNOT_APX)
        assert first == second


class TestCheck:
    def test_positive(self, run):
        code, out, _ = run(["check", "a", "c"], text=CHAIN_APX)
        assert code == 0
        assert out == "preferred\n"

    def test_not_maximal(self, run):
        code, out, _ = run(["check", "a"], text=CHAIN_APX)
        assert code == 3
        assert out == (
            "not preferred: certificate formula is satisfiable;"
            " counter-model {d(b)}\n"
        )

    def test_complement_not_a_model(self, run):
        code, out, _ = run(["check", "b"], text=CHAIN_APX)
        assert code == 3
        assert out == "not preferred: the complement is not a model of the defeat theory\n"

    def test_empty_set(self, run):
        code, out, _ = run(["check"], text=CHAIN_APX)
        assert code == 3

    def test_unknown_member(self, run):
        code, _, err = run(["check", "z"], text=CHAIN_APX)
        assert code == 1
        assert "argstable: error:" in err and "z" in err


class TestQuery:
    def test_brave_true_with_evidence(self, run):
        code, out, _ = run(["query", "--brave", "a"], text=KNOT_APX)
        assert code == 0
        assert out == "a is bravely true, evidenced by {a,d(b),d(c),d(d),d(e)}\n"

    def test_cautious_false_with_evidence(self, run):
        code, out, _ = run(["query", "--cautious", "a"], text=KNOT_APX)
        assert code == 3
        assert out == "a is cautiously false, evidenced by {b,d,d(a),d(c),d(e)}\n"

    def test_cautious_true(self, run):
        code, out, _ = run(["query", "--cautious", "a"], text=CHAIN_APX)
        assert code == 0
        assert out == "a is cautiously true\n"

    def test_brave_false(self, run):
        code, out, _ = run(["query", "--brave", "b"], text=CHAIN_APX)
        assert code == 3
        assert out == "b is bravely false\n"

    def test_sixteen_arguments_are_within_the_bound(self, run):
        # mutual_attacks(8): gamma has one atom per argument, 16 of the 24 allowed
        text = "".join(
            f"arg(a{i}).\narg(b{i}).\natt(a{i},b{i}).\natt(b{i},a{i}).\n" for i in range(8)
        )
        code, out, err = run(["query", "--cautious", "a0"], text=text)
        assert (code, err) == (3, "")
        assert out == (
            "a0 is cautiously false, evidenced by {a1,a2,a3,a4,a5,a6,a7,b0,"
            "d(a0),d(b1),d(b2),d(b3),d(b4),d(b5),d(b6),d(b7)}\n"
        )

    def test_mode_is_required(self, run):
        code, _, err = run(["query", "a"], text=CHAIN_APX)
        assert code == 1
        assert "argstable: error:" in err

    def test_unknown_argument(self, run):
        code, _, err = run(["query", "--brave", "z"], text=CHAIN_APX)
        assert code == 1
        assert "z" in err


class TestTranslate:
    def test_gamma_asp(self, run):
        code, out, _ = run(["translate", "gamma"], text=CHAIN_APX)
        assert code == 0
        assert out == "d(a) v d(b).\nd(b).\nd(b) v d(c).\nd(c) :- d(a).\n"

    def test_alpha_asp(self, run):
        code, out, _ = run(["translate", "alpha"], text=CHAIN_APX)
        assert code == 0
        assert out == (
            "d(b).\n"
            "d(b) :- not d(a).\n"
            "d(c) :- d(a).\n"
            "d(c) :- not d(b).\n"
        )

    def test_alpha_dimacs(self, run):
        code, out, _ = run(["translate", "alpha", "--emit", "dimacs"], text=CHAIN_APX)
        assert code == 0
        assert out == (
            "c var 1 = d_a\n"
            "c var 2 = d_b\n"
            "c var 3 = d_c\n"
            "p cnf 3 4\n"
            "2 0\n"
            "2 1 0\n"
            "3 -1 0\n"
            "3 2 0\n"
        )

    def test_dimacs_without_clauses(self, run):
        code, out, _ = run(
            ["translate", "gamma", "--emit", "dimacs"],
            text="arg(a).\narg(b).\n",
        )
        assert code == 0
        assert out == "c var 1 = d_a\nc var 2 = d_b\np cnf 2 0\n"

    def test_stable_fragment(self, run):
        code, out, _ = run(["translate", "stable-fragment"], text=CHAIN_APX)
        assert code == 0
        assert out == "d(b) :- not d(a).\nd(c) :- not d(b).\n"

    def test_unknown_target(self, run):
        code, _, err = run(["translate", "delta"], text=CHAIN_APX)
        assert code == 1
        assert "argstable: error:" in err


class TestAdmissible:
    def test_chain(self, run):
        code, out, _ = run(["admissible"], text=CHAIN_APX)
        assert code == 0
        assert out == "{}\n{a}\n{a,c}\n"


class TestErrors:
    def test_parse_error(self, run):
        code, _, err = run(["solve", "--format", "tgf"], stdin="a extra\n#\n")
        assert code == 1
        assert err == "argstable: error: 1:1: expected a single node name per line\n"

    def test_apx_parse_error_position(self, run):
        code, _, err = run(["solve"], stdin="arg(a).\n  oops")
        assert code == 1
        assert "2:3:" in err

    def test_missing_file(self, run):
        code, _, err = run(["solve", "--input", "/nonexistent/af.apx"])
        assert code == 1
        assert "cannot read /nonexistent/af.apx" in err

    def test_file_not_utf8(self, run, tmp_path):
        path = tmp_path / "latin.apx"
        path.write_bytes(b"arg(a).\n\xff\n")
        code, out, err = run(["solve", "--input", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith(f"argstable: error: cannot read {path}: 'utf-8' codec can't decode")
        assert err.count("\n") == 1

    def test_stdin_not_utf8(self, run, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff"), encoding="utf-8"))
        code, _, err = run(["solve"])
        assert code == 1
        assert err.startswith("argstable: error: cannot read -: 'utf-8' codec can't decode")

    def test_bound_exceeded(self, run):
        code, _, err = run(["solve"], text=CHAIN_APX, env={"ARGSTABLE_BOUND": "2"})
        assert code == 2
        assert err == (
            "argstable: error: program signature has 3 atoms,"
            " exceeding the bound of 2\n"
        )

    def test_bound_not_an_integer(self, run):
        code, _, err = run(["solve"], text=CHAIN_APX, env={"ARGSTABLE_BOUND": "soon"})
        assert code == 1
        assert "ARGSTABLE_BOUND is not an integer: 'soon'" in err

    def test_generous_bound_is_accepted(self, run):
        code, out, _ = run(["solve"], text=CHAIN_APX, env={"ARGSTABLE_BOUND": "30"})
        assert code == 0
        assert out == "{a,c}\n"

    def test_no_command(self, run):
        code, _, err = run([])
        assert code == 1
        assert "argstable: error:" in err

    def test_unknown_command(self, run):
        code, _, err = run(["frobnicate"])
        assert code == 1
        assert "argstable: error:" in err
