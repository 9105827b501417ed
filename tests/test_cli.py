import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import argstable
from argstable import SolveReport, cli
from argstable.cli import main
from tests.common import (
    defeat_frameworks,
    odd_cycles,
    package_env,
    recursion_headroom,
    run_argstable,
)

CHAIN_APX = "arg(a).\narg(b).\narg(c).\natt(a,b).\natt(b,c).\n"
KNOT_APX = (
    "arg(a).\narg(b).\narg(c).\narg(d).\narg(e).\n"
    "att(a,b).\natt(b,a).\natt(b,c).\natt(c,d).\natt(d,e).\natt(e,c).\n"
)
CHAIN_TGF = "a\nb\nc\n#\na b\nb c\n"
KNOT_TGF = "a\nb\nc\nd\ne\n#\na b\nb a\nb c\nc d\nd e\ne c\n"


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
        # lambda_'s first stable model lists the extension {a} next to the
        # defeated arguments
        code, out, _ = run(["solve", "--engine", "lambda", "--json"], text=KNOT_APX)
        assert code == 0
        first = json.loads(out.splitlines()[0])
        assert first["witness"] == ["a", "d(b)", "d(c)", "d(d)", "d(e)"]

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
            cli._ENGINES, "gamma", lambda af, **_: SolveReport("gamma", (), {})
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

    def test_beta_asp(self, run):
        code, out, _ = run(["translate", "beta"], text=CHAIN_APX)
        assert code == 0
        assert out == ":- b.\na :- c.\nnot a :- b.\nnot b :- c.\n"

    def test_unknown_target(self, run):
        code, _, err = run(["translate", "delta"], text=CHAIN_APX)
        assert code == 1
        assert "argstable: error:" in err


class TestAdmissible:
    def test_chain(self, run):
        code, out, _ = run(["admissible"], text=CHAIN_APX)
        assert code == 0
        assert out == "{}\n{a}\n{a,c}\n"


# A command that lost `--input` or `--format` ends in a usage error, exit 1,
# which a check for documented exit codes alone accepts.
@pytest.mark.parametrize("argv", [
    ["solve"], ["check", "a"], ["query", "--brave", "a"], ["translate", "gamma"], ["admissible"],
], ids=lambda argv: argv[0])
def test_every_command_reads_its_input_in_either_format(run, argv):
    apx = run(argv, text=KNOT_APX)
    assert apx[0] == 0 and apx[1] and apx[2] == ""
    assert run(argv + ["--format", "tgf"], text=KNOT_TGF) == apx


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

    def test_file_with_byte_order_mark(self, run, tmp_path):
        path = tmp_path / "bom.apx"
        path.write_bytes(b"\xef\xbb\xbf" + KNOT_APX.encode())
        assert run(["solve", "--input", str(path)]) == (0, "{a}\n{b,d}\n", "")

    def test_stdin_with_byte_order_mark(self, run, monkeypatch):
        raw = io.BytesIO(b"\xef\xbb\xbf" + KNOT_APX.encode())
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(raw, encoding="utf-8"))
        assert run(["solve"]) == (0, "{a}\n{b,d}\n", "")

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

    def test_bound_negative(self, run):
        code, out, err = run(["solve"], text=CHAIN_APX, env={"ARGSTABLE_BOUND": "-1"})
        assert code == 1
        assert out == ""
        assert err == "argstable: error: ARGSTABLE_BOUND is negative: '-1'\n"

    def test_interrupt(self, run, monkeypatch):
        def interrupted(af, **bound):
            raise KeyboardInterrupt
        monkeypatch.setitem(cli._ENGINES, "gamma", interrupted)
        assert run(["solve"], text=KNOT_APX) == (130, "", "argstable: error: interrupted\n")

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


def unattacked_apx(n):
    return "".join(f"arg(a{i}).\n" for i in range(n))


class TestBounds:
    """Each command hands ARGSTABLE_BOUND to the library when it is set, and
    otherwise the library's own default: 20 arguments for the oracle's
    subsets, 24 atoms for a solver."""

    @pytest.fixture(autouse=True)
    def no_override(self, monkeypatch):
        monkeypatch.delenv("ARGSTABLE_BOUND", raising=False)

    # each command on the chain, with what its first exhaustive call refuses
    OVERRIDDEN = [
        (["solve", "--engine", "alpha"], "program signature has 3 atoms"),
        (["solve", "--engine", "gamma"], "program signature has 3 atoms"),
        (["solve", "--engine", "lambda"], "program signature has 6 atoms"),
        (["solve", "--engine", "oracle"], "framework has 3 arguments"),
        (["solve", "--cross-check"], "program signature has 3 atoms"),
        (["check", "a", "c"], "program signature has 3 atoms"),
        (["query", "--brave", "a"], "program signature has 3 atoms"),
        (["query", "--cautious", "a"], "program signature has 3 atoms"),
        (["admissible"], "framework has 3 arguments"),
    ]

    @pytest.mark.parametrize("argv, what", OVERRIDDEN,
                             ids=[" ".join(argv) for argv, _ in OVERRIDDEN])
    def test_override_reaches_every_command(self, run, argv, what):
        code, out, err = run(argv, text=CHAIN_APX, env={"ARGSTABLE_BOUND": "2"})
        assert (code, out) == (2, "")
        assert err == f"argstable: error: {what}, exceeding the bound of 2\n"

    @pytest.mark.parametrize("argv", [["admissible"], ["solve", "--engine", "oracle"]],
                             ids=" ".join)
    def test_subset_default(self, run, argv):
        code, out, err = run(argv, text=unattacked_apx(21))
        assert (code, out) == (2, "")
        assert err == (
            "argstable: error: framework has 21 arguments, exceeding the bound of 20\n"
        )

    @pytest.mark.parametrize("argv", [["solve"], ["check", "a0"], ["query", "--brave", "a0"]],
                             ids=" ".join)
    def test_model_default(self, run, argv):
        code, out, err = run(argv, text=unattacked_apx(25))
        assert (code, out) == (2, "")
        assert err == (
            "argstable: error: program signature has 25 atoms, exceeding the bound of 24\n"
        )


def run_with_closed(redirect, argv):
    """`python -m argstable ARGV` with the descriptor that the shell's
    REDIRECT, `>&-` or `<&-`, closes, so Python starts with `sys.stdout` or
    `sys.stdin` None; standard error captured as text."""
    return subprocess.run(
        ["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m", "argstable", *argv],
        env=package_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120,
    )


def test_closed_standard_input_exits_1_without_traceback():
    proc = run_with_closed("<&-", ["solve"])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "argstable: error: cannot read -: [Errno 9] Bad file descriptor\n"


class TestClosedOutput:
    # 800 arguments, each attacking the next three: the size of the
    # benchmark's translations
    RING_APX = "".join(f"arg(a{i}).\n" for i in range(800)) + "".join(
        f"att(a{i},a{(i + k) % 800}).\n" for i in range(800) for k in (1, 2, 3)
    )

    @staticmethod
    def on_file(tmp_path, argv, text):
        """ARGV with `--input FILE`, where FILE holds `text`."""
        path = tmp_path / "input.apx"
        path.write_text(text)
        return [*argv, "--input", str(path)]

    @staticmethod
    def assert_one_error_line(code, stderr):
        assert code == 1
        assert "Traceback" not in stderr
        assert "Exception ignored" not in stderr
        assert stderr.startswith("argstable: error: cannot write output: ")
        assert stderr.count("\n") == 1

    @pytest.mark.parametrize("argv, text", [
        (["translate", "gamma"], RING_APX),
        (["solve"], KNOT_APX),
    ], ids=["translate-gamma", "solve"])
    def test_closed_pipe_exits_1_without_traceback(self, tmp_path, argv, text):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = run_argstable(
                self.on_file(tmp_path, argv, text),
                stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
            )
        finally:
            os.close(write)
        self.assert_one_error_line(proc.returncode, proc.stderr)

    @pytest.mark.parametrize("argv", [["translate", "gamma"], ["solve"]],
                             ids=["translate-gamma", "solve"])
    def test_closed_descriptor_exits_1_without_traceback(self, tmp_path, argv):
        proc = run_with_closed(">&-", self.on_file(tmp_path, argv, KNOT_APX))
        self.assert_one_error_line(proc.returncode, proc.stderr)
        assert proc.stderr == "argstable: error: cannot write output: Bad file descriptor\n"

    @pytest.mark.parametrize("flags", [(), ("-u",)], ids=["buffered", "unbuffered"])
    def test_reader_gone_mid_write_exits_1(self, tmp_path, flags):
        # the translation, about 150 KB, outgrows the pipe, so the writer is
        # still writing when the reader leaves after one line; unbuffered
        # (`-u`), a raw write that takes only part of the text must not pass
        # for success
        proc = run_argstable(
            self.on_file(tmp_path, ["translate", "alpha"], self.RING_APX), *flags,
            spawn=subprocess.Popen, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            assert proc.stdout.readline().startswith("d(a0) :- ")
            proc.stdout.close()
            stderr = proc.stderr.read()
            code = proc.wait(timeout=120)
        finally:
            proc.kill()
            proc.stderr.close()
        self.assert_one_error_line(code, stderr)


@pytest.mark.parametrize("argv, stdin, code, out, err", [
    (["solve", "--format", "tgf"], KNOT_TGF, 0, "{a}\n{b,d}\n", ""),
    # the scanner stops at the second line's third column
    (["solve"], "arg(a).\n  bogus\n", 1, "", "argstable: error: 2:3: expected a fact "),
], ids=["tgf", "malformed-apx"])
def test_process_on_input_the_recording_cannot_hold(argv, stdin, code, out, err):
    proc = run_argstable(argv, input=stdin, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (code, out)
    assert proc.stderr.startswith(err)
    assert proc.stderr.count("\n") == (1 if err else 0)
    assert "Traceback" not in proc.stderr


# Generated input, well-formed or not, through every subcommand: each run
# ends in a documented exit code, and no exception escapes `main`.
_CLI_NAMES = ["a", "b", "c", "Xy", "n_1", "q9"]
_CLI_NAME = st.sampled_from(_CLI_NAMES)
_APX_PIECES = st.one_of(
    st.builds("arg({}).".format, _CLI_NAME),
    st.builds("att({},{}).".format, _CLI_NAME, _CLI_NAME),
    st.sampled_from(["% note", "arg(a)", "att(a).", "arg(a,b).", "foo(a).", "arg(1).",
                     "att( a , b ) .", "arg(zz).", "att(a,zz)."]),
    st.text(alphabet="ab(),.% #\n_1X", max_size=8),
)
_TGF_PIECES = st.one_of(
    _CLI_NAME,
    st.just("#"),
    st.builds("{} {}".format, _CLI_NAME, _CLI_NAME),
    st.sampled_from(["a b c", "1x", "zz", "a zz", "# #"]),
    st.text(alphabet="ab #\n_1X", max_size=8),
)


@st.composite
def framework_texts(draw):
    """A format and a text: a framework in that format, the same with pieces
    of either format spliced in, or any text at all."""
    fmt = draw(st.sampled_from(["apx", "tgf"]))
    names = draw(st.lists(_CLI_NAME, unique=True, max_size=6))
    pick = st.sampled_from(names or [""])
    attacks = draw(st.lists(st.tuples(pick, pick), max_size=10 if names else 0))
    if fmt == "apx":
        lines = [f"arg({x})." for x in names] + [f"att({x},{y})." for x, y in attacks]
    else:
        lines = names + ["#"] + [f"{x} {y}" for x, y in attacks]
    kind = draw(st.sampled_from(["framework", "framework", "spliced", "any"]))
    if kind == "any":
        return fmt, draw(st.text(max_size=40))
    if kind == "spliced":
        for piece in draw(st.lists(st.one_of(_APX_PIECES, _TGF_PIECES), min_size=1, max_size=3)):
            lines.insert(draw(st.integers(0, len(lines))), piece)
    return fmt, draw(st.sampled_from([" ", "\n"])).join(lines)


_COMMAND_LINES = st.one_of(
    st.builds(
        lambda engine, as_json, cross: ["solve", "--engine", engine]
        + ["--json"] * as_json + ["--cross-check"] * cross,
        st.sampled_from(["alpha", "gamma", "lambda", "oracle"]), st.booleans(), st.booleans(),
    ),
    st.builds(lambda names: ["check", *names], st.lists(st.sampled_from(_CLI_NAMES + ["zz"]), max_size=3)),
    st.builds(lambda mode, name: ["query", mode, name],
              st.sampled_from(["--brave", "--cautious"]), st.sampled_from(_CLI_NAMES + ["zz"])),
    st.builds(lambda target, emit: ["translate", target, "--emit", emit],
              st.sampled_from(sorted(cli._TARGETS)), st.sampled_from(["asp", "dimacs"])),
    st.just(["admissible"]),
)


@settings(max_examples=300)
@given(framework_texts(), _COMMAND_LINES)
def test_any_input_ends_in_a_documented_exit_code(text, argv):
    fmt, body = text
    err = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(body)), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv + ["--format", fmt])
    assert code in range(5)
    assert "Traceback" not in err.getvalue()


def test_import_leaves_dataclasses_and_inspect_unloaded():
    # `python -S`: no site hooks, so only the package's own imports count
    src = str(Path(argstable.__file__).resolve().parents[1])
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import argstable.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_an_interrupt_while_the_package_loads_ends_in_one_line():
    """The entry point loads the package inside `main`'s `try`, so an
    interrupt on the first import of `argstable.logic` ends like any other."""
    probe = (
        "import sys\n"
        "class Interrupt:\n"
        "    def find_spec(self, name, path, target=None):\n"
        "        if name == 'argstable.logic':\n"
        "            sys.meta_path.remove(self)\n"
        "            raise KeyboardInterrupt\n"
        "sys.meta_path.insert(0, Interrupt())\n"
        "sys.argv = ['argstable', 'solve']\n"
        "from argstable.cli import entry_point\n"
        "entry_point()\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], input=KNOT_APX, env=package_env(),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (130, "", "argstable: error: interrupted\n")


def test_help_loads_no_solver():
    # `-X importtime` lists on standard error every module the run imports
    proc = run_argstable(["--help"], "-X", "importtime", capture_output=True, text=True,
                         timeout=60)
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert proc.returncode == 0 and proc.stdout.startswith("usage: argstable")
    assert "argstable.cli" in imported and "argstable.logic" not in imported


def test_the_package_loads_its_names_on_first_use():
    """`import argstable` loads none of its modules, and `dir` shows what a
    fully loaded package holds: the public names, the modules and the
    module attributes."""
    probe = (
        "import sys, argstable\n"
        "print(sorted(m for m in sys.modules if m.startswith('argstable.')))\n"
        "print(dir(argstable))\n"
        "print(argstable.framework.__name__, argstable.cli.__name__, argstable.SolveReport.__module__)\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=package_env(),
                          capture_output=True, text=True, timeout=60)
    modules = ["engines", "errors", "framework", "logic", "oracle", "translate"]
    attributes = ["__all__", "__builtins__", "__cached__", "__doc__", "__file__", "__loader__",
                  "__name__", "__package__", "__path__", "__spec__"]
    assert proc.stdout.splitlines() == [
        "[]",
        str(sorted(argstable.__all__ + modules + attributes)),
        "argstable.framework argstable.cli argstable.engines",
    ]
    assert argstable.__all__ == sorted(argstable.__all__) and len(argstable.__all__) == 45
    assert all(hasattr(argstable, name) for name in argstable.__all__)


def test_cli_names_resolve_before_main_runs():
    """The names that perfbench's tracer and these tests look up on `cli`
    resolve in a fresh interpreter before `main` has run, and the tables
    hold the engines' and the translations' own functions."""
    names = ["parse_apx", "parse_tgf", "query", "check_preferred_unsat",
             "_ENGINES", "_TARGETS", "_COMMANDS"]
    probe = (
        "import sys, argstable.cli as cli\n"
        "for name in sys.argv[1:]:\n"
        "    value = getattr(cli, name)\n"
        "    print(name, list(value) if isinstance(value, dict) else value.__module__)\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe, *names], env=package_env(),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "parse_apx argstable.framework",
        "parse_tgf argstable.framework",
        "query argstable.engines",
        "check_preferred_unsat argstable.engines",
        f"_ENGINES {cli._ENGINE_NAMES}",
        f"_TARGETS {cli._TARGET_NAMES}",
        "_COMMANDS ['solve', 'check', 'query', 'translate', 'admissible']",
    ]
    from argstable import engines, translate

    for name in ["alpha", "gamma", "lambda"]:
        assert cli._ENGINES[name] is getattr(engines, f"preferred_via_{name}")
    for name, rules in [("alpha", translate.alpha_rules), ("beta", translate.beta_rules),
                        ("gamma", translate.gamma_rules), ("lambda", translate.lambda_rules),
                        ("stable-fragment", translate.stable_fragment_rules)]:
        assert cli._TARGETS[name] is rules


def reference_dimacs(program):
    """DIMACS text built clause by clause: the signature sorted and numbered
    from 1, then each clause in sorted order, head literals at their parity
    and body literals flipped, a repeated literal kept where it first
    occurs."""
    atoms = sorted(program.signature)
    number = {a: i for i, a in enumerate(atoms, 1)}
    sign = lambda literal: 1 if literal.neg % 2 == 0 else -1
    rows = []
    for clause in sorted(program.clauses):
        lits = [sign(h) * number[h.atom] for h in clause.head]
        lits += [-sign(b) * number[b.atom] for b in clause.body]
        rows.append(" ".join(str(x) for x in dict.fromkeys(lits)) + " 0\n")
    names = [f"c var {i} = {a.replace('(', '_').replace(')', '')}\n" for a, i in number.items()]
    return "".join(names) + f"p cnf {len(atoms)} {len(rows)}\n" + "".join(rows)


# Names mix case, digits and `_`, so the emitters must number and order the
# atoms exactly as the clauses sort.
@settings(max_examples=150)
@given(defeat_frameworks(), st.sampled_from(sorted(cli._TARGETS)))
def test_translate_emits_the_sorted_clauses(af, target):
    program = cli._TARGETS[target](af).program()
    expected = {
        "asp": "".join(str(c) + "\n" for c in sorted(program.clauses)),
        "dimacs": reference_dimacs(program),
    }
    for emit, text in expected.items():
        out = io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(af.to_apx())), contextlib.redirect_stdout(out):
            assert main(["translate", target, "--emit", emit]) == 0
        assert out.getvalue() == text
