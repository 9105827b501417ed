"""CLI byte-identity: stdout, stderr and exit code of a fixed set of
invocations, recorded in `tests/data/cli_golden.json`, must not change.

The recording holds its own inputs (APX text), so changes to the generators
in `tests/common.py` do not move it.  Translations are stored as SHA-256
digests of their output, which keeps the file small.

All 242 invocations are checked in-process through `cli.main`.  The README
knot's 22, which use every subcommand and flag of the recording, are also
replayed through a real process, `python -m argstable`, so the exit code
and the bytes that reach the pipes are checked through `entry_point` too.
The installed console script is checked by one CI step on the knot.

To record again, on a commit whose output is known to be right (each
invocation runs in its own process, about 20 s in all):

    PYTHONPATH=src python -m tests.test_cli_golden
"""

import hashlib
import io
import json
import random
import string
from pathlib import Path

import pytest

from argstable import ArgumentationFramework, parse_apx, preferred_oracle
from argstable.cli import main
from tests.common import KNOT, knot_copies, mutual_attacks, run_argstable

DATA = Path(__file__).parent / "data" / "cli_golden.json"


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _frameworks():
    """The README knot, eight seeded random frameworks of 2-12 arguments, and
    two disjoint unions with more preferred extensions than arguments:
    four mutual attacks and three copies of the knot."""
    found = {"knot": KNOT}
    for seed, n in enumerate([2, 3, 4, 5, 6, 8, 10, 12]):
        rng = random.Random(seed)
        names = string.ascii_lowercase[:n]
        p = rng.uniform(0.1, 0.5)
        attacks = {(x, y) for x in names for y in names if rng.random() < p}
        found[f"random-{seed}-n{n}"] = ArgumentationFramework(frozenset(names), attacks)
    found["mutual-4"] = mutual_attacks(4)
    found["knots-3"] = knot_copies(3)
    return found


def _invocations(af):
    """solve (plain, --json, each engine, --cross-check), check on one preferred
    and one non-preferred set, query both ways, translate alpha|gamma|lambda
    to asp|dimacs, and admissible."""
    calls = [["solve"], ["solve", "--json"], ["solve", "--cross-check"]]
    calls += [["solve", "--engine", e] for e in ("alpha", "gamma", "lambda", "oracle")]
    first = sorted(preferred_oracle(af)[0])
    # a proper subset of a preferred extension is never preferred; with only
    # the empty extension, the set of all arguments is not preferred either
    other = first[:-1] if first else sorted(af.arguments)
    calls += [["check", *first], ["check", *other]]
    argument = min(af.arguments)
    calls += [["query", "--brave", argument], ["query", "--cautious", argument]]
    targets = ("alpha", "beta", "gamma", "lambda", "stable-fragment")
    calls += [["translate", t, "--emit", e] for t in targets for e in ("asp", "dimacs")]
    calls.append(["admissible"])
    return calls


def _run(name, argv, text):
    """Run `argv` on `text` through `python -m argstable` and return the
    recording's entry for what it printed."""
    proc = run_argstable(argv, input=text.encode("utf-8"), capture_output=True, timeout=120)
    out = proc.stdout.decode("utf-8")
    entry = {"name": name, "argv": argv, "code": proc.returncode, "stderr": proc.stderr.decode("utf-8")}
    if argv[0] == "translate":
        entry["stdout_sha256"] = _digest(out)
    else:
        entry["stdout"] = out
    return entry


# absent only while the recording is first made
GOLDEN = (
    json.loads(DATA.read_text(encoding="utf-8")) if DATA.exists() else {"frameworks": {}, "cases": []}
)


@pytest.mark.parametrize(
    "case", GOLDEN["cases"], ids=lambda c: f"{c['name']}:{' '.join(c['argv'])}"
)
def test_cli_output_is_unchanged(case, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(GOLDEN["frameworks"][case["name"]]))
    code = main(case["argv"])
    captured = capsys.readouterr()
    assert code == case["code"]
    assert captured.err == case["stderr"]
    if "stdout_sha256" in case:
        assert _digest(captured.out) == case["stdout_sha256"]
    else:
        assert captured.out == case["stdout"]


@pytest.mark.parametrize(
    "case", [c for c in GOLDEN["cases"] if c["name"] == "knot"], ids=lambda c: " ".join(c["argv"])
)
def test_knot_replays_through_a_process(case):
    assert _run(case["name"], case["argv"], GOLDEN["frameworks"]["knot"]) == case


def test_recording_covers_the_documented_invocations():
    assert len(GOLDEN["frameworks"]) >= 9
    sizes = {len(parse_apx(text).arguments) for text in GOLDEN["frameworks"].values()}
    assert min(sizes) <= 2 and max(sizes) >= 12
    assert len(GOLDEN["cases"]) == 22 * len(GOLDEN["frameworks"])


if __name__ == "__main__":
    frameworks = {name: af.to_apx() for name, af in _frameworks().items()}
    cases = [
        _run(name, argv, frameworks[name])
        for name, af in _frameworks().items()
        for argv in _invocations(af)
    ]
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(
        json.dumps({"frameworks": frameworks, "cases": cases}, indent=1) + "\n",
        encoding="utf-8",
    )
