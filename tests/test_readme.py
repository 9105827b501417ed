"""README examples, run as written.

The `$ argstable ...` lines of the command-line block run through
`python -m argstable`, in a directory holding the knot that its
`$ cat knot.apx` shows, and print the lines shown under them: a negative
verdict exits 3, and any other line exits 0, those shown with no output
too.  The Python block runs as written.
"""

import re
import shlex
from pathlib import Path

import pytest

from argstable import preferred_oracle
from tests.common import run_argstable

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(language, first_line):
    """The text of the README's code block in `language` that starts with
    `first_line`."""
    for body in re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S):
        if body.startswith(first_line):
            return body
    raise LookupError(f"no {language} block starts with {first_line!r}")


def _sessions():
    """(command, the lines it prints) per `$ ` line of the shell session."""
    sessions = []
    for line in _block("sh", "$ cat knot.apx").splitlines():
        if line.startswith("$ "):
            sessions.append((line[2:], []))
        elif line:
            sessions[-1][1].append(line)
    return sessions


SESSIONS = _sessions()
KNOT = "\n".join(dict(SESSIONS)["cat knot.apx"]) + "\n"
COMMANDS = [(c, out) for c, out in SESSIONS if c.startswith("argstable ")]


def test_the_block_shows_every_example():
    shown = [c for c, out in COMMANDS if out]
    assert len(shown) == 4 and len(COMMANDS) == 7
    assert KNOT.startswith("arg(a). arg(b).")


@pytest.mark.parametrize("command, out", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_command_prints_what_the_readme_shows(tmp_path, command, out):
    (tmp_path / "knot.apx").write_text(KNOT)
    argv = shlex.split(command, comments=True)[1:]
    proc = run_argstable(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    negative = any(re.match(r"not preferred|\S+ is (bravely|cautiously) false", line)
                   for line in out)
    assert (proc.returncode, proc.stderr) == (3 if negative else 0, "")
    if out:
        assert proc.stdout.splitlines() == out


def test_library_block_runs():
    names = {}
    exec(_block("python", "from argstable import"), names)
    af, report, verdict = names["af"], names["report"], names["verdict"]
    assert report.extensions == tuple(preferred_oracle(af))
    assert verdict.holds and verdict.evidence is not None
