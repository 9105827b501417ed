"""Command line front end.

    argstable solve      [--input PATH|-] [--format apx|tgf] [--engine E] [--json] [--cross-check]
    argstable check      [--input ...] [--format ...] NAME...
    argstable query      [--input ...] [--format ...] (--brave | --cautious) NAME
    argstable translate  [--input ...] [--format ...] TARGET [--emit asp|dimacs]
    argstable admissible [--input ...] [--format ...]

`solve --cross-check` runs the three engines and the oracle one after another
and compares their extensions.

Exit status: 0 success or positive verdict, 1 input error, or input or
output that cannot be read or written (a closed descriptor or pipe, say), 2
exhaustive bound exceeded, 3 negative verdict, 4 engine disagreement under
--cross-check, 130 interrupted.
A non-negative integer in ARGSTABLE_BOUND overrides the exhaustive bounds.
"""

from __future__ import annotations

import errno
import io
import os
import sys

from .errors import BoundExceededError, ParseError, UnknownArgumentError

# `--engine`'s choices, in the order of the `--cross-check` runs, and
# `translate`'s targets; named here, so that `--help` and a usage error load
# nothing of the package but this module and `errors`
_ENGINE_NAMES = ["alpha", "gamma", "lambda", "oracle"]
_TARGET_NAMES = ["alpha", "beta", "gamma", "lambda", "stable-fragment"]


def _import_commands() -> None:
    """Bind the names the commands use in this module, on the first call:
    from `main`'s `try`, so that an interrupt while the package loads ends
    like any other, or from `__getattr__`, for a caller that looks one up
    before `main` runs, to wrap it, say.  `_ENGINES` is bound last, so a
    call that was cut short runs again whole."""
    global json, ArgumentationFramework, parse_apx, parse_tgf, query, check_preferred_unsat
    global enumerate_admissible, _TARGETS, _ENGINES
    if "_ENGINES" in globals():
        return
    import json

    from . import engines, oracle, translate
    from .engines import check_preferred_unsat, query
    from .framework import ArgumentationFramework, parse_apx, parse_tgf
    from .oracle import enumerate_admissible

    # each target's integer rules, which `translate` emits with no `Program` built
    _TARGETS = {name: getattr(translate, name.replace("-", "_") + "_rules")
                for name in _TARGET_NAMES}
    # each engine's `preferred_via_` function; the oracle's extensions, with no witness
    solvers = [getattr(engines, "preferred_via_" + name) for name in _ENGINE_NAMES[:-1]]
    solvers.append(lambda af, **bound: engines.SolveReport(
        "oracle", tuple(oracle.preferred_oracle(af, **bound)), {}))
    _ENGINES = dict(zip(_ENGINE_NAMES, solvers))


def __getattr__(name: str):
    # the import system probes for `__path__` and the like, which bind nothing
    if not name.startswith("__"):
        _import_commands()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _UsageError(Exception):
    pass


def _build_parser():
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            sys.stderr.write(self.format_usage())
            raise _UsageError(message)

        def print_help(self, file=None):
            # argparse would write to standard error when standard output
            # is closed, and drop a failed write; this raises, as a
            # command's output does
            out = _stream(sys.stdout)
            out.write(self.format_help())
            out.flush()

    parser = _Parser(prog="argstable", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", default="-", metavar="PATH",
                        help="framework file, or - for standard input (default)")
    common.add_argument("--format", default="apx", choices=["apx", "tgf"])

    p = sub.add_parser("solve", parents=[common], help="list the preferred extensions")
    p.add_argument("--engine", default="gamma", choices=_ENGINE_NAMES)
    p.add_argument("--json", action="store_true",
                   help="one JSON object per extension, with its witness model")
    p.add_argument("--cross-check", action="store_true",
                   help="run every engine and fail on disagreement")

    p = sub.add_parser("check", parents=[common],
                       help="decide whether a set is a preferred extension")
    p.add_argument("members", nargs="*", metavar="NAME")

    p = sub.add_parser("query", parents=[common],
                       help="brave or cautious acceptance of one argument")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--brave", action="store_true")
    mode.add_argument("--cautious", action="store_true")
    p.add_argument("argument", metavar="NAME")

    p = sub.add_parser("translate", parents=[common], help="emit a translation of the framework")
    p.add_argument("target", choices=_TARGET_NAMES)
    p.add_argument("--emit", default="asp", choices=["asp", "dimacs"])

    sub.add_parser("admissible", parents=[common], help="list every admissible set")
    return parser


def _bound() -> dict[str, int]:
    """The keyword arguments that pass ARGSTABLE_BOUND on to every exhaustive
    call: none when it is unset, so each call keeps its own default."""
    raw = os.environ.get("ARGSTABLE_BOUND")
    if raw is None:
        return {}
    try:
        bound = int(raw)
    except ValueError:
        raise _UsageError(f"ARGSTABLE_BOUND is not an integer: {raw!r}")
    if bound < 0:
        raise _UsageError(f"ARGSTABLE_BOUND is negative: {raw!r}")
    return {"bound": bound}


def _stream(stream):
    """Standard input or output, or the error of a closed descriptor: with
    its descriptor closed at start-up, Python sets the stream to None."""
    if stream is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return stream


def _load(ns) -> ArgumentationFramework:
    try:
        # a leading byte-order mark, as some editors write, is no part of the text
        if ns.input == "-":
            text = _stream(sys.stdin).read().removeprefix("\ufeff")
        else:
            with open(ns.input, encoding="utf-8-sig") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {ns.input}: {exc}")
    return parse_apx(text) if ns.format == "apx" else parse_tgf(text)


def _format_set(s) -> str:
    return "{" + ",".join(sorted(s)) + "}"


def _cmd_solve(ns, af: ArgumentationFramework, bound: dict) -> int:
    reports = {name: engine(af, **bound) for name, engine in _ENGINES.items()
               if ns.cross_check or name == ns.engine}
    if len({r.extensions for r in reports.values()}) != 1:
        for name, r in reports.items():
            listed = " ".join(_format_set(e) for e in r.extensions) or "(none)"
            print(f"argstable: {name}: {listed}", file=sys.stderr)
        print("argstable: error: engines disagree", file=sys.stderr)
        return 4
    report = reports[ns.engine]
    for extension in report.extensions:
        if ns.json:
            witness = report.witnesses.get(extension)
            print(json.dumps({
                "engine": report.engine,
                "extension": sorted(extension),
                "witness": sorted(witness) if witness is not None else None,
            }))
        else:
            print(_format_set(extension))
    return 0


def _cmd_check(ns, af: ArgumentationFramework, bound: dict) -> int:
    verdict = check_preferred_unsat(af, frozenset(ns.members), **bound)
    if verdict.holds:
        print("preferred")
        return 0
    if verdict.failure == "not-a-model":
        print("not preferred: the complement is not a model of the defeat theory")
    else:
        print(
            "not preferred: certificate formula is satisfiable;"
            f" counter-model {_format_set(verdict.counter_model)}"
        )
    return 3


def _cmd_query(ns, af: ArgumentationFramework, bound: dict) -> int:
    mode = "brave" if ns.brave else "cautious"
    verdict = query(af, ns.argument, mode, **bound)
    outcome = "true" if verdict.holds else "false"
    evidence = "" if verdict.evidence is None else f", evidenced by {_format_set(verdict.evidence)}"
    print(f"{ns.argument} is {mode}ly {outcome}{evidence}")
    return 0 if verdict.holds else 3


def _cmd_translate(ns, af: ArgumentationFramework, bound: dict) -> int:
    theory = _TARGETS[ns.target](af)
    _stream(sys.stdout).write(theory.to_asp() if ns.emit == "asp" else theory.to_dimacs())
    return 0


def _cmd_admissible(ns, af: ArgumentationFramework, bound: dict) -> int:
    for s in enumerate_admissible(af, **bound):
        print(_format_set(s))
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "check": _cmd_check,
    "query": _cmd_query,
    "translate": _cmd_translate,
    "admissible": _cmd_admissible,
}


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        bound = _bound()
        _import_commands()
        code = _COMMANDS[ns.command](ns, _load(ns), bound)
        # `print` drops its text when standard output is closed; this raises
        _stream(sys.stdout).flush()
        return code
    except OSError as exc:
        # `_load` reports its own, so this is a write to standard output that
        # failed; point it at the null device so the flush at exit is silent
        if sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        message, code = f"cannot write output: {exc.strerror}", 1
    except (_UsageError, ParseError, UnknownArgumentError, BoundExceededError) as exc:
        message, code = exc, 2 if isinstance(exc, BoundExceededError) else 1
    except KeyboardInterrupt:
        message, code = "interrupted", 130
    print(f"argstable: error: {message}", file=sys.stderr)
    return code


def entry_point() -> None:
    out = sys.stdout
    if isinstance(getattr(out, "buffer", None), io.RawIOBase):
        # unbuffered, as under `python -u`: a raw write to a pipe whose reader
        # goes away may take part of the text and drop the rest unreported; a
        # buffered layer writes the rest, meets the closed pipe and raises
        sys.stdout = io.TextIOWrapper(
            io.BufferedWriter(io.FileIO(out.fileno(), "w", closefd=False)),
            encoding=out.encoding, errors=out.errors, line_buffering=out.line_buffering,
        )
    raise SystemExit(main())
