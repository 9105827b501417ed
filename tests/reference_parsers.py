"""The APX and TGF parsers as they were before either format was parsed
with bulk string operations: a character loop for APX and a
`str.splitlines` loop that strips each line for TGF, both building the
framework through the validating constructor.  They are the reference the
parsers in `argstable.framework` are tested against, result and error
alike."""

import re

from argstable import ArgumentationFramework, ParseError

_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_APX_FACT = re.compile(
    r"(?P<pred>[A-Za-z][A-Za-z0-9_]*)\s*\(\s*(?P<first>[A-Za-z][A-Za-z0-9_]*)\s*"
    r"(?:,\s*(?P<second>[A-Za-z][A-Za-z0-9_]*)\s*)?\)\s*\."
)


def _valid_name(name: str) -> bool:
    return bool(_NAME.match(name))


def _line_col(text: str, pos: int) -> tuple[int, int]:
    line = text.count("\n", 0, pos) + 1
    last_nl = text.rfind("\n", 0, pos)
    return line, pos - last_nl


def reference_parse_apx(text: str) -> ArgumentationFramework:
    facts = []
    pos, end = 0, len(text)
    while True:
        while pos < end:
            ch = text[pos]
            if ch.isspace():
                pos += 1
            elif ch == "%":
                nl = text.find("\n", pos)
                pos = end if nl < 0 else nl + 1
            else:
                break
        if pos >= end:
            break
        m = _APX_FACT.match(text, pos)
        if not m:
            raise ParseError(
                "expected a fact of the form arg(<name>). or att(<name>,<name>).",
                *_line_col(text, pos),
            )
        pred, first, second = m.group("pred"), m.group("first"), m.group("second")
        if pred == "arg":
            if second is not None:
                raise ParseError("arg takes a single name", *_line_col(text, pos))
        elif pred == "att":
            if second is None:
                raise ParseError("att takes two names", *_line_col(text, pos))
        else:
            raise ParseError(f"unknown predicate {pred!r}", *_line_col(text, pos))
        facts.append((pred, first, second, pos))
        pos = m.end()

    arguments = {name for pred, name, _, _ in facts if pred == "arg"}
    attacks = set()
    for pred, first, second, at in facts:
        if pred != "att":
            continue
        for name in (first, second):
            if name not in arguments:
                raise ParseError(
                    f"att references undeclared argument {name!r}", *_line_col(text, at)
                )
        attacks.add((first, second))
    return ArgumentationFramework(frozenset(arguments), frozenset(attacks))


def reference_parse_tgf(text: str) -> ArgumentationFramework:
    nodes = set()
    edges = set()
    separator_seen = False
    line_count = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line_count = lineno
        line = raw.strip()
        if not line:
            continue
        if not separator_seen:
            if line == "#":
                separator_seen = True
                continue
            tokens = line.split()
            if len(tokens) != 1:
                raise ParseError("expected a single node name per line", lineno, 1)
            if not _valid_name(tokens[0]):
                raise ParseError(f"invalid node name {tokens[0]!r}", lineno, 1)
            nodes.add(tokens[0])
        else:
            tokens = line.split()
            if len(tokens) != 2:
                raise ParseError("expected an edge line '<src> <dst>'", lineno, 1)
            for name in tokens:
                if not _valid_name(name):
                    raise ParseError(f"invalid node name {name!r}", lineno, 1)
                if name not in nodes:
                    raise ParseError(f"edge references undeclared node {name!r}", lineno, 1)
            edges.add((tokens[0], tokens[1]))
    if not separator_seen:
        raise ParseError("missing '#' separator between nodes and edges", line_count + 1, 1)
    return ArgumentationFramework(frozenset(nodes), frozenset(edges))
