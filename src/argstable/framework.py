"""Abstract argumentation frameworks: a set of arguments plus an attack relation.

Two text formats are supported.  APX consists of ``arg(x).`` and ``att(x,y).``
facts with ``%`` comments; TGF lists one node name per line, a ``#`` separator,
then ``src dst`` edge lines.  Serialization is canonical (lexicographic), so
parse/serialize round-trips are stable.
"""

from __future__ import annotations

import re
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .errors import ParseError, UnknownArgumentError

_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_APX_FACT = re.compile(
    r"(?P<pred>[A-Za-z][A-Za-z0-9_]*)\s*\(\s*(?P<first>[A-Za-z][A-Za-z0-9_]*)\s*"
    r"(?:,\s*(?P<second>[A-Za-z][A-Za-z0-9_]*)\s*)?\)\s*\."
)


def _valid_name(name: str) -> bool:
    return bool(_NAME.match(name))


class _FrameworkFields(NamedTuple):
    arguments: frozenset[str]
    attacks: frozenset[tuple[str, str]]


class ArgumentationFramework(_FrameworkFields):
    """Immutable framework value; attacks may only reference declared arguments.
    A `NamedTuple` with a `__dict__`, which caches `attacker_index`."""

    def __new__(cls, arguments: Iterable[str], attacks: Iterable[tuple[str, str]]):
        arguments = frozenset(arguments)
        attacks = frozenset(tuple(p) for p in attacks)
        for name in arguments:
            if not isinstance(name, str) or not _valid_name(name):
                raise ValueError(f"invalid argument name: {name!r}")
        for source, target in attacks:
            if source not in arguments or target not in arguments:
                raise ValueError(
                    f"attack ({source},{target}) references an undeclared argument"
                )
        return tuple.__new__(cls, (arguments, attacks))

    # `_replace` builds through `_make`, so it too validates
    _make = classmethod(lambda cls, fields: cls(*fields))

    @cached_property
    def attacker_index(self) -> Mapping[str, tuple[str, ...]]:
        """Each argument's attackers in sorted order, built on first use."""
        table: dict[str, list[str]] = {x: [] for x in self.arguments}
        for source, target in sorted(self.attacks):
            table[target].append(source)
        return MappingProxyType({x: tuple(s) for x, s in table.items()})

    def attackers(self, argument: str) -> frozenset[str]:
        """Every argument with an attack onto `argument`."""
        self._known(argument)
        return frozenset(self.attacker_index[argument])

    def is_conflict_free(self, members: Iterable[str]) -> bool:
        s = self._subset(members)
        return not any((x, y) in self.attacks for x in s for y in s)

    def is_acceptable(self, argument: str, defenders: Iterable[str]) -> bool:
        """True when every attacker of `argument` is attacked from `defenders`."""
        self._known(argument)
        s = self._subset(defenders)
        return all(
            any((d, attacker) in self.attacks for d in s)
            for attacker in self.attackers(argument)
        )

    def is_admissible(self, members: Iterable[str]) -> bool:
        s = self._subset(members)
        return self.is_conflict_free(s) and all(self.is_acceptable(m, s) for m in s)

    def to_apx(self) -> str:
        lines = [f"arg({a})." for a in sorted(self.arguments)]
        lines += [f"att({a},{b})." for a, b in sorted(self.attacks)]
        return "".join(line + "\n" for line in lines)

    def to_tgf(self) -> str:
        lines = sorted(self.arguments)
        lines.append("#")
        lines += [f"{a} {b}" for a, b in sorted(self.attacks)]
        return "".join(line + "\n" for line in lines)

    def _known(self, argument: str) -> None:
        if argument not in self.arguments:
            raise UnknownArgumentError(f"unknown argument: {argument!r}")

    def _subset(self, members: Iterable[str]) -> frozenset[str]:
        s = frozenset(members)
        stray = s - self.arguments
        if stray:
            raise UnknownArgumentError(f"unknown arguments: {sorted(stray)}")
        return s


def _line_col(text: str, pos: int) -> tuple[int, int]:
    line = text.count("\n", 0, pos) + 1
    last_nl = text.rfind("\n", 0, pos)
    return line, pos - last_nl


def parse_apx(text: str) -> ArgumentationFramework:
    """Parse APX facts. Duplicate declarations are tolerated; an att fact whose
    endpoint is never declared is an error, wherever in the file it appears."""
    facts: list[tuple[str, str, str | None, int]] = []
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


def parse_tgf(text: str) -> ArgumentationFramework:
    """Parse TGF: node names, one per line, then ``#``, then ``src dst`` edges."""
    nodes: set[str] = set()
    edges: set[tuple[str, str]] = set()
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
