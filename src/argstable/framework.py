"""Abstract argumentation frameworks: a set of arguments plus an attack relation.

Two text formats are supported.  APX consists of ``arg(x).`` and ``att(x,y).``
facts with ``%`` comments; TGF lists one node name per line, a ``#`` separator,
then ``src dst`` edge lines.  Serialization is canonical (lexicographic), so
parse/serialize round-trips are stable.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Iterable, NamedTuple

from .errors import ParseError, UnknownArgumentError

_N = r"[A-Za-z][A-Za-z0-9_]*"
_NAME = re.compile(_N + r"\Z")
# Whitespace and `%` comments, then an optional fact: `arg(x).` in group 1,
# `att(x,y).` in groups 2-4 ("att", x, y), and any other fact shape, an
# error, in groups 5-7; `lastindex` tells them apart.  No quantifier is
# nested over whitespace, which would backtrack exponentially.  The scanners
# are compiled on first use, through `re`'s cache, so a process compiles only
# the one for the format it reads.
_APX = (
    r"\s*(?:%[^\n]*\s*)*"
    rf"(?:arg\s*\(\s*({_N})\s*\)\s*\."
    rf"|(att)\s*\(\s*({_N})\s*,\s*({_N})\s*\)\s*\."
    rf"|({_N})\s*\(\s*({_N})\s*(?:,\s*({_N})\s*)?\)\s*\.)?"
)
# The characters `str.splitlines` ends a line at; blanks are the other
# whitespace, which `str.split` splits a line at.
_BREAK = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_BLANK = rf"[^\S{_BREAK}]"
# Blank lines, then an optional line ended by a break or the end of the
# text: a name in group 1 and maybe a second in group 2, or `#` in group 3.
_TGF = rf"\s*(?:(?:({_N})(?:{_BLANK}+({_N}))?|(#)){_BLANK}*(?:[{_BREAK}]|\Z))?"


def _valid_name(name: str) -> bool:
    return bool(_NAME.match(name))


class _FrameworkFields(NamedTuple):
    arguments: frozenset[str]
    attacks: frozenset[tuple[str, str]]


class ArgumentationFramework(_FrameworkFields):
    """Immutable framework value; attacks may only reference declared arguments."""

    __slots__ = ()

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

    def attackers(self, argument: str) -> frozenset[str]:
        """Every argument with an attack onto `argument`."""
        self._known(argument)
        return frozenset(source for source, target in self.attacks if target == argument)

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
        """Conflict-free, and every attacker of a member is attacked by one:
        the conflict test stops at the first conflict, then one pass over the
        attacks finds what the set attacks."""
        s = self._subset(members)
        if not self.is_conflict_free(s):
            return False
        attacked = {target for source, target in self.attacks if source in s}
        return all(source in attacked for source, target in self.attacks if target in s)

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


def _framework(arguments: frozenset[str],
               attacks: frozenset[tuple[str, str]]) -> ArgumentationFramework:
    """A framework built without `ArgumentationFramework`'s checks, for the
    parsers, whose grammar already admits only valid names and whose
    scanners reject an undeclared endpoint."""
    return tuple.__new__(ArgumentationFramework, (arguments, attacks))


def _line_col(text: str, pos: int) -> tuple[int, int]:
    line = text.count("\n", 0, pos) + 1
    last_nl = text.rfind("\n", 0, pos)
    return line, pos - last_nl


def parse_apx(text: str) -> ArgumentationFramework:
    """Parse APX facts. Duplicate declarations are tolerated; an att fact whose
    endpoint is never declared is an error, wherever in the file it appears.

    One scanner reads the text: each match of `_APX` skips whitespace and
    `%` comments and takes one fact.  A malformed fact stops it with an error
    at the fact's line and column; the endpoints are checked once every
    `arg` fact has been read."""
    arguments, attacks, where = [], [], []
    for m in re.finditer(_APX, text):
        kind = m.lastindex
        if kind == 1:
            arguments.append(m[1])
        elif kind == 4:
            attacks.append(m.group(3, 4))
            where.append(m.start(2))
        elif kind is None:
            # nothing fact-like after the whitespace and comments
            if m.end() == len(text):
                break
            raise ParseError(
                "expected a fact of the form arg(<name>). or att(<name>,<name>).",
                *_line_col(text, m.end()),
            )
        else:
            pred, at = m[5], _line_col(text, m.start(5))
            if pred == "arg":
                raise ParseError("arg takes a single name", *at)
            if pred == "att":
                raise ParseError("att takes two names", *at)
            raise ParseError(f"unknown predicate {pred!r}", *at)
    declared = frozenset(arguments)
    if not declared.issuperset(chain.from_iterable(attacks)):
        for pair, at in zip(attacks, where):
            for name in pair:
                if name not in declared:
                    raise ParseError(
                        f"att references undeclared argument {name!r}", *_line_col(text, at)
                    )
    return _framework(declared, frozenset(attacks))


def parse_tgf(text: str) -> ArgumentationFramework:
    """Parse TGF: node names, one per line, then ``#``, then ``src dst`` edges.

    One scanner reads the text: each match of `_TGF` skips blank lines and
    takes one line, a name, a name pair or ``#``.  Lines are numbered as
    `str.splitlines` splits them, so ``\\r\\n``, ``\\x0c``, ``\\x1c`` and
    U+2028, among others, end a line.  The first line out of place, by its
    shape, its names or an undeclared endpoint, stops the scan with an error
    at its line."""
    nodes: set[str] = set()
    edges = []
    separated = False
    for m in re.finditer(_TGF, text):
        kind = m.lastindex
        if kind == 2 and separated:
            source, target = m.group(1, 2)
            if source not in nodes or target not in nodes:
                raise _tgf_error(text, m.start(1), nodes, separated)
            edges.append((source, target))
        elif kind == 1 and not separated:
            nodes.add(m[1])
        elif kind == 3 and not separated:
            separated = True
        elif kind is None and m.end() == len(text):
            break
        else:
            start = m.end() if kind is None else m.start(3 if kind == 3 else 1)
            raise _tgf_error(text, start, nodes, separated)
    if not separated:
        raise ParseError("missing '#' separator between nodes and edges",
                         len(text.splitlines()) + 1, 1)
    return _framework(frozenset(nodes), frozenset(edges))


def _tgf_error(text: str, pos: int, nodes: set[str], separated: bool) -> ParseError:
    """The error of the TGF line whose first non-blank character is at `pos`,
    as the line rules read: its number of tokens, then each name's shape and,
    in an edge, whether it is declared."""
    lineno = len((text[:pos] + "x").splitlines())  # the x keeps the last line counted
    tokens = text[pos:].splitlines()[0].split()
    if not separated:
        if len(tokens) != 1:
            return ParseError("expected a single node name per line", lineno, 1)
        return ParseError(f"invalid node name {tokens[0]!r}", lineno, 1)
    if len(tokens) != 2:
        return ParseError("expected an edge line '<src> <dst>'", lineno, 1)
    # the scanner stops only at a line with an invalid or undeclared name
    name = next(x for x in tokens if not _valid_name(x) or x not in nodes)
    if not _valid_name(name):
        return ParseError(f"invalid node name {name!r}", lineno, 1)
    return ParseError(f"edge references undeclared node {name!r}", lineno, 1)
