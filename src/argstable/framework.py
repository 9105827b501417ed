"""Abstract argumentation frameworks: a set of arguments plus an attack relation.

Two text formats are supported.  APX consists of ``arg(x).`` and ``att(x,y).``
facts with ``%`` comments; TGF lists one node name per line, a ``#`` separator,
then ``src dst`` edge lines.  Serialization is canonical (lexicographic), so
parse/serialize round-trips are stable.

Two structural operations serve the engines: `grounded()`, the grounded
labelling as (IN, OUT) in linear time, and `restrict(U)`, the framework
AF↓U on the arguments of U with the attacks between them.

Both parsers do their per-fact work in C-level string and `re` calls: APX
text is cut into facts and comments by one `re.split`, TGF text by
`str.splitlines` and `str.split`.  Only rejected APX text is read again,
on the same split's matches, for the first error's line and column.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Iterable, NamedTuple

from .errors import ParseError, UnknownArgumentError

_N = r"[A-Za-z][A-Za-z0-9_]*"
# The pieces of APX text: a `%` comment, `arg(x).` with x in group 1, or
# `att(x,y).` with x and y in groups 2 and 3.  `re.split` keeps the three
# groups, so every fourth piece is the text between two of them, which must
# be blank.  A comment is a piece of its own, so no fact inside it is read.
_APX_PIECES = (
    r"%[^\n]*"
    rf"|arg\s*\(\s*({_N})\s*\)\s*\."
    rf"|att\s*\(\s*({_N})\s*,\s*({_N})\s*\)\s*\."
)
# The shape of any APX fact, with the predicate in group 1: it names the
# error that `_apx_error` finds where no piece starts.  No pattern nests a
# quantifier over whitespace, which would backtrack exponentially.  Both
# patterns are compiled on first use, through `re`'s cache, so only a process
# that reads APX compiles the first, and only one that reads bad APX `_FACT`.
_FACT = rf"({_N})\s*\(\s*{_N}\s*(?:,\s*{_N}\s*)?\)\s*\."


def _valid_name(name: str) -> bool:
    """`name` matches `[A-Za-z][A-Za-z0-9_]*`: an ASCII identifier that
    does not start with `_`."""
    return name.isascii() and name.isidentifier() and name[0] != "_"


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

    def grounded(self) -> tuple[frozenset[str], frozenset[str]]:
        """The grounded labelling as (IN, OUT): IN is the grounded extension,
        the least fixed point of the characteristic function (Dung 1995),
        and OUT the arguments it attacks.  Labelling (Modgil & Caminada
        2009), in O(|A| + |R|) with no recursion: an argument whose
        attackers are all OUT goes IN, and what it attacks goes OUT.  Each
        argument keeps the count of its attackers not yet OUT, and a
        worklist holds the arguments whose count reached 0.  With no
        unattacked argument both sets are empty, found after one pass."""
        attacks = self.attacks
        unattacked = self.arguments.difference([t for _, t in attacks])
        if not unattacked:
            return frozenset(), frozenset()
        targets: dict[str, list[str]] = {}
        count = dict.fromkeys(self.arguments, 0)
        for s, t in attacks:
            targets.setdefault(s, []).append(t)
            count[t] += 1
        accepted, rejected, todo = set(), set(), list(unattacked)
        while todo:
            x = todo.pop()
            accepted.add(x)
            for y in targets.get(x, ()):
                if y not in rejected:
                    rejected.add(y)
                    for z in targets.get(y, ()):
                        count[z] -= 1
                        if not count[z]:
                            todo.append(z)
        return frozenset(accepted), frozenset(rejected)

    def restrict(self, members: Iterable[str]) -> ArgumentationFramework:
        """AF↓U: the arguments of U with the attacks between them."""
        u = self._subset(members)
        return _framework(u, frozenset([(s, t) for s, t in self.attacks if s in u and t in u]))

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
    parsers, whose grammar already admits only valid names and which reject
    an undeclared endpoint, and for `restrict`, which keeps a checked subset
    of a framework's arguments and only the attacks inside it."""
    return tuple.__new__(ArgumentationFramework, (arguments, attacks))


def _line_col(text: str, pos: int) -> tuple[int, int]:
    line = text.count("\n", 0, pos) + 1
    last_nl = text.rfind("\n", 0, pos)
    return line, pos - last_nl


def parse_apx(text: str) -> ArgumentationFramework:
    """Parse APX facts. Duplicate declarations are tolerated; an att fact whose
    endpoint is never declared is an error, wherever in the file it appears.

    One `re.split` cuts the text into comments and facts.  The text is
    accepted when everything between them is blank and every attack's
    endpoints are declared; the names and pairs come off the pieces by
    slicing.  Other text is read again by `_apx_error`, for the first
    error's line and column."""
    pieces = re.split(_APX_PIECES, text)
    # a comment leaves None in all three groups, an arg fact in the last two
    arguments = set(pieces[1::4])
    attacks = set(zip(pieces[2::4], pieces[3::4]))
    arguments.discard(None)
    attacks.discard((None, None))
    if "".join(pieces[0::4]).strip() or not arguments.issuperset(chain.from_iterable(attacks)):
        raise _apx_error(text, arguments)
    return _framework(frozenset(arguments), frozenset(attacks))


def _apx_error(text: str, declared: set[str]) -> ParseError:
    """The first error of APX text that `parse_apx` rejected, given the
    names its arg facts declare.  It walks the matches of `_APX_PIECES` that
    the split cut on, then the end of the text.  The first non-blank
    character between two of them starts the error, and the `_FACT` shape
    there, or its absence, names it.  No legal fact starts where no piece
    starts, so an `arg` shape there has two names and an `att` shape one.
    When all the text between the pieces is blank, the error is the first
    att fact with an undeclared endpoint."""
    attacks, end = [], 0
    for m in chain(re.finditer(_APX_PIECES, text), [None]):
        start = len(text) if m is None else m.start()
        gap = text[end:start]
        if gap.strip():
            pos = start - len(gap.lstrip())
            fact, at = re.compile(_FACT).match(text, pos), _line_col(text, pos)
            if fact is None:
                return ParseError(
                    "expected a fact of the form arg(<name>). or att(<name>,<name>).", *at
                )
            pred = fact[1]
            if pred == "arg":
                return ParseError("arg takes a single name", *at)
            if pred == "att":
                return ParseError("att takes two names", *at)
            return ParseError(f"unknown predicate {pred!r}", *at)
        if m is None:
            break
        if m[2]:
            attacks.append(m)
        end = m.end()
    for m in attacks:
        for name in m.group(2, 3):
            if name not in declared:
                return ParseError(
                    f"att references undeclared argument {name!r}", *_line_col(text, m.start())
                )


def parse_tgf(text: str) -> ArgumentationFramework:
    """Parse TGF: node names, one per line, then ``#``, then ``src dst`` edges.

    One loop reads the lines of `str.splitlines`, so ``\\r\\n``,
    ``\\x0c``, ``\\x1c`` and U+2028, among others, end a line, and
    `str.split` cuts each line into names.  Blank lines are skipped.  The
    first line out of place, by its number of names, a name's shape or an
    undeclared endpoint, is an error at its line."""
    nodes: set[str] = set()
    edges = []
    separated = False
    lines = text.splitlines()
    for lineno, line in enumerate(lines, 1):
        tokens = line.split()
        if separated:
            # declared nodes are valid names, so an edge needs no name check
            if len(tokens) == 2 and tokens[0] in nodes and tokens[1] in nodes:
                edges.append((tokens[0], tokens[1]))
            elif tokens:
                if len(tokens) != 2:
                    raise ParseError("expected an edge line '<src> <dst>'", lineno, 1)
                for name in tokens:
                    if not _valid_name(name):
                        raise ParseError(f"invalid node name {name!r}", lineno, 1)
                    if name not in nodes:
                        raise ParseError(f"edge references undeclared node {name!r}", lineno, 1)
        elif len(tokens) == 1:
            name = tokens[0]
            if _valid_name(name):
                nodes.add(name)
            elif name == "#":
                separated = True
            else:
                raise ParseError(f"invalid node name {name!r}", lineno, 1)
        elif tokens:
            raise ParseError("expected a single node name per line", lineno, 1)
    if not separated:
        raise ParseError("missing '#' separator between nodes and edges", len(lines) + 1, 1)
    return _framework(frozenset(nodes), frozenset(edges))
