"""Compile a framework into propositional theories over defeat atoms.

Each argument x gets a defeat atom d(x).  The builders here produce, per
attack (b, a), clauses saying that a is defeated unless b is, and that a is
defeated once all of b's attackers are.  Depending on the builder that comes
out as a theory with default negation (`alpha`), a theory over the argument
atoms themselves (`beta`), or a negation-free disjunctive program (`gamma`);
`lambda_` adds acceptance rules so stable models carry the extension itself.
"""

from __future__ import annotations

from typing import Iterable

from .errors import UnknownArgumentError
from .framework import ArgumentationFramework
from .logic import AtomMap, Clause, Literal, Program


def defeat_atom(name: str) -> str:
    return f"d({name})"


def defeat_map(af: ArgumentationFramework) -> AtomMap:
    return AtomMap(forward={x: defeat_atom(x) for x in af.arguments})


def _defeat_signature(af: ArgumentationFramework) -> frozenset[str]:
    return frozenset(defeat_atom(x) for x in af.arguments)


def alpha(af: ArgumentationFramework) -> Program:
    """Defeat theory with default negation.

    For each attack (b, a): `d(a) :- not d(b)` and `d(a) :- d(c1), ..., d(ck)`
    where the c are the attackers of b; no attackers means an empty body.
    """
    attackers = af.attacker_index
    clauses = set()
    for source, target in af.attacks:
        d_target = Literal(defeat_atom(target))
        clauses.add(Clause(head=(d_target,), body=(Literal(defeat_atom(source), 1),)))
        defenders = tuple(Literal(defeat_atom(c)) for c in attackers[source])
        clauses.add(Clause(head=(d_target,), body=defenders))
    return Program(frozenset(clauses), _defeat_signature(af))


def beta(af: ArgumentationFramework) -> Program:
    """Acceptance theory over the argument atoms themselves.

    For each attack (b, a): `not b :- a` and `c1 v ... v ck :- a` where the c
    attack b; with no such c the head is empty, a constraint on a.  Its
    maximal models are the preferred extensions.
    """
    attackers = af.attacker_index
    clauses = set()
    for source, target in af.attacks:
        body = (Literal(target),)
        clauses.add(Clause(head=(Literal(source, 1),), body=body))
        helpers = tuple(Literal(c) for c in attackers[source])
        clauses.add(Clause(head=helpers, body=body))
    return Program(frozenset(clauses), af.arguments)


def gamma(af: ArgumentationFramework) -> Program:
    """Negation-free disjunctive defeat program.

    For each attack (b, a): `d(a) v d(b)` and the defender rule as in `alpha`.
    A self-attack collapses the disjunction to a single head atom.
    """
    attackers = af.attacker_index
    clauses = set()
    for source, target in af.attacks:
        head = tuple(
            Literal(a) for a in sorted({defeat_atom(target), defeat_atom(source)})
        )
        clauses.add(Clause(head=head))
        defenders = tuple(Literal(defeat_atom(c)) for c in attackers[source])
        clauses.add(Clause(head=(Literal(defeat_atom(target)),), body=defenders))
    return Program(frozenset(clauses), _defeat_signature(af))


def lambda_(af: ArgumentationFramework) -> Program:
    """`gamma` plus an acceptance rule `x :- not d(x)` per argument, so each
    stable model lists the accepted arguments next to the defeated ones."""
    base = gamma(af)
    acceptance = frozenset(
        Clause(head=(Literal(x),), body=(Literal(defeat_atom(x), 1),))
        for x in af.arguments
    )
    return Program(base.clauses | acceptance, base.signature | af.arguments)


def stable_fragment(af: ArgumentationFramework) -> Program:
    """Only the negative-body half of `alpha`: `d(a) :- not d(b)` per attack.
    Its stable models correspond to the stable extensions."""
    clauses = frozenset(
        Clause(
            head=(Literal(defeat_atom(target)),),
            body=(Literal(defeat_atom(source), 1),),
        )
        for source, target in af.attacks
    )
    return Program(clauses, _defeat_signature(af))


def compl(af: ArgumentationFramework, s: Iterable[str]) -> frozenset[str]:
    """Defeat atoms of the arguments outside s."""
    members = frozenset(s)
    stray = members - af.arguments
    if stray:
        raise UnknownArgumentError(f"unknown arguments: {sorted(stray)}")
    return frozenset(defeat_atom(x) for x in af.arguments - members)


def decode(af: ArgumentationFramework, m: Iterable[str]) -> frozenset[str]:
    """Arguments whose defeat atom is absent from m; other atoms are ignored."""
    present = frozenset(m)
    return frozenset(x for x in af.arguments if defeat_atom(x) not in present)
