"""Compile a framework into propositional theories over defeat atoms.

Each argument x gets a defeat atom d(x).  The builders here produce, per
attack (b, a), clauses saying that a is defeated unless b is, and that a is
defeated once all of b's attackers are.  Depending on the builder that comes
out as a theory with default negation (`alpha`), a theory over the argument
atoms themselves (`beta`), or a negation-free disjunctive program (`gamma`);
`lambda_` adds acceptance rules so stable models carry the extension itself,
and `stable_fragment` keeps only `alpha`'s negative half.  Each is defined
once, as integer rules (`alpha_rules`, `beta_rules`, `gamma_rules`,
`lambda_rules`, `stable_fragment_rules`), a `NumberedTheory` in canonical
order.  The engines hand the rules to the solver, `argstable translate`
emits them as ASP or DIMACS text, and the public builders turn them into a
`Program`; no builder constructs a `Clause` itself.
"""

from __future__ import annotations

from typing import Iterable

from .errors import UnknownArgumentError
from .framework import ArgumentationFramework
from .logic import AtomMap, NumberedTheory, Program, Rule


def defeat_atom(name: str) -> str:
    return f"d({name})"


def defeat_map(af: ArgumentationFramework) -> AtomMap:
    return AtomMap(forward={x: defeat_atom(x) for x in af.arguments})


def _defeat_atoms(af: ArgumentationFramework) -> list[str]:
    """The defeat atoms in sorted order, atom number i naming the i-th, as
    in the integer rules of `alpha` and `gamma`.  A name sorts as its defeat
    atom does: `)` sorts below every character a name can hold."""
    return [defeat_atom(x) for x in sorted(af.arguments)]


def _numbered(af: ArgumentationFramework):
    """Each argument's number, its place in sorted order from 1, and its
    attackers as positive literals over those numbers, in sorted order.
    Numbers sort as the names do, and as their defeat atoms, so rules over
    them sort into the canonical `Clause` order."""
    number = {x: i for i, x in enumerate(sorted(af.arguments), 1)}
    attackers = {
        x: tuple([(number[c], 0) for c in cs]) for x, cs in af.attacker_index.items()
    }
    return number, attackers


def _defeat_rules(af: ArgumentationFramework, attack_rule) -> NumberedTheory:
    """Per attack (b, a), `attack_rule(a, b)` over the atom numbers of d(a)
    and d(b), and the defender rule `d(a) :- d(c1), ..., d(ck)` where the c
    are the attackers of b; no attackers means an empty body.  The rules come
    deduplicated and sorted, which is the canonical `Clause` order."""
    number, defenders = _numbered(af)
    rules: set[Rule] = set()
    for source, target in af.attacks:
        a = number[target]
        rules.add(attack_rule(a, number[source]))
        rules.add((((a, 0),), defenders[source]))
    return NumberedTheory(_defeat_atoms(af), sorted(rules))


def alpha_rules(af: ArgumentationFramework) -> NumberedTheory:
    """`alpha` as integer rules: per attack (b, a), `d(a) :- not d(b)` and
    the defender rule."""
    return _defeat_rules(af, lambda a, b: (((a, 0),), ((b, 1),)))


def alpha(af: ArgumentationFramework) -> Program:
    """Defeat theory with default negation.

    For each attack (b, a): `d(a) :- not d(b)` and `d(a) :- d(c1), ..., d(ck)`
    where the c are the attackers of b; no attackers means an empty body.
    """
    return alpha_rules(af).program()


def beta_rules(af: ArgumentationFramework) -> NumberedTheory:
    """`beta` as integer rules over the arguments, numbered in sorted order:
    per attack (b, a), `not b :- a` and `c1 v ... v ck :- a`."""
    number, attackers = _numbered(af)
    rules: set[Rule] = set()
    for source, target in af.attacks:
        body = ((number[target], 0),)
        rules.add((((number[source], 1),), body))
        rules.add((attackers[source], body))
    return NumberedTheory(sorted(af.arguments), sorted(rules))


def beta(af: ArgumentationFramework) -> Program:
    """Acceptance theory over the argument atoms themselves.

    For each attack (b, a): `not b :- a` and `c1 v ... v ck :- a` where the c
    attack b; with no such c the head is empty, a constraint on a.  Its
    maximal models are the preferred extensions.
    """
    return beta_rules(af).program()


def gamma_rules(af: ArgumentationFramework) -> NumberedTheory:
    """`gamma` as integer rules: per attack (b, a), `d(a) v d(b)`, its head
    sorted, and the defender rule."""
    def disjunction(a, b):
        return (((min(a, b), 0), (max(a, b), 0)) if a != b else ((a, 0),)), ()

    return _defeat_rules(af, disjunction)


def gamma(af: ArgumentationFramework) -> Program:
    """Negation-free disjunctive defeat program.

    For each attack (b, a): `d(a) v d(b)` and the defender rule as in `alpha`.
    A self-attack collapses the disjunction to a single head atom.
    """
    return gamma_rules(af).program()


def lambda_rules(af: ArgumentationFramework) -> NumberedTheory:
    """`lambda_` as integer rules: `gamma`'s, renumbered over the argument and
    defeat atoms sorted together, plus `x :- not d(x)` per argument x.
    Numbers sort as the atoms they name, so the sorted rules are in canonical
    `Clause` order."""
    base = gamma_rules(af)
    atoms = sorted(base.atoms + list(af.arguments))
    index = {a: i for i, a in enumerate(atoms, 1)}
    new = {v: index[a] for v, a in enumerate(base.atoms, 1)}
    rules = [(tuple([(new[v], n) for v, n in head]), tuple([(new[v], n) for v, n in body]))
             for head, body in base.clauses]
    rules += [(((index[x], 0),), ((index[defeat_atom(x)], 1),)) for x in af.arguments]
    return NumberedTheory(atoms, sorted(rules))


def lambda_(af: ArgumentationFramework) -> Program:
    """`gamma` plus an acceptance rule `x :- not d(x)` per argument, so each
    stable model lists the accepted arguments next to the defeated ones."""
    return lambda_rules(af).program()


def stable_fragment_rules(af: ArgumentationFramework) -> NumberedTheory:
    """`stable_fragment` as integer rules: `alpha`'s rule `d(a) :- not d(b)`
    per attack (b, a), without the defender rules."""
    number, _ = _numbered(af)
    rules = {(((number[target], 0),), ((number[source], 1),)) for source, target in af.attacks}
    return NumberedTheory(_defeat_atoms(af), sorted(rules))


def stable_fragment(af: ArgumentationFramework) -> Program:
    """Only the negative-body half of `alpha`: `d(a) :- not d(b)` per attack.
    Its stable models correspond to the stable extensions."""
    return stable_fragment_rules(af).program()


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
