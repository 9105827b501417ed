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


def _defeat_atoms(names: list[str]) -> list[str]:
    """The defeat atoms of the sorted argument `names`, atom number i naming
    the i-th, as in the integer rules of `alpha` and `gamma`.  A name sorts
    as its defeat atom does: `)` sorts below every character a name can
    hold."""
    return [defeat_atom(x) for x in names]


def _numbered(af: ArgumentationFramework):
    """The arguments in sorted order, numbered from 1 by their place in it;
    the attacks as (target, source) number pairs in sorted order; and, by
    number, each argument's attackers as positive literals in sorted order
    and as the flat key of those literals.  Numbers sort as the names do,
    and as their defeat atoms, so rules over them sort into the canonical
    `Clause` order.

    A rule's flat key lists 2v + neg for each head literal (v, neg), then a
    0, then the same for each body literal.  Atom numbers start at 1 and
    every negation depth here is 0 or 1, so each literal's entry is at least
    2 and keeps the literal's place in the order: flat keys sort as the
    rules do, and only equal rules share one."""
    names = sorted(af.arguments)
    number = dict(zip(names, range(1, len(names) + 1)))
    attacks = sorted([(number[t], number[s]) for s, t in af.attacks])
    attackers: list[list[int]] = [[] for _ in range(len(names) + 1)]
    for a, b in attacks:
        attackers[a].append(b)
    literals = [tuple([(c, 0) for c in cs]) for cs in attackers]
    keys = [tuple([2 * c for c in cs]) for cs in attackers]
    return names, attacks, literals, keys


def _canonical(keyed: dict[tuple[int, ...], Rule]) -> list[Rule]:
    """The rules of `keyed`, each under its flat key, in canonical order."""
    return [keyed[k] for k in sorted(keyed)]


def _defeat_rules(af: ArgumentationFramework, disjunctive: bool) -> NumberedTheory:
    """Over the atom numbers of the defeat atoms, per attack (b, a): the
    attack rule, `d(a) :- not d(b)`, or `d(a) v d(b)` with its head sorted
    if `disjunctive`; and the defender rule `d(a) :- d(c1), ..., d(ck)`
    where the c are the attackers of b, an empty body if there are none.
    One pass over the numbered attacks keys each rule by its flat key, which
    deduplicates them, and one sort of the keys puts them in canonical
    order."""
    names, attacks, literals, keys = _numbered(af)
    rules = {(2 * a, 0, *keys[b]): (((a, 0),), literals[b]) for a, b in attacks}
    if not disjunctive:
        rules.update({(2 * a, 0, 2 * b + 1): (((a, 0),), ((b, 1),)) for a, b in attacks})
    else:
        for a, b in attacks:
            if a == b:
                rules[2 * a, 0] = (((a, 0),), ())
            else:
                low, high = (a, b) if a < b else (b, a)
                rules[2 * low, 2 * high, 0] = (((low, 0), (high, 0)), ())
    return NumberedTheory(_defeat_atoms(names), _canonical(rules))


def alpha_rules(af: ArgumentationFramework) -> NumberedTheory:
    """`alpha` as integer rules: per attack (b, a), `d(a) :- not d(b)` and
    the defender rule."""
    return _defeat_rules(af, disjunctive=False)


def alpha(af: ArgumentationFramework) -> Program:
    """Defeat theory with default negation.

    For each attack (b, a): `d(a) :- not d(b)` and `d(a) :- d(c1), ..., d(ck)`
    where the c are the attackers of b; no attackers means an empty body.
    """
    return alpha_rules(af).program()


def beta_rules(af: ArgumentationFramework) -> NumberedTheory:
    """`beta` as integer rules over the arguments, numbered in sorted order:
    per attack (b, a), `not b :- a` and `c1 v ... v ck :- a`."""
    names, attacks, literals, keys = _numbered(af)
    rules = {(*keys[b], 0, 2 * a): (literals[b], ((a, 0),)) for a, b in attacks}
    for a, b in attacks:
        rules[2 * b + 1, 0, 2 * a] = (((b, 1),), ((a, 0),))
    return NumberedTheory(names, _canonical(rules))


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
    return _defeat_rules(af, disjunctive=True)


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
    per attack (b, a), without the defender rules.  The attacks, distinct
    and sorted as (a, b) number pairs, give the rules in canonical order."""
    names, attacks, _, _ = _numbered(af)
    return NumberedTheory(_defeat_atoms(names), [(((a, 0),), ((b, 1),)) for a, b in attacks])


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
