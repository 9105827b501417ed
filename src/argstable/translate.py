"""Compile a framework into propositional theories over defeat atoms.

Each argument x gets a defeat atom d(x).  One reader, `_read_attacks`,
numbers the atoms and sorts the attacks for the two builders that read
them.  `_defeat_rules` gives, per attack (b, a), a rule saying that a is
defeated unless b is, `d(a) :- not d(b)` in `alpha` or `d(a) v d(b)` in
`gamma`, and the defender rule saying that a is defeated once all of b's
attackers are.  The other three theories are read off those two, as the
paper relates them: `beta` is `alpha` with head and body swapped, over the
argument atoms themselves; `lambda_` is `gamma` plus an acceptance rule
`x :- not d(x)` per argument, so stable models carry the extension itself;
and `stable_fragment` keeps only `alpha`'s negative half.  Each is a
`NumberedTheory`, sorted atoms and a set of rules (`alpha_rules`,
`beta_rules`, `gamma_rules`, `lambda_rules`, `stable_fragment_rules`).
`argstable translate` emits them as ASP or DIMACS text, the lambda engine
solves `lambda_rules`, and the public builders turn them into a `Program`;
no builder constructs a `Clause` itself.  `alpha` and `gamma` compile to one
clause set, which `defeat_cnf` builds as integer clauses straight from the
attacks, with no rule on the way: gamma_rules' integer image less its
tautologies.  The alpha and gamma engines, `query` and the UNSAT checker
solve it.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable

from .framework import ArgumentationFramework
from .logic import AtomMap, Cnf, NumberedTheory, Program


def defeat_atom(name: str) -> str:
    return f"d({name})"


def defeat_map(af: ArgumentationFramework) -> AtomMap:
    return AtomMap(forward={x: defeat_atom(x) for x in af.arguments})


def _read_attacks(af: ArgumentationFramework):
    """The one reader of the attacks: the defeat atoms, atom i that of the
    i-th argument in sorted order, which is their own sorted order, since
    `)` sorts below every character a name can hold; each attack (b, a) as
    the number pair (a, b), the pairs sorted; and, per argument, its
    attackers' numbers negated, in increasing order of attacker, the tail of
    the defender clause of every attack the argument makes.  The sort puts
    every body in order, and `defeat_cnf`'s clauses in one order whatever
    the hash seed; a set of rules reaches a solver sorted by `to_cnf`."""
    names = sorted(af.arguments)
    number = dict(zip(names, range(1, len(names) + 1)))
    attacks = sorted([(number[t], number[s]) for s, t in af.attacks])
    denials: list[list[int]] = [[] for _ in range(len(names) + 1)]
    for a, b in attacks:
        denials[a].append(-b)
    return [defeat_atom(x) for x in names], attacks, denials


def _defeat_rules(af: ArgumentationFramework, disjunctive: bool) -> NumberedTheory:
    """Per attack (b, a): the attack rule, `d(a) :- not d(b)`, or
    `d(a) v d(b)` with its head sorted if `disjunctive`; and the defender
    rule `d(a) :- d(c1), ..., d(ck)` where the c are the attackers of b, an
    empty body if there are none."""
    atoms, attacks, denials = _read_attacks(af)
    literals = [tuple([(-c, 0) for c in cs]) for cs in denials]
    rules = [(((a, 0),), literals[b]) for a, b in attacks]
    if not disjunctive:
        rules += [(((a, 0),), ((b, 1),)) for a, b in attacks]
    else:
        rules += [(((a, 0),) if a == b else ((min(a, b), 0), (max(a, b), 0)), ())
                  for a, b in attacks]
    return NumberedTheory(atoms, frozenset(rules))


def defeat_cnf(af: ArgumentationFramework) -> Cnf:
    """The one clause set of `alpha` and `gamma`, straight from the attacks,
    the form the engines solve.  Per attack (b, a): the defender clause
    `[a, -c1, ..., -ck]`, where the c attack b, and the attack clause
    `[min(a, b), max(a, b)]`, or `[a]` for a self-attack.  Each distinct
    clause is kept once, in the order of the sorted attack pairs.  It is
    gamma_rules' integer image less its tautologies: the defender clause of
    an attack (b, a) holds -a when a attacks b too, a mutual attack or a
    self-attack, and every assignment satisfies it, so dropping it changes
    no model and no model's order.  As a set it is `alpha_rules`' image less
    the same clauses, as `alpha` holds `[a, b]` once per direction of a
    mutual attack.  `gamma_rules`, `to_asp` and `to_dimacs` keep the rule."""
    atoms, attacks, denials = _read_attacks(af)
    clauses = {}
    for a, b in attacks:
        if -a not in denials[b]:
            clauses[(a, *denials[b])] = None
        clauses[(a,) if a == b else (a, b) if a < b else (b, a)] = None
    return Cnf(atoms, [list(c) for c in clauses])


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
    per attack (b, a), `not b :- a` and `c1 v ... v ck :- a`.  They are
    `alpha`'s rules with head and body swapped, the inverse of
    `normalize` after `g_transform`."""
    return NumberedTheory(sorted(af.arguments),
                          frozenset([(body, head) for head, body in alpha_rules(af).clauses]))


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
    """`lambda_` as integer rules: `gamma`'s, over the argument and defeat
    atoms sorted together, plus `x :- not d(x)` per argument x.  A name
    matches `[A-Za-z][A-Za-z0-9_]*` and `(` sorts below every character it
    can hold, so the defeat atoms sort, in one block, after the k names up
    to `d` and before the rest: `gamma`'s atom numbers shift by k."""
    base = gamma_rules(af)
    names = sorted(af.arguments)
    k, n = bisect_right(names, "d"), len(names)
    shifted = [(tuple([(v + k, neg) for v, neg in head]), tuple([(v + k, neg) for v, neg in body]))
               for head, body in base.clauses]
    accept = [(((i if i <= k else i + n, 0),), ((k + i, 1),)) for i in range(1, n + 1)]
    return NumberedTheory(names[:k] + base.atoms + names[k:], frozenset(shifted + accept))


def lambda_(af: ArgumentationFramework) -> Program:
    """`gamma` plus an acceptance rule `x :- not d(x)` per argument, so each
    stable model lists the accepted arguments next to the defeated ones."""
    return lambda_rules(af).program()


def stable_fragment_rules(af: ArgumentationFramework) -> NumberedTheory:
    """`stable_fragment` as integer rules: `alpha`'s rule `d(a) :- not d(b)`
    per attack (b, a), without the defender rules: the rules of `alpha`
    whose body is one negated atom."""
    atoms, rules = alpha_rules(af)
    return NumberedTheory(atoms, frozenset([(head, body) for head, body in rules
                                            if len(body) == 1 and body[0][1]]))


def stable_fragment(af: ArgumentationFramework) -> Program:
    """Only the negative-body half of `alpha`: `d(a) :- not d(b)` per attack.
    Its stable models correspond to the stable extensions."""
    return stable_fragment_rules(af).program()


def compl(af: ArgumentationFramework, s: Iterable[str]) -> frozenset[str]:
    """Defeat atoms of the arguments outside s."""
    return frozenset(defeat_atom(x) for x in af.arguments - af._subset(s))


def decode(af: ArgumentationFramework, m: Iterable[str]) -> frozenset[str]:
    """Arguments whose defeat atom is absent from m; other atoms are ignored."""
    present = frozenset(m)
    return frozenset(x for x in af.arguments if defeat_atom(x) not in present)
