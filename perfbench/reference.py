"""Reference answers, computed outside every timed region.

Three levels, strongest first:

* closed form, from the generator (chains, mutual attacks, odd cycles, knots);
* `preferred_oracle` (brute-force subset enumeration) for frameworks of at
  most ORACLE_LIMIT arguments, applied per part of a disjoint union and per
  weakly connected component of a random framework;
* a partial check for connected random frameworks beyond the oracle: every
  returned set is admissible, no returned set contains another, and `alpha`
  returned the same sets as `gamma`.  This accepts some wrong answers (a
  missing extension, or an admissible set that is not maximal but is not
  contained in another returned set), so it is reported as partial.

None of this calls the engines under test.  The translation references
rebuild the expected clause text from the attack relation alone.
"""

from __future__ import annotations

import itertools

from families import Instance

ORACLE_LIMIT = 20


def components(inst: Instance) -> list[tuple[tuple[str, ...], tuple]]:
    """Weakly connected components as (arguments, attacks), in generation order."""
    parent = {a: a for a in inst.arguments}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in inst.attacks:
        parent[find(a)] = find(b)
    groups: dict[str, list[str]] = {}
    for a in inst.arguments:
        groups.setdefault(find(a), []).append(a)
    edges: dict[str, list] = {}
    for a, b in inst.attacks:
        edges.setdefault(find(a), []).append((a, b))
    return [(tuple(g), tuple(edges.get(root, ()))) for root, g in groups.items()]


class Reference:
    """Per-instance reference answers, memoised; `argstable` supplies only the
    oracle and the framework's own admissibility test."""

    def __init__(self, argstable):
        self.lib = argstable
        self._parts: dict[int, list | None] = {}

    def _framework(self, arguments, attacks):
        return self.lib.ArgumentationFramework(frozenset(arguments), frozenset(attacks))

    def parts(self, inst: Instance) -> list[tuple[frozenset, frozenset]] | None:
        """(arguments, preferred extensions) per independent part, or None when
        some part is beyond the oracle and has no closed form."""
        key = id(inst)
        if key not in self._parts:
            self._parts[key] = self._compute_parts(inst)
        return self._parts[key]

    def _compute_parts(self, inst):
        if inst.expected is not None:
            return [(frozenset(inst.arguments), inst.expected)]
        if inst.components:
            found = []
            for part in inst.components:
                sub = self.parts(part)
                if sub is None:
                    return None
                found += sub
            return found
        found = []
        for args, attacks in components(inst):
            if len(args) > ORACLE_LIMIT:
                return None
            oracle = self.lib.preferred_oracle(self._framework(args, attacks))
            found.append((frozenset(args), frozenset(oracle)))
        return found

    def extensions(self, inst: Instance) -> frozenset | None:
        """All preferred extensions: the product over the parts."""
        parts = self.parts(inst)
        if parts is None:
            return None
        return frozenset(
            frozenset().union(*combo)
            for combo in itertools.product(*(exts for _, exts in parts))
        )

    def is_preferred(self, inst: Instance, members: frozenset) -> bool:
        """A set is preferred iff its trace on every part is preferred there."""
        parts = self.parts(inst)
        if parts is None:
            raise ValueError(f"{inst.name}: no exact reference")
        return all((members & args) in exts for args, exts in parts)

    def partial_check(self, inst: Instance, answer) -> str | None:
        """The partial check for connected frameworks beyond the oracle;
        returns a reason on failure.  alpha == gamma is checked by the caller,
        which holds both answers."""
        sets = list(answer)
        if len(set(sets)) != len(sets):
            return "duplicate extension"
        af = self._framework(inst.arguments, inst.attacks)
        for s in sets:
            if not af.is_admissible(s):
                return f"not admissible: {sorted(s)}"
        for s, t in itertools.permutations(sets, 2):
            if s < t:
                return "one extension contains another"
        return None


def _attackers(inst: Instance) -> dict[str, list[str]]:
    table: dict[str, list[str]] = {x: [] for x in inst.arguments}
    for source, target in sorted(inst.attacks):
        table[target].append(source)
    return table


def _d(x: str) -> str:
    return f"d({x})"


def translation_lines(inst: Instance, target: str) -> frozenset[str]:
    """The ASP text lines `argstable translate alpha|gamma` must print, one per
    distinct clause: per attack (b, a), `d(a) :- not d(b).` (alpha) or
    `d(a) v d(b).` (gamma), and the defender rule `d(a) :- d(c1), ..., d(ck).`
    over the attackers c of b, a fact when b has none."""
    attackers = _attackers(inst)
    lines = set()
    for source, target_arg in inst.attacks:
        if target == "alpha":
            lines.add(f"{_d(target_arg)} :- not {_d(source)}.")
        else:
            lines.add(" v ".join(sorted({_d(target_arg), _d(source)})) + ".")
        defenders = attackers[source]
        if defenders:
            lines.add(f"{_d(target_arg)} :- {', '.join(_d(c) for c in defenders)}.")
        else:
            lines.add(f"{_d(target_arg)}.")
    return frozenset(lines)


def cnf_clauses(inst: Instance) -> frozenset[frozenset[tuple[str, bool]]]:
    """The CNF image shared by alpha and gamma, as sets of (atom, polarity):
    `d(a) v d(b)` and `d(a) v -d(c1) v ... v -d(ck)` per attack (b, a)."""
    attackers = _attackers(inst)
    found = set()
    for source, target in inst.attacks:
        found.add(frozenset({(_d(target), True), (_d(source), True)}))
        found.add(frozenset({(_d(target), True)} | {(_d(c), False) for c in attackers[source]}))
    return frozenset(found)


def check_dimacs(inst: Instance, text: str, clause_count: int) -> str | None:
    """Header, variable table and clause set of `translate --emit dimacs`."""
    names: dict[int, str] = {}
    header = None
    clauses = []
    for line in text.splitlines():
        if line.startswith("c var "):
            number, _, name = line[6:].partition(" = ")
            names[int(number)] = name
        elif line.startswith("p cnf "):
            header = tuple(int(x) for x in line.split()[2:])
        else:
            lits = [int(x) for x in line.split()]
            if not lits or lits[-1] != 0:
                return f"bad clause line {line!r}"
            clauses.append(lits[:-1])
    expected_vars = {_d(x).replace("(", "_").replace(")", "") for x in inst.arguments}
    if header != (len(inst.arguments), clause_count) or len(clauses) != clause_count:
        return f"header {header}, {len(clauses)} clauses, expected {clause_count}"
    if set(names.values()) != expected_vars or len(names) != len(expected_vars):
        return "variable table differs"
    back = {v: f"d({names[v][2:]})" for v in names}
    got = {frozenset((back[abs(l)], l > 0) for l in c) for c in clauses}
    if got != cnf_clauses(inst):
        return "clause set differs"
    return None
