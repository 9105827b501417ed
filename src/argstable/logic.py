"""Propositional clauses, interpretations and model enumeration.

A clause is a disjunction of head literals implied by a conjunction of body
literals; an empty head reads as falsum (a constraint) and an empty body as
verum (a fact).  Literals carry a negation depth instead of a boolean so that
rewriting passes can introduce double negation without simplifying it away;
cancellation happens only in the separate `normalize` pass.  `Literal`,
`Clause`, `Program` and `AtomMap` are `NamedTuple`s whose `__new__` checks
and coerces their fields.

Interpretations are plain frozensets of true atoms, judged against a program's
declared signature, which may be larger than the set of atoms that occur in
its clauses.  Exhaustive operations refuse signatures beyond `bound`.
"""

from __future__ import annotations

import operator
from itertools import islice
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import BoundExceededError

DEFAULT_MODEL_BOUND = 24

Interpretation = frozenset[str]


class _LiteralFields(NamedTuple):
    atom: str
    neg: int = 0


class Literal(_LiteralFields):
    __slots__ = ()

    def __new__(cls, atom: str, neg: int = 0):
        if not isinstance(atom, str) or not atom:
            raise ValueError(f"invalid atom: {atom!r}")
        neg = operator.index(neg)  # an integer, `True` as 1; a float raises TypeError
        if neg < 0:
            raise ValueError("negation depth must be non-negative")
        return tuple.__new__(cls, (atom, neg))

    # `_replace` builds through `_make`, so it too validates
    _make = classmethod(lambda cls, fields: cls(*fields))

    def negate(self) -> "Literal":
        return Literal(self.atom, self.neg + 1)

    def simplified(self) -> "Literal":
        """Cancel double negation down to depth 0 or 1."""
        return Literal(self.atom, self.neg % 2)

    @property
    def positive(self) -> bool:
        return self.neg % 2 == 0

    def __str__(self) -> str:
        return "not " * self.neg + self.atom


def _as_literal(value) -> Literal:
    if isinstance(value, Literal):
        return value
    if isinstance(value, str):
        return Literal(value)
    raise TypeError(f"expected Literal or atom name, got {value!r}")


class _ClauseFields(NamedTuple):
    head: tuple[Literal, ...] = ()
    body: tuple[Literal, ...] = ()


class Clause(_ClauseFields):
    """`h1 v ... v hm :- l1, ..., ln` with m + n > 0.

    Plain general clauses keep heads at negation depth 0 and bodies at depth
    at most 1; transformation passes may build clauses outside that shape.
    """

    __slots__ = ()

    def __new__(cls, head: Iterable = (), body: Iterable = ()):
        head = tuple([_as_literal(h) for h in head])
        body = tuple([_as_literal(b) for b in body])
        if not head and not body:
            raise ValueError("a clause needs at least one head or body literal")
        return tuple.__new__(cls, (head, body))

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def is_constraint(self) -> bool:
        return not self.head

    @property
    def is_fact(self) -> bool:
        return not self.body

    def is_general(self) -> bool:
        return all(h.neg == 0 for h in self.head) and all(b.neg <= 1 for b in self.body)

    def is_positive(self) -> bool:
        return self.is_general() and all(b.neg == 0 for b in self.body)

    def atoms(self) -> frozenset[str]:
        return frozenset(l.atom for l in self.head + self.body)

    def __str__(self) -> str:
        return _clause_text([str(h) for h in self.head], [str(b) for b in self.body])


def _clause_text(head: list[str], body: list[str]) -> str:
    """A clause in ASP syntax, from the text of its literals."""
    if not head:
        return f":- {', '.join(body)}."
    if not body:
        return f"{' v '.join(head)}."
    return f"{' v '.join(head)} :- {', '.join(body)}."


class _ProgramFields(NamedTuple):
    clauses: frozenset[Clause]
    signature: frozenset[str]


class Program(_ProgramFields):
    """A finite clause set with an explicit signature."""

    __slots__ = ()

    def __new__(cls, clauses: Iterable[Clause], signature: Iterable[str]):
        self = tuple.__new__(cls, (frozenset(clauses), frozenset(signature)))
        _within(self.occurring_atoms(), self.signature, "clause atoms")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def of(cls, clauses: Iterable[Clause], signature: Iterable[str] | None = None) -> "Program":
        clause_set = frozenset(clauses)
        occurring = frozenset(a for c in clause_set for a in c.atoms())
        sig = occurring if signature is None else frozenset(signature)
        return cls(clause_set, sig)

    def occurring_atoms(self) -> frozenset[str]:
        return frozenset(a for c in self.clauses for a in c.atoms())

    def is_general(self) -> bool:
        return all(c.is_general() for c in self.clauses)

    def is_positive(self) -> bool:
        return all(c.is_positive() for c in self.clauses)

    def to_asp(self) -> str:
        """One clause per line, canonical order, `not` for negation: the ASP
        emitter of `NumberedTheory` on `_cnf` of the program."""
        return _cnf(self).to_asp()

    def __str__(self) -> str:
        return self.to_asp()


def literal_value(literal: Literal, interpretation: Interpretation) -> bool:
    return (literal.atom in interpretation) == (literal.neg % 2 == 0)


def evaluate(
    interpretation: Interpretation,
    clause: Clause,
    signature: Iterable[str] | None = None,
) -> bool:
    """Clause truth under an interpretation: body all true and head all false
    is the only falsifying case."""
    if signature is not None:
        _within(clause.atoms(), signature, "clause atoms")
    if not all(literal_value(b, interpretation) for b in clause.body):
        return True
    return any(literal_value(h, interpretation) for h in clause.head)


def is_model(program: Program, interpretation: Interpretation) -> bool:
    interp = frozenset(interpretation)
    _within(interp, program.signature, "interpretation atoms")
    return all(evaluate(interp, c) for c in program.clauses)


def check_bound(size: int, bound: int, what: str, unit: str = "atoms") -> None:
    """The one bound policy of every exhaustive operation: refuse `size`
    beyond `bound` with `BoundExceededError`."""
    if size > bound:
        raise BoundExceededError(f"{what} has {size} {unit}, exceeding the bound of {bound}")


def _within(atoms: Iterable[str], signature: Iterable[str], what: str) -> None:
    """The one policy for atoms a caller passes in: refuse any outside the
    signature with `ValueError`, naming them sorted."""
    stray = frozenset(atoms).difference(signature)
    if stray:
        raise ValueError(f"{what} outside the signature: {sorted(stray)}")


def canonical(sets: Iterable[frozenset[str]]) -> list[frozenset[str]]:
    """Sets in the canonical order every result list uses: by sorted members."""
    return sorted(sets, key=lambda s: tuple(sorted(s)))


def models(program: Program, bound: int = DEFAULT_MODEL_BOUND) -> list[Interpretation]:
    """All interpretations over the signature satisfying every clause.

    Exhaustive by design; this is the reference the cleverer enumerators are
    tested against.
    """
    atoms = sorted(program.signature)
    check_bound(len(atoms), bound, "program signature")
    found = []
    for bits in range(1 << len(atoms)):
        interp = frozenset(a for i, a in enumerate(atoms) if bits >> i & 1)
        if all(evaluate(interp, c) for c in program.clauses):
            found.append(interp)
    return canonical(found)


# A rule `(head, body)` over numbered atoms: each side a sequence of (atom
# number, negation depth) pairs, the integer form of a `Clause`.
Rule = tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]


def _rule_clauses(rules: Iterable[Rule]) -> list[list[int]]:
    """The integer clause of each rule: head literals keep their parity, body
    literals flip, and a repeated literal is kept once, where it first
    occurs."""
    cnf = []
    for head, body in rules:
        lits = {}
        for v, neg in head:
            lits[-v if neg & 1 else v] = None
        for v, neg in body:
            lits[v if neg & 1 else -v] = None
        cnf.append(list(lits))
    return cnf


def _rule(clause: Clause, index: Mapping[str, int]) -> Rule:
    """A clause as a rule over the atom numbers `index` gives."""
    return (
        tuple([(index[l.atom], l.neg) for l in clause.head]),
        tuple([(index[l.atom], l.neg) for l in clause.body]),
    )


class NumberedTheory(NamedTuple):
    """A theory as integer rules: atom number i names `atoms[i - 1]`, the
    atoms sorted, and `clauses` is the set of rules, which `_cnf` of
    `program()` gives back.  It is what every text is emitted from, and what
    every solver is built from but the engines' `translate.defeat_cnf`:
    `_cnf` numbers a user's `Program`, and `translate` builds its theories
    as rules outright, so `argstable translate` never builds a `Clause`.
    `to_cnf` is the one step from rules to a solver's integer clauses, and
    it sorts them, as the emitters do: no answer depends on their order
    (`_CnfSolver.solve`), but the solver's work does, and should not depend
    on how the set was built."""

    atoms: list[str]
    clauses: frozenset[Rule]

    def program(self) -> Program:
        """The `Program` of the rules, with one shared `Literal` per atom and
        negation depth.  It is built without `Program`'s signature check:
        every atom it writes is `atoms[i - 1]`, and its signature is all of
        `atoms`, so the check could find nothing.  Its clauses skip
        `Clause`'s checks too: each literal is one just made, and each rule
        has a literal."""
        literals = {
            pair: Literal(self.atoms[pair[0] - 1], pair[1])
            for pair in {pair for head, body in self.clauses for pair in head + body}
        }
        clauses = [
            tuple.__new__(Clause, (tuple([literals[h] for h in head]),
                                   tuple([literals[b] for b in body])))
            for head, body in self.clauses
        ]
        return tuple.__new__(Program, (frozenset(clauses), frozenset(self.atoms)))

    def to_asp(self) -> str:
        """The ASP emitter: one rule per line, sorted, as `str` of its
        `Clause` reads."""
        text = {
            pair: "not " * pair[1] + self.atoms[pair[0] - 1]
            for pair in {pair for head, body in self.clauses for pair in head + body}
        }
        return "".join(
            _clause_text([text[h] for h in head], [text[b] for b in body]) + "\n"
            for head, body in sorted(self.clauses)
        )

    def to_dimacs(self) -> str:
        """The DIMACS emitter: comment lines naming the variables, with `(`
        as `_` and `)` dropped, a `p cnf V C` header, then `to_cnf`'s
        clauses, one per line."""
        cnf = self.to_cnf().clauses
        lines = [f"c var {i} = {a.replace('(', '_').replace(')', '')}\n"
                 for i, a in enumerate(self.atoms, 1)]
        lines.append(f"p cnf {len(self.atoms)} {len(cnf)}\n")
        lines += [" ".join(map(str, c)) + " 0\n" for c in cnf]
        return "".join(lines)

    def to_cnf(self) -> Cnf:
        """The integer clauses of the rules, sorted, over the same atoms."""
        return Cnf(self.atoms, _rule_clauses(sorted(self.clauses)))


class Cnf(NamedTuple):
    """A theory as integer clauses, the form every solver is built from:
    variable i names `atoms[i - 1]`, and a clause is a list of nonzero
    literals, -i for the negation of i.  A solver reorders the literals of
    the lists it is given, so each `Cnf` serves one solver."""

    atoms: list[str]
    clauses: list[list[int]]


def _solver(cnf: Cnf, bound: int) -> _CnfSolver:
    """The solver for a whole theory's `Cnf`, `defeat_cnf`'s or `to_cnf`'s:
    the bound policy on its atoms, then a solver over its clauses."""
    check_bound(len(cnf.atoms), bound, "program signature")
    return _CnfSolver(*cnf)


def _cnf(program: Program) -> NumberedTheory:
    """The one place a user's program becomes rules, for the solvers,
    `Program.to_asp()` and `export_dimacs`: the signature sorted and
    numbered from 1, then one rule per clause.  The numbering keeps the
    atoms' order, so the sorted rules are those of the sorted clauses."""
    atoms = sorted(program.signature)
    index = {a: i for i, a in enumerate(atoms, 1)}
    return NumberedTheory(atoms, frozenset([_rule(c, index) for c in program.clauses]))


class _CnfSolver:
    """The one solver, over integer clauses on the numbered `atoms`, built by
    `_solver` from a whole theory's `Cnf`, by `_minimal_models` for each part
    of one and by `_stable_models` for its theory with copies.
    Conflict-driven clause learning after MiniSat (Eén & Sörensson, "An
    Extensible SAT-solver", SAT 2003), with two watched literals per clause
    (Moskewicz et al., "Chaff", DAC 2001).

    `solve` makes its assumptions the first decisions, and every other
    decision sets an atom false; `minimal_models` enumerates in one search,
    resumed after each model.  Each conflict is analysed to its first unique
    implication point; the learned clause sends the search back to the
    highest decision level among its other literals.  Assumptions are
    decisions, so no learned clause rests on them: every learned clause, and
    every assignment at level 0, follows from the clauses added so far, and
    both are kept for every later call.  So are the levels of the longest
    prefix two consecutive `solve` calls' assumptions share, so a run of
    calls under the same denials propagates them once (van der Tak, Ramos &
    Heule, "Reusing the assignment trail in CDCL solvers", JSAT 2011).
    """

    def __init__(self, atoms: list[str], cnf: list[list[int]]):
        self.atoms = atoms
        size = 2 * len(self.atoms) + 1
        # indexed by literal, -v landing at slot 2 * len(atoms) + 1 - v
        self.value: list[bool | None] = [None] * size
        # watches[l]: the clauses whose first two literals include l, visited
        # when l becomes false
        self.watches: list[list[list[int]]] = [[] for _ in range(size)]
        # indexed by variable: decision level and implying clause of its value
        self.level = [0] * (len(self.atoms) + 1)
        self.reason: list[list[int] | None] = [None] * (len(self.atoms) + 1)
        self.trail: list[int] = []
        self.limits: list[int] = []  # trail length at each decision
        self.head = 0  # the trail before `head` has been propagated
        self.assumed: list[int] = []  # the last `solve`'s, one level each
        self.unsat = False  # the clauses added so far have no model
        # a clause of two literals or more is watched at its first two, with
        # no call per clause, and a unit clause assigns its literal; nothing
        # is propagated yet, so the first propagation visits every clause
        # that watches a literal the units falsify.  The first unsatisfiable
        # clause, empty or a unit already false, ends the attaching.
        value, watches = self.value, self.watches
        for clause in cnf:
            if len(clause) > 1:
                watches[clause[0]].append(clause)
                watches[clause[1]].append(clause)
            elif not clause or value[clause[0]] is False:
                self.unsat = True
                break
            elif value[clause[0]] is None:
                self._assign(clause[0], clause)

    def solve(self, assume: Iterable[int] = ()) -> Interpretation | None:
        """A model of the clauses added so far and the assumed literals, or
        None if there is none.  Each decision sets the lowest unassigned
        variable false, so no atom is left free, and the model is the
        lexicographically least, whatever the clauses' order: x1 false if
        some such model has it false, then x2, and so on (`minimal_models`'
        argument, on the first variable where another model differs).  If
        every assumption is negative, it is minimal among those models.
        The search starts from the levels of the last call's assumptions
        that begin this call's too: each holds its assumption and what the
        clauses imply from it and the levels below, as a search from level 0
        could, so the answer is the same."""
        assume = list(assume)
        shared = 0
        for old, new in zip(self.assumed, assume):
            if old != new:
                break
            shared += 1
        self._backtrack(shared)
        self.assumed = assume
        return None if self.unsat else self._search(assume)

    def minimal_models(self) -> Iterator[Interpretation]:
        """Every minimal model of the clauses added so far, each as soon as
        one search finds it; no other call may come between two of them.

        Every decision sets its atom false, and every true atom on the trail
        is implied by a clause that follows from the added ones.  So no model
        N of those clauses lies strictly below the model M found: the first
        trail literal N falsifies is no decision, as N is false wherever M
        is, and no implied literal, whose clause N would falsify (Castell,
        Cayrol, Cayrol & Le Berre, "Using the Davis and Putnam procedure for
        an efficient computation of preferred models", ECAI 1996).  So each
        model is minimal as found, with no step that shrinks it.  Its block
        clause, the negation of its true atoms, keeps out it and every model
        above it, none of them minimal, and the search resumes from the trail
        instead of starting again (Toda & Soh, "Implementing efficient all
        solutions SAT solvers", ACM JEA 2016).  Each is the least, as in
        `solve`, of those the block clauses let through: lexicographic order.
        It starts from level 0, with no assumption kept."""
        self._backtrack(0)
        self.assumed = []
        while not self.unsat:
            model = self._search([])
            if model is None:
                break
            yield model
            # the trail runs in level order, so the block clause starts with
            # its literals of the highest level
            self._backjump([-lit for lit in reversed(self.trail) if lit > 0])
        self._backtrack(0)

    def _assign(self, lit: int, reason: list[int] | None) -> None:
        self.value[lit], self.value[-lit] = True, False
        v = abs(lit)
        self.level[v], self.reason[v] = len(self.limits), reason
        self.trail.append(lit)

    def _propagate(self) -> list[int] | None:
        """Unit propagation over the watch lists; returns a falsified clause.
        The literal a clause implies is moved to its front."""
        value, watches, trail = self.value, self.watches, self.trail
        level, reason = self.level, self.reason
        depth = len(self.limits)
        head = self.head
        while head < len(trail):
            false_lit = -trail[head]
            head += 1
            watching = watches[false_lit]
            kept = []
            for i, clause in enumerate(watching):
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0], clause[1] = first, false_lit
                if value[first]:
                    kept.append(clause)
                    continue
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if value[lit] is not False:
                        clause[1], clause[k] = lit, false_lit
                        watches[lit].append(clause)
                        break
                else:
                    kept.append(clause)
                    if value[first] is False:
                        kept.extend(watching[i + 1:])
                        watches[false_lit] = kept
                        self.head = len(trail)
                        return clause
                    value[first], value[-first] = True, False
                    v = first if first > 0 else -first
                    level[v], reason[v] = depth, clause
                    trail.append(first)
            watches[false_lit] = kept
        self.head = head
        return None

    def _analyze(self, conflict: list[int]) -> list[int]:
        """The first-UIP clause of a conflict, its asserting literal first and
        a literal of the backjump level second."""
        level, reason, trail = self.level, self.reason, self.trail
        depth = len(self.limits)
        seen = set()
        learned = [0]
        pending = 0
        index = len(trail)
        clause, start = conflict, 0
        while True:
            for q in clause[start:]:
                v = q if q > 0 else -q
                if v not in seen and level[v]:
                    seen.add(v)
                    if level[v] == depth:
                        pending += 1
                    else:
                        learned.append(q)
            index -= 1
            while abs(trail[index]) not in seen:
                index -= 1
            lit = trail[index]
            pending -= 1
            if not pending:
                break
            # a reason clause starts with the literal it implied
            clause, start = reason[abs(lit)], 1
        learned[0] = -lit
        if len(learned) > 1:
            top = max(range(1, len(learned)), key=lambda k: level[abs(learned[k])])
            learned[1], learned[top] = learned[top], learned[1]
        return learned

    def _backtrack(self, depth: int) -> None:
        """Unassign every level above `depth`."""
        if len(self.limits) > depth:
            mark = self.limits[depth]
            value = self.value
            for lit in self.trail[mark:]:
                value[lit] = value[-lit] = None
            del self.trail[mark:], self.limits[depth:]
            self.head = min(self.head, mark)

    def _backjump(self, clause: list[int]) -> None:
        """Add a clause that the assignment falsifies, a literal of the
        highest level among its literals first and one of the next-highest
        second, and go back to where it no longer is: to the second-highest
        level if one literal alone has the highest, where the clause asserts
        that literal (at level 0 for a unit clause, which no watch list holds
        and no backtrack may undo), and otherwise to one level below the
        highest.  A clause falsified at level 0 leaves no model."""
        level = self.level
        top = level[abs(clause[0])] if clause else 0
        second = level[abs(clause[1])] if len(clause) > 1 else 0
        if not top:
            self.unsat = True
            return
        if len(clause) > 1:
            self.watches[clause[0]].append(clause)
            self.watches[clause[1]].append(clause)
        if second < top:
            self._backtrack(second)
            self._assign(clause[0], clause)
        else:
            self._backtrack(top - 1)

    def _search(self, assume: list[int]) -> Interpretation | None:
        value, limits, variables = self.value, self.limits, len(self.atoms)
        while True:
            conflict = self._propagate()
            if conflict is not None:
                if not limits:
                    self.unsat = True
                    return None
                self._backjump(self._analyze(conflict))
            elif len(limits) < len(assume):
                # the assumptions are the first decisions, one level each
                lit = assume[len(limits)]
                if value[lit] is False:
                    return None
                limits.append(len(self.trail))
                if value[lit] is None:
                    self._assign(lit, None)
            else:
                # the lowest unassigned variable, or a model if there is none
                try:
                    v = value.index(None, 1, variables + 1)
                except ValueError:
                    return frozenset(a for a, x in zip(self.atoms, value[1:]) if x)
                limits.append(len(self.trail))
                self._assign(-v, None)


def minimal_models(program: Program, bound: int = DEFAULT_MODEL_BOUND) -> list[Interpretation]:
    """Subset-minimal models over the signature, in canonical order."""
    return canonical(_minimal_models(_cnf(program).to_cnf(), bound))


def _minimal_models(theory: Cnf, bound: int) -> list[Interpretation]:
    """The minimal models of a theory given as integer clauses, unsorted.

    They are the unions of one minimal model per part (`_parts`), with every
    atom in no clause false.  One search keeps every block clause, so a large
    product is cheaper part by part, but splitting costs a pass over the
    literal occurrences of the integer clauses and a solver per part.  So the
    whole search runs first, rent or buy, and splits once its models times
    the atoms exceed the literal occurrences, and a theory with few models
    never splits."""
    atoms, cnf = theory
    split = sum(map(len, cnf)) // (len(atoms) or 1) + 1
    search = _solver(theory, bound).minimal_models()
    found = list(islice(search, split))
    if len(found) == split:
        parts = _parts(atoms, cnf)
        if len(parts) > 1:
            product = [frozenset()]
            for atoms, clauses in parts:
                # a part's atoms are the theory's, which met the bound
                own = list(_CnfSolver(atoms, clauses).minimal_models())
                product = [m | p for m in product for p in own]
            return product
    return found + list(search)


def _parts(atoms: list[str], cnf: list[list[int]]) -> list[tuple[list[str], list[list[int]]]]:
    """The integer clauses grouped by shared variables, by union-find over
    the variable numbers, each group with its atoms in increasing order and
    its clauses renumbered over them.  A variable in no clause is in no
    group.  The clauses may be a solver's, whose literals the watch scheme
    has reordered: a group depends only on which variables a clause holds.
    It runs once per split, in about linear time in the literal occurrences."""
    n = len(atoms)
    parent = list(range(n + 1))
    occurs = [False] * (n + 1)
    for clause in cnf:
        first = 0
        for lit in clause:
            v = lit if lit > 0 else -lit
            occurs[v] = True
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]  # path halving
            if first:
                parent[v] = first
            else:
                first = v
    names: dict[int, list[str]] = {}
    number = [0] * (2 * n + 1)  # by literal, -v at slot 2n + 1 - v, as in the solver
    for v in range(1, n + 1):
        if occurs[v]:
            r = v
            while parent[r] != r:
                r = parent[r]
            parent[v] = r
            own = names.setdefault(r, [])
            own.append(atoms[v - 1])
            number[v], number[-v] = len(own), -len(own)
    groups: dict[int, list[list[int]]] = {r: [] for r in names}
    for clause in cnf:
        v = clause[0]
        groups[parent[v if v > 0 else -v]].append([number[lit] for lit in clause])
    return [(names[r], groups[r]) for r in names]


def maximal_models(program: Program, bound: int = DEFAULT_MODEL_BOUND) -> list[Interpretation]:
    """Subset-maximal models over the signature, in canonical order: the
    complements of the minimal models of the clauses with every literal
    negated, which the atoms outside M model exactly when M models them."""
    atoms, cnf = _cnf(program).to_cnf()
    mirrored = Cnf(atoms, [[-lit for lit in clause] for clause in cnf])
    signature = frozenset(atoms)
    return canonical(signature - m for m in _minimal_models(mirrored, bound))


def is_unsatisfiable(program: Program, bound: int = DEFAULT_MODEL_BOUND) -> bool:
    return _solver(_cnf(program).to_cnf(), bound).solve() is None


def entails(
    program: Program,
    conjunction: Clause | Iterable[Clause],
    bound: int = DEFAULT_MODEL_BOUND,
) -> bool:
    """Logical consequence of a conjunction of clauses.  Every goal's atoms
    are checked against the signature first, so a stray atom raises whatever
    the other goals give.  An empty conjunction is entailed, with no solver
    and no bound; otherwise one solver over the program answers one UNSAT
    query per goal under the goal's negation, made as assumptions, so what
    it learns on one goal serves the next."""
    goals = [conjunction] if isinstance(conjunction, Clause) else list(conjunction)
    for goal in goals:
        _within(goal.atoms(), program.signature, "goal atoms")
    if not goals:
        return True
    solver = _solver(_cnf(program).to_cnf(), bound)
    index = {a: i for i, a in enumerate(solver.atoms, 1)}
    # not (H :- B) holds exactly when every literal of its clause fails
    clauses = _rule_clauses([_rule(goal, index) for goal in goals])
    return all(solver.solve([-lit for lit in clause]) is None for clause in clauses)


def gl_reduct(program: Program, s: Interpretation) -> Program:
    """Reduct of a general program with respect to a set of atoms: drop every
    clause whose body negates a member of `s`, strip the remaining negated
    body literals."""
    if not program.is_general():
        raise ValueError("reduct requires a general program")
    _within(s, program.signature, "reduct set atoms")
    reduced: list[Clause] = []
    for clause in program.clauses:
        if any(b.neg == 1 and b.atom in s for b in clause.body):
            continue
        positive_body = tuple(b for b in clause.body if b.neg == 0)
        if not clause.head and not positive_body:
            # A constraint stripped of its whole body is falsum, which the
            # clause type cannot hold; keep an equivalent inconsistent pair.
            atom = clause.body[0].atom
            reduced.append(Clause(head=(Literal(atom),)))
            reduced.append(Clause(body=(Literal(atom),)))
            continue
        reduced.append(Clause(clause.head, positive_body))
    result = Program(frozenset(reduced), program.signature)
    assert all(
        l.neg == 0 for c in result.clauses for l in c.head + c.body
    ), "reduct must be negation-free"
    return result


def stable_models(program: Program, bound: int = DEFAULT_MODEL_BOUND) -> list[Interpretation]:
    """All sets that are minimal models of their own reduct (`_stable_models`),
    in canonical order."""
    if not program.is_general():
        raise ValueError("stable models require a general program")
    return canonical(_stable_models(_cnf(program), bound))


def _stable_models(theory: NumberedTheory, bound: int) -> list[Interpretation]:
    """The stable models of a general theory given as integer rules, unsorted.

    Candidates are the classical minimal models M of P: a smaller model of P
    would model P^M too.  A positive theory is its own reduct.  Otherwise
    one solver checks every candidate (guess and check: Koch, Leone &
    Pfeifer, AIJ 2003).  It holds P's rules, sorted as in `to_cnf`, with
    each `not b` reading a copy of b, numbered after P's n atoms: the k-th
    negated atom's copy is n + k.  Copies assumed true for the negated atoms
    in M drop the clauses P^M drops, the others assumed false strip `not b`,
    and every other atom outside M assumed false leaves one solve for a
    model of P^M minimal among those within M (Castell et al. 1996, as in
    `_CnfSolver.minimal_models`).  M models P^M, as each clause P^M keeps had
    its `not b` true under M, so M is stable exactly when that model, its
    copies aside, is M."""
    candidates = _minimal_models(theory.to_cnf(), bound)
    negated = sorted({v for _, body in theory.clauses for v, neg in body if neg})
    if not negated:
        return candidates
    copy = {v: k for k, v in enumerate(negated, len(theory.atoms) + 1)}
    renamed = [(head, tuple([(copy[v], 1) if neg else (v, 0) for v, neg in body]))
               for head, body in sorted(theory.clauses)]
    # a copy is named by its number, which no atom name, a string, equals;
    # the candidates met the bound, and the copies meet none of their own
    solver = _CnfSolver(theory.atoms + list(copy.values()), _rule_clauses(renamed))
    found = []
    for candidate in candidates:
        expected = candidate | {copy[v] for v in negated if theory.atoms[v - 1] in candidate}
        assume = [v if a in expected else -v
                  for v, a in enumerate(solver.atoms, 1) if a not in candidate]
        if solver.solve(assume) == expected:
            found.append(candidate)
    return found


def is_minimal_model_by_consequence(
    program: Program, m: Interpretation, bound: int = DEFAULT_MODEL_BOUND
) -> bool:
    """Minimality via entailment: m models p, and p plus the negation of every
    atom outside m entails every atom of m, each one asked of one solver over
    p with the negations as assumptions."""
    interp = frozenset(m)
    if not is_model(program, interp):
        return False
    if not interp:  # an empty conjunction is entailed: no solver, no bound
        return True
    solver = _solver(_cnf(program).to_cnf(), bound)
    numbered = list(enumerate(solver.atoms, 1))
    denials = [-v for v, a in numbered if a not in interp]
    return all(solver.solve(denials + [-v]) is None for v, a in numbered if a in interp)


class _AtomMapFields(NamedTuple):
    forward: Mapping[str, str]
    var_index: Mapping[str, int]


class AtomMap(_AtomMapFields):
    """A bijection between source and target atoms, with an optional dense
    1-based variable numbering used by the DIMACS export."""

    __slots__ = ()

    def __new__(cls, forward: Mapping[str, str] = {}, var_index: Mapping[str, int] = {}):
        self = tuple.__new__(cls, (dict(forward), dict(var_index)))
        if len(set(self.forward.values())) != len(self.forward):
            raise ValueError("atom map is not a bijection")
        if self.var_index:
            indices = sorted(self.var_index.values())
            if indices != list(range(1, len(indices) + 1)):
                raise ValueError("variable indices must be dense from 1")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))

    def apply(self, atom: str) -> str:
        return self.forward[atom]

    def invert(self, atom: str) -> str:
        return {v: k for k, v in self.forward.items()}[atom]

    def index_of(self, atom: str) -> int:
        return self.var_index[atom]


def g_transform(program: Program, amap: AtomMap) -> Program:
    """Replace every atom occurrence x by `not f(x)`, leaving any double
    negation in place; `normalize` is the separate simplification pass."""
    missing = program.signature - amap.forward.keys()
    if missing:
        raise ValueError(f"atom map does not cover: {sorted(missing)}")
    image = frozenset(amap.forward[a] for a in program.signature)
    if image & program.signature:
        raise ValueError("atom map image must be disjoint from the signature")
    mapped = frozenset(
        Clause(
            head=tuple(Literal(amap.forward[h.atom], h.neg + 1) for h in c.head),
            body=tuple(Literal(amap.forward[b.atom], b.neg + 1) for b in c.body),
        )
        for c in program.clauses
    )
    return Program(mapped, image)


def normalize(program: Program) -> Program:
    """Contrapose every clause and cancel double negation.

    The head becomes the negated body and vice versa, with an empty side
    reading as the negation of verum or falsum, so facts turn into constraints
    and stripped heads into facts.
    """
    rewritten = set()
    for clause in program.clauses:
        new_head = sorted({b.negate().simplified() for b in clause.body})
        new_body = sorted({h.negate().simplified() for h in clause.head})
        rewritten.add(Clause(tuple(new_head), tuple(new_body)))
    return Program(frozenset(rewritten), program.signature)


def export_dimacs(program: Program) -> tuple[str, AtomMap]:
    """CNF text for the program, the DIMACS emitter of `NumberedTheory` on
    `_cnf` of the program, and the variable numbering it uses."""
    theory = _cnf(program)
    index = {a: i for i, a in enumerate(theory.atoms, 1)}
    return theory.to_dimacs(), AtomMap(var_index=index)
