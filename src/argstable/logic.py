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
        stray = self.occurring_atoms() - self.signature
        if stray:
            raise ValueError(f"clause atoms outside the signature: {sorted(stray)}")
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

    def sorted_clauses(self) -> list[Clause]:
        """The clauses in canonical order, the order of `Clause` tuples: by
        head, then by body, literal by literal, each literal by atom and then
        negation depth."""
        return sorted(self.clauses)

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
        stray = clause.atoms() - frozenset(signature)
        if stray:
            raise ValueError(f"clause atoms outside the signature: {sorted(stray)}")
    if not all(literal_value(b, interpretation) for b in clause.body):
        return True
    return any(literal_value(h, interpretation) for h in clause.head)


def is_model(program: Program, interpretation: Interpretation) -> bool:
    interp = frozenset(interpretation)
    stray = interp - program.signature
    if stray:
        raise ValueError(f"interpretation atoms outside the signature: {sorted(stray)}")
    return all(evaluate(interp, c) for c in program.clauses)


def check_bound(size: int, bound: int, what: str, unit: str = "atoms") -> None:
    """The one bound policy of every exhaustive operation: refuse `size`
    beyond `bound` with `BoundExceededError`."""
    if size > bound:
        raise BoundExceededError(f"{what} has {size} {unit}, exceeding the bound of {bound}")


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
    clauses = program.sorted_clauses()
    found = []
    for bits in range(1 << len(atoms)):
        interp = frozenset(a for i, a in enumerate(atoms) if bits >> i & 1)
        if all(evaluate(interp, c) for c in clauses):
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
    """A theory as integer rules: atom number i names `atoms[i - 1]`, and
    `clauses` holds the rules, deduplicated and in canonical `Clause` order,
    so that `_cnf` of `program()` gives them back.  It is what every solver
    is built from and what every text is emitted from: `_cnf` numbers a
    user's `Program`, and `translate` builds its theories as rules outright,
    so `argstable translate` never builds a `Clause`."""

    atoms: list[str]
    clauses: list[Rule]

    def program(self) -> Program:
        """The `Program` of the rules, with one shared `Literal` per atom and
        negation depth."""
        literals = {
            pair: Literal(self.atoms[pair[0] - 1], pair[1])
            for pair in {pair for head, body in self.clauses for pair in head + body}
        }
        clauses = [
            Clause(tuple([literals[h] for h in head]), tuple([literals[b] for b in body]))
            for head, body in self.clauses
        ]
        return Program(frozenset(clauses), frozenset(self.atoms))

    def to_asp(self) -> str:
        """The ASP emitter: one rule per line, in order, as `str` of its
        `Clause` reads."""
        text = {
            pair: "not " * pair[1] + self.atoms[pair[0] - 1]
            for pair in {pair for head, body in self.clauses for pair in head + body}
        }
        return "".join(
            _clause_text([text[h] for h in head], [text[b] for b in body]) + "\n"
            for head, body in self.clauses
        )

    def to_dimacs(self) -> str:
        """The DIMACS emitter: comment lines naming the variables, with `(`
        as `_` and `)` dropped, a `p cnf V C` header, then the integer clause
        of each rule in order."""
        cnf = _rule_clauses(self.clauses)
        lines = [f"c var {i} = {a.replace('(', '_').replace(')', '')}\n"
                 for i, a in enumerate(self.atoms, 1)]
        lines.append(f"p cnf {len(self.atoms)} {len(cnf)}\n")
        lines += [" ".join(map(str, c)) + " 0\n" for c in cnf]
        return "".join(lines)

    def solver(self, bound: int, cnf: list[list[int]] | None = None) -> _CnfSolver:
        """The one solver entry for a theory: the bound policy on the atoms,
        then a solver over `cnf`, the integer clause of each rule, which a
        caller that has built it already passes in."""
        check_bound(len(self.atoms), bound, "program signature")
        return _CnfSolver(self.atoms, _rule_clauses(self.clauses) if cnf is None else cnf)


def _cnf(program: Program) -> NumberedTheory:
    """The one place a user's program becomes rules, shared by the solver and
    the DIMACS export: the signature sorted and numbered from 1, then one rule
    per clause in canonical order."""
    atoms = sorted(program.signature)
    index = {a: i for i, a in enumerate(atoms, 1)}
    return NumberedTheory(atoms, [_rule(clause, index) for clause in program.sorted_clauses()])


class _CnfSolver:
    """The one solver, over integer clauses on the numbered `atoms`, built by
    `NumberedTheory.solver` from a theory's rules and by `_minimal_models`
    for each part of one.
    Conflict-driven clause learning after MiniSat (Eén & Sörensson, "An
    Extensible SAT-solver", SAT 2003), with two watched literals per clause
    (Moskewicz et al., "Chaff", DAC 2001).

    `solve` makes its assumptions the first decisions; `extremal_models`
    enumerates in one search, resumed after each model.  Each conflict is
    analysed to its first unique implication point; the learned clause sends
    the search back to the highest decision level among its other literals.
    Assumptions are decisions, so no learned clause rests on them: every
    learned clause, and every assignment at level 0, follows from the clauses
    added so far, and both are kept for every later call.
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
        self.free = 1  # every variable below `free` has a value
        self.unsat = False  # the clauses added so far have no model
        # a clause of two literals or more is watched at its first two, with
        # no call per clause; the first unsatisfiable one ends the attaching
        watches = self.watches
        for clause in cnf:
            if len(clause) > 1:
                watches[clause[0]].append(clause)
                watches[clause[1]].append(clause)
            elif not self._attach(clause):
                self.unsat = True
                break

    def solve(self, assume: Iterable[int] = (), default: bool = False) -> Interpretation | None:
        """A model of the clauses added so far and the assumed literals, or
        None if there is none.  Each decision gives the lowest unassigned
        variable the value `default`, so no atom is left free.  If every
        assumption sets its atom to `default` too, the model is minimal
        (False) or maximal (True) among those models, as `extremal_models`
        explains."""
        model = None if self.unsat else self._search(list(assume), default)
        self._backtrack(0)
        return model

    def extremal_models(self, default: bool) -> Iterator[Interpretation]:
        """Every minimal (`default` False) or maximal (True) model of the
        clauses added so far, each as soon as one search finds it; no other
        call may come between two of them.

        Every decision sets its atom to `default`, and every other literal on
        the trail is implied by a clause that follows from the added ones.
        So no model N of those clauses lies strictly between the model M
        found and the `default` side (below M for False, above for True):
        the first trail literal N falsifies is no decision, as N agrees with
        M wherever M takes `default`, and no implied literal, whose clause N
        would falsify (Castell, Cayrol, Cayrol & Le Berre, "Using the Davis
        and Putnam procedure for an efficient computation of preferred
        models", ECAI 1996).  So each model is extremal as found, with no
        step that shrinks or grows it.  Its block clause, the negated
        literals that differ from `default`, keeps out it and every model
        beyond it, none of them extremal, and the search resumes from the
        trail instead of starting again (Toda & Soh, "Implementing efficient
        all solutions SAT solvers", ACM JEA 2016)."""
        while not self.unsat:
            model = self._search([], default)
            if model is None:
                break
            yield model
            # the trail runs in level order, so the block clause starts with
            # its literals of the highest level
            self._backjump([-lit for lit in reversed(self.trail) if (lit > 0) != default])
        self._backtrack(0)

    def _attach(self, clause: list[int]) -> bool:
        """Assign the literal of a unit clause; False for an empty clause or a
        unit clause already false.  Nothing is propagated yet, so the first
        propagation visits every clause that watches a literal the units
        falsify."""
        if not clause or self.value[clause[0]] is False:
            return False
        if self.value[clause[0]] is None:
            self._assign(clause[0], clause)
        return True

    def _assign(self, lit: int, reason: list[int] | None) -> None:
        self.value[lit], self.value[-lit] = True, False
        v = abs(lit)
        self.level[v], self.reason[v] = len(self.limits), reason
        self.trail.append(lit)

    def _undo(self, mark: int) -> None:
        """Unassign the trail from `mark` on."""
        value, free = self.value, self.free
        for lit in self.trail[mark:]:
            value[lit] = value[-lit] = None
            v = lit if lit > 0 else -lit
            if v < free:
                free = v
        self.free = free
        del self.trail[mark:]
        self.head = min(self.head, mark)

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
        if len(self.limits) > depth:
            self._undo(self.limits[depth])
            del self.limits[depth:]

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

    def _search(self, assume: list[int], default: bool) -> Interpretation | None:
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
                v = self.free
                while v <= variables and value[v] is not None:
                    v += 1
                self.free = v
                if v > variables:
                    return frozenset(a for a, x in zip(self.atoms, value[1:]) if x)
                limits.append(len(self.trail))
                self._assign(v if default else -v, None)


def minimal_models(program: Program, bound: int = DEFAULT_MODEL_BOUND) -> list[Interpretation]:
    """Subset-minimal models over the signature."""
    return _minimal_models(_cnf(program), bound)


def _minimal_models(theory: NumberedTheory, bound: int) -> list[Interpretation]:
    """The minimal models of a theory given as integer rules, in canonical order.

    They are the unions of one minimal model per part (`_parts`), with every
    atom in no clause false.  One search keeps every block clause, so a large
    product is cheaper part by part, but splitting costs a pass over the
    literal occurrences of the integer clauses and a solver per part.  So the
    whole search runs first, rent or buy, and splits once its models times
    the atoms exceed the literal occurrences, counted only once they exceed
    the clauses.  A theory with few models never splits: on the benchmark's
    seed-1 cycles, 600 of `enumerate`'s 780 solve operations split, and none
    of `search`'s or `decide`'s."""
    cnf = _rule_clauses(theory.clauses)
    search = theory.solver(bound, cnf).extremal_models(default=False)
    n = len(theory.atoms) or 1
    found = list(islice(search, len(cnf) // n + 1))
    if len(found) > len(cnf) // n:
        literals = sum(map(len, cnf))
        found += islice(search, literals // n + 1 - len(found))
        parts = _parts(theory.atoms, cnf) if len(found) > literals // n else []
        if len(parts) > 1:
            product = [frozenset()]
            for atoms, clauses in parts:
                # a part's atoms are the theory's, which met the bound
                own = list(_CnfSolver(atoms, clauses).extremal_models(default=False))
                product = [m | p for m in product for p in own]
            return canonical(product)
    return canonical(found + list(search))


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
    """Subset-maximal models over the signature."""
    return canonical(_cnf(program).solver(bound).extremal_models(default=True))


def is_unsatisfiable(program: Program, bound: int = DEFAULT_MODEL_BOUND) -> bool:
    return _cnf(program).solver(bound).solve() is None


def entails(
    program: Program,
    conjunction: Clause | Iterable[Clause],
    bound: int = DEFAULT_MODEL_BOUND,
) -> bool:
    """Logical consequence of a conjunction of clauses: one solver over the
    program, one UNSAT query per goal under the goal's negation, made as
    assumptions, so what the solver learns on one goal serves the next."""
    goals = [conjunction] if isinstance(conjunction, Clause) else list(conjunction)
    solver = None  # built at the first goal: an empty conjunction needs no bound
    for goal in goals:
        stray = goal.atoms() - program.signature
        if stray:
            raise ValueError(f"goal atoms outside the signature: {sorted(stray)}")
        if solver is None:
            solver = _cnf(program).solver(bound)
            index = {a: i for i, a in enumerate(solver.atoms, 1)}
        # not (H :- B) holds exactly when every literal of its clause fails
        (clause,) = _rule_clauses([_rule(goal, index)])
        if solver.solve([-lit for lit in clause]) is not None:
            return False
    return True


def gl_reduct(program: Program, s: Interpretation) -> Program:
    """Reduct of a general program with respect to a set of atoms: drop every
    clause whose body negates a member of `s`, strip the remaining negated
    body literals."""
    if not program.is_general():
        raise ValueError("reduct requires a general program")
    stray = frozenset(s) - program.signature
    if stray:
        raise ValueError(f"reduct set atoms outside the signature: {sorted(stray)}")
    reduced: list[Clause] = []
    for clause in program.sorted_clauses():
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
    """All sets that are minimal models of their own reduct (`_stable_models`)."""
    if not program.is_general():
        raise ValueError("stable models require a general program")
    return _stable_models(_cnf(program), bound)


def _stable_models(theory: NumberedTheory, bound: int) -> list[Interpretation]:
    """The stable models of a general theory given as integer rules.

    Candidates are the classical minimal models M of P: a smaller model of P
    would model P^M too.  A positive theory is its own reduct.  Otherwise
    one solver checks every candidate (guess and check: Koch, Leone &
    Pfeifer, AIJ 2003).  It holds P with each `not b` reading a copy of b,
    numbered after P's n atoms: the k-th negated atom's copy is n + k.
    Copies assumed true for the negated atoms in M drop the clauses P^M
    drops, the others assumed false strip `not b`, and every other atom
    outside M assumed false leaves one solve for a model of P^M minimal among
    those within M (Castell et al. 1996, as in `_CnfSolver.extremal_models`).
    M models P^M, as each clause P^M keeps had its `not b` true under M, so M
    is stable exactly when that model, its copies aside, is M."""
    candidates = _minimal_models(theory, bound)
    negated = sorted({v for _, body in theory.clauses for v, neg in body if neg})
    if not negated:
        return candidates
    copy = {v: k for k, v in enumerate(negated, len(theory.atoms) + 1)}
    renamed = [(head, tuple([(copy[v], 1) if neg else (v, 0) for v, neg in body]))
               for head, body in theory.clauses]
    # a copy is named by its number, which no atom name, a string, equals;
    # the copies meet no bound of their own, as the candidates met it
    solver = NumberedTheory(theory.atoms + list(copy.values()), renamed).solver(bound + len(copy))
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
    atom outside m entails every atom of m."""
    interp = frozenset(m)
    if not is_model(program, interp):
        return False
    denials = frozenset(
        Clause(head=(Literal(a, 1),)) for a in program.signature - interp
    )
    strengthened = Program(program.clauses | denials, program.signature)
    goal = [Clause(head=(Literal(a),)) for a in sorted(interp)]
    return entails(strengthened, goal, bound=bound)


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
