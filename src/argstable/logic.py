"""Propositional clauses, interpretations and model enumeration.

A clause is a disjunction of head literals implied by a conjunction of body
literals; an empty head reads as falsum (a constraint) and an empty body as
verum (a fact).  Literals carry a negation depth instead of a boolean so that
rewriting passes can introduce double negation without simplifying it away;
cancellation happens only in the separate `normalize` pass.

Interpretations are plain frozensets of true atoms, judged against a program's
declared signature, which may be larger than the set of atoms that occur in
its clauses.  Exhaustive operations refuse signatures beyond `bound`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import BoundExceededError

DEFAULT_MODEL_BOUND = 24

Interpretation = frozenset[str]


@dataclass(frozen=True, order=True)
class Literal:
    atom: str
    neg: int = 0

    def __post_init__(self):
        if not isinstance(self.atom, str) or not self.atom:
            raise ValueError(f"invalid atom: {self.atom!r}")
        if self.neg < 0:
            raise ValueError("negation depth must be non-negative")

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


@dataclass(frozen=True, order=True)
class Clause:
    """`h1 v ... v hm :- l1, ..., ln` with m + n > 0.

    Plain general clauses keep heads at negation depth 0 and bodies at depth
    at most 1; transformation passes may build clauses outside that shape.
    """

    head: tuple[Literal, ...] = ()
    body: tuple[Literal, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "head", tuple(_as_literal(h) for h in self.head))
        object.__setattr__(self, "body", tuple(_as_literal(b) for b in self.body))
        if not self.head and not self.body:
            raise ValueError("a clause needs at least one head or body literal")

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
        head_text = " v ".join(str(h) for h in self.head)
        body_text = ", ".join(str(b) for b in self.body)
        if not self.head:
            return f":- {body_text}."
        if not self.body:
            return f"{head_text}."
        return f"{head_text} :- {body_text}."


def _clause_key(clause: Clause) -> tuple:
    # each literal contributes its atom and its depth, so comparing the flat
    # tuples compares literal by literal, and a proper prefix sorts first
    return (
        tuple([x for l in clause.head for x in (l.atom, l.neg)]),
        tuple([x for l in clause.body for x in (l.atom, l.neg)]),
    )


@dataclass(frozen=True)
class Program:
    """A finite clause set with an explicit signature."""

    clauses: frozenset[Clause]
    signature: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "clauses", frozenset(self.clauses))
        object.__setattr__(self, "signature", frozenset(self.signature))
        stray = self.occurring_atoms() - self.signature
        if stray:
            raise ValueError(f"clause atoms outside the signature: {sorted(stray)}")

    @classmethod
    def of(cls, clauses: Iterable[Clause], signature: Iterable[str] | None = None) -> "Program":
        clause_set = frozenset(clauses)
        occurring = frozenset(a for c in clause_set for a in c.atoms())
        sig = occurring if signature is None else frozenset(signature)
        return cls(clause_set, sig)

    def occurring_atoms(self) -> frozenset[str]:
        return frozenset(a for c in self.clauses for a in c.atoms())

    def sorted_clauses(self) -> list[Clause]:
        """The clauses in canonical order, the one `Clause`'s generated
        comparisons define: by head, then by body, literal by literal, each
        literal by atom and then negation depth.  A key of plain tuples gives
        that order without a generated `__lt__` call per comparison."""
        return sorted(self.clauses, key=_clause_key)

    def is_general(self) -> bool:
        return all(c.is_general() for c in self.clauses)

    def is_positive(self) -> bool:
        return all(c.is_positive() for c in self.clauses)

    def to_asp(self) -> str:
        """One clause per line, canonical order, `not` for negation."""
        return "".join(str(c) + "\n" for c in self.sorted_clauses())

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


def _int_literal(index: Mapping[str, int], literal: Literal) -> int:
    """The integer image of a literal: its atom's number, negated at odd depth."""
    return index[literal.atom] if literal.neg % 2 == 0 else -index[literal.atom]


def _cnf(program: Program) -> tuple[list[str], dict[str, int], list[list[int]]]:
    """The integer CNF image of a program, shared by the solver and the DIMACS
    export: the signature sorted and numbered from 1, then one integer clause
    per clause in canonical order.  Head literals keep their parity, body
    literals flip, and a repeated literal is kept once, where it first occurs."""
    atoms = sorted(program.signature)
    index = {a: i + 1 for i, a in enumerate(atoms)}
    cnf = []
    for clause in program.sorted_clauses():
        lits = [_int_literal(index, h) for h in clause.head]
        lits += [-_int_literal(index, b) for b in clause.body]
        cnf.append(list(dict.fromkeys(lits)))
    return atoms, index, cnf


class _CnfSolver:
    """The one solver, over the integer CNF image of a program: conflict-driven
    clause learning after MiniSat (Eén & Sörensson, "An Extensible
    SAT-solver", SAT 2003), with two watched literals per clause (Moskewicz et
    al., "Chaff", DAC 2001).

    Clauses given to `add` hold for every later call.  `solve` makes its
    assumptions the first decisions; `extremal_models` enumerates in one
    search, resumed after each model.  Each conflict is analysed to its first
    unique implication point; the learned clause sends the search back to the
    highest decision level among its other literals.  Assumptions are
    decisions, so no learned clause rests on them: every learned clause, and
    every assignment at level 0, follows from the clauses added so far, and
    both are kept for every later call.
    """

    def __init__(self, program: Program):
        self.atoms, self.index, cnf = _cnf(program)
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
        for clause in cnf:
            self.unsat = self.unsat or not self._attach(clause)

    def add(self, clause: Sequence[int]) -> None:
        """Add a clause for every later call."""
        self.unsat = self.unsat or not self._attach(list(dict.fromkeys(clause)))

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
        """Watch a clause before the first decision; False if the assignment
        already falsifies it.  A clause with one literal not false forces it."""
        value = self.value
        if len(clause) > 1 and (value[clause[0]] is False or value[clause[1]] is False):
            clause.sort(key=lambda lit: value[lit] is False)
        if not clause or value[clause[0]] is False:
            return False
        if len(clause) > 1:
            self.watches[clause[0]].append(clause)
            self.watches[clause[1]].append(clause)
        if value[clause[0]] is None and (len(clause) == 1 or value[clause[1]] is False):
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


def _extremal_models(program: Program, bound: int, maximal: bool) -> list[Interpretation]:
    """The minimal (or maximal) models in canonical order, one search step
    each: decisions that set atoms false (or true) make the first model found
    extremal (Castell et al., ECAI 1996), as `_CnfSolver.extremal_models`
    explains, so no model is shrunk or grown."""
    check_bound(len(program.signature), bound, "program signature")
    return canonical(_CnfSolver(program).extremal_models(default=maximal))


def minimal_models(program: Program, bound: int = DEFAULT_MODEL_BOUND) -> list[Interpretation]:
    """Subset-minimal models over the signature."""
    return _extremal_models(program, bound, maximal=False)


def maximal_models(program: Program, bound: int = DEFAULT_MODEL_BOUND) -> list[Interpretation]:
    """Subset-maximal models over the signature."""
    return _extremal_models(program, bound, maximal=True)


def is_unsatisfiable(program: Program, bound: int = DEFAULT_MODEL_BOUND) -> bool:
    check_bound(len(program.signature), bound, "program signature")
    return _CnfSolver(program).solve() is None


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
            check_bound(len(program.signature), bound, "program signature")
            solver = _CnfSolver(program)
        # not (H :- B) holds exactly when every body literal holds and every
        # head literal fails
        denial = [_int_literal(solver.index, b) for b in goal.body]
        denial += [-_int_literal(solver.index, h) for h in goal.head]
        if solver.solve(denial) is not None:
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
    """All sets that are minimal models of their own reduct.

    Candidates are the classical minimal models M of P: a smaller model of P
    would model P^M too.  M models P^M, as each kept clause had its stripped
    `not b` true under M, and a constraint stripped bare would be false under
    M.  If no atom of M occurs under `not`, P^M and P agree on the subsets of
    M, so M is stable, as is every candidate of a positive program; otherwise
    one solve of P^M with every atom outside M assumed false finds a model
    of P^M minimal among those within M (Castell et al. 1996, as in
    `_CnfSolver.extremal_models`), and M is stable exactly when that model is
    M itself."""
    if not program.is_general():
        raise ValueError("stable models require a general program")
    negated = frozenset(b.atom for c in program.clauses for b in c.body if b.neg)
    found = []
    for candidate in minimal_models(program, bound=bound):
        if not negated.isdisjoint(candidate):
            solver = _CnfSolver(gl_reduct(program, candidate))
            if solver.solve([-solver.index[a] for a in solver.atoms if a not in candidate]) != candidate:
                continue
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


@dataclass(frozen=True)
class AtomMap:
    """A bijection between source and target atoms, with an optional dense
    1-based variable numbering used by the DIMACS export."""

    forward: Mapping[str, str] = field(default_factory=dict)
    var_index: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "forward", dict(self.forward))
        object.__setattr__(self, "var_index", dict(self.var_index))
        if len(set(self.forward.values())) != len(self.forward):
            raise ValueError("atom map is not a bijection")
        if self.var_index:
            indices = sorted(self.var_index.values())
            if indices != list(range(1, len(indices) + 1)):
                raise ValueError("variable indices must be dense from 1")
        object.__setattr__(
            self, "_inverse", {v: k for k, v in self.forward.items()}
        )

    def apply(self, atom: str) -> str:
        return self.forward[atom]

    def invert(self, atom: str) -> str:
        return self._inverse[atom]

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


def _dimacs_name(atom: str) -> str:
    return atom.replace("(", "_").replace(")", "")


def export_dimacs(program: Program) -> tuple[str, AtomMap]:
    """CNF text for the program: comment lines naming the variables, a
    `p cnf V C` header, then one clause per line in canonical order."""
    atoms, index, cnf = _cnf(program)
    lines = [f"c var {index[a]} = {_dimacs_name(a)}" for a in atoms]
    lines.append(f"p cnf {len(atoms)} {len(cnf)}")
    lines.extend(" ".join(map(str, c)) + " 0" for c in cnf)
    return "".join(line + "\n" for line in lines), AtomMap(var_index=index)
