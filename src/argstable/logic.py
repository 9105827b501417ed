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
from typing import Iterable, Mapping, Sequence

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
        return sorted(self.clauses)

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
    """The one solver: an iterative DPLL (`_dpll`) over the integer CNF image
    of a program, queried under assumptions.  `solve` takes unit assumptions
    and clauses for that call only; clauses appended to `clauses` hold for
    every later call, which is how the shrink/grow/block loops are expressed.
    """

    def __init__(self, program: Program):
        self.atoms, self.index, self.clauses = _cnf(program)

    def solve(
        self, assume: Iterable[int] = (), extra: Sequence[Sequence[int]] = (), default: bool = False
    ) -> Interpretation | None:
        value = _dpll(self.clauses + list(extra), len(self.atoms), assume)
        if value is None:
            return None
        # atoms are numbered 1.. in order; one the search left free takes `default`
        return frozenset(a for a, v in zip(self.atoms, value[1:]) if (default if v is None else v))

    def not_superset_of(self, s: Interpretation) -> list[int]:
        return [-self.index[a] for a in sorted(s)]

    def not_subset_of(self, s: Interpretation) -> list[int]:
        return [self.index[a] for a in sorted(set(self.atoms) - set(s))]

    def strictly_below(self, s: Interpretation) -> tuple[list[int], list[int]]:
        return [-self.index[a] for a in self.atoms if a not in s], self.not_superset_of(s)

    def strictly_above(self, s: Interpretation) -> tuple[list[int], list[int]]:
        return [self.index[a] for a in sorted(s)], self.not_subset_of(s)


def _dpll(cnf: Sequence[Sequence[int]], variables: int, assume: Iterable[int]) -> list | None:
    """Chronological backtracking over an explicit trail.  Returns the value
    of every literal in a model (None if left free), or None if there is none.

    `value` is indexed by literal, -v landing at slot 2 * variables + 1 - v.
    Unit propagation runs whole passes until one assigns nothing; that pass
    also picks the decision: the first unassigned literal's variable in the
    first clause not yet satisfied, tried true, then false."""
    value: list[bool | None] = [None] * (2 * variables + 1)
    for lit in assume:
        if value[lit] is False:
            return None
        value[lit], value[-lit] = True, False
    trail: list[int] = []
    # (trail length before the decision, decision literal); a positive
    # literal still has its false branch to try.
    decisions: list[tuple[int, int]] = []
    while True:
        conflict = False
        changed = True
        while changed and not conflict:
            changed = False
            branch = 0
            for clause in cnf:
                free = unassigned = 0
                for lit in clause:
                    v = value[lit]
                    if v is None:
                        if not unassigned:
                            free = lit
                        unassigned += 1
                    elif v:
                        break
                else:
                    if not unassigned:
                        conflict = True
                        break
                    if unassigned == 1:
                        value[free], value[-free] = True, False
                        trail.append(free)
                        changed = True
                    elif not branch:
                        branch = abs(free)
        if conflict:
            while decisions:
                mark, lit = decisions.pop()
                for undone in trail[mark:]:
                    value[undone] = value[-undone] = None
                del trail[mark:]
                if lit > 0:
                    decisions.append((mark, -lit))
                    value[-lit], value[lit] = True, False
                    trail.append(-lit)
                    break
            else:
                return None
        elif branch:
            decisions.append((len(trail), branch))
            value[branch], value[-branch] = True, False
            trail.append(branch)
        else:
            return value


def _extremal_models(program: Program, bound: int, maximal: bool) -> list[Interpretation]:
    """Find a model, improve it by re-solving under strict-subset (or
    superset) constraints until none remains, emit it, then block every
    superset (or subset) of it and repeat.  Unconstrained atoms default to
    the direction of the search."""
    check_bound(len(program.signature), bound, "program signature")
    solver = _CnfSolver(program)
    if maximal:
        beyond, block = solver.strictly_above, solver.not_subset_of
    else:
        beyond, block = solver.strictly_below, solver.not_superset_of
    found: list[Interpretation] = []
    while True:
        model = solver.solve(default=maximal)
        if model is None:
            break
        while True:
            assume, clause = beyond(model)
            better = solver.solve(assume, [clause], default=maximal)
            if better is None:
                break
            model = better
        found.append(model)
        solver.clauses.append(block(model))
    return canonical(found)


def minimal_models(program: Program, bound: int = DEFAULT_MODEL_BOUND) -> list[Interpretation]:
    """Subset-minimal models over the signature, by the shrink/block loop."""
    return _extremal_models(program, bound, maximal=False)


def maximal_models(program: Program, bound: int = DEFAULT_MODEL_BOUND) -> list[Interpretation]:
    """Subset-maximal models over the signature; the dual grow/block loop."""
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
    program, one UNSAT query per goal under the goal's negation."""
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
    the reduct tests whether a model of P^M lies strictly below M."""
    if not program.is_general():
        raise ValueError("stable models require a general program")
    negated = frozenset(b.atom for c in program.clauses for b in c.body if b.neg)
    found = []
    for candidate in minimal_models(program, bound=bound):
        if not negated.isdisjoint(candidate):
            solver = _CnfSolver(gl_reduct(program, candidate))
            assume, clause = solver.strictly_below(candidate)
            if solver.solve(assume, [clause]) is not None:
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
