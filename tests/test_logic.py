import itertools
import random
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from argstable import (
    AtomMap,
    BoundExceededError,
    Clause,
    Literal,
    Program,
    entails,
    evaluate,
    export_dimacs,
    g_transform,
    gl_reduct,
    is_minimal_model_by_consequence,
    is_model,
    is_unsatisfiable,
    maximal_models,
    minimal_models,
    models,
    normalize,
    stable_models,
)
from argstable.logic import _CnfSolver, _cnf, _rule, _rule_clauses, _solver
from argstable.translate import alpha, beta, defeat_map, gamma
from tests.common import (
    FOUR_RULE_PROGRAM,
    FOUR_RULE_REDUCT,
    CHAIN_ALPHA,
    CHAIN,
    SELF_ATTACK,
    brute_maximal,
    brute_minimal,
    brute_stable,
    count_searches,
    count_solver_builds,
    mutual_attacks,
    random_program,
)


def clause(head=(), body=()):
    return Clause(head=tuple(head), body=tuple(body))


class TestLiteral:
    def test_str(self):
        assert str(Literal("a")) == "a"
        assert str(Literal("a", 1)) == "not a"
        assert str(Literal("a", 2)) == "not not a"

    def test_negate_and_simplify(self):
        lit = Literal("a").negate().negate()
        assert lit.neg == 2
        assert lit.simplified() == Literal("a")
        assert Literal("a", 3).simplified() == Literal("a", 1)

    def test_positive(self):
        assert Literal("a", 2).positive
        assert not Literal("a", 1).positive

    @pytest.mark.parametrize("atom", ["", 1, None])
    def test_atom_must_be_a_nonempty_string(self, atom):
        with pytest.raises(ValueError, match="invalid atom"):
            Literal(atom)

    # `str`, `Program.to_asp` and the solver count and number by the depth,
    # so it is an integer, or the literal is refused where it is made
    @pytest.mark.parametrize("neg", [1.5, 2.0, -1.5, "1", None])
    def test_negation_depth_must_be_an_integer(self, neg):
        with pytest.raises(TypeError):
            Literal("a", neg)

    def test_negation_depth_is_coerced_to_int(self):
        lit = Literal("a", True)
        assert lit == Literal("a", 1) and type(lit.neg) is int
        assert str(lit) == "not a"
        assert Literal("a", False)._replace(neg=True) == Literal("a", 1)

    def test_negation_depth_must_be_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            Literal("a", -1)


class TestClause:
    def test_needs_a_literal(self):
        with pytest.raises(ValueError):
            Clause()

    def test_literals_are_literals_or_atom_names(self):
        with pytest.raises(TypeError, match="expected Literal or atom name, got 1"):
            Clause(head=(1,))
        with pytest.raises(TypeError, match="got None"):
            Clause(head=("a",), body=(None,))

    def test_str_forms(self):
        assert str(clause(["a"])) == "a."
        assert str(clause(["a", "b"], [Literal("c", 1)])) == "a v b :- not c."
        assert str(clause((), ["a"])) == ":- a."

    def test_str_coercion(self):
        c = Clause(head=("a",), body=("b",))
        assert c.head == (Literal("a"),)
        assert c.body == (Literal("b"),)

    def test_named_tuple_fields(self):
        c = Clause(head=("a",))
        assert c == ((Literal("a"),), ()) and Literal("a", 1) == ("a", 1)
        assert repr(c) == "Clause(head=(Literal(atom='a', neg=0),), body=())"
        with pytest.raises(AttributeError):
            c.body = ()
        assert c._replace(body=("b",)).body == (Literal("b"),)
        with pytest.raises(ValueError):
            c._replace(head=())
        with pytest.raises(ValueError):
            Literal("a")._replace(neg=-1)

    def test_classification(self):
        assert clause(["a"], [Literal("b", 1)]).is_general()
        assert not clause([Literal("a", 1)]).is_general()
        assert not clause(["a"], [Literal("b", 2)]).is_general()
        assert clause(["a", "b"], ["c"]).is_positive()
        assert not clause(["a"], [Literal("b", 1)]).is_positive()
        assert clause(["a"]).is_fact
        assert clause((), ["a"]).is_constraint


class TestProgram:
    def test_signature_must_cover_atoms(self):
        with pytest.raises(ValueError):
            Program.of([clause(["a"])], signature={"b"})

    def test_default_signature(self):
        p = Program.of([clause(["a"], ["b"])])
        assert p.signature == {"a", "b"}

    def test_to_asp_sorted(self):
        p = Program.of([clause(["b"]), clause(["a"])])
        assert p.to_asp() == "a.\nb.\n"

    def test_str_is_the_asp_text(self):
        p = Program.of([clause(["b"], [Literal("a", 1)]), clause((), ["a"])])
        assert str(p) == p.to_asp() == ":- a.\nb :- not a.\n"


# atoms that are prefixes of one another, so that string order and tuple
# order could part ways
_prefix_literals = st.builds(
    Literal, st.sampled_from(["a", "a1", "b", "d(a)", "d(a1)"]), st.integers(0, 3)
)


def _draw_clauses(draw, head_literals, body_literals, least, most):
    """`least` to `most` clauses, each with at most three head and three body
    literals; a clause with no head has at least one body literal."""
    clauses = []
    for _ in range(draw(st.integers(least, most))):
        head = draw(st.lists(head_literals, max_size=3))
        body = draw(st.lists(body_literals, min_size=0 if head else 1, max_size=3))
        clauses.append(Clause(tuple(head), tuple(body)))
    return clauses


@st.composite
def prefix_programs(draw):
    return Program.of(_draw_clauses(draw, _prefix_literals, _prefix_literals, 0, 8))


@settings(max_examples=200)
@example(Program.of([
    clause(["a"], ["a1"]),
    clause(["a", "a1"]),
    clause(["a"], ["a1", Literal("d(a)", 2)]),
    clause([Literal("a", 1)]),
    clause([], ["a"]),
]))
@given(prefix_programs())
def test_emitters_follow_the_sorted_clauses(p):
    """On atoms that are prefixes of one another, the ASP text is the
    clauses in `sorted(p.clauses)` order, and so are a solver's clauses:
    `_cnf`'s numbering keeps the atoms' string order."""
    ordered = sorted(p.clauses)
    assert p.to_asp() == "".join(f"{c}\n" for c in ordered)
    index = {a: i for i, a in enumerate(sorted(p.signature), 1)}
    assert _cnf(p).to_cnf().clauses == _rule_clauses([_rule(c, index) for c in ordered])


def test_cnf_encodes_the_rules_of_the_sorted_clauses():
    """`_cnf` numbers the signature in sorted order, so the rules `to_cnf`
    sorts are the rules of the program's sorted clauses, in that order: a
    solver built from a `Program` gets its clauses in canonical order."""
    rng = random.Random(24)
    programs = [random_program(rng) for _ in range(150)]
    # negation depth 2 in the bodies, 1 in the heads
    programs += [g_transform(p, AtomMap({a: f"f({a})" for a in p.signature})) for p in programs]
    for p in programs:
        index = {a: i for i, a in enumerate(sorted(p.signature), 1)}
        expected = _rule_clauses([_rule(c, index) for c in sorted(p.clauses)])
        assert _cnf(p).to_cnf().clauses == expected


class TestEvaluate:
    def test_rule_with_default_negation(self):
        c = clause(["b"], [Literal("a", 1)])
        assert evaluate({"b"}, c, signature={"a", "b"})
        assert not evaluate(frozenset(), c, signature={"a", "b"})

    def test_constraint(self):
        c = clause((), [Literal("a", 1)])
        assert not evaluate(frozenset(), c, signature={"a"})
        assert evaluate({"a"}, c, signature={"a"})

    def test_disjunctive_head(self):
        c = clause(["a", "c"], ["b"])
        assert evaluate({"a", "b"}, c)
        assert evaluate({"b", "c"}, c)
        assert not evaluate({"b"}, c)

    def test_interpretation_outside_signature(self):
        with pytest.raises(ValueError):
            is_model(Program.of([clause(["a"])]), {"z"})

    def test_clause_outside_signature(self):
        with pytest.raises(ValueError, match=r"clause atoms outside the signature: \['z'\]"):
            evaluate(frozenset(), clause(["a"], ["z"]), signature={"a"})


class TestModels:
    def test_four_rule_reduct_models(self):
        assert models(Program.of(FOUR_RULE_REDUCT)) == [
            frozenset({"a", "b", "c"}),
            frozenset({"b"}),
            frozenset({"b", "c"}),
        ]

    def test_empty_program_over_empty_signature(self):
        assert models(Program.of([])) == [frozenset()]

    def test_inconsistent(self):
        p = Program.of([clause(["a"]), clause((), ["a"])])
        assert models(p) == []

    def test_signature_larger_than_atoms(self):
        p = Program.of([clause(["a"])], signature={"a", "b"})
        assert models(p) == [frozenset({"a"}), frozenset({"a", "b"})]

    def test_bound(self):
        sig = {f"p{i}" for i in range(30)}
        with pytest.raises(BoundExceededError):
            models(Program.of([], signature=sig))


class TestMinimalMaximal:
    def test_alpha_chain_minimal(self):
        assert minimal_models(Program.of(CHAIN_ALPHA)) == [frozenset({"d(b)"})]

    def test_disjunction(self):
        p = Program.of([clause(["a", "b"])])
        assert minimal_models(p) == [frozenset({"a"}), frozenset({"b"})]
        assert maximal_models(p) == [frozenset({"a", "b"})]

    def test_empty_program(self):
        p = Program.of([], signature={"a"})
        assert minimal_models(p) == [frozenset()]
        assert maximal_models(p) == [frozenset({"a"})]

    def test_unsatisfiable_program(self):
        p = Program.of([clause(["a"]), clause((), ["a"])])
        assert minimal_models(p) == []
        assert maximal_models(p) == []

    def test_beta_chain_maximal(self):
        assert maximal_models(beta(CHAIN)) == [frozenset({"a", "c"})]

    def test_against_brute_force(self):
        rng = random.Random(11)
        for _ in range(30):
            p = random_program(rng, max_atoms=6, max_clauses=6)
            everything = models(p)
            assert minimal_models(p) == brute_minimal(everything)
            assert maximal_models(p) == brute_maximal(everything)


class TestUnsatisfiable:
    def test_simple(self):
        assert is_unsatisfiable(Program.of([clause(["a"]), clause((), ["a"])]))
        assert not is_unsatisfiable(Program.of([clause(["a"])]))

    def test_certificate_shape(self):
        base = list(alpha(CHAIN).clauses)
        denials = [clause([Literal("d(a)", 1)]), clause([Literal("d(c)", 1)])]
        refutation = [clause([Literal("d(b)", 1)])]
        sig = alpha(CHAIN).signature
        assert is_unsatisfiable(Program.of(base + denials + refutation, signature=sig))
        assert not is_unsatisfiable(Program.of(base + denials, signature=sig))


class TestEntails:
    def test_alpha_consequence(self):
        premises = list(alpha(CHAIN).clauses) + [
            clause([Literal("d(a)", 1)]),
            clause([Literal("d(c)", 1)]),
        ]
        p = Program.of(premises, signature=alpha(CHAIN).signature)
        assert entails(p, clause(["d(b)"]))

    def test_empty_program_entails_nothing_contingent(self):
        p = Program.of([], signature={"a"})
        assert not entails(p, clause(["a"]))

    def test_fact_entailed(self):
        assert entails(Program.of([clause(["a"])]), clause(["a"]))

    def test_empty_conjunction(self):
        assert entails(Program.of([clause(["a"])]), [])

    def test_multiple_clauses(self):
        p = Program.of([clause(["a"]), clause(["b"], ["a"])], signature={"a", "b", "c"})
        assert entails(p, [clause(["a"]), clause(["b"])])
        assert not entails(p, [clause(["a"]), clause(["c"])])

    def test_goal_outside_signature(self):
        p = Program.of([clause(["a"])])
        with pytest.raises(ValueError):
            entails(p, clause(["z"]))

    def test_every_goal_is_checked_before_any_solve(self):
        # b is not entailed, and the stray z after it still raises, also
        # at a bound the program exceeds
        p = Program.of([clause(["a"])], signature={"a", "b"})
        for bound in (24, 0):
            with pytest.raises(ValueError, match=r"goal atoms outside the signature: \['z'\]"):
                entails(p, [clause(["b"]), clause(["z"])], bound=bound)

    def test_empty_conjunction_builds_no_solver(self, monkeypatch):
        built = count_solver_builds(monkeypatch)
        assert entails(Program.of([clause(["a"])]), [], bound=0)
        assert built == []


_STRAY = Program.of([clause(["a"]), clause(["b"], [Literal("a", 1)])])


# every check of a caller's atoms against a signature, with its exact text
@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: Program([clause(["a"], ["z", "y"])], {"a"}),
                 "clause atoms outside the signature: ['y', 'z']", id="Program"),
    pytest.param(lambda: evaluate(frozenset(), clause(["a"], ["z"]), signature=["a"]),
                 "clause atoms outside the signature: ['z']", id="evaluate"),
    pytest.param(lambda: is_model(_STRAY, {"a", "z", "y"}),
                 "interpretation atoms outside the signature: ['y', 'z']", id="is_model"),
    pytest.param(lambda: entails(_STRAY, [clause(["a"]), clause(["z"], ["y"]), clause(["x"])]),
                 "goal atoms outside the signature: ['y', 'z']", id="entails"),
    pytest.param(lambda: gl_reduct(_STRAY, {"b", "z"}),
                 "reduct set atoms outside the signature: ['z']", id="gl_reduct"),
])
def test_atoms_outside_the_signature_raise(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message


class TestReduct:
    def test_worked_example(self):
        reduct = gl_reduct(FOUR_RULE_PROGRAM, {"b"})
        assert reduct.clauses == FOUR_RULE_REDUCT
        assert reduct.signature == FOUR_RULE_PROGRAM.signature

    def test_empty_context_keeps_negative_bodies_as_facts(self):
        reduct = gl_reduct(FOUR_RULE_PROGRAM, frozenset())
        texts = sorted(str(c) for c in reduct.clauses)
        assert texts == ["b.", "c :- a.", "c."]

    def test_full_context_drops_negative_rules(self):
        reduct = gl_reduct(FOUR_RULE_PROGRAM, {"a", "b", "c"})
        texts = sorted(str(c) for c in reduct.clauses)
        assert texts == ["b.", "c :- a."]

    def test_self_blocking_rule(self):
        p = Program.of([clause(["b"], [Literal("b", 1)])])
        assert gl_reduct(p, {"b"}).clauses == frozenset()

    def test_constraint_with_satisfied_negative_body_blocks_everything(self):
        p = Program.of([clause((), [Literal("a", 1)])], signature={"a"})
        reduct = gl_reduct(p, frozenset())
        assert models(reduct) == []

    def test_requires_general_program(self):
        p = Program.of([clause([Literal("a", 1)])])
        with pytest.raises(ValueError):
            gl_reduct(p, frozenset())

    def test_set_outside_signature(self):
        with pytest.raises(ValueError, match=r"reduct set atoms outside the signature: \['z'\]"):
            gl_reduct(FOUR_RULE_PROGRAM, {"b", "z"})

    def test_result_is_negation_free(self):
        rng = random.Random(5)
        for _ in range(20):
            p = random_program(rng, max_atoms=5, max_clauses=5)
            for s in (frozenset(), p.signature):
                assert gl_reduct(p, s).is_positive()


class TestStableModels:
    def test_worked_example(self):
        assert stable_models(FOUR_RULE_PROGRAM) == [frozenset({"b"})]

    def test_alpha_self_attack_has_none(self):
        assert stable_models(alpha(SELF_ATTACK)) == []

    def test_gamma_self_attack(self):
        assert stable_models(gamma(SELF_ATTACK)) == [frozenset({"d(a)"})]

    def test_fact_and_constraint(self):
        p = Program.of([clause(["a"]), clause((), ["a"])])
        assert stable_models(p) == []

    def test_requires_general_program(self):
        p = Program.of([clause(["a"], [Literal("b", 2)])])
        with pytest.raises(ValueError, match="stable models require a general program"):
            stable_models(p)

    def test_against_brute_force(self):
        rng = random.Random(23)
        for _ in range(30):
            p = random_program(rng, max_atoms=6, max_clauses=7)
            assert stable_models(p) == brute_stable(p)

    def test_copy_solver_takes_the_rules_in_to_cnf_order(self, monkeypatch):
        """The copy solver's clauses, each copy read back as the atom it
        copies, are `to_cnf`'s, in its order."""
        received = []
        init = _CnfSolver.__init__

        def recorded(solver, atoms, cnf):
            received.append((atoms, [list(c) for c in cnf]))
            init(solver, atoms, cnf)

        monkeypatch.setattr(_CnfSolver, "__init__", recorded)
        rng = random.Random(24)
        for _ in range(60):
            p = random_program(rng, max_atoms=6, max_clauses=7)
            theory = _cnf(p)
            received.clear()
            stable_models(p)
            n = len(theory.atoms)
            negated = sorted({v for _, body in theory.clauses for v, neg in body if neg})
            copied = {k: v for k, v in enumerate(negated, n + 1)}
            copies = [cnf for atoms, cnf in received if len(atoms) > n]
            assert len(copies) == bool(negated)
            for cnf in copies:
                read_back = [
                    list(dict.fromkeys(copied.get(l, l) if l > 0 else l for l in clause))
                    for clause in cnf
                ]
                assert read_back == theory.to_cnf().clauses


_pool = st.sampled_from([f"p{i}" for i in range(7)])


@st.composite
def general_programs(draw):
    """General programs over at most seven atoms: heads at negation depth 0,
    bodies at depth at most 1, constraints and disjunctive heads included,
    over a signature that may declare unused atoms."""
    # the depth is given: `builds` would fill a defaulted `NamedTuple` field
    clauses = _draw_clauses(draw, st.builds(Literal, _pool, st.just(0)),
                            st.builds(Literal, _pool, st.integers(0, 1)), 1, 6)
    occurring = {l.atom for c in clauses for l in c.head + c.body}
    return Program.of(clauses, signature=occurring | draw(st.frozensets(_pool)))


@settings(max_examples=200)
@given(general_programs())
def test_minimal_models_model_their_reduct(p):
    for m in minimal_models(p):
        assert is_model(gl_reduct(p, m), m)


# `b :- not a` has the stable model {b}, which avoids the negated atom a,
# and the minimal model {a}, which the reduct rejects.  In the last example
# {a} is stable, and a copy of the negated atom `a` named `a'` would collide
# with an atom that the constraint keeps false.
@settings(max_examples=100)
@example(FOUR_RULE_PROGRAM)
@example(alpha(SELF_ATTACK))
@example(Program.of([clause(["b"], [Literal("a", 1)])]))
@example(Program.of([clause(["a"], [Literal("a'", 1)]), clause(["b"], [Literal("a", 1)]), clause([], ["a'"])]))
@given(general_programs())
def test_stable_models_match_brute_force(p):
    assert stable_models(p) == brute_stable(p)


def test_each_extremal_model_takes_one_search(monkeypatch):
    """Decisions that set atoms false make the first model found minimal
    (Castell et al. 1996), so m minimal models take at most m + 1 searches on
    one solver, the last one finding nothing: nothing re-solves a model to
    shrink it.  Over n atoms and L literal occurrences in the program's
    integer clauses, the whole solver stops at its floor(L / n) + 1-th
    minimal model, the first whose count times n exceeds L, if the program
    falls into parts; then each part gets a solver of its own, whose searches
    are at most one more than the minimal models' distinct projections onto
    its atoms.  `maximal_models` runs the same search on the mirrored
    theory, whose minimal models are the complements of the maximal ones,
    over the same atoms and literal count.  For a program with `not`,
    `stable_models` builds one more solver, over copy atoms named by
    numbers, that checks every candidate in at most one search."""
    built = count_solver_builds(monkeypatch)
    searches = count_searches(monkeypatch)
    rng = random.Random(31)
    programs = [FOUR_RULE_PROGRAM, alpha(SELF_ATTACK), alpha(mutual_attacks(4)), gamma(CHAIN), beta(CHAIN)]
    programs += [random_program(rng, max_atoms=8, max_clauses=8) for _ in range(100)]
    for p in programs:
        literals = sum(map(len, _rule_clauses(_cnf(p).clauses)))
        split_point = literals // (len(p.signature) or 1) + 1
        for enumerate_models in (minimal_models, maximal_models, stable_models):
            if enumerate_models is stable_models and not p.is_general():
                continue
            # the models the searches find, maximal ones as their complements
            candidates = (maximal_models if enumerate_models is maximal_models else minimal_models)(p)
            del built[:], searches[:]
            enumerate_models(p)
            per_solver = Counter(map(id, searches))
            whole, *parts = [s for s in built if all(isinstance(a, str) for a in s.atoms)]
            assert whole is built[0]
            if parts:
                assert per_solver[id(whole)] == split_point <= len(candidates)
                part_atoms = sorted(a for part in parts for a in part.atoms)
                assert part_atoms == sorted(p.occurring_atoms())
            else:
                assert per_solver[id(whole)] <= len(candidates) + 1
            for part in parts:
                projections = {m & frozenset(part.atoms) for m in candidates}
                assert per_solver[id(part)] <= len(projections) + 1
            copies = [s for s in built[1:] if not all(isinstance(a, str) for a in s.atoms)]
            assert len(copies) == (enumerate_models is stable_models and not p.is_positive())
            assert all(per_solver[id(solver)] <= len(candidates) for solver in copies)


def _disjoint_union(programs, unused=0):
    """The programs with their atoms renamed apart (`p0` of the second is
    `p0_1`), over one signature that also declares `unused` atoms in no
    clause."""
    rename = lambda literals, k: tuple(Literal(f"{l.atom}_{k}", l.neg) for l in literals)
    clauses = [Clause(rename(c.head, k), rename(c.body, k))
               for k, p in enumerate(programs) for c in p.clauses]
    signature = {f"{a}_{k}" for k, p in enumerate(programs) for a in p.signature}
    return Program.of(clauses, signature | {f"unused{i}" for i in range(unused)})


_EITHER = Program.of([clause(["a", "b"])])
_ONE_OF_THREE = Program.of([clause(["a", "b", "c"])])
_CHOICE = Program.of([clause(["a"], [Literal("b", 1)]), clause(["b"], [Literal("a", 1)])])


# `a v b` with tautologies, which change no model: 2 minimal models over 2
# atoms and 10 literal occurrences in 4 clauses
_PADDED = Program.of([
    clause(["a", "b"]), clause(["a", "b"], ["a", "b"]), clause(["a"], ["a"]), clause(["b"], ["b"]),
])


@st.composite
def disjoint_unions(draw):
    """Disjoint unions of up to three parts, each a `random_program` of at
    most two atoms or a part with two minimal models, and up to two unused
    atoms, so that unions fall on both sides of the split point."""
    random_part = st.integers(0, 2 ** 32).map(
        lambda seed: random_program(random.Random(seed), max_atoms=2, max_clauses=3))
    parts = st.one_of(random_part, st.sampled_from([_EITHER, _CHOICE, _PADDED]))
    return _disjoint_union(draw(st.lists(parts, min_size=1, max_size=3)), draw(st.integers(0, 2)))


# Two padded parts: 4 minimal models over 4 atoms and 20 literal occurrences.
# With one unused atom, 4 models times 5 atoms is 20, exactly at the split
# point: one whole search.  With two, the fourth model is the first past
# 20 / 6 atoms, one model past it: two part solvers.
_AT_SPLIT_POINT = _disjoint_union([_PADDED] * 2, 1)
_PAST_SPLIT_POINT = _disjoint_union([_PADDED] * 2, 2)
# Far past it: 4 models over 4 atoms and over 5, 6 over 5, 8 over 6 and 8
# over 7, with 4 to 8 literal occurrences, enumerated part by part
_SPLIT = {
    "either-2": _disjoint_union([_EITHER, _EITHER]),
    "either-2-unused-1": _disjoint_union([_EITHER, _EITHER], 1),
    "either-one-of-three": _disjoint_union([_EITHER, _ONE_OF_THREE]),
    "either-3": _disjoint_union([_EITHER] * 3),
    "choice-3-unused-1": _disjoint_union([_CHOICE] * 3, 1),
}


# Two parts, {x1, x3, x5} and {x2, x4}, that interleave in sort order, so
# the product of the parts' models is not in canonical order
_INTERLEAVED = Program.of([clause((), ["x3", "x5"]), clause(["x1"], ["x3"]), clause((), ["x2", "x4"])])


@settings(max_examples=100)
@example(_AT_SPLIT_POINT)
@example(_PAST_SPLIT_POINT)
@example(_SPLIT["either-2"])
@example(_SPLIT["either-one-of-three"])
@example(_SPLIT["either-3"])
@example(_SPLIT["choice-3-unused-1"])
@example(_INTERLEAVED)
@given(disjoint_unions())
def test_disjoint_unions_match_brute_force(p):
    everything = models(p)
    assert minimal_models(p) == brute_minimal(everything)
    assert maximal_models(p) == brute_maximal(everything)
    assert stable_models(p) == brute_stable(p)


# a connected program past the split point keeps its one whole search
@pytest.mark.parametrize("p, parts", [
    pytest.param(_AT_SPLIT_POINT, 0, id="at-split-point"),
    pytest.param(_PAST_SPLIT_POINT, 2, id="past-split-point"),
    pytest.param(_ONE_OF_THREE, 0, id="connected"),
    *(pytest.param(p, k, id=name) for (name, p), k in zip(_SPLIT.items(), (2, 2, 2, 3, 3))),
])
def test_minimal_models_split_only_past_the_literal_count(monkeypatch, p, parts):
    built = count_solver_builds(monkeypatch)
    assert minimal_models(p) == brute_minimal(models(p))
    assert len(built) == 1 + parts


@pytest.mark.parametrize("k", range(8, 13))
def test_maximal_models_of_disjoint_parts_are_enumerated_part_by_part(monkeypatch, k):
    """k disjoint constraints `:- a, b` have 2^k maximal models, one of each
    pair in each.  The mirrored search splits at its second model and gives
    each pair a solver of its own; one search would enumerate all 2^k."""
    p = _disjoint_union([Program.of([clause((), ["a", "b"])])] * k)
    built = count_solver_builds(monkeypatch)
    found = maximal_models(p)
    assert len(built) == 1 + k
    assert len(set(found)) == len(found) == 2 ** k
    # k atoms, at most one of each pair: exactly one, so each is maximal
    assert all(len(m) == k and is_model(p, m) for m in found)


class TestGTransform:
    def test_chain_intermediate(self):
        mapped = g_transform(beta(CHAIN), defeat_map(CHAIN))
        assert mapped.to_asp() == (
            ":- not d(b).\n"
            "not d(a) :- not d(c).\n"
            "not not d(a) :- not d(b).\n"
            "not not d(b) :- not d(c).\n"
        )

    def test_no_simplification(self):
        p = Program.of([clause(["a"])])
        amap = AtomMap({"a": "q"}, {"q": 1})
        mapped = g_transform(p, amap)
        (only,) = mapped.clauses
        assert only.head == (Literal("q", 1),)

    def test_map_must_cover_signature(self):
        p = Program.of([clause(["a"], ["b"])])
        with pytest.raises(ValueError):
            g_transform(p, AtomMap({"a": "q"}, {"q": 1}))

    def test_image_must_be_fresh(self):
        p = Program.of([clause(["a"], ["b"])])
        bad = AtomMap({"a": "b", "b": "c"}, {"b": 1, "c": 2})
        with pytest.raises(ValueError):
            g_transform(p, bad)


class TestNormalize:
    def test_beta_to_alpha(self):
        mapped = g_transform(beta(CHAIN), defeat_map(CHAIN))
        assert normalize(mapped).clauses == alpha(CHAIN).clauses

    def test_contraposition(self):
        p = Program.of([clause([Literal("a", 1)], ["b"])], signature={"a", "b"})
        out = normalize(p)
        (only,) = out.clauses
        assert only == clause([Literal("b", 1)], ["a"])

    def test_fact_contraposes_to_constraint(self):
        p = Program.of([clause(["a"])])
        assert normalize(p).clauses == frozenset({clause((), [Literal("a", 1)])})

    def test_double_negation_cancels(self):
        p = Program.of([clause([Literal("a", 2)])])
        assert normalize(p).clauses == frozenset({clause((), [Literal("a", 1)])})

    def test_stripped_empty_body_becomes_fact(self):
        p = Program.of([clause((), [Literal("a", 1)])])
        assert normalize(p).clauses == frozenset({clause(["a"])})


class TestMinimalByConsequence:
    def test_alpha_chain(self):
        p = Program.of(CHAIN_ALPHA)
        assert is_minimal_model_by_consequence(p, {"d(b)"})
        assert not is_minimal_model_by_consequence(p, {"d(b)", "d(c)"})
        assert not is_minimal_model_by_consequence(p, {"d(a)"})

    def test_agrees_with_enumeration(self):
        rng = random.Random(31)
        for _ in range(15):
            p = random_program(rng, max_atoms=5, max_clauses=5)
            minima = set(minimal_models(p))
            for m in models(p):
                assert is_minimal_model_by_consequence(p, m) == (m in minima)

    def test_empty_model_builds_no_solver(self):
        p = Program.of([clause(["b"], ["a"])])
        assert is_minimal_model_by_consequence(p, frozenset(), bound=0)

    def test_bound_applies_to_a_non_empty_model(self):
        p = Program.of([clause(["b"], ["a"])])
        with pytest.raises(BoundExceededError) as raised:
            is_minimal_model_by_consequence(p, {"b"}, bound=1)
        assert str(raised.value) == "program signature has 2 atoms, exceeding the bound of 1"

    def test_non_model_is_refused_before_the_bound(self):
        p = Program.of([clause(["b"], ["a"])])
        assert not is_minimal_model_by_consequence(p, {"a"}, bound=0)

    def test_stray_atom_raises(self):
        p = Program.of([clause(["b"], ["a"])])
        with pytest.raises(ValueError, match="outside the signature"):
            is_minimal_model_by_consequence(p, {"z"})


class TestDimacs:
    def test_single_rule(self):
        p = Program.of([clause(["b"], ["a"])])
        text, amap = export_dimacs(p)
        assert text == "c var 1 = a\nc var 2 = b\np cnf 2 1\n2 -1 0\n"
        assert amap.var_index == {"a": 1, "b": 2}

    def test_constraint_row(self):
        p = Program.of([clause((), ["a"])])
        text, _ = export_dimacs(p)
        assert text.endswith("p cnf 1 1\n-1 0\n")

    def test_alpha_chain(self):
        text, amap = export_dimacs(alpha(CHAIN))
        assert text == (
            "c var 1 = d_a\n"
            "c var 2 = d_b\n"
            "c var 3 = d_c\n"
            "p cnf 3 4\n"
            "2 0\n"
            "2 1 0\n"
            "3 -1 0\n"
            "3 2 0\n"
        )
        assert amap.var_index == {"d(a)": 1, "d(b)": 2, "d(c)": 3}

    def test_assignments_match_models(self):
        rng = random.Random(41)
        for _ in range(10):
            p = random_program(rng, max_atoms=5, max_clauses=5, negation=False)
            text, amap = export_dimacs(p)
            rows = [line for line in text.splitlines() if line[0] not in "cp"]
            cnf = [tuple(int(v) for v in line.split()[:-1]) for line in rows]
            atoms = sorted(p.signature)
            sat = []
            for mask in range(1 << len(atoms)):
                chosen = frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
                true_ints = {amap.index_of(a) for a in chosen}
                false_ints = {amap.index_of(a) for a in p.signature - chosen}
                ok = all(
                    any(v in true_ints if v > 0 else -v in false_ints for v in row)
                    for row in cnf
                )
                if ok:
                    sat.append(chosen)
            assert sorted(sat, key=sorted) == sorted(models(p), key=sorted)


_atoms = st.sampled_from(["p0", "p1", "p2", "p3"])
_literals = st.builds(Literal, _atoms, st.integers(0, 3))


@st.composite
def programs(draw):
    """Small programs with repeated atoms and negation depth up to 3 on either
    side of a clause, over a signature that may declare unused atoms."""
    clauses = _draw_clauses(draw, _literals, _literals, 1, 5)
    occurring = {l.atom for c in clauses for l in c.head + c.body}
    return Program.of(clauses, signature=occurring | draw(st.frozensets(_atoms)))


@settings(max_examples=150)
@example(Program.of([
    clause([Literal("p0"), Literal("p0", 2)], [Literal("p1", 1), Literal("p1", 3)]),
    clause([], [Literal("p0", 2), Literal("p0")]),
]))
@given(programs())
def test_cnf_encoding_has_exactly_the_models(p):
    """The one CNF encoder, read back from its DIMACS text and brute-forced,
    has the program's models; the solver loops built on it agree too."""
    text, amap = export_dimacs(p)
    lines = text.splitlines()
    rows = [[int(v) for v in line.split()] for line in lines if line[0] not in "cp"]
    assert f"p cnf {len(p.signature)} {len(rows)}" in lines
    for row in rows:
        assert row[-1] == 0 and 0 not in row[:-1]
        assert len(set(row[:-1])) == len(row) - 1
    atom_of = {amap.index_of(a): a for a in p.signature}
    satisfying = []
    for mask in range(1 << len(atom_of)):
        true_vars = {v for v in atom_of if mask >> (v - 1) & 1}
        if all(any((l > 0) == (abs(l) in true_vars) for l in row[:-1]) for row in rows):
            satisfying.append(frozenset(atom_of[v] for v in true_vars))
    expected = models(p)
    assert sorted(satisfying, key=sorted) == sorted(expected, key=sorted)
    assert minimal_models(p) == brute_minimal(expected)
    assert maximal_models(p) == brute_maximal(expected)


@st.composite
def programs_with_goals(draw):
    """A program from `programs` and one to three goals over its signature,
    constraints included; small atom pools make tautologies such as
    `p0 :- p0` and atoms on both sides of a goal common."""
    p = draw(programs())
    literals = st.builds(Literal, st.sampled_from(sorted(p.signature)), st.integers(0, 3))
    return p, _draw_clauses(draw, literals, literals, 1, 3)


@settings(max_examples=150)
@example((
    Program.of([clause(["p0"], [Literal("p1", 1)])], signature={"p0", "p1"}),
    [
        clause(["p0"], ["p0"]),
        clause([], [Literal("p0", 1), Literal("p1", 1)]),
        clause([Literal("p1", 2)], [Literal("p1", 3)]),
    ],
))
@given(programs_with_goals())
def test_entails_agrees_with_models(case):
    p, goals = case
    everything = models(p)
    expected = [all(evaluate(m, g) for m in everything) for g in goals]
    assert [entails(p, g) for g in goals] == expected
    assert entails(p, goals) == all(expected)


@st.composite
def solver_sessions(draw):
    """A CNF over at most six variables and a sequence of assumption lists,
    each one `solve` on one solver, before an enumeration of its minimal
    models; repeated literals and contradictory assumptions included.  Each
    list is a prefix of the one before, of any length, plus up to three new
    literals, so consecutive calls share levels the solver may keep; the
    count of literals dropped is drawn, so that long prefixes are common."""
    n = draw(st.integers(1, 6))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    initial = draw(st.lists(st.lists(literal, min_size=1, max_size=4), max_size=10))
    steps = [[]]
    for _ in range(draw(st.integers(0, 12))):
        kept = len(steps[-1]) - draw(st.integers(0, len(steps[-1])))
        steps.append(steps[-1][:kept] + draw(st.lists(literal, max_size=3)))
    return n, initial, steps[1:]


def _satisfies(true_vars, cnf):
    return all(any((l > 0) == (abs(l) in true_vars) for l in c) for c in cnf)


def _brute_models(n, cnf):
    subsets = [frozenset(v for v in range(1, n + 1) if mask >> (v - 1) & 1) for mask in range(1 << n)]
    return [s for s in subsets if _satisfies(s, cnf)]


# First example: deciding x1 false implies not x2 and x2, a conflict with two
# literals of that level, so a learned clause that stopped short of the
# first UIP would be [2], which no model satisfies.  Second: the first
# minimal model, {x5}, is reached by deciding x1 and x2 false and leaves the
# unit block clause [-5]; asserted anywhere but at level 0, where nothing
# undoes it, it falls to a later backtrack, and {x5} comes out twice.
# Third: deciding x1 false implies x2 and x3, so the block clause [-3, -2]
# has two literals at level 1, and the search must leave that level to find
# {x1}.  Fourth: the unit clauses falsify both watches of [1, 2] before any
# propagation, which must still find the conflict.  Decisions set the lowest
# unassigned variable false, so each answer is the lexicographically least
# model by the key below, which no clause order changes.  Each answer is
# also the one a fresh solver gives: the levels a call keeps change nothing.
# Fifth: the second call shares the first's assumptions x1, x2 and x3, and
# assumes x4 where the first assumed it false, so a solver that kept one
# level more than the shared prefix would answer with x4 still false.
@settings(max_examples=300)
@example((2, [[-1, -2], [1, -2], [1, 2]], [[]]))
@example((5, [[5, 2]], []))
@example((3, [[1, 2], [1, 3]], []))
@example((2, [[-1], [-2], [1, 2]], [[]]))
@example((4, [], [[1, 2, 3, -4], [1, 2, 3, 4]]))
@given(solver_sessions())
def test_incremental_solver_agrees_with_brute_force(session):
    n, initial, steps = session
    key = lambda s: [v in s for v in range(1, n + 1)]
    atoms = [f"x{v}" for v in range(1, n + 1)]
    program = Program.of(
        [
            Clause(tuple(f"x{l}" for l in c if l > 0), tuple(f"x{-l}" for l in c if l < 0))
            for c in initial
        ],
        signature=atoms,
    )
    theory = _cnf(program)
    assert theory.atoms == atoms
    index = {a: v for v, a in enumerate(atoms, 1)}
    solver = _solver(theory.to_cnf(), bound=n)
    for assume in steps:
        candidates = _brute_models(n, initial + [[l] for l in assume])
        model = solver.solve(assume)
        assert model == _solver(theory.to_cnf(), bound=n).solve(assume)
        assert (model is not None) == bool(candidates)
        if model is None:
            continue
        found = frozenset(index[a] for a in model)
        assert found == min(candidates, key=key)
        if all(l < 0 for l in assume):
            # decisions and assumptions all false leave no model of these
            # clauses below the one found
            assert not [s for s in candidates if s < found]
    candidates = _brute_models(n, initial)
    # one more than there are sets, so a model found twice cannot loop forever
    found = [
        frozenset(index[a] for a in m)
        for m in itertools.islice(solver.minimal_models(), (1 << n) + 1)
    ]
    assert len(found) == len(set(found))
    assert set(found) == set(brute_minimal(candidates))
    assert found == sorted(found, key=key)
    # the block clauses keep out every model
    assert solver.solve() is None


class TestAtomMap:
    def test_round_trip(self):
        amap = AtomMap({"a": "d(a)"}, {"d(a)": 1})
        assert amap.apply("a") == "d(a)"
        assert amap.invert("d(a)") == "a"
        assert amap.index_of("d(a)") == 1

    def test_invert_outside_the_image(self):
        amap = AtomMap({"a": "d(a)"})
        with pytest.raises(KeyError):
            amap.invert("a")

    def test_forward_must_be_injective(self):
        with pytest.raises(ValueError):
            AtomMap({"a": "x", "b": "x"}, {"x": 1})

    def test_indices_dense_from_one(self):
        with pytest.raises(ValueError):
            AtomMap({"a": "x"}, {"x": 2})
