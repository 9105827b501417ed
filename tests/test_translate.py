import json
import random
from collections import Counter
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from argstable import (
    ArgumentationFramework,
    Clause,
    Literal,
    Program,
    UnknownArgumentError,
    alpha,
    beta,
    compl,
    decode,
    defeat_atom,
    defeat_map,
    gamma,
    lambda_,
    maximal_models,
    minimal_models,
    normalize,
    g_transform,
    stable_fragment,
    stable_models,
)
from argstable.cli import _TARGETS
from argstable.logic import _rule_clauses
from argstable.translate import alpha_rules, beta_rules, defeat_cnf, gamma_rules
from tests.common import (
    CHAIN_ALPHA,
    CHAIN_BETA,
    EMPTY,
    KNOT_GAMMA,
    CHAIN,
    KNOT,
    KNOT_GAMMA_STABLE,
    KNOT_LAMBDA_STABLE,
    NAMES_ABOVE_D,
    NAMES_AROUND_D,
    NAMES_BELOW_D,
    NO_ATTACKS,
    SELF_ATTACK,
    defeat_frameworks,
    mutual_attacks,
    package_env,
    random_attacks,
    random_framework,
)


class TestDefeatMap:
    def test_chain(self):
        amap = defeat_map(CHAIN)
        assert amap.forward == {"a": "d(a)", "b": "d(b)", "c": "d(c)"}
        assert amap.invert("d(b)") == "b"

    def test_defeat_atom(self):
        assert defeat_atom("x1") == "d(x1)"


class TestAlpha:
    def test_chain(self):
        program = alpha(CHAIN)
        assert program.clauses == frozenset(CHAIN_ALPHA)
        assert program.signature == {"d(a)", "d(b)", "d(c)"}
        assert program.is_general()

    def test_unattacked_argument_contributes_nothing(self):
        assert alpha(NO_ATTACKS).clauses == frozenset()
        assert alpha(NO_ATTACKS).signature == {"d(a)", "d(b)"}

    def test_self_attack(self):
        texts = sorted(str(c) for c in alpha(SELF_ATTACK).clauses)
        assert texts == ["d(a) :- d(a).", "d(a) :- not d(a)."]

    def test_minimal_models_decode_to_preferred(self):
        minima = minimal_models(alpha(KNOT))
        assert [decode(KNOT, m) for m in minima] == [
            frozenset({"b", "d"}),
            frozenset({"a"}),
        ]


class TestBeta:
    def test_chain(self):
        program = beta(CHAIN)
        assert program.clauses == frozenset(CHAIN_BETA)
        assert program.signature == {"a", "b", "c"}

    def test_maximal_models_are_preferred(self):
        assert maximal_models(beta(CHAIN)) == [frozenset({"a", "c"})]
        assert maximal_models(beta(KNOT)) == [
            frozenset({"a"}),
            frozenset({"b", "d"}),
        ]

    def test_self_attack_blocks_acceptance(self):
        texts = sorted(str(c) for c in beta(SELF_ATTACK).clauses)
        assert texts == ["a :- a.", "not a :- a."]
        assert maximal_models(beta(SELF_ATTACK)) == [frozenset()]


class TestGamma:
    def test_knot(self):
        program = gamma(KNOT)
        assert program.clauses == frozenset(KNOT_GAMMA)
        assert program.is_positive()

    def test_head_sorted_and_deduplicated(self):
        program = gamma(SELF_ATTACK)
        texts = sorted(str(c) for c in program.clauses)
        assert texts == ["d(a) :- d(a).", "d(a)."]

    def test_stable_models(self):
        assert stable_models(gamma(KNOT)) == KNOT_GAMMA_STABLE
        assert stable_models(gamma(SELF_ATTACK)) == [frozenset({"d(a)"})]

    def test_stable_models_decode_to_preferred(self):
        found = [decode(KNOT, m) for m in stable_models(gamma(KNOT))]
        assert sorted(found, key=sorted) == [frozenset({"a"}), frozenset({"b", "d"})]


class TestLambda:
    def test_extends_gamma(self):
        program = lambda_(KNOT)
        assert gamma(KNOT).clauses <= program.clauses
        extras = program.clauses - gamma(KNOT).clauses
        assert extras == {
            Clause(head=(Literal(x),), body=(Literal(defeat_atom(x), 1),))
            for x in KNOT.arguments
        }
        assert program.signature == KNOT.arguments | gamma(KNOT).signature

    def test_stable_models(self):
        assert stable_models(lambda_(KNOT)) == KNOT_LAMBDA_STABLE

    def test_restriction_to_arguments_is_preferred(self):
        found = [m & KNOT.arguments for m in stable_models(lambda_(KNOT))]
        assert sorted(found, key=sorted) == [frozenset({"a"}), frozenset({"b", "d"})]

    def test_isolated_argument(self):
        af = ArgumentationFramework({"a"}, frozenset())
        assert stable_models(lambda_(af)) == [frozenset({"a"})]


class TestStableFragment:
    def test_chain(self):
        texts = sorted(str(c) for c in stable_fragment(CHAIN).clauses)
        assert texts == ["d(b) :- not d(a).", "d(c) :- not d(b)."]

    def test_stable_semantics(self):
        found = [decode(CHAIN, m) for m in stable_models(stable_fragment(CHAIN))]
        assert found == [frozenset({"a", "c"})]

    def test_self_attack_has_no_stable_extension(self):
        assert stable_models(stable_fragment(SELF_ATTACK)) == []


class TestComplDecode:
    def test_compl(self):
        assert compl(CHAIN, {"a", "c"}) == {"d(b)"}
        assert compl(CHAIN, frozenset()) == {"d(a)", "d(b)", "d(c)"}
        assert compl(CHAIN, CHAIN.arguments) == frozenset()

    def test_compl_unknown_member(self):
        with pytest.raises(UnknownArgumentError):
            compl(CHAIN, {"z"})

    def test_decode(self):
        assert decode(CHAIN, {"d(b)"}) == {"a", "c"}
        assert decode(CHAIN, frozenset()) == CHAIN.arguments

    def test_decode_ignores_argument_atoms(self):
        assert decode(KNOT, KNOT_LAMBDA_STABLE[0]) == {"a"}


@settings(max_examples=60)
@given(defeat_frameworks(), st.data())
def test_compl_decode_identity(af, data):
    members = data.draw(st.frozensets(st.sampled_from(sorted(af.arguments))) if af.arguments
                        else st.just(frozenset()))
    assert decode(af, compl(af, members)) == members


@settings(max_examples=60)
@given(defeat_frameworks())
def test_translation_sizes(af):
    n = len(af.arguments)
    for program in (alpha(af), beta(af), gamma(af)):
        assert len(program.clauses) <= 2 * n * n
        for c in program.clauses:
            assert len(c.head) + len(c.body) <= n + 1


@settings(max_examples=60)
@example(NAMES_BELOW_D)
@example(NAMES_ABOVE_D)
@example(NAMES_AROUND_D)
@example(EMPTY)
@given(defeat_frameworks())
def test_beta_and_stable_fragment_clause_by_clause(af):
    # the definitions, one `Clause` per attack (b, a) and rule
    beta_clauses, fragment = set(), set()
    for b, a in af.attacks:
        beta_clauses.add(Clause((Literal(b, 1),), (a,)))
        beta_clauses.add(Clause(tuple(sorted(af.attackers(b))), (a,)))
        fragment.add(Clause((defeat_atom(a),), (Literal(defeat_atom(b), 1),)))
    assert beta(af) == (beta_clauses, af.arguments)
    assert stable_fragment(af) == (fragment, {defeat_atom(x) for x in af.arguments})


# `d(a) :- not d(b)` and `d(a) v d(b)` give one clause, and so does `beta`'s
# `not b :- a` with every literal negated: the three encodings are one CNF.
# `alpha` keeps that clause once per direction of a mutual attack, so the
# clauses compare as sets.  `defeat_cnf`, which the engines solve, builds that
# CNF straight from the attacks: each clause once, each literal once in it,
# and clause for clause, literal order included, gamma's integer image less
# its tautologies.  The examples make one clause twice: `[a]` as the
# self-attack's clause and as the defender clause of an unattacked attacker;
# one defender clause for two attackers with the same attackers; and
# `[a0, b0]` once per direction.
@settings(max_examples=200)
@example(ArgumentationFramework({"a", "u"}, {("a", "a"), ("u", "a")}))
@example(ArgumentationFramework({"a", "b", "c", "e"}, {("c", "b"), ("c", "e"), ("b", "a"), ("e", "a")}))
@example(mutual_attacks(2))
@example(SELF_ATTACK)
@given(defeat_frameworks())
def test_alpha_gamma_and_mirrored_beta_are_one_cnf(af):
    def clause_set(theory, sign=1):
        return {frozenset(sign * lit for lit in c) for c in _rule_clauses(theory.clauses)}

    a, b, g = alpha_rules(af), beta_rules(af), gamma_rules(af)
    assert a.atoms == g.atoms == [defeat_atom(x) for x in b.atoms]
    assert clause_set(a) == clause_set(g) == clause_set(b, -1)
    cnf = defeat_cnf(af)
    clauses = [tuple(c) for c in cnf.clauses]
    assert cnf.atoms == g.atoms
    assert len(set(clauses)) == len(clauses)
    assert all(len(set(c)) == len(c) for c in clauses)
    image = [c for c in map(tuple, _rule_clauses(g.clauses)) if not _tautology(c)]
    assert Counter(clauses) == Counter(image)


def _tautology(clause):
    return any(-lit in clause for lit in clause)


# The defender clause of an attack (b, a) holds d(a) and, when a attacks b
# back, the negation of d(a): every assignment satisfies it.  `defeat_cnf`
# drops exactly those from gamma's integer image, and there are some exactly
# when an attack goes both ways or an argument attacks itself.
@settings(max_examples=200)
@example(mutual_attacks(2))
@example(SELF_ATTACK)
@example(KNOT)
@given(defeat_frameworks())
def test_defeat_cnf_is_gammas_image_less_its_tautologies(af):
    clauses = Counter(map(tuple, defeat_cnf(af).clauses))
    image = Counter(map(tuple, _rule_clauses(gamma_rules(af).clauses)))
    assert not any(_tautology(c) for c in clauses)
    assert clauses <= image
    dropped = image - clauses
    assert dropped == Counter({c: k for c, k in image.items() if _tautology(c)})
    assert bool(dropped) == any((t, s) in af.attacks for s, t in af.attacks)


def test_beta_to_alpha_on_random_frameworks():
    rng = random.Random(17)
    for _ in range(20):
        af = random_framework(rng, max_args=6)
        mapped = g_transform(beta(af), defeat_map(af))
        assert normalize(mapped).clauses == alpha(af).clauses


def test_to_cnf_encodes_the_rules_sorted():
    rng = random.Random(24)
    for _ in range(60):
        af = random_framework(rng)
        for build in _TARGETS.values():
            theory = build(af)
            assert theory.to_cnf().clauses == _rule_clauses(sorted(theory.clauses))


def test_program_of_the_rules_skips_the_signature_check(monkeypatch):
    """Every atom `program()` writes is one of the theory's atoms, and its
    signature is all of them, so `Program`'s check, which it skips, would
    pass."""
    scans = []
    scan = Program.occurring_atoms
    monkeypatch.setattr(Program, "occurring_atoms", lambda p: scans.append(p) or scan(p))
    rng = random.Random(25)
    for _ in range(60):
        af = random_framework(rng)
        for build in _TARGETS.values():
            theory = build(af)
            program = theory.program()
            assert scans == []
            assert Program(program.clauses, theory.atoms) == program
            assert scans.pop() == program


# The integer clauses each solver gets, in its order: `to_cnf` of every
# `translate` target and of `_cnf` of `alpha`, the engines' `defeat_cnf`,
# and every clause list a `_CnfSolver` receives during `preferred_via_lambda`,
# the copy solver of `stable_models` among them; one line per framework read
# from the APX texts on standard input.
_SOLVER_CLAUSES = """
import json, sys
from argstable import alpha, logic, parse_apx, preferred_via_lambda
from argstable.cli import _TARGETS
from argstable.logic import _cnf
from argstable.translate import defeat_cnf
received = []
init = logic._CnfSolver.__init__
def recorded(solver, atoms, cnf):
    received.append([list(c) for c in cnf])
    init(solver, atoms, cnf)
logic._CnfSolver.__init__ = recorded
for text in json.load(sys.stdin):
    af = parse_apx(text)
    theories = [build(af) for build in _TARGETS.values()] + [_cnf(alpha(af))]
    received.clear()
    preferred_via_lambda(af, bound=100)
    print([theory.to_cnf().clauses for theory in theories] + [defeat_cnf(af).clauses, received])
    assert len(received) > 1  # the minimal-model search and the copy solver at least
"""


# The rules are a set, and the attacks and a `Program`'s clauses are sets
# of strings, whose order the hash seed sets.  `to_cnf` encodes the rules
# sorted, and `_stable_models` renames them for its copy solver in that
# order; the sort of the attack pairs in `_read_attacks` fixes the order of
# `defeat_cnf`'s clauses.  So two runs of one commit make the same solver
# work.
def test_solver_clause_order_is_the_same_under_every_hash_seed():
    texts = json.dumps([af.to_apx() for af in (KNOT, mutual_attacks(6), random_attacks(30, 0.1, 1))])
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _SOLVER_CLAUSES], input=texts, env=package_env(PYTHONHASHSEED=seed),
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        for seed in ("0", "1")
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") == 3
