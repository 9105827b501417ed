"""End-to-end acceptance gate.

One test per criterion; each prints a single `[acceptance] criterion N:
PASS|FAIL (...)` line (visible under `pytest -s`).
"""

import random
import time
from contextlib import contextmanager

from argstable import (
    AtomMap,
    Program,
    alpha,
    beta,
    check_preferred_consequence,
    check_preferred_unsat,
    defeat_map,
    evaluate,
    export_dimacs,
    g_transform,
    gamma,
    gl_reduct,
    lambda_,
    maximal_models,
    minimal_models,
    models,
    normalize,
    preferred_oracle,
    preferred_via_alpha,
    preferred_via_gamma,
    preferred_via_lambda,
    query,
    stable_models,
)
from tests.common import (
    FOUR_RULE_PROGRAM,
    FOUR_RULE_REDUCT,
    CHAIN_ALPHA,
    KNOT_GAMMA,
    CHAIN,
    KNOT,
    KNOT_GAMMA_STABLE,
    KNOT_LAMBDA_STABLE,
    SELF_ATTACK,
    random_framework,
    random_program,
    subsets_of,
)

ENGINES = (preferred_via_alpha, preferred_via_gamma, preferred_via_lambda)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL ({description})")
        raise
    print(f"[acceptance] criterion {number}: PASS ({description})")


def test_criterion_01_three_argument_chain():
    with criterion(1, "three-argument chain golden case, all engines, < 0.1 s"):
        start = time.perf_counter()
        for engine in ENGINES:
            assert engine(CHAIN).extensions == (frozenset({"a", "c"}),)
        assert preferred_oracle(CHAIN) == [frozenset({"a", "c"})]
        theory = alpha(CHAIN)
        assert theory.clauses == CHAIN_ALPHA
        assert models(theory) == [
            frozenset({"d(a)", "d(b)", "d(c)"}),
            frozenset({"d(b)"}),
            frozenset({"d(b)", "d(c)"}),
        ]
        assert time.perf_counter() - start < 0.1


def test_criterion_02_five_argument_cycle():
    with criterion(2, "five-argument cycle golden case with queries, < 0.5 s"):
        start = time.perf_counter()
        program = gamma(KNOT)
        assert program.clauses == KNOT_GAMMA
        assert stable_models(program) == KNOT_GAMMA_STABLE
        for engine in ENGINES:
            assert engine(KNOT).extensions == (
                frozenset({"a"}),
                frozenset({"b", "d"}),
            )
        assert stable_models(lambda_(KNOT)) == KNOT_LAMBDA_STABLE
        brave = query(KNOT, "a", "brave")
        assert brave.holds
        assert brave.evidence == {"a", "d(b)", "d(c)", "d(d)", "d(e)"}
        cautious = query(KNOT, "a", "cautious")
        assert not cautious.holds
        assert cautious.evidence == {"b", "d", "d(a)", "d(c)", "d(e)"}
        assert time.perf_counter() - start < 0.5


def test_criterion_03_self_attack():
    with criterion(3, "self-attack: no stable model for the defeat theory"):
        assert stable_models(alpha(SELF_ATTACK)) == []
        assert stable_models(gamma(SELF_ATTACK)) == [frozenset({"d(a)"})]
        assert minimal_models(alpha(SELF_ATTACK)) == [frozenset({"d(a)"})]
        assert minimal_models(gamma(SELF_ATTACK)) == [frozenset({"d(a)"})]
        for engine in ENGINES:
            assert engine(SELF_ATTACK).extensions == (frozenset(),)


def test_criterion_04_reduct_golden_case():
    with criterion(4, "four-rule reduct golden case"):
        reduct = gl_reduct(FOUR_RULE_PROGRAM, {"b"})
        assert reduct.clauses == FOUR_RULE_REDUCT
        found = models(reduct)
        assert frozenset({"b"}) in found
        assert frozenset({"a", "b", "c"}) in found
        assert stable_models(FOUR_RULE_PROGRAM) == [frozenset({"b"})]


def test_criterion_05_oracle_equivalence():
    with criterion(5, "oracle equivalence, 300 random frameworks, < 60 s"):
        start = time.perf_counter()
        rng = random.Random(2026)
        for _ in range(300):
            af = random_framework(rng, max_args=7, density=(0.1, 0.9))
            expected = tuple(preferred_oracle(af))
            for engine in ENGINES:
                assert engine(af).extensions == expected
            if len(af.arguments) <= 5:
                preferred = set(expected)
                for members in subsets_of(af.arguments):
                    is_preferred = members in preferred
                    assert check_preferred_unsat(af, members).holds == is_preferred
                    assert check_preferred_consequence(af, members) == is_preferred
        assert time.perf_counter() - start < 60


def test_criterion_06_encoding_size_bounds():
    with criterion(6, "defeat theory stays within 2n^2 clauses of length n+1"):
        rng = random.Random(1848)
        for _ in range(100):
            af = random_framework(rng, max_args=7, density=(0.1, 0.9))
            n = len(af.arguments)
            theory = alpha(af)
            assert len(theory.clauses) <= 2 * n * n
            for c in theory.clauses:
                assert len(c.head) + len(c.body) <= n + 1


def test_criterion_07_copy_transform_duality():
    with criterion(7, "copy transform swaps maximal and minimal models"):
        rng = random.Random(907)
        for _ in range(100):
            program = random_program(rng, max_atoms=8, max_clauses=8)
            atoms = sorted(program.signature)
            amap = AtomMap(forward={a: f"q_{a}" for a in atoms})
            image = g_transform(program, amap)

            def mirror(m):
                return frozenset(amap.apply(x) for x in program.signature - m)

            mapped = sorted((mirror(m) for m in maximal_models(program)),
                            key=lambda s: tuple(sorted(s)))
            assert mapped == minimal_models(image)
            for a_clause in sorted(program.clauses):
                single = g_transform(
                    Program.of([a_clause], signature=program.signature), amap
                )
                (g_clause,) = single.clauses
                for m in subsets_of(program.signature):
                    assert evaluate(m, a_clause) == evaluate(mirror(m), g_clause)


def test_criterion_08_acceptance_theory_rewrites_to_defeat_theory():
    with criterion(8, "double-negation rewrite turns the acceptance theory into the defeat theory"):
        cases = [CHAIN]
        rng = random.Random(311)
        cases.extend(random_framework(rng, max_args=7, density=(0.1, 0.9))
                     for _ in range(100))
        for af in cases:
            rewritten = normalize(g_transform(beta(af), defeat_map(af)))
            assert rewritten.clauses == alpha(af).clauses


def test_criterion_09_positive_programs():
    with criterion(9, "positive programs: stable models equal minimal models"):
        rng = random.Random(433)
        for _ in range(100):
            program = random_program(rng, max_atoms=10, max_clauses=8, negation=False)
            assert program.is_positive()
            assert stable_models(program) == minimal_models(program)


def test_criterion_10_dimacs_soundness():
    with criterion(10, "DIMACS export has exactly the program's models"):
        rng = random.Random(577)
        for _ in range(50):
            program = random_program(rng, max_atoms=12, max_clauses=10)
            text, amap = export_dimacs(program)
            rows = [
                tuple(int(v) for v in line.split()[:-1])
                for line in text.splitlines()
                if line[0] not in "cp"
            ]
            atoms = sorted(program.signature)
            satisfying = []
            for mask in range(1 << len(atoms)):
                chosen = frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
                true_ints = {amap.index_of(a) for a in chosen}
                ok = all(
                    any((v in true_ints) if v > 0 else (-v not in true_ints)
                        for v in row)
                    for row in rows
                )
                if ok:
                    satisfying.append(chosen)
            assert sorted(satisfying, key=lambda s: tuple(sorted(s))) == models(program)
