import collections
import io
import itertools
import random
import sys
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from argstable import (
    ArgumentationFramework,
    AtomMap,
    BoundExceededError,
    Clause,
    Literal,
    Program,
    check_preferred_consequence,
    check_preferred_unsat,
    compl,
    decode,
    gl_reduct,
    is_minimal_model_by_consequence,
    is_model,
    is_unsatisfiable,
    lambda_,
    models,
    parse_apx,
    parse_tgf,
    preferred_oracle,
    preferred_via_alpha,
    preferred_via_gamma,
    preferred_via_lambda,
    query,
    stable_oracle,
    stable_fragment,
    stable_models,
)
from argstable import cli, engines, logic
from argstable.logic import _CnfSolver, _cnf, _rule_clauses, canonical
from argstable.translate import alpha, alpha_rules, defeat_atom, gamma, gamma_rules
from tests.common import (
    EMPTY,
    CHAIN,
    KNOT,
    KNOT_GAMMA_STABLE,
    KNOT_LAMBDA_STABLE,
    NO_ATTACKS,
    SELF_ATTACK,
    attack_chain,
    count_searches,
    count_solver_builds,
    knot_copies,
    mutual_attacks,
    odd_cycles,
    random_attacks,
    random_framework,
    recursion_headroom,
    sink,
    subsets_of,
)

ENGINES = (preferred_via_alpha, preferred_via_gamma, preferred_via_lambda)


class TestEnginesAgreeOnGoldenCases:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_chain(self, engine):
        report = engine(CHAIN)
        assert report.extensions == (frozenset({"a", "c"}),)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_knot(self, engine):
        report = engine(KNOT)
        assert report.extensions == (frozenset({"a"}), frozenset({"b", "d"}))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_self_attack(self, engine):
        assert engine(SELF_ATTACK).extensions == (frozenset(),)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_empty_framework(self, engine):
        assert engine(EMPTY).extensions == (frozenset(),)


class TestWitnesses:
    def test_alpha_witnesses_knot(self):
        report = preferred_via_alpha(KNOT)
        assert report.engine == "alpha"
        assert report.witnesses[frozenset({"a"})] == {
            "d(b)", "d(c)", "d(d)", "d(e)",
        }
        assert report.witnesses[frozenset({"b", "d"})] == {"d(a)", "d(c)", "d(e)"}

    def test_gamma_witnesses_knot(self):
        report = preferred_via_gamma(KNOT)
        assert set(report.witnesses.values()) == set(KNOT_GAMMA_STABLE)

    def test_lambda_witnesses_knot(self):
        report = preferred_via_lambda(KNOT)
        assert set(report.witnesses.values()) == set(KNOT_LAMBDA_STABLE)

    def test_witness_decodes_to_its_extension(self):
        rng = random.Random(3)
        for _ in range(15):
            af = random_framework(rng, max_args=5)
            for engine in (preferred_via_alpha, preferred_via_gamma):
                report = engine(af)
                for ext, witness in report.witnesses.items():
                    assert decode(af, witness) == ext

    def test_alpha_witnesses_are_minimal(self):
        rng = random.Random(13)
        for _ in range(10):
            af = random_framework(rng, max_args=5)
            report = preferred_via_alpha(af)
            for witness in report.witnesses.values():
                assert is_minimal_model_by_consequence(alpha(af), witness)

    def test_gamma_witnesses_are_stable(self):
        rng = random.Random(19)
        for _ in range(10):
            af = random_framework(rng, max_args=5)
            program = gamma(af)
            for witness in preferred_via_gamma(af).witnesses.values():
                reduct = gl_reduct(program, witness)
                assert is_model(reduct, witness)
                assert not any(m < witness for m in models(reduct))


class TestUnsatChecker:
    def test_holds(self):
        check = check_preferred_unsat(CHAIN, {"a", "c"})
        assert check.holds
        assert check.failure is None
        assert check.counter_model is None

    def test_not_maximal(self):
        check = check_preferred_unsat(CHAIN, {"a"})
        assert not check.holds
        assert check.failure == "satisfiable"
        assert check.counter_model == {"d(b)"}

    def test_complement_not_a_model(self):
        check = check_preferred_unsat(CHAIN, {"b"})
        assert not check.holds
        assert check.failure == "not-a-model"
        assert check.counter_model is None

    def test_whole_framework_without_attacks(self):
        check = check_preferred_unsat(NO_ATTACKS, {"a", "b"})
        assert check.holds

    def test_whole_framework_with_attacks(self):
        check = check_preferred_unsat(CHAIN, CHAIN.arguments)
        assert not check.holds
        assert check.failure == "not-a-model"

    def test_knot_cases(self):
        assert check_preferred_unsat(KNOT, {"a"}).holds
        assert check_preferred_unsat(KNOT, {"b", "d"}).holds
        assert not check_preferred_unsat(KNOT, {"b"}).holds

    def test_unknown_member(self):
        from argstable import UnknownArgumentError
        with pytest.raises(UnknownArgumentError):
            check_preferred_unsat(CHAIN, {"z"})

    def test_counter_model_is_a_minimal_model_of_the_certificate(self):
        # the certificate: alpha, every member's defeat atom false, and not
        # every complement atom true; brute force over alpha's models
        for seed in range(300):
            af = random_framework(random.Random(seed), max_args=6)
            theory = alpha(af)
            theory_models = models(theory)
            preferred = set(preferred_oracle(af))
            for members in subsets_of(af.arguments):
                check = check_preferred_unsat(af, members)
                complement = compl(af, members)
                assert check.holds == (members in preferred)
                if not is_model(theory, complement):
                    assert check == (False, None, "not-a-model")
                    continue
                certificate = [m for m in theory_models if m < complement]
                if not certificate:
                    assert check == (True, None, None)
                    continue
                assert check.failure == "satisfiable"
                assert check.counter_model in certificate
                assert not any(m < check.counter_model for m in certificate)

    def test_bound_is_checked_only_where_a_solve_is_needed(self):
        # not-a-model and an empty complement decide without the solver
        assert check_preferred_unsat(NO_ATTACKS, {"a", "b"}, bound=0).holds
        assert check_preferred_unsat(CHAIN, {"b"}, bound=0).failure == "not-a-model"
        with pytest.raises(BoundExceededError):
            check_preferred_unsat(CHAIN, {"a", "c"}, bound=2)
        with pytest.raises(BoundExceededError):
            check_preferred_unsat(NO_ATTACKS, {"a"}, bound=1)

    def test_one_solve_decides(self, monkeypatch):
        built = count_solver_builds(monkeypatch)
        searches = count_searches(monkeypatch)
        check = check_preferred_unsat(mutual_attacks(6), set())
        assert check.failure == "satisfiable"
        assert len(built) == 1
        assert len(searches) == 1


class TestConsequenceChecker:
    def test_golden_cases(self):
        assert check_preferred_consequence(CHAIN, {"a", "c"})
        assert not check_preferred_consequence(CHAIN, {"a"})
        assert not check_preferred_consequence(CHAIN, {"b"})
        assert check_preferred_consequence(KNOT, {"b", "d"})
        assert check_preferred_consequence(NO_ATTACKS, {"a", "b"})

    def test_agrees_with_unsat_checker(self):
        rng = random.Random(29)
        for _ in range(10):
            af = random_framework(rng, max_args=4)
            for members in subsets_of(af.arguments):
                assert check_preferred_consequence(af, members) == \
                    check_preferred_unsat(af, members).holds


class TestQuery:
    def test_brave(self):
        verdict = query(KNOT, "a", "brave")
        assert verdict.holds
        assert verdict.mode == "brave"
        assert verdict.evidence == {"a", "d(b)", "d(c)", "d(d)", "d(e)"}

    def test_cautious_false_with_counterexample(self):
        verdict = query(KNOT, "a", "cautious")
        assert not verdict.holds
        assert verdict.evidence == {"b", "d", "d(a)", "d(c)", "d(e)"}

    def test_cautious_true(self):
        verdict = query(CHAIN, "a", "cautious")
        assert verdict.holds
        assert verdict.evidence is None

    def test_brave_false(self):
        verdict = query(CHAIN, "b", "brave")
        assert not verdict.holds
        assert verdict.evidence is None

    def test_defeated_argument(self):
        assert not query(KNOT, "c", "brave").holds
        assert not query(KNOT, "e", "brave").holds

    def test_unknown_argument(self):
        from argstable import UnknownArgumentError
        with pytest.raises(UnknownArgumentError):
            query(CHAIN, "z", "brave")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            query(CHAIN, "a", "plausible")

    def test_unknown_mode_is_rejected_before_enumerating(self, monkeypatch):
        searches = count_searches(monkeypatch)
        with pytest.raises(ValueError, match="unknown query mode"):
            query(CHAIN, "a", "plausible")
        assert searches == []

    def test_builds_one_solver(self, monkeypatch):
        # gamma is positive: its minimal models are its stable models
        built = count_solver_builds(monkeypatch)
        assert not query(KNOT, "a", "cautious").holds
        assert len(built) == 1

    def test_bound_counts_one_atom_per_argument(self):
        # 16 arguments, 16 atoms in gamma: inside the default bound of 24
        af = mutual_attacks(8)
        verdict = query(af, "a0", "cautious")
        assert not verdict.holds
        extension = {"b0"} | {f"a{i}" for i in range(1, 8)}
        assert verdict.evidence == extension | compl(af, extension)
        assert query(af, "a0", "brave", bound=16).holds
        with pytest.raises(BoundExceededError):
            query(af, "a0", "brave", bound=15)

    def test_matches_oracle(self):
        rng = random.Random(37)
        # The evidence is the first qualifying model in canonical order.  Few
        # small random frameworks have two qualifying extensions, so two
        # fixed ones with many extensions pin that order.
        fixed = [KNOT, mutual_attacks(3)]
        for af in fixed + [random_framework(rng, max_args=5) for _ in range(15)]:
            preferred = preferred_oracle(af)
            ordered = canonical(e | compl(af, e) for e in preferred)
            for x in sorted(af.arguments):
                brave, cautious = query(af, x, "brave"), query(af, x, "cautious")
                hits = [m for m in ordered if x in m]
                misses = [m for m in ordered if x not in m]
                assert brave.holds == any(x in s for s in preferred)
                assert brave.evidence == (hits[0] if hits else None)
                assert cautious.holds == all(x in s for s in preferred)
                assert cautious.evidence == (misses[0] if misses else None)


class TestAgainstOracle:
    def test_engines_match_oracle(self):
        rng = random.Random(43)
        for _ in range(40):
            af = random_framework(rng, max_args=6)
            expected = tuple(preferred_oracle(af))
            for engine in ENGINES:
                assert engine(af).extensions == expected

    def test_checkers_match_oracle_membership(self):
        rng = random.Random(47)
        for _ in range(15):
            af = random_framework(rng, max_args=4)
            preferred = set(preferred_oracle(af))
            for members in subsets_of(af.arguments):
                expected = frozenset(members) in preferred
                assert check_preferred_unsat(af, members).holds == expected
                assert check_preferred_consequence(af, members) == expected

    def test_lambda_stable_models_are_extensions_with_their_complements(self):
        rng = random.Random(59)
        for _ in range(30):
            af = random_framework(rng, max_args=6)
            expected = canonical(e | compl(af, e) for e in preferred_oracle(af))
            assert stable_models(lambda_(af)) == expected

    def test_positive_programs_build_no_reduct(self, monkeypatch):
        # one solver finds the candidates; a positive program needs no other
        built = count_solver_builds(monkeypatch)
        assert stable_models(gamma(KNOT)) == KNOT_GAMMA_STABLE
        assert len(built) == 1
        rng = random.Random(61)
        for _ in range(40):
            af = random_framework(rng, max_args=6)
            del built[:]
            assert preferred_via_gamma(af).extensions == tuple(preferred_oracle(af))
            assert len(built) == 1

    def test_stable_fragment_matches_stable_oracle(self):
        rng = random.Random(53)
        for _ in range(25):
            af = random_framework(rng, max_args=6)
            found = [decode(af, m) for m in stable_models(stable_fragment(af))]
            assert sorted(found, key=sorted) == stable_oracle(af)


class TestDeterminism:
    def test_reports_are_reproducible(self):
        for engine in ENGINES:
            first = engine(KNOT)
            second = engine(KNOT)
            assert first.extensions == second.extensions
            assert first.witnesses == second.witnesses

    def test_extension_order_is_canonical(self):
        af = ArgumentationFramework(
            {"x", "y"}, {("x", "y"), ("y", "x")}
        )
        for engine in ENGINES:
            assert engine(af).extensions == (frozenset({"x"}), frozenset({"y"}))


def test_deep_search_finishes_under_a_low_recursion_limit():
    # 400 independent choices need about 400 nested decisions in the solver.
    theory = alpha(mutual_attacks(400))
    with recursion_headroom(150):
        assert not is_unsatisfiable(theory, bound=10_000)


# The size gates of the solver, with no wall-clock bound: the test job's
# timeout stands behind them.
def test_wide_defeat_theory_is_satisfiable():
    assert not is_unsatisfiable(alpha(mutual_attacks(1100)), bound=10_000)


def test_lambda_checks_every_candidate_on_one_solver(monkeypatch):
    # 1148 minimal-model candidates, one of them stable
    af = random_attacks(60, 0.05, 1)
    built = count_solver_builds(monkeypatch)
    found = stable_models(lambda_(af), bound=10_000)
    assert len(built) <= 2
    expected = canonical(m | decode(af, m) for m in stable_models(gamma(af), bound=10_000))
    assert found == expected


def _split_point(theory):
    """The models the whole search finds before it splits: the first m with
    m times the atoms past the literal occurrences of the integer clauses."""
    literals = sum(map(len, _rule_clauses(theory.clauses)))
    return literals // len(theory.atoms) + 1


# The scaling gate of the part-by-part enumeration, with no wall clock: the
# searches count the work.  `gamma(mutual_attacks(k))` has 2^k minimal models
# over 2k atoms and 6k literal occurrences, in k parts of two: the whole
# search stops at its fourth model, and each part then takes at most three
# searches, where one search per extension would take 2^k.  k copies of the
# knot have 2^k minimal models over 5k atoms and 23k (gamma) or 25k (alpha)
# literal occurrences: two copies stay on one solver, three and four split.
# `sink(k)` is connected, so its one solver still takes one search per
# extension.
def test_disjoint_parts_are_enumerated_part_by_part(monkeypatch):
    built = count_solver_builds(monkeypatch)
    searches = count_searches(monkeypatch)

    def choices(k):
        """Each way to take a<i> or b<i> from every pair i below k."""
        return [frozenset(f"{'ab'[c >> i & 1]}{i}" for i in range(k)) for c in range(2 ** k)]

    for k in range(8, 13):
        del built[:], searches[:]
        af = mutual_attacks(k)
        assert list(preferred_via_gamma(af).extensions) == canonical(choices(k))
        per_solver = collections.Counter(map(id, searches))
        assert per_solver[id(built[0])] == _split_point(gamma_rules(af)) == 4
        assert len(built) == 1 + k
        assert all(per_solver[id(part)] <= 3 for part in built[1:])
    for k in (2, 3, 4):
        af = knot_copies(k)
        sides = [({f"a{i}"}, {f"b{i}", f"d{i}"}) for i in range(k)]
        expected = canonical(frozenset().union(*pick) for pick in itertools.product(*sides))
        for engine, rules in ((preferred_via_alpha, alpha_rules), (preferred_via_gamma, gamma_rules)):
            del built[:], searches[:]
            assert list(engine(af).extensions) == expected
            per_solver = collections.Counter(map(id, searches))
            split = 2 ** k >= _split_point(rules(af))
            assert split == (k > 2)
            assert len(built) == (1 + k if split else 1)
            whole = per_solver[id(built[0])]
            assert whole == _split_point(rules(af)) if split else whole <= 2 ** k + 1
    for k in range(8, 11):
        del built[:], searches[:]
        all_b = frozenset(f"b{i}" for i in range(k))
        expected = canonical(e | {"z"} if e == all_b else e for e in choices(k))
        assert list(preferred_via_gamma(sink(k)).extensions) == expected
        assert len(built) == 1
        assert len(searches) == 2 ** k


# The other side of the split rule: a theory with few models pays for no
# parts.  Each of these has one or a few preferred extensions, and the
# eager split that multi-part theories like the 3-cycles would take builds
# more solvers.
def test_few_models_build_one_solver_and_find_no_parts(monkeypatch):
    built = count_solver_builds(monkeypatch)
    parts = []
    find = logic._parts
    monkeypatch.setattr(logic, "_parts", lambda *args: parts.append(args) or find(*args))
    frameworks = [odd_cycles(4), attack_chain(100)]
    frameworks += [random_attacks(40, 0.04, seed) for seed in range(1, 11)]
    for af, engine in itertools.product(frameworks, ENGINES[:2]):
        del built[:]
        assert engine(af, bound=10_000).extensions
        assert len(built) == 1
    assert parts == []


def test_long_chain_has_its_one_extension():
    af = attack_chain(1200)
    report = preferred_via_alpha(af, bound=10_000)
    assert report.extensions == (frozenset(sorted(af.arguments)[::2]),)


# The alpha, gamma and lambda engines compile a framework straight to solver
# clauses, with no `Clause` or `Program` on the way.  What they hand the
# (candidate) solver must be the clauses of `_cnf(alpha(af))`,
# `_cnf(gamma(af))` and `_cnf(lambda_(af))` exactly, order included, so that
# the searches find the same set of models, and so every witness, that the
# `Program` would give.
_NAME = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,3}", fullmatch=True)


@st.composite
def defeat_frameworks(draw):
    """Names of mixed case, digits and `_`; self-attacks; mutual attacks,
    which collapse `gamma`'s disjunctions; and two arguments with equal
    attacker sets attacking one target, which gives it a defender rule
    twice."""
    names = draw(st.lists(_NAME, max_size=8, unique=True))
    if not names:
        return ArgumentationFramework(frozenset(), frozenset())
    pick = st.sampled_from(names)
    attacks = set(draw(st.lists(st.tuples(pick, pick), max_size=14)))
    attacks |= {(x, x) for x in draw(st.lists(pick, max_size=2))}
    for x, y in draw(st.lists(st.tuples(pick, pick), max_size=2)):
        attacks |= {(x, y), (y, x)}
    for x, y, target in draw(st.lists(st.tuples(pick, pick, pick), max_size=2)):
        attacks = {(s, t) for s, t in attacks if t != y}
        attacks |= {(s, y) for s, t in attacks if t == x} | {(x, target), (y, target)}
    return ArgumentationFramework(frozenset(names), frozenset(attacks))


def _by_clause(af, attack_clause):
    """A defeat theory built clause by clause: per attack (b, a),
    `attack_clause(d(a), d(b))` and the defender rule."""
    clauses = set()
    for source, target in af.attacks:
        clauses.add(attack_clause(defeat_atom(target), defeat_atom(source)))
        defenders = sorted(defeat_atom(c) for c, t in af.attacks if t == source)
        clauses.add(Clause(head=(defeat_atom(target),), body=tuple(defenders)))
    return Program(frozenset(clauses), frozenset(defeat_atom(x) for x in af.arguments))


def _solver_inputs(engine, af):
    """The (atoms, clauses) of every `_CnfSolver` the engine builds, copied
    before the solver reorders the literals it watches."""
    seen = []
    init = _CnfSolver.__init__

    def recording(solver, atoms, cnf):
        seen.append((list(atoms), [list(c) for c in cnf]))
        init(solver, atoms, cnf)

    with mock.patch.object(_CnfSolver, "__init__", recording):
        engine(af, bound=100)
    return seen


# `lambda_` numbers argument and defeat atoms sorted together: `D` and `c`
# sort before `d(`, `d` just before it, and `dA` and `e` after it
@settings(deadline=None, max_examples=300)
@example(ArgumentationFramework(
    frozenset({"D", "c", "d", "dA", "e"}),
    frozenset({("D", "dA"), ("dA", "d"), ("d", "c"), ("c", "e"), ("e", "e"), ("c", "D")}),
))
@example(mutual_attacks(3))
@given(defeat_frameworks())
def test_engines_hand_the_solver_the_cnf_image(af):
    by_clause = {
        alpha: _by_clause(af, lambda a, b: Clause(head=(a,), body=(Literal(b, 1),))),
        gamma: _by_clause(af, lambda a, b: Clause(head=tuple(sorted({a, b})))),
    }
    acceptance = {Clause(head=(x,), body=(Literal(defeat_atom(x), 1),)) for x in af.arguments}
    by_clause[lambda_] = Program(
        by_clause[gamma].clauses | acceptance, by_clause[gamma].signature | af.arguments
    )
    engines = ((preferred_via_alpha, alpha), (preferred_via_gamma, gamma), (preferred_via_lambda, lambda_))
    for engine, build in engines:
        program = build(af)
        assert program == by_clause[build]
        theory = _cnf(program)
        image = _rule_clauses(theory.clauses)
        (atoms, cnf), *others = _solver_inputs(engine, af)
        assert (atoms, cnf) == (theory.atoms, image)
        # past the split point, one solver per part: mapped back through their
        # atoms, the parts' clauses split the image's.  The parts are cut from
        # the whole solver's clauses after its search has moved the watched
        # literals of some to the front, so each compares as a literal set.
        index = {a: v for v, a in enumerate(theory.atoms, 1)}
        parts = [(a, c) for a, c in others if all(isinstance(x, str) for x in a)]
        mapped = [sorted(index[a[abs(lit) - 1]] * (1 if lit > 0 else -1) for lit in clause)
                  for a, c in parts for clause in c]
        assert sorted(mapped) == (sorted(map(sorted, image)) if parts else [])
        part_atoms = [x for a, _ in parts for x in a]
        assert len(part_atoms) == len(set(part_atoms))
        # `lambda_` has `not`, so its engine checks the candidates on one more,
        # whose copy atoms are numbers
        assert len(others) - len(parts) == (build is lambda_ and bool(af.arguments))


@st.composite
def disjoint_frameworks(draw):
    """Up to four `defeat_frameworks` renamed apart (`x` of the second is
    `x_1`), or copies of two mutual attacks or of the knot, so that many
    unions have more minimal models than the split point."""
    copy = st.sampled_from([mutual_attacks(2), KNOT])
    parts = draw(st.lists(st.one_of(defeat_frameworks(), copy), min_size=1, max_size=4))
    names = [f"{x}_{k}" for k, af in enumerate(parts) for x in af.arguments]
    attacks = [(f"{s}_{k}", f"{t}_{k}") for k, af in enumerate(parts) for s, t in af.attacks]
    return ArgumentationFramework(frozenset(names), frozenset(attacks))


# The engines decode a model by atom number; `translate.decode` formats each
# argument's defeat atom and is the reference
@settings(deadline=None, max_examples=200)
@example(mutual_attacks(4))
@example(knot_copies(3))
@given(st.one_of(defeat_frameworks(), disjoint_frameworks()))
def test_engine_extensions_decode_their_witnesses(af):
    for engine in (preferred_via_alpha, preferred_via_gamma):
        report = engine(af, bound=100)
        assert set(report.extensions) == set(report.witnesses)
        for extension, witness in report.witnesses.items():
            assert extension == decode(af, witness)


def test_engines_build_no_clause(monkeypatch, capsys):
    af = random_attacks(40, 0.04, 1)
    built = []
    new = Clause.__new__

    def counted(cls, *args, **kwargs):
        clause = new(cls, *args, **kwargs)
        built.append(clause)
        return clause

    monkeypatch.setattr(Clause, "__new__", staticmethod(counted))
    assert alpha(af).clauses and built
    del built[:]
    preferred_via_alpha(af, bound=100)
    extension = preferred_via_gamma(af, bound=100).extensions[0]
    # lambda_ has tens of thousands of minimal models on `af`: a smaller one
    preferred_via_lambda(random_attacks(20, 0.1, 1), bound=100)
    query(af, "a0", "brave", bound=100)
    query(af, "a0", "cautious", bound=100)
    # one set for each way the UNSAT checker can end
    verdicts = [
        check_preferred_unsat(af, members, bound=100).failure
        for members in (extension, extension - {min(extension)}, af.arguments)
    ]
    assert verdicts == [None, "satisfiable", "not-a-model"]
    # `check_preferred_consequence` builds `alpha(af).program()` on purpose:
    # it is the independent reference the UNSAT checker is tested against
    # (`TestConsequenceChecker.test_agrees_with_unsat_checker`)
    # `translate` emits every target straight from its integer rules
    monkeypatch.setattr("sys.stdin", io.StringIO(af.to_apx()))
    for target in cli._TARGETS:
        for emit in ("asp", "dimacs"):
            sys.stdin.seek(0)
            assert cli.main(["translate", target, "--emit", emit]) == 0
            assert capsys.readouterr().out
    assert built == []


# perfbench's tracer times translation and search by wrapping these names in
# `engines`; an engine that reaches one by another route would run untimed,
# and only the benchmark's self-tests would notice.  The engines decode their
# models by atom number, not through `translate.decode`.
_TRACED = ("alpha", "gamma", "lambda_", "minimal_models", "stable_models")


def _counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("run, reached", [
    (lambda: preferred_via_alpha(KNOT), {"alpha", "minimal_models"}),
    (lambda: preferred_via_gamma(KNOT), {"gamma", "minimal_models"}),
    (lambda: preferred_via_lambda(KNOT), {"lambda_", "stable_models"}),
    (lambda: query(KNOT, "a", "brave"), {"gamma", "minimal_models"}),
    (lambda: check_preferred_unsat(KNOT, {"a"}), {"alpha"}),
    (lambda: check_preferred_consequence(KNOT, {"a"}), {"alpha"}),
], ids=["alpha", "gamma", "lambda", "query", "check_unsat", "check_consequence"])
def test_engines_reach_the_traced_names(monkeypatch, run, reached):
    calls = collections.Counter()
    for name in _TRACED:
        monkeypatch.setattr(engines, name, _counted(calls, name, getattr(engines, name)))
    run()
    assert set(calls) == reached


@pytest.mark.parametrize("value", [
    ArgumentationFramework(["a", "b"], [("a", "b")]),
    parse_apx(KNOT.to_apx()),
    parse_tgf(KNOT.to_tgf()),
    AtomMap({"a": "d(a)"}, {"d(a)": 1}),
    Literal("a", 1),
    Clause(head=("a",), body=("b",)),
    Program.of([Clause(head=("a",))]),
    preferred_via_alpha(KNOT),
], ids=["framework", "apx", "tgf", "atom_map", "literal", "clause", "program", "report"])
def test_value_types_hold_only_their_fields(value):
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        value.extra = None
