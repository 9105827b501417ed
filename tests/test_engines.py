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
from argstable.translate import alpha, defeat_atom, defeat_cnf, gamma
from tests.common import (
    EMPTY,
    CHAIN,
    KNOT,
    KNOT_GAMMA_STABLE,
    KNOT_LAMBDA_STABLE,
    NAMES_ABOVE_D,
    NAMES_AROUND_D,
    NAMES_BELOW_D,
    NO_ATTACKS,
    SELF_ATTACK,
    attack_chain,
    count_assignments,
    count_searches,
    count_solver_builds,
    defeat_frameworks,
    knot_copies,
    mutual_attacks,
    odd_cycles,
    random_attacks,
    random_framework,
    recursion_headroom,
    ring,
    sink,
    subsets_of,
)

ENGINES = (preferred_via_alpha, preferred_via_gamma, preferred_via_lambda)


# a IN, b OUT, and c <-> d left undecided by the grounded labelling
PEELED = ArgumentationFramework("abcd", {("a", "b"), ("b", "c"), ("c", "d"), ("d", "c")})


def _undecided(af):
    """What the grounded labelling leaves undecided: the core whose defeat
    CNF the alpha and gamma engines solve."""
    accepted, rejected = af.grounded()
    return af.arguments - accepted - rejected


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

    @pytest.mark.parametrize("k", range(10, 21))
    def test_denials_are_decided_once(self, monkeypatch, k):
        """The k goals of {a0, ..., a<k-1>} on k mutual attacks share the k
        denials as their first assumptions, so the solver keeps their levels
        from one goal to the next: k decisions in all, where deciding them
        again for every goal would make k^2."""
        assigned = count_assignments(monkeypatch)
        members = {f"a{i}" for i in range(k)}
        assert check_preferred_consequence(mutual_attacks(k), members, bound=2 * k)
        assert len(assigned) <= 2 * k


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
        # small random frameworks have two qualifying extensions, so fixed
        # ones pin that order: two with many extensions, and one where the
        # search finds {f, h} first but the evidence for brave h is
        # {d(f), g, h}.
        fixed = [KNOT, mutual_attacks(3),
                 ArgumentationFramework({"f", "g", "h"}, {("f", "g"), ("g", "f")})]
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
        # one solver finds the candidates; a positive program needs no other,
        # and the gamma engine builds none when nothing is left undecided
        built = count_solver_builds(monkeypatch)
        assert stable_models(gamma(KNOT)) == KNOT_GAMMA_STABLE
        assert len(built) == 1
        rng = random.Random(61)
        for _ in range(40):
            af = random_framework(rng, max_args=6)
            del built[:]
            assert preferred_via_gamma(af).extensions == tuple(preferred_oracle(af))
            assert len(built) == (1 if _undecided(af) else 0)

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


def _split_point(cnf):
    """The models the whole search finds before it splits: the first m with
    m times the atoms past the literal occurrences of the integer clauses."""
    return sum(map(len, cnf.clauses)) // len(cnf.atoms) + 1


# The scaling gate of the part-by-part enumeration, with no wall clock: the
# searches count the work.  The defeat CNF of `mutual_attacks(k)` has 2^k
# minimal models over 2k atoms and 6k literal occurrences, in k parts of two:
# the whole search stops at its fourth model, and each part then takes at
# most three searches, where one search per extension would take 2^k.  k
# copies of the knot have 2^k minimal models over 5k atoms and 23k literal
# occurrences, under alpha and gamma alike: two copies stay on one solver,
# three and four split at the fifth model.
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
        assert per_solver[id(built[0])] == _split_point(defeat_cnf(af)) == 4
        assert len(built) == 1 + k
        assert all(per_solver[id(part)] <= 3 for part in built[1:])
    for k in (2, 3, 4):
        af = knot_copies(k)
        sides = [({f"a{i}"}, {f"b{i}", f"d{i}"}) for i in range(k)]
        expected = canonical(frozenset().union(*pick) for pick in itertools.product(*sides))
        assert _split_point(defeat_cnf(af)) == 5
        for engine in (preferred_via_alpha, preferred_via_gamma):
            del built[:], searches[:]
            assert list(engine(af).extensions) == expected
            per_solver = collections.Counter(map(id, searches))
            split = 2 ** k >= _split_point(defeat_cnf(af))
            assert split == (k > 2)
            assert len(built) == (1 + k if split else 1)
            whole = per_solver[id(built[0])]
            assert whole == 5 if split else whole <= 2 ** k + 1
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
# more solvers.  The grounded labelling decides all of the chain, so its
# engines build no solver at all.
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
        assert len(built) == (1 if _undecided(af) else 0)
    assert parts == []


def test_long_chain_has_its_one_extension():
    af = attack_chain(1200)
    report = preferred_via_alpha(af, bound=10_000)
    assert report.extensions == (frozenset(sorted(af.arguments)[::2]),)


# The peel decides a chain without a solver, so the unpeeled routes keep one
# under the long chains: the UNSAT checker's one solve on the whole defeat
# CNF, and the minimal-model search on alpha's `Program`
def test_long_chain_unpeeled_routes_build_one_solver(monkeypatch):
    af = attack_chain(1200)
    extension = frozenset(sorted(af.arguments)[::2])
    built = count_solver_builds(monkeypatch)
    assert check_preferred_unsat(af, extension, bound=10_000).holds
    assert len(built) == 1
    del built[:]
    assert logic.minimal_models(alpha(af), bound=10_000) == [compl(af, extension)]
    assert len(built) == 1


def test_unsat_checker_finishes_a_long_chain_under_a_low_recursion_limit():
    af = attack_chain(5000)
    extension = frozenset(sorted(af.arguments)[::2])
    with recursion_headroom(150):
        assert check_preferred_unsat(af, extension, bound=10_000).holds


# Renaming above the oracle's cap: a bijection of names that reorders the
# sorted numbering maps the extensions to the extensions.  The frameworks
# are dense enough that one connected part's models defeat more arguments
# than a block clause cut short would keep.
def test_renaming_maps_the_extensions_to_the_extensions():
    rng = random.Random(2031)
    for _ in range(300):
        af = random_attacks(rng.randint(60, 100), rng.uniform(0.02, 0.05), rng.randrange(1 << 30))
        targets = [f"r{k}" for k in range(len(af.arguments))]
        rng.shuffle(targets)
        name = dict(zip(sorted(af.arguments), targets))
        renamed = ArgumentationFramework(
            frozenset(targets), frozenset((name[x], name[y]) for x, y in af.attacks)
        )
        for engine in (preferred_via_alpha, preferred_via_gamma):
            extensions = engine(af, bound=10_000).extensions
            expected = canonical(frozenset(map(name.get, e)) for e in extensions)
            assert engine(renamed, bound=10_000).extensions == tuple(expected)


# Preferred extensions above the oracle's cap, on the renaming test's
# family: each is admissible, none contains another, and a fresh mutual pair
# x <-> y, which attacks nothing else, turns each extension E into exactly
# E | {x} and E | {y}.  The pair z0 <-> z1 sorts after every a<i>, so the
# solver decides its defeat atoms last; A0 <-> A1 sorts first, decided first.
def test_extensions_above_the_cap_are_admissible_maximal_and_split_by_a_fresh_pair():
    rng = random.Random(2032)
    for _ in range(300):
        af = random_attacks(rng.randint(60, 100), rng.uniform(0.02, 0.05), rng.randrange(1 << 30))
        for engine in (preferred_via_alpha, preferred_via_gamma):
            extensions = engine(af, bound=10_000).extensions
            assert all(af.is_admissible(e) for e in extensions)
            assert not any(e < f for e in extensions for f in extensions)
            for x, y in [("z0", "z1"), ("A0", "A1")]:
                widened = ArgumentationFramework(af.arguments | {x, y},
                                                 af.attacks | {(x, y), (y, x)})
                expected = canonical(e | {z} for e in extensions for z in (x, y))
                assert engine(widened, bound=10_000).extensions == tuple(expected)


# `ring(k)` is one strongly connected part, so the peel leaves all of it
# undecided.  It has L_k extensions, the k-th Lucas number, checked against
# the oracle while it stays small.
@pytest.mark.parametrize(
    "k, lucas", zip(range(2, 13), (3, 4, 7, 11, 18, 29, 47, 76, 123, 199, 322))
)
def test_ring_has_lucas_many_extensions(k, lucas):
    af = ring(k)
    assert _undecided(af) == af.arguments
    for engine in (preferred_via_alpha, preferred_via_gamma):
        extensions = engine(af, bound=100).extensions
        assert len(extensions) == lucas
        if k <= 7:
            assert extensions == tuple(preferred_oracle(af))


# The peel above the oracle's cap: the alpha and gamma engines solve only the
# core the grounded labelling leaves undecided, and must report exactly the
# extensions and witnesses that the whole framework's defeat CNF gives.
# Frameworks this sparse have unattacked arguments, so most are peeled.
def test_peeled_engines_report_what_the_whole_defeat_cnf_gives():
    rng = random.Random(2029)
    peeled = 0
    for _ in range(300):
        af = random_attacks(rng.randint(25, 60), rng.uniform(0.01, 0.06), rng.randrange(1 << 30))
        whole = {decode(af, m): m for m in logic._minimal_models(defeat_cnf(af), 10_000)}
        for engine in (preferred_via_alpha, preferred_via_gamma):
            report = engine(af, bound=10_000)
            assert report.witnesses == whole
            assert report.extensions == tuple(canonical(whole))
        peeled += len(_undecided(af)) < len(af.arguments)
    assert peeled > 250


# Count gates of the peel, with no wall clock: a chain is decided by the
# grounded labelling alone, so no solver is built, and its one witness is the
# complement image of its extension
def test_decided_chain_builds_no_solver(monkeypatch):
    built = count_solver_builds(monkeypatch)
    af = attack_chain(5000)
    extension = frozenset(sorted(af.arguments)[::2])
    for engine in (preferred_via_alpha, preferred_via_gamma):
        report = engine(af, bound=10_000)
        assert report.extensions == (extension,)
        assert report.witnesses == {extension: compl(af, extension)}
    assert built == []


# The bound is checked on the whole framework, not on the core: a chain of 25
# is decided without a solver, and is still refused, as before the peel
@pytest.mark.parametrize("run", [
    preferred_via_alpha, preferred_via_gamma, lambda af: query(af, "a0000", "brave"),
], ids=["alpha", "gamma", "query"])
def test_bound_counts_the_whole_framework(run):
    message = "^program signature has 25 atoms, exceeding the bound of 24$"
    with pytest.raises(BoundExceededError, match=message):
        run(attack_chain(25))


# The alpha, gamma and lambda engines compile a framework straight to solver
# clauses, with no `Clause` or `Program` on the way.  What they hand the
# (candidate) solver must be the clauses of `_cnf(gamma(core))`, for the alpha
# and gamma engines alike, where the core is the framework restricted to what
# the grounded labelling leaves undecided (the whole framework when no
# argument is unattacked, and no solver at all when nothing is undecided),
# and of `_cnf(lambda_(af))`, over the same atoms, so that the searches find
# the same models, and so every witness, that the `Program` would give.
# `alpha(af)` is one clause set with `gamma(af)`, and gamma's image holds
# each clause once.  The rules are a set, so the clause lists compare
# sorted, each clause with its literals in their order.
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
@settings(max_examples=300)
@example(ArgumentationFramework(
    frozenset({"D", "c", "d", "dA", "e"}),
    frozenset({("D", "dA"), ("dA", "d"), ("d", "c"), ("c", "e"), ("e", "e"), ("c", "D")}),
))
@example(mutual_attacks(3))
@example(NAMES_BELOW_D)
@example(NAMES_ABOVE_D)
@example(NAMES_AROUND_D)
@example(EMPTY)
@example(CHAIN)
@example(PEELED)
@given(defeat_frameworks())
def test_engines_hand_the_solver_the_cnf_image(af):
    disjunction = lambda a, b: Clause(head=tuple(sorted({a, b})))
    by_clause = {
        alpha: _by_clause(af, lambda a, b: Clause(head=(a,), body=(Literal(b, 1),))),
        gamma: _by_clause(af, disjunction),
    }
    acceptance = {Clause(head=(x,), body=(Literal(defeat_atom(x), 1),)) for x in af.arguments}
    by_clause[lambda_] = Program(
        by_clause[gamma].clauses | acceptance, by_clause[gamma].signature | af.arguments
    )
    core = _by_clause(af.restrict(_undecided(af)), disjunction)
    engines = ((preferred_via_alpha, alpha, core), (preferred_via_gamma, gamma, core),
               (preferred_via_lambda, lambda_, by_clause[lambda_]))
    for engine, build, solved in engines:
        assert build(af) == by_clause[build]
        inputs = _solver_inputs(engine, af)
        if solved is core and not core.signature:
            assert inputs == []
            continue
        theory = _cnf(solved)
        image = _rule_clauses(theory.clauses)
        (atoms, cnf), *others = inputs
        assert (atoms, sorted(cnf)) == (theory.atoms, sorted(image))
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
@settings(max_examples=200)
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
    Clause(("a",))
    assert len(built) == 1
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
    # `check_preferred_consequence` builds `alpha`'s `Program`, not
    # `gamma`'s `defeat_cnf`, on purpose: it is the independent reference
    # the UNSAT checker is tested against
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
# models by atom number, not through `translate.decode`.  The alpha and gamma
# engines, `query` and the UNSAT checker solve `gamma`, the one defeat CNF;
# the consequence checker, the reference, builds `alpha`'s `Program`.
_TRACED = ("alpha", "gamma", "lambda_", "minimal_models", "stable_models")


def _counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("run, reached", [
    (lambda: preferred_via_alpha(KNOT), {"gamma", "minimal_models"}),
    (lambda: preferred_via_gamma(KNOT), {"gamma", "minimal_models"}),
    (lambda: preferred_via_lambda(KNOT), {"lambda_", "stable_models"}),
    (lambda: query(KNOT, "a", "brave"), {"gamma", "minimal_models"}),
    (lambda: check_preferred_unsat(KNOT, {"a"}), {"gamma"}),
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
