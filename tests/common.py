"""Shared fixtures: golden frameworks, expected clause sets, random generators
and the brute-force reference computations the fast paths are tested against."""

import inspect
import os
import random
import string
import subprocess
import sys
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path

import hypothesis.strategies as st

import argstable
from argstable import ArgumentationFramework, Clause, Literal, Program, gl_reduct, models
from argstable.logic import _CnfSolver

# a -> b -> c: the smallest framework where defence matters.
CHAIN = ArgumentationFramework({"a", "b", "c"}, {("a", "b"), ("b", "c")})
# A mutual attack feeding an odd cycle; preferred extensions {a} and {b,d}.
KNOT = ArgumentationFramework(
    {"a", "b", "c", "d", "e"},
    {("a", "b"), ("b", "a"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "c")},
)
SELF_ATTACK = ArgumentationFramework({"a"}, {("a", "a")})
EMPTY = ArgumentationFramework(frozenset(), frozenset())
NO_ATTACKS = ArgumentationFramework({"a", "b"}, frozenset())
# `lambda_` sorts argument and defeat atoms together, and every `d(x)` sorts
# after the names up to `d` and before the rest.  Names all below `d(`, all
# above it, and on both sides of it: `d` next to `d0` and `d_`, attacking itself.
NAMES_BELOW_D = ArgumentationFramework({"A", "c", "d"}, {("A", "c"), ("c", "A"), ("c", "d")})
NAMES_ABOVE_D = ArgumentationFramework({"dA", "e", "z"}, {("dA", "e"), ("e", "z"), ("z", "dA")})
NAMES_AROUND_D = ArgumentationFramework(
    {"d", "d0", "d_"}, {("d", "d"), ("d", "d0"), ("d0", "d_"), ("d_", "d0")}
)

CHAIN_ALPHA = frozenset({
    Clause(head=("d(b)",), body=(Literal("d(a)", 1),)),
    Clause(head=("d(b)",)),
    Clause(head=("d(c)",), body=(Literal("d(b)", 1),)),
    Clause(head=("d(c)",), body=("d(a)",)),
})

CHAIN_BETA = frozenset({
    Clause(head=(Literal("a", 1),), body=("b",)),
    Clause(head=(), body=("b",)),
    Clause(head=(Literal("b", 1),), body=("c",)),
    Clause(head=("a",), body=("c",)),
})

KNOT_GAMMA = frozenset({
    Clause(head=("d(a)", "d(b)")),
    Clause(head=("d(a)",), body=("d(a)",)),
    Clause(head=("d(b)",), body=("d(b)",)),
    Clause(head=("d(b)", "d(c)")),
    Clause(head=("d(c)",), body=("d(a)",)),
    Clause(head=("d(c)", "d(e)")),
    Clause(head=("d(c)",), body=("d(d)",)),
    Clause(head=("d(c)", "d(d)")),
    Clause(head=("d(d)",), body=("d(b)", "d(e)")),
    Clause(head=("d(d)", "d(e)")),
    Clause(head=("d(e)",), body=("d(c)",)),
})

KNOT_GAMMA_STABLE = [
    frozenset({"d(a)", "d(c)", "d(e)"}),
    frozenset({"d(b)", "d(c)", "d(d)", "d(e)"}),
]

KNOT_LAMBDA_STABLE = [
    frozenset({"a", "d(b)", "d(c)", "d(d)", "d(e)"}),
    frozenset({"b", "d", "d(a)", "d(c)", "d(e)"}),
]

FOUR_RULE_PROGRAM = Program.of(
    [
        Clause(head=("b",), body=(Literal("a", 1),)),
        Clause(head=("b",)),
        Clause(head=("c",), body=(Literal("b", 1),)),
        Clause(head=("c",), body=("a",)),
    ],
    signature={"a", "b", "c"},
)

FOUR_RULE_REDUCT = frozenset({
    Clause(head=("b",)),
    Clause(head=("c",), body=("a",)),
})


def package_env(**extra):
    """The environment of a child `python` that imports the package these
    tests import and leaves standard output buffered, plus `extra`."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    src = str(Path(argstable.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env | extra


def run_argstable(argv, *flags, spawn=subprocess.run, **kwargs):
    """`python FLAGS -m argstable ARGV` through `spawn` (`subprocess.run` or
    `subprocess.Popen`, which take `kwargs`), in `package_env()`, so standard
    output stays buffered unless FLAGS hold `-u`."""
    return spawn([sys.executable, *flags, "-m", "argstable", *argv], env=package_env(), **kwargs)


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


def random_framework(rng, max_args=7, density=(0.1, 0.9)):
    n = rng.randint(1, max_args)
    names = list(string.ascii_lowercase[:n])
    p = rng.uniform(*density)
    attacks = frozenset(
        (x, y) for x in names for y in names if rng.random() < p
    )
    return ArgumentationFramework(frozenset(names), attacks)


def random_attacks(n, p, seed):
    """Random (n, p, seed): arguments a0..a<n-1>, and `random.Random(seed)`
    makes each ordered pair, self-attacks included, an attack with
    probability p."""
    rng = random.Random(seed)
    names = [f"a{i}" for i in range(n)]
    attacks = frozenset((x, y) for x in names for y in names if rng.random() < p)
    return ArgumentationFramework(frozenset(names), attacks)


def mutual_attacks(k):
    """k disjoint pairs a<i> <-> b<i>: 2k arguments, 2^k preferred extensions."""
    names = [f"{side}{i}" for i in range(k) for side in "ab"]
    attacks = [(f"a{i}", f"b{i}") for i in range(k)] + [(f"b{i}", f"a{i}") for i in range(k)]
    return ArgumentationFramework(frozenset(names), frozenset(attacks))


def knot_copies(k):
    """k renamed copies of the README knot, a<i> .. e<i> for i below k: 5k
    arguments in k disjoint parts, 2^k preferred extensions."""
    names = [f"{x}{i}" for i in range(k) for x in sorted(KNOT.arguments)]
    attacks = [(f"{s}{i}", f"{t}{i}") for i in range(k) for s, t in KNOT.attacks]
    return ArgumentationFramework(frozenset(names), frozenset(attacks))


def sink(k):
    """`mutual_attacks(k)` plus an argument z that every a<i> attacks: one
    connected framework with 2^k preferred extensions, z in the one of all
    b<i>."""
    pairs = mutual_attacks(k)
    attacks = pairs.attacks | {(f"a{i}", "z") for i in range(k)}
    return ArgumentationFramework(pairs.arguments | {"z"}, attacks)


def ring(k):
    """`mutual_attacks(k)` plus the cycle a0 -> a1 -> ... -> a<k-1> -> a0: one
    strongly connected framework whose preferred extensions number L_k, the
    k-th Lucas number (3, 4, 7, 11, ... for k = 2, 3, 4, 5, ...)."""
    pairs = mutual_attacks(k)
    attacks = pairs.attacks | {(f"a{i}", f"a{(i + 1) % k}") for i in range(k)}
    return ArgumentationFramework(pairs.arguments, attacks)


def attack_chain(n):
    """a0000 -> a0001 -> ... -> a<n-1>, numbered so that sorted names follow
    the chain; its one preferred extension is every other argument from the
    first on."""
    names = [f"a{i:04d}" for i in range(n)]
    return ArgumentationFramework(frozenset(names), frozenset(zip(names, names[1:])))


def odd_cycles(k):
    """k disjoint 3-cycles a<i> -> b<i> -> c<i> -> a<i>: 3k arguments, whose one
    preferred extension is empty."""
    names = [f"{side}{i}" for i in range(k) for side in "abc"]
    attacks = [(f"{s}{i}", f"{t}{i}") for i in range(k) for s, t in ("ab", "bc", "ca")]
    return ArgumentationFramework(frozenset(names), frozenset(attacks))


def count_solver_builds(monkeypatch):
    """A list that records every `_CnfSolver` built from here on."""
    built = []
    init = _CnfSolver.__init__

    def counted(solver, *args):
        built.append(solver)
        init(solver, *args)

    monkeypatch.setattr(_CnfSolver, "__init__", counted)
    return built


def count_searches(monkeypatch):
    """A list that records the solver of every `_CnfSolver._search` entered
    from here on."""
    searches = []
    search = _CnfSolver._search

    def counted(solver, *args):
        searches.append(solver)
        return search(solver, *args)

    monkeypatch.setattr(_CnfSolver, "_search", counted)
    return searches


def count_assignments(monkeypatch):
    """A list that records every literal `_CnfSolver._assign` sets from here
    on: the decisions, unit clauses and asserted literals, but none that
    `_propagate` sets itself."""
    assigned = []
    assign = _CnfSolver._assign

    def counted(solver, lit, reason):
        assigned.append(lit)
        assign(solver, lit, reason)

    monkeypatch.setattr(_CnfSolver, "_assign", counted)
    return assigned


@contextmanager
def recursion_headroom(frames):
    """Lower the interpreter's recursion limit to `frames` above the current
    stack depth inside the block, so a deep recursion fails fast."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


def random_program(rng, max_atoms=8, max_clauses=8, negation=True):
    """A general program over p0..pk, with the whole atom pool declared as the
    signature whether or not every atom occurs."""
    n_atoms = rng.randint(1, max_atoms)
    atoms = [f"p{i}" for i in range(n_atoms)]
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        m = rng.randint(0, 2)
        n = rng.randint(0, 3)
        if m + n == 0:
            m = 1
        head = tuple(Literal(rng.choice(atoms)) for _ in range(m))
        body = tuple(
            Literal(rng.choice(atoms), rng.randint(0, 1) if negation else 0)
            for _ in range(n)
        )
        clauses.append(Clause(head, body))
    return Program.of(clauses, signature=atoms)


def subsets_of(items):
    pool = sorted(items)
    for size in range(len(pool) + 1):
        for combo in combinations(pool, size):
            yield frozenset(combo)


def brute_minimal(model_list):
    return sorted(
        (m for m in model_list if not any(o < m for o in model_list)),
        key=lambda s: tuple(sorted(s)),
    )


def brute_maximal(model_list):
    return sorted(
        (m for m in model_list if not any(o > m for o in model_list)),
        key=lambda s: tuple(sorted(s)),
    )


def brute_stable(program, bound=24):
    """Stable models straight from the definition, over every subset."""
    found = []
    for s in subsets_of(program.signature):
        reduct_models = models(gl_reduct(program, s), bound=bound)
        if s in reduct_models and not any(o < s for o in reduct_models):
            found.append(s)
    return sorted(found, key=lambda x: tuple(sorted(x)))
