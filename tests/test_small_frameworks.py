"""Every framework of at most three arguments, checked against the oracle.

Most faults show on some small input (the small-scope hypothesis: Jackson,
*Software Abstractions*, MIT Press 2006), so checking every small input is
strong evidence, and cheap here.  A framework on n labelled arguments is an
attack relation, one of 2^(n^2), self-attacks included: a bit mask over the
ordered pairs.  Tier-1 takes every subset of three name sets, `a b c`, and
`c d e` and `A d d0`, which put names on both sides of `d(`, where
`lambda_` shifts its numbering.  Run as a module, it checks every framework
on the first N names of `A c d d0 e`, such as all 65,536 of four arguments:

    python -m tests.test_small_frameworks 4
"""

import sys
import time
from itertools import product

import pytest

from argstable import (
    ArgumentationFramework,
    QueryVerdict,
    check_preferred_consequence,
    check_preferred_unsat,
    compl,
    preferred_oracle,
    preferred_via_alpha,
    preferred_via_gamma,
    preferred_via_lambda,
    query,
)
from argstable.logic import canonical
from tests.common import subsets_of


def frameworks(names):
    """Every framework on exactly `names`, one per attack relation."""
    pairs = list(product(sorted(names), repeat=2))
    for mask in range(1 << len(pairs)):
        attacks = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
        yield ArgumentationFramework(frozenset(names), attacks)


def brute_grounded(af):
    """The least fixed point of the characteristic function, from the empty
    set up, and the arguments it attacks."""
    attackers = {x: {s for s, t in af.attacks if t == x} for x in af.arguments}
    grounded = frozenset()
    while True:
        defended = frozenset(
            x for x in af.arguments
            if all(any((d, y) in af.attacks for d in grounded) for y in attackers[x])
        )
        if defended == grounded:
            return grounded, frozenset(t for s, t in af.attacks if s in grounded)
        grounded = defended


def check(af):
    """Every engine, checker and query on `af` against `preferred_oracle`."""
    preferred = preferred_oracle(af)
    expected = tuple(preferred)
    for engine in (preferred_via_alpha, preferred_via_gamma, preferred_via_lambda):
        report = engine(af)
        assert report.extensions == expected, (engine.__name__, af)
        for extension in expected:
            witness = compl(af, extension)
            if engine is preferred_via_lambda:  # its models hold the arguments too
                witness |= extension
            assert report.witnesses[extension] == witness, (engine.__name__, af)
    for members in subsets_of(af.arguments):
        holds = members in preferred
        assert check_preferred_unsat(af, members).holds == holds, (af, members)
        assert check_preferred_consequence(af, members) == holds, (af, members)
    # the evidence is the first qualifying model in canonical order
    ordered = canonical(e | compl(af, e) for e in preferred)
    for x in sorted(af.arguments):
        hits = [m for m in ordered if x in m]
        misses = [m for m in ordered if x not in m]
        brave = QueryVerdict("brave", bool(hits), hits[0] if hits else None)
        cautious = QueryVerdict("cautious", not misses, misses[0] if misses else None)
        assert query(af, x, "brave") == brave, (af, x)
        assert query(af, x, "cautious") == cautious, (af, x)
    assert af.grounded() == brute_grounded(af), af


@pytest.mark.parametrize("names", ["a b c", "c d e", "A d d0"])
def test_every_framework_of_at_most_three_arguments(names):
    for subset in subsets_of(names.split()):
        for af in frameworks(subset):
            check(af)


if __name__ == "__main__":
    n = int(sys.argv[1])
    start = time.perf_counter()
    count = 0
    for af in frameworks("A c d d0 e".split()[:n]):
        check(af)
        count += 1
    print(f"{count} frameworks of {n} arguments checked in {time.perf_counter() - start:.1f} s")
