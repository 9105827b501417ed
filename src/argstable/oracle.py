"""Brute-force reference semantics, deliberately unclever.

Everything here enumerates subsets and applies the defining conditions
directly; the translation-based engines are tested against these answers.
"""

from __future__ import annotations

from itertools import combinations

from .framework import ArgumentationFramework
from .logic import canonical, check_bound

DEFAULT_SUBSET_BOUND = 20

Extension = frozenset[str]


def _subsets(af: ArgumentationFramework):
    items = sorted(af.arguments)
    for size in range(len(items) + 1):
        for combo in combinations(items, size):
            yield frozenset(combo)


def enumerate_admissible(
    af: ArgumentationFramework, bound: int = DEFAULT_SUBSET_BOUND
) -> list[Extension]:
    """All admissible sets, in canonical order."""
    check_bound(len(af.arguments), bound, "framework", "arguments")
    return canonical(s for s in _subsets(af) if af.is_admissible(s))


def preferred_oracle(
    af: ArgumentationFramework, bound: int = DEFAULT_SUBSET_BOUND
) -> list[Extension]:
    """Inclusion-maximal admissible sets by pairwise comparison, in canonical order."""
    admissible = enumerate_admissible(af, bound=bound)
    return [s for s in admissible if not any(s < t for t in admissible)]


def stable_oracle(
    af: ArgumentationFramework, bound: int = DEFAULT_SUBSET_BOUND
) -> list[Extension]:
    """Conflict-free sets attacking every argument outside them."""
    check_bound(len(af.arguments), bound, "framework", "arguments")
    found = []
    for s in _subsets(af):
        if not af.is_conflict_free(s):
            continue
        outside = af.arguments - s
        if all(any((m, x) in af.attacks for m in s) for x in outside):
            found.append(s)
    return canonical(found)


def defeated_arguments(
    af: ArgumentationFramework, bound: int = DEFAULT_SUBSET_BOUND
) -> frozenset[str]:
    """Arguments in no preferred extension."""
    accepted: set[str] = set()
    for s in preferred_oracle(af, bound=bound):
        accepted |= s
    return af.arguments - accepted
