"""Seeded generators for the benchmark's framework families.

Everything here is standard library only and never imports argstable, so the
instances and the closed-form answers stay independent of the code under
test.  A framework is an `Instance`: argument names in generation order, the
attack pairs, and, for the structured families, the preferred extensions in
closed form.  Each operation receives only the APX or TGF text of an
instance.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Instance:
    name: str
    family: str
    arguments: tuple[str, ...]
    attacks: tuple[tuple[str, str], ...]
    # Preferred extensions in closed form, or None when only a reference
    # computation (reference.py) can give them.
    expected: frozenset | None = None
    # Disjoint parts that the oracle can check one at a time.
    components: tuple["Instance", ...] = ()

    def apx(self) -> str:
        lines = [f"arg({a})." for a in self.arguments]
        lines += [f"att({a},{b})." for a, b in self.attacks]
        return "\n".join(lines) + "\n"

    def tgf(self) -> str:
        lines = list(self.arguments) + ["#"]
        lines += [f"{a} {b}" for a, b in self.attacks]
        return "\n".join(lines) + "\n"


def rng_for(seed: int, *labels) -> random.Random:
    """Independent stream per (seed, labels); str seeds hash the same in every
    process, unlike hash()."""
    return random.Random(":".join(str(x) for x in (seed,) + labels))


def tag(rng: random.Random) -> str:
    """A short seed-dependent name prefix, so that another seed changes the
    text of every instance, the structured ones included.

    The first letter sorts before "d", so argument atoms always sort before
    the defeat atoms d(x) that share a program with them (lambda_).  That
    order steers the solver's search, and lambda_ queries on the same
    framework can differ tenfold in cost between the two orders."""
    return rng.choice("abc") + "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(2))


def random_af(rng: random.Random, n: int, p: float, prefix: str) -> Instance:
    """Each ordered pair, self-attacks included, is an attack with probability p."""
    args = tuple(f"{prefix}{i}" for i in range(n))
    attacks = tuple((x, y) for x in args for y in args if rng.random() < p)
    return Instance(f"random-{n}-{p}", "random", args, attacks)


def chain(n: int, prefix: str) -> Instance:
    """x0 -> x1 -> ... -> x(n-1): the unique extension is the even positions.

    Names are numbered along the chain, so that clause order, and with it the
    solver's work, does not depend on the seed."""
    args = tuple(f"{prefix}{i:04d}" for i in range(n))
    attacks = tuple(zip(args, args[1:]))
    expected = frozenset({frozenset(args[0::2])})
    return Instance(f"chain-{n}", "chain", args, attacks, expected)


def mutual(k: int, prefix: str) -> Instance:
    """k disjoint pairs x <-> y: one of each pair, 2^k extensions."""
    parts = []
    for i in range(k):
        x, y = f"{prefix}x{i}", f"{prefix}y{i}"
        parts.append(Instance("pair", "mutual", (x, y), ((x, y), (y, x)),
                              frozenset({frozenset({x}), frozenset({y})})))
    return union(f"mutual-{k}", "mutual", parts)


def odd_cycles(count: int, length: int, prefix: str) -> Instance:
    """Disjoint odd cycles: no argument is defended, so {} is the only extension."""
    args, attacks = [], []
    for c in range(count):
        ring = [f"{prefix}c{c}n{i}" for i in range(length)]
        args += ring
        attacks += [(ring[i], ring[(i + 1) % length]) for i in range(length)]
    return Instance(f"odd-{count}x{length}", "odd_cycles", tuple(args), tuple(attacks),
                    frozenset({frozenset()}))


def knot(prefix: str) -> Instance:
    """The five-argument knot of the README: extensions {a} and {b,d}."""
    a, b, c, d, e = (f"{prefix}{x}" for x in "abcde")
    attacks = ((a, b), (b, a), (b, c), (c, d), (d, e), (e, c))
    expected = frozenset({frozenset({a}), frozenset({b, d})})
    return Instance("knot", "knot", (a, b, c, d, e), attacks, expected)


def knots(copies: int, prefix: str) -> Instance:
    return union(f"knot-{copies}", "knot",
                 [knot(f"{prefix}k{i}") for i in range(copies)])


def union(name: str, family: str, parts) -> Instance:
    """Disjoint union; preferred extensions are the unions of one extension
    per part, so the closed form is the product when every part has one."""
    parts = tuple(parts)
    args = tuple(a for p in parts for a in p.arguments)
    attacks = tuple(t for p in parts for t in p.attacks)
    expected = None
    if all(p.expected is not None for p in parts):
        expected = frozenset(
            frozenset().union(*combo)
            for combo in itertools.product(*(sorted(p.expected, key=sorted) for p in parts))
        )
    return Instance(name, family, args, attacks, expected, parts)


def random_union(rng: random.Random, sizes, p: float, prefix: str) -> Instance:
    """Disjoint union of small random components, each within the oracle's reach."""
    parts = [random_af(rng, n, p, f"{prefix}g{i}v") for i, n in enumerate(sizes)]
    return union(f"union-{'+'.join(map(str, sizes))}", "random_union", parts)
