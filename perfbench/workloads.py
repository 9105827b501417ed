"""The four workloads: which instances each generates and which operations
it runs on them.

An operation starts from the APX or TGF text of one instance and ends with
the answer.  A plan lists `cycle` operations, run in order and repeated
until the run's time is up.  Each cycle is built from identical groups, so any prefix of it has close
to the same mix of operation kinds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import families as fam
from families import Instance

# The engines' own atom cap is far below these sizes; the benchmark lifts it.
NO_BOUND = 10**9


@dataclass(frozen=True)
class Op:
    kind: str  # solve | check_unsat | check_consequence | query | cli
    instance: int  # index into Plan.instances
    engine: str = ""  # alpha/gamma for solve, brave/cautious for query
    members: frozenset = frozenset()  # the set a check decides
    argument: str = ""  # the argument a query asks about
    argv: tuple = ()  # CLI arguments, --input excluded
    expect_preferred: bool | None = None


@dataclass
class Plan:
    workload: str
    instances: list[Instance] = field(default_factory=list)
    formats: list[str] = field(default_factory=list)
    cycle: list[Op] = field(default_factory=list)
    # Decide's check operations are chosen from reference answers, after
    # set-up; see choose_check_sets.
    pending_checks: list[int] = field(default_factory=list)

    def add(self, inst: Instance, fmt: str = "apx") -> int:
        self.instances.append(inst)
        self.formats.append(fmt)
        return len(self.instances) - 1

    def text(self, index: int) -> str:
        inst = self.instances[index]
        return inst.tgf() if self.formats[index] == "tgf" else inst.apx()


# Sizes per workload.  "smoke" keeps the operations tiny for the self-tests;
# "full" is what a measured run uses.
SIZES = {
    "full": {
        "search_groups": 60, "search_random": (40, 0.04), "search_per_group": 5,
        "search_chain": 100,
        "enumerate_groups": 30, "mutual_k": (3, 4, 5, 6), "knot_copies": (2, 3, 4),
        "union_sizes": (3, 6), "union_parts": 3, "union_p": 0.25,
        "decide_groups": 80, "check_parts": 5, "check_sizes": (6, 8), "check_p": 0.2,
        "query_n": 10, "query_p": 0.2, "query_cycles": 4, "query_knots": 2,
        "cli_groups": 16, "cli_big": (800, 0.00375), "cli_small": 10, "cli_medium": 30,
    },
    "smoke": {
        "search_groups": 2, "search_random": (12, 0.1), "search_per_group": 2,
        "search_chain": 12,
        "enumerate_groups": 1, "mutual_k": (2, 3, 3, 3), "knot_copies": (1, 2, 2),
        "union_sizes": (2, 4), "union_parts": 2, "union_p": 0.3,
        "decide_groups": 1, "check_parts": 2, "check_sizes": (3, 5), "check_p": 0.3,
        "query_n": 6, "query_p": 0.25, "query_cycles": 2, "query_knots": 1,
        "cli_groups": 1, "cli_big": (40, 0.05), "cli_small": 5, "cli_medium": 26,
    },
}


def build(workload: str, seed: int, size: str = "full") -> Plan:
    return BUILDERS[workload](seed, SIZES[size])


def _both_engines(plan: Plan, members) -> None:
    for index in members:
        plan.cycle += [Op("solve", index, engine="alpha"), Op("solve", index, engine="gamma")]


def _search(seed: int, z: dict) -> Plan:
    """Few extensions, hard single solves: random frameworks and chains.

    A chain is one instance in six, so op_p90_ms falls inside the chain
    operations (a propagation-bound, seed-independent cost) and op_p50_ms
    inside the random ones (DPLL search).  The wide instance, whose solve
    raises RecursionError, is not an operation here: the benchmark's
    workloads have no failing operations.  The traced run solves it as a
    ROADMAP probe (run.probes) and reports the error there."""
    plan = Plan("search")
    rng = fam.rng_for(seed, "search")
    n, p = z["search_random"]
    for g in range(z["search_groups"]):
        members = [plan.add(fam.chain(z["search_chain"], fam.tag(rng)), "tgf")]
        for i in range(z["search_per_group"]):
            inst = fam.random_af(fam.rng_for(seed, "search", g, i), n, p, fam.tag(rng) + "r")
            members.append(plan.add(inst, "tgf" if i % 3 == 2 else "apx"))
        _both_engines(plan, members)
    return plan


def _enumerate(seed: int, z: dict) -> Plan:
    """Many cheap extensions: mutual attacks, knot copies, random unions.

    Copies per group are chosen so that op_p50_ms falls inside the knot-3
    operations and op_p90_ms inside the mutual-6 ones, away from the edges
    between families, where the quantiles would jump."""
    plan = Plan("enumerate")
    rng = fam.rng_for(seed, "enumerate")
    lo, hi = z["union_sizes"]
    m3, m4, m5, m6 = z["mutual_k"]
    k2, k3, k4 = z["knot_copies"]
    for g in range(z["enumerate_groups"]):
        unions = []
        for i in range(2):
            part_rng = fam.rng_for(seed, "enumerate", g, i)
            sizes = [part_rng.randint(lo, hi) for _ in range(z["union_parts"])]
            unions.append(fam.random_union(part_rng, sizes, z["union_p"], fam.tag(rng)))
        mutual = lambda k: fam.mutual(k, fam.tag(rng))
        knots = lambda c: fam.knots(c, fam.tag(rng))
        # Expensive and cheap instances alternate, so that a run cut inside
        # a group keeps close to the group's mix.
        group = [mutual(m6), unions[0], knots(k3), mutual(m6), mutual(m3), knots(k4),
                 mutual(m6), knots(k2), mutual(m5), mutual(m6), unions[1], mutual(m4),
                 knots(k3)]
        _both_engines(plan, [plan.add(inst, "tgf" if inst.family == "knot" else "apx")
                             for inst in group])
    return plan


def _decide(seed: int, z: dict) -> Plan:
    """Single answers: both set checkers on unions the oracle can check, and
    brave/cautious queries, which run through lambda_.

    Per group two sets of odd cycles and knot copies are queried, and a
    random framework in every fourth group.  The odd-cycle queries are over a
    third of the operations at one cost near the middle, so op_p50_ms falls
    inside them; the knot-copy queries are the costliest fifth, so op_p90_ms
    falls inside them."""
    plan = Plan("decide")
    rng = fam.rng_for(seed, "decide")
    lo, hi = z["check_sizes"]
    for g in range(z["decide_groups"]):
        part_rng = fam.rng_for(seed, "decide", g)
        sizes = [part_rng.randint(lo, hi) for _ in range(z["check_parts"])]
        index = plan.add(fam.random_union(part_rng, sizes, z["check_p"], fam.tag(rng)),
                         "tgf" if g % 2 else "apx")
        plan.pending_checks.append(len(plan.cycle))
        plan.cycle += [Op("check_unsat", index), Op("check_consequence", index)] * 2
        queried = [
            fam.odd_cycles(z["query_cycles"], 3, fam.tag(rng)),
            fam.knots(z["query_knots"], fam.tag(rng)),
            fam.odd_cycles(z["query_cycles"], 3, fam.tag(rng)),
        ]
        if g % 4 == 0:
            # lambda_ on random frameworks costs from 2 ms to 1 s; one in
            # four groups keeps that tail from swamping ops_per_s.
            queried.append(fam.random_af(fam.rng_for(seed, "decide", g, "query"),
                                         z["query_n"], z["query_p"], fam.tag(rng)))
        for inst in queried:
            index = plan.add(inst)
            argument = rng.choice(inst.arguments)
            plan.cycle += [Op("query", index, engine="brave", argument=argument),
                           Op("query", index, engine="cautious", argument=argument)]
    return plan


def choose_check_sets(plan: Plan, reference, seed: int) -> None:
    """Give each decide framework one preferred set (one extension per part)
    and one set that is not (the preferred set less one member, or plus one
    argument when it is empty: {} is then the only extension)."""
    rng = fam.rng_for(seed, "decide", "sets")
    for start in plan.pending_checks:
        index = plan.cycle[start].instance
        inst = plan.instances[index]
        preferred = frozenset().union(
            *(rng.choice(sorted(exts, key=sorted)) for _, exts in reference.parts(inst)))
        if preferred:
            other = preferred - {rng.choice(sorted(preferred))}
        else:
            other = frozenset({rng.choice(inst.arguments)})
        for offset, (members, verdict) in enumerate(
                [(preferred, True)] * 2 + [(other, False)] * 2):
            op = plan.cycle[start + offset]
            plan.cycle[start + offset] = Op(op.kind, index, members=members,
                                            expect_preferred=verdict)
    plan.pending_checks = []


def _cli(seed: int, z: dict) -> Plan:
    """`python -m argstable` per operation: translations of large files, where
    parsing and translation dominate, and solves of small files, where
    interpreter start-up does.  Every fourth operation is a translation, so
    op_p90_ms falls inside the translations and op_p50_ms inside the solves."""
    plan = Plan("cli")
    rng = fam.rng_for(seed, "cli")
    n, p = z["cli_big"]
    big_apx = plan.add(fam.random_af(fam.rng_for(seed, "cli", "big", 0), n, p, fam.tag(rng)))
    big_tgf = plan.add(fam.random_af(fam.rng_for(seed, "cli", "big", 1), n, p, fam.tag(rng)),
                       "tgf")
    translates = [
        Op("cli", big_apx, argv=("translate", "alpha")),
        Op("cli", big_tgf, argv=("translate", "gamma", "--emit", "dimacs")),
        Op("cli", big_apx, argv=("translate", "gamma")),
        Op("cli", big_tgf, argv=("translate", "alpha", "--emit", "dimacs")),
    ]
    for g in range(z["cli_groups"]):
        g_rng = fam.rng_for(seed, "cli", g)
        small = [
            plan.add(fam.knots(1, fam.tag(rng))),
            plan.add(fam.mutual(3, fam.tag(rng)), "tgf"),
            plan.add(fam.random_af(g_rng, z["cli_small"], 0.15, fam.tag(rng))),
        ]
        union = plan.add(fam.random_union(g_rng, [4, 4, 4], 0.3, fam.tag(rng)), "tgf")
        medium = plan.add(fam.random_union(
            g_rng, [5] * (z["cli_medium"] // 5), 0.25, fam.tag(rng)))
        # Cross-checks run lambda_, whose cost on random frameworks varies
        # a hundredfold; structured files keep them comparable across seeds.
        checked = small[:2] + [plan.add(fam.odd_cycles(2, 3, fam.tag(rng)))]
        solves = [Op("cli", i, argv=("solve",)) for i in small + [union]]
        solves += [Op("cli", i, argv=("solve", "--cross-check")) for i in checked]
        solves += [Op("cli", medium, argv=("solve", "--engine", "alpha")),
                   Op("cli", small[2], argv=("solve",))]
        for t in range(3):
            plan.cycle.append(translates[(3 * g + t) % len(translates)])
            plan.cycle += solves[3 * t:3 * t + 3]
    return plan


BUILDERS = {"search": _search, "enumerate": _enumerate, "decide": _decide, "cli": _cli}
