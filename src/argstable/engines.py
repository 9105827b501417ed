"""Preferred-extension engines and certificate checkers built on the translations.

The alpha and gamma engines, and `query` through the gamma engine, solve
only the undecided core: the framework restricted to the arguments that the
grounded labelling (`ArgumentationFramework.grounded`) labels neither IN nor
OUT.  Each core extension is reported with IN added, and each witness with
the defeat atoms of OUT, so both are the ones the whole framework's defeat
CNF gives.  The bound is checked on the whole framework.  The lambda engine,
both checkers and the oracle work on the whole framework, so
`solve --cross-check` sets the peeled engines against unpeeled ones."""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .framework import ArgumentationFramework
from .logic import (
    DEFAULT_MODEL_BOUND,
    Interpretation,
    _solver,
    canonical,
    check_bound,
    is_minimal_model_by_consequence,
)
from .translate import alpha, compl, defeat_atom

# The alpha and gamma engines, `query` and the UNSAT checker solve `gamma`,
# the one defeat CNF (as a multiset, `gamma_rules`' integer image); the
# lambda engine works on `lambda_`'s integer rules, and the consequence
# checker, as the reference, on `alpha`'s `Program`.  The benchmark's tracer
# (perfbench) times translation and search at the names `alpha`, `gamma`,
# `lambda_`, `minimal_models` and `stable_models`.
from .logic import _minimal_models as minimal_models, _stable_models as stable_models
from .translate import defeat_cnf as gamma, lambda_rules as lambda_

Extension = frozenset[str]


class SolveReport(NamedTuple):
    """Extensions found by one engine, with the model that produced each.
    `witnesses` is the mapping the report is given, neither copied nor
    coerced."""

    engine: str
    extensions: tuple[Extension, ...]
    witnesses: Mapping[Extension, Interpretation]


class PreferredCheck(NamedTuple):
    holds: bool
    counter_model: Interpretation | None  # the lexicographically least model of the certificate
    failure: str | None  # "not-a-model" or "satisfiable" when holds is False


class QueryVerdict(NamedTuple):
    mode: str
    holds: bool
    evidence: Interpretation | None


def _report(engine: str, pairs) -> SolveReport:
    witnesses = {extension: model for extension, model in pairs}
    extensions = tuple(canonical(witnesses))
    return SolveReport(engine, extensions, witnesses)


def _defeat_report(engine: str, af: ArgumentationFramework, bound: int) -> SolveReport:
    """The extensions of the minimal models of the defeat CNF `gamma`, each
    the arguments whose defeat atom the model leaves out, read back by one
    mapping from d(x) to x.

    Only the undecided core is solved.  The bound is checked on the whole
    framework first.  Every preferred extension contains the grounded
    extension G = IN and excludes OUT, the arguments G attacks (Dung 1995).
    Let U be the rest.  E ↦ E \\ G maps the admissible sets that contain G
    one to one onto the admissible sets of AF↓U, and keeps the subset
    order: no argument of U attacks G, since every attacker of G is OUT; G
    defends against every attack from OUT; and an attacker in U of a member
    of E is attacked from E \\ G, since what G attacks is OUT.  A minimal
    model of the defeat CNF is the complement image of its extension, so
    the core's model plus d(x) for every x in OUT is the whole framework's:
    every extension and witness is the one the whole CNF gives.  With U
    empty, the empty framework's case too, the one extension is IN, and no
    solver is built; with IN empty the core is the whole framework."""
    check_bound(len(af.arguments), bound, "program signature")
    accepted, rejected = af.grounded()
    out = frozenset(map(defeat_atom, rejected))
    if len(accepted) + len(rejected) == len(af.arguments):
        return _report(engine, [(accepted, out)])
    core = af.restrict(af.arguments - accepted - rejected) if accepted else af
    theory = gamma(core)
    argument = {defeat_atom(x): x for x in core.arguments}.__getitem__
    found = minimal_models(theory, bound)
    # an extension is A less OUT less the arguments the core model defeats
    kept = af.arguments - rejected
    return _report(engine, ((kept.difference(map(argument, m)), m | out if out else m)
                            for m in found))


def preferred_via_alpha(
    af: ArgumentationFramework, bound: int = DEFAULT_MODEL_BOUND
) -> SolveReport:
    """Preferred extensions read off the minimal models of the defeat theory."""
    return _defeat_report("alpha", af, bound)


def preferred_via_gamma(
    af: ArgumentationFramework, bound: int = DEFAULT_MODEL_BOUND
) -> SolveReport:
    """Preferred extensions read off the stable models of the disjunctive
    program.  It is positive, so they are its minimal models."""
    return _defeat_report("gamma", af, bound)


def preferred_via_lambda(
    af: ArgumentationFramework, bound: int = DEFAULT_MODEL_BOUND
) -> SolveReport:
    """Preferred extensions listed directly inside the stable models of the
    program with acceptance rules."""
    found = stable_models(lambda_(af), bound=bound)
    return _report("lambda", ((m & af.arguments, m) for m in found))


def check_preferred_unsat(
    af: ArgumentationFramework,
    members,
    bound: int = DEFAULT_MODEL_BOUND,
) -> PreferredCheck:
    """Certificate check: the complement image must model the defeat theory,
    and the theory plus the denial of every member plus the negated complement
    conjunction must be unsatisfiable.  One solve decides it: the model it
    finds under the denials is minimal inside the complement image, and on
    failure it is the counter-model, the lexicographically least model of
    the certificate, over the defeat atoms in sorted argument order."""
    complement = compl(af, members)
    theory = gamma(af)
    # the complement image as integer literals: a member's defeat atom false
    image = {v if a in complement else -v for v, a in enumerate(theory.atoms, 1)}
    if any(image.isdisjoint(c) for c in theory.clauses):
        return PreferredCheck(False, None, "not-a-model")
    # an empty conjunction negates to falsum: unsatisfiable with no solve or bound
    denials = [-v for v, a in enumerate(theory.atoms, 1) if a not in complement]
    found = complement and _solver(theory, bound).solve(denials)
    if found == complement:
        return PreferredCheck(True, None, None)
    return PreferredCheck(False, found, "satisfiable")


def check_preferred_consequence(
    af: ArgumentationFramework,
    members,
    bound: int = DEFAULT_MODEL_BOUND,
) -> bool:
    """Minimality as consequence: the complement image models the defeat
    theory, and the theory plus the denial of every member entails each
    complement atom.  The members' defeat atoms are the atoms outside the
    complement image: `is_minimal_model_by_consequence` on `alpha`."""
    return is_minimal_model_by_consequence(alpha(af), compl(af, members), bound=bound)


def query(
    af: ArgumentationFramework,
    argument: str,
    mode: str,
    bound: int = DEFAULT_MODEL_BOUND,
) -> QueryVerdict:
    """Brave/cautious membership over the preferred extensions, evidenced by
    the first qualifying stable model of `lambda_` in canonical order.  That
    model is read off `gamma`: each stable model of `lambda_` is a stable
    model of `gamma` plus the extension it decodes to, so `lambda_` itself is
    never built."""
    af._known(argument)
    if mode not in ("brave", "cautious"):
        raise ValueError(f"unknown query mode: {mode!r}")
    brave = mode == "brave"
    report = preferred_via_gamma(af, bound=bound)
    # brave asks for an extension with the argument, cautious for one without it
    hits = canonical(e | m for e, m in report.witnesses.items() if (argument in e) == brave)
    return QueryVerdict(mode, bool(hits) == brave, hits[0] if hits else None)
