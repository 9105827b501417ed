"""Preferred-extension engines and certificate checkers built on the translations."""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .errors import UnknownArgumentError
from .framework import ArgumentationFramework
from .logic import (
    DEFAULT_MODEL_BOUND,
    Interpretation,
    NumberedTheory,
    _rule_clauses,
    canonical,
    is_minimal_model_by_consequence,
)
from .translate import compl

# The engines and the UNSAT checker work on the theories as integer rules;
# the consequence checker, as the reference, on the `Program` of `alpha`'s.
# The benchmark's tracer (perfbench) times translation and search at the
# names `alpha`, `gamma`, `lambda_`, `minimal_models` and `stable_models`.
from .logic import _minimal_models as minimal_models, _stable_models as stable_models
from .translate import alpha_rules as alpha, gamma_rules as gamma, lambda_rules as lambda_

Extension = frozenset[str]


class _SolveReportFields(NamedTuple):
    engine: str
    extensions: tuple[Extension, ...]
    witnesses: Mapping[Extension, Interpretation]


class SolveReport(_SolveReportFields):
    """Extensions found by one engine, with the model that produced each."""

    __slots__ = ()

    def __new__(cls, engine: str, extensions: tuple[Extension, ...],
                witnesses: Mapping[Extension, Interpretation]):
        return tuple.__new__(cls, (engine, extensions, dict(witnesses)))

    # `_replace` builds through `_make`, so it too copies the witnesses
    _make = classmethod(lambda cls, fields: cls(*fields))


class PreferredCheck(NamedTuple):
    holds: bool
    counter_model: Interpretation | None  # minimal in the certificate, the first the solver finds
    failure: str | None  # "not-a-model" or "satisfiable" when holds is False


class QueryVerdict(NamedTuple):
    mode: str
    holds: bool
    evidence: Interpretation | None


def _report(engine: str, pairs) -> SolveReport:
    witnesses = {extension: model for extension, model in pairs}
    extensions = tuple(canonical(witnesses))
    return SolveReport(engine, extensions, witnesses)


def _defeat_report(
    engine: str, af: ArgumentationFramework, theory: NumberedTheory, bound: int
) -> SolveReport:
    """The extensions of the minimal models of a defeat theory, each the
    arguments whose defeat atom the model leaves out: atom number i is d(x)
    for the i-th argument x in sorted order, so one mapping decodes them
    all."""
    argument = dict(zip(theory.atoms, sorted(af.arguments))).__getitem__
    found = minimal_models(theory, bound)
    return _report(engine, ((af.arguments.difference(map(argument, m)), m) for m in found))


def preferred_via_alpha(
    af: ArgumentationFramework, bound: int = DEFAULT_MODEL_BOUND
) -> SolveReport:
    """Preferred extensions read off the minimal models of the defeat theory."""
    return _defeat_report("alpha", af, alpha(af), bound)


def preferred_via_gamma(
    af: ArgumentationFramework, bound: int = DEFAULT_MODEL_BOUND
) -> SolveReport:
    """Preferred extensions read off the stable models of the disjunctive
    program.  It is positive, so they are its minimal models."""
    return _defeat_report("gamma", af, gamma(af), bound)


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
    failure it is the counter-model, a minimal model of the certificate."""
    complement = compl(af, members)
    theory = alpha(af)
    cnf = _rule_clauses(theory.clauses)
    # the complement image as integer literals: a member's defeat atom false
    image = {v if a in complement else -v for v, a in enumerate(theory.atoms, 1)}
    if any(image.isdisjoint(c) for c in cnf):
        return PreferredCheck(False, None, "not-a-model")
    # an empty conjunction negates to falsum: unsatisfiable with no solve or bound
    denials = [-v for v, a in enumerate(theory.atoms, 1) if a not in complement]
    found = complement and theory.solver(bound, cnf).solve(denials)
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
    complement image, so this is `is_minimal_model_by_consequence`."""
    theory = alpha(af).program()
    return is_minimal_model_by_consequence(theory, compl(af, members), bound=bound)


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
    if argument not in af.arguments:
        raise UnknownArgumentError(f"unknown argument: {argument!r}")
    if mode not in ("brave", "cautious"):
        raise ValueError(f"unknown query mode: {mode!r}")
    brave = mode == "brave"
    report = preferred_via_gamma(af, bound=bound)
    # brave asks for an extension with the argument, cautious for one without it
    hits = canonical(e | m for e, m in report.witnesses.items() if (argument in e) == brave)
    return QueryVerdict(mode, bool(hits) == brave, hits[0] if hits else None)
