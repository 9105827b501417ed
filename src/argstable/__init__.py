"""Preferred extensions of argumentation frameworks via minimal and stable models."""

import importlib

# Each public name by the module that defines it.  A name, and a module,
# is imported on its first lookup (PEP 562), so that the command line
# starts with none of the package loaded and loads it inside `main`.
_MODULES = {
    "errors": ["BoundExceededError", "ParseError", "UnknownArgumentError"],
    "framework": ["ArgumentationFramework", "parse_apx", "parse_tgf"],
    "logic": [
        "AtomMap", "Clause", "Literal", "Program", "entails", "evaluate", "export_dimacs",
        "g_transform", "gl_reduct", "is_minimal_model_by_consequence", "is_model",
        "is_unsatisfiable", "maximal_models", "minimal_models", "models", "normalize",
        "stable_models",
    ],
    "oracle": ["defeated_arguments", "enumerate_admissible", "preferred_oracle", "stable_oracle"],
    "translate": [
        "alpha", "beta", "compl", "decode", "defeat_atom", "defeat_map", "gamma", "lambda_",
        "stable_fragment",
    ],
    "engines": [
        "PreferredCheck", "QueryVerdict", "SolveReport", "check_preferred_consequence",
        "check_preferred_unsat", "preferred_via_alpha", "preferred_via_gamma",
        "preferred_via_lambda", "query",
    ],
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _MODULES or name == "cli":
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    """What a fully imported package shows: its public names, its modules
    and the module attributes, but none of the names that load them."""
    own = {"importlib", "_MODULES", "_HOME", "__getattr__", "__dir__"}
    return sorted(globals().keys() - own | _HOME.keys() | _MODULES.keys())
