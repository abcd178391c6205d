"""Exact rational analysis of finite multinomial market models.

The package decides arbitrage-freeness and completeness of one-period
markets by enumerating the vertex generators of the martingale-measure
polytope with exact rational arithmetic, characterizes all equivalent
martingale measures, computes derivative price bounds, completes incomplete
markets, and extends the machinery to finite event trees and a discrete
birth-death lattice model.

The one-period geometry lives in ``analysis``, ``geometry`` and ``market``;
event trees in ``multiperiod``; factor models and the lattice in ``models``.
Importing the package loads none of them. Each public name below is read
from its module on first access (PEP 562), and so is each submodule, so a
program loads, and with no bytecode cache compiles, only the modules it uses:
``martpoly.cli`` loads the analysis modules for the one-period and tree
commands and ``models`` for ``kkl`` alone.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "analysis": (
            "CompletionPlan", "EmmCharacterization", "MeasureCheck", "PriceBounds",
            "apply_completion", "characterize", "complete_market", "is_arbitrage_free",
            "is_complete", "mixture", "price_bounds", "validate_weights", "verify_measure",
        ),
        "errors": (
            "InputError", "InternalContractError", "LimitExceededError", "MartpolyError",
            "NotViableError", "PerturbationError",
        ),
        "geometry": (
            "DEFAULT_MAX_OUTCOMES", "GeneratorSet", "brute_force_generators",
            "convex_hull_member", "enumerate_generators", "face_intersection",
            "face_walk_generators",
        ),
        "market": (
            "MartingaleSystem", "OnePeriodMarket", "augmented_matrix", "build_system",
            "make_market", "market_from_json_dict", "market_from_system",
            "market_to_json_dict", "system_from_rows",
        ),
        "models": (
            "DerivativeSurface", "FactorModel", "KklParams", "NodeWeights",
            "PerturbationResult", "TrinomialEmmFamily", "factor_completeness",
            "factor_viability", "kkl_backward_induction", "kkl_build",
            "kkl_completion_check", "kkl_component_market", "kkl_grid", "kkl_node_emm",
            "kkl_node_weights", "kkl_params", "kkl_perturb_terminal", "kkl_transition",
            "kkl_viability", "make_factor_model", "put_terminal",
            "trinomial_completion_condition", "trinomial_emms", "trinomial_price_interval",
            "write_surface_csv",
        ),
        "multiperiod": (
            "Component", "ComponentReport", "EventTree", "TreeCompletion", "TreeMarket",
            "TreeNode", "TreeReport", "analyze_tree", "complete_tree", "components",
            "tree_market_from_json_dict", "tree_market_to_json_dict",
        ),
        "rationals": (
            "Matrix", "SolutionSpace", "Vector", "dot", "format_rational", "mean_vector",
            "parse_rational", "rank", "rat", "rref", "solve", "vector",
        ),
    }.items()
    for name in names
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> object:
    """Import a public name's module, or a submodule, on first access."""
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
