"""Exact rational analysis of finite multinomial market models.

The package decides arbitrage-freeness and completeness of one-period
markets by enumerating the vertex generators of the martingale-measure
polytope with exact rational arithmetic, characterizes all equivalent
martingale measures, computes derivative price bounds, completes incomplete
markets, and extends the machinery to finite event trees and a discrete
birth-death lattice model.
"""

from types import ModuleType as _ModuleType

from .analysis import (
    CompletionPlan,
    EmmCharacterization,
    MeasureCheck,
    PriceBounds,
    apply_completion,
    characterize,
    complete_market,
    is_arbitrage_free,
    is_complete,
    mixture,
    price_bounds,
    validate_weights,
    verify_measure,
)
from .errors import (
    InputError,
    InternalContractError,
    LimitExceededError,
    MartpolyError,
    NotViableError,
    PerturbationError,
)
from .geometry import (
    DEFAULT_MAX_OUTCOMES,
    GeneratorSet,
    brute_force_generators,
    convex_hull_member,
    enumerate_generators,
    face_intersection,
)
from .market import (
    MartingaleSystem,
    OnePeriodMarket,
    augmented_matrix,
    build_system,
    make_market,
    market_from_json_dict,
    market_from_system,
    market_to_json_dict,
    system_from_rows,
)
from .models import (
    DerivativeSurface,
    FactorModel,
    KklParams,
    PerturbationResult,
    TrinomialEmmFamily,
    factor_completeness,
    factor_viability,
    kkl_backward_induction,
    kkl_build,
    kkl_completion_check,
    kkl_component_market,
    kkl_grid,
    kkl_node_emm,
    kkl_params,
    kkl_perturb_terminal,
    kkl_transition,
    kkl_viability,
    make_factor_model,
    put_terminal,
    trinomial_completion_condition,
    trinomial_emms,
    trinomial_price_interval,
    write_surface_csv,
)
from .multiperiod import (
    Component,
    ComponentReport,
    EventTree,
    TreeCompletion,
    TreeMarket,
    TreeNode,
    TreeReport,
    analyze_tree,
    complete_tree,
    components,
    tree_market_from_json_dict,
    tree_market_to_json_dict,
)
from .rationals import (
    Matrix,
    SolutionSpace,
    Vector,
    dot,
    format_rational,
    mean_vector,
    parse_rational,
    rank,
    rat,
    rref,
    solve,
    vector,
)

__version__ = "0.1.0"

__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
