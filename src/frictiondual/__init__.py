"""Primal-dual utility maximization under proportional transaction costs
on finite event trees: solvers, shadow prices, and indifference pricing."""

from .duality import (
    DualSolution,
    PrimalInfeasibleError,
    PrimalSolution,
    SolveReport,
    compute_x0,
    minimize_v_plus_xy,
    solve_dual,
    solve_primal,
    solve_report,
    verify_identities,
)
from .polytope import (
    CpsVerdict,
    DualPolytope,
    NoCpsError,
    PolytopeInfeasibleError,
    PriceSystem,
    build_polytope,
    check_cps,
)
from .pricing import PriceReport, indifference_price, price_bounds
from .shadow import (
    FrictionlessSolve,
    ShadowPrice,
    construct_shadow,
    shadow_from_dual_roundtrip,
    solve_frictionless,
    verify_shadow,
)
from .tree import (
    EventTree,
    MarketSpec,
    MarketValidationError,
    load_market,
    market_from_dict,
    market_to_dict,
    save_market,
)
from .utility import UtilitySpec, parse_utility

__version__ = "0.1.0"

__all__ = [
    "CpsVerdict", "DualPolytope", "DualSolution", "EventTree",
    "FrictionlessSolve", "MarketSpec", "MarketValidationError", "NoCpsError",
    "PolytopeInfeasibleError", "PriceReport", "PriceSystem",
    "PrimalInfeasibleError", "PrimalSolution", "ShadowPrice", "SolveReport",
    "UtilitySpec", "build_polytope", "check_cps", "compute_x0",
    "construct_shadow", "indifference_price", "load_market",
    "market_from_dict", "market_to_dict", "minimize_v_plus_xy",
    "parse_utility", "price_bounds", "save_market",
    "shadow_from_dual_roundtrip", "solve_dual", "solve_frictionless",
    "solve_primal", "solve_report", "verify_identities", "verify_shadow",
]
