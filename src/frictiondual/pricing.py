"""Indifference pricing of the terminal endowment under exponential utility.

Three routes to the same number: compare the two primal value functions,
difference two entropy minimizations over the price-system polytope, or
difference the zero-spread dual values of the two shadow markets.  The
exponential translation property makes the price independent of initial
wealth, which is what collapses the primal route to a closed form.

The routes read two solve reports: one of the market and one of the
same market without its endowment, ``market.with_endowment(np.zeros(L))``,
which is built once per price; every solver reads the endowment from the
market it is given.  Each report's dual solve starts at its own
polytope's strictly consistent price system
(:meth:`DualPolytope.strict_point`), and each shadow-market dual starts
at the lift (:meth:`ShadowPrice.lift`) of its report's dual optimizer,
which is optimal there.  ``price_dual`` alone solves its two entropy
programs, on the market and on its zero-endowment copy, independently
of the reports: both start at the market's polytope's
:meth:`DualPolytope.strict_point`, which does not read the endowment.
A market with no band price raises :class:`NoCpsError` from that
closed form, with no LP.  The consistent-price bounds run no LP either:
each end is a backward induction on the tree (:func:`price_bounds`).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import utility as ut
from .duality import SolveReport, entropy_terms, solve_dual, solve_entropy_core, solve_report
from .polytope import build_polytope, max_expectation
from .shadow import construct_shadow
from .tree import MarketSpec


@dataclass
class PriceReport:
    gamma: float
    x: float
    p_primal: float
    p_dual: float
    p_shadow: float
    lower_bound: float
    upper_bound: float
    entropy_with: float
    entropy_without: float
    residuals: dict

    def to_dict(self) -> dict:
        return asdict(self)


def _reports(market: MarketSpec, gamma: float, x: float) -> tuple:
    """The two solves every route reads: of the market and of its
    zero-endowment copy."""
    spec = ut.UtilitySpec("exponential", gamma=gamma)
    market_0 = market.with_endowment(np.zeros(market.tree.n_leaves))
    return solve_report(market, spec, x), solve_report(market_0, spec, x)


def _primal_route(rep_e: SolveReport, rep_0: SolveReport) -> float:
    return math.log(rep_0.value / rep_e.value) / rep_e.utility.gamma


def _dual_route(market: MarketSpec, market_0: MarketSpec, gamma: float,
                z_e: np.ndarray, z_0: np.ndarray) -> tuple:
    """``(k_e - k_0, entropy_with, entropy_without)`` with
    k = E[z log z]/gamma + E[z e] at the entropy minimizers of ``market``
    and of its zero-endowment copy ``market_0``."""
    ent_e, mean_e = entropy_terms(market, z_e)
    ent_0, mean_0 = entropy_terms(market_0, z_0)
    return (ent_e / gamma + mean_e) - (ent_0 / gamma + mean_0), ent_e, ent_0


def _shadow_route(rep_e: SolveReport, rep_0: SolveReport) -> float:
    """Each zero-spread dual starts at the lift of its report's optimizer."""
    terms = []
    for rep in (rep_e, rep_0):
        shadow = construct_shadow(rep.market, rep.dual_system)
        z0_leaf = rep.dual_leaf_vars[:rep.market.tree.n_leaves]
        terms.append(solve_dual(shadow.as_market(), rep.utility, 1.0,
                                x0=shadow.lift(z0_leaf)).value)
    return terms[0] - terms[1]


def price_primal(market: MarketSpec, gamma: float, x: float = 0.0) -> float:
    """Compensating cash amount from the two value functions.

    Exponential translation turns the implicit equation for the price
    into p = log(u_without / u_with) / gamma; both values are strictly
    negative so the ratio is safe.
    """
    return _primal_route(*_reports(market, gamma, x))


def price_dual(market: MarketSpec, gamma: float) -> tuple:
    """Difference of the two entropy minimizations over the polytope.

    Returns ``(price, entropy_with, entropy_without)``; the initial
    wealth cancels exactly and never enters.  Both solves start at the
    market's :meth:`DualPolytope.strict_point`, which does not read the
    endowment.
    """
    poly = build_polytope(market)
    market_0 = market.with_endowment(np.zeros(market.tree.n_leaves))
    start = poly.strict_point()
    core_e = solve_entropy_core(market, gamma, poly=poly, x0=start)
    core_0 = solve_entropy_core(market_0, gamma, poly=poly, x0=start)
    return _dual_route(market, market_0, gamma, core_e.leaf_vars, core_0.leaf_vars)


def price_shadow(market: MarketSpec, gamma: float, x: float = 0.0) -> float:
    """Difference of zero-spread dual values on the two shadow markets.

    Each term minimizes E[(z/gamma) log(z/gamma) - z/gamma + z*e] at unit
    scale over the martingale polytope of the corresponding shadow
    price; the gamma-only constants are identical and cancel in the
    difference.
    """
    return _shadow_route(*_reports(market, gamma, x))


def price_bounds(market: MarketSpec) -> tuple:
    """Consistent-price bounds: (inf, sup) of E[z * e] over the polytope.

    Each end is a super-replication price by backward induction on the
    tree (:func:`max_expectation`), the lower one of ``-e`` (``0.0 -``
    reads +0.0, not -0.0, where it is zero); no LP.  An empty polytope
    raises :class:`PolytopeInfeasibleError`.
    """
    e = market.endowment
    return 0.0 - max_expectation(market, -e), max_expectation(market, e)


def indifference_price(market: MarketSpec, gamma: float, x: float = 0.0) -> PriceReport:
    """Run the three routes and assemble the report with residuals.

    Every route reads the same two solve reports (with and without the
    endowment), so each program is solved once per call.  The bound
    residuals are measured at the primal route's price.
    """
    rep_e, rep_0 = _reports(market, gamma, x)
    p_primal = _primal_route(rep_e, rep_0)
    p_dual, ent_e, ent_0 = _dual_route(market, rep_0.market, gamma,
                                       rep_e.dual_leaf_vars, rep_0.dual_leaf_vars)
    p_shadow = _shadow_route(rep_e, rep_0)
    lo, hi = price_bounds(market)
    return PriceReport(
        gamma=gamma, x=x,
        p_primal=p_primal, p_dual=p_dual, p_shadow=p_shadow,
        lower_bound=lo, upper_bound=hi,
        entropy_with=ent_e, entropy_without=ent_0,
        residuals={
            "primal_vs_dual": abs(p_primal - p_dual),
            "primal_vs_shadow": abs(p_primal - p_shadow),
            "dual_vs_shadow": abs(p_dual - p_shadow),
            "below_upper_bound": hi - p_primal,
            "above_lower_bound": p_primal - lo,
        },
    )
