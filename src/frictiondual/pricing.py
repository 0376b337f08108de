"""Indifference pricing of the terminal endowment under exponential utility.

Three routes to the same number: compare the two primal value functions,
difference two entropy minimizations over the price-system polytope, or
difference the zero-spread dual values of the two shadow markets.  The
exponential translation property makes the price independent of initial
wealth, which is what collapses the primal route to a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import utility as ut
from .duality import SolveReport, entropy_terms, solve_dual, solve_entropy_core, solve_report
from .engine import solve_lp
from .polytope import build_polytope
from .shadow import construct_shadow
from .tree import MarketSpec, path_measure


class UnsupportedUtilityError(RuntimeError):
    """Pricing is derived for exponential utility only."""


@dataclass
class PriceReport:
    gamma: float
    x: float
    p_primal: Optional[float]
    p_dual: Optional[float]
    p_shadow: Optional[float]
    lower_bound: float
    upper_bound: float
    entropy_with: Optional[float] = None
    entropy_without: Optional[float] = None
    residuals: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "x": self.x,
            "p_primal": self.p_primal,
            "p_dual": self.p_dual,
            "p_shadow": self.p_shadow,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "entropy_with": self.entropy_with,
            "entropy_without": self.entropy_without,
            "residuals": self.residuals,
        }


def _require_exponential(spec: ut.UtilitySpec):
    if spec.family != "exponential":
        raise UnsupportedUtilityError(
            "indifference pricing is implemented for exponential utility only; "
            f"got {ut.utility_label(spec)}"
        )


def _reports(market: MarketSpec, gamma: float, x: float) -> tuple:
    """The two solves every route reads: with and without the endowment.

    The existence check depends on the market only, so it runs once.
    """
    spec = ut.UtilitySpec("exponential", gamma=gamma)
    rep_e = solve_report(market, spec, x, include_endowment=True)
    rep_0 = solve_report(market, spec, x, include_endowment=False,
                         check_feasibility=False)
    return rep_e, rep_0


def _primal_route(rep_e: SolveReport, rep_0: SolveReport) -> float:
    return math.log(rep_0.value / rep_e.value) / rep_e.utility.gamma


def _dual_route(market: MarketSpec, gamma: float, z_e: np.ndarray,
                z_0: np.ndarray) -> tuple:
    """``(k_e - k_0, entropy_with, entropy_without)`` with
    k = E[z log z]/gamma + E[z e] at the two entropy minimizers."""
    ent_e, mean_e = entropy_terms(market, z_e, include_endowment=True)
    ent_0, mean_0 = entropy_terms(market, z_0, include_endowment=False)
    return (ent_e / gamma + mean_e) - (ent_0 / gamma + mean_0), ent_e, ent_0


def _shadow_route(rep_e: SolveReport, rep_0: SolveReport) -> float:
    terms = []
    for rep in (rep_e, rep_0):
        shadow = construct_shadow(rep.market, rep.dual_system)
        terms.append(solve_dual(shadow.as_market(), rep.utility, 1.0,
                                include_endowment=rep.include_endowment).value)
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
    wealth cancels exactly and never enters.
    """
    poly = build_polytope(market)
    core_e = solve_entropy_core(market, gamma, include_endowment=True, poly=poly)
    core_0 = solve_entropy_core(market, gamma, include_endowment=False, poly=poly)
    return _dual_route(market, gamma, core_e.leaf_vars, core_0.leaf_vars)


def price_shadow(market: MarketSpec, gamma: float, x: float = 0.0) -> float:
    """Difference of zero-spread dual values on the two shadow markets.

    Each term minimizes E[(z/gamma) log(z/gamma) - z/gamma + z*e] at unit
    scale over the martingale polytope of the corresponding shadow
    price; the gamma-only constants are identical and cancel in the
    difference.
    """
    return _shadow_route(*_reports(market, gamma, x))


def price_bounds(market: MarketSpec) -> tuple:
    """Consistent-price LP bounds: (inf, sup) of E[z * e] over the polytope."""
    poly = build_polytope(market)
    prob = path_measure(market.tree).leaf_prob
    L = market.tree.n_leaves
    c = np.concatenate([prob * market.endowment, np.zeros(L)])
    lo = solve_lp(c, A_eq=poly.A_eq, b_eq=poly.b_eq, G=poly.G, h=poly.h)
    hi = solve_lp(-c, A_eq=poly.A_eq, b_eq=poly.b_eq, G=poly.G, h=poly.h)
    for res in (lo, hi):
        if res.status != "optimal":
            raise RuntimeError(f"price-bound LP failed: {res.diagnostics.message}")
    return float(lo.diagnostics.objective), float(-hi.diagnostics.objective)


def indifference_price(market: MarketSpec, gamma: float, x: float = 0.0,
                       routes=("primal", "dual", "shadow")) -> PriceReport:
    """Run the requested routes and assemble the report with residuals.

    Every route reads the same two solve reports (with and without the
    endowment), so each program is solved once per call.  Raises
    ``ValueError`` when ``routes`` is empty or names an unknown route.
    """
    if not routes or not set(routes) <= {"primal", "dual", "shadow"}:
        raise ValueError("price routes must be a nonempty subset of "
                         f"primal, dual, shadow; got {list(routes)}")
    p_primal = p_dual = p_shadow = None
    ent_e = ent_0 = None
    rep_e, rep_0 = _reports(market, gamma, x)
    if "primal" in routes:
        p_primal = _primal_route(rep_e, rep_0)
    if "dual" in routes:
        p_dual, ent_e, ent_0 = _dual_route(market, gamma, rep_e.dual_leaf_vars,
                                           rep_0.dual_leaf_vars)
    if "shadow" in routes:
        p_shadow = _shadow_route(rep_e, rep_0)
    lo, hi = price_bounds(market)
    anchor = next(p for p in (p_primal, p_dual, p_shadow) if p is not None)
    residuals = {}
    pairs = [("primal", p_primal), ("dual", p_dual), ("shadow", p_shadow)]
    for i, (na, pa) in enumerate(pairs):
        for nb, pb in pairs[i + 1:]:
            if pa is not None and pb is not None:
                residuals[f"{na}_vs_{nb}"] = abs(pa - pb)
    residuals["below_upper_bound"] = hi - anchor
    residuals["above_lower_bound"] = anchor - lo
    return PriceReport(
        gamma=gamma, x=x,
        p_primal=p_primal, p_dual=p_dual, p_shadow=p_shadow,
        lower_bound=lo, upper_bound=hi,
        entropy_with=ent_e, entropy_without=ent_0,
        residuals=residuals,
    )
