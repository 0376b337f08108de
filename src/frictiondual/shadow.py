"""Shadow prices: frictionless markets hidden inside the bid-ask spread.

The ratio of the two dual-optimizer components defines a price process
lying in the spread.  Trading it without friction achieves exactly the
frictional value, and the frictionless dual density lifts back to a
frictional dual optimizer.  This module builds that price, solves the
frictionless problems on it, and verifies both directions.  No solve
here starts from the frictional optimizer, so they are independent
checks of that theorem: the zero-spread duals start at the closed-form
martingale density of the shadow price (its polytope's
:meth:`DualPolytope.strict_point`), and the primal at its program's
closed-form start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import utility as ut
from .duality import PrimalUnboundedError, SolveReport, solve_dual, solve_primal
from .polytope import PriceSystem, build_polytope
from .tree import MarketSpec

CLASS_RTOL = 1e-7
TRADE_EPS = 1e-7
DIRECTION_TOL = 1e-7


class ShadowConstructionError(RuntimeError):
    """Shadow price could not be built or used where required."""


@dataclass(frozen=True)
class ShadowPrice:
    """Per-node price in the spread with bid/ask attainment flags.

    Nodes where the dual density vanishes get the ask price by
    convention and are flagged ``undefined``; they are excluded from
    direction checks.
    """

    market: MarketSpec
    value: np.ndarray
    at_ask: np.ndarray
    at_bid: np.ndarray
    undefined: np.ndarray

    def classification(self) -> list:
        """Per-node class: undefined, at_ask, at_bid or interior, the
        first flag that holds in that order."""
        return np.select([self.undefined, self.at_ask, self.at_bid],
                         ["undefined", "at_ask", "at_bid"], "interior").tolist()

    def as_market(self) -> MarketSpec:
        """Zero-spread market trading at the shadow price, with the
        endowment of the market the price was built on."""
        return MarketSpec(tree=self.market.tree, ask_price=self.value,
                          lam=0.0, endowment=self.market.endowment)

    def lift(self, z0_leaf: np.ndarray) -> np.ndarray:
        """Leaf variables ``(Z0, S Z0)`` of a density paired with this price.

        A martingale density of the shadow market lifts into the frictional
        polytope; the frictional dual optimizer that built the price lifts
        onto the shadow market's polytope, at its zero-spread optimum.
        """
        return np.concatenate([z0_leaf, z0_leaf * self.value[self.market.tree.leaves]])


@dataclass
class FrictionlessSolve:
    """Optimal position and both values of the zero-spread problem."""

    position: np.ndarray        # per node, holding carried out of the node
    value: float                # u(x; shadow)
    dual_value: float           # v(y; shadow)
    diagnostics: dict


def construct_shadow(market: MarketSpec, dual_opt: PriceSystem) -> ShadowPrice:
    """Ratio of the dual-optimizer components, clipped to the spread.

    Where the density exceeds ``DENSITY_EPS`` the ratio is taken literally
    (and asserted to lie in the spread up to rounding); elsewhere the
    ask price stands in and the node is flagged.
    """
    ask = market.ask_price
    bid = market.bid_price
    ratio, undefined = dual_opt.ratio(ask)
    outside = (ratio < bid - 1e-9 * ask) | (ratio > ask * (1.0 + 1e-9))
    if outside.any():
        k = int(np.argmax(outside))
        raise ShadowConstructionError(
            f"ratio {ratio[k]} outside spread [{bid[k]}, {ask[k]}] at node {k}"
        )
    value = np.clip(ratio, bid, ask)
    tol = CLASS_RTOL * ask
    return ShadowPrice(
        market=market, value=value,
        at_ask=(np.abs(value - ask) <= tol) & ~undefined,
        at_bid=(np.abs(value - bid) <= tol) & ~undefined,
        undefined=undefined,
    )


def solve_frictionless(shadow_market: MarketSpec, spec: ut.UtilitySpec, x: float,
                       y: float) -> FrictionlessSolve:
    """Primal and dual zero-spread solves at a given price process, the
    dual at scale ``y`` (the frictional report's ``yhat``).

    ``shadow_market`` must carry zero spread; diverging primal iterates
    are reported as an unbounded problem (frictionless arbitrage in the
    supplied price).  Neither solve reads the frictional solve the price
    came from: both start at their closed-form starts, the dual at the
    price's martingale density (:meth:`DualPolytope.strict_point`), which
    raises :class:`PolytopeInfeasibleError` when the price moves one way
    at some node.
    """
    if shadow_market.lam != 0.0:
        raise ShadowConstructionError("frictionless solve needs a zero-spread market")
    try:
        primal = solve_primal(shadow_market, spec, x)
    except PrimalUnboundedError as exc:
        raise ShadowConstructionError(
            "frictionless problem unbounded: the price admits arbitrage"
        ) from exc
    dual = solve_dual(shadow_market, spec, y)
    return FrictionlessSolve(
        position=primal.strategy.phi1.copy(),
        value=primal.value,
        dual_value=dual.value,
        diagnostics={"primal": primal.diagnostics, "dual": dual.diagnostics},
    )


def position_map_rank(shadow_market: MarketSpec):
    """Rank of the map from positions to terminal wealth increments.

    Full column rank means the frictionless optimizer is unique, which
    gates the strategy-coincidence check.
    """
    tree = shadow_market.tree
    internal = tree.internal
    S = shadow_market.ask_price
    # price at each stage of each leaf's path; a position held out of an
    # internal node earns the step to the next node on the path
    leaf, node = np.nonzero(tree.on_path)
    path_price = np.empty((tree.n_leaves, tree.horizon + 1))
    path_price[leaf, tree.time[node]] = S[node]
    D = np.where(tree.on_path[:, internal],
                 path_price[:, tree.time[internal] + 1] - S[internal], 0.0)
    K = internal.size
    return int(np.linalg.matrix_rank(D, tol=1e-9 * max(1.0, float(np.abs(D).max())))), K


def verify_shadow(report: SolveReport, shadow: ShadowPrice,
                  frictionless: FrictionlessSolve) -> dict:
    """Verification record for the shadow-price properties.

    (a) value match u(x; shadow) vs u(x); (b) dual match at yhat;
    (c) trade directions land on the attained side of the spread,
    enforced through the complementary-slackness products
    buy * (ask - shadow) and sell * (shadow - bid) normalized by the ask
    -- the statement that stays well posed at nodes where the optimizer
    is flat and micro-trades below solver resolution are meaningless;
    (d) position coincidence where applicable.
    """
    market = report.market
    ask, bid = market.ask_price, market.bid_price
    buy, sell = report.strategy.buy, report.strategy.sell
    comp = np.column_stack([buy * (ask - shadow.value), sell * (shadow.value - bid)])
    comp /= (1.0 + ask)[:, None]
    volume = np.column_stack([buy, sell])
    # node-major, a node's buy before its sell
    bad = ((volume > TRADE_EPS) & ~np.column_stack([shadow.at_ask, shadow.at_bid])
           & (comp > DIRECTION_TOL) & ~shadow.undefined[:, None])
    direction_violations = [{"node": int(k), "side": ("buy", "sell")[j],
                             "volume": float(volume[k, j]),
                             "complementarity": float(comp[k, j]),
                             "shadow": float(shadow.value[k])}
                            for k, j in zip(*np.nonzero(bad))]

    rank, K = position_map_rank(shadow.as_market())
    unique = rank == K
    position_gap = None
    if unique and not direction_violations:
        diff = np.abs(frictionless.position - report.strategy.phi1)
        position_gap = float(diff.max()) if diff.size else 0.0

    return {
        "value_gap": abs(frictionless.value - report.value),
        "dual_gap": abs(frictionless.dual_value - report.dual_value),
        "direction_violations": direction_violations,
        "position_unique": unique,
        "position_gap": position_gap,
        "undefined_nodes": [int(k) for k in np.flatnonzero(shadow.undefined)],
    }


def shadow_from_dual_roundtrip(report: SolveReport, shadow: ShadowPrice) -> dict:
    """Lift the frictionless dual minimizer back into the frictional cone.

    Solving the zero-spread dual on the shadow price at yhat and pairing
    its density with density-times-price must land inside the original
    polytope and reproduce the frictional dual value.  The zero-spread
    solve starts at the closed-form martingale density of the shadow
    price (:meth:`DualPolytope.strict_point`), never at the lift of the
    frictional optimizer, so it checks the shadow-price theorem
    independently of that optimizer.  The shadow market carries the
    endowment of ``report.market`` (:meth:`ShadowPrice.as_market`), so the
    report of a zero-endowment market round-trips without one.
    """
    market = report.market
    shadow_market = shadow.as_market()
    dual = solve_dual(shadow_market, report.utility, report.yhat)
    lifted = shadow.lift(dual.leaf_vars[:market.tree.n_leaves])
    poly = build_polytope(market)
    violation = poly.max_violation(lifted)
    value_gap = abs(dual.value - report.dual_value)
    return {
        "polytope_violation": violation,
        "dual_value_gap": value_gap,
        "lifted_leaf_vars": lifted,
        "member": bool(violation <= 1e-8),
        "matches_dual_value": bool(value_gap <= 1e-6 * (1.0 + abs(report.dual_value))),
    }
