"""Shadow prices: frictionless markets hidden inside the bid-ask spread.

The ratio of the two dual-optimizer components defines a price process
lying in the spread.  Trading it without friction achieves exactly the
frictional value, and the frictionless dual density lifts back to a
frictional dual optimizer.  This module builds that price, solves the
frictionless problems on it, and verifies both directions.  No solve
here reads the frictional optimizer, so they are independent checks of
that theorem: the zero-spread duals start cold, at the closed-form
martingale density of the shadow price (its polytope's
:meth:`DualPolytope.strict_point`), and the zero-spread primal starts
at the trades and multipliers read off the shadow market's own dual
optimum (:meth:`PrimalProgram.primal_start`), not at its program's
closed form: an exact read-off, it passes the engine's stopping test as
given and is accepted with no finish round and no barrier step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import utility as ut
from .duality import (PrimalProgram, PrimalUnboundedError, SolveReport, solve_dual,
                      solve_primal)
from .polytope import PolytopeInfeasibleError, PriceSystem, build_polytope
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

    def unique_positions(self) -> bool:
        """Whether the frictionless positions on this price are unique:
        every internal node's price moves to some child by more than
        ``1e-9`` times the largest one-step move (at least 1).

        They are unique when the leaf-by-node map of the price steps they
        earn, whose largest entry is the largest one-step move, has full
        column rank at that cutoff (Kallsen & Muhle-Karbe, Ann. Appl.
        Probab. 20, 2010).  A flat node's column is zero.  At zero spread
        with no arbitrage, the only prices :func:`solve_frictionless`
        accepts, a node moves both ways or not at all; so, backward from
        the leaves, a node whose children's moves differ forces both its
        position and the gain into it to 0 when positions earn 0 at every leaf.
        """
        tree = self.market.tree
        move = np.abs(self.value[1:] - self.value[tree.parent[1:]])
        moving = tree.parent[1:][move > 1e-9 * max(1.0, float(move.max()))]
        return np.unique(moving).size == tree.internal.size

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
    """Optimal position and both values of the zero-spread problem, the
    dual's optimal leaf variables, and the market, utility and dual scale
    they were solved at."""

    position: np.ndarray        # per node, holding carried out of the node
    value: float                # u(x; shadow)
    dual_value: float           # v(y; shadow)
    dual_leaf_vars: np.ndarray  # the zero-spread dual's minimizer
    diagnostics: dict
    market: MarketSpec          # the zero-spread market solved
    utility: ut.UtilitySpec
    y: float


def construct_shadow(market: MarketSpec, dual_opt: PriceSystem) -> ShadowPrice:
    """Ratio of the dual-optimizer components, clipped to the spread.

    Where the density exceeds ``DENSITY_EPS`` the ratio is taken literally
    (and asserted to lie in the spread up to rounding); elsewhere the
    ask price stands in and the node is flagged.  A node with no spread
    gets its one price from the clip, unasserted: there a density just
    above ``DENSITY_EPS`` carries the rounding of ``Z1 = S Z0`` into the ratio.
    """
    ask = market.ask_price
    bid = market.bid_price
    ratio, undefined = dual_opt.ratio(ask)
    outside = (bid < ask) & ((ratio < bid - 1e-9 * ask) | (ratio > ask * (1.0 + 1e-9)))
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
    """Dual and primal zero-spread solves at a given price process, the
    dual at scale ``y`` (the frictional report's ``yhat``).

    ``shadow_market`` must carry zero spread.  Neither solve reads the
    frictional solve the price came from.  The dual comes first, cold
    from the price's martingale density (:meth:`DualPolytope.strict_point`).
    The primal is then face-started at the net trades read off that
    dual's equality-row multipliers (:meth:`PrimalProgram.primal_start`),
    the primal optimum by the KKT map, and the engine accepts it only
    when it passes the barrier's own stopping test, as given or after
    its face finish; otherwise the barrier runs from the primal's
    closed-form start (:func:`solve_primal`).
    Each side's diagnostics carry the engine's record of its face start
    (``face_start``): ``None`` for the dual.  A price with
    arbitrage, one that moves one way at some node, has an empty
    zero-spread polytope (:class:`PolytopeInfeasibleError`) or an
    unbounded primal, and raises :class:`ShadowConstructionError`.
    """
    if shadow_market.lam != 0.0:
        raise ShadowConstructionError("frictionless solve needs a zero-spread market")
    try:
        dual = solve_dual(shadow_market, spec, y)
        program = PrimalProgram.build(shadow_market, spec)
        primal = solve_primal(shadow_market, spec, x,
                              face_start=program.primal_start(x, dual), program=program)
    except (PolytopeInfeasibleError, PrimalUnboundedError) as exc:
        raise ShadowConstructionError(
            "frictionless problem unbounded: the price admits arbitrage"
        ) from exc
    return FrictionlessSolve(
        position=primal.strategy.phi1.copy(),
        value=primal.value,
        dual_value=dual.value,
        dual_leaf_vars=dual.leaf_vars,
        diagnostics={"primal": primal.diagnostics, "dual": dual.diagnostics},
        market=shadow_market, utility=spec, y=y,
    )


def verify_shadow(report: SolveReport, shadow: ShadowPrice,
                  frictionless: FrictionlessSolve) -> dict:
    """Verification record for the shadow-price properties.

    (a) value match u(x; shadow) vs u(x); (b) dual match at yhat;
    (c) trade directions land on the attained side of the spread,
    enforced through the complementary-slackness products
    buy * (ask - shadow) and sell * (shadow - bid) normalized by the ask
    -- the statement that stays well posed at nodes where the optimizer
    is flat and micro-trades below solver resolution are meaningless;
    (d) position coincidence where no direction is violated and the
    positions are unique: each internal node's shadow price moves to a child
    by over 1e-9 times the largest one-step move (:meth:`ShadowPrice.unique_positions`).
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

    unique = shadow.unique_positions()
    position_gap = None
    if unique and not direction_violations:
        position_gap = float(np.abs(frictionless.position - report.strategy.phi1).max())

    return {
        "value_gap": abs(frictionless.value - report.value),
        "dual_gap": abs(frictionless.dual_value - report.dual_value),
        "direction_violations": direction_violations,
        "position_unique": unique,
        "position_gap": position_gap,
        "undefined_nodes": [int(k) for k in np.flatnonzero(shadow.undefined)],
    }


def shadow_from_dual_roundtrip(report: SolveReport, shadow: ShadowPrice,
                               frictionless: Optional[FrictionlessSolve] = None) -> dict:
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

    ``frictionless``, the :func:`solve_frictionless` of
    ``shadow.as_market()`` under ``report.utility`` at ``y =
    report.yhat``, has solved that very dual: its minimizer and value
    are read from it, to the same bits, instead of solving it again.  A
    solve of another price, endowment, utility or scale raises
    ``ValueError``.
    """
    market = report.market
    if frictionless is not None and not _solves_roundtrip_dual(frictionless, report, shadow):
        raise ValueError("frictionless solve is not the roundtrip's zero-spread dual")
    if frictionless is None:
        dual = solve_dual(shadow.as_market(), report.utility, report.yhat)
        leaf_vars, dual_value = dual.leaf_vars, dual.value
    else:
        leaf_vars, dual_value = frictionless.dual_leaf_vars, frictionless.dual_value
    lifted = shadow.lift(leaf_vars[:market.tree.n_leaves])
    poly = build_polytope(market)
    violation = poly.max_violation(lifted)
    value_gap = abs(dual_value - report.dual_value)
    return {
        "polytope_violation": violation,
        "dual_value_gap": value_gap,
        "lifted_leaf_vars": lifted,
        "member": bool(violation <= 1e-8),
        "matches_dual_value": bool(value_gap <= 1e-6 * (1.0 + abs(report.dual_value))),
    }


def _solves_roundtrip_dual(frictionless: FrictionlessSolve, report: SolveReport,
                           shadow: ShadowPrice) -> bool:
    """Whether ``frictionless`` solved the zero-spread dual of
    ``shadow.as_market()`` under ``report.utility`` at ``report.yhat``."""
    solved = frictionless.market
    return (frictionless.y == report.yhat and frictionless.utility == report.utility
            and solved.lam == 0.0 and solved.tree is shadow.market.tree
            and np.array_equal(solved.ask_price, shadow.value)
            and np.array_equal(solved.endowment, shadow.market.endowment))
