"""Self-financing strategies, liquidation values and attainable claims.

A strategy is a nonnegative (buy, sell) pair of share counts per node.
Holdings follow by the exact self-financing recursion: buys are paid at
the ask price, sales are credited at the bid price, and the riskless leg
absorbs the difference.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .tree import MarketSpec


class TradeError(ValueError):
    """Invalid trade plan (negative quantity or wrong shape)."""


@dataclass(frozen=True)
class Strategy:
    """Per-node trades and resulting holdings.

    ``buy``/``sell`` are indexed by node id (leaves may trade too, which
    is never optimal but remains representable).  ``phi0``/``phi1`` are
    the post-trade holdings at each node.
    """

    market: MarketSpec
    initial_cash: float
    buy: np.ndarray
    sell: np.ndarray
    phi0: np.ndarray
    phi1: np.ndarray


def roll_forward(market: MarketSpec, x: float, buy, sell) -> Strategy:
    """Apply a trade plan from initial holdings (x, 0) down the tree.

    ``buy``/``sell`` are arrays indexed by node id; entries at leaves are
    allowed.  The self-financing recursion holds with equality.
    """
    tree = market.tree
    n = tree.n_nodes
    buy = np.asarray(buy, dtype=float)
    sell = np.asarray(sell, dtype=float)
    if buy.shape != (n,) or sell.shape != (n,):
        raise TradeError("trade plan must have one (buy, sell) pair per node")
    if np.any(buy < 0.0) or np.any(sell < 0.0):
        raise TradeError("trade quantities must be nonnegative")

    # one extra slot, index -1 (the root's parent), holds the initial (x, 0)
    phi0 = np.empty(n + 1)
    phi1 = np.empty(n + 1)
    phi0[-1], phi1[-1] = x, 0.0
    ask = market.ask_price
    bid = market.bid_price
    for at in tree.stages:
        p = tree.parent[at]
        phi0[at] = phi0[p] - ask[at] * buy[at] + bid[at] * sell[at]
        phi1[at] = phi1[p] + buy[at] - sell[at]
    return Strategy(market=market, initial_cash=float(x), buy=buy, sell=sell,
                    phi0=phi0[:n], phi1=phi1[:n])


def liquidation_values(market: MarketSpec, strategy: Strategy) -> np.ndarray:
    """Liquidation value at every node, indexed by node id."""
    pos = strategy.phi1
    s = market.ask_price
    return strategy.phi0 + np.maximum(pos, 0.0) * (1.0 - market.lam) * s \
        - np.maximum(-pos, 0.0) * s


def terminal_claim(market: MarketSpec, strategy: Strategy) -> np.ndarray:
    """Per-leaf liquidation value at the horizon, aligned with ``tree.leaves``.

    This is the attainable claim generated by the strategy from its
    initial cash.
    """
    vals = liquidation_values(market, strategy)
    return vals[market.tree.leaves]


def net_trades(buy, sell):
    """Cancel simultaneous buy/sell volume at each node.

    Netting never decreases any cash holding: a matched buy/sell pair
    burns the spread both ways.
    """
    buy = np.asarray(buy, dtype=float)
    sell = np.asarray(sell, dtype=float)
    matched = np.minimum(buy, sell)
    return buy - matched, sell - matched


def export_strategy_csv(market: MarketSpec, strategy: Strategy, path) -> None:
    """Write per-node rows (node_id, buy, sell, phi0, phi1, vliq)."""
    vals = liquidation_values(market, strategy)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "buy", "sell", "phi0", "phi1", "vliq"])
        for i in range(market.tree.n_nodes):
            writer.writerow([
                i,
                repr(float(strategy.buy[i])),
                repr(float(strategy.sell[i])),
                repr(float(strategy.phi0[i])),
                repr(float(strategy.phi1[i])),
                repr(float(vals[i])),
            ])
