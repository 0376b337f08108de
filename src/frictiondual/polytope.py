"""The consistent-price-system polytope on an event tree.

A price system is a pair of nonnegative processes (Z0, Z1), martingales
under the tree measure, with Z0 normalized to 1 at the root and the
ratio Z1/Z0 confined to the bid-ask band at every node.  On a finite
tree the whole family is an explicit polytope over the terminal values
(Z0_T, Z1_T); interior-node values are conditional expectations.

A strictly positive member exists exactly when a price strictly inside
the band has a strictly positive martingale density (Jouini & Kallal,
1995), which the tree decides with no LP (:func:`strictly_consistent`).
:meth:`DualPolytope.check_strict` applies that rule once per polytope,
raising :class:`NoCpsError` when the answer is no, and
:func:`martingale_point` builds one in closed form, the polytope's
:meth:`DualPolytope.strict_point`; :func:`check_cps` applies it too and,
when the answer is no, returns an arbitrage strategy.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .trading import roll_forward, terminal_claim
from .tree import MarketSpec

DENSITY_EPS = 1e-12       # a density at or below this counts as zero
CPS_MARGIN = 1e-9         # a price system is strictly positive past this margin
BAND_SHRINK = 0.1         # share of its width a band interval is shrunk by at each end
_NO_DENSITY = "no strictly positive martingale density at zero spread"


class PolytopeInfeasibleError(RuntimeError):
    """Operation requires a nonempty (strictly feasible) polytope."""


class NoCpsError(RuntimeError):
    """The market admits no strictly positive consistent price system."""


@dataclass(frozen=True)
class PriceSystem:
    """Per-node (Z0, Z1) pair; where Z0 is positive, Z1/Z0 is a price in
    the band (:meth:`ratio`): the shadow price of a dual optimizer
    (:func:`shadow.construct_shadow`)."""

    z0: np.ndarray
    z1: np.ndarray

    def ratio(self, fill: np.ndarray):
        """``(price, undefined)``: the price ``Z1/Z0`` at each node where
        ``Z0`` exceeds ``DENSITY_EPS``, and ``fill`` at the nodes that
        ``undefined`` flags."""
        undefined = ~(self.z0 > DENSITY_EPS)
        price = np.divide(self.z1, self.z0, out=np.array(fill, dtype=float),
                          where=~undefined)
        return price, undefined


@dataclass(frozen=True)
class DualPolytope:
    """Linear description of the price-system family over leaf variables.

    Variables are ``[z0_leaves, z1_leaves]`` in leaf order.  ``cond_exp``
    maps leaf values to per-node conditional expectations.  Inequalities
    read ``G z - h >= 0``; at positive spread node ``n``'s lower and upper
    cone rows are rows ``2n`` and ``2n + 1`` of ``G``.  At zero spread the
    band collapses and the cone rows move into the equality block.
    """

    market: MarketSpec
    cond_exp: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray
    G: np.ndarray
    h: np.ndarray

    @property
    def n_vars(self) -> int:
        return 2 * self.market.tree.n_leaves

    def price_system(self, z: np.ndarray) -> PriceSystem:
        """Per-node (Z0, Z1) from a leaf variable vector."""
        L = self.market.tree.n_leaves
        return PriceSystem(self.cond_exp @ z[:L], self.cond_exp @ z[L:])

    def check_strict(self) -> None:
        """Raise the existence verdict of a strictly consistent price system
        (Jouini & Kallal, 1995) at this polytope's spread, or return:
        :class:`NoCpsError` when the market fails the existence rule
        (:func:`strictly_consistent`), and at zero spread, where the rule is
        the existence of :func:`martingale_point` (``None`` is an
        arbitrage), :class:`PolytopeInfeasibleError`.  No LP either way.
        The verdict is computed once per polytope; a
        :func:`dataclasses.replace` copy computes its own."""
        verdict = self._verdict
        if verdict is not None:
            error, message = verdict
            raise error(message)

    def strict_point(self) -> np.ndarray:
        """Leaf variables strictly inside this polytope, at its market's
        spread: a strictly consistent price system, the barrier's start of
        a dual solve not given one.  It is built only when asked for: a
        report's cone dual asks only when its face start is rejected.

        It is :func:`martingale_point`, once :meth:`check_strict` (the
        cached verdict, so no second band pass) has raised any error.  The
        polytope is immutable, so the point is computed once and is
        read-only; a :func:`dataclasses.replace` copy computes its own.
        """
        self.check_strict()
        if self._point is None:
            raise PolytopeInfeasibleError(_NO_DENSITY)
        return self._point

    @cached_property
    def _verdict(self) -> Optional[tuple]:
        """``(error class, message)`` for :meth:`check_strict`, or ``None``."""
        market = self.market
        if market.lam > 0.0:
            if not strictly_consistent(market):
                return NoCpsError, f"no strictly positive price system at lambda={market.lam}"
        elif self._point is None:
            return PolytopeInfeasibleError, _NO_DENSITY
        return None

    @cached_property
    def _point(self) -> Optional[np.ndarray]:
        z = martingale_point(self.market)
        if z is not None:
            z.flags.writeable = False
        return z

    def max_violation(self, z: np.ndarray) -> float:
        """Largest constraint violation of a candidate point."""
        v = 0.0
        if self.G.size:
            v = max(v, float(np.max(np.maximum(0.0, self.h - self.G @ z))))
        v = max(v, float(np.max(np.abs(self.A_eq @ z - self.b_eq))))
        return v


def conditional_expectation_matrix(market: MarketSpec) -> np.ndarray:
    """Rows map leaf values to node values: W[n, l] = P(l)/P(n) under n.

    Row ``n`` is nonzero exactly on the leaves below ``n``, the leaves
    whose path passes through it (``tree.on_path``).
    """
    tree = market.tree
    return np.where(tree.on_path.T, tree.leaf_prob / tree.node_prob[:, None], 0.0)


def build_polytope(market: MarketSpec) -> DualPolytope:
    """Constraint system of the price-system family at the market's spread.

    Constraint order is deterministic: cone rows (lower then upper) in
    node order, then leaf nonnegativity for z0 and z1.
    """
    lam, tree = market.lam, market.tree
    n, L = tree.n_nodes, tree.n_leaves
    W = conditional_expectation_matrix(market)
    s = market.ask_price[:, None]

    norm = np.concatenate([tree.leaf_prob, np.zeros(L)])[None, :]
    upper = np.hstack([s * W, -W])
    positivity = np.eye(2 * L)
    if lam == 0.0:
        # degenerate band: Z1 = S * Z0 exactly
        A_eq = np.vstack([norm, upper])
        G = positivity
    else:
        A_eq = norm
        cone = np.empty((2 * n, 2 * L))
        cone[0::2] = np.hstack([-(1.0 - lam) * s * W, W])
        cone[1::2] = upper
        G = np.vstack([cone, positivity])

    return DualPolytope(
        market=market,
        cond_exp=W,
        A_eq=A_eq,
        b_eq=np.concatenate([[1.0], np.zeros(A_eq.shape[0] - 1)]),
        G=G,
        h=np.zeros(G.shape[0]),
    )


def martingale_point(market: MarketSpec) -> Optional[np.ndarray]:
    """A strictly feasible point of ``build_polytope(market)`` in closed
    form, or ``None``.

    The point is a strictly consistent price system (Jouini & Kallal,
    J. Econ. Theory 66, 1995): a price ``S~`` strictly inside the
    bid-ask band at every node and a strictly positive martingale
    density ``Z0`` of it, with leaf variables ``(Z0, S~ Z0)``.  At zero
    spread ``S~`` is the ask price; above it, :func:`_band_price` picks
    one.  ``Z0`` is the one-step reweighting of Harrison & Pliska (Stoch.
    Proc. Appl. 11, 1981): at each internal node, with ``a`` and ``b``
    the expected up and down moves of ``S~``, an up move's probability is
    reweighted by ``1/a``, a down move's by ``1/b`` and a flat move's by
    1; normalized, these one-step weights have zero drift.  The leaf
    density is their product over the path.  ``None`` means no band price
    exists, or (at zero spread) a node moves one way: an arbitrage.
    """
    tree = market.tree
    S = market.ask_price if market.lam == 0.0 else _band_price(market)
    if S is None:
        return None
    par, p = tree.parent[1:], tree.cond_prob[1:]
    move = S[1:] - S[par]
    up, down = move > 0.0, move < 0.0
    a = np.bincount(par[up], weights=p[up] * move[up], minlength=tree.n_nodes)
    b = np.bincount(par[down], weights=-p[down] * move[down], minlength=tree.n_nodes)
    if np.any((a > 0.0) != (b > 0.0)):
        return None
    w = np.ones(par.size)
    w[up] = 1.0 / a[par[up]]
    w[down] = 1.0 / b[par[down]]
    ratio = np.ones(tree.n_nodes)    # q/p along the edge into each node
    ratio[1:] = w / np.bincount(par, weights=p * w, minlength=tree.n_nodes)[par]
    z0 = np.prod(np.where(tree.on_path, ratio, 1.0), axis=1)
    return np.concatenate([z0, S[tree.leaves] * z0])


def strictly_consistent(market: MarketSpec) -> bool:
    """The existence rule at positive spread: a strictly consistent price
    system exists (past the margin) when every node's backward interval
    stays open with every band shrunk by ``CPS_MARGIN`` times its ask at
    each end (:func:`_band_intervals`; Jouini & Kallal, 1995)."""
    lo, hi = _band_intervals(market, CPS_MARGIN)
    return bool(np.all(lo < hi))


def _band_intervals(market: MarketSpec, shrink: float) -> tuple:
    """``(lo, hi)``: the open interval of prices each node can take with
    every band ``(bid, ask)`` shrunk by ``shrink`` times its ask at each
    end.  Backward, stage by stage: a leaf's is its shrunk band, and an
    internal node's its shrunk band intersected with ``(min lower, max
    upper)`` over its children's intervals.  Empty where ``lo >= hi``."""
    tree = market.tree
    parent, n = tree.parent, tree.n_nodes
    ask = market.ask_price
    lo, hi = market.bid_price + shrink * ask, ask - shrink * ask
    below, above = np.full(n, np.inf), np.full(n, -np.inf)
    for t in range(tree.horizon, 0, -1):
        kids = tree.stages[t]
        np.minimum.at(below, parent[kids], lo[kids])
        np.maximum.at(above, parent[kids], hi[kids])
        at = tree.stages[t - 1]
        lo[at] = np.maximum(lo[at], below[at])
        hi[at] = np.minimum(hi[at], above[at])
    return lo, hi


def _band_price(market: MarketSpec) -> Optional[np.ndarray]:
    """A price strictly inside the open bid-ask band at every node that,
    at every internal node, moves both up and down or not at all; or
    ``None`` when there is none.

    Backward: the nodes' intervals (:func:`_band_intervals`, unshrunk); an
    empty one means no such price.  Forward: the root takes its interval's
    midpoint and each child its parent's price clipped into its own
    interval shrunk by ``BAND_SHRINK`` of its width at each end (an only
    child keeps its parent's price).  Where that leaves a parent's children moving only
    up, its flat children, or else its child with the lowest lower end,
    move to the midpoint of their lower end and the parent's price;
    children moving only down are treated the same way, mirrored.
    """
    tree = market.tree
    parent, n = tree.parent, tree.n_nodes
    lo, hi = _band_intervals(market, 0.0)
    if np.any(lo >= hi):
        return None

    only_child = np.bincount(parent[1:], minlength=n) == 1
    pad = BAND_SHRINK * (hi - lo)
    inner_lo, inner_hi = lo + pad, hi - pad
    price = np.empty(n)
    price[0] = 0.5 * (lo[0] + hi[0])
    for kids in tree.stages[1:]:
        par = parent[kids]
        at_parent = price[par]
        price[kids] = np.where(only_child[par], at_parent,
                               np.minimum(np.maximum(at_parent, inner_lo[kids]), inner_hi[kids]))
        move = price[kids] - at_parent
        flat = move == 0.0
        rises, falls, has_flat = (np.zeros(n, dtype=bool) for _ in range(3))
        rises[par[move > 0.0]] = True
        falls[par[move < 0.0]] = True
        has_flat[par[flat]] = True
        for one_way, end, lower in ((rises & ~falls, lo, True), (falls & ~rises, hi, False)):
            moving = one_way[par]
            if not moving.any():
                continue
            # first child per parent by its lowest lower (highest upper) end
            order = np.lexsort((end[kids] if lower else -end[kids], par))
            head = np.ones(kids.size, dtype=bool)
            head[1:] = par[order][1:] != par[order][:-1]
            first = np.zeros(kids.size, dtype=bool)
            first[order[head]] = True
            pick = moving & np.where(has_flat[par], flat, first)
            price[kids[pick]] = 0.5 * (end[kids[pick]] + at_parent[pick])
    return price


def max_expectation(market: MarketSpec, f) -> float:
    """``sup E[Z0 f]`` over the closed polytope ``build_polytope(market)``
    for leaf values ``f``: a super-replication price (Jouini & Kallal,
    J. Econ. Theory 66, 1995), by backward induction on the tree (Roux,
    Tokarz & Zastawniak, Acta Appl. Math. 103, 2008), with no LP.

    A price system is a measure ``Q`` and a ``Q``-martingale ``S~ =
    Z1/Z0`` in the band ``[bid, ask]`` where ``Q`` charges a node.  Each
    node keeps the breakpoints of ``phi(s)``, the sup of ``E_Q[f | node]``
    given ``S~ = s``: ``f`` on ``[bid, ask]`` at a leaf, and at an
    internal node, which ``Q`` may split among its children freely, the
    upper concave hull of theirs clipped to its band; empty (no
    tolerance) when the band misses it.  An empty root raises
    :class:`PolytopeInfeasibleError`.
    """
    return _backward(market, f)[0]


def super_hedge(market: MarketSpec, f) -> tuple:
    """``(max_expectation(market, f), hedge)``: the hedge, a strategy from
    zero cash, liquidates from cash ``sup E[Z0 f]`` to at least ``f`` at
    every leaf (Roux, Tokarz & Zastawniak, 2008; the proof is the
    supergradient inequality).  One forward pass by stage: the position
    at node ``n`` is ``clip(theta_parent, H'+(ask_n), H'-(bid_n))``, 0
    above the root, with ``H`` the node's unclipped hull of its
    children's breakpoints; a band end beyond the hull gives -inf or
    +inf.  A node whose band misses its hull, which a price system may
    skip but a hedge cannot (an arbitrage), raises
    :class:`PolytopeInfeasibleError`.
    """
    value, (buy_to, sell_to) = _backward(market, f)
    tree = market.tree
    if np.isnan(buy_to[tree.internal]).any():
        raise PolytopeInfeasibleError("a node's band misses its children's prices: "
                                      "no hedge")
    theta = np.zeros(tree.n_nodes + 1)     # slot -1, the root's parent, holds nothing
    for at in tree.stages[:-1]:
        theta[at] = np.minimum(np.maximum(theta[tree.parent[at]], buy_to[at]), sell_to[at])
    change = theta[:-1] - theta[tree.parent]
    change[tree.leaves] = 0.0
    return value, roll_forward(market, 0.0, np.maximum(change, 0.0), np.maximum(-change, 0.0))


def _backward(market: MarketSpec, f) -> tuple:
    """The backward induction of :func:`max_expectation`: its value and
    the arrays of the slopes ``H'+(ask)`` and ``H'-(bid)`` of each node's
    unclipped hull ``H`` (NaN where the band misses ``H``, and at the
    leaves)."""
    tree = market.tree
    parent, lo, hi = tree.parent.tolist(), market.bid_price.tolist(), market.ask_price.tolist()
    points = [[] for _ in range(tree.n_nodes)]     # breakpoints of each node's children
    slopes = [(np.nan, np.nan)] * tree.n_nodes
    for leaf, v in zip(tree.leaves.tolist(), np.asarray(f, dtype=float).tolist()):
        points[parent[leaf]] += [(lo[leaf], v), (hi[leaf], v)]
    for t in range(tree.horizon - 1, -1, -1):
        for node in tree.stages[t].tolist():
            hull = _hull(points[node])
            phi = _clip(hull, lo[node], hi[node])
            if phi:
                slopes[node] = _slopes(hull, lo[node], hi[node])
            if t > 0:
                points[parent[node]] += phi
            elif not phi:
                raise PolytopeInfeasibleError("empty polytope: no price system")
    return max(v for _, v in phi), np.array(slopes).T


def _hull(points: list) -> list:
    """Breakpoints of the upper concave hull of ``points``, pairs ``(s, v)``."""
    hull = []
    for s, v in sorted(points):
        if hull and hull[-1][0] == s:      # sorted: the later value is the larger
            hull.pop()
        while len(hull) > 1 and ((hull[-1][1] - hull[-2][1]) * (s - hull[-2][0])
                                 <= (v - hull[-2][1]) * (hull[-1][0] - hull[-2][0])):
            hull.pop()
        hull.append((s, v))
    return hull


def _clip(hull: list, lo: float, hi: float) -> list:
    """The breakpoints of ``hull`` on ``[lo, hi]``; an empty list when the
    hull misses it."""
    if not hull or lo > hull[-1][0] or hi < hull[0][0]:
        return []
    a, b = max(lo, hull[0][0]), min(hi, hull[-1][0])
    return [_value_at(hull, a)] + [p for p in hull if a < p[0] < b] + [_value_at(hull, b)]


def _slopes(hull: list, lo: float, hi: float) -> tuple:
    """``(H'+(hi), H'-(lo))`` of the hull ``H`` that ``[lo, hi]`` meets:
    -inf at or past its right end, +inf at or before its left end."""
    s = [p[0] for p in hull]
    i, j = bisect.bisect_right(s, hi), bisect.bisect_left(s, lo)
    slope = [(q[1] - p[1]) / (q[0] - p[0]) for p, q in zip(hull, hull[1:])]
    return slope[i - 1] if i < len(s) else -np.inf, slope[j - 1] if j else np.inf


def _value_at(hull: list, s: float) -> tuple:
    """The point at ``s`` of the piecewise linear function ``hull``."""
    i = next(k for k, p in enumerate(hull) if p[0] >= s)
    (s0, v0), (s1, v1) = hull[i - 1], hull[i]
    return s, v1 if s1 == s else v0 + (v1 - v0) * (s - s0) / (s1 - s0)


@dataclass
class CpsVerdict:
    """Outcome of the strict price-system existence check."""

    exists: bool
    delta: float
    witness_leaf_vars: Optional[np.ndarray]
    certificate: Optional[dict]


def check_cps(market: MarketSpec, mu: Optional[float] = None) -> CpsVerdict:
    """Decide existence of a strictly positive price system at spread
    ``mu`` (default: the market's) by :func:`strictly_consistent`, with no
    LP.  ``delta`` is the band margin (:func:`_band_margin`); a "yes"
    carries :func:`martingale_point` as its witness and a "no" an
    arbitrage (:func:`_arbitrage`) as its certificate.
    """
    mu = market.lam if mu is None else float(mu)
    if not (0.0 < mu < 1.0):
        raise ValueError(f"spread for the existence check must lie in (0,1), got {mu}")
    market = replace(market, lam=mu)
    delta = _band_margin(market)
    if strictly_consistent(market):
        return CpsVerdict(exists=True, delta=delta, witness_leaf_vars=martingale_point(market),
                          certificate=None)
    return CpsVerdict(exists=False, delta=delta, witness_leaf_vars=None,
                      certificate=_arbitrage(market))


def _band_margin(market: MarketSpec) -> float:
    """The largest shrink (in units of each ask) that keeps every interval
    of :func:`_band_intervals` open, negative when the bands themselves
    cross.  The intervals narrow as it grows, are all open at -1 and close
    by ``lam / 2``, so bisection finds it, here to ``2**-64``."""
    low, high = -1.0, 0.5 * market.lam
    for _ in range(64):
        mid = 0.5 * (low + high)
        lo, hi = _band_intervals(market, mid)
        low, high = (mid, high) if np.all(lo < hi) else (low, mid)
    return low


def _arbitrage(market: MarketSpec) -> Optional[dict]:
    """An arbitrage from zero cash below the deepest node whose interval
    (:func:`_band_intervals`) is empty: on the unshrunk bands where one is
    empty there, else on the bands shrunk by ``CPS_MARGIN`` (Roux, Tokarz
    & Zastawniak, 2008).  If its children's lower ends all clear its ask
    it buys one unit, else their upper ends all fall below its bid and it
    sells one; each node below unwinds the position where its own bid
    (ask) binds its interval, at the latest a leaf.  On unshrunk bands the
    liquidation is then at least 0 at every leaf.  ``{node, side, buy,
    sell, liquidation}``, or ``None`` where that node's own shrunk band is
    empty: thinner than ``2 CPS_MARGIN`` times its ask."""
    tree, ask = market.tree, market.ask_price
    for shrink in (0.0, CPS_MARGIN):
        lo, hi = _band_intervals(market, shrink)
        empty = np.flatnonzero(lo >= hi)
        if empty.size:
            break
    own_lo, own_hi = market.bid_price + shrink * ask, ask - shrink * ask
    node = int(empty[np.argmax(tree.time[empty])])
    if own_lo[node] >= own_hi[node]:
        return None
    long = lo[tree.parent == node].min() >= own_hi[node]
    binds = lo == own_lo if long else hi == own_hi
    held = np.arange(tree.n_nodes) == node
    opened, unwound = held.astype(float), np.zeros(tree.n_nodes)
    for at in tree.stages[tree.time[node] + 1:]:
        unwound[at] = held[tree.parent[at]] & binds[at]
        held[at] = held[tree.parent[at]] & ~binds[at]
    buy, sell = (opened, unwound) if long else (unwound, opened)
    return {"node": node, "side": "buy" if long else "sell", "buy": buy.tolist(),
            "sell": sell.tolist(),
            "liquidation": terminal_claim(market, roll_forward(market, 0.0, buy, sell)).tolist()}
