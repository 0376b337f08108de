"""The consistent-price-system polytope on an event tree.

A price system is a pair of nonnegative processes (Z0, Z1), martingales
under the tree measure, with Z0 normalized to 1 at the root and the
ratio Z1/Z0 confined to the bid-ask band at every node.  On a finite
tree the whole family is an explicit polytope over the terminal values
(Z0_T, Z1_T); interior-node values are conditional expectations.

A strictly positive member exists exactly when a price strictly inside
the band has a strictly positive martingale density (Jouini & Kallal,
1995).  :func:`martingale_point` builds one in closed form, and
:meth:`DualPolytope.strict_point` is the one rule that turns it into a
start or a :class:`NoCpsError`; :func:`check_cps` decides the same
question by an LP and, when the answer is no, returns a separating
certificate.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import engine
from .trading import roll_forward
from .tree import MarketSpec

DENSITY_EPS = 1e-12       # a density at or below this counts as zero
CPS_MARGIN = 1e-9         # a price system is strictly positive past this margin
BAND_SHRINK = 0.1         # share of its width a band interval is shrunk by at each end


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

    def margin_weights(self, include_cone: bool = True) -> np.ndarray:
        """Per row of ``G`` at positive spread, the margin's weight in its
        slack: the node's ask price on a cone row (0 without
        ``include_cone``), 1 on a leaf Z0 row and -0.0 on a leaf Z1 row, so
        that the existence LP's margin column ``-w`` reads +0.0 there."""
        market, L = self.market, self.market.tree.n_leaves
        cone = np.repeat(market.ask_price if include_cone
                         else np.zeros(market.tree.n_nodes), 2)
        return np.concatenate([cone, np.ones(L), np.full(L, -0.0)])

    def margin(self, z: np.ndarray) -> float:
        """The margin :func:`check_cps` maximizes, at the point ``z`` of a
        positive-spread polytope: the least slack over its weight
        (:meth:`margin_weights`) among the rows weighed."""
        w = self.margin_weights()
        return float(np.min((self.G @ z - self.h)[w > 0.0] / w[w > 0.0]))

    def strict_point(self) -> np.ndarray:
        """Leaf variables strictly inside this polytope, at its market's
        spread: a strictly consistent price system (Jouini & Kallal, 1995),
        the start of every dual solve not given one.

        It is :func:`martingale_point` when its margin clears
        ``CPS_MARGIN``.  The closed form finds a point exactly when one
        exists, so ``None`` raises :class:`NoCpsError` (at zero spread, an
        arbitrage: :class:`PolytopeInfeasibleError`) with no LP.  Only a
        point inside the margin runs one: the existence LP on this
        polytope (:func:`_max_margin`), whose witness must clear it.
        """
        market = self.market
        z = martingale_point(market)
        if z is None and market.lam == 0.0:
            raise PolytopeInfeasibleError("no strictly positive martingale density at "
                                          "zero spread")
        if z is not None and market.lam > 0.0 and not self.margin(z) > CPS_MARGIN:
            delta, z, _ = _max_margin(self, include_cone=True)
            z = z if delta > CPS_MARGIN else None
        if z is None:
            raise NoCpsError(f"no strictly positive price system at lambda={market.lam}")
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


def build_polytope(market: MarketSpec, spread: Optional[float] = None) -> DualPolytope:
    """Constraint system of the price-system family at the given spread.

    ``spread`` defaults to the market's cost level.  Constraint order is
    deterministic: cone rows (lower then upper) in node order, then leaf
    nonnegativity for z0 and z1.
    """
    lam = market.lam if spread is None else float(spread)
    if not (0.0 <= lam < 1.0):
        raise ValueError(f"spread {lam} outside [0, 1)")
    tree = market.tree
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
    At positive spread the point can sit too close to the boundary to
    count as strictly inside, so :meth:`DualPolytope.strict_point` checks
    its margin.
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


def _band_price(market: MarketSpec) -> Optional[np.ndarray]:
    """A price strictly inside the open bid-ask band at every node that,
    at every internal node, moves both up and down or not at all; or
    ``None`` when there is none.

    Backward, stage by stage: a node's price can be reached from its
    children exactly on its open band intersected with ``(min lower,
    max upper)`` over the children's intervals; an empty interval means
    no such price.  Forward: the root takes its interval's midpoint and
    each child its parent's price clipped into its own interval shrunk by
    ``BAND_SHRINK`` of its width at each end (an only child keeps its
    parent's price).  Where that leaves a parent's children moving only
    up, its flat children, or else its child with the lowest lower end,
    move to the midpoint of their lower end and the parent's price;
    children moving only down are treated the same way, mirrored.
    """
    tree = market.tree
    parent, n = tree.parent, tree.n_nodes
    lo, hi = market.bid_price, market.ask_price.copy()
    below, above = np.full(n, np.inf), np.full(n, -np.inf)
    for t in range(tree.horizon, 0, -1):
        kids = tree.stages[t]
        np.minimum.at(below, parent[kids], lo[kids])
        np.maximum.at(above, parent[kids], hi[kids])
        at = tree.stages[t - 1]
        lo[at] = np.maximum(lo[at], below[at])
        hi[at] = np.minimum(hi[at], above[at])
    if np.any(lo >= hi):
        return None

    only_child = np.bincount(parent[1:], minlength=n) == 1
    pad = BAND_SHRINK * (hi - lo)
    price = np.empty(n)
    price[0] = 0.5 * (lo[0] + hi[0])
    for kids in tree.stages[1:]:
        par = parent[kids]
        price[kids] = np.where(only_child[par], price[par],
                               np.clip(price[par], lo[kids] + pad[kids], hi[kids] - pad[kids]))
        move = price[kids] - price[par]
        rises, falls, has_flat = (np.zeros(n, dtype=bool) for _ in range(3))
        rises[par[move > 0.0]] = True
        falls[par[move < 0.0]] = True
        has_flat[par[move == 0.0]] = True
        for one_way, end, key in ((rises & ~falls, lo, lo[kids]),
                                  (falls & ~rises, hi, -hi[kids])):
            # first child per parent by key: its lowest lower (highest upper) end
            order = np.lexsort((key, par))
            first = np.zeros(kids.size, dtype=bool)
            first[order[np.r_[True, par[order][1:] != par[order][:-1]]]] = True
            pick = one_way[par] & np.where(has_flat[par], move == 0.0, first)
            price[kids[pick]] = 0.5 * (end[kids[pick]] + price[par[pick]])
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
    positivity_delta: Optional[float] = None


def check_cps(market: MarketSpec, mu: Optional[float] = None) -> CpsVerdict:
    """Decide existence of a strictly positive price system at spread ``mu``.

    Maximizes the minimum of the scaled cone slacks and the leaf Z0
    values over the polytope, one HiGHS LP (:func:`engine.max_slack`);
    the verdict is "exists" when the optimal margin ``delta`` clears
    ``CPS_MARGIN``.  The witness is then strictly inside the polytope:
    every cone slack is at least ``delta`` times the ask price and every
    leaf Z0 at least ``delta``.  When the margin does not clear, the LP
    multipliers are returned as a separating certificate, and a
    secondary margin that ignores cone slack reports whether positivity
    alone is achievable.
    """
    mu = market.lam if mu is None else float(mu)
    if not (0.0 < mu < 1.0):
        raise ValueError(f"spread for the existence check must lie in (0,1), got {mu}")
    poly = build_polytope(market, spread=mu)
    delta, z, cert = _max_margin(poly, include_cone=True)
    if delta > CPS_MARGIN:
        return CpsVerdict(exists=True, delta=delta, witness_leaf_vars=z, certificate=None)
    try:
        pos_delta, _, _ = _max_margin(poly, include_cone=False)
    except PolytopeInfeasibleError:
        pos_delta = float("-inf")  # the cone itself admits no point at all
    return CpsVerdict(exists=False, delta=delta, witness_leaf_vars=None,
                      certificate=cert, positivity_delta=pos_delta)


def _max_margin(poly: DualPolytope, include_cone: bool):
    """Max-min-slack LP over (z, delta) (:func:`engine.max_slack`) with
    the margin weights of ``poly`` (:meth:`DualPolytope.margin_weights`);
    returns (delta*, z*, certificate)."""
    res = engine.max_slack(poly.G, poly.h, poly.margin_weights(include_cone),
                           poly.A_eq, poly.b_eq)
    if res.status != "optimal":
        raise PolytopeInfeasibleError(
            f"existence LP ended with status {res.status}: {res.diagnostics.message}"
        )
    z, delta = res.x[:-1], float(res.x[-1])
    cone = res.ineq_multipliers[:2 * poly.market.tree.n_nodes]
    cert = {
        "cone_lower_multipliers": cone[0::2].tolist(),
        "cone_upper_multipliers": cone[1::2].tolist(),
        "eq_multipliers": res.eq_multipliers.tolist(),
        "max_margin": delta,
    }
    return delta, z, cert
