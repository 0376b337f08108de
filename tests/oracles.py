"""Oracles the tests check the library against, kept out of the library
since no solver calls them."""

import numpy as np
import scipy.linalg
from scipy.spatial import HalfspaceIntersection

from frictiondual.duality import PrimalProgram
from frictiondual.engine import EngineError, solve_lp
from frictiondual.polytope import PolytopeInfeasibleError
from frictiondual.trading import roll_forward
from frictiondual.utility import UtilitySpec, u_derivatives


def path_to_root(tree, node: int) -> list:
    """Node ids from ``node`` up to and including the root."""
    path = [node]
    while tree.parent[path[-1]] >= 0:
        path.append(int(tree.parent[path[-1]]))
    return path


def children(tree, node: int) -> list:
    """Child ids of ``node`` in id order."""
    return [i for i in range(tree.n_nodes) if tree.parent[i] == node]


def trade_signs(verdict):
    """Per-node buy(+1)/sell(-1)/hold(0) pattern of a negative
    :class:`CpsVerdict`'s arbitrage strategy, ``None`` without one."""
    if verdict.certificate is None:
        return None
    net = np.subtract(verdict.certificate["buy"], verdict.certificate["sell"])
    return np.sign(net).astype(int)


def margin_weights(poly) -> np.ndarray:
    """Per row of ``G`` at positive spread, the margin's weight in its
    slack: the node's ask price on a cone row, 1 on a leaf Z0 row and 0 on
    a leaf Z1 row, which only has to hold."""
    market, L = poly.market, poly.market.tree.n_leaves
    return np.concatenate([np.repeat(market.ask_price, 2), np.ones(L), np.zeros(L)])


def margin(poly, z) -> float:
    """The margin the existence LP maximizes (:func:`max_margin`), at the
    point ``z`` of a positive-spread polytope: the least slack over its
    weight (:func:`margin_weights`) among the rows weighed."""
    w = margin_weights(poly)
    return float(np.min((poly.G @ z - poly.h)[w > 0.0] / w[w > 0.0]))


def max_margin(poly):
    """``(delta, z)``: the existence LP of a positive-spread polytope,
    maximize ``delta`` s.t. ``G z - h >= delta w`` (:func:`margin_weights`),
    ``delta <= 1`` and ``A z = b``.  A strictly positive price system
    exists past ``CPS_MARGIN`` when ``delta`` clears it."""
    G, w = poly.G, margin_weights(poly)
    n = G.shape[1]
    c = np.zeros(n + 1)
    c[n] = -1.0     # maximize delta; the same row reads -delta >= -1
    G1 = np.vstack([np.hstack([G, -w[:, None]]), c])
    A1 = np.hstack([poly.A_eq, np.zeros((poly.A_eq.shape[0], 1))])
    res = solve_lp(c, A_eq=A1, b_eq=poly.b_eq, G=G1, h=np.append(poly.h, -1.0))
    if res.status != "optimal":
        raise PolytopeInfeasibleError(f"existence LP ended with status {res.status}")
    return float(res.x[-1]), res.x[:-1]


def sample_polytope(poly, count: int, seed: int = 0, tol: float = 1e-10) -> list:
    """Random points of the polytope as convex mixes of LP vertices.

    Deterministic given the seed.  Every returned :class:`PriceSystem`
    satisfies the constraint system within ``tol``.
    """
    if count == 0:
        return []
    rng = np.random.default_rng(seed)
    nv = poly.n_vars
    n_dirs = min(max(4, count), 12)
    vertices = []
    for _ in range(n_dirs):
        c = rng.standard_normal(nv)
        res = solve_lp(c, A_eq=poly.A_eq, b_eq=poly.b_eq, G=poly.G, h=poly.h)
        if res.status == "infeasible":
            raise PolytopeInfeasibleError("cannot sample an empty polytope")
        if res.status == "optimal":
            vertices.append(res.x)
    if not vertices:
        raise PolytopeInfeasibleError("vertex search failed")
    V = np.array(vertices)
    out = []
    for _ in range(count):
        w = rng.gamma(1.0, size=V.shape[0])
        w /= w.sum()
        z = w @ V
        if poly.max_violation(z) > tol:
            # fall back to the best vertex; mixes are exact up to roundoff
            z = V[0]
        out.append(poly.price_system(z))
    return out


def enumerate_vertices(poly):
    """All vertices of the polytope by halfspace intersection.

    Equalities are eliminated first; only practical for small trees
    (reduced dimension about 8 or less).  Returns an array of leaf
    variable vectors, or None when the polytope has no interior in its
    affine hull (empty or degenerate).
    """
    A, b = poly.A_eq, poly.b_eq
    z_p, *_ = np.linalg.lstsq(A, b, rcond=None)
    if np.linalg.norm(A @ z_p - b) > 1e-9:
        return None
    N = scipy.linalg.null_space(A)
    if N.shape[1] == 0:
        return z_p.reshape(1, -1) if poly.max_violation(z_p) <= 1e-9 else None
    Gr = poly.G @ N
    hr = poly.h - poly.G @ z_p

    # interior point in reduced coordinates via the max-slack LP
    scale = 1.0 + np.abs(hr)
    G1 = np.hstack([Gr, -scale.reshape(-1, 1)])
    G1 = np.vstack([G1, np.concatenate([np.zeros(N.shape[1]), [-1.0]])])
    h1 = np.concatenate([hr, [-1.0]])
    c = np.zeros(N.shape[1] + 1)
    c[-1] = -1.0
    res = solve_lp(c, G=G1, h=h1)
    if res.status != "optimal" or res.x[-1] <= 1e-11:
        return None
    t_int = res.x[:-1]

    halfspaces = np.hstack([-Gr, hr.reshape(-1, 1)])  # -Gr t + hr <= 0
    hs = HalfspaceIntersection(halfspaces, t_int)
    t_verts = np.unique(np.round(hs.intersections, 9), axis=0)
    return z_p + t_verts @ N.T


def superreplicate(market, x: float, claim: np.ndarray):
    """Cheapest-shortfall hedge of a terminal claim from cash ``x``.

    Maximizes the worst-leaf slack of liquidation value over the claim;
    returns ``(shortfall, strategy)`` where shortfall = max(0, -slack*).
    A nonpositive shortfall certifies superreplication.  The trades are
    those of the market's :class:`PrimalProgram` (at zero spread, one
    free net trade per node); its layout of them does not read the
    utility, and a real-line one has no threshold to find.
    """
    primal = PrimalProgram.build(market, UtilitySpec("exponential"))
    tree = market.tree
    L = tree.n_leaves
    claim = np.asarray(claim, dtype=float)
    cap = abs(x) + float(np.abs(claim).max(initial=0.0)) + 1.0

    # variables [trades, slack]: the layout's claim columns are left out
    # rows: both liquidation legs against the slack, trade nonnegativity, cap
    nv = primal.n_trades
    T0, T1 = primal.T0[:, :nv], primal.T1[:, :nv]
    legs = np.empty((2 * L, nv))
    legs[0::2] = T0 + market.bid_price[tree.leaves][:, None] * T1
    legs[1::2] = T0 + market.ask_price[tree.leaves][:, None] * T1
    nonnegative = np.eye(0 if primal.frictionless else nv, nv + 1)   # net trades are free
    capped = np.zeros(nv + 1)
    capped[nv] = -1.0
    G = np.vstack([np.hstack([legs, np.full((2 * L, 1), -1.0)]), nonnegative, capped])
    h = np.concatenate([np.repeat(claim - x, 2), np.zeros(nonnegative.shape[0]), [-cap]])

    c = np.zeros(nv + 1)
    c[nv] = -1.0
    res = solve_lp(c, G=G, h=h)
    if res.status != "optimal":
        raise EngineError(f"superreplication LP failed: {res.diagnostics.message}")
    slack = float(res.x[nv])
    hedge, _ = primal.solution(np.concatenate([res.x[:nv], np.zeros(L)]))
    return max(0.0, -slack), roll_forward(market, float(x), hedge.buy, hedge.sell)


def audit_derivatives(objective, points, rel_grad: float = 1e-6,
                      rel_hess: float = 1e-5, step: float = 1e-6):
    """Central finite-difference audit of analytic gradients and Hessian
    diagonals: ``objective(x)`` returns ``(f, g, d)`` as in
    :class:`frictiondual.engine.ConvexProgram`, and ``d * v`` is checked
    against gradient differences along random directions ``v``.

    Returns ``(max_grad_err, max_hess_err, ok)`` over the supplied
    points; errors are relative to the analytic magnitudes.
    """
    max_g = 0.0
    max_h = 0.0
    rng = np.random.default_rng(0)
    for x in points:
        x = np.asarray(x, dtype=float)
        _, g, d = objective(x)
        n = x.size
        hstep = step * (1.0 + np.abs(x))
        g_num = np.empty(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = hstep[i]
            fp, _, _ = objective(x + e)
            fm, _, _ = objective(x - e)
            g_num[i] = (fp - fm) / (2.0 * hstep[i])
        denom = 1.0 + np.linalg.norm(g)
        max_g = max(max_g, float(np.linalg.norm(g_num - g)) / denom)
        # Hessian-vector products against gradient differences
        for _ in range(3):
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            t = step * (1.0 + np.linalg.norm(x))
            _, gp, _ = objective(x + t * v)
            _, gm, _ = objective(x - t * v)
            hv_num = (gp - gm) / (2.0 * t)
            hv = d * v
            max_h = max(max_h, float(np.linalg.norm(hv_num - hv))
                        / (1.0 + float(np.linalg.norm(hv))))
    return max_g, max_h, bool(max_g <= rel_grad and max_h <= rel_hess)


def one_period_optimum(market, spec, x: float) -> tuple:
    """``(value, yhat)`` of a one-period market at wealth ``x``, by
    bisection on the root's net position, with no solver.

    Holding ``t >= 0`` shares bought at the root's ask and sold at each
    leaf's bid gives leaf wealth ``x + e + t (bid - ask_0)``; selling ``t``
    at the root's bid and buying back at each leaf's ask gives ``x + e + t
    (bid_0 - ask)``.  Expected utility is concave in ``t`` on each branch,
    so the root of its derivative on the branch's wealth domain, found by
    bisection to rounding, is the branch optimum, and the better branch is
    the optimum.  ``yhat = E[u'(W)]``, the derivative of the value in
    ``x`` (the envelope theorem)."""
    tree = market.tree
    if tree.horizon != 1:
        raise ValueError("the oracle needs a one-period market")
    p, leaves = tree.leaf_prob, tree.leaves
    base = x + np.asarray(market.endowment, dtype=float)
    real = spec.wealth_domain == "real"
    best = (-np.inf, np.nan)
    for c in (market.bid_price[leaves] - market.ask_price[0],
              market.bid_price[0] - market.ask_price[leaves]):

        def slope(t):
            return float(p @ (u_derivatives(spec, base + t * c)[1] * c))

        # the branch's wealth domain is the open interval (lo, hi) of t
        lo, hi = 0.0, np.inf
        if not real:
            up, down = c > 0.0, c < 0.0
            lo = max(0.0, float(np.max(-base[up] / c[up], initial=0.0)))
            hi = float(np.min(base[down] / -c[down], initial=np.inf))
            if not lo < hi:
                continue
        if np.any(base + lo * c <= 0.0) or slope(lo) > 0.0:
            if hi == np.inf:
                hi = 1.0
                while slope(hi) > 0.0:
                    lo, hi = hi, 2.0 * hi
            while True:
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):
                    break
                lo, hi = (mid, hi) if slope(mid) > 0.0 else (lo, mid)
        wealth = base + lo * c
        value = float(p @ u_derivatives(spec, wealth)[0])
        if value > best[0]:
            best = value, float(p @ u_derivatives(spec, wealth)[1])
    return best
