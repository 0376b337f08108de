"""The consistent-price-system polytope on an event tree.

A price system is a pair of nonnegative processes (Z0, Z1), martingales
under the tree measure, with Z0 normalized to 1 at the root and the
ratio Z1/Z0 confined to the bid-ask band at every node.  On a finite
tree the whole family is an explicit polytope over the terminal values
(Z0_T, Z1_T); interior-node values are conditional expectations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .engine import solve_lp
from .tree import MarketSpec, path_measure


class PolytopeInfeasibleError(RuntimeError):
    """Operation requires a nonempty (strictly feasible) polytope."""


@dataclass(frozen=True)
class PriceSystem:
    """Per-node (Z0, Z1) pair; ``stilde`` is the implied band price."""

    z0: np.ndarray
    z1: np.ndarray
    strictly_positive: bool

    def stilde(self, eps: float = 1e-12) -> np.ndarray:
        """Z1/Z0 where Z0 is meaningfully positive, NaN elsewhere."""
        out = np.full_like(self.z0, np.nan)
        mask = self.z0 > eps
        out[mask] = self.z1[mask] / self.z0[mask]
        return out


@dataclass(frozen=True)
class DualPolytope:
    """Linear description of the price-system family over leaf variables.

    Variables are ``[z0_leaves, z1_leaves]`` in leaf order.  ``cond_exp``
    maps leaf values to per-node conditional expectations.  Inequalities
    read ``G z - h >= 0``; at zero spread the band collapses and the cone
    rows move into the equality block.
    """

    market: MarketSpec
    spread: float
    cond_exp: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray
    G: np.ndarray
    h: np.ndarray
    cone_lower_rows: np.ndarray = field(repr=False)
    cone_upper_rows: np.ndarray = field(repr=False)

    @property
    def n_vars(self) -> int:
        return 2 * self.market.tree.n_leaves

    def node_values(self, z: np.ndarray):
        """Per-node (Z0, Z1) arrays from a leaf variable vector."""
        L = self.market.tree.n_leaves
        return self.cond_exp @ z[:L], self.cond_exp @ z[L:]

    def price_system(self, z: np.ndarray, pos_tol: float = 1e-12) -> PriceSystem:
        z0, z1 = self.node_values(z)
        strict = bool(np.all(z0 > pos_tol) and np.all(z1 > pos_tol))
        return PriceSystem(z0=z0, z1=z1, strictly_positive=strict)

    def max_violation(self, z: np.ndarray) -> float:
        """Largest constraint violation of a candidate point."""
        v = 0.0
        if self.G.size:
            v = max(v, float(np.max(np.maximum(0.0, self.h - self.G @ z))))
        v = max(v, float(np.max(np.abs(self.A_eq @ z - self.b_eq))))
        return v


def conditional_expectation_matrix(market: MarketSpec) -> np.ndarray:
    """Rows map leaf values to node values: W[n, l] = P(l)/P(n) under n.

    Built by walking every leaf's ancestors one stage at a time (all
    leaves sit at the horizon), so row ``n`` is nonzero exactly on the
    leaves below ``n``.
    """
    tree = market.tree
    measure = path_measure(tree)
    W = np.zeros((tree.n_nodes, tree.n_leaves))
    cols = np.arange(tree.n_leaves)
    ancestor = tree.leaves
    for _ in range(tree.horizon + 1):
        W[ancestor, cols] = measure.leaf_prob / measure.node_prob[ancestor]
        ancestor = tree.parent[ancestor]
    return W


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
    leaf_prob = path_measure(tree).leaf_prob
    s = market.ask_price[:, None]

    norm = np.concatenate([leaf_prob, np.zeros(L)])[None, :]
    upper = np.hstack([s * W, -W])
    positivity = np.eye(2 * L)
    if lam == 0.0:
        # degenerate band: Z1 = S * Z0 exactly
        A_eq = np.vstack([norm, upper])
        G = positivity
        lower_idx, upper_idx = np.full(n, -1), np.full(n, -1)
    else:
        A_eq = norm
        cone = np.empty((2 * n, 2 * L))
        cone[0::2] = np.hstack([-(1.0 - lam) * s * W, W])
        cone[1::2] = upper
        G = np.vstack([cone, positivity])
        lower_idx = np.arange(0, 2 * n, 2)
        upper_idx = lower_idx + 1

    return DualPolytope(
        market=market,
        spread=lam,
        cond_exp=W,
        A_eq=A_eq,
        b_eq=np.concatenate([[1.0], np.zeros(A_eq.shape[0] - 1)]),
        G=G,
        h=np.zeros(G.shape[0]),
        cone_lower_rows=lower_idx,
        cone_upper_rows=upper_idx,
    )


@dataclass
class CpsVerdict:
    """Outcome of the strict price-system existence check."""

    exists: bool
    delta: float
    witness: Optional[PriceSystem]
    witness_leaf_vars: Optional[np.ndarray]
    certificate: Optional[dict]
    positivity_delta: Optional[float] = None

    def trade_signs(self) -> Optional[np.ndarray]:
        """Per-node buy(+1)/sell(-1)/hold(0) pattern from the certificate."""
        if self.certificate is None:
            return None
        lo = np.asarray(self.certificate["cone_lower_multipliers"])
        hi = np.asarray(self.certificate["cone_upper_multipliers"])
        signs = np.zeros(lo.size, dtype=int)
        scale = max(1e-30, float(np.max(np.abs(lo))), float(np.max(np.abs(hi))))
        signs[hi > lo + 1e-9 * scale] = 1
        signs[lo > hi + 1e-9 * scale] = -1
        return signs


def check_cps(market: MarketSpec, mu: Optional[float] = None,
              tol: float = 1e-9) -> CpsVerdict:
    """Decide existence of a strictly positive price system at spread ``mu``.

    Maximizes the minimum of the scaled cone slacks and the leaf Z0
    values over the polytope, one HiGHS LP (:func:`engine.solve_lp`);
    the verdict is "exists" when the optimal margin ``delta`` clears
    1e-9.  The witness is then strictly inside the polytope: every cone
    slack is at least ``delta`` times the ask price and every leaf Z0 at
    least ``delta``.  When the margin does not clear, the LP multipliers
    are returned as a separating certificate, and a secondary margin
    that ignores cone slack reports whether positivity alone is
    achievable.
    """
    mu = market.lam if mu is None else float(mu)
    if not (0.0 < mu < 1.0):
        raise ValueError(f"spread for the existence check must lie in (0,1), got {mu}")
    poly = build_polytope(market, spread=mu)
    delta, z, cert = _max_margin(poly, include_cone=True)
    if delta > 1e-9:
        witness = poly.price_system(z)
        return CpsVerdict(exists=True, delta=delta, witness=witness,
                          witness_leaf_vars=z, certificate=None)
    try:
        pos_delta, _, _ = _max_margin(poly, include_cone=False)
    except PolytopeInfeasibleError:
        pos_delta = float("-inf")  # the cone itself admits no point at all
    return CpsVerdict(exists=False, delta=delta, witness=None,
                      witness_leaf_vars=None, certificate=cert,
                      positivity_delta=pos_delta)


def _max_margin(poly: DualPolytope, include_cone: bool):
    """Max-min-slack LP over (z, delta); returns (delta*, z*, certificate).

    The LP keeps the rows of ``poly.G`` in their order (lower and upper
    cone rows interleaved by node, then z0 and z1 leaf nonnegativity)
    with a margin column: each cone row carries its node's ask price
    (nothing without ``include_cone``), each z0 row 1 and each z1 row
    nothing.  A cap row ``delta <= 1`` closes it.
    """
    market = poly.market
    L, nv = market.tree.n_leaves, poly.n_vars
    w = market.ask_price if include_cone else np.zeros(market.tree.n_nodes)
    margin = np.concatenate([-np.repeat(w, 2), np.full(L, -1.0), np.zeros(L)])
    cap = np.zeros(nv + 1)
    cap[nv] = -1.0
    G1 = np.vstack([np.hstack([poly.G, margin[:, None]]), cap])

    A1 = np.hstack([poly.A_eq, np.zeros((poly.A_eq.shape[0], 1))])
    c = np.zeros(nv + 1)
    c[nv] = -1.0

    res = solve_lp(c, A_eq=A1, b_eq=poly.b_eq, G=G1, h=np.append(poly.h, -1.0))
    if res.status != "optimal":
        raise PolytopeInfeasibleError(
            f"existence LP ended with status {res.status}: {res.diagnostics.message}"
        )
    z = res.x[:nv]
    delta = float(res.x[nv])
    cert = {
        "cone_lower_multipliers": res.ineq_multipliers[poly.cone_lower_rows].tolist(),
        "cone_upper_multipliers": res.ineq_multipliers[poly.cone_upper_rows].tolist(),
        "eq_multipliers": res.eq_multipliers.tolist(),
        "max_margin": delta,
    }
    return delta, z, cert


def sample_polytope(poly: DualPolytope, count: int, seed: int = 0,
                    tol: float = 1e-10) -> list:
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


def enumerate_vertices(poly: DualPolytope, interior_tol: float = 1e-11):
    """All vertices of the polytope by halfspace intersection.

    Equalities are eliminated first; only practical for small trees
    (reduced dimension about 8 or less).  Returns an array of leaf
    variable vectors, or None when the polytope has no interior in its
    affine hull (empty or degenerate).
    """
    from scipy.spatial import HalfspaceIntersection
    import scipy.linalg

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
    m = Gr.shape[0]
    scale = 1.0 + np.abs(hr)
    G1 = np.hstack([Gr, -scale.reshape(-1, 1)])
    G1 = np.vstack([G1, np.concatenate([np.zeros(N.shape[1]), [-1.0]])])
    h1 = np.concatenate([hr, [-1.0]])
    c = np.zeros(N.shape[1] + 1)
    c[-1] = -1.0
    res = solve_lp(c, G=G1, h=h1)
    if res.status != "optimal" or res.x[-1] <= interior_tol:
        return None
    t_int = res.x[:-1]

    halfspaces = np.hstack([-Gr, hr.reshape(-1, 1)])  # -Gr t + hr <= 0
    hs = HalfspaceIntersection(halfspaces, t_int)
    t_verts = np.unique(np.round(hs.intersections, 9), axis=0)
    return z_p + t_verts @ N.T
