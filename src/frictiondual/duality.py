"""Primal and dual utility-maximization problems on an event tree.

The primal side maximizes expected utility of terminal wealth over
self-financing trading under proportional costs; the dual side minimizes
the conjugate functional over the consistent-price-system polytope.  On
a finite tree both optima are attained and the duality gap is zero; this
module computes both sides, the optimal scaling ``yhat = u'(x)``, and
the residuals of the optimizer identities linking them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import utility as ut
from .engine import ConvexProgram, InfeasibleProgramError, SolveResult, solve, solve_lp
from .polytope import DualPolytope, PolytopeInfeasibleError, PriceSystem, build_polytope, check_cps
from .trading import Strategy, net_trades, roll_forward, terminal_claim
from .tree import MarketSpec, path_measure

POSITIVITY_MARGIN = 1e-10
ENGINE_TOL = 1e-9
YHAT_RTOL = 1e-8
EXP_ARG_MAX = 700.0       # largest exponent the exponential objective evaluates


class PrimalInfeasibleError(RuntimeError):
    """No feasible wealth profile: x at or below the endowment threshold."""


class PrimalUnboundedError(RuntimeError):
    """Primal iterates diverge: the prices admit an arbitrage."""


class NoCpsError(RuntimeError):
    """The market admits no strictly positive consistent price system."""


@dataclass
class PrimalSolution:
    value: float
    strategy: Strategy
    claim: np.ndarray
    diagnostics: dict


@dataclass
class DualSolution:
    value: float
    y: float
    leaf_vars: np.ndarray
    system: PriceSystem
    derivative: float
    diagnostics: dict


@dataclass
class SolveReport:
    """Both halves of a solve plus the identity residuals."""

    market: MarketSpec
    utility: ut.UtilitySpec
    x: float
    include_endowment: bool
    value: float
    strategy: Strategy
    claim: np.ndarray
    yhat: float
    dual_value: float
    dual_system: PriceSystem
    dual_leaf_vars: np.ndarray
    gap: float
    leaf_identity_residuals: np.ndarray
    zero_density_leaves: list
    diagnostics: dict = field(default_factory=dict)
    witness: Optional[np.ndarray] = None    # leaf vars the dual solve started at

    @property
    def relative_gap(self) -> float:
        return self.gap / (1.0 + abs(self.value))

    def to_dict(self) -> dict:
        return {
            "utility": ut.utility_label(self.utility),
            "x": self.x,
            "include_endowment": self.include_endowment,
            "value": self.value,
            "yhat": self.yhat,
            "dual_value": self.dual_value,
            "gap": self.gap,
            "relative_gap": self.relative_gap,
            "claim": self.claim.tolist(),
            "buy": self.strategy.buy.tolist(),
            "sell": self.strategy.sell.tolist(),
            "dual_z0": self.dual_system.z0.tolist(),
            "dual_z1": self.dual_system.z1.tolist(),
            "leaf_identity_residuals": self.leaf_identity_residuals.tolist(),
            "zero_density_leaves": self.zero_density_leaves,
            "diagnostics": self.diagnostics,
        }


# ---------------------------------------------------------------------------
# primal side


def _primal_layout(market: MarketSpec):
    """Variable layout [buys, sells, leaf claims] and the affine maps."""
    tree = market.tree
    internal = tree.internal_nodes()
    K, L = internal.size, tree.n_leaves
    pos = {int(n): k for k, n in enumerate(internal)}
    nv = 2 * K + L
    s = market.ask_price
    bid = market.bid_price
    # cash and position at each leaf as affine maps of the trade variables
    T0 = np.zeros((L, nv))
    T1 = np.zeros((L, nv))
    for li, leaf in enumerate(tree.leaves):
        for node in tree.path_to_root(int(leaf)):
            if node in pos:
                k = pos[node]
                T0[li, k] = -s[node]
                T0[li, K + k] = bid[node]
                T1[li, k] = 1.0
                T1[li, K + k] = -1.0
    return internal, K, L, nv, T0, T1


def primal_program(market: MarketSpec, spec: ut.UtilitySpec, x: float,
                   include_endowment: bool = True):
    """Build the smooth concave maximization as an engine minimization.

    Claims enter through one bounded variable per leaf sitting under
    both liquidation legs; maximizing utility drives it onto the exact
    piecewise-linear liquidation value.
    """
    tree = market.tree
    internal, K, L, nv, T0, T1 = _primal_layout(market)
    frictionless = market.lam == 0.0
    if frictionless:
        # zero spread: matched buy/sell volume is a flat ray the barrier
        # would wander along, so use one free net trade per node instead
        # (the buy columns already carry the net-trade map at lam = 0)
        T0 = np.hstack([T0[:, :K], T0[:, 2 * K:]])
        T1 = np.hstack([T1[:, :K], T1[:, 2 * K:]])
        nv = K + L
        off = K
    else:
        off = 2 * K
    endow = market.endowment if include_endowment else np.zeros(L)
    prob = path_measure(tree).leaf_prob
    s_leaf = market.ask_price[tree.leaves]
    bid_leaf = market.bid_price[tree.leaves]

    rows, h_vals = [], []
    for li in range(L):
        c_row = np.zeros(nv)
        c_row[off + li] = 1.0
        rows.append(T0[li] + bid_leaf[li] * T1[li] - c_row)
        h_vals.append(0.0)
        if not frictionless:
            rows.append(T0[li] + s_leaf[li] * T1[li] - c_row)
            h_vals.append(0.0)
    for k in range(off if not frictionless else 0):
        row = np.zeros(nv)
        row[k] = 1.0
        rows.append(row)
        h_vals.append(0.0)
    positive_wealth = spec.wealth_domain == "positive"
    if positive_wealth:
        for li in range(L):
            row = np.zeros(nv)
            row[off + li] = 1.0
            rows.append(row)
            h_vals.append(POSITIVITY_MARGIN - x - endow[li])

    gamma = spec.gamma
    alpha = spec.alpha
    family = spec.family
    # center the exponential objective at the mean wealth so the solver
    # works at O(1) scale; the constant factor exp(-gamma*w_ref) drops
    # out of the argmax and the true value is recomputed from the claim
    w_ref = x + float(prob @ endow)

    def objective(v):
        c = v[off:]
        w = x + c + endow
        if family == "log":
            val = -float(prob @ np.log(w))
            g_c = -prob / w
            h_c = prob / w**2
        elif family == "power":
            val = -float(prob @ (w**alpha)) / alpha
            g_c = -prob * w ** (alpha - 1.0)
            h_c = prob * (1.0 - alpha) * w ** (alpha - 2.0)
        else:
            e = np.exp(-gamma * (w - w_ref))
            val = float(prob @ e)
            g_c = -gamma * prob * e
            h_c = gamma**2 * prob * e
        grad = np.zeros(nv)
        grad[off:] = g_c
        hess = np.zeros((nv, nv))
        hess[off:, off:] = np.diag(h_c)
        return val, grad, hess

    def in_domain(v):
        if family == "exponential":
            # np.exp overflows just past this exponent; a trial point out
            # there fails the line search's sufficient decrease anyway, so
            # rejecting it first changes no step
            return bool(np.all(-gamma * (x + v[off:] + endow - w_ref) <= EXP_ARG_MAX))
        if not positive_wealth:
            return True
        return bool(np.all(x + v[off:] + endow > 0.0))

    x0 = _primal_start(x, endow, off, nv, T0, T1, s_leaf, bid_leaf,
                       positive_wealth, frictionless)
    prog = ConvexProgram(n=nv, objective=objective, G=np.array(rows),
                         h=np.array(h_vals), in_domain=in_domain, x0=x0)
    return prog, internal, K, L, off, frictionless


def _primal_start(x, endow, off, nv, T0, T1, s_leaf, bid_leaf,
                  positive_wealth, frictionless):
    v = np.zeros(nv)
    if not frictionless:
        v[:off] = 1e-3
    phi0 = T0 @ v
    phi1 = T1 @ v
    legs = phi0 + bid_leaf * phi1
    if not frictionless:
        legs = np.minimum(legs, phi0 + s_leaf * phi1)
    c = legs - 1.0
    if positive_wealth:
        floor = POSITIVITY_MARGIN * 10.0 - x - endow
        mid = np.where(floor < legs, 0.5 * (np.maximum(floor, legs - 2.0) + legs), c)
        c = np.where(floor < legs, np.minimum(mid, legs - 1e-9), c)
        # if floor >= legs anywhere this start is infeasible; phase one takes over
    v[off:] = c
    return v


def solve_primal(market: MarketSpec, spec: ut.UtilitySpec, x: float,
                 include_endowment: bool = True, tol: float = ENGINE_TOL) -> PrimalSolution:
    """Maximize expected utility of terminal wealth from cash ``x``.

    Returns the netted optimal strategy and the claim it generates.
    Raises :class:`PrimalInfeasibleError` when no wealth profile clears
    the positivity floor (half-line utilities with x at or below the
    endowment threshold) and :class:`PrimalUnboundedError` when the
    iterates diverge.
    """
    prog, internal, K, L, off, frictionless = primal_program(
        market, spec, x, include_endowment
    )
    try:
        res = solve(prog, tol=tol)
    except InfeasibleProgramError as exc:
        raise PrimalInfeasibleError(
            f"primal infeasible at x={x}: {exc}"
        ) from exc
    if res.status == "unbounded":
        raise PrimalUnboundedError(f"primal unbounded: {res.diagnostics.message}")
    if res.status != "optimal":
        raise RuntimeError(f"primal solve failed: {res.diagnostics.message}")

    tree = market.tree
    buy = np.zeros(tree.n_nodes)
    sell = np.zeros(tree.n_nodes)
    if frictionless:
        theta = res.x[:K]
        buy[internal] = np.maximum(theta, 0.0)
        sell[internal] = np.maximum(-theta, 0.0)
    else:
        buy[internal] = np.maximum(res.x[:K], 0.0)
        sell[internal] = np.maximum(res.x[K: 2 * K], 0.0)
    buy, sell = net_trades(buy, sell)
    strat = roll_forward(market, 0.0, buy, sell)
    claim = terminal_claim(market, strat)
    endow = market.endowment if include_endowment else np.zeros(L)
    prob = path_measure(tree).leaf_prob
    value = float(sum(p * ut.eval_u(spec, x + c + e)
                      for p, c, e in zip(prob, claim, endow)))
    return PrimalSolution(value=value, strategy=strat, claim=claim,
                          diagnostics=res.diagnostics.to_dict())


# ---------------------------------------------------------------------------
# dual side


def _dual_objective(poly: DualPolytope, spec: ut.UtilitySpec, y: float,
                    endow: np.ndarray, prob: np.ndarray):
    L = prob.size
    nv = poly.n_vars
    family = spec.family
    gamma = spec.gamma
    alpha = spec.alpha

    def objective(z):
        z0 = z[:L]
        t = y * z0
        if family == "log":
            v_vals = -np.log(t) - 1.0
            v_g = -1.0 / t
            v_h = 1.0 / t**2
        elif family == "power":
            q = alpha / (alpha - 1.0)
            v_vals = (1.0 - alpha) / alpha * t**q
            v_g = -(t ** (1.0 / (alpha - 1.0)))
            v_h = (1.0 / (1.0 - alpha)) * t ** ((2.0 - alpha) / (alpha - 1.0))
        else:
            lt = np.log(t / gamma)
            v_vals = t / gamma * (lt - 1.0)
            v_g = lt / gamma
            v_h = 1.0 / (gamma * t)
        val = float(prob @ (v_vals + t * endow))
        g0 = prob * (y * v_g + y * endow)
        h0 = prob * (y * y * v_h)
        grad = np.zeros(nv)
        grad[:L] = g0
        hess = np.zeros((nv, nv))
        hess[:L, :L] = np.diag(h0)
        return val, grad, hess

    def in_domain(z):
        return bool(np.all(z[:L] > 0.0))

    return objective, in_domain


def solve_dual(market: MarketSpec, spec: ut.UtilitySpec, y: float,
               include_endowment: bool = True, poly: Optional[DualPolytope] = None,
               x0: Optional[np.ndarray] = None,
               tol: float = ENGINE_TOL) -> DualSolution:
    """Minimize the conjugate functional at scale ``y`` over the polytope.

    ``x0``, leaf variables of a point of the polytope, starts the solve;
    the engine falls back to a phase one when it is not strictly feasible.
    """
    if y <= 0.0:
        raise ut.UtilityDomainError(f"dual scale must be positive, got {y}")
    if poly is None:
        poly = build_polytope(market)
    tree = market.tree
    L = tree.n_leaves
    prob = path_measure(tree).leaf_prob
    endow = market.endowment if include_endowment else np.zeros(L)
    res = _solve_on_polytope(poly, *_dual_objective(poly, spec, y, endow, prob),
                             "dual", tol=tol, x0=x0)
    z = res.x
    return DualSolution(value=res.diagnostics.objective, y=y, leaf_vars=z,
                        system=poly.price_system(z),
                        derivative=_dual_derivative(spec, y, z[:L], endow, prob),
                        diagnostics=res.diagnostics.to_dict())


def _solve_on_polytope(poly: DualPolytope, objective, in_domain, what: str,
                       tol: float = ENGINE_TOL,
                       x0: Optional[np.ndarray] = None) -> SolveResult:
    """Engine solve over the constraints of ``poly``; optimal or raises."""
    prog = ConvexProgram(n=poly.n_vars, objective=objective, A_eq=poly.A_eq,
                         b_eq=poly.b_eq, G=poly.G, h=poly.h,
                         in_domain=in_domain, x0=x0)
    try:
        res = solve(prog, tol=tol)
    except InfeasibleProgramError as exc:
        raise PolytopeInfeasibleError(f"empty dual polytope: {exc}") from exc
    if res.status != "optimal":
        raise RuntimeError(f"{what} solve failed: {res.diagnostics.message}")
    return res


def _dual_derivative(spec, y, z0, endow, prob) -> float:
    """v'(y) = E[Z0 (V'(y Z0) + e)] at the minimizing density ``z0``."""
    return float(prob @ (z0 * (np.array([ut.eval_v_prime(spec, y * t) for t in z0])
                               + endow)))


def value_v(market: MarketSpec, spec: ut.UtilitySpec, y: float,
            include_endowment: bool = True) -> float:
    """Dual value function at scale ``y``."""
    return solve_dual(market, spec, y, include_endowment).value


@dataclass
class EntropyCore:
    """Exponential-utility dual data: one minimizer serves every scale."""

    leaf_vars: np.ndarray
    entropy: float          # E[z log z]
    endow_mean: float       # E[z e]
    diagnostics: dict


def _entropy_objective(poly: DualPolytope, gamma: float,
                       endow: np.ndarray, prob: np.ndarray):
    L = prob.size
    nv = poly.n_vars

    def objective(z):
        z0 = z[:L]
        lz = np.log(z0)
        val = float(prob @ (z0 * lz / gamma + z0 * endow))
        grad = np.zeros(nv)
        grad[:L] = prob * ((lz + 1.0) / gamma + endow)
        hess = np.zeros((nv, nv))
        hess[:L, :L] = np.diag(prob / (gamma * z0))
        return val, grad, hess

    def in_domain(z):
        return bool(np.all(z[:L] > 0.0))

    return objective, in_domain


def solve_entropy_core(market: MarketSpec, gamma: float,
                       include_endowment: bool = True,
                       poly: Optional[DualPolytope] = None,
                       x0: Optional[np.ndarray] = None,
                       tol: float = ENGINE_TOL) -> EntropyCore:
    """Minimize E[z log z]/gamma + E[z e] over the polytope.

    For the exponential family the dual minimizer does not depend on the
    scale, so this single solve determines the whole dual value curve.
    """
    if poly is None:
        poly = build_polytope(market)
    tree = market.tree
    L = tree.n_leaves
    prob = path_measure(tree).leaf_prob
    endow = market.endowment if include_endowment else np.zeros(L)
    res = _solve_on_polytope(poly, *_entropy_objective(poly, gamma, endow, prob),
                             "entropy", tol=tol, x0=x0)
    entropy, endow_mean = entropy_terms(market, res.x, include_endowment)
    return EntropyCore(leaf_vars=res.x, entropy=entropy, endow_mean=endow_mean,
                       diagnostics=res.diagnostics.to_dict())


def entropy_terms(market: MarketSpec, leaf_vars: np.ndarray,
                  include_endowment: bool = True) -> tuple:
    """``(E[z log z], E[z e])`` at the polytope point ``leaf_vars``."""
    L = market.tree.n_leaves
    prob = path_measure(market.tree).leaf_prob
    z0 = leaf_vars[:L]
    endow = market.endowment if include_endowment else np.zeros(L)
    return float(prob @ (z0 * np.log(z0))), float(prob @ (z0 * endow))


def minimize_v_plus_xy(market: MarketSpec, spec: ut.UtilitySpec, x: float,
                       include_endowment: bool = True,
                       poly: Optional[DualPolytope] = None,
                       x0: Optional[np.ndarray] = None):
    """Solve inf_y {v(y) + x y}; returns (yhat, value, DualSolution at yhat).

    Over the cone of scaled price systems ``W = y Z`` this is one convex
    program, min E[V(W0) + W0 (x + e)] over the polytope with its
    normalization row dropped; then ``yhat = E[W0]`` and ``Z = W / yhat``.
    ``x0``, a point of the polytope, starts the cone solve at ``W = x0``.
    The engine's active-face finish puts ``W`` on its optimal face, where
    the degenerate band rows hold exactly.  The residual |v'(yhat) + x|
    must end below 1e-8 * (1 + |x|).
    """
    if poly is None:
        poly = build_polytope(market)
    L = market.tree.n_leaves
    prob = path_measure(market.tree).leaf_prob
    endow = market.endowment if include_endowment else np.zeros(L)
    cone = replace(poly, A_eq=poly.A_eq[1:], b_eq=poly.b_eq[1:])
    objective, in_domain = _dual_objective(poly, spec, 1.0, x + endow, prob)
    res = _solve_on_polytope(cone, objective, in_domain, "dual", x0=x0)
    value = res.diagnostics.objective
    yhat = float(prob @ res.x[:L])
    z = res.x / yhat
    sol = DualSolution(value=value - x * yhat, y=yhat, leaf_vars=z,
                       system=poly.price_system(z),
                       derivative=_dual_derivative(spec, yhat, z[:L], endow, prob),
                       diagnostics=res.diagnostics.to_dict())
    resid = abs(sol.derivative + x)
    if resid > YHAT_RTOL * (1.0 + abs(x)):
        raise RuntimeError(f"dual scale off its optimum: |v'(y)+x| = {resid:.3e} at y={yhat}")
    return yhat, value, sol


def compute_x0(market: MarketSpec, include_endowment: bool = True,
               poly: Optional[DualPolytope] = None) -> float:
    """Wealth threshold sup over the polytope of E[-z0 * e_T]."""
    if not include_endowment:
        return 0.0
    if poly is None:
        poly = build_polytope(market)
    L = market.tree.n_leaves
    prob = path_measure(market.tree).leaf_prob
    c = np.concatenate([prob * market.endowment, np.zeros(L)])
    res = solve_lp(c, A_eq=poly.A_eq, b_eq=poly.b_eq, G=poly.G, h=poly.h)
    if res.status == "infeasible":
        raise PolytopeInfeasibleError("empty polytope: threshold undefined")
    if res.status != "optimal":
        raise RuntimeError(f"threshold LP failed: {res.diagnostics.message}")
    return -float(res.diagnostics.objective)


def superreplicate(market: MarketSpec, x: float, claim: np.ndarray):
    """Cheapest-shortfall hedge of a terminal claim from cash ``x``.

    Maximizes the worst-leaf slack of liquidation value over the claim;
    returns ``(shortfall, strategy)`` where shortfall = max(0, -slack*).
    A nonpositive shortfall certifies superreplication.
    """
    from .trading import roll_forward, net_trades

    internal, K, L, nv, T0, T1 = _primal_layout(market)
    tree = market.tree
    claim = np.asarray(claim, dtype=float)
    s_leaf = market.ask_price[tree.leaves]
    bid_leaf = market.bid_price[tree.leaves]
    cap = abs(x) + float(np.abs(claim).max(initial=0.0)) + 1.0

    rows, h_vals = [], []
    for li in range(L):
        for leg in (T0[li] + bid_leaf[li] * T1[li], T0[li] + s_leaf[li] * T1[li]):
            rows.append(np.concatenate([leg, [-1.0]]))
            h_vals.append(claim[li] - x)
    for k in range(2 * K):
        row = np.zeros(nv + 1)
        row[k] = 1.0
        rows.append(row)
        h_vals.append(0.0)
    capped = np.zeros(nv + 1)
    capped[nv] = -1.0
    rows.append(capped)
    h_vals.append(-cap)

    c = np.zeros(nv + 1)
    c[nv] = -1.0
    res = solve_lp(c, G=np.array(rows), h=np.array(h_vals))
    if res.status != "optimal":
        raise RuntimeError(f"superreplication LP failed: {res.diagnostics.message}")
    slack = float(res.x[nv])
    buy = np.zeros(tree.n_nodes)
    sell = np.zeros(tree.n_nodes)
    buy[internal] = np.maximum(res.x[:K], 0.0)
    sell[internal] = np.maximum(res.x[K: 2 * K], 0.0)
    buy, sell = net_trades(buy, sell)
    strat = roll_forward(market, float(x), buy, sell)
    return max(0.0, -slack), strat


# ---------------------------------------------------------------------------
# combined report and identity checks


def solve_report(market: MarketSpec, spec: ut.UtilitySpec, x: float,
                 include_endowment: bool = True, tol: float = ENGINE_TOL,
                 witness: Optional[np.ndarray] = None) -> SolveReport:
    """Solve both problems, match them through yhat, and fill the report.

    The existence check's witness is strictly inside the polytope, so it
    starts the dual solve.  A supplied ``witness``, leaf variables
    strictly inside this market's polytope such as another report's
    ``witness``, skips the check.  The report keeps the witness its dual
    solve started from: ``None`` at zero spread, where no check runs.
    """
    if witness is None and market.lam > 0.0:
        verdict = check_cps(market)
        if not verdict.exists:
            raise NoCpsError(
                f"no strictly positive price system at lambda={market.lam}"
            )
        witness = verdict.witness_leaf_vars
    poly = build_polytope(market)
    if spec.wealth_domain == "positive":
        x0_thresh = compute_x0(market, include_endowment, poly=poly)
        if x <= x0_thresh + 1e-9:
            raise PrimalInfeasibleError(
                f"x={x} at or below the endowment threshold {x0_thresh}"
            )

    primal = solve_primal(market, spec, x, include_endowment, tol=tol)

    if spec.family == "exponential":
        core = solve_entropy_core(market, spec.gamma, include_endowment,
                                  poly=poly, x0=witness, tol=tol)
        k = core.entropy / spec.gamma + core.endow_mean
        yhat = spec.gamma * math.exp(-spec.gamma * (x + k))
        # the whole dual value curve is closed-form in the entropy core,
        # which keeps its relative accuracy even when yhat is tiny
        g = spec.gamma
        dual_value = (yhat / g) * (math.log(yhat / g) - 1.0) \
            + (yhat / g) * core.entropy + yhat * core.endow_mean
        dual = DualSolution(
            value=dual_value, y=yhat, leaf_vars=core.leaf_vars,
            system=poly.price_system(core.leaf_vars),
            derivative=math.log(yhat / g) / g + k,
            diagnostics=core.diagnostics,
        )
        dual_total = dual.value + x * yhat
    else:
        yhat, dual_total, dual = minimize_v_plus_xy(
            market, spec, x, include_endowment, poly=poly, x0=witness
        )

    gap = abs(primal.value - dual_total)
    tree = market.tree
    endow = market.endowment if include_endowment else np.zeros(tree.n_leaves)
    wealth = x + primal.claim + endow
    z0_leaf = dual.leaf_vars[: tree.n_leaves]
    residuals = np.zeros(tree.n_leaves)
    zero_leaves = []
    for k_ in range(tree.n_leaves):
        if z0_leaf[k_] > 1e-12:
            residuals[k_] = abs(ut.eval_u_prime(spec, wealth[k_])
                                - yhat * z0_leaf[k_])
        else:
            zero_leaves.append(int(tree.leaves[k_]))
            residuals[k_] = float("nan")

    return SolveReport(
        market=market, utility=spec, x=x, include_endowment=include_endowment,
        value=primal.value, strategy=primal.strategy, claim=primal.claim,
        yhat=yhat, dual_value=dual.value, dual_system=dual.system,
        dual_leaf_vars=dual.leaf_vars, gap=gap,
        leaf_identity_residuals=residuals, zero_density_leaves=zero_leaves,
        diagnostics={"primal": primal.diagnostics, "dual": dual.diagnostics},
        witness=witness,
    )


def verify_identities(report: SolveReport, fd_step: Optional[float] = None) -> dict:
    """Residual table for the duality and marginal-utility identities.

    (a) duality gap, (b) per-leaf pointwise identity on the support of
    the dual density, (c) |u'(x) - E[U'(wealth)]| with u' by central
    difference of the primal value, (d) the wealth-weighted variant.
    """
    market, spec, x = report.market, report.utility, report.x
    tree = market.tree
    prob = path_measure(tree).leaf_prob
    endow = market.endowment if report.include_endowment else np.zeros(tree.n_leaves)
    wealth = x + report.claim + endow
    u_prime_leaf = np.array([ut.eval_u_prime(spec, w) for w in wealth])

    h = fd_step if fd_step is not None else 1e-4 * (1.0 + abs(x))
    up = solve_primal(market, spec, x + h, report.include_endowment).value
    dn = solve_primal(market, spec, x - h, report.include_endowment).value
    u_prime_fd = (up - dn) / (2.0 * h)

    finite = report.leaf_identity_residuals[
        ~np.isnan(report.leaf_identity_residuals)
    ]
    return {
        "gap": report.gap,
        "relative_gap": report.relative_gap,
        "max_leaf_identity_residual": float(finite.max()) if finite.size else 0.0,
        "leaf_identity_residuals": report.leaf_identity_residuals.tolist(),
        "zero_density_leaves": report.zero_density_leaves,
        "u_prime_fd": u_prime_fd,
        "yhat": report.yhat,
        "marginal_mean_residual": abs(u_prime_fd - float(prob @ u_prime_leaf)),
        "marginal_weighted_residual": abs(
            x * u_prime_fd - float(prob @ ((x + report.claim) * u_prime_leaf))
        ),
        "yhat_vs_fd": abs(report.yhat - u_prime_fd),
    }
