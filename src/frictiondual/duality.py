"""Primal and dual utility-maximization problems on an event tree.

The primal side maximizes expected utility of terminal wealth over
self-financing trading under proportional costs; the dual side minimizes
the conjugate functional over the consistent-price-system polytope.  On
a finite tree both optima are attained and the duality gap is zero; this
module computes both sides, the optimal scaling ``yhat = u'(x)``, and
the residuals of the optimizer identities linking them.  A dual solve
given no start begins at its polytope's strictly consistent price system
(:meth:`DualPolytope.strict_point`), which raises :class:`NoCpsError`
when the market has none.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import utility as ut
from .engine import ConvexProgram, EngineError, InfeasibleProgramError, SolveResult, solve
from .polytope import (DENSITY_EPS, DualPolytope, PolytopeInfeasibleError, PriceSystem,
                       build_polytope, max_expectation, super_hedge)
from .trading import Strategy, net_trades, replicate, roll_forward, terminal_claim
from .tree import MarketSpec

POSITIVITY_MARGIN = 1e-10
THRESHOLD_MARGIN = 10.0 * POSITIVITY_MARGIN   # x must clear the threshold by this
WARM_PULL = 0.1           # share of the way a supplied primal start moves to the closed-form one
YHAT_RTOL = 1e-8
FD_STEP = 1e-4            # central-difference step of u'(x), relative to 1 + |x|
EXP_ARG_MAX = 700.0       # largest exponent the exponential objective evaluates


class PrimalInfeasibleError(RuntimeError):
    """No feasible wealth profile: x at or below the endowment threshold."""


class PrimalUnboundedError(RuntimeError):
    """The prices admit an arbitrage: the primal is unbounded."""


def _check_wealth(x: float) -> None:
    if not np.isfinite(x):
        raise ValueError(f"initial wealth x must be finite, got {x}")


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

    @property
    def relative_gap(self) -> float:
        return self.gap / (1.0 + abs(self.value))

    def to_dict(self) -> dict:
        return {
            "utility": ut.utility_label(self.utility),
            "x": self.x,
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
    """Variable layout [buys, sells, leaf claims] and the affine maps.

    Rows ``T0``/``T1`` give each leaf's cash and position as linear maps
    of the variables: every trade at an internal node on the leaf's path
    enters, and the claim columns are zero.
    """
    tree = market.tree
    internal = tree.internal
    K, L = internal.size, tree.n_leaves
    on = tree.on_path[:, internal]
    claims = np.zeros((L, L))
    T0 = np.hstack([np.where(on, -market.ask_price[internal], 0.0),
                    np.where(on, market.bid_price[internal], 0.0), claims])
    T1 = np.hstack([np.where(on, 1.0, 0.0), np.where(on, -1.0, 0.0), claims])
    return internal, K, L, 2 * K + L, T0, T1


def _liquidation_legs(market: MarketSpec, T0: np.ndarray, T1: np.ndarray) -> np.ndarray:
    """Rows ``T0 + S T1`` of each leaf's two liquidation legs, at the bid
    price then at the ask price; the liquidation value is the smaller."""
    leaves = market.tree.leaves
    legs = np.empty((2 * leaves.size, T0.shape[1]))
    legs[0::2] = T0 + market.bid_price[leaves][:, None] * T1
    legs[1::2] = T0 + market.ask_price[leaves][:, None] * T1
    return legs


def primal_program(market: MarketSpec, spec: ut.UtilitySpec, x: float):
    """Build the smooth concave maximization as an engine minimization.

    Claims enter through one bounded variable per leaf sitting under
    both liquidation legs; maximizing utility drives it onto the exact
    piecewise-linear liquidation value.  The variables are the buys and
    sells at ``tree.internal`` (at zero spread one net trade each), then
    the leaf claims, the last ``n_leaves`` of them.

    The start is in closed form.  Half-line utilities need ``x`` above
    the threshold ``x0 = sup E[-Z0 e]`` by more than ``THRESHOLD_MARGIN``
    (else :class:`PrimalInfeasibleError`) and start at its
    super-replicating hedge (:func:`super_hedge`), plus an equal buy and
    sell at each node whose spread costs at most a third of ``x - x0`` on
    any path, with the claims another third below the liquidation legs;
    a market with no hedge admits an arbitrage
    (:class:`PrimalUnboundedError`).  Exponential utility trades 1e-3
    each way at each node, with the claims 1 below the legs.
    """
    tree = market.tree
    _, K, L, nv, T0, T1 = _primal_layout(market)
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
    endow = market.endowment
    prob = tree.leaf_prob

    # rows: liquidation legs over the claim, trade nonnegativity, positivity
    claim_cols = np.eye(L, nv, k=off)
    legs = _liquidation_legs(market, T0, T1)
    if frictionless:
        legs = legs[0::2]     # bid and ask agree at zero spread
    G = [legs - np.repeat(claim_cols, legs.shape[0] // L, axis=0)]
    h = [np.zeros(legs.shape[0])]
    if not frictionless:
        G.append(np.eye(off, nv))
        h.append(np.zeros(off))
    positive_wealth = spec.wealth_domain == "positive"
    if positive_wealth:
        G.append(claim_cols)
        h.append(POSITIVITY_MARGIN - x - endow)

    gamma = spec.gamma
    exponential = spec.family == "exponential"
    # center the exponential objective at the mean wealth so the solver
    # works at O(1) scale; the constant factor exp(-gamma*w_ref) drops
    # out of the argmax and the true value is recomputed from the claim
    w_ref = x + float(prob @ endow)
    shift = w_ref if exponential else 0.0

    def objective(v):
        u, u1, u2 = ut.u_derivatives(spec, x + v[off:] + endow - shift)
        grad = np.zeros(nv)
        grad[off:] = -prob * u1
        hess = np.zeros(nv)
        hess[off:] = -prob * u2
        return -float(prob @ u), grad, hess

    def in_domain(v):
        if exponential:
            # np.exp overflows just past this exponent; a trial point out
            # there fails the line search's sufficient decrease anyway, so
            # rejecting it first changes no step
            return bool(np.all(-gamma * (x + v[off:] + endow - w_ref) <= EXP_ARG_MAX))
        if not positive_wealth:
            return True
        return bool(np.all(x + v[off:] + endow > 0.0))

    if positive_wealth:
        try:
            x_min, hedge = super_hedge(market, -endow)
        except PolytopeInfeasibleError as exc:
            raise PrimalUnboundedError(f"primal unbounded: {exc}") from exc
        if x <= x_min + THRESHOLD_MARGIN:
            raise PrimalInfeasibleError(f"x={x} at or below the endowment threshold {x_min}")
        v = primal_point(market, hedge, np.zeros(L))
        spare = (x - x_min) / 3.0
        if not frictionless:
            # a matched buy and sell costs the spread, lam * ask, at each node
            v[:off] += spare / float(np.max(-T0[:, :off].sum(axis=1)))
    else:
        v = np.zeros(nv)
        if not frictionless:
            v[:off] = 1e-3
        spare = 1.0
    phi0, phi1 = T0 @ v, T1 @ v
    liquidation = phi0 + market.bid_price[tree.leaves] * phi1
    if not frictionless:
        liquidation = np.minimum(liquidation, phi0 + market.ask_price[tree.leaves] * phi1)
    v[off:] = liquidation - spare
    return ConvexProgram(n=nv, objective=objective, G=np.vstack(G),
                         h=np.concatenate(h), in_domain=in_domain, x0=v)


def primal_point(market: MarketSpec, strategy: Strategy, claim: np.ndarray) -> np.ndarray:
    """The variables of :func:`primal_program` for ``strategy`` and ``claim``:
    the buys and sells at the internal nodes, or at zero spread their
    difference, then the leaf claims."""
    internal = market.tree.internal
    buy, sell = strategy.buy[internal], strategy.sell[internal]
    trades = [buy - sell] if market.lam == 0.0 else [buy, sell]
    return np.concatenate(trades + [np.asarray(claim, dtype=float)])


def primal_multipliers(market: MarketSpec, spec: ut.UtilitySpec, x: float, yhat: float,
                       system: PriceSystem) -> np.ndarray:
    """Row multipliers of :func:`primal_program` at ``x`` from the dual
    optimum ``(yhat, system)``, by the KKT correspondence.  With ``Y =
    yhat`` (times ``exp(gamma w_ref)`` for the shifted exponential
    objective), leaf ``l``'s legs split ``Y p_l Z0_l`` so that they price
    ``Y p_l Z1_l`` (at zero spread its one leg takes it all), node ``n``'s
    buy and sell rows carry the band slacks ``Y P(n) (ask_n Z0_n - Z1_n)``
    and ``Y P(n) (Z1_n - bid_n Z0_n)``, and positivity rows 0."""
    tree = market.tree
    log_y = np.log(yhat)
    if spec.family == "exponential":
        log_y += spec.gamma * (x + float(tree.leaf_prob @ market.endowment))
    w0, w1 = (np.exp(log_y) * tree.node_prob * z for z in (system.z0, system.z1))
    if market.lam == 0.0:
        rows = [w0[tree.leaves]]
    else:
        above, below = market.ask_price * w0 - w1, w1 - market.bid_price * w0
        spread = (market.ask_price - market.bid_price)[tree.leaves, None]
        legs = np.column_stack([above, below])[tree.leaves] / spread   # bid leg, ask leg
        rows = [legs.ravel(), above[tree.internal], below[tree.internal]]
    if spec.wealth_domain == "positive":
        rows.append(np.zeros(tree.n_leaves))
    return np.maximum(np.concatenate(rows), 0.0)     # not below 0 by rounding


def solve_primal(market: MarketSpec, spec: ut.UtilitySpec, x: float,
                 x0: Optional[tuple] = None,
                 program: Optional[ConvexProgram] = None) -> PrimalSolution:
    """Maximize expected utility of terminal wealth from cash ``x``.

    Returns the netted optimal strategy and the claim it generates.
    Raises :class:`PrimalInfeasibleError` when no wealth profile clears
    the positivity floor (half-line utilities with x at or below the
    endowment threshold) and :class:`PrimalUnboundedError` when the
    prices admit an arbitrage or the iterates diverge.  With no ``x0``
    the barrier runs from the program's closed-form start
    (:func:`primal_program`).

    ``x0``, a point such as the :func:`primal_point` of a nearby solve
    paired with row multipliers (:func:`primal_multipliers`, or zeros),
    is the engine's face start (:attr:`ConvexProgram.face_start`).  A
    nearby optimum sits on the boundary of the feasible set, on the
    optimal face or next to it, so the engine first finishes it there
    with barrier-free Newton steps.  When that fails, the barrier starts
    at the point pulled ``WARM_PULL`` of the way toward the closed-form
    start (Gondzio & Grothey, SIAM J. Optim. 13, 2003), or at the
    closed-form start when the pulled point is not strictly feasible,
    logged in the events.  The diagnostics' ``start`` record says whether
    that fallback ran (``rejected``) and what the face start did
    (``face``: the engine's :attr:`SolveDiagnostics.face_start`, ``None``
    without ``x0``).
    ``program``, the :func:`primal_program` of these same arguments,
    saves building it again.
    """
    _check_wealth(x)
    prog = primal_program(market, spec, x) if program is None else program
    rejected = False
    if x0 is not None:
        pulled = (1.0 - WARM_PULL) * np.asarray(x0[0], float) + WARM_PULL * prog.x0
        rejected = not (prog.in_domain(pulled) and np.all(prog.G @ pulled - prog.h > 0.0))
        prog = replace(prog, x0=prog.x0 if rejected else pulled, face_start=x0)
    res = solve(prog)
    if res.status == "unbounded":
        raise PrimalUnboundedError(f"primal unbounded: {res.diagnostics.message}")
    if res.status != "optimal":
        raise EngineError(f"primal solve failed: {res.diagnostics.message}")

    tree = market.tree
    internal = tree.internal
    K = internal.size
    buy = np.zeros(tree.n_nodes)
    sell = np.zeros(tree.n_nodes)
    if market.lam == 0.0:
        theta = res.x[:K]
        buy[internal] = np.maximum(theta, 0.0)
        sell[internal] = np.maximum(-theta, 0.0)
    else:
        buy[internal] = np.maximum(res.x[:K], 0.0)
        sell[internal] = np.maximum(res.x[K: 2 * K], 0.0)
    buy, sell = net_trades(buy, sell)
    strat = roll_forward(market, 0.0, buy, sell)
    claim = terminal_claim(market, strat)
    value = float(tree.leaf_prob @ ut.eval_u(spec, x + claim + market.endowment))
    diagnostics = res.diagnostics.to_dict()
    face = res.diagnostics.face_start
    rejected = rejected and not face["accepted"]
    if rejected:    # after the face start's event, which is the first
        diagnostics["events"].insert(1, "pulled start not strictly feasible: "
                                        "closed-form start")
    diagnostics["start"] = {"rejected": rejected, "face": face}
    return PrimalSolution(value=value, strategy=strat, claim=claim, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# dual side


def _dual_objective(poly: DualPolytope, spec: ut.UtilitySpec, y: float,
                    endow: np.ndarray, prob: np.ndarray):
    L = prob.size
    nv = poly.n_vars

    def objective(z):
        t = y * z[:L]
        v_vals, v_g, v_h = ut.v_derivatives(spec, t)
        val = float(prob @ (v_vals + t * endow))
        g0 = prob * (y * v_g + y * endow)
        h0 = prob * (y * y * v_h)
        grad = np.zeros(nv)
        grad[:L] = g0
        hess = np.zeros(nv)
        hess[:L] = h0
        return val, grad, hess

    def in_domain(z):
        return bool(np.all(z[:L] > 0.0))

    return objective, in_domain


def solve_dual(market: MarketSpec, spec: ut.UtilitySpec, y: float,
               poly: Optional[DualPolytope] = None,
               x0: Optional[np.ndarray] = None) -> DualSolution:
    """Minimize the conjugate functional at scale ``y`` over the polytope.

    ``x0``, leaf variables of a strictly feasible point of the polytope,
    starts the solve; it defaults to :meth:`DualPolytope.strict_point`.
    """
    if not 0.0 < y < np.inf:
        raise ut.UtilityDomainError(f"dual scale y must be positive and finite, got {y}")
    if poly is None:
        poly = build_polytope(market)
    L = market.tree.n_leaves
    prob = market.tree.leaf_prob
    endow = market.endowment
    res = _solve_on_polytope(poly, *_dual_objective(poly, spec, y, endow, prob),
                             "dual", x0=x0)
    z = res.x
    return DualSolution(value=res.diagnostics.objective, y=y, leaf_vars=z,
                        system=poly.price_system(z),
                        derivative=_dual_derivative(spec, y, z[:L], endow, prob),
                        diagnostics=res.diagnostics.to_dict())


def _solve_on_polytope(poly: DualPolytope, objective, in_domain, what: str,
                       x0: Optional[np.ndarray]) -> SolveResult:
    """Engine solve over the constraints of ``poly`` from ``x0``, by
    default :meth:`DualPolytope.strict_point`; optimal or raises."""
    prog = ConvexProgram(n=poly.n_vars, objective=objective, A_eq=poly.A_eq,
                         b_eq=poly.b_eq, G=poly.G, h=poly.h, in_domain=in_domain,
                         x0=poly.strict_point() if x0 is None else x0)
    try:
        res = solve(prog)
    except InfeasibleProgramError as exc:
        raise PolytopeInfeasibleError(f"empty dual polytope: {exc}") from exc
    if res.status != "optimal":
        raise EngineError(f"{what} solve failed: {res.diagnostics.message}")
    return res


def _dual_derivative(spec, y, z0, endow, prob) -> float:
    """v'(y) = E[Z0 (V'(y Z0) + e)] at the minimizing density ``z0``."""
    return float(prob @ (z0 * (ut.eval_v_prime(spec, y * z0) + endow)))


def solve_entropy_core(market: MarketSpec, gamma: float,
                       poly: Optional[DualPolytope] = None,
                       x0: Optional[np.ndarray] = None) -> DualSolution:
    """The exp(gamma) dual at ``y = 1`` (:func:`solve_dual`), whose
    minimizer serves every scale.  On the polytope ``E[z] = 1``, so its
    objective is ``E[z log z]/gamma + E[z e]`` (:func:`entropy_terms`)
    less ``(1 + log gamma)/gamma``."""
    return solve_dual(market, ut.UtilitySpec("exponential", gamma=gamma), 1.0,
                      poly=poly, x0=x0)


def entropy_terms(market: MarketSpec, leaf_vars: np.ndarray) -> tuple:
    """``(E[z log z], E[z e])`` at the polytope point ``leaf_vars``."""
    prob = market.tree.leaf_prob
    z0 = leaf_vars[:market.tree.n_leaves]
    return float(prob @ (z0 * np.log(z0))), float(prob @ (z0 * market.endowment))


def minimize_v_plus_xy(market: MarketSpec, spec: ut.UtilitySpec, x: float,
                       poly: Optional[DualPolytope] = None,
                       x0: Optional[np.ndarray] = None):
    """Solve inf_y {v(y) + x y}; returns (yhat, value, DualSolution at yhat).

    Over the cone of scaled price systems ``W = y Z`` this is one convex
    program, min E[V(W0) + W0 (x + e)] over the polytope with its
    normalization row dropped; then ``yhat = E[W0]`` and ``Z = W / yhat``.
    ``x0``, a strictly feasible point of the polytope (by default
    :meth:`DualPolytope.strict_point`), starts the cone solve at ``W = x0``.
    The engine's active-face finish puts ``W`` on its optimal face, where
    the degenerate band rows hold exactly.  The residual |v'(yhat) + x|
    must end below 1e-8 * (1 + |x|).
    """
    _check_wealth(x)
    if poly is None:
        poly = build_polytope(market)
    L = market.tree.n_leaves
    prob = market.tree.leaf_prob
    endow = market.endowment
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
        raise EngineError(f"dual scale off its optimum: |v'(y)+x| = {resid:.3e} at y={yhat}")
    return yhat, value, sol


def compute_x0(market: MarketSpec) -> float:
    """Wealth threshold sup over the polytope of E[-z0 * e_T], by backward
    induction on the tree (:func:`max_expectation`); no LP.  An empty
    polytope raises :class:`PolytopeInfeasibleError`."""
    return max_expectation(market, -market.endowment) + 0.0   # +0.0, not -0.0, at e = 0


# ---------------------------------------------------------------------------
# combined report and identity checks


def solve_report(market: MarketSpec, spec: ut.UtilitySpec, x: float) -> SolveReport:
    """Solve both problems, match them through yhat, and fill the report.

    Every start is in closed form.  The dual starts at a strictly
    consistent price system (:meth:`DualPolytope.strict_point`), which
    usually runs no LP and, when there is none, raises
    :class:`NoCpsError` (at zero spread, :class:`PolytopeInfeasibleError`)
    with none.  It comes first, so exponential utility reports an empty
    zero-spread polytope the same way, where its primal would diverge.
    Half-line utilities need ``x`` above the threshold
    ``x0 = sup E[-Z0 e]`` by more than ``THRESHOLD_MARGIN``: the primal
    program (:func:`primal_program`), built once, raises
    :class:`PrimalInfeasibleError` naming it, before any solve.

    Half-line utilities get yhat from the scaled-cone dual
    (:func:`minimize_v_plus_xy`).  Exponential utility gets it in closed
    form from the unit-scale dual (:func:`solve_entropy_core`): with
    ``k = E[z log z]/gamma + E[z e]`` the dual value curve is
    ``V(y) + y k``, so ``yhat = u'(x + k)``.  A ``yhat`` that underflows
    to 0, at large ``x + k``, raises :class:`EngineError`.

    The primal starts at the dual optimum (:func:`_shadow_start`): the
    frictionless replication of the optimal claim ``I(yhat Z0) - x - e``
    at the shadow price ``Z1/Z0``, where the frictional optimum is that
    replication (Kallsen & Muhle-Karbe, Ann. Appl. Probab. 20, 2010).  That
    point sits on the primal's optimal face, so :func:`solve_primal` hands
    it, with the dual's :func:`primal_multipliers`, to the engine as its
    face start; the barrier runs only when the engine rejects it.  Where
    the dual optimizer has a node with ``Z0 <= DENSITY_EPS`` the primal
    keeps its program's closed-form start.  The primal diagnostics'
    ``start`` records which ran: ``point`` is ``"shadow"`` or
    ``"generic"``, ``reason`` names the zero-density node of a generic
    start, and ``rejected`` and ``face`` are :func:`solve_primal`'s.  The
    primal is still certified by its own KKT residuals.

    Every solve reads the endowment from ``market``: a report without the
    endowment is the report of ``market.with_endowment(np.zeros(L))``.
    Its threshold is 0, which :func:`compute_x0` returns like any other.
    """
    _check_wealth(x)
    poly = build_polytope(market)
    start = poly.strict_point()
    tree = market.tree
    endow = market.endowment
    program = primal_program(market, spec, x)

    if spec.family == "exponential":
        dual = solve_entropy_core(market, spec.gamma, poly=poly, x0=start)
        # v(y) = V(y) + y k is minimized where V'(y) = -(x + k); the closed
        # form keeps its relative accuracy even when yhat is tiny
        entropy, endow_mean = entropy_terms(market, dual.leaf_vars)
        k = entropy / spec.gamma + endow_mean
        yhat = float(ut.eval_u_prime(spec, x + k))
        if not yhat > 0.0:
            raise EngineError(f"dual scale u'(x + k) underflows to {yhat} at x={x}, k={k}")
        dual = replace(dual, value=float(ut.eval_v(spec, yhat)) + yhat * k, y=yhat,
                       derivative=float(ut.eval_v_prime(spec, yhat)) + k)
        dual_total = dual.value + x * yhat
    else:
        yhat, dual_total, dual = minimize_v_plus_xy(market, spec, x, poly=poly, x0=start)
    start, record = _shadow_start(market, spec, x, yhat, dual.system)
    primal = solve_primal(market, spec, x, x0=start, program=program)
    primal.diagnostics["start"] = {**record, **primal.diagnostics["start"]}

    gap = abs(primal.value - dual_total)
    wealth = x + primal.claim + endow
    z0_leaf = dual.leaf_vars[: tree.n_leaves]
    support = z0_leaf > DENSITY_EPS
    residuals = np.full(tree.n_leaves, np.nan)
    residuals[support] = np.abs(ut.eval_u_prime(spec, wealth[support])
                                - yhat * z0_leaf[support])
    zero_leaves = tree.leaves[~support].tolist()

    return SolveReport(
        market=market, utility=spec, x=x,
        value=primal.value, strategy=primal.strategy, claim=primal.claim,
        yhat=yhat, dual_value=dual.value, dual_system=dual.system,
        dual_leaf_vars=dual.leaf_vars, gap=gap,
        leaf_identity_residuals=residuals, zero_density_leaves=zero_leaves,
        diagnostics={"primal": primal.diagnostics, "dual": dual.diagnostics},
    )


def _shadow_start(market: MarketSpec, spec: ut.UtilitySpec, x: float, yhat: float,
                  system: PriceSystem) -> tuple:
    """The primal start at the dual optimum ``system`` and its record.

    The start pairs the :func:`primal_multipliers` of the dual optimum
    with the :func:`primal_point` of the frictionless replication
    (:func:`trading.replicate`) of the optimal claim ``I(yhat Z0) - x -
    e`` at the shadow price ``Z1/Z0``, under ``Z0``, its claim the
    terminal liquidation value.  Where some node's ``Z0`` is at most
    ``DENSITY_EPS``, ``I`` is undefined and the start is ``None``, the
    program's generic one; the record names the node.
    """
    price, undefined = system.ratio(market.ask_price)
    if undefined.any():
        node = int(np.argmax(undefined))
        return None, {"point": "generic", "reason": f"zero dual density at node {node}"}
    tree = market.tree
    claim = ut.eval_i(spec, yhat * system.z0[tree.leaves]) - x - market.endowment
    strategy = replicate(market, price, system.z0, claim)
    return ((primal_point(market, strategy, terminal_claim(market, strategy)),
             primal_multipliers(market, spec, x, yhat, system)),
            {"point": "shadow", "reason": None})


def verify_identities(report: SolveReport) -> dict:
    """Residual table for the duality and marginal-utility identities.

    (a) duality gap, (b) per-leaf pointwise identity on the support of
    the dual density, (c) |u'(x) - E[U'(wealth)]| with u' by central
    difference of the primal value, (d) the wealth-weighted variant.
    The step is ``h = FD_STEP * (1 + |x|)``.  Both primal solves at
    ``x +- h`` start at the report's primal point (:func:`primal_point`),
    whose face is usually theirs, and the dual's :func:`primal_multipliers`
    at their own ``x``: :func:`solve_primal` hands the pair to the engine
    as the face start, and the barrier runs only when it is rejected.
    """
    market, spec, x = report.market, report.utility, report.x
    prob = market.tree.leaf_prob
    u_prime_leaf = ut.eval_u_prime(spec, x + report.claim + market.endowment)

    h = FD_STEP * (1.0 + abs(x))
    point = primal_point(market, report.strategy, report.claim)

    def value(xh):
        lam = primal_multipliers(market, spec, xh, report.yhat, report.dual_system)
        return solve_primal(market, spec, xh, x0=(point, lam)).value

    u_prime_fd = (value(x + h) - value(x - h)) / (2.0 * h)

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
