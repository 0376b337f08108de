"""Primal and dual utility-maximization problems on an event tree.

The primal side maximizes expected utility of terminal wealth over
self-financing trading under proportional costs; the dual side minimizes
the conjugate functional over the consistent-price-system polytope.  On
a finite tree both optima are attained and the duality gap is zero; this
module computes both sides, the optimal scaling ``yhat = u'(x)``, and
the residuals of the optimizer identities linking them.  One object,
:class:`PrimalProgram`, owns the primal of a market and utility.  A dual
solve given no start begins at its polytope's strictly consistent price
system (:meth:`DualPolytope.strict_point`), which raises
:class:`NoCpsError` when the market has none.

A report (:func:`solve_report`) runs one barrier and starts the other
side at its optimum, through the KKT map between the two: the dual
optimizer ``yhat Z0`` prices the primal's rows, and the multipliers of
the dual's band rows are the optimal trades.  For exponential utility
the barrier runs on the unit-scale dual, and the primal starts at the
point and multipliers read off the dual optimum
(:meth:`PrimalProgram.primal_start`).  For log and power it runs on the
primal, whose closed-form start is at the problem's scale ``x - x0``,
and the scaled-cone dual starts at the pair read off the primal optimum
(:meth:`PrimalProgram.dual_start`).

Every start handed from one side to the other follows one rule.  A
solve takes an optional ``face_start=(point, multipliers)``, the
engine's face start (:attr:`ConvexProgram.face_start`): accepted as
given when it already passes the engine's stopping test, as an exact
read-off does, or else finished on its face, it takes no barrier step.
When the engine rejects it, the barrier
runs from the program's own closed-form start, :meth:`PrimalProgram.start`
or :meth:`DualPolytope.strict_point`, with the bits of a solve given
none.  The outcome is the engine's record, ``face_start`` in each
solve's diagnostics (:meth:`SolveDiagnostics.to_dict`), ``None`` for a
solve given no face start.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import utility as ut
from .engine import ConvexProgram, EngineError, InfeasibleProgramError, SolveResult, solve
from .polytope import (DENSITY_EPS, DualPolytope, PolytopeInfeasibleError, PriceSystem,
                       build_polytope, max_expectation, super_hedge)
from .trading import Strategy, net_trades, roll_forward, terminal_claim
from .tree import MarketSpec

POSITIVITY_MARGIN = 1e-10
THRESHOLD_MARGIN = 10.0 * POSITIVITY_MARGIN   # x must clear the threshold by this
YHAT_RTOL = 1e-8
FD_STEP = 1e-4            # central-difference step of u'(x), relative to 1 + |x| or x - x0
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
    """The optimum: its value, netted strategy and claim, and the engine's
    row multipliers there (one per row of :attr:`PrimalProgram.G`), from
    which :meth:`PrimalProgram.dual_start` reads the dual optimum."""

    value: float
    strategy: Strategy
    claim: np.ndarray
    multipliers: np.ndarray
    diagnostics: dict


@dataclass
class DualSolution:
    """The optimum at scale ``y``: its value, leaf variables and price
    system, ``v'(y)``, and the netted ``buy`` and ``sell`` per node read
    off the engine's band-row multipliers (:func:`_dual_solution`), the
    optimal trades of the primal at ``x = -v'(y)``; 0 at the leaves."""

    value: float
    y: float
    leaf_vars: np.ndarray
    system: PriceSystem
    derivative: float
    diagnostics: dict
    buy: np.ndarray
    sell: np.ndarray


@dataclass
class SolveReport:
    """Both halves of a solve plus the identity residuals; ``primal``, the
    :class:`PrimalProgram` solved, is neither compared nor in :meth:`to_dict`."""

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
    primal: PrimalProgram = field(compare=False, repr=False)
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


@dataclass(frozen=True)
class PrimalProgram:
    """The primal of one market and utility: all of it that does not read
    the wealth ``x``, laid out once.  The variables are the buys and sells
    at ``tree.internal`` (at zero spread, ``frictionless``, one free net
    trade each: matched volume is a flat ray the barrier would wander
    along), ``n_trades`` in all, then one claim per leaf; ``T0``/``T1``
    map them to each leaf's cash and position.  The rows of ``G`` put each
    claim under its liquidation legs (bid then ask; one at zero spread),
    so that maximizing utility drives it onto the liquidation value, keep
    the trades nonnegative (not at zero spread) and, for half-line
    utilities, the wealth positive.  Those have a ``threshold`` ``x0 =
    sup E[-Z0 e]`` and its super-replicating ``hedge`` from one backward
    induction (:func:`super_hedge`); a market with no hedge admits an
    arbitrage (:class:`PrimalUnboundedError`).

    The KKT map between this program and its dual is read both ways: a
    dual optimum gives the primal's face start (:meth:`primal_start`,
    with :meth:`multipliers`), and a primal optimum gives the scaled-cone
    dual's (:meth:`dual_start`).

    ``faces`` is the face-finish memo of ``G`` (:attr:`ConvexProgram.faces`)
    that every program :meth:`at` builds shares, so a face split at one
    wealth, such as a report's, is reused at every other; it lives as long
    as this object."""

    market: MarketSpec
    spec: ut.UtilitySpec
    frictionless: bool
    n_trades: int
    T0: np.ndarray
    T1: np.ndarray
    G: np.ndarray
    mean_endowment: float
    threshold: Optional[float]
    hedge: Optional[Strategy]
    faces: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def build(cls, market: MarketSpec, spec: ut.UtilitySpec) -> PrimalProgram:
        tree = market.tree
        internal, L = tree.internal, tree.n_leaves
        frictionless = market.lam == 0.0
        n = 1 if frictionless else 2      # trades per node, legs per leaf
        on = tree.on_path[:, internal]
        claims = np.zeros((L, L))
        T0 = np.hstack([np.where(on, -market.ask_price[internal], 0.0),
                        np.where(on, market.bid_price[internal], 0.0)][:n] + [claims])
        T1 = np.hstack([np.where(on, 1.0, 0.0), np.where(on, -1.0, 0.0)][:n] + [claims])
        off = n * internal.size
        claim_cols = np.eye(L, off + L, k=off)
        legs = np.empty((n * L, off + L))
        for i, price in enumerate((market.bid_price, market.ask_price)[:n]):
            legs[i::n] = T0 + price[tree.leaves][:, None] * T1
        G = [legs - np.repeat(claim_cols, n, axis=0)]
        if not frictionless:
            G.append(np.eye(off, off + L))
        threshold = hedge = None
        if spec.wealth_domain == "positive":
            G.append(claim_cols)
            try:
                threshold, hedge = super_hedge(market, -market.endowment)
            except PolytopeInfeasibleError as exc:
                raise PrimalUnboundedError(f"primal unbounded: {exc}") from exc
        return cls(market, spec, frictionless, off, T0, T1, np.vstack(G),
                   float(tree.leaf_prob @ market.endowment), threshold, hedge)

    def w_ref(self, x: float) -> float:
        """The mean wealth ``x + E[e]``, the exponential objective's center."""
        return x + self.mean_endowment

    def check(self, x: float) -> None:
        """Raise :class:`PrimalInfeasibleError` unless ``x`` clears the
        threshold by more than ``THRESHOLD_MARGIN``."""
        if self.threshold is not None and x <= self.threshold + THRESHOLD_MARGIN:
            raise PrimalInfeasibleError(
                f"x={x} at or below the endowment threshold {self.threshold}")

    def at(self, x: float) -> ConvexProgram:
        """The engine's minimization at wealth ``x`` (:meth:`check` first),
        the exponential objective centered at :meth:`w_ref` to work at O(1)
        scale.  Its start, :meth:`start` at ``x``, is built only when the
        barrier runs (:attr:`ConvexProgram.x0`), and its face-finish memo
        is this object's :attr:`faces`."""
        self.check(x)
        spec, off = self.spec, self.n_trades
        tree, endow = self.market.tree, self.market.endowment
        prob, nv = tree.leaf_prob, self.G.shape[1]
        positive_wealth = self.threshold is not None
        exponential = spec.family == "exponential"
        h = np.zeros(self.G.shape[0])
        if positive_wealth:
            h[-tree.n_leaves:] = POSITIVITY_MARGIN - x - endow
        w_ref = self.w_ref(x)
        shift = w_ref if exponential else 0.0

        def objective(v):
            u, u1, u2 = ut.u_derivatives(spec, x + v[off:] + endow - shift)
            grad, hess = np.zeros(nv), np.zeros(nv)
            grad[off:], hess[off:] = -prob * u1, -prob * u2
            return -float(prob @ u), grad, hess

        def in_domain(v):
            if exponential:
                # np.exp overflows just past this exponent; a trial point out
                # there fails the line search's sufficient decrease anyway, so
                # rejecting it first changes no step
                return bool((-spec.gamma * (x + v[off:] + endow - w_ref) <= EXP_ARG_MAX).all())
            return not positive_wealth or bool((x + v[off:] + endow > 0.0).all())

        return ConvexProgram(objective=objective, G=self.G, h=h,
                             in_domain=in_domain, x0=lambda: self.start(x), faces=self.faces)

    def start(self, x: float) -> np.ndarray:
        """The barrier's closed-form start at a wealth ``x`` that passes
        :meth:`check`: for a half-line utility the hedge, plus an equal buy
        and sell at each node whose spread costs at most a third of ``x -
        x0`` on any path, with the claims another third below the legs; for
        exponential utility 1e-3 traded each way at each node, with the
        claims 1 below the legs."""
        off, tree = self.n_trades, self.market.tree
        if self.threshold is not None:
            v = self.point(self.hedge, np.zeros(tree.n_leaves))
            spare = (x - self.threshold) / 3.0
            if not self.frictionless:
                # a matched buy and sell costs the spread, lam * ask, at each node
                v[:off] += spare / float(np.max(-self.T0[:, :off].sum(axis=1)))
        else:
            v = np.zeros(self.G.shape[1])
            if not self.frictionless:
                v[:off] = 1e-3
            spare = 1.0
        phi0, phi1 = self.T0 @ v, self.T1 @ v
        # bid and ask agree at zero spread
        v[off:] = np.minimum(phi0 + self.market.bid_price[tree.leaves] * phi1,
                             phi0 + self.market.ask_price[tree.leaves] * phi1) - spare
        return v

    def point(self, strategy: Strategy, claim: np.ndarray) -> np.ndarray:
        """The variables of ``strategy`` and ``claim``."""
        internal = self.market.tree.internal
        buy, sell = strategy.buy[internal], strategy.sell[internal]
        trades = [buy - sell] if self.frictionless else [buy, sell]
        return np.concatenate(trades + [np.asarray(claim, dtype=float)])

    def multipliers(self, x: float, yhat: float, system: PriceSystem) -> np.ndarray:
        """Row multipliers at ``x`` from the dual optimum ``(yhat,
        system)``, by the KKT correspondence.  With ``Y = yhat`` (times
        ``exp(gamma w_ref)`` for the centered exponential objective), leaf
        ``l``'s legs split ``Y p_l Z0_l`` so that they price ``Y p_l
        Z1_l`` (at zero spread its one leg takes it all), node ``n``'s buy
        and sell rows carry the band slacks ``Y P(n) (ask_n Z0_n - Z1_n)``
        and ``Y P(n) (Z1_n - bid_n Z0_n)``, and positivity rows 0.  Only
        the exponential's read ``x``."""
        market, tree = self.market, self.market.tree
        log_y = np.log(yhat)
        if self.spec.family == "exponential":
            log_y += self.spec.gamma * self.w_ref(x)
        w0, w1 = (np.exp(log_y) * tree.node_prob * z for z in (system.z0, system.z1))
        if self.frictionless:
            rows = [w0[tree.leaves]]
        else:
            above, below = market.ask_price * w0 - w1, w1 - market.bid_price * w0
            spread = (market.ask_price - market.bid_price)[tree.leaves, None]
            legs = np.column_stack([above, below])[tree.leaves] / spread   # bid leg, ask leg
            rows = [legs.ravel(), above[tree.internal], below[tree.internal]]
        if self.threshold is not None:
            rows.append(np.zeros(tree.n_leaves))
        return np.maximum(np.concatenate(rows), 0.0)     # not below 0 by rounding

    def primal_start(self, x: float, dual: DualSolution) -> tuple:
        """The face start at ``x`` read off a dual optimum ``dual``: the
        point of its netted trades (:attr:`DualSolution.buy` and ``sell``),
        paired with :meth:`multipliers` at ``(dual.y, dual.system)``.  Its
        claim is the trades' liquidation value for exponential utility; for
        a half-line utility it is the smaller of that value and ``I(y Z0)
        - x - e`` at the leaves where ``Z0 > DENSITY_EPS``, which keeps it
        under the legs and, where the legs allow, free of the liquidation's
        rounding: at a leaf of small optimal wealth that rounding, relative
        to the wealth, shows in ``u'`` there."""
        market, leaves = self.market, self.market.tree.leaves
        strategy = roll_forward(market, 0.0, dual.buy, dual.sell)
        claim = terminal_claim(market, strategy)
        if self.threshold is not None:
            z0 = dual.system.z0[leaves]
            support = z0 > DENSITY_EPS
            target = (ut.eval_i(self.spec, dual.y * z0[support]) - x
                      - market.endowment[support])
            claim[support] = np.minimum(claim[support], target)
        return self.point(strategy, claim), self.multipliers(x, dual.y, dual.system)

    def dual_start(self, x: float, strategy: Strategy, lam: np.ndarray) -> tuple:
        """The face start of the scaled-cone dual (:func:`minimize_v_plus_xy`)
        read off a primal optimum at ``x``: its netted ``strategy`` and row
        multipliers ``lam``, by the KKT correspondence of :meth:`multipliers`
        read the other way, so that ``dual_start(x, strategy,
        multipliers(x, yhat, system))`` has the point ``yhat Z``.  The
        centered exponential objective's multipliers carry the factor
        ``exp(gamma w_ref(x))``, which is divided out; no other family's
        reads ``x``.  The point: leaf ``l``'s legs, bid ``b_l`` and ask
        ``a_l``, give ``W0_l = (b_l + a_l)/p_l`` and ``W1_l = (bid_l b_l +
        ask_l a_l)/p_l`` (at zero spread its one leg, and ``W1 = S W0``).
        The multipliers: ``P(n) sell_n`` on node ``n``'s lower band row and
        ``P(n) buy_n`` on its upper one, a leaf trading its liquidation, and
        0 on the positivity rows (all of them at zero spread, where the
        band rows are equalities)."""
        market, tree = self.market, self.market.tree
        L, prob = tree.n_leaves, tree.leaf_prob
        if self.spec.family == "exponential":
            lam = lam / np.exp(self.spec.gamma * self.w_ref(x))
        if self.frictionless:
            w0 = lam[:L] / prob
            return np.concatenate([w0, market.ask_price[tree.leaves] * w0]), np.zeros(2 * L)
        bid_leg, ask_leg = lam[0:2 * L:2], lam[1:2 * L:2]
        w0 = (bid_leg + ask_leg) / prob
        w1 = (market.bid_price[tree.leaves] * bid_leg
              + market.ask_price[tree.leaves] * ask_leg) / prob
        buy, sell = strategy.buy.copy(), strategy.sell.copy()
        held = strategy.phi1[tree.leaves]
        buy[tree.leaves], sell[tree.leaves] = np.maximum(-held, 0.0), np.maximum(held, 0.0)
        rows = np.zeros(2 * (tree.n_nodes + L))
        rows[0:2 * tree.n_nodes:2] = tree.node_prob * sell
        rows[1:2 * tree.n_nodes:2] = tree.node_prob * buy
        return np.concatenate([w0, w1]), rows

    def solution(self, v: np.ndarray) -> tuple:
        """``(strategy, claim)`` at the engine's point ``v``: the netted
        strategy of its trades, from zero cash, and its claim."""
        market, tree = self.market, self.market.tree
        K = tree.internal.size
        buy, sell = np.zeros(tree.n_nodes), np.zeros(tree.n_nodes)
        buy[tree.internal] = np.maximum(v[:K], 0.0)
        sell[tree.internal] = np.maximum(-v[:K] if self.frictionless else v[K: 2 * K], 0.0)
        strat = roll_forward(market, 0.0, *net_trades(buy, sell))
        return strat, terminal_claim(market, strat)


def solve_primal(market: MarketSpec, spec: ut.UtilitySpec, x: float,
                 face_start: Optional[tuple] = None,
                 program: Optional[PrimalProgram] = None) -> PrimalSolution:
    """Maximize expected utility of terminal wealth from cash ``x``.

    Returns the netted optimal strategy and the claim it generates.
    Raises :class:`PrimalInfeasibleError` when no wealth profile clears
    the positivity floor (half-line utilities with x at or below the
    endowment threshold) and :class:`PrimalUnboundedError` when the
    prices admit an arbitrage or the iterates diverge.  ``program``, the
    :class:`PrimalProgram` of ``market`` and ``spec``, saves laying the
    primal out (and finding a threshold) again.

    ``face_start`` pairs a point, such as a nearby optimum's
    :meth:`PrimalProgram.point`, with row multipliers
    (:meth:`PrimalProgram.multipliers`, or zeros), or is the pair read
    off a dual optimum (:meth:`PrimalProgram.primal_start`).  A read-off
    that already passes the engine's stopping test is accepted as given,
    with no finish round; a nearby optimum sits on the optimal face or
    next to it, so the engine first finishes it there with barrier-free
    Newton steps.  Without a face
    start, or when the engine rejects it, the barrier runs from the
    closed-form start (:meth:`PrimalProgram.start`), which is built only
    then.  The diagnostics carry the engine's record of the face start
    (``face_start``).
    """
    _check_wealth(x)
    primal = PrimalProgram.build(market, spec) if program is None else program
    prog = primal.at(x)
    if face_start is not None:
        prog = replace(prog, face_start=face_start)
    res = solve(prog)
    if res.status == "unbounded":
        raise PrimalUnboundedError(f"primal unbounded: {res.diagnostics.message}")
    if res.status != "optimal":
        raise EngineError(f"primal solve failed: {res.diagnostics.message}")

    strat, claim = primal.solution(res.x)
    value = float(market.tree.leaf_prob @ ut.eval_u(spec, x + claim + market.endowment))
    return PrimalSolution(value=value, strategy=strat, claim=claim,
                          multipliers=res.ineq_multipliers,
                          diagnostics=res.diagnostics.to_dict())


# ---------------------------------------------------------------------------
# dual side


def _dual_objective(poly: DualPolytope, spec: ut.UtilitySpec, y: float,
                    endow: np.ndarray, prob: np.ndarray):
    L = prob.size
    nv = poly.n_vars

    def objective(z):
        t = y * z[:L]
        v_vals, v_g, v_h = ut.v_derivatives(spec, t)
        grad, hess = np.zeros(nv), np.zeros(nv)     # the z1 half is 0
        np.multiply(prob, y * v_g + y * endow, out=grad[:L])
        np.multiply(prob, y * y * v_h, out=hess[:L])
        return float(prob @ (v_vals + t * endow)), grad, hess

    def in_domain(z):
        return bool((z[:L] > 0.0).all())

    return objective, in_domain


def solve_dual(market: MarketSpec, spec: ut.UtilitySpec, y: float,
               poly: Optional[DualPolytope] = None,
               face_start: Optional[tuple] = None) -> DualSolution:
    """Minimize the conjugate functional at scale ``y`` over the polytope.

    ``face_start``, a ``(point, multipliers)`` pair as :func:`solve_primal`
    takes it, is the engine's face start: a known optimum, such as the
    lift of a frictional optimizer onto its shadow market, passes the
    engine's stopping test as given and is accepted with no finish round
    and no barrier step.  Without one, or when the engine
    rejects it, the barrier runs from :meth:`DualPolytope.strict_point`,
    which is built only then; a solve given none raises the polytope's
    existence verdict (:meth:`DualPolytope.check_strict`) before any
    engine solve.  The diagnostics carry the engine's record of the face
    start (``face_start``).

    The exponential dual is solved at unit scale, with its diagnostics,
    and read at ``y`` (:func:`_exponential_at`): its minimizer does not
    depend on ``y``, and its objective scales with ``y``, so that a solve
    at small ``y`` would pass the engine's tests, relative to ``1 + |f|``.
    """
    if not 0.0 < y < np.inf:
        raise ut.UtilityDomainError(f"dual scale y must be positive and finite, got {y}")
    if poly is None:
        poly = build_polytope(market)
    scale = 1.0 if spec.family == "exponential" else y
    objective = _dual_objective(poly, spec, scale, market.endowment, market.tree.leaf_prob)
    if face_start is None:
        poly.check_strict()     # a market with no price system raises before any solve
    res = _solve_on_polytope(poly, *objective, poly.strict_point, face_start)
    dual = _dual_solution(market, poly, spec, scale, res.x, res.diagnostics.objective, res,
                          scale)
    if scale == y:
        return dual
    return _exponential_at(spec, dual, y, _exponential_shift(market, spec, dual))


def _solve_on_polytope(poly: DualPolytope, objective, in_domain, start,
                       face_start=None) -> SolveResult:
    """Engine solve over the constraints of ``poly``, its barrier from
    ``start()``, a function of no arguments called only when the barrier
    runs (:attr:`ConvexProgram.x0`), and first from the ``(point,
    multipliers)`` pair ``face_start`` if one is given
    (:attr:`ConvexProgram.face_start`); optimal or raises."""
    prog = ConvexProgram(objective=objective, A_eq=poly.A_eq,
                         b_eq=poly.b_eq, G=poly.G, h=poly.h, in_domain=in_domain,
                         x0=start, face_start=face_start)
    try:
        res = solve(prog)
    except InfeasibleProgramError as exc:
        raise PolytopeInfeasibleError(f"empty dual polytope: {exc}") from exc
    if res.status != "optimal":
        raise EngineError(f"dual solve failed: {res.diagnostics.message}")
    return res


def _dual_solution(market: MarketSpec, poly: DualPolytope, spec: ut.UtilitySpec, y: float,
                   z: np.ndarray, value: float, res: SolveResult,
                   kappa: float) -> DualSolution:
    """The dual read-out at scale ``y`` and polytope point ``z`` of the
    engine's solve ``res``: the price system, ``v'(y) = E[Z0 (V'(y Z0) +
    e)]`` and the diagnostics.

    The trades are the band rows' multipliers over ``kappa P(n)``, with
    ``kappa`` the scale the engine's objective was built at.  At positive
    spread node ``n``'s upper row gives its buy and its lower row its
    sell, netted; at zero spread its one equality row, among the last
    ``n_nodes`` of the block, gives the net trade ``-nu_n/(kappa P(n))``.
    A leaf's rows carry its liquidation, so leaves trade nothing."""
    tree = market.tree
    z0, prob = z[:tree.n_leaves], tree.leaf_prob
    derivative = float(prob @ (z0 * (ut.eval_v_prime(spec, y * z0) + market.endowment)))
    weight = kappa * tree.node_prob
    if market.lam == 0.0:
        trade = -res.eq_multipliers[-tree.n_nodes:] / weight
        buy, sell = np.maximum(trade, 0.0), np.maximum(-trade, 0.0)
    else:
        band = res.ineq_multipliers[:2 * tree.n_nodes]
        buy, sell = net_trades(band[1::2] / weight, band[0::2] / weight)
    buy[tree.leaves] = sell[tree.leaves] = 0.0
    return DualSolution(value=value, y=y, leaf_vars=z, system=poly.price_system(z),
                        derivative=derivative, diagnostics=res.diagnostics.to_dict(),
                        buy=buy, sell=sell)


def _exponential_shift(market: MarketSpec, spec: ut.UtilitySpec, unit: DualSolution) -> float:
    """``k = E[z log z]/gamma + E[z e]`` at the exp(gamma) dual's unit-scale
    minimizer ``unit``: its dual value curve is ``V(y) + y k``."""
    entropy, endow_mean = entropy_terms(market, unit.leaf_vars)
    return entropy / spec.gamma + endow_mean


def _exponential_at(spec: ut.UtilitySpec, unit: DualSolution, y: float,
                    k: float) -> DualSolution:
    """The exp(gamma) dual at scale ``y`` read off its unit-scale solution
    ``unit``, whose minimizer and trades it shares: the value ``V(y) + y
    k`` and the derivative ``V'(y) + k``, with ``k`` the
    :func:`_exponential_shift` of ``unit``."""
    return replace(unit, value=float(ut.eval_v(spec, y)) + y * k, y=y,
                   derivative=float(ut.eval_v_prime(spec, y)) + k)


def solve_entropy_core(market: MarketSpec, gamma: float,
                       poly: Optional[DualPolytope] = None) -> DualSolution:
    """The exp(gamma) dual at ``y = 1`` (:func:`solve_dual`), from the
    polytope's :meth:`DualPolytope.strict_point` (for another start, call
    :func:`solve_dual`).  On the polytope ``E[z] = 1``, so its objective
    is ``E[z log z]/gamma + E[z e]`` (:func:`entropy_terms`) less ``(1 +
    log gamma)/gamma``; its minimizer serves every scale."""
    return solve_dual(market, ut.UtilitySpec("exponential", gamma=gamma), 1.0, poly=poly)


def entropy_terms(market: MarketSpec, leaf_vars: np.ndarray) -> tuple:
    """``(E[z log z], E[z e])`` at the polytope point ``leaf_vars``."""
    prob = market.tree.leaf_prob
    z0 = leaf_vars[:market.tree.n_leaves]
    return float(prob @ (z0 * np.log(z0))), float(prob @ (z0 * market.endowment))


def minimize_v_plus_xy(market: MarketSpec, spec: ut.UtilitySpec, x: float,
                       poly: Optional[DualPolytope] = None, face_start=None):
    """Solve inf_y {v(y) + x y}; returns (yhat, value, DualSolution at yhat).

    Over the cone of scaled price systems ``W = y Z`` this is one convex
    program, min E[V(W0) + W0 (x + e)] over the polytope with its
    normalization row dropped; then ``yhat = E[W0]`` and ``Z = W / yhat``.
    The polytope's existence verdict (:meth:`DualPolytope.check_strict`)
    is raised first.  The cone solve's barrier starts at ``W`` equal to
    the polytope's :meth:`DualPolytope.strict_point`, built only when the
    barrier runs.  The engine's active-face finish puts ``W`` on its
    optimal face, where the degenerate band rows hold exactly.  The
    residual |v'(yhat) + x| must end below 1e-8 * (1 + |x|).

    ``face_start``, a ``(W, multipliers)`` pair such as a primal optimum's
    :meth:`PrimalProgram.dual_start`, is the engine's face start: accepted
    as given when it already passes the engine's stopping test, or else
    finished on its face, it takes no barrier step, and the strict point
    is not built.  When the engine rejects it, the barrier runs from the strict
    point as if it had not been given.  The diagnostics carry the engine's
    record of the face start (``face_start``).
    """
    _check_wealth(x)
    if poly is None:
        poly = build_polytope(market)
    poly.check_strict()
    prob = market.tree.leaf_prob
    cone = replace(poly, A_eq=poly.A_eq[1:], b_eq=poly.b_eq[1:])
    objective, in_domain = _dual_objective(poly, spec, 1.0, x + market.endowment, prob)
    # the polytope's own point, which it computes once, not the cone's copy
    res = _solve_on_polytope(cone, objective, in_domain, poly.strict_point, face_start)
    value = res.diagnostics.objective
    yhat = float(prob @ res.x[:market.tree.n_leaves])
    # the cone's variables are W = yhat Z: its objective is at scale 1
    sol = _dual_solution(market, poly, spec, yhat, res.x / yhat, value - x * yhat, res, 1.0)
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

    Every cold start is in closed form.  The dual polytope's existence
    verdict (:meth:`DualPolytope.check_strict`) is raised first, with no
    LP, so a market with no strictly consistent price system raises
    :class:`NoCpsError` (at zero spread, :class:`PolytopeInfeasibleError`)
    before any solve, also where an exponential primal would diverge.
    The strict point itself (:meth:`DualPolytope.strict_point`) is built
    only where a barrier starts from it: the exponential's entropy dual,
    and a half-line cone dual whose face start is rejected.
    The primal (:class:`PrimalProgram`) is built next, once, and kept in
    the report for :func:`verify_identities`; a half-line ``x`` within
    ``THRESHOLD_MARGIN`` of its threshold ``x0 = sup E[-Z0 e]`` raises
    :class:`PrimalInfeasibleError` naming it.

    One side runs the barrier and the other starts at its optimum, read
    off through the KKT map; each is still certified by its own KKT
    residuals.  Exponential utility runs it on the unit-scale dual
    (:func:`solve_entropy_core`), from the strict point, and gets yhat in
    closed form: with ``k = E[z log z]/gamma + E[z e]`` the dual value
    curve is ``V(y) + y k``, so ``yhat = u'(x + k)``.  A ``yhat`` so
    small, at large ``x + k``, that ``yhat Z0`` underflows to 0 at a leaf
    with ``Z0 > DENSITY_EPS`` (where ``I`` is undefined) raises
    :class:`EngineError`.  Its primal is face-started at the trades and
    multipliers read off the dual optimum
    (:meth:`PrimalProgram.primal_start`).  Half-line utilities run it on the
    primal, from its closed-form start (:meth:`PrimalProgram.start`),
    built from ``x - x0`` at the problem's scale, and get yhat from the
    scaled-cone dual (:func:`minimize_v_plus_xy`), started at the pair
    read off the primal optimum (:meth:`PrimalProgram.dual_start`); the
    cone's own start, the strict point, has ``E[W0] = 1`` whatever the
    scale of yhat.  Each side's diagnostics carry the engine's record of
    its face start (``face_start``), ``None`` for the side that ran cold.

    Every solve reads the endowment from ``market``: a report without the
    endowment is the report of ``market.with_endowment(np.zeros(L))``.
    Its threshold is 0, which :func:`compute_x0` returns like any other.
    """
    _check_wealth(x)
    return _solve_report(market, spec, x, build_polytope(market))


def _solve_report(market: MarketSpec, spec: ut.UtilitySpec, x: float,
                  poly: DualPolytope) -> SolveReport:
    """:func:`solve_report` at a checked ``x``, on the dual polytope
    ``poly`` of ``market``; the polytope does not read the endowment, so
    one, with its one verdict and its one strict point, serves a market
    and its zero-endowment copy.  The verdict
    (:meth:`DualPolytope.check_strict`) is raised before the primal is
    built.  The barrier runs on the dual for exponential utility and on
    the primal for log and power; the other side is face-started at the
    pair read off its optimum (:meth:`PrimalProgram.primal_start`,
    :meth:`PrimalProgram.dual_start`).  If the engine rejects that, the
    barrier runs from that side's own start, the primal's closed form or
    the cone dual's strict point, which is built then and only then."""
    tree = market.tree
    endow = market.endowment
    poly.check_strict()      # first: no strictly consistent price system, no solve
    program = PrimalProgram.build(market, spec)
    program.check(x)

    if spec.family == "exponential":
        unit = solve_entropy_core(market, spec.gamma, poly=poly)
        # v(y) = V(y) + y k is minimized where V'(y) = -(x + k); the closed
        # form keeps its relative accuracy even when yhat is tiny
        k = _exponential_shift(market, spec, unit)
        yhat = float(ut.eval_u_prime(spec, x + k))
        z0 = unit.leaf_vars[: tree.n_leaves]
        if not np.all(yhat * z0[z0 > DENSITY_EPS] > 0.0):
            raise EngineError(f"dual scale u'(x + k) = {yhat} underflows yhat*Z0 to 0 "
                              f"at x={x}, k={k}")
        dual = _exponential_at(spec, unit, yhat, k)
        dual_total = dual.value + x * yhat
        primal = solve_primal(market, spec, x, face_start=program.primal_start(x, dual),
                              program=program)
    else:
        primal = solve_primal(market, spec, x, program=program)
        yhat, dual_total, dual = minimize_v_plus_xy(
            market, spec, x, poly=poly,
            face_start=program.dual_start(x, primal.strategy, primal.multipliers))

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
        primal=program,
        diagnostics={"primal": primal.diagnostics, "dual": dual.diagnostics},
    )


def verify_identities(report: SolveReport) -> dict:
    """Residual table for the duality and marginal-utility identities.

    (a) duality gap, (b) per-leaf pointwise identity on the support of
    the dual density, (c) |u'(x) - E[U'(wealth)]| with u' by central
    difference of the primal value, (d) the wealth-weighted variant.
    The step is ``h = FD_STEP * (1 + |x|)``, and for a half-line utility
    ``FD_STEP * min(1 + |x|, x - x0 - THRESHOLD_MARGIN)``, with ``x0`` its
    threshold, so that ``x - h`` clears the margin :func:`solve_primal`
    asks of it.  Near that margin ``h`` is a share of a tiny clearance,
    and the quotient carries the solves' tolerance divided by ``h``; once
    ``h`` is below the rounding of ``x``, ``x +- h`` round to ``x`` and
    ``u_prime_fd`` (and the checks built on it) is NaN.  Both primal solves run on the report's
    :class:`PrimalProgram`, each from a point whose face is usually
    theirs, paired with the dual's multipliers (below):
    :func:`solve_primal` hands the pair to the engine as the face start,
    and the barrier runs only when it is rejected (a start outside the
    objective domain included).  ``x + h`` starts at the report's primal
    point ``p``, and ``x - h`` at its reflection ``2 p - p(x + h)``
    through the ``x + h`` optimum, exact to first order and inside the
    objective's domain where ``p`` may not be (a leaf's wealth that is
    small against ``h``).  One multiplier array, the report's at ``x``
    (:meth:`PrimalProgram.multipliers`), serves both sides under every
    family: a half-line program's multipliers do not read ``x``, and
    the centered exponential program does not read it at all (its
    objective and domain see ``x + v + e - w_ref(x)``, and its start
    ignores ``x``), so its optimal multipliers at ``x +- h`` are those at
    ``x``.  Both solves share the report's
    face-split memo (:attr:`PrimalProgram.faces`), so the faces the
    report's primal split are not split again.  ``fd_starts`` holds, per
    side, its ``x`` and the engine's record of its face start
    (``accepted``, ``rounds``, ``reason``).
    """
    market, spec, x = report.market, report.utility, report.x
    prob = market.tree.leaf_prob
    u_prime_leaf = ut.eval_u_prime(spec, x + report.claim + market.endowment)

    primal = report.primal
    scale = 1.0 + abs(x)
    if primal.threshold is not None:
        scale = min(scale, x - (primal.threshold + THRESHOLD_MARGIN))
    h = FD_STEP * scale
    point = primal.point(report.strategy, report.claim)
    lam = primal.multipliers(x, report.yhat, report.dual_system)

    def solve_at(xh, start):
        return solve_primal(market, spec, xh, program=primal, face_start=(start, lam))

    x_up, x_down = x + h, x - h
    up = solve_at(x_up, point)
    down = solve_at(x_down, 2.0 * point - primal.point(up.strategy, up.claim))
    # the steps as rounded, not 2 h: they differ where x dwarfs h, and
    # are 0, leaving no quotient, where h is below the rounding of x
    step = x_up - x_down
    u_prime_fd = (up.value - down.value) / step if step > 0.0 else np.nan
    fd_starts = [{"x": xs, **sol.diagnostics["face_start"]}
                 for xs, sol in ((x_up, up), (x_down, down))]

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
        "fd_starts": fd_starts,
    }
