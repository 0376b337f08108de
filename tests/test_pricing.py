import hashlib
import math

import numpy as np
import pytest

from frictiondual import duality
from frictiondual.duality import (PrimalProgram, PrimalUnboundedError, compute_x0,
                                 entropy_terms, solve_dual, solve_entropy_core,
                                 solve_report)
from frictiondual.generate import InstanceGenerator
from frictiondual.polytope import (PolytopeInfeasibleError, build_polytope,
                                   martingale_point, max_expectation, super_hedge)
from frictiondual.pricing import (
    indifference_price,
    price_bounds,
    price_dual,
    price_primal,
    price_shadow,
)
from frictiondual.trading import roll_forward, terminal_claim
from frictiondual.tree import EventTree, MarketSpec
from frictiondual.utility import UtilitySpec, utility_label
from oracles import max_margin, sample_polytope


def dual_from(market, spec, poly, start):
    """The engine's solve of ``market``'s dual at ``y = 1`` over ``poly``,
    its barrier from the polytope point ``start``."""
    objective = duality._dual_objective(poly, spec, 1.0, market.endowment,
                                        market.tree.leaf_prob)
    return duality._solve_on_polytope(poly, *objective, lambda: start)


def test_zero_endowment_prices_at_zero(drift_binomial):
    rep = indifference_price(drift_binomial, gamma=1.0, x=0.0)
    assert rep.p_primal == pytest.approx(0.0, abs=1e-8)
    assert rep.p_dual == pytest.approx(0.0, abs=1e-8)
    assert rep.p_shadow == pytest.approx(0.0, abs=1e-7)


def test_constant_endowment_prices_at_cash(drift_binomial):
    m = drift_binomial.with_endowment([3.0, 3.0])
    rep = indifference_price(m, gamma=0.8, x=0.0)
    assert rep.p_primal == pytest.approx(3.0, abs=1e-7)
    assert rep.p_dual == pytest.approx(3.0, abs=1e-7)
    assert rep.p_shadow == pytest.approx(3.0, abs=1e-6)


def test_routes_agree(two_period_market):
    gamma = 0.7
    rep = indifference_price(two_period_market, gamma, x=1.0)
    tol = 1e-5 * (1 + abs(rep.p_primal))
    assert rep.residuals["primal_vs_dual"] <= tol
    assert rep.residuals["primal_vs_shadow"] <= tol
    assert rep.residuals["dual_vs_shadow"] <= tol


def test_bounds_bracket_price(two_period_market):
    lo, hi = price_bounds(two_period_market)
    assert lo <= hi
    p = price_primal(two_period_market, gamma=0.5)
    assert lo - 1e-8 <= p <= hi + 1e-8


def test_price_independent_of_initial_wealth(two_period_market):
    gamma = 0.6
    p0 = price_primal(two_period_market, gamma, x=0.0)
    p7 = price_primal(two_period_market, gamma, x=7.0)
    assert abs(p0 - p7) <= 1e-7
    ps0 = price_shadow(two_period_market, gamma, x=0.0)
    ps3 = price_shadow(two_period_market, gamma, x=3.0)
    assert abs(ps0 - ps3) <= 1e-6


def test_cash_additivity(two_period_market):
    gamma = 0.9
    c = 4.0
    p, *_ = price_dual(two_period_market, gamma)
    shifted = two_period_market.with_endowment(two_period_market.endowment + c)
    pc, *_ = price_dual(shifted, gamma)
    assert pc == pytest.approx(p + c, abs=1e-8)


def test_risk_aversion_pushes_toward_lower_bound(two_period_market):
    lo, hi = price_bounds(two_period_market)
    prices = [price_dual(two_period_market, g)[0] for g in (0.05, 0.5, 2.0, 8.0)]
    # the certainty equivalent of a random endowment shrinks with gamma
    for a, b in zip(prices, prices[1:]):
        assert b <= a + 1e-9
    assert prices[-1] >= lo - 1e-8
    assert prices[0] <= hi + 1e-8


def test_one_solve_per_pricing_program(two_period_market, monkeypatch):
    from frictiondual import engine, polytope, pricing

    calls = {"report": 0, "lp": 0, "polytope": 0, "martingale_point": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # both reports run on one polytope, whose strict point is computed once
    monkeypatch.setattr(pricing, "_solve_report", counted("report", pricing._solve_report))
    monkeypatch.setattr(pricing, "build_polytope", counted("polytope", pricing.build_polytope))
    monkeypatch.setattr(polytope, "martingale_point",
                        counted("martingale_point", polytope.martingale_point))
    monkeypatch.setattr(engine, "solve_lp", counted("lp", engine.solve_lp))
    gamma, x = 0.7, 1.0
    rep = indifference_price(two_period_market, gamma, x=x)
    assert calls == {"report": 2, "lp": 0, "polytope": 1, "martingale_point": 1}
    monkeypatch.undo()
    # the shared reports give the standalone routes' prices
    assert rep.p_primal == pytest.approx(price_primal(two_period_market, gamma, x), abs=1e-8)
    assert rep.p_dual == pytest.approx(price_dual(two_period_market, gamma)[0], abs=1e-8)
    assert rep.p_shadow == pytest.approx(price_shadow(two_period_market, gamma, x), abs=1e-8)


def test_price_dual_warm_start_by_the_boundary():
    # the no-endowment entropy program's barrier started by the optimum
    # of the with-endowment one, which sits on the polytope's boundary: a
    # millionth of the way to the strictly feasible witness; the engine
    # must not stop there on a decrement that only looks negligible
    market = InstanceGenerator(seed=2033, max_periods=3).draw_feasible(0)
    poly = build_polytope(market)
    market_0 = market.with_endowment(np.zeros(market.tree.n_leaves))
    core_e = solve_entropy_core(market, 0.8, poly=poly)
    assert np.min(poly.G @ core_e.leaf_vars - poly.h) <= 0.0
    start = (1.0 - 1e-6) * core_e.leaf_vars + 1e-6 * poly.strict_point()
    assert 0.0 < np.min(poly.G @ start - poly.h) < 1e-5
    core_0 = dual_from(market_0, UtilitySpec("exponential", gamma=0.8), poly, start)
    ent_e, mean_e = entropy_terms(market, core_e.leaf_vars)
    ent_0, mean_0 = entropy_terms(market_0, core_0.x)
    p = (ent_e / 0.8 + mean_e) - (ent_0 / 0.8 + mean_0)
    cold = indifference_price(market, 0.8)
    assert p == pytest.approx(cold.p_dual, abs=1e-8)


@pytest.mark.parametrize("seed", [11, 2033])
def test_price_dual_runs_no_phase_one(seed, monkeypatch):
    # both entropy solves start at the closed-form point, with no LP, and
    # land on the optimum that barriers from the existence LP's witness reach
    from frictiondual import engine

    gen = InstanceGenerator(seed=seed, max_periods=3)
    gamma = 0.8
    calls = []
    solve_lp = engine.solve_lp

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_lp(*args, **kwargs)

    for i in range(5):
        market = gen.draw_feasible(i)
        poly = build_polytope(market)
        markets = (market, market.with_endowment(np.zeros(market.tree.n_leaves)))
        _, witness = max_margin(poly)
        assert np.abs(witness - martingale_point(market)).max() > 1e-3
        spec = UtilitySpec("exponential", gamma=gamma)
        cores = [dual_from(m, spec, poly, witness) for m in markets]
        terms = [entropy_terms(m, c.x) for m, c in zip(markets, cores)]
        want = sum(sign * (ent / gamma + mean)
                   for sign, (ent, mean) in zip((1.0, -1.0), terms))
        monkeypatch.setattr(engine, "solve_lp", counted)
        got, *_ = price_dual(market, gamma)
        monkeypatch.undo()
        assert calls == []
        assert got == pytest.approx(want, abs=1e-8)


@pytest.fixture(scope="module")
def dense_market():
    """A two-period generated market whose exponential dual density stays
    well away from zero, so every shadow node is defined, and whose
    shadow martingale polytope has dimension 2."""
    return InstanceGenerator(seed=11).draw_feasible(2)


def test_shadow_dual_same_optimum_from_any_start(dense_market):
    from frictiondual.duality import solve_dual, solve_report
    from frictiondual.shadow import construct_shadow

    rep = solve_report(dense_market, UtilitySpec("exponential", gamma=1.0), 1.0)
    z0 = rep.dual_leaf_vars[:dense_market.tree.n_leaves]
    assert z0.min() > 1e-3
    shadow = construct_shadow(dense_market, rep.dual_system)
    sm = shadow.as_market()
    lift = shadow.lift(z0)
    vertex = sample_polytope(build_polytope(sm), 1, seed=3)[0]
    perturbed = 0.7 * lift + 0.3 * np.concatenate([
        vertex.z0[sm.tree.leaves], vertex.z1[sm.tree.leaves]])
    assert np.abs(perturbed - lift).max() > 1e-2
    poly = build_polytope(sm)
    sols = [dual_from(sm, rep.utility, poly, z) for z in (lift, perturbed, martingale_point(sm))]
    # solve_dual's start is the shadow price's closed-form martingale density
    cold = solve_dual(sm, rep.utility, 1.0)
    assert cold.leaf_vars.tobytes() == sols[2].x.tobytes()
    for sol in sols:
        v = sol.diagnostics.objective
        assert v == pytest.approx(cold.value, abs=1e-8 * (1.0 + abs(cold.value)))


def test_shadow_route_duals_are_face_started_at_the_lift(dense_market, monkeypatch):
    # each shadow-market dual of the route is handed the lift of its
    # report's optimizer with zero multipliers as its face start, and is
    # accepted from it with no barrier step, at the cold route's price
    from frictiondual import pricing
    from frictiondual.duality import solve_dual
    from frictiondual.shadow import construct_shadow

    sols = []

    def spied(*args, **kwargs):
        sols.append(solve_dual(*args, **kwargs))
        return sols[-1]

    monkeypatch.setattr(pricing, "solve_dual", spied)
    rep_e, rep_0 = pricing._reports(dense_market, 1.0, 1.0)
    p = pricing._shadow_route(rep_e, rep_0)
    assert len(sols) == 2
    for sol in sols:
        assert sol.diagnostics["face_start"]["accepted"], sol.diagnostics["face_start"]
        assert sum(sol.diagnostics["newton_iterations"]) == 0
        assert sol.diagnostics["factorizations"] == 0
    cold = [solve_dual(construct_shadow(rep.market, rep.dual_system).as_market(),
                       rep.utility, 1.0).value for rep in (rep_e, rep_0)]
    assert abs(p - (cold[0] - cold[1])) <= 1e-9 * (1.0 + abs(p))


def test_pricing_runs_no_phase_one(dense_market, monkeypatch):
    from frictiondual import duality, engine, shadow as shadow_mod
    from frictiondual.duality import solve_report
    from frictiondual.shadow import (construct_shadow, shadow_from_dual_roundtrip,
                                     solve_frictionless, verify_shadow)

    calls = []
    solve_lp = engine.solve_lp

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_lp(*args, **kwargs)

    starts = []
    original = duality.solve_dual

    def spied(*args, **kwargs):
        starts.append(kwargs.get("face_start"))
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "solve_lp", counted)
    monkeypatch.setattr(shadow_mod, "solve_dual", spied)
    # the whole shadow-and-price request of the benchmark
    spec = UtilitySpec("exponential", gamma=1.0)
    rep = solve_report(dense_market, spec, 1.0)
    shadow = construct_shadow(dense_market, rep.dual_system)
    fr = solve_frictionless(shadow.as_market(), spec, 1.0, y=rep.yhat)
    verify_shadow(rep, shadow, fr)
    shadow_from_dual_roundtrip(rep, shadow)
    indifference_price(dense_market, 1.0, x=1.0)
    assert len(calls) == 0
    # both shadow checks start at the closed-form martingale density of the
    # shadow price (the default start), not at the lift of the report's
    # optimizer
    assert starts == [None, None]
    start = build_polytope(shadow.as_market()).strict_point()
    assert np.array_equal(start, martingale_point(shadow.as_market()))
    lift = shadow.lift(rep.dual_leaf_vars[:dense_market.tree.n_leaves])
    assert np.abs(start - lift).max() > 1e-2


def lp_bounds(market):
    """The two LPs over the polytope, (min, max) of E[z * e]; ``None``
    when the polytope is empty."""
    from frictiondual import engine

    poly = build_polytope(market)
    L = market.tree.n_leaves
    c = np.concatenate([market.tree.leaf_prob * market.endowment, np.zeros(L)])
    lo = engine.solve_lp(c, A_eq=poly.A_eq, b_eq=poly.b_eq, G=poly.G, h=poly.h)
    hi = engine.solve_lp(-c, A_eq=poly.A_eq, b_eq=poly.b_eq, G=poly.G, h=poly.h)
    if lo.status == "infeasible":
        return None
    assert lo.status == hi.status == "optimal"
    return lo.diagnostics.objective, -hi.diagnostics.objective


def assert_bounds_match_lps(market, monkeypatch):
    from frictiondual import engine

    want = lp_bounds(market)
    calls = []
    solve_lp = engine.solve_lp

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_lp(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(engine, "solve_lp", counted)
        if want is None:
            with pytest.raises(PolytopeInfeasibleError):
                price_bounds(market)
            with pytest.raises(PolytopeInfeasibleError):
                compute_x0(market)
        else:
            got = price_bounds(market)
            x0 = compute_x0(market)
    assert len(calls) == 0
    if want is not None:
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * (1.0 + abs(w))
        assert abs(x0 + want[0]) <= 1e-12 * (1.0 + abs(want[0]))
    return want


@pytest.mark.parametrize("seed", [11, 2033])
def test_price_bounds_match_two_lps(seed, monkeypatch):
    # the backward induction against the two LPs over the polytope, on
    # generated markets and on their zero-spread copies, some of which
    # admit an arbitrage and so have an empty polytope
    gen = InstanceGenerator(seed=seed)
    empty = 0
    for i in range(15):
        market = gen.draw_feasible(i)
        assert assert_bounds_match_lps(market, monkeypatch) is not None
        frictionless = MarketSpec(market.tree, market.ask_price, 0.0, market.endowment)
        empty += assert_bounds_match_lps(frictionless, monkeypatch) is None
    assert 0 < empty < 15


def binomial_call(T, u=1.1, d=0.92, lam=0.01, strike=100.0):
    """A T-period binomial tree from 100 with p = 1/2, one node per path,
    and the call payoff ``max(S_T - strike, 0)`` as its endowment."""
    parent, time, price = [-1], [0], [100.0]
    stage = [0]
    for t in range(1, T + 1):
        below = []
        for node in stage:
            for move in (u, d):
                below.append(len(parent))
                parent.append(node)
                time.append(t)
                price.append(price[node] * move)
        stage = below
    tree = EventTree(parent=parent, time=time, cond_prob=[1.0] + [0.5] * (len(parent) - 1))
    payoff = np.maximum(np.array(price)[tree.leaves] - strike, 0.0)
    return MarketSpec(tree, price, lam, payoff)


def test_price_bounds_one_period_closed_form():
    # 100 -> 110/105 at lambda = 0.06, endowment (1, 0): the sup mixes the
    # up leaf at its bid with the down leaf at its bid so that the mix
    # sits at the root's ask; the inf puts all mass on the down leaf
    tree = EventTree(parent=[-1, 0, 0], time=[0, 1, 1], cond_prob=[1.0, 0.5, 0.5])
    market = MarketSpec(tree, [100.0, 110.0, 105.0], 0.06, [1.0, 0.0])
    bid = market.bid_price
    lo, hi = price_bounds(market)
    assert lo == 0.0 and math.copysign(1.0, lo) == 1.0
    assert abs(hi - (100.0 - bid[2]) / (bid[1] - bid[2])) <= 1e-15
    assert abs(hi - 1.3 / 4.7) <= 1e-14


def test_price_bounds_flat_zero_spread_market(monkeypatch):
    # both children at the root's price and no spread: every leaf's band
    # is the one point 100, and the bounds are the endowment's extremes
    tree = EventTree(parent=[-1, 0, 0], time=[0, 1, 1], cond_prob=[1.0, 0.5, 0.5])
    market = MarketSpec(tree, [100.0, 100.0, 100.0], 0.0, [1.0, 0.0])
    assert assert_bounds_match_lps(market, monkeypatch) == (0.0, 1.0)


@pytest.mark.parametrize("e", [20.0, 50.0, 110.0])
def test_zero_spread_trinomial_with_a_small_density_prices(e):
    # 100 -> 110/100/90 at zero spread, with an unhedgeable endowment at the
    # middle leaf: its dual density, 3.5e-9 to 1e-12, lies just above
    # DENSITY_EPS, so Z1/Z0 there carries the rounding of the rows Z1 = S Z0
    from frictiondual.shadow import construct_shadow

    tree = EventTree(parent=[-1, 0, 0, 0], time=[0, 1, 1, 1], cond_prob=[1.0, 0.3, 0.4, 0.3])
    market = MarketSpec(tree, [100.0, 110.0, 100.0, 90.0], 0.0, [0.0, e, 0.0])
    rep = solve_report(market, UtilitySpec("exponential", gamma=1.0), 1.0)
    assert np.array_equal(construct_shadow(market, rep.dual_system).value, market.ask_price)
    price = indifference_price(market, 1.0, x=1.0)
    routes = (price.p_primal, price.p_dual, price.p_shadow)
    assert max(routes) - min(routes) <= 1e-5 * (1.0 + abs(price.p_primal))
    assert price.lower_bound - 1e-8 <= min(routes)
    assert max(routes) <= price.upper_bound + 1e-8


def test_empty_polytope_is_infeasible_not_a_solver_failure():
    # at lambda = 0.01 both bids of 100 -> 110/105 lie above the root's ask
    tree = EventTree(parent=[-1, 0, 0], time=[0, 1, 1], cond_prob=[1.0, 0.5, 0.5])
    market = MarketSpec(tree, [100.0, 110.0, 105.0], 0.01, [1.0, 0.0])
    with pytest.raises(PolytopeInfeasibleError):
        price_bounds(market)
    with pytest.raises(PolytopeInfeasibleError):
        compute_x0(market)


def test_price_bounds_binomial_call(monkeypatch):
    market = binomial_call(6)
    assert market.tree.n_nodes == 127
    lo, hi = assert_bounds_match_lps(market, monkeypatch)
    assert 0.0 < lo < hi


def hedged_markets():
    """The first 150 draws of generator seeds 11 and 2026 that a price
    system charges at every node (no arbitrage), then the T = 6 call."""
    for seed in (11, 2026):
        gen = InstanceGenerator(seed=seed)
        for i in range(150):
            market = gen.draw(i)
            try:
                max_expectation(market, market.endowment)
            except PolytopeInfeasibleError:
                continue    # an empty polytope
            yield market
    yield binomial_call(6)


def test_super_hedge_dominates_the_claim():
    # from cash sup E[Z0 f], the hedge liquidates to at least f at every
    # leaf, for f = e and f = -e; a market with no hedge has a node whose
    # band misses its children's prices, so no strictly consistent price
    # system either
    hedged = skipped = 0
    for market in hedged_markets():
        for f in (market.endowment, -market.endowment):
            try:
                value, hedge = super_hedge(market, f)
            except PolytopeInfeasibleError:
                assert martingale_point(market) is None
                skipped += 1
                continue
            assert value == max_expectation(market, f)
            assert hedge.initial_cash == 0.0
            strategy = roll_forward(market, value, hedge.buy, hedge.sell)
            liquidation = terminal_claim(market, strategy)
            assert np.all(liquidation >= f - 1e-12 * (1.0 + np.abs(f).max()))
            hedged += 1
    assert hedged == 258 and skipped == 122


def test_bounds_and_threshold_keep_their_bits():
    # compute_x0 and price_bounds read the same backward induction as the
    # hedge: the digest of their float bits on every non-empty market of
    # the first 150 draws of seeds 11 and 2026, as before the hedge
    digest, count = hashlib.sha256(), 0
    for seed in (11, 2026):
        gen = InstanceGenerator(seed=seed)
        for i in range(150):
            market = gen.draw(i)
            try:
                values = (compute_x0(market), *price_bounds(market))
            except PolytopeInfeasibleError:
                continue
            count += 1
            for v in values:
                digest.update(float(v).hex().encode())
    assert count == 189
    assert digest.hexdigest() == \
        "7e78aa70eb44e87ebd1711fbeca88db894dfb8c9b573a12829f778386cbb9845"


def test_band_missing_its_hull_has_no_hedge():
    # node 1 at 100 -> 120/110 is an arbitrage that a price system skips
    # (Q charges node 1 nothing), so the polytope is not empty; no hedge
    # of the clip form exists there, and the half-line primal is unbounded
    tree = EventTree(parent=[-1, 0, 0, 0, 1, 1, 2, 2, 3, 3],
                     time=[0, 1, 1, 1, 2, 2, 2, 2, 2, 2], cond_prob=[1.0] + [1 / 3] * 3 + [0.5] * 6)
    market = MarketSpec(tree, [100.0, 100.0, 110.0, 90.0, 120.0, 110.0, 115.0, 105.0, 95.0, 85.0],
                        0.01, [1.0, -1.0, 0.5, 0.0, -2.0, 2.0])
    assert max_expectation(market, market.endowment) > 0.0
    assert compute_x0(market) > 0.0
    with pytest.raises(PolytopeInfeasibleError, match="band misses"):
        super_hedge(market, market.endowment)
    with pytest.raises(PrimalUnboundedError):
        PrimalProgram.build(market, UtilitySpec("log"))


@pytest.mark.parametrize("spec", [UtilitySpec("log"), UtilitySpec("power", alpha=0.5),
                                  UtilitySpec("exponential", gamma=1.0)],
                         ids=utility_label)
def test_dual_price_of_the_endowment_within_bounds(spec):
    # E[Z0 e] at each report's dual optimizer is a price system's price
    # of the endowment, so it lies within the bounds
    gen = InstanceGenerator(seed=11)
    for i in range(10):
        market = gen.draw_feasible(i)
        x = 1.0 if spec.wealth_domain == "real" else max(compute_x0(market), 0.0) + 5.0
        rep = solve_report(market, spec, x)
        L = market.tree.n_leaves
        price = float(market.tree.leaf_prob @ (rep.dual_leaf_vars[:L] * market.endowment))
        lo, hi = price_bounds(market)
        assert lo - 1e-8 <= price <= hi + 1e-8
