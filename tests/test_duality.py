import math
import re
from dataclasses import replace

import numpy as np
import pytest

from frictiondual import duality, engine
from frictiondual.duality import (
    PrimalInfeasibleError,
    PrimalUnboundedError,
    compute_x0,
    entropy_terms,
    minimize_v_plus_xy,
    solve_dual,
    solve_entropy_core,
    solve_primal,
    solve_report,
    verify_identities,
)
from frictiondual.engine import EngineError, SolveDiagnostics, SolveResult
from frictiondual.generate import InstanceGenerator
from frictiondual.polytope import (NoCpsError, PolytopeInfeasibleError, build_polytope,
                                   martingale_point)
from frictiondual.pricing import indifference_price
from frictiondual.trading import roll_forward, terminal_claim
from frictiondual.tree import EventTree, MarketSpec
from frictiondual.utility import UtilitySpec
import oracles
from oracles import children, enumerate_vertices, path_to_root, superreplicate

LOG = UtilitySpec("log")
EXP1 = UtilitySpec("exponential", gamma=1.0)


def _with_zero_multipliers(market, spec, x, point):
    """A face start for the primal at ``x`` with no dual at hand:
    ``point`` paired with zero inequality multipliers."""
    return point, np.zeros(duality.primal_program(market, spec, x).G.shape[0])


def test_martingale_no_trade_exponential(martingale_binomial):
    # the ask process is already a martingale: trading only burns spread,
    # so the optimum is no trade and u(0) = -exp(0) = -1
    rep = solve_report(martingale_binomial, EXP1, 0.0)
    assert rep.value == pytest.approx(-1.0, abs=1e-8)
    assert np.abs(rep.strategy.buy).max() < 1e-6
    assert np.abs(rep.strategy.sell).max() < 1e-6
    assert rep.yhat == pytest.approx(1.0, abs=1e-7)
    assert rep.gap < 1e-8


def test_martingale_log_value(martingale_binomial):
    rep = solve_report(martingale_binomial, LOG, 1.0)
    assert rep.value == pytest.approx(0.0, abs=1e-8)
    assert rep.yhat == pytest.approx(1.0, abs=1e-6)
    # v(1) = E[-log(z) - 1] at the uniform density
    assert solve_dual(martingale_binomial, LOG, 1.0).value == pytest.approx(-1.0, abs=1e-8)


def test_constant_endowment_is_cash(drift_binomial):
    c = 2.5
    shifted = drift_binomial.with_endowment([c, c])
    rep_e = solve_report(shifted, EXP1, 0.0)
    rep_0 = solve_report(shifted.with_endowment([0.0, 0.0]), EXP1, c)
    assert rep_e.value == pytest.approx(rep_0.value, rel=1e-8)
    assert rep_e.yhat == pytest.approx(rep_0.yhat, rel=1e-7)


def test_exponential_wealth_scaling(two_period_market):
    spec = UtilitySpec("exponential", gamma=0.4)
    r1 = solve_report(two_period_market, spec, 1.0)
    r2 = solve_report(two_period_market, spec, 4.0)
    factor = math.exp(-0.4 * 3.0)
    assert r2.value == pytest.approx(r1.value * factor, rel=1e-8)
    assert r2.yhat == pytest.approx(r1.yhat * factor, rel=1e-7)


def test_compute_x0_constant_endowment(martingale_binomial):
    # E[z0] = 1 on the whole polytope, so a constant endowment -1 gives
    # exactly x0 = 1
    m = martingale_binomial.with_endowment([-1.0, -1.0])
    assert compute_x0(m) == pytest.approx(1.0, abs=1e-8)


def test_compute_x0_vertex_oracle(drift_binomial):
    m = drift_binomial.with_endowment([3.0, -2.0])
    poly = build_polytope(m)
    V = enumerate_vertices(poly)
    assert V is not None
    prob = m.tree.leaf_prob
    L = m.tree.n_leaves
    oracle = max(float(-(prob * m.endowment) @ v[:L]) for v in V)
    assert compute_x0(m) == pytest.approx(oracle, abs=1e-7)


def test_infeasible_below_threshold(drift_binomial):
    m = drift_binomial.with_endowment([-2.0, -2.0])
    with pytest.raises(PrimalInfeasibleError):
        solve_report(m, LOG, 1.5)      # x0 = 2 here


def no_cps_market():
    """Both children strictly above the root's ask, at 1% spread: no band
    price reaches the root."""
    tree = EventTree(parent=[-1, 0, 0], time=[0, 1, 1], cond_prob=[1.0, 0.5, 0.5])
    return MarketSpec(tree=tree, ask_price=[100.0, 120.0, 110.0], lam=0.01,
                      endowment=[0.0, 0.0])


def test_no_cps_raises():
    with pytest.raises(NoCpsError):
        solve_report(no_cps_market(), EXP1, 0.0)


@pytest.mark.parametrize("call", [
    lambda m: solve_report(m, EXP1, 0.0),
    lambda m: solve_dual(m, LOG, 1.0),
    lambda m: indifference_price(m, 1.0),
], ids=["solve_report", "solve_dual", "indifference_price"])
def test_no_cps_is_decided_with_no_lp(call, monkeypatch):
    # the closed form finds no band price, and that alone proves there is
    # no strictly consistent price system: no existence LP confirms it
    calls = spy_lps(monkeypatch)
    with pytest.raises(NoCpsError):
        call(no_cps_market())
    assert calls == []


def test_weak_duality(drift_binomial):
    rep = solve_report(drift_binomial, LOG, 2.0)
    for y in (0.2, rep.yhat, 1.0):
        assert rep.value <= solve_dual(drift_binomial, LOG, y).value + 2.0 * y + 1e-8


def test_value_monotone_in_spread(drift_binomial):
    vals = [solve_report(replace(drift_binomial, lam=lam), EXP1, 1.0).value
            for lam in (0.05, 0.01, 0.002)]
    assert vals[0] <= vals[1] + 1e-9 <= vals[2] + 2e-9


def test_primal_value_concave_in_x(drift_binomial):
    xs = [1.0, 2.0, 3.0]
    us = [solve_primal(drift_binomial, LOG, x).value for x in xs]
    assert us[0] < us[1] < us[2]
    assert us[1] >= 0.5 * (us[0] + us[2]) - 1e-9


def test_dual_value_convex_decreasing_in_y(drift_binomial):
    ys = [0.5, 1.0, 1.5]
    vs = [solve_dual(drift_binomial, LOG, y).value for y in ys]
    assert vs[0] > vs[1] > vs[2]
    assert vs[1] <= 0.5 * (vs[0] + vs[2]) + 1e-9


def test_dual_derivative_matches_fd(two_period_market):
    y = 0.8
    sol = solve_dual(two_period_market, EXP1, y)
    h = 1e-5
    fd = (solve_dual(two_period_market, EXP1, y + h).value
          - solve_dual(two_period_market, EXP1, y - h).value) / (2 * h)
    assert sol.derivative == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_scale_search_residual_contract(two_period_market):
    x = 1.3
    yhat, val, sol = minimize_v_plus_xy(two_period_market, LOG, x)
    assert abs(sol.derivative + x) <= 1e-8 * (1 + abs(x))
    # the searched value matches the primal to solver tolerance
    primal = solve_primal(two_period_market, LOG, x)
    assert abs(val - primal.value) <= 1e-7 * (1 + abs(val))


def test_exponential_fast_path_consistency(two_period_market):
    # the entropy-core shortcut and the direct scale search must agree
    spec = UtilitySpec("exponential", gamma=0.7)
    rep = solve_report(two_period_market, spec, 1.0)
    yhat, val, _ = minimize_v_plus_xy(two_period_market, spec, 1.0)
    assert rep.yhat == pytest.approx(yhat, rel=1e-6)
    assert rep.value == pytest.approx(val, rel=1e-8)


def test_entropy_core_scale_invariance(two_period_market):
    # one minimizer serves every scale: v(y) reconstructed from the core
    # matches a direct dual solve
    gamma = 0.7
    spec = UtilitySpec("exponential", gamma=gamma)
    core = solve_entropy_core(two_period_market, gamma)
    entropy, endow_mean = entropy_terms(two_period_market, core.leaf_vars)
    for y in (0.3, 1.0, 2.5):
        recon = (y / gamma) * (math.log(y / gamma) - 1.0) \
            + (y / gamma) * entropy + y * endow_mean
        assert solve_dual(two_period_market, spec, y).value == pytest.approx(
            recon, rel=1e-7, abs=1e-9)


def test_zero_spread_routing(drift_binomial):
    # lam = 0 uses the frictionless formulation; the one-period binomial
    # has the closed form Delta* = log(3) / (40 gamma) here
    m = replace(drift_binomial, lam=0.0)
    gamma = 0.5
    spec = UtilitySpec("exponential", gamma=gamma)
    rep = solve_report(m, spec, 0.0)
    delta = math.log(3.0) / (40.0 * gamma)
    expected = -(0.5 * math.exp(-gamma * delta * 30.0)
                 + 0.5 * math.exp(gamma * delta * 10.0))
    assert rep.value == pytest.approx(expected, rel=1e-8)
    net = rep.strategy.phi1[0]
    assert net == pytest.approx(delta, abs=1e-6)
    assert rep.gap <= 1e-8 * (1 + abs(rep.value))


def test_superreplication_of_attainable_claim(two_period_market):
    m = two_period_market
    rng = np.random.default_rng(2)
    n = m.tree.n_nodes
    buy = np.zeros(n)
    buy[m.tree.internal] = rng.uniform(0.0, 0.3, size=4)
    st = roll_forward(m, 1.0, buy, np.zeros(n))
    claim = terminal_claim(m, st)
    short, strat = superreplicate(m, 1.0, claim)
    assert short <= 1e-9
    vals = terminal_claim(m, strat)
    assert np.all(vals >= claim - 1e-7)
    # shifting the claim up by 1 forces a shortfall of exactly 1
    short2, _ = superreplicate(m, 1.0, claim + 1.0)
    assert short2 == pytest.approx(1.0, abs=1e-7)


def test_verify_identities_record(two_period_market):
    spec = UtilitySpec("power", alpha=0.6)
    x0 = compute_x0(two_period_market)
    rep = solve_report(two_period_market, spec, x0 + 4.0)
    rec = verify_identities(rep)
    assert rec["relative_gap"] <= 1e-6
    assert rec["max_leaf_identity_residual"] <= 1e-6 * (
        1 + np.abs(rep.x + rep.claim + two_period_market.endowment).max())
    assert rec["marginal_mean_residual"] <= 1e-5
    assert rec["marginal_weighted_residual"] <= 1e-5 * (1 + abs(rep.x))
    assert rec["yhat_vs_fd"] <= 1e-5 * (1 + rep.yhat)


def test_report_serialization(martingale_binomial):
    rep = solve_report(martingale_binomial, EXP1, 0.5)
    d = rep.to_dict()
    assert d["utility"] == "exp:gamma=1"
    assert isinstance(d["claim"], list)
    assert d["relative_gap"] < 1e-6


@pytest.mark.parametrize("index,spec", [
    (5, LOG), (9, LOG),
    # two leaves end at wealth ~5e-5, where U' magnifies the primal's
    # distance from its liquidation legs about 1e6 times
    (5, UtilitySpec("power", alpha=0.5)),
], ids=["5", "9", "5-power"])
def test_scale_cone_degenerate_face(index, spec):
    # many band rows are active at these optima; the barrier points alone
    # miss the leaf identity, the engine's active-face finish must recover it
    market = InstanceGenerator(seed=11).draw_feasible(index)
    x = max(compute_x0(market), 0.0) + 5.0
    rep = solve_report(market, spec, x)
    wealth = x + rep.claim + market.endowment
    resid = rep.leaf_identity_residuals
    mask = ~np.isnan(resid)
    assert np.max(resid[mask] / (1.0 + np.abs(wealth[mask]))) <= 1e-6
    _, _, sol = minimize_v_plus_xy(market, spec, x)
    assert abs(sol.derivative + x) <= 1e-8 * (1.0 + abs(x))


@pytest.mark.parametrize("spec", [LOG, UtilitySpec("power", alpha=0.6)],
                         ids=["log", "power"])
def test_scale_cone_matches_scalar_search(two_period_market, spec):
    # independent oracle: minimize v(y) + x y by scipy's bounded scalar search
    from scipy.optimize import minimize_scalar

    x = compute_x0(two_period_market) + 4.0
    yhat, val, _ = minimize_v_plus_xy(two_period_market, spec, x)
    ref = minimize_scalar(lambda y: solve_dual(two_period_market, spec, y).value + x * y,
                          bounds=(1e-2, 10.0), method="bounded",
                          options={"xatol": 1e-10})
    assert ref.success
    assert yhat == pytest.approx(ref.x, rel=1e-6)
    assert val == pytest.approx(ref.fun, rel=1e-9, abs=1e-12)


def test_failed_engine_solves_raise_engine_error(two_period_market, monkeypatch):
    def failing_solve(program, *args, **kwargs):
        diag = SolveDiagnostics(status="numerical_failure", message="forced failure")
        return SolveResult(np.zeros(program.n), np.zeros(0), np.zeros(0), diag)

    monkeypatch.setattr(duality, "solve", failing_solve)
    with pytest.raises(EngineError, match="forced failure"):
        solve_primal(two_period_market, LOG, 6.0)
    with pytest.raises(EngineError, match="forced failure"):
        solve_dual(two_period_market, LOG, 0.5)


@pytest.mark.parametrize("spec", [LOG, UtilitySpec("exponential", gamma=0.7)],
                         ids=["log", "exp"])
def test_warm_primal_start_matches_cold(two_period_market, spec):
    # a neighbouring optimum, finished on its face, solves x + h
    x, h = 6.0, 1e-3
    near = solve_primal(two_period_market, spec, x)
    start = duality.primal_point(two_period_market, near.strategy, near.claim)
    cold = solve_primal(two_period_market, spec, x + h)
    warm = solve_primal(two_period_market, spec, x + h,
                        x0=_with_zero_multipliers(two_period_market, spec, x + h, start))
    assert not warm.diagnostics["start"]["rejected"]
    face = warm.diagnostics["start"]["face"]
    assert face["accepted"]
    assert warm.diagnostics["events"] == [f"face start accepted after {face['rounds']} rounds"]
    assert warm.value == pytest.approx(cold.value, rel=1e-12)
    assert sum(warm.diagnostics["newton_iterations"]) < sum(cold.diagnostics["newton_iterations"])


def test_primal_point_is_net_trades_at_zero_spread(drift_binomial):
    market = replace(drift_binomial, lam=0.0)
    sol = solve_primal(market, LOG, 5.0)
    v = duality.primal_point(market, sol.strategy, sol.claim)
    internal = market.tree.internal
    K = internal.size
    assert v.size == K + market.tree.n_leaves
    assert np.array_equal(v[:K], sol.strategy.buy[internal] - sol.strategy.sell[internal])
    assert np.array_equal(v[K:], sol.claim)


def test_infeasible_primal_start_falls_back_to_the_closed_form_start(two_period_market):
    # claims far below zero wealth break the positivity rows even after
    # the pull: the barrier runs from the closed-form start, bit for bit
    cold = solve_primal(two_period_market, LOG, 6.0)
    start = duality.primal_point(two_period_market, cold.strategy, cold.claim - 1e6)
    warm = solve_primal(two_period_market, LOG, 6.0,
                        x0=_with_zero_multipliers(two_period_market, LOG, 6.0, start))
    assert warm.diagnostics["start"]["rejected"]
    assert warm.diagnostics["events"] == [
        "face start rejected after 0 rounds: start outside the objective domain",
        "pulled start not strictly feasible: closed-form start"] + cold.diagnostics["events"]
    assert warm.value == cold.value
    assert warm.claim.tobytes() == cold.claim.tobytes()


def test_primal_program_raises_exactly_at_the_threshold():
    # the program's start exists exactly above x0 + THRESHOLD_MARGIN, and
    # is strictly feasible there, down to x0 + 1e-6
    gen = InstanceGenerator(seed=11)
    for i in range(10):
        market = gen.draw_feasible(i)
        x0 = compute_x0(market)
        for spec in (LOG, UtilitySpec("power", alpha=0.5)):
            for x in (max(x0, 0.0) + 5.0, x0 + 0.5, x0 + 1e-3, x0 + 1e-6):
                prog = duality.primal_program(market, spec, x)
                assert np.all(prog.G @ prog.x0 - prog.h > 0.0), (i, x)
                assert prog.in_domain(prog.x0)
            for x in (x0 + duality.THRESHOLD_MARGIN, x0, x0 - 1.0):
                with pytest.raises(PrimalInfeasibleError, match=re.escape(f"threshold {x0}")):
                    duality.primal_program(market, spec, x)


def test_threshold_guard_by_the_lp(drift_binomial):
    # no generic start certifies x this close to x0 = 2: the LP decides
    m = drift_binomial.with_endowment([-2.0, -2.0])
    x0 = compute_x0(m)
    with pytest.raises(PrimalInfeasibleError, match=re.escape(f"threshold {x0}")):
        solve_report(m, LOG, x0 - 1e-6)
    rep = solve_report(m, LOG, x0 + 1e-6)
    assert rep.relative_gap <= 1e-6


def test_half_line_report_runs_no_lp(two_period_market, monkeypatch):
    # the closed-form witness stands in for the existence check's LP, and
    # the threshold comes with the primal start's hedge, once per report
    # and with no LP, at x0 + 4 and x0 + 0.1 alike
    calls, thresholds = [], []
    solve_lp, threshold = engine.solve_lp, duality.super_hedge

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_lp(*args, **kwargs)

    def spied(*args, **kwargs):
        thresholds.append(1)
        return threshold(*args, **kwargs)

    x0 = compute_x0(two_period_market)
    monkeypatch.setattr(engine, "solve_lp", counting)
    monkeypatch.setattr(duality, "super_hedge", spied)
    solve_report(two_period_market, LOG, x0 + 4.0)
    assert len(calls) == 0 and len(thresholds) == 1
    rep = solve_report(two_period_market, LOG, x0 + 0.1)
    assert len(calls) == 0 and len(thresholds) == 2
    assert rep.relative_gap <= 1e-6


def spy_lps(monkeypatch):
    """The list that records each ``engine.solve_lp`` call from now on."""
    calls, solve_lp = [], engine.solve_lp

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(engine, "solve_lp", counting)
    return calls


@pytest.mark.parametrize("endowment", [(3.0, -2.0), (1.0, -1.0), (-1.0, 0.5), (-2.0, -2.0)])
@pytest.mark.parametrize("spec", [LOG, UtilitySpec("power", alpha=0.5)], ids=["log", "power"])
def test_cold_primal_by_the_threshold_runs_no_lp(drift_binomial, spec, endowment, monkeypatch):
    # the closed-form start is strictly feasible 1e-3 above the threshold,
    # and below it the program raises before any solve
    market = drift_binomial.with_endowment(list(endowment))
    x0 = compute_x0(market)
    calls = spy_lps(monkeypatch)
    sol = solve_primal(market, spec, x0 + 1e-3)
    assert sol.diagnostics["status"] == "optimal"
    assert sol.diagnostics["start"] == {"rejected": False, "face": None}
    with pytest.raises(PrimalInfeasibleError, match=re.escape(f"threshold {x0}")):
        solve_primal(market, spec, x0 - 1e-6)
    assert calls == []


@pytest.mark.parametrize("spec", [LOG, EXP1], ids=["log", "exp"])
def test_zero_spread_report_runs_no_lp(drift_binomial, spec, monkeypatch):
    # at zero spread the dual starts at the closed-form martingale density
    market = replace(drift_binomial, lam=0.0).with_endowment([1.0, -0.5])
    calls = spy_lps(monkeypatch)
    starts, solve = [], duality.solve

    def spied(prog):
        starts.append(prog.x0)
        return solve(prog)

    monkeypatch.setattr(duality, "solve", spied)
    rep = solve_report(market, spec, 5.0)
    assert calls == []
    # the dual, solved first, starts at the closed-form martingale density
    assert np.array_equal(starts[0], martingale_point(market))
    assert rep.relative_gap <= 1e-6


def test_zero_spread_arbitrage_still_reports_an_empty_polytope():
    # no existence check runs at zero spread: the price has no martingale
    # density, so the dual has no start, before the primal finds it
    # unbounded
    tree = EventTree(parent=[-1, 0, 0], time=[0, 1, 1], cond_prob=[1.0, 0.5, 0.5])
    market = MarketSpec(tree=tree, ask_price=[100.0, 120.0, 110.0], lam=0.0,
                        endowment=[1.0, -0.5])
    x = 3.0
    with pytest.raises(PrimalUnboundedError):
        duality.primal_program(market, LOG, x)
    with pytest.raises(PolytopeInfeasibleError):
        solve_report(market, LOG, x)


def loop_primal_layout(market):
    """Leaf-by-leaf reference of :func:`duality._primal_layout`'s maps."""
    tree = market.tree
    internal = [i for i in range(tree.n_nodes) if children(tree, i)]
    K, L = len(internal), tree.n_leaves
    pos = {node: k for k, node in enumerate(internal)}
    nv = 2 * K + L
    s, bid = market.ask_price, market.bid_price
    T0 = np.zeros((L, nv))
    T1 = np.zeros((L, nv))
    for li, leaf in enumerate(tree.leaves):
        for node in path_to_root(tree, int(leaf)):
            if node in pos:
                k = pos[node]
                T0[li, k] = -s[node]
                T0[li, K + k] = bid[node]
                T1[li, k] = 1.0
                T1[li, K + k] = -1.0
    return T0, T1


def loop_primal_rows(market, spec, x):
    """Row-by-row reference of :func:`duality.primal_program`'s ``G``/``h``."""
    tree = market.tree
    T0, T1 = loop_primal_layout(market)
    L = tree.n_leaves
    K = (T0.shape[1] - L) // 2
    frictionless = market.lam == 0.0
    if frictionless:
        T0 = np.hstack([T0[:, :K], T0[:, 2 * K:]])
        T1 = np.hstack([T1[:, :K], T1[:, 2 * K:]])
        off = K
    else:
        off = 2 * K
    nv = off + L
    endow = market.endowment
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
    if spec.wealth_domain == "positive":
        for li in range(L):
            row = np.zeros(nv)
            row[off + li] = 1.0
            rows.append(row)
            h_vals.append(duality.POSITIVITY_MARGIN - x - endow[li])
    return np.array(rows), np.array(h_vals)


def loop_superreplication_rows(market, x, claim):
    """Row-by-row reference of :func:`superreplicate`'s LP ``G``/``h``."""
    tree = market.tree
    T0, T1 = loop_primal_layout(market)
    L = tree.n_leaves
    nv = T0.shape[1]
    K = (nv - L) // 2
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
    return np.array(rows), np.array(h_vals)


def assert_same_bytes(got, want, name):
    assert got.dtype == want.dtype and got.shape == want.shape, name
    assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("seed", [11, 2033])
def test_primal_builders_match_loop_reference(seed, monkeypatch):
    calls = []

    def spy(c, **lp):
        calls.append(lp)
        return engine.solve_lp(c, **lp)

    monkeypatch.setattr(oracles, "solve_lp", spy)
    gen = InstanceGenerator(seed=seed)
    rng = np.random.default_rng(seed)
    for i in range(15):
        drawn = gen.draw(i)
        for lam in (drawn.lam, 0.0):
            market = replace(drawn, lam=lam)
            *_, T0, T1 = duality._primal_layout(market)
            T0_ref, T1_ref = loop_primal_layout(market)
            assert_same_bytes(T0, T0_ref, "T0")
            assert_same_bytes(T1, T1_ref, "T1")
            zero_endowment = market.with_endowment(np.zeros(market.tree.n_leaves))
            for spec in (LOG, EXP1):
                for m in (market, zero_endowment):
                    # a half-line program has a start only above its
                    # threshold, and only where a price system charges
                    # every node (no arbitrage)
                    x = 1.5
                    if spec is LOG and martingale_point(m) is not None:
                        x += compute_x0(m)
                    elif spec is LOG:
                        with pytest.raises(PrimalUnboundedError):
                            duality.primal_program(m, spec, x)
                        continue
                    prog = duality.primal_program(m, spec, x)
                    G_ref, h_ref = loop_primal_rows(m, spec, x)
                    assert_same_bytes(prog.G, G_ref, "G")
                    assert_same_bytes(prog.h, h_ref, "h")
            claim = rng.standard_normal(market.tree.n_leaves)
            calls.clear()
            superreplicate(market, 2.0, claim)
            (lp,) = calls
            G_ref, h_ref = loop_superreplication_rows(market, 2.0, claim)
            # the reference keeps the layout's leaf-claim columns; they are
            # zero in every row, and the LP leaves them out
            claim_cols = np.arange(G_ref.shape[1] - 1 - market.tree.n_leaves,
                                   G_ref.shape[1] - 1)
            assert not G_ref[:, claim_cols].any()
            G_ref = np.delete(G_ref, claim_cols, axis=1)
            assert_same_bytes(lp["G"], G_ref, "superreplication G")
            assert_same_bytes(lp["h"], h_ref, "superreplication h")


def three_period_market(lam):
    """Three periods, a trinomial node (node 1) among binomial ones, and
    prices that move both ways at every node, so no arbitrage at zero
    spread either."""
    parent = [-1, 0, 0, 1, 1, 1, 2, 2] + [3, 3, 4, 4, 5, 5, 6, 6, 7, 7]
    time = [0, 1, 1, 2, 2, 2, 2, 2] + [3] * 10
    prob = [1.0, 0.55, 0.45, 0.3, 0.4, 0.3, 0.5, 0.5,
            0.6, 0.4, 0.5, 0.5, 0.45, 0.55, 0.5, 0.5, 0.35, 0.65]
    price = [100.0, 112.0, 95.0, 125.0, 110.0, 100.0, 105.0, 88.0,
             135.0, 116.0, 119.0, 102.0, 108.0, 93.0, 113.0, 98.0, 95.0, 82.0]
    tree = EventTree(parent=parent, time=time, cond_prob=prob)
    return MarketSpec(tree=tree, ask_price=price, lam=lam,
                      endowment=[1.5, -0.5, 0.0, 2.0, -1.0, 0.5, -2.0, 1.0, 0.3, -0.7])


SHADOW_FAMILIES = [LOG, UtilitySpec("power", alpha=0.5), EXP1]


@pytest.mark.parametrize("spec", SHADOW_FAMILIES, ids=["log", "power", "exp"])
@pytest.mark.parametrize("lam", [0.02, 0.0])
def test_report_primal_starts_at_the_shadow_replication(spec, lam):
    # the report's primal, started at the shadow-market replication of
    # the dual optimum, reaches the cold solve's optimum in fewer steps
    market = three_period_market(lam)
    x = 1.0 if spec.wealth_domain == "real" else 10.0
    rep = solve_report(market, spec, x)
    cold = solve_primal(market, spec, x)
    d = rep.diagnostics["primal"]
    assert d["start"] == {"point": "shadow", "reason": None, "rejected": False,
                          "face": {"accepted": True, "rounds": d["start"]["face"]["rounds"],
                                   "reason": None}}
    assert rep.value == pytest.approx(cold.value, rel=1e-12)
    assert np.max(np.abs(rep.claim - cold.claim)) <= 1e-9
    assert sum(d["newton_iterations"]) < sum(cold.diagnostics["newton_iterations"])


def test_dual_optimum_gives_the_primal_multipliers():
    # scaled by yhat, the dual optimum is the primal's Lagrange
    # multiplier: mapped onto primal_program's rows it is nonnegative and
    # meets stationarity at the shadow start, at the generated spreads
    # and at zero spread where that polytope is not empty
    gen = InstanceGenerator(seed=11)
    checked = 0
    for i in range(10):
        market = gen.draw_feasible(i)
        for m in (market, replace(market, lam=0.0)):
            if martingale_point(m) is None:
                continue
            for spec in SHADOW_FAMILIES:
                x = 1.0 if spec.wealth_domain == "real" else max(compute_x0(m), 0.0) + 5.0
                rep = solve_report(m, spec, x)
                start, record = duality._shadow_start(m, spec, x, rep.yhat, rep.dual_system)
                assert record["point"] == "shadow"
                point, lam = start
                prog = duality.primal_program(m, spec, x)
                _, g, _ = prog.objective(point)
                assert lam.shape == prog.h.shape and np.all(lam >= 0.0), (i, m.lam, spec)
                stationarity = np.linalg.norm(g - prog.G.T @ lam) / (1.0 + np.linalg.norm(g))
                assert stationarity <= 1e-9, (i, m.lam, spec)
                checked += 1
    assert checked == 48      # 10 markets at their spread, 6 at zero spread


def test_zero_density_dual_keeps_the_generic_start():
    # an unhedgeable endowment of 200 at the middle leaf of a trinomial:
    # the exponential dual density there is ~4e-13, I(yhat * Z0) is out
    # of reach, and the primal runs exactly the cold solve
    tree = EventTree(parent=[-1, 0, 0, 0], time=[0, 1, 1, 1], cond_prob=[1.0, 0.3, 0.4, 0.3])
    market = MarketSpec(tree=tree, ask_price=[100.0, 110.0, 100.0, 90.0], lam=0.01,
                        endowment=[0.0, 200.0, 0.0])
    rep = solve_report(market, EXP1, 1.0)
    assert rep.zero_density_leaves == [2]
    d = rep.diagnostics["primal"]
    assert d["start"] == {"point": "generic", "reason": "zero dual density at node 2",
                          "rejected": False, "face": None}
    cold = solve_primal(market, EXP1, 1.0)
    assert np.array_equal(rep.claim, cold.claim)
    assert d["newton_iterations"] == cold.diagnostics["newton_iterations"]


def _face_and_barrier_solves(market, spec, x, start):
    """The engine's solves of the primal at ``x`` from the pulled point
    of ``start``, with the pair ``start`` as the face start and without
    one."""
    prog = duality.primal_program(market, spec, x)
    pulled = (1.0 - duality.WARM_PULL) * start[0] + duality.WARM_PULL * prog.x0
    return (engine.solve(replace(prog, x0=pulled, face_start=start)),
            engine.solve(replace(prog, x0=pulled)))


def _assert_barrier_bits(res, barrier):
    """``res``, from a rejected face start, is ``barrier`` bit for bit,
    with the rejection as its one more event."""
    face = res.diagnostics.face_start
    assert not face["accepted"]
    for got, want in [(res.x, barrier.x), (res.ineq_multipliers, barrier.ineq_multipliers),
                      (res.eq_multipliers, barrier.eq_multipliers)]:
        assert got.tobytes() == want.tobytes()
    got, want = res.diagnostics.to_dict(), barrier.diagnostics.to_dict()
    assert got.pop("events") == [f"face start rejected after {face['rounds']} rounds: "
                                 f"{face['reason']}"] + want.pop("events")
    assert got == want


def test_face_start_is_accepted_on_generated_markets():
    # the report's primal and verify_identities' x +- h primals finish on
    # the face of their start, with no barrier step, at
    # the cold barrier solve's optimum
    gen = InstanceGenerator(seed=11)
    rejected, short = [], []
    for i in range(10):
        market = gen.draw_feasible(i)
        for spec in SHADOW_FAMILIES:
            x = 1.0 if spec.wealth_domain == "real" else max(compute_x0(market), 0.0) + 5.0
            rep = solve_report(market, spec, x)
            h = duality.FD_STEP * (1.0 + abs(x))
            point = duality.primal_point(market, rep.strategy, rep.claim)
            solves = [(x, None, rep.value, rep.claim, rep.diagnostics["primal"])]
            for xh in (x + h, x - h):
                # paired with the dual's multipliers at xh, as verify_identities does
                start = (point, duality.primal_multipliers(market, spec, xh, rep.yhat,
                                                           rep.dual_system))
                warm = solve_primal(market, spec, xh, x0=start)
                solves.append((xh, start, warm.value, warm.claim, warm.diagnostics))
            for xs, start, value, claim, d in solves:
                face = d["start"]["face"]
                assert not d["start"]["rejected"], (i, spec, xs)
                if not face["accepted"]:
                    rejected.append((i, spec.family))
                    _assert_barrier_bits(*_face_and_barrier_solves(market, spec, xs, start))
                    continue
                assert d["events"] == [f"face start accepted after {face['rounds']} rounds"]
                assert d["newton_iterations"] == [] and d["factorizations"] == 0
                assert max(d["kkt_stationarity"], d["kkt_feasibility"],
                           d["kkt_complementarity"]) <= 10 * engine.TOL
                cold = solve_primal(market, spec, xs)
                if cold.diagnostics["face_steps"] == 0:
                    # the cold solve kept its barrier point, short of the
                    # face: the face start's value is the higher one
                    short.append((i, spec.family))
                    assert value > cold.value
                    continue
                assert value == pytest.approx(cold.value, rel=1e-12), (i, spec, xs)
                assert np.max(np.abs(claim - cold.claim)) <= 1e-9, (i, spec, xs)
            assert solves[0][4]["start"]["point"] == "shadow"
            if spec.family == "exponential":
                # and it meets the dual value to rounding
                assert rep.relative_gap <= 1e-13, (i, spec)
    # the report's own primal is always accepted; under power(1/2) the
    # x +- h optima of markets 5 and 9 put a leaf's wealth near zero,
    # where the face's quadratic model overshoots (and x - h takes
    # market 5's start out of the domain), so the barrier solves those
    assert rejected == [(5, "power"), (5, "power"), (9, "power")]
    assert short == [(5, "exponential")] * 3


def test_rejected_face_start_returns_the_barrier_solve(two_period_market):
    # the log optimum at x = 60 lies off the optimal face at x = 6: the
    # face start is rejected and logged, and the solve is the barrier's
    # from the pulled start, bit for bit.  Under exp(1) a row leaves the
    # face in each of the finish's rounds; under log five rows leave,
    # one step is taken and the next is not half of it
    far = solve_primal(two_period_market, LOG, 60.0)
    point = duality.primal_point(two_period_market, far.strategy, far.claim)
    for spec, reason in ((LOG, "KKT residuals"), (EXP1, "no step on the face")):
        start = _with_zero_multipliers(two_period_market, spec, 6.0, point)
        res, barrier = _face_and_barrier_solves(two_period_market, spec, 6.0, start)
        face = res.diagnostics.face_start
        assert face["reason"].startswith(reason)
        _assert_barrier_bits(res, barrier)
        warm = solve_primal(two_period_market, spec, 6.0, x0=start)
        assert warm.diagnostics["start"] == {"rejected": False, "face": face}


def test_rejected_shadow_start_is_recorded(two_period_market, monkeypatch):
    # a start whose pull is not strictly feasible shows in the start
    # record and in the events, and the report still reaches the optimum
    # from the closed-form start
    shadow_start = duality._shadow_start

    def far_below(market, spec, x, yhat, system):
        start, record = shadow_start(market, spec, x, yhat, system)
        start[0][-market.tree.n_leaves:] -= 1e6      # claims far below zero wealth
        return start, record

    cold = solve_report(two_period_market, LOG, 6.0)
    monkeypatch.setattr(duality, "_shadow_start", far_below)
    rep = solve_report(two_period_market, LOG, 6.0)
    d = rep.diagnostics["primal"]
    assert d["start"] == {"point": "shadow", "reason": None, "rejected": True,
                          "face": {"accepted": False, "rounds": 0,
                                   "reason": "start outside the objective domain"}}
    assert d["events"][:2] == [
        "face start rejected after 0 rounds: start outside the objective domain",
        "pulled start not strictly feasible: closed-form start"]
    assert "phase_one_slack" not in d
    assert rep.value == pytest.approx(cold.value, rel=1e-10)


# ---------------------------------------------------------------------------
# known solver defects, pinned: each fails today, and the change that mends
# it (a scaled dual start, or a dual finish that reaches its face) must
# turn the pin into a plain test


@pytest.mark.xfail(strict=True, raises=EngineError,
                   reason="entropy dual ends with KKT residual 1.25e-4")
def test_unhedgeable_trinomial_endowment_reports():
    tree = EventTree(parent=[-1, 0, 0, 0], time=[0, 1, 1, 1], cond_prob=[1.0, 0.3, 0.4, 0.3])
    market = MarketSpec(tree=tree, ask_price=[100.0, 110.0, 100.0, 90.0], lam=0.01,
                        endowment=[0.0, 50.0, 0.0])
    assert solve_report(market, EXP1, 1.0).relative_gap <= 1e-6


@pytest.mark.xfail(strict=True, raises=EngineError,
                   reason="entropy dual ends on a quiet floor exit, KKT residual 1.3e-4")
def test_generated_market_2026_126_reports():
    market = InstanceGenerator(seed=2026).draw_feasible(126)
    assert solve_report(market, EXP1, 1.0).relative_gap <= 1e-6


@pytest.mark.xfail(strict=True, raises=EngineError,
                   reason="cone dual stays at its start, E[W0] = 1, where yhat ~ 1e-12")
def test_log_report_at_large_wealth():
    market = InstanceGenerator(seed=7).draw_feasible(0)
    assert solve_report(market, LOG, 1e12).relative_gap <= 1e-6


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="entropy dual keeps its barrier point: node 22's buy-side "
                          "complementarity is 1.91e-7")
def test_generated_market_5_113_trades_on_the_attained_side():
    from frictiondual.shadow import construct_shadow, solve_frictionless, verify_shadow

    market = InstanceGenerator(seed=5).draw_feasible(113)
    rep = solve_report(market, EXP1, 1.0)
    shadow = construct_shadow(market, rep.dual_system)
    fr = solve_frictionless(shadow.as_market(), EXP1, 1.0, y=rep.yhat)
    assert verify_shadow(rep, shadow, fr)["direction_violations"] == []
