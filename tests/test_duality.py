import math

import numpy as np
import pytest

from frictiondual.duality import (
    NoCpsError,
    PrimalInfeasibleError,
    compute_x0,
    minimize_v_plus_xy,
    solve_dual,
    solve_entropy_core,
    solve_primal,
    solve_report,
    superreplicate,
    value_v,
    verify_identities,
)
from frictiondual.generate import InstanceGenerator
from frictiondual.polytope import build_polytope, enumerate_vertices
from frictiondual.trading import roll_forward, terminal_claim
from frictiondual.tree import EventTree, MarketSpec, path_measure
from frictiondual.utility import UtilitySpec

LOG = UtilitySpec("log")
EXP1 = UtilitySpec("exponential", gamma=1.0)


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
    assert value_v(martingale_binomial, LOG, 1.0) == pytest.approx(-1.0, abs=1e-8)


def test_constant_endowment_is_cash(drift_binomial):
    c = 2.5
    shifted = drift_binomial.with_endowment([c, c])
    rep_e = solve_report(shifted, EXP1, 0.0, include_endowment=True)
    rep_0 = solve_report(shifted, EXP1, c, include_endowment=False)
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
    prob = path_measure(m.tree).leaf_prob
    L = m.tree.n_leaves
    oracle = max(float(-(prob * m.endowment) @ v[:L]) for v in V)
    assert compute_x0(m) == pytest.approx(oracle, abs=1e-7)


def test_infeasible_below_threshold(drift_binomial):
    m = drift_binomial.with_endowment([-2.0, -2.0])
    with pytest.raises(PrimalInfeasibleError):
        solve_report(m, LOG, 1.5)      # x0 = 2 here


def test_no_cps_raises():
    tree = EventTree(parent=[-1, 0, 0], time=[0, 1, 1], cond_prob=[1.0, 0.5, 0.5])
    market = MarketSpec(tree=tree, ask_price=[100.0, 120.0, 110.0], lam=0.01,
                        endowment=[0.0, 0.0])
    with pytest.raises(NoCpsError):
        solve_report(market, EXP1, 0.0)


def test_weak_duality(drift_binomial):
    rep = solve_report(drift_binomial, LOG, 2.0)
    for y in (0.2, rep.yhat, 1.0):
        assert rep.value <= value_v(drift_binomial, LOG, y) + 2.0 * y + 1e-8


def test_value_monotone_in_spread(drift_binomial):
    vals = [solve_report(drift_binomial.with_lambda(lam), EXP1, 1.0).value
            for lam in (0.05, 0.01, 0.002)]
    assert vals[0] <= vals[1] + 1e-9 <= vals[2] + 2e-9


def test_primal_value_concave_in_x(drift_binomial):
    xs = [1.0, 2.0, 3.0]
    us = [solve_primal(drift_binomial, LOG, x).value for x in xs]
    assert us[0] < us[1] < us[2]
    assert us[1] >= 0.5 * (us[0] + us[2]) - 1e-9


def test_dual_value_convex_decreasing_in_y(drift_binomial):
    ys = [0.5, 1.0, 1.5]
    vs = [value_v(drift_binomial, LOG, y) for y in ys]
    assert vs[0] > vs[1] > vs[2]
    assert vs[1] <= 0.5 * (vs[0] + vs[2]) + 1e-9


def test_dual_derivative_matches_fd(two_period_market):
    y = 0.8
    sol = solve_dual(two_period_market, EXP1, y)
    h = 1e-5
    fd = (value_v(two_period_market, EXP1, y + h)
          - value_v(two_period_market, EXP1, y - h)) / (2 * h)
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
    for y in (0.3, 1.0, 2.5):
        recon = (y / gamma) * (math.log(y / gamma) - 1.0) \
            + (y / gamma) * core.entropy + y * core.endow_mean
        assert value_v(two_period_market, spec, y) == pytest.approx(
            recon, rel=1e-7, abs=1e-9)


def test_zero_spread_routing(drift_binomial):
    # lam = 0 uses the frictionless formulation; the one-period binomial
    # has the closed form Delta* = log(3) / (40 gamma) here
    m = drift_binomial.with_lambda(0.0)
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
    buy[m.tree.internal_nodes()] = rng.uniform(0.0, 0.3, size=4)
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
    ref = minimize_scalar(lambda y: value_v(two_period_market, spec, y) + x * y,
                          bounds=(1e-2, 10.0), method="bounded",
                          options={"xatol": 1e-10})
    assert ref.success
    assert yhat == pytest.approx(ref.x, rel=1e-6)
    assert val == pytest.approx(ref.fun, rel=1e-9, abs=1e-12)
