import warnings

import numpy as np
import pytest

from frictiondual.duality import solve_report
from frictiondual.generate import InstanceGenerator
from frictiondual.shadow import (
    ShadowConstructionError,
    construct_shadow,
    position_map_rank,
    shadow_from_dual_roundtrip,
    solve_frictionless,
    verify_shadow,
)
from frictiondual.tree import EventTree, MarketSpec
from frictiondual.utility import UtilitySpec

EXP1 = UtilitySpec("exponential", gamma=1.0)


def shadow_pipeline(market, spec, x):
    rep = solve_report(market, spec, x)
    sh = construct_shadow(market, rep.dual_system)
    fr = solve_frictionless(sh.as_market(), spec, x, y=rep.yhat)
    return rep, sh, fr


def test_shadow_lies_in_spread(two_period_market):
    rep = solve_report(two_period_market, EXP1, 1.0)
    sh = construct_shadow(two_period_market, rep.dual_system)
    ok = ~sh.undefined
    assert np.all(sh.value[ok] <= two_period_market.ask_price[ok] + 1e-12)
    assert np.all(sh.value[ok] >= two_period_market.bid_price[ok] - 1e-12)
    classes = sh.classification()
    assert all(c in ("at_ask", "at_bid", "interior", "undefined") for c in classes)


def test_shadow_market_is_frictionless(two_period_market):
    rep = solve_report(two_period_market, EXP1, 1.0)
    sh = construct_shadow(two_period_market, rep.dual_system)
    sm = sh.as_market()
    assert sm.lam == 0.0
    assert np.allclose(sm.ask_price, sh.value)
    assert np.allclose(sm.endowment, two_period_market.endowment)


def test_zero_spread_shadow_is_the_price_itself(drift_binomial):
    m = drift_binomial.with_lambda(0.0)
    rep = solve_report(m, EXP1, 0.0)
    sh = construct_shadow(m, rep.dual_system)
    ok = ~sh.undefined
    assert np.allclose(sh.value[ok], m.ask_price[ok], rtol=1e-9)


def test_frictionless_match_and_directions(drift_binomial):
    rep, sh, fr = shadow_pipeline(drift_binomial, EXP1, 0.5)
    rec = verify_shadow(rep, sh, fr)
    assert rec["value_gap"] <= 1e-6 * (1 + abs(rep.value))
    assert rec["dual_gap"] <= 1e-6 * (1 + abs(rep.dual_value))
    assert rec["direction_violations"] == []
    if rec["position_unique"] and rec["position_gap"] is not None:
        assert rec["position_gap"] <= 1e-5


def test_frictionless_dominates_frictional(two_period_market):
    # trading at any single price inside the spread is at least as good
    # as trading with the spread
    rep, sh, fr = shadow_pipeline(two_period_market, EXP1, 1.0)
    assert fr.value >= rep.value - 1e-8 * (1 + abs(rep.value))
    # ... and the shadow price is the one where equality holds
    assert abs(fr.value - rep.value) <= 1e-6 * (1 + abs(rep.value))


def test_roundtrip_back_into_cone(two_period_market):
    rep = solve_report(two_period_market, EXP1, 1.0)
    sh = construct_shadow(two_period_market, rep.dual_system)
    rec = shadow_from_dual_roundtrip(rep, sh)
    assert rec["member"]
    assert rec["matches_dual_value"]
    assert rec["polytope_violation"] <= 1e-8
    assert rec["dual_value_gap"] <= 1e-6 * (1 + abs(rep.dual_value))


def test_log_utility_pipeline(two_period_market):
    spec = UtilitySpec("log")
    rep, sh, fr = shadow_pipeline(two_period_market, spec, 8.0)
    rec = verify_shadow(rep, sh, fr)
    assert rec["value_gap"] <= 1e-6 * (1 + abs(rep.value))
    assert rec["direction_violations"] == []


def test_frictionless_solve_requires_zero_spread(drift_binomial):
    with pytest.raises(ShadowConstructionError):
        solve_frictionless(drift_binomial, EXP1, 0.0)


def test_frictionless_arbitrage_detected():
    tree = EventTree(parent=[-1, 0, 0], time=[0, 1, 1], cond_prob=[1.0, 0.5, 0.5])
    market = MarketSpec(tree=tree, ask_price=[100.0, 130.0, 110.0], lam=0.0,
                        endowment=[0.0, 0.0])
    with pytest.raises(ShadowConstructionError):
        solve_frictionless(market, EXP1, 0.0)


def test_position_map_rank_binomial(drift_binomial):
    rank, K = position_map_rank(drift_binomial.with_lambda(0.0))
    assert (rank, K) == (1, 1)


def test_shadow_rejects_foreign_dual(drift_binomial, martingale_binomial):
    # feeding a dual point whose ratio leaves the spread must raise
    rep = solve_report(martingale_binomial, EXP1, 0.0)
    wide = drift_binomial.with_lambda(0.001)
    with pytest.raises(ShadowConstructionError):
        construct_shadow(wide, rep.dual_system)


def test_exponential_line_search_never_overflows():
    # the frictionless line search on this market's shadow price tries
    # steps where exp(-gamma (w - w_ref)) overflows; the primal's domain
    # guard must reject them before the objective is evaluated
    market = InstanceGenerator(seed=11).draw_feasible(5)
    rep = solve_report(market, EXP1, 1.0)
    sh = construct_shadow(market, rep.dual_system)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fr = solve_frictionless(sh.as_market(), EXP1, 1.0, y=rep.yhat)
    assert abs(fr.value - rep.value) <= 1e-6 * (1.0 + abs(rep.value))


def test_tiny_density_node_trades_on_its_band_edge():
    # generated seed-11 market 9: node 12 carries Z0 ~ 2e-6 and the primal
    # buys there, so the dual ratio must sit exactly at the ask; a barrier
    # point leaves it ~3e-5 below, off the face the buy requires
    market = InstanceGenerator(seed=11).draw_feasible(9)
    rep, sh, fr = shadow_pipeline(market, EXP1, 1.0)
    assert verify_shadow(rep, sh, fr)["direction_violations"] == []
