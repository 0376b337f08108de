import warnings
from dataclasses import replace

import numpy as np
import pytest

from frictiondual import shadow as shadow_mod
from frictiondual.cli import main
from frictiondual.duality import (EXP_ARG_MAX, PrimalProgram, compute_x0, solve_primal,
                                 solve_report)
from frictiondual.generate import InstanceGenerator
from frictiondual.polytope import PriceSystem
from frictiondual.shadow import (
    ShadowConstructionError,
    ShadowPrice,
    construct_shadow,
    shadow_from_dual_roundtrip,
    solve_frictionless,
    verify_shadow,
)
from frictiondual.tree import EventTree, MarketSpec, save_market
from frictiondual.utility import UtilitySpec

EXP1 = UtilitySpec("exponential", gamma=1.0)
LOG = UtilitySpec("log")
POWER = UtilitySpec("power", alpha=0.5)


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


def loop_shadow(market, dual):
    """Node-by-node reference of :func:`construct_shadow`'s price and classes."""
    ask, bid = market.ask_price, market.bid_price
    value = np.empty(ask.size)
    classes = []
    for k in range(ask.size):
        if dual.z0[k] > 1e-12:
            value[k] = min(max(dual.z1[k] / dual.z0[k], bid[k]), ask[k])
            if abs(value[k] - ask[k]) <= 1e-7 * ask[k]:
                classes.append("at_ask")
            elif abs(value[k] - bid[k]) <= 1e-7 * ask[k]:
                classes.append("at_bid")
            else:
                classes.append("interior")
        else:
            value[k] = ask[k]
            classes.append("undefined")
    return value, classes


def test_construct_shadow_matches_loop_reference(drift_binomial):
    gen = InstanceGenerator(seed=11)
    cases = []
    for i in range(10):
        market = gen.draw_feasible(i)
        cases.append((market, solve_report(market, EXP1, 1.0).dual_system))
    # a node with no density
    cases.append((drift_binomial, PriceSystem(z0=np.array([1.0, 0.0, 1.0]),
                                              z1=np.array([99.5, 1.0, 89.5]))))
    seen = set()
    for market, dual in cases:
        sh = construct_shadow(market, dual)
        value, classes = loop_shadow(market, dual)
        assert sh.value.tobytes() == value.tobytes()
        assert sh.classification() == classes
        seen.update(classes)
    assert seen == {"at_ask", "at_bid", "interior", "undefined"}


def test_shadow_market_is_frictionless(two_period_market):
    rep = solve_report(two_period_market, EXP1, 1.0)
    sh = construct_shadow(two_period_market, rep.dual_system)
    sm = sh.as_market()
    assert sm.lam == 0.0
    assert np.allclose(sm.ask_price, sh.value)
    assert np.allclose(sm.endowment, two_period_market.endowment)


def test_zero_spread_shadow_is_the_price_itself(drift_binomial):
    m = replace(drift_binomial, lam=0.0)
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


@pytest.mark.parametrize("spec", [EXP1, LOG], ids=["exp", "log"])
def test_roundtrip_reads_the_frictionless_dual(spec, monkeypatch):
    # handed the frictionless solve of the same shadow market, the
    # roundtrip reads its zero-spread dual instead of solving it again:
    # the record is bit for bit the one it solves for itself
    calls, solve_dual = [], shadow_mod.solve_dual
    monkeypatch.setattr(shadow_mod, "solve_dual",
                        lambda *args, **kw: calls.append(1) or solve_dual(*args, **kw))
    gen = InstanceGenerator(seed=11)
    for i in range(4):
        market = gen.draw_feasible(i)
        x = 1.0 if spec.wealth_domain == "real" else max(compute_x0(market), 0.0) + 5.0
        rep = solve_report(market, spec, x)
        sh = construct_shadow(market, rep.dual_system)
        fr = solve_frictionless(sh.as_market(), spec, x, y=rep.yhat)
        want = shadow_from_dual_roundtrip(rep, sh)
        calls.clear()
        got = shadow_from_dual_roundtrip(rep, sh, fr)
        assert calls == []
        assert got["lifted_leaf_vars"].tobytes() == want["lifted_leaf_vars"].tobytes()
        for key in ("polytope_violation", "dual_value_gap"):
            assert got[key].hex() == want[key].hex(), (i, key)
        assert got == {**want, "lifted_leaf_vars": got["lifted_leaf_vars"]}


def test_roundtrip_refuses_the_frictionless_solve_of_another_dual(two_period_market):
    # the record read from a frictionless solve holds only for the dual
    # the roundtrip would solve: the same shadow price, utility and yhat
    rep, sh, fr = shadow_pipeline(two_period_market, EXP1, 1.0)
    other = solve_frictionless(sh.as_market(), EXP1, 1.0, y=2.0 * rep.yhat)
    moved = replace(sh, value=sh.value * (1.0 + 1e-3))
    for args in ((rep, sh, other), (rep, moved, fr),
                 (replace(rep, utility=UtilitySpec("exponential", gamma=2.0)), sh, fr)):
        with pytest.raises(ValueError, match="not the roundtrip's zero-spread dual"):
            shadow_from_dual_roundtrip(*args)


def test_shadow_command_solves_one_zero_spread_dual(two_period_market, tmp_path, monkeypatch):
    # the CLI hands its frictionless solve to the roundtrip
    path = str(tmp_path / "market.json")
    save_market(two_period_market, path)
    calls, solve_dual = [], shadow_mod.solve_dual
    monkeypatch.setattr(shadow_mod, "solve_dual",
                        lambda *args, **kw: calls.append(args[0].lam) or solve_dual(*args, **kw))
    assert main(["shadow", "--market", path, "--utility", "exp:gamma=1", "--x", "1"]) == 0
    assert calls == [0.0]


def test_log_utility_pipeline(two_period_market):
    spec = UtilitySpec("log")
    rep, sh, fr = shadow_pipeline(two_period_market, spec, 8.0)
    rec = verify_shadow(rep, sh, fr)
    assert rec["value_gap"] <= 1e-6 * (1 + abs(rep.value))
    assert rec["direction_violations"] == []


def test_frictionless_solve_requires_zero_spread(drift_binomial):
    with pytest.raises(ShadowConstructionError):
        solve_frictionless(drift_binomial, EXP1, 0.0, y=1.0)


def test_frictionless_arbitrage_detected():
    tree = EventTree(parent=[-1, 0, 0], time=[0, 1, 1], cond_prob=[1.0, 0.5, 0.5])
    market = MarketSpec(tree=tree, ask_price=[100.0, 130.0, 110.0], lam=0.0,
                        endowment=[0.0, 0.0])
    with pytest.raises(ShadowConstructionError):
        solve_frictionless(market, EXP1, 0.0, y=1.0)


def position_map(shadow_market):
    """Leaf-by-node map from frictionless positions to terminal gains: the
    price step out of each internal node along each leaf's path."""
    tree = shadow_market.tree
    S = shadow_market.ask_price
    D = np.zeros((tree.n_leaves, tree.internal.size))
    for k, leaf in enumerate(tree.leaves):
        path = [int(leaf)]
        while tree.parent[path[-1]] >= 0:
            path.append(int(tree.parent[path[-1]]))
        for child, node in zip(path, path[1:]):
            D[k, list(tree.internal).index(node)] = S[child] - S[node]
    return D


def full_column_rank(shadow_market):
    """The numpy oracle of unique positions: the map has full column rank,
    counting singular values above 1e-9 times its largest entry (at least 1)."""
    D = position_map(shadow_market)
    tol = 1e-9 * max(1.0, float(np.abs(D).max()))
    return bool(np.linalg.matrix_rank(D, tol=tol) == D.shape[1])


def test_unique_positions_hand_built(drift_binomial):
    # a zero-spread market as the shadow price of itself: the binomial
    # moves, and the second tree's node 1 does not, so its position earns
    # nothing and is free; in the third, node 1 moves by 1e-12 either way,
    # below the cutoff of 2e-8 (1e-9 times the largest move, 20)
    tree = EventTree(parent=[-1, 0, 0, 1, 1, 2, 2], time=[0, 1, 1, 2, 2, 2, 2],
                     cond_prob=[1.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5])
    flat = MarketSpec(tree=tree, ask_price=[100.0, 110.0, 90.0, 110.0, 110.0, 95.0, 85.0],
                      lam=0.0, endowment=np.zeros(4))
    nearly_flat = replace(flat, ask_price=flat.ask_price + [0.0, 0.0, 0.0, 1e-12, -1e-12,
                                                             0.0, 0.0])
    for market, unique in ((replace(drift_binomial, lam=0.0), True), (flat, False),
                           (nearly_flat, False)):
        none = np.zeros(market.tree.n_nodes, dtype=bool)
        shadow = ShadowPrice(market=market, value=market.ask_price, at_ask=none,
                             at_bid=none, undefined=none)
        assert shadow.unique_positions() is unique
        assert full_column_rank(shadow.as_market()) is unique


def test_unique_positions_is_numpy_rank():
    # the shadow markets of the benchmark's 30 reports: seed 11's markets
    # 0-9 under log and power(1/2) at x0 + 5 and under exp(1) at x = 1
    gen = InstanceGenerator(seed=11)
    for i in range(10):
        market = gen.draw_feasible(i)
        x = max(compute_x0(market), 0.0) + 5.0
        for spec, at in ((LOG, x), (POWER, x), (EXP1, 1.0)):
            shadow = construct_shadow(market, solve_report(market, spec, at).dual_system)
            assert shadow.unique_positions() is full_column_rank(shadow.as_market())


def test_shadow_rejects_foreign_dual(drift_binomial, martingale_binomial):
    # feeding a dual point whose ratio leaves the spread must raise
    rep = solve_report(martingale_binomial, EXP1, 0.0)
    wide = replace(drift_binomial, lam=0.001)
    # the martingale dual's root ratio 99.5 is below the bid 99.9
    with pytest.raises(ShadowConstructionError, match=r"at node 0$"):
        construct_shadow(wide, rep.dual_system)


def test_shadow_names_first_node_out_of_spread(drift_binomial):
    # nodes 1 and 2 both leave the spread [128.7, 130] and [89.1, 90]
    dual = PriceSystem(z0=np.ones(3), z1=np.array([99.5, 140.0, 50.0]))
    with pytest.raises(ShadowConstructionError, match=r"ratio 140.0 .* at node 1$"):
        construct_shadow(drift_binomial, dual)
    # a node with no density takes the ask and is never out of the spread
    dual = PriceSystem(z0=np.array([1.0, 0.0, 1.0]), z1=np.array([99.5, 1.0, 50.0]))
    with pytest.raises(ShadowConstructionError, match=r"at node 2$"):
        construct_shadow(drift_binomial, dual)


def test_exponential_line_search_never_overflows():
    # a cold primal on this market's shadow price runs its line search
    # with overflow warnings as errors and still reaches the report's
    # value; the primal's domain guard rejects a point whose exponent
    # -gamma (w - w_ref) passes EXP_ARG_MAX before the objective sees it
    market = InstanceGenerator(seed=11).draw_feasible(5)
    rep = solve_report(market, EXP1, 1.0)
    sh = construct_shadow(market, rep.dual_system)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cold = solve_primal(sh.as_market(), EXP1, 1.0)
    assert sum(cold.diagnostics["newton_iterations"]) > 0
    assert abs(cold.value - rep.value) <= 1e-6 * (1.0 + abs(rep.value))
    # the guard itself, which this line search does not reach
    prog = PrimalProgram.build(sh.as_market(), EXP1).at(1.0)
    start = prog.x0()
    far = start.copy()
    far[-market.tree.n_leaves:] -= 2.0 * EXP_ARG_MAX
    assert prog.in_domain(start) and not prog.in_domain(far)


@pytest.mark.parametrize("spec, indices", [(EXP1, range(10)), (LOG, (0, 5, 9))],
                         ids=["exp", "log"])
def test_frictionless_primal_starts_at_its_own_dual(spec, indices):
    # the shadow market's primal is face-started at the net trades read
    # off the shadow market's own cold dual, which on a frictionless
    # market are its optimum: accepted with no barrier step, at the cold value
    gen = InstanceGenerator(seed=11)
    for i in indices:
        market = gen.draw_feasible(i)
        x = 1.0 if spec.wealth_domain == "real" else max(compute_x0(market), 0.0) + 5.0
        _, sh, fr = shadow_pipeline(market, spec, x)
        d = fr.diagnostics["primal"]
        face = d["face_start"]
        assert face == {"accepted": True, "rounds": face["rounds"], "reason": None}, (i, face)
        assert sum(d["newton_iterations"]) == 0 and d["factorizations"] == 0
        cold = solve_primal(sh.as_market(), spec, x)
        assert sum(cold.diagnostics["newton_iterations"]) > 0
        assert abs(fr.value - cold.value) <= 1e-9 * (1.0 + abs(cold.value)), i


def test_zero_density_shadow_primal_is_face_started():
    # an unhedgeable endowment of 500 at the middle leaf of a trinomial:
    # the shadow price is undefined there and the shadow market's own
    # dual density vanishes there too, but the net trades read off that
    # dual are defined at every node.  The primal is face-started there;
    # the start is rejected, and the solve is the cold one from the
    # closed-form start, bit for bit, Newton steps included
    tree = EventTree(parent=[-1, 0, 0, 0], time=[0, 1, 1, 1], cond_prob=[1.0, 0.3, 0.4, 0.3])
    market = MarketSpec(tree=tree, ask_price=[100.0, 110.0, 100.0, 90.0], lam=0.01,
                        endowment=[0.0, 500.0, 0.0])
    rep, sh, fr = shadow_pipeline(market, EXP1, 1.0)
    assert sh.undefined.tolist() == [False, False, True, False]
    d = fr.diagnostics["primal"]
    face = d["face_start"]
    assert not face["accepted"] and face["reason"].startswith("KKT residuals")
    cold = solve_primal(sh.as_market(), EXP1, 1.0)
    assert fr.position.tobytes() == cold.strategy.phi1.tobytes()
    assert fr.value.hex() == cold.value.hex()
    assert d["newton_iterations"] == cold.diagnostics["newton_iterations"]
    assert abs(fr.value - rep.value) <= 1e-9 * (1.0 + abs(rep.value))


def test_tiny_density_node_trades_on_its_band_edge():
    # generated seed-11 market 9: node 12 carries Z0 ~ 2e-6 and the primal
    # buys there, so the dual ratio must sit exactly at the ask; a barrier
    # point leaves it ~3e-5 below, off the face the buy requires
    market = InstanceGenerator(seed=11).draw_feasible(9)
    rep, sh, fr = shadow_pipeline(market, EXP1, 1.0)
    assert verify_shadow(rep, sh, fr)["direction_violations"] == []


def test_degenerate_exponential_face_starts_are_accepted():
    # generated seed-5 markets 113 and 141 under exp(1) at x = 1: from its
    # face start, with the dual's multipliers in hand, each report's
    # primal is accepted with no barrier step, and #141 trades in the
    # shadow price's direction (#113's 1.9e-7 buy-side violation at node
    # 22 comes from its dual, whose ratio sits just below the ask)
    gen = InstanceGenerator(seed=5)
    for i in (113, 141):
        rep, sh, fr = shadow_pipeline(gen.draw_feasible(i), EXP1, 1.0)
        d = rep.diagnostics["primal"]
        assert d["face_start"]["accepted"], i
        assert d["newton_iterations"] == [] and d["factorizations"] == 0
        if i == 141:
            assert verify_shadow(rep, sh, fr)["direction_violations"] == []


def loop_direction_violations(report, shadow):
    """Node-by-node reference of :func:`verify_shadow`'s trade-direction
    check, in its order: node by node, a node's buy before its sell."""
    market = report.market
    ask, bid = market.ask_price, market.bid_price
    buy, sell = report.strategy.buy, report.strategy.sell
    out = []
    for k in range(market.tree.n_nodes):
        if shadow.undefined[k]:
            continue
        comp_buy = buy[k] * (ask[k] - shadow.value[k]) / (1.0 + ask[k])
        comp_sell = sell[k] * (shadow.value[k] - bid[k]) / (1.0 + ask[k])
        if buy[k] > 1e-7 and not shadow.at_ask[k] and comp_buy > 1e-7:
            out.append({"node": int(k), "side": "buy", "volume": float(buy[k]),
                        "complementarity": float(comp_buy),
                        "shadow": float(shadow.value[k])})
        if sell[k] > 1e-7 and not shadow.at_bid[k] and comp_sell > 1e-7:
            out.append({"node": int(k), "side": "sell", "volume": float(sell[k]),
                        "complementarity": float(comp_sell),
                        "shadow": float(shadow.value[k])})
    return out


def test_direction_check_matches_loop_reference():
    # generated seed-5 market 113 under exp(1) at x = 1 has a direction
    # violation; market 141 had one while its primal stopped short of its
    # face, and seed-11 market 2 has none
    cases = [(5, 113), (5, 141), (11, 2)]
    found = []
    for seed, index in cases:
        market = InstanceGenerator(seed=seed).draw_feasible(index)
        rep, sh, fr = shadow_pipeline(market, EXP1, 1.0)
        got = verify_shadow(rep, sh, fr)["direction_violations"]
        want = loop_direction_violations(rep, sh)
        assert got == want
        found.append(len(got))
    assert found[0] > 0 and found[1] == 0 and found[2] == 0
