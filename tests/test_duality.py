import gc
import math
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest

from frictiondual import duality, engine, polytope
from frictiondual.duality import (
    PrimalInfeasibleError,
    PrimalProgram,
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
from frictiondual.shadow import construct_shadow
from frictiondual.trading import roll_forward, terminal_claim
from frictiondual.tree import EventTree, MarketSpec
from frictiondual.utility import UtilitySpec, eval_u_prime
import oracles
from oracles import children, enumerate_vertices, path_to_root, superreplicate

LOG = UtilitySpec("log")
EXP1 = UtilitySpec("exponential", gamma=1.0)


def _with_zero_multipliers(market, spec, x, point):
    """A face start for the primal at ``x`` with no dual at hand:
    ``point`` paired with zero inequality multipliers."""
    return point, np.zeros(PrimalProgram.build(market, spec).G.shape[0])


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
    # no strictly consistent price system: no existence LP confirms it,
    # and no engine solve runs first
    calls, solves = spy_lps(monkeypatch), spy_solves(monkeypatch)
    with pytest.raises(NoCpsError):
        call(no_cps_market())
    assert calls == [] and solves == []


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


@pytest.mark.parametrize("y", [1e-10, 1e-300])
def test_exponential_dual_at_small_scale_matches_the_unit_scale_solve(y):
    # market 0 of `gen --seed 7`: the objective scales with y, so a barrier
    # run at y itself passes the engine's tests, relative to 1 + |f|, away
    # from its minimizer (at 1e-300, at its start)
    market = InstanceGenerator(seed=7).draw_feasible(0)
    unit = solve_dual(market, EXP1, 1.0)
    dual = solve_dual(market, EXP1, y)
    np.testing.assert_allclose(dual.leaf_vars, unit.leaf_vars, rtol=0.0, atol=1e-9)
    # v(y) = V(y) + y k, and at y = 1, V(1) + k is the unit-scale value
    v1 = -1.0
    v = y * (math.log(y) - 1.0)
    assert dual.value == pytest.approx(v + y * (unit.value - v1), rel=1e-9)
    z0 = unit.leaf_vars[:market.tree.n_leaves]
    prob = market.tree.leaf_prob
    assert dual.derivative == pytest.approx(
        float(prob @ (z0 * (np.log(y * z0) + market.endowment))), rel=1e-9)
    assert dual.y == y


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


@pytest.mark.parametrize("spec", [LOG, UtilitySpec("power", alpha=0.5), EXP1],
                         ids=["log", "power", "exp"])
def test_fd_solves_on_the_report_memo_match_a_fresh_program(spec, monkeypatch):
    # verify_identities' x +- h primals run on the report's program, whose
    # face-split memo holds the report's faces: they give the bits of the
    # same two solves on a freshly built program, whose memo is empty, and
    # split no face that memo lacks.  Seed 11's market 5 damps its power
    # x + h steps (test_face_start_is_accepted_on_generated_markets).  An
    # exponential report's primal and its x +- h primals start at their
    # exact optimum, by the translation property, and are accepted as
    # given: they split no face, and both memos stay empty
    seen, solve_primal_ = [], duality.solve_primal

    def spied(market, spec, x, face_start=None, program=None):
        sol = solve_primal_(market, spec, x, face_start=face_start, program=program)
        seen.append(sol)
        return sol

    gen = InstanceGenerator(seed=11)
    for i in (0, 5):
        market = gen.draw_feasible(i)
        x = 1.0 if spec is EXP1 else max(compute_x0(market), 0.0) + 5.0
        rep = solve_report(market, spec, x)
        # each report owns its memo, and every program at a wealth shares it
        other = solve_report(market, spec, x)
        assert other.primal.faces is not rep.primal.faces
        assert rep.primal.at(x + 1.0).faces is rep.primal.faces
        seen.clear()
        with monkeypatch.context() as patch:
            patch.setattr(duality, "solve_primal", spied)
            rec = verify_identities(rep)
        assert bool(rep.primal.faces) is (spec is not EXP1), (i, spec)

        fresh = PrimalProgram.build(market, spec)
        primal = rep.primal
        scale = 1.0 + abs(x)
        if primal.threshold is not None:
            scale = min(scale, x - (primal.threshold + duality.THRESHOLD_MARGIN))
        x_up, x_down = x + duality.FD_STEP * scale, x - duality.FD_STEP * scale
        point = fresh.point(rep.strategy, rep.claim)
        # one multiplier array, the report's at x, for both sides
        lam = fresh.multipliers(x, rep.yhat, rep.dual_system)

        def at(xh, start):
            return solve_primal(market, spec, xh, face_start=(start, lam), program=fresh)

        up = at(x_up, point)
        down = at(x_down, 2.0 * point - fresh.point(up.strategy, up.claim))
        assert rec["u_prime_fd"].hex() == ((up.value - down.value) / (x_up - x_down)).hex()
        assert rec["fd_starts"] == [{"x": xs, **sol.diagnostics["face_start"]}
                                    for xs, sol in ((x_up, up), (x_down, down))]
        for got, want in zip(seen, (up, down)):
            assert got.value.hex() == want.value.hex(), (i, spec)
            assert got.claim.tobytes() == want.claim.tobytes(), (i, spec)
            assert got.multipliers.tobytes() == want.multipliers.tobytes(), (i, spec)
            assert got.diagnostics == want.diagnostics, (i, spec)
        assert bool(fresh.faces) is (spec is not EXP1), (i, spec)
        assert set(fresh.faces) <= set(primal.faces), (i, spec)


@pytest.mark.parametrize("spec", [LOG, EXP1], ids=["log", "exp"])
def test_report_program_is_freed_without_the_cycle_collector(two_period_market, spec):
    # the face-started primals of a report and of verify_identities hold
    # their closed-form start; a start that closed over its own program would
    # make a reference cycle, keeping the report's program, with its face
    # memo, alive until the cycle collector ran.  The exponential ones are
    # accepted as given and split no face, so a cold solve on the report's
    # program fills its memo
    gc.collect()
    gc.disable()
    try:
        x = compute_x0(two_period_market) + 4.0
        rep = solve_report(two_period_market, spec, x)
        verify_identities(rep)
        if spec is EXP1:
            solve_primal(two_period_market, spec, x, program=rep.primal)
        program = weakref.ref(rep.primal)
        assert program().faces
        del rep
        assert program() is None
    finally:
        gc.enable()


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
        return SolveResult(np.zeros(program.G.shape[1]), np.zeros(0), np.zeros(0), diag)

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
    start = PrimalProgram.build(two_period_market, spec).point(near.strategy, near.claim)
    cold = solve_primal(two_period_market, spec, x + h)
    warm = solve_primal(two_period_market, spec, x + h,
                        face_start=_with_zero_multipliers(two_period_market, spec, x + h, start))
    face = warm.diagnostics["face_start"]
    assert face["accepted"]
    assert warm.diagnostics["events"] == [f"face start accepted after {face['rounds']} rounds"]
    assert warm.value == pytest.approx(cold.value, rel=1e-12)
    assert sum(warm.diagnostics["newton_iterations"]) < sum(cold.diagnostics["newton_iterations"])


def test_primal_point_is_net_trades_at_zero_spread(drift_binomial):
    market = replace(drift_binomial, lam=0.0)
    sol = solve_primal(market, LOG, 5.0)
    v = PrimalProgram.build(market, LOG).point(sol.strategy, sol.claim)
    internal = market.tree.internal
    K = internal.size
    assert v.size == K + market.tree.n_leaves
    assert np.array_equal(v[:K], sol.strategy.buy[internal] - sol.strategy.sell[internal])
    assert np.array_equal(v[K:], sol.claim)


def test_primal_program_raises_exactly_at_the_threshold():
    # the program's start exists exactly above x0 + THRESHOLD_MARGIN, and
    # is strictly feasible there, down to x0 + 1e-6
    gen = InstanceGenerator(seed=11)
    for i in range(10):
        market = gen.draw_feasible(i)
        x0 = compute_x0(market)
        for spec in (LOG, UtilitySpec("power", alpha=0.5)):
            primal = PrimalProgram.build(market, spec)
            for x in (max(x0, 0.0) + 5.0, x0 + 0.5, x0 + 1e-3, x0 + 1e-6):
                prog = primal.at(x)
                start = prog.x0()
                assert np.all(prog.G @ start - prog.h > 0.0), (i, x)
                assert prog.in_domain(start)
            for x in (x0 + duality.THRESHOLD_MARGIN, x0, x0 - 1.0):
                with pytest.raises(PrimalInfeasibleError, match=re.escape(f"threshold {x0}")):
                    primal.at(x)


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


@pytest.mark.parametrize("spec", [LOG, UtilitySpec("power", alpha=0.5)], ids=["log", "power"])
def test_report_lays_out_the_primal_once(spec, monkeypatch):
    # the report builds its PrimalProgram once and runs its barrier first,
    # cold, and verify_identities solves x +- h on it: one layout and one
    # threshold induction per report and its checks, and the bits of
    # solves on a fresh program
    builds, thresholds, solves = [], [], []
    build, threshold, solve_primal_ = (PrimalProgram.build.__func__, duality.super_hedge,
                                       duality.solve_primal)

    def built(cls, *args):
        builds.append(1)
        return build(cls, *args)

    def spied(*args):
        thresholds.append(1)
        return threshold(*args)

    def solved(market, spec, x, face_start=None, program=None):
        sol = solve_primal_(market, spec, x, face_start=face_start, program=program)
        solves.append((x, face_start, program, sol))
        return sol

    monkeypatch.setattr(PrimalProgram, "build", classmethod(built))
    monkeypatch.setattr(duality, "super_hedge", spied)
    monkeypatch.setattr(duality, "solve_primal", solved)
    gen = InstanceGenerator(seed=11)
    for i in range(10):
        market = gen.draw_feasible(i)
        x = max(compute_x0(market), 0.0) + 5.0
        for seen in (builds, thresholds, solves):
            seen.clear()
        rep = solve_report(market, spec, x)
        verify_identities(rep)
        assert (len(builds), len(thresholds)) == (1, 1), i
        (x_report, start, report_program, sol), *checks = solves
        assert report_program is rep.primal and len(checks) == 2
        assert (x_report, start) == (x, None) and sol.claim is rep.claim
        fresh = build(PrimalProgram, market, spec)
        for xh, start, program, sol in solves:
            assert program is rep.primal
            again = solve_primal_(market, spec, xh, face_start=start, program=fresh)
            assert sol.value.hex() == again.value.hex(), (i, xh)
            assert sol.claim.tobytes() == again.claim.tobytes(), (i, xh)


def spy_lps(monkeypatch):
    """The list that records each ``engine.solve_lp`` call from now on."""
    calls, solve_lp = [], engine.solve_lp

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(engine, "solve_lp", counting)
    return calls


def spy_solves(monkeypatch):
    """The list that records each engine solve of :mod:`duality` from now on."""
    calls, solve = [], duality.solve
    monkeypatch.setattr(duality, "solve", lambda prog: calls.append(prog) or solve(prog))
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
    assert sol.diagnostics["face_start"] is None
    with pytest.raises(PrimalInfeasibleError, match=re.escape(f"threshold {x0}")):
        solve_primal(market, spec, x0 - 1e-6)
    assert calls == []


def _near_threshold_cells():
    """The report cells of the one-period binomial near its threshold:
    each endowment under log at ``x0 + 1e-6`` and ``x0 + 1e-3`` and
    under power(1/2) at ``x0 + 1e-6``."""
    power = UtilitySpec("power", alpha=0.5)
    for endowment in [(3.0, -2.0), (1.0, -1.0), (-1.0, 0.5), (-2.0, -2.0)]:
        for spec, above in [(LOG, 1e-6), (LOG, 1e-3), (power, 1e-6)]:
            marks = ()
            if spec is LOG and above == 1e-6 and endowment == (1.0, -1.0):
                marks = pytest.mark.xfail(
                    strict=True, raises=EngineError,
                    reason="the dual face start is rejected, and the cold cone solve "
                           "hits the Newton cap")
            yield pytest.param(endowment, spec, above, marks=marks,
                               id=f"{spec.family}-{above:g}-{endowment[0]:g},{endowment[1]:g}")


@pytest.mark.parametrize("endowment, spec, above", list(_near_threshold_cells()))
def test_half_line_report_near_the_threshold(drift_binomial, endowment, spec, above):
    # the primal's closed-form start works at the scale x - x0, and the
    # cone dual starts at the primal optimum's multipliers, not at its
    # unscaled witness, E[W0] = 1.  Value and yhat are the one-period
    # oracle's, found with no solver
    market = drift_binomial.with_endowment(list(endowment))
    x0 = compute_x0(market)
    x = x0 + above
    rep = solve_report(market, spec, x)
    assert rep.relative_gap <= 1e-6
    assert rep.diagnostics["dual"]["face_start"]["accepted"]
    value, yhat = oracles.one_period_optimum(market, spec, x)
    assert rep.value == pytest.approx(value, rel=1e-9)
    assert rep.yhat == pytest.approx(yhat, rel=1e-9)
    # u'(wealth) reaches 1e6 here: the leaf identity relative to it
    wealth = x + rep.claim + market.endowment
    assert np.nanmax(rep.leaf_identity_residuals / eval_u_prime(spec, wealth)) <= 1e-6
    # the central difference's step is a share of x's clearance of the
    # threshold margin, so x - h clears it too
    rec = verify_identities(rep)
    assert rec["yhat_vs_fd"] <= 1e-5 * (1.0 + rep.yhat)
    assert rec["fd_starts"][1]["x"] > x0 + duality.THRESHOLD_MARGIN


@pytest.mark.parametrize("endowment", [(0.0, 0.0), (3.0, -2.0), (-1.0, 0.5), (-2.0, -2.0)],
                         ids=lambda e: f"{e[0]:g},{e[1]:g}")
def test_verify_identities_just_above_the_threshold_margin(drift_binomial, endowment):
    # x = x0 + 1.00001e-9 clears solve_primal's margin, 1e-9, by 1e-14,
    # and h = 1e-18 keeps x - h above it, so both primals solve.  Without
    # an endowment x0 = 0, and x = 1e-9 resolves h; elsewhere h is below
    # the rounding of x: x +- h round to x, and there is no quotient
    market = drift_binomial.with_endowment(list(endowment))
    x0 = compute_x0(market)
    x = x0 + 1.00001e-9
    rep = solve_report(market, UtilitySpec("power", alpha=0.5), x)
    rec = verify_identities(rep)
    assert all(s["x"] > x0 + duality.THRESHOLD_MARGIN for s in rec["fd_starts"])
    if x0 == 0.0:
        assert rec["yhat_vs_fd"] <= 1e-5 * rep.yhat
    else:
        assert [s["x"] for s in rec["fd_starts"]] == [x, x]
        assert np.isnan(rec["u_prime_fd"]) and np.isnan(rec["yhat_vs_fd"])


@pytest.mark.parametrize("spec", [LOG, EXP1], ids=["log", "exp"])
def test_zero_spread_report_runs_no_lp(drift_binomial, spec, monkeypatch):
    # at zero spread the dual starts at the closed-form martingale density
    market = replace(drift_binomial, lam=0.0).with_endowment([1.0, -0.5])
    calls = spy_lps(monkeypatch)
    starts, solve = [], duality.solve

    def spied(prog):
        starts.append(prog.x0())
        return solve(prog)

    monkeypatch.setattr(duality, "solve", spied)
    rep = solve_report(market, spec, 5.0)
    assert calls == []
    if spec is EXP1:
        # the dual, solved first, starts at the closed-form martingale density
        assert np.array_equal(starts[0], martingale_point(market))
    else:
        # the primal, solved first, starts at its closed-form start, and
        # the cone dual's barrier at the closed-form martingale density
        assert len(starts) == 2
        assert np.array_equal(starts[0], PrimalProgram.build(market, spec).start(5.0))
        assert np.array_equal(starts[1], martingale_point(market))
    assert rep.relative_gap <= 1e-6


def test_zero_spread_arbitrage_still_reports_an_empty_polytope(monkeypatch):
    # no existence check runs at zero spread: the price has no martingale
    # density, so the dual has no start, before the primal finds it
    # unbounded and before any engine solve
    tree = EventTree(parent=[-1, 0, 0], time=[0, 1, 1], cond_prob=[1.0, 0.5, 0.5])
    market = MarketSpec(tree=tree, ask_price=[100.0, 120.0, 110.0], lam=0.0,
                        endowment=[1.0, -0.5])
    x = 3.0
    with pytest.raises(PrimalUnboundedError):
        PrimalProgram.build(market, LOG)
    solves = spy_solves(monkeypatch)
    with pytest.raises(PolytopeInfeasibleError):
        solve_report(market, LOG, x)
    assert solves == []


def test_dual_from_a_supplied_start_on_an_empty_zero_spread_polytope():
    # 100 -> 110/110 at zero spread: the rows Z1 = S Z0 and E[Z0] = 1 are
    # inconsistent, which an engine solve from a supplied start reaches
    # past the strict point, and solve_dual's verdict raises first
    tree = EventTree(parent=[-1, 0, 0], time=[0, 1, 1], cond_prob=[1.0, 0.5, 0.5])
    market = MarketSpec(tree=tree, ask_price=[100.0, 110.0, 110.0], lam=0.0,
                        endowment=[0.0, 0.0])
    poly = build_polytope(market)
    objective = duality._dual_objective(poly, LOG, 1.0, market.endowment, market.tree.leaf_prob)
    start = np.array([1.0, 1.0, 110.0, 110.0])
    with pytest.raises(PolytopeInfeasibleError,
                       match="^empty dual polytope: inconsistent equality constraints$"):
        duality._solve_on_polytope(poly, *objective, lambda: start)
    with pytest.raises(PolytopeInfeasibleError, match="martingale density"):
        solve_dual(market, LOG, 1.0)


@pytest.mark.parametrize("lam", [0.01, 0.0])
def test_exponential_primal_on_an_arbitrage_diverges(lam):
    # buying at the root gains at both leaves, with or without the spread:
    # exponential utility has no wealth floor to stop the barrier, so its
    # iterates run off, and the engine's unbounded status is the primal's
    # PrimalUnboundedError
    tree = EventTree(parent=[-1, 0, 0], time=[0, 1, 1], cond_prob=[1.0, 0.5, 0.5])
    market = MarketSpec(tree=tree, ask_price=[100.0, 120.0, 110.0], lam=lam,
                        endowment=[0.0, 0.0])
    with pytest.raises(PrimalUnboundedError, match="^primal unbounded: iterates diverging$"):
        solve_primal(market, EXP1, 1.0)


def loop_primal_layout(market):
    """Leaf-by-leaf reference of :class:`PrimalProgram`'s maps ``T0``/``T1``:
    buys, sells and claims, at zero spread net trades and claims."""
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
    if market.lam == 0.0:
        T0 = np.hstack([T0[:, :K], T0[:, 2 * K:]])
        T1 = np.hstack([T1[:, :K], T1[:, 2 * K:]])
    return T0, T1


def loop_primal_rows(market, spec, x):
    """Row-by-row reference of :meth:`PrimalProgram.at`'s ``G``/``h``."""
    tree = market.tree
    T0, T1 = loop_primal_layout(market)
    L = tree.n_leaves
    frictionless = market.lam == 0.0
    nv = T0.shape[1]
    off = nv - L
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
    off = nv - L
    s_leaf = market.ask_price[tree.leaves]
    bid_leaf = market.bid_price[tree.leaves]
    cap = abs(x) + float(np.abs(claim).max(initial=0.0)) + 1.0
    rows, h_vals = [], []
    for li in range(L):
        for leg in (T0[li] + bid_leaf[li] * T1[li], T0[li] + s_leaf[li] * T1[li]):
            rows.append(np.concatenate([leg, [-1.0]]))
            h_vals.append(claim[li] - x)
    for k in range(0 if market.lam == 0.0 else off):
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
            T0_ref, T1_ref = loop_primal_layout(market)
            layout = PrimalProgram.build(market, EXP1)
            assert_same_bytes(layout.T0, T0_ref, "T0")
            assert_same_bytes(layout.T1, T1_ref, "T1")
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
                            PrimalProgram.build(m, spec)
                        continue
                    prog = PrimalProgram.build(m, spec).at(x)
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
    # the side a report solves second starts at the optimum of the side
    # it solves first and reaches its own cold solve's optimum in fewer
    # steps.  The exponential primal starts at the trades read off the
    # dual's band-row multipliers, the replication of the optimal claim
    # at the shadow price.  A half-line report runs its barrier on the
    # primal, cold, and its cone dual starts at the point and multipliers
    # read off the primal optimum
    market = three_period_market(lam)
    x = 1.0 if spec.wealth_domain == "real" else 10.0
    rep = solve_report(market, spec, x)
    cold = solve_primal(market, spec, x)
    d = rep.diagnostics["primal"]
    if spec is EXP1:
        assert d["face_start"] == accepted_face(d)
        assert rep.value == pytest.approx(cold.value, rel=1e-12)
        assert np.max(np.abs(rep.claim - cold.claim)) <= 1e-9
        assert sum(d["newton_iterations"]) < sum(cold.diagnostics["newton_iterations"])
        return
    assert d["face_start"] is None
    # the report's primal is the cold solve, bit for bit
    assert d == cold.diagnostics
    assert rep.claim.tobytes() == cold.claim.tobytes()
    d = rep.diagnostics["dual"]
    assert d["face_start"] == accepted_face(d)
    yhat, value, sol = minimize_v_plus_xy(market, spec, x)
    assert rep.yhat == pytest.approx(yhat, rel=1e-12)
    assert rep.dual_value + x * rep.yhat == pytest.approx(value, rel=1e-12)
    # Z0 is unique, I(yhat Z0) being the optimal wealth; Z1 need not be
    L = market.tree.n_leaves
    assert np.max(np.abs(rep.dual_leaf_vars[:L] - sol.leaf_vars[:L])) <= 1e-9
    assert sum(d["newton_iterations"]) < sum(sol.diagnostics["newton_iterations"])


def accepted_face(d):
    """The engine's record of an accepted face start, with the rounds of
    the record in the diagnostics ``d``."""
    return {"accepted": True, "rounds": d["face_start"]["rounds"], "reason": None}


def _seed_11_cases():
    """Seed 11's ten markets at their spread and at zero spread where
    that polytope is not empty, under log, power(1/2) and exp(1), with the
    wealth and report of each: 48 cases."""
    gen = InstanceGenerator(seed=11)
    for i in range(10):
        market = gen.draw_feasible(i)
        for m in (market, replace(market, lam=0.0)):
            if martingale_point(m) is None:
                continue
            for spec in SHADOW_FAMILIES:
                x = 1.0 if spec.wealth_domain == "real" else max(compute_x0(m), 0.0) + 5.0
                yield i, m, spec, x, solve_report(m, spec, x)


def test_dual_optimum_gives_the_primal_multipliers():
    # scaled by yhat, the dual optimum is the primal's Lagrange
    # multiplier: mapped onto the PrimalProgram's rows it is nonnegative and
    # meets stationarity at the start read off the same dual optimum, at
    # the generated spreads and at zero spread
    checked = 0
    for i, m, spec, x, rep in _seed_11_cases():
        point, lam = rep.primal.primal_start(x, solve_dual(m, spec, rep.yhat))
        prog = rep.primal.at(x)
        _, g, _ = prog.objective(point)
        assert lam.shape == prog.h.shape and np.all(lam >= 0.0), (i, m.lam, spec)
        stationarity = np.linalg.norm(g - prog.G.T @ lam) / (1.0 + np.linalg.norm(g))
        assert stationarity <= 1e-9, (i, m.lam, spec)
        checked += 1
    assert checked == 48      # 10 markets at their spread, 6 at zero spread


def test_dual_band_multipliers_are_the_primal_trades():
    # the other half of the KKT map: the band-row multipliers of a cold
    # dual solve at the report's yhat, over yhat P(n) (P(n) at the
    # exponential dual's unit scale), are the cold primal's netted optimal
    # trades, on cases whose optimal positions are unique
    checked = 0
    for i, m, spec, x, rep in _seed_11_cases():
        assert construct_shadow(m, rep.dual_system).unique_positions(), (i, m.lam, spec)
        dual = solve_dual(m, spec, rep.yhat)
        cold = solve_primal(m, spec, x).strategy
        assert not (dual.buy[m.tree.leaves].any() or dual.sell[m.tree.leaves].any())
        assert not np.any(np.minimum(dual.buy, dual.sell)), (i, m.lam, spec)
        miss = max(np.abs(dual.buy - cold.buy).max(), np.abs(dual.sell - cold.sell).max())
        assert miss <= 1e-6 * (1.0 + max(cold.buy.max(), cold.sell.max())), (i, m.lam, spec)
        checked += 1
    assert checked == 48


def test_dual_start_reads_the_multipliers_back():
    # the KKT map round trip: the cone-dual point that dual_start reads
    # off the multipliers at (x, yhat, Z) is yhat Z at the leaves, under
    # every family; the centered exponential multipliers' factor
    # exp(gamma w_ref(x)) is divided out
    checked = 0
    for i, m, spec, x, rep in _seed_11_cases():
        system, leaves = rep.dual_system, m.tree.leaves
        lam = rep.primal.multipliers(x, rep.yhat, system)
        point, _ = rep.primal.dual_start(x, rep.strategy, lam)
        want = rep.yhat * np.concatenate([system.z0[leaves], system.z1[leaves]])
        assert np.all(np.abs(point - want) <= 1e-12 * np.abs(want)), (i, m.lam, spec)
        checked += 1
    assert checked == 48


def test_zero_density_report_primal_is_face_started():
    # an unhedgeable endowment of 200 at the middle leaf of a trinomial:
    # the exponential dual density there is ~4e-13, so I(yhat * Z0) is out
    # of reach, but the trades read off the dual's multipliers are defined
    # at every node, and the primal is face-started there.  At lambda =
    # 0.01 the face start is rejected and the barrier reaches the cold
    # solve's optimum; at zero spread it is accepted with no Newton step,
    # where the cold barrier takes 500
    tree = EventTree(parent=[-1, 0, 0, 0], time=[0, 1, 1, 1], cond_prob=[1.0, 0.3, 0.4, 0.3])
    for lam, accepted in ((0.01, False), (0.0, True)):
        market = MarketSpec(tree=tree, ask_price=[100.0, 110.0, 100.0, 90.0], lam=lam,
                            endowment=[0.0, 200.0, 0.0])
        rep = solve_report(market, EXP1, 1.0)
        assert rep.zero_density_leaves == [2]
        d = rep.diagnostics["primal"]
        assert d["face_start"]["accepted"] is accepted, lam
        cold = solve_primal(market, EXP1, 1.0)
        assert rep.value == pytest.approx(cold.value, rel=1e-12), lam
        assert np.max(np.abs(rep.claim - cold.claim)) <= 1e-9, lam
        steps = sum(d["newton_iterations"])
        assert (steps == 0 and d["factorizations"] == 0) if accepted else steps > 0, lam
        assert sum(cold.diagnostics["newton_iterations"]) == (500 if accepted else 22)


def _face_and_cold_solves(market, spec, x, start):
    """The engine's solves of the primal at ``x`` with the pair ``start``
    as the face start and without one."""
    prog = PrimalProgram.build(market, spec).at(x)
    return engine.solve(replace(prog, face_start=start)), engine.solve(prog)


def _assert_barrier_bits(res, barrier):
    """``res``, from a rejected face start, is ``barrier`` bit for bit
    (:func:`_assert_cold_diagnostics`)."""
    for got, want in [(res.x, barrier.x), (res.ineq_multipliers, barrier.ineq_multipliers),
                      (res.eq_multipliers, barrier.eq_multipliers)]:
        assert got.tobytes() == want.tobytes()
    _assert_cold_diagnostics(res.diagnostics.to_dict(), barrier.diagnostics.to_dict())


def test_face_start_is_accepted_on_generated_markets(monkeypatch):
    # the exponential report's primal and verify_identities' x +- h
    # primals, x + h from the report's point and x - h from its
    # reflection through the x + h optimum, finish on the face of their
    # start, with no barrier step, at the cold barrier solve's optimum.  A
    # half-line report's primal is the cold solve, and its dual is
    # face-started instead
    # (test_dual_face_start_is_accepted_on_generated_markets)
    seen, solve_primal_ = [], duality.solve_primal

    def spied(market, spec, x, face_start=None, program=None):
        sol = solve_primal_(market, spec, x, face_start=face_start, program=program)
        seen.append((x, sol))
        return sol

    monkeypatch.setattr(duality, "solve_primal", spied)
    gen = InstanceGenerator(seed=11)
    rejected, short, damped = [], [], []
    for i in range(10):
        market = gen.draw_feasible(i)
        for spec in SHADOW_FAMILIES:
            x = 1.0 if spec.wealth_domain == "real" else max(compute_x0(market), 0.0) + 5.0
            seen.clear()
            rep = solve_report(market, spec, x)
            if spec is not EXP1:
                assert rep.diagnostics["primal"]["face_start"] is None, (i, spec)
                seen.clear()
            starts = verify_identities(rep)["fd_starts"]
            assert [s["x"] for s in starts] == [xs for xs, _ in seen[-2:]]
            assert starts == [{"x": xs, **sol.diagnostics["face_start"]}
                              for xs, sol in seen[-2:]]
            for xs, sol in seen:
                d = sol.diagnostics
                face = d["face_start"]
                if not face["accepted"]:
                    rejected.append((i, spec.family, xs))
                    continue
                first, *rest = d["events"]
                assert first == f"face start accepted after {face['rounds']} rounds"
                # the exponential starts are exact and accepted as given;
                # a half-line x +- h start is first-order and finishes
                exact = spec is EXP1
                assert (face["rounds"] == 0) is exact and (d["face_steps"] == 0) is exact
                if rest:
                    damped.append((i, spec.family, xs))
                    assert all(e.startswith("face step damped into the domain at round ")
                               for e in rest)
                assert d["newton_iterations"] == [] and d["factorizations"] == 0
                assert max(d["kkt_stationarity"], d["kkt_feasibility"],
                           d["kkt_complementarity"]) <= 10 * engine.TOL
                cold = solve_primal_(market, spec, xs)
                if cold.diagnostics["face_steps"] == 0:
                    # the cold solve kept its barrier point, short of the
                    # face: the face start's value is the higher one
                    short.append((i, spec.family))
                    assert sol.value > cold.value
                    continue
                assert sol.value == pytest.approx(cold.value, rel=1e-12), (i, spec, xs)
                assert np.max(np.abs(sol.claim - cold.claim)) <= 1e-9, (i, spec, xs)
            if spec is EXP1:
                # the report's primal is face-started, and it meets the
                # dual value to rounding
                assert rep.relative_gap <= 1e-13, (i, spec)
    # every start lands.  Under power(1/2) the x + h optimum of market 5
    # puts a leaf's wealth near zero, 5e-5, where the start's is 20 times
    # that: the first Newton steps of sqrt on its face overshoot below 0
    # and are damped into the domain.  Its report point would start x - h
    # outside the domain; the reflection does not
    assert rejected == []
    assert [(i, family) for i, family, _ in damped] == [(5, "power")]
    assert short == [(5, "exponential")] * 3


def test_exact_read_offs_are_accepted_as_given(monkeypatch):
    # on seed 11's ten markets the exp(1) reports' primals, read off their
    # entropy duals, and both shadow-route duals, each at the lift of its
    # report's optimizer, pass the stopping test as given: accepted with
    # no finish round, no face step and no barrier step
    from frictiondual import pricing

    sols, solve_dual_ = [], pricing.solve_dual
    monkeypatch.setattr(pricing, "solve_dual",
                        lambda *args, **kwargs: sols.append(solve_dual_(*args, **kwargs))
                        or sols[-1])
    gen = InstanceGenerator(seed=11)
    for i in range(10):
        rep_e, rep_0 = pricing._reports(gen.draw_feasible(i), 1.0, 1.0)
        sols.clear()
        pricing._shadow_route(rep_e, rep_0)
        assert len(sols) == 2
        for d in [rep_e.diagnostics["primal"], rep_0.diagnostics["primal"]] + [
                sol.diagnostics for sol in sols]:
            assert d["face_start"] == {"accepted": True, "rounds": 0, "reason": None}, i
            assert d["events"] == ["face start accepted after 0 rounds"], i
            assert d["face_steps"] == 0 and d["newton_iterations"] == [], i


def test_rejected_face_start_returns_the_barrier_solve(two_period_market):
    # the log optimum at x = 60 lies off the optimal face at x = 6: the
    # face start is rejected and logged, and the solve is the barrier's
    # from the closed-form start, bit for bit.  Under exp(1) a row leaves the
    # face in each of the finish's rounds; under log five rows leave,
    # one step is taken and the next is not half of it
    far = solve_primal(two_period_market, LOG, 60.0)
    point = PrimalProgram.build(two_period_market, LOG).point(far.strategy, far.claim)
    for spec, reason in ((LOG, "KKT residuals"), (EXP1, "no step on the face")):
        start = _with_zero_multipliers(two_period_market, spec, 6.0, point)
        res, barrier = _face_and_cold_solves(two_period_market, spec, 6.0, start)
        face = res.diagnostics.face_start
        assert face["reason"].startswith(reason)
        _assert_barrier_bits(res, barrier)
        warm = solve_primal(two_period_market, spec, 6.0, face_start=start)
        assert warm.diagnostics["face_start"] == face


def _count_starts(monkeypatch):
    """The wealths at which :meth:`PrimalProgram.start` is built, in order."""
    built, start = [], PrimalProgram.start

    def counted(self, x):
        built.append(x)
        return start(self, x)

    monkeypatch.setattr(PrimalProgram, "start", counted)
    return built


@pytest.mark.parametrize("spec", [LOG, EXP1], ids=["log", "exp"])
def test_accepted_face_start_builds_no_start(spec, monkeypatch):
    # verify_identities' two primals, and the exponential report's, are
    # face-started and accepted on seed 11's market 0: the closed-form
    # start is not built; a cold solve, the log
    # report's own primal among them, builds the closed-form one once
    market = InstanceGenerator(seed=11).draw_feasible(0)
    x = 1.0 if spec.wealth_domain == "real" else max(compute_x0(market), 0.0) + 5.0
    built = _count_starts(monkeypatch)
    rep = solve_report(market, spec, x)
    verify_identities(rep)
    cold = [] if spec is EXP1 else [x]
    side = "primal" if spec is EXP1 else "dual"
    assert rep.diagnostics[side]["face_start"]["accepted"]
    assert built == cold
    solve_primal(market, spec, x, program=rep.primal)
    assert built == cold + [x]


def test_dual_face_start_is_accepted_on_generated_markets(monkeypatch):
    # on seed 11's ten markets the cone dual, started at the point and
    # multipliers read off the primal optimum, finishes on its face with
    # no barrier step, at the value of the cold cone solve.  Its barrier's
    # start, the strict point, is then never built: neither the report
    # nor verify_identities calls martingale_point
    def no_point(market):
        raise AssertionError("strict point built")

    gen = InstanceGenerator(seed=11)
    for i in range(10):
        market = gen.draw_feasible(i)
        poly = build_polytope(market)
        x = max(compute_x0(market), 0.0) + 5.0
        for spec in SHADOW_FAMILIES[:2]:
            with monkeypatch.context() as patch:
                patch.setattr(polytope, "martingale_point", no_point)
                rep = solve_report(market, spec, x)
                verify_identities(rep)
            d = rep.diagnostics["dual"]
            face = accepted_face(d)
            assert d["face_start"] == face, (i, spec)
            assert d["events"] == [f"face start accepted after {face['rounds']} rounds"]
            assert d["newton_iterations"] == [] and d["factorizations"] == 0
            yhat, value, _ = minimize_v_plus_xy(market, spec, x, poly=poly)
            assert rep.dual_value + x * rep.yhat == pytest.approx(value, rel=1e-12), (i, spec)
            assert rep.yhat == pytest.approx(yhat, rel=1e-12), (i, spec)


def test_rejected_dual_face_start_runs_the_cold_cone_solve(two_period_market, monkeypatch):
    # a dual face start outside the objective domain (W0 < 0) is rejected
    # and recorded, and the cone dual is then the cold solve from the
    # strict point, bit for bit
    x = compute_x0(two_period_market) + 4.0
    dual_start = PrimalProgram.dual_start

    def negated(self, x, strategy, lam):
        point, rows = dual_start(self, x, strategy, lam)
        return -point, rows

    monkeypatch.setattr(PrimalProgram, "dual_start", negated)
    built, point = [], polytope.martingale_point
    monkeypatch.setattr(polytope, "martingale_point",
                        lambda market: built.append(market) or point(market))
    rep = solve_report(two_period_market, LOG, x)
    assert built == [two_period_market]
    d = rep.diagnostics["dual"]
    face = {"accepted": False, "rounds": 0, "reason": "start outside the objective domain"}
    assert d["face_start"] == face
    yhat, _, cold = minimize_v_plus_xy(two_period_market, LOG, x)
    assert rep.yhat.hex() == yhat.hex()
    assert rep.dual_leaf_vars.tobytes() == cold.leaf_vars.tobytes()
    _assert_cold_diagnostics(d, cold.diagnostics)
    assert rep.relative_gap <= 1e-6


def _assert_cold_diagnostics(warm, cold):
    """The diagnostics ``warm`` of a solve whose face start was rejected
    are ``cold``'s, of the same solve given none, but for the rejection's
    record and its event ahead of ``cold``'s: the same status, Newton
    steps, factorizations and barrier path."""
    warm = dict(warm)
    face = warm.pop("face_start")
    assert not face["accepted"] and cold["face_start"] is None
    assert warm.pop("events") == [f"face start rejected after {face['rounds']} rounds: "
                                  f"{face['reason']}"] + cold["events"]
    assert warm == {k: v for k, v in cold.items() if k not in ("face_start", "events")}


POWER = UtilitySpec("power", alpha=0.5)


@pytest.mark.parametrize("seed, i, side, reason", [
    (11, 5, "x-h", "start outside the objective domain"),
    (1, 26, "x+h", "KKT residuals"),
    (5, 9, "dual", "KKT residuals"),
], ids=["seed11-m5-x-h", "seed1-m26-x+h", "seed5-m9-dual"])
def test_rejected_face_start_is_the_cold_solve(seed, i, side, reason, monkeypatch):
    # the one face-start rule: when the engine rejects a face start, the
    # barrier runs from the program's own closed-form start, built once,
    # and the solve is the cold solve at the same x, bit for bit, Newton
    # steps included.  Under power(1/2) at x0 + 5: seed 11's market 5
    # started at the report's point puts x - h outside the objective
    # domain (verify_identities starts it at the reflection instead);
    # seed 1's market 26 started there for x + h is on its face, but the
    # full Newton steps of sqrt do not halve; and seed 5's market 9's
    # cone dual, read off the primal optimum, misses on complementarity
    # alone after its finish round, so its cold solve from the strict
    # point runs to the Newton cap, promoted
    market = InstanceGenerator(seed=seed).draw_feasible(i)
    x = max(compute_x0(market), 0.0) + 5.0
    rep = solve_report(market, POWER, x)
    if side == "dual":
        warm = rep.diagnostics["dual"]
        yhat, _, cold = minimize_v_plus_xy(market, POWER, x)
        got, want = (rep.yhat, rep.dual_value, rep.dual_leaf_vars), (yhat, cold.value,
                                                                     cold.leaf_vars)
    else:
        primal = rep.primal
        h = duality.FD_STEP * min(1.0 + abs(x), x - primal.threshold - duality.THRESHOLD_MARGIN)
        xh = x + h if side == "x+h" else x - h
        start = (primal.point(rep.strategy, rep.claim),
                 primal.multipliers(xh, rep.yhat, rep.dual_system))
        built = _count_starts(monkeypatch)
        sol = solve_primal(market, POWER, xh, face_start=start, program=primal)
        assert built == [xh]
        warm = sol.diagnostics
        cold = solve_primal(market, POWER, xh)
        got, want = (sol.value, sol.claim, sol.multipliers), (cold.value, cold.claim,
                                                              cold.multipliers)
    assert warm["face_start"]["reason"].startswith(reason)
    for a, b in zip(got, want):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    _assert_cold_diagnostics(warm, cold.diagnostics)


def test_dual_read_off_that_is_already_optimal_takes_no_newton_step():
    # seed 2's market 82 under power(1/2) at x0 + 5: the cone dual read off
    # the primal optimum passes the stopping test as given and is accepted
    # with no round.  Its finish round missed on complementarity, and the
    # cold solve then ran to the Newton cap, promoted
    market = InstanceGenerator(seed=2).draw_feasible(82)
    rep = solve_report(market, POWER, max(compute_x0(market), 0.0) + 5.0)
    d = rep.diagnostics["dual"]
    assert d["face_start"] == {"accepted": True, "rounds": 0, "reason": None}
    assert d["events"] == ["face start accepted after 0 rounds"]
    assert d["newton_iterations"] == [] and d["face_steps"] == 0
    assert rep.relative_gap <= 1e-6


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
                   reason="entropy dual ends on a quiet floor exit at step 14, KKT "
                          "residual 2.85e-5")
def test_generated_market_5_43_reports():
    # 11 nodes, lambda = 0.176; the exp primal alone solves in 40 steps
    market = InstanceGenerator(seed=5).draw_feasible(43)
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


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="exp(5) primal face start rejected, the cold primal is "
                          "promoted from the Newton cap: leaf identity 2.9e-3 off")
def test_generated_market_11_5_exponential_5_meets_the_leaf_identity():
    # seed 11's market 5 under exp(gamma = 5) at x = 1; its smallest leaf
    # density is 5.4e-12.  The primal face start read off the entropy dual
    # takes no step on the face in 6 rounds, and the cold primal runs to
    # the 500-step cap, promoted from max_iter.  The gap passes (1.8e-10);
    # the leaf identity misses by 1.1e-2, 2.9e-3 relative to 1 + |wealth|
    market = InstanceGenerator(seed=11).draw_feasible(5)
    rep = solve_report(market, UtilitySpec("exponential", gamma=5.0), 1.0)
    assert rep.relative_gap <= 1e-6
    wealth = 1.0 + rep.claim + market.endowment
    resid = rep.leaf_identity_residuals
    support = ~np.isnan(resid)
    assert np.all(resid[support] <= 1e-6 * (1.0 + np.abs(wealth[support])))


@pytest.mark.parametrize("y", [
    1e8,
    pytest.param(1e10, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="power dual stops at its start: 0 Newton steps, Z0 8.37e-4 off")),
    pytest.param(1e12, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="power dual stops at its start: 0 Newton steps, Z0 8.37e-4 off")),
])
def test_power_dual_at_large_scale_keeps_the_unit_scale_minimizer(y):
    # without an endowment the power(1/2) dual objective is y^-1 times its
    # value at y = 1, so its minimizer does not move with y.  The engine's
    # tests are relative to 1 + |f|, and at y >= 1e10 the start passes them
    market = InstanceGenerator(seed=7).draw_feasible(0)
    market = market.with_endowment(np.zeros(market.tree.n_leaves))
    L = market.tree.n_leaves
    unit = solve_dual(market, POWER, 1.0)
    sol = solve_dual(market, POWER, y)
    assert np.abs(sol.leaf_vars[:L] - unit.leaf_vars[:L]).max() <= 1e-9
    assert abs(sol.value * y / unit.value - 1.0) <= 1e-9


@pytest.mark.xfail(strict=True, raises=EngineError,
                   reason="an endowment of 1000 on a zero-density leaf: the reduced "
                          "Newton matrix breaks down at lambda = 0.01, the primal fails "
                          "at lambda = 0")
@pytest.mark.parametrize("lam", [0.01, 0.0])
def test_unhedgeable_trinomial_endowment_of_1000_reports(lam):
    # the breakdown follows overflows in the reduced Newton matrix, which
    # numpy would report as warnings first
    tree = EventTree(parent=[-1, 0, 0, 0], time=[0, 1, 1, 1], cond_prob=[1.0, 0.3, 0.4, 0.3])
    market = MarketSpec(tree=tree, ask_price=[100.0, 110.0, 100.0, 90.0], lam=lam,
                        endowment=[0.0, 1000.0, 0.0])
    with np.errstate(all="ignore"):
        assert solve_report(market, EXP1, 1.0).relative_gap <= 1e-6
