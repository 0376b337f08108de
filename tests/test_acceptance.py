"""End-to-end acceptance battery at desk scale.

One shared batch of 200 generated feasible instances feeds the duality,
leaf-identity, marginal and shadow criteria; the remaining criteria use
dedicated small instance sets with independent brute-force oracles
(dense grids, polytope vertex enumeration, scipy references).
"""

import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

from frictiondual.duality import (
    PrimalProgram,
    _dual_objective,
    compute_x0,
    solve_dual,
    solve_report,
    verify_identities,
)
from frictiondual.generate import InstanceGenerator, emit_instance
from frictiondual.polytope import (
    PolytopeInfeasibleError,
    build_polytope,
    check_cps,
)
from frictiondual.shadow import (
    construct_shadow,
    shadow_from_dual_roundtrip,
    solve_frictionless,
    verify_shadow,
)
from frictiondual.trading import roll_forward, terminal_claim
from frictiondual.tree import EventTree, MarketSpec
from frictiondual.utility import UtilitySpec, utility_label
from oracles import (audit_derivatives, enumerate_vertices, path_to_root, sample_polytope,
                     superreplicate)

SEED = int(os.environ.get("FD_SEED", "2026"))

UTILITY_CYCLE = (
    UtilitySpec("exponential", gamma=0.1),
    UtilitySpec("exponential", gamma=1.0),
    UtilitySpec("log"),
    UtilitySpec("power", alpha=0.5),
)


@dataclass
class Solved:
    market: MarketSpec
    spec: UtilitySpec
    x: float
    report: object


@pytest.fixture(scope="module")
def batch():
    """200 feasible instances, utilities cycled, solved once for reuse."""
    gen = InstanceGenerator(seed=SEED)
    t_gen = time.perf_counter()
    instances = [gen.draw_feasible(i) for i in range(200)]
    gen_elapsed = time.perf_counter() - t_gen

    solved = []
    t0 = time.perf_counter()
    for i, market in enumerate(instances):
        spec = UTILITY_CYCLE[i % len(UTILITY_CYCLE)]
        if spec.wealth_domain == "positive":
            x = max(compute_x0(market), 0.0) + 5.0
        else:
            x = 1.0
        rep = solve_report(market, spec, x)
        solved.append(Solved(market=market, spec=spec, x=x, report=rep))
    elapsed = time.perf_counter() - t0
    print(f"\n[batch] generation {gen_elapsed:.1f}s, 200 solves {elapsed:.1f}s")
    return {"solved": solved, "elapsed": elapsed}


def test_criterion_01_strong_duality_batch(batch):
    gaps = [s.report.relative_gap for s in batch["solved"]]
    assert len(gaps) == 200
    assert max(gaps) <= 1e-6
    assert batch["elapsed"] <= 60.0


def test_criterion_02_pointwise_leaf_identity(batch):
    worst = 0.0
    for s in batch["solved"]:
        rep = s.report
        endow = s.market.endowment
        wealth = s.x + rep.claim + endow
        resid = rep.leaf_identity_residuals
        mask = ~np.isnan(resid)
        if not mask.any():
            continue
        scaled = resid[mask] / (1.0 + np.abs(wealth[mask]))
        worst = max(worst, float(scaled.max()))
    assert worst <= 1e-6


def test_criterion_03_marginal_utility_formulae(batch):
    worst_c = worst_d = 0.0
    for s in batch["solved"]:
        rec = verify_identities(s.report)
        worst_c = max(worst_c, rec["marginal_mean_residual"])
        worst_d = max(worst_d, rec["marginal_weighted_residual"])
    assert worst_c <= 1e-5
    assert worst_d <= 1e-5


# ---------------------------------------------------------------------------
# criterion 4: brute-force grids on one-period binomials


def one_period_binomial(i):
    rng = np.random.default_rng(np.random.SeedSequence([SEED, 40, i]))
    s0 = 100.0
    sigma = rng.uniform(0.1, 0.3)
    su = s0 * math.exp(sigma)
    sd = s0 * math.exp(-sigma)
    pu = float(rng.uniform(0.3, 0.7))
    lam = float(rng.uniform(0.005, 0.1))
    tree = EventTree(parent=[-1, 0, 0], time=[0, 1, 1], cond_prob=[1.0, pu, 1 - pu])
    return MarketSpec(tree=tree, ask_price=[s0, su, sd], lam=lam,
                      endowment=[0.0, 0.0])


def grid_primal_value(market, spec, x, delta_max=1.0, step=1e-5):
    """Dense 1-D search over the net trade at the root."""
    s0 = market.ask_price[0]
    lam = market.lam
    s_leaf = market.ask_price[market.tree.leaves]
    prob = market.tree.leaf_prob
    d = np.arange(-delta_max, delta_max + step, step)
    # buy leg pays the ask and liquidates long at the bid; a short sale
    # credits the bid and is bought back at the ask
    claim = np.where(
        d[:, None] >= 0.0,
        (-s0 + (1 - lam) * s_leaf[None, :]) * d[:, None],
        (-(1 - lam) * s0 + s_leaf[None, :]) * d[:, None],
    )
    w = x + claim
    if spec.wealth_domain == "positive":
        ok = np.all(w > 0.0, axis=1)
        u = np.full(d.size, -np.inf)
        if spec.family == "log":
            u[ok] = np.log(w[ok]) @ prob
        else:
            u[ok] = (w[ok] ** spec.alpha / spec.alpha) @ prob
    else:
        u = -np.exp(-spec.gamma * w) @ prob
    k = int(np.argmax(u))
    assert 0 < k < d.size - 1, "grid optimum must be interior"
    return float(u[k])


def grid_dual_value(market, spec, y, step=1e-5):
    """Dense 1-D search over the up-leaf density of a binomial polytope."""
    pu, pd = market.tree.cond_prob[1], market.tree.cond_prob[2]
    su, sd = market.ask_price[1], market.ask_price[2]
    s0 = market.ask_price[0]
    lam = market.lam
    z0u = np.arange(step, 1.0 / pu - step, step)
    z0d = (1.0 - pu * z0u) / pd
    valid = z0d > 0.0
    z0u, z0d = z0u[valid], z0d[valid]
    # a martingale selection inside the cone exists iff the reachable
    # root interval overlaps the root cone
    lo = pu * (1 - lam) * su * z0u + pd * (1 - lam) * sd * z0d
    hi = pu * su * z0u + pd * sd * z0d
    feas = (lo <= s0) & (hi >= (1 - lam) * s0)
    z0u, z0d = z0u[feas], z0d[feas]

    def v_vec(t):
        if spec.family == "log":
            return -np.log(t) - 1.0
        g = spec.gamma
        return t / g * (np.log(t / g) - 1.0)

    vals = pu * v_vec(y * z0u) + pd * v_vec(y * z0d)
    k = int(np.argmin(vals))
    return float(vals[k])


def test_criterion_04_grid_oracles():
    worst_u = worst_v = 0.0
    for i in range(20):
        market = one_period_binomial(i)
        spec = UtilitySpec("exponential", gamma=1.0) if i % 2 == 0 \
            else UtilitySpec("log")
        x = 2.0
        rep = solve_report(market, spec, x)
        u_grid = grid_primal_value(market, spec, x)
        worst_u = max(worst_u, abs(rep.value - u_grid))
        y = 1.0 if spec.family == "log" else rep.yhat
        v_grid = grid_dual_value(market, spec, y)
        worst_v = max(worst_v, abs(solve_dual(market, spec, y).value - v_grid))
    assert worst_u <= 1e-6
    assert worst_v <= 1e-5


# ---------------------------------------------------------------------------
# criterion 5: superreplication inequality


def test_criterion_05_superreplication():
    gen = InstanceGenerator(seed=SEED + 5, max_periods=3)
    rng = np.random.default_rng(np.random.SeedSequence([SEED, 50]))
    total_pairs = 0
    worst = -np.inf
    for j in range(5):
        market = gen.draw_feasible(j)
        tree = market.tree
        poly = build_polytope(market)
        prob = tree.leaf_prob
        systems = sample_polytope(poly, 200, seed=SEED + j)
        Z0 = np.array([ps.z0[tree.leaves] for ps in systems])
        xs = rng.uniform(-2.0, 2.0, size=100)
        claims = np.empty((100, tree.n_leaves))
        internal = tree.internal
        for i in range(100):
            buy = np.zeros(tree.n_nodes)
            sell = np.zeros(tree.n_nodes)
            buy[internal] = rng.uniform(0.0, 0.5, size=internal.size)
            sell[internal] = rng.uniform(0.0, 0.5, size=internal.size)
            st = roll_forward(market, float(xs[i]), buy, sell)
            claims[i] = terminal_claim(market, st)
        # E[Z0 * claim] <= x for every (strategy, price-system) pair
        expect = claims @ (prob[None, :] * Z0).T     # (100, 200)
        viol = expect - xs[:, None]
        worst = max(worst, float(viol.max()))
        total_pairs += expect.size
    assert total_pairs == 100000
    assert worst <= 1e-9

    # vertex-verified claims are superreplicable with negligible shortfall
    gen2 = InstanceGenerator(seed=SEED + 6, max_periods=2, max_branching=2)
    done = 0
    j = 0
    while done < 20:
        market = gen2.draw_feasible(j)
        j += 1
        tree = market.tree
        V = enumerate_vertices(build_polytope(market))
        if V is None:
            continue
        prob = tree.leaf_prob
        internal = tree.internal
        for _ in range(4):
            if done >= 20:
                break
            x = float(rng.uniform(-1.0, 1.0))
            buy = np.zeros(tree.n_nodes)
            sell = np.zeros(tree.n_nodes)
            buy[internal] = rng.uniform(0.0, 0.4, size=internal.size)
            sell[internal] = rng.uniform(0.0, 0.4, size=internal.size)
            st = roll_forward(market, x, buy, sell)
            claim = terminal_claim(market, st)
            L = tree.n_leaves
            prices = V[:, :L] @ (prob * claim)
            assert np.all(prices <= x + 1e-7)   # vertex certificate
            shortfall, _ = superreplicate(market, x, claim)
            assert shortfall <= 1e-6
            done += 1
    assert done == 20


# ---------------------------------------------------------------------------
# criterion 6: shadow prices on the shared batch


def test_criterion_06_shadow_prices(batch):
    checked = 0
    for s in batch["solved"]:
        rep = s.report
        L = s.market.tree.n_leaves
        z0_leaf = rep.dual_leaf_vars[:L]
        if z0_leaf.min() <= 1e-10:
            continue      # criterion applies to strictly positive optimizers
        shadow = construct_shadow(s.market, rep.dual_system)
        fr = solve_frictionless(shadow.as_market(), s.spec, s.x, y=rep.yhat)
        rec = verify_shadow(rep, shadow, fr)
        assert rec["value_gap"] <= 1e-6 * (1.0 + abs(rep.value))
        assert rec["direction_violations"] == []
        round_ = shadow_from_dual_roundtrip(rep, shadow)
        assert round_["polytope_violation"] <= 1e-8
        assert round_["dual_value_gap"] <= 1e-6 * (1.0 + abs(rep.dual_value))
        # and relative to the dual values themselves, never looser
        assert round_["matches_dual_value"]
        checked += 1
    assert checked >= 100     # the batch must actually exercise the property


# ---------------------------------------------------------------------------
# criterion 7: indifference price route agreement


def test_criterion_07_price_routes():
    from frictiondual.pricing import indifference_price, price_dual, price_primal

    gen = InstanceGenerator(seed=SEED + 7, max_periods=3)
    gamma = 0.8
    for j in range(10):
        market = gen.draw_feasible(j)
        rep = indifference_price(market, gamma, x=1.0)
        tol = 1e-5 * (1.0 + abs(rep.p_primal))
        assert rep.residuals["primal_vs_dual"] <= tol
        assert rep.residuals["primal_vs_shadow"] <= tol
        assert rep.residuals["dual_vs_shadow"] <= tol
        assert rep.lower_bound - 1e-8 <= rep.p_dual <= rep.upper_bound + 1e-8
        # invariance under a shift of initial wealth
        shift = abs(price_primal(market, gamma, x=1.0)
                    - price_primal(market, gamma, x=8.0))
        assert shift <= 1e-7
        # cash additivity of the endowment
        c = 4.0
        p_c, *_ = price_dual(market.with_endowment(market.endowment + c), gamma)
        assert abs(p_c - (rep.p_dual + c)) <= 1e-8


# ---------------------------------------------------------------------------
# criterion 8: existence checker vs vertex enumeration


def test_criterion_08_cps_vs_vertex_enumeration():
    gens = [
        InstanceGenerator(seed=SEED + 8, min_periods=1, max_periods=1),
        InstanceGenerator(seed=SEED + 9, min_periods=2, max_periods=2,
                          max_branching=2),
    ]
    disagreements = []
    checked = 0
    for gen in gens:
        for j in range(25):
            market = gen.draw(j)
            verdict = check_cps(market)
            poly = build_polytope(market)
            V = enumerate_vertices(poly)
            if V is None:
                oracle = False      # empty (or lower-dimensional) polytope
            else:
                L = market.tree.n_leaves
                # a strictly positive combination exists iff every leaf
                # carries positive density on some vertex
                oracle = bool(V[:, :L].max(axis=0).min() > 1e-7)
            if verdict.exists != oracle:
                disagreements.append((gen.seed, j, verdict.exists, oracle))
            checked += 1
    assert checked == 50
    assert disagreements == []


# ---------------------------------------------------------------------------
# criterion 9: derivative audits and bitwise determinism


def test_criterion_09a_derivative_audits(two_period_market):
    rng = np.random.default_rng(SEED)
    specs = [UtilitySpec("log"), UtilitySpec("power", alpha=0.5),
             UtilitySpec("exponential", gamma=0.7)]
    for spec in specs:
        x = 6.0
        prog = PrimalProgram.build(two_period_market, spec).at(x)
        pts = [prog.x0()]
        for _ in range(2):
            p = pts[0] + rng.uniform(-0.05, 0.05, size=pts[0].size)
            if prog.in_domain is None or prog.in_domain(p):
                pts.append(p)
        gerr, herr, ok = audit_derivatives(prog.objective, pts)
        assert ok, f"primal {utility_label(spec)}: grad {gerr:.2e} hess {herr:.2e}"

    poly = build_polytope(two_period_market)
    prob = two_period_market.tree.leaf_prob
    endow = two_period_market.endowment
    L = two_period_market.tree.n_leaves
    s_leaf = two_period_market.ask_price[two_period_market.tree.leaves]
    z_pts = [np.concatenate([np.full(L, 0.8), 0.8 * s_leaf]),
             np.concatenate([np.linspace(0.5, 1.5, L), 0.9 * s_leaf])]
    for spec in specs:
        obj, _ = _dual_objective(poly, spec, 0.9, endow, prob)
        gerr, herr, ok = audit_derivatives(obj, z_pts)
        assert ok, f"dual {utility_label(spec)}: grad {gerr:.2e} hess {herr:.2e}"


def test_criterion_09b_bitwise_determinism(two_period_market):
    spec = UtilitySpec("exponential", gamma=0.5)
    a = solve_report(two_period_market, spec, 1.0)
    b = solve_report(two_period_market, spec, 1.0)
    assert a.value.hex() == b.value.hex()
    assert a.yhat.hex() == b.yhat.hex()
    assert a.claim.tobytes() == b.claim.tobytes()
    assert a.dual_leaf_vars.tobytes() == b.dual_leaf_vars.tobytes()
    assert a.strategy.buy.tobytes() == b.strategy.buy.tobytes()

    gen = InstanceGenerator(seed=SEED)
    assert emit_instance(gen.draw(3)) == emit_instance(gen.draw(3))


# ---------------------------------------------------------------------------
# criterion 10: frictionless limit


def frictionless_oracle_value(market, gamma, x):
    """Direct smooth maximization over node positions (scipy BFGS)."""
    tree = market.tree
    internal = tree.internal
    pos = {int(n): k for k, n in enumerate(internal)}
    K, L = internal.size, tree.n_leaves
    S = market.ask_price
    prob = tree.leaf_prob
    D = np.zeros((L, K))
    for li, leaf in enumerate(tree.leaves):
        path = path_to_root(tree, int(leaf))
        for child, node in zip(path[:-1], path[1:]):
            D[li, pos[node]] = S[child] - S[node]
    endow = market.endowment

    def neg_u(theta):
        w = x + D @ theta + endow
        e = np.exp(-gamma * w)
        return float(prob @ e), -gamma * (prob * e) @ D

    res = scipy_minimize(neg_u, np.zeros(K), jac=True, method="BFGS",
                         options={"gtol": 1e-12, "maxiter": 500})
    return -float(res.fun)


def test_criterion_10_frictionless_limit():
    gen = InstanceGenerator(seed=SEED + 10, max_periods=3)
    gamma = 0.5
    spec = UtilitySpec("exponential", gamma=gamma)
    lams = (0.1, 0.01, 0.001, 0.0)
    done = 0
    j = 0
    while done < 20:
        market = gen.draw(j)
        j += 1
        # the whole lambda path must stay feasible, including the
        # zero-spread endpoint (a martingale selection must exist)
        if not check_cps(market, mu=0.001).exists:
            continue
        try:
            sample_polytope(build_polytope(replace(market, lam=0.0)), 1)
        except PolytopeInfeasibleError:
            continue
        vals = []
        for lam in lams:
            rep = solve_report(replace(market, lam=lam), spec, 1.0)
            vals.append(rep.value)
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 1e-9 * (1.0 + abs(a))
        oracle = frictionless_oracle_value(market, gamma, 1.0)
        assert vals[-1] == pytest.approx(oracle, abs=1e-6 * (1.0 + abs(oracle)))
        done += 1
    assert done == 20
