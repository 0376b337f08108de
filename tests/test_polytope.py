from dataclasses import replace

import numpy as np
import pytest

from frictiondual.polytope import (
    DENSITY_EPS,
    PolytopeInfeasibleError,
    build_polytope,
    check_cps,
    conditional_expectation_matrix,
    martingale_point,
)
from frictiondual.engine import solve_lp
from frictiondual.generate import InstanceGenerator
from frictiondual.shadow import construct_shadow
from frictiondual.tree import EventTree, MarketSpec
from oracles import children, enumerate_vertices, path_to_root, sample_polytope, trade_signs


def crossing_binomial(lam=0.01):
    """Both children strictly above the root ask: no price system can be
    a martingale-like selection inside the spread."""
    tree = EventTree(parent=[-1, 0, 0], time=[0, 1, 1], cond_prob=[1.0, 0.5, 0.5])
    return MarketSpec(tree=tree, ask_price=[100.0, 120.0, 110.0], lam=lam,
                      endowment=[0.0, 0.0])


def test_conditional_expectation_matrix(two_period_market):
    W = conditional_expectation_matrix(two_period_market)
    tree = two_period_market.tree
    # conditional expectation of the constant 1 is 1 at every node, and
    # only descendant leaves carry weight
    ones = np.ones(tree.n_leaves)
    assert np.allclose(W @ ones, np.ones(tree.n_nodes))
    for node in tree.internal:
        for k, leaf in enumerate(tree.leaves):
            if node not in path_to_root(tree, int(leaf)):
                assert W[node, k] == 0.0


def loop_built_polytope(market, lam):
    """Node-by-node and leaf-by-leaf reference of the polytope build."""
    tree = market.tree
    n, L = tree.n_nodes, tree.n_leaves
    W = np.zeros((n, L))
    for k, leaf in enumerate(tree.leaves):
        for node in path_to_root(tree, int(leaf)):
            W[node, k] = tree.leaf_prob[k] / tree.node_prob[node]
    s = market.ask_price
    eq_rows, eq_vals = [np.concatenate([tree.leaf_prob, np.zeros(L)])], [1.0]
    g_rows = []
    lower_idx, upper_idx = np.full(n, -1), np.full(n, -1)
    for node in range(n):
        lower = np.concatenate([-(1.0 - lam) * s[node] * W[node], W[node]])
        upper = np.concatenate([s[node] * W[node], -W[node]])
        if lam == 0.0:
            eq_rows.append(upper)
            eq_vals.append(0.0)
        else:
            lower_idx[node] = len(g_rows)
            g_rows.append(lower)
            upper_idx[node] = len(g_rows)
            g_rows.append(upper)
    g_rows.extend(np.eye(2 * L))
    return {"cond_exp": W, "A_eq": np.array(eq_rows), "b_eq": np.array(eq_vals),
            "G": np.array(g_rows), "h": np.zeros(len(g_rows)),
            "cone_lower_rows": lower_idx, "cone_upper_rows": upper_idx}


def loop_built_margin_lp(poly, include_cone):
    """Node-by-node reference of the existence LP's inequality rows, with
    the kind and node each row belongs to."""
    market = poly.market
    L = market.tree.n_leaves
    nv = poly.n_vars
    s = market.ask_price
    rows, h_vals, kinds = [], [], []
    for node in range(market.tree.n_nodes):
        lo, hi = poly.cone_lower_rows[node], poly.cone_upper_rows[node]
        w_lo = float(s[node]) if include_cone else 0.0
        rows.append(np.concatenate([poly.G[lo], [-w_lo]]))
        h_vals.append(0.0)
        kinds.append(("cone_lower", node))
        rows.append(np.concatenate([poly.G[hi], [-w_lo]]))
        h_vals.append(0.0)
        kinds.append(("cone_upper", node))
    for k in range(L):
        row = np.zeros(nv + 1)
        row[k] = 1.0
        row[nv] = -1.0
        rows.append(row)
        h_vals.append(0.0)
        kinds.append(("z0_pos", k))
    for k in range(L):
        row = np.zeros(nv + 1)
        row[L + k] = 1.0
        rows.append(row)
        h_vals.append(0.0)
        kinds.append(("z1_pos", k))
    cap = np.zeros(nv + 1)
    cap[nv] = -1.0
    rows.append(cap)
    h_vals.append(-1.0)
    kinds.append(("cap", -1))
    return np.array(rows), np.array(h_vals), kinds


@pytest.mark.parametrize("seed", [11, 2033])
def test_max_margin_matches_loop_reference(seed, monkeypatch):
    # draw_feasible pins the benchmark populations through check_cps, so
    # the existence LP must stay bitwise the loop-built one
    import frictiondual.engine as engine
    import frictiondual.polytope as polytope

    calls = []

    def spy(c, **lp):
        res = solve_lp(c, **lp)
        calls.append((lp, res))
        return res

    monkeypatch.setattr(engine, "solve_lp", spy)
    gen = InstanceGenerator(seed=seed)
    for i in range(15):
        poly = build_polytope(gen.draw(i))
        for include_cone in (True, False):
            calls.clear()
            try:
                _, _, cert = polytope._max_margin(poly, include_cone)
            except PolytopeInfeasibleError:
                cert = None
            (lp, res), = calls
            G_ref, h_ref, kinds = loop_built_margin_lp(poly, include_cone)
            for got, want in ((lp["G"], G_ref), (lp["h"], h_ref)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            if cert is None:
                continue
            n_nodes = poly.market.tree.n_nodes
            lo_m, hi_m = np.zeros(n_nodes), np.zeros(n_nodes)
            for mult, (kind, node) in zip(res.ineq_multipliers, kinds):
                if kind == "cone_lower":
                    lo_m[node] = mult
                elif kind == "cone_upper":
                    hi_m[node] = mult
            assert cert["cone_lower_multipliers"] == lo_m.tolist()
            assert cert["cone_upper_multipliers"] == hi_m.tolist()


@pytest.mark.parametrize("seed", [11, 2033])
def test_margin_at_the_witness_is_the_lp_margin(seed):
    # DualPolytope.margin and the existence LP read the same weights, so
    # the margin at the LP's witness is the LP's optimal delta
    gen = InstanceGenerator(seed=seed)
    witnesses = 0
    for i in range(15):
        market = gen.draw(i)
        verdict = check_cps(market)
        if verdict.witness_leaf_vars is None:
            continue
        witnesses += 1
        margin = build_polytope(market).margin(verdict.witness_leaf_vars)
        assert abs(margin - verdict.delta) <= 1e-12 * abs(verdict.delta)
    assert witnesses > 0


@pytest.mark.parametrize("seed", [11, 2033])
def test_polytope_build_matches_loop_reference(seed):
    gen = InstanceGenerator(seed=seed)
    for i in range(15):
        market = gen.draw(i)
        for lam in (market.lam, 0.0):
            poly = build_polytope(market, spread=lam)
            ref = loop_built_polytope(market, lam)
            assert np.array_equal(conditional_expectation_matrix(market),
                                  ref["cond_exp"])
            for name, want in ref.items():
                got = getattr(poly, name)
                assert got.dtype == want.dtype and got.shape == want.shape, name
                assert got.tobytes() == want.tobytes(), name


def test_polytope_contains_martingale_density(martingale_binomial):
    poly = build_polytope(martingale_binomial)
    # z0 == 1 at both leaves, z1 = z0 * S_T is inside the cone because the
    # ask process is already a martingale
    z = np.array([1.0, 1.0, 120.0, 80.0])
    assert poly.max_violation(z) <= 1e-12
    ps = poly.price_system(z)
    shadow = construct_shadow(martingale_binomial, ps)
    assert np.allclose(shadow.value[[1, 2]], [120.0, 80.0])


def test_price_system_interior_values(two_period_market):
    poly = build_polytope(two_period_market)
    for ps in sample_polytope(poly, 5, seed=1):
        tree = two_period_market.tree
        # interior node values are the conditional expectations of the
        # leaf values: the density is a martingale in both coordinates
        for node in tree.internal:
            kids = children(tree, node)
            z0_kids = sum(tree.cond_prob[k] * ps.z0[k] for k in kids)
            assert ps.z0[node] == pytest.approx(z0_kids, abs=1e-8)
        # and it stays inside the bid-ask cone
        mask = ps.z0 > 1e-10
        ratio = ps.z1[mask] / ps.z0[mask]
        s = two_period_market.ask_price[mask]
        assert np.all(ratio <= s * (1 + 1e-8))
        assert np.all(ratio >= s * (1 - two_period_market.lam) * (1 - 1e-8))


def test_root_normalization(two_period_market):
    poly = build_polytope(two_period_market)
    for ps in sample_polytope(poly, 3, seed=5):
        assert ps.z0[0] == pytest.approx(1.0, abs=1e-9)


def test_check_cps_positive(martingale_binomial, two_period_market):
    for market in (martingale_binomial, two_period_market):
        v = check_cps(market)
        assert v.exists
        assert v.delta > 1e-9
        assert v.witness is not None
        assert v.certificate is None
        # the witness is strictly positive on every node
        assert np.all(v.witness.z0 > 0)


@pytest.mark.parametrize("seed", [11, 2033])
def test_martingale_point_is_strictly_inside(seed, martingale_binomial):
    from frictiondual.duality import solve_report
    from frictiondual.utility import UtilitySpec

    gen = InstanceGenerator(seed=seed)
    markets = [replace(martingale_binomial, lam=0.0)]
    for i in range(15):
        m = gen.draw_feasible(i)
        rep = solve_report(m, UtilitySpec("exponential", gamma=1.0), 1.0)
        markets.append(construct_shadow(m, rep.dual_system).as_market())
    for market in markets:
        z = martingale_point(market)
        assert z is not None and np.all(z > 0.0)
        poly = build_polytope(market)
        assert poly.max_violation(z) <= 1e-12
        ps = poly.price_system(z)
        assert ps.z0.min() > DENSITY_EPS and ps.z1.min() > DENSITY_EPS
    # p = 1/2 is already the martingale measure of 100 -> 120/80
    assert np.array_equal(martingale_point(markets[0]), [1.0, 1.0, 120.0, 80.0])


def test_martingale_point_none_on_a_one_way_market():
    from frictiondual.duality import solve_dual
    from frictiondual.utility import UtilitySpec

    market = crossing_binomial(lam=0.0)
    assert martingale_point(market) is None
    with pytest.raises(PolytopeInfeasibleError):
        solve_dual(market, UtilitySpec("exponential", gamma=1.0), 1.0)
    # at 1% spread no band price reaches the root either; at 15% one does
    assert martingale_point(replace(market, lam=0.01)) is None
    wide = replace(market, lam=0.15)
    z = martingale_point(wide)
    assert z is not None and build_polytope(wide).margin(z) > 1e-9


def zero_spread_martingale_point(market):
    """The one-step reweighting of the ask price, as the zero-spread
    closed form computes it: the bitwise reference at zero spread."""
    tree = market.tree
    S = market.ask_price
    par, p = tree.parent[1:], tree.cond_prob[1:]
    move = S[1:] - S[par]
    up, down = move > 0.0, move < 0.0
    a = np.bincount(par[up], weights=p[up] * move[up], minlength=tree.n_nodes)
    b = np.bincount(par[down], weights=-p[down] * move[down], minlength=tree.n_nodes)
    if np.any((a > 0.0) != (b > 0.0)):
        return None
    w = np.ones(par.size)
    w[up] = 1.0 / a[par[up]]
    w[down] = 1.0 / b[par[down]]
    ratio = np.ones(tree.n_nodes)
    ratio[1:] = w / np.bincount(par, weights=p * w, minlength=tree.n_nodes)[par]
    z0 = np.prod(np.where(tree.on_path, ratio, 1.0), axis=1)
    return np.concatenate([z0, S[tree.leaves] * z0])


def test_martingale_point_at_zero_spread_is_unchanged(martingale_binomial):
    gen = InstanceGenerator(seed=11)
    markets = [martingale_binomial, crossing_binomial()]
    markets += [gen.draw(i) for i in range(60)]
    found = 0
    for market in markets:
        market = replace(market, lam=0.0)
        got, want = martingale_point(market), zero_spread_martingale_point(market)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.tobytes() == want.tobytes()
            found += 1
    assert 0 < found < len(markets)


@pytest.mark.parametrize("seed", [11, 2026, 3])
def test_martingale_point_decides_existence(seed):
    # the closed form finds a strictly consistent price system exactly when
    # the existence LP does, and its point is then strictly inside
    gen = InstanceGenerator(seed=seed)
    markets = [gen.draw(i) for i in range(300)]
    if seed == 11:
        markets += [gen.draw_feasible(i) for i in range(10)]
    feasible = 0
    for market in markets:
        z = martingale_point(market)
        assert check_cps(market).exists == (z is not None)
        if z is None:
            continue
        poly = build_polytope(market)
        assert poly.margin(z) > 1e-9
        assert poly.max_violation(z) <= 1e-12
        feasible += 1
    assert 100 <= feasible < len(markets)


def test_thin_band_falls_back_to_the_existence_check(monkeypatch):
    # the band prices reaching the root span 1e-9: the closed-form point
    # exists but its margin does not clear, so the report runs the LP,
    # which finds no strictly positive price system either
    from frictiondual import duality
    from frictiondual.duality import NoCpsError, solve_report
    from frictiondual.utility import UtilitySpec

    tree = EventTree(parent=[-1, 0, 0], time=[0, 1, 1], cond_prob=[1.0, 0.5, 0.5])
    s_up = (100.0 - 1e-9) / 0.99
    market = MarketSpec(tree=tree, ask_price=[100.0, s_up, 1.01 * s_up], lam=0.01,
                        endowment=[0.0, 0.0])
    z = martingale_point(market)
    assert z is not None and 0.0 < build_polytope(market).margin(z) <= 1e-9
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return check_cps(*args, **kwargs)

    monkeypatch.setattr(duality, "check_cps", counted)
    with pytest.raises(NoCpsError):
        solve_report(market, UtilitySpec("exponential", gamma=1.0), 1.0)
    assert len(calls) == 1


def test_check_cps_negative_with_certificate():
    market = crossing_binomial(lam=0.01)
    v = check_cps(market)
    assert not v.exists
    assert v.witness is None
    assert v.certificate is not None
    signs = trade_signs(v)
    assert signs is not None
    # the certificate describes a buy-at-root arbitrage
    assert signs[0] == 1


def test_check_cps_widening_spread_restores_existence():
    market = crossing_binomial(lam=0.01)
    assert not check_cps(market).exists
    # at 15% spread the cone is wide enough again: 120*0.85 = 102 > 100
    assert check_cps(market, mu=0.15).exists


def test_check_cps_rejects_bad_spread(martingale_binomial):
    with pytest.raises(ValueError):
        check_cps(martingale_binomial, mu=0.0)
    with pytest.raises(ValueError):
        check_cps(martingale_binomial, mu=1.0)


def test_sample_polytope_deterministic(two_period_market):
    poly = build_polytope(two_period_market)
    a = sample_polytope(poly, 4, seed=9)
    b = sample_polytope(poly, 4, seed=9)
    for pa, pb in zip(a, b):
        assert pa.z0.tobytes() == pb.z0.tobytes()


def test_sample_empty_polytope_raises():
    market = crossing_binomial(lam=0.001)
    poly = build_polytope(market)
    with pytest.raises(PolytopeInfeasibleError):
        sample_polytope(poly, 3)


def test_enumerate_vertices_binomial(martingale_binomial):
    poly = build_polytope(martingale_binomial)
    V = enumerate_vertices(poly)
    assert V is not None
    # every vertex satisfies the constraints and the set contains the
    # extreme densities where one leaf carries almost all the mass
    for v in V:
        assert poly.max_violation(v) <= 1e-7
    z0_up = V[:, 0]
    L = martingale_binomial.tree.n_leaves
    assert L == 2
    assert z0_up.max() > 1.0
    assert z0_up.min() < 1.0


def test_enumerate_vertices_one_period_closed_form():
    # lam=0: z1 = z0 * S and E[z0 S_1] = S_0 pin the density uniquely up
    # to the binomial martingale weights q = (S0 - Sd) / (Su - Sd)
    tree = EventTree(parent=[-1, 0, 0], time=[0, 1, 1], cond_prob=[1.0, 0.5, 0.5])
    market = MarketSpec(tree=tree, ask_price=[100.0, 120.0, 80.0], lam=0.0,
                        endowment=[0.0, 0.0])
    poly = build_polytope(market)
    V = enumerate_vertices(poly)
    assert V is not None
    assert V.shape[0] == 1
    q = (100.0 - 80.0) / (120.0 - 80.0)
    assert V[0, 0] == pytest.approx(q / 0.5, abs=1e-8)
    assert V[0, 1] == pytest.approx((1 - q) / 0.5, abs=1e-8)


def test_enumerate_vertices_empty_returns_none():
    market = crossing_binomial(lam=0.001)
    poly = build_polytope(market)
    assert enumerate_vertices(poly) is None
