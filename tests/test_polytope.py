from dataclasses import replace

import numpy as np
import pytest

from frictiondual import polytope
from frictiondual.polytope import (
    CPS_MARGIN,
    DENSITY_EPS,
    NoCpsError,
    PolytopeInfeasibleError,
    build_polytope,
    check_cps,
    conditional_expectation_matrix,
    entropy_martingale_point,
    martingale_point,
)
from frictiondual.generate import InstanceGenerator
from frictiondual.shadow import construct_shadow
from frictiondual.trading import roll_forward, terminal_claim
from frictiondual.tree import EventTree, MarketSpec
from oracles import (children, enumerate_vertices, margin, max_margin, path_to_root,
                     sample_polytope, trade_signs)


def thin_band_market():
    """Both children's bids sit 1e-9 below the root ask: a strictly
    consistent price system exists, but only inside the margin."""
    tree = EventTree(parent=[-1, 0, 0], time=[0, 1, 1], cond_prob=[1.0, 0.5, 0.5])
    s_up = (100.0 - 1e-9) / 0.99
    return MarketSpec(tree=tree, ask_price=[100.0, s_up, 1.01 * s_up], lam=0.01,
                      endowment=[0.0, 0.0])


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
    for node in range(n):
        lower = np.concatenate([-(1.0 - lam) * s[node] * W[node], W[node]])
        upper = np.concatenate([s[node] * W[node], -W[node]])
        if lam == 0.0:
            eq_rows.append(upper)
            eq_vals.append(0.0)
        else:
            g_rows.extend([lower, upper])
    # at zero spread a leaf's row Z1 = S Z0 makes Z1 >= 0 the row Z0 >= 0
    g_rows.extend(np.eye(2 * L)[:L if lam == 0.0 else 2 * L])
    return {"cond_exp": W, "A_eq": np.array(eq_rows), "b_eq": np.array(eq_vals),
            "G": np.array(g_rows), "h": np.zeros(len(g_rows))}


@pytest.mark.parametrize("seed", [11, 2033])
def test_margin_at_the_witness_is_the_lp_margin(seed):
    # the band margin is the LP's margin on the binomial, where both are
    # lambda / 2; elsewhere they are different scales of the same
    # question, and the start strict_point returns sits inside the LP's
    tree = EventTree(parent=[-1, 0, 0], time=[0, 1, 1], cond_prob=[1.0, 0.5, 0.5])
    binomial = MarketSpec(tree=tree, ask_price=[100.0, 110.0, 90.0], lam=0.01,
                          endowment=[0.0, 0.0])
    delta, _ = max_margin(build_polytope(binomial))
    assert abs(check_cps(binomial).delta - delta) <= 1e-12 * delta
    gen = InstanceGenerator(seed=seed)
    witnesses = 0
    for i in range(15):
        poly = build_polytope(gen.draw(i))
        delta, z = max_margin(poly)
        if not delta > CPS_MARGIN:
            continue
        witnesses += 1
        # the oracle's margin at its own witness is its optimal delta
        assert abs(margin(poly, z) - delta) <= 1e-12 * delta
        assert margin(poly, poly.strict_point()) <= delta
    assert witnesses > 0


@pytest.mark.parametrize("seed", [11, 2033])
def test_polytope_build_matches_loop_reference(seed):
    gen = InstanceGenerator(seed=seed)
    for i in range(15):
        market = gen.draw(i)
        for lam in (market.lam, 0.0):
            poly = build_polytope(replace(market, lam=lam))
            ref = loop_built_polytope(market, lam)
            assert np.array_equal(conditional_expectation_matrix(market),
                                  ref["cond_exp"])
            for name, want in ref.items():
                got = getattr(poly, name)
                assert got.dtype == want.dtype and got.shape == want.shape, name
                assert got.tobytes() == want.tobytes(), name


def test_zero_spread_positivity_is_stated_once():
    # at zero spread a leaf's equality row Z1 = S Z0 already makes Z1 >= 0
    # the row Z0 >= 0, so G is [I_L 0] over the unchanged [z0, z1]
    # variables; at positive spread the leaf rows are band rows, and G
    # keeps its 2n cone rows and 2L positivity rows
    gen = InstanceGenerator(seed=11)
    for i in range(10):
        market = gen.draw(i)
        n, L = market.tree.n_nodes, market.tree.n_leaves
        flat = build_polytope(replace(market, lam=0.0))
        assert flat.G.tobytes() == np.hstack([np.eye(L), np.zeros((L, L))]).tobytes()
        assert flat.h.tobytes() == np.zeros(L).tobytes() and flat.n_vars == 2 * L
        assert flat.A_eq.shape == (1 + n, 2 * L) and flat.b_eq.shape == (1 + n,)
        band = build_polytope(market)
        assert band.G.shape == (2 * n + 2 * L, 2 * L) and band.h.shape == (2 * n + 2 * L,)
        assert band.G[2 * n:].tobytes() == np.eye(2 * L).tobytes()
        # the zero-spread equality rows are the positive-spread upper band rows
        assert flat.A_eq[1:].tobytes() == band.G[1:2 * n:2].tobytes()


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
        assert v.witness_leaf_vars is not None
        assert v.certificate is None
        # the witness is strictly positive on every node
        assert np.all(build_polytope(market).price_system(v.witness_leaf_vars).z0 > 0)


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
    assert z is not None and margin(build_polytope(wide), z) > 1e-9


@pytest.mark.parametrize("seed", [11, 2026])
def test_entropy_martingale_point_is_the_cold_solve(seed):
    # the backward induction's point is the zero-spread exp(gamma) dual's
    # optimum: a cold engine solve of the same program, from the strict
    # point with no face start, agrees to 1e-9 relative in value, and in
    # every leaf variable (relative to the largest) wherever each density
    # exceeds DENSITY_EPS, where solve_dual hands the point over.  Below
    # it the barrier's densities stop at 1e-11 or so, and the point's
    # value is the lower
    from frictiondual import duality
    from frictiondual.duality import solve_report
    from frictiondual.utility import UtilitySpec

    gen = InstanceGenerator(seed=seed)
    handed = 0
    for i in range(10):
        drawn = gen.draw_feasible(i)
        rep = solve_report(drawn, UtilitySpec("exponential", gamma=1.0), 1.0)
        market = construct_shadow(drawn, rep.dual_system).as_market()
        poly = build_polytope(market)
        for gamma in (0.1, 1.0, 5.0):
            spec = UtilitySpec("exponential", gamma=gamma)
            objective = duality._dual_objective(poly, spec, 1.0, market.endowment,
                                                market.tree.leaf_prob)
            cold = duality._solve_on_polytope(poly, *objective, poly.strict_point)
            assert cold.diagnostics.face_start is None
            z = entropy_martingale_point(market, gamma)
            value, want = objective[0](z)[0], cold.diagnostics.objective
            assert abs(value - want) <= 1e-9 * abs(want), (i, gamma)
            assert value <= want + 1e-13 * abs(want), (i, gamma)
            assert poly.max_violation(z) <= 1e-10, (i, gamma)
            if z[:market.tree.n_leaves].min() > DENSITY_EPS:
                handed += 1
                assert np.abs(z - cold.x).max() <= 1e-9 * np.abs(cold.x).max(), (i, gamma)
    assert handed >= 20


def test_entropy_martingale_point_of_a_binomial_is_its_martingale_density(drift_binomial):
    # 100 -> 130/90 has one martingale measure, q = (1/4, 3/4) against
    # p = (1/2, 1/2): whatever the endowment and gamma, the point is its
    # density (1/2, 3/2)
    market = replace(drift_binomial, lam=0.0)
    for endowment in ([0.0, 0.0], [3.0, -2.0], [-50.0, 40.0]):
        for gamma in (0.1, 1.0, 5.0):
            z = entropy_martingale_point(market.with_endowment(endowment), gamma)
            assert np.abs(z[:2] - [0.5, 1.5]).max() <= 1e-14, (endowment, gamma)
            assert z[2:].tobytes() == (market.ask_price[1:] * z[:2]).tobytes()


def test_entropy_martingale_point_is_finite_at_gamma_5():
    # gamma = 5 with endowments of +5 and -5 on alternate leaves tilts each
    # one-step measure by up to e^50; the log-sum-exp keeps every density
    # finite (the smallest underflow to 0 on the four-period trees), and
    # the point a martingale density
    from frictiondual.duality import solve_report
    from frictiondual.utility import UtilitySpec

    gen = InstanceGenerator(seed=11)
    for i in range(10):
        drawn = gen.draw_feasible(i)
        rep = solve_report(drawn, UtilitySpec("exponential", gamma=1.0), 1.0)
        market = construct_shadow(drawn, rep.dual_system).as_market()
        L = market.tree.n_leaves
        market = market.with_endowment(np.where(np.arange(L) % 2 == 0, 5.0, -5.0))
        z = entropy_martingale_point(market, 5.0)
        assert np.all(np.isfinite(z)) and np.all(z >= 0.0), i
        assert build_polytope(market).max_violation(z) <= 1e-10 * np.abs(z).max(), i


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


def band_price_reference(market):
    """The band price as first written, with ``np.clip``, ``np.r_`` and
    a first-child search at every stage: the bitwise reference of
    ``polytope._band_price``."""
    tree = market.tree
    parent, n = tree.parent, tree.n_nodes
    lo, hi = polytope._band_intervals(market, 0.0)
    if np.any(lo >= hi):
        return None
    only_child = np.bincount(parent[1:], minlength=n) == 1
    pad = polytope.BAND_SHRINK * (hi - lo)
    price = np.empty(n)
    price[0] = 0.5 * (lo[0] + hi[0])
    for kids in tree.stages[1:]:
        par = parent[kids]
        price[kids] = np.where(only_child[par], price[par],
                               np.clip(price[par], lo[kids] + pad[kids], hi[kids] - pad[kids]))
        move = price[kids] - price[par]
        rises, falls, has_flat = (np.zeros(n, dtype=bool) for _ in range(3))
        rises[par[move > 0.0]] = True
        falls[par[move < 0.0]] = True
        has_flat[par[move == 0.0]] = True
        for one_way, end, key in ((rises & ~falls, lo, lo[kids]),
                                  (falls & ~rises, hi, -hi[kids])):
            order = np.lexsort((key, par))
            first = np.zeros(kids.size, dtype=bool)
            first[order[np.r_[True, par[order][1:] != par[order][:-1]]]] = True
            pick = one_way[par] & np.where(has_flat[par], move == 0.0, first)
            price[kids[pick]] = 0.5 * (end[kids[pick]] + price[par[pick]])
    return price


@pytest.mark.parametrize("seed", [11, 2026])
def test_band_price_is_unchanged(seed, monkeypatch):
    # the band price skips the first-child search at stages where no
    # parent's children all move one way; every price keeps its bits,
    # with the search run on some markets and skipped on others
    sorts, lexsort = [], np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda *args: sorts.append(1) or lexsort(*args))
    gen = InstanceGenerator(seed=seed)
    markets = [gen.draw(i) for i in range(300)] + [gen.draw_feasible(i) for i in range(20)]
    searched = found = 0
    for market in markets:
        before = len(sorts)
        got = polytope._band_price(market)
        searched += len(sorts) > before
        want = band_price_reference(market)
        assert (got is None) == (want is None)
        if want is None:
            continue
        assert got.tobytes() == want.tobytes()
        found += 1
    assert found >= 100 and 0 < searched < found


@pytest.mark.parametrize("seed", [11, 2026, 3])
def test_martingale_point_decides_existence(seed):
    # the closed form finds a strictly consistent price system exactly when
    # the band rule does, and its point is then strictly inside by the
    # existence LP's margin
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
        assert margin(poly, z) > 1e-9
        assert poly.max_violation(z) <= 1e-12
        feasible += 1
    assert 100 <= feasible < len(markets)


@pytest.mark.parametrize("case", ["feasible", "thin-band", "zero-spread-arbitrage"])
def test_existence_verdict_is_cached_apart_from_the_strict_point(case, monkeypatch):
    # the verdict runs one band pass (at positive spread) or builds the
    # martingale point (at zero spread) once per polytope, however often it
    # is asked; the strict point reads it and adds only its own pass, and
    # a replace copy computes both again
    market, error = {
        "feasible": (InstanceGenerator(seed=11).draw_feasible(0), None),
        "thin-band": (thin_band_market(), NoCpsError),
        "zero-spread-arbitrage": (crossing_binomial(0.0), PolytopeInfeasibleError),
    }[case]
    want = martingale_point(market)
    calls = []
    for name in ("_band_intervals", "martingale_point"):
        fn = getattr(polytope, name)
        monkeypatch.setattr(polytope, name, lambda *a, fn=fn, name=name:
                            calls.append(name) or fn(*a))
    poly = build_polytope(market)
    for _ in range(2):
        if error is None:
            poly.check_strict()
        else:
            with pytest.raises(error):
                poly.check_strict()
    verdict = ["martingale_point"] if market.lam == 0.0 else ["_band_intervals"]
    assert calls == verdict
    for _ in range(2):
        if error is None:
            assert np.array_equal(poly.strict_point(), want)
        else:
            with pytest.raises(error):
                poly.strict_point()
    point = ["martingale_point", "_band_intervals"] if error is None else []
    assert calls == verdict + point
    calls.clear()
    copy = replace(poly, b_eq=poly.b_eq.copy())
    if error is None:
        copy.strict_point()
    else:
        with pytest.raises(error):
            copy.check_strict()
    assert calls == verdict + point


def test_thin_band_falls_back_to_the_existence_check(monkeypatch):
    # the band prices reaching the root span 1e-9: the closed-form point
    # exists, but the band margin is 5e-12, below CPS_MARGIN, so the
    # report raises NoCpsError from the band rule with no LP
    from frictiondual import engine
    from frictiondual.duality import solve_report
    from frictiondual.utility import UtilitySpec

    market = thin_band_market()
    z = martingale_point(market)
    assert z is not None and 0.0 < margin(build_polytope(market), z) <= 1e-9
    calls, solve_lp = [], engine.solve_lp

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(engine, "solve_lp", counted)
    with pytest.raises(NoCpsError):
        solve_report(market, UtilitySpec("exponential", gamma=1.0), 1.0)
    verdict = check_cps(market)
    assert not verdict.exists and 0.0 < verdict.delta <= CPS_MARGIN
    assert calls == []


def assert_arbitrage(market, certificate):
    """The certificate's strategy, traded from zero cash, liquidates to at
    least 0 at every leaf and to more than 0 at one or more, as it says."""
    strategy = roll_forward(market, 0.0, certificate["buy"], certificate["sell"])
    liquidation = terminal_claim(market, strategy)
    assert liquidation.tolist() == certificate["liquidation"]
    assert liquidation.min() >= 0.0 and liquidation.max() > 0.0


def test_check_cps_negative_with_certificate():
    market = crossing_binomial(lam=0.01)
    v = check_cps(market)
    assert not v.exists and v.delta < 0.0
    assert v.witness_leaf_vars is None
    # both children's bids clear the root ask: buy at the root, sell at
    # each child
    assert (v.certificate["node"], v.certificate["side"]) == (0, "buy")
    assert trade_signs(v).tolist() == [1, -1, -1]
    assert_arbitrage(market, v.certificate)
    # mirrored, both children's asks fall below the root bid
    falling = replace(market, ask_price=np.array([100.0, 90.0, 95.0]))
    v = check_cps(falling)
    assert (v.certificate["node"], v.certificate["side"]) == (0, "sell")
    assert trade_signs(v).tolist() == [-1, 1, 1]
    assert_arbitrage(falling, v.certificate)


def test_check_cps_certificate_unwinds_where_a_band_binds(two_period_market):
    # every stage-1 interval lies above the root's ask.  Node 1's own bid
    # sits below its children's, so the unit bought at the root rides
    # through node 1 and is sold at its leaves; nodes 2 and 3, whose own
    # bids bind their lower ends, sell it at once
    ask = np.array([100, 107, 110, 105, 110, 108, 108, 115, 104, 112], float)
    market = replace(two_period_market, ask_price=ask)
    v = check_cps(market)
    assert (v.certificate["node"], v.certificate["side"]) == (0, "buy")
    assert trade_signs(v).tolist() == [1, 0, -1, -1, -1, -1, 0, 0, 0, 0]
    assert_arbitrage(market, v.certificate)


def test_check_cps_thin_bands_carry_no_certificate(martingale_binomial):
    # a band thinner than 2 CPS_MARGIN closes under the rule's own shrink,
    # with no arbitrage behind it
    v = check_cps(martingale_binomial, mu=CPS_MARGIN)
    assert not v.exists and 0.0 < v.delta <= CPS_MARGIN / 2.0
    assert v.certificate is None and trade_signs(v) is None


@pytest.mark.parametrize("seed", [11, 2026, 1, 2, 3, 4, 5])
def test_check_cps_agrees_with_the_existence_lp(seed):
    # the band rule's verdict is the existence LP's on every draw, and
    # every "no" is backed by an arbitrage
    gen = InstanceGenerator(seed=seed)
    missing = 0
    for i in range(200):
        market = gen.draw(i)
        verdict = check_cps(market)
        delta, _ = max_margin(build_polytope(market))
        assert verdict.exists == (delta > CPS_MARGIN), i
        if not verdict.exists:
            missing += 1
            assert_arbitrage(market, verdict.certificate)
    assert 0 < missing < 200


def test_no_library_path_runs_an_lp(monkeypatch):
    import scipy.optimize

    from frictiondual import engine
    from frictiondual.duality import compute_x0, solve_report, verify_identities
    from frictiondual.pricing import indifference_price
    from frictiondual.shadow import (shadow_from_dual_roundtrip, solve_frictionless,
                                     verify_shadow)
    from frictiondual.utility import UtilitySpec

    def no_lp(*args, **kwargs):
        raise AssertionError("a library path ran an LP")

    monkeypatch.setattr(scipy.optimize, "linprog", no_lp)
    monkeypatch.setattr(engine, "solve_lp", no_lp)
    assert not check_cps(crossing_binomial()).exists
    assert not check_cps(thin_band_market()).exists
    gen = InstanceGenerator(seed=11)
    assert 0 < sum(check_cps(gen.draw(i)).exists for i in range(50)) < 50
    market = gen.draw_feasible(0)
    exp1 = UtilitySpec("exponential", gamma=1.0)
    for spec, x in ((UtilitySpec("log"), max(compute_x0(market), 0.0) + 5.0), (exp1, 1.0)):
        verify_identities(solve_report(market, spec, x))
    report = solve_report(market, exp1, 1.0)
    shadow = construct_shadow(market, report.dual_system)
    frictionless = solve_frictionless(shadow.as_market(), exp1, 1.0, y=report.yhat)
    verify_shadow(report, shadow, frictionless)
    shadow_from_dual_roundtrip(report, shadow)
    indifference_price(market, 1.0)


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
