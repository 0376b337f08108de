import json

import numpy as np
import pytest

from frictiondual.generate import InstanceGenerator
from frictiondual.tree import (
    EventTree,
    LambdaRangeError,
    MarketSpec,
    NonpositivePriceError,
    ProbabilityMassError,
    SchemaError,
    TreeStructureError,
    UnevenLeafDepthError,
    load_market,
    market_from_dict,
    market_to_dict,
    save_market,
)


def test_binomial_structure(martingale_binomial):
    tree = martingale_binomial.tree
    assert tree.n_nodes == 3
    assert tree.n_leaves == 2
    assert tree.horizon == 1
    assert list(tree.leaves) == [1, 2]
    assert list(tree.internal) == [0]
    assert tree.path_to_root(2) == [2, 0]


def test_two_period_structure(two_period_market):
    tree = two_period_market.tree
    assert tree.n_nodes == 10
    assert tree.n_leaves == 6
    assert tree.horizon == 2
    assert list(tree.internal) == [0, 1, 2, 3]
    assert tree.path_to_root(9) == [9, 3, 0]


def test_path_measure_sums_to_one(two_period_market):
    tree = two_period_market.tree
    assert tree.leaf_prob.sum() == pytest.approx(1.0, abs=1e-14)
    # the measure of each stage is also one
    for t in range(tree.horizon + 1):
        stage = tree.node_prob[tree.time == t].sum()
        assert stage == pytest.approx(1.0, abs=1e-14)


def test_expectation_matches_manual(martingale_binomial):
    val = martingale_binomial.tree.leaf_prob @ np.array([10.0, -4.0])
    assert val == pytest.approx(3.0, abs=1e-14)


def test_root_must_be_node_zero():
    with pytest.raises(TreeStructureError):
        EventTree(parent=[0, -1, 1, 1], time=[1, 0, 1, 1],
                  cond_prob=[1.0, 1.0, 0.5, 0.5])


def test_two_roots_rejected():
    with pytest.raises(TreeStructureError):
        EventTree(parent=[-1, -1], time=[0, 0], cond_prob=[1.0, 1.0])


def test_uneven_leaves_rejected():
    # node 1 branches, node 2 stays a leaf at stage 1
    with pytest.raises(UnevenLeafDepthError):
        EventTree(parent=[-1, 0, 0, 1, 1], time=[0, 1, 1, 2, 2],
                  cond_prob=[1.0, 0.5, 0.5, 0.5, 0.5])


def test_probability_mass_checked():
    with pytest.raises(ProbabilityMassError):
        EventTree(parent=[-1, 0, 0], time=[0, 1, 1], cond_prob=[1.0, 0.6, 0.6])
    with pytest.raises(ProbabilityMassError):
        EventTree(parent=[-1, 0, 0], time=[0, 1, 1], cond_prob=[1.0, 1.2, -0.2])


def test_market_validation(martingale_binomial):
    tree = martingale_binomial.tree
    with pytest.raises(NonpositivePriceError):
        MarketSpec(tree=tree, ask_price=[100.0, 0.0, 80.0], lam=0.01,
                   endowment=[0.0, 0.0])
    with pytest.raises(LambdaRangeError):
        MarketSpec(tree=tree, ask_price=[100.0, 120.0, 80.0], lam=1.0,
                   endowment=[0.0, 0.0])
    with pytest.raises(LambdaRangeError):
        MarketSpec(tree=tree, ask_price=[100.0, 120.0, 80.0], lam=-0.1,
                   endowment=[0.0, 0.0])


def test_bid_price_and_helpers(martingale_binomial):
    m = martingale_binomial
    assert np.allclose(m.bid_price, 0.99 * m.ask_price)
    m2 = m.with_lambda(0.05)
    assert m2.lam == 0.05
    assert np.array_equal(m2.ask_price, m.ask_price)


def test_dict_roundtrip(two_period_market):
    raw = market_to_dict(two_period_market)
    back = market_from_dict(raw)
    assert np.array_equal(back.tree.parent, two_period_market.tree.parent)
    assert np.allclose(back.ask_price, two_period_market.ask_price)
    assert back.lam == two_period_market.lam
    assert np.allclose(back.endowment, two_period_market.endowment)


def test_missing_endowment_defaults_to_zero(martingale_binomial):
    raw = market_to_dict(martingale_binomial)
    raw.pop("endowment")
    back = market_from_dict(raw)
    assert np.all(back.endowment == 0.0)


def test_schema_errors(martingale_binomial):
    raw = market_to_dict(martingale_binomial)
    raw.pop("nodes")
    with pytest.raises(SchemaError):
        market_from_dict(raw)
    with pytest.raises(SchemaError):
        market_from_dict({"not": "a market"})
    bad = market_to_dict(martingale_binomial)
    bad["nodes"][1].pop("prob")
    with pytest.raises(SchemaError):
        market_from_dict(bad)


def test_file_roundtrip(tmp_path, two_period_market):
    path = tmp_path / "m.json"
    save_market(two_period_market, path)
    again = load_market(path)
    assert np.allclose(again.ask_price, two_period_market.ask_price)
    # saved form is valid JSON with the documented keys
    raw = json.loads(path.read_text())
    for key in ("lambda", "nodes", "endowment"):
        assert key in raw


@pytest.mark.parametrize("seed", [11, 2033])
def test_path_structure_matches_walk(seed, two_period_market):
    trees = [InstanceGenerator(seed=seed).draw(i).tree for i in range(15)]
    for tree in trees + [two_period_market.tree]:
        on_path = np.zeros((tree.n_leaves, tree.n_nodes), dtype=bool)
        for li, leaf in enumerate(tree.leaves):
            on_path[li, tree.path_to_root(int(leaf))] = True
        node_prob = np.empty(tree.n_nodes)
        for node in range(tree.n_nodes):
            p = 1.0
            for above in reversed(tree.path_to_root(node)[:-1]):
                p *= tree.cond_prob[above]
            node_prob[node] = p
        assert np.array_equal(tree.on_path, on_path)
        assert np.array_equal(tree.node_prob, node_prob)
        assert np.array_equal(tree.leaf_prob, node_prob[tree.leaves])
        assert tree.internal.tolist() == [n for n in range(tree.n_nodes) if tree.children[n]]
        assert [list(at) for at in tree.stages] == [
            [n for n in range(tree.n_nodes) if tree.time[n] == t]
            for t in range(tree.horizon + 1)]


def test_trees_and_markets_compare_by_value(two_period_market):
    m = two_period_market
    raw = market_to_dict(m)
    twin = EventTree(parent=list(m.tree.parent), time=list(m.tree.time),
                     cond_prob=list(m.tree.cond_prob))
    assert twin == m.tree
    assert MarketSpec(twin, m.ask_price.copy(), m.lam, m.endowment.copy()) == m
    assert market_from_dict(raw) == m
    assert market_from_dict(market_to_dict(market_from_dict(raw))) == m

    price = m.ask_price.copy()
    price[4] += 1.0
    assert m.with_lambda(0.03) != m
    assert MarketSpec(m.tree, price, m.lam, m.endowment) != m
    assert m.with_endowment(m.endowment + 1.0) != m
    prob = m.tree.cond_prob.copy()
    prob[[4, 5]] = [0.4, 0.6]
    other = EventTree(parent=m.tree.parent, time=m.tree.time, cond_prob=prob)
    assert other != m.tree
    assert MarketSpec(other, m.ask_price, m.lam, m.endowment) != m
    assert m != m.tree and m.tree != "tree"
