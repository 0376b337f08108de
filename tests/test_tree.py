import json

import numpy as np
import pytest

from frictiondual.tree import (
    EventTree,
    LambdaRangeError,
    MarketSpec,
    NonpositivePriceError,
    ProbabilityMassError,
    SchemaError,
    TreeStructureError,
    UnevenLeafDepthError,
    expectation,
    load_market,
    market_from_dict,
    market_to_dict,
    path_measure,
    save_market,
)


def test_binomial_structure(martingale_binomial):
    tree = martingale_binomial.tree
    assert tree.n_nodes == 3
    assert tree.n_leaves == 2
    assert tree.horizon == 1
    assert list(tree.leaves) == [1, 2]
    assert list(tree.internal_nodes()) == [0]
    assert tree.path_to_root(2) == [2, 0]


def test_two_period_structure(two_period_market):
    tree = two_period_market.tree
    assert tree.n_nodes == 10
    assert tree.n_leaves == 6
    assert tree.horizon == 2
    assert list(tree.internal_nodes()) == [0, 1, 2, 3]
    assert tree.path_to_root(9) == [9, 3, 0]


def test_path_measure_sums_to_one(two_period_market):
    pm = path_measure(two_period_market.tree)
    assert pm.leaf_prob.sum() == pytest.approx(1.0, abs=1e-14)
    # the measure of each stage is also one
    tree = two_period_market.tree
    for t in range(tree.horizon + 1):
        stage = pm.node_prob[tree.time == t].sum()
        assert stage == pytest.approx(1.0, abs=1e-14)


def test_expectation_matches_manual(martingale_binomial):
    val = expectation(martingale_binomial.tree, [10.0, -4.0])
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
