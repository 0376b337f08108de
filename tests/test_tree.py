import json
from dataclasses import replace

import numpy as np
import pytest

from frictiondual.generate import InstanceGenerator
from frictiondual.tree import (
    EventTree,
    LambdaRangeError,
    MarketSpec,
    MarketValidationError,
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
from oracles import children, path_to_root


def test_binomial_structure(martingale_binomial):
    tree = martingale_binomial.tree
    assert tree.n_nodes == 3
    assert tree.n_leaves == 2
    assert tree.horizon == 1
    assert list(tree.leaves) == [1, 2]
    assert list(tree.internal) == [0]
    assert path_to_root(tree, 2) == [2, 0]


def test_two_period_structure(two_period_market):
    tree = two_period_market.tree
    assert tree.n_nodes == 10
    assert tree.n_leaves == 6
    assert tree.horizon == 2
    assert list(tree.internal) == [0, 1, 2, 3]
    assert path_to_root(tree, 9) == [9, 3, 0]


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


def loop_validation_error(parent, time, cond_prob):
    """Node-by-node reference of the tree checks after the root's: the
    first bad node's ``(error class, message)``, or ``None``."""
    n = len(parent)
    kids = [[] for _ in range(n)]
    for i in range(1, n):
        p = parent[i]
        if not 0 <= p < n:
            return TreeStructureError, f"node {i} has invalid parent {p}"
        if time[i] != time[p] + 1:
            return (TreeStructureError,
                    f"node {i} at stage {time[i]} but parent {p} at stage {time[p]}")
        kids[p].append(i)
    leaves = [i for i in range(n) if not kids[i]]
    if len({time[l] for l in leaves}) > 1:
        return UnevenLeafDepthError, "leaves sit at different stages"
    bad = [k for k in range(n) if not (np.isfinite(cond_prob[k]) and cond_prob[k] > 0.0)]
    if any(k > 0 for k in bad):     # the root's probability is not checked
        return (ProbabilityMassError,
                f"nonpositive or non-finite branch probability at node {bad[0]}")
    for i in range(n):
        if kids[i]:
            mass = 0.0
            for k in kids[i]:
                mass += cond_prob[k]
            if abs(mass - 1.0) > 1e-12 * max(1.0, abs(mass)):
                return (ProbabilityMassError,
                        f"conditional probabilities sum to {mass:.12g} at node {i}")
    return None


@pytest.mark.parametrize("seed", [11, 2033])
def test_validation_matches_the_loop_reference(seed):
    gen = InstanceGenerator(seed=seed)
    rng = np.random.default_rng(seed)
    seen = set()
    for i in range(40):
        tree = gen.draw(i).tree
        parent, time, prob = tree.parent.copy(), tree.time.copy(), tree.cond_prob.copy()
        n = parent.size
        # corrupt one or two non-root nodes: parent range, stage, or probability
        for node in rng.choice(np.arange(1, n), size=int(rng.integers(1, 3)), replace=False):
            kind = i % 6
            if kind == 0:
                parent[node] = n + int(rng.integers(0, 3))
            elif kind == 1:
                time[node] += 1
            elif kind == 2:
                prob[node] = [0.0, -0.3, np.nan, np.inf][int(rng.integers(0, 4))]
            elif kind == 3:
                prob[node] *= 1.0 + 1e-9
            elif kind == 4:
                parent[node] = node
            else:
                prob[node] += 1e-13    # inside the mass tolerance
        want = loop_validation_error(parent.tolist(), time.tolist(), prob.tolist())
        if want is None:
            EventTree(parent=parent, time=time, cond_prob=prob)
            seen.add(None)
            continue
        with pytest.raises(MarketValidationError) as info:
            EventTree(parent=parent, time=time, cond_prob=prob)
        assert (type(info.value), str(info.value)) == want
        seen.add(want[0])
    assert seen == {None, TreeStructureError, ProbabilityMassError}


def test_nan_probability_rejected_on_load(tmp_path, martingale_binomial):
    raw = market_to_dict(martingale_binomial)
    raw["nodes"][2]["prob"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(raw))       # writes the NaN literal json accepts
    assert "NaN" in path.read_text()
    with pytest.raises(ProbabilityMassError, match="at node 2"):
        load_market(path)


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


def test_sizes_must_match(martingale_binomial):
    # checks no market file reaches: the loader builds every array to size
    with pytest.raises(TreeStructureError, match="^parent/time/cond_prob length mismatch$"):
        EventTree(parent=[-1, 0, 0], time=[0, 1], cond_prob=[1.0, 0.5, 0.5])
    with pytest.raises(TreeStructureError, match="^parent/time/cond_prob length mismatch$"):
        EventTree(parent=[-1, 0, 0], time=[0, 1, 1], cond_prob=[1.0, 1.0])
    tree = martingale_binomial.tree
    with pytest.raises(SchemaError, match="^one ask price per node required$"):
        MarketSpec(tree=tree, ask_price=[100.0, 120.0], lam=0.01, endowment=[0.0, 0.0])
    with pytest.raises(SchemaError, match="^one endowment value per leaf required$"):
        MarketSpec(tree=tree, ask_price=[100.0, 120.0, 80.0], lam=0.01,
                   endowment=[0.0, 0.0, 0.0])


def test_bid_price_and_helpers(martingale_binomial):
    m = martingale_binomial
    assert np.allclose(m.bid_price, 0.99 * m.ask_price)
    m2 = replace(m, lam=0.05)
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
            on_path[li, path_to_root(tree, int(leaf))] = True
        node_prob = np.empty(tree.n_nodes)
        for node in range(tree.n_nodes):
            p = 1.0
            for above in reversed(path_to_root(tree, node)[:-1]):
                p *= tree.cond_prob[above]
            node_prob[node] = p
        assert np.array_equal(tree.on_path, on_path)
        assert np.array_equal(tree.node_prob, node_prob)
        assert np.array_equal(tree.leaf_prob, node_prob[tree.leaves])
        assert tree.internal.tolist() == [n for n in range(tree.n_nodes) if children(tree, n)]
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
    assert replace(m, lam=0.03) != m
    assert MarketSpec(m.tree, price, m.lam, m.endowment) != m
    assert m.with_endowment(m.endowment + 1.0) != m
    prob = m.tree.cond_prob.copy()
    prob[[4, 5]] = [0.4, 0.6]
    other = EventTree(parent=m.tree.parent, time=m.tree.time, cond_prob=prob)
    assert other != m.tree
    assert MarketSpec(other, m.ask_price, m.lam, m.endowment) != m
    assert m != m.tree and m.tree != "tree"
