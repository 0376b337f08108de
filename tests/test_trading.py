import csv

import numpy as np
import pytest

from frictiondual.trading import (
    TradeError,
    export_strategy_csv,
    liquidation_values,
    net_trades,
    roll_forward,
    terminal_claim,
)


def test_roll_forward_manual_binomial(martingale_binomial):
    m = martingale_binomial
    buy = np.array([2.0, 0.0, 0.0])
    sell = np.zeros(3)
    st = roll_forward(m, 10.0, buy, sell)
    # buy 2 shares at the 100 ask: cash 10 - 200 = -190, position 2
    assert st.phi0[0] == pytest.approx(-190.0)
    assert st.phi1[0] == pytest.approx(2.0)
    assert st.phi0[1] == pytest.approx(-190.0)
    assert st.phi1[2] == pytest.approx(2.0)
    # liquidation hits the bid: -190 + 2 * 0.99 * S_T
    vals = liquidation_values(m, st)
    assert vals[1] == pytest.approx(-190.0 + 2 * 0.99 * 120.0)
    assert vals[2] == pytest.approx(-190.0 + 2 * 0.99 * 80.0)


def test_short_position_liquidates_at_ask(martingale_binomial):
    m = martingale_binomial
    st = roll_forward(m, 0.0, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    # short sale credits the bid now, buyback at the ask later
    assert st.phi0[0] == pytest.approx(99.0)
    vals = liquidation_values(m, st)
    assert vals[1] == pytest.approx(99.0 - 120.0)
    assert vals[2] == pytest.approx(99.0 - 80.0)


def test_terminal_claim_alignment(two_period_market):
    m = two_period_market
    rng = np.random.default_rng(7)
    buy = np.zeros(m.tree.n_nodes)
    sell = np.zeros(m.tree.n_nodes)
    for k in m.tree.internal:
        buy[k] = rng.uniform(0.0, 1.0)
    st = roll_forward(m, 5.0, buy, sell)
    claim = terminal_claim(m, st)
    vals = liquidation_values(m, st)
    assert np.allclose(claim, vals[m.tree.leaves])
    assert claim.shape == (m.tree.n_leaves,)


def test_self_financing_exact(two_period_market):
    m = two_period_market
    rng = np.random.default_rng(11)
    n = m.tree.n_nodes
    buy = rng.uniform(0.0, 0.5, size=n)
    sell = rng.uniform(0.0, 0.5, size=n)
    st = roll_forward(m, 3.0, buy, sell)
    for i in range(n):
        p = m.tree.parent[i]
        cash_prev = 3.0 if p < 0 else st.phi0[p]
        pos_prev = 0.0 if p < 0 else st.phi1[p]
        assert st.phi0[i] == pytest.approx(
            cash_prev - m.ask_price[i] * buy[i] + m.bid_price[i] * sell[i], abs=1e-12)
        assert st.phi1[i] == pytest.approx(pos_prev + buy[i] - sell[i], abs=1e-12)


def test_trade_validation(martingale_binomial):
    m = martingale_binomial
    with pytest.raises(TradeError):
        roll_forward(m, 0.0, np.array([-1.0, 0.0, 0.0]), np.zeros(3))
    with pytest.raises(TradeError):
        roll_forward(m, 0.0, np.zeros(2), np.zeros(2))


def test_net_trades_improves_cash(martingale_binomial):
    m = martingale_binomial
    buy = np.array([3.0, 0.0, 0.0])
    sell = np.array([1.0, 0.0, 0.0])
    assert np.any(np.minimum(buy, sell) > 0.0)
    nb, ns = net_trades(buy, sell)
    assert not np.any(np.minimum(nb, ns) > 0.0)
    gross = roll_forward(m, 0.0, buy, sell)
    net = roll_forward(m, 0.0, nb, ns)
    assert np.all(net.phi0 >= gross.phi0 - 1e-12)
    assert np.allclose(net.phi1, gross.phi1)


def test_csv_roundtrip(tmp_path, two_period_market):
    m = two_period_market
    rng = np.random.default_rng(3)
    n = m.tree.n_nodes
    st = roll_forward(m, 2.0, rng.uniform(0, 1, n), np.zeros(n))
    path = tmp_path / "strategy.csv"
    export_strategy_csv(m, st, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == n
    for rec in rows:
        i = int(rec["node_id"])
        assert float(rec["phi0"]) == st.phi0[i]
        assert float(rec["phi1"]) == st.phi1[i]
    vals = liquidation_values(m, st)
    assert float(rows[-1]["vliq"]) == vals[n - 1]
