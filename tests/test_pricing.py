import numpy as np
import pytest

from frictiondual.generate import InstanceGenerator
from frictiondual.pricing import (
    UnsupportedUtilityError,
    indifference_price,
    price_bounds,
    price_dual,
    price_primal,
    price_shadow,
)
from frictiondual.utility import UtilitySpec


def test_zero_endowment_prices_at_zero(drift_binomial):
    rep = indifference_price(drift_binomial, gamma=1.0, x=0.0)
    assert rep.p_primal == pytest.approx(0.0, abs=1e-8)
    assert rep.p_dual == pytest.approx(0.0, abs=1e-8)
    assert rep.p_shadow == pytest.approx(0.0, abs=1e-7)


def test_constant_endowment_prices_at_cash(drift_binomial):
    m = drift_binomial.with_endowment([3.0, 3.0])
    rep = indifference_price(m, gamma=0.8, x=0.0)
    assert rep.p_primal == pytest.approx(3.0, abs=1e-7)
    assert rep.p_dual == pytest.approx(3.0, abs=1e-7)
    assert rep.p_shadow == pytest.approx(3.0, abs=1e-6)


def test_routes_agree(two_period_market):
    gamma = 0.7
    rep = indifference_price(two_period_market, gamma, x=1.0)
    tol = 1e-5 * (1 + abs(rep.p_primal))
    assert rep.residuals["primal_vs_dual"] <= tol
    assert rep.residuals["primal_vs_shadow"] <= tol
    assert rep.residuals["dual_vs_shadow"] <= tol


def test_bounds_bracket_price(two_period_market):
    lo, hi = price_bounds(two_period_market)
    assert lo <= hi
    p = price_primal(two_period_market, gamma=0.5)
    assert lo - 1e-8 <= p <= hi + 1e-8


def test_price_independent_of_initial_wealth(two_period_market):
    gamma = 0.6
    p0 = price_primal(two_period_market, gamma, x=0.0)
    p7 = price_primal(two_period_market, gamma, x=7.0)
    assert abs(p0 - p7) <= 1e-7
    ps0 = price_shadow(two_period_market, gamma, x=0.0)
    ps3 = price_shadow(two_period_market, gamma, x=3.0)
    assert abs(ps0 - ps3) <= 1e-6


def test_cash_additivity(two_period_market):
    gamma = 0.9
    c = 4.0
    p, *_ = price_dual(two_period_market, gamma)
    shifted = two_period_market.with_endowment(two_period_market.endowment + c)
    pc, *_ = price_dual(shifted, gamma)
    assert pc == pytest.approx(p + c, abs=1e-8)


def test_risk_aversion_pushes_toward_lower_bound(two_period_market):
    lo, hi = price_bounds(two_period_market)
    prices = [price_dual(two_period_market, g)[0] for g in (0.05, 0.5, 2.0, 8.0)]
    # the certainty equivalent of a random endowment shrinks with gamma
    for a, b in zip(prices, prices[1:]):
        assert b <= a + 1e-9
    assert prices[-1] >= lo - 1e-8
    assert prices[0] <= hi + 1e-8


def test_route_selection(drift_binomial):
    m = drift_binomial.with_endowment([1.0, -1.0])
    rep = indifference_price(m, gamma=1.0, routes=("dual",))
    assert rep.p_shadow is None
    assert rep.p_primal is None
    assert rep.p_dual is not None
    assert "primal_vs_dual" not in rep.residuals
    assert rep.entropy_with is not None
    for bad in (("dual", "bogus"), ()):
        with pytest.raises(ValueError):
            indifference_price(m, gamma=1.0, routes=bad)


def test_non_exponential_rejected(drift_binomial):
    from frictiondual.pricing import _require_exponential

    with pytest.raises(UnsupportedUtilityError):
        _require_exponential(UtilitySpec("log"))


def test_one_solve_per_pricing_program(two_period_market, monkeypatch):
    from frictiondual import duality, pricing

    calls = {"report": 0, "cps": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pricing, "solve_report", counted("report", pricing.solve_report))
    monkeypatch.setattr(duality, "check_cps", counted("cps", duality.check_cps))
    gamma, x = 0.7, 1.0
    rep = indifference_price(two_period_market, gamma, x=x,
                             routes=("primal", "dual", "shadow"))
    assert calls == {"report": 2, "cps": 1}
    monkeypatch.undo()
    # the shared reports give the standalone routes' prices
    assert rep.p_primal == pytest.approx(price_primal(two_period_market, gamma, x), abs=1e-8)
    assert rep.p_dual == pytest.approx(price_dual(two_period_market, gamma)[0], abs=1e-8)
    assert rep.p_shadow == pytest.approx(price_shadow(two_period_market, gamma, x), abs=1e-8)


def test_price_dual_warm_start_by_the_boundary():
    # price_dual starts the no-endowment entropy solve at the optimum of
    # the with-endowment one, by the polytope's boundary; the engine must
    # not stop there on a decrement that only looks negligible
    market = InstanceGenerator(seed=2033, max_periods=3).draw_feasible(0)
    p, *_ = price_dual(market, 0.8)
    cold = indifference_price(market, 0.8, routes=("dual",))
    assert p == pytest.approx(cold.p_dual, abs=1e-8)
