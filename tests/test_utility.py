import math

import numpy as np
import pytest

from frictiondual.utility import (
    UtilityDomainError,
    UtilitySpec,
    eval_i,
    eval_u,
    eval_u_prime,
    eval_v,
    eval_v_prime,
    parse_utility,
    u_derivatives,
    utility_label,
    v_derivatives,
)

FAMILIES = [
    UtilitySpec("log"),
    UtilitySpec("power", alpha=0.3),
    UtilitySpec("power", alpha=0.8),
    UtilitySpec("exponential", gamma=0.5),
    UtilitySpec("exponential", gamma=2.0),
]


def test_parse_grammar():
    assert parse_utility("log") == UtilitySpec("log")
    assert parse_utility("power:alpha=0.25") == UtilitySpec("power", alpha=0.25)
    assert parse_utility("exp:gamma=3") == UtilitySpec("exponential", gamma=3.0)
    assert parse_utility("exponential:gamma=0.5").gamma == 0.5
    assert parse_utility("power").alpha == 0.5
    assert parse_utility("exp").gamma == 1.0


def test_parse_rejects_malformed():
    for text in ("quadratic", "log:alpha=1", "power:alpha",
                 "exp:gamma=0", "power:alpha=1.0", "power:alpha=-1",
                 "power:beta=1", "exp:alpha=0.3", "power:alpha=0.5,alpha=0.7"):
        with pytest.raises(ValueError):
            parse_utility(text)


def test_labels_roundtrip():
    for spec in FAMILIES:
        assert parse_utility(utility_label(spec)) == spec


@pytest.mark.parametrize("spec", FAMILIES, ids=utility_label)
def test_u_prime_matches_fd(spec):
    # u', u'', V' and V'' against central differences of the function below
    xs = [0.3, 1.0, 5.0] if spec.wealth_domain == "positive" else [-2.0, 0.0, 3.0]
    h = 1e-6
    for x in xs:
        fd = (eval_u(spec, x + h) - eval_u(spec, x - h)) / (2 * h)
        assert eval_u_prime(spec, x) == pytest.approx(fd, rel=1e-7, abs=1e-9)
        fd2 = (u_derivatives(spec, x + h)[1] - u_derivatives(spec, x - h)[1]) / (2 * h)
        assert u_derivatives(spec, x)[2] == pytest.approx(fd2, rel=1e-7, abs=1e-9)
    for y in (0.3, 1.0, 5.0):
        fd = (eval_v(spec, y + h) - eval_v(spec, y - h)) / (2 * h)
        assert eval_v_prime(spec, y) == pytest.approx(fd, rel=1e-7, abs=1e-9)
        fd2 = (v_derivatives(spec, y + h)[1] - v_derivatives(spec, y - h)[1]) / (2 * h)
        assert v_derivatives(spec, y)[2] == pytest.approx(fd2, rel=1e-7, abs=1e-9)


@pytest.mark.parametrize("spec", FAMILIES, ids=utility_label)
def test_eval_on_arrays_matches_scalars(spec):
    xs = np.array([0.3, 1.0, 5.0]) if spec.wealth_domain == "positive" \
        else np.array([-2.0, 0.0, 3.0])
    ys = np.array([0.1, 1.0, 7.0])
    for fn, args in ((eval_u, xs), (eval_u_prime, xs), (eval_v, ys),
                     (eval_v_prime, ys), (eval_i, ys)):
        out = fn(spec, args)
        assert out.shape == args.shape
        for a, value in zip(args, out):
            assert value == pytest.approx(fn(spec, float(a)), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("spec", FAMILIES, ids=utility_label)
def test_conjugate_by_grid(spec):
    # V(y) = sup_x {U(x) - x y}: the analytic value must dominate a grid
    # and be attained at x = I(y) up to second order
    for y in (0.2, 1.0, 4.0):
        v = eval_v(spec, y)
        xs = np.linspace(0.01, 20.0, 40001) if spec.wealth_domain == "positive" \
            else np.linspace(-15.0, 15.0, 40001)
        grid = np.array([eval_u(spec, x) - x * y for x in xs])
        assert v >= grid.max() - 1e-12
        xstar = eval_i(spec, y)
        assert v == pytest.approx(eval_u(spec, xstar) - xstar * y, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("spec", FAMILIES, ids=utility_label)
def test_inverse_marginal(spec):
    for y in (0.1, 1.0, 7.0):
        x = eval_i(spec, y)
        assert eval_u_prime(spec, x) == pytest.approx(y, rel=1e-12)
        assert eval_v_prime(spec, y) == pytest.approx(-x, rel=1e-12)


def test_domain_guards():
    log = UtilitySpec("log")
    assert eval_u(log, -1.0) == -math.inf
    assert eval_u(UtilitySpec("power", alpha=0.5), 0.0) == -math.inf
    with pytest.raises(UtilityDomainError):
        eval_u_prime(log, 0.0)
    with pytest.raises(UtilityDomainError):
        eval_v(log, -1.0)
    with pytest.raises(UtilityDomainError):
        eval_i(log, 0.0)
    with pytest.raises(UtilityDomainError):
        eval_u_prime(log, np.array([1.0, 0.0, 2.0]))
    for spec in (log, UtilitySpec("power", alpha=0.5)):
        u = eval_u(spec, np.array([-1.0, 0.5, 0.0, 2.0]))   # warnings are errors
        assert np.all(u[[0, 2]] == -math.inf)
        assert np.all(np.isfinite(u[[1, 3]]))


def test_spec_validation():
    with pytest.raises(ValueError):
        UtilitySpec("power", alpha=1.5)
    with pytest.raises(ValueError):
        UtilitySpec("exponential", gamma=-1.0)
    with pytest.raises(ValueError):
        UtilitySpec("sqrt")
