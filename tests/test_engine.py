"""Interior-point engine against closed forms; the HiGHS LP path against
the interior-point engine on the same LPs."""

import numpy as np
import pytest

from frictiondual.duality import solve_primal
from frictiondual.engine import (
    ConvexProgram,
    InfeasibleProgramError,
    audit_derivatives,
    solve,
    solve_lp,
)
from frictiondual.utility import UtilitySpec


def quadratic(Q, c):
    Q = np.asarray(Q, float)
    c = np.asarray(c, float)

    def objective(x):
        return float(0.5 * x @ Q @ x + c @ x), Q @ x + c, Q

    return objective


def linear_program(c, **constraints):
    """``min c @ x`` as a smooth program for the barrier engine."""
    n = len(c)
    return ConvexProgram(n=n, objective=quadratic(np.zeros((n, n)), c), **constraints)


def test_unconstrained_quadratic():
    Q = np.array([[4.0, 1.0], [1.0, 3.0]])
    c = np.array([-1.0, -2.0])
    prog = ConvexProgram(n=2, objective=quadratic(Q, c))
    res = solve(prog)
    assert res.status == "optimal"
    assert np.allclose(res.x, np.linalg.solve(Q, -c), atol=1e-9)


def test_equality_constrained_quadratic():
    # min 0.5||x||^2 s.t. x1 + x2 + x3 = 3  ->  x = (1,1,1)
    prog = ConvexProgram(n=3, objective=quadratic(np.eye(3), np.zeros(3)),
                         A_eq=np.ones((1, 3)), b_eq=np.array([3.0]))
    res = solve(prog)
    assert res.status == "optimal"
    assert np.allclose(res.x, np.ones(3), atol=1e-9)
    # the equality multiplier satisfies stationarity x + A^T nu = 0
    assert np.allclose(res.x + res.eq_multipliers[0] * np.ones(3), 0.0, atol=1e-7)


def test_inequality_active_at_optimum():
    # min (x-2)^2 with x <= 1  ->  x = 1
    prog = ConvexProgram(n=1, objective=quadratic([[2.0]], [-4.0]),
                         G=np.array([[-1.0]]), h=np.array([-1.0]))
    res = solve(prog)
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("seed", range(6))
def test_lp_matches_scipy(seed):
    rng = np.random.default_rng(seed)
    n, m = 6, 10
    G = rng.standard_normal((m, n))
    x_feas = rng.standard_normal(n)
    h = G @ x_feas - rng.uniform(0.5, 2.0, size=m)   # strictly feasible
    # bounding box keeps the LP bounded
    G_full = np.vstack([G, np.eye(n), -np.eye(n)])
    h_full = np.concatenate([h, -50.0 * np.ones(2 * n)])
    c = rng.standard_normal(n)
    res = solve_lp(c, G=G_full, h=h_full)
    assert res.status == "optimal"
    # the barrier engine is the independent oracle: solve_lp is HiGHS
    ref = solve(linear_program(c, G=G_full, h=h_full))
    assert ref.status == "optimal"
    ref_fun = ref.diagnostics.objective
    assert c @ res.x == pytest.approx(ref_fun, abs=1e-7 * (1 + abs(ref_fun)))


def test_lp_with_equalities_matches_scipy():
    rng = np.random.default_rng(42)
    n = 5
    A = rng.standard_normal((2, n))
    x_feas = rng.standard_normal(n)
    b = A @ x_feas
    G = np.vstack([np.eye(n), -np.eye(n)])
    h = np.concatenate([x_feas - 5.0, -x_feas - 5.0])
    c = rng.standard_normal(n)
    res = solve_lp(c, A_eq=A, b_eq=b, G=G, h=h)
    assert res.status == "optimal"
    ref = solve(linear_program(c, A_eq=A, b_eq=b, G=G, h=h))
    assert ref.status == "optimal"
    ref_fun = ref.diagnostics.objective
    assert c @ res.x == pytest.approx(ref_fun, abs=1e-7 * (1 + abs(ref_fun)))


def test_infeasible_lp_detected():
    # x >= 1 and x <= -1 simultaneously
    G = np.array([[1.0], [-1.0]])
    h = np.array([1.0, 1.0])
    res = solve_lp(np.array([1.0]), G=G, h=h)
    assert res.status == "infeasible"
    with pytest.raises(InfeasibleProgramError) as info:
        solve(linear_program([1.0], G=G, h=h))
    assert info.value.certificate is not None


def test_infeasible_raises_for_smooth_program():
    prog = ConvexProgram(n=1, objective=quadratic([[2.0]], [0.0]),
                         G=np.array([[1.0], [-1.0]]), h=np.array([1.0, 1.0]))
    with pytest.raises(InfeasibleProgramError):
        solve(prog)


def test_open_domain_guard():
    # min -log(x) + x over x > 0  ->  x = 1
    def objective(x):
        return float(-np.log(x[0]) + x[0]), np.array([-1.0 / x[0] + 1.0]), \
            np.array([[1.0 / x[0] ** 2]])

    prog = ConvexProgram(n=1, objective=objective,
                         in_domain=lambda x: x[0] > 0.0,
                         x0=np.array([5.0]))
    res = solve(prog)
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(1.0, abs=1e-9)


def test_audit_derivatives_flags_wrong_gradient():
    good = quadratic(np.eye(2), np.array([1.0, -1.0]))

    def bad(x):
        v, g, H = good(x)
        return v, g + 0.1, H

    pts = [np.array([0.3, -0.7]), np.array([2.0, 1.0])]
    _, _, ok = audit_derivatives(good, pts)
    assert ok
    gerr, _, ok_bad = audit_derivatives(bad, pts)
    assert not ok_bad and gerr > 1e-3


def test_diagnostics_payload():
    prog = ConvexProgram(n=2, objective=quadratic(np.eye(2), np.zeros(2)),
                         G=np.eye(2), h=-np.ones(2))
    res = solve(prog)
    d = res.diagnostics.to_dict()
    assert d["status"] == "optimal"
    assert len(d["barrier_path"]) >= 1
    assert d["kkt_stationarity"] < 1e-6


def boxed_lp():
    """A random LP over a box: (c, G, h)."""
    rng = np.random.default_rng(5)
    G = np.vstack([rng.standard_normal((8, 4)), np.eye(4), -np.eye(4)])
    h = np.concatenate([G[:8] @ rng.standard_normal(4) - 1.0, -20.0 * np.ones(8)])
    c = rng.standard_normal(4)
    return c, G, h


def test_solver_is_deterministic():
    c, G, h = boxed_lp()
    a = solve(linear_program(c, G=G, h=h))
    b = solve(linear_program(c, G=G, h=h))
    assert a.status == "optimal"
    assert a.x.tobytes() == b.x.tobytes()
    lp_a = solve_lp(c, G=G, h=h)
    lp_b = solve_lp(c, G=G, h=h)
    assert lp_a.status == "optimal"
    assert lp_a.x.tobytes() == lp_b.x.tobytes()


def test_phase_one_with_a_variable_no_inequality_bounds():
    # x1 appears in no inequality, so the phase-one LP is free along it;
    # min 0.5||x||^2 - x1 + 3 x2 s.t. x2 >= -1  ->  x = (1, -1)
    prog = ConvexProgram(n=2, objective=quadratic(np.eye(2), [-1.0, 3.0]),
                         G=np.array([[0.0, 1.0]]), h=np.array([-1.0]))
    res = solve(prog)
    assert res.status == "optimal"
    assert res.diagnostics.phase_one_slack > 0.0
    assert np.allclose(res.x, [1.0, -1.0], atol=1e-8)


def test_phase_one_certificate_convention():
    # x1 + x2 = -1 with x >= 0: max min-slack is -1/2 at x = (-1/2, -1/2);
    # multipliers satisfy c - G^T lam + A^T nu = 0 with c = (0, 0, -1)
    constraints = dict(A_eq=np.ones((1, 2)), b_eq=np.array([-1.0]),
                       G=np.eye(2), h=np.zeros(2))
    assert solve_lp(np.zeros(2), **constraints).status == "infeasible"
    with pytest.raises(InfeasibleProgramError) as info:
        solve(linear_program(np.zeros(2), **constraints))
    cert = info.value.certificate
    assert np.allclose(cert["ineq_multipliers"], [0.5, 0.5], atol=1e-9)
    assert np.allclose(cert["eq_multipliers"], [0.5], atol=1e-9)
    assert cert["max_slack"] == pytest.approx(-0.5, abs=1e-9)


def test_phase_one_record():
    # x >= -1 componentwise: the max-slack LP reaches its cap t = 1
    prog = ConvexProgram(n=2, objective=quadratic(np.eye(2), np.zeros(2)),
                         G=np.eye(2), h=-np.ones(2))
    d = solve(prog).diagnostics.to_dict()
    assert d["phase_one_slack"] == pytest.approx(1.0)
    warm = ConvexProgram(n=2, objective=quadratic(np.eye(2), np.zeros(2)),
                         G=np.eye(2), h=-np.ones(2), x0=np.zeros(2))
    assert solve(warm).diagnostics.to_dict()["phase_one_slack"] is None


def test_rejected_start_is_reported():
    # x >= -1 componentwise: (0, 0) is strictly inside, (-2, 0) is not
    def diagnostics(x0, **constraints):
        prog = ConvexProgram(n=2, objective=quadratic(np.eye(2), np.zeros(2)),
                             x0=np.array(x0), **constraints)
        res = solve(prog)
        assert res.status == "optimal"
        assert np.allclose(res.x, 0.0, atol=1e-8)
        return res.diagnostics

    box = dict(G=np.eye(2), h=-np.ones(2))
    bad = diagnostics([-2.0, 0.0], **box)
    assert bad.events == ["supplied start not strictly feasible: phase one"]
    assert bad.phase_one_slack == pytest.approx(1.0)
    assert diagnostics([0.5, 0.5], **box).events == []
    # without inequalities the fallback is the least-squares start
    guarded = diagnostics([-3.0, 0.0], in_domain=lambda x: x[0] > -1.0)
    assert guarded.events == ["supplied start not strictly feasible: "
                              "least-squares start"]


def test_max_iter_promotion_is_reported():
    c, G, h = boxed_lp()
    # the Newton cap cuts the solve short of its stopping test (it needs
    # 9 steps), but the active-face finish certifies the point
    res = solve(linear_program(c, G=G, h=h), max_newton=7)
    assert res.status == "optimal"
    assert res.diagnostics.message == "Newton iteration cap reached"
    assert res.diagnostics.events == ["max_iter promoted to optimal"]


def test_face_finish_with_a_repeated_active_row():
    # min 0.5 |x - (2, 2)|^2 s.t. x1 + x2 <= 2, stated twice, in a box: the
    # optimum (1, 1) sits on a dependent pair of rows whose multipliers
    # only need to sum to 1
    tol = 1e-9
    row = np.array([[-1.0, -1.0]])
    G = np.vstack([row, row, np.eye(2), -np.eye(2)])
    h = np.array([-2.0, -2.0, -5.0, -5.0, -5.0, -5.0])
    res = solve(ConvexProgram(n=2, objective=quadratic(np.eye(2), [-2.0, -2.0]),
                              G=G, h=h), tol=tol)
    assert res.status == "optimal"
    assert res.diagnostics.face_steps >= 1
    # on the face to rounding, where the barrier point stays ~2e-11 inside it
    assert np.abs(res.x - 1.0).max() <= 1e-14
    lam = res.ineq_multipliers
    assert np.all(lam >= 0.0)
    assert lam[0] + lam[1] == pytest.approx(1.0, abs=10 * tol)
    g = res.x - 2.0
    assert np.linalg.norm(g - G.T @ lam) <= 10 * tol * (1.0 + np.linalg.norm(g))


def test_few_newton_steps(two_period_market):
    c, G, h = boxed_lp()
    lp = solve(linear_program(c, G=G, h=h))
    primal = solve_primal(two_period_market, UtilitySpec("log"), 5.0)
    assert lp.status == "optimal"
    assert sum(lp.diagnostics.newton_iterations) < 30
    assert primal.diagnostics["status"] == "optimal"
    assert sum(primal.diagnostics["newton_iterations"]) < 30


def test_vanishing_gradient_is_unbounded():
    # min exp(-x) over x >= 0: the gradient vanishes along the ray, so
    # only an absolute stopping test keeps the solve from calling a far
    # point optimal
    def objective(x):
        e = float(np.exp(-x[0]))
        return e, np.array([-e]), np.array([[e]])

    prog = ConvexProgram(n=1, objective=objective, G=np.eye(1), h=np.zeros(1))
    res = solve(prog)
    assert res.status == "unbounded"
    assert res.diagnostics.message == "iterates diverging"


def test_start_at_the_optimum_is_certified():
    # min 0.5 (x1 - 1)^2 over 0 <= x <= 3, started at its optimum (1, 1):
    # the floor exit must return the multipliers it certified, not 1/s
    prog = ConvexProgram(n=2, objective=quadratic(np.diag([1.0, 0.0]), [-1.0, 0.0]),
                         G=np.vstack([np.eye(2), -np.eye(2)]),
                         h=np.array([0.0, 0.0, -3.0, -3.0]), x0=np.array([1.0, 1.0]))
    res = solve(prog)
    assert res.status == "optimal"
    assert np.allclose(res.x, [1.0, 1.0])
