"""Interior-point engine against closed forms; the HiGHS LP path against
the interior-point engine on the same LPs."""

from dataclasses import fields, replace

import numpy as np
import pytest

from frictiondual import duality, engine
from frictiondual.duality import (PrimalProgram, compute_x0, solve_dual, solve_primal,
                                  solve_report)
from frictiondual.engine import (
    TOL,
    ConvexProgram,
    EngineError,
    InfeasibleProgramError,
    SolveDiagnostics,
    solve,
    solve_lp,
)
from frictiondual.generate import InstanceGenerator
from frictiondual.shadow import construct_shadow
from frictiondual.utility import UtilitySpec
from oracles import audit_derivatives


def quadratic(q, c):
    """``0.5 x diag(q) x + c x``: the objective returns the diagonal ``q``."""
    q = np.asarray(q, float)
    c = np.asarray(c, float)

    def objective(x):
        return float(0.5 * x @ (q * x) + c @ x), q * x + c, q

    return objective


def linear_program(c, x0, **constraints):
    """``min c @ x`` as a smooth program for the barrier engine, started at ``x0``."""
    n = len(c)
    return ConvexProgram(objective=quadratic(np.zeros(n), c),
                         x0=lambda: np.asarray(x0, float), **constraints)


def test_equality_constrained_quadratic():
    # min 0.5||x||^2 s.t. x1 + x2 + x3 = 3  ->  x = (1,1,1); the box
    # x >= -10 is inactive
    prog = ConvexProgram(objective=quadratic(np.ones(3), np.zeros(3)),
                         A_eq=np.ones((1, 3)), b_eq=np.array([3.0]),
                         G=np.eye(3), h=np.full(3, -10.0), x0=lambda: np.array([3.0, 0.0, 0.0]))
    res = solve(prog)
    assert res.status == "optimal"
    assert np.allclose(res.x, np.ones(3), atol=1e-9)
    # the equality multiplier satisfies stationarity x + A^T nu = 0
    assert np.allclose(res.x + res.eq_multipliers[0] * np.ones(3), 0.0, atol=1e-7)


def _evaluated_points(prog):
    """Solve ``prog`` and return the points its objective was called at."""
    seen = []

    def recording(x):
        seen.append(x.tobytes())
        return prog.objective(x)

    res = solve(replace(prog, objective=recording))
    assert res.status == "optimal"
    return seen


def test_objective_evaluated_once_per_point(two_period_market):
    # the accepted line-search trial and the exit point are not evaluated again
    programs = [ConvexProgram(objective=quadratic([2.0], [-4.0]),
                              G=np.array([[-1.0]]), h=np.array([-1.0]), x0=lambda: np.zeros(1))]
    for spec in (UtilitySpec("log"), UtilitySpec("exponential", gamma=0.7)):
        programs.append(PrimalProgram.build(two_period_market, spec).at(6.0))
    for prog in programs:
        seen = _evaluated_points(prog)
        assert len(seen) > 2
        assert all(a != b for a, b in zip(seen, seen[1:]))


def test_inequality_active_at_optimum():
    # min (x-2)^2 with x <= 1  ->  x = 1
    prog = ConvexProgram(objective=quadratic([2.0], [-4.0]),
                         G=np.array([[-1.0]]), h=np.array([-1.0]), x0=lambda: np.zeros(1))
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
    ref = solve(linear_program(c, x_feas, G=G_full, h=h_full))
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
    ref = solve(linear_program(c, x_feas, A_eq=A, b_eq=b, G=G, h=h))
    assert ref.status == "optimal"
    ref_fun = ref.diagnostics.objective
    assert c @ res.x == pytest.approx(ref_fun, abs=1e-7 * (1 + abs(ref_fun)))


def test_infeasible_lp_detected():
    # x >= 1 and x <= -1 simultaneously
    G = np.array([[1.0], [-1.0]])
    h = np.array([1.0, 1.0])
    res = solve_lp(np.array([1.0]), G=G, h=h)
    assert res.status == "infeasible"
    # the barrier has no strictly feasible start to run from
    with pytest.raises(EngineError, match="start not strictly feasible"):
        solve(linear_program([1.0], [1.0], G=G, h=h))


def test_infeasible_raises_for_smooth_program():
    # no start is strictly feasible; the engine does not search for one
    for x0 in ([-1.0], [0.0], [1.0]):
        prog = ConvexProgram(objective=quadratic([2.0], [0.0]),
                             G=np.array([[1.0], [-1.0]]), h=np.array([1.0, 1.0]),
                             x0=lambda: np.array(x0))
        with pytest.raises(EngineError, match="start not strictly feasible"):
            solve(prog)


def test_open_domain_guard():
    # min -log(x) + x over x > 0  ->  x = 1; the row x >= -10 leaves the
    # rejecting to the domain guard
    def objective(x):
        return float(-np.log(x[0]) + x[0]), np.array([-1.0 / x[0] + 1.0]), \
            np.array([1.0 / x[0] ** 2])

    prog = ConvexProgram(objective=objective, G=np.eye(1), h=np.array([-10.0]),
                         in_domain=lambda x: x[0] > 0.0,
                         x0=lambda: np.array([5.0]))
    res = solve(prog)
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(1.0, abs=1e-9)


def test_audit_derivatives_flags_wrong_gradient():
    good = quadratic(np.ones(2), np.array([1.0, -1.0]))

    def bad(x):
        v, g, H = good(x)
        return v, g + 0.1, H

    pts = [np.array([0.3, -0.7]), np.array([2.0, 1.0])]
    _, _, ok = audit_derivatives(good, pts)
    assert ok
    gerr, _, ok_bad = audit_derivatives(bad, pts)
    assert not ok_bad and gerr > 1e-3


def test_audit_derivatives_flags_wrong_hessian():
    good = quadratic([1.0, 2.0, 3.0], [1.0, -1.0, 0.5])

    def bad(x):
        v, g, d = good(x)
        return v, g, d * np.array([1.0, 1.1, 1.0])    # one entry 10% off

    pts = [np.array([0.3, -0.7, 1.2]), np.array([2.0, 1.0, -0.4])]
    _, herr_good, ok = audit_derivatives(good, pts)
    assert ok and herr_good <= 1e-8
    gerr, herr, ok_bad = audit_derivatives(bad, pts)
    assert not ok_bad and gerr <= 1e-8 and herr > 1e-3


def test_diagnostics_payload():
    prog = ConvexProgram(objective=quadratic(np.ones(2), np.zeros(2)),
                         G=np.eye(2), h=-np.ones(2), x0=lambda: np.full(2, 0.5))
    res = solve(prog)
    d = res.diagnostics.to_dict()
    assert d["status"] == "optimal"
    assert len(d["barrier_path"]) >= 1
    assert d["kkt_stationarity"] < 1e-6
    # one reduced-matrix LU per iteration, the stopping one included
    assert d["factorizations"] >= len(d["barrier_path"]) + 1
    # every field, the face start's record included: None with no face start
    assert list(d) == [f.name for f in fields(SolveDiagnostics)]
    assert d["face_start"] is None


def boxed_lp():
    """A random LP over a box: ``(c, x0, G, h)``, ``x0`` strictly inside."""
    rng = np.random.default_rng(5)
    G = np.vstack([rng.standard_normal((8, 4)), np.eye(4), -np.eye(4)])
    x0 = rng.standard_normal(4)
    h = np.concatenate([G[:8] @ x0 - 1.0, -20.0 * np.ones(8)])
    c = rng.standard_normal(4)
    return c, x0, G, h


def test_solver_is_deterministic():
    c, x0, G, h = boxed_lp()
    a = solve(linear_program(c, x0, G=G, h=h))
    b = solve(linear_program(c, x0, G=G, h=h))
    assert a.status == "optimal"
    assert a.x.tobytes() == b.x.tobytes()
    lp_a = solve_lp(c, G=G, h=h)
    lp_b = solve_lp(c, G=G, h=h)
    assert lp_a.status == "optimal"
    assert lp_a.x.tobytes() == lp_b.x.tobytes()


def test_variable_in_no_inequality_row():
    # x1 appears in no inequality, so the barrier is free along it;
    # min 0.5||x||^2 - x1 + 3 x2 s.t. x2 >= -1  ->  x = (1, -1)
    prog = ConvexProgram(objective=quadratic(np.ones(2), [-1.0, 3.0]),
                         G=np.array([[0.0, 1.0]]), h=np.array([-1.0]), x0=lambda: np.zeros(2))
    res = solve(prog)
    assert res.status == "optimal"
    assert np.allclose(res.x, [1.0, -1.0], atol=1e-8)


def test_rejected_start_is_reported():
    # x >= -1 componentwise, and x1 + x2 = 1: (0.5, 0.5) is strictly
    # inside; (-2, 3), (-1, 2) and, once projected, (-3, 1) are not, nor
    # is a start outside the objective domain
    def program(x0, **extra):
        return ConvexProgram(objective=quadratic(np.ones(2), np.zeros(2)),
                             G=np.eye(2), h=-np.ones(2), A_eq=np.ones((1, 2)),
                             b_eq=np.ones(1), x0=lambda: np.array(x0), **extra)

    res = solve(program([0.5, 0.5]))
    assert res.status == "optimal" and res.diagnostics.events == []
    assert np.allclose(res.x, 0.5, atol=1e-8)
    for x0 in ([-2.0, 3.0], [-1.0, 2.0], [-3.0, 1.0]):
        with pytest.raises(EngineError, match="start not strictly feasible"):
            solve(program(x0))
    with pytest.raises(EngineError, match="start not strictly feasible"):
        solve(program([0.5, 0.5], in_domain=lambda x: x[0] > 0.6))


def test_max_iter_promotion_is_reported(monkeypatch):
    c, x0, G, h = boxed_lp()
    # the Newton cap cuts the solve short of its stopping test (it needs
    # 9 steps), but the active-face finish certifies the point
    monkeypatch.setattr(engine, "DEFAULT_MAX_NEWTON", 7)
    res = solve(linear_program(c, x0, G=G, h=h))
    assert res.status == "optimal"
    assert res.diagnostics.message == "Newton iteration cap reached"
    assert res.diagnostics.events == ["max_iter promoted to optimal"]


def test_face_finish_with_a_repeated_active_row():
    # min 0.5 |x - (2, 2)|^2 s.t. x1 + x2 <= 2, stated twice, in a box: the
    # optimum (1, 1) sits on a dependent pair of rows whose multipliers
    # only need to sum to 1
    row = np.array([[-1.0, -1.0]])
    G = np.vstack([row, row, np.eye(2), -np.eye(2)])
    h = np.array([-2.0, -2.0, -5.0, -5.0, -5.0, -5.0])
    res = solve(ConvexProgram(objective=quadratic(np.ones(2), [-2.0, -2.0]),
                              G=G, h=h, x0=lambda: np.zeros(2)))
    assert res.status == "optimal"
    assert res.diagnostics.face_steps >= 1
    # on the face to rounding, where the barrier point stays ~2e-11 inside it
    assert np.abs(res.x - 1.0).max() <= 1e-14
    lam = res.ineq_multipliers
    assert np.all(lam >= 0.0)
    assert lam[0] + lam[1] == pytest.approx(1.0, abs=10 * TOL)
    g = res.x - 2.0
    assert np.linalg.norm(g - G.T @ lam) <= 10 * TOL * (1.0 + np.linalg.norm(g))


def test_face_split_memo_is_reused_with_each_programs_h(monkeypatch):
    # the repeated-row program above at the bounds x1 + x2 <= 2 and <= 1.5:
    # the second solve, sharing the first's memo, lands on the same active
    # rows and splits no face, yet reads its own right-hand side, so it
    # gives the bits of a solve with an empty memo
    row = np.array([[-1.0, -1.0]])
    G = np.vstack([row, row, np.eye(2), -np.eye(2)])

    def program(bound, **memo):
        h = np.array([-bound, -bound, -5.0, -5.0, -5.0, -5.0])
        return ConvexProgram(objective=quadratic(np.ones(2), [-2.0, -2.0]),
                             G=G, h=h, x0=lambda: np.zeros(2), **memo)

    splits, split_rows = [], engine._split_rows
    monkeypatch.setattr(engine, "_split_rows",
                        lambda A, b: splits.append(A.shape[0]) or split_rows(A, b))
    memo = {}
    solve(program(2.0, faces=memo))
    assert splits == [2] and set(memo) == {"|G|", np.array([0, 1]).tobytes()}
    assert np.array_equal(memo["|G|"], np.abs(G))
    shared = solve(program(1.5, faces=memo))
    assert splits == [2]
    fresh = solve(program(1.5))
    assert splits == [2, 2]
    assert np.abs(shared.x - 0.75).max() <= 1e-14
    for got, want in ((shared.x, fresh.x), (shared.ineq_multipliers, fresh.ineq_multipliers)):
        assert got.tobytes() == want.tobytes()
    assert shared.diagnostics.to_dict() == fresh.diagnostics.to_dict()
    # a program's copy keeps its memo; a new program starts with its own
    assert replace(program(1.5, faces=memo), face_start=None).faces is memo
    assert program(1.5).faces == {} and program(1.5).faces is not program(1.5).faces


def test_few_newton_steps(two_period_market):
    c, x0, G, h = boxed_lp()
    lp = solve(linear_program(c, x0, G=G, h=h))
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
        return e, np.array([-e]), np.array([e])

    prog = ConvexProgram(objective=objective, G=np.eye(1), h=np.zeros(1),
                         x0=lambda: np.ones(1))
    res = solve(prog)
    assert res.status == "unbounded"
    assert res.diagnostics.message == "iterates diverging"


def test_start_at_the_optimum_is_certified():
    # min 0.5 (x1 - 1)^2 over 0 <= x <= 3, started at its optimum (1, 1):
    # the floor exit must return the multipliers it certified, not 1/s
    prog = ConvexProgram(objective=quadratic([1.0, 0.0], [-1.0, 0.0]),
                         G=np.vstack([np.eye(2), -np.eye(2)]),
                         h=np.array([0.0, 0.0, -3.0, -3.0]), x0=lambda: np.array([1.0, 1.0]))
    res = solve(prog)
    assert res.status == "optimal"
    assert np.allclose(res.x, [1.0, 1.0])


def test_program_without_inequality_rows_is_rejected():
    prog = ConvexProgram(objective=quadratic([2.0], [0.0]),
                         G=np.zeros((0, 1)), h=np.zeros(0), x0=lambda: np.zeros(1))
    with pytest.raises(ValueError, match="inequality row"):
        solve(prog)


def test_inconsistent_equalities_raise():
    # x1 + x2 = 1 and 2 x1 + 2 x2 = 3 have no common point
    prog = ConvexProgram(objective=quadratic(np.ones(2), np.zeros(2)),
                         A_eq=np.array([[1.0, 1.0], [2.0, 2.0]]), b_eq=np.array([1.0, 3.0]),
                         G=np.eye(2), h=np.full(2, -10.0), x0=lambda: np.zeros(2))
    with pytest.raises(InfeasibleProgramError, match="inconsistent"):
        solve(prog)


def test_singular_reduced_matrix_takes_one_ridge():
    # a zero matrix fails its LU, and the first ridge, 1e-12 (1 + tr/size),
    # makes it nonsingular
    diag = SolveDiagnostics(status="max_iter")
    lu, piv = engine._factor(np.zeros((2, 2)), diag)
    assert np.array_equal(lu, np.diag([1e-12, 1e-12]))
    assert diag.factorizations == 2
    assert diag.events == ["ridge 1.000e-12 at step 0"]


def test_non_finite_reduced_matrix_breaks_down_after_14_factorizations():
    diag = SolveDiagnostics(status="max_iter")
    with pytest.raises(EngineError, match="factorization breakdown"):
        engine._factor(np.full((2, 2), np.nan), diag)
    assert diag.factorizations == 14
    assert len(diag.events) == 13
    assert all(e.startswith("ridge ") for e in diag.events)


def test_eq_multipliers_follow_the_given_rows():
    # x1 + x2 + x3 = 3 stated twice and x1 - x3 = 0 once: one multiplier
    # per given row, 0 on the row dropped as dependent
    A = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, -1.0], [1.0, 1.0, 1.0]])
    b = np.array([3.0, 0.0, 3.0])
    G = np.vstack([np.eye(3), -np.eye(3)])
    h = np.array([0.0, 0.0, 0.0, -5.0, -5.0, -5.0])
    q, c = np.array([1.0, 2.0, 3.0]), np.array([-1.0, 0.5, -2.0])
    res = solve(ConvexProgram(objective=quadratic(q, c), A_eq=A, b_eq=b, G=G, h=h,
                              x0=lambda: np.ones(3)))
    assert res.status == "optimal"
    nu = res.eq_multipliers
    assert nu.shape == (3,)
    assert np.count_nonzero(nu[[0, 2]]) == 1
    g = q * res.x + c
    assert np.linalg.norm(g - G.T @ res.ineq_multipliers + A.T @ nu) <= 1e-8
    assert np.allclose(A @ res.x, b, atol=1e-12)


def test_reduced_step_matches_the_full_kkt_step():
    # a separable program whose third equality row is the sum of the
    # first two: the null-space step and the multipliers' force A^T w
    # equal those of [M A^T; A 0] on the independent rows
    rng = np.random.default_rng(3)
    n, m = 7, 12
    A = rng.standard_normal((2, n))
    A = np.vstack([A, A[0] + A[1]])
    G = rng.standard_normal((m, n))
    d = rng.uniform(0.5, 2.0, n)
    w = rng.uniform(0.1, 10.0, m)
    g = rng.standard_normal(n)
    eq = engine._reduce_equalities(A, A @ rng.standard_normal(n))
    assert eq.A.shape[0] == 2
    lu = engine._factor(engine._reduced_matrix(G @ eq.Z, w, eq.Z, d), SolveDiagnostics("x"))
    dx = eq.Z @ engine._lu_solve(lu, -eq.Z.T @ g)
    M = (G.T * w) @ G + np.diag(d)
    nu = eq.multipliers(M @ dx + g)
    full = np.linalg.solve(np.block([[M, A[:2].T], [A[:2], np.zeros((2, 2))]]),
                           np.concatenate([-g, np.zeros(2)]))
    assert np.linalg.norm(dx - full[:n]) <= 1e-10 * np.linalg.norm(full[:n])
    force = A[:2].T @ full[n:]
    assert np.linalg.norm(eq.A.T @ nu - force) <= 1e-10 * np.linalg.norm(force)


def test_face_start_with_an_equality_row_and_a_repeated_active_row():
    # min 0.5 |x - (2, 2)|^2 s.t. x1 = x2 and x1 + x2 <= 2, stated twice:
    # from (0.9, 0.9), off the face, the repeated row joins and the finish
    # ends at (1, 1) with no barrier step
    row = np.array([[-1.0, -1.0]])
    prog = ConvexProgram(objective=quadratic(np.ones(2), [-2.0, -2.0]),
                         A_eq=np.array([[1.0, -1.0]]), b_eq=np.zeros(1),
                         G=np.vstack([row, row, np.eye(2)]), h=np.array([-2.0, -2.0, -5.0, -5.0]),
                         x0=lambda: np.zeros(2), face_start=(np.array([0.9, 0.9]), np.zeros(4)))
    res = solve(prog)
    d = res.diagnostics
    assert d.face_start == {"accepted": True, "rounds": d.face_start["rounds"], "reason": None}
    assert d.events == [f"face start accepted after {d.face_start['rounds']} rounds"]
    assert d.newton_iterations == [] and d.factorizations == 0 and d.face_steps >= 1
    # to_dict carries a copy of the record
    record = d.to_dict()["face_start"]
    assert record == d.face_start and record is not d.face_start
    assert np.abs(res.x - 1.0).max() <= 1e-14
    lam = res.ineq_multipliers
    assert np.all(lam >= 0.0) and lam[0] + lam[1] == pytest.approx(1.0, abs=10 * TOL)
    barrier = solve(replace(prog, face_start=None))
    assert np.abs(barrier.x - res.x).max() <= 1e-9


def _optimum_start_program(lam):
    """min 0.5 |x - (2, 2)|^2 s.t. x1 = x2, x1 + x2 <= 2 and x >= -5, face
    started at its optimum (1, 1) with the multipliers ``lam``: the exact
    ones are (1, 0, 0), and the box rows' slack is 6.  Returns the program
    and the points its objective is evaluated at."""
    evaluated, objective = [], quadratic(np.ones(2), [-2.0, -2.0])
    prog = ConvexProgram(objective=lambda x: evaluated.append(x.copy()) or objective(x),
                         A_eq=np.array([[1.0, -1.0]]), b_eq=np.zeros(1),
                         G=np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]),
                         h=np.array([-2.0, -5.0, -5.0]), x0=lambda: np.zeros(2),
                         face_start=(np.ones(2), np.asarray(lam, float)))
    return prog, evaluated


def _count_splits(monkeypatch):
    """The row counts of every :func:`engine._split_rows` call, and the
    active rows of every :func:`engine._face_split` call, in order."""
    splits, faces = [], []
    split_rows, face_split = engine._split_rows, engine._face_split
    monkeypatch.setattr(engine, "_split_rows",
                        lambda A, b: splits.append(A.shape[0]) or split_rows(A, b))
    monkeypatch.setattr(engine, "_face_split", lambda memo, G, rows, A, rhs: (
        faces.append(rows.tolist()) or face_split(memo, G, rows, A, rhs)))
    return splits, faces


def test_face_start_at_the_optimum_is_accepted_as_given(monkeypatch):
    # the exact optimum and its multipliers pass the barrier's stopping
    # test as they stand: accepted with no finish round, on the one
    # objective evaluation of the start, splitting no face beyond the
    # equality row; the result holds copies of the start's arrays
    prog, evaluated = _optimum_start_program([1.0, 0.0, 0.0])
    x, lam = prog.face_start
    splits, faces = _count_splits(monkeypatch)
    res = solve(prog)
    d = res.diagnostics
    assert d.face_start == {"accepted": True, "rounds": 0, "reason": None}
    assert d.events == ["face start accepted after 0 rounds"]
    assert d.face_steps == 0 and d.newton_iterations == [] and d.factorizations == 0
    assert splits == [1] and faces == [] and prog.faces == {}
    assert len(evaluated) == 1 and evaluated[0].tobytes() == x.tobytes()
    assert res.status == "optimal" and d.kkt_max == 0.0
    assert res.x.tobytes() == x.tobytes() and not np.shares_memory(res.x, x)
    assert res.ineq_multipliers.tobytes() == lam.tobytes()
    assert not np.shares_memory(res.ineq_multipliers, lam)
    assert res.eq_multipliers.tolist() == [0.0]


@pytest.mark.parametrize("box, accepted_as_given", [
    (-1e-13, False),                                # a negative multiplier
    (1.01 * TOL / 30.0 / 6.0, False),               # complementarity above TOL/(10m)
    (0.99 * TOL / 30.0 / 6.0, True),                # and just below it
], ids=["negative", "above-the-floor", "below-the-floor"])
def test_face_start_as_given_meets_the_stopping_test_exactly(box, accepted_as_given,
                                                              monkeypatch):
    # a box multiplier off the optimum's 0: stationarity and feasibility
    # still pass, and complementarity is box * 6 against the floor weight
    # TOL / (10 m), m = 3.  Only a start that passes the stopping test,
    # with every multiplier nonnegative, is accepted as given; any other
    # takes the finish, which splits the face and corrects the multipliers
    prog, _ = _optimum_start_program([1.0, box, 0.0])
    splits, faces = _count_splits(monkeypatch)
    d = solve(prog).diagnostics
    assert d.face_start["accepted"]
    if accepted_as_given:
        assert d.face_start["rounds"] == 0 and d.face_steps == 0
        assert splits == [1] and faces == []
    else:
        assert d.face_start["rounds"] >= 1 and d.face_steps >= 1
        assert splits == [1, 2] and faces == [[0]]


@pytest.mark.parametrize("point, multipliers", [
    (np.zeros(3), np.zeros(2)),     # a multiplier short
    (np.zeros(3), np.zeros(4)),     # a multiplier too many
    (np.zeros(2), np.zeros(3)),     # a short point
    (np.zeros(4), np.zeros(3)),     # a long point
], ids=["short-multipliers", "long-multipliers", "short-point", "long-point"])
def test_face_start_of_the_wrong_shape_is_rejected(point, multipliers):
    # three variables and three rows x >= -1: the pair needs 3 and 3 entries
    prog = ConvexProgram(objective=quadratic(np.ones(3), np.zeros(3)), G=np.eye(3),
                         h=-np.ones(3), x0=lambda: np.zeros(3), face_start=(point, multipliers))
    with pytest.raises(ValueError, match="face start needs a point of 3 entries and 3 multipliers"):
        solve(prog)
    assert solve(replace(prog, face_start=(np.zeros(3), np.zeros(3)))).status == "optimal"


def test_pinned_program_takes_no_step():
    # x1 + x2 = 2 and x1 - x2 = 0 pin x = (1, 1) inside x >= 0
    prog = ConvexProgram(objective=quadratic(np.ones(2), [1.0, -3.0]),
                         A_eq=np.array([[1.0, 1.0], [1.0, -1.0]]), b_eq=np.array([2.0, 0.0]),
                         G=np.eye(2), h=np.zeros(2), x0=lambda: np.array([3.0, 0.5]))
    res = solve(prog)
    assert res.status == "optimal"
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-14)
    assert sum(res.diagnostics.newton_iterations) == 0
    assert res.diagnostics.factorizations == 0
    g = res.x + np.array([1.0, -3.0])
    A = np.array([[1.0, 1.0], [1.0, -1.0]])
    assert np.linalg.norm(g - res.ineq_multipliers + A.T @ res.eq_multipliers) <= 1e-12


def test_one_factorization_per_iteration(two_period_market, monkeypatch):
    # every iteration factors once, the stopping one included; a
    # centering restart and a ridge retry factor once more each; an
    # accepted face start takes no barrier step and no factorization
    results = []

    def recording(program, *args, **kwargs):
        results.append(solve(program, *args, **kwargs))
        return results[-1]

    monkeypatch.setattr(duality, "solve", recording)
    for spec in (UtilitySpec("log"), UtilitySpec("exponential", gamma=0.7)):
        solve_report(two_period_market, spec, 6.0)
    assert any(r.eq_multipliers.size for r in results)
    faces = [r.diagnostics.face_start for r in results]
    assert any(face and face["accepted"] for face in faces)
    for r, face in zip(results, faces):
        d = r.diagnostics
        if face and face["accepted"]:
            assert d.newton_iterations == [] and d.factorizations == 0
            continue
        stopped = d.message != "Newton iteration cap reached"
        extra = sum(e.startswith(("centering restart", "ridge")) for e in d.events)
        assert d.factorizations == sum(d.newton_iterations) + stopped + extra


def test_floor_exit_does_not_stall():
    # seed-11 market 9 under power(0.5): its floor steps once hovered
    # on rounding noise for hundreds of steps
    market = InstanceGenerator(seed=11).draw_feasible(9)
    x = max(compute_x0(market), 0.0) + 5.0
    rep = solve_report(market, UtilitySpec("power", alpha=0.5), x)
    for side in ("primal", "dual"):
        d = rep.diagnostics[side]
        assert d["status"] == "optimal"
        assert sum(d["newton_iterations"]) < 40


def _boundary_step_reference(v, dv):
    """The masked formula ``_boundary_step`` replaced, kept as its oracle."""
    neg = dv < 0.0
    return float(np.min(v[neg] / -dv[neg])) if np.any(neg) else np.inf


def test_boundary_step_matches_the_masked_formula():
    rng = np.random.default_rng(3)
    cases = [(np.zeros(0), np.zeros(0)), (np.ones(4), np.abs(rng.standard_normal(4)))]
    for n in (1, 5, 40):
        for _ in range(20):
            v = rng.uniform(1e-9, 10.0, n)
            dv = rng.standard_normal(n)
            dv[rng.random(n) < 0.3] = 0.0
            cases.append((v, dv))
    for v, dv in cases:
        assert engine._boundary_step(v, dv) == _boundary_step_reference(v, dv)
    assert engine._boundary_step(np.ones(3), np.zeros(3)) == np.inf


def _tied_pair(rng):
    """Two entries whose ``dv/v`` round to the same value but whose
    ``v/-dv`` do not: the second ``v`` a few ulps above the first."""
    while True:
        v, dv = rng.uniform(0.1, 10.0), -rng.uniform(0.1, 10.0)
        w = v
        for _ in range(4):
            w = np.nextafter(w, np.inf)
            if dv / w == dv / v and w / -dv != v / -dv:
                return np.array([v, w]), np.array([dv, dv])


def test_boundary_step_on_ties_of_the_ratio():
    # the step is read at the argmin of dv/v; where that minimum is tied,
    # by rounding or exactly, or NaN, it must still be the masked formula's
    rng = np.random.default_rng(17)
    cases = []
    for _ in range(20):
        # the tied pair's dv/v, at most -0.01, is the minimum
        (v1, v2), (dv1, dv2) = _tied_pair(rng)
        noise_v, noise_dv = rng.uniform(1.0, 10.0, 4), rng.uniform(-1e-3, 1.0, 4)
        for order in ([v1, v2], [v2, v1]):
            cases.append((np.r_[noise_v[:2], order, noise_v[2:]],
                          np.r_[noise_dv[:2], dv1, dv2, noise_dv[2:]]))
    # exact ties, equal ratios; ties at -inf (dv/v overflows) with
    # different ratios; ties at -0 (dv/v underflows, the ratio overflows);
    # a NaN step ignored, and one in v that the ratio keeps
    cases += [(np.array([1.0, 2.0, 3.0]), np.array([-1.0, -2.0, 0.5])),
              (np.array([1e-300, 2e-300, 1.0]), np.array([-1e10, -1e10, -1.0])),
              (np.array([1e300, 2e300]), np.array([-1e-300, -1e-300])),
              (np.array([1.0, 2.0]), np.array([np.nan, -1.0])),
              (np.array([np.nan, 2.0]), np.array([-1.0, -1.0]))]
    with np.errstate(over="ignore"):
        for v, dv in cases:
            got, want = engine._boundary_step(v, dv), _boundary_step_reference(v, dv)
            assert got == want or (np.isnan(got) and np.isnan(want)), (v, dv)


def test_lapack_qr_and_triangular_solves_match_scipy_bitwise():
    # the engine calls dgeqp3/dorgqr and dtrtrs directly; they must give
    # the bits scipy.linalg.qr and solve_triangular give
    import scipy.linalg
    rng = np.random.default_rng(5)
    for rows, cols in [(0, 4), (3, 0), (1, 1), (2, 6), (5, 3), (4, 4), (7, 9)]:
        for _ in range(5):
            M = rng.standard_normal((rows, cols))
            if rows > 1:
                M[-1] = 2.0 * M[0]          # a dependent row
            (Q, R, piv), k = engine._row_rank_qr(M)
            if M.size:
                # R's strict lower triangle, which no caller reads, is not cleared
                want = scipy.linalg.qr(M.T, mode="full", pivoting=True)
                assert all(np.array_equal(a, b) for a, b in zip((Q, np.triu(R), piv), want))
            assert k == (np.linalg.matrix_rank(M) if M.size else 0)
            if not k:
                continue
            # _Equalities' two triangular solves: R1^T v = b - A x for its
            # step and R1 v = Y^T r for its multipliers
            eq = engine._split_rows(M, rng.standard_normal(rows))
            x, r = rng.standard_normal(cols), rng.standard_normal(cols)
            R1 = np.triu(eq.R1)             # as scipy.linalg.qr gives it
            v = scipy.linalg.solve_triangular(R1, eq.b - eq.A @ x, trans=1)
            assert np.array_equal(eq.step(x), eq.Y @ v)
            v = scipy.linalg.solve_triangular(R1, eq.Y.T @ r)
            assert np.array_equal(eq.multipliers(r), -v)


def test_cached_qr_workspace_matches_scipy_on_repeated_and_interleaved_shapes():
    # _lapack queries the workspace once per routine and argument shapes;
    # a shape called again, or after another, still gets scipy.linalg.qr's
    # bits.  The 150 x 200 matrix is past LAPACK's crossover to blocked
    # code (128 columns), where the workspace decides the path taken
    import scipy.linalg
    rng = np.random.default_rng(11)
    shapes = [(3, 8), (8, 3), (6, 6), (150, 200)]
    engine._workspace.cache_clear()
    for rows, cols in [(5, 9)] * 4 + shapes * 3 + shapes[::-1]:
        M = rng.standard_normal((rows, cols))
        (Q, R, piv), k = engine._row_rank_qr(M)
        want = scipy.linalg.qr(M.T, mode="full", pivoting=True)
        assert all(np.array_equal(a, b) for a, b in zip((Q, np.triu(R), piv), want))
        assert k == min(rows, cols)
    # one dgeqp3 and one dorgqr query per shape, each made once
    assert engine._workspace.cache_info().misses == 2 * (len(shapes) + 1)


def _reduced_hessian(rng, n, k, zeros):
    """``Z^T diag(d) Z`` for an orthonormal ``n x k`` basis ``Z`` and a
    nonnegative ``d`` whose first ``zeros`` entries are 0."""
    Z = np.linalg.qr(rng.standard_normal((n, k)))[0]
    d = rng.uniform(0.5, 2.0, n)
    d[:zeros] = 0.0
    return (Z.T * d) @ Z


@pytest.mark.parametrize("case", ["full-rank", "rank-deficient", "zero", "1x1", "0x0"])
def test_least_squares_matches_numpy_lstsq_bitwise(case):
    # the face finish solves its reduced Hessian by dgelsd through _lapack;
    # it must give np.linalg.lstsq(M, r, rcond=None)'s bits, on shapes
    # called in turn and again (k = 60 is past dgelsd's divide-and-conquer
    # crossover of 25)
    rng = np.random.default_rng(13)
    sizes = {"full-rank": [(9, 5), (80, 60), (9, 5)], "rank-deficient": [(9, 6), (80, 60)],
             "zero": [(4, 3), (70, 60)], "1x1": [(3, 1), (1, 1)], "0x0": [(3, 0), (0, 0)]}[case]
    for n, k in sizes * 3:
        if case == "rank-deficient":
            # n - k + 2 zeros in d leave M rank k - 2
            M = _reduced_hessian(rng, n, k, n - k + 2)
            assert np.linalg.matrix_rank(M) == k - 2
        elif case == "zero":
            M = np.zeros((k, k))
        else:
            M = _reduced_hessian(rng, n, k, 0)
        r = rng.standard_normal(k)
        assert np.array_equal(engine._least_squares(M, r),
                              np.linalg.lstsq(M, r, rcond=None)[0])


def test_zero_spread_finish_reuses_the_solve_split(monkeypatch):
    # on the zero-spread shadow duals no positivity row is active at the
    # optimum, so the face finish steps on the solve's own split of the
    # equality rows; a fresh pivoted QR of those rows, as it took before,
    # gives the same point to rounding
    exp1 = UtilitySpec("exponential", gamma=1.0)
    as_face = engine._Equalities.as_face
    for i in (4, 5, 9):
        market = InstanceGenerator(seed=11).draw_feasible(i)
        rep = solve_report(market, exp1, 1.0)
        shadow_market = construct_shadow(market, rep.dual_system).as_market()
        faces = []
        monkeypatch.setattr(engine._Equalities, "as_face",
                            lambda self: faces.append(self) or as_face(self))
        reused = solve_dual(shadow_market, exp1, rep.yhat)
        assert faces and faces[0].A is not None
        monkeypatch.setattr(engine._Equalities, "as_face",
                            lambda self: engine._split_rows(self.A, self.b))
        fresh = solve_dual(shadow_market, exp1, rep.yhat)
        assert reused.diagnostics["newton_iterations"] == fresh.diagnostics["newton_iterations"]
        assert reused.diagnostics["face_steps"] == fresh.diagnostics["face_steps"] > 0
        scale = np.abs(fresh.leaf_vars).max()
        assert np.abs(reused.leaf_vars - fresh.leaf_vars).max() <= 5e-14 * scale, i
        assert abs(reused.value - fresh.value) <= 1e-14 * (1.0 + abs(fresh.value)), i


def test_face_start_with_a_nan_gradient_is_rejected():
    # min |x - 1|^2 over x >= 0, face-started at its optimum (1, 1), where
    # the gradient is NaN: the finish's first step is NaN, which ends it
    # (it looped forever: no exit test holds for NaN), the start is
    # rejected and the barrier, from (2, 2), is optimal.  The objective
    # raises past 1000 calls, so a hang fails fast
    calls = []

    def objective(x):
        calls.append(1)
        if len(calls) > 1000:
            raise RuntimeError("face finish did not stop")
        r = x - 1.0
        g = np.full(2, np.nan) if np.array_equal(x, np.ones(2)) else 2.0 * r
        return float(r @ r), g, np.full(2, 2.0)

    prog = ConvexProgram(objective=objective, G=np.eye(2), h=np.zeros(2),
                         x0=lambda: np.full(2, 2.0), face_start=(np.ones(2), np.zeros(2)))
    res = solve(prog)
    assert res.diagnostics.face_start == {"accepted": False, "rounds": 1,
                                          "reason": "no step on the face"}
    assert res.status == "optimal"
    assert np.all(np.abs(res.x - 1.0) <= 1e-6)
    assert len(calls) < 100


@pytest.mark.parametrize("slot", ["kkt_stationarity", "kkt_feasibility",
                                  "kkt_complementarity"])
def test_a_nan_residual_is_the_largest(slot):
    # max() keeps a NaN only as its first argument; kkt_max, and so the
    # certification and the face start's acceptance, must see it anywhere
    diag = SolveDiagnostics(status="optimal", kkt_stationarity=0.0, kkt_feasibility=0.0,
                            kkt_complementarity=0.0)
    assert diag.kkt_max == 0.0
    setattr(diag, slot, float("nan"))
    assert np.isnan(diag.kkt_max)


def test_kkt_residuals_at_nan_slacks_and_rows():
    # feasibility is NaN, not 0, where a slack or an equality row is NaN
    G, h, lam = np.eye(2), np.zeros(2), np.ones(2)
    A, b, nu = np.array([[1.0, 1.0]]), np.array([2.0]), np.zeros(1)
    g = np.ones(2)
    assert engine._kkt_residuals(g, np.ones(2), G, h, A, b, lam, nu)[1] == 0.0
    assert engine._kkt_residuals(g, np.array([-0.5, 2.5]), G, h, A, b, lam, nu)[1] == 0.5
    feas = engine._kkt_residuals(g, np.array([np.nan, 1.0]), G, h, None, None, lam, nu)[1]
    assert np.isnan(feas)
    # a finite slack with a NaN equality row, via a NaN right-hand side
    feas = engine._kkt_residuals(g, np.ones(2), G, h, A, np.array([np.nan]), lam, nu)[1]
    assert np.isnan(feas)


@pytest.mark.parametrize("floor", [None, 1.0], ids=["free", "floor-row"])
def test_face_step_out_of_the_domain_is_damped(floor):
    # max E[sqrt w] over the budget q @ w = 1, w >= 0, face-started with
    # leaf 0 at 20 times its optimal wealth: the first two full Newton
    # steps of sqrt overshoot below w0 = 0.  Each is damped into the
    # domain on the face, where it had ended the finish, and the start is
    # accepted at the barrier's optimum.  With the row w0 >= 1, which the
    # second damped step would cross, that step is a face change: the row
    # joins the face, and the optimum there has w0 = 1
    p, q = np.array([0.3, 0.4, 0.3]), np.array([0.5, 0.3, 0.2])

    def objective(w):
        r = np.sqrt(w)
        return -float(p @ r), -p / (2.0 * r), p / (4.0 * w * r)

    optimum = (p / q) ** 2 / float(p @ (p / q))
    start = optimum.copy()
    start[0] *= 20.0
    G, h = np.eye(3), np.zeros(3)
    if floor is not None:
        G, h = np.vstack([G, [1.0, 0.0, 0.0]]), np.append(h, floor)
    prog = ConvexProgram(objective=objective, A_eq=q[None, :], b_eq=np.ones(1),
                         G=G, h=h, x0=lambda: np.array([1.2, 0.6, 0.6]),
                         in_domain=lambda w: bool((w > 0.0).all()),
                         face_start=(start, np.zeros(G.shape[0])))
    res = solve(prog)
    d = res.diagnostics
    assert d.face_start == {"accepted": True, "rounds": d.face_start["rounds"], "reason": None}
    damped = [1, 2] if floor is None else [1]
    assert d.events == [f"face start accepted after {d.face_start['rounds']} rounds"] + [
        f"face step damped into the domain at round {r}" for r in damped]
    assert d.newton_iterations == [] and d.factorizations == 0
    barrier = solve(replace(prog, face_start=None))
    assert barrier.diagnostics.newton_iterations
    assert abs(d.objective - barrier.diagnostics.objective) <= 1e-12 * abs(d.objective)
    assert np.abs(res.x - barrier.x).max() <= 1e-12 * np.abs(barrier.x).max()
    if floor is None:
        assert np.abs(res.x - optimum).max() <= 1e-12 * optimum.max()
    else:
        assert res.x[0] == pytest.approx(floor, abs=1e-15) and res.ineq_multipliers[3] > 0.0


def test_face_finish_ends_when_damped_and_full_steps_alternate():
    # an objective whose Newton target swings between 2, outside the
    # domain x < 1, and 0, inside it: every other step is damped, and each
    # full step between them would start a fresh halving test.  At most
    # FINISH_ROUNDS damped steps end the finish
    evals = []

    def objective(x):
        assert len(evals) < 100, "the face finish does not end"
        target = 2.0 if len(evals) % 2 == 0 else 0.0
        evals.append(float(x[0]))
        return 0.5 * float(x[0] - target) ** 2, x - target, np.ones(1)

    G, h = np.array([[-1.0]]), np.array([-10.0])
    prog = ConvexProgram(objective=objective, G=G, h=h, x0=lambda: np.zeros(1),
                         in_domain=lambda x: bool(x[0] < 1.0))
    x = np.zeros(1)
    _, g, d = objective(x)
    out, rounds, damped = engine._face_finish(prog, x, g, d, G, h,
                                              engine._reduce_equalities(None, None),
                                              np.zeros(1), np.zeros(0), prog.in_domain)
    assert len(damped) == engine.FINISH_ROUNDS
    assert out[-1] == 2 * engine.FINISH_ROUNDS and rounds == out[-1] + 1
