"""Convex solver: primal-dual interior point with Mehrotra's
predictor-corrector steps.

Minimizes a smooth convex objective over linear equality constraints and
affine inequality constraints (``G x - h >= 0``).  Linear programs do not
go through this loop: :func:`solve_lp` is one HiGHS call
(``scipy.optimize.linprog``).  Strictly feasible starts and
infeasibility certificates come from a max-slack LP, also solved once by
HiGHS; the path-following loop itself is self-contained, and so is the
active-face finish that moves its optimal exits onto their face.

Dense linear algebra throughout: problems here have at most a few
thousand variables.  Everything is deterministic given its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

ARMIJO_C = 1e-4
BACKTRACK_BETA = 0.5
RIDGE_BASE = 1e-12
DEFAULT_TOL = 1e-9
DEFAULT_MAX_NEWTON = 500
DIVERGE_CAP = 1e12
HIGHS_TOL = 1e-10          # HiGHS primal and dual feasibility tolerances
LP_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}   # by linprog status


class EngineError(RuntimeError):
    """Solver could not produce a point meeting its contract."""


class InfeasibleProgramError(EngineError):
    """No strictly feasible point exists (phase-one slack nonpositive)."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


@dataclass
class ConvexProgram:
    """Smooth convex minimization over affine constraints.

    ``objective(x)`` returns ``(value, gradient, hessian)``; ``in_domain``
    guards open objective domains during line search.  Inequalities read
    ``G x - h >= 0``.
    """

    n: int
    objective: Callable[[np.ndarray], tuple]
    A_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None
    G: Optional[np.ndarray] = None
    h: Optional[np.ndarray] = None
    in_domain: Optional[Callable[[np.ndarray], bool]] = None
    x0: Optional[np.ndarray] = None


@dataclass
class SolveDiagnostics:
    """What a solve did.

    ``barrier_path`` holds the objective after each iteration and
    ``newton_iterations`` the Newton steps each took (one), so its sum is
    the steps taken.  ``phase_one_slack`` is the max slack ``t*`` of the
    phase-one LP, or ``None`` when the supplied start was strictly
    feasible and no LP ran.  ``face_steps`` counts the Newton steps the
    active-face finish took on the point returned: 0 when the barrier
    point was kept (no step taken, or the finished point's KKT residuals
    were larger).  ``events`` lists, in order, the exits and fallbacks
    that do not show in the status: a supplied start rejected for a phase
    one (or least-squares) start, a ``max_iter`` promoted to ``optimal``.
    """

    status: str
    objective: float = float("nan")
    barrier_path: list = field(default_factory=list)
    newton_iterations: list = field(default_factory=list)
    kkt_stationarity: float = float("nan")
    kkt_feasibility: float = float("nan")
    kkt_complementarity: float = float("nan")
    message: str = ""
    phase_one_slack: Optional[float] = None
    face_steps: int = 0
    events: list = field(default_factory=list)

    @property
    def kkt_max(self) -> float:
        return max(self.kkt_stationarity, self.kkt_feasibility,
                   self.kkt_complementarity)

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "objective": self.objective,
            "barrier_path": list(self.barrier_path),
            "newton_iterations": list(self.newton_iterations),
            "kkt_stationarity": self.kkt_stationarity,
            "kkt_feasibility": self.kkt_feasibility,
            "kkt_complementarity": self.kkt_complementarity,
            "message": self.message,
            "phase_one_slack": self.phase_one_slack,
            "face_steps": self.face_steps,
            "events": list(self.events),
        }


@dataclass
class SolveResult:
    x: np.ndarray
    eq_multipliers: np.ndarray
    ineq_multipliers: np.ndarray
    diagnostics: SolveDiagnostics

    @property
    def status(self) -> str:
        return self.diagnostics.status


def _row_rank_qr(M, mode="r"):
    """Column-pivoted QR of ``M^T`` and the numerical rank of ``M``.

    Returns ``scipy.linalg.qr``'s output in ``mode``, whose last two
    entries are ``R`` and the pivots, and the rank: the first ``rank``
    pivots index a maximal set of linearly independent rows of ``M``.
    """
    import scipy.linalg

    out = scipy.linalg.qr(M.T, mode=mode, pivoting=True)
    diag = np.abs(np.diag(out[-2]))
    tol = max(M.shape) * np.finfo(float).eps * (diag.max() if diag.size else 0.0)
    return out, int(np.sum(diag > tol))


def _reduce_equalities(A, b):
    """Drop linearly dependent equality rows; fail on inconsistency."""
    if A is None or A.shape[0] == 0:
        return None, None
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    x_part = np.linalg.lstsq(A, b, rcond=None)[0]
    if np.linalg.norm(A @ x_part - b) > 1e-8 * (1.0 + np.linalg.norm(b)):
        raise InfeasibleProgramError("inconsistent equality constraints")
    (_, piv), rank = _row_rank_qr(A)
    keep = np.sort(piv[:rank])
    return A[keep], b[keep]


def _kkt_solve(H, A, g, r_eq):
    """Solve [H A^T; A 0] [dx; w] = [-g; -r_eq] with ridge fallback."""
    n = H.shape[0]
    p = 0 if A is None else A.shape[0]
    scale = 1.0 + float(np.trace(H)) / n if n else 1.0
    ridge = 0.0
    for _ in range(14):
        K = np.zeros((n + p, n + p))
        K[:n, :n] = H + ridge * scale * np.eye(n)
        if p:
            K[:n, n:] = A.T
            K[n:, :n] = A
        rhs = np.concatenate([-g, -r_eq]) if p else -g
        try:
            sol = np.linalg.solve(K, rhs)
        except np.linalg.LinAlgError:
            ridge = RIDGE_BASE if ridge == 0.0 else ridge * 100.0
            continue
        if np.all(np.isfinite(sol)):
            dx = sol[:n]
            w = sol[n:] if p else np.zeros(0)
            return dx, w
        ridge = RIDGE_BASE if ridge == 0.0 else ridge * 100.0
    raise EngineError("KKT factorization breakdown")


def solve(program: ConvexProgram, tol: float = DEFAULT_TOL,
          max_newton: int = DEFAULT_MAX_NEWTON) -> SolveResult:
    """Primal-dual path-following solve of a :class:`ConvexProgram`.

    Iterates on ``(x, lam, nu)`` with slacks ``s = G x - h``, starting on
    the central path at barrier weight 1 (``lam = 1/s``).  Each iteration
    forms ``H + G^T diag(lam/s) G`` once and takes Mehrotra's
    predictor-corrector step from it toward the target weight
    ``mu_t = sigma * mu``, ``sigma = (mu_aff/mu)^3``, floored at
    ``tol / (10 m)``; the step is globalized by Armijo backtracking on the
    barrier merit at ``mu_t``.  At the floor the steps are centering
    Newton steps, and the solve stops when their decrement is negligible
    and the multipliers of the full step are stationary and centered.
    Without inequalities this is damped Newton.  Diverging iterates are
    reported with status ``unbounded``.

    The optimal and ``max_iter`` exits end in :func:`_face_finish`,
    barrier-free Newton steps on the guessed active face, whose point and
    multipliers replace the barrier ones when their KKT residuals are no
    larger.  The result is then certified: a ``max_iter`` exit within
    ``max(100 tol, 1e-5) (1 + |f|)`` is promoted to ``optimal``, and an
    optimal exit outside it is demoted to ``numerical_failure``.
    """
    n = program.n
    A, b = _reduce_equalities(program.A_eq, program.b_eq)
    G = None if program.G is None else np.atleast_2d(np.asarray(program.G, float))
    h = None if program.h is None else np.atleast_1d(np.asarray(program.h, float))
    if G is not None and G.shape[0] == 0:
        G, h = None, None
    m = 0 if G is None else G.shape[0]
    in_domain = program.in_domain or (lambda _x: True)

    diag = SolveDiagnostics(status="max_iter")
    x, diag.phase_one_slack = _starting_point(program, A, b, G, h, in_domain,
                                              diag.events)
    total_iters = 0
    lam = 1.0 / (G @ x - h) if m else np.zeros(0)
    nu = np.zeros(0 if A is None else A.shape[0])
    mu_floor = tol / (10.0 * m) if m else 0.0

    x_norm0 = 1.0 + np.linalg.norm(x)
    while True:
        if total_iters >= max_newton:
            diag.message = "Newton iteration cap reached"
            break
        fval, g, H = program.objective(x)
        r_eq = (A @ x - b) if A is not None else np.zeros(0)
        if m:
            s = G @ x - h
            mu = float(s @ lam) / m
            M = H + (G.T * (lam / s)) @ G
            # predictor: the affine step toward mu = 0
            dx, _ = _kkt_solve(M, A, g, r_eq)
            ds = G @ dx
            dl = -lam - lam / s * ds
            mu_aff = float((s + min(1.0, _boundary_step(s, ds)) * ds)
                           @ (lam + min(1.0, _boundary_step(lam, dl)) * dl)) / m
            mu_t = max((mu_aff / mu) ** 3 * mu, mu_floor)
            grad = g - mu_t * (G.T @ (1.0 / s))     # merit gradient at mu_t
            # comp is the step's target for s * lam: Mehrotra's corrector
            # above the floor, plain centering at it
            comp = mu_t - ds * dl if mu_t > mu_floor else mu_t
            dx, w = _kkt_solve(M, A, g - G.T @ (comp / s), r_eq)
            if mu_t > mu_floor and not float(grad @ dx) < 0.0:
                # the corrector does not descend the merit: pure centering
                comp = mu_t
                dx, w = _kkt_solve(M, A, grad, r_eq)
            if not float(grad @ dx) < 0.0:
                # nor does centering when the multipliers are so far from
                # mu_t/s (a warm start by the boundary) that lam/s swamps
                # the system: restart them on the central path, where this
                # is the Newton step of the merit
                lam = mu_t / s
                comp = mu_t
                M = H + (G.T * (mu_t / s**2)) @ G
                dx, w = _kkt_solve(M, A, grad, r_eq)
            ds = G @ dx
            dl = comp / s - lam - lam / s * ds
        else:
            mu_t, grad, M = 0.0, g, H
            dx, w = _kkt_solve(H, A, g, r_eq)
        nu = w
        slope = float(grad @ dx)
        if mu_t == mu_floor:
            # centering Newton at the floor weight.  Stop on a negligible
            # decrement once the full step's multipliers lam + dl are
            # stationary and move no product s * lam by more than mu_t.
            # The decrement alone goes quiet too early when lam/s swamps
            # the system (a warm start by the boundary); the merit
            # gradient is no stationarity test, since its mu/s term is
            # rounding noise once s nears the rounding level of G x - h
            dec2 = -slope if slope <= 0.0 else float(dx @ (M @ dx))
            if dec2 / 2.0 <= 1e-13 * (1.0 + abs(fval)):
                r_st = g + (A.T @ w) if A is not None else g
                centered = True
                if m:
                    r_st = r_st - G.T @ (comp / s - lam / s * ds)   # lam + dl
                    centered = float(np.max(np.abs(lam * ds))) <= mu_t
                if centered and (
                        np.linalg.norm(r_st) <= 10.0 * tol * (1.0 + np.linalg.norm(g))
                        or dec2 / 2.0 <= 1e-17 * (1.0 + abs(fval))):
                    if m:
                        lam = lam + dl      # the multipliers just certified
                    diag.status = "optimal"
                    break
        t = min(1.0, 0.995 * _boundary_step(s, ds)) if m else 1.0
        phi0 = fval - (mu_t * float(np.sum(np.log(s))) if m else 0.0)
        ok = False
        for _ in range(80):
            xt = x + t * dx
            if in_domain(xt) and (m == 0 or np.all(G @ xt - h > 0.0)):
                phit, ft = _merit(program, xt, G, h, mu_t)
                if phit <= phi0 + ARMIJO_C * t * slope + 1e-14 * abs(phi0):
                    ok = True
                    break
            t *= BACKTRACK_BETA
        if not ok:
            diag.message = "line search stalled"
            diag.status = "optimal"
            break
        x = xt
        if m:
            lam = lam + min(1.0, 0.995 * _boundary_step(lam, dl)) * dl
        total_iters += 1
        diag.barrier_path.append(float(ft))
        diag.newton_iterations.append(1)
        if np.linalg.norm(x) > DIVERGE_CAP * x_norm0:
            diag.status = "unbounded"
            diag.message = "iterates diverging"
            _finalize(diag, program, x, G, h, A, b, lam, nu, None)
            return SolveResult(x, nu, lam, diag)

    x, lam, nu = _finalize(diag, program, x, G, h, A, b, lam, nu, in_domain)
    # stationarity saturates near sqrt(eps)*cond(H) at degenerate corners
    # with objective-flat directions; the value itself is far tighter, so
    # the certification threshold stays above that floor
    certified = diag.kkt_max <= max(tol * 100, 1e-5) * (1.0 + abs(diag.objective))
    if diag.status == "max_iter" and certified:
        diag.status = "optimal"
        diag.events.append("max_iter promoted to optimal")
    elif diag.status == "optimal" and not certified:
        diag.status = "numerical_failure"
        diag.message = f"KKT residual {diag.kkt_max:.3e} above tolerance"
    return SolveResult(x, nu, lam, diag)


def _boundary_step(v, dv):
    """Largest ``t`` with ``v + t dv >= 0`` for ``v > 0`` (``inf`` if none)."""
    neg = dv < 0.0
    return float(np.min(v[neg] / -dv[neg])) if np.any(neg) else np.inf


def _merit(program, x, G, h, mu):
    """Barrier merit ``f - mu sum(log s)`` and the objective ``f`` at ``x``."""
    f, _, _ = program.objective(x)
    if G is None:
        return f, f
    return f - mu * float(np.sum(np.log(G @ x - h))), f


def _finalize(diag, program, x, G, h, A, b, lam, nu, in_domain):
    """Record the exit point in ``diag``; with ``in_domain`` (the optimal
    and max_iter exits) first try :func:`_face_finish` and keep its point
    and multipliers when their KKT residuals are no larger.  Returns the
    kept ``(x, lam, nu)``."""
    fval, g, H = program.objective(x)
    kkt = _kkt_residuals(g, x, G, h, A, b, lam, nu)
    face = None if in_domain is None or G is None else \
        _face_finish(program, x, g, H, G, h, A, b, lam, nu, in_domain)
    if face is not None:
        x_f, lam_f, nu_f, f_f, g_f, steps = face
        kkt_f = _kkt_residuals(g_f, x_f, G, h, A, b, lam_f, nu_f)
        if max(kkt_f) <= max(kkt):
            x, lam, nu, fval, kkt = x_f, lam_f, nu_f, f_f, kkt_f
            diag.face_steps = steps
    diag.objective = float(fval)
    diag.kkt_stationarity, diag.kkt_feasibility, diag.kkt_complementarity = kkt
    return x, lam, nu


def _kkt_residuals(g, x, G, h, A, b, lam, nu):
    """Stationarity, feasibility and complementarity residuals of
    ``(x, lam, nu)`` for objective gradient ``g``."""
    r = g.copy()
    feas = comp = 0.0
    if G is not None:
        r -= G.T @ lam
        s = G @ x - h
        feas = float(max(0.0, -(s.min() if s.size else 0.0)))
        comp = float(np.max(lam * s)) if s.size else 0.0
    if A is not None:
        r += A.T @ nu
        feas = max(feas, float(np.max(np.abs(A @ x - b))))
    return float(np.linalg.norm(r)) / (1.0 + float(np.linalg.norm(g))), feas, comp


def _face_finish(program, x, g, H, G, h, A, b, lam, nu, in_domain):
    """Barrier-free Newton steps on the active face of a barrier point.

    Barrier points stop short of their optimal face, where the identities
    hold exactly.  Rows with slack <= 1e-7 (1 + |h| + |G||x|) are guessed
    active and held as equalities with ``A``; one pivoted QR per active
    set drops the dependent rows and spans the face.  Each round takes the
    Newton step of the quadratic model on the face by the null-space
    method (least squares on the reduced Hessian, so flat directions stay
    put).  A row the step would cross joins the face and a row with a
    negative multiplier leaves it, in place of the step; two such rounds
    in a row end the finish, as does a step out of the objective domain
    or one not half its predecessor.  A step below sqrt(eps) relative to
    the point in every component is the last: its multipliers certify the
    point it reaches to second order.  Crossover as in Mehrotra & Ye,
    Math. Prog. 62 (1993).

    Returns ``(x, lam, nu, f, g, steps)`` at the last step taken, or
    ``None`` when none was.
    """
    import scipy.linalg

    (m, n), p = G.shape, 0 if A is None else A.shape[0]
    scale = 1.0 + np.abs(h) + np.abs(G) @ np.abs(x)
    active = G @ x - h <= 1e-7 * scale
    out, steps, idle, face, last = None, 0, 0, None, np.inf
    while idle < 2:
        if face is None:
            rows = np.flatnonzero(active)
            C = G[rows] if A is None else np.vstack([A, G[rows]])
            d = h[rows] if A is None else np.concatenate([b, h[rows]])
            (Q, R, piv), k = _row_rank_qr(C, "full")
            # C[keep]^T = Y R1: Y spans the kept rows, Z the face directions
            keep = piv[:k]
            face = C, d, keep, R[:k, :k], Q[:, :k], Q[:, k:]
        C, d, keep, R1, Y, Z = face
        dx = Y @ scipy.linalg.solve_triangular(R1, d[keep] - C[keep] @ x, trans="T")
        dx += Z @ np.linalg.lstsq(Z.T @ H @ Z, -Z.T @ (g + H @ dx), rcond=None)[0]
        # the multipliers in hand, corrected on the kept rows to meet
        # stationarity after the step: on a degenerate face this keeps
        # the positive split the barrier found among dependent rows
        w = np.concatenate([nu, -lam[rows]])
        w[keep] += scipy.linalg.solve_triangular(R1, -Y.T @ (g + H @ dx + C.T @ w))
        lam_t = np.zeros(m)
        lam_t[rows] = -w[p:]
        x_t = x + dx
        # crossing by more than the rounding bound of G x - h
        join = ~active & (G @ x_t - h < -n * np.finfo(float).eps * scale)
        leave = lam_t < 0.0
        if join.any() or leave.any():
            active = (active | join) & ~leave
            face = None
            idle += 1
            continue
        size = float(np.linalg.norm(dx))
        if not in_domain(x_t) or size > 0.5 * last:
            break
        x, lam, nu, last, idle = x_t, lam_t, w[:p], size, 0
        steps += 1
        fval, g, H = program.objective(x)
        out = (x, lam, nu, fval, g, steps)
        if np.all(np.abs(dx) <= np.sqrt(np.finfo(float).eps) * (1.0 + np.abs(x))):
            break
    return out


def _starting_point(program, A, b, G, h, in_domain, events):
    """Strictly feasible start and the phase-one max slack (``None`` when
    the supplied ``x0`` already was one).  A supplied ``x0`` that is
    rejected is logged to ``events``."""
    n = program.n
    x = None
    if program.x0 is not None:
        x = np.asarray(program.x0, dtype=float).copy()
        if A is not None:
            # project back onto the equality manifold
            r = A @ x - b
            if np.max(np.abs(r)) > 1e-12 * (1.0 + np.abs(b).max()):
                x -= np.linalg.lstsq(A, r, rcond=None)[0]
        good = in_domain(x)
        if good and G is not None:
            good = bool(np.all(G @ x - h > 0.0))
        if good:
            return x, None
        events.append("supplied start not strictly feasible: "
                      + ("least-squares start" if G is None else "phase one"))

    if G is None:
        x = np.zeros(n) if A is None else np.linalg.lstsq(A, b, rcond=None)[0]
        if not in_domain(x):
            raise EngineError("no in-domain start for unconstrained program")
        return x, None

    x, t_star, cert = _phase_one(A, b, G, h, n)
    if t_star <= 1e-11:
        raise InfeasibleProgramError(
            f"no strictly feasible point (max slack {t_star:.3e})", certificate=cert
        )
    if not np.all(G @ x - h > 0.0):
        raise EngineError(f"phase-one point not strictly feasible (max slack {t_star:.3e})")
    if A is not None and np.max(np.abs(A @ x - b)) > 1e-9 * (1.0 + np.abs(b).max()):
        raise EngineError("phase-one point off the equality constraints")
    if not in_domain(x):
        raise EngineError("phase-one point outside objective domain")
    return x, t_star


def _phase_one(A, b, G, h, n):
    """Max-min-slack LP over (x, t) by HiGHS, with x free:
    max t s.t. G x - h >= t * (1 + |h|), t <= 1, A x = b.

    Returns ``(x*, t*, certificate)``; the certificate's multipliers
    follow the barrier convention (see :func:`_highs`).
    """
    scale = 1.0 + np.abs(h)
    c = np.zeros(n + 1)
    c[n] = -1.0  # maximize t
    A1 = None if A is None else np.hstack([A, np.zeros((A.shape[0], 1))])
    res, lam, nu = _highs(c, np.hstack([G, -scale[:, None]]), h, A1, b,
                          bounds=[(None, None)] * n + [(None, 1.0)])
    if res.status != 0:
        raise EngineError(f"phase-one LP failed: {res.message}")
    t_star = float(res.x[n])
    cert = {
        "ineq_multipliers": lam.tolist(),
        "eq_multipliers": nu.tolist(),
        "max_slack": t_star,
    }
    return res.x[:n], t_star, cert


def _highs(c, G, h, A, b, bounds):
    """One HiGHS solve of ``min c x`` s.t. ``G x - h >= 0``, ``A x = b``.

    Returns the ``linprog`` result and its multipliers ``(lam, nu)`` in
    the barrier convention ``c - G^T lam + A^T nu = 0`` with ``lam >= 0``
    (``None`` unless optimal).  HiGHS marginals are derivatives of the
    optimal value in the right-hand sides, the opposite sign for both
    blocks.
    """
    from scipy.optimize import linprog

    res = linprog(c, A_ub=None if G is None else -G, b_ub=None if G is None else -h,
                  A_eq=A, b_eq=b, bounds=bounds, method="highs",
                  options={"primal_feasibility_tolerance": HIGHS_TOL,
                           "dual_feasibility_tolerance": HIGHS_TOL})
    if res.status != 0:
        return res, None, None
    return res, -res.ineqlin.marginals, -res.eqlin.marginals


def solve_lp(c, A_eq=None, b_eq=None, G=None, h=None) -> SolveResult:
    """Minimize ``c @ x`` subject to ``A_eq x = b_eq`` and ``G x - h >= 0``.

    One HiGHS call (dual simplex), ``x`` free.  The status is
    ``optimal``, ``infeasible``, ``unbounded`` or ``numerical_failure``;
    multipliers follow the barrier convention and the diagnostics carry
    the objective and the KKT residuals, with no Newton steps.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    A = None if A_eq is None or np.size(A_eq) == 0 else np.atleast_2d(np.asarray(A_eq, float))
    b = None if A is None else np.atleast_1d(np.asarray(b_eq, float))
    G = None if G is None or np.size(G) == 0 else np.atleast_2d(np.asarray(G, float))
    h = None if G is None else np.atleast_1d(np.asarray(h, float))
    res, lam, nu = _highs(c, G, h, A, b, bounds=[(None, None)] * n)
    diag = SolveDiagnostics(status=LP_STATUS.get(res.status, "numerical_failure"),
                            message=res.message)
    if res.status != 0:
        return SolveResult(np.full(n, np.nan), np.zeros(0), np.zeros(0), diag)
    diag.objective = float(res.fun)
    diag.kkt_stationarity, diag.kkt_feasibility, diag.kkt_complementarity = \
        _kkt_residuals(c, res.x, G, h, A, b, lam, nu)
    return SolveResult(res.x, nu, lam, diag)


def audit_derivatives(objective, points, rel_grad: float = 1e-6,
                      rel_hess: float = 1e-5, step: float = 1e-6):
    """Central finite-difference audit of analytic gradients and Hessians.

    Returns ``(max_grad_err, max_hess_err, ok)`` over the supplied
    points; errors are relative to the analytic magnitudes.
    """
    max_g = 0.0
    max_h = 0.0
    rng = np.random.default_rng(0)
    for x in points:
        x = np.asarray(x, dtype=float)
        _, g, H = objective(x)
        n = x.size
        hstep = step * (1.0 + np.abs(x))
        g_num = np.empty(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = hstep[i]
            fp, _, _ = objective(x + e)
            fm, _, _ = objective(x - e)
            g_num[i] = (fp - fm) / (2.0 * hstep[i])
        denom = 1.0 + np.linalg.norm(g)
        max_g = max(max_g, float(np.linalg.norm(g_num - g)) / denom)
        # Hessian-vector products against gradient differences
        for _ in range(3):
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            t = step * (1.0 + np.linalg.norm(x))
            _, gp, _ = objective(x + t * v)
            _, gm, _ = objective(x - t * v)
            hv_num = (gp - gm) / (2.0 * t)
            hv = H @ v
            max_h = max(max_h, float(np.linalg.norm(hv_num - hv))
                        / (1.0 + float(np.linalg.norm(hv))))
    return max_g, max_h, bool(max_g <= rel_grad and max_h <= rel_hess)
