"""Convex solver: primal-dual interior point with Mehrotra's
predictor-corrector steps.

Minimizes a smooth separable convex objective, whose Hessian is a
diagonal, over linear equality constraints and at least one affine
inequality constraint (``G x - h >= 0``): every program the duality
builds is of that shape, with a strictly feasible start in closed form:
the engine never searches for one.  The path-following loop is
self-contained, and so is the active-face finish that moves its optimal
exits onto their face.  A program that carries a face start, a point
already on (or next to) its optimal face and multipliers for its rows,
is accepted as given when the pair already passes the barrier's
stopping test, and is otherwise first finished from there by the same
barrier-free Newton steps; the barrier runs, from the program's own
start, only when that fails.  A finish step that would leave the
objective's domain is damped into it on the same face.  No library path
solves a linear program: the existence of a price system is decided on
the tree (:func:`polytope.strictly_consistent`).  :func:`solve_lp`, one
HiGHS call (``scipy.optimize.linprog``) outside this loop, is kept for
the tests' LP oracles.

The equality rows are split once per solve, by one pivoted QR, into a
range and a null-space basis (:func:`_split_rows`, which also splits the
faces of the active-face finish, once per program and active-row set,
kept in :attr:`ConvexProgram.faces`; a face with no active inequality
row reuses the solve's own split): the start is projected onto them, and
every Newton step lives in the null space, whose reduced matrix (size
``n - rank(A)``) is LU-factored once per iteration and reused by the
predictor and the corrector.  The ratio test that keeps slacks and
multipliers positive (:func:`_boundary_step`) takes the step at the most
negative ``dv/v``, the masked ratio's bits with one division per entry.
Dense linear algebra throughout: problems here have at most a few
thousand variables.  Everything is deterministic given its inputs.

Each factorization and solve is one call of a LAPACK routine through
scipy's low-level wrappers, never through ``scipy.linalg`` or
``np.linalg``, whose argument checks and workspace queries cost more
than the arithmetic on programs this small: ``dgeqp3`` and ``dorgqr``
for the pivoted QR, ``dgetrf`` and ``dgetrs`` for the LU, ``dtrtrs`` for
the triangular solves and ``dgelsd`` for the face finish's least
squares.  The QR's ``R`` is ``dgeqp3``'s output as it stands: the
triangular solves read its upper triangle and the rank test its
diagonal, so its strict lower triangle, the Householder vectors, is
never read or cleared.  The routines that take a workspace go through
one layer, :func:`_lapack`, which asks for each routine's workspace once
per shape of its arguments and caches the answer.  Every call gives the bits of
the ``scipy.linalg`` or ``np.linalg`` function it replaces, since both
run the same routine with the same workspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from scipy.linalg.lapack import (dgelsd, dgelsd_lwork, dgeqp3, dgetrf, dgetrs,
                                 dorgqr, dtrtrs)

ARMIJO_C = 1e-4
BACKTRACK_BETA = 0.5
RIDGE_BASE = 1e-12
TOL = 1e-9                 # stopping tolerance of the path-following loop
DEFAULT_MAX_NEWTON = 500
DIVERGE_CAP = 1e12
HIGHS_TOL = 1e-10          # HiGHS primal and dual feasibility tolerances
FINISH_ROUNDS = 6          # face-change rounds in a row that end a face finish
LP_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}   # by linprog status
EPS = float(np.finfo(float).eps)
SQRT_EPS = math.sqrt(EPS)


class EngineError(RuntimeError):
    """Solver could not produce a point meeting its contract."""


class InfeasibleProgramError(EngineError):
    """The equality constraints are inconsistent."""


@dataclass
class ConvexProgram:
    """Smooth separable convex minimization over affine constraints.

    The variables are the columns of ``G``.  ``objective(x)`` returns
    ``(f, g, d)``: the value, the gradient and the Hessian's diagonal
    ``d``, the Hessian being ``diag(d)``.
    ``in_domain`` guards open objective domains during line search.
    Inequalities read ``G x - h >= 0``; ``G`` has at least one row.
    ``x0`` is a function of no arguments that returns the barrier's start,
    strictly feasible once projected onto ``A x = b``: :func:`solve` calls
    it only when the barrier runs, so a program whose face start is
    accepted never builds its start.  ``face_start`` pairs a
    point on or near the program's optimal face, such as a nearby optimum,
    with one multiplier per row of ``G`` (a dual optimum's, or zeros):
    :func:`solve` accepts it as given when it already passes the
    barrier's stopping test, else first finishes it on its active face,
    and runs the barrier, from ``x0``, only if that fails.

    ``faces`` is the memo of the face finish (:func:`_face_finish`): the
    pivoted QR of each face it has split, keyed by the face's active rows
    of ``G``, and ``|G|``, for the active-row guess.  Both read ``G`` and
    the equality rows alone, never ``h``, so programs that share them, as
    a :class:`duality.PrimalProgram`'s programs at every wealth do, may
    share one memo; each program has its own unless given one.
    """

    objective: Callable[[np.ndarray], tuple]
    G: np.ndarray
    h: np.ndarray
    x0: Callable[[], np.ndarray]
    A_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None
    in_domain: Optional[Callable[[np.ndarray], bool]] = None
    face_start: Optional[tuple] = None
    faces: dict = field(default_factory=dict, repr=False)


@dataclass
class SolveDiagnostics:
    """What a solve did.

    ``barrier_path`` holds the objective after each iteration and
    ``newton_iterations`` the Newton steps each took (one), so its sum is
    the steps taken.  ``face_steps`` counts the Newton steps the
    active-face finish took on the point returned: 0 when the barrier
    point was kept (no step taken, or the finished point's KKT residuals
    were larger) and for a face start accepted as given.  ``events``
    lists, in order, the exits and fallbacks that do not show in the
    status: a centering restart of the multipliers, a ridge added to a
    singular reduced matrix, a quiet floor exit (two centered floor steps
    in a row with a negligible decrement, the second not halving the
    stationarity residual of the first), a ``max_iter`` promoted to
    ``optimal``, a face finish step damped into the objective's domain.
    ``factorizations`` counts the LU factorizations of the reduced Newton
    matrix: one per iteration, the one that stops the loop included, one
    more per centering restart and per ridge retry, and none for a pinned
    point.  ``face_start`` is the outcome of a face
    start, ``None`` when the program had none: ``accepted``, the
    ``rounds`` of the face finish taken (0 for a start accepted as
    given, which takes no finish) and, for a rejected one, the
    ``reason``.  It is also the first of the ``events``.  An accepted
    face start takes no barrier step and no factorization; a rejected
    one is followed by the barrier from the program's own start.
    """

    status: str
    objective: float = float("nan")
    barrier_path: list = field(default_factory=list)
    newton_iterations: list = field(default_factory=list)
    kkt_stationarity: float = float("nan")
    kkt_feasibility: float = float("nan")
    kkt_complementarity: float = float("nan")
    message: str = ""
    face_steps: int = 0
    factorizations: int = 0
    events: list = field(default_factory=list)
    face_start: Optional[dict] = None

    @property
    def kkt_max(self) -> float:
        """The largest KKT residual, NaN when any is NaN."""
        return _worst(self.kkt_stationarity, self.kkt_feasibility,
                      self.kkt_complementarity)

    def to_dict(self) -> dict:
        """Every field, in field order, its lists and the face-start record
        copied."""
        return {k: v.copy() if isinstance(v, (list, dict)) else v
                for k, v in vars(self).items()}


@dataclass
class SolveResult:
    x: np.ndarray
    eq_multipliers: np.ndarray
    ineq_multipliers: np.ndarray
    diagnostics: SolveDiagnostics

    @property
    def status(self) -> str:
        return self.diagnostics.status


def _row_rank_qr(M):
    """Full column-pivoted QR ``(Q, R, piv)`` of ``M^T`` and the numerical
    rank of ``M``: the first ``rank`` pivots index a maximal set of
    linearly independent rows of ``M``, and ``M[piv[:rank]]^T =
    Q[:, :rank] R[:rank, :rank]``.  LAPACK's ``dgeqp3`` and ``dorgqr``,
    called as ``scipy.linalg.qr(M.T, mode="full", pivoting=True)`` calls
    them, bit for bit, without its per-call wrapper cost.  ``R`` is
    ``dgeqp3``'s output as it stands: its upper triangle is scipy's ``R``,
    and its strict lower triangle, the Householder vectors, is read by no
    caller."""
    a = M.T
    rows, cols = a.shape
    if a.size == 0:
        Q, R, piv = np.eye(rows), np.zeros((rows, cols)), np.arange(cols)
    else:
        R, piv, tau, _ = _lapack(dgeqp3, a)
        piv -= 1          # 1-based pivots
        if rows < cols:
            Q = _lapack(dorgqr, R[:, :rows].copy(order="F"), tau, overwrite_a=1)[0]
        else:
            full = np.empty((rows, rows), order="F")
            full[:, :cols] = R
            Q = _lapack(dorgqr, full, tau, overwrite_a=1)[0]
    diag = np.abs(R.diagonal())
    tol = max(M.shape) * EPS * (diag.max() if diag.size else 0.0)
    return (Q, R, piv), int((diag > tol).sum())


def _least_squares(M, r):
    """The least-norm ``x`` minimizing ``|M x - r|`` for a square ``M``:
    LAPACK's ``dgelsd`` with singular values below ``eps k |M|`` taken as
    zero, ``k`` the size of ``M``, as ``np.linalg.lstsq(M, r, rcond=None)``
    calls it, bit for bit."""
    k = r.size
    if k == 0:
        return np.zeros(0)
    return _lapack(dgelsd, M, r[:, None], cond=EPS * k)[0][:, 0]


def _lapack(routine, *args, **kwargs):
    """The outputs of a LAPACK ``routine`` but ``info``, which must be 0,
    run with the workspace that :func:`_workspace` holds for the shapes
    of its array arguments.

    This is the engine's one LAPACK layer for the routines that take a
    workspace: ``dgeqp3`` and ``dorgqr`` for the pivoted QR, ``dgelsd``
    for the face finish's least squares.  The same shapes get the same
    ``lwork``, so LAPACK takes the same blocked path, and the bits are
    those of a call that queried its workspace first, as scipy and
    numpy do."""
    out = routine(*args, **_workspace(routine, tuple(a.shape for a in args)), **kwargs)
    if out[-1] != 0:
        raise EngineError(f"{routine.__name__} failed with info {out[-1]}")
    return out[:-1]


@lru_cache(maxsize=1024)
def _workspace(routine, shapes):
    """The workspace keywords of a LAPACK ``routine`` for arguments of
    these ``shapes``, from its workspace query, which reads the shapes
    alone: ``dgelsd``'s is ``dgelsd_lwork``, and the others answer an
    ``lwork = -1`` call in their ``work`` output."""
    if routine is dgelsd:
        (m, n), (_, nrhs) = shapes
        work, iwork, _ = dgelsd_lwork(m, n, nrhs)
        return {"lwork": int(work), "size_iwork": int(iwork)}
    return {"lwork": int(routine(*map(np.zeros, shapes), lwork=-1)[-2][0])}


@dataclass
class _Equalities:
    """The equality rows of a program, split once per solve, or the rows
    of a face of the active-face finish, split once per face.

    ``A`` and ``b`` are the kept rows ``keep`` of the ``rows`` given, in
    pivot order, with ``A^T = Y R1`` (``R1`` upper triangular) and ``Z``
    an orthonormal basis of the null space of ``A``.  With no row kept,
    ``A`` is ``None`` and so is ``Z``: the basis is the identity.  Both
    triangular solves are LAPACK's ``dtrtrs`` on the lower triangular
    ``R1^T``, as ``scipy.linalg.solve_triangular`` calls it for ``R1``.
    """

    rows: int
    keep: np.ndarray
    A: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None
    Y: Optional[np.ndarray] = None
    R1: Optional[np.ndarray] = None
    Z: Optional[np.ndarray] = None

    def step(self, x):
        """The least-norm ``dx`` with ``A (x + dx) = b``: ``Y R1^-T (b - A x)``."""
        if self.A is None:
            return np.zeros(x.size)
        return self.Y @ dtrtrs(self.R1.T, self.b - self.A @ x, lower=1)[0]

    def project(self, x):
        """The nearest point to ``x`` with ``A x = b``."""
        return x.copy() if self.A is None else x + self.step(x)

    def multipliers(self, r):
        """The ``nu`` minimizing ``|r + A^T nu|``."""
        if self.A is None:
            return np.zeros(0)
        return -dtrtrs(self.R1.T, self.Y.T @ r, lower=1, trans=1)[0]

    def as_face(self):
        """This split as a face of :func:`_face_finish` with no inequality
        row: its kept rows, in their order, are the rows given."""
        return replace(self, rows=self.keep.size, keep=np.arange(self.keep.size))

    def per_given_row(self, nu):
        """``nu`` spread over the given rows, 0 on the dropped ones."""
        out = np.zeros(self.rows)
        out[self.keep] = nu
        return out


def _split_rows(A, b):
    """Split the rows ``A x = b`` by one pivoted QR of ``A^T``
    (:func:`_row_rank_qr`): dependent rows are dropped, and the kept ones
    give the range and null-space bases of :class:`_Equalities`."""
    (Q, R, piv), k = _row_rank_qr(A)
    keep = piv[:k]
    if not k:
        return _Equalities(A.shape[0], keep)
    return _Equalities(A.shape[0], keep, A[keep], b[keep], Q[:, :k], R[:k, :k], Q[:, k:])


def _reduce_equalities(A, b):
    """The :func:`_split_rows` of a program's equality rows ``A x = b``.
    Rows that the kept rows' particular solution ``Y R1^-T b`` misses
    raise :class:`InfeasibleProgramError`."""
    if A is None or np.size(A) == 0:
        return _Equalities(0, np.zeros(0, int))
    A = np.atleast_2d(np.asarray_chkfinite(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    eq = _split_rows(A, b)
    r = A @ eq.project(np.zeros(A.shape[1])) - b
    if math.sqrt(r @ r) > 1e-8 * (1.0 + math.sqrt(b @ b)):
        raise InfeasibleProgramError("inconsistent equality constraints")
    return eq


def solve(program: ConvexProgram) -> SolveResult:
    """Primal-dual path-following solve of a :class:`ConvexProgram`.

    The equality rows are split once (:func:`_reduce_equalities`): the
    start is projected onto ``A x = b`` and every step lies in the null
    space of ``A``, spanned by ``Z``.  Iterates on ``(x, lam)`` with
    slacks ``s = G x - h``, starting on the central path at barrier weight
    1 (``lam = 1/s``).  Each iteration forms the reduced Newton matrix
    ``K = (G Z)^T diag(lam/s) G Z + Z^T diag(d) Z`` (``d`` the objective's
    Hessian diagonal), of size ``n - rank(A)``, factors it once by LU and
    takes Mehrotra's predictor-corrector step from that factorization
    toward the target weight ``mu_t = sigma * mu``,
    ``sigma = (mu_aff/mu)^3``, floored at ``TOL / (10 m)``; the step is
    globalized by Armijo backtracking on the barrier merit at ``mu_t``.
    At the floor the steps are centering Newton steps, and the solve
    stops when their decrement is negligible and the multipliers of the
    full step are stationary and centered, or at the second of two such
    quiet steps in a row that does not halve the stationarity residual of
    the first (a quiet floor exit, logged in the events).  The equality
    multipliers are the least-squares ones at the exit point.  Diverging
    iterates are reported with status ``unbounded``.  A program with
    ``n = rank(A)`` (``n`` the columns of ``G``) is pinned at its one
    feasible point, which takes no factorization; one without inequality
    rows raises ``ValueError``, and one whose projected ``x0`` is not
    strictly feasible, or outside the objective domain,
    :class:`EngineError`.

    Face starts and barrier exits are finished alike, by
    :func:`_face_finish`: barrier-free Newton steps on the guessed active
    face, which return the point they reach with its KKT residuals.
    Every solve ends in one exit (:func:`_exit`), which records the kept
    point in the diagnostics and certifies it: a ``max_iter`` exit within
    ``max(100 TOL, 1e-5) (1 + |f|)`` is promoted to ``optimal``, and an
    optimal exit outside it is demoted to ``numerical_failure``.

    A program's ``face_start`` is tried first.  A point without ``n``
    entries, or multipliers not one per row of ``G``, raise
    ``ValueError``; a point outside the objective domain is rejected
    with no step.  The loop's own stopping test reads a point's KKT
    residuals: stationarity, relative to ``1 + |g|``, and feasibility at
    most ``10 TOL``, and complementarity at most the floor weight ``TOL /
    (10 m)``; a NaN residual fails it.  The pair is first tested as
    given, on the one objective evaluation at its point, with the
    least-squares equality multipliers, as the barrier's exit reads them:
    when it passes and every multiplier is nonnegative, copies of its
    point and multipliers are returned, with no finish round
    (``rounds`` and ``face_steps`` 0) and no face split.  Otherwise the
    face finish runs from the pair's point and multipliers, with zero
    equality ones, stepping only inside the objective domain and with
    every multiplier nonnegative, and the point it reaches is accepted
    when it passes the same test.  That test is far tighter than the
    certification, so an accepted point is returned ``optimal`` with no
    barrier step and no factorization.  The outcome is recorded in
    ``face_start`` of the diagnostics (``accepted``, ``rounds``,
    ``reason``) and logged as the first event, ahead of one event per
    damped step of the finish.  Otherwise the barrier runs as if there
    had been no face start, to the same bits.

    The optimal exit of the barrier and its ``max_iter`` one, after
    ``DEFAULT_MAX_NEWTON`` Newton steps, are finished from the barrier's
    point and multipliers and its last objective evaluation, and the
    finished point replaces the barrier one when its KKT residuals are no
    larger (a NaN residual never is).  An ``unbounded`` exit is returned
    as it stands.
    """
    G = np.atleast_2d(np.asarray(program.G, float))
    h = np.atleast_1d(np.asarray(program.h, float))
    m = G.shape[0]
    if m == 0:
        raise ValueError("ConvexProgram.G needs at least one inequality row")
    eq = _reduce_equalities(program.A_eq, program.b_eq)
    Z = eq.Z
    GZ = G if Z is None else G @ Z
    in_domain = program.in_domain or (lambda _x: True)
    mu_floor = TOL / (10.0 * m)

    diag = SolveDiagnostics(status="max_iter")
    if program.face_start is not None:
        x, lam = (np.asarray(v, dtype=float) for v in program.face_start)
        if x.shape != (G.shape[1],) or lam.shape != (m,):
            raise ValueError(f"face start needs a point of {G.shape[1]} entries and "
                             f"{m} multipliers, got shapes {x.shape} and {lam.shape}")
        out, rounds, damped = None, 0, []
        reason = "start outside the objective domain"
        if in_domain(x):
            fval, g, d = program.objective(x)
            nu = eq.multipliers(g - G.T @ lam)
            kkt = _kkt_residuals(g, x, G, h, eq.A, eq.b, lam, nu)
            if _stops(kkt, mu_floor) and (lam >= 0.0).all():
                # already optimal as given: no face to split, no step to take
                out = x.copy(), lam.copy(), nu, fval, kkt, 0
            else:
                out, rounds, damped = _face_finish(program, x, g, d, G, h, eq, lam,
                                                   np.zeros(eq.keep.size), in_domain)
                reason = "no step on the face"
        if out is not None:
            reason = (None if _stops(out[4], mu_floor)
                      else "KKT residuals {:.1e}, {:.1e}, {:.1e} above "
                           "the barrier's stopping test".format(*out[4]))
        diag.face_start = {"accepted": reason is None, "rounds": rounds, "reason": reason}
        diag.events.append(f"face start accepted after {rounds} rounds" if reason is None
                           else f"face start rejected after {rounds} rounds: {reason}")
        diag.events.extend(damped)
        if reason is None:
            diag.status = "optimal"
            return _exit(diag, eq, *out)
    x = eq.project(np.asarray(program.x0(), dtype=float))
    if not (in_domain(x) and (G @ x - h > 0.0).all()):
        raise EngineError("start not strictly feasible")
    total_iters = 0
    quiet_r = np.inf    # stationarity of the last step's lam + dl, if quiet
    s = G @ x - h       # slacks at x; each trial point forms its own once
    lam = 1.0 / s

    x_norm0 = 1.0 + math.sqrt(x @ x)
    fval, g, d = program.objective(x)
    log_s = float(np.log(s).sum())     # the barrier term at x, carried with s
    while True:
        if total_iters >= DEFAULT_MAX_NEWTON:
            diag.message = "Newton iteration cap reached"
            break
        mu = float(s @ lam) / m
        gz = g if Z is None else Z.T @ g
        w = lam / s
        lu = _factor(_reduced_matrix(GZ, w, Z, d), diag)
        # predictor: the affine step toward mu = 0
        dz = _lu_solve(lu, -gz)
        ds = GZ @ dz
        dl = -lam - w * ds
        mu_aff = float((s + min(1.0, _boundary_step(s, ds)) * ds)
                       @ (lam + min(1.0, _boundary_step(lam, dl)) * dl)) / m
        mu_t = max((mu_aff / mu) ** 3 * mu, mu_floor)
        grad = gz - mu_t * (GZ.T @ (1.0 / s))     # merit gradient at mu_t, reduced
        # comp is the step's target for s * lam: Mehrotra's corrector
        # above the floor, plain centering at it
        comp = mu_t - ds * dl if mu_t > mu_floor else mu_t
        dz = _lu_solve(lu, GZ.T @ (comp / s) - gz)
        if mu_t > mu_floor and not float(grad @ dz) < 0.0:
            # the corrector does not descend the merit: pure centering
            comp = mu_t
            dz = _lu_solve(lu, -grad)
        if dz.size and not float(grad @ dz) < 0.0:
            # nor does centering when the multipliers are so far from
            # mu_t/s (a warm start by the boundary) that lam/s swamps
            # the system: restart them on the central path, where this
            # is the Newton step of the merit
            lam = mu_t / s
            w = lam / s
            comp = mu_t
            diag.events.append(f"centering restart at step {total_iters}")
            lu = _factor(_reduced_matrix(GZ, mu_t / s**2, Z, d), diag)
            dz = _lu_solve(lu, -grad)
        dx = dz if Z is None else Z @ dz
        ds = GZ @ dz
        dl = comp / s - lam - w * ds
        slope = float(grad @ dz)
        quiet_r, r_prev = np.inf, quiet_r
        if mu_t == mu_floor:
            # centering Newton at the floor weight.  Stop on a negligible
            # decrement once the full step's multipliers lam + dl are
            # stationary and move no product s * lam by more than mu_t.
            # The decrement alone goes quiet too early when lam/s swamps
            # the system (a warm start by the boundary); the merit
            # gradient is no stationarity test, since its mu/s term is
            # rounding noise once s nears the rounding level of G x - h.
            # Nor, in the end, is the stationarity of lam + dl, once lam/s
            # amplifies the rounding of the step: a quiet step that does
            # not halve it from the quiet step before stops the loop too
            dec2 = -slope if slope <= 0.0 else float(dx @ (d * dx) + ds @ (w * ds))
            if (dec2 / 2.0 <= 1e-13 * (1.0 + abs(fval))
                    and float(np.abs(lam * ds).max()) <= mu_t):
                # lam + dl = comp/s - lam/s * ds; stationarity on the null space
                r = gz - GZ.T @ (comp / s - w * ds)
                quiet_r = math.sqrt(r @ r)
                stationary = (quiet_r <= 10.0 * TOL * (1.0 + math.sqrt(g @ g))
                              or dec2 / 2.0 <= 1e-17 * (1.0 + abs(fval)))
                if stationary or quiet_r > 0.5 * r_prev:
                    if not stationary:
                        diag.events.append(f"quiet floor exit at step {total_iters}")
                    lam = lam + dl      # the multipliers just certified
                    diag.status = "optimal"
                    break
        t = min(1.0, 0.995 * _boundary_step(s, ds))
        phi0 = fval - mu_t * log_s
        ok = False
        for _ in range(80):
            xt = x + t * dx
            if in_domain(xt):
                st = G @ xt - h
                if (st > 0.0).all():
                    evaluation = program.objective(xt)
                    log_st = float(np.log(st).sum())
                    phit = evaluation[0] - mu_t * log_st
                    if phit <= phi0 + ARMIJO_C * t * slope + 1e-14 * abs(phi0):
                        ok = True
                        break
            t *= BACKTRACK_BETA
        if not ok:
            diag.message = "line search stalled"
            diag.status = "optimal"
            break
        x, s, log_s = xt, st, log_st
        fval, g, d = evaluation
        lam = lam + min(1.0, 0.995 * _boundary_step(lam, dl)) * dl
        total_iters += 1
        diag.barrier_path.append(float(fval))
        diag.newton_iterations.append(1)
        if math.sqrt(x @ x) > DIVERGE_CAP * x_norm0:
            diag.status = "unbounded"
            diag.message = "iterates diverging"
            break

    nu = eq.multipliers(g - G.T @ lam)
    kept = x, lam, nu, fval, _kkt_residuals(g, x, G, h, eq.A, eq.b, lam, nu), 0
    if diag.status != "unbounded":
        out, _, damped = _face_finish(program, x, g, d, G, h, eq, lam, nu, in_domain)
        diag.events.extend(damped)
        if out is not None and _worst(*out[4]) <= _worst(*kept[4]):
            kept = out
    return _exit(diag, eq, *kept)


def _exit(diag, eq, x, lam, nu, fval, kkt, face_steps):
    """The :class:`SolveResult` of the kept point ``(x, lam, nu)``: its
    objective ``fval``, KKT residuals ``kkt`` and ``face_steps`` recorded
    in ``diag``, and its status certified as :func:`solve` says.  ``eq``
    is the program's :class:`_Equalities`, which spreads ``nu`` over the
    given rows."""
    diag.objective = float(fval)
    diag.kkt_stationarity, diag.kkt_feasibility, diag.kkt_complementarity = kkt
    diag.face_steps = face_steps
    # stationarity saturates near sqrt(eps)*cond(H) at degenerate corners
    # with objective-flat directions; the value itself is far tighter, so
    # the certification threshold stays above that floor
    certified = diag.kkt_max <= max(TOL * 100, 1e-5) * (1.0 + abs(diag.objective))
    if diag.status == "max_iter" and certified:
        diag.status = "optimal"
        diag.events.append("max_iter promoted to optimal")
    elif diag.status == "optimal" and not certified:
        diag.status = "numerical_failure"
        diag.message = f"KKT residual {diag.kkt_max:.3e} above tolerance"
    return SolveResult(x, eq.per_given_row(nu), lam, diag)


def _reduced_matrix(GZ, w, Z, d):
    """The reduced Newton matrix ``(G Z)^T diag(w) G Z + Z^T diag(d) Z``."""
    K = (GZ.T * w) @ GZ
    if Z is None:
        return _plus_diag(K, d)
    K += (Z.T * d) @ Z
    return K


def _factor(K, diag):
    """LU factors ``(lu, piv)`` of the reduced Newton matrix ``K``, counted
    in ``diag.factorizations``; ``None`` when ``K`` is empty (a pinned
    point).  A singular or non-finite factorization is retried with the
    ridge ``RIDGE_BASE (1 + tr K / size)`` on the diagonal, growing
    100-fold up to 14 tries in all; each retry is logged in
    ``diag.events``."""
    size = K.shape[0]
    if size == 0:
        return None
    ridge = 0.0
    for _ in range(14):
        if ridge:
            diag.events.append(f"ridge {ridge * scale:.3e} at step "
                               f"{len(diag.newton_iterations)}")
        lu, piv, info = dgetrf(_plus_diag(K.copy(), ridge * scale) if ridge else K)
        diag.factorizations += 1
        if info == 0 and np.isfinite(lu).all():
            return lu, piv
        if ridge == 0.0:
            scale = 1.0 + float(K.trace()) / size
            ridge = RIDGE_BASE
        else:
            ridge *= 100.0
    raise EngineError("reduced Newton matrix factorization breakdown")


def _lu_solve(lu, rhs):
    """Solve ``K dz = rhs`` from :func:`_factor`'s factors (an empty
    step for a pinned point)."""
    return np.zeros(0) if lu is None else dgetrs(*lu, rhs)[0]


def _plus_diag(M, d):
    """``M + diag(d)``, formed in place."""
    M.flat[::M.shape[0] + 1] += d
    return M


def _boundary_step(v, dv):
    """Largest ``t`` with ``v + t dv >= 0`` for ``v > 0`` (``inf`` if
    none): ``min v_i / -dv_i`` over ``dv_i < 0``.

    Rounding is monotone, so that ratio is the one at the most negative
    ``dv_i / v_i`` when that minimum is not tied.  A minimum at or above
    -0 leaves no ratio but those whose ``dv_i / v_i`` underflowed, which
    overflow to ``inf``.  A tied or NaN minimum takes the masked formula
    over every ``dv_i < 0``.  Either way the bits are the masked formula's."""
    r = dv / v
    if r.size:
        i = r.argmin()
        if r[i] >= 0.0:
            return math.inf
        if r[i] < 0.0 and np.count_nonzero(r == r[i]) == 1:
            return float(v[i] / -dv[i])
    neg = dv < 0.0
    return float(np.min(v[neg] / -dv[neg])) if neg.any() else math.inf


def _kkt_residuals(g, x, G, h, A, b, lam, nu):
    """Stationarity, feasibility and complementarity residuals of
    ``(x, lam, nu)`` for objective gradient ``g``; NaN where a NaN enters."""
    r = g - G.T @ lam
    s = G @ x - h
    feas = _worst(0.0, float(-s.min())) if s.size else 0.0
    comp = float((lam * s).max()) if s.size else 0.0
    if A is not None:
        r += A.T @ nu
        feas = _worst(feas, float(np.abs(A @ x - b).max()))
    return math.sqrt(r @ r) / (1.0 + math.sqrt(g @ g)), feas, comp


def _stops(kkt, mu_floor):
    """Whether KKT residuals ``(stationarity, feasibility,
    complementarity)`` pass the barrier's stopping test: the first two at
    most ``10 TOL``, the last at most the floor weight ``mu_floor``; a NaN
    fails it."""
    stat, feas, comp = kkt
    return stat <= 10.0 * TOL and feas <= 10.0 * TOL and comp <= mu_floor


def _worst(*values):
    """The largest of ``values``, or NaN when one is NaN: ``max`` alone
    keeps any NaN that is not its first argument out of its answer."""
    return math.nan if any(v != v for v in values) else max(values)


def _face_finish(program, x, g, d, G, h, eq, lam, nu, in_domain):
    """Barrier-free Newton steps on the active face of a point.

    Barrier points stop short of their optimal face, where the identities
    hold exactly, and a face start sits on a face that is optimal or
    nearly so.  Rows with slack <= 1e-7 (1 + |h| + |G||x|) are guessed
    active and held as equalities with the rows of ``eq``, the program's
    :class:`_Equalities`; one pivoted QR per active set drops the
    dependent rows and spans the face, except that a face with no active
    row is the program's own split, ``eq``.  The QR and ``|G|`` read no
    ``h``, so both are kept in the program's memo
    (:attr:`ConvexProgram.faces`) and computed once per active set and
    once per memo (:func:`_face_split`); the face's right-hand side, whose
    positivity rows move with ``h``, is read at every split.  Each round takes the
    Newton step of the quadratic model on the face by the null-space
    method (least squares on the reduced Hessian ``Z^T diag(d) Z``, so
    flat directions stay put).  The multipliers in hand (``lam``, ``nu``:
    the barrier's, or a face start's) are corrected to the least-squares
    ones on the face's kept rows, so dependent rows keep their split.
    Rows the step would cross join the face and the row with the most
    negative multiplier leaves it, one row per face change (Goldfarb &
    Idnani, Math. Prog. 27, 1983), in place of the step.  A step with no
    negative multiplier that would leave the objective domain, where the
    model of a steep objective overshoots, is damped instead: halved on
    the same face until it stays in the domain (:func:`_damp`).  A damped
    step that crosses rows is a face change like a full one; otherwise it
    is taken, counts as a face change, and the next full step is not
    compared with it.  ``FINISH_ROUNDS`` face changes in a row end the
    finish, as do ``FINISH_ROUNDS`` damped steps, a full step not half
    the last full one, one that is not finite (a NaN step is the last, so
    it cannot loop) or one that no halving keeps in the domain.  A step
    below sqrt(eps) relative to the point in every component is the
    last: its multipliers certify the point it reaches to second order.
    Crossover as in Mehrotra & Ye, Math. Prog. 62 (1993).

    Returns ``(out, rounds, damped)``: ``out`` is ``(x, lam, nu, f, kkt,
    steps)`` at the last step taken, ``kkt`` its
    :func:`_kkt_residuals`, or ``None`` when no step was taken,
    ``rounds`` counts the rounds, steps and face changes alike, and
    ``damped`` holds one event per damped step.
    """
    A, b = eq.A, eq.b
    (m, n), p = G.shape, 0 if A is None else A.shape[0]
    faces = program.faces
    abs_G = faces.get("|G|")
    if abs_G is None:
        abs_G = faces["|G|"] = np.abs(G)
    scale = 1.0 + np.abs(h) + abs_G @ np.abs(x)
    active = G @ x - h <= 1e-7 * scale
    # crossing by more than the rounding bound of G x - h
    crossing = -n * EPS * scale
    steps, idle, face, last, rounds, damped = 0, 0, None, np.inf, 0, []
    while idle < FINISH_ROUNDS:
        rounds += 1
        if face is None:
            rows = np.flatnonzero(active)
            if not rows.size:
                # the program's rows alone, all kept: no second split
                C, face = (G[rows] if A is None else A), eq.as_face()
            else:
                C, face = _face_split(faces, G, rows, A, h[rows] if A is None
                                      else np.concatenate([b, h[rows]]))
            # Z spans the face directions, the identity on an empty face
            Z = np.eye(n) if face.Z is None else face.Z
        dx = face.step(x)
        dx += Z @ _least_squares((Z.T * d) @ Z, -Z.T @ (g + d * dx))
        # the multipliers in hand, corrected on the kept rows to meet
        # stationarity after the step: on a degenerate face this keeps
        # the positive split the barrier found among dependent rows
        w = np.concatenate([nu, -lam[rows]])
        w[face.keep] += face.multipliers(g + d * dx + C.T @ w)
        lam_t = np.zeros(m)
        lam_t[rows] = -w[p:]
        leave = int(np.argmin(lam_t))
        t = 1.0
        if lam_t[leave] >= 0.0 and not in_domain(x + dx):
            # at most FINISH_ROUNDS damped steps: t = 0 ends the finish
            t = _damp(in_domain, x, dx) if len(damped) < FINISH_ROUNDS else 0.0
        x_t = x + t * dx
        join = ~active & (G @ x_t - h < crossing)
        if join.any() or lam_t[leave] < 0.0:
            active |= join
            active[leave] &= lam_t[leave] >= 0.0
            face = None
            idle += 1
            continue
        size = math.sqrt(dx @ dx)
        if not (math.isfinite(size) and t > 0.0 and (t < 1.0 or size <= 0.5 * last)):
            break
        x, lam, nu = x_t, lam_t, w[:p]
        if t < 1.0:
            # no Newton convergence to measure: the next full step is
            # compared with none, and the step counts as a face change
            damped.append(f"face step damped into the domain at round {rounds}")
            last, idle = np.inf, idle + 1
        else:
            last, idle = size, 0
        steps += 1
        fval, g, d = program.objective(x)
        if (np.abs(dx) <= SQRT_EPS * (1.0 + np.abs(x))).all():
            break
    if not steps:
        return None, rounds, damped
    kkt = _kkt_residuals(g, x, G, h, A, b, lam, nu)
    return (x, lam, nu, fval, kkt, steps), rounds, damped


def _face_split(faces, G, rows, A, rhs):
    """``(C, face)``: the rows ``C = [A; G[rows]]`` of the face whose
    active rows of ``G`` are ``rows``, and their :func:`_split_rows` with
    right-hand side ``rhs``.  The split is looked up in the memo ``faces``
    (:attr:`ConvexProgram.faces`) by ``rows`` and computed only on a miss;
    a hit takes its right-hand side from ``rhs``, the same bits as a fresh
    split, since the QR reads ``C`` alone."""
    key = rows.tobytes()
    hit = faces.get(key)
    if hit is None:
        C = G[rows] if A is None else np.vstack([A, G[rows]])
        hit = faces[key] = C, _split_rows(C, rhs)
        return hit
    C, face = hit
    return C, replace(face, b=rhs[face.keep])


def _damp(in_domain, x, dx):
    """The largest ``t = BACKTRACK_BETA^k``, ``k = 1..80``, that keeps ``x
    + t dx`` in the objective domain, or 0 when none does."""
    t = 1.0
    for _ in range(80):
        t *= BACKTRACK_BETA
        if in_domain(x + t * dx):
            return t
    return 0.0


def solve_lp(c, A_eq=None, b_eq=None, G=None, h=None) -> SolveResult:
    """Minimize ``c @ x`` subject to ``A_eq x = b_eq`` and ``G x - h >= 0``.

    One HiGHS call (dual simplex), ``x`` free.  The status is
    ``optimal``, ``infeasible``, ``unbounded`` or ``numerical_failure``;
    the diagnostics carry the objective and the KKT residuals, with no
    Newton steps.  The multipliers follow the barrier convention
    ``c - G^T lam + A^T nu = 0`` with ``lam >= 0``: HiGHS marginals are
    derivatives of the optimal value in the right-hand sides, the
    opposite sign for both blocks.
    """
    from scipy.optimize import linprog

    c = np.asarray(c, dtype=float)
    n = c.size
    A = None if A_eq is None or np.size(A_eq) == 0 else np.atleast_2d(np.asarray(A_eq, float))
    b = None if A is None else np.atleast_1d(np.asarray(b_eq, float))
    # no inequality rows: a zero-row block
    G = np.zeros((0, n)) if G is None or np.size(G) == 0 else np.atleast_2d(np.asarray(G, float))
    h = np.atleast_1d(np.asarray(h, float)) if G.shape[0] else np.zeros(0)
    res = linprog(c, A_ub=-G, b_ub=-h, A_eq=A, b_eq=b, bounds=[(None, None)] * n,
                  method="highs", options={"primal_feasibility_tolerance": HIGHS_TOL,
                                           "dual_feasibility_tolerance": HIGHS_TOL})
    diag = SolveDiagnostics(status=LP_STATUS.get(res.status, "numerical_failure"),
                            message=res.message)
    if res.status != 0:
        return SolveResult(np.full(n, np.nan), np.zeros(0), np.zeros(0), diag)
    lam, nu = -res.ineqlin.marginals, -res.eqlin.marginals
    diag.objective = float(res.fun)
    diag.kkt_stationarity, diag.kkt_feasibility, diag.kkt_complementarity = \
        _kkt_residuals(c, res.x, G, h, A, b, lam, nu)
    return SolveResult(res.x, nu, lam, diag)
