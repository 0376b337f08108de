"""Oracles the tests check the library against, kept out of the library
since no solver calls them."""

import numpy as np


def audit_derivatives(objective, points, rel_grad: float = 1e-6,
                      rel_hess: float = 1e-5, step: float = 1e-6):
    """Central finite-difference audit of analytic gradients and Hessian
    diagonals: ``objective(x)`` returns ``(f, g, d)`` as in
    :class:`frictiondual.engine.ConvexProgram`, and ``d * v`` is checked
    against gradient differences along random directions ``v``.

    Returns ``(max_grad_err, max_hess_err, ok)`` over the supplied
    points; errors are relative to the analytic magnitudes.
    """
    max_g = 0.0
    max_h = 0.0
    rng = np.random.default_rng(0)
    for x in points:
        x = np.asarray(x, dtype=float)
        _, g, d = objective(x)
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
            hv = d * v
            max_h = max(max_h, float(np.linalg.norm(hv_num - hv))
                        / (1.0 + float(np.linalg.norm(hv))))
    return max_g, max_h, bool(max_g <= rel_grad and max_h <= rel_hess)
