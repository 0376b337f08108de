"""Utility families, their convex conjugates and marginal inverses.

Three closed-form families are supported:

* ``log``:          u(x) = log x            on (0, inf)
* ``power``:        u(x) = x**alpha / alpha on (0, inf), 0 < alpha < 1
* ``exponential``:  u(x) = -exp(-gamma x)   on all of R, gamma > 0

For each family the conjugate ``v(y) = sup_x {u(x) - x y}`` and the
marginal inverse ``i = (u')^{-1} = -v'`` are available in closed form.

This module is the one place the formulas are written.
:func:`u_derivatives` and :func:`v_derivatives` return the value and
first two derivatives of ``u`` and ``v`` elementwise on arrays, with no
domain check: the solver's objectives call them at points its domain
guard has already admitted.  The ``eval_*`` functions read them, work
elementwise on scalars or arrays, and check their domain: an argument
outside it raises :class:`UtilityDomainError`, except that ``eval_u``
gives -inf at nonpositive wealth in the half-line families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class UtilityDomainError(ValueError):
    """Argument outside the domain of the requested function."""


@dataclass(frozen=True)
class UtilitySpec:
    """One member of the supported utility families.

    ``family`` is 'log', 'power' or 'exponential'.  ``alpha`` applies to
    the power family only, ``gamma`` to the exponential family only.
    """

    family: str
    alpha: float = 0.5
    gamma: float = 1.0

    def __post_init__(self):
        if self.family not in ("log", "power", "exponential"):
            raise ValueError(f"unknown utility family {self.family!r}")
        for name in ("alpha", "gamma"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.family == "power" and not (0.0 < self.alpha < 1.0):
            raise ValueError(f"power exponent must lie in (0,1), got {self.alpha}")
        if self.family == "exponential" and not self.gamma > 0.0:
            raise ValueError(f"risk aversion must be positive, got {self.gamma}")

    @property
    def wealth_domain(self) -> str:
        """'positive' for log/power, 'real' for exponential."""
        return "real" if self.family == "exponential" else "positive"


def parse_utility(text: str) -> UtilitySpec:
    """Parse the CLI grammar: 'log', 'power:alpha=0.5', 'exp:gamma=1.0';
    a parameter of another family, or one given twice, is an error."""
    head, _, tail = text.strip().partition(":")
    family = "exponential" if head == "exp" else head
    own = {"log": (), "power": ("alpha",), "exponential": ("gamma",)}.get(family)
    if own is None:
        raise ValueError(f"unknown utility family {head!r}")
    params = {}
    if tail:
        for piece in tail.split(","):
            key, _, val = piece.partition("=")
            key = key.strip()
            if not val:
                raise ValueError(f"malformed utility parameter {piece!r}")
            if key not in own:
                raise ValueError(f"{head} takes no parameter {key!r}")
            if key in params:
                raise ValueError(f"utility parameter {key!r} given twice")
            params[key] = float(val)
    return UtilitySpec(family, **params)


def utility_label(spec: UtilitySpec) -> str:
    if spec.family == "log":
        return "log"
    if spec.family == "power":
        return f"power:alpha={spec.alpha:g}"
    return f"exp:gamma={spec.gamma:g}"


def u_derivatives(spec: UtilitySpec, w):
    """``(u, u', u'')`` at wealth ``w``, elementwise, with no domain check."""
    if spec.family == "log":
        return np.log(w), 1.0 / w, -(1.0 / w**2)
    if spec.family == "power":
        a = spec.alpha
        return w**a / a, w ** (a - 1.0), (a - 1.0) * w ** (a - 2.0)
    g = spec.gamma
    e = np.exp(-g * w)
    return -e, g * e, -g**2 * e


def v_derivatives(spec: UtilitySpec, y):
    """``(V, V', V'')`` at ``y``, elementwise, with no domain check."""
    if spec.family == "log":
        return -np.log(y) - 1.0, -1.0 / y, 1.0 / y**2
    if spec.family == "power":
        a = spec.alpha
        return ((1.0 - a) / a * y ** (a / (a - 1.0)), -(y ** (1.0 / (a - 1.0))),
                (1.0 / (1.0 - a)) * y ** ((2.0 - a) / (a - 1.0)))
    g = spec.gamma
    lt = np.log(y / g)
    return y / g * (lt - 1.0), lt / g, 1.0 / (g * y)


def _positive(value, what: str) -> np.ndarray:
    value = np.asarray(value, dtype=float)
    if np.any(value <= 0.0):
        raise UtilityDomainError(f"{what} must be positive, got {value}")
    return value


def eval_u(spec: UtilitySpec, x):
    """Utility value; -inf at nonpositive wealth in the half-line families."""
    x = np.asarray(x, dtype=float)
    if spec.wealth_domain == "real":
        return u_derivatives(spec, x)[0][()]
    pos = x > 0.0
    return np.where(pos, u_derivatives(spec, np.where(pos, x, 1.0))[0], -np.inf)[()]


def eval_u_prime(spec: UtilitySpec, x):
    x = np.asarray(x, dtype=float)
    if spec.wealth_domain == "positive":
        _positive(x, "wealth in the marginal utility")
    return u_derivatives(spec, x)[1][()]


def eval_v(spec: UtilitySpec, y):
    """Convex conjugate sup_x {u(x) - x y}, defined for y > 0."""
    return v_derivatives(spec, _positive(y, "conjugate argument"))[0][()]


def eval_v_prime(spec: UtilitySpec, y):
    return v_derivatives(spec, _positive(y, "conjugate argument"))[1][()]


def eval_i(spec: UtilitySpec, y):
    """Inverse marginal utility (u')^{-1}(y) = -v'(y), for y > 0."""
    return -v_derivatives(spec, _positive(y, "inverse marginal argument"))[1][()]
