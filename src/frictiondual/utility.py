"""Utility families, their convex conjugates and marginal inverses.

Three closed-form families are supported:

* ``log``:          u(x) = log x            on (0, inf)
* ``power``:        u(x) = x**alpha / alpha on (0, inf), 0 < alpha < 1
* ``exponential``:  u(x) = -exp(-gamma x)   on all of R, gamma > 0

For each family the conjugate ``v(y) = sup_x {u(x) - x y}`` and the
marginal inverse ``i = (u')^{-1} = -v'`` are available in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

NEG_INF = float("-inf")


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
        if self.family == "power" and not (0.0 < self.alpha < 1.0):
            raise ValueError(f"power exponent must lie in (0,1), got {self.alpha}")
        if self.family == "exponential" and not self.gamma > 0.0:
            raise ValueError(f"risk aversion must be positive, got {self.gamma}")

    @property
    def wealth_domain(self) -> str:
        """'positive' for log/power, 'real' for exponential."""
        return "real" if self.family == "exponential" else "positive"


def parse_utility(text: str) -> UtilitySpec:
    """Parse the CLI grammar: 'log', 'power:alpha=0.5', 'exp:gamma=1.0'."""
    head, _, tail = text.strip().partition(":")
    params = {}
    if tail:
        for piece in tail.split(","):
            key, _, val = piece.partition("=")
            if not val:
                raise ValueError(f"malformed utility parameter {piece!r}")
            params[key.strip()] = float(val)
    if head == "log":
        if params:
            raise ValueError("log takes no parameters")
        return UtilitySpec("log")
    if head == "power":
        return UtilitySpec("power", alpha=params.pop("alpha", 0.5), **params)
    if head in ("exp", "exponential"):
        return UtilitySpec("exponential", gamma=params.pop("gamma", 1.0), **params)
    raise ValueError(f"unknown utility family {head!r}")


def utility_label(spec: UtilitySpec) -> str:
    if spec.family == "log":
        return "log"
    if spec.family == "power":
        return f"power:alpha={spec.alpha:g}"
    return f"exp:gamma={spec.gamma:g}"


def eval_u(spec: UtilitySpec, x: float) -> float:
    """Utility value; -inf for nonpositive wealth in the half-line families."""
    if spec.family == "log":
        return math.log(x) if x > 0.0 else NEG_INF
    if spec.family == "power":
        return x**spec.alpha / spec.alpha if x > 0.0 else NEG_INF
    return -math.exp(-spec.gamma * x)


def eval_u_prime(spec: UtilitySpec, x: float) -> float:
    if spec.family == "log":
        if x <= 0.0:
            raise UtilityDomainError("marginal utility needs positive wealth")
        return 1.0 / x
    if spec.family == "power":
        if x <= 0.0:
            raise UtilityDomainError("marginal utility needs positive wealth")
        return x ** (spec.alpha - 1.0)
    return spec.gamma * math.exp(-spec.gamma * x)


def eval_v(spec: UtilitySpec, y: float) -> float:
    """Convex conjugate sup_x {u(x) - x y}, defined for y > 0."""
    if y <= 0.0:
        raise UtilityDomainError(f"conjugate argument must be positive, got {y}")
    if spec.family == "log":
        return -math.log(y) - 1.0
    if spec.family == "power":
        a = spec.alpha
        return (1.0 - a) / a * y ** (a / (a - 1.0))
    g = spec.gamma
    return y / g * (math.log(y / g) - 1.0)


def eval_v_prime(spec: UtilitySpec, y: float) -> float:
    return -eval_i(spec, y)


def eval_i(spec: UtilitySpec, y: float) -> float:
    """Inverse marginal utility (u')^{-1}(y) = -v'(y), for y > 0."""
    if y <= 0.0:
        raise UtilityDomainError(f"inverse marginal argument must be positive, got {y}")
    if spec.family == "log":
        return 1.0 / y
    if spec.family == "power":
        return y ** (1.0 / (spec.alpha - 1.0))
    return -math.log(y / spec.gamma) / spec.gamma
