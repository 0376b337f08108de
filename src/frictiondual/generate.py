"""Random market instances for the property suites and the gen subcommand.

Everything is a pure function of (seed, index): each instance gets its
own child generator, so batches can be produced in any order or in
parallel without changing a single byte of output.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

from .polytope import NoCpsError, strictly_consistent
from .tree import EventTree, MarketSpec, market_to_dict

VOLATILITY = (0.05, 0.35)         # range of the per-step log-price volatility
DRIFT = (-0.1, 0.1)               # range of the per-step log-price drift
LAM = (0.001, 0.2)                # range of the cost level
ENDOWMENT = (-5.0, 5.0)           # range of each leaf's endowment
ROOT_PRICE = 100.0
MAX_TRIES = 64                    # attempts per index before draw_feasible gives up


@dataclass(frozen=True)
class InstanceGenerator:
    """Tree shapes for random markets; the price, cost and endowment
    ranges are the module constants.  The shape fields are integers with
    ``1 <= min_periods <= max_periods`` and ``1 <= min_branching <=
    max_branching``; anything else raises ``ValueError`` naming the
    field."""

    seed: int = 0
    min_periods: int = 1
    max_periods: int = 4
    min_branching: int = 2
    max_branching: int = 3

    def __post_init__(self):
        for low, high in (("min_periods", "max_periods"),
                          ("min_branching", "max_branching")):
            for name in (low, high):
                value = getattr(self, name)
                if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                    raise ValueError(f"{name} must be an integer, got {value!r}")
            lo, hi = getattr(self, low), getattr(self, high)
            if lo < 1:
                raise ValueError(f"{low} must be at least 1, got {lo}")
            if hi < lo:
                raise ValueError(f"{high} must be at least {low} ({lo}), got {hi}")

    def rng_for(self, index: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, index]))

    def draw(self, index: int) -> MarketSpec:
        """Deterministic random market for this (seed, index)."""
        rng = self.rng_for(index)
        periods = int(rng.integers(self.min_periods, self.max_periods + 1))
        parent = [-1]
        time = [0]
        frontier = [0]
        for t in range(periods):
            nxt = []
            for node in frontier:
                width = int(rng.integers(self.min_branching, self.max_branching + 1))
                for _ in range(width):
                    parent.append(node)
                    time.append(t + 1)
                    nxt.append(len(parent) - 1)
            frontier = nxt
        n = len(parent)

        cond_prob = np.ones(n)
        children = {}
        for i in range(1, n):
            children.setdefault(parent[i], []).append(i)
        for kids in children.values():
            w = rng.uniform(0.2, 1.0, size=len(kids))
            cond_prob[kids] = w / w.sum()
        tree = EventTree(parent=parent, time=time, cond_prob=cond_prob)

        sigma = rng.uniform(*VOLATILITY)
        drift = rng.uniform(*DRIFT)
        price = np.empty(n)
        price[0] = ROOT_PRICE
        for i in range(1, n):
            shock = rng.normal(drift, sigma)
            price[i] = price[parent[i]] * float(np.exp(shock))
        lam = float(rng.uniform(*LAM))
        endow = rng.uniform(*ENDOWMENT, size=tree.n_leaves)
        return MarketSpec(tree=tree, ask_price=price, lam=lam, endowment=endow)

    def draw_feasible(self, index: int) -> MarketSpec:
        """Like :meth:`draw` but rejects markets with no strictly positive
        price system; resampling stays deterministic in (seed, index).

        An attempt is accepted when the market passes the existence rule
        that :meth:`DualPolytope.strict_point` applies
        (:func:`polytope.strictly_consistent`): one backward pass over its
        bands, with no LP and no polytope.  After ``MAX_TRIES`` rejected
        attempts it raises :class:`NoCpsError` naming the index."""
        for attempt in range(MAX_TRIES):
            mkt = self.draw(index if attempt == 0 else (index + 1) * 100003 + attempt)
            if strictly_consistent(mkt):
                return mkt
        raise NoCpsError(f"no feasible draw after {MAX_TRIES} tries at index {index}")

def emit_instance(market: MarketSpec) -> str:
    """Canonical JSON text of a market, byte-stable across runs."""
    return json.dumps(market_to_dict(market), indent=2, sort_keys=True) + "\n"
