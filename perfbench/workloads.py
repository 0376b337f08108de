"""The benchmark workloads: inputs, requests and identity gates.

Every library call goes through a module attribute (``fd.solve_report``
and so on) at call time, so the tracer's patches see it.

The market population of each workload is pinned to a fixed generator
seed; the benchmark's ``--seed`` draws the request order.  Solve time
per request is heavy-tailed in the market (0.06 s to 7 s on the
half-line family), and in probes a fresh population per seed moved the
mean request time 3.6x across five seeds, far beyond any usable bound.
The populations are not screened: they keep the requests that fail.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

import frictiondual as fd
from frictiondual.generate import InstanceGenerator
from frictiondual.tree import MarketSpec

# identity gates, at the acceptance suite's own tolerances
GAP_TOL = 1e-6            # relative duality gap (criterion 01)
LEAF_TOL = 1e-6           # leaf residual / (1 + |wealth|) (criterion 02)
MARGINAL_TOL = 1e-5       # marginal-utility residuals (criterion 03)
SHADOW_REL_TOL = 1e-6     # value and roundtrip gaps / (1 + |v|) (criterion 06)
ROUNDTRIP_VIOLATION = 1e-8
SHADOW_SUPPORT = 1e-10    # shadow gates apply only where min z0 exceeds this
ROUTE_REL_TOL = 1e-5      # route residuals / (1 + |p|) (criterion 07)
BOUND_SLACK = 1e-8

GENERATOR_SEED = 11
HALFLINE_MARKETS = 10
EXP_MARKETS = 10

LOG = fd.UtilitySpec("log")
POWER = fd.UtilitySpec("power", alpha=0.5)
EXP = fd.UtilitySpec("exponential", gamma=1.0)


@dataclass(frozen=True)
class Request:
    key: str
    market: MarketSpec
    spec: fd.UtilitySpec
    x: float


def generated_markets(count: int) -> list:
    gen = InstanceGenerator(seed=GENERATOR_SEED)
    return [gen.draw_feasible(i) for i in range(count)]


def halfline_requests() -> list:
    """Every generated market under both half-line utilities, at
    ``x = max(x0, 0) + 5`` as in the acceptance batch."""
    out = []
    for i, market in enumerate(generated_markets(HALFLINE_MARKETS)):
        x = max(fd.compute_x0(market), 0.0) + 5.0
        out.append(Request(f"m{i}-log", market, LOG, x))
        out.append(Request(f"m{i}-power", market, POWER, x))
    return out


def exp_requests() -> list:
    return [Request(f"m{i}-exp", market, EXP, 1.0)
            for i, market in enumerate(generated_markets(EXP_MARKETS))]


# ---------------------------------------------------------------------------
# requests


def report_request(req: Request) -> dict:
    rep = fd.solve_report(req.market, req.spec, req.x)
    return {"report": rep, "identities": fd.verify_identities(rep)}


def shadow_price_request(req: Request) -> dict:
    rep = fd.solve_report(req.market, req.spec, req.x)
    shadow = fd.construct_shadow(req.market, rep.dual_system)
    fr = fd.solve_frictionless(shadow.as_market(), req.spec, req.x, y=rep.yhat)
    return {
        "report": rep,
        "shadow": fd.verify_shadow(rep, shadow, fr),
        "roundtrip": fd.shadow_from_dual_roundtrip(rep, shadow),
        "price": fd.indifference_price(req.market, req.spec.gamma, x=req.x),
    }


# ---------------------------------------------------------------------------
# gates


def missed_gates(req: Request, out: dict) -> list:
    """Names of the identity gates the request's result misses."""
    missed = []
    rep = out["report"]
    if not rep.relative_gap <= GAP_TOL:
        missed.append(f"relative_gap {rep.relative_gap:.3e}")
    wealth = req.x + rep.claim + req.market.endowment
    resid = rep.leaf_identity_residuals
    mask = ~np.isnan(resid)
    if mask.any():
        leaf = float(np.max(resid[mask] / (1.0 + np.abs(wealth[mask]))))
        if not leaf <= LEAF_TOL:
            missed.append(f"leaf_identity {leaf:.3e}")
    ids = out.get("identities")
    if ids is not None:
        for name in ("marginal_mean_residual", "marginal_weighted_residual"):
            if not ids[name] <= MARGINAL_TOL:
                missed.append(f"{name} {ids[name]:.3e}")
    sh = out.get("shadow")
    z0_leaf = rep.dual_leaf_vars[: req.market.tree.n_leaves]
    if sh is not None and z0_leaf.min() > SHADOW_SUPPORT:
        rt = out["roundtrip"]
        if not sh["value_gap"] <= SHADOW_REL_TOL * (1.0 + abs(rep.value)):
            missed.append(f"shadow_value_gap {sh['value_gap']:.3e}")
        if sh["direction_violations"]:
            missed.append(f"direction_violations {len(sh['direction_violations'])}")
        if not rt["polytope_violation"] <= ROUNDTRIP_VIOLATION:
            missed.append(f"roundtrip_violation {rt['polytope_violation']:.3e}")
        if not rt["dual_value_gap"] <= SHADOW_REL_TOL * (1.0 + abs(rep.dual_value)):
            missed.append(f"roundtrip_dual_value_gap {rt['dual_value_gap']:.3e}")
    price = out.get("price")
    if price is not None:
        tol = ROUTE_REL_TOL * (1.0 + abs(price.p_primal))
        for name in ("primal_vs_dual", "primal_vs_shadow", "dual_vs_shadow"):
            if not price.residuals[name] <= tol:
                missed.append(f"route_{name} {price.residuals[name]:.3e}")
        if not (price.lower_bound - BOUND_SLACK <= price.p_dual
                <= price.upper_bound + BOUND_SLACK):
            missed.append("p_dual_outside_lp_bounds")
    return missed


def signature(out: dict) -> str:
    """Digest of the result's numbers; equal inputs must give equal bits."""
    h = hashlib.sha256()
    rep = out["report"]
    for v in (rep.value, rep.yhat, rep.dual_value):
        h.update(float(v).hex().encode())
    h.update(np.ascontiguousarray(rep.claim).tobytes())
    h.update(np.ascontiguousarray(rep.dual_leaf_vars).tobytes())
    if "identities" in out:
        h.update(float(out["identities"]["u_prime_fd"]).hex().encode())
    if "shadow" in out:
        h.update(float(out["shadow"]["value_gap"]).hex().encode())
        h.update(float(out["roundtrip"]["dual_value_gap"]).hex().encode())
        p = out["price"]
        for v in (p.p_primal, p.p_dual, p.p_shadow, p.lower_bound, p.upper_bound):
            h.update(float(v).hex().encode())
    return h.hexdigest()


@dataclass(frozen=True)
class Workload:
    build: object      # () -> list[Request]; the set-up's input generation
    request: object    # Request -> result dict


WORKLOADS = {
    "halfline_batch": Workload(halfline_requests, report_request),
    "exp_shadow_price": Workload(exp_requests, shadow_price_request),
}
