"""Command-line surface.

Exit codes: 0 success, 1 validation error, 2 solver failure,
3 infeasibility verdict (no price system / wealth below threshold).
The FD_SEED environment variable overrides --seed wherever one is taken.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import warnings

import numpy as np

from . import duality, pricing, shadow as shadow_mod, utility as ut
from .generate import InstanceGenerator, emit_instance
from .polytope import NoCpsError, PolytopeInfeasibleError, check_cps
from .tree import load_market

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_INFEASIBLE = 3


def _seed_value(args) -> int:
    env = os.environ.get("FD_SEED")
    if env is not None:
        return int(env)
    return args.seed


def _emit(payload: dict, args):
    out = getattr(args, "json", None)
    if out:
        text = json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n"
        if out == "-":
            sys.stdout.write(text)
        else:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        return
    for key, value in payload.items():
        if isinstance(value, (list, dict)):
            value = json.dumps(value, default=float)
        print(f"{key:28s} {value}")


def cmd_check_cps(args) -> int:
    market = load_market(args.market)
    mus = args.mu if args.mu else [market.lam]
    verdicts = []
    any_missing = False
    for mu in mus:
        v = check_cps(market, mu=mu)
        verdicts.append({"mu": mu, "exists": v.exists, "margin": v.delta,
                         "positivity_margin": v.positivity_delta,
                         "certificate": v.certificate})
        if not v.exists:
            any_missing = True
    _emit({"market": args.market, "verdicts": verdicts}, args)
    return EXIT_INFEASIBLE if any_missing else EXIT_OK


def _solve_market(args):
    """The market file, its endowment set to zero under --no-endowment."""
    market = load_market(args.market)
    if args.no_endowment:
        market = market.with_endowment(np.zeros(market.tree.n_leaves))
    return market


def cmd_solve(args) -> int:
    market = _solve_market(args)
    spec = ut.parse_utility(args.utility)
    report = duality.solve_report(market, spec, args.x)
    checks = duality.verify_identities(report)
    payload = report.to_dict()
    payload["include_endowment"] = not args.no_endowment
    payload["identity_checks"] = checks
    _emit(payload, args)
    if args.csv:
        from .trading import export_strategy_csv
        export_strategy_csv(market, report.strategy, args.csv)
    return EXIT_OK


def cmd_dual(args) -> int:
    market = _solve_market(args)
    spec = ut.parse_utility(args.utility)
    sol = duality.solve_dual(market, spec, args.y)
    _emit({
        "value": sol.value, "y": sol.y, "derivative": sol.derivative,
        "z0": sol.system.z0.tolist(), "z1": sol.system.z1.tolist(),
        "diagnostics": sol.diagnostics,
    }, args)
    return EXIT_OK


def cmd_shadow(args) -> int:
    market = _solve_market(args)
    spec = ut.parse_utility(args.utility)
    report = duality.solve_report(market, spec, args.x)
    shp = shadow_mod.construct_shadow(market, report.dual_system)
    fr = shadow_mod.solve_frictionless(shp.as_market(), spec, args.x, y=report.yhat)
    record = shadow_mod.verify_shadow(report, shp, fr)
    record["roundtrip"] = {
        k: v for k, v in shadow_mod.shadow_from_dual_roundtrip(report, shp).items()
        if k != "lifted_leaf_vars"
    }
    if args.csv:
        classes = shp.classification()
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["node_id", "S", "bid", "Shat", "class",
                             "buy", "sell", "H"])
            for k in range(market.tree.n_nodes):
                writer.writerow([k, repr(float(market.ask_price[k])),
                                 repr(float(market.bid_price[k])),
                                 repr(float(shp.value[k])), classes[k],
                                 repr(float(report.strategy.buy[k])),
                                 repr(float(report.strategy.sell[k])),
                                 repr(float(fr.position[k]))])
    _emit(record, args)
    return EXIT_OK


def cmd_price(args) -> int:
    market = load_market(args.market)
    report = pricing.indifference_price(market, args.gamma, args.x)
    _emit(report.to_dict(), args)
    return EXIT_OK


def cmd_xmin(args) -> int:
    market = load_market(args.market)
    x0 = duality.compute_x0(market)
    _emit({"market": args.market, "x0": x0}, args)
    return EXIT_OK


def cmd_gen(args) -> int:
    gen = InstanceGenerator(
        seed=_seed_value(args),
        min_periods=args.min_periods, max_periods=args.max_periods,
        min_branching=args.min_branching, max_branching=args.max_branching,
    )
    os.makedirs(args.out, exist_ok=True)
    written = []
    for i in range(args.count):
        market = gen.draw(i) if args.keep_infeasible else gen.draw_feasible(i)
        path = os.path.join(args.out, f"market_{gen.seed}_{i:04d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(emit_instance(market))
        written.append(path)
    _emit({"count": len(written), "files": written}, args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frictiondual",
        description="Utility maximization under proportional transaction "
                    "costs on finite event trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def market_arg(p):
        p.add_argument("--market", required=True, help="market JSON file")
        p.add_argument("--json", help="write JSON output to this path ('-' for stdout)")

    def solve_args(p, scale):
        market_arg(p)
        p.add_argument("--utility", required=True)
        p.add_argument(scale, type=float, required=True)
        p.add_argument("--no-endowment", action="store_true",
                       help="solve the market with its endowment set to zero")

    p = sub.add_parser("check-cps", help="existence of a consistent price system")
    market_arg(p)
    p.add_argument("--mu", type=float, action="append",
                   help="spread level to test (repeatable; default: market lambda)")
    p.set_defaults(func=cmd_check_cps)

    p = sub.add_parser("solve", help="primal+dual solve with identity checks")
    solve_args(p, "--x")
    p.add_argument("--csv", help="write the strategy table to this path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("dual", help="dual value at a given scale")
    solve_args(p, "--y")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("shadow", help="shadow price construction and checks")
    solve_args(p, "--x")
    p.add_argument("--csv", help="write the per-node shadow table to this path")
    p.set_defaults(func=cmd_shadow)

    p = sub.add_parser("price", help="exponential indifference price")
    market_arg(p)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--x", type=float, default=0.0)
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("xmin", help="wealth threshold for half-line utilities")
    market_arg(p)
    p.set_defaults(func=cmd_xmin)

    p = sub.add_parser("gen", help="generate random market instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--min-periods", type=int, default=1)
    p.add_argument("--max-periods", type=int, default=4)
    p.add_argument("--min-branching", type=int, default=2)
    p.add_argument("--max-branching", type=int, default=3)
    p.add_argument("--keep-infeasible", action="store_true",
                   help="keep markets that admit no strictly positive price system")
    p.add_argument("--json", help="write the manifest to this path")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else 0
    try:
        # a failing solve reports by its exit code and one line; numpy's
        # overflow warnings on the way there would only add noise
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return args.func(args)
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        # LinAlgError is a ValueError subclass, but a solver failure, not
        # bad input; so is an overflow in the family formulas
        print(f"solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError) as exc:
        # bad input, or a market or output path that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (duality.PrimalInfeasibleError, NoCpsError, PolytopeInfeasibleError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except RuntimeError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
