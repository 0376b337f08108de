import csv
import json
import os

import numpy as np
import pytest

from frictiondual.cli import main
from frictiondual.tree import load_market, save_market


@pytest.fixture
def market_file(tmp_path, two_period_market):
    path = tmp_path / "market.json"
    save_market(two_period_market, path)
    return str(path)


@pytest.fixture
def binomial_file(tmp_path, drift_binomial):
    path = tmp_path / "binomial.json"
    save_market(drift_binomial, path)
    return str(path)


@pytest.fixture
def infeasible_file(tmp_path, drift_binomial):
    # both child prices above the root: no price system at 0.1% spread
    from frictiondual.tree import MarketSpec
    m = MarketSpec(tree=drift_binomial.tree, ask_price=[100.0, 120.0, 110.0],
                   lam=0.001, endowment=[0.0, 0.0])
    path = tmp_path / "infeasible.json"
    save_market(m, path)
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_check_cps_ok(market_file, tmp_path, capsys):
    out = str(tmp_path / "v.json")
    assert main(["check-cps", "--market", market_file, "--json", out]) == 0
    rec = read_json(out)
    assert rec["verdicts"][0]["exists"] is True


def test_check_cps_infeasible_exit_code(infeasible_file, tmp_path):
    out = str(tmp_path / "v.json")
    code = main(["check-cps", "--market", infeasible_file, "--json", out])
    assert code == 3
    verdict = read_json(out)["verdicts"][0]
    assert verdict["exists"] is False and verdict["margin"] < 0.0
    assert "positivity_margin" not in verdict
    # 120/110 over a root ask of 100: buy at the root, sell at both leaves
    cert = verdict["certificate"]
    assert set(cert) == {"node", "side", "buy", "sell", "liquidation"}
    assert (cert["node"], cert["side"], cert["buy"][0]) == (0, "buy", 1.0)
    assert min(cert["liquidation"]) > 0.0


def test_check_cps_mu_grid(market_file, tmp_path):
    out = str(tmp_path / "v.json")
    code = main(["check-cps", "--market", market_file, "--json", out,
                 "--mu", "0.1", "--mu", "0.01", "--mu", "0.001"])
    assert code in (0, 3)
    rec = read_json(out)
    assert [v["mu"] for v in rec["verdicts"]] == [0.1, 0.01, 0.001]


def test_solve_json_and_csv(market_file, tmp_path):
    out = str(tmp_path / "solve.json")
    table = str(tmp_path / "strategy.csv")
    code = main(["solve", "--market", market_file, "--utility", "exp:gamma=0.5",
                 "--x", "1.0", "--json", out, "--csv", table])
    assert code == 0
    rec = read_json(out)
    assert rec["relative_gap"] <= 1e-6
    assert rec["identity_checks"]["marginal_mean_residual"] <= 1e-5
    keys = {"status", "objective", "barrier_path", "newton_iterations",
            "kkt_stationarity", "kkt_feasibility", "kkt_complementarity",
            "message", "face_steps", "factorizations", "events", "face_start"}
    for side in ("primal", "dual"):
        assert set(rec["diagnostics"][side]) == keys
    assert rec["diagnostics"]["dual"]["face_start"] is None
    # the dual runs the barrier; the primal's start, read off the dual
    # optimum, passes the stopping test as given: no finish round, no
    # face step and no barrier step
    assert sum(rec["diagnostics"]["dual"]["newton_iterations"]) > 0
    primal = rec["diagnostics"]["primal"]
    assert primal["face_start"] == {"accepted": True, "rounds": 0, "reason": None}
    assert primal["events"] == ["face start accepted after 0 rounds"]
    assert primal["newton_iterations"] == [] and primal["face_steps"] == 0
    with open(table, newline="") as fh:
        rows = list(csv.DictReader(fh))
    market = load_market(market_file)
    assert len(rows) == market.tree.n_nodes
    assert set(rows[0]) == {"node_id", "buy", "sell", "phi0", "phi1", "vliq"}


def test_solve_json_records_both_half_line_starts(market_file, tmp_path):
    # a log report runs its barrier on the primal, from the closed-form
    # start, and face-starts its dual at the primal optimum: --json
    # carries the engine's face-start record of each side
    out = str(tmp_path / "solve.json")
    assert main(["solve", "--market", market_file, "--utility", "log", "--x", "10",
                 "--json", out]) == 0
    diagnostics = read_json(out)["diagnostics"]
    assert diagnostics["primal"]["face_start"] is None
    assert sum(diagnostics["primal"]["newton_iterations"]) > 0
    face = diagnostics["dual"]["face_start"]
    assert face == {"accepted": True, "rounds": face["rounds"], "reason": None}
    assert diagnostics["dual"]["newton_iterations"] == []


def test_solve_near_the_threshold_checks_the_marginal_utility(tmp_path):
    # seed 11's first market without its endowment has threshold 0.  At
    # x = 1e-5 the central difference steps by a share of x - x0, so x - h
    # stays above the threshold (it exited 3 at x - h = -9e-5), both
    # primals land from their face starts and u'(x) matches yhat
    assert main(["gen", "--seed", "11", "--count", "1", "--out", str(tmp_path)]) == 0
    (market,) = tmp_path.glob("*.json")
    out = str(tmp_path / "solve.json")
    assert main(["solve", "--market", str(market), "--utility", "log", "--x", "1e-5",
                 "--no-endowment", "--json", out]) == 0
    checks = read_json(out)["identity_checks"]
    assert checks["yhat_vs_fd"] <= 1e-6 * checks["yhat"]
    starts = checks["fd_starts"]
    assert all(s["accepted"] for s in starts) and starts[1]["x"] > 0.0


def test_solve_infeasible_wealth(market_file, capsys):
    code = main(["solve", "--market", market_file, "--utility", "log",
                 "--x", "-1000.0"])
    assert code == 3
    assert "infeasible" in capsys.readouterr().err


def test_solve_bad_utility(market_file, capsys):
    code = main(["solve", "--market", market_file, "--utility", "cubic",
                 "--x", "1.0"])
    assert code == 1


def test_solve_missing_file(tmp_path, capsys):
    code = main(["solve", "--market", str(tmp_path / "nope.json"),
                 "--utility", "log", "--x", "1.0"])
    assert code == 1


def test_solve_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["solve", "--market", str(path), "--utility", "log",
                 "--x", "1.0"]) == 1


def test_dual_command(binomial_file, tmp_path):
    out = str(tmp_path / "dual.json")
    code = main(["dual", "--market", binomial_file, "--utility", "log",
                 "--y", "0.5", "--json", out])
    assert code == 0
    rec = read_json(out)
    assert rec["y"] == 0.5
    assert len(rec["z0"]) == 3


def test_dual_command_runs_no_lp(market_file, tmp_path, monkeypatch):
    # the dual starts at the closed-form witness: no LP, no phase one
    from frictiondual import engine

    calls, solve_lp = [], engine.solve_lp

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(engine, "solve_lp", counting)
    out = str(tmp_path / "dual.json")
    assert main(["dual", "--market", market_file, "--utility", "log", "--y", "1",
                 "--json", out]) == 0
    assert calls == []
    diagnostics = read_json(out)["diagnostics"]
    assert "phase_one_slack" not in diagnostics
    assert not any("phase one" in event for event in diagnostics["events"])


def test_shadow_command(market_file, tmp_path):
    out = str(tmp_path / "shadow.json")
    table = str(tmp_path / "shadow.csv")
    code = main(["shadow", "--market", market_file, "--utility", "exp:gamma=1",
                 "--x", "1.0", "--json", out, "--csv", table])
    assert code == 0
    rec = read_json(out)
    assert rec["direction_violations"] == []
    assert rec["roundtrip"]["member"] is True
    with open(table, newline="") as fh:
        rows = list(csv.DictReader(fh))
    market = load_market(market_file)
    assert len(rows) == market.tree.n_nodes
    assert rows[0]["class"] in ("at_ask", "at_bid", "interior", "undefined")


@pytest.mark.parametrize("utility", ["log", "exp:gamma=1"])
@pytest.mark.parametrize("command,at", [("solve", ["--x", "8.0"]),
                                        ("dual", ["--y", "0.7"]),
                                        ("shadow", ["--x", "8.0"])])
def test_no_endowment_solves_the_zero_endowment_market(
        market_file, two_period_market, tmp_path, capsys, command, at, utility):
    zero = tmp_path / "zero.json"
    save_market(two_period_market.with_endowment(np.zeros(two_period_market.tree.n_leaves)),
                zero)
    outputs = []
    for path, flag in ((market_file, ["--no-endowment"]), (str(zero), [])):
        assert main([command, "--market", path, "--utility", utility, *at,
                     *flag, "--json", "-"]) == 0
        outputs.append(json.loads(capsys.readouterr().out))
    flagged, zeroed = outputs
    if command == "solve":
        assert flagged.pop("include_endowment") is False
        assert zeroed.pop("include_endowment") is True
    assert json.dumps(flagged, sort_keys=True) == json.dumps(zeroed, sort_keys=True)


def test_price_command(market_file, tmp_path):
    out = str(tmp_path / "price.json")
    code = main(["price", "--market", market_file, "--gamma", "0.7",
                 "--x", "1.0", "--json", out])
    assert code == 0
    rec = read_json(out)
    assert rec["residuals"]["primal_vs_dual"] <= 1e-5 * (1 + abs(rec["p_primal"]))
    assert rec["lower_bound"] <= rec["p_primal"] + 1e-8
    assert rec["p_primal"] <= rec["upper_bound"] + 1e-8


def test_price_unknown_route(market_file, capsys):
    # every price runs all three routes; there is no option to pick them
    code = main(["price", "--market", market_file, "--gamma", "0.7",
                 "--routes", "bogus"])
    assert code == 1
    assert "unrecognized arguments: --routes bogus" in capsys.readouterr().err


def assert_one_line(err, head):
    assert err.startswith(head) and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_unwritable_output_is_a_validation_error(market_file, tmp_path, capsys):
    code = main(["solve", "--market", market_file, "--utility", "log", "--x", "5",
                 "--json", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert_one_line(err, "error: ")
    assert "Is a directory" in err


def test_overflow_is_a_solver_failure(market_file, capsys):
    code = main(["solve", "--market", market_file, "--utility", "exp:gamma=1e308",
                 "--x", "1"])
    assert code == 2
    assert_one_line(capsys.readouterr().err, "solver failure: ")


@pytest.mark.parametrize("args", [
    ["solve", "--utility", "exp:gamma=1"],
    ["shadow", "--utility", "exp:gamma=1"],
    ["price", "--gamma", "1"],
])
def test_underflowing_dual_scale_is_a_solver_failure(tmp_path, args, capsys):
    # market 0 of `gen --seed 7`: yhat = u'(x + k) is positive at x = 700
    # and underflows to 0 at x = 760, where the solver has no optimum to
    # report; valid input all the same
    assert main(["gen", "--seed", "7", "--count", "1", "--out", str(tmp_path)]) == 0
    (market,) = tmp_path.glob("*.json")
    command = args[:1] + ["--market", str(market)] + args[1:]
    assert main(command + ["--x", "700"]) == 0
    capsys.readouterr()
    assert main(command + ["--x", "760"]) == 2
    err = capsys.readouterr().err
    assert_one_line(err, "solver failure: ")
    assert "at x=760.0, k=" in err


@pytest.mark.parametrize("args, x", [
    (["solve", "--utility", "exp:gamma=1"], "745"),
    (["shadow", "--utility", "exp:gamma=1"], "745"),
    (["price", "--gamma", "1"], "745"),
    (["solve", "--utility", "exp:gamma=2"], "373"),
    (["shadow", "--utility", "exp:gamma=2"], "373"),
    (["price", "--gamma", "2"], "373"),
])
def test_subnormal_dual_scale_is_a_solver_failure(tmp_path, args, x, capsys):
    # the same market just below the scale's underflow: yhat = u'(x + k)
    # is subnormal, so yhat * Z0 underflows to 0 at a leaf of the dual's
    # support, where the optimal claim I(yhat Z0) is undefined
    assert main(["gen", "--seed", "7", "--count", "1", "--out", str(tmp_path)]) == 0
    (market,) = tmp_path.glob("*.json")
    assert main(args[:1] + ["--market", str(market)] + args[1:] + ["--x", x]) == 2
    err = capsys.readouterr().err
    assert_one_line(err, "solver failure: dual scale u'(x + k) = ")
    assert "underflows yhat*Z0 to 0" in err


@pytest.mark.parametrize("gamma, x", [("1", "720"), ("2", "371.5")])
def test_shadow_exits_0_wherever_solve_does_at_large_x(tmp_path, gamma, x):
    # the same market just above where the shadow market's zero-spread
    # dual, a solve at the tiny scale yhat itself, broke down; it is now
    # read at yhat off its unit-scale solve
    assert main(["gen", "--seed", "7", "--count", "1", "--out", str(tmp_path)]) == 0
    (market,) = tmp_path.glob("*.json")
    out = str(tmp_path / "shadow.json")
    args = ["--market", str(market), "--utility", f"exp:gamma={gamma}", "--x", x]
    assert main(["solve"] + args) == 0
    assert main(["shadow"] + args + ["--json", out]) == 0
    rec = read_json(out)
    assert rec["direction_violations"] == [] and rec["roundtrip"]["member"] is True


@pytest.mark.parametrize("args, name", [
    (["solve", "--utility", "log", "--x", "nan"], "x"),
    (["solve", "--utility", "exp:gamma=1", "--x", "inf"], "x"),
    (["solve", "--utility", "exp:gamma=inf", "--x", "1"], "gamma"),
    (["solve", "--utility", "power:alpha=nan", "--x", "1"], "alpha"),
    (["dual", "--utility", "log", "--y", "nan"], "y"),
    (["dual", "--utility", "log", "--y", "inf"], "y"),
    (["shadow", "--utility", "exp:gamma=1", "--x=-inf"], "x"),
    (["price", "--gamma", "inf"], "gamma"),
    (["price", "--gamma", "1", "--x", "nan"], "x"),
])
def test_non_finite_scalars_are_validation_errors(market_file, args, name, capsys):
    assert main(args[:1] + ["--market", market_file] + args[1:]) == 1
    err = capsys.readouterr().err
    assert_one_line(err, "error: ")
    assert f"{name} must be" in err


def test_nan_probability_is_a_validation_error(tmp_path, drift_binomial, capsys):
    path = tmp_path / "nan.json"
    save_market(drift_binomial, path)
    path.write_text(path.read_text().replace('"prob": 0.5', '"prob": NaN', 1))
    code = main(["solve", "--market", str(path), "--utility", "log", "--x", "1"])
    assert code == 1
    assert_one_line(capsys.readouterr().err,
                    "error: nonpositive or non-finite branch probability at node 1")


_ROOT = {"id": 0, "parent": None, "price": 100.0}
_UP = {"id": 1, "parent": 0, "prob": 0.5, "price": 110.0}
_DOWN = {"id": 2, "parent": 0, "prob": 0.5, "price": 90.0}


@pytest.mark.parametrize("raw, message", [
    ([_ROOT, _UP, _DOWN], "top-level JSON object expected"),
    ({"lambda": 0.01, "nodes": []}, "'nodes' must be a nonempty list"),
    ({"lambda": 0.01, "nodes": [_ROOT, {"parent": 0, "prob": 0.5, "price": 110.0}, _DOWN]},
     "each node needs 'id' and 'price'"),
    ({"lambda": 0.01, "nodes": [_ROOT, {"id": 1, "parent": 0, "prob": 0.5}, _DOWN]},
     "each node needs 'id' and 'price'"),
    ({"lambda": 0.01, "nodes": [_ROOT, _UP, _UP]},
     "node ids must be 0..2 without repeats, got 1"),
    ({"lambda": 0.01, "nodes": [_ROOT, {**_UP, "parent": 0.5}, _DOWN]},
     "parent of node 1 must be an integer or null"),
    ({"lambda": 0.01, "nodes": [_ROOT]}, "tree must have at least one period"),
    ({"lambda": 0.01, "nodes": [_ROOT, {**_UP, "prob": None}, _DOWN]},
     "'prob' of node 1 must be a number, got None"),
    ({"lambda": 0.01, "nodes": [_ROOT, {**_UP, "price": {"a": 1}}, _DOWN]},
     "'price' of node 1 must be a number, got {'a': 1}"),
    ({"lambda": 0.01, "nodes": [_ROOT, _UP, _DOWN], "endowment": 5},
     "'endowment' must be a list"),
    ({"lambda": 0.01, "nodes": [_ROOT, _UP, _DOWN], "endowment": [{"leaf": [1], "value": 1.0}]},
     "endowment entry for non-leaf node [1]"),
    ({"lambda": 0.01, "nodes": [_ROOT, _UP, _DOWN], "endowment": [{"leaf": 1, "value": "1"}]},
     "endowment 'value' at leaf 1 must be a number, got '1'"),
    ({"lambda": "0.01", "nodes": [_ROOT, _UP, _DOWN]}, "'lambda' must be a number, got '0.01'"),
    # JSON booleans are no integers, though Python's bool is an int
    ({"lambda": 0.01, "nodes": [_ROOT, {**_UP, "id": True}, _DOWN]},
     "node ids must be 0..2 without repeats, got True in node record 1"),
    ({"lambda": 0.01, "nodes": [_ROOT, {**_UP, "parent": False}, _DOWN]},
     "parent of node 1 must be an integer or null"),
    ({"lambda": 0.01, "nodes": [_ROOT, _UP, _DOWN], "endowment": [{"leaf": True, "value": 1.0}]},
     "endowment entry for non-leaf node True"),
    ({"lambda": 0.01, "nodes": [_ROOT, _UP, _DOWN],
      "endowment": [{"leaf": 1, "value": 3}, {"leaf": 1, "value": -7}]},
     "more than one endowment entry for leaf 1"),
    ({"lambda": 0.01, "nodes": [_ROOT, _UP, _DOWN], "endowment": [{"leaf": 1}]},
     "each endowment entry needs 'leaf' and 'value'"),
    ({"lambda": 0.01, "nodes": [_ROOT, _UP, _DOWN], "endowment": [{"value": 1.0}]},
     "each endowment entry needs 'leaf' and 'value'"),
    # json.dumps writes the NaN literal that json.load reads back
    ({"lambda": 0.01, "nodes": [_ROOT, _UP, _DOWN],
      "endowment": [{"leaf": 2, "value": float("nan")}]},
     "endowment must be finite at every leaf"),
    ({"lambda": 0.01, "nodes": [_ROOT, {**_UP, "parent": 3}, _DOWN]},
     "node 1 has invalid parent 3"),
    ({"lambda": 0.01, "nodes": [_ROOT, {**_UP, "parent": 2}, {**_DOWN, "parent": 1}]},
     "parent cycle reached from node 1"),
], ids=["not-an-object", "empty-nodes", "no-id", "no-price", "repeated-id",
        "non-integer-parent", "single-node", "null-prob", "object-price",
        "endowment-not-a-list", "list-leaf", "string-endowment-value", "string-lambda",
        "boolean-id", "boolean-parent", "boolean-leaf", "repeated-leaf",
        "endowment-without-value", "endowment-without-leaf", "nan-endowment",
        "parent-out-of-range", "parent-cycle"])
def test_malformed_market_file_is_a_validation_error(tmp_path, raw, message, capsys):
    path = tmp_path / "market.json"
    path.write_text(json.dumps(raw))
    assert main(["solve", "--market", str(path), "--utility", "log", "--x", "1"]) == 1
    assert_one_line(capsys.readouterr().err, f"error: {message}")


def test_xmin_command(market_file, tmp_path):
    out = str(tmp_path / "xmin.json")
    assert main(["xmin", "--market", market_file, "--json", out]) == 0
    assert "x0" in read_json(out)


def test_gen_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        code = main(["gen", "--seed", "11", "--count", "3", "--out", str(out),
                     "--max-periods", "2"])
        assert code == 0
    for name in sorted(os.listdir(out_a)):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        load_market(out_a / name)   # generated files must validate


def test_gen_seed_env_override(tmp_path, monkeypatch):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    monkeypatch.setenv("FD_SEED", "99")
    assert main(["gen", "--seed", "1", "--count", "1", "--out", str(out_a),
                 "--max-periods", "1"]) == 0
    monkeypatch.delenv("FD_SEED")
    assert main(["gen", "--seed", "99", "--count", "1", "--out", str(out_b),
                 "--max-periods", "1"]) == 0
    a = sorted(os.listdir(out_a))[0]
    assert (out_a / a).read_bytes() == (out_b / a).read_bytes()


def test_gen_keep_infeasible(tmp_path):
    from frictiondual.generate import InstanceGenerator, emit_instance
    out = tmp_path / "kept"
    assert main(["gen", "--seed", "3", "--count", "4", "--out", str(out),
                 "--keep-infeasible"]) == 0
    gen = InstanceGenerator(seed=3)
    for i, name in enumerate(sorted(os.listdir(out))):
        assert (out / name).read_text() == emit_instance(gen.draw(i))
    # discarding is the default, with no flag of its own
    assert main(["gen", "--out", str(out), "--discard-infeasible"]) == 1


@pytest.mark.parametrize("args, message", [
    (["--count", "-1"], "--count must be at least 0"),
    (["--min-periods", "3", "--max-periods", "1"], "max_periods must be at least min_periods"),
    (["--min-branching", "0"], "min_branching must be at least 1"),
])
def test_gen_rejects_invalid_shapes_and_counts(tmp_path, capsys, args, message):
    out = tmp_path / "markets"
    assert main(["gen", "--seed", "1", "--out", str(out), *args]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_stdout_json(market_file, capsys):
    assert main(["xmin", "--market", market_file, "--json", "-"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert "x0" in rec


def test_table_output(market_file, capsys):
    assert main(["xmin", "--market", market_file]) == 0
    assert "x0" in capsys.readouterr().out


@pytest.mark.parametrize("utility", ["exp:gamma=1", "log"])
def test_solve_empty_polytope_at_zero_spread(tmp_path, drift_binomial, utility, capsys):
    # both children above the root at zero spread: an arbitrage, so no
    # price system exists, whatever the utility family
    from frictiondual.tree import MarketSpec
    m = MarketSpec(tree=drift_binomial.tree, ask_price=[100.0, 120.0, 110.0],
                   lam=0.0, endowment=[0.0, 0.0])
    path = str(tmp_path / "arbitrage.json")
    save_market(m, path)
    assert main(["solve", "--market", path, "--utility", utility, "--x", "1.0"]) == 3
    assert "infeasible" in capsys.readouterr().err
