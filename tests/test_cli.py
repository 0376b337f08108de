import csv
import json
import os

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
    rec = read_json(out)
    assert rec["verdicts"][0]["exists"] is False
    assert rec["verdicts"][0]["certificate"] is not None


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
            "message", "phase_one_slack", "face_steps", "events"}
    for side in ("primal", "dual"):
        engine_diag = rec["diagnostics"][side]
        assert set(engine_diag) == keys
        assert sum(engine_diag["newton_iterations"]) > 0
    with open(table, newline="") as fh:
        rows = list(csv.DictReader(fh))
    market = load_market(market_file)
    assert len(rows) == market.tree.n_nodes
    assert set(rows[0]) == {"node_id", "buy", "sell", "phi0", "phi1", "vliq"}


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
    code = main(["price", "--market", market_file, "--gamma", "0.7",
                 "--routes", "bogus"])
    assert code == 1
    assert "bogus" in capsys.readouterr().err


def test_linalg_error_is_solver_failure(market_file, monkeypatch, capsys):
    import numpy as np

    from frictiondual import duality

    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(duality, "solve_report", broken)
    code = main(["solve", "--market", market_file, "--utility", "log",
                 "--x", "5"])
    assert code == 2
    assert "solver failure" in capsys.readouterr().err


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


def test_stdout_json(market_file, capsys):
    assert main(["xmin", "--market", market_file, "--json", "-"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert "x0" in rec


def test_table_output(market_file, capsys):
    assert main(["xmin", "--market", market_file]) == 0
    assert "x0" in capsys.readouterr().out
