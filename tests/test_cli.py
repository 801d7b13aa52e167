"""Command-line interface: subcommands, exit codes, report formats."""

import json
import math
import os
import subprocess
import sys

import pytest

from condual.cli import main
from condual.market import build_market, market_to_json, parse_market_file
from condual.reporting import emit_report

from conftest import binomial_spec, two_asset_spec
from helpers import subprocess_env

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    return code, (json.loads(out) if out.strip() else None), err


def test_solve_primal_binomial(capsys):
    code, doc, _ = run_json(capsys, "solve-primal", "--market", fixture("b1.json"),
                            "--utility", '{"family":"log"}', "--x", "1")
    assert code == 0
    assert doc["schema"] == "condual/1"
    assert doc["value"] == pytest.approx(0.5 * math.log(1.5) + 0.5 * math.log(0.75),
                                         abs=1e-5)
    assert doc["portfolio"]["root"][0] == pytest.approx(0.5, abs=1e-4)


def test_solve_primal_text_table(capsys):
    code, out, _ = run_cli(capsys, "solve-primal", "--market", fixture("b1.json"),
                           "--utility", "log", "--x", "1")
    assert code == 0
    assert "value" in out and "0.0588" in out


def test_solve_dual(capsys):
    code, doc, _ = run_json(capsys, "solve-dual", "--market", fixture("b1.json"),
                            "--utility", "log", "--y", "1")
    assert code == 0
    assert doc["value"] == pytest.approx(-1 + 0.5 * math.log(9 / 8), abs=1e-6)
    assert doc["attained"] is True


def test_verify_duality_passes(capsys):
    code, doc, _ = run_json(capsys, "verify-duality",
                            "--market", fixture("b1.json"),
                            "--utility", "log",
                            "--x-grid", "0.5,1,2", "--y-grid", "0.5,1,2")
    assert code == 0
    assert doc["verdict"] == "pass"
    assert all(r["residual"] <= 1e-5 + (r["bound"] if r["bound"] != "inf" else 0)
               or r["bound"] == "inf" for r in doc["residuals"])


def test_verify_link(capsys):
    code, doc, _ = run_json(capsys, "verify-link", "--market", fixture("b1.json"),
                            "--utility", "log", "--x", "1")
    assert code == 0
    assert doc["verdict"] == "pass"
    assert doc["max_residual"] <= 1e-5


def test_superhedge(capsys):
    code, doc, _ = run_json(capsys, "superhedge", "--market", fixture("b1.json"),
                            "--payoff", '{"up": 1, "down": 0}')
    assert code == 0
    assert doc["price"] == "1/3"
    assert doc["dual_value"] == "1/3"


def test_superhedge_empty_admissible_class(capsys, tmp_path):
    # a forced long holding loses on the down move, so the floor at zero
    # admits no portfolio: no capital superhedges the claim
    spec = binomial_spec({"type": "box", "lower": [1], "upper": [2]})
    spec["floor"] = 0
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(spec))
    code, doc, _ = run_json(capsys, "superhedge", "--market", str(path),
                            "--payoff", '{"up": 1, "down": 0}')
    assert code == 0
    assert doc["price"] == "inf" and doc["dual_value"] == "inf"
    assert doc["witness"] is None


def test_xbar_pinned(capsys):
    code, doc, _ = run_json(capsys, "xbar", "--market", fixture("b1_pinned.json"))
    assert code == 0
    assert doc["from_support"] == "1/2"
    assert doc["verdict"] == "pass"


def test_check_conditions_deterministic(capsys):
    code, doc, _ = run_json(capsys, "check-conditions",
                            "--market", fixture("d1.json"))
    assert code == 0
    cert = doc["supermartingale"]
    assert cert["certified"] is True
    assert cert["compensator"] == {"t0": 1, "t1": 1}
    assert cert["total_compensator"] == 2
    assert doc["convex_compactness"] == "true"


def test_check_conditions_failure_exit_code(capsys):
    code, doc, _ = run_json(capsys, "check-conditions",
                            "--market", fixture("arbitrage.json"))
    assert code == 1
    assert doc["verdict"] == "fail"
    assert doc["convex_compactness"] == "false"


def test_embed_endowment(capsys, tmp_path):
    out_path = str(tmp_path / "augmented.json")
    code, doc, _ = run_json(capsys, "embed-endowment",
                            "--market", fixture("b1_endowment.json"),
                            "--measure", '{"up": "1/3", "down": "2/3"}',
                            "--output", out_path)
    assert code == 0
    assert doc["offset"] == "-1/3"
    assert doc["synthetic_prices"]["root"] == "1/3"
    augmented = parse_market_file(out_path)
    assert augmented.dim == 2


def test_embed_endowment_bad_measure_is_input_error(capsys):
    code, _, err = run_json(capsys, "embed-endowment",
                            "--market", fixture("b1_endowment.json"),
                            "--measure", '{"up": "1/2", "down": "1/2"}')
    assert code == 2
    assert "martingale" in err


def test_properties_subcommand(capsys):
    code, doc, _ = run_json(capsys, "properties", "--seed", "7")
    assert code == 0
    assert doc["verdict"] == "pass"
    assert doc["seed"] == 7
    assert all(r["passed"] for r in doc["results"])


def test_unreadable_market_is_input_error(capsys):
    code, _, err = run_cli(capsys, "xbar", "--market", "does-not-exist.json")
    assert code == 2
    assert "error" in err


def test_lp_commands_on_ball_market_are_input_errors(capsys, tmp_path):
    # a ball in dimension two has no halfspace form, so the LP-based
    # commands cannot run
    path = tmp_path / "ball.json"
    path.write_text(json.dumps(
        two_asset_spec({"type": "ball", "center": [3, 0], "radius": 1})))
    payoff = '{"up": 1, "mid": 0, "down": 0}'
    for argv in (("xbar",), ("superhedge", "--payoff", payoff)):
        code, out, err = run_cli(capsys, *argv, "--market", str(path))
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and "halfspace" in err
    code, doc, _ = run_json(capsys, "check-conditions", "--market", str(path))
    assert code == 0 and doc["verdict"] == "pass"


def test_piecewise_primal_on_ball_market_is_input_error(capsys, tmp_path):
    # a piecewise-linear primal is an LP, so it needs halfspaces too
    path = tmp_path / "ball.json"
    path.write_text(json.dumps(
        two_asset_spec({"type": "ball", "center": [0, 0], "radius": 1})))
    utility = '{"family": "piecewise", "breakpoints": [0, 1], "slopes": [2, 1]}'
    code, out, err = run_cli(capsys, "solve-primal", "--market", str(path),
                             "--utility", utility, "--x", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "halfspace" in err


def test_schema_violation_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    with open(fixture("b1.json")) as fh:
        doc = json.load(fh)
    doc["nodes"][1]["prob"] = -0.1
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "xbar", "--market", str(bad))
    assert code == 2
    assert "prob" in err or "positive" in err


@pytest.mark.parametrize("argv", [
    ("solve-primal", "--utility", "log", "--x", "inf"),
    ("solve-dual", "--utility", "log", "--y", "nan"),
    ("verify-link", "--utility", "log", "--x=-inf"),
    ("verify-duality", "--utility", "log", "--x-grid", "1,inf",
     "--y-grid", "1,2"),
])
def test_nonfinite_wealth_or_scale_is_input_error(capsys, argv):
    code, out, err = run_cli(capsys, argv[0], "--market", fixture("b1.json"),
                             *argv[1:])
    assert code == 2
    assert "finite" in err and not out


def test_piecewise_without_finite_piece_is_input_error(capsys):
    utility = '{"family": "piecewise", "breakpoints": [0], "slopes": ["inf"]}'
    code, out, err = run_cli(capsys, "solve-primal", "--market",
                             fixture("b1.json"), "--utility", utility,
                             "--x", "1")
    assert code == 2
    assert "second breakpoint" in err and not out


def test_nan_tolerance_is_input_error(capsys):
    code, out, err = run_cli(capsys, "solve-primal", "--market",
                             fixture("b1.json"), "--utility", "log",
                             "--x", "1", "--tol", "nan")
    assert code == 2
    assert "positive" in err and not out


@pytest.mark.parametrize("argv", [
    ("xbar", "--tol", "1e-9"),
    ("superhedge", "--payoff", '{"up": 1, "down": 0}', "--verify-tol", "1e-3"),
    ("check-conditions", "--output", "out.json"),
])
def test_flag_outside_its_subcommands_exits_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--market", fixture("b1.json"), *argv[1:]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_repeated_main_calls_share_no_arguments(capsys, monkeypatch):
    # one parser serves every call of a process: each call must see only
    # its own flags and its own subcommand's defaults
    import condual.cli

    assert condual.cli._build_parser() is condual.cli._build_parser()
    configs = []
    run = condual.cli.run
    monkeypatch.setattr(condual.cli, "run",
                        lambda config: configs.append(config) or run(config))
    calls = [
        ("solve-primal", "--market", fixture("b1.json"), "--utility", "log",
         "--x", "1", "--tol", "1e-6"),
        ("solve-dual", "--market", fixture("b1.json"), "--utility", "log",
         "--y", "1"),
        ("verify-link", "--market", fixture("b1.json"), "--utility", "log",
         "--x", "1", "--verify-tol", "1e-3"),
        ("xbar", "--market", fixture("b1_pinned.json")),
        ("solve-primal", "--market", fixture("b1.json"), "--utility", "log",
         "--x", "2"),
    ]
    for argv in calls:
        assert run_json(capsys, *argv)[0] == 0
    got = [(c.command, c.x, c.y, c.solver_tol, c.verify_tol) for c in configs]
    assert got == [("solve-primal", 1.0, None, 1e-6, 1e-5),
                   ("solve-dual", None, 1.0, 1e-8, 1e-5),
                   ("verify-link", 1.0, None, 1e-8, 1e-3),
                   ("xbar", None, None, 1e-8, 1e-5),
                   ("solve-primal", 2.0, None, 1e-8, 1e-5)]


def test_unknown_command_exits_two():
    proc = subprocess.run(
        [sys.executable, "-m", "condual.cli", "frobnicate"],
        capture_output=True, env=subprocess_env())
    assert proc.returncode == 2


def test_exact_mode_env_var(capsys, tmp_path, monkeypatch):
    # floats in the file become exact rationals under CONDUAL_EXACT=1
    with open(fixture("b1_pinned.json")) as fh:
        doc = json.load(fh)
    doc["nodes"][1]["prob"] = 0.5
    doc["nodes"][2]["prob"] = 0.5
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setenv("CONDUAL_EXACT", "1")
    code, out, _ = run_json(capsys, "xbar", "--market", str(path))
    assert code == 0
    assert out["from_support"] == "1/2"  # exact despite float input


def test_market_roundtrip_structural():
    market = parse_market_file(fixture("b1.json"))
    doc = market_to_json(market)
    again = build_market(doc)
    assert market_to_json(again) == doc


def test_emit_report_conventions():
    from condual.scalars import INF

    payload = json.loads(emit_report({"alpha": INF}, "json"))
    assert payload["alpha"] == "inf"
    assert payload["schema"] == "condual/1"
    empty = json.loads(emit_report(None, "json"))
    assert empty["verdict"] == "no-op"


def test_exit_contract_across_golden_fixtures(capsys):
    # spec'd end-to-end coverage: every golden fixture through the CLI
    passing = ["b1.json", "b1_pinned.json", "b1_box.json", "d1.json",
               "drift.json"]
    for name in passing:
        code, doc, _ = run_json(capsys, "check-conditions",
                                "--market", fixture(name))
        assert code == 0, name
        assert doc["verdict"] == "pass"
        code, doc, _ = run_json(capsys, "xbar", "--market", fixture(name))
        assert code == 0, name
    code, doc, _ = run_json(capsys, "check-conditions",
                            "--market", fixture("arbitrage.json"))
    assert code == 1 and doc["verdict"] == "fail"
