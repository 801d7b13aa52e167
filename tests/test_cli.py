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

from conftest import ball_floor_spec, binomial_spec, drifted_binomial_spec, \
    two_asset_spec
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


def test_verify_link_abstains_on_an_ascent_that_stops_short(capsys,
                                                            monkeypatch,
                                                            tmp_path):
    # the floor binds at the log optimum of this market at x = 6, and the
    # ascent stalls there (max-iterations): the link check abstains without
    # solving a dual, and the command exits 0, as for an unattained dual
    import condual.verify
    from condual.utility import LogUtility
    from condual.verify import verify_primal_dual_link

    def no_dual(*_, **__):
        raise AssertionError("dual solved for a primal that stopped short")

    monkeypatch.setattr(condual.verify, "solve_dual", no_dual)
    path = tmp_path / "floor2.json"
    path.write_text(json.dumps(drifted_binomial_spec(3, floor=2)))
    market = parse_market_file(str(path))
    rep = verify_primal_dual_link(market, LogUtility(), 6)
    assert rep.ok is None and rep.residuals == () and not rep.attained
    assert rep.y_hat == pytest.approx(0.1549, abs=1e-4)
    code, doc, _ = run_json(capsys, "verify-link", "--market", str(path),
                            "--utility", "log", "--x", "6")
    assert code == 0
    assert doc["verdict"] == "abstain" and doc["y_hat"] == rep.y_hat


def test_verify_link_abstains_on_an_unattained_dual(capsys):
    # just above xbar = -5/4 the log ascent on this market reaches its
    # optimum in a few projected Newton steps; the dual at y_hat is solved
    # but not attained, so the link check abstains and the command exits 0
    from condual.primal import solve_primal
    from condual.utility import LogUtility
    from condual.verify import verify_primal_dual_link

    market = parse_market_file(fixture("random24.json"))
    sol = solve_primal(market, LogUtility(), -1.249)
    assert sol.status == "optimal" and sol.iterations <= 50
    assert sol.value == pytest.approx(-1.8198814970, abs=1e-8)
    rep = verify_primal_dual_link(market, LogUtility(), -1.249)
    assert rep.ok is None and rep.residuals == () and not rep.attained
    assert rep.y_hat == pytest.approx(283.67, abs=0.01)
    code, doc, _ = run_json(capsys, "verify-link", "--market",
                            fixture("random24.json"), "--utility", "log",
                            "--x=-1.249")
    assert code == 0
    assert doc["verdict"] == "abstain" and doc["y_hat"] == rep.y_hat


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


@pytest.mark.parametrize("name", ["d1.json", "arbitrage.json"])
def test_check_conditions_checks_closedness_once(capsys, monkeypatch, name):
    # the command reports the closedness that the compactness check
    # computed: each node's projected set is checked once per run
    import condual.conditions as conditions

    real, checked = conditions.projected_set_closed, []

    def counted(cset):
        checked.append(cset)
        return real(cset)

    monkeypatch.setattr(conditions, "projected_set_closed", counted)
    tree = parse_market_file(fixture(name)).tree
    _, doc, _ = run_json(capsys, "check-conditions", "--market", fixture(name))
    assert len(checked) == len(tree.nonleaf)
    assert list(doc["projected_closedness"]) == [tree.nodes[i].node_id
                                                 for i in tree.nonleaf]


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


def test_embed_endowment_reads_the_market_file_once(capsys, monkeypatch):
    loads, load = [], json.load
    monkeypatch.setattr(json, "load", lambda fh: loads.append(fh.name)
                        or load(fh))
    code, _, _ = run_json(capsys, "embed-endowment",
                          "--market", fixture("b1_endowment.json"),
                          "--measure", '{"up": "1/3", "down": "2/3"}')
    assert code == 0 and loads == [fixture("b1_endowment.json")]
    # the refusals of parse_market_file: a missing file, and this one
    for market in ("does-not-exist.json", __file__):
        code, out, err = run_cli(capsys, "embed-endowment", "--market",
                                 market, "--measure", '{"up": 1}')
        assert code == 2 and out == ""
        assert err.startswith(("error: cannot read market file",
                               "error: market file is not valid JSON"))


def test_embed_endowment_bad_measure_is_input_error(capsys):
    code, _, err = run_json(capsys, "embed-endowment",
                            "--market", fixture("b1_endowment.json"),
                            "--measure", '{"up": "1/2", "down": "1/2"}')
    assert code == 2
    assert "martingale" in err


@pytest.mark.parametrize("endowment", [None, [1, 0], "1"])
def test_embed_endowment_without_an_endowment_object_is_input_error(
        capsys, tmp_path, endowment):
    with open(fixture("b1_endowment.json")) as fh:
        doc = json.load(fh)
    doc["endowment"] = endowment
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "embed-endowment", "--market", str(path),
                             "--measure", '{"up": "1/3", "down": "2/3"}')
    assert code == 2
    assert err.startswith("error: ") and "endowment" in err and not out


@pytest.mark.parametrize("argv", [
    ("superhedge", "b1.json", "--payoff", "1"),
    ("superhedge", "b1.json", "--payoff", '"updown"'),
    ("superhedge", "b1.json", "--payoff", "[1, 0]"),
    ("superhedge", "b1.json", "--payoff", "null"),
    ("embed-endowment", "b1_endowment.json", "--measure", "5"),
    ("embed-endowment", "b1_endowment.json", "--measure", "[1]"),
    ("embed-endowment", "b1_endowment.json", "--measure", '"up"'),
])
def test_payoff_or_measure_not_a_json_object_is_input_error(capsys, argv):
    command, market, flag, value = argv
    code, out, err = run_cli(capsys, command, "--market", fixture(market),
                             flag, value)
    assert code == 2
    assert "JSON object" in err and not out


@pytest.mark.parametrize("argv,message", [
    (("solve-dual", "--utility", "log"), "needs --y"),
    (("verify-duality", "--utility", "log", "--x-grid", "1"),
     "needs --x-grid and --y-grid"),
    (("verify-link", "--utility", "log"), "needs --x"),
    (("superhedge", "--payoff", '{"up": 1}'), "payoff missing leaves"),
    (("verify-duality", "--utility", "log", "--x-grid", "1,two",
      "--y-grid", "1"), "bad grid"),
    (("superhedge", "--payoff", "{up: 1}"), "payoff flag is not valid JSON"),
], ids=["dual-without-y", "duality-without-grids", "link-without-x",
        "payoff-missing-leaf", "malformed-grid", "payoff-not-json"])
def test_refused_flags_are_input_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv, "--market", fixture("b1.json"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


MARKET_COMMANDS = [
    ("solve-primal", "--utility", "log", "--x", "1"),
    ("solve-dual", "--utility", "log", "--y", "1"),
    ("verify-duality", "--utility", "log", "--x-grid", "1", "--y-grid", "1"),
    ("verify-link", "--utility", "log", "--x", "1"),
    ("superhedge", "--payoff", '{"up": 1, "down": 0}'),
    ("xbar",),
    ("check-conditions",),
    ("embed-endowment", "--measure", '{"up": "1/2", "down": "1/2"}'),
]


@pytest.mark.parametrize("lower,upper", [("inf", "inf"), ("-inf", "-inf")],
                         ids=["lower-inf", "upper-minus-inf"])
def test_box_with_no_finite_point_is_an_input_error(capsys, tmp_path, lower,
                                                    upper):
    # a lower bound of +inf or an upper bound of -inf leaves the box no
    # point: every command refuses the market with one error line that names
    # the node's set
    path = tmp_path / "market.json"
    path.write_text(json.dumps(binomial_spec(
        {"type": "box", "lower": [lower], "upper": [upper]})))
    for argv in MARKET_COMMANDS:
        code, out, err = run_cli(capsys, *argv, "--market", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: constraints['root']: empty box")
        assert err.count("\n") == 1


def test_properties_subcommand(capsys):
    code, doc, _ = run_json(capsys, "properties", "--seed", "7")
    assert code == 0
    assert doc["verdict"] == "pass"
    assert doc["seed"] == 7
    assert all(r["passed"] for r in doc["results"])


def test_properties_text_table(capsys):
    # text is the default format: the results list renders as a table
    from condual.properties import _REGISTRY

    code, out, _ = run_cli(capsys, "properties", "--seed", "0")
    assert code == 0
    lines = out.splitlines()
    top = lines.index("results:") + 1
    end = top + 1 + len(_REGISTRY)
    assert lines[top].split() == ["name", "passed", "cases", "seconds",
                                  "detail"]
    rows = [line.split()[:2] for line in lines[top + 1:end]]
    assert rows == [[name, "True"] for name, _, _ in _REGISTRY]
    assert lines[end].split() == ["verdict", "pass"]


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


def test_check_conditions_on_floor_ball_market_is_input_error(capsys, tmp_path):
    # the ball's center breaks the floor, and nonemptiness then needs the
    # phase-1 LP, which a ball in dimension two cannot enter
    path = tmp_path / "ball_floor.json"
    path.write_text(json.dumps(ball_floor_spec()))
    code, out, err = run_cli(capsys, "check-conditions", "--market", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "halfspace" in err
    assert err.count("\n") == 1


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


def _set(key, value):
    return lambda doc: doc.__setitem__(key, value)


def _set_node(key, value):
    return lambda doc: doc["nodes"][1].__setitem__(key, value)


def _set_root_constraint(descriptor):
    return lambda doc: doc["constraints"].__setitem__("root", descriptor)


@pytest.mark.parametrize("edit", [
    _set("constraints", []),
    _set("nodes", 5),
    _set("horizon", True),
    _set("dimension", True),
    _set_node("prices", 2),
    _set_node("parent", ["root"]),
    _set_node("id", ["up"]),
    _set_node("time", True),
    _set_root_constraint({"type": "box", "lower": 1, "upper": [1]}),
    _set_root_constraint({"type": "polyhedron", "A": [1, 2], "b": [1, 1]}),
    _set_root_constraint({"type": "intersection", "members": 5}),
    _set_root_constraint({"type": "affine_fixed", "dim": 1, "fixed": [1]}),
    _set_root_constraint({"type": "affine_fixed", "dim": True,
                          "fixed": {"0": 1}}),
], ids=["constraints-list", "nodes-int", "horizon-bool", "dimension-bool",
        "prices-int", "parent-list", "id-list", "time-bool", "box-lower-int",
        "polyhedron-flat-A", "members-int", "fixed-list", "dim-bool"])
def test_market_of_the_wrong_json_type_is_input_error(capsys, tmp_path, edit):
    with open(fixture("b1.json")) as fh:
        doc = json.load(fh)
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "xbar", "--market", str(path))
    assert code == 2
    assert err.startswith("error: ") and not out


@pytest.mark.parametrize("utility", [
    '{"family": "power", "p": [1]}',
    '{"family": "piecewise", "breakpoints": 5, "slopes": [2, 1]}',
    '{"family": "piecewise", "breakpoints": "01", "slopes": [2, 1]}',
    '{"family": "table", "x": 1, "u": [0, 1]}',
])
def test_utility_of_the_wrong_json_type_is_input_error(capsys, utility):
    code, out, err = run_cli(capsys, "solve-primal", "--market",
                             fixture("b1.json"), "--utility", utility,
                             "--x", "1")
    assert code == 2
    assert err.startswith("error: utility") and not out


@pytest.mark.parametrize("argv,message", [
    (("verify-duality", "--market", fixture("b1.json"), "--utility", "log",
      "--x-grid", "2,1", "--y-grid", "1,2"), "sorted"),
    (("verify-link", "--market", fixture("b1.json"), "--utility", "log",
      "--x", "1", "--verify-tol", "0"), "positive"),
    (("solve-primal", "--market", fixture("b1.json"), "--utility", "log"),
     "needs --x"),
    (("properties", "--seed", "1", "--scale", "-3"), "--scale"),
    (("properties", "--seed", "1", "--scale", "0"), "--scale"),
    # below the critical wealth xbar = 1/2 of the pinned market
    (("verify-duality", "--market", fixture("b1_pinned.json"), "--utility",
      "log", "--x-grid", "0.1,1", "--y-grid", "1,2"),
     "critical initial wealth"),
    (("verify-link", "--market", fixture("b1.json"), "--utility",
      '{"family": "piecewise", "breakpoints": [0, 1], "slopes": [2, 1]}',
      "--x", "1"), "smooth"),
    # the pinned holding h = 1 loses 1/2 on the down move: no wealth
    # below 1/2 is feasible, so the primal has no optimum to link
    (("verify-link", "--market", fixture("b1_pinned.json"), "--utility",
      "log", "--x", "0.2"), "infeasible"),
    (("solve-dual", "--market", fixture("b1.json"), "--utility", "log",
      "--y", "-1"), "y > 0"),
], ids=["unsorted-grid", "zero-verify-tol", "primal-without-x",
        "negative-scale", "zero-scale", "grid-below-xbar", "link-piecewise",
        "link-infeasible", "negative-y"])
def test_refused_argument_is_input_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and message in err and not out


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
    seen = []

    def record(name, solver):
        def wrapper(market, *args, tol):
            seen.append((name, *args[1:], tol))
            return solver(market, *args, tol=tol)
        monkeypatch.setattr(condual.cli, name, wrapper)

    for name in ("solve_primal", "solve_dual", "verify_primal_dual_link",
                 "verify_xbar"):
        record(name, getattr(condual.cli, name))
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
    assert seen == [("solve_primal", 1.0, 1e-6),
                    ("solve_dual", 1.0, 1e-8),
                    ("verify_primal_dual_link", 1.0, 1e-3),
                    ("verify_xbar", 1e-5),
                    ("solve_primal", 2.0, 1e-8)]


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
