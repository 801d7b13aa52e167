"""Command-line front end.

One subcommand per capability: primal and dual solves, the duality
verifications, superhedging, the critical wealth, condition certificates,
endowment embedding, and the seeded randomized property suite.  Each
subcommand's parser binds its handler, which reads the parsed arguments
directly; `main` checks the flags once before dispatch.  Exit codes:
0 all-pass, 1 a verification failed, 2 input/usage errors: a flag or a
market file that is malformed or of the wrong JSON type, an argument the
library refuses (any ValueError, SchemaError among them), and a command
that needs halfspace constraints on a market without them.

Setting CONDUAL_EXACT=1 in the environment forces exact rational mode for
all market-file numbers (floats included).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .conditions import (
    check_convex_compactness,
    check_nonempty,
    check_supermartingale_condition,
)
from .dual import solve_dual, superhedge_price
from .market import (_read_market_doc, build_market, embed_endowment,
                     market_to_json, parse_market_file)
from .primal import solve_primal
from .properties import run_property_suite
from .reporting import emit_report
from .scalars import SchemaError, is_finite, parse_number
from .utility import parse_utility
from .verify import verify_conjugacy, verify_primal_dual_link, verify_xbar

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2


def _cmd_solve_primal(args):
    market = parse_market_file(args.market)
    utility = parse_utility(args.utility)
    if args.x is None:
        raise SchemaError("solve-primal needs --x")
    sol = solve_primal(market, utility, args.x, tol=args.tol)
    report = {
        "command": "solve-primal",
        "status": sol.status,
        "value": sol.value,
        "x": args.x,
    }
    if sol.portfolio is not None:
        ids = {i: market.tree.nodes[i].node_id for i in market.tree.nonleaf}
        report["portfolio"] = {ids[i]: list(v)
                               for i, v in sol.portfolio.as_dict().items()}
        report["terminal"] = {market.tree.nodes[i].node_id: w
                              for i, w in zip(market.tree.leaves, sol.terminal)}
        report["gradient_mapping"] = sol.gradient_mapping
    return EXIT_OK, report


def _cmd_solve_dual(args):
    market = parse_market_file(args.market)
    utility = parse_utility(args.utility)
    if args.y is None:
        raise SchemaError("solve-dual needs --y")
    sol = solve_dual(market, utility, args.y, tol=args.tol)
    report = {
        "command": "solve-dual",
        "y": args.y,
        "value": sol.value,
        "attained": sol.attained,
        "gap": sol.gap,
    }
    if sol.measure is not None:
        leaves = [market.tree.nodes[i].node_id for i in market.tree.leaves]
        report["weights"] = dict(zip(leaves, sol.measure.weights))
        report["densities"] = dict(zip(leaves, sol.measure.densities))
    return EXIT_OK, report


def _cmd_verify_duality(args):
    market = parse_market_file(args.market)
    utility = parse_utility(args.utility)
    if not args.x_grid or not args.y_grid:
        raise SchemaError("verify-duality needs --x-grid and --y-grid")
    rep = verify_conjugacy(market, utility, args.x_grid, args.y_grid,
                           tol=args.verify_tol)
    report = {
        "command": "verify-duality",
        "residuals": [{
            "kind": r.kind, "point": r.point, "residual": r.residual,
            "bound": r.bound, "boundary": r.boundary, "ok": r.ok,
        } for r in rep.records],
        "worst_gap": rep.worst_gap,
        "xbar": rep.xbar,
        "verdict": "pass" if rep.ok else "fail",
    }
    return (EXIT_OK if rep.ok else EXIT_VERIFICATION_FAILED), report


def _cmd_verify_link(args):
    market = parse_market_file(args.market)
    utility = parse_utility(args.utility)
    if args.x is None:
        raise SchemaError("verify-link needs --x")
    rep = verify_primal_dual_link(market, utility, args.x,
                                  tol=args.verify_tol)
    verdict = "abstain" if rep.ok is None else ("pass" if rep.ok else "fail")
    report = {
        "command": "verify-link",
        "y_hat": rep.y_hat,
        "residuals": list(rep.residuals),
        "max_residual": rep.max_residual,
        "attained": rep.attained,
        "verdict": verdict,
    }
    code = EXIT_OK if rep.ok else EXIT_VERIFICATION_FAILED
    return (EXIT_OK if verdict == "abstain" else code), report


def _cmd_superhedge(args):
    market = parse_market_file(args.market)
    payoff = _leaf_payoff(market, args.payoff)
    res = superhedge_price(market, payoff)
    leaves = [market.tree.nodes[i].node_id for i in market.tree.leaves]
    report = {
        "command": "superhedge",
        "price": res.price,
        "dual_value": res.dual_value,
        "bound": res.bound,
        "witness": dict(zip(leaves, res.witness.weights)) if res.witness else None,
    }
    return EXIT_OK, report


def _cmd_xbar(args):
    market = parse_market_file(args.market)
    rep = verify_xbar(market, tol=max(args.verify_tol, 1e-6))
    report = {
        "command": "xbar",
        "from_support": rep.from_support,
        "from_essinf": rep.from_essinf,
        "feasible_at": rep.feasible_at,
        "infeasible_at": rep.infeasible_at,
        "spread": rep.spread,
        "verdict": "pass" if rep.ok else "fail",
    }
    return (EXIT_OK if rep.ok else EXIT_VERIFICATION_FAILED), report


def _cmd_check_conditions(args):
    market = parse_market_file(args.market)
    nonempty = check_nonempty(market)
    cert = check_supermartingale_condition(market)
    compactness = check_convex_compactness(market)
    closedness = compactness.closedness
    report = {
        "command": "check-conditions",
        "nonempty": bool(nonempty),
        "projected_closedness": {nid: verdict
                                 for nid, (verdict, _) in closedness.verdicts.items()},
        "supermartingale": _certificate_payload(market, cert),
        "convex_compactness": compactness.verdict,
    }
    ok = bool(nonempty) and bool(closedness) and cert.certified \
        and compactness.verdict == "true"
    report["verdict"] = "pass" if ok else "fail"
    return (EXIT_OK if ok else EXIT_VERIFICATION_FAILED), report


def _certificate_payload(market, cert):
    payload = {"certified": cert.certified, "stage": cert.stage}
    if cert.certified:
        leaves = [market.tree.nodes[i].node_id for i in market.tree.leaves]
        ids = {i: market.tree.nodes[i].node_id for i in market.tree.nonleaf}
        payload["measure"] = dict(zip(leaves, cert.measure.weights))
        payload["reference"] = {ids[i]: list(v)
                                for i, v in cert.reference.as_dict().items()}
        payload["compensator"] = dict(cert.compensator)
        payload["total_compensator"] = cert.total_compensator
    else:
        payload["failure_node"] = cert.failure_node
        payload["failure_direction"] = cert.failure_direction
    if cert.notes:
        payload["notes"] = list(cert.notes)
    return payload


def _cmd_embed_endowment(args):
    doc = _read_market_doc(args.market)
    market = build_market(doc)
    endowment_doc = doc.get("endowment")
    if not isinstance(endowment_doc, dict):
        raise SchemaError("the market file carries no endowment object")
    endowment = {k: parse_number(v, f"endowment[{k}]")
                 for k, v in endowment_doc.items()}
    measure = {k: parse_number(v, f"measure[{k}]")
               for k, v in args.measure.items()}
    augmented, offset = embed_endowment(market, endowment, measure)
    augmented_doc = market_to_json(augmented)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(augmented_doc, fh, indent=2)
    report = {
        "command": "embed-endowment",
        "offset": offset,
        "augmented_dimension": augmented.dim,
        "synthetic_prices": {n.node_id: augmented.prices[n.index][-1]
                             for n in augmented.tree.nodes},
        "written_to": args.output,
    }
    return EXIT_OK, report


def _cmd_properties(args):
    results = run_property_suite(args.seed, scale=args.scale)
    ok = all(r.passed for r in results)
    report = {
        "command": "properties",
        "seed": args.seed,
        "results": [{
            "name": r.name, "passed": r.passed, "cases": r.cases,
            "seconds": round(r.seconds, 3), "detail": r.detail,
        } for r in results],
        "verdict": "pass" if ok else "fail",
    }
    return (EXIT_OK if ok else EXIT_VERIFICATION_FAILED), report


def _leaf_payoff(market, doc):
    leaves = [market.tree.nodes[i].node_id for i in market.tree.leaves]
    missing = [nid for nid in leaves if nid not in doc]
    if missing:
        raise SchemaError(f"payoff missing leaves {missing}")
    return tuple(parse_number(doc[nid], f"payoff[{nid}]") for nid in leaves)


@functools.cache
def _build_parser():
    """The argument parser, built once per process: parse_args reads it
    without changing it, and fills a fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="condual",
        description="Constrained utility-maximization duality on event trees")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, *, market=True, utility=False, x=False, y=False,
            grids=False, payoff=False, measure=False, seed=False,
            tol=False, verify_tol=False, output=False):
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        if market:
            p.add_argument("--market", required=True, help="market JSON file")
        if utility:
            p.add_argument("--utility", required=True,
                           help='descriptor, e.g. \'{"family":"log"}\' or "log"')
        if x:
            p.add_argument("--x", type=float, help="initial wealth")
        if y:
            p.add_argument("--y", type=float, help="dual scale")
        if grids:
            p.add_argument("--x-grid", help="comma-separated wealths")
            p.add_argument("--y-grid", help="comma-separated dual scales")
        if payoff:
            p.add_argument("--payoff", required=True,
                           help='leaf payoff JSON, e.g. \'{"up":1,"down":0}\'')
        if measure:
            p.add_argument("--measure", required=True,
                           help="pricing measure JSON (leaf id -> weight)")
        if seed:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--scale", type=int, default=1,
                           help="multiplier on the per-property case counts")
        if tol:
            p.add_argument("--tol", type=float, default=1e-8,
                           help="solver tolerance (default %(default)s)")
        if verify_tol:
            p.add_argument("--verify-tol", type=float, default=1e-5,
                           help="verification tolerance (default %(default)s)")
        if output:
            p.add_argument("--output", help="write the augmented market here")
        p.add_argument("--format", choices=("text", "json"), default="text")

    add("solve-primal", _cmd_solve_primal, utility=True, x=True, tol=True)
    add("solve-dual", _cmd_solve_dual, utility=True, y=True, tol=True)
    add("verify-duality", _cmd_verify_duality, utility=True, grids=True,
        verify_tol=True)
    add("verify-link", _cmd_verify_link, utility=True, x=True,
        verify_tol=True)
    add("superhedge", _cmd_superhedge, payoff=True)
    add("xbar", _cmd_xbar, verify_tol=True)
    add("check-conditions", _cmd_check_conditions)
    add("embed-endowment", _cmd_embed_endowment, measure=True, output=True)
    add("properties", _cmd_properties, market=False, seed=True)
    return parser


def _parse_grid(text):
    if not text:
        return []
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise SchemaError(f"bad grid {text!r}") from exc


def _parse_json_flag(text, what):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        if what == "utility":
            return text  # bare family name like "log"
        raise SchemaError(f"{what} flag is not valid JSON: {text!r}")
    if what in ("payoff", "measure") and not isinstance(doc, dict):
        raise SchemaError(f"{what} flag must be a JSON object of leaf ids, "
                          f"got {text!r}")
    return doc


def _check(args):
    """Parse the JSON and grid flags in place, then refuse the values that
    no command accepts."""
    given = vars(args)
    for what in ("utility", "payoff", "measure"):
        if what in given:
            given[what] = _parse_json_flag(given[what], what)
    grids = [name for name in ("x_grid", "y_grid") if name in given]
    for name in grids:
        given[name] = _parse_grid(given[name])
    if not all(given[name] > 0 for name in ("tol", "verify_tol")
               if name in given):
        raise SchemaError("tolerances must be positive")
    points = [given.get("x"), given.get("y")]
    points += [v for name in grids for v in given[name]]
    if not all(is_finite(v) for v in points if v is not None):
        raise SchemaError("--x, --y and grid points must be finite")
    if any(given[name] != sorted(given[name]) for name in grids):
        raise SchemaError("grids must be sorted ascending")
    if "scale" in given and given["scale"] < 1:
        raise SchemaError("--scale must be at least 1")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check(args)
        code, report = args.handler(args)
    except (ValueError, OSError, NotImplementedError) as exc:
        # ValueError: a malformed or refused input, SchemaError among them;
        # NotImplementedError: an LP-based command on a market whose sets
        # lack a halfspace form
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR
    sys.stdout.write(emit_report(report, args.format).decode())
    sys.stdout.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
