"""The three workloads: their inputs, fixed query lists and answer checks.

``build(name, seed, workdir)`` turns seeded market specs into condual
objects (and, for ``floor-cli``, market files) and returns the query list
of one pass.  Every query carries a check based on an identity that holds
for any seed: LP duality, weak duality, agreement of exact and float
routes, or a verifier's own verdict.  Library functions are looked up on
the ``condual`` package at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import markets as M

# utility-float: (dimension, horizon, markets of that size)
FLOAT_LADDER = ((1, 3, 6), (1, 4, 6), (1, 5, 4), (2, 3, 6))
CONJ_MARKETS = 2   # verify_conjugacy runs on the first two d = 1, T = 3 markets
FLOAT_WEALTH = (2.0, 5.0, 20.0)   # near-critical, middle, comfortable
FLOAT_Y = (0.5, 2.0)
CONJ_X, CONJ_Y = (2.0, 5.0, 10.0), (0.1, 0.3, 1.0)
LINK_X = 5.0

# pricing-exact: (dimension, horizon, markets, payoffs per market)
PRICING_LADDER = ((1, 2, 4, 3), (1, 3, 8, 3), (2, 2, 6, 2))

# floor-cli: (horizon, market shapes, payoffs per shape); every shape is
# written as an exact and a float file.  The floor sits above the wealth
# asked of the CLI: the ascent projects onto each node's set only and
# stalls when the floor binds at the optimum (see README).
FLOOR_LADDER = ((2, 4, 2), (3, 5, 1))
FLOOR_X = 3.0
FLOOR_LEVELS = (6, 8)
PIECEWISE_Y = (0.5, 1.0, 2.0, 3.0, 4.0)
PIECEWISE = {"family": "piecewise", "breakpoints": [0, 1, 3, 6],
             "slopes": ["inf", 1, 0.5, 0.2]}
PIECEWISE_X = 4.0
PIECEWISE_MAX_ITER = 8  # the piecewise ascent never reaches its tolerance

WEAK_DUALITY_TOL = 1e-6
TWIN_TOL = 1e-6


@dataclass
class Query:
    kind: str
    label: str
    leaves: int
    run: Callable      # () -> answer
    check: Callable    # (answer, state) -> None; raises CheckFailed or
                       # NotCertified


class CheckFailed(Exception):
    """An answer broke an identity: the output is wrong."""


class NotCertified(Exception):
    """The library returned a status that does not certify its answer."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def certified(cond, message):
    if not cond:
        raise NotCertified(message)


def weak_duality(u, v, x, y):
    """u(x) <= v(y) + x y, the inequality every dual answer bounds
    (v = +inf, where no measure keeps the conjugate finite, bounds all)."""
    u, v = float(u), float(v)
    require(not math.isnan(u) and not math.isnan(v), f"NaN in u={u} v={v}")
    if v == math.inf or u == -math.inf:
        return
    slack = v + x * y - u
    require(slack >= -WEAK_DUALITY_TOL * (1 + abs(u) + abs(v) + x * y),
            f"weak duality broken: u({x})={u} > v({y})+xy={v + x * y}")


def build(name, seed, workdir):
    import condual

    rng = M.rng_for(name, seed)
    if name == "utility-float":
        return _utility_float(condual, rng)
    if name == "pricing-exact":
        return _pricing_exact(condual, rng)
    if name == "floor-cli":
        import condual.cli  # noqa: F401  (set-up, not the first query, pays for it)

        os.makedirs(workdir, exist_ok=True)
        return _floor_cli(condual, rng, workdir)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# utility-float


def _utility_float(cd, rng):
    queries = []
    utilities = (("log", cd.LogUtility()), ("power", cd.PowerUtility(0.5)))
    for dim, horizon, count in FLOAT_LADDER:
        for k in range(count):
            nodes = M.tree_nodes(rng, dim, horizon)
            spec = M.market_spec(nodes, dim, horizon,
                                 {"default": M.box(dim, -2, 2)}, exact=False)
            market = cd.build_market(spec)
            leaves = len(market.tree.leaves)
            tag = f"d{dim}T{horizon}#{k}"
            for uname, util in utilities:
                group = f"{tag}/{uname}"
                for y in FLOAT_Y:
                    queries.append(_smooth_dual(cd, market, util, y, group, leaves))
                for x in FLOAT_WEALTH:
                    queries.append(_smooth_primal(cd, market, util, x, group, leaves))
            if (dim, horizon) == FLOAT_LADDER[0][:2] and k < CONJ_MARKETS:
                for uname, util in utilities:
                    queries.append(_conjugacy(cd, market, util, f"{tag}/{uname}",
                                              leaves))
                if k == 0:
                    queries.append(_link(cd, market, utilities[0][1],
                                         f"{tag}/log", leaves))
    return queries


def _smooth_dual(cd, market, util, y, group, leaves):
    def run():
        return cd.solve_dual(market, util, y)

    def check(sol, state):
        state.setdefault(("dual", group), []).append((y, sol.value))
        certified(sol.attained, f"dual not attained, gap {sol.gap}")

    return Query("dual", f"dual {group} y={y}", leaves, run, check)


def _smooth_primal(cd, market, util, x, group, leaves):
    def run():
        return cd.solve_primal(market, util, x)

    def check(sol, state):
        certified(sol.status == "optimal", f"primal status {sol.status}")
        require(min(sol.terminal) > 0, "nonpositive terminal wealth")
        for y, v in state.get(("dual", group), ()):
            weak_duality(sol.value, v, x, y)

    return Query("primal", f"primal {group} x={x}", leaves, run, check)


def _conjugacy(cd, market, util, group, leaves):
    def run():
        return cd.verify_conjugacy(market, util, list(CONJ_X), list(CONJ_Y))

    def check(rep, state):
        certified(rep.ok, f"conjugacy failed, worst gap {rep.worst_gap}")

    return Query("conjugacy", f"conjugacy {group}", leaves, run, check)


def _link(cd, market, util, group, leaves):
    def run():
        return cd.verify_primal_dual_link(market, util, LINK_X)

    def check(rep, state):
        certified(rep.ok is True, f"link ok={rep.ok}, max residual "
                  f"{rep.max_residual} against tol {rep.tolerance}")

    return Query("link", f"link {group} x={LINK_X}", leaves, run, check)


# ---------------------------------------------------------------------------
# pricing-exact


def _pricing_exact(cd, rng):
    queries = []
    for dim, horizon, count, n_payoffs in PRICING_LADDER:
        for k in range(count):
            nodes = M.tree_nodes(rng, dim, horizon)
            constraints = M.constraints(rng, dim, M.nonleaf_ids(nodes),
                                        M.PRICING_KINDS)
            exact = cd.build_market(M.market_spec(nodes, dim, horizon,
                                                  constraints))
            twin = cd.build_market(M.market_spec(nodes, dim, horizon,
                                                 constraints, exact=False))
            leaves = len(exact.tree.leaves)
            tag = f"d{dim}T{horizon}#{k}"
            order = [exact.tree.nodes[i].node_id for i in exact.tree.leaves]
            for j, claim in enumerate(M.payoffs(rng, nodes, n_payoffs)):
                payoff = tuple(claim[nid] for nid in order)
                key = f"{tag}/{j}"
                queries.append(_superhedge_exact(cd, exact, payoff, key, leaves))
                queries.append(_superhedge_twin(cd, twin, payoff, key, leaves))
            queries.append(_support(cd, exact, tag, leaves))
            queries.append(_xbar(cd, exact, tag, leaves))
            queries.append(_certify(cd, exact, tag, leaves))
    return queries


def _superhedge_exact(cd, market, payoff, key, leaves):
    def run():
        return cd.superhedge_price(market, payoff)

    def check(res, state):
        require(isinstance(res.price, Fraction), f"inexact price {res.price!r}")
        require(res.price == res.dual_value,
                f"LP duality: price {res.price} != dual {res.dual_value}")
        state[("price", key)] = res.price

    return Query("superhedge", f"superhedge exact {key}", leaves, run, check)


def _superhedge_twin(cd, market, payoff, key, leaves):
    floats = tuple(float(v) for v in payoff)

    def run():
        return cd.superhedge_price(market, floats)

    def check(res, state):
        exact = state.get(("price", key))
        certified(exact is not None, "no exact twin price to compare")
        agree(res.price, exact, "float twin price")

    return Query("superhedge", f"superhedge float {key}", leaves, run, check)


def agree(value, exact, what):
    value, exact = float(value), float(exact)
    require(abs(value - exact) <= TWIN_TOL * max(1.0, abs(exact)),
            f"{what} {value} != exact {exact}")


def _support(cd, market, tag, leaves):
    def run():
        return cd.min_support(market)

    def check(res, state):
        require(res.inf_alpha == res.sup_essinf,
                f"inf alpha {res.inf_alpha} != sup essinf {res.sup_essinf}")
        require(res.xbar == -res.inf_alpha, f"xbar {res.xbar} != -inf alpha")

    return Query("support", f"min_support {tag}", leaves, run, check)


def _xbar(cd, market, tag, leaves):
    def run():
        return cd.verify_xbar(market)

    def check(rep, state):
        certified(rep.ok, f"xbar routes disagree, spread {rep.spread}")

    return Query("xbar", f"verify_xbar {tag}", leaves, run, check)


def _certify(cd, market, tag, leaves):
    def run():
        return (cd.check_supermartingale_condition(market),
                cd.check_nonempty(market),
                cd.check_projected_closedness(market))

    def check(answer, state):
        cert, nonempty, _closed = answer
        certified(cert.certified, "supermartingale condition not certified")
        certified(nonempty.nonempty, "admissible class empty")

    return Query("certify", f"certificates {tag}", leaves, run, check)


# ---------------------------------------------------------------------------
# floor-cli


def _floor_cli(cd, rng, workdir):
    queries = []
    piecewise = cd.parse_utility(PIECEWISE)
    for horizon, shapes, n_payoffs in FLOOR_LADDER:
        for k in range(shapes):
            nodes = M.tree_nodes(rng, 1, horizon)
            constraints = M.constraints(rng, 1, M.nonleaf_ids(nodes),
                                        M.FLOOR_KINDS)
            floor = rng.randint(*FLOOR_LEVELS)
            claims = M.payoffs(rng, nodes, n_payoffs)
            tag = f"T{horizon}#{k}"
            leaves = len(M.leaf_ids(nodes))
            # library queries first: the primal ascent works in floats, so
            # its reached value bounds u(x) for both twins
            twin = M.market_spec(nodes, 1, horizon, constraints, floor=floor,
                                 exact=False)
            queries.append(_piecewise_primal(cd, cd.build_market(twin),
                                             piecewise, tag, leaves))
            for exact in (True, False):
                mode = "exact" if exact else "float"
                spec = M.market_spec(nodes, 1, horizon, constraints,
                                     floor=floor, exact=exact)
                path = os.path.join(workdir, f"T{horizon}-{k}-{mode}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(spec, fh)
                queries.append(_cli_primal(path, FLOOR_X, tag, mode, leaves))
                for y in PIECEWISE_Y:
                    queries.append(_cli_piecewise_dual(path, y, tag, mode, leaves))
                for j, claim in enumerate(claims):
                    doc = {nid: (M.rational_text(v) if exact else float(v))
                           for nid, v in claim.items()}
                    queries.append(_cli_superhedge(path, doc, exact,
                                                   f"{tag}#{j}", leaves))
                queries.append(_cli_xbar(path, f"{tag}/{mode}", leaves))
                queries.append(_cli_conditions(path, f"{tag}/{mode}", leaves))
    return queries


def run_cli(argv):
    """condual.cli.main in-process with stdout captured; (code, JSON doc)."""
    import condual.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = condual.cli.main(argv + ["--format", "json"])
    return code, json.loads(buf.getvalue())


def cli_ok(answer):
    code, doc = answer
    certified(code == 0, f"exit code {code}")
    require(doc.get("schema") == "condual/1", f"schema {doc.get('schema')!r}")
    return doc


def number(value):
    """A condual/1 JSON number: exact values arrive as ints or "p/q"
    strings, float ones as floats, infinities as "inf"/"-inf"."""
    if value in ("inf", "-inf"):
        return float(value)
    if isinstance(value, (int, str)):
        return Fraction(value)
    return value


def _piecewise_primal(cd, market, util, tag, leaves):
    def run():
        return cd.solve_primal(market, util, PIECEWISE_X,
                               max_iter=PIECEWISE_MAX_ITER)

    def check(sol, state):
        # the reached value is a feasible lower bound on u(x) either way
        if sol.value is not None and math.isfinite(float(sol.value)):
            state[("piecewise", tag)] = float(sol.value)
        certified(sol.status == "optimal",
                  f"piecewise primal {sol.status} after {sol.iterations} "
                  f"iterations, gradient mapping {sol.gradient_mapping}")

    return Query("primal", f"primal piecewise {tag} x={PIECEWISE_X}", leaves,
                 run, check)


def _cli_primal(path, x, tag, mode, leaves):
    def run():
        return run_cli(["solve-primal", "--market", path, "--utility", "log",
                        "--x", repr(x)])

    def check(answer, state):
        doc = cli_ok(answer)
        certified(doc["status"] == "optimal", f"primal status {doc['status']}")
        require(min(number(w) for w in doc["terminal"].values()) > 0,
                "nonpositive terminal wealth")
        # both files describe one market, so both parses share one optimum
        value = number(doc["value"])
        twin = state.setdefault(("primal", tag), value)
        agree(value, twin, f"u({x}) from the {mode} file")

    return Query("primal", f"cli solve-primal log {tag}/{mode} x={x}", leaves,
                 run, check)


def _cli_piecewise_dual(path, y, tag, mode, leaves):
    utility = json.dumps(PIECEWISE)

    def run():
        return run_cli(["solve-dual", "--market", path, "--utility", utility,
                        "--y", repr(y)])

    def check(answer, state):
        # attained is never claimed here (the minorant gap stays open), so
        # weak duality against the best primal value reached is the check
        doc = cli_ok(answer)
        u = state.get(("piecewise", tag))
        certified(u is not None, "no piecewise primal value to compare")
        weak_duality(u, number(doc["value"]), PIECEWISE_X, y)

    return Query("dual", f"cli solve-dual piecewise {tag}/{mode} y={y}", leaves,
                 run, check)


def _cli_superhedge(path, payoff, exact, key, leaves):
    def run():
        return run_cli(["superhedge", "--market", path, "--payoff",
                        json.dumps(payoff)])

    def check(answer, state):
        doc = cli_ok(answer)
        price = number(doc["price"])
        if exact:
            require(isinstance(price, Fraction), f"inexact price {price!r}")
            require(price == number(doc["dual_value"]),
                    f"LP duality: price {price} != dual {doc['dual_value']}")
            state[("price", key)] = price
        else:
            exact_price = state.get(("price", key))
            certified(exact_price is not None, "no exact twin price to compare")
            agree(price, exact_price, "float twin price")

    mode = "exact" if exact else "float"
    return Query("superhedge", f"cli superhedge {mode} {key}", leaves, run, check)


def _cli_xbar(path, group, leaves):
    def run():
        return run_cli(["xbar", "--market", path])

    def check(answer, state):
        doc = cli_ok(answer)
        certified(doc["verdict"] == "pass", f"xbar spread {doc['spread']}")

    return Query("xbar", f"cli xbar {group}", leaves, run, check)


def _cli_conditions(path, group, leaves):
    def run():
        return run_cli(["check-conditions", "--market", path])

    def check(answer, state):
        doc = cli_ok(answer)
        certified(doc["supermartingale"]["certified"] is True,
                  "supermartingale condition not certified")
        certified(doc["nonempty"] is True, "admissible class empty")

    return Query("certify", f"cli check-conditions {group}", leaves, run, check)
