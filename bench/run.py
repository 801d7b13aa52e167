"""condual benchmark: one closed-loop workload per fresh process.

    python3 bench/run.py --workload utility-float --seed 1 --seconds 35 --trace 0

One client sends the workload's fixed query list, each query only after the
previous answer has been returned and checked, and repeats the list while
another pass fits in ``--seconds``.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs untraced passes, then traced passes under the
outside-in tracer, and prints the per-layer metrics.  The last line of
stdout is one JSON object; a result file with provenance, quartiles and
per-size self times is written under ``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

WORKLOADS = ("utility-float", "pricing-exact", "floor-cli")
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 8        # fresh set-up processes besides this one
KIND_METRICS = {"primal": "primal_p50_ms", "dual": "dual_p50_ms",
                "link": "link_p50_ms", "conjugacy": "conjugacy_p50_ms",
                "superhedge": "superhedge_p50_ms", "support": "support_p50_ms",
                "xbar": "xbar_p50_ms", "certify": "certify_p50_ms"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: time one set-up and print it as JSON")
    return p.parse_args(argv)


def fail(message):
    sys.stderr.write(f"bench: {message}\n")
    return 2


def main(argv=None):
    args = parse_args(argv)
    if "CONDUAL_EXACT" in os.environ:
        # it silently turns the float workloads into exact ones
        return fail("CONDUAL_EXACT is set; unset it to run the benchmark")
    if not os.path.isfile(os.path.join(SRC, "condual", "__init__.py")):
        return fail(f"no condual sources under {SRC}")
    for var in BLAS_VARS:   # before numpy loads: one process, one thread
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH)

    t0 = perf_counter()
    import condual

    if not os.path.abspath(condual.__file__).startswith(SRC + os.sep):
        return fail(f"imported condual from {condual.__file__}, not {SRC}")
    import workloads
    import calibration

    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        queries = workloads.build(args.workload, args.seed, workdir)
        setup_self = perf_counter() - t0
        setup_self = (setup_self, setup_self * calibration.setup_factor())
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_self}))
            return 0
        return measure(args, workloads, queries, setup_self, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# measurement


class Tally:
    """Latencies and outcomes of the queries of some passes.

    ``attempted`` and ``failed`` count distinct queries: every pass sends
    the same list, and a query's answer does not depend on when it is
    sent, so a query counts once (failed if any of its runs failed).  The
    counts then depend on the seed alone, not on how many passes fitted
    in the run; the per-run totals are kept as ``executions``.
    """

    def __init__(self, queries):
        self.queries = queries
        self.passes = []        # wall time of each pass
        self.rounds = []        # per pass: latency of each query, in order
        self.scaled = []        # the same, rescaled to the reference host
        self.calibration = []   # per pass: the calibration samples
        self.outcome = {}       # query index -> worst outcome seen
        self.failures = {}      # label -> first message
        self.executions = 0
        self.failed_executions = 0

    def record(self, index, seconds, outcome, message):
        self.executions += 1
        self.rounds[-1].append(seconds)
        seen = self.outcome.get(index, "ok")
        if outcome != "ok":
            self.failed_executions += 1
            self.failures.setdefault(self.queries[index].label,
                                     f"{outcome}: {message}")
            if seen != "wrong":
                self.outcome[index] = outcome
        else:
            self.outcome.setdefault(index, "ok")

    @property
    def attempted(self):
        return len(self.outcome)

    @property
    def failed(self):
        return sum(o != "ok" for o in self.outcome.values())

    @property
    def wrong(self):
        return sum(o == "wrong" for o in self.outcome.values())

    def per_query(self, rounds=None):
        """Each query's median latency over the passes, rescaled unless
        ``rounds`` says otherwise.  Taking the median per query, not per
        pass, keeps a slow spell of the machine from moving the figures
        unless it covers most passes."""
        rounds = self.scaled if rounds is None else rounds
        return [statistics.median(col) for col in zip(*rounds)]

    def pooled(self):
        """Every rescaled latency of the run, all passes together."""
        return [v for pass_ in self.scaled for v in pass_]

    def by_kind(self):
        out = {}
        for pass_ in self.scaled:
            for q, latency in zip(self.queries, pass_):
                out.setdefault(q.kind, []).append(latency)
        return out


def run_pass(queries, workloads, tally, tracer=None, first_id=0):
    import calibration

    state = {}
    tally.rounds.append([])
    samples = []
    start = perf_counter()
    for i, q in enumerate(queries):
        samples.append(calibration.sample())
        if tracer is not None:
            tracer.current_query = first_id + i
            span = tracer.open("bench.query")
        t = perf_counter()
        outcome, message = "ok", ""
        try:
            answer = q.run()
            seconds = perf_counter() - t
            q.check(answer, state)
        except workloads.CheckFailed as exc:
            outcome, message = "wrong", str(exc)
        except workloads.NotCertified as exc:
            outcome, message = "not-certified", str(exc)
        except Exception as exc:  # a raising query is counted, not fatal
            seconds = perf_counter() - t
            outcome = "raised"
            message = "".join(traceback.format_exception_only(exc)).strip()
        if tracer is not None:
            tracer.close(span)
        tally.record(i, seconds, outcome, message)
    samples.append(calibration.sample())
    tally.passes.append(perf_counter() - start)
    tally.calibration.append(samples)
    tally.scaled.append([seconds * calibration.factor(samples, i)
                         for i, seconds in enumerate(tally.rounds[-1])])


def run_for(seconds, queries, workloads, tracer=None):
    """Passes until the next one would overrun ``seconds`` (at least one)."""
    tally = Tally(queries)
    start = perf_counter()
    while True:
        run_pass(queries, workloads, tally, tracer,
                 first_id=len(tally.passes) * len(queries))
        elapsed = perf_counter() - start
        if elapsed + statistics.median(tally.passes) > seconds:
            return tally


def quartiles(values):
    values = sorted(values)
    if len(values) == 1:
        return {"n": 1, "q1": values[0], "median": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "q1": q1, "median": med, "q3": q3}


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def setup_samples(args, setup_self):
    """Set-up time in this process plus SETUP_PROBES fresh processes, each
    as (wall seconds, seconds rescaled to the reference host)."""
    samples = [setup_self]
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(tuple(
            json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


def measure(args, workloads, queries, setup_self, workdir):
    start = perf_counter()
    setup = setup_samples(args, setup_self)
    # the set-up probes count against the run's time, so a run takes
    # about --seconds however many probes it makes
    budget = args.seconds - (perf_counter() - start)
    untraced = run_for(budget - args.seconds / 2 if args.trace else budget,
                       queries, workloads)
    # the high-water mark before any spans are held
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = layer_report = None
    if args.trace:
        traced, layer_report = traced_run(args, workloads, workdir)

    t = untraced
    latency = t.per_query()
    pooled = t.pooled()     # p90 needs ten samples beyond it: see samples
    by_kind = t.by_kind()
    e2e = {
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "pass_s": (sum(latency), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    latencies = {
        # the same two times as measured, before rescaling
        "setup_wall_s": (statistics.median(w for w, _ in setup), "s"),
        "pass_wall_sum_s": (sum(t.per_query(t.rounds)), "s"),
        "query_p50_ms": (1000 * statistics.median(pooled), "ms"),
        "query_p90_ms": (1000 * p90(pooled), "ms"),
        # a kind the workload never issues reads 0
        **{name: (1000 * statistics.median(by_kind[k]) if k in by_kind else 0.0,
                  "ms") for k, name in KIND_METRICS.items()},
        "failed_frac": (t.failed / t.attempted, "frac"),
    }
    if args.trace:
        metrics = {**layer_report["metrics"], **latencies, "trace.overhead": (
            sum(traced.per_query()) / sum(latency), "ratio")}
    else:
        metrics = e2e

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(),
        "correct": t.wrong == 0 and (traced is None or traced.wrong == 0),
        "attempted": t.attempted,
        "failed": t.failed,
        "failures": t.failures,
        "executions": t.executions,
        "failed_executions": t.failed_executions,
        "queries_per_pass": len(queries),
        "latency_s_by_pass": t.rounds,
        "calibration_s_by_pass": t.calibration,
        "end_to_end": {k: {"value": v, "unit": u}
                       for k, (v, u) in {**e2e, **latencies}.items()},
        "samples": {
            "setup_s": quartiles([s for _, s in setup]),
            "setup_wall_s": quartiles([w for w, _ in setup]),
            "calibration_ms": quartiles(
                [1000 * v for pass_ in t.calibration for v in pass_]),
            "pass_wall_s": quartiles(t.passes),
            "query_ms": quartiles([1000 * v for v in pooled]),
            "query_median_ms": quartiles([1000 * v for v in latency]),
            **{f"{k}_ms": quartiles([1000 * v for v in vals])
               for k, vals in sorted(by_kind.items())},
        },
    }
    if args.trace:
        result["traced"] = {
            "pass_wall_s": quartiles(traced.passes),
            "attempted": traced.attempted,
            "failed": traced.failed,
            **layer_report["detail"],
        }
    write_result(args, result)
    print_table(result, metrics)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_run(args, workloads, workdir):
    import tracing

    tracer = tracing.Tracer()
    tracer.instrument()
    try:
        # the traced set-up rebuilds the inputs so market.build is seen
        queries = workloads.build(args.workload, args.seed,
                                  os.path.join(workdir, "traced"))
        tally = run_for(args.seconds / 2, queries, workloads, tracer)
    finally:
        tracer.restore()
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.npz")
    tracer.dump(spans_path)
    n_passes = len(tally.passes)
    leaves = [q.leaves for q in queries] * n_passes  # by query id
    return tally, layer_metrics(tracer, leaves, n_passes, len(queries),
                                spans_path)


def layer_metrics(tracer, leaves, n_passes, per_pass, spans_path):
    layers, sizes, growth, setup = tracer.summarize(leaves, n_passes)
    counts = {k: v / n_passes for k, v in tracer.counts.items()}

    def calls(name):
        return layers.get(name, {}).get("calls", 0.0)

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ("linprog.exact", "linprog.float", "treelp", "convex.support",
                 "convex.project", "market.leaf_probabilities",
                 "utility.conjugate", "primal.solve", "primal.feasible",
                 "dual.solve", "dual.support_alpha", "dual.min_support",
                 "conditions"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("linprog.exact", "linprog.float"):
        m[f"{name}.cells"] = (counts.get((name, "cells"), 0.0), "count")
    m["linprog.float.highs_attempts_per_call"] = (ratio(
        counts.get(("linprog.float", "highs_attempts"), 0.0),
        calls("linprog.float")), "ratio")
    m["linprog.float.exact_fallbacks"] = (tracer.exact_fallbacks() / n_passes,
                                          "count")
    m["treelp.calls_per_query"] = (calls("treelp") / per_pass, "calls/query")
    m["market.build.self_s"] = (
        setup.get("market.build", {}).get("self_s", 0.0) + self_s("market.build"),
        "s")
    iters = counts.get(("primal.solve", "iterations"), 0.0)
    m["primal.solve.iterations"] = (iters, "count")
    m["primal.solve.ms_per_iteration"] = (ratio(1000 * self_s("primal.solve"),
                                                iters), "ms")
    m["primal.solve.optimal_frac"] = (ratio(
        counts.get(("primal.solve", "optimal"), 0.0), calls("primal.solve")),
        "frac")
    m["dual.solve.evals"] = (counts.get(("dual.solve", "evals"), 0.0), "count")
    m["dual.solve.attained_frac"] = (ratio(
        counts.get(("dual.solve", "attained"), 0.0), calls("dual.solve")), "frac")
    m["dual.slsqp.self_s"] = (self_s("dual.slsqp"), "s")
    m["dual.objective.calls"] = (calls("dual.objective"), "count")
    m["dual.min_support.per_superhedge"] = (ratio(
        tracer.children_count("dual.superhedge", "dual.min_support") / n_passes,
        calls("dual.superhedge")), "ratio")
    m["verify.xbar.self_s"] = (self_s("verify.xbar"), "s")
    m["verify.xbar.feasibility_lps"] = (ratio(
        tracer.children_count("verify.xbar", "primal.feasible") / n_passes,
        calls("verify.xbar")), "count")
    m["verify.link.self_s"] = (self_s("verify.link"), "s")
    m["verify.link.dual_solves"] = (ratio(
        tracer.children_count("verify.link", "dual.solve") / n_passes,
        calls("verify.link")), "count")
    m["cli.self_s"] = (self_s("cli"), "s")
    m["reporting.emit.self_s"] = (self_s("reporting.emit"), "s")
    m["reporting.bytes"] = (counts.get(("reporting.emit", "bytes"), 0.0), "bytes")
    for name, slope in growth.items():
        m[f"{name}.growth"] = (slope if slope is not None else 0.0, "slope")
    return {"metrics": m, "detail": {
        "per_pass_layers": layers,
        "setup_layers": setup,
        "per_size_self_s": sizes,
        "growth": growth,
        "missing_layers": tracer.missing,
        "spans": len(tracer.start),
        "spans_file": os.path.relpath(spans_path, ROOT),
    }}


# ---------------------------------------------------------------------------
# provenance and output


def provenance():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "condual_exact": "unset",
        "condual_commit": git_commit(),
        "condual_source_sha256": source_digest(),
        "platform": platform.platform(),
        "started_unix": time.time(),
    }


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None  # an exported checkout: the source digest identifies it
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "condual", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def write_result(args, result):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, default=str)


def print_table(result, metrics):
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  queries {result['attempted']}  "
          f"failed {result['failed']}  correct {result['correct']}")
    for name, stats in result["samples"].items():
        print(f"  {name:<18} n={stats['n']:<4} q1={stats['q1']:.6g}  "
              f"median={stats['median']:.6g}  q3={stats['q3']:.6g}")
    for label, message in sorted(result["failures"].items()):
        print(f"  failed: {label}: {message}")
    shown = {**{k: (v["value"], v["unit"]) for k, v in result["end_to_end"].items()},
             **metrics}
    for name, (value, unit) in shown.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    missing = result.get("traced", {}).get("missing_layers")
    if missing:
        print(f"  missing layers (their metrics read 0): {', '.join(missing)}")
    growth = result.get("traced", {}).get("per_size_self_s", {})
    for layer, cells in growth.items():
        row = "  ".join(f"{k}:{v['self_s_per_call'] * 1000:.3g}ms"
                        for k, v in cells.items())
        print(f"  self time per call by leaves, {layer}: {row}")
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
