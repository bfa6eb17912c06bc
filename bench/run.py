"""The datex benchmark.

One run of one workload:

    python3 bench/run.py --workload solve-raw --seed 1 --seconds 30 --trace 0

  --trace 0  times every command of the workload as `python -m datex.cli`
             in a fresh interpreter, one child at a time, repeating whole
             passes for --seconds, and prints the end-to-end metrics.
             The gated pass time, pass_rel, is a pass's wall time over
             that of a fixed reference process timed before each command
             (see spawner.py), so that the host's drift cancels out;
             pass_s, the pass in seconds, is printed beside it.
  --trace 1  runs the same commands in this process, in rounds of an
             untraced pass and a pass with spans around every call between
             datex modules, and prints the per-layer metrics of the round
             with the median traced pass (its spans go to .bench_work/trace/).

Either way the last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines before it name every
metric with its unit.  Metric names, units and directions come from
BENCHMARK.json at the checkout root; workload rungs are in workloads.py
and instance families in ladder.py.

Every workload and trace mode for a list of seeds, written to one result
set, and the comparison of two result sets:

    python3 bench/run.py --report results.json --seeds 1,2,3
    python3 bench/run.py --compare bench/baseline.json results.json

Compare pairs the runs of the two sets by seed.  bench/baseline.json is
the result set of the commit that defined the benchmark (seeds 1-10,
30-s runs, on a shared 2-CPU host whose speed swings by up to 1.8x for
minutes at a time; rerun both sides on one machine before judging).

The program runs from the checkout's own src/ (PYTHONPATH); nothing needs
to be installed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

from workloads import (CHILD_TIMEOUT_S, PLANS, ChildRunner,  # noqa: E402
                       InProcessRunner, add_references, child_env, run_pass,
                       setup)

SETUPS = 5           # set-ups per run; setup_s is their median
IMPORT_PROBES = 5    # fresh interpreters that time the import
LAYERS = ("cli", "dual", "greedy", "source", "gf", "oracle", "netcode")

# Metrics the run prints and the report keeps besides those BENCHMARK.json
# lists, with (unit, better).  On the solve workloads the pass is the solve
# time, so it is reported once, as pass_s.  pass_s is in seconds of this
# host; BENCHMARK.json gates pass_rel instead, which the host's drift moves
# far less.
REPORTED = {
    "pass_s": ("s", "lower"),
    "solve_iters": ("count", "lower"),
    "solve_gap": ("symbols", "lower"),
    "oracle_s": ("s", "lower"),
    "verify_s": ("s", "lower"),
    "codegen_s": ("s", "lower"),
    "simulate_s": ("s", "lower"),
    "startup_p50_s": ("s", "lower"),
    "startup_p90_s": ("s", "lower"),
    "fail_ratio": ("ratio", "lower"),
}
PIPELINE_COMMANDS = ("oracle", "verify", "codegen", "simulate")


class BenchError(Exception):
    """The benchmark cannot run here; reported with exit code 2."""


def load_spec():
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def import_datex():
    """Import datex from this checkout's src/, and only from there."""
    src = ROOT / "src"
    if not (src / "datex" / "cli.py").is_file():
        raise BenchError(f"no datex sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import datex.cli
    if not Path(datex.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"datex imported from {datex.cli.__file__}, not {src}")
    return datex.cli


def quantile(values, q):
    """Quantile by statistics.quantiles' default method (n=100)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


# ---------------------------------------------------------------------------
# End-to-end run
# ---------------------------------------------------------------------------

def timed_run(workload, seed, seconds, workdir, cli):
    setup_times = []
    for _ in range(SETUPS):
        t0 = perf_counter()
        s = setup(workload, seed, ROOT, workdir)
        setup_times.append(perf_counter() - t0)
    add_references(s, cli)
    passes, rel = [], []
    with ChildRunner(ROOT, workdir) as runner:
        start = perf_counter()
        while True:   # stop where the next pass would end nearest `seconds`
            runner.ref_s = 0.0
            passes.append(run_pass(s, runner))
            rel.append(sum(o.wall_s for o in passes[-1].outcomes) / runner.ref_s)
            if perf_counter() - start + passes[-1].wall_s / 2 > seconds:
                break
    # pass_rel: each pass's command wall time over its reference time, the
    # median over the run's passes.  pass_s and the per-command sums below
    # are in seconds.  A pass runs the same commands in the same order.
    # Each command counts with its best wall time over the run's passes:
    # children land on whichever CPU is free, and on a shared host their
    # speeds differ by up to 1.5x from second to second, which a median
    # over a few passes does not smooth out.
    outcomes = [o for p in passes for o in p.outcomes]
    best = [min(p.outcomes[i].wall_s for p in passes)
            for i in range(len(passes[0].outcomes))]
    ran = [(o, b) for o, b in zip(passes[0].outcomes, best) if b > 0]
    failed = sum(o.error is not None for o in outcomes)
    pass_s = sum(b for _, b in ran)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "pass_s": pass_s,
        "pass_rel": statistics.median(rel),
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
        "fail_ratio": failed / len(outcomes),
    }
    startup = [b for o, b in ran if o.example]
    if workload == "pipeline":
        for kind in PIPELINE_COMMANDS:
            metrics[f"{kind}_s"] = sum(b for o, b in ran if o.kind == kind)
        metrics["startup_p50_s"] = quantile(startup, 50)
        metrics["startup_p90_s"] = quantile(startup, 90)
    else:
        metrics["solve_iters"] = passes[-1].iterations
        metrics["solve_gap"] = float(passes[-1].gap_sum)
    notes = [f"{len(passes)} passes of {len(best)} commands, each command at "
             f"its best pass; {SETUPS} set-ups; {len(startup)} commands on the "
             f"shipped examples",
             "pass wall over reference loop, per pass: "
             + " ".join(f"{r:.3f}" for r in rel)]
    errors = [o.error for o in outcomes if o.error]
    return metrics, len(outcomes), failed, notes, errors


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def import_seconds(workdir):
    """What `import datex.cli` adds to a fresh interpreter's start: the
    import timed inside the child, median of a few children.  Timing whole
    children and subtracting a bare start is noisier than the import."""
    code = ("from time import perf_counter as t; t0 = t(); import datex.cli; "
            "print(t() - t0)")
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], check=True,
                             env=child_env(ROOT), cwd=workdir,
                             capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S).stdout)
        for _ in range(IMPORT_PROBES))


def layer_metrics(tracer, traced, untraced):
    t = tracer
    c = t.counts
    solve_wall = sum(o.wall_s for o in untraced.outcomes if o.kind == "solve")
    js_calls = t.calls("source.joint_entropy_scaled")
    layer_self = {layer: t.layer_self_s(layer) for layer in LAYERS}
    m = {
        "dual.solve.calls": t.calls("dual.solve"),
        "dual.iterations": c["dual.iterations"],
        "dual.iter_per_s": c["dual.iterations"] / solve_wall if solve_wall else 0.0,
        "dual.solve.self_s": t.self_s("dual.solve"),
        "dual.gap_sum": float(traced.gap_sum),
        "greedy.chain.calls": t.calls("greedy.chain"),
        "greedy.chain.self_s": t.self_s("greedy.chain"),
        "greedy.violated_cuts.calls": t.calls("greedy.violated_cuts"),
        "greedy.violated_cuts.self_s": t.self_s("greedy.violated_cuts"),
        "greedy.cuts_checked": c["greedy.cuts_checked"],
        "source.calls": js_calls,
        "source.distinct_masks": c["source.distinct_masks"],
        "source.memo_hit_ratio": (1 - c["source.distinct_masks"] / js_calls
                                  if js_calls else 0.0),
        "gf.rank.calls": t.calls("gf.rank"),
        "gf.rank.s": t.total_s("gf.rank"),
        "gf.rank.cells": c["gf.rank.cells"],
        "gf.matmul.s": t.total_s("gf.matmul"),
        "gf.solve_linear.s": t.total_s("gf.solve_linear"),
        "gf.mat_vec.s": t.total_s("gf.mat_vec"),
        "gf.make_field.calls": t.calls("gf.make_field"),
        "oracle.build_lp.s": t.total_s("oracle.build_lp"),
        "oracle.rows": c["oracle.rows"],
        "oracle.simplex.s": t.total_s("oracle.simplex"),
        "oracle.pivots": c["oracle.pivots"],
        "netcode.rationalize.s": t.total_s("netcode.rationalize"),
        "netcode.design.self_s": t.self_s("netcode.design"),
        "netcode.design_attempts": c["netcode.design_attempts"],
        "netcode.verify_decodability.s": t.total_s("netcode.verify_decodability"),
        "netcode.simulate.self_s": t.self_s("netcode.simulate"),
        "cli.parse_instance.s": t.total_s("cli.parse_instance"),
        "cli.main.self_s": t.self_s("cli.main"),
        "bench.self_s": traced.wall_s - sum(layer_self.values()),
        "trace.traced_s": traced.wall_s,
        "trace.untraced_s": untraced.wall_s,
        "trace.overhead_s": traced.wall_s - untraced.wall_s,
    }
    for layer, s in layer_self.items():
        m[f"{layer}.self_s"] = s
    return m


def traced_run(workload, seed, seconds, workdir, cli):
    from spans import Tracer, install, uninstall

    s = setup(workload, seed, ROOT, workdir)
    add_references(s, cli)
    import_s = import_seconds(workdir)
    rounds, errors, attempted, failed = [], [], 0, 0
    start = perf_counter()
    while True:
        untraced = run_pass(s, InProcessRunner(cli))
        tracer = Tracer()
        try:
            saved = install(tracer)
        except LookupError as exc:
            raise BenchError(f"cannot trace: {exc}") from exc
        try:
            traced = run_pass(s, InProcessRunner(cli, tracer))
        finally:
            uninstall(saved)
        for p in (untraced, traced):
            attempted += len(p.outcomes)
            failed += p.failed
            errors += [o.error for o in p.outcomes if o.error]
        rounds.append((layer_metrics(tracer, traced, untraced), tracer))
        if perf_counter() - start + (untraced.wall_s + traced.wall_s) / 2 > seconds:
            break
    # Every metric comes from one round, the one whose traced pass is the
    # (lower) median, so that layer times add up within the same pass.
    rounds.sort(key=lambda r: r[0]["trace.traced_s"])
    m, tracer = rounds[(len(rounds) - 1) // 2]
    (WORK / "trace").mkdir(parents=True, exist_ok=True)
    tracer.dump(WORK / "trace" / f"{workload}-seed{seed}.jsonl")
    m["cli.import_s"] = import_s
    notes = [f"{len(rounds)} rounds of an untraced and a traced in-process "
             f"pass; every metric from the round with the median traced pass",
             f"tracing overhead {m['trace.overhead_s']:.3f} s on "
             f"{m['trace.untraced_s']:.3f} s untraced",
             f"of the {m['trace.traced_s']:.3f} s traced pass, the benchmark's "
             f"own code (checks, output capture) takes {m['bench.self_s']:.3f} s "
             f"and cli.main's self time, code inside a command outside every "
             f"wrapped call (argument parsing, JSON output), "
             f"{m['cli.main.self_s']:.3f} s"]
    return m, attempted, failed, notes, errors


# ---------------------------------------------------------------------------
# One run, report and compare
# ---------------------------------------------------------------------------

def definitions(spec):
    """name -> (unit, better, bound) for every metric the benchmark knows."""
    defs = {m["name"]: (m["unit"], m["better"], m.get("bound"))
            for m in spec["end_to_end"] + spec["per_layer"]}
    for name, (unit, better) in REPORTED.items():
        defs.setdefault(name, (unit, better, None))
    return defs


def measure(spec, workload, seed, seconds, trace):
    cli = import_datex()
    workdir = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    try:
        run = traced_run if trace else timed_run
        metrics, attempted, failed, notes, errors = run(
            workload, seed, seconds, workdir, cli)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    defs = definitions(spec)
    listed = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [n for n in listed if n not in metrics]
    if missing:
        raise BenchError(f"run produced no value for {missing}")
    return {
        "workload": workload, "seed": seed, "trace": int(trace),
        "notes": notes, "errors": errors,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": defs[n][0]} for n, v in metrics.items()},
        "listed": listed,
    }


def print_run(result):
    """Every metric by name and unit.  End-to-end metrics with a bound are
    marked *; a per-layer metric that reads 0 is marked as a layer this
    workload does not exercise."""
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}")
    for note in result["notes"]:
        print(f"  {note}")
    for err in result["errors"][:10]:
        print(f"  FAILED: {err}")
    print(f"  {result['attempted']} commands attempted, {result['failed']} failed")
    for name, mv in result["metrics"].items():
        mark = "*" if name in result["listed"] and not result["trace"] else " "
        idle = "  (not exercised)" if result["trace"] and mv["value"] == 0 else ""
        print(f"  {mark} {name:32s} {mv['value']:>14.6g} {mv['unit']}{idle}")


def result_line(result):
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: result["metrics"][n] for n in result["listed"]},
    })


def report(spec, out_path, seeds, seconds):
    runs = []
    for w in spec["workloads"]:
        for seed in seeds:
            for trace in (0, 1):
                result = measure(spec, w["name"], seed, seconds, trace)
                print_run(result)
                runs.append(result)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({
            "metrics": {n: {"unit": u, "better": b, "bound": bd}
                        for n, (u, b, bd) in definitions(spec).items()},
            "workloads": {w["name"]: {"why": w["why"], **PLANS[w["name"]]}
                          for w in spec["workloads"]},
            "seconds": seconds,
            "runs": runs,
        }, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out_path}")
    return all(r["correct"] for r in runs)


def verdict(a, b, better, bound):
    """better / worse / unchanged / unresolved for result set b against a.

    a and b map seed -> value; runs pair up by seed, so that how hard one
    seed's instances are does not count as spread.  Each pair gives the
    relative change of b against a (> 0: b is worse) and the quartile
    spread of these changes is the noise.  better: b wins at least 9 in
    10 pairs and the median change beats the spread.  worse: b loses 9 in
    10 pairs and the median change exceeds the bound (the spread where the
    metric has no bound).  unchanged: identical values, or a metric with a
    bound whose spread and median change both stay within it.  Otherwise
    unresolved."""
    seeds = sorted(a.keys() & b.keys())
    if not seeds:
        return "no common seeds"
    if all(a[s] == b[s] for s in seeds):
        return "unchanged"
    sign = 1 if better == "lower" else -1
    changes = [sign * (b[s] - a[s]) / (abs(a[s]) or 1.0) for s in seeds]
    change = statistics.median(changes)
    spread = quantile(changes, 75) - quantile(changes, 25)
    wins = sum(c < 0 for c in changes) / len(changes)
    losses = sum(c > 0 for c in changes) / len(changes)
    if wins >= 0.9 and -change > spread:
        return "better"
    if losses >= 0.9 and change > (spread if bound is None else bound):
        return "worse"
    if bound is not None and spread <= bound and change <= bound:
        return "unchanged"
    return "unresolved"


def compare(path_a, path_b):
    """Median and quartiles of each side, and the verdict, for every
    workload, trace mode and metric that both result sets hold."""
    sets = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as fh:
            sets.append(json.load(fh))
    defs = sets[0]["metrics"]
    print(f"{'workload':14s} {'metric':32s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s}  verdict")
    keys = sorted({(r["workload"], n) for r in sets[0]["runs"]
                   for n in r["metrics"]})
    for workload, name in keys:
        vals = [{r["seed"]: r["metrics"][name]["value"] for r in s["runs"]
                 if r["workload"] == workload and name in r["metrics"]}
                for s in sets]
        if not all(vals) or name not in defs:
            continue
        d = defs[name]
        cells = [f"{statistics.median(v.values()):.4g} "
                 f"[{quantile(list(v.values()), 25):.4g}, "
                 f"{quantile(list(v.values()), 75):.4g}]" for v in vals]
        if not any(v for side in vals for v in side.values()):
            result = "not exercised"
        else:
            result = verdict(*vals, d["better"], d["bound"])
        print(f"{workload:14s} {name:32s} {cells[0]:>30s} {cells[1]:>30s}  "
              f"{result}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", metavar="OUT",
                        help="run every workload, both trace modes, each seed")
    parser.add_argument("--seeds", default="1,2,3",
                        help="comma-separated seeds for --report")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --report result sets")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    try:
        spec = load_spec()
        seconds = args.seconds or spec["run_seconds"]
        if args.report:
            seeds = [int(s) for s in args.seeds.split(",")]
            return 0 if report(spec, args.report, seeds, seconds) else 1
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names or args.seed is None:
            parser.error(f"--workload (one of {', '.join(names)}) and --seed "
                         f"are required")
        result = measure(spec, args.workload, args.seed, seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print_run(result)
    print(result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
