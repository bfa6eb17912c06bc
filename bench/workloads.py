"""Workload plans, set-up, correctness checks and the command passes.

A pass is the list of CLI commands one workload runs, in order.  The same
pass function drives both views: `ChildRunner` runs each command as
`python -m datex.cli ...` in a fresh interpreter (what a user waits for),
and `InProcessRunner` calls `datex.cli.main(argv)` in this process (the
traced view).  Every command's output is checked; a failed check is
recorded against the command and never skipped.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from pathlib import Path
from time import perf_counter

import ladder

GAP_TOL = "1/100"
CHILD_TIMEOUT_S = 120
SIM_SEEDS = 8
CODEGEN_MAX_DENOMINATOR = 64   # the CLI default; raised only when L needs more

# workload -> rungs as (kind, m, instances), plus solve's iteration budget.
# Budgets sit far below what any rung needs to reach the gap tolerance, so
# a pass does the same number of iterations on every seed.  How much work
# one draw takes varies, and the benchmark's runs differ in seed, so the
# costly rungs hold many instances: at linear m=24 the rank work (rows x
# columns summed) of one draw varies by 13% (standard deviation over mean)
# at one iteration and by 18% at three, so 24 draws at one iteration vary
# by 3% per seed where 10 at three varied by 7.5%; on the pipeline, the
# simplex pivots of one linear m=8 draw vary by 26% and one draw in six
# needs a scheme of 2 or 3 chunks.
# At 200 iterations the entropy memo of a raw m=32 draw holds 23k-40k masks,
# between the 21.8k and 43.7k at which the dict doubles; at 300 some draws
# cross 43.7k, and at 100 (14.5k-25k) some cross 21.8k, and the peak RSS of
# a pass then jumps on some seeds only.  So solve-raw keeps 200 iterations,
# and its distinct masks per seed vary by 6% (8 draws at m=32: 5%).
PLANS = {
    "solve-raw": {"rungs": [("raw", 10, 1), ("raw", 16, 3), ("raw", 24, 4),
                            ("raw", 32, 4)],
                  "max_iters": 200},
    "solve-linear": {"rungs": [("linear", 10, 1), ("linear", 16, 2),
                               ("linear", 24, 24)],
                     "max_iters": 1},
    "pipeline": {"examples": ["example1.json", "example2.json", "example3.json"],
                 "rungs": [("raw", 6, 2), ("linear", 6, 2), ("raw", 8, 2),
                           ("linear", 8, 4)],
                 "verify_rung": ("raw", 13, 1)},
}

REFERENCE_MAX_M = 10   # the exact oracle's own size guard


@dataclass
class Inst:
    path: str
    m: int
    weights: list
    doc: dict = field(repr=False)
    reference: Fraction = None     # exact optimum, for m <= REFERENCE_MAX_M


@dataclass
class Setup:
    workload: str
    instances: list
    examples: list
    verify: list                   # (Inst, rates string, expect feasible)
    workdir: Path


@dataclass
class Outcome:
    kind: str                      # CLI subcommand
    wall_s: float
    rss_mb: float
    error: str                     # None when every check passed
    example: bool = False


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def _instance(path, doc):
    m = len(doc["terminals"])
    w = doc.get("weights") or [1] * m
    return Inst(str(path), m, [Fraction(x) for x in w], doc)


def _draw(seed, kind, m, index, workdir):
    """Ladder instance `index` of rung (kind, m), written to workdir."""
    doc = ladder.draw(seed, kind, m, index)
    path = workdir / f"{kind}-m{m}-{index}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return _instance(path, doc)


def _verify_vectors(inst):
    """A feasible and an infeasible rate vector for a raw instance, built
    from ownership alone.  Sending everything one owns is always feasible.
    For the user l lacking most, H(X_M | X_l) = N - |owned by l| > 0;
    scaling the feasible vector until the cut of every terminal but l
    carries half a symbol less than that violates the cut."""
    owned = [len(t["packets"]) for t in inst.doc["terminals"]]
    lack, l = max((inst.doc["packet_count"] - owned[u], u)
                  for u in inst.doc["users"])
    if lack == 0:
        raise ValueError(f"{inst.path}: every user owns every packet")
    factor = (Fraction(lack) - Fraction(1, 2)) / (sum(owned) - owned[l])
    feasible = ",".join(str(o) for o in owned)
    infeasible = ",".join(str(o * factor) for o in owned)
    return [(inst, feasible, True), (inst, infeasible, False)]


def setup(workload, seed, root, workdir):
    """Instance files and warm caches for one workload."""
    plan = PLANS[workload]
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    instances = [_draw(seed, kind, m, i, workdir)
                 for kind, m, count in plan["rungs"] for i in range(count)]
    examples, verify = [], []
    for name in plan.get("examples", []):
        path = root / "instances" / name
        with open(path, encoding="utf-8") as fh:
            examples.append(_instance(path, json.load(fh)))
    if "verify_rung" in plan:
        kind, m, count = plan["verify_rung"]
        for i in range(count):
            verify += _verify_vectors(_draw(seed, kind, m, i, workdir))
    warm_up(root, workdir)
    return Setup(workload, instances, examples, verify, workdir)


def add_references(setup, datex_cli):
    """The exact optimum of every solve instance the exact LP can take, for
    the dual <= optimum <= primal check.  Kept out of `setup`: the LP's
    pivot count, and so its time, varies sixfold between seeds."""
    from datex.oracle import build_lp, solve_exact
    for inst in setup.instances:
        if setup.workload != "pipeline" and inst.m <= REFERENCE_MAX_M:
            parsed = datex_cli.instance_from_dict(inst.doc)
            inst.reference = solve_exact(build_lp(parsed)).value


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def warm_up(root, workdir):
    """Compile datex to bytecode and check that the child interpreter
    imports it from this checkout."""
    env = child_env(root)
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(root / "src" / "datex")],
                   check=True, env=env, cwd=workdir, timeout=CHILD_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    out = subprocess.run([sys.executable, "-c",
                          "import datex.cli; print(datex.cli.__file__)"],
                         check=True, env=env, cwd=workdir, capture_output=True,
                         text=True, timeout=CHILD_TIMEOUT_S).stdout.strip()
    if not Path(out).resolve().is_relative_to((root / "src").resolve()):
        raise RuntimeError(f"child imports datex from {out}, not from {root}")


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

class ChildRunner:
    """Each command in a fresh interpreter, one at a time, started by
    spawner.py (see there why) which reports wall time and peak RSS, and
    the time of its reference loop, run just before the command; `ref_s`
    sums those since the caller last reset it."""

    def __init__(self, root, workdir):
        self.ref_s = 0.0
        self.out_path = str(workdir / "child.out")
        self.err_path = str(workdir / "child.err")
        self.spawner = subprocess.Popen(
            [sys.executable, "-S", str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(root), cwd=workdir)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.spawner.stdin.close()
        self.spawner.stdout.close()
        self.spawner.wait(timeout=CHILD_TIMEOUT_S)

    def run(self, argv):
        request = [[sys.executable, "-m", "datex.cli", *argv],
                   self.out_path, self.err_path]
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        pid = json.loads(self.spawner.stdout.readline())["pid"]
        timer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
        timer.start()
        try:
            reply = json.loads(self.spawner.stdout.readline())
        finally:
            timer.cancel()
            timer.join()
        self.ref_s += reply["ref_s"]
        with open(self.out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(self.err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return (reply["status"], stdout, stderr, reply["wall_s"],
                reply["maxrss_kb"] / 1024)


class InProcessRunner:
    """`datex.cli.main(argv)` in this process, output captured.  With a
    tracer, each command is an op whose root span is `cli.main`."""

    def __init__(self, datex_cli, tracer=None):
        self.cli = datex_cli
        self.tracer = tracer

    def _main(self, argv):
        try:
            return self.cli.main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception:
            traceback.print_exc()
            return None

    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            if self.tracer is None:
                rc = self._main(argv)
            else:
                self.tracer.op += 1
                rc = self.tracer.call("cli.main", self._main, (argv,), {})
        return rc, out.getvalue(), err.getvalue(), perf_counter() - t0, 0.0


# ---------------------------------------------------------------------------
# Checks: each returns an error message, or None when the output is right
# ---------------------------------------------------------------------------

class CheckError(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise CheckError(msg)


def _parse(rc, stdout, stderr, allowed_rc):
    _require("Traceback" not in stderr, "traceback on stderr")
    _require(rc in allowed_rc, f"exit code {rc}, expected one of {allowed_rc}")
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckError(f"stdout is not JSON: {exc}") from exc


def _objective(weights, rates):
    return sum((w * Fraction(r) for w, r in zip(weights, rates)), Fraction(0))


def check_solve(res, inst, max_iters):
    out = _parse(*res[:3], (0, 1))
    rc = res[0]
    _require((rc == 0) == out["converged"], "exit code disagrees with converged")
    primal = Fraction(out["objective"])
    dual = Fraction(out["dual_objective"])
    gap = Fraction(out["gap"])
    _require(dual <= primal, "dual bound above primal value")
    _require(gap == primal - dual, "gap is not primal - dual")
    _require(primal == _objective(inst.weights, out["rates"]),
             "objective is not the weighted sum of the rates")
    _require(0 < out["iterations"] <= max_iters, "iterations outside the budget")
    if out["converged"]:
        _require(gap <= Fraction(GAP_TOL), "converged above the gap tolerance")
    else:
        _require(out["iterations"] == max_iters, "stopped early without converging")
    if inst.reference is not None:
        _require(dual <= inst.reference <= primal,
                 "exact optimum outside [dual, primal]")
    return out


def check_oracle(res, inst):
    out = _parse(*res[:3], (0,))
    _require(all(Fraction(r) >= 0 for r in out["rates"]), "negative rate")
    _require(Fraction(out["value"]) == _objective(inst.weights, out["rates"]),
             "value is not the weighted sum of the rates")
    return out


def check_verify(res, feasible, objective=None):
    out = _parse(*res[:3], (0,) if feasible else (1,))
    _require(out["feasible"] is feasible, f"feasible should be {feasible}")
    if feasible:
        _require(out["violations"] == [], "feasible but violations listed")
    else:
        _require(out["violations"], "infeasible but no violation listed")
        _require(all(Fraction(v["provided"]) < Fraction(v["required"])
                     for v in out["violations"]),
                 "a listed violation is not short")
    if objective is not None:
        _require(Fraction(out["objective"]) == objective, "objective changed")
    return out


def check_codegen(res, scheme, rates, value):
    """codegen wrote its scheme to the file `scheme`, not to stdout."""
    _require(res[1] == "", "output on stdout despite -o")
    try:
        text = scheme.read_text(encoding="utf-8")
    except OSError as exc:
        raise CheckError(f"no scheme file: {exc}") from exc
    out = _parse(res[0], text, res[2], (0,))
    _require([Fraction(r) for r in out["rates"]] == [Fraction(r) for r in rates],
             "scheme rates differ from the requested rates")
    _require(Fraction(out["objective"]) == value, "scheme cost is not the optimum")
    return out


def check_simulate(res):
    out = _parse(*res[:3], (0,))
    _require(out["ok"] is True, "simulation failed")
    _require(out["runs"] == SIM_SEEDS and out["successes"] == SIM_SEEDS,
             "not every simulated run succeeded")
    return out


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

@dataclass
class PassResult:
    wall_s: float = 0.0
    outcomes: list = field(default_factory=list)
    iterations: int = 0
    gap_sum: Fraction = Fraction(0)

    @property
    def failed(self):
        return sum(o.error is not None for o in self.outcomes)


class _Pass:
    def __init__(self, runner):
        self.runner = runner
        self.result = PassResult()

    def op(self, kind, argv, check, *check_args, example=False):
        """Run one command and check it; returns the parsed output, or
        None when the check failed."""
        res = self.runner.run([kind, *argv])
        error, out = None, None
        try:
            out = check(res, *check_args)
        except (CheckError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            error = f"{kind} {' '.join(argv)}: {exc}"
        self.result.outcomes.append(Outcome(kind, res[3], res[4], error, example))
        return out

    def skipped(self, kind, why):
        """A command that could not run because an earlier one failed."""
        self.result.outcomes.append(Outcome(kind, 0.0, 0.0, why))


def _solve_pass(setup, runner):
    p = _Pass(runner)
    budget = PLANS[setup.workload]["max_iters"]
    for inst in setup.instances:
        out = p.op("solve", [inst.path, "--gap-tol", GAP_TOL,
                             "--max-iters", str(budget)],
                   check_solve, inst, budget)
        if out is not None:
            p.result.iterations += out["iterations"]
            p.result.gap_sum += Fraction(out["gap"])
    return p.result


def _chain(p, inst, workdir, example):
    """oracle -> verify on its rates -> codegen on its rates -> simulate."""
    out = p.op("oracle", [inst.path], check_oracle, inst, example=example)
    if out is None:
        for kind in ("verify", "codegen", "simulate"):
            p.skipped(kind, f"{inst.path}: oracle failed")
        return
    value, rates = Fraction(out["value"]), out["rates"]
    joined = ",".join(rates)
    p.op("verify", [inst.path, "--rates", joined], check_verify, True, value,
         example=example)
    chunks = lcm(*(Fraction(r).denominator for r in rates))
    scheme = workdir / "scheme.json"
    scheme.unlink(missing_ok=True)
    out = p.op("codegen", [inst.path, "--rates", joined, "--max-denominator",
                           str(max(CODEGEN_MAX_DENOMINATOR, chunks)),
                           "-o", str(scheme)],
               check_codegen, scheme, rates, value, example=example)
    if out is None:
        p.skipped("simulate", f"{inst.path}: codegen failed")
        return
    p.op("simulate", [str(scheme), "--seeds", str(SIM_SEEDS)], check_simulate,
         example=example)


def _pipeline_pass(setup, runner):
    p = _Pass(runner)
    for inst in setup.examples:
        _chain(p, inst, setup.workdir, True)
    for inst in setup.instances:
        _chain(p, inst, setup.workdir, False)
    for inst, rates, feasible in setup.verify:
        p.op("verify", [inst.path, "--rates", rates], check_verify, feasible)
    return p.result


def run_pass(setup, runner):
    t0 = perf_counter()
    if setup.workload == "pipeline":
        result = _pipeline_pass(setup, runner)
    else:
        result = _solve_pass(setup, runner)
    result.wall_s = perf_counter() - t0
    return result
