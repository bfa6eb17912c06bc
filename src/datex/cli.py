"""Command-line front end.

Subcommands: solve (iterative multi-receiver solver), oracle (exact LP),
verify (check a rate vector against every receiver's cuts), codegen
(build a concrete transmission scheme), simulate (run a scheme on random
draws), graph (emit the multicast network as DOT text).

Instance files are JSON with a top-level format_version of 1 and exactly
one source description: per-terminal observation matrices ("rows"),
per-terminal packet ownership ("packets"), or a full joint-entropy table
("entropy_table").  Terminal 0 is the least significant bit in every
bitmask, and all indices are 0-based.  Rationals are written as "p/q"
strings; machine-readable output mirrors every exact value with a float.

Exit codes: 0 success, 1 infeasible / failed verification / not
converged, 2 malformed input, usage error, input beyond a size guard, an
entropy table that is not grounded, monotone and submodular, an
entropy-table instance (codegen, graph), or an instance whose
observations do not span every packet (codegen).  Every exit 2 prints one
"error: ..." line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence

from .dual import SolverConfig, StepSchedule, solve
from .gf import Matrix, make_field
from .greedy import check_rate_domain, tie_order, violated_cuts
from .instance import Instance, InfeasibleInstanceError
from .netcode import (DesignFailureError, IncompleteSourceError,
                      InfeasibleRatesError, build_multicast_graph,
                      design_transmissions, graph_to_dot, rationalize,
                      scheme_core_from_dict, scheme_core_to_dict,
                      simulate_exchange, verify_decodability)
from .oracle import build_lp, solve_exact
from .source import (LinearSource, RawSource, SizeLimitError, TabularSource,
                     mask_to_set, raw_source)

__all__ = [
    "CLIError",
    "parse_instance",
    "instance_from_dict",
    "serialize_instance",
    "main",
]

FORMAT_VERSION = 1


class CLIError(Exception):
    """Malformed input or bad usage; reported on stderr with exit code 2."""


# ---------------------------------------------------------------------------
# Rational parsing / printing
# ---------------------------------------------------------------------------

def _frac(value: Any, where: str) -> Fraction:
    """A rational from JSON: int, "p/q" / decimal string, or float."""
    if isinstance(value, bool):
        raise CLIError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise CLIError(f"{where}: {value} is not a rational")
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise CLIError(f"{where}: {value!r} is not a rational") from exc
    raise CLIError(f"{where}: expected a rational, got {type(value).__name__}")


def _frac_str(x: Fraction) -> str:
    return str(Fraction(x))


def _frac_list(xs) -> List[str]:
    return [_frac_str(x) for x in xs]


def _float_list(xs) -> List[float]:
    return [float(x) for x in xs]


def _parse_rates_flag(text: str, m: int) -> List[Fraction]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != m:
        raise CLIError(f"--rates expects {m} comma-separated values, got {len(parts)}")
    return [_frac(p, f"--rates entry {i}") for i, p in enumerate(parts)]


def _parse_theta(text: str) -> StepSchedule:
    """--theta "a,b,c" is the diminishing step a/(b + c*n); --theta
    "pow:a" is n**(-a)."""
    try:
        if text.startswith("pow:"):
            return StepSchedule.power(Fraction(text[len("pow:"):].strip()))
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 3:
            raise CLIError("--theta expects 'a,b,c' or 'pow:a'")
        a, b, c = (Fraction(p) for p in parts)
        return StepSchedule.harmonic(a, b, c)
    except CLIError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise CLIError(f"--theta: {exc}") from exc


def _parse_tie_break(text: str, m: int) -> tuple:
    try:
        order = tuple(int(p.strip()) for p in text.split(",") if p.strip())
        tie_order(m, order)   # indices in range, none repeated
    except ValueError as exc:
        raise CLIError(f"--tie-break: {exc}") from exc
    return order


# ---------------------------------------------------------------------------
# Instance files
# ---------------------------------------------------------------------------

def _parse_field(data: Any, where: str, override_char: Optional[int]):
    """A field descriptor: {"characteristic": p, "degree": w} or a bare prime."""
    if data is None:
        char, degree = 2, 1
    elif isinstance(data, int):
        char, degree = data, 1
    elif isinstance(data, dict):
        char = data.get("characteristic")
        degree = data.get("degree", 1)
        if not isinstance(char, int) or isinstance(char, bool):
            raise CLIError(f"{where}: field.characteristic must be an integer")
        if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
            raise CLIError(f"{where}: field.degree must be a positive integer")
    else:
        raise CLIError(f"{where}: field must be an object or an integer")
    if override_char is not None:
        char = override_char
    try:
        return make_field(char, degree)
    except ValueError as exc:
        raise CLIError(f"{where}: {exc}") from exc


def _require_int_list(data: Any, where: str) -> List[int]:
    if not isinstance(data, list) or any(
            not isinstance(v, int) or isinstance(v, bool) for v in data):
        raise CLIError(f"{where}: expected a list of integers")
    return list(data)


def instance_from_dict(data: Any, field_char: Optional[int] = None,
                       where: str = "instance") -> Instance:
    """Validate a parsed JSON document into an Instance.

    Exactly one of the three source forms must be present: "terminals"
    with matrix rows, "terminals" with packet index lists, or
    "entropy_table" with 2^m joint entropies indexed by subset bitmask
    (terminal 0 = least significant bit).
    """
    if not isinstance(data, dict):
        raise CLIError(f"{where}: top level must be an object")
    if data.get("format_version") != FORMAT_VERSION:
        raise CLIError(f"{where}: format_version must be {FORMAT_VERSION}")

    has_terminals = "terminals" in data
    has_table = "entropy_table" in data
    if has_terminals == has_table:
        raise CLIError(f"{where}: give exactly one of 'terminals' or "
                       f"'entropy_table'")

    if has_table:
        if field_char is not None:
            raise CLIError(f"{where}: --field-char does not apply to "
                           f"entropy-table instances")
        m = data.get("terminal_count")
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise CLIError(f"{where}: terminal_count must be a positive integer")
        table = data["entropy_table"]
        if not isinstance(table, list) or len(table) != 1 << m:
            raise CLIError(f"{where}: entropy_table must list 2^{m} = {1 << m} "
                           f"values indexed by subset bitmask")
        values = [_frac(v, f"{where}: entropy_table[{i}]")
                  for i, v in enumerate(table)]
        try:
            model = TabularSource(values)
        except ValueError as exc:
            raise CLIError(f"{where}: {exc}") from exc
    else:
        terminals = data["terminals"]
        if not isinstance(terminals, list) or not terminals:
            raise CLIError(f"{where}: terminals must be a non-empty list")
        forms = set()
        for i, t in enumerate(terminals):
            if not isinstance(t, dict):
                raise CLIError(f"{where}: terminals[{i}] must be an object")
            forms.add("rows" if "rows" in t else
                      "packets" if "packets" in t else "?")
        if "?" in forms:
            raise CLIError(f"{where}: every terminal needs 'rows' or 'packets'")
        if len(forms) > 1:
            raise CLIError(f"{where}: terminals mix 'rows' and 'packets' forms")
        N = data.get("packet_count")
        if not isinstance(N, int) or isinstance(N, bool) or N < 0:
            raise CLIError(f"{where}: packet_count must be a nonnegative "
                           f"integer")
        if forms == {"rows"}:
            if "field" not in data and field_char is None:
                raise CLIError(f"{where}: matrix instances must state a field")
            field = _parse_field(data.get("field"), where, field_char)
            mats = []
            for i, t in enumerate(terminals):
                rows = t["rows"]
                if not isinstance(rows, list):
                    raise CLIError(f"{where}: terminals[{i}].rows must be a list")
                rows = [_require_int_list(r, f"{where}: terminals[{i}].rows[{j}]")
                        for j, r in enumerate(rows)]
                try:
                    mats.append(Matrix.from_rows(field, rows, ncols=N))
                except ValueError as exc:
                    raise CLIError(f"{where}: terminals[{i}]: {exc}") from exc
            try:
                model = LinearSource(field, N, mats)
            except ValueError as exc:
                raise CLIError(f"{where}: {exc}") from exc
        else:
            field = _parse_field(data.get("field"), where, field_char)
            ownership = []
            for i, t in enumerate(terminals):
                idx = _require_int_list(t["packets"],
                                        f"{where}: terminals[{i}].packets")
                if any(not 0 <= j < N for j in idx):
                    raise CLIError(f"{where}: terminals[{i}].packets: index "
                                   f"out of range 0..{N - 1}")
                ownership.append(idx)
            model = raw_source(ownership, N, field)

    users = _require_int_list(data.get("users"), f"{where}: users")
    weights = None
    if data.get("weights") is not None:
        raw = data["weights"]
        if not isinstance(raw, list) or len(raw) != model.m:
            raise CLIError(f"{where}: weights must list {model.m} rationals")
        weights = [_frac(v, f"{where}: weights[{i}]") for i, v in enumerate(raw)]
    transmitters = None
    if data.get("transmitters") is not None:
        transmitters = _require_int_list(data["transmitters"],
                                         f"{where}: transmitters")
    try:
        return Instance(model, users, weights, transmitters)
    except InfeasibleInstanceError:
        raise
    except ValueError as exc:
        raise CLIError(f"{where}: {exc}") from exc


def _read_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CLIError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise CLIError(f"{path}: invalid JSON: {exc}") from exc


def parse_instance(path: str, field_char: Optional[int] = None) -> Instance:
    """Load and validate a JSON instance file."""
    return instance_from_dict(_read_json(path), field_char, where=path)


def serialize_instance(instance: Instance) -> dict:
    """Instance back to the JSON document form (round-trips the entropy
    oracle exactly; raw-packet instances keep the packets form)."""
    model = instance.model
    out: Dict[str, Any] = {"format_version": FORMAT_VERSION}
    if isinstance(model, RawSource):
        out["field"] = {"characteristic": model.field.p,
                        "degree": model.field.degree}
        out["packet_count"] = model.N
        out["terminals"] = [{"name": f"t{i}", "packets": sorted(model.ownership[i])}
                            for i in range(model.m)]
    elif isinstance(model, LinearSource):
        out["field"] = {"characteristic": model.field.p,
                        "degree": model.field.degree}
        out["packet_count"] = model.N
        out["terminals"] = [{"name": f"t{i}",
                             "rows": [list(r) for r in model.matrices[i].rows()]}
                            for i in range(model.m)]
    elif isinstance(model, TabularSource):
        out["terminal_count"] = model.m
        out["entropy_table"] = [_frac_str(model.joint_entropy(mask))
                                for mask in range(1 << model.m)]
    else:
        raise CLIError(f"cannot serialize source model kind {model.kind!r}")
    out["users"] = list(instance.user_list)
    out["weights"] = _frac_list(instance.weights)
    if len(instance.transmitters) != instance.m:
        out["transmitters"] = sorted(instance.transmitters)
    return out


def _load_scheme(path: str):
    data = _read_json(path)
    if not isinstance(data, dict) or data.get("kind") != "scheme":
        raise CLIError(f"{path}: not a scheme file (kind != 'scheme')")
    if data.get("format_version") != FORMAT_VERSION:
        raise CLIError(f"{path}: format_version must be {FORMAT_VERSION}")
    instance = instance_from_dict(data.get("instance"), where=f"{path}: instance")
    try:
        scheme = scheme_core_from_dict(data.get("scheme"), instance)
    except SizeLimitError:
        raise   # a size guard, not a malformed block: main reports it as is
    except (KeyError, TypeError, ValueError) as exc:
        raise CLIError(f"{path}: bad scheme block: {exc}") from exc
    return scheme


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

def _open_for_writing(path: str):
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise CLIError(f"cannot write {path}: {exc}") from exc


def _write_out(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with _open_for_writing(out_path) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(record: dict, out_path: Optional[str]) -> None:
    _write_out(json.dumps(record, indent=2) + "\n", out_path)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    instance = parse_instance(args.instance, args.field_char)
    kwargs: Dict[str, Any] = {}
    if args.theta:
        kwargs["schedule"] = _parse_theta(args.theta)
    if args.max_iters is not None:
        kwargs["max_iterations"] = args.max_iters
    if args.gap_tol is not None:
        kwargs["gap_tolerance"] = _frac(args.gap_tol, "--gap-tol")
    if args.tie_break:
        kwargs["tie_break"] = _parse_tie_break(args.tie_break, instance.m)
    try:
        config = SolverConfig(**kwargs)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc

    trace_fh = None
    trace_cb = None
    if args.trace:
        trace_fh = _open_for_writing(args.trace)

        def trace_cb(n, primal, dual, gap):
            trace_fh.write(json.dumps({
                "n": n, "primal": float(primal), "dual": float(dual),
                "gap": float(gap)}) + "\n")

    try:
        sol = solve(instance, config, trace=trace_cb)
    finally:
        if trace_fh is not None:
            trace_fh.close()
    _emit({
        "format_version": FORMAT_VERSION,
        "command": "solve",
        "converged": sol.converged,
        "iterations": sol.iterations,
        "objective": _frac_str(sol.primal_objective),
        "objective_float": float(sol.primal_objective),
        "dual_objective": _frac_str(sol.dual_objective),
        "dual_objective_float": float(sol.dual_objective),
        "gap": _frac_str(sol.gap),
        "gap_float": float(sol.gap),
        "rates": _frac_list(sol.rates),
        "rates_float": _float_list(sol.rates),
    }, args.output)
    return 0 if sol.converged else 1


def _cmd_oracle(args) -> int:
    instance = parse_instance(args.instance, args.field_char)
    res = solve_exact(build_lp(instance))
    _emit({
        "format_version": FORMAT_VERSION,
        "command": "oracle",
        "value": _frac_str(res.value),
        "value_float": float(res.value),
        "rates": _frac_list(res.rates),
        "rates_float": _float_list(res.rates),
        "simplex_pivots": res.pivots,
    }, args.output)
    return 0


def _cmd_verify(args) -> int:
    instance = parse_instance(args.instance, args.field_char)
    rates = _parse_rates_flag(args.rates, instance.m)
    violations = []
    for l in instance.user_list:
        try:
            cuts = violated_cuts(rates, instance, l)
        except ValueError as exc:  # rates off the region's domain, or too big
            raise CLIError(str(exc)) from exc
        for cut, need, got in cuts:
            violations.append({
                "receiver": l,
                "cut": list(mask_to_set(cut)),
                "required": _frac_str(need),
                "provided": _frac_str(got),
            })
    objective = instance.objective(rates)
    _emit({
        "format_version": FORMAT_VERSION,
        "command": "verify",
        "feasible": not violations,
        "objective": _frac_str(objective),
        "objective_float": float(objective),
        "rates": _frac_list(rates),
        "violations": violations,
    }, args.output)
    return 0 if not violations else 1


def _scheme_rates(args, instance: Instance):
    """Rates for codegen/graph: --rates if given, on the rate region's
    domain (exit 2 otherwise, as for verify), else the exact oracle.  Both
    commands need observation matrices, which an entropy table lacks."""
    if not isinstance(instance.model, LinearSource):
        raise CLIError(f"{args.command} needs observation matrices (a 'rows' "
                       f"or 'packets' instance), not an entropy table")
    if args.rates:
        try:
            return check_rate_domain(
                instance, _parse_rates_flag(args.rates, instance.m))
        except ValueError as exc:
            raise CLIError(str(exc)) from exc
    return list(solve_exact(build_lp(instance)).rates)


def _require_positive(value: Optional[int], flag: str) -> None:
    if value is not None and value < 1:
        raise CLIError(f"{flag} must be >= 1")


def _cmd_codegen(args) -> int:
    _require_positive(args.max_denominator, "--max-denominator")
    _require_positive(args.ext_degree, "--ext-degree")
    _require_positive(args.max_attempts, "--max-attempts")
    instance = parse_instance(args.instance, args.field_char)
    rates = _scheme_rates(args, instance)
    try:
        L, chunks = rationalize(rates, instance, args.max_denominator)
        scheme = design_transmissions(instance, chunks, L,
                                      ext_degree=args.ext_degree,
                                      seed=args.seed,
                                      max_attempts=args.max_attempts)
    except SizeLimitError:
        raise
    except IncompleteSourceError as exc:
        raise CLIError(str(exc)) from exc
    except (InfeasibleRatesError, DesignFailureError, ValueError) as exc:
        print(f"codegen failed: {exc}", file=sys.stderr)
        return 1
    if not verify_decodability(scheme).ok:
        raise RuntimeError("the designed scheme failed its decodability re-check")
    rates = [Fraction(c, L) for c in chunks]
    objective = instance.objective(rates)
    _emit({
        "format_version": FORMAT_VERSION,
        "kind": "scheme",
        "command": "codegen",
        "instance": serialize_instance(instance),
        "objective": _frac_str(objective),
        "objective_float": float(objective),
        "rates": _frac_list(rates),
        "total_chunk_symbols": scheme.total_symbols,
        "scheme": scheme_core_to_dict(scheme),
    }, args.output)
    return 0


def _cmd_simulate(args) -> int:
    scheme = _load_scheme(args.instance)
    runs = args.seeds
    if runs < 1:
        raise CLIError("--seeds must be >= 1")
    per_user = {l: 0 for l in scheme.instance.user_list}
    good = 0
    for s in range(args.seed, args.seed + runs):
        result = simulate_exchange(scheme, seed=s)
        good += result.ok
        for l, ok in result.successes.items():
            per_user[l] += ok
    _emit({
        "format_version": FORMAT_VERSION,
        "command": "simulate",
        "runs": runs,
        "successes": good,
        "per_user_successes": {str(l): n for l, n in sorted(per_user.items())},
        "ok": good == runs,
    }, args.output)
    return 0 if good == runs else 1


def _cmd_graph(args) -> int:
    _require_positive(args.max_denominator, "--max-denominator")
    instance = parse_instance(args.instance, args.field_char)
    rates = _scheme_rates(args, instance)
    try:
        L, chunks = rationalize(rates, instance, args.max_denominator)
    except SizeLimitError:
        raise
    except (InfeasibleRatesError, ValueError) as exc:
        print(f"graph failed: {exc}", file=sys.stderr)
        return 1
    graph = build_multicast_graph(instance, chunks, L)
    _write_out(graph_to_dot(graph) + "\n", args.output)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors become a CLIError (one stderr line, exit 2) instead of
    argparse's usage text; subcommand parsers inherit this class."""

    def error(self, message):
        raise CLIError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="datex",
        description="Optimal rate allocation and coded schemes for the "
                    "cooperative data exchange problem.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, field_char=True):
        p.add_argument("instance", help="instance file (JSON)")
        p.add_argument("-o", "--output", help="write the result here instead "
                                              "of stdout")
        if field_char:
            p.add_argument("--field-char", type=int, default=None,
                           help="override the field characteristic of a "
                                "matrix/packet instance")

    p = sub.add_parser("solve", help="iterative multi-receiver solver")
    common(p)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--gap-tol", default=None,
                   help="stop when the duality gap is at most this (rational)")
    p.add_argument("--theta", default=None,
                   help="step size: 'a,b,c' for a/(b+c*n), or 'pow:a' for n^-a")
    p.add_argument("--tie-break", default=None,
                   help="comma-separated terminal priority for equal weights")
    p.add_argument("--trace", default=None,
                   help="write per-iteration JSON lines here")

    p = sub.add_parser("oracle", help="exact LP optimum (rational arithmetic)")
    common(p)

    p = sub.add_parser("verify", help="check a rate vector against every cut")
    common(p)
    p.add_argument("--rates", required=True,
                   help="comma-separated per-terminal rates (rationals)")

    p = sub.add_parser("codegen", help="build and verify a transmission scheme")
    common(p)
    p.add_argument("--rates", default=None,
                   help="per-terminal rates to realize (default: exact oracle)")
    p.add_argument("--max-denominator", type=int, default=64)
    p.add_argument("--ext-degree", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-attempts", type=int, default=32)

    p = sub.add_parser("simulate", help="run a scheme file on random draws")
    p.add_argument("instance", metavar="scheme",
                   help="scheme file produced by codegen")
    p.add_argument("-o", "--output", help="write the result here instead of "
                                          "stdout")
    p.add_argument("--seeds", type=int, default=100,
                   help="number of consecutive seeds to run")
    p.add_argument("--seed", type=int, default=0, help="first seed")

    p = sub.add_parser("graph", help="emit the multicast network as DOT")
    common(p)
    p.add_argument("--rates", default=None,
                   help="per-terminal rates (default: exact oracle)")
    p.add_argument("--max-denominator", type=int, default=64)

    return parser


_COMMANDS = {
    "solve": _cmd_solve,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
    "codegen": _cmd_codegen,
    "simulate": _cmd_simulate,
    "graph": _cmd_graph,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:   # --help
        return int(exc.code or 0)
    except (CLIError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleInstanceError as exc:
        print(f"infeasible instance: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
