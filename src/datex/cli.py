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
strings.  Each objective, value and gap, and the rates of solve and
oracle, is followed by its float twin `<key>_float`; the rates of verify
and codegen and verify's violations have none.

Exit codes: 0 success, 1 infeasible / failed verification / not
converged, 2 malformed input, usage error, an output that cannot be
written, input beyond a size guard, an entropy table that is not
grounded, monotone and submodular, an entropy-table instance (codegen,
graph), or an instance whose observations do not span every packet
(codegen).  Every exit 2 prints one "error: ..." line on stderr.
"""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import contextmanager, suppress
from fractions import Fraction
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Sequence

from .dual import solve
from .gf import Matrix, is_int, make_field
from .greedy import check_rate_domain, violated_cuts
from .instance import Instance, InfeasibleInstanceError
from .netcode import (DesignFailureError, IncompleteSourceError,
                      InfeasibleRatesError, TransmissionScheme,
                      assemble_scheme, build_multicast_graph,
                      design_transmissions, graph_to_dot, rationalize,
                      simulate_exchange, verify_decodability)
from .oracle import build_lp, solve_exact
from .source import (LinearSource, RawSource, SizeLimitError, TabularSource,
                     mask_to_set, raw_source)

__all__ = [
    "CLIError",
    "parse_instance",
    "instance_from_dict",
    "serialize_instance",
    "scheme_from_dict",
    "serialize_scheme",
    "main",
    "run",
]

FORMAT_VERSION = 1


class CLIError(Exception):
    """Malformed input or bad usage; reported on stderr with exit code 2."""


# ---------------------------------------------------------------------------
# Rational parsing / printing
# ---------------------------------------------------------------------------

def _frac(value: Any, where: str) -> Fraction:
    """A rational from JSON: int, "p/q" / decimal string, or float, whose
    magnitude and denominator in lowest terms are below 2^256.  The first
    bound keeps the float mirror of every printed sum of products finite;
    the second keeps a tiny value's exact arithmetic as small."""
    if isinstance(value, bool):
        raise CLIError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, float) and not math.isfinite(value):
        raise CLIError(f"{where}: {value} is not a rational")
    if isinstance(value, (int, float)):
        x = Fraction(value)
    elif isinstance(value, str):
        try:
            x = _parse_rational(value.strip(), where)
        except (ValueError, ZeroDivisionError) as exc:
            raise CLIError(f"{where}: {value!r} is not a rational") from exc
    else:
        raise CLIError(f"{where}: expected a rational, "
                       f"got {type(value).__name__}")
    if abs(x) >= 1 << 256:
        raise CLIError(f"{where}: magnitude must be below 2^256")
    if x.denominator >= 1 << 256:
        raise CLIError(f"{where}: denominator must be below 2^256")
    return x


def _parse_rational(text: str, where: str) -> Fraction:
    """Fraction(text), with a decimal exponent judged before Fraction
    expands 10**exponent.  A mantissa p/q written in d characters has |p|
    and q below 10^d, so times 10^k its magnitude exceeds 10^(k-d) and its
    denominator in lowest terms exceeds 10^(-k-d): past |k| = d + 78 one
    of them is above 10^78 > 2^256, which _frac refuses anyway."""
    mantissa, e, exponent = text.lower().partition("e")
    if (not e or "/" in mantissa or mantissa != mantissa.rstrip()
            or exponent != exponent.strip()):
        return Fraction(text)   # no exponent, or no decimal Fraction reads
    scale, k = Fraction(mantissa), int(exponent)
    if not scale:
        return scale            # zero, whatever the exponent
    if abs(k) > len(mantissa) + 78:
        part = "magnitude" if k > 0 else "denominator"
        raise CLIError(f"{where}: {part} must be below 2^256")
    return Fraction(text)


def _frac_str(x: Fraction) -> str:
    return str(Fraction(x))


def _frac_list(xs) -> List[str]:
    return [_frac_str(x) for x in xs]


def _exact(**values) -> Dict[str, Any]:
    """Each exact value, a rational or a list of them, as "p/q" text under
    its own key and then as floats under `<key>_float`."""
    out: Dict[str, Any] = {}
    for key, x in values.items():
        many = isinstance(x, (list, tuple))
        out[key] = _frac_list(x) if many else _frac_str(x)
        out[f"{key}_float"] = [float(v) for v in x] if many else float(x)
    return out


def _parse_rates_flag(text: str, instance: Instance) -> List[Fraction]:
    """--rates for verify, codegen and graph: m rationals on the rate
    region's domain (none negative, none nonzero off the transmitters)."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != instance.m:
        raise CLIError(f"--rates expects {instance.m} comma-separated values, "
                       f"got {len(parts)}")
    rates = [_frac(p, f"--rates entry {i}") for i, p in enumerate(parts)]
    try:
        return check_rate_domain(instance, rates)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc


def _require_positive(value: Optional[int], flag: str) -> None:
    if value is not None and value < 1:
        raise CLIError(f"{flag} must be >= 1")


# ---------------------------------------------------------------------------
# Instance and scheme files
# ---------------------------------------------------------------------------
# The entry readers raise ValueError naming the key.  A key is absent only
# when it is missing: a JSON null is a value of the wrong type.

def _entry(data: dict, key: str, where: str = "") -> Any:
    """data[key], which must be present; a missing one is named by its path."""
    if key not in data:
        raise ValueError(f"missing '{where}{key}'")
    return data[key]


def _int(value: Any, key: str, low: Optional[int] = None) -> int:
    """A JSON integer (not a bool, float or string), at least `low`."""
    if not is_int(value):
        raise ValueError(f"{key} must be an integer, "
                         f"not {type(value).__name__}")
    if low is not None and value < low:
        raise ValueError(f"{key} must be >= {low}")
    return value


def _int_list(value: Any, key: str) -> List[int]:
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list")
    # gf.is_int at C speed: a JSON integer's type is int (a bool's is bool)
    if not set(map(type, value)) <= {int}:
        for v in value:
            _int(v, f"{key} entry")
    return value


def _rows(value: Any, key: str) -> List[list]:
    """A matrix as a list of rows; `Matrix.from_rows` judges the entries."""
    if not isinstance(value, list) or not all(isinstance(r, list)
                                              for r in value):
        raise ValueError(f"{key} must be a list of rows")
    return value


def _field(value: Any, key: str, bare: bool = False) -> tuple:
    """A field {"characteristic": p, "degree": k} as (p, k); an instance's
    (`bare`) may be a bare prime p, and its degree defaults to 1."""
    if bare and is_int(value):
        return value, 1
    if not isinstance(value, dict):
        raise ValueError(f"{key} must be an object"
                         + (" or an integer" if bare else ""))
    char = _int(_entry(value, "characteristic", f"{key}."),
                f"{key}.characteristic")
    degree = value.get("degree", 1) if bare else _entry(value, "degree",
                                                       f"{key}.")
    return char, _int(degree, f"{key}.degree", 1)


def _field_to_dict(field) -> dict:
    return {"characteristic": field.p, "degree": field.degree}


def _check_version(data: dict) -> None:
    if _int(_entry(data, "format_version"), "format_version") != FORMAT_VERSION:
        raise ValueError(f"format_version must be {FORMAT_VERSION}")


def instance_from_dict(data: Any, where: str = "instance") -> Instance:
    """Validate a parsed JSON document into an Instance.

    Exactly one of the three source forms must be present: "terminals"
    with matrix rows, "terminals" with packet index lists, or
    "entropy_table" with 2^m joint entropies indexed by subset bitmask
    (terminal 0 = least significant bit).  A fault, or a library refusal
    (ValueError), becomes a CLIError naming `where`, or the terminal of a
    bad row; an InfeasibleInstanceError passes as itself.
    """
    at = where   # the place a fault names; for a bad row, its terminal
    try:
        if not isinstance(data, dict):
            raise ValueError("top level must be an object")
        _check_version(data)
        has_terminals = "terminals" in data
        if has_terminals == ("entropy_table" in data):
            raise ValueError("give exactly one of 'terminals' or "
                             "'entropy_table'")
        if not has_terminals:
            m = _int(_entry(data, "terminal_count"), "terminal_count", 1)
            table = data["entropy_table"]
            # no list holds 2^63 values, so 2^m is computed for m < 63 only
            if not isinstance(table, list) or len(table) != 1 << min(m, 63):
                size = f"2^{m} = {1 << m}" if m < 63 else "2^terminal_count"
                raise ValueError(f"entropy_table must list {size} values "
                                 f"indexed by subset bitmask")
            model = TabularSource([_frac(v, f"{where}: entropy_table[{i}]")
                                   for i, v in enumerate(table)])
        else:
            terminals = data["terminals"]
            if not isinstance(terminals, list) or not terminals:
                raise ValueError("terminals must be a non-empty list")
            forms = set()
            for i, t in enumerate(terminals):
                if not isinstance(t, dict):
                    raise ValueError(f"terminals[{i}] must be an object")
                given = {"rows", "packets"} & t.keys()
                if len(given) != 1:
                    raise ValueError(f"terminals[{i}] must give exactly one "
                                     f"of 'rows' or 'packets'")
                forms |= given
            if len(forms) > 1:
                raise ValueError("terminals mix 'rows' and 'packets' forms")
            N = _int(_entry(data, "packet_count"), "packet_count", 0)
            # a matrix instance states its field; GF(2) is the packets default
            field = make_field(*_field(
                _entry(data, "field") if forms == {"rows"}
                else data.get("field", 2), "field", bare=True))
            if forms == {"rows"}:
                mats = []
                for i, t in enumerate(terminals):
                    rows = _rows(t["rows"], f"terminals[{i}].rows")
                    at = f"{where}: terminals[{i}]"
                    mats.append(Matrix.from_rows(field, rows, ncols=N))
                at = where
                model = LinearSource(field, N, mats)
            else:
                ownership = [_int_list(t["packets"], f"terminals[{i}].packets")
                             for i, t in enumerate(terminals)]
                model = raw_source(ownership, N, field)   # checks the range

        users = _int_list(_entry(data, "users"), "users")
        weights = None
        if "weights" in data:
            raw = data["weights"]
            if not isinstance(raw, list) or len(raw) != model.m:
                raise ValueError(f"weights must list {model.m} rationals")
            weights = [_frac(v, f"{where}: weights[{i}]")
                       for i, v in enumerate(raw)]
        transmitters = (_int_list(data["transmitters"], "transmitters")
                        if "transmitters" in data else None)
        return Instance(model, users, weights, transmitters)
    except InfeasibleInstanceError:
        raise
    except ValueError as exc:
        raise CLIError(f"{at}: {exc}") from exc


def _read_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CLIError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # bad JSON, bytes that are not UTF-8, or nesting too deep to decode
        raise CLIError(f"{path}: invalid JSON: {exc}") from exc


def parse_instance(path: str) -> Instance:
    """Load and validate a JSON instance file."""
    return instance_from_dict(_read_json(path), where=path)


def serialize_instance(instance: Instance) -> dict:
    """Instance back to the JSON document form (round-trips the entropy
    oracle exactly; raw-packet instances keep the packets form)."""
    model = instance.model
    out: Dict[str, Any] = {"format_version": FORMAT_VERSION}
    if isinstance(model, TabularSource):
        out["terminal_count"] = model.m
        out["entropy_table"] = [_frac_str(model.joint_entropy(mask))
                                for mask in range(1 << model.m)]
    else:   # every other model carries observation matrices
        out["field"] = _field_to_dict(model.field)
        out["packet_count"] = model.N
        if isinstance(model, RawSource):
            form = [("packets", model.packets(i)) for i in range(model.m)]
        else:
            form = [("rows", [list(r) for r in M.rows()])
                    for M in model.matrices]
        out["terminals"] = [{"name": f"t{i}", key: value}
                            for i, (key, value) in enumerate(form)]
    out["users"] = list(instance.user_list)
    out["weights"] = _frac_list(instance.weights)
    if len(instance.transmitters) != instance.m:
        out["transmitters"] = sorted(instance.transmitters)
    return out


def scheme_from_dict(data: Any, instance: Instance) -> TransmissionScheme:
    """A scheme block's JSON shape; `assemble_scheme` judges the parts
    against the instance."""
    if not isinstance(data, dict):
        raise ValueError("scheme must be an object")
    L = _int(_entry(data, "L"), "L")
    chunk_rates = _int_list(_entry(data, "chunk_rates"), "chunk_rates")
    matrices = _entry(data, "matrices")
    if not isinstance(matrices, dict):
        raise ValueError("matrices must map terminals to rows")
    ext_degree = _int(_entry(data, "ext_degree"), "ext_degree")
    _int(data.get("seed", 0), "seed")    # always 0; checked, not kept
    attempt = _int(data.get("attempt", 0), "attempt")
    coding_field = _field(_entry(data, "coding_field"), "coding_field")
    # keys "0".."m-1" name terminals; any other is -1, which has no rate
    terminal = {str(i): i for i in range(instance.m)}
    return assemble_scheme(
        instance, L, chunk_rates, ext_degree, coding_field,
        {terminal.get(key, -1): _rows(rows, f"matrices['{key}']")
         for key, rows in matrices.items()}, attempt)


def serialize_scheme(scheme: TransmissionScheme) -> dict:
    """A scheme back to its block's JSON form; `seed` is always 0."""
    return {
        "L": scheme.L,
        "chunk_rates": list(scheme.chunk_rates),
        "ext_degree": scheme.ext_degree,
        "coding_field": _field_to_dict(scheme.coding_field),
        "matrices": {str(i): [list(r) for r in M.rows()]
                     for i, M in sorted(scheme.matrices.items())},
        "seed": 0,
        "attempt": scheme.attempt,
    }


def _load_scheme(path: str) -> TransmissionScheme:
    data = _read_json(path)
    if not isinstance(data, dict) or data.get("kind") != "scheme":
        raise CLIError(f"{path}: not a scheme file (kind != 'scheme')")
    try:
        _check_version(data)
        doc = _entry(data, "instance")
    except ValueError as exc:
        raise CLIError(f"{path}: {exc}") from exc
    instance = instance_from_dict(doc, where=f"{path}: instance")
    try:
        return scheme_from_dict(_entry(data, "scheme"), instance)
    except SizeLimitError:
        raise   # a size guard, not a malformed block: main reports it as is
    except (TypeError, ValueError) as exc:
        raise CLIError(f"{path}: bad scheme block: {exc}") from exc


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

@contextmanager
def _writing(target: str):
    """Report an OSError raised inside (a full disk, a closed pipe, a
    missing directory) as `cannot write <target>`, exit 2."""
    try:
        yield
    except OSError as exc:
        raise CLIError(f"cannot write {target}: {exc}") from exc


def _write_out(text: str, out_path: Optional[str]) -> None:
    """Write text to out_path and close it, or to stdout and flush it, so
    that nothing a command writes is pending when main returns."""
    with _writing(out_path or "stdout"):
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        elif sys.stdout is None:   # the process started with no stdout
            raise CLIError("cannot write stdout: it is closed")
        else:
            sys.stdout.write(text)
            sys.stdout.flush()


def _emit(record: dict, out_path: Optional[str]) -> None:
    _write_out(json.dumps(record, indent=2) + "\n", out_path)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    _require_positive(args.max_iters, "--max-iters")
    kwargs: Dict[str, Any] = {}
    if args.max_iters is not None:
        kwargs["max_iterations"] = args.max_iters
    if args.gap_tol is not None:
        kwargs["gap_tolerance"] = _frac(args.gap_tol, "--gap-tol")
        if kwargs["gap_tolerance"] <= 0:
            raise CLIError("--gap-tol must be positive")
    instance = parse_instance(args.instance)

    if not args.trace:
        sol = solve(instance, **kwargs)
    else:
        with _writing(args.trace), open(args.trace, "w",
                                        encoding="utf-8") as trace_fh:
            def trace(n, primal, dual, gap):
                trace_fh.write(json.dumps({
                    "n": n, "primal": float(primal), "dual": float(dual),
                    "gap": float(gap)}) + "\n")

            sol = solve(instance, trace=trace, **kwargs)
    _emit({
        "format_version": FORMAT_VERSION,
        "command": "solve",
        "converged": sol.converged,
        "iterations": sol.iterations,
        **_exact(objective=sol.primal_objective,
                 dual_objective=sol.dual_objective, gap=sol.gap,
                 rates=sol.rates),
    }, args.output)
    return 0 if sol.converged else 1


def _cmd_oracle(args) -> int:
    instance = parse_instance(args.instance)
    res = solve_exact(build_lp(instance))
    _emit({
        "format_version": FORMAT_VERSION,
        "command": "oracle",
        **_exact(value=res.value, rates=res.rates),
        "simplex_pivots": res.pivots,
    }, args.output)
    return 0


def _cmd_verify(args) -> int:
    instance = parse_instance(args.instance)
    rates = _parse_rates_flag(args.rates, instance)
    violations = [{
        "receiver": l,
        "cut": list(mask_to_set(cut)),
        "required": _frac_str(need),
        "provided": _frac_str(got),
    } for l, (cut, need, got) in violated_cuts(rates, instance).items()]
    objective = instance.objective(rates)
    _emit({
        "format_version": FORMAT_VERSION,
        "command": "verify",
        "feasible": not violations,
        **_exact(objective=objective),
        "rates": _frac_list(rates),
        "violations": violations,
    }, args.output)
    return 0 if not violations else 1


def _scheme_chunks(args, instance: Instance) -> tuple:
    """Chunk count L and chunk rates for codegen/graph: --rates if given,
    else the exact oracle's, rationalized.  Both commands need observation
    matrices, which an entropy table lacks."""
    if isinstance(instance.model, TabularSource):
        raise CLIError(f"{args.command} needs observation matrices (a 'rows' "
                       f"or 'packets' instance), not an entropy table")
    rates = (_parse_rates_flag(args.rates, instance) if args.rates
             else solve_exact(build_lp(instance)).rates)
    return rationalize(rates, instance, args.max_denominator)


def _cmd_codegen(args) -> int:
    _require_positive(args.max_denominator, "--max-denominator")
    instance = parse_instance(args.instance)
    L, chunks = _scheme_chunks(args, instance)
    scheme = design_transmissions(instance, chunks, L)
    if not verify_decodability(scheme).ok:
        raise RuntimeError("the designed scheme failed its decodability re-check")
    rates = [Fraction(c, L) for c in chunks]
    objective = instance.objective(rates)
    _emit({
        "format_version": FORMAT_VERSION,
        "kind": "scheme",
        "command": "codegen",
        "instance": serialize_instance(instance),
        **_exact(objective=objective),
        "rates": _frac_list(rates),
        "total_chunk_symbols": scheme.total_symbols,
        "scheme": serialize_scheme(scheme),
    }, args.output)
    return 0


def _cmd_simulate(args) -> int:
    _require_positive(args.seeds, "--seeds")
    scheme = _load_scheme(args.scheme)
    result = simulate_exchange(scheme, args.seeds)
    _emit({
        "format_version": FORMAT_VERSION,
        "command": "simulate",
        "runs": result.runs,
        "successes": result.all_decoded,
        "per_user_successes": {str(l): n
                               for l, n in sorted(result.decoded.items())},
        "ok": result.ok,
    }, args.output)
    return 0 if result.ok else 1


def _cmd_graph(args) -> int:
    _require_positive(args.max_denominator, "--max-denominator")
    instance = parse_instance(args.instance)
    L, chunks = _scheme_chunks(args, instance)
    graph = build_multicast_graph(instance, chunks, L)
    _write_out(graph_to_dot(graph) + "\n", args.output)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

_REQUIRED = object()   # the default of a positional or flag that must be given
_HELP = ("-h", "--help")
_OUTPUT = ("--output", str, None, "write the result here instead of stdout")

# command -> (handler, positional, help, flags).  A flag is (name,
# converter, default, help) and sets the attribute its name spells
# (--max-iters -> args.max_iters); -o is short for --output.
_COMMANDS = {
    "solve": (_cmd_solve, "instance", "multi-receiver dual solver", (
        _OUTPUT,
        ("--max-iters", int, None, "stop after this many iterations"),
        ("--gap-tol", str, None, "stop once the duality gap is this small"),
        ("--trace", str, None, "write per-iteration JSON lines here"))),
    "oracle": (_cmd_oracle, "instance", "exact LP optimum and rates",
               (_OUTPUT,)),
    "verify": (_cmd_verify, "instance", "check a rate vector against every cut",
               (_OUTPUT, ("--rates", str, _REQUIRED, "r0,r1,... rationals"))),
    "codegen": (_cmd_codegen, "instance", "build and verify a coding scheme", (
        _OUTPUT,
        ("--rates", str, None, "rates to realize (default: the oracle's)"),
        ("--max-denominator", int, 64, "largest chunk count L"))),
    "simulate": (_cmd_simulate, "scheme", "run a scheme file on random draws", (
        _OUTPUT,
        ("--seeds", int, 100, "number of consecutive seeds to run"))),
    "graph": (_cmd_graph, "instance", "emit the multicast network as DOT", (
        _OUTPUT,
        ("--rates", str, None, "rates to draw (default: the oracle's)"),
        ("--max-denominator", int, 64, "largest chunk count L"))),
}


def _help(command: Optional[str] = None) -> str:
    if command is None:
        return "usage: datex COMMAND FILE [flags]\n\ncommands:\n" + "\n".join(
            f"  {name:<10}{spec[2]}" for name, spec in _COMMANDS.items())
    _, positional, text, flags = _COMMANDS[command]
    lines = [f"usage: datex {command} {positional} [flags]", "", text, "",
             f"  {positional:<20}the {positional} file (JSON)",
             f"  {'-h, --help':<20}show this help and exit"]
    for name, _, default, help_text in flags:
        note = (" (required)" if default is _REQUIRED else
                "" if default is None else f" (default: {default})")
        name = "-o, --output" if name == "--output" else name
        lines.append(f"  {name:<20}{help_text}{note}")
    return "\n".join(lines)


def _parse_args(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The command's arguments, or None once a help text is printed.  A
    flag's value is the text after '=', else the next token, even one that
    starts with '-'; order is free, and a repeated flag keeps its last."""
    if not argv:
        raise CLIError("the following arguments are required: command")
    command, *rest = argv
    if command in _HELP:
        _write_out(_help() + "\n", None)
        return None
    if command not in _COMMANDS:
        raise CLIError(f"argument command: invalid choice: {command!r} "
                       f"(choose from {', '.join(map(repr, _COMMANDS))})")
    _, positional, _, flags = _COMMANDS[command]
    convert = {name: conv for name, conv, _, _ in flags}
    values = {positional: _REQUIRED,
              **{name: default for name, _, default, _ in flags}}
    tokens = iter(rest)
    for token in tokens:
        if token in _HELP:
            _write_out(_help(command) + "\n", None)
            return None
        if not token.startswith("-"):
            if values[positional] is not _REQUIRED:
                raise CLIError(f"unrecognized arguments: {token}")
            values[positional] = token
            continue
        name, eq, value = token.partition("=")
        name = "--output" if name == "-o" else name
        if name not in convert:
            raise CLIError(f"unrecognized arguments: {token}")
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise CLIError(f"argument {token}: expected one argument")
        try:
            values[name] = convert[name](value)
        except ValueError:
            raise CLIError(f"argument {name}: invalid {convert[name].__name__} "
                           f"value: {value!r}") from None
    missing = [name for name, value in values.items() if value is _REQUIRED]
    if missing:
        raise CLIError("the following arguments are required: "
                       + ", ".join(missing))
    return SimpleNamespace(command=command, **{
        name.lstrip("-").replace("-", "_"): value
        for name, value in values.items()})


def _report(line: str) -> None:
    """Print a failure's one line on stderr.  A process started without
    stderr (print would put the line on stdout), or whose stderr fails,
    drops it; the exit code still tells."""
    if sys.stderr is not None:
        with suppress(OSError):
            print(line, file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit code.  Every file a command
    writes is closed, and stdout flushed, before main returns."""
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        return 0 if args is None else _COMMANDS[args.command][0](args)
    except (CLIError, SizeLimitError, IncompleteSourceError) as exc:
        _report(f"error: {exc}")
        return 2
    except InfeasibleInstanceError as exc:
        _report(f"infeasible instance: {exc}")
        return 1
    except (InfeasibleRatesError, DesignFailureError) as exc:
        _report(f"{args.command} failed: {exc}")
        return 1


def run() -> None:
    """The `datex` program: main() on sys.argv, then the end of the process
    without interpreter teardown, which frees nothing the exit does not
    and costs a short command about 10 ms (see the README)."""
    code = main()
    for stream in filter(None, (sys.stdout, sys.stderr)):   # None if closed
        try:
            stream.flush()
        except OSError:
            pass   # a failed stdout is reported by main; stderr cannot be
    os._exit(code)


if __name__ == "__main__":
    run()
