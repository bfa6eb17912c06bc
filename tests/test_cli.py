"""End-to-end tests for the command-line interface: instance-file parsing
and serialization, every subcommand's happy path, the documented exit
codes, and the solve -> verify and codegen -> simulate pipelines."""

import contextlib
import functools
import io
import json
import os
import re
import resource
import signal
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import datex.cli
from datex.cli import (CLIError, FORMAT_VERSION, instance_from_dict, main,
                       parse_instance, serialize_instance, serialize_scheme)
from datex import gf
from datex.instance import Instance, InfeasibleInstanceError
from datex.source import mask_to_set
from helpers import (example2_instance, example3_instance, ladder_draw,
                     ref_most_violated_cut, tabulate)

INSTANCES = Path(__file__).resolve().parents[1] / "instances"
GOLDEN = Path(__file__).resolve().parent / "golden"

EX1 = str(INSTANCES / "example1.json")
EX2 = str(INSTANCES / "example2.json")
EX3 = str(INSTANCES / "example3.json")


def _doc(**overrides):
    """A small well-formed matrix-form document to mutate in tests."""
    doc = {
        "format_version": 1,
        "field": 2,
        "packet_count": 2,
        "terminals": [{"rows": [[1, 0]]}, {"rows": [[0, 1]]},
                      {"rows": [[1, 1]]}],
        "users": [0],
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# Instance documents
# ---------------------------------------------------------------------------

def test_parse_shipped_instance_files():
    ex1 = parse_instance(EX1)
    assert ex1.user_list == (0,) and ex1.m == 6
    ex2 = parse_instance(EX2)
    assert ex2.user_list == (0, 1, 2)
    assert ex2.model.joint_entropy(0b000111) == 3  # GF(3): independent
    ex3 = parse_instance(EX3)
    assert ex3.model.N == 4 and ex3.user_list == (0, 1)


def _binary_example2(tmp_path) -> str:
    """Example 2's document with its field changed from GF(3) to GF(2)."""
    path = tmp_path / "example2-gf2.json"
    doc = json.loads(Path(EX2).read_text())
    doc["field"]["characteristic"] = 2
    path.write_text(json.dumps(doc))
    return str(path)


def test_binary_variant_of_example2_changes_entropies(tmp_path):
    binary = parse_instance(_binary_example2(tmp_path))
    assert binary.model.joint_entropy(0b000111) == 2  # GF(2): dependent


def test_packets_form_defaults_to_binary_field():
    inst = instance_from_dict({
        "format_version": 1,
        "packet_count": 2,
        "terminals": [{"packets": [0]}, {"packets": [1]}],
        "users": [0],
    })
    assert inst.model.field.q == 2
    assert inst.model.joint_entropy(0b11) == 2


def test_round_trip_all_three_forms(example2, example3):
    table_inst = Instance(tabulate(example2.model),
                          [0, 2], weights=[Fraction(1, 2)] * 6,
                          transmitters=[0, 1, 2, 3, 5])
    restricted = Instance(example3.model, [0, 1],
                          weights=[2, 1, Fraction(3, 2)])
    for inst in (example2, example3, table_inst, restricted):
        doc = json.loads(json.dumps(serialize_instance(inst)))
        back = instance_from_dict(doc)
        assert back.user_list == inst.user_list
        assert back.weights == inst.weights
        assert back.transmitters == inst.transmitters
        for mask in range(1 << inst.m):
            assert back.model.joint_entropy_scaled(mask) \
                * inst.model.entropy_denominator \
                == inst.model.joint_entropy_scaled(mask) \
                * back.model.entropy_denominator


def test_serialize_keeps_packet_ownership(example3):
    doc = serialize_instance(example3)
    assert [t["packets"] for t in doc["terminals"]] \
        == [[1, 2], [0, 1, 3], [0, 2]]
    assert "transmitters" not in doc  # everyone transmits by default


def test_document_validation_errors():
    cases = [
        _doc(format_version=2),
        {k: v for k, v in _doc().items() if k != "format_version"},
        _doc(entropy_table=[0, 1, 1, 2]),        # both source forms
        {"format_version": 1, "users": [0]},     # neither source form
        _doc(terminals=[{"rows": [[1, 0]]}, {"packets": [1]}]),  # mixed
        _doc(terminals=[{"nonsense": 1}]),
        _doc(terminals=[{"rows": [None]}]),      # a row that is not a list
        _doc(terminals=[{"rows": [[1, True]]}]),  # a bool is not an element
        _doc(packet_count=None),
        _doc(users=None),
        _doc(users=[0, 0]),                      # duplicate user
        _doc(users=[7]),
        _doc(weights=[1, 1]),                    # wrong length
        _doc(weights=[1, True, 1]),
        _doc(weights=["1/0", "1", "1"]),
        _doc(field={"characteristic": 4}),       # not a prime
        _doc(terminals=[{"packets": [0]}, {"packets": [2]}]),  # bad index
    ]
    for doc in cases:
        with pytest.raises(CLIError):
            instance_from_dict(doc)


@pytest.mark.parametrize("doc, message", [
    (_doc(terminals=[{"rows": [[1, 0]]}, {"rows": [[0, 2]]},
                     {"rows": [[1, 1]]}]),
     "instance: terminals[1]: 2 is not an element of GF(2)"),
    (_doc(terminals=[{"rows": [[1, 0], [1]]}, {"rows": [[0, 1]]},
                     {"rows": [[1, 1]]}]),
     "instance: terminals[0]: ragged rows"),
    (_doc(users=[0, 0]), "instance: duplicate user index"),
    (_doc(field={"characteristic": 4}),
     "instance: characteristic 4 is not prime"),
    ({"format_version": 1, "terminal_count": 2,
      "entropy_table": [0, 1, 1, 3], "users": [0, 1]},
     "instance: invalid entropy table: submodularity violated: H(0x1) + "
     "H(0x2) < H(0x3) + H(0x0)"),
], ids=["row-entry", "ragged-row", "duplicate-user", "field", "table"])
def test_library_refusals_name_the_document(doc, message):
    """A library ValueError becomes one CLIError naming the document, or
    the terminal whose rows it refused; a refusal after the rows names no
    terminal."""
    with pytest.raises(CLIError) as err:
        instance_from_dict(doc)
    assert str(err.value) == message


@pytest.mark.parametrize("packets, message", [
    ([[0], [2]], "terminals[1].packets: index out of range 0..1"),
    ([[-1], [1]], "terminals[0].packets: index out of range 0..1"),
    ([[0], [1, True]],
     "terminals[1].packets entry must be an integer, not bool"),
    ([[0.0], [1]], "terminals[0].packets entry must be an integer, not float"),
], ids=["too-large", "negative", "bool", "float"])
def test_packet_indices_are_checked_once(monkeypatch, capsys, tmp_path,
                                         packets, message):
    # one type test over the whole list and one range test per terminal,
    # not a Python-level call per index
    calls = []
    monkeypatch.setattr(datex.cli, "is_int",
                        lambda v: calls.append(v) or gf.is_int(v))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(dict(PACKETS_DOC, terminals=[
        {"packets": p} for p in packets])))
    assert main(["oracle", str(path)]) == 2
    assert _one_line_error(capsys) == f"error: {path}: {message}\n"
    wide = dict(PACKETS_DOC, packet_count=1000, terminals=[
        {"packets": list(range(0, 1000, 2))}, {"packets": list(range(1000))}])
    calls.clear()
    assert instance_from_dict(wide).model.row_counts == (500, 1000)
    assert len(calls) < 10, len(calls)


def test_table_document_validation():
    with pytest.raises(CLIError):
        instance_from_dict({"format_version": 1, "terminal_count": 2,
                            "entropy_table": [0, 1, 1], "users": [0]})
    with pytest.raises(CLIError):  # monotonicity violated -> hard error
        instance_from_dict({"format_version": 1, "terminal_count": 2,
                            "entropy_table": [0, 2, 1, 1], "users": [0]})


def test_infeasible_instance_document_raises_typed_error():
    doc = {
        "format_version": 1,
        "packet_count": 2,
        "terminals": [{"packets": [0]}, {"packets": [1]}, {"packets": [0]}],
        "users": [0],
        "transmitters": [2],
    }
    with pytest.raises(InfeasibleInstanceError):
        instance_from_dict(doc)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _read(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_oracle_command(tmp_path):
    out = tmp_path / "oracle.json"
    assert main(["oracle", EX1, "-o", str(out)]) == 0
    rec = _read(out)
    assert rec["command"] == "oracle"
    assert rec["value"] == "2" and rec["value_float"] == 2.0
    assert len(rec["rates"]) == 6


def test_oracle_writes_stdout(capsys):
    assert main(["oracle", EX3]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["value"] == "2"
    assert rec["rates"] == ["0", "1", "1"]


def test_verify_command(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", EX1, "--rates", "0,0,0,0,0,0",
                 "-o", str(out)]) == 1
    rec = _read(out)
    assert rec["feasible"] is False
    assert rec["violations"]
    first = rec["violations"][0]
    assert first["receiver"] == 0
    assert isinstance(first["cut"], list)
    assert Fraction(first["required"]) > Fraction(first["provided"])

    assert main(["verify", EX1, "--rates", "0,1,1,0,0,0",
                 "-o", str(out)]) == 0
    rec = _read(out)
    assert rec["feasible"] is True and rec["violations"] == []
    assert rec["objective"] == "2"


def test_verify_names_one_cut_per_receiver(tmp_path, capsys):
    """All-zero rates on raw m=12 (bench/ladder.py `draw(1, "raw", 12, 0)`)
    fail thousands of cuts; verify lists each short receiver once, with
    the most violated cut of the test-side enumeration."""
    doc = ladder_draw(1, "raw", 12)
    path = tmp_path / "raw_m12.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    inst, zero = instance_from_dict(doc), [0] * 12
    assert main(["verify", str(path), "--rates", ",".join("0" * 12)]) == 1
    rec = json.loads(capsys.readouterr().out)
    expected = []
    for l in inst.user_list:
        worst = ref_most_violated_cut(zero, inst, l)
        if worst:
            cut, need, got = worst
            expected.append({"receiver": l, "cut": list(mask_to_set(cut)),
                             "required": str(need), "provided": str(got)})
    assert rec["feasible"] is False and len(expected) == inst.k
    assert rec["violations"] == expected


def test_solve_command(tmp_path):
    out = tmp_path / "solve.json"
    assert main(["solve", EX2, "-o", str(out)]) == 0
    rec = _read(out)
    assert rec["converged"] is True
    assert rec["gap_float"] <= 1e-3
    assert abs(rec["objective_float"] - 2.25) <= 1e-3
    assert Fraction(rec["dual_objective"]) <= Fraction(9, 4) \
        <= Fraction(rec["objective"])


def test_solve_binary_variant(tmp_path):
    out = tmp_path / "solve2.json"
    assert main(["solve", _binary_example2(tmp_path), "-o", str(out)]) == 0
    rec = _read(out)
    assert abs(rec["objective_float"] - 2.25) <= 1e-3


def test_solve_nonconvergence_exit_code(tmp_path):
    out = tmp_path / "solve3.json"
    assert main(["solve", EX2, "--max-iters", "3", "-o", str(out)]) == 1
    assert _read(out)["converged"] is False


def test_solve_trace_and_knobs(tmp_path):
    out = tmp_path / "solve4.json"
    tracef = tmp_path / "trace.jsonl"
    assert main(["solve", EX2, "--max-iters", "25",
                 "--gap-tol", "1/1000000000",
                 "--trace", str(tracef), "-o", str(out)]) == 1
    rec = _read(out)
    assert rec["iterations"] == 25
    lines = tracef.read_text().splitlines()
    assert len(lines) == 25
    row = json.loads(lines[0])
    assert set(row) == {"n", "primal", "dual", "gap"}
    assert row["n"] == 1
    gaps = [json.loads(ln)["gap"] for ln in lines]
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))


def test_removed_solve_flags_exit_two(capsys):
    # the step size and the tie order are fixed, not flags
    for argv in (["--theta", "1,1,1"], ["--tie-break", "0"]):
        assert main(["solve", EX2, *argv]) == 2
        assert capsys.readouterr() == \
            ("", f"error: unrecognized arguments: {argv[0]}\n")


def test_solve_rejects_bad_flags(capsys):
    assert main(["solve", EX2, "--gap-tol", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_then_verify_pipeline(tmp_path):
    out = tmp_path / "solve.json"
    assert main(["solve", EX2, "-o", str(out)]) == 0
    rates = ",".join(_read(out)["rates"])
    assert main(["verify", EX2, "--rates", rates]) == 0


def test_codegen_then_simulate_pipeline(tmp_path, capsys):
    scheme = tmp_path / "scheme.json"
    assert main(["codegen", EX3, "-o", str(scheme)]) == 0
    rec = _read(scheme)
    assert rec["kind"] == "scheme"
    assert rec["objective"] == "2"
    assert rec["rates"] == ["0", "1", "1"]
    assert rec["total_chunk_symbols"] == 2
    assert rec["instance"]["users"] == [0, 1]
    assert main(["simulate", str(scheme), "--seeds", "100"]) == 0
    sim = json.loads(capsys.readouterr().out)
    assert sim["ok"] is True and sim["successes"] == 100
    assert sim["per_user_successes"] == {"0": 100, "1": 100}


def test_codegen_chunked_scheme(tmp_path, capsys):
    scheme = tmp_path / "scheme9.json"
    assert main(["codegen", EX2, "-o", str(scheme)]) == 0
    rec = _read(scheme)
    assert rec["objective"] == "9/4"
    assert rec["scheme"]["L"] == 4
    # the smallest ternary extension above 2 * 3 users * 3 packets * 4 chunks
    assert rec["scheme"]["coding_field"] == {"characteristic": 3, "degree": 4}
    assert main(["simulate", str(scheme), "--seeds", "20"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_simulate_eliminates_once_per_receiver_and_block(tmp_path, capsys,
                                                         monkeypatch):
    """simulate decodes a run's seeds with one `solve_linear` call per
    receiver and block of at most netcode._DECODE_BLOCK seeds, one
    right-hand-side column per seed, so no call grows with --seeds."""
    from datex import netcode
    scheme = tmp_path / "scheme.json"
    assert main(["codegen", EX2, "-o", str(scheme)]) == 0
    assert _read(scheme)["scheme"]["coding_field"]["degree"] == 4
    widths = []
    solve = netcode.solve_linear

    def counted(M, B):
        widths.append(B.ncols)
        return solve(M, B)
    monkeypatch.setattr(netcode, "solve_linear", counted)
    assert main(["simulate", str(scheme), "--seeds", "8"]) == 0
    assert widths == [8, 8, 8]                  # three receivers
    capsys.readouterr()
    widths.clear()
    assert main(["simulate", str(scheme), "--seeds", "1000"]) == 0
    assert max(widths) <= netcode._DECODE_BLOCK
    assert sum(widths) == 3 * 1000
    assert len(widths) == 3 * -(-1000 // netcode._DECODE_BLOCK)
    assert json.loads(capsys.readouterr().out)["per_user_successes"] == {
        "0": 1000, "1": 1000, "2": 1000}


def test_verify_ranks_no_cut(capsys, monkeypatch):
    """Checking every cut of a linear m=8 instance reads one walked lattice
    per receiver: the only point-query ranks are the instance's own
    decodability checks, H(X_M) and one per user."""
    from datex import source
    path = Path(__file__).resolve().parent / "golden" / "linear_m8.json"
    ranked = []
    point_rank = source.rank

    def counted(M):
        ranked.append(M)
        return point_rank(M)
    monkeypatch.setattr(source, "rank", counted)
    assert main(["verify", str(path), "--rates", "0,0,2,2,2,0,0,2"]) == 0
    k = len(_read(path)["users"])
    assert 1 <= len(ranked) <= 1 + k
    assert json.loads(capsys.readouterr().out)["feasible"] is True


def test_codegen_infeasible_rates(capsys):
    assert main(["codegen", EX3, "--rates", "0,0,1"]) == 1
    assert "codegen failed" in capsys.readouterr().err


def test_simulate_flags_deficient_scheme(tmp_path, capsys):
    scheme_path = tmp_path / "scheme.json"
    assert main(["codegen", EX3, "-o", str(scheme_path)]) == 0
    rec = _read(scheme_path)
    # sabotage the helper's coded row: all-zero symbols help nobody
    rows = rec["scheme"]["matrices"]["2"]
    rec["scheme"]["matrices"]["2"] = [[0] * len(r) for r in rows]
    scheme_path.write_text(json.dumps(rec))
    assert main(["simulate", str(scheme_path), "--seeds", "5"]) == 1
    sim = json.loads(capsys.readouterr().out)
    assert sim["ok"] is False
    assert sim["per_user_successes"]["1"] == 0


def test_simulate_rejects_bad_scheme_files(tmp_path, capsys):
    not_scheme = tmp_path / "x.json"
    not_scheme.write_text(json.dumps({"format_version": 1, "kind": "zebra"}))
    assert main(["simulate", str(not_scheme)]) == 2
    scheme_path = tmp_path / "scheme.json"
    assert main(["codegen", EX3, "-o", str(scheme_path)]) == 0
    rec = _read(scheme_path)
    rec["scheme"]["chunk_rates"] = [0, 2, 1]  # no longer matches matrices
    scheme_path.write_text(json.dumps(rec))
    assert main(["simulate", str(scheme_path)]) == 2
    capsys.readouterr()
    assert main(["simulate", str(scheme_path), "--seeds", "0"]) == 2


def _cap_memory(limit):
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_wide_rows_instance_costs_its_rank_not_its_width(tmp_path):
    # an echelon basis keys its kept rows by pivot column, so a hundred
    # million columns with no rows cost nothing; a pivot list as wide as
    # the matrix (800 MB here) fails under this 512 MiB cap
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "format_version": 1, "field": 2, "packet_count": 10 ** 8,
        "terminals": [{"rows": []}, {"rows": []}], "users": [0]}))
    proc = subprocess.run([sys.executable, "-m", "datex.cli", "oracle",
                           str(path)], capture_output=True, text=True,
                          preexec_fn=functools.partial(_cap_memory, 1 << 29))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == "0"


# ---------------------------------------------------------------------------
# Exit codes and packaging
# ---------------------------------------------------------------------------

def test_usage_errors_exit_two(tmp_path, capsys):
    assert main([]) == 2
    assert main(["frobnicate", EX1]) == 2
    capsys.readouterr()  # swallow argparse noise
    assert main(["oracle", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["oracle", str(bad)]) == 2
    bad.write_bytes(b"\xff\xfe{}")  # not UTF-8
    assert main(["oracle", str(bad)]) == 2
    assert main(["verify", EX1, "--rates", "1,2"]) == 2  # wrong arity
    capsys.readouterr()


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("other", [{"rows": [[0, 1]]}, {"packets": [1]}],
                         ids=["with-rows", "with-packets"])
def test_terminal_with_both_forms_exits_two(tmp_path, capsys, other):
    # neither form may win silently, whichever form the others use
    path = tmp_path / "both.json"
    path.write_text(json.dumps(_doc(
        terminals=[other, {"rows": [[1, 0]], "packets": [1]}], users=[0, 1])))
    assert main(["oracle", str(path)]) == 2
    assert "terminals[1] must give exactly one of 'rows' or 'packets'" \
        in _one_line_error(capsys)


def _one_packet_each(tmp_path, m):
    """m terminals, each holding a packet of its own; user 0."""
    doc = {"format_version": 1, "packet_count": m,
           "terminals": [{"packets": [i]} for i in range(m)], "users": [0]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    return path


# one guard, m <= 20, whether the rates come from --rates or the oracle
@pytest.mark.parametrize("command, extra", [
    ("oracle", []),
    ("verify", ["--rates", ",".join(["1"] * 21)]),
    ("codegen", []),
    ("codegen", ["--rates", ",".join(["1"] * 21)]),
], ids=["oracle", "verify", "codegen", "codegen-rates"])
def test_size_guards_exit_two(tmp_path, capsys, command, extra):
    path = _one_packet_each(tmp_path, 21)
    assert main([command, str(path), *extra]) == 2
    assert _one_line_error(capsys) == \
        "error: feasibility check limited to m <= 20\n"


def test_oracle_solves_past_ten_terminals(tmp_path, capsys):
    # the cut loop has no size guard of its own: user 0 lacks the ten
    # packets the others hold, one each
    assert main(["oracle", str(_one_packet_each(tmp_path, 11))]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == "10"
    assert out["rates"] == ["0"] + ["1"] * 10


# Two users over GF(1031) at L = 129 need a coding field above
# 2 * 2 * 2 * 129 = 1032 elements: GF(1031^2), past the field-size bound.
FIELD_1031_DOC = {"format_version": 1, "field": 1031, "packet_count": 2,
                  "terminals": [{"rows": [[1, 0]]}, {"rows": [[0, 1]]}],
                  "users": [0, 1]}


@pytest.mark.parametrize("argv, message", [
    (["codegen", EX1, "--max-denominator", "0"], "--max-denominator must be >= 1"),
    # the coding field, design seed and attempt budget are not flags
    (["codegen", EX3, "--ext-degree", "2"],
     "unrecognized arguments: --ext-degree"),
    (["codegen", EX3, "--max-attempts", "1"],
     "unrecognized arguments: --max-attempts"),
    (["codegen", EX3, "--seed", "0"], "unrecognized arguments: --seed"),
    (["simulate", str(GOLDEN / "example3.codegen.out"), "--seed", "1"],
     "unrecognized arguments: --seed"),
    (["codegen", "FIELD_1031", "--rates", "130/129,1",
      "--max-denominator", "129"],
     "field size 1062961 exceeds the supported bound 1048576"),
    # each flag is checked before the instance or scheme file is read
    (["simulate", "missing.json", "--seeds", "0"], "--seeds must be >= 1"),
    (["solve", "missing.json", "--max-iters", "0"], "--max-iters must be >= 1"),
    (["solve", "missing.json", "--gap-tol", "0"], "--gap-tol must be positive"),
    (["oracle", "missing.json", "--field-char", "4"],
     "unrecognized arguments: --field-char"),
], ids=["codegen-max-denominator", "codegen-ext-degree", "codegen-attempts",
        "codegen-seed", "simulate-seed", "codegen-field-size",
        "simulate-seeds", "solve-max-iters", "solve-gap-tol",
        "oracle-field-char"])
def test_codegen_usage_and_size_errors_exit_two(tmp_path, capsys, argv,
                                                message):
    path = tmp_path / "field1031.json"
    path.write_text(json.dumps(FIELD_1031_DOC))
    assert main([str(path) if a == "FIELD_1031" else a for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


# Four raw terminals; the helper 3 owns every packet and costs nothing.
HELPER_DOC = {"format_version": 1, "packet_count": 3,
              "terminals": [{"packets": [0]}, {"packets": [1]},
                            {"packets": [2]}, {"packets": [0, 1, 2]}],
              "users": [0, 1, 2], "weights": [1, 1, 1, 0]}


@pytest.mark.parametrize("argv, line", [
    (["codegen", "HELPER", "--rates", "1/61,1/44,0,3"],
     "codegen failed: chunk count 2684 exceeds max_denominator=64"),
    (["codegen", "HELPER", "--rates", "1/3,1/5,1/7,0"],
     "codegen failed: receiver 0: cut {1, 2, 3} is short by 58/35, more "
     "than snapping to the 1/64 grid can explain"),
    (["codegen", EX3, "--rates", "0,1,1"],
     "codegen failed: no decodable scheme in 1 attempts over GF(2)"),
], ids=["codegen-chunk-count", "codegen-infeasible", "codegen-design"])
def test_scheme_failures_exit_one_with_one_line(tmp_path, capsys, monkeypatch,
                                                argv, line):
    # one design attempt over the bare source field GF(2), whose first draw
    # misses; the other rows fail before any design
    from datex import netcode
    monkeypatch.setattr(netcode, "min_extension_degree", lambda *a: 1)
    monkeypatch.setattr(netcode, "_DESIGN_ATTEMPTS", 1)
    path = tmp_path / "helper.json"
    path.write_text(json.dumps(HELPER_DOC))
    assert main([str(path) if a == "HELPER" else a for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n"


def test_codegen_on_an_extension_source_field(tmp_path, capsys):
    """GF(4) observations embed into a larger coding field GF(2^(2t))."""
    doc = {"format_version": 1, "field": {"characteristic": 2, "degree": 2},
           "packet_count": 2,
           "terminals": [{"rows": [[1, 2]]}, {"rows": [[3, 1]]},
                         {"rows": [[1, 0], [0, 1]]}],
           "users": [0, 1]}
    path = tmp_path / "gf4.json"
    path.write_text(json.dumps(doc))
    scheme = tmp_path / "scheme.json"
    assert main(["codegen", str(path), "-o", str(scheme)]) == 0
    assert _read(scheme)["scheme"]["coding_field"]["degree"] > 2
    assert main(["simulate", str(scheme), "--seeds", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


@pytest.mark.parametrize("field", [True, False])
def test_boolean_field_exits_two(tmp_path, capsys, field):
    """A JSON boolean is not a bare prime: `true` is not characteristic 1."""
    path = tmp_path / "field.json"
    path.write_text(json.dumps(_doc(field=field)))
    assert main(["oracle", str(path)]) == 2
    assert "field must be an object or an integer" in _one_line_error(capsys)


def test_codegen_rejects_observations_short_of_all_packets(tmp_path, capsys):
    # packet 2 is owned by nobody: the joint observation has rank 2 < N = 3
    doc = {"format_version": 1, "field": {"characteristic": 2, "degree": 1},
           "packet_count": 3,
           "terminals": [{"packets": [0]}, {"packets": [1]},
                         {"packets": [0, 1]}],
           "users": [0, 1]}
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    assert main(["oracle", str(path)]) == 0
    capsys.readouterr()
    assert main(["codegen", str(path)]) == 2
    err = _one_line_error(capsys)
    assert "H(X_M) = 2 < N = 3" in err and "no field size" in err


def test_verify_rejects_rates_outside_the_domain(tmp_path, capsys):
    assert main(["verify", EX1, "--rates=-5,0,1,1,0,0"]) == 2
    assert "negative" in _one_line_error(capsys)
    path = tmp_path / "restricted.json"
    path.write_text(json.dumps(_doc(transmitters=[1, 2])))
    assert main(["verify", str(path), "--rates", "0,1,1"]) == 0
    capsys.readouterr()
    assert main(["verify", str(path), "--rates", "1,1,1"]) == 2
    assert "terminal 0 does not transmit" in _one_line_error(capsys)


@pytest.mark.parametrize("command", ["codegen"])
def test_scheme_commands_reject_rates_outside_the_domain(tmp_path, capsys,
                                                         command):
    """The same domain check, and exit code, as verify."""
    assert main([command, EX1, "--rates=-5,0,1,1,0,0"]) == 2
    assert "rate of terminal 0 is negative (-5)" in _one_line_error(capsys)
    # a negative rate that would snap to 0 on the 1/64 grid is still refused
    assert main([command, EX1, "--rates=-1/1000,1,1,0,0,0"]) == 2
    assert "negative" in _one_line_error(capsys)
    path = tmp_path / "restricted.json"
    path.write_text(json.dumps(_doc(transmitters=[1, 2])))
    assert main([command, str(path), "--rates", "1,1,1"]) == 2
    assert ("terminal 0 does not transmit but has rate 1"
            in _one_line_error(capsys))


TABLE_DOC = {"format_version": 1, "terminal_count": 3,
             "entropy_table": [0, 1, 1, 2, 1, 2, 2, 2], "users": [0, 1, 2]}


@pytest.mark.parametrize("command", ["codegen"])
def test_scheme_commands_reject_entropy_tables(tmp_path, capsys, command):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(TABLE_DOC))
    assert main(["oracle", str(path)]) == 0
    capsys.readouterr()
    assert main([command, str(path)]) == 2
    assert _one_line_error(capsys) == (
        f"error: {command} needs observation matrices (a 'rows' or "
        f"'packets' instance), not an entropy table\n")


@pytest.mark.parametrize("table", [
    [0, 0, 2, 2, 1, 1, 3, 4],   # solve certified 5 (optimum 6) at rates 0,3,2
    [0, 1, 2, 4, 2, 4, 2, 5],   # solve died on a weak-duality ArithmeticError
], ids=["false-certificate", "weak-duality-traceback"])
@pytest.mark.parametrize("argv", [["solve"], ["oracle"],
                                  ["verify", "--rates", "0,3,2"]],
                         ids=["solve", "oracle", "verify"])
def test_non_submodular_tables_exit_two(tmp_path, capsys, table, argv):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(dict(TABLE_DOC, entropy_table=table)))
    assert main([argv[0], str(path), *argv[1:]]) == 2
    assert "submodularity violated" in _one_line_error(capsys)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("corrupt, message", [
    (lambda s: s["matrices"].update({"9": [[0]]}),
     "matrix keys must be distinct terminals 0..5"),
    (lambda s: s.update(chunk_rates=[]),
     "chunk_rates must list 6 values, got 0"),
    (lambda s: s.update(matrices={}),
     "one matrix for each terminal with a nonzero chunk rate"),
    (lambda s: s["matrices"].update({"0": [[0]]}),
     "one matrix for each terminal with a nonzero chunk rate"),
    (lambda s: s.update(L=0), "L must be >= 1"),
    (lambda s: s.update(matrices=list(s["matrices"].values())),
     "matrices must map terminals to rows"),
    (lambda s: s.update(L=1.7), "L must be an integer, not float"),
    (lambda s: s.update(L="1"), "L must be an integer, not str"),
    (lambda s: s.update(L=True), "L must be an integer, not bool"),
    (lambda s: s.update(chunk_rates=[0, 1.6, 1, 0, 0, 0]),
     "chunk_rates entry must be an integer, not float"),
    (lambda s: s.update(chunk_rates="011000"), "chunk_rates must be a list"),
    (lambda s: s.update(chunk_rates=[0, 1, -1, 0, 0, 0]),
     "rate of terminal 2 is negative (-1)"),
    (lambda s: s.update(chunk_rates=[0, 1.5, 1, 0]),
     "chunk_rates entry must be an integer, not float"),
    (lambda s: s.update(ext_degree=2.0),
     "ext_degree must be an integer, not float"),
    (lambda s: s["coding_field"].update(characteristic="3"),
     "coding_field.characteristic must be an integer, not str"),
    (lambda s: s["coding_field"].update(degree="2"),
     "coding_field.degree must be an integer, not str"),
    (lambda s: s.update(seed=0.5), "seed must be an integer, not float"),
    (lambda s: s.update(attempt=False), "attempt must be an integer, not bool"),
    (lambda s: s["matrices"].update({"1": [[True]]}),
     "True is not an element of GF(3^2)"),
    (lambda s: s["matrices"].update({"01": s["matrices"].pop("1")}),
     "matrix keys must be distinct terminals 0..5"),
    (lambda s: s.pop("L"), "missing 'L'"),
    (lambda s: s.pop("chunk_rates"), "missing 'chunk_rates'"),
    (lambda s: s.pop("ext_degree"), "missing 'ext_degree'"),
    (lambda s: s.pop("coding_field"), "missing 'coding_field'"),
    (lambda s: s.pop("matrices"), "missing 'matrices'"),
    (lambda s: s["coding_field"].pop("degree"),
     "missing 'coding_field.degree'"),
    (lambda s: s.update(coding_field=5), "coding_field must be an object"),
    (lambda s: s["matrices"].update({"1": 5}),
     "matrices['1'] must be a list of rows"),
    (lambda s: s["matrices"].update({"1": [5]}),
     "matrices['1'] must be a list of rows"),
    (lambda s: s["matrices"].update({"1": [[0], [0, 0]]}),
     "terminal 1: ragged rows"),
], ids=["key-out-of-range", "empty-chunk-rates", "missing-matrices",
        "matrix-for-a-silent-terminal", "L-zero", "matrices-as-a-list",
        "L-float", "L-string", "L-bool", "chunk-rate-float",
        "chunk-rates-string", "chunk-rate-negative",
        "chunk-rate-float-before-length", "ext-degree-float",
        "characteristic-string", "degree-string", "seed-float", "attempt-bool",
        "matrix-entry-bool", "key-not-canonical", "no-L", "no-chunk-rates",
        "no-ext-degree", "no-coding-field", "no-matrices",
        "no-coding-field-degree", "coding-field-int", "matrix-int",
        "matrix-row-int", "ragged-matrix"])
def test_simulate_rejects_inconsistent_scheme_files(tmp_path, capsys, corrupt,
                                                    message):
    # fixed rates, so the corruptions do not hang on the oracle's vertex
    path = tmp_path / "scheme.json"
    assert main(["codegen", EX1, "--rates", "0,1,1,0,0,0",
                 "-o", str(path)]) == 0
    rec = _read(path)
    assert rec["scheme"]["chunk_rates"] == [0, 1, 1, 0, 0, 0]
    corrupt(rec["scheme"])
    path.write_text(json.dumps(rec))
    assert main(["simulate", str(path), "--seeds", "2"]) == 2
    assert message in _one_line_error(capsys)


def test_simulate_rejects_a_chunk_rate_off_the_transmitters(tmp_path, capsys):
    # terminal 5 may not transmit, so a scheme that has it send is refused
    # at load instead of being simulated as if it could
    inst_path, path = tmp_path / "restricted.json", tmp_path / "scheme.json"
    inst_path.write_text(json.dumps(
        dict(_read(Path(EX2)), transmitters=[0, 1, 2, 3, 4])))
    assert main(["codegen", str(inst_path), "-o", str(path)]) == 0
    rec = _read(path)
    assert rec["scheme"]["chunk_rates"][5] == 0
    assert main(["simulate", str(path), "--seeds", "3"]) == 0
    capsys.readouterr()
    rec["scheme"]["chunk_rates"][5] = 1
    rec["scheme"]["matrices"]["5"] = [[1] * rec["scheme"]["L"]]
    path.write_text(json.dumps(rec))
    assert main(["simulate", str(path), "--seeds", "3"]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: bad scheme block: "
                                   f"terminal 5 does not transmit but has "
                                   f"rate 1\n")


@pytest.mark.parametrize("block", [None, 5, []], ids=["null", "int", "list"])
def test_simulate_rejects_a_scheme_block_that_is_no_object(tmp_path, capsys,
                                                           block):
    path = tmp_path / "scheme.json"
    assert main(["codegen", EX1, "-o", str(path)]) == 0
    rec = _read(path)
    rec["scheme"] = block
    path.write_text(json.dumps(rec))
    assert main(["simulate", str(path)]) == 2
    assert "scheme must be an object" in _one_line_error(capsys)


def test_a_false_coding_field_claim_builds_no_field(tmp_path, capsys,
                                                    monkeypatch):
    # the claim is judged against the source field and ext_degree first,
    # so a 2^20-element field that the scheme does not use is never built
    path = tmp_path / "scheme.json"
    assert main(["codegen", EX1, "-o", str(path)]) == 0
    rec = _read(path)
    rec["scheme"]["coding_field"] = {"characteristic": 2, "degree": 20}
    path.write_text(json.dumps(rec))
    built = []
    monkeypatch.setattr("datex.netcode.make_field",
                        lambda *args: built.append(args))
    assert main(["simulate", str(path)]) == 2
    assert "coding field does not extend the source field" in \
        _one_line_error(capsys)
    assert built == []


def test_coding_view_size_guard_exits_two(tmp_path, capsys):
    # with every chunk rate 0 no matrix pins L, and the sum(rows)*L x N*L
    # coding view would hold 2.8e9 entries at L = 10^4
    path = tmp_path / "scheme.json"
    assert main(["codegen", EX3, "-o", str(path)]) == 0
    rec = _read(path)
    rec["scheme"].update(L=10 ** 4, chunk_rates=[0, 0, 0], matrices={})
    path.write_text(json.dumps(rec))
    assert main(["simulate", str(path), "--seeds", "1"]) == 2
    err = _one_line_error(capsys)
    # reported as the size guard it is, the same line codegen prints
    assert err.startswith("error: scheme of 2800000000 field entries")
    assert "bad scheme block" not in err
    # codegen meets the same guard when the rates need many chunks
    assert main(["codegen", EX3, "--rates", "1/9973,1,1",
                 "--max-denominator", "10000"]) == 2
    assert "exceeds the supported bound" in _one_line_error(capsys)


def test_non_monotone_table_names_one_violation(tmp_path, capsys):
    # 24564 violating pairs; the error line names the first one only
    table = [0] + [12 - bin(s).count("1") for s in range(1, 1 << 12)]
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"format_version": 1, "terminal_count": 12,
                                "entropy_table": table, "users": [0]}))
    assert main(["oracle", str(path)]) == 2
    err = _one_line_error(capsys)
    assert err.endswith("monotonicity violated: H(0x3) < H(0x1)\n")
    assert len(err) < 200


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["frobnicate", EX1], "invalid choice: 'frobnicate'"),
    (["simulate", EX1, "--seeds", "zz"], "argument --seeds: invalid int value"),
    # a flag's value is the next token, even one that starts with '-'
    (["verify", EX3, "--rates", "-1,1,1"], "rate of terminal 0 is negative (-1)"),
    (["solve", EX1, "--gap-tol", "-1/100"], "--gap-tol must be positive"),
    (["solve", EX1, "--bogus", "1"], "unrecognized arguments: --bogus"),
    (["solve", EX1, "--max-it", "5"], "unrecognized arguments: --max-it"),
    (["solve", EX1, "--max-iters"], "argument --max-iters: expected one argument"),
    (["verify", EX3], "the following arguments are required: --rates"),
    (["oracle", EX1, EX2], "unrecognized arguments"),
], ids=["no-command", "bad-command", "bad-int-flag", "negative-rates-value",
        "negative-gap-tol-value", "unknown-flag", "abbreviated-flag",
        "missing-value", "missing-required-flag", "two-positionals"])
def test_usage_errors_are_one_line(capsys, argv, message):
    assert main(argv) == 2
    assert message in _one_line_error(capsys)


@pytest.mark.parametrize("command", ["solve", "oracle", "verify", "codegen"])
def test_the_field_comes_only_from_the_document(capsys, command):
    assert main([command, EX2, "--field-char", "3"]) == 2
    assert capsys.readouterr() == \
        ("", "error: unrecognized arguments: --field-char\n")


@pytest.mark.parametrize("command, flags", [
    ("solve", ["--max-iters", "--gap-tol", "--trace"]),
    ("oracle", []),
    ("verify", ["--rates"]),
    ("codegen", ["--rates", "--max-denominator"]),
    ("simulate", ["--seeds"]),
])
def test_command_help_lists_every_flag(capsys, command, flags):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: datex {command} ")
    listed = [line.split("  ")[1] for line in out.splitlines()
              if line.startswith("  -")]
    assert listed == ["-h, --help", "-o, --output", *flags], out


def test_the_commands_are_the_five_pipeline_stages(capsys):
    assert main(["graph", EX3]) == 2
    assert capsys.readouterr() == ("", (
        "error: argument command: invalid choice: 'graph' (choose from "
        "'solve', 'oracle', 'verify', 'codegen', 'simulate')\n"))
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    listed = [line.split()[0]
              for line in out.split("commands:\n", 1)[1].splitlines()]
    assert listed == ["solve", "oracle", "verify", "codegen", "simulate"]


@pytest.mark.parametrize("doc", [
    dict(TABLE_DOC, entropy_table=[0, 1, 1, 2, 1, 2, 2, float("nan")]),
    _doc(weights=[1, float("inf"), 1]),
], ids=["nan-entropy", "infinite-weight"])
def test_non_finite_json_numbers_exit_two(tmp_path, capsys, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))   # NaN / Infinity: Python's JSON accepts them
    assert main(["oracle", str(path)]) == 2
    assert "is not a rational" in _one_line_error(capsys)


@pytest.mark.parametrize("command, text", [
    ("oracle", "[" * 100_000 + "]" * 100_000),
    ("simulate", '{"kind": "scheme", "scheme": ' + "[" * 100_000
     + "]" * 100_000 + "}"),
], ids=["instance", "scheme"])
def test_json_nested_too_deep_exits_two(tmp_path, capsys, command, text):
    """The JSON decoder recurses once per level; nesting deeper than the
    interpreter's recursion limit is invalid JSON, not a traceback."""
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    assert _one_line_error(capsys).startswith(
        f"error: {path}: invalid JSON: ")


PACKETS_DOC = {"format_version": 1, "field": 2, "packet_count": 2,
               "terminals": [{"packets": [0]}, {"packets": [1]}],
               "users": [0, 1]}


@pytest.mark.parametrize("doc", [_doc(field=None), dict(PACKETS_DOC,
                                                        field=None)],
                         ids=["rows", "packets"])
def test_a_null_field_exits_two(tmp_path, capsys, doc):
    # a key is absent only when it is missing: null is a field of the
    # wrong type, not GF(2), whatever form the terminals take
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["oracle", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {path}: field must be an object or an integer\n")


@pytest.mark.parametrize("version", [True, 1.0], ids=["bool", "float"])
@pytest.mark.parametrize("command", ["oracle", "simulate"],
                         ids=["instance", "scheme"])
def test_format_version_is_a_json_integer(tmp_path, capsys, version,
                                          command):
    # true == 1.0 == 1 in Python; every document integer refuses both
    source = EX3 if command == "oracle" else GOLDEN / "example3.codegen.out"
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(dict(_read(Path(source)),
                                    format_version=version)))
    assert main([command, str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {path}: format_version must be an integer, "
        f"not {type(version).__name__}\n")


@pytest.mark.parametrize("stem", ["example1", "example2", "example3",
                                  "linear_m8", "raw_m8"])
def test_scheme_files_are_written_back_as_read(stem):
    # the one reader and the one writer of both documents undo each other
    path = GOLDEN / f"{stem}.codegen.out"
    doc, scheme = _read(path), datex.cli._load_scheme(str(path))
    assert serialize_instance(scheme.instance) == doc["instance"]
    assert serialize_scheme(scheme) == doc["scheme"]


# four packets, three of them near index 10^9, and their small-index twin
_FAR_PACKETS = {"format_version": 1, "packet_count": 10 ** 9,
                "terminals": [{"packets": [10 ** 9 - 1]},
                              {"packets": [10 ** 9 - 2]},
                              {"packets": [10 ** 9 - 3]}, {"packets": [0]}],
                "users": [0, 1]}
_NEAR_PACKETS = dict(_FAR_PACKETS, packet_count=4,
                     terminals=[{"packets": [k]} for k in (3, 2, 1, 0)])


@pytest.mark.parametrize("path", [EX1, EX2, EX3, str(GOLDEN / "raw_m8.json"),
                                  str(GOLDEN / "linear_m8.json"),
                                  _FAR_PACKETS],
                         ids=["example1", "example2", "example3", "raw_m8",
                              "linear_m8", "far-packets"])
def test_instance_files_keep_their_entropies_when_written_back(path):
    inst = (instance_from_dict(path) if isinstance(path, dict)
            else parse_instance(path))
    written = serialize_instance(inst)
    back = instance_from_dict(json.loads(json.dumps(written)))
    assert serialize_instance(back) == written
    assert (back.user_list, back.weights, back.transmitters) == \
        (inst.user_list, inst.weights, inst.transmitters)
    assert [back.model.joint_entropy(s) for s in range(1 << back.m)] == \
        [inst.model.joint_entropy(s) for s in range(1 << inst.m)]


@pytest.mark.parametrize("weights, argv, entry", [
    (["1e400", 1], ["solve"], "weights[0]"),
    (["1e400", 1], ["oracle"], "weights[0]"),
    (["1e400", 1], ["codegen"], "weights[0]"),
    ([1e308, 1e308], ["oracle"], "weights[0]"),
    ([1, str(2 ** 256)], ["oracle"], "weights[1]"),
    ([1, 1], ["verify", "--rates", "1e400,1"], "--rates entry 0"),
], ids=["solve", "oracle", "codegen", "objective-overflow", "at-the-bound",
        "verify-rates"])
def test_rationals_beyond_the_float_range_exit_two(tmp_path, capsys, weights,
                                                   argv, entry):
    # each float mirror of a sum of products stays finite only while every
    # outside rational is below 2^256
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(dict(PACKETS_DOC, weights=weights)))
    assert main([argv[0], str(path), *argv[1:]]) == 2
    err = _one_line_error(capsys)
    assert f"{entry}: magnitude must be below 2^256" in err
    assert capsys.readouterr().out == ""


def test_rationals_just_below_the_bound_print_finite_floats(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(dict(PACKETS_DOC,
                                    weights=[str(2 ** 256 - 1)] * 2)))
    assert main(["oracle", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["value_float"] == 2.0 ** 257


@pytest.mark.parametrize("text, entry, bound", [
    ("1e100000000", "weights[0]", "magnitude"),
    ("-1.5E+100000000", "weights[0]", "magnitude"),
    ("1e-100000000", "weights[0]", "denominator"),
    ("0.25e-100000000", "weights[0]", "denominator"),
    ("1e-78", "weights[0]", "denominator"),
    ("1/" + str(2 ** 256), "weights[0]", "denominator"),
    (1e-300, "weights[0]", "denominator"),
], ids=["exponent", "signed-exponent", "negative-exponent",
        "negative-exponent-decimal", "just-past-the-bound", "p/q", "float"])
def test_rationals_past_either_bound_exit_two_at_once(tmp_path, capsys, text,
                                                     entry, bound):
    # a decimal exponent is judged before Fraction expands 10**exponent,
    # which at 10^8 would take minutes
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(dict(PACKETS_DOC, weights=[text, 1])))
    start = time.perf_counter()
    assert main(["oracle", str(path)]) == 2
    assert time.perf_counter() - start < 1
    err = _one_line_error(capsys)
    assert f"{entry}: {bound} must be below 2^256" in err


@pytest.mark.parametrize("argv, line", [
    (["verify", EX3, "--rates", "0,1e100000000,1"],
     "--rates entry 1: magnitude must be below 2^256"),
    (["solve", EX2, "--gap-tol", "1e-100000000"],
     "--gap-tol: denominator must be below 2^256"),
], ids=["rates", "gap-tol"])
def test_rational_flags_are_bounded_at_once(capsys, argv, line):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    assert _one_line_error(capsys) == f"error: {line}\n"


def test_a_zero_mantissa_takes_any_exponent(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(dict(PACKETS_DOC,
                                    weights=["0e100000000", "-0.0e-100000000"],
                                    users=[0])))
    start = time.perf_counter()
    assert main(["oracle", str(path)]) == 0
    assert time.perf_counter() - start < 1
    assert json.loads(capsys.readouterr().out)["value"] == "0"


def _frac_reference(text):
    """What _frac answers when Fraction parses first and the bounds are
    checked after."""
    try:
        x = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        return "not a rational"
    if abs(x) >= 2 ** 256:
        return "magnitude"
    if x.denominator >= 2 ** 256:
        return "denominator"
    return x


def _frac_outcome(text):
    try:
        return datex.cli._frac(text, "x")
    except CLIError as exc:
        return next(w for w in ("not a rational", "magnitude", "denominator")
                    if w in str(exc))


def test_the_exponent_check_refuses_only_what_the_bounds_refuse():
    # every exponent up to 100 either way, where the check's margin lies,
    # over short and zero-padded mantissas, and a few far beyond it
    mantissas = ["1", "-9", "0.0001", "0.000000001", "123.456", "99999999",
                 ".5", "5.", "+0.5", "0", "00.000", "1/2", "", "."]
    for mantissa in mantissas:
        for k in [*range(-100, 101), -999, 999]:
            for text in (f"{mantissa}e{k}", f" {mantissa}E{k:+} ",
                         f"{mantissa} e{k}", f"{mantissa}e {k}"):
                assert _frac_outcome(text) == _frac_reference(text), text


@given(st.from_regex(r"\A ?[-+]?0{0,6}[0-9]{0,3}(\.0{0,6}[0-9]{0,3})?\Z"),
       st.sampled_from(["", "e", "E", "e_", "ee"]), st.integers(-999, 999))
@settings(max_examples=300, deadline=None)
def test_the_exponent_check_reads_what_fraction_reads(mantissa, e, exponent):
    text = mantissa + (f"{e}{exponent}" if e else "")
    assert _frac_outcome(text) == _frac_reference(text)


@pytest.mark.parametrize("argv", [
    ["solve", EX3, "--max-iters", "5", "-o"],
    ["solve", EX3, "--max-iters", "5", "--trace"],
    ["oracle", EX3, "-o"],
    ["verify", EX3, "--rates", "0,1,1", "-o"],
    ["codegen", EX3, "-o"],
    ["simulate", "scheme.json", "--seeds", "1", "-o"],
], ids=["solve", "solve-trace", "oracle", "verify", "codegen", "simulate"])
@pytest.mark.parametrize("target", ["missing/out.json", "."],
                         ids=["missing-directory", "a-directory"])
def test_unwritable_output_paths_exit_two(tmp_path, capsys, argv, target):
    if argv[0] == "simulate":
        argv = ["simulate", str(tmp_path / argv[1]), *argv[2:]]
        assert main(["codegen", EX3, "-o", argv[1]]) == 0
    path = str(tmp_path / target)
    assert main([*argv, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {path}: ")
    assert captured.err.count("\n") == 1


def test_infeasible_instance_exits_one(tmp_path, capsys):
    doc = {
        "format_version": 1,
        "packet_count": 2,
        "terminals": [{"packets": [0]}, {"packets": [1]}, {"packets": [0]}],
        "users": [0],
        "transmitters": [2],
    }
    path = tmp_path / "infeasible.json"
    path.write_text(json.dumps(doc))
    assert main(["oracle", str(path)]) == 1
    assert "infeasible instance" in capsys.readouterr().err


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "datex.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "solve" in proc.stdout and "codegen" in proc.stdout
    # the installed `datex` script calls the target pyproject.toml names
    pyproject = (INSTANCES.parent / "pyproject.toml").read_text(encoding="utf-8")
    target = re.search(r'^datex = "datex\.cli:(\w+)"$', pyproject, re.M)
    assert target and callable(getattr(datex.cli, target.group(1), None))


# ---------------------------------------------------------------------------
# The process exit: `python -m datex.cli` ends in os._exit once main has
# returned, so it must print, write and exit exactly as main does.  The
# children run with PYTHONUNBUFFERED removed: with it set, stdout is
# written through and output left unflushed at the exit would not show.
# ---------------------------------------------------------------------------

M13 = str(GOLDEN / "raw_m13.json")
# a result larger than the pipe and stdio buffers: the scheme for raw
# m=13's golden feasible rates plus 1/2 each (L = 2), 230 KB
LARGE = ["codegen", M13, "--rates", ",".join(
    f"{2 * r + 1}/2" for r in (19, 15, 16, 15, 18, 19, 13, 12, 20, 14, 17,
                               18, 16))]


def _child(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
           preexec_fn=None, **env):
    """(exit code, stdout, stderr) of `python -m datex.cli argv` with block
    buffered stdout; keyword arguments add to its environment."""
    child_env = {k: v for k, v in os.environ.items()
                 if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run([sys.executable, "-m", "datex.cli", *argv],
                          stdout=stdout, stderr=stderr, text=True,
                          env={**child_env, **env}, preexec_fn=preexec_fn)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("argv", [
    LARGE,
    ["solve", EX2],                                     # converged, exit 0
    ["solve", EX2, "--max-iters", "3"],                 # not converged, exit 1
    ["verify", EX3, "--rates", "0,3/4,3/4"],            # infeasible, exit 1
    ["solve", EX1, "--max-iters", "0"],                 # usage error, exit 2
    ["--help"],
    ["codegen", "--help"],
], ids=["codegen-230KB", "solve-converged", "solve-not-converged",
        "verify-infeasible", "usage-error", "help", "command-help"])
def test_a_child_prints_what_main_prints(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert _child(argv) == (code, out, err)
    assert len(err.splitlines()) == (code == 2)


def test_a_child_writes_output_and_trace_files_whole(tmp_path):
    out, trace = tmp_path / "out.json", tmp_path / "trace.jsonl"
    assert _child(["solve", str(GOLDEN / "raw_m16.json"), "--max-iters",
                   "200", "--gap-tol", "1/100", "-o", str(out),
                   "--trace", str(trace)]) == (1, "", "")
    assert out.read_bytes() == (GOLDEN / "raw_m16.solve.json").read_bytes()
    assert trace.read_bytes() == \
        (GOLDEN / "raw_m16.solve.trace.jsonl").read_bytes()


def test_main_returns_without_ending_the_process(monkeypatch, capsys):
    def refuse(code):
        raise AssertionError("main called os._exit")
    monkeypatch.setattr(os, "_exit", refuse)
    assert main(["oracle", EX1]) == 0
    assert main(["--help"]) == 0
    assert main(["oracle", EX1, "--bogus"]) == 2
    capsys.readouterr()


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, target", [
    (["oracle", EX1, "-o", "/dev/full"], "/dev/full"),
    (["solve", EX2, "--trace", "/dev/full"], "/dev/full"),
    (["oracle", EX1], "stdout"),
    (LARGE, "stdout"),
], ids=["output", "trace", "stdout", "stdout-230KB"])
def test_a_full_disk_exits_two_with_one_line(argv, target, unbuffered):
    with open("/dev/full", "w") as full:
        code, _, err = _child(argv, stdout=full, PYTHONUNBUFFERED=unbuffered)
    assert code == 2
    assert err == f"error: cannot write {target}: [Errno 28] No space " \
                  f"left on device\n"


def test_a_closed_stream_exits_two():
    # a process started without stdout reports that on stderr; one started
    # without stderr drops its failure line, and its exit code still tells
    assert _child(["oracle", EX1], preexec_fn=lambda: os.close(1))[::2] == \
        (2, "error: cannot write stdout: it is closed\n")
    assert _child(["oracle", "missing.json"],
                  preexec_fn=lambda: os.close(2))[:2] == (2, "")
    assert _child(["codegen", EX3, "--rates", "0,0,1"],
                  preexec_fn=lambda: os.close(2))[:2] == (1, "")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("broken", ["full", "pipe"])
def test_a_failing_stderr_keeps_the_exit_code(broken):
    # the failure line cannot be written, so it is dropped; before, the
    # failed write escaped main and the process exited 1 for every failure
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        with open("/dev/full", "w") as full:
            stderr = full if broken == "full" else write_end
            assert _child(["oracle", "missing.json"],
                          stderr=stderr)[:2] == (2, "")
            assert _child(["codegen", EX3, "--rates", "0,0,1"],
                          stderr=stderr)[:2] == (1, "")
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_pipe_exits_two_with_one_line(unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        code, _, err = _child(["oracle", EX1], stdout=write_end,
                              PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write_end)
    assert code == 2
    assert err == "error: cannot write stdout: [Errno 32] Broken pipe\n"


def _bounded():
    """In a child before it starts: SIGALRM ends it after 5 s and its
    address space is capped at 1 GiB, so a regression to unbounded work
    fails instead of stalling or swelling the test run."""
    signal.alarm(5)
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


_THREE_PACKETS = {"format_version": 1, "packet_count": 3,
                  "terminals": [{"packets": [0]}, {"packets": [1]},
                                {"packets": [2]}],
                  "users": [0, 1, 2]}
_HUGE_TABLE = {"format_version": 1, "entropy_table": [], "users": [0]}
_TABLE_LENGTH = "entropy_table must list 2^terminal_count values indexed " \
                "by subset bitmask"
_FIELD_DEGREE = "a field of degree above 64 exceeds the supported size " \
                "bound 1048576"


@pytest.mark.parametrize("doc, line", [
    (dict(_HUGE_TABLE, terminal_count=10 ** 30), _TABLE_LENGTH),
    (dict(_HUGE_TABLE, terminal_count=20000), _TABLE_LENGTH),
    (dict(_THREE_PACKETS, field={"characteristic": 2, "degree": 10 ** 7}),
     _FIELD_DEGREE),
    (dict(_THREE_PACKETS, field={"characteristic": 2, "degree": 10 ** 12}),
     _FIELD_DEGREE),
    (dict(_THREE_PACKETS, field={"characteristic": 2 ** 61 - 1, "degree": 2}),
     f"field size {(2 ** 61 - 1) ** 2} exceeds the supported bound 1048576"),
    (dict(_THREE_PACKETS, field=2 ** 89 - 1),
     "characteristic must be below 2^64"),
], ids=["table-count-1e30", "table-count-20000", "field-degree-1e7",
        "field-degree-1e12", "field-2^61-1-squared", "field-2^89-1"])
def test_huge_tables_and_fields_exit_two_at_once(tmp_path, doc, line):
    # each input's size is judged from the numbers it states: no 2^m, no
    # p ** degree, no trial division up to sqrt(p)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert _child(["oracle", str(path)], preexec_fn=_bounded) == \
        (2, "", f"error: {path}: {line}\n")


@pytest.mark.parametrize("argv", [["oracle"], ["solve"],
                                  ["verify", "--rates", "1,1,1,1"]],
                         ids=["oracle", "solve", "verify"])
def test_far_packet_indices_cost_what_the_file_holds(tmp_path, argv):
    # a raw mask spans the packets some terminal holds, not the index
    # range: indices near 10^9 answer as their small-index twin does
    far, near = tmp_path / "far.json", tmp_path / "near.json"
    far.write_text(json.dumps(_FAR_PACKETS))
    near.write_text(json.dumps(_NEAR_PACKETS))
    result = _child([argv[0], str(far), *argv[1:]], preexec_fn=_bounded)
    assert result == _child([argv[0], str(near), *argv[1:]])
    assert result[0] == 0


def test_a_scheme_too_large_to_build_exits_two_at_once():
    # rates 1e9, 1e9 and 2/3 take L = 3 and 3e9 chunk symbols from each of
    # two terminals: their coding matrices and coded rows, not the coding
    # view's 252 entries, are what the size guard has to count
    assert _child(["codegen", EX3, "--rates", "1e9,1e9,2/3",
                   "--max-denominator", "6"], preexec_fn=_bounded) == (
        2, "", "error: scheme of 117000000288 field entries (coding view, "
        "coding matrices and coded rows at L = 3) exceeds the supported "
        "bound 4194304\n")


def test_a_prime_field_below_2_to_the_64_runs_at_once(tmp_path):
    # 2^61 - 1 passes the primality test at once, and the prime field's
    # embedding into itself is a range, not a 2^61-entry table
    rows, gf2 = tmp_path / "rows.json", tmp_path / "gf2.json"
    rows.write_text(json.dumps(_doc(field=2 ** 61 - 1)))
    gf2.write_text(json.dumps(_doc()))
    oracle = _child(["oracle", str(rows)], preexec_fn=_bounded)
    assert oracle == _child(["oracle", str(gf2)]) and oracle[0] == 0
    packets, scheme = tmp_path / "packets.json", tmp_path / "scheme.json"
    packets.write_text(json.dumps(dict(_THREE_PACKETS, field=2 ** 61 - 1)))
    assert _child(["codegen", str(packets), "-o", str(scheme)],
                  preexec_fn=_bounded) == (0, "", "")
    code, out, err = _child(["simulate", str(scheme), "--seeds", "8"],
                            preexec_fn=_bounded)
    assert (code, err, json.loads(out)["successes"]) == (0, "", 8)


# ---------------------------------------------------------------------------
# Contract fuzz: every input ends in 0, 1 or 2 with at most one stderr line
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _base_documents():
    """The shipped instances (rows and packets forms), an entropy table,
    and codegen scheme files for two of them and for example 2 restricted
    to transmitters 0-4 (as JSON text, so every draw starts fresh)."""
    docs = [_read(Path(p)) for p in (EX1, EX2, EX3)] + [TABLE_DOC]
    with tempfile.TemporaryDirectory() as tmp:
        restricted = Path(tmp) / "restricted.json"
        restricted.write_text(json.dumps(
            dict(_read(Path(EX2)), transmitters=[0, 1, 2, 3, 4])))
        for src in (EX1, EX3, str(restricted)):
            out = Path(tmp) / "scheme.json"
            if main(["codegen", src, "-o", str(out)]) != 0:
                raise RuntimeError(f"codegen failed on {src}")
            docs.append(_read(out))
    return tuple(json.dumps(d) for d in docs)


_KEYS = st.sampled_from([
    "format_version", "field", "characteristic", "degree", "packet_count",
    "terminals", "rows", "packets", "users", "weights", "transmitters",
    "entropy_table", "terminal_count", "kind", "instance", "scheme", "L",
    "chunk_rates", "ext_degree", "coding_field", "matrices", "seed", "0",
    "1", "2", "9"])
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 8),
    st.floats(-3, 9) | st.sampled_from([float("nan"), float("inf")]),
    st.sampled_from(["", "x", "1/2", "-1", "3/0", "1e9", "scheme"]))
_JSON = st.recursive(
    _LEAVES, lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(_KEYS, kids, max_size=3), max_leaves=6)


def _mutate(draw, doc):
    """Replace, delete or add one value at a random depth of doc."""
    node, key = doc, None
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:   # only an empty document: nothing to descend into
            break
        key = draw(st.sampled_from(keys))
        child = node[key]
        if not (isinstance(child, (dict, list)) and child
                and draw(st.booleans())):
            break
        node = child
    op = draw(st.sampled_from(["replace", "delete", "add"]))
    if op == "add" or key is None:
        if isinstance(node, dict):
            node[draw(_KEYS)] = draw(_JSON)
        else:
            node.append(draw(_JSON))
    elif op == "delete":
        del node[key]
    else:
        node[key] = draw(_JSON)


def _int_flag(lo, hi):
    """Mostly integers in lo..hi (bad ones included), sometimes not one."""
    return st.sampled_from([str(i) for i in range(lo, hi + 1)] + ["x", "1.5"])


_FLAGS = {
    "--max-iters": _int_flag(-1, 50),
    "--gap-tol": st.sampled_from(["1/100", "0", "-1", "x", "1/0", "1e-9"]),
    "--max-denominator": _int_flag(-1, 16),
    "--seeds": _int_flag(-1, 3),
}
_COMMAND_FLAGS = {
    "solve": ["--max-iters", "--gap-tol"],
    "oracle": [],
    "verify": ["--rates"],
    "codegen": ["--rates", "--max-denominator"],
    "simulate": ["--seeds"],
}
_RATE = st.sampled_from(["0", "1", "1/2", "2/3", "-1", "2", "x", "nan",
                         "1e9", "3/0", ""])


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_cli_contract_under_fuzzing(data):
    """main never raises, exits 0, 1 or 2, and writes at most one stderr
    line: exactly one `error: ` line on exit 2, and on exit 1 either one
    line or a result record on stdout with nothing on stderr."""
    draw = data.draw
    doc = json.loads(draw(st.sampled_from(_base_documents())))
    for _ in range(draw(st.integers(0, 2))):
        _mutate(draw, doc)
    # a scheme file is simulate's input; instance documents go to all five
    command = "simulate" if "scheme" in doc else draw(
        st.sampled_from(sorted(_COMMAND_FLAGS)))
    flags = []
    for flag in _COMMAND_FLAGS[command]:
        if flag == "--rates":
            if command == "verify" or draw(st.booleans()):
                count = draw(st.integers(2, 7))
                flags.append("--rates=" + ",".join(
                    draw(_RATE) for _ in range(count)))
        elif draw(st.booleans()):
            flags.append(f"{flag}={draw(_FLAGS[flag])}")
    if command == "solve" and not any(f.startswith("--max-iters") for f in flags):
        flags.append("--max-iters=50")
    if command == "simulate" and not any(f.startswith("--seeds=") for f in flags):
        flags.append("--seeds=3")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path), *flags])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    lines = err.splitlines()
    if code == 0:
        assert err == "" and out
    elif code == 2:
        assert len(lines) == 1 and err.startswith("error: "), err
    else:
        assert (out and not err) or (not out and len(lines) == 1), (out, err)
