"""Golden solver output: `solve` must print the same JSON and write the same
`--trace` lines, byte for byte, as the version that produced the files in
tests/golden/.  The instances are seeded benchmark-ladder draws (raw m=16
and m=32 over GF(2), linear m=10 over GF(3)); a speed-up of the solver's
hot path must leave every iterate, and so both files, unchanged."""

from pathlib import Path

import pytest

from datex.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name, iterations", [
    ("raw_m16", 200), ("raw_m32", 200), ("linear_m10", 20)])
def test_solve_output_and_trace_are_unchanged(tmp_path, capsys, name,
                                              iterations):
    trace = tmp_path / "trace.jsonl"
    code = main(["solve", str(GOLDEN / f"{name}.json"),
                 "--max-iters", str(iterations), "--gap-tol", "1/100",
                 "--trace", str(trace)])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""     # none of the three converges
    assert out == (GOLDEN / f"{name}.solve.json").read_text(encoding="utf-8")
    assert trace.read_bytes() == (GOLDEN / f"{name}.solve.trace.jsonl").read_bytes()
