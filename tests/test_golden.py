"""Golden CLI output.

`solve` must print the same JSON and write the same `--trace` lines, byte
for byte, as the version that produced the files in tests/golden/.  The
instances are seeded benchmark-ladder draws (raw m=16 and m=32 over GF(2),
linear m=10 and m=16 over GF(3)) and one entropy table; a speed-up of
the solver's hot path must leave every iterate, and so both files,
unchanged.  Linear m=16 (bench/ladder.py `draw(3, "linear", 16, 0)`)
runs 500 iterations, long enough for its greedy chains to alternate memo
hits and misses.

The pipeline commands -- `oracle` (simplex pivots included), `verify` on
feasible and on violating rates (each short receiver's most violated cut,
in receiver order), `codegen` and `simulate` of the pinned scheme -- must
print the same stdout with the same exit code on the three shipped
examples and on seeded ladder draws (bench/ladder.py `draw(1, kind, m,
0)`): raw m=8, linear m=8, and raw m=13, which has no `codegen` and
whose verify uses the benchmark's feasible and violating vectors, and
also runs on all-zero rates (every receiver short).  `oracle` runs on raw
m=16 and m=20 too, the cut loop past m = 13 and at the size guard, and
`solve` with its defaults on example 1, one receiver through the general
loop (gap 0 at iteration 1).
The other feasible rates came from the earlier oracle, which wrote out
the whole cut LP; the cut loop may return another optimal vertex, so
they stay fixed.  Violating rates are three quarters of the feasible
ones.  `codegen` also realizes the feasible rates of example 1 and
linear m=8 through `--rates`, each at L = 1 where the oracle's vertex
gives another scheme.

The paper's third source model, an arbitrary entropy table, is
tabular_m6: m = 6, H = H_raw/2 + H_linear/3 with H_raw and H_linear the
exact entropies of `draw(1, "raw", 6, 0)` and `draw(1, "linear", 6, 0)`
(a sum of entropy functions with positive weights is one), and the raw
draw's users and weights.  It runs `oracle`, `verify` at the oracle's
rates and at three quarters of them, and `solve` for 200 iterations;
`codegen` refuses it with exit code 2, and its golden file holds that
one stderr line."""

from pathlib import Path

import pytest

from datex.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name, iterations", [
    ("raw_m16", 200), ("raw_m32", 200), ("linear_m10", 20),
    ("linear_m16", 500), ("tabular_m6", 200)])
def test_solve_output_and_trace_are_unchanged(tmp_path, capsys, name,
                                              iterations):
    trace = tmp_path / "trace.jsonl"
    code = main(["solve", str(GOLDEN / f"{name}.json"),
                 "--max-iters", str(iterations), "--gap-tol", "1/100",
                 "--trace", str(trace)])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""     # none of them converges
    assert out == (GOLDEN / f"{name}.solve.json").read_text(encoding="utf-8")
    assert trace.read_bytes() == (GOLDEN / f"{name}.solve.trace.jsonl").read_bytes()


def _instance_path(stem):
    if stem.startswith("example"):
        return ROOT / "instances" / f"{stem}.json"
    return GOLDEN / f"{stem}.json"


# instance -> (the earlier oracle's rates, violating rates)
_ORACLE_CASES = {
    "example1": ("0,1,1,0,0,0", "0,3/4,3/4,0,0,0"),
    "example2": ("1/4,1/4,1/4,1/2,1/2,1/2", "3/16,3/16,3/16,3/8,3/8,3/8"),
    "example3": ("0,1,1", "0,3/4,3/4"),
    "raw_m8": ("0,6,0,0,1,0,8,2", "0,9/2,0,0,3/4,0,6,3/2"),
    "linear_m8": ("0,0,2,2,2,0,0,2", "0,0,3/2,3/2,3/2,0,0,3/2"),
}
_RAW_M13 = ("19,15,16,15,18,19,13,12,20,14,17,18,16",
            "627/394,495/394,264/197,495/394,297/197,627/394,429/394,"
            "198/197,330/197,231/197,561/394,297/197,264/197")

PIPELINE = []   # (instance stem, case, argv after the instance, exit code)
for _stem, (_feasible, _violating) in _ORACLE_CASES.items():
    PIPELINE += [
        (_stem, "oracle", [], 0),
        (_stem, "verify-feasible", ["--rates", _feasible], 0),
        (_stem, "verify-violating", ["--rates", _violating], 1),
        (_stem, "codegen", [], 0),
    ]
PIPELINE += [
    ("raw_m13", "oracle", [], 0),
    ("raw_m13", "verify-feasible", ["--rates", _RAW_M13[0]], 0),
    ("raw_m13", "verify-violating", ["--rates", _RAW_M13[1]], 1),
    ("raw_m13", "verify-zero", ["--rates", ",".join("0" * 13)], 1),
    ("example1", "codegen-feasible",
     ["--rates", _ORACLE_CASES["example1"][0]], 0),
    ("linear_m8", "codegen-feasible",
     ["--rates", _ORACLE_CASES["linear_m8"][0]], 0),
    ("raw_m16", "oracle", [], 0),
    ("raw_m20", "oracle", [], 0),
    ("example1", "solve", [], 0),
    ("tabular_m6", "oracle", [], 0),
    ("tabular_m6", "verify-feasible", ["--rates", "1,0,1/2,0,13/6,13/6"], 0),
    ("tabular_m6", "verify-violating",
     ["--rates", "3/4,0,3/8,0,13/8,13/8"], 1),
    ("tabular_m6", "codegen-refused", [], 2),
]


@pytest.mark.parametrize("stem, case, argv, code", PIPELINE,
                         ids=[f"{s}-{c}" for s, c, _, _ in PIPELINE])
def test_pipeline_output_is_unchanged(capsys, stem, case, argv, code):
    command = case.split("-", 1)[0]
    assert main([command, str(_instance_path(stem)), *argv]) == code
    out, err = capsys.readouterr()
    if code == 2:   # a refusal: one line on stderr, nothing on stdout
        out, err = err, out
    assert err == ""
    assert out == (GOLDEN / f"{stem}.{case}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("stem", sorted(_ORACLE_CASES))
def test_simulate_of_pinned_scheme_is_unchanged(capsys, stem):
    """The pinned codegen output is itself a scheme file."""
    scheme = GOLDEN / f"{stem}.codegen.out"
    assert main(["simulate", str(scheme), "--seeds", "4"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (GOLDEN / f"{stem}.simulate.out").read_text(encoding="utf-8")
