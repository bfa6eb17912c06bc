"""Tests for scheme construction: rate rationalization, extension-field
sizing, randomized coding-matrix design, the exact decodability check and
its agreement with end-to-end simulation, the multicast graph view, and
scheme serialization."""

import json
import random
from fractions import Fraction

import networkx as nx
import pytest

from datex import netcode
from datex.gf import Matrix, make_field, mat_vec, stack
from datex.greedy import violated_cuts
from datex.instance import Instance
from datex.netcode import (DesignFailureError, IncompleteSourceError,
                           InfeasibleRatesError, build_multicast_graph,
                           design_transmissions, graph_to_dot,
                           min_extension_degree, rationalize,
                           scheme_core_from_dict, scheme_core_to_dict,
                           simulate_exchange, verify_decodability)
from datex.oracle import build_lp, solve_exact
from datex.source import SizeLimitError, raw_source
from helpers import (example2_instance, example3_instance, matrix_key,
                     random_linear_instance, solve_one, tabulate,
                     with_matrices)

F0 = Fraction(0)


# ---------------------------------------------------------------------------
# Rationalization
# ---------------------------------------------------------------------------

def _self_sufficient_pair():
    """Two terminals holding the same packet; the user needs nothing, so
    every nonnegative rate vector meets its cuts."""
    return Instance(raw_source([[0], [0]], 1), [0])


def test_rationalize_worked_example(example2):
    rates = (Fraction(1, 4),) * 3 + (Fraction(1, 2),) * 3
    assert rationalize(rates, example2) == (4, (1, 1, 1, 2, 2, 2))


def test_rationalize_integers_unchanged(example3):
    assert rationalize((0, 1, 1), example3) == (1, (0, 1, 1))
    assert rationalize((3, 0), _self_sufficient_pair()) == (1, (3, 0))


def test_rationalize_lcm():
    assert (rationalize((Fraction(1, 3), Fraction(1, 6)),
                        _self_sufficient_pair()) == (6, (2, 1)))


def test_rationalize_snaps_solver_noise(example2):
    noisy = [0.2500000001, 0.25, 0.2499999999, 0.5000000002, 0.5, 0.5]
    assert rationalize(noisy, instance=example2) == (4, (1, 1, 1, 2, 2, 2))


def test_rationalize_snaps_to_the_simplest_nearby_fraction():
    # raw m = 10 ladder draw (seed 2): its oracle rates are 17/3, 0, 8/3,
    # 8/3, 8/3, 3, 0, 0, 0, 0.  Lowered by 1/200, the closest fractions
    # with denominator <= 64 are 351/62 and 165/62 and gave L = 62; the
    # simplest ones within 1/128 are the optimum again.
    packets = [[1, 3, 4, 5, 9, 10, 12, 13, 14, 17, 18, 20, 23, 24],
               [2, 3, 4, 8, 9, 10, 15, 17, 20, 22, 24],
               [0, 2, 5, 6, 9, 11, 13, 16, 18, 21, 22],
               [0, 3, 6, 7, 8, 14, 15, 16, 19, 20, 22],
               [0, 3, 5, 8, 11, 12, 15, 16, 18, 19, 23, 24],
               [0, 3, 5, 10, 12, 16, 22],
               [2, 3, 9, 10, 11, 13, 17, 19, 20, 21, 23, 24],
               [0, 4, 5, 7, 10, 12, 13, 14, 16, 17, 21, 22, 23, 24],
               [5, 7, 10, 12, 13, 18],
               [3, 7, 8, 10, 14, 15, 16, 21, 23, 24]]
    inst = Instance(raw_source(packets, 25), range(5),
                    weights=[2, 3, 1, 2, 2, 1, 3, 4, 4, 4])
    opt = solve_exact(build_lp(inst)).rates
    assert opt == (Fraction(17, 3), 0, Fraction(8, 3), Fraction(8, 3),
                   Fraction(8, 3), 3, 0, 0, 0, 0)
    lowered = [r - Fraction(1, 200) if r else r for r in opt]
    assert rationalize(lowered, inst) == (3, (17, 0, 8, 8, 8, 9, 0, 0, 0, 0))


def test_rationalize_repairs_snap_breakage(example2):
    # 0.4 everywhere is feasible, but snapping to whole numbers zeroes it
    # out; each terminal in turn absorbs the worst remaining deficit
    L, chunks = rationalize([Fraction(2, 5)] * 6, max_denominator=1,
                            instance=example2)
    assert (L, chunks) == (1, (2, 2, 1, 0, 0, 0))
    rates = [Fraction(c) for c in chunks]
    for l in example2.user_list:
        assert not violated_cuts(rates, example2, l, limit=1)


def test_rationalize_rejects_infeasible_input(example2):
    # a deficit far beyond snapping noise means the request itself is bad
    with pytest.raises(InfeasibleRatesError):
        rationalize([0] * 6, instance=example2)
    start = [Fraction(1, 4), F0, F0, Fraction(1, 2), F0, Fraction(1, 2)]
    with pytest.raises(InfeasibleRatesError):
        rationalize(start, instance=example2)


def test_rationalize_validation(example2):
    pair = _self_sufficient_pair()
    with pytest.raises(ValueError):
        rationalize((Fraction(1, 3), Fraction(1, 64)), pair)  # lcm 192 > 64
    with pytest.raises(ValueError):
        rationalize((1, 1), pair, max_denominator=0)
    with pytest.raises(ValueError):
        rationalize((-Fraction(1, 2), 0), pair)
    with pytest.raises(ValueError):
        rationalize([0] * 5, instance=example2)  # length mismatch
    model = example3_instance().model
    restricted = Instance(model, [0], transmitters=[1, 2])
    with pytest.raises(ValueError):
        rationalize((1, 1, 1), instance=restricted)  # silent terminal rated


def test_rationalize_judges_the_rates_before_snapping(example3):
    """A rate that snapping would turn into 0 is still outside the rate
    domain: a negative one, or a nonzero one off the transmitters, is
    refused with check_rate_domain's message."""
    tiny = Fraction(1, 1000)
    with pytest.raises(ValueError,
                       match=r"^rate of terminal 0 is negative \(-1/1000\)$"):
        rationalize([-tiny, 1, 1], example3)
    restricted = Instance(example3.model, [0], transmitters=[1, 2])
    with pytest.raises(ValueError, match=r"^terminal 0 does not transmit but "
                                         r"has rate 1/1000$"):
        rationalize([tiny, 1, 1], restricted)


# ---------------------------------------------------------------------------
# Extension-field sizing
# ---------------------------------------------------------------------------

def test_min_extension_degree():
    gf2 = make_field(2)
    assert min_extension_degree(gf2, 2, 4, 1) == 5    # need > 16
    assert min_extension_degree(gf2, 1, 1, 1) == 2    # need > 2: 2 is not
    assert min_extension_degree(make_field(3), 3, 3, 4) == 4   # 81 > 72
    assert min_extension_degree(make_field(2, 8), 3, 3, 4) == 1


# ---------------------------------------------------------------------------
# Hand-built schemes on the two-user packet example
# ---------------------------------------------------------------------------

def _hand_scheme(helper_row):
    """User 1 forwards its third observed packet; the helper sends the
    combination given by helper_row over its two observed packets."""
    inst = example3_instance()
    data = {"L": 1, "chunk_rates": [0, 1, 1], "ext_degree": 1,
            "coding_field": {"characteristic": 2, "degree": 1},
            "matrices": {"1": [[0, 0, 1]], "2": [helper_row]}}
    return inst, scheme_core_from_dict(data, inst)


def _decodable(report):
    return {l: d == 0 for l, d in report.deficits.items()}


def test_hand_scheme_decodes():
    _, scheme = _hand_scheme([1, 1])  # sum of the helper's two packets
    report = verify_decodability(scheme)
    assert report.ok
    assert report.deficits == {0: 0, 1: 0}
    assert _decodable(report) == {0: True, 1: True}
    for seed in range(5):
        assert simulate_exchange(scheme, seed=seed).ok


def test_hand_scheme_deficient_helper():
    # sending only the first packet starves user 1 of the second one
    _, scheme = _hand_scheme([1, 0])
    report = verify_decodability(scheme)
    assert not report.ok
    assert report.deficits == {0: 0, 1: 1}
    assert _decodable(report) == {0: True, 1: False}
    for seed in range(5):
        result = simulate_exchange(scheme, seed=seed)
        assert result.decoded == {0: 1, 1: 0}
        assert not result.ok


def test_zero_rate_terminal_never_blocks():
    # user 0 sends nothing at all and still everything decodes
    _, scheme = _hand_scheme([1, 1])
    assert 0 not in scheme.matrices
    assert scheme.total_symbols == 2
    assert verify_decodability(scheme).ok


# ---------------------------------------------------------------------------
# Randomized design
# ---------------------------------------------------------------------------

def test_design_two_user_example(example3):
    scheme = design_transmissions(example3, (0, 1, 1), 1, seed=0)
    assert scheme.ext_degree == 5           # smallest power of 2 above 16
    assert scheme.coding_field.q == 32
    assert scheme.chunk_rates == (0, 1, 1)
    assert verify_decodability(scheme).ok
    for seed in range(10):
        assert simulate_exchange(scheme, seed=seed).ok


def test_design_is_deterministic(example3):
    a = design_transmissions(example3, (0, 1, 1), 1, seed=7)
    b = design_transmissions(example3, (0, 1, 1), 1, seed=7)
    assert scheme_core_to_dict(a) == scheme_core_to_dict(b)
    c = design_transmissions(example3, (0, 1, 1), 1, seed=8)
    assert _keys(c.matrices) != _keys(a.matrices)


def test_design_three_user_example_small_extension(example2):
    # a quadratic extension of the ternary field is already enough here
    scheme = design_transmissions(example2, (1, 1, 1, 2, 2, 2), 4,
                                  ext_degree=2, seed=0)
    assert scheme.coding_field.q == 9
    assert scheme.L == 4
    assert scheme.total_symbols == 9
    assert verify_decodability(scheme).ok
    assert simulate_exchange(scheme, seed=3).ok


def test_design_retry_budget(example3):
    # over the bare binary field a single random attempt usually misses...
    with pytest.raises(DesignFailureError):
        design_transmissions(example3, (0, 1, 1), 1, ext_degree=1,
                             seed=0, max_attempts=1)
    # ...but verified binary schemes exist and the search can find one
    scheme = design_transmissions(example3, (0, 1, 1), 1, ext_degree=1,
                                  seed=16, max_attempts=1)
    assert scheme.coding_field.q == 2
    assert verify_decodability(scheme).ok


def test_design_validation(example3):
    with pytest.raises(ValueError):
        design_transmissions(example3, (0, 1, 1), 0)
    with pytest.raises(ValueError):
        design_transmissions(example3, (0, -1, 1), 1)
    with pytest.raises(ValueError):
        design_transmissions(example3, (0, 1), 1)
    with pytest.raises(InfeasibleRatesError):
        design_transmissions(example3, (0, 0, 1), 1)
    restricted = Instance(example3.model, [0], transmitters=[1, 2])
    with pytest.raises(ValueError):
        design_transmissions(restricted, (1, 1, 1), 1)


@pytest.mark.parametrize("chunks, error, message", [
    ((0, Fraction(3, 2), Fraction(3, 2), 0, 0, 0), TypeError,
     "chunk_rates entry must be an integer, not Fraction"),
    (("0", "1", "1", "0", "0", "0"), TypeError,
     "chunk_rates entry must be an integer, not str"),
    ((0, True, 1, 0, 0, 0), TypeError,
     "chunk_rates entry must be an integer, not bool"),
    ((0, 1.0, 1), TypeError,
     "chunk_rates entry must be an integer, not float"),
    ((0, 1, 1), ValueError, "chunk_rates must list 6 values, got 3"),
    ((0, -1, 1, 0, 0, 0), ValueError,
     r"rate of terminal 1 is negative \(-1\)"),
    ((0, 1, 1, 0, 0, 2), ValueError,
     "terminal 5 does not transmit but has rate 2"),
], ids=["fraction", "string", "bool", "float-before-length", "length",
        "negative", "off-the-transmitters"])
def test_chunk_rates_are_checked_alike_everywhere(example1, chunks, error,
                                                  message):
    # checks run in order: each entry's type, the count, then the domain
    inst = Instance(example1.model, [0], transmitters=[1, 2, 3, 4])
    for check in (lambda: design_transmissions(inst, chunks, 2),
                  lambda: build_multicast_graph(inst, chunks, 2),
                  lambda: scheme_core_from_dict(
                      {"L": 2, "chunk_rates": list(chunks)}, inst)):
        with pytest.raises(error, match=message):
            check()


def test_design_rejects_observations_short_of_all_packets():
    # nobody owns packet 2, so every attempt would miss it at any field size;
    # the design stops before its first attempt instead of retrying
    inst = Instance(raw_source([[0], [1], [0, 1]], 3), [0, 1])
    rates = solve_exact(build_lp(inst)).rates
    L, chunks = rationalize(rates, instance=inst)
    with pytest.raises(IncompleteSourceError, match=r"H\(X_M\) = 2 < N = 3"):
        design_transmissions(inst, chunks, L, ext_degree=8, max_attempts=1000)


def test_design_rejects_tabular_models(example2):
    inst = Instance(tabulate(example2.model), [0, 1, 2])
    with pytest.raises(TypeError):
        design_transmissions(inst, (1, 1, 1, 2, 2, 2), 4)
    with pytest.raises(TypeError):
        build_multicast_graph(inst, (1, 1, 1, 2, 2, 2), 4)


# ---------------------------------------------------------------------------
# Decodability check == simulation outcome, scheme by scheme
# ---------------------------------------------------------------------------

def _random_complete_instance(rng):
    """Random instance whose terminals collectively determine every packet
    (the setting in which a full exchange is possible at all)."""
    while True:
        inst = random_linear_instance(rng, multi_user=rng.random() < 0.5)
        model = inst.model
        if model.joint_entropy(model.full_mask) == model.N:
            return inst


def test_verification_predicts_simulation():
    rng = random.Random(1661)
    for _ in range(8):
        inst = _random_complete_instance(rng)
        opt = solve_exact(build_lp(inst))
        L, chunks = rationalize(opt.rates, instance=inst)
        scheme = design_transmissions(inst, chunks, L,
                                      seed=rng.randrange(10 ** 6))
        assert verify_decodability(scheme).ok
        for seed in (0, 1):
            assert simulate_exchange(scheme, seed=seed).ok
        # sabotage one transmitting terminal: zero out its coding matrix
        if not scheme.matrices:
            continue
        victim = rng.choice(sorted(scheme.matrices))
        old = scheme.matrices[victim]
        zero = Matrix(scheme.coding_field, old.nrows, old.ncols,
                      [0] * (old.nrows * old.ncols))
        mutated = with_matrices(scheme, {**scheme.matrices, victim: zero})
        report = verify_decodability(mutated)
        for seed in (0, 1):
            assert simulate_exchange(mutated, seed=seed).decoded \
                == {l: int(ok) for l, ok in _decodable(report).items()}


def _decodes_one_seed(scheme, seed):
    """Receiver -> whether it decodes the draw of `seed`: the draw, the
    observations and the transmissions recomputed here, and each
    receiver's stacked system solved for this one right-hand side."""
    model = scheme.instance.model
    rng = random.Random(seed)
    w = tuple(scheme.embed[rng.randrange(model.field.q)]
              for _ in range(model.N * scheme.L))
    obs = [mat_vec(B, w) for B in scheme.blocks]
    out = {}
    for l in scheme.instance.user_list:
        parts, rhs = [scheme.blocks[l]], list(obs[l])
        for i in sorted(scheme.matrices):
            if i != l:
                parts.append(scheme.matrices[i] @ scheme.blocks[i])
                rhs.extend(mat_vec(scheme.matrices[i], obs[i]))
        out[l] = solve_one(stack(*parts), rhs) == w
    return out


def test_batched_decoding_matches_one_solve_per_seed(example2, example3):
    """Seventy seeds span two decode blocks.  A run over all of them must
    count, per receiver, exactly the seeds it decodes in seventy one-seed
    runs and in the per-seed reference, on designed schemes and on
    rank-deficient ones, where every seed fails."""
    good3 = design_transmissions(example3, (0, 1, 1), 1, seed=0)
    good2 = design_transmissions(example2, (1, 1, 1, 2, 2, 2), 4,
                                 ext_degree=2, seed=0)
    _, starved = _hand_scheme([1, 0])    # user 1 never sees packet 1
    old = good3.matrices[2]
    zero = Matrix(good3.coding_field, old.nrows, old.ncols,
                  [0] * (old.nrows * old.ncols))
    silenced = with_matrices(good3, {**good3.matrices, 2: zero})
    runs = netcode._DECODE_BLOCK + 6
    for scheme, deficient in ((good3, False), (good2, False),
                              (starved, True), (silenced, True)):
        seeds = range(5, 5 + runs)
        expected = [_decodes_one_seed(scheme, s) for s in seeds]
        singles = [simulate_exchange(scheme, seed=s, runs=1) for s in seeds]
        assert [r.decoded for r in singles] == [
            {l: int(ok) for l, ok in e.items()} for e in expected]
        assert [r.all_decoded for r in singles] == [
            int(all(e.values())) for e in expected]
        deficits = verify_decodability(scheme).deficits
        assert any(deficits.values()) == deficient
        for l, deficit in deficits.items():
            assert all(e[l] == (deficit == 0) for e in expected)
        result = simulate_exchange(scheme, seed=5, runs=runs)
        assert result.runs == runs
        assert result.decoded == {l: sum(r.decoded[l] for r in singles)
                                  for l in deficits}
        assert result.all_decoded == sum(r.all_decoded for r in singles)
        assert result.ok == (not any(deficits.values()))


def test_designed_rates_feasible_on_chunked_model(example2):
    L, chunks = rationalize((Fraction(1, 4),) * 3 + (Fraction(1, 2),) * 3,
                            instance=example2)
    rates = [Fraction(c, L) for c in chunks]
    for l in example2.user_list:
        assert not violated_cuts(rates, example2, l, limit=1)


# ---------------------------------------------------------------------------
# Multicast graph
# ---------------------------------------------------------------------------

def test_graph_three_user_example(example2):
    g = build_multicast_graph(example2, (1, 1, 1, 2, 2, 2), 4)
    assert g.source == "S"
    assert g.receivers == ("r0", "r1", "r2")
    assert g.total_chunks == 12
    caps = {(u, v): c for u, v, c in g.edges}
    assert caps[("S", "s0")] == 4       # one observed row, four chunks
    assert caps[("s0", "r0")] == 4      # users tap their own side info
    assert caps[("s3", "t3")] == 2      # helper relays its broadcast
    assert caps[("t3", "r0")] == 2
    assert caps[("t0", "r1")] == 1
    assert ("t0", "r0") not in caps     # no self-loop through the relay
    assert ("s3", "r3") not in caps     # helpers have no receiver


def test_graph_min_cut_carries_all_chunks(example2):
    g = build_multicast_graph(example2, (1, 1, 1, 2, 2, 2), 4)
    G = nx.DiGraph()
    for u, v, c in g.edges:
        G.add_edge(u, v, capacity=c)
    flows = {r: nx.maximum_flow_value(G, "S", r) for r in g.receivers}
    assert flows["r0"] == 12            # tight for the first receiver
    assert all(f >= g.total_chunks for f in flows.values())


def test_graph_min_cut_on_random_instances():
    rng = random.Random(515)
    for _ in range(6):
        inst = _random_complete_instance(rng)
        opt = solve_exact(build_lp(inst))
        L, chunks = rationalize(opt.rates, instance=inst)
        g = build_multicast_graph(inst, chunks, L)
        G = nx.DiGraph()
        for u, v, c in g.edges:
            G.add_edge(u, v, capacity=c)
        for r in g.receivers:
            assert nx.maximum_flow_value(G, "S", r) >= g.total_chunks


def test_graph_zero_rate_relay_edges(example3):
    g = build_multicast_graph(example3, (0, 1, 1), 1)
    caps = {(u, v): c for u, v, c in g.edges}
    assert caps[("s0", "t0")] == 0
    assert caps[("t0", "r1")] == 0
    assert caps[("s2", "t2")] == 1


def test_graph_single_user_shape():
    model = raw_source([[0], [1]], 2)
    inst = Instance(model, [0])
    g = build_multicast_graph(inst, (0, 1), 1)
    assert g.nodes == ("S", "s0", "s1", "t0", "t1", "r0")
    assert g.receivers == ("r0",)


def test_graph_validation(example2):
    with pytest.raises(ValueError):
        build_multicast_graph(example2, (1, 1), 4)


def test_graph_to_dot(example3):
    g = build_multicast_graph(example3, (0, 1, 1), 1)
    dot = graph_to_dot(g)
    assert dot.startswith("digraph")
    assert 'S [shape=doublecircle];' in dot
    assert 'r0 [shape=box];' in dot
    assert 's2 [shape=circle];' in dot
    assert 'S -> s0 [label="2"];' in dot    # two owned packets, one chunk
    assert 't2 -> r0 [label="1"];' in dot
    assert dot.endswith("}")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _keys(mats):
    """Each matrix of a dict or tuple of matrices as a comparable value."""
    if isinstance(mats, dict):
        return {i: matrix_key(M) for i, M in mats.items()}
    return [matrix_key(M) for M in mats]


def test_scheme_round_trip(example3):
    scheme = design_transmissions(example3, (0, 1, 1), 1, seed=3)
    data = json.loads(json.dumps(scheme_core_to_dict(scheme)))
    back = scheme_core_from_dict(data, example3)
    assert scheme_core_to_dict(back) == scheme_core_to_dict(scheme)
    assert _keys(back.matrices) == _keys(scheme.matrices)  # same field too
    assert back.embed == scheme.embed
    assert _keys(back.blocks) == _keys(scheme.blocks)


def test_scheme_round_trip_chunked(example2):
    scheme = design_transmissions(example2, (1, 1, 1, 2, 2, 2), 4,
                                  ext_degree=2, seed=0)
    back = scheme_core_from_dict(scheme_core_to_dict(scheme), example2)
    assert scheme_core_to_dict(back) == scheme_core_to_dict(scheme)
    assert _keys(back.matrices) == _keys(scheme.matrices)
    assert verify_decodability(back).ok


def test_scheme_from_dict_validation(example3):
    scheme = design_transmissions(example3, (0, 1, 1), 1, seed=3)
    data = scheme_core_to_dict(scheme)
    wrong_field = {**data, "coding_field": {"characteristic": 2, "degree": 4}}
    with pytest.raises(ValueError):
        scheme_core_from_dict(wrong_field, example3)
    wrong_rows = {**data, "chunk_rates": [0, 2, 1]}
    with pytest.raises(ValueError):
        scheme_core_from_dict(wrong_rows, example3)


def test_size_checks_read_row_counts_without_one_hot_matrices():
    """A raw source's one-hot observation matrices are N wide.  The
    coding-view guard and the multicast graph read each terminal's row
    count instead, so a million packets cost them nothing."""
    small = raw_source([[0], [1], [0, 1]], 2)
    assert small.row_counts == tuple(A.nrows for A in small.matrices)
    inst = Instance(raw_source([[0], [1], [0, 1]], 10 ** 6), [0, 1])
    data = {"L": 2, "chunk_rates": [1, 1, 0], "ext_degree": 1,
            "coding_field": {"characteristic": 2, "degree": 1},
            "matrices": {"0": [[1, 0]], "1": [[0, 1]]}}
    with pytest.raises(SizeLimitError, match="coding view of 16000000 "):
        scheme_core_from_dict(data, inst)
    g = build_multicast_graph(inst, (1, 1, 0), 2)
    assert ("S", "s2", 4) in g.edges and g.total_chunks == 2 * 10 ** 6
    assert "matrices" not in inst.model.__dict__


# ---------------------------------------------------------------------------
# The coding view is built once per scheme source
# ---------------------------------------------------------------------------

def test_coding_view_built_once_per_design_and_per_loaded_scheme(
        example3, monkeypatch):
    calls = []
    kron = Matrix.kron_identity
    monkeypatch.setattr(Matrix, "kron_identity",
                        lambda self, L: calls.append(L) or kron(self, L))
    # over GF(2) itself seed 0 needs several attempts (see the retry test)
    scheme = design_transmissions(example3, (0, 1, 1), 1, ext_degree=1,
                                  seed=0, max_attempts=32)
    assert scheme.attempt > 0
    assert verify_decodability(scheme).ok      # a re-check, as codegen does
    assert len(calls) == example3.m            # all attempts share one view
    for seed in range(3):
        simulate_exchange(scheme, seed=seed)
    assert len(calls) == example3.m
    calls.clear()
    loaded = scheme_core_from_dict(scheme_core_to_dict(scheme), example3)
    for seed in range(3):
        assert simulate_exchange(loaded, seed=seed).ok
    assert len(calls) == example3.m            # built once, at load
