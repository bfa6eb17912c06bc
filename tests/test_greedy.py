import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from datex import greedy
from datex.cli import instance_from_dict
from datex.greedy import _iter_cuts, violated_cuts
from datex.instance import Instance, InfeasibleInstanceError
from datex.oracle import build_lp, solve_exact
from datex.source import (LinearSource, SizeLimitError, TabularSource,
                          mask_to_set, raw_source)
from helpers import (edmonds_allocate, example_model, example1_instance,
                     example2_instance, example3_instance, ladder_draw,
                     meets_cuts, objective, random_linear_instance,
                     ref_most_violated_cut, ref_violated_cuts, relabel,
                     table_values, tabulate, unlabel)

GOLDEN = Path(__file__).resolve().parent / "golden"

# example 1 with the single-packet holders 3, 4 and 5 numbered right after
# the receiver, so index order prefers them
HELPERS_FIRST = (0, 3, 4, 5, 1, 2)


# ---------------------------------------------------------------------------
# Instance validation
# ---------------------------------------------------------------------------

def test_instance_defaults(example1):
    assert example1.m == 6 and example1.k == 1
    assert example1.user_list == (0,)
    assert example1.weights == tuple([Fraction(1)] * 6)
    assert example1.transmitter_mask == 0b111111


def test_instance_rejects_bad_users():
    model = example_model(3)
    with pytest.raises(ValueError):
        Instance(model, [])
    with pytest.raises(ValueError):
        Instance(model, [6])
    with pytest.raises(ValueError):
        Instance(model, [0, 0])
    # an index is an int, and a bool is not one: refused at the boundary,
    # not by a shift in the decodability check or as a duplicate of 1
    for users in ([0.0, 1], [True, 1], [1, True]):
        with pytest.raises(ValueError, match="user indices must be integers"):
            Instance(model, users)


def test_instance_rejects_bad_weights():
    model = example_model(3)
    with pytest.raises(ValueError):
        Instance(model, [0], weights=[1] * 5)
    with pytest.raises(ValueError):
        Instance(model, [0], weights=[-1, 1, 1, 1, 1, 1])
    # a bool is not the rational 1 or 0
    with pytest.raises(ValueError, match="weight of terminal 1 is a bool"):
        Instance(model, [0], weights=[1, True, 0, 1, 1, 1])


def test_instance_rejects_bad_transmitters():
    model = example_model(3)
    with pytest.raises(ValueError):
        Instance(model, [0], transmitters=[7])
    # True is not terminal 1, even beside it
    for transmitters in ([2.0], [True, 2], [1, True]):
        with pytest.raises(ValueError,
                           match="transmitter indices must be integers"):
            Instance(model, [0], transmitters=transmitters)


def test_instance_decodability_precondition():
    # terminals 0 and 2 both hold packet 0 only; packet 1 lives at
    # terminal 1.  If only terminal 2 may transmit, the user can never
    # learn packet 1.
    model = raw_source([[0], [1], [0]], 2)
    with pytest.raises(InfeasibleInstanceError):
        Instance(model, [0], transmitters=[2])
    # letting terminal 1 transmit repairs it
    Instance(model, [0], transmitters=[1, 2])


# ---------------------------------------------------------------------------
# The six-terminal single-receiver example
# ---------------------------------------------------------------------------

def test_example1_preferred_helper_vertex(example1):
    # visiting the single-packet holders (3,4,5) first yields two unit
    # rates: terminal 3 covers one unknown packet, terminal 5 the other
    moved = edmonds_allocate(relabel(example1, HELPERS_FIRST), 0)
    rates = unlabel(moved, HELPERS_FIRST)
    assert rates == (0, 0, 0, 1, 0, 1)
    assert objective(example1, rates) == 2


def test_example1_default_order_vertex(example1):
    # ascending-index ties: terminals 1 and 2 each contribute one symbol
    rates = edmonds_allocate(example1, 0)
    assert rates == (0, 1, 1, 0, 0, 0)
    assert objective(example1, rates) == 2


def test_example1_all_relabelings_same_objective(example1):
    rng = random.Random(1)
    perms = set()
    for _ in range(20):
        perm = list(range(6))
        rng.shuffle(perm)
        perms.add(tuple(perm))
    for perm in perms:
        moved = relabel(example1, perm)
        (target,) = moved.user_list
        rates = unlabel(edmonds_allocate(moved, target), perm)
        assert objective(example1, rates) == 2
        assert meets_cuts(rates, example1)


def test_example1_greedy_output_feasible(example1):
    rates = unlabel(edmonds_allocate(relabel(example1, HELPERS_FIRST), 0),
                    HELPERS_FIRST)
    assert meets_cuts(rates, example1)
    assert not meets_cuts([0] * 6, example1)


def test_weight_override_changes_vertex(example1):
    # make the pair-sum terminals cheap and the basis terminals expensive
    w = [1, 1, 1, 5, 5, 5]
    rates = edmonds_allocate(Instance(example1.model, [0], w), 0)
    assert rates == (0, 1, 1, 0, 0, 0)
    assert sum(q * r for q, r in zip(w, rates)) == 2


def test_identical_observations_need_nothing():
    model = raw_source([[0], [0], [0]], 1)
    inst = Instance(model, [0])
    assert edmonds_allocate(inst, 0) == (0, 0, 0)
    assert meets_cuts((0, 0, 0), inst)


def test_greedy_on_tabular_model(example1):
    # the allocation must only depend on the entropy oracle
    for order in (range(6), HELPERS_FIRST, (0, 5, 4, 3, 2, 1)):
        inst = relabel(example1, order)
        table_inst = Instance(tabulate(inst.model), [0])
        assert edmonds_allocate(table_inst, 0) == edmonds_allocate(inst, 0)


# ---------------------------------------------------------------------------
# Cut inspection
# ---------------------------------------------------------------------------

def test_violated_cuts_reports_worst_offenders(example1):
    # zero rates cannot satisfy the region; the full complement cut needs
    # the two missing packets, and every smaller cut needs less
    assert violated_cuts([0] * 6, example1)[0] == (0b111110, 2, 0)
    assert [cut for cut, need, _ in ref_violated_cuts([0] * 6, example1, 0)
            if need == 2] == [0b111110]
    # with a unit rate on terminal 3 the largest deficit is 1, and its
    # smallest cut is {1, 2, 5}: {0, 3, 4} spans only packets 0 and 1
    assert violated_cuts([0, 0, 0, 1, 0, 0], example1)[0] == (
        0b100110, 1, 0)


def test_violated_cuts_respects_transmitter_restriction():
    model = example_model(3)
    inst = Instance(model, [0], transmitters=[1, 2, 3])
    mask, _, _ = violated_cuts([0] * 6, inst)[0]
    assert set(mask_to_set(mask)) == {1, 2, 3}
    for mask, _, _ in ref_violated_cuts([0] * 6, inst, 0):
        assert set(mask_to_set(mask)) <= {1, 2, 3}


def test_violated_cuts_rejects_rates_off_the_domain(example1):
    # a negative rate must not pay for another terminal's deficit
    with pytest.raises(ValueError, match="negative"):
        violated_cuts([-5, 0, 1, 1, 0, 0], example1)
    inst = Instance(example_model(3), [0], transmitters=[1, 2, 3])
    assert violated_cuts([0, 1, 1, 0, 0, 0], inst).get(0) is None
    with pytest.raises(ValueError, match="terminal 4 does not transmit"):
        violated_cuts([0, 1, 1, 0, 1, 0], inst)
    with pytest.raises(ValueError, match="rate of terminal 0 is a bool"):
        violated_cuts([True] * 6, example1)


def test_one_query_checks_the_rates_once(example2, monkeypatch):
    """Every receiver of a three-receiver instance from one query, which
    checks and scales the rate vector once, not once per receiver."""
    calls = []
    check = greedy.check_rate_domain
    monkeypatch.setattr(greedy, "check_rate_domain",
                        lambda *a: calls.append(a) or check(*a))
    assert example2.user_list == (0, 1, 2)
    short = violated_cuts([0] * example2.m, example2)
    assert list(short) == [0, 1, 2]
    assert len(calls) == 1
    assert violated_cuts([1] * example2.m, example2) == {}
    assert len(calls) == 2


def test_size_guards_raise_one_typed_error():
    big = raw_source([[i] for i in range(21)], 21)
    with pytest.raises(SizeLimitError):
        violated_cuts([1] * 21, Instance(big, [0]))
    with pytest.raises(SizeLimitError):
        tabulate(big)


# ---------------------------------------------------------------------------
# The cut walk
# ---------------------------------------------------------------------------

def _needy_cuts(instance, target, rates):
    """Every cut of `target` with a positive need, as (mask, need, got) in
    scaled integers, from a point query per cut."""
    js = instance.model.joint_entropy_scaled
    senders = instance.transmitter_mask & ~(1 << target)
    ctx = senders | 1 << target
    total = js(ctx)
    out = set()
    for cut in range(1, senders + 1):
        need = total - js(ctx ^ cut) if not cut & ~senders else 0
        if need > 0:
            out.add((cut, need, sum(rates[i] for i in mask_to_set(cut))))
    return out


def _zero_column_instance():
    """Ladder linear m=8 s1 with a packet no terminal sees: joint rank 8
    over 9 packets."""
    doc = ladder_draw(1, "linear", 8)
    doc["packet_count"] += 1
    for terminal in doc["terminals"]:
        terminal["rows"] = [row + [0] for row in terminal["rows"]]
    return instance_from_dict(doc)


def _cut_walk_cases():
    example = table_values(example_model(3))
    owners = table_values(raw_source([[0, 1], [1], [2], [0], [2, 3], [3]], 4))
    # a sum of entropy functions is one, so thirds keep the table valid
    thirds = TabularSource([a + b / 3 for a, b in zip(example, owners)])
    with open(GOLDEN / "raw_m13.json", encoding="utf-8") as fh:
        raw_m13 = instance_from_dict(json.load(fh))
    cases = [("example1", example1_instance()),
             ("example2", example2_instance()),
             ("example3", example3_instance()),
             ("raw_m13", raw_m13),
             ("thirds", Instance(thirds, [0, 2], transmitters=[1, 2, 3, 5])),
             ("rank_below_N", _zero_column_instance())]
    return [pytest.param(name, inst, id=name) for name, inst in cases]


@pytest.mark.parametrize("name, instance", _cut_walk_cases())
def test_the_cut_walk_yields_exactly_the_cuts_that_need_something(
        name, instance):
    """For every terminal as the target, `_iter_cuts` yields each cut with a
    positive need once, with its need and rate sum, and no other cut; a
    second walk of a linear source, now on memo hits, yields the same."""
    if name == "thirds":
        assert instance.model.entropy_denominator == 3
    if name == "rank_below_N":
        model = instance.model
        assert model.joint_entropy(model.full_mask) < model.N
    rates = [(3 * i + 1) % 5 for i in range(instance.m)]
    for target in range(instance.m):
        expected = _needy_cuts(instance, target, rates)
        for _ in range(2):
            walked = list(_iter_cuts(instance, target, rates))
            assert len(walked) == len(expected)
            assert set(walked) == expected


@st.composite
def _raw_instances(draw):
    """A raw instance whose users can decode: terminals own random packet
    sets, some terminals may be barred from sending, and a transmitting hub
    owns every packet."""
    m = draw(st.integers(2, 7))
    n = draw(st.integers(1, 5))
    owned = [draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
             for _ in range(m)]
    hub = draw(st.integers(0, m - 1))
    owned[hub] = list(range(n))
    transmitters = set(draw(st.lists(st.integers(0, m - 1), unique=True)))
    transmitters.add(hub)
    users = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m,
                          unique=True))
    return Instance(raw_source(owned, n), users, transmitters=transmitters)


@given(_raw_instances(), st.data())
@settings(max_examples=150, deadline=None)
def test_raw_table_and_linear_twins_report_the_same_cuts(instance, data):
    """A raw source, its entropy table and its one-hot linear source walk
    different states over the same entropies: one rate vector (all zero,
    or small fractions, zeros among them) gives the same most violated
    cuts on all three, and the same as the point-query reference."""
    m = instance.m
    raw = instance.model
    if data.draw(st.booleans()):
        rates = [Fraction(0)] * m
    else:
        rates = [data.draw(st.fractions(0, 3, max_denominator=3))
                 if t in instance.transmitters else Fraction(0)
                 for t in range(m)]
    twins = [Instance(model, instance.users, transmitters=instance.transmitters)
             for model in (tabulate(raw), LinearSource(raw.field, raw.N,
                                                       raw.matrices))]
    short = violated_cuts(rates, instance)
    assert short == {l: cut for l in instance.user_list
                     if (cut := ref_most_violated_cut(rates, instance, l))}
    for twin in twins:
        assert violated_cuts(rates, twin) == short


# ---------------------------------------------------------------------------
# Properties on random instances
# ---------------------------------------------------------------------------

def _suffix_cuts_tight(instance, target, rates, order):
    """The greedy vertex makes every suffix of its visiting order tight."""
    model = instance.model
    den = model.entropy_denominator
    ctx = instance.transmitter_mask | (1 << target)
    for i in range(len(order)):
        suffix = 0
        for j in order[i:]:
            suffix |= 1 << j
        need = Fraction(model.joint_entropy_scaled(ctx)
                        - model.joint_entropy_scaled(ctx & ~suffix), den)
        got = sum((rates[j] for j in order[i:]), Fraction(0))
        if got != need:
            return False
    return True


@given(st.integers(0, 10 ** 9))
@settings(max_examples=120, deadline=None)
def test_greedy_vertex_properties(seed):
    rng = random.Random(seed)
    inst = random_linear_instance(rng, multi_user=False)
    order = list(range(inst.m))
    rng.shuffle(order)
    inst = relabel(inst, order)
    (target,) = inst.user_list
    rates = edmonds_allocate(inst, target)
    # nonnegative, zero for non-senders
    assert all(r >= 0 for r in rates)
    assert rates[target] == 0
    # feasible in the receiver's cut region
    assert meets_cuts(rates, inst)
    # the visiting order, (weight, index), has all its suffix cuts tight
    senders = sorted((t for t in inst.transmitters if t != target),
                     key=lambda j: (inst.weights[j], j))
    assert _suffix_cuts_tight(inst, target, rates, senders)


@given(st.integers(0, 10 ** 9))
@settings(max_examples=60, deadline=None)
def test_relabeling_never_changes_objective(seed):
    # renumbering the terminals changes the greedy's tie order, and with it
    # possibly the vertex, but not the optimum it reaches
    rng = random.Random(seed)
    inst = random_linear_instance(rng, multi_user=False)
    (target,) = inst.user_list
    base = objective(inst, edmonds_allocate(inst, target))
    assert solve_exact(build_lp(inst)).value == base
    for _ in range(5):
        order = list(range(inst.m))
        rng.shuffle(order)
        moved = relabel(inst, order)
        (moved_target,) = moved.user_list
        rates = edmonds_allocate(moved, moved_target)
        assert objective(moved, rates) == base
        assert solve_exact(build_lp(moved)).value == base
        assert meets_cuts(rates, moved)
        assert meets_cuts(unlabel(rates, order), inst)
