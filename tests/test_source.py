import math
import random
import time
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

import datex.source
from datex.gf import EchelonBasis, Matrix, make_field, rank, stack
from datex.greedy import _greedy_rates_scaled, _iter_cuts, violated_cuts
from datex.instance import Instance
from datex.source import (LinearSource, RawSource, TabularSource,
                          mask_to_set, raw_source, scale_to_int,
                          validate_table)
from helpers import (cond_entropy, example_model, example3_instance,
                     full_cut_lp, point_chain, random_linear_instance,
                     table_values, tabulate)


# ---------------------------------------------------------------------------
# Masks
# ---------------------------------------------------------------------------

def test_mask_to_set_lists_the_set_bits():
    """A subset is an int bitmask, terminal i bit i: mask_to_set lists its
    terminals ascending, and the bits of that list give the mask back."""
    assert mask_to_set(0b1010) == (1, 3)
    assert sum(1 << i for i in mask_to_set(0b1010)) == 0b1010
    assert mask_to_set(0) == ()


def test_joint_entropy_takes_only_masks_in_range():
    """A mask outside 0 .. 2^m - 1 is refused, and an index list is not a
    mask at all."""
    model = example3_instance().model   # m = 3
    for mask in (0b1000, -1):
        with pytest.raises(ValueError, match=rf"mask {mask} out of range "
                                             rf"for m=3"):
            model.joint_entropy_scaled(mask)
        with pytest.raises(ValueError):
            model.joint_entropy(mask)
    with pytest.raises(TypeError):
        model.joint_entropy_scaled([0, 1])


# ---------------------------------------------------------------------------
# Linear sources: the six-terminal worked model
# ---------------------------------------------------------------------------

@given(st.lists(st.fractions(max_denominator=60), max_size=8))
@settings(max_examples=150, deadline=None)
def test_scale_to_int_is_the_lcm_view(values):
    den, ints = scale_to_int(values)
    assert den == reduce(lambda a, b: a * b // math.gcd(a, b),
                         (v.denominator for v in values), 1)
    assert len(ints) == len(values)
    assert all(type(n) is int and n == v * den for n, v in zip(ints, values))


def test_example_model_entropies_gf3():
    model = example_model(3)
    assert model.m == 6 and model.N == 3
    for i in range(6):
        assert model.joint_entropy(1 << i) == 1
    # the three pairwise sums are independent over GF(3)
    assert model.joint_entropy(0b111) == 3
    assert model.joint_entropy(model.full_mask) == 3
    # one pairwise sum plus its two constituent packets
    assert model.joint_entropy(0b11001) == 2


def test_example_model_entropies_gf2():
    model = example_model(2)
    # over GF(2) the third pairwise sum is the sum of the other two
    assert model.joint_entropy(0b111) == 2
    assert model.joint_entropy(model.full_mask) == 3


def test_conditional_entropy_values():
    model = example_model(3)
    # terminal 3 observes a packet that terminal 0's sum involves
    assert cond_entropy(model, 0b1000, 0b1) == 1
    assert cond_entropy(model, 0b1, 0b11000) == 0
    assert cond_entropy(model, 0b1, 0) == 1
    # chain rule spot check: H(0,1) = H(0) + H(1|0)
    assert (model.joint_entropy(0b11)
            == model.joint_entropy(0b1) + cond_entropy(model, 0b10, 0b1))


def test_linear_source_validation():
    F = make_field(2)
    with pytest.raises(ValueError):
        LinearSource(F, 2, [Matrix.from_rows(F, [[1, 0, 1]])])  # wrong width
    with pytest.raises(ValueError):
        LinearSource(F, 2, [Matrix.from_rows(make_field(3), [[1, 0]])])


# ---------------------------------------------------------------------------
# Raw (packet-ownership) sources
# ---------------------------------------------------------------------------

def test_raw_source_counts_distinct_packets():
    model = example3_instance().model
    assert isinstance(model, RawSource)
    assert model.joint_entropy(0b1) == 2
    assert model.joint_entropy(0b10) == 3
    assert model.joint_entropy(0b100) == 2
    assert model.joint_entropy(0b11) == 4
    assert model.joint_entropy(0b101) == 3  # packet 3 is only at terminal 1
    assert model.joint_entropy(model.full_mask) == 4


def test_raw_source_agrees_with_rank_oracle():
    # the shortcut (distinct packet counting) must match ranks of the
    # underlying basis-row matrices on every subset
    model = raw_source([[1, 2], [0, 1, 3], [0, 2]], 4)
    linear = LinearSource(model.field, model.N, model.matrices)
    for mask in range(1 << model.m):
        assert model.joint_entropy_scaled(mask) == linear.joint_entropy_scaled(mask)


def test_raw_source_rejects_bad_indices():
    with pytest.raises(ValueError):
        raw_source([[0, 4]], 4)
    with pytest.raises(ValueError):
        raw_source([[-1]], 4)


def test_raw_source_builds_each_mask_in_linear_time():
    # one byte per packet set in a buffer, then one conversion to int;
    # a shift-and-OR per packet is quadratic in N
    start = time.perf_counter()
    model = raw_source([range(10 ** 6)], 10 ** 6)
    assert time.perf_counter() - start < 2
    assert model.row_counts == (10 ** 6,)
    assert model.joint_entropy_scaled(1) == 10 ** 6
    small = raw_source([[9, 0, 3, 3], [], [11]], 12)
    assert [small.packets(i) for i in range(3)] == [[0, 3, 9], [], [11]]
    assert small.row_counts == (3, 0, 1)


def _ref_bits(ownership):
    """Each terminal's mask the plain way: bit b is packet b, or, once the
    largest index is at least the number of indices given, the b-th
    packet some terminal holds."""
    held = sorted({k for idx in ownership for k in idx})
    bit = {k: k for k in held}
    if held and held[-1] >= sum(map(len, ownership)):
        bit = {k: b for b, k in enumerate(held)}
    return tuple(sum(1 << bit[k] for k in set(idx)) for idx in ownership)


_TERMINALS = dict(min_size=1, max_size=10)
_OWNERSHIPS = st.one_of(
    # dense: small indices, some repeated
    st.integers(1, 40).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.integers(0, n - 1), max_size=2 * n),
                 **_TERMINALS), st.just(n))),
    # sparse: a few indices far apart
    st.tuples(st.lists(st.lists(st.integers(0, 10 ** 9), max_size=4),
                       **_TERMINALS), st.just(10 ** 9 + 1)),
    # empty: no terminal holds a packet
    st.tuples(st.lists(st.just([]), **_TERMINALS), st.integers(0, 5)),
)


@given(_OWNERSHIPS, st.data())
@settings(max_examples=150, deadline=None)
def test_raw_masks_match_a_plain_reference(case, data):
    ownership, n = case
    model = raw_source(ownership, n)
    assert model._bits == _ref_bits(ownership)
    assert model.row_counts == tuple(len(set(idx)) for idx in ownership)
    assert [model.packets(i) for i in range(model.m)] == [
        sorted(set(idx)) for idx in ownership]
    # a point query is the size of the plain union of the owned packets
    m = len(ownership)
    for mask in data.draw(st.lists(st.integers(0, (1 << m) - 1),
                                   max_size=8)):
        union = set().union(*(ownership[i] for i in range(m)
                              if mask >> i & 1))
        assert model.joint_entropy_scaled(mask) == len(union)


# ---------------------------------------------------------------------------
# Entropy tables
# ---------------------------------------------------------------------------

def test_validate_table_hard_errors():
    assert validate_table([]) == ["table length 0 is not a power of two"]
    assert validate_table([0, 1, 1]) == [
        "table length 3 is not a power of two"]
    assert validate_table([1, 1]) == [
        "entropy of the empty set is 1, expected 0"]
    assert validate_table([Fraction(0), Fraction(-1)]) == [
        "negative entropy -1", "monotonicity violated: H(0x1) < H(0x0)"]
    r = validate_table([Fraction(0), Fraction(1), Fraction(2), Fraction(1)])
    assert r == ["monotonicity violated: H(0x3) < H(0x2)"]


def test_validate_table_names_only_the_first_monotonicity_violation():
    # decreasing in every direction at m = 12: 24564 violating pairs
    table = [0] + [12 - bin(s).count("1") for s in range(1, 1 << 12)]
    assert validate_table(table) == [
        "monotonicity violated: H(0x3) < H(0x1)"]


def test_validate_table_rejects_non_submodular_tables():
    # monotone and grounded but not submodular: H(0)+H(1) < H(01)+H(empty)
    r = validate_table([Fraction(0), Fraction(1), Fraction(1), Fraction(3)])
    assert r == ["submodularity violated: H(0x1) + H(0x2) "
                        "< H(0x3) + H(0x0)"]
    # only the first violating triple (S, i, j) in ascending order is named:
    # S = {0}, i = 1, j = 2 here, though S = {1}, i = 0, j = 2 fails too
    r = validate_table([0, 0, 2, 2, 1, 1, 3, 4])
    assert r == ["submodularity violated: H(0x3) + H(0x5) "
                        "< H(0x7) + H(0x1)"]
    # a genuinely entropic table is clean
    assert validate_table([Fraction(0), Fraction(1), Fraction(1),
                           Fraction(2)]) == []


def test_tabular_source_accepts_strings_and_fractions():
    t = TabularSource(["0", "1/2", "1/2", "3/4"])
    assert t.m == 2
    assert t.entropy_denominator == 4
    assert t.joint_entropy(0b11) == Fraction(3, 4)
    assert t.joint_entropy_scaled(0b01) == 2
    # every point query reads the table, scaled by its denominator
    assert [t.joint_entropy_scaled(mask) for mask in range(4)] == [0, 2, 2, 3]
    u23 = [min(bin(mask).count("1"), 2) for mask in range(8)]
    t3 = TabularSource([Fraction(h, 3) for h in u23])
    assert [t3.joint_entropy_scaled(mask) for mask in range(8)] == u23
    # every failed check is a hard error, submodularity included
    with pytest.raises(ValueError, match="submodularity violated"):
        TabularSource([0, 1, 1, 3])
    with pytest.raises(ValueError):
        TabularSource([0, 2, 1, 1])


def test_tabulate_round_trip_matches_linear_model():
    model = example_model(3)
    table = tabulate(model)
    assert table.m == model.m
    for mask in range(1 << model.m):
        assert table.joint_entropy(mask) == model.joint_entropy(mask)


# ---------------------------------------------------------------------------
# Properties: joint entropy of any linear source is grounded, monotone,
# and submodular (it is a matroid rank function)
# ---------------------------------------------------------------------------

@given(st.integers(0, 10 ** 9))
@settings(max_examples=60, deadline=None)
def test_linear_entropy_is_polymatroidal(seed):
    rng = random.Random(seed)
    inst = random_linear_instance(rng, multi_user=rng.random() < 0.5)
    model = inst.model
    values = [model.joint_entropy(mask) for mask in range(1 << model.m)]
    assert validate_table(values) == []


@given(st.integers(0, 10 ** 9))
@settings(max_examples=40, deadline=None)
def test_conditional_entropy_nonnegative_and_bounded(seed):
    rng = random.Random(seed)
    inst = random_linear_instance(rng, multi_user=False)
    model = inst.model
    full = model.full_mask
    for _ in range(20):
        s = rng.randrange(full + 1)
        t = rng.randrange(full + 1)
        h = cond_entropy(model, s, t)
        assert 0 <= h <= model.joint_entropy(s)


# ---------------------------------------------------------------------------
# Chain oracle: one path of the walk along a greedy chain lists the nonzero
# prefix-by-prefix point-query increments, in visiting order, for every
# model kind and for any state of the rank memo, also when a prefix
# reaches H(X_M) early and the chain stops there
# ---------------------------------------------------------------------------

FIELDS = {"GF(3)": make_field(3), "GF(2^2)": make_field(2, 2)}


def _draw_model(draw, kind, m, n, full=None):
    """A model of the given kind; terminal `full`, when given, observes
    the whole file (owns every packet, or holds n independent rows)."""
    if kind == "raw":
        owned = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=n),
                              min_size=m, max_size=m))
        if full is not None:
            owned[full] = list(range(n))
        return lambda: raw_source(owned, n)
    if kind == "tabular":
        sizes = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
        rows = [[[draw(st.integers(0, 2)) for _ in range(n)]
                 for _ in range(r)] for r in sizes]
        if full is not None:
            rows[full] = [[int(a == b) for a in range(n)] for b in range(n)]
        F = FIELDS["GF(3)"]
        values = table_values(LinearSource(
            F, n, [Matrix.from_rows(F, r, ncols=n) for r in rows]))
        # rescale so that entropies are fractions with denominator 3
        return lambda: TabularSource([v / 3 for v in values])
    F = FIELDS[kind]
    sizes = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    rows = [[[draw(st.integers(0, F.q - 1)) for _ in range(n)]
             for _ in range(r)] for r in sizes]
    if full is not None:
        rows[full] = [[int(a == b) for a in range(n)] for b in range(n)]
    return lambda: LinearSource(
        F, n, [Matrix.from_rows(F, r, ncols=n) for r in rows])


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_chain_matches_prefix_point_queries(data):
    draw = data.draw
    kind = draw(st.sampled_from(["raw", "tabular", "GF(3)", "GF(2^2)"]))
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 5))
    # optionally one terminal sees the whole file and is the target (a
    # raw target owning every packet) or leads the order (full rank after
    # one sender), so the chain saturates at once
    saturate = draw(st.sampled_from(["no", "start", "first"]))
    if saturate == "first":
        m = max(m, 2)
    full = None if saturate == "no" else draw(st.integers(0, m - 1))
    make = _draw_model(draw, kind, m, n, full)
    # the chain starts at the target, the one start any caller passes
    if saturate == "start":
        target = full
    else:
        target = draw(st.sampled_from([j for j in range(m) if j != full]))
    start = 1 << target
    rest = [j for j in range(m) if j != target]
    order = draw(st.permutations(rest))
    order = order[:draw(st.integers(0, len(order)))]
    if saturate == "first":
        order = [full] + [j for j in order if j != full]
    masks = [start]
    for j in order:
        masks.append(masks[-1] | 1 << j)

    reference = make()
    h = [reference.joint_entropy_scaled(mask) for mask in masks]
    dense = point_chain(reference, start, order)
    expected = [(j, dense[j]) for j in order if dense[j]]

    model = make()
    # the memo is cold, fully warm, or warm on a leading run of prefixes
    # plus random later ones (the chain walks the run, then eliminates
    # from the first cold prefix on, carrying its basis across later hits)
    warmth = draw(st.sampled_from(["cold", "warm", "partial"]))
    run = {"cold": 0, "warm": len(masks),
           "partial": draw(st.integers(0, len(masks)))}[warmth]
    for i, mask in enumerate(masks):
        if i < run or (warmth == "partial" and draw(st.booleans())):
            model.joint_entropy_scaled(mask)
    pairs = _greedy_rates_scaled(model, target, order)
    assert pairs == expected
    # no zero is listed, and the pairs come in visiting order
    assert all(v for _, v in pairs)
    positions = [order.index(j) for j, _ in pairs]
    assert positions == sorted(positions)
    # every rank a linear chain memoized is right, and so is every prefix
    for mask, value in getattr(model, "_memo", {}).items():
        assert value == reference.joint_entropy_scaled(mask)
    assert [model.joint_entropy_scaled(mask) for mask in masks] == h


def test_chains_stop_once_the_prefix_holds_the_whole_file():
    # terminal 1 sees the whole file: from the prefix that adds it on,
    # every increment is zero and a linear chain ranks nothing further
    F = make_field(3)
    rows = [[[1, 1, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 2]],
            [[2, 0, 1]]]
    linear = LinearSource(F, 3, [Matrix.from_rows(F, r, ncols=3)
                                 for r in rows])
    assert _greedy_rates_scaled(linear, 0, [1, 2, 3]) == [(1, 2)]
    assert linear._memo == {0: 0, 0b1111: 3, 0b0001: 1, 0b0011: 3}
    # a target that holds the whole file lists nothing and steps nowhere
    assert _greedy_rates_scaled(linear, 1, [0, 2, 3]) == []
    assert linear._memo == {0: 0, 0b1111: 3, 0b0001: 1, 0b0011: 3,
                            0b0010: 3}
    # a raw target that owns every packet receives nothing
    raw = raw_source([[0, 1, 2, 3], [1], [2, 3]], 4)
    assert _greedy_rates_scaled(raw, 0, [1, 2]) == []
    assert _greedy_rates_scaled(raw, 1, [0, 2]) == [(0, 3)]


def test_a_chain_ranks_its_target_by_absorbing_its_rows(monkeypatch):
    """With H(X_M) known, a cold linear chain calls no `rank`: its root
    is a walk step from the empty state like every other step, so the
    target's rows are absorbed into the basis the chain goes on with."""
    F = make_field(3)
    rows = [[[1, 1, 0]], [[1, 0, 0]], [[0, 1, 2]], [[2, 0, 1]]]
    linear = LinearSource(F, 3, [Matrix.from_rows(F, r, ncols=3)
                                 for r in rows])
    assert linear._full_rank == 3
    calls = []
    real_rank = datex.source.rank

    def counted_rank(*args):
        calls.append(args)
        return real_rank(*args)

    monkeypatch.setattr(datex.source, "rank", counted_rank)
    assert _greedy_rates_scaled(linear, 0, [1, 2, 3]) == [(1, 1), (2, 1)]
    assert calls == []
    assert linear._memo == {0: 0, 0b1111: 3, 0b0001: 1, 0b0011: 2,
                            0b0111: 3}


# ---------------------------------------------------------------------------
# The cut-lattice walk
# ---------------------------------------------------------------------------

def _fresh_rank(model, mask):
    """rank(stack(...)) of the mask's observation matrices, memo unread."""
    if not mask:
        return 0
    return rank(stack(*(model.matrices[i] for i in mask_to_set(mask))))


def _reference_cuts(model, tmask, target):
    """(cut, need) for every cut of `target`, ascending, from fresh ranks:
    need = H(X_ctx) - H(X_(ctx \\ S)), ctx the target plus the senders."""
    senders = tmask & ~(1 << target)
    ctx = senders | 1 << target
    total = _fresh_rank(model, ctx)
    return [(cut, total - _fresh_rank(model, ctx & ~cut))
            for cut in range(1, senders + 1) if not cut & ~senders]


WALK_FIELDS = [make_field(3), make_field(5), make_field(2, 2),
               make_field(3, 2)]


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_the_cut_walk_memoizes_fresh_ranks(data):
    """violated_cuts reads each receiver's cuts from one depth-first walk:
    every rank it memoizes equals a fresh rank(stack(...)), and the full
    LP's rows (helpers.full_cut_lp) and the most violated cut equal a
    reference built from fresh point queries.  Terminals may hold no rows,
    repeat a row or copy another terminal's rows; with a transmitters
    list, a transmitting hub sees the whole file so that every user can
    decode."""
    draw = data.draw
    F = draw(st.sampled_from(WALK_FIELDS))
    m = draw(st.integers(2, 7))
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, F.q - 1), min_size=n, max_size=n)
    rows = [draw(st.lists(row, max_size=3)) for _ in range(m)]
    for i in range(m):
        how = draw(st.sampled_from(["keep", "repeat", "copy"]))
        if how == "repeat" and rows[i]:
            rows[i].append(rows[i][0])
        elif how == "copy":
            rows[i] = list(rows[draw(st.integers(0, m - 1))])
    transmitters = None
    if draw(st.booleans()):
        transmitters = draw(st.lists(st.integers(0, m - 1), unique=True))
        hub = draw(st.integers(0, m - 1))
        rows[hub] = [[int(a == b) for a in range(n)] for b in range(n)]
        transmitters.append(hub)
    model = LinearSource(F, n, [Matrix.from_rows(F, r, ncols=n)
                                for r in rows])
    users = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m,
                          unique=True))
    inst = Instance(model, users, transmitters=set(transmitters or range(m)))
    tmask = inst.transmitter_mask

    need = {}
    for l in inst.user_list:
        for cut, rhs in _reference_cuts(model, tmask, l):
            need[cut] = max(need.get(cut, 0), rhs)
    assert full_cut_lp(inst) == [
        (cut, Fraction(rhs)) for cut, rhs in sorted(need.items())]

    rates = [draw(st.fractions(0, 3, max_denominator=4))
             if t in inst.transmitters else Fraction(0) for t in range(m)]
    # every terminal a receiver, so the query walks every lattice
    everyone = Instance(model, range(m), transmitters=inst.transmitters)
    expected = {}
    for target in range(m):
        cuts = []
        for cut, rhs in _reference_cuts(model, tmask, target):
            got = sum((rates[i] for i in mask_to_set(cut)), Fraction(0))
            if got < rhs:
                cuts.append((cut, Fraction(rhs), got))
        if cuts:
            expected[target] = max(cuts, key=lambda v: v[1] - v[2])
    assert violated_cuts(rates, everyone) == expected

    for mask, value in model._memo.items():
        assert value == _fresh_rank(model, mask)


def test_a_memo_hit_keeps_the_basis_built_above_it(monkeypatch):
    """Target 0 and senders 1..4 each observe one unit row.  With the memo
    warm at {0, 1, 2}, the walk's root absorbs the target's row, the walk
    misses at {0, 1} first and later hits at {0, 1, 2}.  The hit carries
    {0, 1}'s basis along, so the miss below it at {0, 1, 2, 3} absorbs
    only terminal 2's and 3's rows, and no basis is ever rebuilt from
    the target's rows."""
    F = make_field(3)
    model = LinearSource(F, 5, [Matrix.from_rows(F, [[int(a == b)
                                                      for a in range(5)]],
                                                 ncols=5)
                                for b in range(5)])
    inst = Instance(model, [0])
    model.joint_entropy_scaled(0b00111)
    log = []
    absorb = EchelonBasis.absorb
    grow = model._cut_grow

    def logged_absorb(basis, row):
        log.append(list(row).index(1))
        return absorb(basis, row)

    def logged_grow(state, t):
        log.append(("grow", state[0] | 1 << t))
        return grow(state, t)

    monkeypatch.setattr(EchelonBasis, "absorb", logged_absorb)
    monkeypatch.setattr(model, "_cut_grow", logged_grow)
    list(_iter_cuts(inst, 0, [1] * 5))
    # the point query of the whole context ranks by elimination too; the
    # walk's own absorbs start at its root, a step from the empty state
    log = log[log.index(("grow", 0b00001)):]
    assert log[:4] == [("grow", 0b00001), 0, ("grow", 0b00011), 1]
    at = log.index(("grow", 0b01111))
    assert log[at + 1:at + 3] == [2, 3]
    assert not isinstance(log[at + 3], int)
    assert log.count(0) == 1 and log.count(1) == 1


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_the_cut_walk_does_not_depend_on_the_memo(data):
    """`_iter_cuts` yields the same triples, in the same order, with the
    rank memo cold, fully warm, or warm on a random subset of masks, and
    every rank it memoizes is right."""
    draw = data.draw
    F = draw(st.sampled_from(WALK_FIELDS))
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, F.q - 1), min_size=n, max_size=n)
    rows = [draw(st.lists(row, max_size=3)) for _ in range(m)]

    def make():
        return LinearSource(F, n, [Matrix.from_rows(F, r, ncols=n)
                                   for r in rows])

    target = draw(st.integers(0, m - 1))
    rates = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    expected = list(_iter_cuts(Instance(make(), [target]), target, rates))
    model = make()
    warmth = draw(st.sampled_from(["warm", "partial"]))
    for mask in range(1 << m):
        if warmth == "warm" or draw(st.booleans()):
            model.joint_entropy_scaled(mask)
    assert list(_iter_cuts(Instance(model, [target]), target,
                           rates)) == expected
    for mask, value in model._memo.items():
        assert value == _fresh_rank(model, mask)
