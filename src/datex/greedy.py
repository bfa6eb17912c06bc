"""One receiver's greedy vertex and its cuts.

For one receiving terminal t, the achievable rate region is the
contra-polymatroid

    { R >= 0 : sum_{i in S} R_i >= H(X_S | X_((T u {t}) \\ S))
      for every nonempty S subseteq T \\ {t} }

where T is the transmitter set.  Minimizing a nonnegative weighted sum
over it admits a greedy optimum: visit transmitters in ascending weight
order (ties by terminal index) and give each the conditional entropy of
its observation given the receiver's side information plus everything
visited earlier.  Equivalently, the suffix sets of the visiting order are
exactly the tight constraints of that vertex.  `_greedy_rates_scaled`
gives the vertex of any visiting order as its nonzero (terminal, rate)
pairs; `dual.solve` asks it once per receiver and iteration, ordering
the senders by that receiver's multipliers, which for a single receiver
are the weights.

The vertex is one path of the model's walk (`SourceModel.chain_scaled`),
and `_iter_cuts` is the package's one walk over a receiver's cuts and
their right-hand sides; both step with `SourceModel._cut_root` and
`_cut_grow`.  `violated_cuts` is the one separation query on the cuts:
for one rate vector, every receiver's most violated cut, keyed by the
receivers whose cuts the rates miss.  `verify`, the exact oracle's cut
loop, the design's feasibility check after a failed first draw and
`rationalize`'s repair each ask it once per rate vector.  The check runs
in integers: the rates are checked and scaled to one common denominator
once and compared with the integer-scaled entropies, which the walk
reads one terminal at a time.  It skips every cut that needs nothing, so
each round visits at most 2^(|T|-1) cuts per receiver.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .instance import Instance
from .source import SizeLimitError, SourceModel, mask_to_set, scale_to_int

__all__ = [
    "check_rate_domain",
    "violated_cuts",
    "senders_of",
]

RateVector = Tuple[Fraction, ...]

# A cut walk visits up to 2^|T| subsets; keep it to desk scale.
_FEASIBILITY_GUARD_M = 20


def senders_of(instance: Instance, target: int) -> List[int]:
    """The transmitters other than `target` in ascending index order, so a
    stable sort by a key then orders them by (key, index)."""
    return sorted(t for t in instance.transmitters if t != target)


def _greedy_rates_scaled(model: SourceModel, target: int,
                         order: Sequence[int]) -> List[Tuple[int, int]]:
    """The vertex of the given visiting order, sparse: (order[i],
    H(X_{order[i]} | X_target, X_{order[:i]}) * entropy_denominator) for
    every nonzero rate, in visiting order.  One chain, one path of the
    model's walk."""
    return model.chain_scaled(1 << target, order)


def _iter_cuts(instance: Instance, target: int, rates: Sequence[int]):
    """The cuts S subseteq transmitters \\ {target} that need something,
    in walk order, as (mask, need, got): need is the scaled
    H(X_S | X_(ctx \\ S)) > 0, with ctx the receiver plus the transmitters,
    and got the sum of the integer `rates` over S.  One depth-first walk
    over the complements U = ctx \\ {target} \\ S: each node adds one
    sender after its parent's last, so each U is reached once, and
    carries R(U) and the model's walk state.  A node that already holds
    H(X_ctx) is not grown, since no cut below it needs anything."""
    model = instance.model
    tmask = instance.transmitter_mask & ~(1 << target)
    senders = mask_to_set(tmask)
    total = model._joint_scaled(tmask | 1 << target)
    rate_sum = sum(rates[t] for t in senders)
    state, h = model._cut_root(1 << target)
    if h == total:
        return
    yield tmask, total - h, rate_sum
    grow = model._cut_grow
    steps = ()   # (sender, its bit, its rate, the steps after it), ascending
    for t in reversed(senders):
        steps = ((t, 1 << t, rates[t], steps),) + steps
    todo = [(state, tmask, rate_sum, steps)]   # (state, cut, its rates, steps)
    while todo:
        state, cut, got, rest = todo.pop()
        for t, bit, r, after in rest:
            child, h = grow(state, t)
            if h < total:
                yield cut ^ bit, total - h, got - r
                if after:
                    todo.append((child, cut ^ bit, got - r, after))


def check_rate_domain(instance: Instance, rates: Sequence) -> List[Fraction]:
    """The rate vector as Fractions, after checking that it has m entries,
    none negative, and none nonzero off the transmitters (ValueError)."""
    m = instance.m
    r = [Fraction(x) for x in rates]
    if len(r) != m:
        raise ValueError(f"expected {m} rates, got {len(r)}")
    for i, x in enumerate(r):
        if x < 0:
            raise ValueError(f"rate of terminal {i} is negative ({x})")
        if x and i not in instance.transmitters:
            raise ValueError(f"terminal {i} does not transmit but has rate {x}")
    return r


def violated_cuts(rates: Sequence, instance: Instance
                  ) -> Dict[int, Tuple[int, Fraction, Fraction]]:
    """Each receiver's most violated cut as {receiver: (mask, required,
    provided)}, in receiver order, for the receivers whose cuts the rates
    miss: the largest required - provided, ties to the smallest mask,
    which is the unique inclusion-minimal one (the deficit is
    supermodular).  Exact: the rates are checked (check_rate_domain) and
    scaled to one common denominator once, and every cut is compared in
    integers.  Every cut that needs something is checked."""
    if instance.m > _FEASIBILITY_GUARD_M:
        raise SizeLimitError(
            f"feasibility check limited to m <= {_FEASIBILITY_GUARD_M}")
    rden, scaled = scale_to_int(check_rate_domain(instance, rates))
    den = instance.model.entropy_denominator
    out = {}
    for l in instance.user_list:
        worst = best = 0
        for cut, need, got in _iter_cuts(instance, l, scaled):
            deficit = need * rden - got * den
            if deficit > worst or deficit == worst and cut < best:
                worst, best = deficit, cut
                out[l] = cut, Fraction(need, den), Fraction(got, rden)
    return out
