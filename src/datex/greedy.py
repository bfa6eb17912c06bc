"""Single-receiver rate allocation by the greedy vertex rule.

For one receiving terminal t, the achievable rate region is the
contra-polymatroid

    { R >= 0 : sum_{i in S} R_i >= H(X_S | X_((T u {t}) \\ S))
      for every nonempty S subseteq T \\ {t} }

where T is the transmitter set.  Minimizing a nonnegative weighted sum
over it admits a greedy optimum: visit transmitters in ascending weight
order (ties broken by an explicit permutation) and give each the
conditional entropy of its observation given the receiver's side
information plus everything visited earlier.  Equivalently, the suffix
sets of the visiting order are exactly the tight constraints of the
returned vertex.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .instance import Instance
from .source import SizeLimitError, SourceModel, mask_to_set

__all__ = [
    "edmonds_allocate",
    "feasible_in_region",
    "violated_cuts",
    "tie_order",
]

RateVector = Tuple[Fraction, ...]

# Exhaustive cut enumeration is 2^|T|; keep it to desk scale.
_FEASIBILITY_GUARD_M = 20


def tie_order(m: int, tie_break: Optional[Sequence[int]]) -> List[int]:
    """Per-terminal rank used to break equal-weight ties.  tie_break lists
    terminal indices in priority order; unlisted terminals follow in
    ascending index order."""
    rank_of = [0] * m
    if tie_break is None:
        for i in range(m):
            rank_of[i] = i
        return rank_of
    seen = set()
    pos = 0
    for t in tie_break:
        if not 0 <= t < m:
            raise ValueError(f"tie_break index {t} out of range")
        if t in seen:
            raise ValueError(f"tie_break repeats terminal {t}")
        seen.add(t)
        rank_of[t] = pos
        pos += 1
    for i in range(m):
        if i not in seen:
            rank_of[i] = pos
            pos += 1
    return rank_of


def _greedy_rates_scaled(model: SourceModel, target: int,
                         order: Sequence[int]) -> List[int]:
    """Scaled rates for the given visiting order: entry for order[i] is
    H(X_{order[i]} | X_target, X_{order[:i]}) * entropy_denominator.  One
    chain query, so the model walks the nested prefixes in one pass."""
    return model.chain_scaled(1 << target, order)


def edmonds_allocate(instance: Instance, target: int,
                     weights: Optional[Sequence] = None,
                     tie_break: Optional[Sequence[int]] = None) -> RateVector:
    """Optimal vertex of the single-receiver region for the given weights.

    Visits the transmitters other than `target` in ascending weight order
    (ties by `tie_break`, default ascending index) and allocates each the
    conditional entropy of its observation given the target's side
    information and all earlier transmitters.  Non-transmitters and the
    target itself get rate zero.
    """
    m = instance.m
    if not 0 <= target < m:
        raise ValueError(f"target {target} out of range")
    if weights is None:
        w = list(instance.weights)
    else:
        w = [Fraction(x) for x in weights]
        if len(w) != m:
            raise ValueError(f"expected {m} weights, got {len(w)}")
    ranks = tie_order(m, tie_break)
    senders = sorted((t for t in instance.transmitters if t != target),
                     key=lambda j: (w[j], ranks[j]))
    scaled = _greedy_rates_scaled(instance.model, target, senders)
    den = instance.model.entropy_denominator
    return tuple(Fraction(v, den) for v in scaled)


def _cut_rhs_scaled(model: SourceModel, cut: int, ctx: int) -> int:
    """Scaled H(X_cut | X_(ctx \\ cut)) for cut subseteq ctx."""
    js = model.joint_entropy_scaled
    return js(ctx) - js(ctx & ~cut)


def _iter_cuts(instance: Instance, target: int):
    """All nonempty cuts S subseteq transmitters \\ {target}, with scaled
    right-hand sides conditioned on the receiver plus the spared
    transmitters."""
    tmask = instance.transmitter_mask & ~(1 << target)
    ctx = tmask | (1 << target)
    senders = mask_to_set(tmask)
    model = instance.model
    for bits in range(1, 1 << len(senders)):
        cut = 0
        b = bits
        i = 0
        while b:
            if b & 1:
                cut |= 1 << senders[i]
            b >>= 1
            i += 1
        yield cut, _cut_rhs_scaled(model, cut, ctx)


def violated_cuts(rates: Sequence, instance: Instance, target: int,
                  limit: Optional[int] = None) -> List[Tuple[int, Fraction, Fraction]]:
    """Cuts the rate vector fails, as (mask, required, provided) triples.
    Exact arithmetic; exhaustive over subsets of the transmitters.  Rates
    must be nonnegative and zero off the transmitters (ValueError)."""
    m = instance.m
    if m > _FEASIBILITY_GUARD_M:
        raise SizeLimitError(
            f"feasibility check limited to m <= {_FEASIBILITY_GUARD_M}")
    if not 0 <= target < m:
        raise ValueError(f"target {target} out of range")
    r = [Fraction(x) for x in rates]
    if len(r) != m:
        raise ValueError(f"expected {m} rates, got {len(r)}")
    for i, x in enumerate(r):
        if x < 0:
            raise ValueError(f"rate of terminal {i} is negative ({x})")
        if x and i not in instance.transmitters:
            raise ValueError(f"terminal {i} does not transmit but has rate {x}")
    den = instance.model.entropy_denominator
    out = []
    for cut, need_scaled in _iter_cuts(instance, target):
        got = sum((r[i] for i in mask_to_set(cut)), Fraction(0))
        need = Fraction(need_scaled, den)
        if got < need:
            out.append((cut, need, got))
            if limit is not None and len(out) >= limit:
                break
    return out


def feasible_in_region(rates: Sequence, instance: Instance, target: int) -> bool:
    """True iff the rate vector satisfies every cut of the receiver's
    region (exact rational comparison)."""
    return not violated_cuts(rates, instance, target, limit=1)
