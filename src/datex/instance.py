"""A data-exchange instance: the source model plus who wants the file, who
may transmit, and what each transmitted symbol costs."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction

from .gf import is_int
from .source import SourceModel

__all__ = ["Instance", "InfeasibleInstanceError"]


class InfeasibleInstanceError(ValueError):
    """The stated transmitters cannot satisfy some user even jointly."""


class _Frozen:
    """Immutable after __init__, which sets every attribute with one
    `self.__dict__.update(...)`; assigning or deleting an attribute later
    raises AttributeError.  A plain class instead of a frozen dataclass
    keeps `dataclasses` (and the `inspect` it imports) out of every
    command's start-up."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Instance(_Frozen):
    """A data-exchange problem: who wants the file, who may transmit, and
    what each transmitted symbol costs.

    users        -- nonempty set of terminals that must decode everything
    weights      -- per-terminal nonnegative cost of one transmitted symbol
    transmitters -- terminals allowed to transmit (default: all)

    Construction fails unless every user can decode from the transmitters'
    side information plus its own, i.e. H(X_(T u {l})) = H(X_M) for each
    user l.
    """

    def __init__(self, model: SourceModel, users: Iterable[int],
                 weights: Sequence | None = None,
                 transmitters: Iterable[int] | None = None):
        m = model.m
        users_list = list(users)
        users_f = frozenset(users_list)
        if not users_f:
            raise ValueError("at least one user is required")
        if not all(map(is_int, users_list)):
            raise ValueError("user indices must be integers")
        if len(users_f) != len(users_list):
            raise ValueError("duplicate user index")
        if any(not 0 <= u < m for u in users_f):
            raise ValueError("user index out of range")
        if weights is None:
            w = tuple(Fraction(1) for _ in range(m))
        else:
            w = []
            for i, x in enumerate(weights):
                if isinstance(x, bool):
                    raise ValueError(f"weight of terminal {i} is a bool ({x})")
                w.append(Fraction(x))
            w = tuple(w)
        if len(w) != m:
            raise ValueError(f"expected {m} weights, got {len(w)}")
        if any(x < 0 for x in w):
            raise ValueError("weights must be nonnegative")
        trans = list(range(m) if transmitters is None else transmitters)
        if not all(map(is_int, trans)):
            raise ValueError("transmitter indices must be integers")
        trans_f = frozenset(trans)
        if any(not 0 <= t < m for t in trans_f):
            raise ValueError("transmitter index out of range")
        self.__dict__.update(model=model, users=users_f, weights=w,
                             transmitters=trans_f)
        full = model.full_mask
        total = model.joint_entropy_scaled(full)
        tmask = self.transmitter_mask
        for l in sorted(users_f):
            if model.joint_entropy_scaled(tmask | (1 << l)) != total:
                raise InfeasibleInstanceError(
                    f"user {l} cannot decode: transmitters plus its own side "
                    f"information do not determine the joint source")

    @property
    def m(self) -> int:
        return self.model.m

    @property
    def k(self) -> int:
        return len(self.users)

    @property
    def user_list(self) -> tuple[int, ...]:
        return tuple(sorted(self.users))

    @property
    def transmitter_mask(self) -> int:
        mask = 0
        for t in self.transmitters:
            mask |= 1 << t
        return mask

    def objective(self, rates: Iterable) -> Fraction:
        """The weighted rate sum: sum of weights[i] * rates[i], exact."""
        return sum((w * Fraction(r) for w, r in zip(self.weights, rates)),
                   Fraction(0))
