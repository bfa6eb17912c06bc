"""Turning rate allocations into working finite-field transmission schemes.

Pipeline: snap a (possibly approximate) rate vector to small rationals and
re-verify feasibility; pick a chunk count L (the lcm of the denominators)
so every terminal sends an integer number of chunk symbols; replicate the
observation matrices blockwise over the L chunks; then draw each
terminal's coding matrix uniformly at random over an extension field big
enough that decodability is likely, verifying exactly and retrying with
fresh randomness until it holds.  Every terminal codes only over its own
observation.

Decodability is a rank condition: receiver l recovers everything iff its
decoding system, `TransmissionScheme.system(l)` (its own replicated
observation stacked with the other senders' coded rows), has full column
rank.  `simulate_exchange` runs the whole exchange on concrete seeded
random source draws and checks each receiver actually reconstructs every
one uniquely, which succeeds exactly when the rank condition holds.  The
system is the same for every draw, so it is eliminated once per block of
seeds, with one right-hand side per seed.

Both read a scheme's coding view: the replicated, embedded observation
blocks, built once by `design_transmissions` (shared by all attempts) or by
`scheme_core_from_dict`, and the coded rows, built on first use.  Those
two functions check the view's size, sum(rows) * L x N * L field
entries, against one bound before building it, from the model's row
counts alone.  The source kind is checked where an Instance enters this
module.

The multicast graph view (super-source, per-terminal sender/relay nodes,
per-receiver sinks) is exported for DOT rendering; with feasible chunk
rates its min-cut to every receiver is at least the total chunk count.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .gf import (Field, Matrix, embed_map, is_int, make_field, mat_vec, rank,
                 solve_linear, stack)
from .greedy import check_rate_domain, violated_cuts
from .instance import Instance, _Frozen
from .source import LinearSource, SizeLimitError, mask_to_set, scale_to_int

__all__ = [
    "TransmissionScheme",
    "MulticastGraph",
    "DecodabilityReport",
    "SimulationResult",
    "InfeasibleRatesError",
    "DesignFailureError",
    "IncompleteSourceError",
    "min_extension_degree",
    "rationalize",
    "design_transmissions",
    "verify_decodability",
    "simulate_exchange",
    "build_multicast_graph",
    "graph_to_dot",
    "scheme_core_to_dict",
    "scheme_core_from_dict",
]


# Largest coding view accepted: the field entries of every terminal's
# observation matrix replicated over L chunks, sum(rows) * L x N * L.  A
# scheme holds that many references (8 bytes each), and building it takes
# about twice that transiently, so 2^22 entries is some 32 MB; the largest
# benchmark or golden scheme has about 7000.
_MAX_CODING_VIEW = 1 << 22


class InfeasibleRatesError(ValueError):
    """The requested rates fail some receiver's cut-set constraint, or
    need more than max_denominator chunks per packet."""


class DesignFailureError(RuntimeError):
    """No decodable scheme found within the attempt budget."""


class IncompleteSourceError(ValueError):
    """The observations jointly span fewer than all N packets, so no scheme
    over any field can let a user decode every packet."""


class TransmissionScheme(_Frozen):
    """A concrete linear exchange scheme.

    Terminal i sends matrices[i] . X'_i where X'_i is its observation
    replicated over L chunks and embedded into the coding field (an
    extension of the source field of the stated degree).  chunk_rates[i]
    is the number of coding-field symbols terminal i sends.  `embed` (the
    source-to-coding-field map) and `blocks` (the replicated, embedded
    observation matrices) follow from the instance, L and the coding field.
    """

    def __init__(self, instance: Instance, L: int,
                 chunk_rates: Tuple[int, ...], ext_degree: int,
                 coding_field: Field, matrices: Dict[int, Matrix], seed: int,
                 attempt: int, embed: Tuple[int, ...],
                 blocks: Tuple[Matrix, ...]):
        self.__dict__.update(
            instance=instance, L=L, chunk_rates=chunk_rates,
            ext_degree=ext_degree, coding_field=coding_field,
            matrices=matrices, seed=seed, attempt=attempt, embed=embed,
            blocks=blocks)

    @property
    def total_symbols(self) -> int:
        return sum(self.chunk_rates)

    @cached_property
    def coded(self) -> Dict[int, Matrix]:
        """Each transmitter's coded rows over the chunked packets."""
        return {i: M @ self.blocks[i] for i, M in self.matrices.items()}

    def senders(self, l: int) -> List[int]:
        """The terminals whose transmissions receiver l hears, ascending."""
        return [i for i in sorted(self.matrices) if i != l]

    def system(self, l: int) -> Matrix:
        """Receiver l's decoding system: its replicated observation block
        stacked with the coded rows of `senders(l)`, in that order."""
        coded = self.coded
        return stack(self.blocks[l], *(coded[i] for i in self.senders(l)))


class DecodabilityReport(NamedTuple):
    """Per-receiver rank deficits (0 means decodable)."""

    deficits: Dict[int, int]

    @property
    def ok(self) -> bool:
        return all(d == 0 for d in self.deficits.values())


class SimulationResult(NamedTuple):
    """Outcome of simulated exchanges on `runs` seeded source draws:
    decoded[l] counts the draws receiver l decoded, and all_decoded the
    draws every receiver decoded."""

    runs: int
    decoded: Dict[int, int]
    all_decoded: int

    @property
    def ok(self) -> bool:
        return self.all_decoded == self.runs


def min_extension_degree(field: Field, users: int, packets: int, L: int) -> int:
    """Smallest t with |field|^t > 2 * users * packets * L, the margin at
    which random coding matrices succeed with comfortable probability."""
    need = 2 * users * packets * L
    t = 1
    size = field.q
    while size <= need:
        t += 1
        size *= field.q
    return t


def _check_chunk_rates(instance: Instance,
                       chunk_rates: Sequence) -> Tuple[int, ...]:
    """The chunk rates as a tuple, after checking that each is an integer
    (TypeError), that there are m of them, and that none is negative or
    nonzero off the transmitters (ValueError)."""
    rates = tuple(_int_entry(c, "chunk_rates entry") for c in chunk_rates)
    if len(rates) != instance.m:
        raise ValueError(f"chunk_rates must list {instance.m} values, "
                         f"got {len(rates)}")
    check_rate_domain(instance, rates)
    return rates


def _check_rates_feasible(instance: Instance, rates: Sequence[Fraction]) -> None:
    for l in instance.user_list:
        bad = violated_cuts(rates, instance, l, limit=1)
        if bad:
            cut, need, got = bad[0]
            raise InfeasibleRatesError(
                f"receiver {l}: cut {set(mask_to_set(cut))} needs rate "
                f"{need}, rates provide {got}")


def _simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The simplest rational in [lo, hi] (smallest denominator, then
    smallest absolute numerator), found by descending the Stern-Brocot
    tree: the continued fraction of the two ends up to where they part."""
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -_simplest_between(-hi, -lo)
    whole = math.floor(lo)
    if whole == lo or whole + 1 <= hi:
        return Fraction(math.ceil(lo))
    # lo and hi share the integer part and neither is an integer
    return whole + 1 / _simplest_between(1 / (hi - whole), 1 / (lo - whole))


def _snap(rate: Fraction, max_denominator: int) -> Fraction:
    """`rate` itself if its denominator is at most max_denominator, else
    the simplest rational within 1/(2*max_denominator) of it, whose
    denominator is at most max_denominator too (that interval holds a
    multiple of 1/max_denominator)."""
    if rate.denominator <= max_denominator:
        return rate
    half = Fraction(1, 2 * max_denominator)
    return _simplest_between(rate - half, rate + half)


def rationalize(rates: Sequence, instance: Instance,
                max_denominator: int = 64) -> Tuple[int, Tuple[int, ...]]:
    """Chunk count L and integer per-terminal chunk rates for a rate vector.

    The rates must pass `check_rate_domain` (ValueError).  A rate with
    denominator at most max_denominator is kept; any other is snapped to
    the simplest rational within 1/(2*max_denominator) of it.  This is
    where slightly-off solver output lands back on the exact optimum,
    whose denominators are small; the closest fraction with a bounded
    denominator is often a more complex one, and its lcm then inflates L.
    The snapped vector is re-verified against every receiver's cuts of the
    instance.  Deficits small enough to be snapping artifacts (at most
    m/(2*max_denominator), the most a cut sum can move when every
    coordinate moves by at most that much) are repaired: each terminal in
    ascending order is raised by the largest remaining deficit of the
    violated cuts through it, which restores all cuts in one pass.  A
    larger deficit means the requested rates were infeasible before
    snapping, which raises InfeasibleRatesError.  L is the lcm of the
    final denominators; one above max_denominator raises
    InfeasibleRatesError too.
    """
    if max_denominator < 1:
        raise ValueError("max_denominator must be >= 1")
    snapped = [_snap(r, max_denominator)
               for r in check_rate_domain(instance, rates)]
    snap_slack = Fraction(len(snapped), 2 * max_denominator)
    # largest deficit of each violated cut over the receivers; raising a
    # rate only shrinks deficits, so one scan per receiver finds every cut
    # a repair has to cover
    deficits: Dict[int, Fraction] = {}
    for l in instance.user_list:
        for cut, need, got in violated_cuts(snapped, instance, l):
            deficit = need - got
            if deficit > snap_slack:
                raise InfeasibleRatesError(
                    f"receiver {l}: cut {set(mask_to_set(cut))} is "
                    f"short by {deficit}, more than snapping to the "
                    f"1/{max_denominator} grid can explain")
            if deficit > deficits.get(cut, 0):
                deficits[cut] = deficit
    if deficits:   # each cut's lowest terminal raises it, so rates change
        for i in sorted(instance.transmitters):
            through = [cut for cut in deficits if (cut >> i) & 1]
            worst = max((deficits[cut] for cut in through), default=0)
            if worst > 0:
                snapped[i] += worst
                for cut in through:
                    deficits[cut] -= worst
        _check_rates_feasible(instance, snapped)
    L, chunks = scale_to_int(snapped)
    if L > max_denominator:
        raise InfeasibleRatesError(
            f"chunk count {L} exceeds max_denominator={max_denominator}")
    return L, tuple(chunks)


def _linear_model(instance: Instance) -> LinearSource:
    """The instance's source model, which must carry observation matrices."""
    model = instance.model
    if not isinstance(model, LinearSource):
        raise TypeError("transmission schemes need a linear (or raw) source model")
    return model


def _check_coding_view_size(model: LinearSource, L: int) -> None:
    """Raise SizeLimitError before a coding view above _MAX_CODING_VIEW
    entries is built; `design_transmissions` and `scheme_core_from_dict`
    both call it as soon as L is known."""
    entries = sum(model.row_counts) * L * model.N * L
    if entries > _MAX_CODING_VIEW:
        raise SizeLimitError(
            f"coding view of {entries} field entries (observation rows x "
            f"packets x L^2, L = {L}) exceeds the supported bound "
            f"{_MAX_CODING_VIEW}")


def _coding_view(model: LinearSource, L: int, coding_field: Field
                 ) -> Tuple[Tuple[int, ...], Tuple[Matrix, ...]]:
    """The source-to-coding-field map and every terminal's observation
    matrix replicated over L chunks and embedded into the coding field."""
    emb = embed_map(model.field, coding_field)
    return emb, tuple(A.kron_identity(L).map_to_field(coding_field, emb)
                      for A in model.matrices)


def design_transmissions(instance: Instance, chunk_rates: Sequence[int], L: int,
                         ext_degree: Optional[int] = None, seed: int = 0,
                         max_attempts: int = 32) -> TransmissionScheme:
    """Draw coding matrices at random until every receiver can decode.

    Requires a linear/raw source model, chunk rates that are feasible for
    the L-chunk replicated source (checked exactly up front), and zero
    rate on non-transmitters.  Attempts are seeded independently, so the
    whole construction is reproducible; failure after max_attempts raises
    DesignFailureError (a larger extension degree is the usual fix).  An
    instance whose joint observation does not span all N packets raises
    IncompleteSourceError before any attempt: that is structural.
    """
    model = _linear_model(instance)
    joint = model.joint_entropy_scaled(model.full_mask)
    if joint < model.N:
        raise IncompleteSourceError(
            f"the joint observation has rank H(X_M) = {joint} < N = {model.N} "
            f"packets, so no scheme can deliver every packet and no field "
            f"size can help")
    if L < 1:
        raise ValueError("L must be >= 1")
    _check_coding_view_size(model, L)
    chunk_rates = _check_chunk_rates(instance, chunk_rates)
    _check_rates_feasible(instance, [Fraction(c, L) for c in chunk_rates])

    if ext_degree is None:
        ext_degree = min_extension_degree(model.field, instance.k, model.N, L)
    if ext_degree < 1:
        raise ValueError("ext_degree must be >= 1")
    coding_field = make_field(model.field.p, model.field.degree * ext_degree)
    emb, blocks = _coding_view(model, L, coding_field)

    q = coding_field.q
    for attempt in range(max_attempts):
        rng = random.Random(seed * 1_000_003 + attempt)
        mats: Dict[int, Matrix] = {}
        for i in range(instance.m):
            r = chunk_rates[i]
            if r == 0:
                continue
            ncols = blocks[i].nrows
            mats[i] = Matrix(coding_field, r, ncols,
                             [rng.randrange(q) for _ in range(r * ncols)])
        scheme = TransmissionScheme(instance, L, chunk_rates, ext_degree,
                                    coding_field, mats, seed, attempt,
                                    emb, blocks)
        if verify_decodability(scheme).ok:
            return scheme
    raise DesignFailureError(
        f"no decodable scheme in {max_attempts} attempts; try a larger "
        f"extension degree (used {ext_degree})")


def verify_decodability(scheme: TransmissionScheme) -> DecodabilityReport:
    """Exact rank check per receiver: its decoding system
    (`TransmissionScheme.system`) must span all chunked packets."""
    target = scheme.instance.model.N * scheme.L
    return DecodabilityReport({l: target - rank(scheme.system(l))
                               for l in scheme.instance.user_list})


# Seeds decoded per elimination, one right-hand-side column each: the
# decode memory stays bounded however many seeds a run asks for, and past
# a few dozen columns the shared elimination of the coded rows is a small
# part of each seed's cost.
_DECODE_BLOCK = 64


def simulate_exchange(scheme: TransmissionScheme, seed: int = 0,
                      runs: int = 1) -> SimulationResult:
    """Run the exchange on the uniformly drawn sources of seeds seed ..
    seed + runs - 1.

    Every terminal observes its draw and sends its coded symbols; each
    receiver solves its decoding system (`TransmissionScheme.system`)
    against its own observation and the symbols it hears.  It decodes a
    draw when the system determines the source uniquely (`solve_linear`
    answers None otherwise) and the unique solution matches the truth.
    This succeeds iff the receiver passes verify_decodability.  The
    system is the same for every draw, so the seeds are taken in blocks
    of at most _DECODE_BLOCK and each receiver decodes a block with one
    `solve_linear` call, a right-hand side per seed: the memory a run
    uses does not grow with `runs`.
    """
    model = scheme.instance.model
    users = scheme.instance.user_list
    blocks, emb = scheme.blocks, scheme.embed
    systems = {l: scheme.system(l) for l in users}
    heard = {l: scheme.senders(l) for l in users}
    decoded = dict.fromkeys(users, 0)
    all_decoded = 0
    for start in range(seed, seed + runs, _DECODE_BLOCK):
        draws = []
        rhs: Dict[int, List[List[int]]] = {l: [] for l in users}
        for s in range(start, min(start + _DECODE_BLOCK, seed + runs)):
            rng = random.Random(s)
            w = tuple(emb[rng.randrange(model.field.q)]
                      for _ in range(model.N * scheme.L))
            # the embedding is a field homomorphism, so observing the
            # embedded draw through the embedded blocks gives the embedded
            # observations
            obs = [mat_vec(B, w) for B in blocks]
            sent = {i: mat_vec(M, obs[i]) for i, M in scheme.matrices.items()}
            draws.append(w)
            for l in users:
                col = list(obs[l])
                for i in heard[l]:
                    col.extend(sent[i])
                rhs[l].append(col)
        every = [True] * len(draws)
        for l in users:
            M = systems[l]
            B = Matrix(scheme.coding_field, M.nrows, len(draws),
                       [v for row in zip(*rhs[l]) for v in row])
            for k, x in enumerate(solve_linear(M, B)):
                hit = x == draws[k]
                decoded[l] += hit
                every[k] &= hit
        all_decoded += sum(every)
    return SimulationResult(runs, decoded, all_decoded)


# ---------------------------------------------------------------------------
# Multicast graph view
# ---------------------------------------------------------------------------

class MulticastGraph(NamedTuple):
    """Super-source S owns all chunked packets; sender s_i carries terminal
    i's side information (capacity = observed symbols); relay t_i carries
    its broadcast (capacity = chunk rate) to every other receiver; each
    receiver also taps its own sender directly."""

    nodes: Tuple[str, ...]
    edges: Tuple[Tuple[str, str, int], ...]
    source: str
    receivers: Tuple[str, ...]
    total_chunks: int


def build_multicast_graph(instance: Instance, chunk_rates: Sequence[int],
                          L: int) -> MulticastGraph:
    model = _linear_model(instance)
    chunk_rates = _check_chunk_rates(instance, chunk_rates)
    m = instance.m
    users = instance.user_list
    nodes = ["S"]
    nodes += [f"s{i}" for i in range(m)]
    nodes += [f"t{i}" for i in range(m)]
    nodes += [f"r{j}" for j in users]
    edges: List[Tuple[str, str, int]] = []
    for i in range(m):
        own = model.row_counts[i] * L
        edges.append(("S", f"s{i}", own))
        if i in instance.users:
            edges.append((f"s{i}", f"r{i}", own))
        edges.append((f"s{i}", f"t{i}", chunk_rates[i]))
        for j in users:
            if j != i:
                edges.append((f"t{i}", f"r{j}", chunk_rates[i]))
    return MulticastGraph(tuple(nodes), tuple(edges), "S",
                          tuple(f"r{j}" for j in users), model.N * L)


def graph_to_dot(graph: MulticastGraph) -> str:
    """Graphviz DOT text with capacities as edge labels."""
    out = ["digraph exchange {", "  rankdir=LR;"]
    for node in graph.nodes:
        shape = "doublecircle" if node == graph.source else (
            "box" if node in graph.receivers else "circle")
        out.append(f'  {node} [shape={shape}];')
    for u, v, cap in graph.edges:
        out.append(f'  {u} -> {v} [label="{cap}"];')
    out.append("}")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Scheme serialization (the instance part is handled by the CLI layer)
# ---------------------------------------------------------------------------

def scheme_core_to_dict(scheme: TransmissionScheme) -> dict:
    return {
        "L": scheme.L,
        "chunk_rates": list(scheme.chunk_rates),
        "ext_degree": scheme.ext_degree,
        "coding_field": {
            "characteristic": scheme.coding_field.p,
            "degree": scheme.coding_field.degree,
        },
        "matrices": {
            str(i): [list(M.row(r)) for r in range(M.nrows)]
            for i, M in sorted(scheme.matrices.items())
        },
        "seed": scheme.seed,
        "attempt": scheme.attempt,
    }


def _int_entry(value, where: str) -> int:
    """A scheme-file integer: an int, not a bool, float or string."""
    if not is_int(value):
        raise TypeError(f"{where} must be an integer, "
                        f"not {type(value).__name__}")
    return value


def _required(data: dict, key: str, where: str = ""):
    """A scheme-block entry that must be present; a missing one is named."""
    if key not in data:
        raise ValueError(f"missing '{where}{key}'")
    return data[key]


def scheme_core_from_dict(data: dict, instance: Instance) -> TransmissionScheme:
    """Read a scheme block back against its instance; every malformed entry
    raises an error that names its key."""
    if not isinstance(data, dict):
        raise TypeError("scheme must be an object")
    model = _linear_model(instance)
    L = _int_entry(_required(data, "L"), "L")
    if L < 1:
        raise ValueError("L must be >= 1")
    _check_coding_view_size(model, L)
    if not isinstance(_required(data, "chunk_rates"), list):
        raise TypeError("chunk_rates must be a list")
    chunk_rates = _check_chunk_rates(instance, data["chunk_rates"])
    matrices = _required(data, "matrices")
    if not isinstance(matrices, dict):
        raise TypeError("matrices must map terminals to rows")
    if not set(matrices) <= {str(i) for i in range(instance.m)}:
        raise ValueError(f"matrix keys must be distinct terminals "
                         f"0..{instance.m - 1}")
    keys = {int(key) for key in matrices}
    if keys != {i for i, c in enumerate(chunk_rates) if c}:
        raise ValueError("need one matrix for each terminal with a nonzero "
                         "chunk rate, and for no other")
    ext_degree = _int_entry(_required(data, "ext_degree"), "ext_degree")
    seed = _int_entry(data.get("seed", 0), "seed")
    attempt = _int_entry(data.get("attempt", 0), "attempt")
    cf = _required(data, "coding_field")
    if not isinstance(cf, dict):
        raise TypeError("coding_field must be an object")
    char = _int_entry(_required(cf, "characteristic", "coding_field."),
                      "coding_field.characteristic")
    degree = _int_entry(_required(cf, "degree", "coding_field."),
                        "coding_field.degree")
    # judged before the field is built, so a false claim builds no tables
    if char != model.field.p or degree != model.field.degree * ext_degree:
        raise ValueError("coding field does not extend the source field as stated")
    coding_field = make_field(char, degree)
    mats: Dict[int, Matrix] = {}
    for key, rows in matrices.items():
        i = int(key)
        if not isinstance(rows, list) or not all(isinstance(r, list)
                                                 for r in rows):
            raise TypeError(f"matrices['{key}'] must be a list of rows")
        try:
            mats[i] = Matrix.from_rows(coding_field, rows,
                                       ncols=model.row_counts[i] * L)
        except ValueError as exc:
            raise ValueError(f"matrices['{key}']: {exc}") from exc
        if mats[i].nrows != chunk_rates[i]:
            raise ValueError(f"terminal {i}: matrix rows != chunk rate")
    emb, blocks = _coding_view(model, L, coding_field)
    return TransmissionScheme(instance, L, chunk_rates, ext_degree,
                              coding_field, mats, seed, attempt, emb, blocks)
