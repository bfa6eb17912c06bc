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
own replicated observation stacked with all coded transmissions has full
column rank.  `simulate_exchange` runs the whole exchange on a concrete
random source draw and checks each receiver actually reconstructs it
uniquely, which succeeds exactly when the rank condition holds.

Both read a scheme's coding view: the replicated, embedded observation
blocks, built once by `design_transmissions` (shared by all attempts) or by
`scheme_core_from_dict`, and the coded rows, built on first use.  The
source kind is checked where an Instance enters this module.

The multicast graph view (super-source, per-terminal sender/relay nodes,
per-receiver sinks) is exported for DOT rendering; with feasible chunk
rates its min-cut to every receiver is at least the total chunk count.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .gf import Field, Matrix, embed_map, make_field, mat_vec, rank, solve_linear, stack
from .greedy import violated_cuts
from .instance import Instance
from .source import LinearSource, mask_to_set

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


class InfeasibleRatesError(ValueError):
    """The requested rates fail some receiver's cut-set constraint."""


class DesignFailureError(RuntimeError):
    """No decodable scheme found within the attempt budget."""


class IncompleteSourceError(ValueError):
    """The observations jointly span fewer than all N packets, so no scheme
    over any field can let a user decode every packet."""


@dataclass(frozen=True)
class TransmissionScheme:
    """A concrete linear exchange scheme.

    Terminal i sends matrices[i] . X'_i where X'_i is its observation
    replicated over L chunks and embedded into the coding field (an
    extension of the source field of the stated degree).  chunk_rates[i]
    is the number of coding-field symbols terminal i sends.  `embed` (the
    source-to-coding-field map) and `blocks` (the replicated, embedded
    observation matrices) follow from the instance, L and the coding field,
    so they take no part in equality.
    """

    instance: Instance
    L: int
    chunk_rates: Tuple[int, ...]
    ext_degree: int
    coding_field: Field
    matrices: Dict[int, Matrix]
    seed: int
    attempt: int
    embed: Tuple[int, ...] = field(compare=False, repr=False)
    blocks: Tuple[Matrix, ...] = field(compare=False, repr=False)

    @property
    def total_symbols(self) -> int:
        return sum(self.chunk_rates)

    @cached_property
    def coded(self) -> Dict[int, Matrix]:
        """Each transmitter's coded rows over the chunked packets."""
        return {i: M @ self.blocks[i] for i, M in self.matrices.items()}


@dataclass
class DecodabilityReport:
    """Per-receiver rank deficits (0 means decodable)."""

    target_rank: int
    deficits: Dict[int, int]

    @property
    def ok(self) -> bool:
        return all(d == 0 for d in self.deficits.values())


@dataclass
class SimulationResult:
    """Outcome of one simulated exchange on a random source draw."""

    successes: Dict[int, bool]

    @property
    def ok(self) -> bool:
        return all(self.successes.values())


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


def _check_rates_feasible(instance: Instance, rates: Sequence[Fraction]) -> None:
    for l in instance.user_list:
        bad = violated_cuts(rates, instance, l, limit=1)
        if bad:
            cut, need, got = bad[0]
            raise InfeasibleRatesError(
                f"receiver {l}: cut {set(mask_to_set(cut))} needs rate "
                f"{need}, rates provide {got}")


def rationalize(rates: Sequence, instance: Instance,
                max_denominator: int = 64) -> Tuple[int, Tuple[int, ...]]:
    """Chunk count L and integer per-terminal chunk rates for a rate vector.

    Each rate is snapped to the nearest rational with denominator at most
    max_denominator (this is where slightly-off solver output lands back
    on the exact optimum), and the snapped vector is re-verified against
    every receiver's cuts of the instance.  Deficits small
    enough to be snapping artifacts (at most m/(2*max_denominator), the
    most a cut sum can move when every coordinate shifts to its nearest
    grid point) are repaired: each terminal in ascending order is raised
    by the largest remaining deficit of the violated cuts through it,
    which restores all cuts in one pass.  A larger deficit means the
    requested rates were infeasible before snapping, which raises
    InfeasibleRatesError.  L is the lcm of the final denominators and
    must not exceed max_denominator.
    """
    if max_denominator < 1:
        raise ValueError("max_denominator must be >= 1")
    snapped = [Fraction(r).limit_denominator(max_denominator) for r in rates]
    if any(r < 0 for r in snapped):
        raise ValueError("rates must be nonnegative")
    if len(snapped) != instance.m:
        raise ValueError("rate vector length mismatch")
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
    L = 1
    for r in snapped:
        L = math.lcm(L, r.denominator)
    if L > max_denominator:
        raise ValueError(
            f"chunk count {L} exceeds max_denominator={max_denominator}")
    return L, tuple(int(r * L) for r in snapped)


def _linear_model(instance: Instance) -> LinearSource:
    """The instance's source model, which must carry observation matrices."""
    model = instance.model
    if not isinstance(model, LinearSource):
        raise TypeError("transmission schemes need a linear (or raw) source model")
    return model


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
    chunk_rates = tuple(int(c) for c in chunk_rates)
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
                             [rng.randrange(q) for _ in range(r * ncols)],
                             validate=False)
        scheme = TransmissionScheme(instance, L, chunk_rates, ext_degree,
                                    coding_field, mats, seed, attempt,
                                    emb, blocks)
        if verify_decodability(scheme).ok:
            return scheme
    raise DesignFailureError(
        f"no decodable scheme in {max_attempts} attempts; try a larger "
        f"extension degree (used {ext_degree})")


def verify_decodability(scheme: TransmissionScheme) -> DecodabilityReport:
    """Exact rank check per receiver: own replicated observation stacked
    with every other terminal's coded rows must span all chunked packets."""
    instance = scheme.instance
    target = instance.model.N * scheme.L
    coded = scheme.coded
    deficits: Dict[int, int] = {}
    for l in instance.user_list:
        parts = [scheme.blocks[l]]
        parts.extend(coded[i] for i in sorted(coded) if i != l)
        got = rank(stack(*parts))
        deficits[l] = target - got
    return DecodabilityReport(target, deficits)


def simulate_exchange(scheme: TransmissionScheme, seed: int = 0) -> SimulationResult:
    """Run the exchange once on a uniformly drawn source.

    Each receiver solves the stacked linear system formed by its own
    observation and all received coded symbols; success means the system
    determines the source uniquely (one `solve_linear` call, which answers
    None otherwise) and the unique solution matches the truth.  This
    succeeds iff the receiver passes verify_decodability.
    """
    instance = scheme.instance
    model = instance.model
    blocks, emb, coded = scheme.blocks, scheme.embed, scheme.coded
    rng = random.Random(seed)
    w = tuple(emb[rng.randrange(model.field.q)]
              for _ in range(model.N * scheme.L))
    # the embedding is a field homomorphism, so observing the embedded draw
    # through the embedded blocks gives the embedded observations
    obs = [mat_vec(B, w) for B in blocks]
    sent = {i: mat_vec(scheme.matrices[i], obs[i]) for i in scheme.matrices}
    successes: Dict[int, bool] = {}
    for l in instance.user_list:
        rows = [blocks[l]]
        rhs: List[int] = list(obs[l])
        for i in sorted(sent):
            if i == l:
                continue
            rows.append(coded[i])
            rhs.extend(sent[i])
        successes[l] = solve_linear(stack(*rows), rhs) == w
    return SimulationResult(successes)


# ---------------------------------------------------------------------------
# Multicast graph view
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MulticastGraph:
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
    chunk_rates = tuple(int(c) for c in chunk_rates)
    if len(chunk_rates) != instance.m:
        raise ValueError("chunk_rates must have one entry per terminal")
    m = instance.m
    users = instance.user_list
    nodes = ["S"]
    nodes += [f"s{i}" for i in range(m)]
    nodes += [f"t{i}" for i in range(m)]
    nodes += [f"r{j}" for j in users]
    edges: List[Tuple[str, str, int]] = []
    for i in range(m):
        own = model.matrices[i].nrows * L
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
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{where} must be an integer, "
                        f"not {type(value).__name__}")
    return value


def scheme_core_from_dict(data: dict, instance: Instance) -> TransmissionScheme:
    model = _linear_model(instance)
    L = _int_entry(data["L"], "L")
    if L < 1:
        raise ValueError("L must be >= 1")
    if not isinstance(data["chunk_rates"], list):
        raise TypeError("chunk_rates must be a list")
    chunk_rates = tuple(_int_entry(c, "chunk_rates entry")
                        for c in data["chunk_rates"])
    if len(chunk_rates) != instance.m:
        raise ValueError(f"chunk_rates must list {instance.m} values, "
                         f"got {len(chunk_rates)}")
    matrices = data["matrices"]
    if not isinstance(matrices, dict):
        raise TypeError("matrices must map terminals to rows")
    if not set(matrices) <= {str(i) for i in range(instance.m)}:
        raise ValueError(f"matrix keys must be distinct terminals "
                         f"0..{instance.m - 1}")
    keys = {int(key) for key in matrices}
    if keys != {i for i, c in enumerate(chunk_rates) if c}:
        raise ValueError("need one matrix for each terminal with a nonzero "
                         "chunk rate, and for no other")
    ext_degree = _int_entry(data["ext_degree"], "ext_degree")
    seed = _int_entry(data.get("seed", 0), "seed")
    attempt = _int_entry(data.get("attempt", 0), "attempt")
    cf = data["coding_field"]
    coding_field = make_field(
        _int_entry(cf["characteristic"], "coding_field.characteristic"),
        _int_entry(cf["degree"], "coding_field.degree"))
    if (coding_field.p != model.field.p
            or coding_field.degree != model.field.degree * ext_degree):
        raise ValueError("coding field does not extend the source field as stated")
    mats: Dict[int, Matrix] = {}
    for key, rows in matrices.items():
        i = int(key)
        width = model.matrices[i].nrows * L
        mats[i] = Matrix.from_rows(coding_field, rows, ncols=width)
        if mats[i].nrows != chunk_rates[i]:
            raise ValueError(f"terminal {i}: matrix rows != chunk rate")
    emb, blocks = _coding_view(model, L, coding_field)
    return TransmissionScheme(instance, L, chunk_rates, ext_degree,
                              coding_field, mats, seed, attempt, emb, blocks)
