"""Spans and counters recorded around the calls between datex modules.

Nothing inside the program is changed: `install` swaps wrappers into the
names each caller looks up (modules bind `from .x import f` at import
time, so `datex.dual._greedy_rates_scaled` is wrapped, not
`datex.greedy._greedy_rates_scaled`) and into a few class attributes, and
`uninstall` puts the originals back.  The layers are the modules: cli,
dual, greedy, source, gf, oracle and netcode.

A span records (op id, name, start, end, parent span, self time); self
time is the span minus the time its children (spans or aggregated calls)
cover.  Calls made ~10^5 times per op (entropy queries and the ranks and
stacks behind them) are not recorded one by one: their count and time are
added to the enclosing span and to per-name totals.  Spans stay in memory
until `dump` writes them out.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.op = 0
        self.spans = []                          # (op, name, t0, t1, parent, self_s)
        self.agg = defaultdict(lambda: [0, 0.0])  # (span index, name) -> [calls, s]
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, s, self_s]
        self.counts = Counter()
        self._frames = []                        # child time of each open call
        self._open = []                          # indices of open recorded spans

    def call(self, name, fn, args, kwargs):
        """fn(*args, **kwargs) as a recorded span."""
        frame = [0.0]
        self._frames.append(frame)
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._frames.pop()
            self._open.pop()
            self._finish(name, t1 - t0, frame[0])
            self.spans[idx] = (self.op, name, t0, t1, parent, t1 - t0 - frame[0])

    def tally(self, name, fn, args, kwargs):
        """fn(*args, **kwargs) counted and timed into the enclosing span only."""
        frame = [0.0]
        self._frames.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            self._frames.pop()
            self._finish(name, dur, frame[0])
            if self._open:
                a = self.agg[(self._open[-1], name)]
                a[0] += 1
                a[1] += dur

    def _finish(self, name, dur, child_s):
        if self._frames:
            self._frames[-1][0] += dur
        tot = self.totals[name]
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - child_s

    def calls(self, name):
        return self.totals[name][0] if name in self.totals else 0

    def total_s(self, name):
        return self.totals[name][1] if name in self.totals else 0.0

    def self_s(self, name):
        return self.totals[name][2] if name in self.totals else 0.0

    def layer_self_s(self, layer):
        return sum(t[2] for n, t in self.totals.items()
                   if n.split(".", 1)[0] == layer)

    def dump(self, path):
        """Write every span, with its aggregated children, as JSON lines."""
        children = defaultdict(dict)
        for (idx, name), (n, s) in self.agg.items():
            children[idx][name] = [n, s]
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (op, name, t0, t1, parent, self_s) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "op": op, "name": name, "start": t0, "end": t1,
                    "parent": parent, "self_s": self_s,
                    "aggregated": children.get(idx, {})}) + "\n")


# (module, attribute, span name, record one span per call?)
_SITES = [
    ("datex.cli", "parse_instance", "cli.parse_instance", True),
    ("datex.cli", "_load_scheme", "cli.load_scheme", True),
    ("datex.cli", "raw_source", "source.raw_source", True),
    ("datex.cli", "make_field", "gf.make_field", True),
    ("datex.cli", "solve", "dual.solve", True),
    ("datex.cli", "violated_cuts", "greedy.violated_cuts", True),
    ("datex.cli", "build_lp", "oracle.build_lp", True),
    ("datex.cli", "solve_exact", "oracle.solve_exact", True),
    ("datex.cli", "rationalize", "netcode.rationalize", True),
    ("datex.cli", "design_transmissions", "netcode.design", True),
    ("datex.cli", "verify_decodability", "netcode.verify_decodability", True),
    ("datex.cli", "simulate_exchange", "netcode.simulate", True),
    ("datex.dual", "_greedy_rates_scaled", "greedy.chain", True),
    ("datex.oracle", "exact_simplex", "oracle.simplex", True),
    ("datex.netcode", "violated_cuts", "greedy.violated_cuts", True),
    ("datex.netcode", "verify_decodability", "netcode.verify_decodability", True),
    ("datex.netcode", "rank", "gf.rank", True),
    ("datex.netcode", "solve_linear", "gf.solve_linear", True),
    ("datex.netcode", "mat_vec", "gf.mat_vec", True),
    ("datex.netcode", "stack", "gf.stack", True),
    ("datex.netcode", "make_field", "gf.make_field", True),
    ("datex.netcode", "embed_map", "gf.embed_map", True),
    ("datex.source", "make_field", "gf.make_field", True),
    ("datex.source", "rank", "gf.rank", False),
    ("datex.source", "stack", "gf.stack", False),
]

# Matrix methods called from every layer; patched on the class.
_MATRIX_METHODS = [
    ("__matmul__", "gf.matmul"),
    ("from_rows", "gf.from_rows"),
    ("kron_identity", "gf.kron_identity"),
    ("map_to_field", "gf.map_to_field"),
]


# span name -> (counter, its increment read off a call's args and result)
_COUNTERS = {
    "gf.rank": ("gf.rank.cells", lambda args, r: args[0].nrows * args[0].ncols),
    "dual.solve": ("dual.iterations", lambda args, r: r.iterations),
    "oracle.build_lp": ("oracle.rows", lambda args, r: len(r.constraints)),
    "oracle.simplex": ("oracle.pivots", lambda args, r: r.pivots),
    "netcode.design": ("netcode.design_attempts", lambda args, r: r.attempt + 1),
}


def _wrap(tracer, name, fn, record):
    run = tracer.call if record else tracer.tally
    counter = _COUNTERS.get(name)

    def wrapper(*args, **kwargs):
        result = run(name, fn, args, kwargs)
        if counter:
            tracer.counts[counter[0]] += counter[1](args, result)
        return result
    return wrapper


def install(tracer):
    """Swap the wrappers in and return what `uninstall` needs to undo it.
    A site this version of datex no longer has raises LookupError, after
    undoing the wrappers already in: its metrics would otherwise read 0,
    which looks like a gain."""
    import importlib
    from datex import greedy
    from datex.gf import Matrix
    from datex.source import SourceModel

    saved = []

    def patch(owner, attr, make):
        """Replace owner.attr by make(original)."""
        if attr not in owner.__dict__:
            uninstall(saved)
            raise LookupError(f"{owner.__name__}.{attr} is not in this datex")
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    for modname, attr, name, record in _SITES:
        patch(importlib.import_module(modname), attr,
              lambda fn, name=name, record=record: _wrap(tracer, name, fn, record))

    for attr, name in _MATRIX_METHODS:
        patch(Matrix, attr, lambda raw, name=name: (
            classmethod(_wrap(tracer, name, raw.__func__, True))
            if isinstance(raw, classmethod) else _wrap(tracer, name, raw, True)))

    counts = tracer.counts

    def wrap_entropy(js):
        def joint_entropy_scaled(model, subset):
            memo = getattr(model, "_memo", None)
            before = len(memo) if memo is not None else 0
            value = tracer.tally("source.joint_entropy_scaled", js,
                                 (model, subset), {})
            if memo is not None and len(memo) > before:
                counts["source.distinct_masks"] += 1
            return value
        return joint_entropy_scaled
    patch(SourceModel, "joint_entropy_scaled", wrap_entropy)

    def wrap_cuts(iter_cuts):
        def counted_cuts(*args, **kwargs):
            for cut in iter_cuts(*args, **kwargs):
                counts["greedy.cuts_checked"] += 1
                yield cut
        return counted_cuts
    patch(greedy, "_iter_cuts", wrap_cuts)
    return saved


def uninstall(saved):
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
