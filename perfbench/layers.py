"""Spans around the benchmark's calls into padharm, and per-layer numbers
from a cProfile pass.

A layer is a module of ``src/padharm``.  Its self time is the time during
which it is the innermost layer frame on the stack: time in builtins and
in other standard-library code is charged to the layer that called it,
through the profile's caller edges.  The standard-library ``fractions``
module is a pseudo-layer of its own, ``stdlib.fractions``, because exact
rational arithmetic is where most of the time goes.
"""

import fractions
import os
import time
from collections import Counter, defaultdict

LAYERS = ("cyclotomic", "padic", "qrational", "characters", "matrices",
          "symspace", "spaces", "dagger", "orbital", "lfactors", "config",
          "cli")
FRACTIONS = "stdlib.fractions"
BENCH = "bench"


class Tracer:
    """Wraps each call the benchmark makes into a layer.  It always adds up
    the wall time per call name; with ``spans=True`` it also keeps one span
    per call, parented to the span of the item that made it."""

    def __init__(self, spans=False):
        self.call_s = defaultdict(float)
        self.call_n = Counter()
        self.spans = [] if spans else None
        self.cells = 0
        self.cert_cells = 0
        self._item = None
        self._origin = time.perf_counter()

    def begin_item(self, index, kind):
        if self.spans is not None:
            self._item = {"id": len(self.spans), "parent": None,
                          "trace": index, "name": f"item:{kind}",
                          "start": time.perf_counter() - self._origin}
            self.spans.append(self._item)

    def end_item(self):
        if self._item is not None:
            self._item["end"] = time.perf_counter() - self._origin
            self._item = None

    def call(self, name, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            self.call_s[name] += t1 - t0
            self.call_n[name] += 1
            if self._item is not None:
                self.spans.append({
                    "id": len(self.spans), "parent": self._item["id"],
                    "trace": self._item["trace"], "name": name,
                    "start": t0 - self._origin, "end": t1 - self._origin})

    def add_cells(self, p, box_floor, granularity):
        """Cells of a rank-2 orbital_rs call: the answer pass at granularity
        M and the certificate pass at M + 1, both over p^(M - lo) per entry."""
        cert = p ** (4 * (granularity + 1 - box_floor))
        self.cells += p ** (4 * (granularity - box_floor)) + cert
        self.cert_cells += cert


def _counted():
    """Profile keys (file, first line, name) of the counted functions."""
    from padharm import characters, cyclotomic, matrices, orbital, padic
    from padharm import qrational, spaces, symspace

    cs = cyclotomic.CyclotomicScalar
    qr = qrational.QRational
    wp = spaces.WavePacket
    table = {
        "cyclotomic.mul_calls": [cs.__mul__],
        "cyclotomic.add_calls": [cs.__add__],
        "cyclotomic.is_zero_calls": [cs.is_zero],
        "cyclotomic.reduce_calls": [cs._reduced],
        "padic.val_p_calls": [padic.val_p],
        "padic.ext_mul_calls": [padic.QuadExtScalar.__mul__],
        "characters.psi_calls": [characters.AdditiveCharacter.__call__],
        "characters.eta_calls": [characters.MultiplicativeCharacter.__call__,
                                 characters.ExtCharacter.__call__],
        "spaces.evaluate_calls": [wp.evaluate],
        "spaces.fourier_calls": [wp.fourier],
        "spaces.equals_calls": [wp.equals],
        "spaces.refined_calls": [wp.refined],
        "matrices.mat_mul_calls": [matrices.mat_mul],
        "matrices.det_calls": [matrices.det],
        "symspace.transfer_factor_calls": [symspace.transfer_factor_group,
                                           symspace.transfer_factor_lie,
                                           symspace.transfer_factor_S],
        "qrational.op_calls": [qr.__add__, qr.__neg__, qr.__sub__,
                               qr.__rsub__, qr.__mul__, qr.__truediv__,
                               qr.inverse],
        "qrational.sturm_calls": [qrational.sturm_root_count],
        "orbital.rs_calls": [orbital.orbital_rs],
    }
    out = {}
    for name, fns in table.items():
        out[name] = [(f.__code__.co_filename, f.__code__.co_firstlineno,
                      f.__code__.co_name) for f in fns]
    return out


class Attribution:
    """Charges every profiled function's self time to a layer."""

    def __init__(self, stats, padharm_dir, bench_dir):
        self.stats = stats
        self.padharm_dir = os.path.join(padharm_dir, "")
        self.bench_dir = os.path.join(bench_dir, "")
        self.fractions_file = fractions.__file__
        self._up = {}

    def owner(self, key):
        filename = key[0]
        if filename.startswith(self.padharm_dir):
            stem = os.path.splitext(os.path.basename(filename))[0]
            return stem if stem in LAYERS else None
        if filename == self.fractions_file:
            return FRACTIONS
        if filename.startswith(self.bench_dir):
            return BENCH
        return None

    def _split(self, callers, weight_index, stack):
        """Distribution over owners of the time spent in a function that
        owns no layer, split over its callers by one of the edge weights."""
        total = sum(v[weight_index] for v in callers.values())
        if total <= 0:
            weight_index, total = 1, sum(v[1] for v in callers.values())
        dist = defaultdict(float)
        for caller, edge in callers.items():
            share = edge[weight_index] / total
            own = self.owner(caller)
            if own is not None:
                dist[own] += share
            else:
                for o, s in self._above(caller, stack).items():
                    dist[o] += share * s
        return dist

    def _above(self, key, stack):
        if key in self._up:
            return self._up[key]
        callers = self.stats[key][4] if key in self.stats else {}
        if not callers or key in stack:
            # a root frame (the profiler's own enable/disable) or a cycle
            return {BENCH: 1.0}
        dist = self._split(callers, 3, stack | {key})
        self._up[key] = dist
        return dist

    def self_times(self):
        out = defaultdict(float)
        for key, (_, _, tt, _, callers) in self.stats.items():
            if tt <= 0:
                continue
            own = self.owner(key)
            if own is not None:
                out[own] += tt
            elif not callers:
                out[BENCH] += tt
            else:
                # first hop: by the callee's self time under each caller
                for o, share in self._split(callers, 2, {key}).items():
                    out[o] += tt * share
        return out

    def counts(self):
        keys = _counted()
        return {name: sum(self.stats[k][1] for k in ks if k in self.stats)
                for name, ks in keys.items()}

    def top_functions(self, n=40):
        rows = sorted(self.stats.items(), key=lambda kv: -kv[1][2])[:n]
        return [{"function": f"{k[0]}:{k[1]}({k[2]})",
                 "layer": self.owner(k), "self_s": v[2], "calls": v[1]}
                for k, v in rows]
