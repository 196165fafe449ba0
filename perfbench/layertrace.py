"""Layer tracing installed from outside the tautilt package.

``Tracer.install`` replaces the entry points of each module (layer) with
timing wrappers, at every binding that imports them by name, so no call
bypasses the wrapper.  Each wrapped call is a span with a name, start,
end and parent span; a span's self time is its duration minus the time
its child spans cover.  The calls made most often (normal forms, kernels,
span additions and coordinates, chain compositions and H^0 dimensions)
are aggregated instead of kept one by one, and ``FiniteDimAlgebra.mul``
and ``Fraction.__new__`` are only counted.  Spans stay in memory and are
written out when the run ends.

The tracer keeps one span stack, so traced code must run on the thread
that installed it; a timed call from any other thread raises.
"""
from __future__ import annotations

import fractions
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

# name, unit, better: every per-layer metric a traced run reports.
METRICS = (
    ("gbasis.calls", "count", "lower"),
    ("gbasis.self_s", "s", "lower"),
    ("algebra.build_calls", "count", "lower"),
    ("algebra.build_self_s", "s", "lower"),
    ("algebra.quotient_calls", "count", "lower"),
    ("algebra.quotient_s", "s", "lower"),
    ("algebra.is_symmetric_s", "s", "lower"),
    ("algebra.mul_calls", "count", "lower"),
    ("linalg.kernel_calls", "count", "lower"),
    ("linalg.kernel_s", "s", "lower"),
    ("linalg.kernel_max_rows", "count", "lower"),
    ("linalg.kernel_max_cols", "count", "lower"),
    ("linalg.span_add_calls", "count", "lower"),
    ("linalg.span_add_s", "s", "lower"),
    ("linalg.span_add_useful_ratio", "ratio", "higher"),
    ("linalg.span_coords_s", "s", "lower"),
    ("fields.fraction_new_calls", "count", "lower"),
    ("complexes.mutate_calls", "count", "lower"),
    ("complexes.mutate_p50_ms", "ms", "lower"),
    ("complexes.mutate_tail_ms", "ms", "lower"),
    ("complexes.mutate_tail_pct", "%", "higher"),
    ("complexes.left_fail_ratio", "ratio", "lower"),
    ("complexes.approx_self_s", "s", "lower"),
    ("complexes.homk_calls", "count", "lower"),
    ("complexes.homk_s", "s", "lower"),
    ("complexes.homk_useful_ratio", "ratio", "higher"),
    ("complexes.summand_useful_ratio", "ratio", "higher"),
    ("complexes.rad_end_calls", "count", "lower"),
    ("complexes.rad_end_s", "s", "lower"),
    ("complexes.compose_chain_calls", "count", "lower"),
    ("complexes.compose_chain_s", "s", "lower"),
    ("complexes.reduce_three_s", "s", "lower"),
    ("complexes.h0_dim_calls", "count", "lower"),
    ("complexes.h0_dim_s", "s", "lower"),
    ("engine.walks", "count", "lower"),
    ("engine.walk_self_s", "s", "lower"),
    ("engine.expansions", "count", "lower"),
    ("engine.nodes", "count", "higher"),
    ("engine.payload_calls", "count", "lower"),
    ("engine.payload_s", "s", "lower"),
    ("engine.payload_useful_ratio", "ratio", "higher"),
    ("reductions.central_ideal_calls", "count", "lower"),
    ("reductions.central_ideal_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# Spans whose calls are too many to keep one by one.
_AGGREGATED = frozenset({"gbasis.reduce", "linalg.kernel", "linalg.span_add",
                         "linalg.span_coords", "complexes.compose_chain",
                         "complexes.h0_dim"})
# Percentile ladder for the tail: the highest with ten samples beyond it.
_TAIL_PCTS = (99.9, 99.0, 90.0, 50.0)


class Tracer:
    def __init__(self):
        self._thread = threading.get_ident()
        self._ids = itertools.count()
        self._patches = []               # (owner, attr, original)
        self.missing = []                # bindings not found at install
        self.stack = []                  # [id, start, child_s, name]
        self.calls = Counter()           # every call
        self.top_calls = Counter()       # calls not nested in the same name
        self.self_s = defaultdict(float)
        self.top_s = defaultdict(float)  # inclusive time of top_calls
        self.counts = Counter()
        self.mutate_s = []               # duration of every mutation
        self.spans = []                  # (id, name, start, end, parent id)
        self.walk = -1                   # index of the running walk
        self.pairs = set()               # (walk, g(X), g(Y)) per HomK
        self.gvecs = set()               # (walk, g) per TwoTermComplex
        self.kernel_rows = self.kernel_cols = 0

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name, fn, before=None, after=None):
        tracer = self
        clock = time.perf_counter
        keep = name not in _AGGREGATED

        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                raise RuntimeError(f"traced call to {name} from a second "
                                   "thread")
            stack = tracer.stack
            parent = stack[-1] if stack else None
            if before is not None:
                before()
            frame = [next(tracer._ids), clock(), 0.0, name]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if not any(f[3] == name for f in stack):
                    tracer.top_calls[name] += 1
                    tracer.top_s[name] += dur
                if name == "complexes.mutate":
                    tracer.mutate_s.append(dur)
                if keep:
                    tracer.spans.append((frame[0], name, frame[1], end,
                                         parent and parent[0]))
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _counted(self, name, fn, after=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _patch(self, bindings, wrapper_of):
        """Wrap the object bound at each (owner, attribute) and bind the
        wrapper in its place; bindings of one object share one wrapper.
        A binding that no longer exists is recorded in self.missing."""
        wrappers = {}
        for owner, attr in bindings:
            raw = owner.__dict__.get(attr)
            if raw is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            if id(raw) not in wrappers:
                if isinstance(raw, staticmethod):
                    wrapper = staticmethod(wrapper_of(raw.__func__))
                else:
                    wrapper = wrapper_of(raw)
                wrappers[id(raw)] = wrapper
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, wrappers[id(raw)])

    # -- hooks ------------------------------------------------------------

    def _walk_start(self):
        self.walk += 1

    def _walk_done(self, args, g):
        self.counts["engine.nodes"] += len(g.nodes)
        self.counts["engine.expansions"] += g.expansions

    def _homk_built(self, args, result):
        X, Y = args[1], args[2]
        self.pairs.add((self.walk, X.g_vector(), Y.g_vector()))

    def _summand_built(self, args, result):
        self.gvecs.add((self.walk, args[0].g_vector()))

    def _left_done(self, args, result):
        if result is None:
            self.counts["complexes.left_fail"] += 1

    def _span_added(self, args, result):
        if result:
            self.counts["linalg.span_add_useful"] += 1

    def _kernel_shape(self, args, result):
        rows, ncols = args[0], args[1]
        self.kernel_rows = max(self.kernel_rows, len(rows))
        self.kernel_cols = max(self.kernel_cols, ncols)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import tautilt.cli as cli
        from tautilt import (algebra, catalog, complexes, engine, gbasis,
                             linalg, modules, reductions)
        self.missing = []
        T, C = self._timed, self._counted
        patch = self._patch
        G, FA = gbasis.NCGroebner, algebra.FiniteDimAlgebra
        HK, TT = complexes.HomK, complexes.TwoTermComplex
        patch([(G, "__init__")], lambda f: T("gbasis.init", f))
        patch([(G, "reduce")], lambda f: T("gbasis.reduce", f))
        patch([(algebra, "build_algebra"), (catalog, "build_algebra"),
               (cli, "build_algebra")], lambda f: T("algebra.build", f))
        patch([(FA, "vertex_quotient"), (FA, "quotient_with_projection")],
              lambda f: T("algebra.quotient", f))
        patch([(FA, "is_symmetric")], lambda f: T("algebra.is_symmetric", f))
        patch([(FA, "mul")], lambda f: C("algebra.mul", f))
        patch([(linalg, "kernel"), (complexes, "kernel"), (algebra, "kernel"),
               (modules, "kernel")],
              lambda f: T("linalg.kernel", f, after=self._kernel_shape))
        patch([(linalg.SpanQQ, "add"), (linalg.SpanGF, "add")],
              lambda f: T("linalg.span_add", f, after=self._span_added))
        patch([(linalg.SpanQQ, "coords"), (linalg.SpanGF, "coords")],
              lambda f: T("linalg.span_coords", f))
        patch([(fractions.Fraction, "__new__")],
              lambda f: C("fields.fraction_new", f))
        patch([(complexes, "mutate"), (engine, "mutate")],
              lambda f: T("complexes.mutate", f))
        patch([(complexes, "_left_mutation")],
              lambda f: T("complexes.left_mutation", f,
                          after=self._left_done))
        patch([(complexes, "_approx_components")],
              lambda f: T("complexes.approx", f))
        patch([(HK, "__init__")],
              lambda f: T("complexes.homk", f, after=self._homk_built))
        patch([(complexes, "_rad_end_reps")],
              lambda f: T("complexes.rad_end", f))
        patch([(complexes, "compose_chain")],
              lambda f: T("complexes.compose_chain", f))
        patch([(complexes, "_reduce_three")],
              lambda f: T("complexes.reduce_three", f))
        patch([(TT, "h0_dim_vector")], lambda f: T("complexes.h0_dim", f))
        patch([(TT, "__init__")],
              lambda f: C("complexes.summand", f, after=self._summand_built))
        patch([(engine, "enumerate_graph"), (cli, "enumerate_graph")],
              lambda f: T("engine.walk", f, before=self._walk_start,
                          after=self._walk_done))
        patch([(engine, "strata_counts"), (cli, "strata_counts")],
              lambda f: T("engine.strata", f))
        patch([(engine, "_node_payload")], lambda f: T("engine.payload", f))
        patch([(reductions, "max_central_radical_ideal")],
              lambda f: T("reductions.central_ideal", f))
        patch([(reductions, "reduce"), (cli, "reduce_algebra")],
              lambda f: T("reductions.reduce", f))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict:
        """Every per-layer metric of METRICS, by name."""
        calls, top_calls, counts = self.calls, self.top_calls, self.counts
        self_s, top_s = self.self_s, self.top_s

        def ratio(a, b):
            return a / b if b else 0.0

        mut = sorted(self.mutate_s)
        p50 = tail = pct = 0.0
        if mut:
            p50 = _percentile(mut, 50.0) * 1e3
            pct = next((p for p in _TAIL_PCTS
                        if len(mut) * (100.0 - p) / 100.0 >= 10), 0.0)
            tail = (_percentile(mut, pct) if pct else mut[-1]) * 1e3
        return {
            "gbasis.calls": calls["gbasis.init"] + calls["gbasis.reduce"],
            "gbasis.self_s": self_s["gbasis.init"] + self_s["gbasis.reduce"],
            "algebra.build_calls": calls["algebra.build"],
            "algebra.build_self_s": self_s["algebra.build"],
            "algebra.quotient_calls": top_calls["algebra.quotient"],
            "algebra.quotient_s": top_s["algebra.quotient"],
            "algebra.is_symmetric_s": top_s["algebra.is_symmetric"],
            "algebra.mul_calls": counts["algebra.mul"],
            "linalg.kernel_calls": calls["linalg.kernel"],
            "linalg.kernel_s": top_s["linalg.kernel"],
            "linalg.kernel_max_rows": self.kernel_rows,
            "linalg.kernel_max_cols": self.kernel_cols,
            "linalg.span_add_calls": calls["linalg.span_add"],
            "linalg.span_add_s": top_s["linalg.span_add"],
            "linalg.span_add_useful_ratio": ratio(
                counts["linalg.span_add_useful"], calls["linalg.span_add"]),
            "linalg.span_coords_s": top_s["linalg.span_coords"],
            "fields.fraction_new_calls": counts["fields.fraction_new"],
            "complexes.mutate_calls": calls["complexes.mutate"],
            "complexes.mutate_p50_ms": p50,
            "complexes.mutate_tail_ms": tail,
            "complexes.mutate_tail_pct": pct,
            "complexes.left_fail_ratio": ratio(
                counts["complexes.left_fail"],
                calls["complexes.left_mutation"]),
            "complexes.approx_self_s": self_s["complexes.approx"],
            "complexes.homk_calls": calls["complexes.homk"],
            "complexes.homk_s": top_s["complexes.homk"],
            "complexes.homk_useful_ratio": ratio(
                len(self.pairs), calls["complexes.homk"]),
            "complexes.summand_useful_ratio": ratio(
                len(self.gvecs), counts["complexes.summand"]),
            "complexes.rad_end_calls": calls["complexes.rad_end"],
            "complexes.rad_end_s": top_s["complexes.rad_end"],
            "complexes.compose_chain_calls": calls["complexes.compose_chain"],
            "complexes.compose_chain_s": top_s["complexes.compose_chain"],
            "complexes.reduce_three_s": top_s["complexes.reduce_three"],
            "complexes.h0_dim_calls": calls["complexes.h0_dim"],
            "complexes.h0_dim_s": top_s["complexes.h0_dim"],
            "engine.walks": calls["engine.walk"],
            "engine.walk_self_s": self_s["engine.walk"],
            "engine.expansions": counts["engine.expansions"],
            "engine.nodes": counts["engine.nodes"],
            "engine.payload_calls": calls["engine.payload"],
            "engine.payload_s": top_s["engine.payload"],
            "engine.payload_useful_ratio": ratio(
                counts["engine.nodes"], calls["engine.payload"]),
            "reductions.central_ideal_calls":
                calls["reductions.central_ideal"],
            "reductions.central_ideal_s": top_s["reductions.central_ideal"],
            "trace.overhead_ratio": overhead_ratio,
        }

    def write_spans(self, path) -> int:
        """Write every kept span as one JSON line, in start order."""
        spans = sorted(self.spans, key=lambda s: s[2])
        with open(path, "w") as fh:
            for sid, name, start, end, parent in spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
        return len(spans)


def _percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = -(-len(sorted_values) * pct // 100) - 1
    return sorted_values[max(0, min(len(sorted_values) - 1, int(k)))]
