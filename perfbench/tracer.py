"""In-memory span tracer that wraps the program's public layer functions.

The program itself carries no instrumentation, so the traced run records
its spans from here: :meth:`Tracer.installed` replaces each layer function
(and every alias a ``from x import y`` left in another ``repro`` module)
with a wrapper that notes the call's start, end and enclosing span, then
calls the original unchanged.  The wrappers never touch arguments, results
or random streams, so a traced call returns exactly what an untraced one
does; leaving the ``with`` block puts every original back.

Spans stay in memory until the run ends.  :meth:`Tracer.self_times` gives
each span name's self time (duration minus the time covered by direct
child spans) and :meth:`Tracer.write_chrome_trace` writes the Chrome
trace-event JSON that Perfetto and ``chrome://tracing`` open.
"""

from __future__ import annotations

import io
import json
import pickle
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

# One recorded span: [name, start, end, parent index or -1, query id].
_NAME, _START, _END, _PARENT, _QUERY = range(5)


class Tracer:
    """Records spans and counters from wrapped layer calls."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.query_id = -1
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.query_id])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][_END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, function: Callable,
             on_call: Optional[Callable] = None) -> Callable:
        """A wrapper recording each call of ``function`` as span ``name``.

        ``on_call(tracer, args, kwargs, result)`` runs after a call returns
        and may add counters; a call that raises keeps its span and skips it.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._close(index)
            if on_call is not None:
                on_call(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = function
        for attribute in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(wrapper, attribute, getattr(function, attribute, None))
        return wrapper

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def patch_function(self, module, attribute: str, name: str,
                       on_call: Optional[Callable] = None) -> None:
        """Wrap a module-level function, including its imported aliases."""
        original = getattr(module, attribute)
        self.replace_everywhere(original, self.wrap(name, original, on_call))

    def replace_everywhere(self, original: Callable, replacement: Callable) -> None:
        """Point every ``repro`` module attribute holding ``original`` elsewhere."""
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for alias, value in list(vars(loaded).items()):
                if value is original:
                    self._patches.append((loaded, alias, original))
                    setattr(loaded, alias, replacement)

    def patch_method(self, cls, attribute: str, name: str,
                     on_call: Optional[Callable] = None,
                     static: bool = False) -> None:
        """Wrap a method (or a static method) of ``cls``."""
        original = cls.__dict__[attribute]
        function = original.__func__ if static else original
        wrapper = self.wrap(name, function, on_call)
        self._patches.append((cls, attribute, original))
        setattr(cls, attribute, staticmethod(wrapper) if static else wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped function, last patch first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def installed(self):
        """Wrap the layer functions for the duration of the block."""
        install_layer_wrappers(self)
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    # Reading the trace
    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Total self time per span name, in seconds."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                covered[span[_PARENT]] += span[_END] - span[_START]
        totals: Dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            totals[span[_NAME]] += span[_END] - span[_START] - covered[index]
        return dict(totals)

    def total_times(self) -> Dict[str, float]:
        """Total inclusive duration per span name, in seconds."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span[_NAME]] += span[_END] - span[_START]
        return dict(totals)

    def call_counts(self) -> Dict[str, int]:
        """Number of recorded spans per name."""
        counts: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            counts[span[_NAME]] += 1
        return dict(counts)

    def write_chrome_trace(self, path) -> None:
        """Write the spans as Chrome trace-event JSON (complete events)."""
        origin = min((span[_START] for span in self.spans), default=0.0)
        events = [
            {
                "name": span[_NAME],
                "cat": span[_NAME].rsplit(".", 1)[0],
                "ph": "X",
                "ts": round((span[_START] - origin) * 1e6, 3),
                "dur": round((span[_END] - span[_START]) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"query": span[_QUERY]},
            }
            for span in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


# ----------------------------------------------------------------------
# The layer boundaries the traced run records
# ----------------------------------------------------------------------
def _count_visited(tracer, args, kwargs, result) -> None:
    tracer.counters["graphs.bidirectional.visited_edges"] += result.visited_edges


def _count_exact_work(tracer, args, kwargs, result) -> None:
    tracer.counters["saphyra_bc.exact_bc.work"] += result.work


def _count_adaptive(tracer, args, kwargs, result) -> None:
    tracer.counters["core.adaptive.samples"] += (
        result.num_samples + result.num_pilot_samples
    )
    tracer.counters["core.adaptive.rounds"] += result.num_rounds


def _count_gen_bc(tracer, args, kwargs, result) -> None:
    accepted = result.num_samples + result.num_pilot_samples
    tracer.counters["saphyra_bc.gen_bc.accepted"] += accepted
    tracer.counters["saphyra_bc.gen_bc.pairs"] += accepted + result.rejections


def _count_sources(tracer, args, kwargs, result) -> None:
    tracer.counters["centrality.brandes.sources"] += len(result)


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    import repro.baselines as baselines
    import repro.centrality.brandes as brandes
    import repro.core.adaptive as adaptive
    import repro.datasets.registry as registry
    import repro.engine.dag_cache as dag_cache
    import repro.graphs.bidirectional as bidirectional
    import repro.graphs.block_cut_tree as block_cut_tree
    import repro.graphs.csr as csr
    import repro.parallel as parallel
    import repro.saphyra_bc.algorithm as algorithm
    import repro.saphyra_bc.exact_bc as exact_bc
    import repro.saphyra_bc.isp as isp
    import repro.saphyra_bc.vc_bounds as vc_bounds

    tracer.patch_function(registry, "load", "datasets.load")
    _patch_as_csr(tracer, csr)
    tracer.patch_function(
        block_cut_tree, "build_block_cut_tree", "graphs.block_cut_tree.build"
    )
    tracer.patch_function(
        vc_bounds, "personalized_vc_dimension", "saphyra_bc.vc_bounds"
    )
    tracer.patch_method(isp.PersonalizedISP, "__init__", "saphyra_bc.isp.build")
    tracer.patch_method(isp.PersonalizedISP, "sample_pair", "saphyra_bc.isp.pair")
    tracer.patch_function(
        exact_bc, "exact_two_hop_risks", "saphyra_bc.exact_bc", _count_exact_work
    )
    tracer.patch_function(
        bidirectional, "bidirectional_shortest_paths",
        "graphs.bidirectional.search", _count_visited,
    )
    tracer.patch_method(
        bidirectional.BidirectionalBFSResult, "sample_path",
        "graphs.bidirectional.path",
    )
    tracer.patch_method(
        adaptive.AdaptiveSampler, "estimate", "core.adaptive.engine",
        _count_adaptive,
    )
    tracer.patch_method(
        algorithm.SaPHyRaBC, "rank", "saphyra_bc.algorithm", _count_gen_bc
    )
    tracer.patch_function(
        brandes, "betweenness_centrality", "centrality.brandes", _count_sources
    )
    for cls, label in (
        (baselines.KADABRA, "kadabra"),
        (baselines.ABRA, "abra"),
        (baselines.RiondatoKornaropoulos, "rk"),
        (baselines.BaderPivot, "bader"),
    ):
        tracer.patch_method(cls, "estimate", f"baselines.{label}")
    tracer.patch_function(parallel, "shareable_graph", "parallel.shareable_graph")
    _patch_pool_start(tracer, parallel)
    tracer.patch_method(
        dag_cache.SourceDAGCache, "compute_dag", "graphs.sssp.dag", static=True
    )


def _patch_as_csr(tracer: Tracer, csr) -> None:
    """Split ``as_csr`` calls into fresh builds, journal patches and hits.

    Which case a call hits is read from the snapshot cache before the call:
    no entry builds, a stale entry patches (or rebuilds past the journal),
    a current entry is an O(1) hit, not recorded.
    """
    original = csr.as_csr
    build = tracer.wrap("graphs.csr.build", original)
    patch = tracer.wrap("graphs.csr.patch", original)

    def as_csr(graph):
        if isinstance(graph, csr.CSRGraph):
            return original(graph)
        cached = csr._csr_cache.get(graph)
        if cached is None:
            return build(graph)
        if cached[0] != graph._version:
            return patch(graph)
        return original(graph)

    tracer.replace_everywhere(original, as_csr)


class _PayloadPickler(pickle.Pickler):
    """Pickles a pool payload with each shared CSR snapshot as a stub.

    A real handoff ships such a snapshot as a short handle (a file path or
    shared-memory block names); pickling the stub instead keeps the
    measurement from exporting shared-memory blocks of its own.
    """

    def __init__(self, buffer, shared_type) -> None:
        super().__init__(buffer)
        self._shared_type = shared_type

    def persistent_id(self, obj):
        if isinstance(obj, self._shared_type):
            return "shared-csr"
        return None


def _patch_pool_start(tracer: Tracer, parallel) -> None:
    """Time worker-pool creation and size the payload a spawn would ship.

    ``WorkerPool`` creates its processes lazily on the first parallel map;
    only that creating call is recorded.  The payload is pickled here once
    to measure it; a ``fork`` pool inherits it without pickling.
    """
    original = parallel.WorkerPool._ensure_pool
    start = tracer.wrap("parallel.pool_start", original)

    def _ensure_pool(pool):
        if pool._pool is not None:
            return original(pool)
        created = start(pool)
        buffer = io.BytesIO()
        _PayloadPickler(buffer, parallel.SharedCSRPayload).dump(
            (pool.function, pool.payload)
        )
        tracer.counters["parallel.payload_bytes"] += buffer.tell()
        return created

    tracer._patches.append((parallel.WorkerPool, "_ensure_pool", original))
    parallel.WorkerPool._ensure_pool = _ensure_pool
