"""Compressed-sparse-row graph engine and the pluggable traversal backends.

Every traversal hot path in this reproduction (plain BFS, shortest-path DAG
construction, Brandes dependency accumulation, bidirectional search, the
samplers built on top of them) was originally written against the
``dict[node, dict[node, None]]`` adjacency of :class:`~repro.graphs.graph.Graph`.
That representation is flexible — nodes are arbitrary hashables — but every
edge scan pays Python-level hashing.  This module provides the array-based
alternative:

* :class:`CSRGraph` — a frozen compressed-sparse-row snapshot of a
  :class:`Graph`: ``indptr``/``indices`` arrays over integer node indices
  ``0..n-1`` plus the label↔index mapping (labels keep the graph's insertion
  order, exactly like :meth:`Graph.relabeled`).
* :func:`as_csr` — build-and-cache: snapshots are cached per graph object and
  invalidated automatically when the graph mutates (via ``Graph._version``).
* Integer-index kernels — ``csr_bfs``, ``csr_shortest_path_dag``,
  ``csr_brandes`` — vectorised with numpy when it is importable and falling
  back to pure-Python loops over the same flat arrays otherwise.  All of
  them (and the bidirectional search in
  :mod:`repro.graphs.bidirectional`) drive the one shared expand-one-level
  kernel, :class:`_BatchSweep`.
* Batched sweeps — :func:`multi_source_sweep` runs K sources per call over
  stacked ``(K, n)`` state arrays, merging the thin per-source frontiers of
  high-diameter (road-style) graphs into fat vectorised ones, with results
  bit-identical to the per-source kernels.
* Weighted SSSP — snapshots of weighted graphs carry a float64 ``weights``
  array aligned with ``indices``; :func:`csr_sssp_dag` is the one SSSP
  entry point routing between the BFS kernels (unit weights) and the
  deterministic Dijkstra kernels (``csr_dijkstra_dag`` /
  ``csr_dijkstra_distances`` / ``csr_dijkstra_brandes``).  Routing policy
  lives in :mod:`repro.graphs.sssp`.
* Backend selection — :func:`resolve_backend` maps a user-facing
  ``backend=`` argument (``None``/``"auto"``/``"dict"``/``"csr"``) to a
  concrete backend, honouring the ``REPRO_BACKEND`` environment variable.

Determinism contract
--------------------
The CSR kernels are written to be *bit-identical* to the dict reference
implementations, not merely statistically equivalent: neighbour order equals
dict insertion order, BFS settles nodes in the same order, sigma counts and
Brandes dependencies accumulate in the same order (so even float rounding
matches), and path sampling consumes the RNG identically.  The backend
equivalence property tests assert this.

Shortest-path counts (``sigma``) are exact.  They start in fast ``int64``
arrays; before expanding a level whose counts could overflow (conservative
guard: ``max sigma * max degree >= 2**63``), the kernel switches to
arbitrary-precision Python ints for the remaining levels.  This matters in
practice: on road-style grids ``sigma`` grows like a binomial coefficient
and exceeds ``2**63`` at hop distances around 70.
"""

from __future__ import annotations

from array import array
from collections import deque
from heapq import heappop, heappush
from typing import Dict, Hashable, Iterator, List, NamedTuple, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

from repro import knobs as _knobs
from repro.errors import GraphError, SamplingError
from repro.graphs import delta as _delta
from repro.graphs.graph import Graph

try:  # numpy is optional: the CSR backend degrades to pure-Python loops.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on numpy-less installs
    _np = None

HAS_NUMPY = _np is not None

Node = Hashable

#: Backend names accepted by every ``backend=`` parameter.
DICT_BACKEND = "dict"
CSR_BACKEND = "csr"
AUTO_BACKEND = "auto"
BACKENDS = (DICT_BACKEND, CSR_BACKEND)

BACKEND_ENV_VAR = _knobs.BACKEND.env_var
set_default_backend = _knobs.BACKEND.set
#: Map a user-facing ``backend`` argument to a backend name.  May return
#: ``"auto"``, meaning "decide per graph" — dispatch sites pass the graph
#: through :func:`effective_backend` instead when they can.
resolve_backend = default_backend = _knobs.BACKEND.resolve

#: Below this many nodes + edges the ``auto`` choice stays on the dict
#: backend: snapshot construction and per-level array overhead only pay off
#: once a graph has a few hundred adjacency entries.
AUTO_CSR_THRESHOLD = 512


def effective_backend(
    graph: Graph,
    backend: Optional[str] = None,
    *,
    auto_threshold: Optional[int] = None,
) -> str:
    """Choose the concrete backend for one operation on ``graph``.

    Explicit choices (argument, :func:`set_default_backend`, or the
    ``REPRO_BACKEND`` variable) are always honoured.  The remaining ``auto``
    case picks CSR when numpy is available and the graph is large enough for
    the array kernels to win (or already has a cached snapshot), and the dict
    reference otherwise.  Both backends return identical results, so the
    heuristic affects speed only.

    Parameters
    ----------
    auto_threshold:
        Override the ``n + m`` size cutoff for the ``auto`` case; kernels
        whose CSR variant has a higher per-call fixed cost (the bidirectional
        search allocates per-query state arrays) pass a larger cutoff.
    """
    if isinstance(graph, CSRGraph):
        # A frozen snapshot (e.g. a worker's attached snapshot file from
        # repro.parallel) can only run the array kernels; there is no dict
        # adjacency to fall back to.
        return CSR_BACKEND
    resolved = resolve_backend(backend)
    if resolved != AUTO_BACKEND:
        return resolved
    if not HAS_NUMPY:
        return DICT_BACKEND
    threshold = AUTO_CSR_THRESHOLD if auto_threshold is None else auto_threshold
    if graph.number_of_nodes() + graph.number_of_edges() >= threshold:
        return CSR_BACKEND
    if auto_threshold is None:
        cached = _csr_cache.get(graph)
        if cached is not None:
            if cached[0] == graph._version:
                # A current snapshot exists, so the array kernels are free to
                # use even though the graph is small.
                return CSR_BACKEND
            if _delta.deltas_between(graph, cached[0]) is not None:
                # The mutation journal covers the gap: the stale snapshot is
                # one cheap incremental patch away (see ``as_csr``), so keep
                # it and stay on the array kernels.
                return CSR_BACKEND
            # The graph mutated past journal coverage: routing a small
            # graph to CSR now would force a pointless re-freeze, and keeping
            # the stale snapshot alive would let the cache hold arbitrarily
            # large dead arrays under mutate/query cycles.  Evict and fall
            # through to the dict reference.
            del _csr_cache[graph]
    return DICT_BACKEND


# ----------------------------------------------------------------------
# The CSR snapshot
# ----------------------------------------------------------------------
class CSRGraph:
    """A frozen compressed-sparse-row view of an undirected graph.

    Attributes
    ----------
    n, m:
        Node and (undirected) edge counts.
    indptr:
        Length ``n + 1`` array; the neighbours of node ``i`` occupy
        ``indices[indptr[i]:indptr[i + 1]]``.
    indices:
        Length ``2 m`` array of neighbour indices, ordered exactly like the
        source graph's (insertion-ordered) adjacency.
    labels:
        ``labels[i]`` is the original node label of index ``i`` (graph
        insertion order, the same mapping :meth:`Graph.relabeled` produces).
    index:
        Inverse mapping ``{label: i}``.
    max_degree:
        Largest degree in the snapshot (drives the sigma overflow guard).

    Examples
    --------
    >>> from repro.graphs.graph import Graph
    >>> graph = Graph.from_edges([("a", "b"), ("b", "c")])
    >>> csr = CSRGraph.from_graph(graph)
    >>> csr.n, csr.m
    (3, 2)
    >>> [csr.labels[j] for j in csr.neighbors(csr.index["b"])]
    ['a', 'c']
    """

    __slots__ = (
        "n",
        "m",
        "indptr",
        "indices",
        "weights",
        "labels",
        "index",
        "identity_labels",
        "max_degree",
        "source_path",
        "_indptr_list",
        "_indices_list",
        "_weights_list",
        "__weakref__",
    )

    #: Snapshots are frozen, so their "version" never changes.  Exposing the
    #: :class:`Graph` version attribute (plus the weakref slot above and the
    #: count/lookup methods below) lets version-keyed caches — the CSR
    #: snapshot cache, the engine's ``SourceDAGCache`` — and backend dispatch
    #: treat a bare snapshot exactly like a graph.  Worker processes receive
    #: bare snapshots through the snapshot-file handoff in
    #: :mod:`repro.parallel`.
    _version = 0

    def __init__(self, indptr, indices, labels: List[Node], weights=None) -> None:
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.labels = labels
        self.index: Dict[Node, int] = {label: i for i, label in enumerate(labels)}
        self.n = len(labels)
        self.m = len(indices) // 2
        # When labels are already 0..n-1 the label<->index translation is the
        # identity, which lets hot paths skip the dict lookups entirely.
        self.identity_labels = all(
            isinstance(label, int) and label == i for i, label in enumerate(labels)
        )
        if self.n == 0:
            self.max_degree = 0
        elif HAS_NUMPY and not isinstance(indptr, array):
            self.max_degree = int((indptr[1:] - indptr[:-1]).max())
        else:
            self.max_degree = max(
                indptr[i + 1] - indptr[i] for i in range(self.n)
            )
        # Set by repro.graphs.store when the snapshot is backed by an
        # on-disk file (saved or loaded, possibly as read-only np.memmap
        # views).  repro.parallel hands workers this path + header instead
        # of spilling the arrays to a temporary snapshot file.  Patched
        # snapshots (_patched_snapshot) construct fresh arrays and so drop
        # the backing file — copy-on-write, the mapped file is never
        # written through.
        self.source_path: Optional[str] = None
        self._indptr_list: Optional[List[int]] = None
        self._indices_list: Optional[List[int]] = None
        self._weights_list: Optional[List[float]] = None

    @property
    def is_weighted(self) -> bool:
        """Whether the snapshot carries an edge-weight array (O(1))."""
        return self.weights is not None

    def weight_list(self) -> Optional[List[float]]:
        """``weights`` as a cached Python list (``None`` when unweighted).

        The sequential Dijkstra kernel indexes this alongside
        :meth:`adjacency_lists` — plain-list subscription avoids boxing one
        numpy scalar per relaxed edge.
        """
        if self.weights is None:
            return None
        if self._weights_list is None:
            if HAS_NUMPY and not isinstance(self.weights, array):
                self._weights_list = self.weights.tolist()
            else:
                self._weights_list = list(self.weights)
        return self._weights_list

    def adjacency_lists(self) -> Tuple[List[int], List[int]]:
        """Return ``(indptr, indices)`` as cached Python lists.

        The sequential small-frontier fast path indexes these instead of the
        numpy arrays: plain-list subscription is several times faster than
        boxing one numpy scalar per edge.
        """
        if self._indptr_list is None:
            if HAS_NUMPY:
                self._indptr_list = self.indptr.tolist()
                self._indices_list = self.indices.tolist()
            else:
                self._indptr_list = list(self.indptr)
                self._indices_list = list(self.indices)
        return self._indptr_list, self._indices_list

    def save(self, path):
        """Persist the snapshot to ``path`` (see :mod:`repro.graphs.store`).

        The written file is versioned and checksummed; on success
        ``self.source_path`` points at it, so :mod:`repro.parallel` ships
        this file to workers.  Returns the written path.
        """
        from repro.graphs.store import save_snapshot

        return save_snapshot(self, path)

    @classmethod
    def load(cls, path, mmap=None, *, verify: bool = False) -> "CSRGraph":
        """Load a snapshot written by :meth:`save`.

        With ``mmap`` unset the ``mmap`` knob decides (``REPRO_MMAP``,
        default ``auto``): when numpy is importable the arrays come back
        as read-only ``np.memmap`` views — an O(1) attach regardless of
        graph size — otherwise they are read into RAM.  Both forms are
        byte-identical.  Corrupt, truncated, stale-version or
        foreign-endianness files raise :class:`~repro.errors.GraphError`
        naming the path and the mismatch.
        """
        from repro.graphs.store import load_snapshot

        return load_snapshot(path, mmap=mmap, verify=verify)

    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRGraph":
        """Snapshot ``graph`` preserving its insertion-ordered adjacency.

        Weighted graphs additionally get a float64 ``weights`` array aligned
        with ``indices`` (one entry per directed adjacency slot); unit-weight
        graphs keep ``weights is None`` and the exact historical snapshot.
        """
        labels = list(graph.nodes())
        index = {label: i for i, label in enumerate(labels)}
        flat: List[int] = []
        indptr_list = [0]
        weighted = graph.is_weighted
        flat_weights: List[float] = [] if weighted else None
        for label in labels:
            if weighted:
                for neighbor, weight in graph.neighbor_weights(label):
                    flat.append(index[neighbor])
                    flat_weights.append(float(weight))
            else:
                for neighbor in graph.neighbors(label):
                    flat.append(index[neighbor])
            indptr_list.append(len(flat))
        if HAS_NUMPY:
            indptr = _np.asarray(indptr_list, dtype=_np.int64)
            indices = _np.asarray(flat, dtype=_np.int64)
            weights = (
                _np.asarray(flat_weights, dtype=_np.float64) if weighted else None
            )
        else:
            indptr = array("q", indptr_list)
            indices = array("q", flat)
            weights = array("d", flat_weights) if weighted else None
        return cls(indptr, indices, labels, weights)

    # ------------------------------------------------------------------
    def number_of_nodes(self) -> int:
        """Node count (the :class:`Graph` interface name for ``n``)."""
        return self.n

    def number_of_edges(self) -> int:
        """Undirected edge count (the :class:`Graph` interface name for ``m``)."""
        return self.m

    def has_node(self, label: Node) -> bool:
        """Whether ``label`` is part of the snapshot."""
        return label in self.index

    def nodes(self) -> Iterator[Node]:
        """Iterate over the node labels in index order (the graph's order)."""
        return iter(self.labels)

    def degree(self, node_index: int) -> int:
        """Degree of the node at ``node_index``."""
        return int(self.indptr[node_index + 1] - self.indptr[node_index])

    def neighbors(self, node_index: int):
        """Neighbour indices of ``node_index`` (a zero-copy array slice)."""
        return self.indices[self.indptr[node_index] : self.indptr[node_index + 1]]

    def index_of(self, label: Node) -> int:
        """Translate a node label to its CSR index.

        Raises
        ------
        GraphError
            If the label is not part of the snapshot.
        """
        try:
            return self.index[label]
        except KeyError:
            raise GraphError(f"node {label!r} does not exist") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRGraph(n={self.n}, m={self.m})"


_csr_cache: "WeakKeyDictionary[Graph, Tuple[int, CSRGraph]]" = WeakKeyDictionary()


def _patched_snapshot(
    graph: Graph, old: CSRGraph, old_version: int
) -> Optional[CSRGraph]:
    """Patch a stale snapshot through the mutation journal, or ``None``.

    Replays the journalled edge deltas against the frozen
    ``indptr``/``indices``/``weights`` arrays: only the adjacency segments
    of nodes an edit touched are rebuilt (in Python, they are tiny);
    everything else is block-copied.  The replay mirrors the dict
    adjacency's semantics exactly — an insert appends at the end of both
    endpoints' segments, a delete closes the gap preserving order, a
    reweight edits in place — so the result is **byte-identical** to
    :meth:`CSRGraph.from_graph` on the mutated graph (asserted by the
    equivalence tests).  Returns ``None`` when the journal does not cover
    the gap (overflow, structural change, delta invalidation off) or any
    sanity check fails; the caller falls back to a full rebuild.
    """
    deltas = _delta.deltas_between(graph, old_version)
    if not deltas:  # None (uncovered) or [] (nothing to replay: rebuild path)
        return None
    if old.n != graph.number_of_nodes():
        return None  # node set changed without a structural marker: rebuild
    index = old.index
    old_weighted = old.weights is not None
    # Materialise the adjacency segment of each touched node once, as a
    # plain list; weights ride along (unit edges expand to 1.0 so a graph
    # turning weighted mid-journal patches cleanly).
    segments: Dict[int, List[int]] = {}
    weight_segments: Dict[int, List[float]] = {}

    def segment(a: int) -> List[int]:
        seg = segments.get(a)
        if seg is None:
            start = int(old.indptr[a])
            end = int(old.indptr[a + 1])
            chunk = old.indices[start:end]
            seg = chunk.tolist() if HAS_NUMPY and not isinstance(
                chunk, array
            ) else list(chunk)
            segments[a] = seg
            if old_weighted:
                wchunk = old.weights[start:end]
                weight_segments[a] = (
                    wchunk.tolist()
                    if HAS_NUMPY and not isinstance(wchunk, array)
                    else list(wchunk)
                )
            else:
                weight_segments[a] = [1.0] * len(seg)
        return seg

    try:
        for d in deltas:
            iu = index[d.u]
            iv = index[d.v]
            for a, b in ((iu, iv), (iv, iu)):
                seg = segment(a)
                wseg = weight_segments[a]
                if d.op == _delta.OP_INSERT:
                    seg.append(b)
                    wseg.append(d.new)
                elif d.op == _delta.OP_DELETE:
                    pos = seg.index(b)
                    del seg[pos]
                    del wseg[pos]
                elif d.op == _delta.OP_REWEIGHT:
                    wseg[seg.index(b)] = d.new
                else:
                    return None
    except (KeyError, ValueError):
        # The journal disagrees with the snapshot (an endpoint or edge it
        # names is missing): never patch on faith, rebuild from scratch.
        return None

    new_weighted = graph.is_weighted
    n = old.n
    total = 2 * graph.number_of_edges()
    affected = sorted(segments)
    if HAS_NUMPY and not isinstance(old.indptr, array):
        counts = (old.indptr[1:] - old.indptr[:-1]).copy()
        for a in affected:
            counts[a] = len(segments[a])
        indptr = _np.empty(n + 1, dtype=_np.int64)
        indptr[0] = 0
        _np.cumsum(counts, out=indptr[1:])
        if int(indptr[n]) != total:
            return None
        indices = _np.empty(total, dtype=_np.int64)
        weights = _np.empty(total, dtype=_np.float64) if new_weighted else None
        src = 0  # read cursor into the old arrays
        dst = 0  # write cursor into the new arrays

        def copy_run(src: int, end: int, dst: int) -> int:
            length = end - src
            if length:
                indices[dst : dst + length] = old.indices[src:end]
                if weights is not None:
                    if old_weighted:
                        weights[dst : dst + length] = old.weights[src:end]
                    else:
                        weights[dst : dst + length] = 1.0
            return dst + length

        for a in affected:
            dst = copy_run(src, int(old.indptr[a]), dst)
            src = int(old.indptr[a + 1])
            seg = segments[a]
            if seg:
                indices[dst : dst + len(seg)] = seg
                if weights is not None:
                    weights[dst : dst + len(seg)] = weight_segments[a]
            dst += len(seg)
        dst = copy_run(src, int(old.indptr[n]), dst)
        if dst != total:
            return None
    else:
        indices = array("q")
        weights = array("d") if new_weighted else None
        indptr_list = [0]
        src = 0
        affected_set = set(affected)
        for a in range(n):
            if a in affected_set:
                seg = segments[a]
                indices.extend(seg)
                if weights is not None:
                    weights.extend(weight_segments[a])
            else:
                start = int(old.indptr[a])
                end = int(old.indptr[a + 1])
                indices.extend(old.indices[start:end])
                if weights is not None:
                    if old_weighted:
                        weights.extend(old.weights[start:end])
                    else:
                        weights.extend([1.0] * (end - start))
            indptr_list.append(len(indices))
        if len(indices) != total:
            return None
        indptr = array("q", indptr_list)
    return CSRGraph(indptr, indices, old.labels, weights)


def as_csr(graph: Graph) -> CSRGraph:
    """Return the (cached) CSR snapshot of ``graph``.

    The snapshot is rebuilt automatically if the graph has mutated since the
    cached version was taken — *incrementally*, when the mutation journal
    (see :mod:`repro.graphs.delta`) covers the gap: the frozen arrays are
    patched in O(|Δ| + copy) instead of re-walking the whole adjacency,
    byte-identical to a from-scratch build.  Repeated calls on an unchanged
    graph are O(1).  A :class:`CSRGraph` passes through unchanged, so code
    holding either a graph or a bare snapshot (a worker's attached
    payload, or a memory-mapped on-disk snapshot from
    :mod:`repro.graphs.store` — whose arrays stay read-only; patching a
    *mutated* graph always materialises fresh in-RAM arrays, i.e.
    copy-on-write) can normalise with one call.
    """
    if isinstance(graph, CSRGraph):
        return graph
    version = graph._version
    cached = _csr_cache.get(graph)
    if cached is not None and cached[0] == version:
        return cached[1]
    csr = None
    if cached is not None:
        csr = _patched_snapshot(graph, cached[1], cached[0])
    if csr is None:
        csr = CSRGraph.from_graph(graph)
    _csr_cache[graph] = (version, csr)
    # Arm the journal so the *next* mutation round can patch this snapshot.
    _delta.track(graph)
    return csr


def adopt_snapshot(graph: Graph, snapshot: CSRGraph) -> None:
    """Seed the CSR cache of ``graph`` with an existing ``snapshot``.

    Used by the datasets registry when it rebuilds a dict graph from an
    on-disk snapshot (:func:`repro.graphs.store.graph_from_snapshot`): the
    file-backed snapshot *is* the graph's CSR form, so adopting it makes
    ``as_csr(graph)`` return it directly — keeping the arrays memory-mapped
    and the zero-copy file handoff to workers armed — instead of
    rebuilding identical arrays in RAM.

    The caller warrants that ``snapshot`` is byte-identical to
    ``CSRGraph.from_graph(graph)`` (``graph_from_snapshot`` reconstructs
    per-node adjacency order exactly, so its output qualifies); the cheap
    invariants are still checked here.  Later mutations behave as always:
    the journal patches *fresh* in-RAM arrays (copy-on-write), never the
    adopted snapshot.
    """
    if (
        snapshot.n != graph.number_of_nodes()
        or snapshot.m != graph.number_of_edges()
        or snapshot.labels != list(graph.nodes())
    ):
        raise GraphError(
            "adopt_snapshot: snapshot does not describe this graph "
            f"(snapshot n={snapshot.n}, m={snapshot.m}; graph "
            f"n={graph.number_of_nodes()}, m={graph.number_of_edges()})"
        )
    _csr_cache[graph] = (graph._version, snapshot)
    _delta.track(graph)


# ----------------------------------------------------------------------
# Index-space kernels
# ----------------------------------------------------------------------
class CSRShortestPathDAG:
    """Index-space shortest-path DAG (the CSR analogue of ``ShortestPathDAG``).

    Attributes
    ----------
    csr:
        The snapshot the DAG was computed on.
    source:
        Source node *index*.
    dist:
        Length-``n`` distance array, ``-1`` for unreachable nodes.  Hop
        counts (int64) for BFS-built DAGs; float64 path lengths for
        weighted (Dijkstra-built) DAGs, see :attr:`weighted`.
    sigma:
        Length-``n`` shortest-path counts: an ``int64``-backed buffer (or
        float64 for the Brandes variant), or a list of Python ints if the
        overflow guard switched representations mid-BFS.  Always exact.
    order:
        Settled node indices in BFS order.
    pred_indptr, pred_indices:
        CSR layout of the predecessor lists: the predecessors of node ``v``
        (in the same append order as the dict backend) occupy
        ``pred_indices[pred_indptr[v]:pred_indptr[v + 1]]``.
    levels, level_edges:
        Per-BFS-level settled nodes and DAG edge arrays ``(u, v)`` in scan
        order — consumed by the backward passes.
    """

    __slots__ = (
        "csr",
        "source",
        "dist",
        "sigma",
        "order",
        "levels",
        "level_edges",
        "weighted",
        "_pred_indptr",
        "_pred_indices",
    )

    def __init__(self, csr, source, dist, sigma, order, levels, level_edges,
                 pred_indptr=None, pred_indices=None, weighted=False) -> None:
        self.csr = csr
        self.source = source
        self.dist = dist
        self.sigma = sigma
        self.order = order
        self.levels = levels
        self.level_edges = level_edges
        self.weighted = weighted
        self._pred_indptr = pred_indptr
        self._pred_indices = pred_indices

    @property
    def pred_indptr(self):
        if self._pred_indptr is None:
            self._build_predecessors()
        return self._pred_indptr

    @property
    def pred_indices(self):
        if self._pred_indices is None:
            self._build_predecessors()
        return self._pred_indices

    def _build_predecessors(self) -> None:
        """Assemble the predecessor CSR lazily (only path sampling needs it).

        A stable grouping of the per-level DAG edges by head node keeps each
        predecessor list in the exact order the dict backend appended it.
        """
        n = self.csr.n
        if self.level_edges:
            all_u = _np.concatenate([edges[0] for edges in self.level_edges])
            all_v = _np.concatenate([edges[1] for edges in self.level_edges])
        else:
            all_u = _np.empty(0, dtype=_np.int64)
            all_v = _np.empty(0, dtype=_np.int64)
        pred_counts = _np.bincount(all_v, minlength=n)
        pred_indptr = _np.zeros(n + 1, dtype=_np.int64)
        _np.cumsum(pred_counts, out=pred_indptr[1:])
        self._pred_indptr = pred_indptr
        self._pred_indices = all_u[_np.argsort(all_v, kind="stable")]

    def predecessors(self, node_index: int):
        """Predecessor indices of ``node_index`` in append order."""
        return self.pred_indices[
            self.pred_indptr[node_index] : self.pred_indptr[node_index + 1]
        ]

    def path_counts_to(self, target_index: int) -> Dict[int, float]:
        """Shortest-path counts *to* ``target_index`` inside the DAG.

        The backward "beta" pass of ABRA's pair estimator: walking the DAG
        from the target along predecessor lists yields, for every node ``w``
        with ``d(w) <= d(target)`` lying on at least one shortest
        source→target path, the number of shortest ``w → target`` paths.
        The accumulation replays the dict backend's exact order, so the
        float sums are bit-identical to the label-space reference
        (:meth:`ShortestPathDAG.path_counts_to`).  BFS-built DAGs walk
        level by level; weighted (Dijkstra-built) DAGs propagate in
        reverse settle order instead — there are no levels, and a node can
        be a predecessor of targets at several hop depths, so the level
        walk would propagate counts before they are complete.
        """
        if self.weighted:
            members = {target_index}
            stack = [target_index]
            while stack:
                preds = self.predecessors(stack.pop())
                if not isinstance(preds, list):
                    preds = preds.tolist()
                for predecessor in preds:
                    if predecessor not in members:
                        members.add(predecessor)
                        stack.append(predecessor)
            beta: Dict[int, float] = {target_index: 1.0}
            order = self.order.tolist() if HAS_NUMPY else self.order
            for node in reversed(order):
                if node not in members:
                    continue
                value = beta[node]
                preds = self.predecessors(node)
                if not isinstance(preds, list):
                    preds = preds.tolist()
                for predecessor in preds:
                    beta[predecessor] = beta.get(predecessor, 0.0) + value
            return beta
        beta = {target_index: 1.0}
        frontier = [target_index]
        while frontier:
            next_frontier: List[int] = []
            for node in frontier:
                preds = self.predecessors(node)
                if not isinstance(preds, list):
                    preds = preds.tolist()
                for predecessor in preds:
                    if predecessor not in beta:
                        beta[predecessor] = 0.0
                        next_frontier.append(predecessor)
                    beta[predecessor] += beta[node]
            frontier = next_frontier
        return beta

    def sample_path_indices(self, target_index: int, rng) -> List[int]:
        """Sample a uniform shortest path as an index list (source..target).

        Consumes the RNG exactly like ``ShortestPathDAG.sample_path`` so both
        backends draw identical paths from identical seeds.
        """
        if self.dist[target_index] < 0:
            raise SamplingError(
                f"target {self.csr.labels[target_index]!r} is unreachable "
                f"from source {self.csr.labels[self.source]!r}"
            )
        path = [target_index]
        current = target_index
        sigma = self.sigma
        while current != self.source:
            preds = self.predecessors(current)
            preds = preds.tolist() if HAS_NUMPY else list(preds)
            weights = [int(sigma[p]) for p in preds]
            current = sigma_choice(preds, weights, rng)
            path.append(current)
        path.reverse()
        return path


def sigma_choice(items: Sequence, weights: Sequence[int], rng):
    """Pick one of ``items`` with probability proportional to sigma counts.

    The threshold is drawn with ``rng.randrange(total)`` over the *integer*
    total, so the choice is exact — no float accumulation bias even when the
    sigma counts (shortest-path counts) exceed ``2**53``.  Named
    ``sigma_choice`` so "weighted" unambiguously refers to *edge weights*
    across the codebase; the probability weights here are path counts.

    Raises
    ------
    SamplingError
        If the lengths differ (a silent ``zip`` truncation would otherwise
        return an arbitrary item), or if the total weight is not positive.
    """
    if len(items) != len(weights):
        raise SamplingError(
            f"sigma_choice needs one weight per item, got {len(items)} "
            f"items but {len(weights)} weights"
        )
    if len(weights) == 1:
        # The common single-predecessor step: the same one draw, no scan.
        if weights[0] <= 0:
            raise SamplingError("cannot sample from an empty/zero-weight set")
        rng.randrange(weights[0])
        return items[0]
    total = int(sum(weights))
    if total <= 0:
        raise SamplingError("cannot sample from an empty/zero-weight set")
    threshold = rng.randrange(total)
    for item, weight in zip(items, weights):
        if threshold < weight:
            return item
        threshold -= weight
    return items[-1]


# ---------------------- the level-expansion kernel --------------------
#
# The expansion kernel is *hybrid*: each BFS level is expanded either with
# vectorised array operations (large frontiers — social networks collapse to
# a handful of huge levels) or with a sequential Python loop over cached
# adjacency lists (small frontiers — road networks have hundreds of thin
# levels where per-call numpy overhead would dominate).  Both expansion
# strategies visit edges in exactly the same order, so the choice never
# affects results, only speed.  Traversal state lives in ``array`` buffers
# shared with numpy views (``np.frombuffer``), giving the sequential path
# fast C-array subscription and the vectorised path zero-copy arrays.
#
# :class:`_BatchSweep` below is the ONLY copy of this hybrid expansion and
# of the int64→Python-int sigma overflow guard.  Every level-synchronous
# consumer — ``_np_bfs``, ``_np_shortest_path_dag`` (and through it
# ``csr_brandes``), the bidirectional ``_CSRSearchSide``, the stacked
# bidirectional search (per-slot mode), and the batched
# :func:`multi_source_sweep` — drives the same kernel, so the expansion
# logic cannot silently diverge between call sites again.

#: Frontiers whose total degree falls below this are expanded sequentially.
_SEQUENTIAL_EDGE_THRESHOLD = 192

#: ``direction`` values accepted by order-insensitive sweeps.
TOP_DOWN = "top-down"
DIRECTION_AUTO = "auto"
_DIRECTIONS = (TOP_DOWN, DIRECTION_AUTO)

#: Direction-optimisation switch (Beamer-style): a level goes bottom-up when
#: the unexplored edge cost is at most this multiple of the frontier's edge
#: cost.  Our bottom-up step has no per-vertex early exit (it is a single
#: vectorised gather), so the classic alpha=14 would switch far too early;
#: the break-even is roughly "one unexplored gather costs what one frontier
#: gather plus dedup/scatter costs".
_BOTTOM_UP_ALPHA = 2

#: ``int64`` ceiling for shortest-path counts.  A level expansion adds at
#: most ``max_degree`` predecessor counts per node, so once the largest
#: frontier count reaches ``2**63 / max_degree`` the kernels switch sigma to
#: arbitrary-precision Python ints *before* the first wrap can happen.
_SIGMA_INT64_LIMIT = 2**63


def _sigma_may_overflow(frontier_max_sigma: int, max_degree: int) -> bool:
    """True when the next level's counts could exceed the int64 range."""
    return frontier_max_sigma * max_degree >= _SIGMA_INT64_LIMIT


#: numpy dtype of each ``array`` typecode the traversal state uses.
_STATE_DTYPES = {"q": "int64", "i": "int32", "d": "float64"}


def _shared_state(n: int, typecode: str, fill: int = 0):
    """Return ``(buffer, numpy view)`` over the same ``n``-element memory,
    every element set to ``fill`` (built in place, no temporary copy)."""
    store = array(typecode, [fill]) * n
    return store, _np.frombuffer(store, dtype=_STATE_DTYPES[typecode])


def _np_first_occurrence(values, scratch):
    """Deduplicate ``values`` keeping the first occurrence of each element.

    O(k): writing positions back-to-front makes the *first* occurrence the
    last (surviving) write into ``scratch``, identifying it without a sort.
    """
    size = values.size
    if size <= 1:
        return values
    positions = _np.arange(size, dtype=_np.int64)
    scratch[values[::-1]] = positions[::-1]
    return values[scratch[values] == positions]


class _BatchSweep:
    """Level-synchronous sweep state over ``B`` stacked sources.

    This class is the single copy of the hybrid vectorised/sequential
    expand-one-level kernel *and* of the int64→Python-int sigma overflow
    guard (see the module comment above).  It runs ``B`` independent
    single-source searches over one flattened state space of size ``B * n``:
    source slot ``k`` owns the flat ids ``k * n .. k * n + n - 1`` and a
    node ``v`` in slot ``k`` is the flat id ``k * n + v``.  With ``B == 1``
    flat ids equal node ids and the sweep *is* the single-source kernel; with
    ``B > 1`` the per-slot thin frontiers merge into one fat frontier, which
    is what makes high-diameter (road-style) graphs vectorise.

    Per-slot determinism: the flattened frontier keeps every slot's nodes in
    that slot's discovery order, so the edge stream restricted to one slot is
    exactly the edge stream the single-source kernel scans.  All per-node
    accumulations (integer and float sigma, Brandes dependencies) therefore
    see the same additions in the same order, and batched results are
    bit-identical to per-source results.

    Parameters
    ----------
    csr:
        The snapshot to sweep over.
    roots:
        One source node index per slot.
    sigma_mode:
        ``None`` (distances only), ``"int"`` (exact shortest-path counts with
        the overflow guard) or ``"float"`` (Brandes-style float counts).
    track_edges:
        Record the per-level DAG edge arrays ``(u, v)`` in scan order (needed
        by predecessor reconstruction and the Brandes backward pass).
    per_slot:
        Let :meth:`expand` take an ``active`` slot mask, so slots advance
        independently (the stacked bidirectional search expands each row's
        cheaper side only).  Such a sweep keeps per-slot ``slot_depth``,
        ``slot_count`` and ``slot_cost`` (frontier size and total degree,
        carried forward from each slot's last expansion) and the node
        ``degrees``; ``levels`` holds only the roots and the newest level,
        and ``scratch[v]`` keeps every discovered id's rank within its level
        (later levels only write undiscovered ids), i.e. the order in which
        the nodes of one slot's level were discovered.  Dist and rank are
        int32.  Needs numpy and a top-down sweep.
    """

    __slots__ = ("csr", "batch", "n", "size", "float_sigma", "track_edges",
                 "dist_store", "dist", "sigma", "sigma_view", "frontier",
                 "depth", "levels", "level_edges", "frontier_max_sigma",
                 "scratch", "direction", "bottom_up_levels",
                 "slot_depth", "slot_count", "slot_cost", "degrees",
                 "_explored_cost", "_unvisited")

    def __init__(self, csr: CSRGraph, roots, *, sigma_mode: Optional[str] = None,
                 track_edges: bool = False, direction: str = TOP_DOWN,
                 per_slot: bool = False) -> None:
        if track_edges and sigma_mode is None:
            # Only the sigma-tracking loops record DAG edges; allowing the
            # combination would let the two expansion strategies disagree on
            # level_edges content, breaking the strategy-never-affects-
            # results invariant.
            raise ValueError("track_edges requires a sigma_mode")
        if direction not in _DIRECTIONS:
            raise ValueError(
                f"direction={direction!r} is not valid; choose one of {_DIRECTIONS}"
            )
        if direction == DIRECTION_AUTO and (sigma_mode is not None or track_edges):
            # Bottom-up discovery settles a level in node-index order, not in
            # edge-scan order; only sweeps whose results are pure functions
            # of the distance labels (no sigma, no recorded DAG edges, no
            # consumed ``levels`` ordering) may opt in.
            raise ValueError(
                "direction='auto' requires an order-insensitive sweep "
                "(no sigma_mode, no track_edges)"
            )
        if per_slot and (not HAS_NUMPY or direction != TOP_DOWN):
            raise ValueError("per_slot sweeps need numpy and direction='top-down'")
        self.csr = csr
        self.batch = len(roots)
        self.n = csr.n
        self.size = self.batch * csr.n
        self.float_sigma = sigma_mode == "float"
        self.track_edges = track_edges
        n = csr.n
        flat_roots = (
            list(roots) if self.batch == 1
            else [slot * n + root for slot, root in enumerate(roots)]
        )
        if HAS_NUMPY:
            # Per-slot (stacked bidirectional) sweeps hold 2 * rows * n ids;
            # int32 labels and ranks keep that state small.
            self.dist_store, self.dist = _shared_state(
                self.size, "i" if per_slot else "q", -1
            )
            self.scratch = _np.empty(
                self.size, dtype=_np.int32 if per_slot else _np.int64
            )
        else:
            self.dist_store = [-1] * self.size
            self.dist = self.dist_store
            self.scratch = None
        if sigma_mode is None:
            self.sigma = None
            self.sigma_view = None
        elif HAS_NUMPY:
            # ``sigma`` is what gets indexed element-wise: the shared buffer
            # while counts fit in int64, a plain list of Python ints after
            # the overflow guard trips (float sigma — the Brandes case —
            # never overflows).
            self.sigma, self.sigma_view = _shared_state(
                self.size, "d" if self.float_sigma else "q"
            )
        else:
            self.sigma = [0.0 if self.float_sigma else 0] * self.size
            self.sigma_view = None
        for flat in flat_roots:
            self.dist_store[flat] = 0
            if self.sigma is not None:
                self.sigma[flat] = 1.0 if self.float_sigma else 1
        self.frontier: object = flat_roots
        self.depth = 0
        self.levels: List[object] = [
            _np.asarray(flat_roots, dtype=_np.int64) if HAS_NUMPY else flat_roots
        ]
        self.level_edges: List[Tuple[object, object]] = []
        self.frontier_max_sigma = 1
        self.direction = direction if HAS_NUMPY else TOP_DOWN
        self.bottom_up_levels = 0
        self._unvisited = None
        # Cumulative degree of every already-*expanded* frontier.  Each node
        # enters exactly one frontier, so the degree of the undiscovered
        # nodes — what one bottom-up step would scan — is always
        # ``batch * 2m - explored - current frontier cost``, with no extra
        # per-level scans (the frontier cost is computed by every expansion
        # anyway).
        self._explored_cost = 0
        if per_slot:
            self.degrees = csr.indptr[1:] - csr.indptr[:-1]
            self.frontier = self.levels[0]
            self.scratch[self.frontier] = 0  # each root is alone in its level
            self.slot_depth = _np.zeros(self.batch, dtype=_np.int64)
            self.slot_count = _np.ones(self.batch, dtype=_np.int64)
            self.slot_cost = self.degrees[self.frontier % n]
        else:
            self.slot_depth = self.slot_count = self.slot_cost = None
            self.degrees = None

    # ------------------------------------------------------------------
    @property
    def has_frontier(self) -> bool:
        return len(self.frontier) > 0

    def frontier_cost(self) -> int:
        """Total degree of the current frontier (the cost of one expansion)."""
        frontier = self.frontier
        if len(frontier) == 0:
            return 0
        if isinstance(frontier, list):
            indptr, _ = self.csr.adjacency_lists()
            if self.batch == 1:
                return int(sum(indptr[node + 1] - indptr[node] for node in frontier))
            n = self.n
            total = 0
            for flat in frontier:
                node = flat % n
                total += indptr[node + 1] - indptr[node]
            return total
        indptr = self.csr.indptr
        nodes = frontier if self.batch == 1 else frontier % self.n
        return int((indptr[nodes + 1] - indptr[nodes]).sum())

    def expand(self, frontier_cost: Optional[int] = None, active=None) -> int:
        """Expand one complete BFS level; return the number of scanned entries.

        ``frontier_cost`` lets a caller that already computed the frontier
        degree (for side selection in the bidirectional search) pass it in
        instead of rescanning.  The level is always recorded — possibly empty
        when the sweep is exhausted — so ``levels``/``level_edges`` stay
        aligned with ``depth``; drivers that want no trailing empty level
        call :meth:`trim` once the loop ends.

        ``active`` (``per_slot`` sweeps only) is a boolean mask over the
        slots: only those slots' frontiers expand, each to its own next
        depth, while the other slots keep their frontier; ``depth`` then
        counts expansions.
        """
        kept = slot_next = None
        if (active is None) != (self.slot_depth is None):
            raise ValueError("per_slot sweeps expand through an active slot mask")
        if active is not None:
            frontier = self.frontier
            expanding = active[frontier // self.n]
            kept = frontier[~expanding]
            self.frontier = frontier[expanding]
            slot_next = self.slot_depth + 1
            previous_max_sigma = self.frontier_max_sigma
            if frontier_cost is None:
                frontier_cost = int(self.slot_cost[active].sum())
        elif frontier_cost is None:
            frontier_cost = self.frontier_cost()
        # Shortest-path counts grow multiplicatively per level (binomially on
        # grids); leave the int64 buffer for exact Python ints before the
        # next expansion could wrap.  Float sigma never overflows.
        if (
            self.sigma_view is not None
            and not self.float_sigma
            and _sigma_may_overflow(self.frontier_max_sigma, self.csr.max_degree)
        ):
            self.sigma = self.sigma_view.tolist()
            self.sigma_view = None
        if (
            self.direction == DIRECTION_AUTO
            and frontier_cost >= _SEQUENTIAL_EDGE_THRESHOLD
            and self.batch * 2 * self.csr.m - self._explored_cost
            <= frontier_cost * (_BOTTOM_UP_ALPHA + 1)
        ):
            scanned = self._expand_bottom_up()
        elif HAS_NUMPY and frontier_cost >= _SEQUENTIAL_EDGE_THRESHOLD:
            scanned = self._expand_vectorised(frontier_cost, slot_next)
            self._unvisited = None
        else:
            scanned = self._expand_sequential(slot_next)
            self._unvisited = None
        self._explored_cost += frontier_cost
        self.depth += 1
        if active is not None:
            self._advance_slots(active, kept)
            # The kept frontiers were bounded by the previous maximum.
            self.frontier_max_sigma = max(
                self.frontier_max_sigma, previous_max_sigma
            )
        return scanned

    def _advance_slots(self, active, kept) -> None:
        """Per-slot bookkeeping after a masked expansion."""
        fresh = self.levels[-1]
        del self.levels[1:-1]
        slots, nodes = _np.divmod(fresh, self.n)
        _np.copyto(
            self.slot_count, _np.bincount(slots, minlength=self.batch),
            where=active,
        )
        # Degree sums stay far below 2**53, so the float bins are exact.
        costs = _np.bincount(slots, weights=self.degrees[nodes], minlength=self.batch)
        _np.copyto(self.slot_cost, costs, where=active, casting="unsafe")
        self.slot_depth += active
        self.scratch[fresh] = _np.arange(fresh.size)
        # Kept slots stay in front; every slot's nodes remain contiguous and
        # in its own discovery order.
        self.frontier = _np.concatenate((kept, fresh)) if kept.size else fresh

    def trim(self) -> None:
        """Drop a trailing empty level recorded by the final expansion."""
        if len(self.levels) > 1 and len(self.levels[-1]) == 0:
            self.levels.pop()
            if self.track_edges and self.level_edges:
                self.level_edges.pop()

    # ------------------------------------------------------------------
    def _expand_sequential(self, slot_next=None) -> int:
        """Expand via a Python loop over cached adjacency lists.

        ``slot_next`` (masked expansions) holds each slot's next depth.
        """
        indptr, indices = self.csr.adjacency_lists()
        frontier = self.frontier
        if not isinstance(frontier, list):
            frontier = frontier.tolist()
        n = self.n
        single = self.batch == 1
        next_depth = self.depth + 1
        if slot_next is not None:
            slot_next = slot_next.tolist()
        dist = self.dist_store
        sigma = self.sigma
        track_edges = self.track_edges
        fresh: List[int] = []
        edge_u: List[int] = []
        edge_v: List[int] = []
        scanned = 0
        if sigma is None:
            for flat in frontier:
                node = flat if single else flat % n
                base = flat - node
                if slot_next is not None:
                    next_depth = slot_next[flat // n]
                start = indptr[node]
                stop = indptr[node + 1]
                scanned += stop - start
                for position in range(start, stop):
                    neighbor = base + indices[position]
                    if dist[neighbor] < 0:
                        dist[neighbor] = next_depth
                        fresh.append(neighbor)
        else:
            for flat in frontier:
                node = flat if single else flat % n
                base = flat - node
                if slot_next is not None:
                    next_depth = slot_next[flat // n]
                sigma_flat = sigma[flat]
                for position in range(indptr[node], indptr[node + 1]):
                    neighbor = base + indices[position]
                    scanned += 1
                    known = dist[neighbor]
                    if known < 0:
                        dist[neighbor] = next_depth
                        fresh.append(neighbor)
                        known = next_depth
                    if known == next_depth:
                        sigma[neighbor] += sigma_flat
                        if track_edges:
                            edge_u.append(flat)
                            edge_v.append(neighbor)
            if fresh and not self.float_sigma and self.sigma_view is not None:
                self.frontier_max_sigma = max(sigma[flat] for flat in fresh)
        if HAS_NUMPY:
            self.levels.append(_np.asarray(fresh, dtype=_np.int64))
            if track_edges:
                self.level_edges.append(
                    (
                        _np.asarray(edge_u, dtype=_np.int64),
                        _np.asarray(edge_v, dtype=_np.int64),
                    )
                )
        else:
            self.levels.append(fresh)
            if track_edges:
                self.level_edges.append((edge_u, edge_v))
        self.frontier = fresh
        return scanned

    def _expand_vectorised(self, frontier_cost: int, slot_next=None) -> int:
        """Expand via numpy gather/scatter over the whole frontier at once.

        ``slot_next`` (masked expansions) holds each slot's next depth.
        """
        indptr, indices = self.csr.indptr, self.csr.indices
        frontier = self.frontier
        if isinstance(frontier, list):
            frontier = _np.asarray(frontier, dtype=_np.int64)
        nodes = frontier if self.batch == 1 else frontier % self.n
        starts = indptr[nodes]
        if self.degrees is None:
            counts = indptr[nodes + 1] - starts
            total = int(counts.sum())
        else:
            counts = self.degrees[nodes]
            total = frontier_cost
        empty = _np.empty(0, dtype=_np.int64)
        if total == 0:
            self.levels.append(empty)
            if self.track_edges:
                self.level_edges.append((empty, empty))
            self.frontier = empty
            return 0
        # Concatenating the per-node adjacency slices in frontier order
        # reproduces exactly the edge scan order of the sequential dict BFS.
        row_offsets = _np.cumsum(counts)
        row_offsets -= counts
        positions = _np.arange(total, dtype=_np.int64)
        positions += _np.repeat(starts - row_offsets, counts)
        nbrs = indices[positions]
        if self.batch > 1:
            nbrs = nbrs + _np.repeat(frontier - nodes, counts)
        srcs = _np.repeat(frontier, counts) if self.sigma is not None else None
        next_depth = self.depth + 1
        dist = self.dist
        # In a level-synchronous BFS every neighbour that was undiscovered
        # when the level started sits at the next depth, so the unseen mask
        # doubles as the DAG-edge mask (in dict scan order).
        unseen = dist[nbrs] < 0
        edge_v = nbrs[unseen]
        fresh = _np_first_occurrence(edge_v, self.scratch)
        dist[fresh] = next_depth if slot_next is None else slot_next[fresh // self.n]
        if self.sigma is not None:
            edge_u = srcs[unseen]
            if self.sigma_view is not None:
                _accumulate_level(
                    self.sigma_view, edge_v, self.sigma_view[edge_u],
                    self.float_sigma, self.size,
                )
                if not self.float_sigma and fresh.size:
                    self.frontier_max_sigma = int(self.sigma_view[fresh].max())
            else:
                sigma = self.sigma
                for tail, head in zip(edge_u.tolist(), edge_v.tolist()):
                    sigma[head] += sigma[tail]
            if self.track_edges:
                self.level_edges.append((edge_u, edge_v))
        self.levels.append(fresh)
        self.frontier = fresh
        return total


    def _expand_bottom_up(self) -> int:
        """Expand one level bottom-up: scan *undiscovered* nodes for frontier
        parents instead of scattering from the frontier.

        On very fat levels — social graphs collapse most of the graph into
        two or three levels, and batched road sweeps merge dozens of thin
        frontiers into one fat one — the set of still-undiscovered nodes is
        smaller (in edge cost) than the frontier, so one gather over the
        candidates beats the top-down gather + dedup + scatter.  The level's
        distance labels are identical to top-down's; only the order in which
        the fresh nodes are recorded differs (node-index order), which is
        why this strategy is restricted to order-insensitive sweeps.
        """
        indptr, indices = self.csr.indptr, self.csr.indices
        n = self.n
        cand = self._unvisited
        if cand is None:
            cand = _np.nonzero(self.dist < 0)[0]
            nodes = cand if self.batch == 1 else cand % n
            # Isolated nodes can never be discovered; dropping them keeps
            # every reduceat segment non-empty.
            cand = cand[indptr[nodes + 1] - indptr[nodes] > 0]
        empty = _np.empty(0, dtype=_np.int64)
        self.bottom_up_levels += 1
        if cand.size == 0:
            self.levels.append(empty)
            self.frontier = empty
            self._unvisited = cand
            return 0
        nodes = cand if self.batch == 1 else cand % n
        starts = indptr[nodes]
        counts = indptr[nodes + 1] - starts
        total = int(counts.sum())
        row_offsets = _np.cumsum(counts)
        row_offsets -= counts
        positions = _np.arange(total, dtype=_np.int64)
        positions += _np.repeat(starts - row_offsets, counts)
        nbrs = indices[positions]
        if self.batch > 1:
            nbrs = nbrs + _np.repeat(cand - nodes, counts)
        # A candidate joins the level iff any neighbour sits on the current
        # frontier (distance == depth); maximum.reduceat over the boolean
        # per-edge hits is a segmented logical OR.
        at_frontier = self.dist[nbrs] == self.depth
        hit = _np.maximum.reduceat(at_frontier, row_offsets)
        fresh = cand[hit]
        self.dist[fresh] = self.depth + 1
        self.levels.append(fresh)
        self.frontier = fresh
        self._unvisited = cand[~hit]
        return total


def _accumulate_level(totals, heads, values, as_float: bool, size: int) -> None:
    """Scatter-add ``values`` into ``totals[heads]`` preserving input order.

    Every head receives *all* of its contributions within this one call while
    its total is still zero, so per-bin summation in input order reproduces
    the dict backend's float rounding exactly.  Both float strategies have
    that property — ``bincount`` sums each bin sequentially in input order,
    ``np.add.at`` applies the additions one by one — so the choice between
    them (bincount allocates ``size`` floats per call, add.at pays a high
    per-element cost) affects speed only.  Integer totals always use
    ``np.add.at`` (bincount would go through float64 and lose exactness past
    ``2**53``).
    """
    if not as_float:
        _np.add.at(totals, heads, values)
    elif heads.size:
        if 8 * heads.size >= size:
            totals += _np.bincount(heads, weights=values, minlength=size)
        else:
            _np.add.at(totals, heads, values)


def _backward_dependencies(levels, level_edges, sigma, size, scratch):
    """Brandes' backward accumulation over a (possibly batched) sweep.

    Bit-identical to the dict implementation: the edge sequence of each level
    is re-ordered so contributions hit ``delta`` in exactly the order the
    sequential ``for node in reversed(order)`` loop produces (per slot, for
    batched sweeps — flat ids never collide across slots), and each tail's
    contributions land while its ``delta`` entry is still zero (its own
    additions happen one level earlier), so per-level scatter-adds preserve
    the rounding order too.  Returns the flat ``delta`` array.
    """
    delta_store, delta = _shared_state(size, "d")
    for level in range(len(levels) - 1, 0, -1):
        edge_u, edge_v = level_edges[level - 1]
        count = edge_u.size
        if count == 0:
            continue
        if count < _SEQUENTIAL_EDGE_THRESHOLD:
            # Sequential: group predecessor edges per head, walk heads in
            # reverse discovery order — the dict backend's exact sequence.
            per_head: Dict[int, List[int]] = {}
            for tail, head in zip(edge_u.tolist(), edge_v.tolist()):
                per_head.setdefault(head, []).append(tail)
            for head in reversed(levels[level].tolist()):
                tails = per_head.get(head)
                if not tails:
                    continue
                coefficient = 1.0 + delta_store[head]
                sigma_head = sigma[head]
                for tail in tails:
                    delta_store[tail] += sigma[tail] / sigma_head * coefficient
        else:
            nodes = levels[level]
            scratch[nodes] = _np.arange(nodes.size)
            reorder = _np.argsort(nodes.size - 1 - scratch[edge_v], kind="stable")
            heads = edge_v[reorder]
            tails = edge_u[reorder]
            contributions = sigma[tails] / sigma[heads] * (1.0 + delta[heads])
            _accumulate_level(delta, tails, contributions, True, size)
    return delta


def _np_bfs(csr: CSRGraph, source: int, max_depth: Optional[int]):
    """Level-synchronous hybrid BFS; returns ``(dist, levels)``.

    ``levels[k]`` holds the indices discovered at depth ``k`` in discovery
    order (int64 arrays).
    """
    sweep = _BatchSweep(csr, (source,))
    while sweep.has_frontier and (max_depth is None or sweep.depth < max_depth):
        sweep.expand()
    sweep.trim()
    return sweep.dist, sweep.levels


def _np_shortest_path_dag(
    csr: CSRGraph, source: int, max_depth: Optional[int], float_sigma: bool
) -> CSRShortestPathDAG:
    sweep = _BatchSweep(
        csr, (source,),
        sigma_mode="float" if float_sigma else "int",
        track_edges=True,
    )
    while sweep.has_frontier and (max_depth is None or sweep.depth < max_depth):
        sweep.expand()
    sweep.trim()
    levels = sweep.levels
    order = _np.concatenate(levels) if len(levels) > 1 else levels[0]
    sigma = sweep.sigma_view if float_sigma else sweep.sigma
    return CSRShortestPathDAG(
        csr, source, sweep.dist, sigma, order, levels, sweep.level_edges
    )


def _np_brandes(csr: CSRGraph, source: int):
    """Forward + backward Brandes pass; returns ``(delta, order, dist)``."""
    sweep = _BatchSweep(csr, (source,), sigma_mode="float", track_edges=True)
    while sweep.has_frontier:
        sweep.expand()
    sweep.trim()
    levels = sweep.levels
    order = _np.concatenate(levels) if len(levels) > 1 else levels[0]
    delta = _backward_dependencies(
        levels, sweep.level_edges, sweep.sigma_view, sweep.size, sweep.scratch
    )
    return delta, order, sweep.dist


# ----------------------- pure-Python kernels --------------------------
def _py_bfs(csr: CSRGraph, source: int, max_depth: Optional[int]):
    indptr, indices = csr.indptr, csr.indices
    dist = [-1] * csr.n
    dist[source] = 0
    order = [source]
    queue = deque([source])
    while queue:
        node = queue.popleft()
        depth = dist[node]
        if max_depth is not None and depth >= max_depth:
            continue
        for position in range(indptr[node], indptr[node + 1]):
            neighbor = indices[position]
            if dist[neighbor] < 0:
                dist[neighbor] = depth + 1
                order.append(neighbor)
                queue.append(neighbor)
    return dist, order


def _py_shortest_path_dag(
    csr: CSRGraph, source: int, max_depth: Optional[int], float_sigma: bool
) -> CSRShortestPathDAG:
    indptr, indices = csr.indptr, csr.indices
    n = csr.n
    dist = [-1] * n
    dist[source] = 0
    sigma: List = [0.0 if float_sigma else 0] * n
    sigma[source] = 1.0 if float_sigma else 1
    preds: List[List[int]] = [[] for _ in range(n)]
    order = [source]
    queue = deque([source])
    while queue:
        node = queue.popleft()
        depth = dist[node]
        if max_depth is not None and depth >= max_depth:
            continue
        for position in range(indptr[node], indptr[node + 1]):
            neighbor = indices[position]
            if dist[neighbor] < 0:
                dist[neighbor] = depth + 1
                order.append(neighbor)
                queue.append(neighbor)
            if dist[neighbor] == depth + 1:
                sigma[neighbor] += sigma[node]
                preds[neighbor].append(node)
    pred_indptr = [0] * (n + 1)
    pred_indices: List[int] = []
    for node in range(n):
        pred_indices.extend(preds[node])
        pred_indptr[node + 1] = len(pred_indices)
    levels: List[List[int]] = []
    for node in order:
        if dist[node] == len(levels):
            levels.append([])
        levels[dist[node]].append(node)
    return CSRShortestPathDAG(
        csr, source, dist, sigma, order, levels, None,
        pred_indptr=pred_indptr, pred_indices=pred_indices,
    )


def _py_brandes(csr: CSRGraph, source: int):
    dag = _py_shortest_path_dag(csr, source, None, float_sigma=True)
    sigma = dag.sigma
    delta = [0.0] * csr.n
    pred_indptr, pred_indices = dag.pred_indptr, dag.pred_indices
    for node in reversed(dag.order):
        coefficient = 1.0 + delta[node]
        sigma_node = sigma[node]
        for position in range(pred_indptr[node], pred_indptr[node + 1]):
            predecessor = pred_indices[position]
            delta[predecessor] += sigma[predecessor] / sigma_node * coefficient
    return delta, dag.order, dag.dist


# ------------------------- public kernels -----------------------------
def csr_bfs(csr: CSRGraph, source: int, *, max_depth: Optional[int] = None):
    """BFS from index ``source``; returns ``(dist, order)``.

    ``dist`` holds ``-1`` for unreachable nodes; ``order`` lists the settled
    indices in discovery order (the dict backend's result-dict key order).
    """
    if HAS_NUMPY:
        dist, levels = _np_bfs(csr, source, max_depth)
        order = _np.concatenate(levels) if len(levels) > 1 else levels[0]
        return dist, order
    return _py_bfs(csr, source, max_depth)


def csr_shortest_path_dag(
    csr: CSRGraph,
    source: int,
    *,
    max_depth: Optional[int] = None,
    float_sigma: bool = False,
) -> CSRShortestPathDAG:
    """Build the shortest-path DAG rooted at index ``source``."""
    if HAS_NUMPY:
        return _np_shortest_path_dag(csr, source, max_depth, float_sigma)
    return _py_shortest_path_dag(csr, source, max_depth, float_sigma)


def csr_brandes(csr: CSRGraph, source: int):
    """Brandes single-source dependencies from index ``source``.

    Returns ``(delta, order, dist)`` where ``delta[v]`` is the dependency of
    the source on ``v`` (``delta[source]`` carries a partial sum the caller
    must ignore, mirroring the dict implementation's ``pop``).
    """
    if HAS_NUMPY:
        return _np_brandes(csr, source)
    return _py_brandes(csr, source)


# ----------------------- the weighted SSSP engine ---------------------
#
# The second engine behind the one SSSP abstraction (see
# :mod:`repro.graphs.sssp`): a deterministic binary-heap Dijkstra over the
# same flat CSR arrays.  Heap entries are ``(distance, push counter, node)``
# — the counter breaks distance ties by *push order*, which is a pure
# function of the edge scan order (== dict insertion order), so the dict
# reference in :mod:`repro.graphs.traversal` and this kernel settle nodes
# in the same order, accumulate sigma in the same order and return
# bit-identical float distances.  Shortest-path counts are plain Python
# ints throughout (exact past ``2**63`` by construction — no overflow
# guard needed, unlike the int64 buffers of the BFS engine).

def csr_dijkstra_dag(
    csr: CSRGraph, source: int, *, float_sigma: bool = False
) -> CSRShortestPathDAG:
    """Weighted shortest-path DAG rooted at index ``source``.

    Runs Dijkstra over the snapshot's ``weights`` array (implicit ``1.0``
    per edge when the snapshot is unweighted — the forced-weighted A/B
    path).  Returns a :class:`CSRShortestPathDAG` with ``weighted=True``:
    ``dist`` is a float row (``-1.0`` = unreachable), ``sigma`` holds exact
    counts (Python ints, or floats in Brandes mode), ``order`` is the
    settle order, and the predecessor CSR is materialised eagerly (there
    are no BFS levels to rebuild it from lazily).
    """
    indptr, indices = csr.adjacency_lists()
    weight_list = csr.weight_list()
    n = csr.n
    dist: List[Optional[float]] = [None] * n
    sigma: List = [0.0 if float_sigma else 0] * n
    preds: List[List[int]] = [[] for _ in range(n)]
    order: List[int] = []
    dist[source] = 0.0
    sigma[source] = 1.0 if float_sigma else 1
    settled = bytearray(n)
    heap: List[Tuple[float, int, int]] = [(0.0, 0, source)]
    counter = 1
    while heap:
        d, _, node = heappop(heap)
        if settled[node]:
            continue
        settled[node] = 1
        order.append(node)
        sigma_node = sigma[node]
        for position in range(indptr[node], indptr[node + 1]):
            neighbor = indices[position]
            weight = weight_list[position] if weight_list is not None else 1.0
            candidate = d + weight
            known = dist[neighbor]
            if known is None or candidate < known:
                dist[neighbor] = candidate
                sigma[neighbor] = sigma_node
                preds[neighbor] = [node]
                heappush(heap, (candidate, counter, neighbor))
                counter += 1
            elif candidate == known:
                # Positive weights guarantee ``neighbor`` is unsettled here,
                # so its count is still accumulating.
                sigma[neighbor] += sigma_node
                preds[neighbor].append(node)
    pred_indptr = [0] * (n + 1)
    pred_indices: List[int] = []
    for node in range(n):
        pred_indices.extend(preds[node])
        pred_indptr[node + 1] = len(pred_indices)
    dist_out: object
    order_out: object
    if HAS_NUMPY:
        dist_out = _np.asarray(
            [-1.0 if value is None else value for value in dist],
            dtype=_np.float64,
        )
        order_out = _np.asarray(order, dtype=_np.int64)
        pred_indptr = _np.asarray(pred_indptr, dtype=_np.int64)
        pred_indices = _np.asarray(pred_indices, dtype=_np.int64)
    else:
        dist_out = [-1.0 if value is None else value for value in dist]
        order_out = order
    return CSRShortestPathDAG(
        csr, source, dist_out, sigma, order_out, None, None,
        pred_indptr=pred_indptr, pred_indices=pred_indices, weighted=True,
    )


def csr_dijkstra_distances(csr: CSRGraph, source: int, *, with_order: bool = False):
    """Weighted distance row from index ``source`` (``-1.0`` = unreachable).

    The lean (no sigma, no predecessors) form of :func:`csr_dijkstra_dag`,
    used by distance sweeps; the float distances are identical.  With
    ``with_order=True`` returns ``(row, order)`` where ``order`` lists the
    settled indices — the same settle order the full DAG records.
    """
    indptr, indices = csr.adjacency_lists()
    weight_list = csr.weight_list()
    n = csr.n
    dist: List[Optional[float]] = [None] * n
    dist[source] = 0.0
    settled = bytearray(n)
    order: List[int] = []
    heap: List[Tuple[float, int, int]] = [(0.0, 0, source)]
    counter = 1
    while heap:
        d, _, node = heappop(heap)
        if settled[node]:
            continue
        settled[node] = 1
        order.append(node)
        for position in range(indptr[node], indptr[node + 1]):
            neighbor = indices[position]
            weight = weight_list[position] if weight_list is not None else 1.0
            candidate = d + weight
            known = dist[neighbor]
            if known is None or candidate < known:
                dist[neighbor] = candidate
                heappush(heap, (candidate, counter, neighbor))
                counter += 1
    row = [-1.0 if value is None else value for value in dist]
    if HAS_NUMPY:
        row = _np.asarray(row, dtype=_np.float64)
    if with_order:
        return row, order
    return row


def weighted_backward_dependencies(dag: CSRShortestPathDAG):
    """Backward Brandes accumulation over a weighted DAG's settle order.

    The single copy of the weighted backward pass, shared by
    :func:`csr_dijkstra_brandes` and the delta-stepping kernel: node by
    node in reverse settle order, predecessors in append order, exactly
    the dict reference's float addition sequence.  When the compiled tier
    (:mod:`repro.graphs.compiled`) is on, a structurally identical numba
    loop runs instead — same scalar operations in the same order, fastmath
    disabled, so the floats are bit-identical either way.
    """
    n = dag.csr.n
    sigma = dag.sigma
    pred_indptr, pred_indices = dag.pred_indptr, dag.pred_indices
    if HAS_NUMPY and not isinstance(dag.order, list):
        from repro.graphs import compiled as _compiled

        kernel = _compiled.get_kernel("brandes_backward")
        if kernel is not None:
            delta = _np.zeros(n, dtype=_np.float64)
            kernel(
                dag.order,
                pred_indptr,
                pred_indices,
                _np.asarray(sigma, dtype=_np.float64),
                delta,
            )
            return delta
    delta = [0.0] * n
    order = dag.order if isinstance(dag.order, list) else dag.order.tolist()
    for node in reversed(order):
        coefficient = 1.0 + delta[node]
        sigma_node = sigma[node]
        for position in range(pred_indptr[node], pred_indptr[node + 1]):
            predecessor = pred_indices[position]
            delta[predecessor] += sigma[predecessor] / sigma_node * coefficient
    if HAS_NUMPY:
        delta = _np.asarray(delta, dtype=_np.float64)
    return delta


def csr_dijkstra_brandes(csr: CSRGraph, source: int):
    """Weighted Brandes single-source dependencies from index ``source``.

    The Dijkstra analogue of :func:`csr_brandes`: forward pass via
    :func:`csr_dijkstra_dag` (float sigma), backward accumulation via
    :func:`weighted_backward_dependencies`.  Returns ``(delta, order,
    dist)`` with the same ``delta[source]`` residue contract as the
    unweighted kernel.
    """
    dag = csr_dijkstra_dag(csr, source, float_sigma=True)
    return weighted_backward_dependencies(dag), dag.order, dag.dist


def csr_sssp_dag(
    csr: CSRGraph,
    source: int,
    *,
    weighted: bool = False,
    max_depth: Optional[int] = None,
    float_sigma: bool = False,
    sssp_kernel: Optional[str] = None,
) -> CSRShortestPathDAG:
    """The one SSSP entry point: route to the BFS or the Dijkstra engine.

    ``weighted=False`` is the exact historical
    :func:`csr_shortest_path_dag` BFS path; ``weighted=True`` runs the
    weighted kernel ``sssp_kernel`` selects (edge weights, or implicit
    ``1.0`` on an unweighted snapshot): Dijkstra by default for
    single-source calls, delta-stepping when forced — the two are
    bit-identical, see :mod:`repro.graphs.delta_stepping`.  ``max_depth``
    is a hop-count cap and therefore only meaningful for the BFS engine.
    """
    if weighted:
        if max_depth is not None:
            raise ValueError(
                "max_depth is a hop-count cap; it is not supported by the "
                "weighted (Dijkstra/delta-stepping) SSSP engine"
            )
        from repro.graphs import sssp as _sssp

        if _sssp.effective_sssp_kernel(sssp_kernel) == _sssp.KERNEL_DELTA:
            from repro.graphs import delta_stepping as _delta

            return _delta.csr_delta_dag(csr, source, float_sigma=float_sigma)
        return csr_dijkstra_dag(csr, source, float_sigma=float_sigma)
    return csr_shortest_path_dag(
        csr, source, max_depth=max_depth, float_sigma=float_sigma
    )


#: ``kind`` values accepted by :func:`multi_source_sweep`.
SWEEP_DISTANCE = "distance"
SWEEP_SIGMA = "sigma"
SWEEP_BRANDES = "brandes"
_SWEEP_KINDS = (SWEEP_DISTANCE, SWEEP_SIGMA, SWEEP_BRANDES)

#: Rough cap on the flattened edge-stream footprint of one batch; the
#: default batch size is derived from it so batching never allocates more
#: than a few tens of megabytes of transient level state.
_BATCH_EDGE_BUDGET = 2_000_000


def default_sweep_batch(csr: CSRGraph) -> int:
    """Default number of sources stacked per :func:`multi_source_sweep` batch.

    Sized so one batch's flattened state (``B * n`` arrays plus up to
    ``B * 2m`` of recorded level edges) stays within a fixed memory budget:
    high-diameter road graphs (small ``m``) get large batches — where
    batching is the whole point — while dense social graphs, whose fat
    frontiers already vectorise per source, get small ones.
    """
    return max(1, min(64, _BATCH_EDGE_BUDGET // max(1, 2 * csr.m)))


def multi_source_sweep(
    csr: CSRGraph,
    sources: Sequence[int],
    *,
    kind: str = SWEEP_DISTANCE,
    batch_size: Optional[int] = None,
    direction: Optional[str] = None,
    weighted: bool = False,
    sssp_kernel: Optional[str] = None,
) -> List[object]:
    """Run one sweep per source, ``batch_size`` sources at a time.

    The batched kernel stacks ``B`` single-source sweeps onto flattened
    ``(B * n)`` state arrays and expands them level-synchronously together
    (see :class:`_BatchSweep`): the per-slot thin frontiers of high-diameter
    graphs merge into one fat frontier that the vectorised expansion path
    can chew through, which is where per-source kernels lose to per-level
    numpy overhead.  Results are **bit-identical** to running the per-source
    kernels (``csr_bfs`` / ``csr_shortest_path_dag`` / ``csr_brandes``) one
    source at a time.

    Parameters
    ----------
    csr:
        The snapshot to sweep.
    sources:
        Source node *indices* (one result per source, in order).
    kind:
        ``"distance"`` — per-source length-``n`` hop-distance arrays
        (``-1`` = unreachable);
        ``"sigma"`` — per-source ``(dist, sigma)`` pairs with exact
        shortest-path counts (Python ints once the int64 overflow guard
        trips, exactly like the per-source kernel);
        ``"brandes"`` — per-source Brandes dependency arrays, including the
        ``delta[source]`` residue the caller must ignore (mirroring
        ``csr_brandes``).
    batch_size:
        Sources per stacked batch; defaults to :func:`default_sweep_batch`.
    direction:
        ``"top-down"`` or ``"auto"`` (direction-optimising: very fat levels
        switch to a bottom-up step).  Only ``"distance"`` sweeps — whose
        results are pure functions of the distance labels — may use
        ``"auto"``, and they default to it; the distance rows are identical
        either way, only wall-clock time changes.  Order-sensitive kinds
        (``"sigma"``, ``"brandes"``) always run top-down.
    weighted:
        Run the weighted SSSP engine instead of BFS; float distance rows
        (``-1.0`` = unreachable).  ``direction`` is ignored (there is no
        bottom-up step to take).
    sssp_kernel:
        Weighted kernel choice (``"auto"``/``"dijkstra"``/``"delta"``, see
        :mod:`repro.graphs.sssp`).  ``"auto"`` batches multi-source sweeps
        through the delta-stepping kernel
        (:func:`repro.graphs.delta_stepping.delta_sweep` — stacked bucket
        frontiers, the weighted analogue of the BFS level batching) and
        keeps single-source sweeps on the per-source Dijkstra loop.  The
        kernels are bit-identical, so the knob affects speed only.

    Without numpy the batched layout has nothing to vectorise, so the
    function falls back to the per-source pure-Python kernels (results are
    identical by the same contract).
    """
    if kind not in _SWEEP_KINDS:
        raise ValueError(f"unknown sweep kind {kind!r}; choose one of {_SWEEP_KINDS}")
    if direction is None:
        direction = DIRECTION_AUTO if kind == SWEEP_DISTANCE else TOP_DOWN
    elif direction not in _DIRECTIONS:
        raise ValueError(
            f"direction={direction!r} is not valid; choose one of {_DIRECTIONS}"
        )
    elif direction == DIRECTION_AUTO and kind != SWEEP_DISTANCE:
        raise ValueError(
            f"direction='auto' is only valid for kind='{SWEEP_DISTANCE}' "
            "sweeps; sigma/Brandes sweeps are order-sensitive"
        )
    source_list = [int(source) for source in sources]
    for source in source_list:
        if source < 0 or source >= csr.n:
            raise GraphError(
                f"source index {source} out of range for a {csr.n}-node snapshot"
            )
    if batch_size is not None and batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    results: List[object] = []
    if weighted:
        from repro.graphs import sssp as _sssp

        kernel = _sssp.effective_sssp_kernel(
            sssp_kernel, batched=len(source_list) > 1
        )
        if kernel == _sssp.KERNEL_DELTA:
            from repro.graphs import delta_stepping as _delta

            return _delta.delta_sweep(
                csr, source_list, kind=kind, batch_size=batch_size
            )
        for source in source_list:
            if kind == SWEEP_DISTANCE:
                results.append(csr_dijkstra_distances(csr, source))
            elif kind == SWEEP_SIGMA:
                dag = csr_dijkstra_dag(csr, source)
                results.append((dag.dist, dag.sigma))
            else:
                delta, _, _ = csr_dijkstra_brandes(csr, source)
                results.append(delta)
        return results
    if not HAS_NUMPY:
        for source in source_list:
            if kind == SWEEP_DISTANCE:
                results.append(csr_bfs(csr, source)[0])
            elif kind == SWEEP_SIGMA:
                dag = csr_shortest_path_dag(csr, source)
                results.append((dag.dist, dag.sigma))
            else:
                delta, _, _ = csr_brandes(csr, source)
                results.append(delta)
        return results
    if batch_size is None:
        batch_size = default_sweep_batch(csr)
    n = csr.n
    for start in range(0, len(source_list), batch_size):
        roots = source_list[start : start + batch_size]
        sweep = _BatchSweep(
            csr,
            roots,
            sigma_mode=(
                "float" if kind == SWEEP_BRANDES
                else "int" if kind == SWEEP_SIGMA
                else None
            ),
            track_edges=kind == SWEEP_BRANDES,
            direction=direction if kind == SWEEP_DISTANCE else TOP_DOWN,
        )
        while sweep.has_frontier:
            sweep.expand()
        sweep.trim()
        if kind == SWEEP_BRANDES:
            delta = _backward_dependencies(
                sweep.levels, sweep.level_edges, sweep.sigma_view,
                sweep.size, sweep.scratch,
            )
            for slot in range(len(roots)):
                results.append(delta[slot * n : (slot + 1) * n].copy())
        elif kind == SWEEP_SIGMA:
            for slot in range(len(roots)):
                dist_row = sweep.dist[slot * n : (slot + 1) * n].copy()
                if sweep.sigma_view is not None:
                    sigma_row: object = sweep.sigma_view[
                        slot * n : (slot + 1) * n
                    ].copy()
                else:
                    sigma_row = sweep.sigma[slot * n : (slot + 1) * n]
                results.append((dist_row, sigma_row))
        else:
            for slot in range(len(roots)):
                results.append(sweep.dist[slot * n : (slot + 1) * n].copy())
    return results


# ----------------------------------------------------------------------
# Two-hop gather (SaPHyRa_bc's Exact_bc)
# ----------------------------------------------------------------------
#: Walks gathered per :func:`two_hop_paths` chunk (about ten int64 arrays
#: of this length are alive at once; a source with more walks than this
#: forms a chunk of its own).
_TWO_HOP_WALKS = 1 << 13
#: Cap on ``chunk sources * n``: the size of the (source, endpoint) key
#: scratch that groups a chunk's paths into pairs without sorting.
_TWO_HOP_KEYS = 1 << 16


class TwoHopChunk(NamedTuple):
    """One chunk of :func:`two_hop_paths`: every two-hop walk ``(s, m, e)``
    out of ``sources``, one entry per walk in every per-walk array.

    Attributes
    ----------
    sources:
        The chunk's source indices, in the order they were given.
    owner:
        Position in ``sources`` of each walk's source.
    first_slot:
        Adjacency slot (index into ``indices``) of the walk's edge
        (source, middle).
    second_slot:
        Adjacency slot of the walk's edge (middle, endpoint).
    pair:
        For a shortest path (``e`` at distance 2 from ``s``): the index of
        the first walk with the same (source, endpoint) pair.  ``-1`` for
        the other walks (back to ``s``, or onto a neighbour of ``s``).
    """

    sources: object
    owner: object
    first_slot: object
    second_slot: object
    pair: object


def _np_ranges(starts, lengths):
    """Concatenation of ``arange(start, start + length)`` per element."""
    offsets = _np.cumsum(lengths) - lengths
    total = int(offsets[-1] + lengths[-1]) if lengths.size else 0
    return _np.arange(total, dtype=_np.int64) - _np.repeat(offsets - starts, lengths)


def two_hop_paths(csr: CSRGraph, sources: Sequence[int]) -> Iterator[TwoHopChunk]:
    """The two-hop walks ``(s, m, e)`` out of every source, by chunk.

    Walks come in adjacency order (sources as given, then each source's
    neighbours ``m``, then each middle's neighbours ``e``), the order of a
    nested neighbour loop.  Those that are shortest paths (``e`` at
    distance exactly 2 from ``s``) carry the index of the first walk of
    their (source, endpoint) pair, so ``bincount(pair + 1)[pair + 1]`` is
    each path's ``sigma_se``; the others carry ``-1``.

    Chunks hold consecutive sources, at most ``_TWO_HOP_WALKS`` walks (or
    one source) and at most ``_TWO_HOP_KEYS // n`` sources, so transient
    state is bounded whatever the number of sources.  Requires numpy.
    """
    if not HAS_NUMPY:
        raise GraphError("two_hop_paths requires numpy")
    n = csr.n
    indptr = _np.asarray(csr.indptr, dtype=_np.int64)
    indices = _np.asarray(csr.indices, dtype=_np.int64)
    degree = indptr[1:] - indptr[:-1]
    source_array = _np.asarray(sources, dtype=_np.int64).reshape(-1)
    if source_array.size == 0:
        return
    if source_array.min() < 0 or source_array.max() >= n:
        raise GraphError(f"source index out of range for a {n}-node snapshot")
    # Walks per source, and chunk boundaries from both caps.
    source_degree = degree[source_array]
    middle_slots = _np_ranges(indptr[source_array], source_degree)
    middle_walks = _np.concatenate(([0], _np.cumsum(degree[indices[middle_slots]])))
    middle_offsets = _np.concatenate(([0], _np.cumsum(source_degree)))
    source_walks = _np.diff(middle_walks[middle_offsets]).tolist()
    max_sources = max(1, _TWO_HOP_KEYS // n)
    starts = [0]
    chunk_walks = 0
    for position, count in enumerate(source_walks):
        if position > starts[-1] and (
            position - starts[-1] == max_sources
            or chunk_walks + count > _TWO_HOP_WALKS
        ):
            starts.append(position)
            chunk_walks = 0
        chunk_walks += count
    stops = starts[1:] + [source_array.size]
    scratch = _np.empty(min(source_array.size, max_sources) * n, dtype=_np.int64)
    for lo, hi in zip(starts, stops):
        chunk_sources = source_array[lo:hi]
        first = middle_slots[middle_offsets[lo]:middle_offsets[hi]]
        middle_owner = _np.repeat(
            _np.arange(hi - lo, dtype=_np.int64), source_degree[lo:hi]
        )
        middles = indices[first]
        middle_degree = degree[middles]
        second = _np_ranges(indptr[middles], middle_degree)
        owner = _np.repeat(middle_owner, middle_degree)
        first = _np.repeat(first, middle_degree)
        if not second.size:
            continue
        # Group by (source, endpoint) key: writing positions back to front
        # leaves each key's first walk in the scratch; keys of the source
        # itself and of its neighbours are then overwritten with -1.
        keys = owner * n + indices[second]
        positions = _np.arange(second.size, dtype=_np.int64)
        scratch[keys[::-1]] = positions[::-1]
        scratch[middle_owner * n + middles] = -1
        scratch[_np.arange(hi - lo, dtype=_np.int64) * n + chunk_sources] = -1
        yield TwoHopChunk(
            sources=chunk_sources,
            owner=owner,
            first_slot=first,
            second_slot=second,
            pair=scratch[keys],
        )


def distance_stats_from_row(dist):
    """``(reachable node count, total distance)`` of one distance row.

    Accepts either a numpy row from :func:`multi_source_sweep` or the list
    the pure-Python fallback produces (``-1`` = unreachable).  Hop-distance
    rows yield an integer total; weighted (float) rows yield a float total.
    """
    if HAS_NUMPY and not isinstance(dist, list):
        reached = dist >= 0
        if dist.dtype.kind == "f":
            # Sequential left-to-right sum in node-index order: numpy's
            # pairwise .sum() re-associates float additions, which would
            # break bit-identity with the dict backend's sequential total.
            # repro-lint: disable=float-fold — audited: builtin sum over tolist() is the pinned sequential node-index-order fold
            return int(reached.sum()), sum(dist[reached].tolist())
        return int(reached.sum()), int(dist[reached].sum())
    reachable = 0
    total = 0
    for value in dist:
        if value >= 0:
            reachable += 1
            total += value
    return reachable, total


def csr_distance_stats(csr: CSRGraph, source: int) -> Tuple[int, int]:
    """Return ``(reachable node count, total hop distance)`` from ``source``.

    The single-source convenience form of the closeness statistic;
    bulk callers run :func:`multi_source_sweep` over whole source chunks
    instead (see ``repro.centrality.closeness``).
    """
    [dist] = multi_source_sweep(csr, (source,), kind=SWEEP_DISTANCE)
    return distance_stats_from_row(dist)
