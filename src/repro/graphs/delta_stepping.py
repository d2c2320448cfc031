"""Delta-stepping weighted SSSP: the bucket kernel behind ``sssp_kernel``.

PR 5's weighted engine runs one binary-heap Dijkstra per source — correct
and deterministic, but with nothing to vectorise: every relaxation is a
Python-level heap operation.  This module adds the batched alternative
(Meyer & Sanders' delta-stepping): tentative distances are grouped into
buckets of width Δ, light edges (weight < Δ) are relaxed
bucket-synchronously in fat vectorised rounds — the weighted analogue of
:class:`repro.graphs.csr._BatchSweep`'s level expansion, reusing the same
gather/scatter idiom — and heavy edges (weight ≥ Δ) are relaxed once per
bucket.  Stacking ``K`` sources onto one flat ``K * n`` state space merges
the thin per-source frontiers of road-style graphs into frontiers wide
enough for numpy (and, when available, the numba tier in
:mod:`repro.graphs.compiled`) to chew through.

Determinism contract (how delta-stepping can be *bit-identical* to
Dijkstra)
--------------------------------------------------------------------------
Final SSSP distances do not depend on relaxation order: every tentative
value is ``dist[u] + w`` — one float64 addition — and the final value is
the minimum over the identical candidate set, so any label-correcting
schedule converges to bitwise the same distances the Dijkstra kernel
computes.  Everything *order-sensitive* (settle order, predecessor append
order, sigma accumulation, and through them sampled paths and Brandes
floats) is rebuilt afterwards by a finalisation pass pinned to Dijkstra's
semantics:

* DAG edges are exactly the slots with ``dist[u] + w == dist[v]``
  (bitwise) — the same predicate Dijkstra's ``candidate == known`` test
  applies against settled distances.
* Dijkstra settles nodes by ``(distance, push counter)``; the counter of
  the winning push (the first push carrying the final distance) is ordered
  by ``(settle position of the first optimal predecessor, CSR edge slot)``.
  Both are pure functions of the final distances, so the settle order is
  reconstructed exactly: sort by distance, then order each equal-distance
  tie group by that key (all predecessors have strictly smaller distance,
  so groups resolve in ascending order).
* Predecessor lists are the DAG in-edges sorted by predecessor settle
  position — Dijkstra's reset-then-append order — and sigma is re-summed
  over them in that order (exact Python ints, or the dict reference's
  float addition sequence in Brandes mode).

Because results are identical, the ``sssp_kernel`` knob — like
``backend`` and ``direction`` — affects speed only: the dict reference
stays the single oracle, ``SourceDAGCache`` keys need no kernel
component, and every worker-handoff contract holds unchanged.

Bucket bookkeeping is *robust*, not trusted: bucket ids are a processing
heuristic (floor(dist / Δ) with float rounding at boundaries), and the
kernel is written as bucket-ordered label correction — stale queue entries
are dropped by a "already relaxed at this distance" check, re-improved
nodes re-enter whatever bucket their new distance maps to, and buckets can
be revisited — so no correctness argument ever rests on a float boundary.

Without numpy a pure-Python bucket loop runs instead (treating every edge
as light — the split is a vectorised-path refinement); results are
identical by the same fixpoint argument.
"""

from __future__ import annotations

import heapq
from array import array
from typing import Dict, List, Optional, Tuple
from weakref import WeakKeyDictionary

from repro.graphs import compiled as _compiled
from repro.graphs import csr as _csr
from repro.graphs.csr import _np

__all__ = [
    "auto_delta",
    "csr_delta_distances",
    "csr_delta_dag",
    "csr_delta_brandes",
    "delta_sweep",
]

_INF = float("inf")

_auto_delta_cache: "WeakKeyDictionary" = WeakKeyDictionary()
_split_cache: "WeakKeyDictionary" = WeakKeyDictionary()


#: Target number of Δ-width buckets spanning the estimated distance range.
#: Each bucket round pays a fixed vectorisation overhead (gather, lexsort,
#: parking), so the batched kernel wants a *handful* of fat buckets rather
#: than the many thin ones the classical sequential tuning (Δ = mean edge
#: weight) produces on high-diameter graphs.
_TARGET_BUCKETS = 16


def auto_delta(csr) -> float:
    """The auto-tuned bucket width for the batched kernel.

    Two regimes, taking the larger Δ of:

    * **mean edge weight** — the classical sequential tuning; with
      Δ = mean weight roughly half the adjacency is light and buckets
      advance at the natural distance scale.  Low-diameter graphs
      (small-world / scale-free) land here: their distance range is only
      a few mean weights wide, so the range-based estimate below would
      degenerate.
    * **distance range / target bucket count** — the estimated weighted
      eccentricity (hop eccentricity from one BFS probe × mean weight)
      divided by :data:`_TARGET_BUCKETS`.  High-diameter graphs (grids /
      road networks) land here: at Δ = mean weight they would sweep
      hundreds of thin buckets, each paying the fixed vectorised-scatter
      overhead; a handful of fat buckets trades a little re-relaxation
      for far fewer rounds.

    Unit-weight snapshots get Δ = 1.0, which makes every edge heavy and
    the bucket sweep exactly level-synchronous.  The value only shapes
    the processing schedule — never the results — and is cached per
    snapshot (one O(m) BFS probe amortised across the whole sweep).
    """
    cached = _auto_delta_cache.get(csr)
    if cached is not None:
        return cached
    weights = csr.weights
    if weights is None or len(weights) == 0:
        value = 1.0
    else:
        if _csr.HAS_NUMPY and not isinstance(weights, array):
            mean = float(weights.mean())
        else:
            # repro-lint: disable=float-fold — audited: the mean only sizes Δ buckets (processing schedule), never results
            mean = sum(weights) / len(weights)
        value = mean
        if csr.n > 1:
            # Hop eccentricity of one probe node (between radius and
            # diameter — precision is irrelevant, this only sizes buckets).
            dist, _ = _csr.csr_bfs(csr, 0)
            eccentricity = int(max(dist))
            value = max(mean, eccentricity * mean / _TARGET_BUCKETS)
    _auto_delta_cache[csr] = value
    return value


def _resolve_delta(csr, delta: Optional[float]) -> float:
    """Validate an explicit bucket width, or auto-tune one."""
    if delta is None:
        return auto_delta(csr)
    value = float(delta)
    if not (value > 0.0) or value == _INF:
        raise ValueError(
            f"delta (the bucket width) must be positive and finite, got {delta!r}"
        )
    return value


# ---------------------------------------------------------------------------
# Light/heavy adjacency split (numpy path only)
# ---------------------------------------------------------------------------
class _EdgeSplit:
    """Adjacency split into light (< Δ) and heavy (≥ Δ) CSR halves.

    Masking preserves slot order within each half, and the relaxation
    fixpoint is order-independent anyway, so the split only affects how
    often edges are scanned.  Python-list forms for the sequential
    small-frontier path are materialised lazily.
    """

    __slots__ = ("delta", "light", "heavy", "_light_lists", "_heavy_lists")

    def __init__(self, delta: float, light, heavy) -> None:
        self.delta = delta
        self.light = light  # (indptr, indices, weights) numpy arrays
        self.heavy = heavy
        self._light_lists = None
        self._heavy_lists = None

    def arrays(self, heavy: bool):
        return self.heavy if heavy else self.light

    def lists(self, heavy: bool):
        if heavy:
            if self._heavy_lists is None:
                self._heavy_lists = tuple(arr.tolist() for arr in self.heavy)
            return self._heavy_lists
        if self._light_lists is None:
            self._light_lists = tuple(arr.tolist() for arr in self.light)
        return self._light_lists


def _counts_to_indptr(counts):
    indptr = _np.zeros(counts.size + 1, dtype=_np.int64)
    _np.cumsum(counts, out=indptr[1:])
    return indptr


def _edge_split(csr, delta: float) -> _EdgeSplit:
    """Return the cached light/heavy split of ``csr`` for bucket width Δ."""
    cached = _split_cache.get(csr)
    if cached is not None and cached.delta == delta:
        return cached
    indptr, indices = csr.indptr, csr.indices
    weights = csr.weights
    if weights is None:
        weights = _np.ones(indices.size, dtype=_np.float64)
    n = csr.n
    owners = _np.repeat(
        _np.arange(n, dtype=_np.int64), _np.diff(indptr)
    )
    light_mask = weights < delta
    heavy_mask = ~light_mask
    split = _EdgeSplit(
        delta,
        (
            _counts_to_indptr(_np.bincount(owners[light_mask], minlength=n)),
            indices[light_mask],
            weights[light_mask],
        ),
        (
            _counts_to_indptr(_np.bincount(owners[heavy_mask], minlength=n)),
            indices[heavy_mask],
            weights[heavy_mask],
        ),
    )
    _split_cache[csr] = split
    return split


# ---------------------------------------------------------------------------
# The batched bucket sweep (numpy path)
# ---------------------------------------------------------------------------
def _dedup(nodes):
    """Sort-based dedup of an int64 id array (in place when possible).

    Cheaper than ``np.unique`` (which hashes) for the small per-bucket
    arrays the sweep produces, and the sweep never relies on queue order,
    only on membership.
    """
    if nodes.size <= 1:
        return nodes
    nodes = _np.sort(nodes)
    keep = _np.empty(nodes.size, dtype=bool)
    keep[0] = True
    _np.not_equal(nodes[1:], nodes[:-1], out=keep[1:])
    if keep.all():
        return nodes
    return nodes[keep]


def _park(nodes, bucket_ids, pending, heap) -> None:
    """Queue improved nodes into their buckets (lazy heap of bucket ids)."""
    if nodes.size == 1:
        key = int(bucket_ids[0])
        chunks = pending.get(key)
        if chunks is None:
            pending[key] = [nodes]
            heapq.heappush(heap, key)
        else:
            chunks.append(nodes)
        return
    order = _np.argsort(bucket_ids, kind="stable")
    sorted_nodes = nodes[order]
    sorted_ids = bucket_ids[order]
    starts = _np.flatnonzero(
        _np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1]))
    )
    stops = _np.append(starts[1:], sorted_ids.size)
    for start, stop in zip(starts.tolist(), stops.tolist()):
        key = int(sorted_ids[start])
        chunk = sorted_nodes[start:stop]
        chunks = pending.get(key)
        if chunks is None:
            pending[key] = [chunk]
            heapq.heappush(heap, key)
        else:
            chunks.append(chunk)


def _relax(split, heavy, frontier, dist, dist_store, n, single, kernel):
    """Relax one edge half of ``frontier``; return unique improved flat ids.

    Hybrid like ``_BatchSweep.expand``: the numba kernel when the compiled
    tier is on, a sequential Python loop under the small-frontier
    threshold, a vectorised gather + lexsort scatter-min otherwise.  All
    three apply the same ``dist[u] + w < dist[v]`` updates, so the choice
    never affects the distance fixpoint.
    """
    indptr, indices, weights = split.arrays(heavy)
    nodes = frontier if single else frontier % n
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    total = int(counts.sum())
    empty = _np.empty(0, dtype=_np.int64)
    if total == 0:
        return empty
    if kernel is not None:
        out = _np.empty(total, dtype=_np.int64)
        count = int(kernel(indptr, indices, weights, frontier, n, dist, out))
        if count == 0:
            return empty
        return _dedup(out[:count])
    if total < _csr._SEQUENTIAL_EDGE_THRESHOLD:
        indptr_list, indices_list, weights_list = split.lists(heavy)
        improved: List[int] = []
        for flat in frontier.tolist():
            node = flat if single else flat % n
            base = flat - node
            d = dist_store[flat]
            for position in range(indptr_list[node], indptr_list[node + 1]):
                target = base + indices_list[position]
                candidate = d + weights_list[position]
                if candidate < dist_store[target]:
                    dist_store[target] = candidate
                    improved.append(target)
        if not improved:
            return empty
        return _dedup(_np.asarray(improved, dtype=_np.int64))
    row_offsets = _np.cumsum(counts)
    row_offsets -= counts
    positions = _np.arange(total, dtype=_np.int64)
    positions += _np.repeat(starts - row_offsets, counts)
    targets = indices[positions]
    if not single:
        targets = targets + _np.repeat(frontier - nodes, counts)
    candidates = _np.repeat(dist[frontier], counts) + weights[positions]
    improving = candidates < dist[targets]
    if not improving.any():
        return empty
    targets = targets[improving]
    candidates = candidates[improving]
    # Per-target minimum without np.minimum.at: lexsort groups targets with
    # their candidates ascending, so the first row of each group is its min.
    order = _np.lexsort((candidates, targets))
    targets = targets[order]
    candidates = candidates[order]
    keep = _np.empty(targets.size, dtype=bool)
    keep[0] = True
    _np.not_equal(targets[1:], targets[:-1], out=keep[1:])
    targets = targets[keep]
    dist[targets] = candidates[keep]
    return targets


def _np_delta_sweep(csr, roots, delta: float):
    """Run ``B`` stacked delta-stepping searches; return flat ``B * n`` dist.

    Source slot ``k`` owns flat ids ``k * n .. k * n + n - 1`` — the same
    layout as :class:`_BatchSweep` — and unreachable entries stay ``inf``
    (callers convert to the public ``-1.0`` sentinel).  ``last`` tracks the
    distance each node was last relaxed at: a queue entry is stale exactly
    when its distance has not improved since, which is the only invariant
    the bucket schedule relies on.
    """
    n = csr.n
    batch = len(roots)
    single = batch == 1
    size = batch * n
    split = _edge_split(csr, delta)
    dist_store, dist = _csr._shared_state(size, "d")
    dist.fill(_INF)
    last = _np.full(size, _INF, dtype=_np.float64)
    flat_roots = _np.asarray(
        roots if single else [slot * n + root for slot, root in enumerate(roots)],
        dtype=_np.int64,
    )
    dist[flat_roots] = 0.0
    inv_delta = 1.0 / delta
    kernel = _compiled.get_kernel("relax_edges")
    # With Δ ≥ max weight (the range-based auto tuning on most graphs) the
    # heavy half is empty: skip member tracking and the whole heavy phase.
    has_heavy = split.heavy[1].size > 0
    pending: Dict[int, List[object]] = {0: [flat_roots]}
    heap = [0]
    while heap:
        bucket_id = heapq.heappop(heap)
        chunks = pending.pop(bucket_id, None)
        if chunks is None:
            continue
        queued = chunks[0] if len(chunks) == 1 else _np.concatenate(chunks)
        queued = _dedup(queued)
        frontier = queued[dist[queued] < last[queued]]
        members: List[object] = []
        while frontier.size:
            last[frontier] = dist[frontier]
            if has_heavy:
                members.append(frontier)
            improved = _relax(
                split, False, frontier, dist, dist_store, n, single, kernel
            )
            if improved.size == 0:
                break
            improved_buckets = _np.floor(dist[improved] * inv_delta).astype(
                _np.int64
            )
            stay = improved_buckets <= bucket_id
            frontier = improved[stay]
            deferred = improved[~stay]
            if deferred.size:
                _park(deferred, improved_buckets[~stay], pending, heap)
        if not members:
            continue
        settled = members[0] if len(members) == 1 else _dedup(
            _np.concatenate(members)
        )
        improved = _relax(
            split, True, settled, dist, dist_store, n, single, kernel
        )
        if improved.size:
            _park(
                improved,
                _np.floor(dist[improved] * inv_delta).astype(_np.int64),
                pending,
                heap,
            )
    return dist


# ---------------------------------------------------------------------------
# Pure-Python bucket kernel (no-numpy degradation)
# ---------------------------------------------------------------------------
def _py_delta_row(csr, source: int, delta: float) -> List[float]:
    """Single-source bucket-ordered label correction over Python lists.

    Every edge is treated as light (the light/heavy split is a
    vectorised-path refinement); the distance fixpoint is identical.
    """
    indptr, indices = csr.adjacency_lists()
    weights = csr.weight_list()
    n = csr.n
    dist = [_INF] * n
    last = [_INF] * n
    dist[source] = 0.0
    inv_delta = 1.0 / delta
    pending: Dict[int, List[int]] = {0: [source]}
    heap = [0]
    while heap:
        bucket_id = heapq.heappop(heap)
        stack = pending.pop(bucket_id, None)
        if stack is None:
            continue
        while stack:
            node = stack.pop()
            d = dist[node]
            if d >= last[node]:
                continue
            last[node] = d
            for position in range(indptr[node], indptr[node + 1]):
                weight = weights[position] if weights is not None else 1.0
                candidate = d + weight
                target = indices[position]
                if candidate < dist[target]:
                    dist[target] = candidate
                    target_bucket = int(candidate * inv_delta)
                    if target_bucket <= bucket_id:
                        stack.append(target)
                    else:
                        queued = pending.get(target_bucket)
                        if queued is None:
                            pending[target_bucket] = [target]
                            heapq.heappush(heap, target_bucket)
                        else:
                            queued.append(target)
    return dist


# ---------------------------------------------------------------------------
# Finalisation: re-pin Dijkstra's settle order / preds / sigma
# ---------------------------------------------------------------------------
def _finalise_np(csr, source: int, row):
    """Rebuild ``(dist, order, pred_indptr, pred_indices)`` from final dists.

    ``row`` is an inf-sentinel float64 row.  See the module docstring for
    why the reconstruction is exact: the DAG predicate and the
    ``(first-optimal-predecessor position, edge slot)`` tie-break are pure
    functions of the final distances.
    """
    n = csr.n
    indptr, indices = csr.indptr, csr.indices
    tails = _np.repeat(_np.arange(n, dtype=_np.int64), _np.diff(indptr))
    tail_dist = row[tails]
    if csr.weights is not None:
        candidates = tail_dist + csr.weights
    else:
        candidates = tail_dist + 1.0
    dag_mask = _np.isfinite(tail_dist) & (candidates == row[indices])
    dag_u = tails[dag_mask]
    dag_v = indices[dag_mask]
    dag_slot = _np.flatnonzero(dag_mask)
    reach = _np.flatnonzero(_np.isfinite(row))
    order = reach[_np.argsort(row[reach], kind="stable")]
    count = order.size
    pos = _np.empty(n, dtype=_np.int64)
    pos[order] = _np.arange(count, dtype=_np.int64)
    if count > 1:
        d_sorted = row[order]
        ties = d_sorted[1:] == d_sorted[:-1]
        if ties.any():
            group_starts = _np.flatnonzero(
                _np.concatenate(([True], ~ties))
            )
            group_sizes = _np.diff(_np.append(group_starts, count))
            multi = group_sizes > 1
            in_order = _np.argsort(dag_v, kind="stable")
            in_tails = dag_u[in_order]
            in_slots = dag_slot[in_order]
            in_counts = _np.bincount(dag_v, minlength=n)
            in_indptr = _np.zeros(n + 1, dtype=_np.int64)
            _np.cumsum(in_counts, out=in_indptr[1:])
            # Encode (pos[u], slot) lexicographic keys as one int64: slot
            # is globally < stride, so keys from different predecessors
            # never collide.
            stride = _np.int64(indices.size + 1)
            # Tie groups resolve in ascending distance order: every DAG
            # predecessor has strictly smaller distance (positive weights),
            # so its position is already final when its group is reached.
            for g_start, g_size in zip(
                group_starts[multi].tolist(), group_sizes[multi].tolist()
            ):
                group = order[g_start : g_start + g_size]
                starts = in_indptr[group]
                counts = in_counts[group]
                total = int(counts.sum())
                offsets = _np.cumsum(counts)
                offsets -= counts
                positions = _np.arange(total, dtype=_np.int64)
                positions += _np.repeat(starts - offsets, counts)
                keys = pos[in_tails[positions]] * stride + in_slots[positions]
                group_keys = _np.minimum.reduceat(keys, offsets)
                reordered = group[_np.argsort(group_keys, kind="stable")]
                order[g_start : g_start + g_size] = reordered
                pos[reordered] = _np.arange(
                    g_start, g_start + g_size, dtype=_np.int64
                )
    pred_order = _np.lexsort((pos[dag_u], dag_v))
    pred_indices = dag_u[pred_order]
    pred_indptr = _np.zeros(n + 1, dtype=_np.int64)
    _np.cumsum(_np.bincount(dag_v, minlength=n), out=pred_indptr[1:])
    dist_out = row.copy()
    dist_out[~_np.isfinite(row)] = -1.0
    return dist_out, order, pred_indptr, pred_indices


def _finalise_py(csr, source: int, dist_inf: List[float]):
    """Pure-Python mirror of :func:`_finalise_np` (identical results)."""
    indptr, indices = csr.adjacency_lists()
    weights = csr.weight_list()
    n = csr.n
    in_edges: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    reachable: List[int] = []
    for node in range(n):
        d = dist_inf[node]
        if d == _INF:
            continue
        reachable.append(node)
        for position in range(indptr[node], indptr[node + 1]):
            weight = weights[position] if weights is not None else 1.0
            if d + weight == dist_inf[indices[position]]:
                in_edges[indices[position]].append((node, position))
    reachable.sort(key=lambda node: dist_inf[node])
    pos = [0] * n
    for rank, node in enumerate(reachable):
        pos[node] = rank
    start = 0
    count = len(reachable)
    while start < count:
        stop = start + 1
        d = dist_inf[reachable[start]]
        while stop < count and dist_inf[reachable[stop]] == d:
            stop += 1
        if stop - start > 1:
            group = reachable[start:stop]
            group.sort(
                key=lambda node: min(
                    (pos[u], slot) for u, slot in in_edges[node]
                )
            )
            reachable[start:stop] = group
            for rank in range(start, stop):
                pos[reachable[rank]] = rank
        start = stop
    pred_indptr = [0] * (n + 1)
    pred_indices: List[int] = []
    for node in range(n):
        edges = in_edges[node]
        if len(edges) > 1:
            edges.sort(key=lambda edge: pos[edge[0]])
        for predecessor, _ in edges:
            pred_indices.append(predecessor)
        pred_indptr[node + 1] = len(pred_indices)
    dist_out = [-1.0 if value == _INF else value for value in dist_inf]
    return dist_out, reachable, pred_indptr, pred_indices


def _sigma_over_preds(source, order, pred_indptr, pred_indices, n, float_sigma):
    """Accumulate sigma over the settle order (preds in append order).

    Integer mode uses exact Python ints; float (Brandes) mode replays the
    dict reference's addition sequence — via the compiled kernel when the
    tier is on (structurally identical loop, no re-association).
    """
    if not isinstance(order, list):
        reachable = order.size if hasattr(order, "size") else len(order)
        if int(pred_indices.size) == reachable - 1:
            # Every reachable non-source node has exactly one optimal
            # predecessor (each has at least one by construction), i.e.
            # shortest paths are unique: sigma is 1 along the whole DAG.
            # Jittered-float-weight graphs land here almost surely.
            sigma_row = _np.zeros(
                n, dtype=_np.float64 if float_sigma else _np.int64
            )
            sigma_row[order] = 1
            return sigma_row.tolist()
    if float_sigma and _csr.HAS_NUMPY and not isinstance(order, list):
        kernel = _compiled.get_kernel("sigma_float")
        if kernel is not None:
            sigma = _np.zeros(n, dtype=_np.float64)
            sigma[source] = 1.0
            kernel(order, pred_indptr, pred_indices, sigma)
            return sigma.tolist()
    if isinstance(order, list):
        order_list, indptr_list, indices_list = order, pred_indptr, pred_indices
    else:
        order_list = order.tolist()
        indptr_list = pred_indptr.tolist()
        indices_list = pred_indices.tolist()
    sigma: List = [0.0 if float_sigma else 0] * n
    sigma[source] = 1.0 if float_sigma else 1
    for node in order_list[1:]:
        total = 0.0 if float_sigma else 0
        for position in range(indptr_list[node], indptr_list[node + 1]):
            total += sigma[indices_list[position]]
        sigma[node] = total
    return sigma


# ---------------------------------------------------------------------------
# Public kernels (drop-in equivalents of the csr_dijkstra_* trio)
# ---------------------------------------------------------------------------
def csr_delta_distances(
    csr, source: int, *, with_order: bool = False, delta: Optional[float] = None
):
    """Weighted distance row via delta-stepping (== ``csr_dijkstra_distances``).

    ``with_order=True`` additionally reconstructs the Dijkstra settle
    order (which requires the DAG finalisation pass); the plain form is
    the lean distance-only kernel batched sweeps build on.
    """
    if _csr.HAS_NUMPY:
        row = _np_delta_sweep(csr, [source], _resolve_delta(csr, delta))
        if with_order:
            dist_out, order, _, _ = _finalise_np(csr, source, row)
            return dist_out, order.tolist()
        dist_out = row.copy()
        dist_out[_np.isinf(row)] = -1.0
        return dist_out
    dist_inf = _py_delta_row(csr, source, _resolve_delta(csr, delta))
    if with_order:
        dist_out, order, _, _ = _finalise_py(csr, source, dist_inf)
        return dist_out, order
    return [-1.0 if value == _INF else value for value in dist_inf]


def csr_delta_dag(
    csr,
    source: int,
    *,
    float_sigma: bool = False,
    delta: Optional[float] = None,
    _dist_row=None,
):
    """Weighted shortest-path DAG via delta-stepping (== ``csr_dijkstra_dag``).

    ``_dist_row`` lets batched sweeps hand in a slot of an already-computed
    flat distance array (inf-sentinel form) so the distance phase is run
    once per batch rather than once per source.
    """
    if _csr.HAS_NUMPY:
        row = _dist_row
        if row is None:
            row = _np_delta_sweep(csr, [source], _resolve_delta(csr, delta))
        dist_out, order, pred_indptr, pred_indices = _finalise_np(
            csr, source, row
        )
    else:
        dist_inf = _dist_row
        if dist_inf is None:
            dist_inf = _py_delta_row(csr, source, _resolve_delta(csr, delta))
        dist_out, order, pred_indptr, pred_indices = _finalise_py(
            csr, source, dist_inf
        )
    sigma = _sigma_over_preds(
        source, order, pred_indptr, pred_indices, csr.n, float_sigma
    )
    return _csr.CSRShortestPathDAG(
        csr, source, dist_out, sigma, order, None, None,
        pred_indptr=pred_indptr, pred_indices=pred_indices, weighted=True,
    )


def csr_delta_brandes(
    csr, source: int, *, delta: Optional[float] = None, _dist_row=None
):
    """Weighted Brandes dependencies via delta-stepping (== ``csr_dijkstra_brandes``)."""
    dag = csr_delta_dag(
        csr, source, float_sigma=True, delta=delta, _dist_row=_dist_row
    )
    dependencies = _csr.weighted_backward_dependencies(dag)
    return dependencies, dag.order, dag.dist


def delta_sweep(
    csr,
    sources,
    *,
    kind: str,
    batch_size: Optional[int] = None,
    delta: Optional[float] = None,
) -> List[object]:
    """Batched weighted sweep: the delta analogue of the `_BatchSweep` driver.

    Stacks up to ``batch_size`` sources (default
    :func:`repro.graphs.csr.default_sweep_batch`) per distance phase;
    sigma/Brandes kinds then finalise each slot against its distance row.
    Results are bit-identical to the per-source Dijkstra loop in
    :func:`repro.graphs.csr.multi_source_sweep`.
    """
    value = _resolve_delta(csr, delta)
    results: List[object] = []
    source_list = list(sources)
    if not _csr.HAS_NUMPY:
        for source in source_list:
            dist_inf = _py_delta_row(csr, source, value)
            if kind == _csr.SWEEP_DISTANCE:
                results.append(
                    [-1.0 if v == _INF else v for v in dist_inf]
                )
            elif kind == _csr.SWEEP_SIGMA:
                dag = csr_delta_dag(csr, source, delta=value, _dist_row=dist_inf)
                results.append((dag.dist, dag.sigma))
            else:
                dependencies, _, _ = csr_delta_brandes(
                    csr, source, delta=value, _dist_row=dist_inf
                )
                results.append(dependencies)
        return results
    if batch_size is None:
        batch_size = _csr.default_sweep_batch(csr)
    n = csr.n
    for start in range(0, len(source_list), batch_size):
        roots = source_list[start : start + batch_size]
        flat = _np_delta_sweep(csr, roots, value)
        for slot, source in enumerate(roots):
            row = flat[slot * n : (slot + 1) * n]
            if kind == _csr.SWEEP_DISTANCE:
                out = row.copy()
                out[_np.isinf(row)] = -1.0
                results.append(out)
            elif kind == _csr.SWEEP_SIGMA:
                dag = csr_delta_dag(csr, source, delta=value, _dist_row=row)
                results.append((dag.dist, dag.sigma))
            else:
                dependencies, _, _ = csr_delta_brandes(
                    csr, source, delta=value, _dist_row=row
                )
                results.append(dependencies)
    return results
