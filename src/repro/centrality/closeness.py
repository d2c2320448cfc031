"""Closeness centrality (exact, BFS per node).

Included because the paper's conclusion lists closeness as the next
centrality the SaPHyRa framework should be extended to; the exact values let
examples and tests compare rankings across measures.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro import parallel as _parallel
from repro.engine.driver import sweep_sources
from repro.graphs import csr as _csr
from repro.graphs import sssp as _sssp
from repro.graphs.graph import Graph
from repro.graphs.traversal import bfs_distances, sssp_distances

Node = Hashable


def _distance_stats_chunk(payload, chunk: Sequence[Node]) -> List[Tuple[int, float]]:
    """Worker task: ``(reachable, total distance)`` per node of ``chunk``.

    The per-node statistics are already the fully-reduced form of one sweep
    (two numbers per source), so the chunk partial is simply their list —
    nothing bulkier ever crosses the process boundary.  CSR backend: one
    batched multi-source distance sweep per chunk (thin road-network
    frontiers from the whole chunk merge into one fat one), with the
    snapshot arriving as a snapshot file (the worker handoff).
    Weighted sweeps run the Dijkstra engine; their float distance totals
    are summed in node-index order under *both* backends (the CSR row
    order equals the graph's insertion order), so dict/csr/worker results
    stay bit-identical.
    """
    graph, backend, use_weights = payload
    graph = _parallel.resolve_payload_graph(graph)
    if backend == _csr.CSR_BACKEND:
        snapshot = _csr.as_csr(graph)
        indices = [snapshot.index_of(node) for node in chunk]
        return [
            _csr.distance_stats_from_row(dist)
            for dist in _csr.multi_source_sweep(
                snapshot, indices, kind=_csr.SWEEP_DISTANCE,
                weighted=use_weights,
            )
        ]
    results: List[Tuple[int, float]] = []
    if use_weights:
        node_order = list(graph.nodes())
        for node in chunk:
            distances = sssp_distances(
                graph, node, backend=_csr.DICT_BACKEND,
                weighted=_sssp.WEIGHTED_ON,
            )
            # Sum in insertion (== CSR index) order, not settle order, so
            # the float total matches the CSR row sum bit for bit.
            total = sum(
                distances[other] for other in node_order if other in distances
            )
            results.append((len(distances), total))
        return results
    for node in chunk:
        distances = bfs_distances(graph, node, backend=_csr.DICT_BACKEND)
        results.append((len(distances), sum(distances.values())))
    return results


def closeness_centrality(
    graph: Graph,
    nodes: Optional[Iterable[Node]] = None,
    *,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    weighted: Optional[str] = None,
) -> Dict[Node, float]:
    """Harmonic-free classic closeness ``(r - 1) / sum of distances`` scaled by
    the reachable fraction ``(r - 1) / (n - 1)`` (Wasserman–Faust), which
    handles disconnected graphs gracefully.

    Parameters
    ----------
    nodes:
        Restrict the computation to these nodes (defaults to all nodes).
    backend:
        Traversal backend; the CSR path runs batched multi-source sweeps and
        sums distances straight off the distance rows without materialising
        per-node dicts.
    workers:
        Worker processes for the per-node sweep loop (``None`` resolves via
        ``REPRO_WORKERS``).  The per-node statistics fold is a pure
        function of the fixed chunk layout, so any worker count returns
        bit-identical results.
    weighted:
        SSSP engine selection (``None``/``"auto"``/``"on"``/``"off"``; see
        :mod:`repro.graphs.sssp`).  Weighted closeness sums weight-minimal
        path lengths instead of hop counts; unit-weight graphs under
        ``"auto"`` take the exact historical BFS paths.
    """
    n = graph.number_of_nodes()
    selected = list(nodes) if nodes is not None else list(graph.nodes())
    choice = _csr.effective_backend(graph, backend)
    use_weights = _sssp.effective_weighted(graph, weighted)
    result: Dict[Node, float] = {}

    def fold(chunk, stats) -> None:
        for node, (reachable, total) in zip(chunk, stats):
            result[node] = _closeness_value(n, reachable, total)

    sweep_sources(
        _distance_stats_chunk, selected, fold,
        payload=(_parallel.shareable_graph(graph, choice), choice, use_weights),
        workers=workers,
    )
    return result


def _closeness_value(n: int, reachable: int, total: float) -> float:
    """Wasserman–Faust closeness from the sweep statistics (hops or lengths)."""
    if total > 0 and n > 1 and reachable > 1:
        closeness = (reachable - 1) / total
        closeness *= (reachable - 1) / (n - 1)
        return closeness
    return 0.0
