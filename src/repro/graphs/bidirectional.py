"""Balanced bidirectional BFS with exact shortest-path counting.

This is the sample-generation workhorse used by KADABRA [Borassi & Natale,
ESA 2016] and by SaPHyRa_bc's ``Gen_bc``: growing BFS balls from both
endpoints and always expanding the cheaper frontier makes the expected work
``n^{1/2+o(1)}`` on graphs whose degree distribution has a finite second
moment (Lemma 21 in the paper), instead of ``Theta(m)`` for a full BFS.

Besides the distance we also recover, for a *cut level* ``L``:

* ``sigma_s(w)`` — number of shortest ``s -> w`` paths for every ``w`` with
  ``d_s(w) = L``;
* ``sigma_t(w)`` — number of shortest ``w -> t`` paths;

which is enough to compute ``sigma_st`` exactly and to sample a shortest
path uniformly at random (pick the cut node proportional to
``sigma_s * sigma_t``, then walk predecessor DAGs on both sides).

Two interchangeable backends implement the search (see
:mod:`repro.graphs.csr`): the dict reference over the hash-based adjacency,
and a CSR variant expanding whole levels over integer index arrays.  Both
produce identical results — including identical sampled paths from identical
seeds.

:func:`bidirectional_shortest_paths_batch` searches many pairs at once.
With numpy it stacks them into one per-slot
:class:`repro.graphs.csr._BatchSweep` holding a forward and a backward slot
per pair, so the thin frontiers of high-diameter graphs merge into one
vectorised frontier — the multi-source amortisation of Then et al. ("The
More the Merrier", PVLDB 2014) applied to the balanced search.  Every pair
still expands its own cheaper side and has its own meeting and stop test,
so it returns exactly what the per-pair search returns.

The search is defined on *hop* distances: its balanced level expansion is a
unit-weight optimisation.  Weighted workloads sample shortest paths from
the Dijkstra source DAGs of the unified SSSP engine instead (see
:mod:`repro.graphs.sssp` and the weighted path in
:mod:`repro.baselines.kadabra`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import GraphError, SamplingError
from repro.graphs import csr as _csr
from repro.graphs.csr import sigma_choice
from repro.graphs.graph import Graph
from repro.utils.rng import SeedLike, ensure_rng

if _csr.HAS_NUMPY:
    import numpy as _np

Node = Hashable

#: ``auto`` backend cutoff for the bidirectional search.  One query touches
#: only ~``n^{1/2+o(1)}`` edges but the CSR variant allocates O(n) state
#: arrays per query, so the array kernels need a much larger graph to pay
#: off than a full-graph BFS does.
AUTO_CSR_BIDIRECTIONAL_THRESHOLD = 16384

#: Flat-slot budget of one stacked search (two slots of ``n`` ids per row,
#: 16 bytes of state per id): about 1.75 MB, i.e. 81 rows on a 707-node
#: road block and 16 on a 3.4k-node social block.  A stack pays a few
#: dozen numpy calls per level whatever its width, so wider stacks cost
#: less per pair, down to a floor.  Measured on a 2-vCPU host (search
#: only, 2,048 pairs): the road block took 188 -> 134 -> 105 µs per pair
#: at 32 -> 64 -> 128 rows, the social block 137 -> 95 -> 74 µs at
#: 6 -> 16 -> 32 rows and no less past 64 rows.  The cap is set by
#: memory, not speed: whole ``rank`` queries ran as fast at 112k slots as
#: at 160k, and 160k raised the peak resident set by about 7%.  Longer
#: pair lists run in equal successive sub-batches, which never changes
#: results.
_STACKED_SLOTS = 112 * 1024

#: ``auto`` runs fewer pairs than this one at a time: a stacked search pays
#: a few dozen numpy calls per level, which only a full batch amortises.
_STACKED_MIN_ROWS = 8

#: Best-meeting placeholder of a row whose sides have not met yet.
_NO_MEETING = 2**62


@dataclass
class BidirectionalBFSResult:
    """Outcome of a balanced bidirectional BFS between ``source`` and ``target``.

    Attributes
    ----------
    source, target:
        Endpoints of the query.
    distance:
        Hop distance, or ``None`` if the endpoints are disconnected.
    num_shortest_paths:
        ``sigma_{st}``; 0 when disconnected.
    cut_level:
        The forward distance ``L`` at which paths are counted/stitched.
    cut_nodes:
        Nodes ``w`` with ``d_s(w) = L`` and ``d_t(w) = distance - L`` lying on
        at least one shortest path, with their ``(sigma_s(w), sigma_t(w))``.
    visited_edges:
        Number of adjacency entries scanned — the cost measure used when
        comparing against a full BFS.
    """

    source: Node
    target: Node
    distance: Optional[int]
    num_shortest_paths: int
    cut_level: int = 0
    cut_nodes: Dict[Node, tuple] = field(default_factory=dict)
    visited_edges: int = 0
    _forward: Optional[object] = None
    _backward: Optional[object] = None

    @property
    def connected(self) -> bool:
        """``True`` when a path between the endpoints exists."""
        return self.distance is not None

    def sample_path(self, rng: SeedLike = None) -> List[Node]:
        """Sample a shortest path uniformly at random as ``[source, ..., target]``.

        Raises
        ------
        SamplingError
            If the endpoints are disconnected.
        """
        if not self.connected or self._forward is None or self._backward is None:
            raise SamplingError(
                f"no path between {self.source!r} and {self.target!r}"
            )
        rng = ensure_rng(rng)
        # Pick the cut node proportional to the number of paths through it.
        nodes = list(self.cut_nodes)
        weights = [
            self.cut_nodes[w][0] * self.cut_nodes[w][1] for w in nodes
        ]
        middle = sigma_choice(nodes, weights, rng)
        first_half = self._forward.sample_path_to(middle, rng)
        second_half = self._backward.sample_path_to(middle, rng)
        second_half.reverse()
        return first_half + second_half[1:]


class _SearchSide:
    """One direction of the bidirectional search (complete BFS levels)."""

    __slots__ = ("root", "dist", "sigma", "preds", "frontier", "level", "cost")

    def __init__(self, graph: Graph, root: Node) -> None:
        self.root = root
        self.dist: Dict[Node, int] = {root: 0}
        self.sigma: Dict[Node, int] = {root: 1}
        self.preds: Dict[Node, List[Node]] = {root: []}
        self.frontier: List[Node] = [root]
        self.level: int = 0
        #: Total degree of the frontier — the cost of expanding one level,
        #: computed once per expansion rather than once per side choice.
        self.cost: int = graph.degree(root)

    def expand(self, graph: Graph) -> int:
        """Expand one complete BFS level; return the number of scanned entries."""
        # repro-lint: disable=kernel-ownership — audited: KADABRA's dict-backend balanced search needs per-level predecessor bookkeeping _BatchSweep doesn't expose; equivalence is pinned by test_bidirectional
        next_frontier: List[Node] = []
        next_level = self.level + 1
        scanned = 0
        for node in self.frontier:
            for neighbor in graph.neighbors(node):
                scanned += 1
                known = self.dist.get(neighbor)
                if known is None:
                    self.dist[neighbor] = next_level
                    self.sigma[neighbor] = self.sigma[node]
                    self.preds[neighbor] = [node]
                    next_frontier.append(neighbor)
                elif known == next_level:
                    self.sigma[neighbor] += self.sigma[node]
                    self.preds[neighbor].append(node)
        self.frontier = next_frontier
        self.level = next_level
        self.cost = sum(map(graph.degree, next_frontier))
        return scanned

    def sample_path_to(self, node: Node, rng) -> List[Node]:
        """Sample a shortest path from ``root`` to ``node`` uniformly;
        returned as ``[root, ..., node]``."""
        path = [node]
        current = node
        while current != self.root:
            preds = self.preds[current]
            weights = [self.sigma[p] for p in preds]
            current = sigma_choice(preds, weights, rng)
            path.append(current)
        path.reverse()
        return path


class _CSRSearchSide:
    """Index-space search side: level-synchronous expansion over CSR arrays.

    The expansion itself is the shared hybrid kernel
    :class:`repro.graphs.csr._BatchSweep` (single-slot), so the
    vectorised/sequential strategy choice and the sigma overflow guard exist
    in exactly one place; this class only adds the bidirectional bookkeeping
    (predecessor reconstruction and path sampling back to the root).
    """

    __slots__ = ("csr", "root", "sweep", "cost", "_pred_groups")

    def __init__(self, csr, root: int) -> None:
        self.csr = csr
        self.root = root
        # repro-lint: disable=kernel-ownership — audited: this *is* the sanctioned reuse — a single-slot handle on the shared kernel instead of a private loop
        self.sweep = _csr._BatchSweep(
            csr, (root,), sigma_mode="int", track_edges=True
        )
        #: Total frontier degree, carried forward from the last expansion.
        self.cost: int = self.sweep.frontier_cost()
        # Lazily built per-level ``{head: [tails]}`` groupings, so repeated
        # path sampling pays one scan of a level's edge list, not one per
        # visited node.
        self._pred_groups: Dict[int, Dict[int, List[int]]] = {}

    @property
    def has_frontier(self) -> bool:
        return self.sweep.has_frontier

    @property
    def frontier(self):
        return self.sweep.frontier

    @property
    def level(self) -> int:
        return self.sweep.depth

    @property
    def levels(self):
        return self.sweep.levels

    @property
    def dist(self):
        # The element-indexable container (``array`` buffer or plain list).
        return self.sweep.dist_store

    @property
    def sigma(self):
        return self.sweep.sigma

    def expand(self) -> int:
        """Expand one complete BFS level; return the number of scanned entries."""
        scanned = self.sweep.expand(self.cost)
        self.cost = self.sweep.frontier_cost()
        return scanned

    def preds_of(self, node: int) -> List[int]:
        """Predecessor indices of ``node`` in the dict backend's append order."""
        level = self.sweep.dist_store[node]
        if level <= 0 or level > len(self.sweep.level_edges):
            return []
        edge_u, edge_v = self.sweep.level_edges[level - 1]
        if _csr.HAS_NUMPY:
            # One vectorised scan per query; a path visits each level once.
            return edge_u[edge_v == node].tolist()
        # Pure Python: group the level's edges by head once and reuse, so a
        # query costs O(deg) instead of rescanning the whole level.
        groups = self._pred_groups.get(level)
        if groups is None:
            groups = {}
            for tail, head in zip(edge_u, edge_v):
                groups.setdefault(head, []).append(tail)
            self._pred_groups[level] = groups
        return groups.get(node, [])

    def sample_path_to(self, node_index: int, rng) -> List[int]:
        """Sample a shortest path ``root -> node`` as an index list."""
        path = [node_index]
        current = node_index
        while current != self.root:
            preds = self.preds_of(current)
            weights = [int(self.sigma[p]) for p in preds]
            current = sigma_choice(preds, weights, rng)
            path.append(current)
        path.reverse()
        return path


class _CSRSideView:
    """Label-facing adapter so ``BidirectionalBFSResult.sample_path`` can walk
    a CSR search side exactly like a dict one."""

    __slots__ = ("side", "csr")

    def __init__(self, side: _CSRSearchSide, csr) -> None:
        self.side = side
        self.csr = csr

    def sample_path_to(self, node: Node, rng) -> List[Node]:
        labels = self.csr.labels
        path = self.side.sample_path_to(self.csr.index[node], rng)
        return [labels[index] for index in path]


def bidirectional_shortest_paths(
    graph: Graph, source: Node, target: Node, *, backend: Optional[str] = None
) -> BidirectionalBFSResult:
    """Run a balanced bidirectional BFS between ``source`` and ``target``.

    Both BFS trees are expanded level-by-level, always growing the side whose
    frontier has the smaller total degree.  The search stops as soon as the
    best meeting distance can no longer be improved, i.e. when
    ``best <= level_s + level_t``.

    Raises
    ------
    GraphError
        If either endpoint does not exist or ``source == target``.
    """
    _check_pair(graph, source, target)
    return _per_pair_search(graph, backend)(graph, source, target)


def bidirectional_shortest_paths_batch(
    graph: Graph,
    pairs: Sequence[Tuple[Node, Node]],
    *,
    backend: Optional[str] = None,
) -> Iterator[BidirectionalBFSResult]:
    """Search every ``(source, target)`` pair; yield the results in order.

    Each result equals what :func:`bidirectional_shortest_paths` returns
    for its pair — distance, ``sigma_st``, cut level, cut nodes, visited
    edges — and samples the same paths from the same RNG state.  With
    numpy and the CSR backend (explicit, or ``auto`` on graphs of at least
    ``AUTO_CSR_THRESHOLD`` nodes + edges with at least
    ``_STACKED_MIN_ROWS`` pairs and room for two per sub-batch) the pairs
    run stacked, in equal sub-batches of at most
    ``_STACKED_SLOTS // (2 n)`` pairs (a 707-node road block stacks 81);
    otherwise they run one at a time, and an empty list yields nothing.
    The pairs may come from several callers' draws at once (Gen_bc
    passes every row of a chunk group): results depend on each pair
    only.  Searches run lazily as results are consumed and draw no
    random numbers, so interleaving path sampling with the iteration is
    safe.

    Raises
    ------
    GraphError
        If an endpoint does not exist or a pair repeats a node (checked
        for every pair before any search runs).
    """
    pairs = list(pairs)
    for source, target in pairs:
        _check_pair(graph, source, target)
    if pairs and _runs_stacked(graph, backend, len(pairs)):
        return _stacked_searches(_csr.as_csr(graph), pairs)
    search = _per_pair_search(graph, backend)
    return (search(graph, source, target) for source, target in pairs)


def searches_run_on_csr(n: int, m: int, backend: Optional[str] = None) -> bool:
    """Whether every search of an ``n``-node, ``m``-edge graph, per pair or
    stacked, runs on the CSR kernels (numpy present, and the ``csr``
    backend or ``auto`` on a graph of at least
    ``AUTO_CSR_BIDIRECTIONAL_THRESHOLD`` nodes + edges).  A CSR snapshot of
    such a graph can then be searched in its place with identical results.
    """
    if not _csr.HAS_NUMPY:
        return False
    resolved = _csr.resolve_backend(backend)
    return resolved == _csr.CSR_BACKEND or (
        resolved == _csr.AUTO_BACKEND and n + m >= AUTO_CSR_BIDIRECTIONAL_THRESHOLD
    )


def _runs_stacked(graph: Graph, backend: Optional[str], rows: int) -> bool:
    """Whether a batch of ``rows`` pairs takes the stacked kernel."""
    if not _csr.HAS_NUMPY:
        return False
    # ``auto`` stacks only full enough batches: one stacked pair pays more
    # bookkeeping per level than the per-pair CSR search.
    if _csr.resolve_backend(backend) == _csr.AUTO_BACKEND and (
        rows < _STACKED_MIN_ROWS or _stack_capacity(graph.number_of_nodes()) < 2
    ):
        return False
    choice = _csr.effective_backend(
        graph, backend, auto_threshold=_csr.AUTO_CSR_THRESHOLD
    )
    return choice == _csr.CSR_BACKEND


def _stack_capacity(n: int) -> int:
    """Pairs per stacked sub-batch on an ``n``-node graph."""
    return max(1, _STACKED_SLOTS // (2 * max(1, n)))


def _check_pair(graph: Graph, source: Node, target: Node) -> None:
    if not graph.has_node(source):
        raise GraphError(f"source node {source!r} does not exist")
    if not graph.has_node(target):
        raise GraphError(f"target node {target!r} does not exist")
    if source == target:
        raise GraphError("source and target must be distinct")


def _per_pair_search(graph: Graph, backend: Optional[str]):
    choice = _csr.effective_backend(
        graph, backend, auto_threshold=AUTO_CSR_BIDIRECTIONAL_THRESHOLD
    )
    if choice == _csr.CSR_BACKEND:
        return _bidirectional_csr
    return _bidirectional_dict


def _bidirectional_dict(
    graph: Graph, source: Node, target: Node
) -> BidirectionalBFSResult:
    forward = _SearchSide(graph, source)
    backward = _SearchSide(graph, target)
    visited_edges = 0
    best = None  # best known meeting distance

    while True:
        level_sum = forward.level + backward.level
        if best is not None and best <= level_sum:
            break
        # Choose the cheaper side that still has a frontier to expand.
        side: Optional[_SearchSide]
        if forward.frontier and backward.frontier:
            if forward.cost <= backward.cost:
                side = forward
            else:
                side = backward
        elif forward.frontier:
            side = forward
        elif backward.frontier:
            side = backward
        else:
            side = None
        if side is None:
            # Both searches exhausted without meeting: disconnected.
            if best is None:
                return BidirectionalBFSResult(
                    source=source,
                    target=target,
                    distance=None,
                    num_shortest_paths=0,
                    visited_edges=visited_edges,
                )
            break
        other = backward if side is forward else forward
        visited_edges += side.expand(graph)
        for node in side.frontier:
            other_dist = other.dist.get(node)
            if other_dist is not None:
                candidate = side.level + other_dist
                if best is None or candidate < best:
                    best = candidate

    distance = best
    if distance is None:  # pragma: no cover - defensive; handled above
        return BidirectionalBFSResult(
            source=source,
            target=target,
            distance=None,
            num_shortest_paths=0,
            visited_edges=visited_edges,
        )

    # Choose a cut level L such that forward levels <= L and backward levels
    # <= distance - L are both fully expanded, then stitch counts at the cut.
    cut_level = max(0, distance - backward.level)
    cut_level = min(cut_level, forward.level)
    cut_nodes: Dict[Node, tuple] = {}
    sigma_total = 0
    for node, d_forward in forward.dist.items():
        if d_forward != cut_level:
            continue
        d_backward = backward.dist.get(node)
        if d_backward is None or d_forward + d_backward != distance:
            continue
        pair = (forward.sigma[node], backward.sigma[node])
        cut_nodes[node] = pair
        sigma_total += pair[0] * pair[1]

    return BidirectionalBFSResult(
        source=source,
        target=target,
        distance=distance,
        num_shortest_paths=sigma_total,
        cut_level=cut_level,
        cut_nodes=cut_nodes,
        visited_edges=visited_edges,
        _forward=forward,
        _backward=backward,
    )


def _bidirectional_csr(
    graph: Graph, source: Node, target: Node
) -> BidirectionalBFSResult:
    snapshot = _csr.as_csr(graph)
    forward = _CSRSearchSide(snapshot, snapshot.index[source])
    backward = _CSRSearchSide(snapshot, snapshot.index[target])
    visited_edges = 0
    best = None

    while True:
        level_sum = forward.level + backward.level
        if best is not None and best <= level_sum:
            break
        side: Optional[_CSRSearchSide]
        if forward.has_frontier and backward.has_frontier:
            side = forward if forward.cost <= backward.cost else backward
        elif forward.has_frontier:
            side = forward
        elif backward.has_frontier:
            side = backward
        else:
            side = None
        if side is None:
            if best is None:
                return BidirectionalBFSResult(
                    source=source,
                    target=target,
                    distance=None,
                    num_shortest_paths=0,
                    visited_edges=visited_edges,
                )
            break
        other = backward if side is forward else forward
        visited_edges += side.expand()
        best = _best_meeting(side, other, best)

    distance = best
    if distance is None:  # pragma: no cover - defensive; handled above
        return BidirectionalBFSResult(
            source=source,
            target=target,
            distance=None,
            num_shortest_paths=0,
            visited_edges=visited_edges,
        )

    cut_level = max(0, distance - backward.level)
    cut_level = min(cut_level, forward.level)
    labels = snapshot.labels
    cut_nodes: Dict[Node, tuple] = {}
    sigma_total = 0
    candidates = (
        forward.levels[cut_level] if cut_level < len(forward.levels) else ()
    )
    for node in candidates:
        d_backward = int(backward.dist[node])
        if d_backward < 0 or cut_level + d_backward != distance:
            continue
        pair = (int(forward.sigma[node]), int(backward.sigma[node]))
        cut_nodes[labels[node]] = pair
        sigma_total += pair[0] * pair[1]

    return BidirectionalBFSResult(
        source=source,
        target=target,
        distance=distance,
        num_shortest_paths=sigma_total,
        cut_level=cut_level,
        cut_nodes=cut_nodes,
        visited_edges=visited_edges,
        _forward=_CSRSideView(forward, snapshot),
        _backward=_CSRSideView(backward, snapshot),
    )


def _best_meeting(side: _CSRSearchSide, other: _CSRSearchSide, best):
    """Update the best meeting distance after ``side`` expanded one level."""
    frontier = side.frontier
    if len(frontier) == 0:
        return best
    if _csr.HAS_NUMPY and len(frontier) >= 64:
        other_dist = other.sweep.dist[_np.asarray(frontier, dtype=_np.int64)]
        reached = other_dist >= 0
        if reached.any():
            candidate = side.level + int(other_dist[reached].min())
            if best is None or candidate < best:
                best = candidate
        return best
    other_distances = other.dist
    for node in frontier:
        other_dist = other_distances[node]
        if other_dist >= 0:
            candidate = side.level + other_dist
            if best is None or candidate < best:
                best = candidate
    return best


# ---------------------------------------------------------------------------
# Stacked search: K pairs as the rows of one per-slot sweep with 2K slots
# ---------------------------------------------------------------------------
def _stacked_searches(snapshot, pairs) -> Iterator[BidirectionalBFSResult]:
    # Equal sub-batches: a level costs about the same for few rows as for
    # many, and every sub-batch runs as many levels as its longest row.
    # Each sub-batch is searched only once the previous one's results have
    # all been handed out.
    batches = -(-len(pairs) // _stack_capacity(snapshot.n))
    rows = -(-len(pairs) // max(1, batches))
    for start in range(0, len(pairs), rows):
        yield from _stacked_search(snapshot, pairs[start : start + rows])


def _stacked_search(snapshot, pairs) -> List[BidirectionalBFSResult]:
    """Run ``len(pairs)`` balanced searches as the rows of one stacked sweep.

    With ``K`` pairs the sweep has ``2K`` slots: slot ``k`` is row ``k``'s
    forward search (rooted at its source), slot ``K + k`` its backward
    search (rooted at its target), so one kernel call per level expands
    both directions of every row.  Per level each live row expands only
    its cheaper side (total degree carried forward from that side's last
    expansion), updates its own best meeting distance and stops once
    ``best <= level_f + level_b`` — the per-pair loop, row by row.
    """
    n = snapshot.n
    rows = len(pairs)
    index = snapshot.index
    # repro-lint: disable=kernel-ownership — audited: the stacked search drives the shared kernel through its per-slot mask instead of a private loop
    sweep = _csr._BatchSweep(
        snapshot,
        [index[source] for source, _ in pairs]
        + [index[target] for _, target in pairs],
        sigma_mode="int",
        per_slot=True,
    )
    depth, count, cost = sweep.slot_depth, sweep.slot_count, sweep.slot_cost
    half = rows * n  # flat offset from a forward id to its backward twin
    best = _np.full(rows, _NO_MEETING, dtype=_np.int64)
    scanned = _np.zeros(2 * rows, dtype=_np.int64)
    live = _np.ones(rows, dtype=bool)
    while True:
        live &= best > depth[:rows] + depth[rows:]
        forward_open = count[:rows] > 0
        backward_open = count[rows:] > 0
        live &= forward_open | backward_open
        if not live.any():
            break
        go_forward = live & forward_open & ~(
            backward_open & (cost[:rows] > cost[rows:])
        )
        active = _np.concatenate((go_forward, live & ~go_forward))
        costs = _np.where(active, cost, 0)
        scanned += costs
        sweep.expand(int(costs.sum()), active=active)
        fresh = sweep.levels[-1]
        twin_dist = sweep.dist[(fresh + half) % (2 * half)]
        met = twin_dist >= 0
        if met.any():
            slots = fresh[met] // n
            for row, candidate in zip(
                (slots % rows).tolist(), (depth[slots] + twin_dist[met]).tolist()
            ):
                if candidate < best[row]:
                    best[row] = candidate
    return _row_results(sweep, pairs, best, (scanned[:rows] + scanned[rows:]).tolist())


def _row_results(sweep, pairs, best, visited) -> List[BidirectionalBFSResult]:
    """Per-row results of a finished stacked search (see :func:`_stacked_search`)."""
    rows = len(pairs)
    n = sweep.n
    half = rows * n
    depth = sweep.slot_depth
    dist = sweep.dist.reshape(2 * rows, n)
    # Cut nodes: forward depth ``cut``, backward depth ``best - cut``, in
    # forward discovery order (the rank within their level).
    cut_levels = _np.minimum(_np.maximum(best - depth[rows:], 0), depth[:rows])
    on_cut = (dist[:rows] == cut_levels[:, None]) & (
        dist[rows:] == (best - cut_levels)[:, None]
    )
    flat = _np.flatnonzero(on_cut)
    flat_rows = flat // n
    # Ranks are below ``sweep.size``, so the row-major keys are unique.
    flat = flat[_np.argsort(flat_rows * sweep.size + sweep.scratch[flat])]
    ends = _np.cumsum(_np.bincount(flat_rows, minlength=rows)).tolist()
    sigma = sweep.sigma
    if sweep.sigma_view is not None:
        forward_sigma = sweep.sigma_view[flat].tolist()
        backward_sigma = sweep.sigma_view[flat + half].tolist()
    else:
        forward_sigma = [sigma[v] for v in flat.tolist()]
        backward_sigma = [sigma[v + half] for v in flat.tolist()]
    labels = sweep.csr.labels
    nodes = (flat % n).tolist()
    results = []
    start = 0
    for row, (source, target) in enumerate(pairs):
        stop = ends[row]
        if best[row] == _NO_MEETING:
            results.append(BidirectionalBFSResult(
                source=source, target=target, distance=None,
                num_shortest_paths=0, visited_edges=visited[row],
            ))
            continue
        cut_nodes: Dict[Node, tuple] = {}
        sigma_total = 0
        for position in range(start, stop):
            pair = (forward_sigma[position], backward_sigma[position])
            cut_nodes[labels[nodes[position]]] = pair
            sigma_total += pair[0] * pair[1]
        start = stop
        results.append(BidirectionalBFSResult(
            source=source, target=target, distance=int(best[row]),
            num_shortest_paths=sigma_total, cut_level=int(cut_levels[row]),
            cut_nodes=cut_nodes, visited_edges=visited[row],
            _forward=_StackedSideView(sweep, row),
            _backward=_StackedSideView(sweep, rows + row),
        ))
    return results


class _StackedSideView:
    """Path-sampling view of one slot of a stacked search (the label-facing
    counterpart of :class:`_CSRSideView`).

    A node's predecessors are its neighbours one level up, in the order
    they were discovered (the dict backend's append order), so the walk
    needs no predecessor lists: one adjacency slice, a distance test and,
    for several predecessors, a sort by the per-slot sweep's discovery
    rank.
    """

    __slots__ = ("sweep", "slot")

    def __init__(self, sweep, slot: int) -> None:
        self.sweep = sweep
        self.slot = slot

    def sample_path_to(self, node: Node, rng) -> List[Node]:
        sweep = self.sweep
        csr = sweep.csr
        indptr, indices = csr.adjacency_lists()
        dist, sigma, rank = sweep.dist_store, sweep.sigma, sweep.scratch
        base = self.slot * sweep.n
        local = csr.index[node]
        up = dist[base + local]
        path = [local]
        while up:
            up -= 1
            preds = [
                base + neighbor
                for neighbor in indices[indptr[local] : indptr[local + 1]]
                if dist[base + neighbor] == up
            ]
            if len(preds) > 1:
                preds.sort(key=rank.item)
            local = sigma_choice(preds, [sigma[flat] for flat in preds], rng) - base
            path.append(local)
        labels = csr.labels
        return [labels[local] for local in reversed(path)]
