"""Tests for the balanced bidirectional BFS."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError, SamplingError
from repro.graphs import bidirectional
from repro.graphs import csr as csr_module
from repro.graphs.bidirectional import (
    bidirectional_shortest_paths,
    bidirectional_shortest_paths_batch,
)
from repro.graphs.generators import (
    barabasi_albert_graph,
    cycle_graph,
    erdos_renyi_graph,
    grid_road_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.traversal import shortest_path_dag


class TestDistanceAndCounts:
    def test_adjacent_nodes(self, karate):
        result = bidirectional_shortest_paths(karate, 0, 1)
        assert result.distance == 1
        assert result.num_shortest_paths == 1

    def test_cycle_antipodal(self):
        graph = cycle_graph(8)
        result = bidirectional_shortest_paths(graph, 0, 4)
        assert result.distance == 4
        assert result.num_shortest_paths == 2

    def test_square_two_paths(self):
        graph = Graph.from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
        result = bidirectional_shortest_paths(graph, 0, 3)
        assert result.distance == 2
        assert result.num_shortest_paths == 2

    def test_disconnected(self):
        graph = Graph.from_edges([(0, 1), (2, 3)])
        result = bidirectional_shortest_paths(graph, 0, 3)
        assert result.distance is None
        assert not result.connected
        assert result.num_shortest_paths == 0

    def test_same_node_rejected(self, karate):
        with pytest.raises(GraphError):
            bidirectional_shortest_paths(karate, 0, 0)

    def test_missing_node_rejected(self, karate):
        with pytest.raises(GraphError):
            bidirectional_shortest_paths(karate, 0, 999)

    def test_matches_unidirectional_on_karate(self, karate):
        rng = random.Random(0)
        nodes = list(karate.nodes())
        for _ in range(30):
            source, target = rng.sample(nodes, 2)
            dag = shortest_path_dag(karate, source)
            result = bidirectional_shortest_paths(karate, source, target)
            assert result.distance == dag.distances[target]
            assert result.num_shortest_paths == dag.sigma[target]


class TestPathSampling:
    def test_sampled_path_is_valid(self, karate):
        rng = random.Random(5)
        nodes = list(karate.nodes())
        for _ in range(20):
            source, target = rng.sample(nodes, 2)
            result = bidirectional_shortest_paths(karate, source, target)
            path = result.sample_path(rng)
            assert path[0] == source and path[-1] == target
            assert len(path) - 1 == result.distance
            for u, v in zip(path, path[1:]):
                assert karate.has_edge(u, v)
            assert len(set(path)) == len(path)

    def test_sampling_disconnected_raises(self):
        graph = Graph.from_edges([(0, 1), (2, 3)])
        result = bidirectional_shortest_paths(graph, 0, 3)
        with pytest.raises(SamplingError):
            result.sample_path()

    def test_uniform_over_parallel_paths(self):
        # 0 - {1,2,3} - 4 : three shortest paths of length 2.
        graph = Graph.from_edges(
            [(0, 1), (1, 4), (0, 2), (2, 4), (0, 3), (3, 4)]
        )
        rng = random.Random(11)
        counts = Counter()
        for _ in range(600):
            result = bidirectional_shortest_paths(graph, 0, 4)
            counts[result.sample_path(rng)[1]] += 1
        for middle in (1, 2, 3):
            assert 130 < counts[middle] < 270

    def test_uniform_over_longer_paths(self):
        # Two disjoint length-3 paths between 0 and 5.
        graph = Graph.from_edges(
            [(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5)]
        )
        rng = random.Random(13)
        counts = Counter()
        for _ in range(400):
            result = bidirectional_shortest_paths(graph, 0, 5)
            counts[tuple(result.sample_path(rng))] += 1
        assert set(counts) == {(0, 1, 2, 5), (0, 3, 4, 5)}
        assert 120 < counts[(0, 1, 2, 5)] < 280


class TestAgainstBruteForce:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_graphs_match_unidirectional(self, seed):
        rng = random.Random(seed)
        graph = erdos_renyi_graph(rng.randint(5, 25), 0.25, seed=rng.randint(0, 999))
        nodes = list(graph.nodes())
        source, target = rng.sample(nodes, 2)
        dag = shortest_path_dag(graph, source)
        result = bidirectional_shortest_paths(graph, source, target)
        if target in dag.distances:
            assert result.distance == dag.distances[target]
            assert result.num_shortest_paths == dag.sigma[target]
        else:
            assert result.distance is None


def _same_search(reference, candidate) -> None:
    assert candidate.distance == reference.distance
    assert candidate.num_shortest_paths == reference.num_shortest_paths
    assert candidate.cut_level == reference.cut_level
    # Dict equality ignores order; the order drives the cut-node choice.
    assert list(candidate.cut_nodes.items()) == list(reference.cut_nodes.items())
    assert candidate.visited_edges == reference.visited_edges


BATCH_GRAPHS = [
    pytest.param(lambda: grid_road_graph(14, 15, seed=4)[0], id="grid-road"),
    pytest.param(lambda: barabasi_albert_graph(150, 3, seed=2), id="barabasi-albert"),
    # Sparse enough to leave some pairs disconnected.
    pytest.param(lambda: erdos_renyi_graph(120, 0.015, seed=5), id="erdos-renyi"),
]


class TestBatchedSearch:
    """``bidirectional_shortest_paths_batch`` returns, row by row, exactly
    what the per-pair search returns — whichever backend runs it and however
    the rows are cut into stacked sub-batches."""

    def _pairs(self, graph, count, seed):
        rng = random.Random(seed)
        nodes = list(graph.nodes())
        return [tuple(rng.sample(nodes, 2)) for _ in range(count)]

    def _check(self, graph, pairs, backend):
        references = [
            bidirectional_shortest_paths(graph, s, t, backend="dict")
            for s, t in pairs
        ]
        candidates = list(
            bidirectional_shortest_paths_batch(graph, pairs, backend=backend)
        )
        assert len(candidates) == len(references)
        for reference, candidate in zip(references, candidates):
            _same_search(reference, candidate)
            if reference.connected:
                for draw in range(2):
                    assert candidate.sample_path(random.Random(draw)) == (
                        reference.sample_path(random.Random(draw))
                    )
        return references

    @pytest.mark.parametrize("make_graph", BATCH_GRAPHS)
    @pytest.mark.parametrize("backend", ["dict", "csr", None])
    def test_rows_match_per_pair_search(self, make_graph, backend):
        graph = make_graph()
        references = self._check(graph, self._pairs(graph, 40, 1), backend)
        assert any(reference.distance and reference.distance > 2
                   for reference in references)

    def test_disconnected_rows(self):
        graph = erdos_renyi_graph(120, 0.015, seed=5)
        pairs = self._pairs(graph, 40, 1)
        references = self._check(graph, pairs, "csr")
        assert any(not reference.connected for reference in references)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_sub_batch_layout_never_changes_results(self, monkeypatch, rows):
        graph = grid_road_graph(14, 15, seed=4)[0]
        monkeypatch.setattr(
            bidirectional, "_STACKED_SLOTS", 2 * rows * graph.number_of_nodes()
        )
        self._check(graph, self._pairs(graph, 17, 2), "csr")

    def test_isolated_endpoints(self):
        graph = cycle_graph(6)
        graph.add_node("lonely")
        pairs = [("lonely", 0), (3, "lonely"), (0, 3), (1, 2)]
        references = self._check(graph, pairs, "csr")
        assert [reference.connected for reference in references] == [
            False, False, True, True,
        ]

    @given(st.integers(min_value=0, max_value=10_000), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_random_graphs_and_layouts(self, seed, rows):
        rng = random.Random(seed)
        graph = erdos_renyi_graph(rng.randint(4, 25), 0.2, seed=rng.randint(0, 999))
        nodes = list(graph.nodes())
        pairs = [tuple(rng.sample(nodes, 2)) for _ in range(rng.randint(1, 12))]
        original = bidirectional._STACKED_SLOTS
        bidirectional._STACKED_SLOTS = 2 * rows * len(nodes)
        try:
            self._check(graph, pairs, "csr")
        finally:
            bidirectional._STACKED_SLOTS = original

    def test_every_pair_checked_before_any_search(self, karate):
        for bad in ((0, 999), (5, 5)):
            with pytest.raises(GraphError):
                bidirectional_shortest_paths_batch(karate, [(0, 1), bad])

    @pytest.mark.parametrize(
        "backend", ["dict", "csr", None], ids=["dict", "csr", "auto"]
    )
    def test_empty_batch(self, karate, backend):
        batch = bidirectional_shortest_paths_batch(karate, [], backend=backend)
        assert list(batch) == []


class TestFrontierCostCarried:
    """The balanced search reads each side's frontier cost from its last
    expansion instead of rescanning both frontiers for every side choice."""

    def test_dict_search_reads_each_degree_once(self, monkeypatch):
        graph = grid_road_graph(14, 15, seed=4)[0]
        calls = Counter()
        original = Graph.degree

        def counting_degree(self, node):
            calls[node] += 1
            return original(self, node)

        monkeypatch.setattr(Graph, "degree", counting_degree)
        nodes = list(graph.nodes())
        result = bidirectional_shortest_paths(
            graph, nodes[0], nodes[-1], backend="dict"
        )
        assert result.distance > 10
        # One read per frontier node per side, instead of one per side choice.
        assert max(calls.values()) <= 2


@pytest.mark.skipif(not csr_module.HAS_NUMPY, reason="needs numpy")
class TestPerSlotSweep:
    """The kernel's per-slot mode: slots advance under an active mask and
    each still ends up with exactly its single-source BFS."""

    def test_masked_expansion_matches_single_source_sweeps(self):
        import numpy as np

        graph = grid_road_graph(9, 10, seed=1)[0]
        snapshot = csr_module.as_csr(graph)
        roots = [0, 5, 17, 5, snapshot.n - 1]
        n = snapshot.n
        # repro-lint: disable=kernel-ownership — audited: unit test exercising the kernel itself
        sweep = csr_module._BatchSweep(
            snapshot, roots, sigma_mode="int", per_slot=True
        )
        rng = random.Random(3)
        while (sweep.slot_count > 0).any():
            active = (sweep.slot_count > 0) & np.asarray(
                [rng.random() < 0.5 for _ in roots]
            )
            sweep.expand(active=active)
        for slot, root in enumerate(roots):
            # repro-lint: disable=kernel-ownership — audited: unit test exercising the kernel itself
            single = csr_module._BatchSweep(snapshot, (root,), sigma_mode="int")
            while single.has_frontier:
                single.expand()
            row = slice(slot * n, (slot + 1) * n)
            assert list(sweep.dist[row]) == list(single.dist)
            assert list(sweep.sigma_view[row]) == list(single.sigma_view)
            assert sweep.slot_depth[slot] == single.depth
            # Discovery rank within each level is the single-source order.
            for depth, level in enumerate(single.levels):
                by_rank = sorted(
                    level.tolist(), key=lambda node: sweep.scratch[slot * n + node]
                ) if depth else level.tolist()
                assert by_rank == level.tolist()

    def test_per_slot_needs_a_mask_and_top_down(self):
        import numpy as np

        snapshot = csr_module.as_csr(cycle_graph(8))
        # repro-lint: disable=kernel-ownership — audited: unit test exercising the kernel itself
        sweep = csr_module._BatchSweep(snapshot, (0, 4), per_slot=True)
        with pytest.raises(ValueError):
            sweep.expand()
        with pytest.raises(ValueError):
            # repro-lint: disable=kernel-ownership — audited: unit test exercising the kernel itself
            csr_module._BatchSweep(snapshot, (0,)).expand(
                active=np.ones(1, dtype=bool)
            )
        with pytest.raises(ValueError):
            # repro-lint: disable=kernel-ownership — audited: unit test exercising the kernel itself
            csr_module._BatchSweep(
                snapshot, (0, 4), per_slot=True, direction="auto"
            )
