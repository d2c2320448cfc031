"""Tests for the block-cut tree, out-reach sets, gamma and bc_a."""

from __future__ import annotations

import gc
import pickle
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.centrality.brandes import betweenness_centrality
from repro.errors import GraphError
from repro.graphs import csr as csr_module
from repro.graphs.block_cut_tree import build_block_cut_tree, memoized_block_cut_tree
from repro.graphs.components import largest_connected_component
from repro.graphs.generators import barbell_graph, erdos_renyi_graph, path_graph
from repro.graphs.graph import Graph
from repro.graphs.traversal import bfs_distances


class TestConstruction:
    def test_requires_connected_graph(self):
        with pytest.raises(GraphError, match="connected"):
            build_block_cut_tree(Graph.from_edges([(0, 1), (2, 3)]))

    def test_requires_two_nodes(self):
        graph = Graph()
        graph.add_node(0)
        with pytest.raises(GraphError):
            build_block_cut_tree(graph)

    def test_single_block_graph(self, cycle6):
        tree = build_block_cut_tree(cycle6)
        assert tree.num_blocks == 1
        assert tree.gamma == pytest.approx(1.0)
        assert all(value == 0.0 for value in tree.bc_a.values())
        assert all(value == 1 for value in tree.out_reach[0].values())

    def test_block_subgraph_cached_and_correct(self, two_triangles_shared_node):
        tree = build_block_cut_tree(two_triangles_shared_node)
        sub = tree.block_subgraph(0)
        assert sub.number_of_nodes() == 3
        assert sub.number_of_edges() == 3
        assert tree.block_subgraph(0) is sub

    def test_out_reach_of_unknown_node_raises(self, cycle6):
        tree = build_block_cut_tree(cycle6)
        with pytest.raises(GraphError):
            tree.out_reach_of(0, 999)


class TestOutReach:
    def test_path_graph_out_reach(self):
        # Path 0-1-2-3: blocks {0,1},{1,2},{2,3}.
        graph = path_graph(4)
        tree = build_block_cut_tree(graph)
        for index in range(tree.num_blocks):
            nodes = tree.block_nodes(index)
            reach = tree.out_reach[index]
            assert sum(reach.values()) == 4  # Eq. 18
            low, high = sorted(nodes)
            # The out-reach of an endpoint counts everything on its side of
            # the bridge: nodes 0..low for the left end, high..3 for the right.
            assert reach[low] == low + 1
            assert reach[high] == 4 - high

    def test_two_triangles_out_reach(self, two_triangles_shared_node):
        tree = build_block_cut_tree(two_triangles_shared_node)
        n = 5
        for index in range(tree.num_blocks):
            reach = tree.out_reach[index]
            assert sum(reach.values()) == n
            # Cutpoint 0 reaches itself + the 2 nodes of the other triangle.
            assert reach[0] == 3

    def test_sum_rule_on_karate(self, karate):
        tree = build_block_cut_tree(karate)
        n = karate.number_of_nodes()
        for index in range(tree.num_blocks):
            assert sum(tree.out_reach[index].values()) == n

    def test_non_cutpoints_have_unit_reach(self, karate):
        tree = build_block_cut_tree(karate)
        cutpoints = tree.decomposition.cutpoints
        for index in range(tree.num_blocks):
            for node, value in tree.out_reach[index].items():
                if node not in cutpoints:
                    assert value == 1
                else:
                    assert value >= 1


class TestBranchSizes:
    def test_branches_partition_other_nodes(self, karate):
        tree = build_block_cut_tree(karate)
        n = karate.number_of_nodes()
        for cutpoint, branches in tree.branch_sizes.items():
            assert sum(branches.values()) == n - 1
            assert all(value >= 1 for value in branches.values())

    def test_branch_size_equals_n_minus_reach(self, barbell):
        tree = build_block_cut_tree(barbell)
        n = barbell.number_of_nodes()
        for cutpoint, branches in tree.branch_sizes.items():
            for block_index, size in branches.items():
                assert size == n - tree.out_reach[block_index][cutpoint]


class TestBcA:
    def test_non_cutpoints_zero(self, karate):
        tree = build_block_cut_tree(karate)
        for node in karate.nodes():
            if node not in tree.decomposition.cutpoints:
                assert tree.bc_a[node] == 0.0

    def test_path_middle_node(self):
        # Path 0-1-2: node 1 breaks every (0,2) shortest path; bc_a(1) equals
        # its full betweenness because the path pieces have no inner nodes.
        graph = path_graph(3)
        tree = build_block_cut_tree(graph)
        bc = betweenness_centrality(graph)
        assert tree.bc_a[1] == pytest.approx(bc[1])

    def test_star_center(self, star6):
        tree = build_block_cut_tree(star6)
        bc = betweenness_centrality(star6)
        assert tree.bc_a[0] == pytest.approx(bc[0])

    def test_bc_a_never_exceeds_bc(self, karate):
        tree = build_block_cut_tree(karate)
        bc = betweenness_centrality(karate)
        for node in karate.nodes():
            assert tree.bc_a[node] <= bc[node] + 1e-12


class TestGamma:
    def test_gamma_path(self):
        # Path on 3 nodes: two bridge blocks, weights 4 each, gamma = 8/6.
        tree = build_block_cut_tree(path_graph(3))
        assert tree.gamma == pytest.approx(8.0 / 6.0)

    def test_pair_weight_total_consistent(self, karate):
        tree = build_block_cut_tree(karate)
        n = karate.number_of_nodes()
        assert tree.pair_weight_total() == pytest.approx(tree.gamma * n * (n - 1))

    def test_block_pair_weights_positive(self, karate):
        tree = build_block_cut_tree(karate)
        assert all(weight > 0 for weight in tree.block_pair_weight)


class TestDistancePreservation:
    @given(st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=25, deadline=None)
    def test_block_subgraph_preserves_distances(self, seed):
        """Shortest paths between nodes of a block stay inside the block, so
        distances within the block subgraph equal distances in the graph."""
        rng = random.Random(seed)
        graph = erdos_renyi_graph(rng.randint(5, 16), 0.3, seed=rng.randint(0, 999))
        component = largest_connected_component(graph)
        if len(component) < 3:
            return
        graph = graph.subgraph(component)
        tree = build_block_cut_tree(graph)
        for index in range(tree.num_blocks):
            block_nodes = tree.block_nodes(index)
            block_graph = tree.block_subgraph(index)
            source = block_nodes[0]
            full = bfs_distances(graph, source)
            restricted = bfs_distances(block_graph, source)
            for node in block_nodes:
                assert restricted[node] == full[node]



def _rank(graph, targets):
    from repro.saphyra_bc import SaPHyRaBC

    result = SaPHyRaBC(0.1, 0.1, seed=3, max_samples_cap=200, workers=0).rank(
        graph, targets
    )
    return result.scores, result.ranking, result.num_samples, result.gamma


class TestMemo:
    def test_unchanged_graph_returns_same_tree(self, karate):
        tree = memoized_block_cut_tree(karate)
        assert memoized_block_cut_tree(karate) is tree
        assert tree.version == karate._version
        assert tree.graph is karate

    def test_rank_uses_the_memo(self, karate):
        _rank(karate, [0, 1, 2, 33])
        tree = memoized_block_cut_tree(karate)
        _rank(karate, [5, 6])
        assert memoized_block_cut_tree(karate) is tree

    def test_add_edge_merging_blocks(self):
        graph = barbell_graph(5, 3)
        targets = list(graph.nodes())[:8]
        _rank(graph, targets)
        before = memoized_block_cut_tree(graph)
        blocks = before.num_blocks
        # Close the bridge path into a cycle: its bridges and one clique
        # merge into one block.
        path_end, clique_node = list(graph.nodes())[-1], 0
        graph.add_edge(path_end, clique_node)
        after = memoized_block_cut_tree(graph)
        assert after is not before and after.num_blocks < blocks
        assert _rank(graph, targets) == _rank(graph.copy(), targets)

    def test_remove_edge_splitting_block(self):
        # A square with a chord: one block.
        graph = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        targets = [0, 1, 3]
        _rank(graph, targets)
        before = memoized_block_cut_tree(graph)
        assert before.num_blocks == 1
        graph.remove_edge(1, 2)  # 0-1 becomes a bridge, 0 a cutpoint
        after = memoized_block_cut_tree(graph)
        assert after is not before and after.num_blocks > 1
        assert _rank(graph, targets) == _rank(graph.copy(), targets)

    def test_memo_does_not_keep_graph_alive(self):
        graph = erdos_renyi_graph(60, 0.1, seed=2)
        graph = graph.subgraph(largest_connected_component(graph))
        _rank(graph, list(graph.nodes())[:10])
        tree = memoized_block_cut_tree(graph)
        if csr_module.HAS_NUMPY:
            tree.edge_blocks()
        alive = weakref.ref(graph)
        del graph
        gc.collect()
        assert alive() is None
        with pytest.raises(GraphError):
            tree.graph

    def test_memoized_tree_pickles_with_its_graph(self, karate):
        tree = memoized_block_cut_tree(karate)
        tree.block_subgraph(0)
        clone = pickle.loads(pickle.dumps(tree))
        assert list(clone.graph.edges()) == list(karate.edges())
        assert clone.out_reach == tree.out_reach
        assert clone.block_subgraph(0).number_of_nodes() == len(tree.block_nodes(0))

    def test_block_subgraph_not_pinned(self, karate):
        tree = memoized_block_cut_tree(karate)
        alive = weakref.ref(tree.block_subgraph(0))
        gc.collect()
        assert alive() is None


class TestDerivedArrays:
    def test_block_csr_matches_subgraph_snapshot(self, karate, barbell):
        for graph in (karate, barbell):
            tree = build_block_cut_tree(graph)
            for index in range(tree.num_blocks):
                snapshot = tree.block_csr(index)
                expected = csr_module.CSRGraph.from_graph(tree.block_subgraph(index))
                assert snapshot.labels == expected.labels
                assert list(snapshot.indptr) == list(expected.indptr)
                assert list(snapshot.indices) == list(expected.indices)
                assert tree.block_csr(index) is snapshot

    @pytest.mark.skipif(not csr_module.HAS_NUMPY, reason="needs numpy")
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_edge_blocks_match_common_block(self, seed):
        graph = erdos_renyi_graph(40, 0.08, seed=seed)
        graph = graph.subgraph(largest_connected_component(graph))
        tree = build_block_cut_tree(graph)
        snapshot = csr_module.as_csr(graph)
        edges = tree.edge_blocks()
        slot = 0
        for u in snapshot.labels:
            for w in graph.neighbors(u):
                shared = set(tree.blocks_of(u)) & set(tree.blocks_of(w))
                assert shared == {int(edges.block[slot])}
                block = int(edges.block[slot])
                assert edges.tail_reach[slot] == tree.out_reach[block][u]
                assert edges.head_reach[slot] == tree.out_reach[block][w]
                slot += 1

    def test_edge_blocks_refuse_a_changed_graph(self, karate):
        tree = build_block_cut_tree(karate)
        karate.add_edge(0, next(v for v in karate.nodes() if v and not karate.has_edge(0, v)))
        with pytest.raises(GraphError):
            tree.edge_blocks()
