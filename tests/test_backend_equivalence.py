"""Property tests: the dict and CSR backends are interchangeable.

The CSR kernels are not merely statistically equivalent to the dict
reference — they are *bit-identical*: same distances, same shortest-path
counts, same float dependencies (accumulated in the same order), same dict
key order, and the same sampled paths from the same seeds.  These tests
assert that contract on randomized generator graphs, so any divergence
introduced by a future kernel optimisation fails loudly.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import parallel
from repro.baselines import ABRA, KADABRA, RiondatoKornaropoulos
from repro.centrality.brandes import (
    betweenness_centrality,
    betweenness_from_pivots,
    single_source_dependencies,
)
from repro.centrality.closeness import closeness_centrality
from repro.datasets import load, random_subset
from repro.datasets.synthetic import karate_club_graph
from repro.graphs import bidirectional
from repro.graphs import csr as csr_module
from repro.graphs import diameter
from repro.graphs.bidirectional import (
    bidirectional_shortest_paths,
    bidirectional_shortest_paths_batch,
)
from repro.graphs.block_cut_tree import build_block_cut_tree
from repro.graphs.generators import (
    barabasi_albert_graph,
    barbell_graph,
    cycle_graph,
    erdos_renyi_graph,
    grid_road_graph,
    path_graph,
    watts_strogatz_graph,
    weighted_barabasi_albert_graph,
    weighted_grid_road_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.traversal import bfs_distances, shortest_path_dag
from repro.saphyra_bc import SaPHyRaBC
from repro.saphyra_bc import exact_bc, isp
from repro.saphyra_bc.exact_bc import exact_two_hop_risks
from repro.saphyra_bc.gen_bc import GenBC, GenBCStatistics
from repro.saphyra_bc.isp import PersonalizedISP
from repro.saphyra_bc.vc_bounds import personalized_vc_dimension, vc_bound_report
from repro.saphyra_cc.algorithm import SaPHyRaCC
from repro.saphyra_cc.problem import ClosenessProblem

GRAPH_CASES = [
    pytest.param(lambda seed: erdos_renyi_graph(60, 0.08, seed=seed), id="erdos-renyi"),
    pytest.param(lambda seed: barabasi_albert_graph(120, 3, seed=seed), id="barabasi-albert"),
    pytest.param(lambda seed: watts_strogatz_graph(90, 4, 0.1, seed=seed), id="watts-strogatz"),
    pytest.param(lambda seed: grid_road_graph(8, 9, seed=seed)[0], id="grid-road"),
]
SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def overflow_grid():
    """A road-style grid whose sigma counts cross ``2**63`` (hop dist ~70)."""
    return grid_road_graph(100, 100, seed=1)[0]


def _random_pairs(graph: Graph, count: int, seed: int):
    rng = random.Random(seed)
    nodes = list(graph.nodes())
    return [tuple(rng.sample(nodes, 2)) for _ in range(count)]


@pytest.mark.parametrize("make_graph", GRAPH_CASES)
@pytest.mark.parametrize("seed", SEEDS)
class TestTraversalEquivalence:
    def test_bfs_identical_including_order(self, make_graph, seed):
        graph = make_graph(seed)
        for source in list(graph.nodes())[:4]:
            reference = bfs_distances(graph, source, backend="dict")
            candidate = bfs_distances(graph, source, backend="csr")
            assert reference == candidate
            assert list(reference) == list(candidate)

    def test_bfs_max_depth(self, make_graph, seed):
        graph = make_graph(seed)
        source = next(iter(graph.nodes()))
        for depth in (0, 1, 3):
            reference = bfs_distances(graph, source, max_depth=depth, backend="dict")
            candidate = bfs_distances(graph, source, max_depth=depth, backend="csr")
            assert reference == candidate
            assert list(reference) == list(candidate)

    def test_shortest_path_dag_identical(self, make_graph, seed):
        graph = make_graph(seed)
        for source in list(graph.nodes())[:3]:
            reference = shortest_path_dag(graph, source, backend="dict")
            candidate = shortest_path_dag(graph, source, backend="csr")
            assert reference.distances == candidate.distances
            assert reference.sigma == candidate.sigma
            assert reference.order == candidate.order
            assert reference.predecessors == candidate.predecessors

    def test_sampled_dag_paths_identical(self, make_graph, seed):
        graph = make_graph(seed)
        nodes = list(graph.nodes())
        source = nodes[0]
        reference = shortest_path_dag(graph, source, backend="dict")
        candidate = shortest_path_dag(graph, source, backend="csr")
        for target in nodes[-5:]:
            if target == source or target not in reference.distances:
                continue
            for draw in range(3):
                assert reference.sample_path(
                    target, random.Random(draw)
                ) == candidate.sample_path(target, random.Random(draw))


@pytest.mark.parametrize("make_graph", GRAPH_CASES)
@pytest.mark.parametrize("seed", SEEDS)
class TestCentralityEquivalence:
    def test_single_source_dependencies_bitwise(self, make_graph, seed):
        graph = make_graph(seed)
        for source in list(graph.nodes())[:3]:
            reference = single_source_dependencies(graph, source, backend="dict")
            candidate = single_source_dependencies(graph, source, backend="csr")
            assert list(reference) == list(candidate)
            # Bitwise float equality, not approx: the CSR backward pass
            # replays the exact accumulation order.
            assert reference == candidate

    def test_betweenness_bitwise(self, make_graph, seed):
        graph = make_graph(seed)
        assert betweenness_centrality(graph, backend="dict") == (
            betweenness_centrality(graph, backend="csr")
        )

    def test_pivot_betweenness_bitwise(self, make_graph, seed):
        graph = make_graph(seed)
        pivots = random_subset(graph, 7, seed)
        assert betweenness_from_pivots(graph, pivots, backend="dict") == (
            betweenness_from_pivots(graph, pivots, backend="csr")
        )

    def test_closeness_bitwise(self, make_graph, seed):
        graph = make_graph(seed)
        assert closeness_centrality(graph, backend="dict") == (
            closeness_centrality(graph, backend="csr")
        )


@pytest.mark.parametrize("make_graph", GRAPH_CASES)
@pytest.mark.parametrize("seed", SEEDS)
class TestBidirectionalEquivalence:
    def test_results_and_sampled_paths(self, make_graph, seed):
        graph = make_graph(seed)
        for source, target in _random_pairs(graph, 12, seed + 100):
            reference = bidirectional_shortest_paths(
                graph, source, target, backend="dict"
            )
            candidate = bidirectional_shortest_paths(
                graph, source, target, backend="csr"
            )
            assert reference.distance == candidate.distance
            assert reference.num_shortest_paths == candidate.num_shortest_paths
            assert reference.cut_level == candidate.cut_level
            assert reference.cut_nodes == candidate.cut_nodes
            assert reference.visited_edges == candidate.visited_edges
            if reference.connected:
                for draw in range(3):
                    assert reference.sample_path(
                        random.Random(draw)
                    ) == candidate.sample_path(random.Random(draw))


class TestEstimatorEquivalence:
    """Full estimator runs draw identical samples and scores per backend."""

    @pytest.fixture(scope="class")
    def graph(self):
        return barabasi_albert_graph(200, 3, seed=2)

    @pytest.fixture(scope="class")
    def targets(self, graph):
        return random_subset(graph, 20, 4)

    def _pair(self, factory):
        first = factory("dict")
        second = factory("csr")
        return first, second

    def test_rk(self, graph):
        reference, candidate = self._pair(
            lambda backend: RiondatoKornaropoulos(
                0.1, 0.1, seed=7, max_samples_cap=150, backend=backend
            ).estimate(graph)
        )
        assert reference.scores == candidate.scores
        assert reference.num_samples == candidate.num_samples

    def test_kadabra(self, graph):
        reference, candidate = self._pair(
            lambda backend: KADABRA(
                0.1, 0.1, seed=7, max_samples_cap=150, backend=backend
            ).estimate(graph)
        )
        assert reference.scores == candidate.scores
        assert reference.converged_by == candidate.converged_by

    def test_abra(self, graph):
        reference, candidate = self._pair(
            lambda backend: ABRA(
                0.1, 0.1, seed=7, max_samples_cap=100, backend=backend
            ).estimate(graph)
        )
        assert reference.scores == candidate.scores
        assert reference.num_samples == candidate.num_samples

    def test_saphyra_bc(self, graph, targets):
        reference, candidate = self._pair(
            lambda backend: SaPHyRaBC(
                0.1, 0.1, seed=7, max_samples_cap=300, backend=backend
            ).rank(graph, targets)
        )
        assert reference.scores == candidate.scores
        assert reference.ranking == candidate.ranking
        assert reference.num_samples == candidate.num_samples

    def test_saphyra_cc(self, graph, targets):
        reference, candidate = self._pair(
            lambda backend: SaPHyRaCC(
                0.1, 0.1, seed=7, max_samples_cap=300, backend=backend
            ).rank(graph, targets)
        )
        assert reference.closeness == candidate.closeness
        assert reference.ranking == candidate.ranking

    def test_closeness_problem_losses(self, graph, targets):
        first = ClosenessProblem(graph, targets, seed=3, backend="dict")
        second = ClosenessProblem(graph, targets, seed=3, backend="csr")
        exact_first = first.exact_evaluation()
        exact_second = second.exact_evaluation()
        assert exact_first.risks == exact_second.risks
        assert exact_first.lambda_exact == exact_second.lambda_exact
        for draw in range(5):
            assert first.sample_losses(random.Random(draw)) == (
                second.sample_losses(random.Random(draw))
            )


class TestBigSigmaExactness:
    """Path counts beyond int64 stay exact (regression: on road-style grids
    sigma grows binomially and exceeded 2**63 around hop distance 70, which
    used to wrap the CSR backend's counts and break path sampling)."""

    def test_dag_sigma_beyond_int64(self, overflow_grid):
        grid = overflow_grid
        source = next(iter(grid.nodes()))
        reference = shortest_path_dag(grid, source, backend="dict")
        candidate = shortest_path_dag(grid, source, backend="csr")
        assert max(reference.sigma.values()) > 2**63  # the test bites
        assert reference.sigma == candidate.sigma

    def test_bidirectional_long_pair(self, overflow_grid):
        grid = overflow_grid
        nodes = list(grid.nodes())
        rng = random.Random(1)
        checked = 0
        for source, target in (tuple(rng.sample(nodes, 2)) for _ in range(20)):
            reference = bidirectional_shortest_paths(
                grid, source, target, backend="dict"
            )
            if not reference.connected or reference.distance < 60:
                continue
            candidate = bidirectional_shortest_paths(
                grid, source, target, backend="csr"
            )
            assert reference.num_shortest_paths == candidate.num_shortest_paths
            assert reference.cut_nodes == candidate.cut_nodes
            assert reference.sample_path(random.Random(2)) == (
                candidate.sample_path(random.Random(2))
            )
            checked += 1
        assert checked > 0  # at least one long pair exercised the guard

    @pytest.mark.parametrize("backend", ["dict", "csr", None])
    def test_batched_long_pairs(self, overflow_grid, monkeypatch, backend):
        """Diameter-scale rows (``sigma_st`` far beyond ``2**63``) stacked
        with short ones count and sample exactly like the per-pair search."""
        grid = overflow_grid
        # Room for all eight rows in one stacked batch.
        monkeypatch.setattr(
            bidirectional, "_STACKED_SLOTS", 16 * grid.number_of_nodes()
        )
        nodes = list(grid.nodes())
        first = nodes[0]
        far = max(bfs_distances(grid, first).items(), key=lambda item: item[1])[0]
        farther = max(bfs_distances(grid, far).items(), key=lambda item: item[1])[0]
        rng = random.Random(4)
        pairs = [tuple(rng.sample(nodes, 2)) for _ in range(6)]
        pairs[1:1] = [(far, farther), (first, far)]
        references = self._check_batch(grid, pairs, backend)
        assert max(r.num_shortest_paths for r in references) > 2**63  # bites

    @pytest.mark.parametrize("backend", ["dict", "csr", None])
    def test_stacked_batch_crosses_overflow_boundary(self, backend):
        """Both sides of a long row through layers of width 4 multiply their
        counts by 4 per level, so the stacked kernel trips the int64 ->
        Python-int sigma guard partway through a batch whose short rows are
        long done; every row still matches the per-pair search."""
        width, depth = 4, 70
        layers = [["s"]] + [
            [(level, slot) for slot in range(width)] for level in range(depth)
        ] + [["t"]]
        graph = Graph.from_edges(
            (u, v) for upper, lower in zip(layers, layers[1:])
            for u in upper for v in lower
        )
        rng = random.Random(6)
        pairs = [("s", "t")] + [
            ((level, rng.randrange(width)), (level + 2, rng.randrange(width)))
            for level in range(0, depth - 2, 9)
        ] + [("t", (1, 0))]
        references = self._check_batch(graph, pairs, backend)
        assert references[0].num_shortest_paths == width ** depth
        if csr_module.HAS_NUMPY and backend != "dict":
            # Rows 1.. finish after two levels; row 0 made the kernel leave
            # int64 for exact Python ints many levels later.
            assert references[1].distance == 2
            stacked = list(
                bidirectional_shortest_paths_batch(graph, pairs, backend=backend)
            )
            assert stacked[0]._forward.sweep.sigma_view is None

    @staticmethod
    def _check_batch(graph, pairs, backend):
        references = [
            bidirectional_shortest_paths(graph, s, t, backend="dict") for s, t in pairs
        ]
        candidates = bidirectional_shortest_paths_batch(graph, pairs, backend=backend)
        for reference, candidate in zip(references, candidates):
            assert candidate.distance == reference.distance
            assert candidate.num_shortest_paths == reference.num_shortest_paths
            assert list(candidate.cut_nodes.items()) == list(
                reference.cut_nodes.items()
            )
            assert candidate.visited_edges == reference.visited_edges
            for draw in range(2):
                assert candidate.sample_path(random.Random(draw)) == (
                    reference.sample_path(random.Random(draw))
                )
        return references


class TestBatchedSweepEquivalence:
    """The batched multi-source sweep is bit-identical to the per-source
    kernels and to the dict reference — including on a road-style grid whose
    sigma counts cross the int64-overflow boundary (hop distance >= 70)."""

    @pytest.fixture(scope="class")
    def social(self):
        return barabasi_albert_graph(400, 3, seed=5)

    def _sources(self, graph, count):
        nodes = list(graph.nodes())
        step = max(1, len(nodes) // count)
        return nodes[::step][:count]

    def test_sigma_sweep_crosses_overflow_boundary(self, overflow_grid):
        from repro.graphs import csr as csr_module

        grid = overflow_grid
        snapshot = csr_module.as_csr(grid)
        sources = self._sources(grid, 3)
        indices = [snapshot.index_of(node) for node in sources]
        rows = csr_module.multi_source_sweep(
            snapshot, indices, kind=csr_module.SWEEP_SIGMA, batch_size=2
        )
        deep = False
        for source, (dist_row, sigma_row) in zip(sources, rows):
            reference = shortest_path_dag(grid, source, backend="dict")
            labels = snapshot.labels
            for index in range(snapshot.n):
                label = labels[index]
                assert int(dist_row[index]) == reference.distances.get(label, -1)
                assert int(sigma_row[index]) == reference.sigma.get(label, 0)
            if max(reference.sigma.values()) > 2**63:
                deep = True
            assert max(reference.distances.values()) >= 70
        assert deep  # the overflow guard actually tripped

    def test_brandes_sweep_bitwise(self, overflow_grid, social):
        from repro.graphs import csr as csr_module

        for graph in (overflow_grid, social):
            snapshot = csr_module.as_csr(graph)
            sources = self._sources(graph, 4)
            indices = [snapshot.index_of(node) for node in sources]
            rows = csr_module.multi_source_sweep(
                snapshot, indices, kind=csr_module.SWEEP_BRANDES, batch_size=3
            )
            for source, index, row in zip(sources, indices, rows):
                per_source, _, _ = csr_module.csr_brandes(snapshot, index)
                assert list(row) == list(per_source)
                reference = single_source_dependencies(
                    graph, source, backend="dict"
                )
                labels = snapshot.labels
                for node in range(snapshot.n):
                    if node == index:
                        continue
                    assert row[node] == reference.get(labels[node], 0.0)

    def test_distance_sweep_bitwise(self, overflow_grid):
        from repro.graphs import csr as csr_module

        snapshot = csr_module.as_csr(overflow_grid)
        sources = self._sources(overflow_grid, 5)
        indices = [snapshot.index_of(node) for node in sources]
        rows = csr_module.multi_source_sweep(
            snapshot, indices, kind=csr_module.SWEEP_DISTANCE, batch_size=2
        )
        for index, row in zip(indices, rows):
            dist, _ = csr_module.csr_bfs(snapshot, index)
            assert list(row) == list(dist)


class TestWorkerPoolEquivalence:
    """`workers > 1` is bit-identical to serial, which is bit-identical to
    the dict reference — on a social-style BA graph and on a road-style grid
    crossing the sigma overflow boundary."""

    @pytest.fixture(scope="class")
    def social(self):
        return barabasi_albert_graph(300, 3, seed=6)

    @pytest.fixture(scope="class")
    def road(self):
        # Small enough for dict-backend Brandes, deep enough for thin
        # frontiers; the 100x100 overflow grid is covered by the sweep tests.
        return grid_road_graph(16, 16, seed=3)[0]

    def test_exact_brandes_workers_bitwise(self, social, road):
        for graph in (social, road):
            reference = betweenness_centrality(graph, backend="dict")
            for backend in ("dict", "csr"):
                for workers in (0, 2):
                    candidate = betweenness_centrality(
                        graph, backend=backend, workers=workers
                    )
                    assert candidate == reference

    def test_closeness_workers_bitwise(self, social, road):
        for graph in (social, road):
            reference = closeness_centrality(graph, backend="dict")
            for backend in ("dict", "csr"):
                for workers in (0, 2):
                    candidate = closeness_centrality(
                        graph, backend=backend, workers=workers
                    )
                    assert candidate == reference

    def test_pivot_betweenness_workers_bitwise(self, social):
        pivots = random_subset(social, 7, 1)
        reference = betweenness_from_pivots(social, pivots, backend="dict")
        assert reference == betweenness_from_pivots(
            social, pivots, backend="csr", workers=2
        )

    def test_samplers_workers_bitwise(self, social):
        for cls, cap in (
            (RiondatoKornaropoulos, 150),
            (KADABRA, 150),
            (ABRA, 100),
        ):
            runs = {
                workers: cls(
                    0.1, 0.1, seed=7, max_samples_cap=cap, workers=workers
                ).estimate(social)
                for workers in (0, 1, 2)
            }
            assert runs[0].scores == runs[1].scores == runs[2].scores
            assert runs[0].num_samples == runs[2].num_samples
            assert runs[0].converged_by == runs[2].converged_by

    def test_samplers_workers_bitwise_across_backends(self, social):
        reference = RiondatoKornaropoulos(
            0.1, 0.1, seed=7, max_samples_cap=120, backend="dict"
        ).estimate(social)
        candidate = RiondatoKornaropoulos(
            0.1, 0.1, seed=7, max_samples_cap=120, backend="csr", workers=2
        ).estimate(social)
        assert reference.scores == candidate.scores

    def test_saphyra_variants_workers_bitwise(self, social):
        # High-degree targets sit in the middle of many length-2 paths, so
        # the exact-subspace rejection path of Gen_bc is actually exercised.
        targets = sorted(social.nodes(), key=social.degree, reverse=True)[:12]
        bc_runs = [
            SaPHyRaBC(
                0.1, 0.1, seed=7, max_samples_cap=300, workers=workers
            ).rank(social, targets)
            for workers in (0, 2)
        ]
        assert bc_runs[0].scores == bc_runs[1].scores
        assert bc_runs[0].ranking == bc_runs[1].ranking
        assert bc_runs[0].num_samples == bc_runs[1].num_samples
        # Diagnostics are covered by the contract too: worker-local Gen_bc
        # counters are snapshotted per chunk and folded back in the master.
        assert bc_runs[0].rejections == bc_runs[1].rejections
        assert bc_runs[0].rejections > 0  # the check bites
        cc_runs = [
            SaPHyRaCC(
                0.1, 0.1, seed=7, max_samples_cap=300, workers=workers
            ).rank(social, targets)
            for workers in (0, 2)
        ]
        assert cc_runs[0].closeness == cc_runs[1].closeness
        assert cc_runs[0].ranking == cc_runs[1].ranking


def _replay_gen_bc(space, targets, rng, draws):
    """Per-row reference for ``GenBC.sample_paths``: every round draws all
    pending pairs, searches them one at a time with the dict backend, then
    samples and tests the paths in row order; rejected rows are redrawn in
    the next round."""
    stats = GenBCStatistics()
    target_set = set(targets)
    accepted = []
    pending = draws
    while pending:
        pairs = [space.sample_pair(rng) for _ in range(pending)]
        stats.pairs_drawn += pending
        results = [
            bidirectional_shortest_paths(
                space.bct.block_subgraph(block), source, target, backend="dict"
            )
            for block, source, target in pairs
        ]
        pending = 0
        for result in results:
            stats.visited_edges += result.visited_edges
            path = result.sample_path(rng)
            if len(path) == 3 and path[1] in target_set:
                pending += 1
                stats.rejections += 1
                continue
            stats.samples_returned += 1
            length = len(path) - 1
            stats.path_length_histogram[length] = (
                stats.path_length_histogram.get(length, 0) + 1
            )
            accepted.append(path)
    return accepted, stats


class TestGenBCBatchLayout:
    """Gen_bc draws each chunk as "pairs, then paths, per round".  That
    order is fixed, so the sampled paths, the Gen_bc counters and the
    SaPHyRa_bc rankings are identical for every backend, worker count, DAG
    cache setting and stacked sub-batch layout — and equal a plain per-row
    replay with the dict search."""

    @pytest.fixture(scope="class", params=["road", "social"])
    def case(self, request):
        if request.param == "road":
            graph = grid_road_graph(16, 16, seed=3)[0]
            targets = random_subset(graph, 20, 2)
        else:
            # High-degree targets sit in the middle of many length-2 paths,
            # so rejection rounds actually happen.
            graph = barabasi_albert_graph(300, 3, seed=6)
            targets = sorted(graph.nodes(), key=graph.degree, reverse=True)[:12]
        return request.param, graph, targets

    @staticmethod
    def _cap(monkeypatch, graph, rows):
        if rows is not None:
            monkeypatch.setattr(
                bidirectional, "_STACKED_SLOTS", 2 * rows * graph.number_of_nodes()
            )

    @pytest.mark.parametrize(
        "backend, rows",
        [("dict", None), ("csr", None), (None, None),
         ("csr", 1), ("csr", 3), (None, 1), (None, 3)],
    )
    def test_gen_bc_matches_per_row_replay(self, case, monkeypatch, backend, rows):
        label, graph, targets = case
        self._cap(monkeypatch, graph, rows)
        space = PersonalizedISP(graph, targets=targets)
        generator = GenBC(space, targets, backend=backend)
        paths = generator.sample_paths(random.Random(11), 64)
        expected, stats = _replay_gen_bc(space, targets, random.Random(11), 64)
        assert paths == expected
        assert generator.stats == stats
        if label == "social":
            assert stats.rejections > 0  # a second round was drawn
        index = {node: position for position, node in enumerate(targets)}
        expected, _ = _replay_gen_bc(space, targets, random.Random(12), 40)
        assert generator.sample_losses_batch(random.Random(12), 40) == [
            {index[node]: 1.0 for node in path[1:-1] if node in index}
            for path in expected
        ]

    @pytest.mark.parametrize("backend", ["dict", "csr", None])
    def test_multi_stream_matches_per_stream_replay(
        self, case, monkeypatch, backend
    ):
        # Several chunk streams searched together: each stream's paths and
        # the summed counters equal per-stream replays, and rows of several
        # streams share the searches of every round, including the
        # rejection rounds.
        label, graph, targets = case
        space = PersonalizedISP(graph, targets=targets)
        generator = GenBC(space, targets, backend=backend)
        rounds = []
        search_and_sample = generator._search_and_sample

        def spy(rows, rngs):
            rounds.append({stream for stream, *_ in rows})
            return search_and_sample(rows, rngs)

        monkeypatch.setattr(generator, "_search_and_sample", spy)
        counts = [64, 5, 40, 64]
        streams = [(random.Random(20 + index), count)
                   for index, count in enumerate(counts)]
        paths = generator.sample_path_streams(streams)
        expected = GenBCStatistics()
        for index, count in enumerate(counts):
            replay, stats = _replay_gen_bc(
                space, targets, random.Random(20 + index), count
            )
            assert paths[index] == replay
            expected.merge(stats)
        assert generator.stats == expected
        assert rounds[0] == set(range(len(counts)))
        if label == "social":
            assert len(rounds) > 1 and len(rounds[1]) > 1

    def test_rank_identical_across_chunk_groups(self, case, monkeypatch):
        from repro.engine import driver, set_dag_cache_enabled

        label, graph, targets = case
        generators = []
        init = GenBC.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            generators.append(self)

        monkeypatch.setattr(GenBC, "__init__", recording_init)

        def run(backend, workers):
            result = SaPHyRaBC(
                0.1, 0.1, seed=5, max_samples_cap=400,
                backend=backend, workers=workers,
            ).rank(graph, targets)
            return (
                result.scores, result.ranking, result.num_samples,
                result.num_pilot_samples, result.rejections,
                generators[-1].stats,
            )

        reference = run("dict", 0)
        chunk = parallel.SAMPLE_CHUNK_SIZE
        try:
            for cap in (chunk, 3 * chunk, 10**9):
                monkeypatch.setattr(driver, "_GROUP_DRAWS", cap)
                for backend in ("dict", "csr", None):
                    for workers in (0, 2):
                        for enabled in (True, False):
                            set_dag_cache_enabled(enabled)
                            layout = (cap, backend, workers, enabled)
                            assert run(backend, workers) == reference, layout
        finally:
            set_dag_cache_enabled(None)
        if label == "social":
            assert reference[4] > 0  # rejection rounds were exercised

    @pytest.mark.skipif(
        not csr_module.HAS_NUMPY, reason="the stacked kernel needs numpy"
    )
    def test_stacks_respect_the_slot_budget(self, monkeypatch):
        # Cross-chunk stacking fills stacks past one chunk's 64 rows, and
        # no stack (two slots of n ids per row) outgrows the flat-slot
        # budget.
        graph = grid_road_graph(16, 16, seed=3)[0]
        targets = random_subset(graph, 20, 2)
        stacks = []
        stacked_search = bidirectional._stacked_search

        def recording_search(snapshot, pairs):
            stacks.append((2 * len(pairs) * snapshot.n, len(pairs)))
            return stacked_search(snapshot, pairs)

        monkeypatch.setattr(bidirectional, "_stacked_search", recording_search)
        SaPHyRaBC(
            0.1, 0.1, seed=7, max_samples_cap=300, backend="csr", workers=0
        ).rank(graph, targets)
        assert stacks
        assert all(size <= bidirectional._STACKED_SLOTS for size, _ in stacks)
        assert max(rows for _, rows in stacks) > parallel.SAMPLE_CHUNK_SIZE

    def test_rank_identical_across_layouts(self, case, monkeypatch):
        from repro.engine import set_dag_cache_enabled

        label, graph, targets = case

        def run(backend=None, workers=0):
            result = SaPHyRaBC(
                0.1, 0.1, seed=7, max_samples_cap=300,
                backend=backend, workers=workers,
            ).rank(graph, targets)
            return (
                result.scores, result.ranking, result.num_samples,
                result.num_pilot_samples, result.rejections,
            )

        reference = run(backend="dict")
        runs = {
            "csr": run(backend="csr"),
            "auto": run(),
            "workers=1": run(workers=1),
            "workers=2": run(workers=2),
            "csr workers=2": run(backend="csr", workers=2),
        }
        try:
            for enabled in (True, False):
                set_dag_cache_enabled(enabled)
                runs[f"cache={enabled}"] = run()
        finally:
            set_dag_cache_enabled(None)
        for rows in (1, 3):
            self._cap(monkeypatch, graph, rows)
            runs[f"{rows} rows"] = run()
        for label, candidate in runs.items():
            assert candidate == reference, label
        if label == "social":
            assert reference[4] > 0  # rejection rounds were exercised


# ----------------------------------------------------------------------
# SaPHyRa_bc preprocessing: array paths == loop paths
# ----------------------------------------------------------------------
def _two_triangles() -> Graph:
    return Graph.from_edges([(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])


PREPROCESSING_GRAPHS = [
    pytest.param(karate_club_graph, id="karate"),
    pytest.param(lambda: barbell_graph(5, 3), id="barbell"),
    pytest.param(lambda: path_graph(9), id="path"),
    pytest.param(lambda: cycle_graph(9), id="cycle"),
    pytest.param(_two_triangles, id="two-triangles"),
    pytest.param(lambda: load("usa-road", scale=0.1, seed=0).graph, id="road"),
    pytest.param(lambda: load("orkut", scale=0.1, seed=0).graph, id="social"),
]


def _target_subsets(graph: Graph, seed: int):
    """Random targets, the cutpoints, adjacent targets and all nodes."""
    nodes = list(graph.nodes())
    rng = random.Random(seed)
    subsets = [rng.sample(nodes, min(len(nodes), 1 + rng.randrange(12)))]
    cut = build_block_cut_tree(graph).decomposition.cutpoints
    cutpoints = [node for node in nodes if node in cut]
    if cutpoints:
        subsets.append(cutpoints)
    u = rng.choice(nodes)
    subsets.append([u] + list(graph.neighbors(u))[:3])
    subsets.append(nodes)
    return subsets


def _exact_fields(graph: Graph, targets, backend):
    space = PersonalizedISP(graph, targets=targets, backend=backend)
    result = exact_two_hop_risks(space, targets)
    return result.risks, result.lambda_exact, result.num_pairs, result.work


def _assert_exact_paths_agree(graph: Graph, targets) -> None:
    # The dict backend runs the nested loop; csr runs the arrays (numpy).
    csr_space = PersonalizedISP(graph, targets=targets, backend="csr")
    assert exact_bc._runs_on_arrays(csr_space) == csr_module.HAS_NUMPY
    assert _exact_fields(graph, targets, "csr") == _exact_fields(graph, targets, "dict")


class TestExactBCEquivalence:
    """The numpy Exact_bc is bit-identical to the nested loop: risks,
    lambda-hat, pair count and work compared with ``==``."""

    @pytest.mark.parametrize("make_graph", PREPROCESSING_GRAPHS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_fixtures(self, make_graph, seed):
        graph = make_graph()
        for targets in _target_subsets(graph, seed):
            _assert_exact_paths_agree(graph, targets)

    @given(
        st.integers(min_value=3, max_value=40),
        st.floats(min_value=0.0, max_value=0.3),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_connected_graphs(self, n, density, seed):
        rng = random.Random(seed)
        # A random spanning tree plus random chords: connected, with
        # anything from a path of bridges to one big block.
        graph = Graph()
        for node in range(1, n):
            graph.add_edge(node, rng.randrange(node))
        for _ in range(int(density * n * (n - 1) / 2)):
            u, v = rng.sample(range(n), 2)
            graph.add_edge(u, v)
        for targets in _target_subsets(graph, seed):
            _assert_exact_paths_agree(graph, targets)

    @pytest.mark.skipif(not csr_module.HAS_NUMPY, reason="needs numpy")
    def test_small_chunks(self, monkeypatch):
        # Chunks of one source and a handful of walks carry the risk and
        # lambda totals across chunk boundaries exactly.
        graph = load("orkut", scale=0.1, seed=0).graph
        targets = random_subset(graph, 30, 3)
        expected = _exact_fields(graph, targets, "dict")
        for walks, keys in ((1, 1), (5, 1), (200, 1 << 16)):
            monkeypatch.setattr(csr_module, "_TWO_HOP_WALKS", walks)
            monkeypatch.setattr(csr_module, "_TWO_HOP_KEYS", keys)
            assert _exact_fields(graph, targets, "csr") == expected

    def test_stale_tree_runs_the_loop(self):
        # A tree built before a mutation no longer matches the graph's
        # slots; the array path must not read it.
        graph = karate_club_graph()
        tree = build_block_cut_tree(graph)
        graph.add_node("isolated")
        graph.add_edge("isolated", 0)
        graph.remove_edge("isolated", 0)
        graph.remove_node("isolated")
        space = PersonalizedISP(
            graph, targets=[0, 1, 2], block_cut_tree=tree, backend="csr"
        )
        assert not exact_bc._runs_on_arrays(space)


class TestBatchedDiameterEquivalence:
    """Batched distance sweeps give the per-member BFS loops' diameters."""

    @pytest.mark.parametrize("make_graph", PREPROCESSING_GRAPHS)
    @pytest.mark.parametrize("state", [None, 1])
    def test_fixtures(self, make_graph, state, monkeypatch):
        graph = make_graph()
        if state is not None:  # one source per sweep
            monkeypatch.setattr(diameter, "_SWEEP_STATE", state)
        subsets = _target_subsets(graph, 5)
        try:
            csr_module.set_default_backend("dict")
            expected = [diameter.exact_diameter(graph)] + [
                diameter.exact_subset_diameter(graph, subset) for subset in subsets
            ]
        finally:
            csr_module.set_default_backend(None)
        snapshot = csr_module.CSRGraph.from_graph(graph)
        for candidate in (graph, snapshot):
            assert [diameter.exact_diameter(candidate)] + [
                diameter.exact_subset_diameter(candidate, subset) for subset in subsets
            ] == expected

    def test_disconnected_members(self):
        graph = Graph.from_edges([(0, 1), (1, 2), (3, 4)])
        snapshot = csr_module.CSRGraph.from_graph(graph)
        assert diameter.exact_subset_diameter(snapshot, [0, 2, 3, 4]) == 2
        assert diameter.exact_diameter(snapshot) == 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_vc_bounds_across_backends(self, seed):
        graph = load("usa-road", scale=0.1, seed=0).graph
        targets = random_subset(graph, 40, seed)
        results = []
        for backend in ("dict", "csr", None):
            try:
                csr_module.set_default_backend(backend)
                tree = build_block_cut_tree(graph)
                results.append((
                    personalized_vc_dimension(tree, targets, seed=seed),
                    vc_bound_report(graph, tree, targets, seed=seed),
                ))
            finally:
                csr_module.set_default_backend(None)
        assert results[0] == results[1] == results[2]


class TestPreprocessingArraysToggle:
    """SaPHyRaBC.rank is bit-identical with the array preprocessing on and
    forced off (loop Exact_bc, per-member BFS, subgraph searches), for
    either backend and any worker count."""

    @pytest.fixture(scope="class", params=["road", "social"])
    def case(self, request):
        if request.param == "road":
            graph = load("usa-road", scale=0.1, seed=0).graph
        else:
            graph = load("orkut", scale=0.1, seed=0).graph
        return graph, random_subset(graph, 25, 4)

    @staticmethod
    def run(graph, targets, backend, workers):
        result = SaPHyRaBC(
            0.1, 0.1, seed=5, max_samples_cap=300, backend=backend, workers=workers
        ).rank(graph, targets)
        return result.scores, result.ranking, result.num_samples, result.lambda_exact

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    @pytest.mark.parametrize("workers", [0, 2])
    def test_rank(self, case, backend, workers, monkeypatch):
        graph, targets = case
        expected = self.run(graph, targets, "dict", 0)
        assert self.run(graph, targets, backend, workers) == expected
        monkeypatch.setattr(exact_bc, "_runs_on_arrays", lambda space: False)
        monkeypatch.setattr(diameter, "_sweeps_batched", lambda graph: False)
        monkeypatch.setattr(isp, "searches_run_on_csr", lambda n, m, backend: False)
        assert self.run(graph.copy(), targets, backend, workers) == expected

    @pytest.mark.skipif(not csr_module.HAS_NUMPY, reason="needs numpy")
    def test_auto_searches_big_block_through_snapshot(self, monkeypatch):
        # n + m above the bidirectional auto threshold: Gen_bc searches the
        # block's memoised snapshot instead of a dict subgraph.
        graph = barabasi_albert_graph(2000, 8, seed=1)
        targets = random_subset(graph, 25, 4)
        space = PersonalizedISP(graph, targets=targets)
        assert isinstance(space.search_graph(0, None), csr_module.CSRGraph)
        assert not isinstance(space.search_graph(0, "dict"), csr_module.CSRGraph)
        expected = self.run(graph, targets, None, 0)
        monkeypatch.setattr(isp, "searches_run_on_csr", lambda n, m, backend: False)
        assert self.run(graph.copy(), targets, None, 0) == expected


class TestDAGCacheEquivalence:
    """The cross-sample source-DAG cache never changes results: cached runs
    are bit-identical to uncached runs, to dict-backend runs, and to
    ``workers > 1`` runs (each worker process keeps its own cache)."""

    @pytest.fixture(scope="class")
    def social(self):
        return barabasi_albert_graph(250, 3, seed=8)

    @pytest.fixture()
    def cache_toggle(self):
        from repro.engine import set_dag_cache_enabled

        yield set_dag_cache_enabled
        set_dag_cache_enabled(None)

    def _cache_matrix(self, cache_toggle, run):
        from repro.engine import clear_default_dag_cache, default_dag_cache

        results = {}
        for enabled in (False, True):
            cache_toggle(enabled)
            clear_default_dag_cache()
            results[enabled] = run()
            if enabled:
                stats = default_dag_cache().stats()
                assert stats["misses"] > 0  # the cache was actually consulted
        return results

    def test_rk_cached_vs_uncached_vs_workers(self, social, cache_toggle):
        def run(workers=0, backend="csr"):
            return RiondatoKornaropoulos(
                0.1, 0.1, seed=7, max_samples_cap=150,
                backend=backend, workers=workers,
            ).estimate(social)

        results = self._cache_matrix(cache_toggle, run)
        assert results[False].scores == results[True].scores
        cache_toggle(True)
        assert run(workers=2).scores == results[True].scores
        assert run(backend="dict").scores == results[True].scores

    def test_abra_cached_vs_uncached_vs_workers(self, social, cache_toggle):
        def run(workers=0, backend="csr"):
            return ABRA(
                0.1, 0.1, seed=7, max_samples_cap=100,
                backend=backend, workers=workers,
            ).estimate(social)

        results = self._cache_matrix(cache_toggle, run)
        assert results[False].scores == results[True].scores
        assert results[False].num_samples == results[True].num_samples
        cache_toggle(True)
        assert run(workers=2).scores == results[True].scores
        assert run(backend="dict").scores == results[True].scores

    def test_closeness_problem_cached_vs_uncached(self, social, cache_toggle):
        targets = random_subset(social, 12, 3)

        def run():
            problem = ClosenessProblem(social, targets, seed=3, backend="csr")
            exact = problem.exact_evaluation()
            losses = [
                problem.sample_losses(random.Random(draw)) for draw in range(5)
            ]
            return exact.risks, exact.lambda_exact, losses

        results = self._cache_matrix(cache_toggle, run)
        assert results[False] == results[True]

    def test_saphyra_cc_cached_vs_uncached_vs_workers(self, social, cache_toggle):
        targets = random_subset(social, 10, 5)

        def run(workers=0):
            return SaPHyRaCC(
                0.1, 0.1, seed=7, max_samples_cap=200, workers=workers
            ).rank(social, targets)

        results = self._cache_matrix(cache_toggle, run)
        assert results[False].closeness == results[True].closeness
        assert results[False].ranking == results[True].ranking
        cache_toggle(True)
        assert run(workers=2).closeness == results[True].closeness

    def test_repeated_rank_hits_the_cache(self, social, cache_toggle):
        from repro.engine import clear_default_dag_cache, default_dag_cache

        cache_toggle(True)
        clear_default_dag_cache()
        targets = random_subset(social, 8, 6)
        first = SaPHyRaCC(0.1, 0.1, seed=7, max_samples_cap=100).rank(
            social, targets
        )
        hits_before = default_dag_cache().hits
        second = SaPHyRaCC(0.1, 0.1, seed=7, max_samples_cap=100).rank(
            social, targets
        )
        assert default_dag_cache().hits > hits_before  # target sweep reused
        assert first.closeness == second.closeness


class _Handoff:
    """Spawn-pool handoff control: spills go to a per-test directory and
    are counted; :meth:`force_pickle` makes every later spill fail, so
    payloads take the pickle fallback."""

    def __init__(self, monkeypatch, spill_dir) -> None:
        from repro import parallel

        self._monkeypatch = monkeypatch
        self.spill_dir = spill_dir
        self.spills = 0
        real_spill = parallel._spill

        def counting_spill(csr):
            path = real_spill(csr)
            self.spills += 1
            return path

        monkeypatch.setattr(parallel, "_spill_dir", lambda: str(spill_dir))
        monkeypatch.setattr(parallel, "_spill", counting_spill)
        # spawn so payloads are actually pickled (fork inherits memory and
        # would exercise the in-process resolution only).
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")

    def force_pickle(self) -> None:
        from repro import parallel

        def refuse(csr):
            raise OSError("spill refused: forcing the pickle payload")

        self._monkeypatch.setattr(parallel, "_spill", refuse)

    def assert_spilled_and_cleaned(self) -> None:
        """The spawn pools spilled (numpy installs) and left no file."""
        assert self.spills >= (1 if csr_module.HAS_NUMPY else 0)
        assert list(self.spill_dir.iterdir()) == []


@pytest.fixture()
def handoff(monkeypatch, tmp_path):
    return _Handoff(monkeypatch, tmp_path)


class TestSnapshotHandoffEquivalence:
    """The snapshot-file CSR handoff never changes results: `workers > 1`
    runs under `spawn` (which actually ships payloads through pickling, so
    snapshots are spilled to files) are bit-identical to pickle-payload
    runs, to the serial path, and to the dict reference — and every
    spilled file is unlinked when the pools shut down."""

    @pytest.fixture(scope="class")
    def social(self):
        return barabasi_albert_graph(300, 3, seed=6)

    def test_exact_brandes_spilled_vs_pickle_vs_serial(self, social, handoff):
        reference = betweenness_centrality(social, backend="dict")
        serial = betweenness_centrality(social, backend="csr", workers=0)
        spilled = betweenness_centrality(social, backend="csr", workers=2)
        handoff.force_pickle()
        pickled = betweenness_centrality(social, backend="csr", workers=2)
        assert spilled == pickled == serial == reference
        handoff.assert_spilled_and_cleaned()

    def test_closeness_spilled_vs_pickle_vs_serial(self, social, handoff):
        reference = closeness_centrality(social, backend="dict")
        serial = closeness_centrality(social, backend="csr", workers=0)
        spilled = closeness_centrality(social, backend="csr", workers=2)
        handoff.force_pickle()
        pickled = closeness_centrality(social, backend="csr", workers=2)
        assert spilled == pickled == serial == reference
        handoff.assert_spilled_and_cleaned()

    def test_samplers_spilled_vs_pickle_vs_serial(self, social, handoff):
        runs = {}
        for mode in ("spilled", "pickled"):
            if mode == "pickled":
                handoff.force_pickle()
            for cls, cap in (
                (RiondatoKornaropoulos, 120),
                (KADABRA, 120),
                (ABRA, 80),
            ):
                for workers in (0, 2):
                    runs[mode, cls.__name__, workers] = cls(
                        0.1, 0.1, seed=7, max_samples_cap=cap,
                        backend="csr", workers=workers,
                    ).estimate(social)
        for name in ("RiondatoKornaropoulos", "KADABRA", "ABRA"):
            serial = runs["spilled", name, 0]
            spilled = runs["spilled", name, 2]
            pickled = runs["pickled", name, 2]
            assert spilled.scores == pickled.scores == serial.scores
            assert spilled.num_samples == pickled.num_samples == serial.num_samples
        handoff.assert_spilled_and_cleaned()

    def test_spill_unlinked_after_exception_mid_sweep(self, social, handoff):
        from repro import parallel
        from repro.engine.driver import sweep_sources
        from repro.centrality.closeness import _distance_stats_chunk

        payload = parallel.shareable_graph(social, "csr")
        assert isinstance(payload, parallel.SharedCSRPayload)
        seen = {"chunks": 0}

        def fold(chunk, stats):
            seen["chunks"] += 1
            raise RuntimeError("mid-sweep failure")

        with pytest.raises(RuntimeError, match="mid-sweep failure"):
            sweep_sources(
                _distance_stats_chunk,
                list(social.nodes()),
                fold,
                payload=(payload, "csr", False),
                workers=2,
            )
        assert seen["chunks"] == 1
        assert payload.spill_path is None
        handoff.assert_spilled_and_cleaned()

    @pytest.mark.skipif(not csr_module.HAS_NUMPY, reason="numpy unavailable")
    def test_unsaved_relabelled_snapshot_ships_as_a_small_file(self, handoff):
        import pickle

        from repro import parallel

        base = barabasi_albert_graph(200, 3, seed=4)
        graph = Graph.from_edges(
            (10_000 - 3 * u, 10_000 - 3 * v) for u, v in base.edges()
        )
        snapshot = csr_module.as_csr(graph)
        assert snapshot.source_path is None and not snapshot.identity_labels
        payload = parallel.shareable_graph(graph, "csr")
        try:
            blob = pickle.dumps(payload)
            assert len(blob) < 512
            attached = pickle.loads(blob)
            assert attached.labels == snapshot.labels
            assert attached.indptr.tobytes() == snapshot.indptr.tobytes()
            assert attached.indices.tobytes() == snapshot.indices.tobytes()
            assert snapshot.source_path is None  # the spill did not arm it
        finally:
            payload.release()
        serial = betweenness_centrality(graph, backend="csr", workers=0)
        spilled = betweenness_centrality(graph, backend="csr", workers=2)
        assert spilled == serial == betweenness_centrality(graph, backend="dict")
        handoff.assert_spilled_and_cleaned()

    def test_tuple_labels_fall_back_to_pickle(self, handoff, caplog):
        import logging

        base = barabasi_albert_graph(120, 3, seed=5)
        graph = Graph.from_edges(((u, "a"), (v, "a")) for u, v in base.edges())
        reference = betweenness_centrality(graph, backend="dict")
        serial = betweenness_centrality(graph, backend="csr", workers=0)

        def sample(workers):
            return KADABRA(
                0.1, 0.1, seed=3, max_samples_cap=200, backend="csr",
                workers=workers,
            ).estimate(graph)

        with caplog.at_level(logging.INFO, logger="repro.parallel"):
            pooled = betweenness_centrality(graph, backend="csr", workers=2)
            sampled = sample(2)
        assert pooled == serial == reference
        # Logging the fallback moves no RNG draw: sampled scores agree.
        assert sampled.scores == sample(0).scores
        reasons = [
            record.getMessage() for record in caplog.records
            if record.name == "repro.parallel"
        ]
        assert len(reasons) == 2  # one per pool
        expected = "not an int or str" if csr_module.HAS_NUMPY else "numpy"
        assert all(expected in reason for reason in reasons)
        assert handoff.spills == 0
        assert list(handoff.spill_dir.iterdir()) == []


class TestSubgraphDeterminism:
    """Satellite fix: ``Graph.subgraph`` preserves the caller's node order."""

    def test_subgraph_preserves_argument_order(self):
        graph = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        sub = graph.subgraph([3, 1, 2])
        assert list(sub.nodes()) == [3, 1, 2]

    def test_subgraph_ignores_unknown_and_duplicates(self):
        graph = Graph.from_edges([(0, 1), (1, 2)])
        sub = graph.subgraph([2, 99, 0, 2])
        assert list(sub.nodes()) == [2, 0]
        assert sub.number_of_edges() == 0

    def test_subgraph_identical_across_runs(self):
        # The old set-based implementation made node order depend on hash
        # randomisation; the ordered rebuild must be stable run to run.
        graph = Graph.from_edges([("x", "y"), ("y", "z"), ("z", "x")])
        orders = {tuple(graph.subgraph(["z", "x"]).nodes()) for _ in range(10)}
        assert orders == {("z", "x")}


# ----------------------------------------------------------------------
# Weighted SSSP engine (PR 5)
# ----------------------------------------------------------------------
WEIGHTED_GRAPH_CASES = [
    pytest.param(
        lambda seed: weighted_barabasi_albert_graph(120, 3, seed=seed),
        id="weighted-ba",
    ),
    pytest.param(
        lambda seed: weighted_grid_road_graph(8, 9, seed=seed)[0],
        id="weighted-grid",
    ),
]


def _oracle_weighted_betweenness(graph):
    """Brute-force weighted betweenness oracle (unnormalised, ordered pairs).

    Independent of the Brandes backward pass: run one dict Dijkstra per
    source, then sum ``sigma_s(v) * sigma_v(t) / sigma_st`` over every pair
    with ``d_s(v) + d_v(t) = d_s(t)`` — the combinatorial definition.  The
    on-path test uses a relative tolerance: the two sides sum the same edge
    weights in different association orders, so exact float equality would
    spuriously reject true decompositions.  With continuous random weights
    real ties at the tolerance boundary have probability zero.
    """
    from repro.graphs.traversal import dict_dijkstra_dag

    nodes = list(graph.nodes())
    dags = {node: dict_dijkstra_dag(graph, node) for node in nodes}
    scores = {node: 0.0 for node in nodes}
    for s in nodes:
        ds = dags[s]
        for t in nodes:
            if t == s or t not in ds.distances:
                continue
            sigma_st = ds.sigma[t]
            d_st = ds.distances[t]
            for v in nodes:
                if v == s or v == t or v not in ds.distances:
                    continue
                dv = dags[v]
                if t not in dv.distances:
                    continue
                through = ds.distances[v] + dv.distances[t]
                if abs(through - d_st) <= 1e-9 * max(1.0, abs(d_st)):
                    scores[v] += ds.sigma[v] * dv.sigma[t] / sigma_st
    return scores


@pytest.mark.parametrize("make_graph", WEIGHTED_GRAPH_CASES)
@pytest.mark.parametrize("seed", (0, 1))
class TestWeightedTraversalEquivalence:
    """dict Dijkstra vs CSR Dijkstra: bit-identical DAGs and distances."""

    def test_weighted_dag_identical(self, make_graph, seed):
        graph = make_graph(seed)
        assert graph.is_weighted
        for source in list(graph.nodes())[:3]:
            reference = shortest_path_dag(graph, source, backend="dict")
            candidate = shortest_path_dag(graph, source, backend="csr")
            assert reference.weighted and candidate.weighted
            assert reference.distances == candidate.distances
            assert reference.sigma == candidate.sigma
            assert reference.order == candidate.order
            assert reference.predecessors == candidate.predecessors

    def test_weighted_distances_identical(self, make_graph, seed):
        from repro.graphs.traversal import sssp_distances

        graph = make_graph(seed)
        for source in list(graph.nodes())[:4]:
            reference = sssp_distances(graph, source, backend="dict")
            candidate = sssp_distances(graph, source, backend="csr")
            assert reference == candidate
            assert list(reference) == list(candidate)

    def test_weighted_sigma_sweep_matches_dags(self, make_graph, seed):
        from repro.graphs import csr as csr_module

        graph = make_graph(seed)
        snapshot = csr_module.as_csr(graph)
        sources = list(range(min(4, snapshot.n)))
        rows = csr_module.multi_source_sweep(
            snapshot, sources, kind=csr_module.SWEEP_SIGMA, weighted=True
        )
        for source, (dist_row, sigma_row) in zip(sources, rows):
            dag = csr_module.csr_dijkstra_dag(snapshot, source)
            assert list(dist_row) == list(dag.dist)
            assert list(sigma_row) == list(dag.sigma)

    def test_weighted_sampled_paths_identical(self, make_graph, seed):
        graph = make_graph(seed)
        nodes = list(graph.nodes())
        source = nodes[0]
        reference = shortest_path_dag(graph, source, backend="dict")
        candidate = shortest_path_dag(graph, source, backend="csr")
        for target in nodes[-4:]:
            if target == source or target not in reference.distances:
                continue
            for draw in range(3):
                assert reference.sample_path(
                    target, random.Random(draw)
                ) == candidate.sample_path(target, random.Random(draw))


@pytest.mark.parametrize("make_graph", WEIGHTED_GRAPH_CASES)
class TestWeightedCentralityEquivalence:
    """Weighted Brandes/closeness: dict == csr == workers>0, and both agree
    with an independent brute-force Dijkstra oracle."""

    def test_weighted_dependencies_identical(self, make_graph):
        graph = make_graph(3)
        for source in list(graph.nodes())[:3]:
            reference = single_source_dependencies(graph, source, backend="dict")
            candidate = single_source_dependencies(graph, source, backend="csr")
            assert reference == candidate

    def test_weighted_betweenness_backends_and_workers(self, make_graph):
        graph = make_graph(4)
        reference = betweenness_centrality(graph, backend="dict")
        assert betweenness_centrality(graph, backend="csr") == reference
        assert (
            betweenness_centrality(graph, backend="csr", workers=2) == reference
        )
        assert (
            betweenness_centrality(graph, backend="dict", workers=2) == reference
        )

    def test_weighted_closeness_backends_and_workers(self, make_graph):
        graph = make_graph(5)
        reference = closeness_centrality(graph, backend="dict")
        assert closeness_centrality(graph, backend="csr") == reference
        assert closeness_centrality(graph, backend="csr", workers=2) == reference

    def test_weighted_betweenness_matches_oracle(self, make_graph):
        graph = make_graph(6)
        if graph.number_of_nodes() > 60:
            graph = graph.subgraph(list(graph.nodes())[:60])
        oracle = _oracle_weighted_betweenness(graph)
        computed = betweenness_centrality(
            graph, backend="csr", normalized=False
        )
        assert set(oracle) == set(computed)
        for node, value in oracle.items():
            assert computed[node] == pytest.approx(value, abs=1e-9)

    def test_weighted_closeness_matches_oracle(self, make_graph):
        from repro.graphs.traversal import dict_dijkstra_dag

        graph = make_graph(7)
        n = graph.number_of_nodes()
        computed = closeness_centrality(graph, backend="csr")
        for node in list(graph.nodes())[:5]:
            distances = dict_dijkstra_dag(graph, node).distances
            reachable = len(distances)
            total = sum(distances[v] for v in distances if v != node)
            expected = 0.0
            if total > 0 and n > 1 and reachable > 1:
                expected = (reachable - 1) / total * (reachable - 1) / (n - 1)
            assert computed[node] == pytest.approx(expected, rel=1e-12)


class TestWeightedEstimatorEquivalence:
    """ABRA/RK/KADABRA/Bader on weighted graphs: dict == csr == workers>0,
    cache on == cache off, and the Dijkstra DAGs actually flow through the
    weighted cache keys."""

    @pytest.fixture(scope="class")
    def weighted_social(self):
        return weighted_barabasi_albert_graph(150, 3, seed=9)

    @pytest.mark.parametrize("estimator_cls", [ABRA, KADABRA, RiondatoKornaropoulos])
    def test_weighted_sampler_backends_and_workers(
        self, estimator_cls, weighted_social
    ):
        def run(backend, workers):
            return estimator_cls(
                0.3, 0.1, seed=13, backend=backend, workers=workers,
                max_samples_cap=300,
            ).estimate(weighted_social)

        reference = run("dict", 0)
        for backend, workers in (("csr", 0), ("csr", 2), ("dict", 2)):
            result = run(backend, workers)
            assert result.scores == reference.scores
            assert result.num_samples == reference.num_samples
            assert result.extra["weighted"] == 1.0

    def test_weighted_bader_backends(self, weighted_social):
        from repro.baselines.bader import BaderPivot

        def run(backend, workers):
            return BaderPivot(
                0.3, 0.1, seed=13, backend=backend, workers=workers,
                num_pivots=24,
            ).estimate(weighted_social)

        reference = run("dict", 0)
        assert run("csr", 0).scores == reference.scores
        assert run("csr", 2).scores == reference.scores

    def test_weighted_cache_on_off_identical_and_exercised(self, weighted_social):
        from repro.engine import dag_cache as dag_cache_module
        from repro.engine.dag_cache import SourceDAGCache

        def run():
            return RiondatoKornaropoulos(
                0.3, 0.1, seed=21, backend="csr", max_samples_cap=300
            ).estimate(weighted_social)

        dag_cache_module.set_dag_cache_enabled(False)
        try:
            uncached = run()
        finally:
            dag_cache_module.set_dag_cache_enabled(None)
        dag_cache_module.clear_default_dag_cache()
        dag_cache_module.set_dag_cache_enabled(True)
        try:
            cached = run()
            stats = dag_cache_module.default_dag_cache().stats()
        finally:
            dag_cache_module.set_dag_cache_enabled(None)
            dag_cache_module.clear_default_dag_cache()
        assert cached.scores == uncached.scores
        assert stats["misses"] > 0  # the weighted keys were actually used

        # Weighted and unweighted traversals of the same source must land on
        # distinct cache keys.
        cache = SourceDAGCache(max_entries=8)
        source = next(iter(weighted_social.nodes()))
        weighted_dag = cache.dag(
            weighted_social, source, backend="csr", weighted=True
        )
        hop_dag = cache.dag(
            weighted_social, source, backend="csr", weighted=False
        )
        assert weighted_dag is not hop_dag
        assert cache.misses == 2 and cache.hits == 0


class TestUnitWeightAB:
    """Unit-weight graphs: ``weighted=auto`` must take the exact BFS path,
    and the forced-on Dijkstra engine must reproduce BFS distances."""

    @pytest.fixture(scope="class")
    def unit_social(self):
        return barabasi_albert_graph(150, 3, seed=9)

    def test_auto_is_bfs_dag_bit_for_bit(self, unit_social):
        source = next(iter(unit_social.nodes()))
        for backend in ("dict", "csr"):
            auto = shortest_path_dag(
                unit_social, source, backend=backend, weighted="auto"
            )
            off = shortest_path_dag(
                unit_social, source, backend=backend, weighted="off"
            )
            assert auto == off
            assert auto.weighted is False
            assert all(isinstance(d, int) for d in auto.distances.values())

    def test_auto_reproduces_bfs_sampled_path_exactly(self, unit_social):
        nodes = list(unit_social.nodes())
        source, target = nodes[0], nodes[-1]
        auto = shortest_path_dag(unit_social, source, weighted="auto")
        off = shortest_path_dag(unit_social, source, weighted="off")
        for draw in range(5):
            assert auto.sample_path(target, random.Random(draw)) == off.sample_path(
                target, random.Random(draw)
            )

    def test_forced_on_matches_bfs_distances(self, unit_social):
        from repro.graphs.traversal import sssp_distances

        for backend in ("dict", "csr"):
            for source in list(unit_social.nodes())[:3]:
                hop = bfs_distances(unit_social, source, backend=backend)
                dijkstra = sssp_distances(
                    unit_social, source, backend=backend, weighted="on"
                )
                assert set(hop) == set(dijkstra)
                assert all(float(hop[k]) == dijkstra[k] for k in hop)

    @pytest.mark.parametrize("estimator_cls", [ABRA, KADABRA, RiondatoKornaropoulos])
    def test_auto_equals_off_for_samplers(self, estimator_cls, unit_social):
        def run(weighted):
            return estimator_cls(
                0.3, 0.1, seed=17, backend="csr", weighted=weighted,
                max_samples_cap=200,
            ).estimate(unit_social)

        auto = run("auto")
        off = run("off")
        assert auto.scores == off.scores
        assert auto.num_samples == off.num_samples

    def test_auto_equals_off_for_exact_centrality(self, unit_social):
        assert betweenness_centrality(
            unit_social, backend="csr", weighted="auto"
        ) == betweenness_centrality(unit_social, backend="csr", weighted="off")
        assert closeness_centrality(
            unit_social, backend="csr", weighted="auto"
        ) == closeness_centrality(unit_social, backend="csr", weighted="off")


class TestWeightedSnapshotHandoff:
    """The weighted CSR snapshot (indptr, indices and weights in one file)
    rides the snapshot-file handoff with bit-identical results and no
    leftover spill files."""

    @pytest.fixture(scope="class")
    def weighted_social(self):
        return weighted_barabasi_albert_graph(200, 3, seed=6)

    @pytest.mark.skipif(not csr_module.HAS_NUMPY, reason="numpy unavailable")
    def test_payload_roundtrip_carries_weights(self, weighted_social, handoff):
        import pickle

        from repro import parallel

        payload = parallel.shareable_graph(weighted_social, "csr")
        assert isinstance(payload, parallel.SharedCSRPayload)
        try:
            snapshot = pickle.loads(pickle.dumps(payload))
            assert payload.spill_path is not None
            assert snapshot.is_weighted
            original = csr_module.as_csr(weighted_social)
            assert snapshot.weights.tobytes() == original.weights.tobytes()
            assert snapshot.indices.tobytes() == original.indices.tobytes()
        finally:
            payload.release()
        handoff.assert_spilled_and_cleaned()

    def test_weighted_brandes_spilled_vs_pickle_vs_serial(
        self, weighted_social, handoff
    ):
        reference = betweenness_centrality(weighted_social, backend="dict")
        serial = betweenness_centrality(weighted_social, backend="csr", workers=0)
        spilled = betweenness_centrality(weighted_social, backend="csr", workers=2)
        handoff.force_pickle()
        pickled = betweenness_centrality(weighted_social, backend="csr", workers=2)
        assert spilled == pickled == serial == reference
        handoff.assert_spilled_and_cleaned()

    def test_weighted_closeness_spilled_vs_pickle_vs_serial(
        self, weighted_social, handoff
    ):
        reference = closeness_centrality(weighted_social, backend="dict")
        serial = closeness_centrality(weighted_social, backend="csr", workers=0)
        spilled = closeness_centrality(weighted_social, backend="csr", workers=2)
        handoff.force_pickle()
        pickled = closeness_centrality(weighted_social, backend="csr", workers=2)
        assert spilled == pickled == serial == reference
        handoff.assert_spilled_and_cleaned()

    def test_weighted_sampler_spilled_vs_pickle_vs_serial(
        self, weighted_social, handoff
    ):
        # epsilon 0.1 draws 200 samples (four chunks), so workers=2 really
        # runs a pool; at 0.3 the 30 samples fit one chunk and ran serially.
        def run(workers):
            return RiondatoKornaropoulos(
                0.1, 0.1, seed=23, backend="csr", workers=workers,
                max_samples_cap=200,
            ).estimate(weighted_social)

        serial = run(0)
        spilled = run(2)
        handoff.force_pickle()
        pickled = run(2)
        assert spilled.scores == pickled.scores == serial.scores
        handoff.assert_spilled_and_cleaned()


class TestWeightedPathCounts:
    """Regression: ``path_counts_to`` on Dijkstra DAGs must propagate in
    topological (reverse settle) order.  The BFS level walk is wrong when
    equal-length shortest paths have different hop counts — common with
    integer weights (DIMACS road lengths, integer edge-list columns)."""

    def _integer_weighted(self, seed):
        rng = random.Random(seed)
        base = barabasi_albert_graph(80, 3, seed=seed)
        graph = Graph()
        for u, v in base.edges():
            graph.add_edge(u, v, weight=rng.choice([1, 2, 3, 4]))
        return graph

    def test_hop_heterogeneous_tie_counted(self):
        # s-a(1), a-b(1), b-t(1), a-t(2): two shortest s->t paths of length
        # 3 with different hop counts (3 hops via b, 2 hops direct).
        from repro.graphs.traversal import dict_dijkstra_dag

        graph = Graph.from_edges(
            [("s", "a", 1.0), ("a", "b", 1.0), ("b", "t", 1.0), ("a", "t", 2.0)]
        )
        dag = dict_dijkstra_dag(graph, "s")
        assert dag.sigma["t"] == 2
        beta = dag.path_counts_to("t")
        assert beta == {"t": 1.0, "a": 2.0, "b": 1.0, "s": 2.0}

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_beta_source_equals_sigma_target(self, seed):
        # Invariant: the number of shortest source->target paths counted
        # backwards (beta[source]) equals the forward count sigma[target].
        from repro.graphs import csr as csr_module
        from repro.graphs.traversal import dict_dijkstra_dag

        graph = self._integer_weighted(seed)
        nodes = list(graph.nodes())
        source = nodes[0]
        dag = dict_dijkstra_dag(graph, source)
        snapshot = csr_module.as_csr(graph)
        cdag = csr_module.csr_dijkstra_dag(snapshot, snapshot.index[source])
        labels = snapshot.labels
        for target in nodes[1:12]:
            beta = dag.path_counts_to(target)
            assert beta[source] == float(dag.sigma[target])
            cbeta = cdag.path_counts_to(snapshot.index[target])
            assert {labels[i]: v for i, v in cbeta.items()} == beta

    def test_integer_weight_abra_backends_identical(self):
        graph = self._integer_weighted(5)
        results = [
            ABRA(
                0.3, 0.1, seed=7, backend=backend, max_samples_cap=200
            ).estimate(graph)
            for backend in ("dict", "csr")
        ]
        assert results[0].scores == results[1].scores


class TestWeightedCompareGroundTruth:
    """compare_estimators scores each estimator against the ground truth of
    its own estimand: weighted Brandes for the weighted-aware estimators,
    hop Brandes for SaPHyRa/ego (which sample hop-shortest paths)."""

    def test_per_engine_truth(self):
        from repro.analysis import compare_estimators

        graph = weighted_barabasi_albert_graph(120, 3, seed=8)
        targets = list(graph.nodes())[:12]
        rows = compare_estimators(
            graph, targets, epsilon=0.1, delta=0.1, seed=3,
            estimators=("saphyra", "bader"), max_samples_cap=3000,
        )
        by_name = {row.name: row for row in rows}
        # Both estimators are scored against the truth of their own
        # estimand, so neither reports the workload-mismatch "errors" the
        # single-truth implementation produced (hop vs weighted Spearman on
        # this graph is ~0.7; per-engine scoring keeps rankings coherent).
        assert by_name["saphyra"].spearman > 0.9
        # Bader pivots run weighted Brandes: with *all* nodes as pivots the
        # estimate is exact, so its error against the weighted truth (and
        # only the weighted truth) is ~0.
        from repro.baselines.bader import BaderPivot

        exact = BaderPivot(
            0.3, 0.1, seed=3, num_pivots=graph.number_of_nodes()
        ).estimate(graph)
        weighted_truth = betweenness_centrality(graph, weighted="on")
        hop_truth = betweenness_centrality(graph, weighted="off")
        weighted_err = max(
            abs(exact.scores[node] - weighted_truth[node]) for node in targets
        )
        hop_err = max(
            abs(exact.scores[node] - hop_truth[node]) for node in targets
        )
        assert weighted_err < 1e-12
        assert hop_err > 1e-3  # the two estimands genuinely differ here

    def test_unit_graph_single_truth_unchanged(self):
        from repro.analysis import compare_estimators

        graph = barabasi_albert_graph(120, 3, seed=8)
        targets = list(graph.nodes())[:12]
        rows = compare_estimators(
            graph, targets, epsilon=0.3, delta=0.1, seed=3,
            estimators=("rk",), max_samples_cap=300,
        )
        assert rows[0].spearman is not None


# ----------------------------------------------------------------------
# Weighted SSSP kernel knob (PR 6): delta-stepping == Dijkstra == dict
# ----------------------------------------------------------------------
def _integer_tie_graph(seed):
    """Integer weights => many equal-length shortest paths (heavy tie load)."""
    rng = random.Random(seed)
    base = barabasi_albert_graph(80, 3, seed=seed)
    graph = Graph()
    for u, v in base.edges():
        graph.add_edge(u, v, weight=rng.choice([1, 2, 3]))
    return graph


KERNEL_GRAPH_CASES = WEIGHTED_GRAPH_CASES + [
    pytest.param(lambda seed: _integer_tie_graph(seed), id="integer-ties"),
]


class TestSSSPKernelEquivalence:
    """The ``sssp_kernel`` knob never changes results — only speed.

    Delta-stepping settles distances by bucket-ordered label correction,
    then re-pins Dijkstra's settle order / predecessor order / sigma from
    the final distances, so every output (including sampled paths and
    worker/spilled-snapshot runs) must be bit-identical across kernels and
    against the dict oracle.  Integer weights make equal-length shortest
    paths (and settle-order ties) common, exercising the tie-break
    reconstruction rather than the easy unique-path case.
    """

    @pytest.fixture()
    def kernel_toggle(self):
        from repro.graphs.sssp import set_default_sssp_kernel

        yield set_default_sssp_kernel
        set_default_sssp_kernel(None)

    @pytest.mark.parametrize("make_graph", KERNEL_GRAPH_CASES)
    @pytest.mark.parametrize("seed", (0, 1))
    def test_dag_bit_identical_across_kernels(self, make_graph, seed, kernel_toggle):
        graph = make_graph(seed)
        oracle = shortest_path_dag(graph, list(graph.nodes())[0], backend="dict")
        dags = {}
        for kernel in ("dijkstra", "delta"):
            kernel_toggle(kernel)
            dags[kernel] = shortest_path_dag(
                graph, list(graph.nodes())[0], backend="csr"
            )
        for dag in dags.values():
            assert dag.distances == oracle.distances
            assert dag.sigma == oracle.sigma
            assert dag.order == oracle.order
            assert dag.predecessors == oracle.predecessors

    @pytest.mark.parametrize("make_graph", KERNEL_GRAPH_CASES)
    @pytest.mark.parametrize("seed", (0, 1))
    def test_sampled_paths_identical_across_kernels(
        self, make_graph, seed, kernel_toggle
    ):
        graph = make_graph(seed)
        nodes = list(graph.nodes())
        source = nodes[0]
        reference = shortest_path_dag(graph, source, backend="dict")
        kernel_toggle("delta")
        candidate = shortest_path_dag(graph, source, backend="csr")
        for target in nodes[-4:]:
            if target == source or target not in reference.distances:
                continue
            for draw in range(3):
                assert reference.sample_path(
                    target, random.Random(draw)
                ) == candidate.sample_path(target, random.Random(draw))

    @pytest.mark.parametrize("make_graph", KERNEL_GRAPH_CASES)
    @pytest.mark.parametrize("kind", ("distance", "sigma", "brandes"))
    def test_sweeps_bit_identical_across_kernels(self, make_graph, kind):
        from repro.graphs import csr as csr_module

        graph = make_graph(0)
        snapshot = csr_module.as_csr(graph)
        sources = list(range(min(6, snapshot.n)))
        results = {
            kernel: csr_module.multi_source_sweep(
                snapshot, sources, kind=kind, weighted=True, sssp_kernel=kernel
            )
            for kernel in ("dijkstra", "delta")
        }
        for a, b in zip(results["dijkstra"], results["delta"]):
            if kind == "sigma":
                dist_a, sigma_a = a
                dist_b, sigma_b = b
                assert list(dist_a) == list(dist_b)
                assert list(sigma_a) == list(sigma_b)
            else:
                assert list(a) == list(b)

    @pytest.mark.parametrize("make_graph", KERNEL_GRAPH_CASES)
    def test_distances_with_order_identical(self, make_graph, kernel_toggle):
        from repro.graphs.traversal import sssp_distances

        graph = make_graph(0)
        source = list(graph.nodes())[0]
        reference = sssp_distances(graph, source, backend="dict")
        for kernel in ("dijkstra", "delta"):
            kernel_toggle(kernel)
            candidate = sssp_distances(graph, source, backend="csr")
            assert reference == candidate
            assert list(reference) == list(candidate)

    @pytest.mark.parametrize("workers", (0, 2))
    def test_centrality_workers_bitwise_across_kernels(
        self, workers, kernel_toggle
    ):
        graph = weighted_barabasi_albert_graph(120, 3, seed=6)
        reference = betweenness_centrality(graph, backend="dict")
        scores = {}
        for kernel in ("dijkstra", "delta"):
            kernel_toggle(kernel)
            scores[kernel] = betweenness_centrality(
                graph, backend="csr", workers=workers
            )
        assert scores["dijkstra"] == scores["delta"] == reference

    def test_spilled_vs_pickle_bitwise_delta(self, kernel_toggle, handoff):
        graph = weighted_barabasi_albert_graph(150, 3, seed=6)
        reference = betweenness_centrality(graph, backend="dict")
        kernel_toggle("delta")
        spilled = betweenness_centrality(graph, backend="csr", workers=2)
        handoff.force_pickle()
        pickled = betweenness_centrality(graph, backend="csr", workers=2)
        assert spilled == pickled == reference
        handoff.assert_spilled_and_cleaned()

    def test_sampler_identical_across_kernels(self, kernel_toggle):
        graph = weighted_barabasi_albert_graph(150, 3, seed=9)
        results = {}
        for kernel in ("dijkstra", "delta"):
            kernel_toggle(kernel)
            results[kernel] = ABRA(
                0.3, 0.1, seed=11, backend="csr", max_samples_cap=200
            ).estimate(graph)
        assert results["dijkstra"].scores == results["delta"].scores
        assert results["dijkstra"].num_samples == results["delta"].num_samples
