"""Unit tests for the delta-stepping kernel and its knobs (PR 6).

The bit-identity of delta-stepping against Dijkstra/dict is asserted at
scale in ``test_backend_equivalence.py``; this module covers the knob
machinery (``sssp_kernel``, ``compiled``), the bucket-width auto-tuning,
the pure-Python degradation, and the small helpers the kernel builds on.
"""

from __future__ import annotations

import random

import pytest

from repro import knobs
from repro.graphs import compiled as compiled_module
from repro.graphs import csr as csr_module
from repro.graphs import delta_stepping as delta_module
from repro.graphs import sssp
from repro.graphs.generators import (
    barabasi_albert_graph,
    weighted_barabasi_albert_graph,
    weighted_grid_road_graph,
)
from repro.graphs.graph import Graph


@pytest.fixture()
def clean_kernel_env(monkeypatch):
    monkeypatch.delenv(sssp.SSSP_KERNEL_ENV_VAR, raising=False)
    monkeypatch.delenv(compiled_module.COMPILED_ENV_VAR, raising=False)


class TestSSSPKernelKnob:
    def test_resolution_order(self, monkeypatch, clean_kernel_env):
        assert sssp.resolve_sssp_kernel() == "auto"
        monkeypatch.setenv(sssp.SSSP_KERNEL_ENV_VAR, "dijkstra")
        assert sssp.resolve_sssp_kernel() == "dijkstra"
        assert sssp.resolve_sssp_kernel("delta") == "delta"
        sssp.set_default_sssp_kernel("delta")
        try:
            assert sssp.resolve_sssp_kernel() == "delta"
            # The override mirrors into the environment for spawn workers.
            assert knobs.SSSP_KERNEL.env() == "delta"
        finally:
            sssp.set_default_sssp_kernel(None)
        assert sssp.resolve_sssp_kernel() == "dijkstra"  # displaced env restored

    def test_invalid_values_rejected(self, monkeypatch, clean_kernel_env):
        with pytest.raises(ValueError, match="sssp_kernel"):
            sssp.resolve_sssp_kernel("bfs")
        with pytest.raises(ValueError, match="sssp_kernel"):
            sssp.set_default_sssp_kernel("bellman-ford")
        monkeypatch.setenv(sssp.SSSP_KERNEL_ENV_VAR, "quantum")
        with pytest.raises(ValueError, match=sssp.SSSP_KERNEL_ENV_VAR):
            sssp.resolve_sssp_kernel()

    def test_auto_routes_batched_to_delta(self, clean_kernel_env):
        if csr_module.HAS_NUMPY:
            assert sssp.effective_sssp_kernel(batched=True) == "delta"
        else:
            assert sssp.effective_sssp_kernel(batched=True) == "dijkstra"
        # Single-source calls (thin frontiers) stay on the heap kernel.
        assert sssp.effective_sssp_kernel(batched=False) == "dijkstra"
        # Forced choices ignore the batched hint.
        assert sssp.effective_sssp_kernel("delta", batched=False) == "delta"
        assert sssp.effective_sssp_kernel("dijkstra", batched=True) == "dijkstra"

    def test_auto_without_numpy_stays_dijkstra(self, monkeypatch, clean_kernel_env):
        monkeypatch.setattr(csr_module, "HAS_NUMPY", False)
        assert sssp.effective_sssp_kernel(batched=True) == "dijkstra"

    def test_multi_source_sweep_rejects_bad_kernel(self):
        graph = weighted_barabasi_albert_graph(30, 2, seed=0)
        snapshot = csr_module.as_csr(graph)
        with pytest.raises(ValueError, match="sssp_kernel"):
            csr_module.multi_source_sweep(
                snapshot, [0, 1], weighted=True, sssp_kernel="dial"
            )

    def test_config_field_validation(self):
        from repro.experiments.config import ExperimentConfig

        config = ExperimentConfig.smoke()
        assert config.sssp_kernel is None and config.compiled is None
        ExperimentConfig(sssp_kernel="delta", compiled="off")  # valid
        with pytest.raises(ValueError, match="sssp_kernel"):
            ExperimentConfig(sssp_kernel="fast")
        with pytest.raises(ValueError, match="compiled"):
            ExperimentConfig(compiled="maybe")

    def test_cli_flags_accepted(self, clean_kernel_env):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["rank", "--sssp-kernel", "delta", "--compiled", "off"]
        )
        assert args.sssp_kernel == "delta"
        assert args.compiled == "off"


class TestCompiledKnob:
    def test_resolution_order(self, monkeypatch, clean_kernel_env):
        assert compiled_module.resolve_compiled() == "auto"
        monkeypatch.setenv(compiled_module.COMPILED_ENV_VAR, "off")
        assert compiled_module.resolve_compiled() == "off"
        assert compiled_module.resolve_compiled("on") == "on"
        compiled_module.set_default_compiled("off")
        try:
            assert compiled_module.resolve_compiled() == "off"
            assert knobs.COMPILED.env() == "off"
        finally:
            compiled_module.set_default_compiled(None)

    def test_invalid_values_rejected(self, monkeypatch, clean_kernel_env):
        with pytest.raises(ValueError, match="compiled"):
            compiled_module.resolve_compiled("jit")
        monkeypatch.setenv(compiled_module.COMPILED_ENV_VAR, "always")
        with pytest.raises(ValueError, match=compiled_module.COMPILED_ENV_VAR):
            compiled_module.resolve_compiled()

    def test_off_disables_tier(self, clean_kernel_env):
        assert compiled_module.compiled_enabled("off") is False
        assert compiled_module.get_kernel("relax_edges", "off") is None

    def test_on_without_numba_raises(self, monkeypatch, clean_kernel_env):
        monkeypatch.setattr(compiled_module, "HAS_NUMBA", False)
        with pytest.raises(ValueError, match="numba"):
            compiled_module.compiled_enabled("on")
        # "auto" degrades gracefully instead of raising.
        assert compiled_module.compiled_enabled("auto") is False
        assert compiled_module.get_kernel("relax_edges", "auto") is None

    def test_unknown_kernel_name_raises(self, clean_kernel_env):
        with pytest.raises(ValueError, match="unknown compiled kernel"):
            compiled_module.get_kernel("warp_speed")

    def test_tier_never_changes_results(self, clean_kernel_env):
        # With numba absent this exercises the graceful-degradation path;
        # with numba present it compares jitted vs pure-Python loops.
        graph = weighted_barabasi_albert_graph(60, 3, seed=1)
        snapshot = csr_module.as_csr(graph)
        compiled_module.set_default_compiled("off")
        try:
            off = delta_module.csr_delta_dag(snapshot, 0)
        finally:
            compiled_module.set_default_compiled(None)
        auto = delta_module.csr_delta_dag(snapshot, 0)
        assert list(off.dist) == list(auto.dist)
        assert list(off.sigma) == list(auto.sigma)
        assert list(off.order) == list(auto.order)


class TestAutoDelta:
    def test_unit_weight_snapshot_gets_unit_delta(self):
        graph = barabasi_albert_graph(40, 2, seed=0)
        snapshot = csr_module.as_csr(graph)
        assert delta_module.auto_delta(snapshot) == 1.0

    def test_weighted_delta_at_least_mean(self):
        graph = weighted_barabasi_albert_graph(80, 3, seed=2)
        snapshot = csr_module.as_csr(graph)
        weights = snapshot.weights
        mean = float(sum(weights)) / len(weights)
        value = delta_module.auto_delta(snapshot)
        assert value >= mean * (1 - 1e-12)

    def test_high_diameter_graph_gets_fat_buckets(self):
        # A 40x3 grid has hop eccentricity ~ 41 from the corner probe, far
        # above _TARGET_BUCKETS, so the range-based regime must kick in.
        graph = weighted_grid_road_graph(40, 3, seed=3)[0]
        snapshot = csr_module.as_csr(graph)
        weights = snapshot.weights
        mean = float(sum(weights)) / len(weights)
        assert delta_module.auto_delta(snapshot) > 1.5 * mean

    def test_cached_per_snapshot(self):
        graph = weighted_barabasi_albert_graph(40, 2, seed=4)
        snapshot = csr_module.as_csr(graph)
        assert delta_module.auto_delta(snapshot) == delta_module.auto_delta(snapshot)
        assert snapshot in delta_module._auto_delta_cache

    @pytest.mark.parametrize("bad", (0.0, -1.5, float("inf"), float("nan")))
    def test_explicit_delta_validated(self, bad):
        graph = weighted_barabasi_albert_graph(20, 2, seed=5)
        snapshot = csr_module.as_csr(graph)
        with pytest.raises(ValueError, match="delta"):
            delta_module.csr_delta_dag(snapshot, 0, delta=bad)

    def test_any_valid_delta_same_results(self):
        graph = weighted_barabasi_albert_graph(60, 3, seed=6)
        snapshot = csr_module.as_csr(graph)
        reference = csr_module.csr_dijkstra_dag(snapshot, 0)
        for delta in (0.25, 1.0, 7.0, 1e6):
            dag = delta_module.csr_delta_dag(snapshot, 0, delta=delta)
            assert list(dag.dist) == list(reference.dist)
            assert dag.sigma == reference.sigma
            assert list(dag.order) == list(reference.order)


@pytest.mark.skipif(not csr_module.HAS_NUMPY, reason="compares against numpy build")
class TestPurePythonFallback:
    def test_no_numpy_delta_matches_dijkstra(self, monkeypatch):
        graph = weighted_barabasi_albert_graph(70, 3, seed=7)
        reference_snapshot = csr_module.as_csr(graph)
        reference = csr_module.csr_dijkstra_dag(reference_snapshot, 0)
        monkeypatch.setattr(csr_module, "HAS_NUMPY", False)
        snapshot = csr_module.CSRGraph.from_graph(graph)
        dag = delta_module.csr_delta_dag(snapshot, 0)
        assert list(dag.dist) == list(reference.dist)
        assert list(dag.sigma) == list(reference.sigma)
        assert list(dag.order) == list(reference.order)
        assert list(dag.pred_indptr) == list(reference.pred_indptr)
        assert list(dag.pred_indices) == list(reference.pred_indices)

    def test_no_numpy_sweep_matches(self, monkeypatch):
        graph = weighted_barabasi_albert_graph(50, 2, seed=8)
        reference_snapshot = csr_module.as_csr(graph)
        expected = csr_module.multi_source_sweep(
            reference_snapshot, [0, 1, 2], kind="distance", weighted=True,
            sssp_kernel="dijkstra",
        )
        monkeypatch.setattr(csr_module, "HAS_NUMPY", False)
        snapshot = csr_module.CSRGraph.from_graph(graph)
        rows = delta_module.delta_sweep(snapshot, [0, 1, 2], kind="distance")
        for a, b in zip(expected, rows):
            assert list(a) == list(b)


@pytest.mark.skipif(not csr_module.HAS_NUMPY, reason="numpy-only helpers")
class TestKernelInternals:
    def test_dedup(self):
        import numpy as np

        assert delta_module._dedup(np.array([], dtype=np.int64)).size == 0
        out = delta_module._dedup(np.array([5, 3, 5, 3, 9], dtype=np.int64))
        assert out.tolist() == [3, 5, 9]
        out = delta_module._dedup(np.array([2, 1], dtype=np.int64))
        assert out.tolist() == [1, 2]

    def test_edge_split_partitions_all_edges(self):
        graph = weighted_barabasi_albert_graph(60, 3, seed=9)
        snapshot = csr_module.as_csr(graph)
        delta = delta_module.auto_delta(snapshot)
        split = delta_module._edge_split(snapshot, delta)
        light_indptr, light_indices, light_weights = split.light
        heavy_indptr, heavy_indices, heavy_weights = split.heavy
        assert light_indices.size + heavy_indices.size == snapshot.indices.size
        assert (light_weights < delta).all()
        if heavy_weights.size:
            assert (heavy_weights >= delta).all()
        # Per-node degree conservation.
        import numpy as np

        total = np.diff(light_indptr) + np.diff(heavy_indptr)
        assert (total == np.diff(snapshot.indptr)).all()

    def test_unique_path_sigma_fast_path(self):
        # Distinct powers of two make every shortest path unique, so the
        # all-ones fast path must agree with the accumulation loop.
        graph = Graph()
        edges = [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0), (0, 4, 8.0), (4, 5, 16.0)]
        for u, v, w in edges:
            graph.add_edge(u, v, weight=w)
        snapshot = csr_module.as_csr(graph)
        dag = delta_module.csr_delta_dag(snapshot, 0)
        reference = csr_module.csr_dijkstra_dag(snapshot, 0)
        assert dag.sigma == reference.sigma == [1, 1, 1, 1, 1, 1]

    def test_tie_heavy_sigma_loop_path(self):
        # A 2x2 grid of unit weights: 2 shortest paths to the far corner.
        graph = Graph.from_edges(
            [(0, 1, 2.0), (0, 2, 2.0), (1, 3, 2.0), (2, 3, 2.0)]
        )
        snapshot = csr_module.as_csr(graph)
        dag = delta_module.csr_delta_dag(snapshot, 0)
        reference = csr_module.csr_dijkstra_dag(snapshot, 0)
        assert dag.sigma == reference.sigma
        assert dag.sigma[3] == 2


class TestRandomisedBitIdentity:
    """Randomised cross-check on small graphs, both weight regimes."""

    @pytest.mark.parametrize("trial", range(6))
    def test_random_graphs(self, trial):
        rng = random.Random(trial)
        n = rng.randint(5, 30)
        graph = Graph()
        for node in range(n):
            graph.add_node(node)
        for _ in range(rng.randint(n, 3 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            weight = (
                float(rng.randint(1, 4)) if trial % 2 else rng.uniform(0.1, 2.5)
            )
            graph.add_edge(u, v, weight=weight)
        snapshot = csr_module.as_csr(graph)
        for source in range(min(n, 4)):
            reference = csr_module.csr_dijkstra_dag(snapshot, source)
            dag = delta_module.csr_delta_dag(snapshot, source)
            assert list(dag.dist) == list(reference.dist)
            assert dag.sigma == reference.sigma
            assert list(dag.order) == list(reference.order)
            assert list(dag.pred_indptr) == list(reference.pred_indptr)
            assert list(dag.pred_indices) == list(reference.pred_indices)
            brandes_ref = csr_module.csr_dijkstra_brandes(snapshot, source)
            brandes_delta = delta_module.csr_delta_brandes(snapshot, source)
            for a, b in zip(brandes_ref, brandes_delta):
                assert list(a) == list(b)
