"""Tests for the Exact_bc 2-hop exact-subspace evaluation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.centrality.brandes import betweenness_centrality
from repro.graphs.components import largest_connected_component
from repro.graphs.generators import erdos_renyi_graph, path_graph, star_graph
from repro.saphyra_bc.exact_bc import exact_two_hop_risks
from repro.saphyra_bc.isp import PersonalizedISP


def enumerate_exact_subspace(space: PersonalizedISP, targets):
    """Reference implementation: enumerate the PISP space and keep the
    length-2 paths whose middle node is a target."""
    target_set = set(targets)
    lambda_exact = 0.0
    risks = {node: 0.0 for node in targets}
    for path, probability in space.enumerate_paths():
        if len(path) == 3 and path[1] in target_set:
            lambda_exact += probability
            risks[path[1]] += probability
    return lambda_exact, risks


class TestAgainstEnumeration:
    def check(self, graph, targets):
        space = PersonalizedISP(graph, targets=targets)
        evaluation = exact_two_hop_risks(space, targets)
        expected_lambda, expected_risks = enumerate_exact_subspace(space, targets)
        assert evaluation.lambda_exact == pytest.approx(expected_lambda, abs=1e-9)
        for position, node in enumerate(targets):
            assert evaluation.risks[position] == pytest.approx(
                expected_risks[node], abs=1e-9
            ), node

    def test_karate_subset(self, karate):
        self.check(karate, [0, 2, 5, 11, 33])

    def test_karate_full(self, karate):
        self.check(karate, list(karate.nodes()))

    def test_path_graph(self):
        graph = path_graph(6)
        self.check(graph, [2, 3])

    def test_star_graph(self, star6):
        self.check(star6, [0, 1])

    def test_barbell(self, barbell):
        self.check(barbell, list(barbell.nodes())[:8])

    def test_two_triangles(self, two_triangles_shared_node):
        self.check(two_triangles_shared_node, [0, 1, 3])

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=20, deadline=None)
    def test_random_graphs(self, seed):
        rng = random.Random(seed)
        graph = erdos_renyi_graph(rng.randint(5, 14), 0.3, seed=rng.randint(0, 999))
        component = largest_connected_component(graph)
        if len(component) < 4:
            return
        graph = graph.subgraph(component)
        targets = rng.sample(list(graph.nodes()), min(4, len(component)))
        self.check(graph, targets)


class TestNoFalseZeros:
    def test_positive_betweenness_implies_positive_exact_risk(self, karate):
        """Lemma 19: every target with bc > 0 has a non-zero exact risk."""
        bc = betweenness_centrality(karate)
        targets = list(karate.nodes())
        space = PersonalizedISP(karate, targets=targets)
        evaluation = exact_two_hop_risks(space, targets)
        for position, node in enumerate(targets):
            if bc[node] > space.bct.bc_a[node] + 1e-12:
                assert evaluation.risks[position] > 0.0, node

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=20, deadline=None)
    def test_random_graphs_no_false_zeros(self, seed):
        rng = random.Random(seed)
        graph = erdos_renyi_graph(rng.randint(5, 15), 0.25, seed=rng.randint(0, 999))
        component = largest_connected_component(graph)
        if len(component) < 4:
            return
        graph = graph.subgraph(component)
        bc = betweenness_centrality(graph)
        targets = list(graph.nodes())
        space = PersonalizedISP(graph, targets=targets)
        evaluation = exact_two_hop_risks(space, targets)
        for position, node in enumerate(targets):
            if bc[node] > space.bct.bc_a[node] + 1e-12:
                assert evaluation.risks[position] > 0.0


class TestDiagnostics:
    def test_lambda_within_unit_interval(self, karate):
        space = PersonalizedISP(karate, targets=[0, 1, 2])
        evaluation = exact_two_hop_risks(space, [0, 1, 2])
        assert 0.0 <= evaluation.lambda_exact <= 1.0

    def test_work_counted(self, karate):
        space = PersonalizedISP(karate, targets=[0])
        evaluation = exact_two_hop_risks(space, [0])
        assert evaluation.work > 0

    def test_risks_bounded_by_lambda(self, karate):
        targets = [0, 1, 2, 3]
        space = PersonalizedISP(karate, targets=targets)
        evaluation = exact_two_hop_risks(space, targets)
        assert sum(evaluation.risks) <= evaluation.lambda_exact + 1e-9


class TestTargetsMustMatchSpace:
    def test_reordered_targets_rejected(self, karate):
        targets = [0, 5, 33]
        space = PersonalizedISP(karate, targets=targets)
        with pytest.raises(ValueError, match="space.targets"):
            exact_two_hop_risks(space, list(reversed(targets)))

    def test_other_targets_rejected(self, karate):
        space = PersonalizedISP(karate, targets=[0, 5, 33])
        with pytest.raises(ValueError):
            exact_two_hop_risks(space, [0, 5])

    def test_equal_sequence_accepted(self, karate):
        space = PersonalizedISP(karate, targets=[0, 5, 33])
        assert len(exact_two_hop_risks(space, (0, 5, 33)).risks) == 3
