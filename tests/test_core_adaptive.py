"""Tests for the adaptive empirical-Bernstein sampler."""

from __future__ import annotations

import random

import pytest

from repro.core.adaptive import AdaptiveSampler
from repro.utils.rng import ensure_rng


def bernoulli_sampler(means, rng_holder):
    """Return a sample_losses callable drawing independent Bernoullis."""

    def sample(rng):
        rng = ensure_rng(rng)
        return {
            index: 1.0
            for index, mean in enumerate(means)
            if rng.random() < mean
        }

    return sample


class TestSampleSizes:
    def test_initial_smaller_than_maximum(self):
        sampler = AdaptiveSampler(0.05, 0.05, vc_dimension=4)
        assert sampler.initial_sample_size() <= sampler.maximum_sample_size()

    def test_maximum_grows_with_vc(self):
        small = AdaptiveSampler(0.05, 0.05, vc_dimension=1).maximum_sample_size()
        large = AdaptiveSampler(0.05, 0.05, vc_dimension=10).maximum_sample_size()
        assert large > small

    def test_cap_respected(self):
        sampler = AdaptiveSampler(0.01, 0.01, vc_dimension=10, max_samples_cap=500)
        assert sampler.maximum_sample_size() <= 500
        assert sampler.initial_sample_size() <= 500

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AdaptiveSampler(0.0, 0.1, 1)
        with pytest.raises(ValueError):
            AdaptiveSampler(0.1, 0.1, -1)


class TestEstimate:
    def test_estimates_close_to_truth(self):
        means = [0.05, 0.3, 0.6]
        sampler = AdaptiveSampler(0.05, 0.05, vc_dimension=2)
        result = sampler.estimate(
            bernoulli_sampler(means, None), len(means), rng=11
        )
        for estimate, mean in zip(result.estimates, means):
            assert abs(estimate - mean) < 0.05

    def test_stops_early_for_low_variance(self):
        # All-zero losses: variance 0, the Bernstein rule fires immediately.
        sampler = AdaptiveSampler(0.05, 0.05, vc_dimension=8)
        result = sampler.estimate(lambda rng: {}, 3, rng=1)
        assert result.converged_by == "bernstein"
        assert result.num_samples < sampler.maximum_sample_size()

    def test_high_variance_uses_more_samples(self):
        low = AdaptiveSampler(0.05, 0.05, vc_dimension=6).estimate(
            bernoulli_sampler([0.01], None), 1, rng=3
        )
        high = AdaptiveSampler(0.05, 0.05, vc_dimension=6).estimate(
            bernoulli_sampler([0.5], None), 1, rng=3
        )
        assert high.num_samples >= low.num_samples

    def test_never_exceeds_maximum(self):
        sampler = AdaptiveSampler(0.2, 0.2, vc_dimension=3, max_samples_cap=300)
        result = sampler.estimate(bernoulli_sampler([0.5, 0.5], None), 2, rng=5)
        assert result.num_samples <= sampler.maximum_sample_size()

    def test_deterministic_given_seed(self):
        sampler = AdaptiveSampler(0.1, 0.1, vc_dimension=2)
        first = sampler.estimate(bernoulli_sampler([0.2, 0.4], None), 2, rng=9)
        second = sampler.estimate(bernoulli_sampler([0.2, 0.4], None), 2, rng=9)
        assert first.estimates == second.estimates
        assert first.num_samples == second.num_samples

    def test_delta_allocations_length(self):
        sampler = AdaptiveSampler(0.1, 0.1, vc_dimension=2)
        result = sampler.estimate(bernoulli_sampler([0.2, 0.4, 0.1], None), 3, rng=2)
        assert len(result.delta_allocations) == 3
        assert all(value > 0 for value in result.delta_allocations)

    def test_invalid_hypothesis_count(self):
        sampler = AdaptiveSampler(0.1, 0.1, vc_dimension=1)
        with pytest.raises(ValueError):
            sampler.estimate(lambda rng: {}, 0)

    def test_deviations_reported(self):
        sampler = AdaptiveSampler(0.1, 0.1, vc_dimension=1)
        result = sampler.estimate(bernoulli_sampler([0.3], None), 1, rng=4)
        assert len(result.deviations) == 1
        if result.converged_by == "bernstein":
            assert result.deviations[0] <= 0.1


class _ChunkProblem:
    """A payload drawing whole chunk groups through
    ``sample_losses_streams``, one ``(rng, draws)`` stream per chunk."""

    def __init__(self, means):
        self.means = means
        self.chunks = []
        self.groups = []

    def sample_losses(self, rng):  # pragma: no cover - must not be called
        raise AssertionError("a chunk-level sampler is drawn chunk by chunk")

    def sample_losses_streams(self, streams):
        self.groups.append([draws for _, draws in streams])
        sample = bernoulli_sampler(self.means, None)
        batches = []
        for rng, draws in streams:
            self.chunks.append(draws)
            batches.append([sample(rng) for _ in range(draws)])
        return batches


class TestChunkLevelSampler:
    def test_batch_sampler_draws_whole_chunks(self):
        means = [0.1, 0.4]
        problem = _ChunkProblem(means)
        sampler = AdaptiveSampler(0.1, 0.1, vc_dimension=2)
        result = sampler.estimate(
            problem.sample_losses, len(means), rng=5, workers=0, payload=problem
        )
        assert sum(problem.chunks) == result.num_samples + result.num_pilot_samples
        assert max(problem.chunks) <= 64
        # In-process, one call draws several chunks' streams at once.
        assert max(len(group) for group in problem.groups) > 1

    def test_batch_of_per_draw_samples_equals_per_draw_sampler(self):
        # Drawing a chunk in one call in per-draw order reproduces the
        # per-draw sampler exactly: the hook changes who loops, not the
        # stream.
        means = [0.2, 0.5, 0.7]
        per_draw = AdaptiveSampler(0.1, 0.1, vc_dimension=2).estimate(
            bernoulli_sampler(means, None), len(means), rng=9
        )
        problem = _ChunkProblem(means)
        batched = AdaptiveSampler(0.1, 0.1, vc_dimension=2).estimate(
            problem.sample_losses, len(means), rng=9, payload=problem
        )
        assert batched.estimates == per_draw.estimates
        assert batched.num_samples == per_draw.num_samples


class TestGuarantee:
    def test_epsilon_delta_guarantee_over_repetitions(self):
        """Repeated runs should miss the (epsilon) target far less often than
        delta (the bound is conservative)."""
        means = [0.1, 0.45]
        epsilon, delta = 0.08, 0.2
        failures = 0
        trials = 30
        for trial in range(trials):
            sampler = AdaptiveSampler(epsilon, delta, vc_dimension=2)
            result = sampler.estimate(
                bernoulli_sampler(means, None), len(means), rng=trial
            )
            if any(
                abs(estimate - mean) >= epsilon
                for estimate, mean in zip(result.estimates, means)
            ):
                failures += 1
        assert failures <= max(2, int(2 * delta * trials))
