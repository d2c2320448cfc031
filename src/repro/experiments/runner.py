"""Shared experiment runner: datasets, ground truth, algorithm execution.

The runner caches everything that the paper's experiments reuse across
configurations — the graphs, their block-cut trees, the exact ground truth,
and the whole-network baseline estimates (which do not depend on the target
subset) — so the figure drivers only pay for what actually changes.
"""

from __future__ import annotations

import math
import statistics
import zlib
from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.baselines import ABRA, KADABRA
from repro.baselines.base import BaselineResult
from repro.datasets.registry import Dataset, load
from repro.datasets.subsets import random_subset
from repro.datasets.ground_truth import GroundTruthCache
from repro.experiments.config import ExperimentConfig
from repro.graphs.block_cut_tree import BlockCutTree, build_block_cut_tree
from repro.knobs import apply_config
from repro.metrics.rank_correlation import kendall_tau, spearman_rank_correlation
from repro.metrics.zeros import classify_zeros
from repro.saphyra_bc.algorithm import SaPHyRaBC
from repro.utils.rng import ensure_rng

Node = Hashable

#: Display names used in tables (matches the paper's legends).
ALGORITHM_LABELS = {
    "abra": "ABRA",
    "kadabra": "KADABRA",
    "saphyra_full": "SaPHyRa_bc-full",
    "saphyra": "SaPHyRa_bc",
}


@dataclass
class SubsetEvaluation:
    """Metrics of one algorithm on one target subset."""

    dataset: str
    algorithm: str
    epsilon: float
    subset_index: int
    subset_size: int
    spearman: float
    kendall: float
    max_abs_error: float
    wall_time_seconds: float
    num_samples: int
    true_zero_fraction: float
    false_zero_fraction: float


@dataclass
class EpsilonSweepRow:
    """Aggregate of one (dataset, algorithm, epsilon) cell of Figs. 3-4."""

    dataset: str
    algorithm: str
    epsilon: float
    mean_time_seconds: float
    mean_spearman: float
    spearman_ci_low: float
    spearman_ci_high: float
    mean_samples: float
    num_subsets: int


def _stable_hash(text: str) -> int:
    """Deterministic string hash (Python's ``hash`` is salted per process)."""
    return zlib.crc32(text.encode("utf-8"))


def _confidence_interval(values: Sequence[float]) -> Tuple[float, float]:
    """95% normal-approximation confidence interval for the mean."""
    if not values:
        return (0.0, 0.0)
    mean = statistics.fmean(values)
    if len(values) < 2:
        return (mean, mean)
    half_width = 1.96 * statistics.stdev(values) / math.sqrt(len(values))
    return (mean - half_width, mean + half_width)


class ExperimentRunner:
    """Caching executor behind all figure and table drivers."""

    def __init__(self, config: Optional[ExperimentConfig] = None) -> None:
        self.config = config if config is not None else ExperimentConfig.default()
        self._knobs_applied = False
        self._datasets: Dict[str, Dataset] = {}
        self._block_cut_trees: Dict[str, BlockCutTree] = {}
        self._ground_truth_cache = GroundTruthCache()
        self._whole_network_cache: Dict[Tuple[str, str, float], BaselineResult] = {}
        self._full_saphyra_cache: Dict[Tuple[str, float], "SaPHyRaAsBaseline"] = {}

    # ------------------------------------------------------------------
    # Cached resources
    # ------------------------------------------------------------------
    def dataset(self, name: str) -> Dataset:
        """Load (and cache) a dataset at the configured scale."""
        if not self._knobs_applied:
            # Applied on first real work, not in the constructor, so merely
            # building or inspecting a runner flips nothing.
            apply_config(self.config)
            self._knobs_applied = True
        if name not in self._datasets:
            self._datasets[name] = load(
                name, scale=self.config.scale, seed=self.config.seed
            )
        return self._datasets[name]

    def block_cut_tree(self, name: str) -> BlockCutTree:
        """The block-cut tree of a dataset's graph (built once)."""
        if name not in self._block_cut_trees:
            self._block_cut_trees[name] = build_block_cut_tree(self.dataset(name).graph)
        return self._block_cut_trees[name]

    def ground_truth(self, name: str) -> Dict[Node, float]:
        """Exact betweenness of every node of the dataset (computed once)."""
        key = f"{name}@{self.config.scale}#{self.config.seed}"
        return self._ground_truth_cache.get(
            key, self.dataset(name).graph, workers=self.config.workers
        )

    def subsets(
        self, name: str, size: int, count: int, *, seed_offset: int = 0
    ) -> List[List[Node]]:
        """Deterministic random target subsets for a dataset."""
        rng = ensure_rng(self.config.seed + 1000 * seed_offset + _stable_hash(name) % 1000)
        graph = self.dataset(name).graph
        size = min(size, graph.number_of_nodes())
        return [random_subset(graph, size, rng) for _ in range(count)]

    # ------------------------------------------------------------------
    # Algorithm execution
    # ------------------------------------------------------------------
    def whole_network_estimate(
        self, algorithm: str, name: str, epsilon: float
    ) -> BaselineResult:
        """Run a whole-network estimator once per (dataset, epsilon)."""
        key = (algorithm, name, epsilon)
        if key not in self._whole_network_cache:
            graph = self.dataset(name).graph
            seed = self.config.seed + _stable_hash(f"{algorithm}|{name}|{epsilon}") % 100_000
            if algorithm == "abra":
                estimator = ABRA(
                    epsilon,
                    self.config.delta,
                    seed=seed,
                    max_samples_cap=self.config.max_samples_cap,
                    workers=self.config.workers,
                )
                result = estimator.estimate(graph)
            elif algorithm == "kadabra":
                estimator = KADABRA(
                    epsilon,
                    self.config.delta,
                    seed=seed,
                    max_samples_cap=self.config.max_samples_cap,
                    workers=self.config.workers,
                )
                result = estimator.estimate(graph)
            elif algorithm == "saphyra_full":
                result = self._run_saphyra(name, None, epsilon, seed).as_baseline()
            else:
                raise ValueError(f"unknown whole-network algorithm {algorithm!r}")
            self._whole_network_cache[key] = result
        return self._whole_network_cache[key]

    def _run_saphyra(
        self,
        name: str,
        targets: Optional[Sequence[Node]],
        epsilon: float,
        seed: int,
    ) -> "SaPHyRaAsBaseline":
        graph = self.dataset(name).graph
        bct = self.block_cut_tree(name)
        algorithm = SaPHyRaBC(
            epsilon,
            self.config.delta,
            seed=seed,
            max_samples_cap=self.config.max_samples_cap,
            workers=self.config.workers,
        )
        result = algorithm.rank(graph, targets, block_cut_tree=bct)
        return SaPHyRaAsBaseline(result)

    def subset_estimate(
        self,
        algorithm: str,
        name: str,
        targets: Sequence[Node],
        epsilon: float,
        *,
        run_index: int = 0,
    ) -> Tuple[Mapping[Node, float], float, int]:
        """Return ``(scores over targets, wall time, num samples)``.

        For whole-network algorithms the (cached) global estimate is
        projected onto the subset and the time reported is the global
        estimation time — exactly how the paper charges them, since they
        cannot restrict their work to a subset.
        """
        if algorithm in ("abra", "kadabra", "saphyra_full"):
            result = self.whole_network_estimate(algorithm, name, epsilon)
            return (
                result.subset_scores(targets),
                result.wall_time_seconds,
                result.num_samples,
            )
        if algorithm == "saphyra":
            seed = self.config.seed + 13 * run_index + 7919 * int(1000 * epsilon)
            run = self._run_saphyra(name, targets, epsilon, seed)
            return run.result.scores, run.result.wall_time_seconds, run.result.num_samples
        raise ValueError(f"unknown algorithm {algorithm!r}")

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate_subset(
        self,
        name: str,
        algorithm: str,
        epsilon: float,
        targets: Sequence[Node],
        subset_index: int,
    ) -> SubsetEvaluation:
        """Run one algorithm on one subset and compute every metric."""
        truth_all = self.ground_truth(name)
        truth = {node: truth_all[node] for node in targets}
        scores, wall_time, num_samples = self.subset_estimate(
            algorithm, name, targets, epsilon, run_index=subset_index
        )
        zeros = classify_zeros(truth, scores)
        return SubsetEvaluation(
            dataset=name,
            algorithm=algorithm,
            epsilon=epsilon,
            subset_index=subset_index,
            subset_size=len(targets),
            spearman=spearman_rank_correlation(truth, scores),
            kendall=kendall_tau(truth, scores),
            max_abs_error=max(abs(truth[n] - scores.get(n, 0.0)) for n in truth),
            wall_time_seconds=wall_time,
            num_samples=num_samples,
            true_zero_fraction=zeros.true_zero_fraction,
            false_zero_fraction=zeros.false_zero_fraction,
        )

    def epsilon_sweep(
        self,
        *,
        datasets: Optional[Sequence[str]] = None,
        algorithms: Optional[Sequence[str]] = None,
    ) -> List[EpsilonSweepRow]:
        """The Fig. 3 / Fig. 4 workload: epsilon grid x datasets x algorithms."""
        datasets = list(datasets if datasets is not None else self.config.datasets)
        algorithms = list(
            algorithms if algorithms is not None else self.config.algorithms
        )
        rows: List[EpsilonSweepRow] = []
        for name in datasets:
            subsets = self.subsets(
                name, self.config.subset_size, self.config.num_subsets
            )
            for epsilon in self.config.epsilon_grid():
                for algorithm in algorithms:
                    evaluations = [
                        self.evaluate_subset(name, algorithm, epsilon, subset, index)
                        for index, subset in enumerate(subsets)
                    ]
                    spearmans = [e.spearman for e in evaluations]
                    ci_low, ci_high = _confidence_interval(spearmans)
                    rows.append(
                        EpsilonSweepRow(
                            dataset=name,
                            algorithm=algorithm,
                            epsilon=epsilon,
                            mean_time_seconds=statistics.fmean(
                                e.wall_time_seconds for e in evaluations
                            ),
                            mean_spearman=statistics.fmean(spearmans),
                            spearman_ci_low=ci_low,
                            spearman_ci_high=ci_high,
                            mean_samples=statistics.fmean(
                                e.num_samples for e in evaluations
                            ),
                            num_subsets=len(evaluations),
                        )
                    )
        return rows


@dataclass
class SaPHyRaAsBaseline:
    """Adapter giving a SaPHyRa_bc run the whole-network baseline interface."""

    result: "object"  # BCRankingResult

    def as_baseline(self) -> BaselineResult:
        return BaselineResult(
            algorithm="saphyra_full",
            scores=dict(self.result.scores),
            num_samples=self.result.num_samples,
            epsilon=self.result.epsilon,
            delta=self.result.delta,
            converged_by=self.result.converged_by,
            wall_time_seconds=self.result.wall_time_seconds,
        )
