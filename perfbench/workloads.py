"""The benchmark's workloads, their correctness checks and their metrics.

Every workload is a closed loop with one client: the next query starts
after the previous one returns, until the next query would end past the
run's time budget (at least one query always runs).  Inputs come from the
workload seed only; the program sees just the generated graph, targets and
edits.  Each query's output is checked against exact Brandes betweenness
computed outside the timed region.

With tracing on, each query runs twice back to back: untraced, then with
the layer wrappers of :mod:`tracer` installed.  The two outputs must be
identical, and the traced time over the untraced time is the tracing
overhead.
"""

from __future__ import annotations

import gc
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import repro.analysis as analysis
import repro.baselines as baselines
import repro.centrality.brandes as brandes
import repro.datasets as datasets
import repro.engine.dag_cache as dag_cache
import repro.graphs.csr as csr
import repro.saphyra_bc as saphyra_bc

from hostspeed import NOMINAL_SECONDS, HostSpeed, sample
from tracer import Tracer

EPSILON = 0.05
DELTA = 0.01
SUBSET_SIZE = 50
#: ``setup_s`` repeats dataset load plus first ``as_csr`` this many times
#: before the query loop, then once per this many seconds of the loop, so
#: its median spans the run rather than one moment of the host.
SETUP_REPEATS = 5
SETUP_INTERVAL = 2.0
#: Every workload runs on one fixed surrogate graph, as on a real network;
#: the workload seed draws the query stream (targets, estimator seeds, edits).
GRAPH_SEED = 0
#: Worker processes for the exact ground truth and for ``compare-social``.
WORKERS = 2
COMPARE_ESTIMATORS = ("saphyra", "kadabra", "abra", "rk", "bader")
#: ``edit-rerank``: each step of the loop is a session of this many
#: edit+rerank rounds (each round one measured query) on a freshly loaded
#: graph, so memory retained across rounds is measured over a fixed
#: history whatever the program's speed.
EDIT_ROUNDS = 8
EDITS_PER_ROUND = 4
EDIT_EPSILON = 0.1


@dataclass
class Timing:
    """One measured call's seconds, and its traced replay's (0 untraced)."""

    seconds: float
    traced_seconds: float = 0.0


@dataclass
class Round:
    """One measured call: its cost and its checked quality."""

    timing: Timing
    samples: int
    spearman: float
    max_err_eps: float


@dataclass
class Tally:
    """Everything one run measured."""

    setup_seconds: List[float] = field(default_factory=list)
    #: Set-up times scaled by the host speed sampled right after each.
    setup_scaled: List[float] = field(default_factory=list)
    #: Host-speed factor of the whole query loop (see hostspeed).
    loop_scale: float = 1.0
    rounds: List[Round] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    dag_cache: Dict[str, float] = field(
        default_factory=lambda: {
            "hits": 0, "misses": 0, "entries": 0, "cost": 0, "delta_retained": 0,
        }
    )

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def spearman(truth: Dict, scores: Dict) -> float:
    """Spearman correlation with average ranks for ties (1.0 if constant)."""
    nodes = list(truth)
    a = _average_ranks([truth[node] for node in nodes])
    b = _average_ranks([scores[node] for node in nodes])
    mean_a = statistics.fmean(a)
    mean_b = statistics.fmean(b)
    cov = sum((x - mean_a) * (y - mean_b) for x, y in zip(a, b))
    var_a = sum((x - mean_a) ** 2 for x in a)
    var_b = sum((y - mean_b) ** 2 for y in b)
    if var_a == 0 or var_b == 0:
        return 1.0 if var_a == var_b else 0.0
    return cov / math.sqrt(var_a * var_b)


def _average_ranks(values: List[float]) -> List[float]:
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        end = start
        while end + 1 < len(order) and values[order[end + 1]] == values[order[start]]:
            end += 1
        for position in range(start, end + 1):
            ranks[order[position]] = (start + end) / 2.0
        start = end + 1
    return ranks


def check_scores(truth: Dict, scores: Dict, epsilon: float, label: str) -> tuple:
    """``(spearman, max error / epsilon, problems)`` of one estimate."""
    problems = []
    if set(scores) != set(truth):
        problems.append(f"{label}: scored nodes differ from the requested ones")
        return 0.0, math.inf, problems
    if not all(math.isfinite(value) for value in scores.values()):
        problems.append(f"{label}: non-finite score")
        return 0.0, math.inf, problems
    error = max(abs(scores[node] - truth[node]) for node in truth) / epsilon
    if error > 1.0:
        problems.append(f"{label}: max error {error:.3f} epsilon exceeds the guarantee")
    return spearman(truth, scores), error, problems


def check_ranking(ranking: List, scores: Dict, label: str) -> List[str]:
    """The ranking must list every scored node once, by decreasing score."""
    if sorted(ranking) != sorted(scores):
        return [f"{label}: ranking is not a permutation of the targets"]
    values = [scores[node] for node in ranking]
    if any(later > earlier for earlier, later in zip(values, values[1:])):
        return [f"{label}: ranking is not in decreasing score order"]
    return []


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
class Bench:
    """Runs a workload's queries within the time budget and tallies them."""

    def __init__(self, seconds: float, tracer: Optional[Tracer]) -> None:
        self.seconds = seconds
        self.tracer = tracer
        self.tally = Tally()
        self.speed: Optional[HostSpeed] = None
        self._load: Optional[Callable[[], object]] = None

    def setup(self, load: Callable[[], object]) -> object:
        """Time ``load`` (dataset load plus first ``as_csr``); return a graph.

        :meth:`loop` goes on timing it between queries.
        """
        self._load = load
        graph = self._time_setup()
        for _ in range(SETUP_REPEATS - 1):
            self._time_setup()
        return graph

    def _time_setup(self) -> object:
        gc.collect()
        start = time.perf_counter()
        if self.tracer is None:
            graph = self._load()
        else:
            with self.tracer.installed():
                graph = self._load()
        seconds = time.perf_counter() - start
        self.tally.setup_seconds.append(seconds)
        self.tally.setup_scaled.append(seconds * NOMINAL_SECONDS / sample())
        return graph

    def loop(self, query: Callable[[int], None]) -> None:
        """Call ``query(0), query(1), ...`` until the budget would be passed."""
        self.speed = HostSpeed()
        start = time.perf_counter()
        count = 0
        while True:
            query(count)
            count += 1
            elapsed = time.perf_counter() - start
            while len(self.tally.setup_seconds) < SETUP_REPEATS + elapsed / SETUP_INTERVAL:
                self._time_setup()
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / count > self.seconds:
                break
        self.tally.loop_scale = self.speed.scale()

    def measure(self, call: Callable[[], object],
                traced_call: Optional[Callable[[], object]] = None,
                fingerprint: Callable[[object], object] = lambda result: result):
        """Run one timed query; with tracing, replay it traced and compare.

        Returns ``(result, timing)``; ``result`` is ``None`` when the call
        raised or the traced replay disagreed (both count as a failed query).
        """
        self.tally.attempted += 1
        try:
            start = time.perf_counter()
            result = call()
            seconds = time.perf_counter() - start
        except Exception as error:  # the run goes on; the query is failed
            self.tally.fail(f"query raised {type(error).__name__}: {error}")
            return None, None
        self.speed.after(seconds)
        timing = Timing(seconds)
        if self.tracer is None:
            return result, timing
        self.tracer.query_id += 1
        traced_call = traced_call or call
        cache_before = dag_cache.default_dag_cache().stats()
        try:
            with self.tracer.installed():
                with self.tracer.span("bench.query"):
                    start = time.perf_counter()
                    traced = traced_call()
                    timing.traced_seconds = time.perf_counter() - start
        except Exception as error:
            self.tally.fail(f"traced query raised {type(error).__name__}: {error}")
            return None, None
        self.speed.after(timing.traced_seconds)
        cache_after = dag_cache.default_dag_cache().stats()
        for key in self.tally.dag_cache:
            self.tally.dag_cache[key] += cache_after[key] - cache_before[key]
        if fingerprint(traced) != fingerprint(result):
            self.tally.fail("traced and untraced runs returned different results")
            return None, None
        return result, timing

    def record(self, timing: Timing, samples: int, checks: List[tuple]) -> None:
        """Add one query's round; ``checks`` are :func:`check_scores` results.

        A query that failed a check counts as failed and adds no round.
        """
        problems = [problem for _, _, found in checks for problem in found]
        if problems:
            self.tally.fail("; ".join(problems))
            return
        self.tally.rounds.append(
            Round(
                timing=timing,
                samples=samples,
                spearman=min(value for value, _, _ in checks),
                max_err_eps=max(error for _, error, _ in checks),
            )
        )


def _load(name: str, scale: float):
    def load():
        graph = datasets.load(name, scale=scale, seed=GRAPH_SEED).graph
        csr.as_csr(graph)
        return graph

    return load


def _query_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 100_003 + index)


def _draw_query(seed: int, index: int, nodes: List) -> tuple:
    """A query's random targets and estimator seed."""
    rng = _query_rng(seed, index)
    return rng.sample(nodes, min(SUBSET_SIZE, len(nodes))), rng.randrange(2**31)


def _exact(graph, weighted: str = "off") -> Dict:
    return brandes.betweenness_centrality(graph, workers=WORKERS, weighted=weighted)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def run_rank(bench: Bench, seed: int, dataset: str, scale: float) -> None:
    """``SaPHyRaBC.rank`` of random 50-node subsets, in-process sampling."""
    graph = bench.setup(_load(dataset, scale))
    truth = _exact(graph)
    nodes = sorted(graph.nodes())

    def query(index: int) -> None:
        targets, algo_seed = _draw_query(seed, index, nodes)

        def call():
            algorithm = saphyra_bc.SaPHyRaBC(EPSILON, DELTA, seed=algo_seed, workers=0)
            return algorithm.rank(graph, targets)

        result, timing = bench.measure(
            call, fingerprint=lambda r: (r.ranking, r.scores)
        )
        if result is None:
            return
        subset_truth = {node: truth[node] for node in targets}
        check = check_scores(subset_truth, result.scores, EPSILON, "saphyra")
        check[2].extend(check_ranking(result.ranking, result.scores, "saphyra"))
        bench.record(
            timing, result.num_samples + result.num_pilot_samples, [check]
        )

    bench.loop(query)


def run_compare(bench: Bench, seed: int, dataset: str, scale: float) -> None:
    """``compare_estimators`` with exact truth inside, as ``repro compare``."""
    graph = bench.setup(_load(dataset, scale))
    truth = _exact(graph)
    nodes = sorted(graph.nodes())

    def query(index: int) -> None:
        targets, algo_seed = _draw_query(seed, index, nodes)

        def call():
            return analysis.compare_estimators(
                graph, targets, epsilon=EPSILON, delta=DELTA, seed=algo_seed,
                estimators=COMPARE_ESTIMATORS, workers=WORKERS,
            )

        result, timing = bench.measure(
            call,
            fingerprint=lambda rows: [
                (row.name, row.num_samples, row.scores) for row in rows
            ],
        )
        if result is None:
            return
        subset_truth = {node: truth[node] for node in targets}
        checks = []
        for row in result:
            check = check_scores(subset_truth, row.scores, EPSILON, row.name)
            # compare_estimators scores against its own exact Brandes run;
            # it must report the error the outside ground truth gives.
            if row.max_abs_error is None or not math.isclose(
                row.max_abs_error, check[1] * EPSILON, rel_tol=1e-9, abs_tol=1e-15
            ):
                check[2].append(f"{row.name}: reported max error disagrees")
            checks.append(check)
        bench.record(
            timing, sum(row.num_samples for row in result), checks
        )

    bench.loop(query)


def run_edit(bench: Bench, seed: int, dataset: str, scale: float) -> None:
    """Sessions of edge reweights, each round followed by a KADABRA rerank."""
    load = _load(dataset, scale)
    bench.setup(load)

    def session(index: int) -> None:
        rng = _query_rng(seed, index)
        graph = load()
        # The traced replay runs on its own copy receiving the same edits.
        replica = load() if bench.tracer else None
        edges = sorted(graph.edges())
        for _ in range(EDIT_ROUNDS):
            edits = []
            for u, v in rng.sample(edges, EDITS_PER_ROUND):
                factor = 1.0 + rng.uniform(-0.01, 0.01)
                edits.append((u, v, graph.edge_weight(u, v) * factor))
            algo_seed = rng.randrange(2**31)

            def make_call(target):
                def call():
                    for u, v, weight in edits:
                        target.set_edge_weight(u, v, weight)
                    estimator = baselines.KADABRA(
                        EDIT_EPSILON, DELTA, seed=algo_seed, workers=0
                    )
                    return estimator.estimate(target)

                return call

            result, timing = bench.measure(
                make_call(graph),
                make_call(replica) if replica is not None else None,
                fingerprint=lambda r: r.scores,
            )
            if result is None:
                break
            truth = _exact(graph, weighted="on")
            check = check_scores(truth, result.scores, EDIT_EPSILON, "kadabra")
            bench.record(timing, result.num_samples, [check])
        # A new session starts from what a fresh process would have.
        del graph, replica
        dag_cache.clear_default_dag_cache()
        gc.collect()

    bench.loop(session)


WORKLOADS = {
    "rank-road": (run_rank, "usa-road", 0.6),
    "rank-social": (run_rank, "orkut", 2.0),
    "compare-social": (run_compare, "flickr", 2.0),
    "edit-rerank": (run_edit, "usa-road-weighted", 0.5),
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
