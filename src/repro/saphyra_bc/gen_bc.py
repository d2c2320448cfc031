"""``Gen_bc``: sampling shortest paths from the approximate subspace.

Algorithm 2 of the paper — multistage sampling followed by rejection:

1. pick a block ``C_i`` (among the blocks containing a target) with
   probability proportional to its pair weight ``W_i``;
2. pick a source ``s in C_i`` with probability ``r_i(s)(n - r_i(s)) / W_i``;
3. pick a target ``t in C_i \\ {s}`` with probability ``r_i(t)/(n - r_i(s))``;
4. pick a uniformly random shortest ``s``–``t`` path with a balanced
   bidirectional BFS (inside the block, where the path is guaranteed to
   stay);
5. reject and retry if the path lies in the exact subspace (length 2 with a
   target middle node).

The accepted paths are distributed exactly as ``D-tilde_c^(A)`` (Lemma 20).

:meth:`GenBC.sample_path_streams` draws several chunks at once, each from
its own RNG stream, in rounds: every stream draws its pending pairs first,
all rows of all streams are searched together (stacked per block, see
:func:`repro.graphs.bidirectional.bidirectional_shortest_paths_batch`),
then each row's path is sampled from its own stream, in row order, and
only each stream's rejected count is redrawn in the next round.  Streams
never share random numbers, so each one consumes exactly what it would
consume alone: this "pairs, then paths, per round" order fixes the RNG
consumption for any backend, worker count, chunk grouping or stacking
layout.  One stream is :meth:`GenBC.sample_paths`; a single draw is the
classic draw-search-sample-retry loop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import SamplingError
from repro.graphs.bidirectional import bidirectional_shortest_paths_batch
from repro.saphyra_bc.isp import PersonalizedISP
from repro.utils.rng import SeedLike, ensure_rng

Node = Hashable


@dataclass
class GenBCStatistics:
    """Counters describing the sampler's behaviour (used by diagnostics)."""

    samples_returned: int = 0
    rejections: int = 0
    pairs_drawn: int = 0
    visited_edges: int = 0
    path_length_histogram: Dict[int, int] = field(default_factory=dict)

    def merge(self, other: "GenBCStatistics") -> None:
        """Fold another statistics snapshot (e.g. from a worker) into this one."""
        self.samples_returned += other.samples_returned
        self.rejections += other.rejections
        self.pairs_drawn += other.pairs_drawn
        self.visited_edges += other.visited_edges
        for length, count in other.path_length_histogram.items():
            self.path_length_histogram[length] = (
                self.path_length_histogram.get(length, 0) + count
            )


class GenBC:
    """Sampler over the approximate PISP subspace.

    Parameters
    ----------
    space:
        The personalized ISP sample space.
    targets:
        The target nodes (defines both the rejection test and the sparse
        losses returned by :meth:`sample_losses`).
    max_rejections:
        Safety valve: the number of consecutive rejections after which
        :class:`~repro.errors.SamplingError` is raised (the exact subspace
        would have to cover essentially the whole space for this to happen).
    backend:
        Traversal backend for the in-block bidirectional searches; defaults
        to the sample space's backend.
    reject_exact_subspace:
        Disable to keep length-2 target-middle paths (the pure-sampling
        ablation of SaPHyRa_bc); a constructor flag rather than a patched
        method so the sampler stays picklable for worker processes.
    """

    def __init__(
        self,
        space: PersonalizedISP,
        targets: Sequence[Node],
        *,
        max_rejections: int = 100_000,
        backend: Optional[str] = None,
        reject_exact_subspace: bool = True,
    ) -> None:
        self.space = space
        self.backend = backend if backend is not None else space.backend
        self.targets = list(targets)
        self.target_set: Set[Node] = set(self.targets)
        self._target_index = {
            node: position for position, node in enumerate(self.targets)
        }
        self.max_rejections = max_rejections
        self.reject_exact_subspace = reject_exact_subspace
        self.stats = GenBCStatistics()

    # ------------------------------------------------------------------
    def sample_path(self, rng: SeedLike = None) -> List[Node]:
        """Draw one shortest path from ``D-tilde_c^(A)``."""
        return self.sample_paths(rng, 1)[0]

    def sample_paths(self, rng: SeedLike, count: int) -> List[List[Node]]:
        """Draw ``count`` shortest paths from ``D-tilde_c^(A)``: the
        one-stream case of :meth:`sample_path_streams`."""
        return self.sample_path_streams([(ensure_rng(rng), count)])[0]

    def sample_path_streams(
        self, streams: Sequence[Tuple[random.Random, int]]
    ) -> List[List[List[Node]]]:
        """Draw ``count`` paths from each ``(rng, count)`` stream; return
        them per stream, round by round, in row order — what each stream
        would return if drawn alone (see :meth:`_accepted`)."""
        accepted: List[List[List[Node]]] = [[] for _ in streams]
        for stream, path in self._accepted(streams):
            accepted[stream].append(path)
        return accepted

    def _accepted(
        self, streams: Sequence[Tuple[random.Random, int]]
    ) -> Iterator[Tuple[int, List[Node]]]:
        """Yield ``(stream, path)`` for every accepted path of the streams.

        Each round, every stream draws its pending pairs from its own RNG;
        the rows of all streams are searched together, then each row's
        path is sampled and tested from its own stream, in row order;
        rejected rows are redrawn by their stream in the next round.

        Raises
        ------
        SamplingError
            If some draw is rejected more than ``max_rejections`` times in
            a row.
        """
        stats = self.stats
        rngs = [rng for rng, _ in streams]
        pending = [count for _, count in streams]
        rounds = 0
        while any(pending):
            rows = [
                (stream, *self.space.sample_pair(rng))
                for stream, (rng, draws) in enumerate(zip(rngs, pending))
                for _ in range(draws)
            ]
            stats.pairs_drawn += len(rows)
            pending = [0] * len(streams)
            for stream, path in self._search_and_sample(rows, rngs):
                if self._in_exact_subspace(path):
                    pending[stream] += 1
                    stats.rejections += 1
                    continue
                stats.samples_returned += 1
                length = len(path) - 1
                stats.path_length_histogram[length] = (
                    stats.path_length_histogram.get(length, 0) + 1
                )
                yield stream, path
            rounds += 1
            if rounds > self.max_rejections and any(pending):
                raise SamplingError(
                    "rejection sampling exceeded "
                    f"{self.max_rejections} consecutive rejections; "
                    "the approximate subspace is (nearly) empty"
                )

    def _search_and_sample(self, rows, rngs) -> Iterator[Tuple[int, List[Node]]]:
        """Search ``(stream, block, source, target)`` rows stacked per
        block; yield ``(stream, path)`` per row in row order, each path
        sampled from its stream's RNG."""
        rows_by_block: Dict[int, List[tuple]] = {}
        for _, block_index, source, target in rows:
            rows_by_block.setdefault(block_index, []).append((source, target))
        searches = {
            block_index: bidirectional_shortest_paths_batch(
                self.space.search_graph(block_index, self.backend), block_pairs,
                backend=self.backend,
            )
            for block_index, block_pairs in rows_by_block.items()
        }
        for stream, block_index, _, _ in rows:
            yield stream, self._sample_result(
                next(searches[block_index]), block_index, rngs[stream]
            )

    def _sample_result(self, result, block_index: int, rng) -> List[Node]:
        # A separate frame, so no finished search outlives its path while
        # the next sub-batch runs.
        self.stats.visited_edges += result.visited_edges
        if not result.connected:  # pragma: no cover - blocks are connected
            raise SamplingError(
                f"nodes {result.source!r} and {result.target!r} are "
                f"disconnected inside block {block_index}; the decomposition "
                "is inconsistent"
            )
        return result.sample_path(rng)

    def sample_losses(self, rng: SeedLike = None) -> Dict[int, float]:
        """Draw one path and return the sparse losses of the target hypotheses.

        The loss of ``h_v`` is 1 iff ``v`` is an inner node of the path.
        """
        return self.sample_losses_batch(rng, 1)[0]

    def sample_losses_batch(
        self, rng: SeedLike, draws: int
    ) -> List[Dict[int, float]]:
        """The sparse losses of ``draws`` paths from :meth:`sample_paths`:
        the one-stream case of :meth:`sample_losses_streams`."""
        return self.sample_losses_streams([(ensure_rng(rng), draws)])[0]

    def sample_losses_streams(
        self, streams: Sequence[Tuple[random.Random, int]]
    ) -> List[List[Dict[int, float]]]:
        """The sparse losses of the paths of :meth:`sample_path_streams`,
        one list per stream (each path is reduced as soon as it is
        accepted, so no group of paths is held)."""
        target_index = self._target_index
        batches: List[List[Dict[int, float]]] = [[] for _ in streams]
        for stream, path in self._accepted(streams):
            batches[stream].append({
                position: 1.0
                for position in map(target_index.get, path[1:-1])
                if position is not None
            })
        return batches

    # ------------------------------------------------------------------
    def _in_exact_subspace(self, path: List[Node]) -> bool:
        """True iff the path has length 2 and its middle node is a target."""
        if not self.reject_exact_subspace:
            return False
        return len(path) == 3 and path[1] in self.target_set

    def acceptance_rate(self) -> Optional[float]:
        """Fraction of drawn pairs that produced an accepted sample."""
        if self.stats.pairs_drawn == 0:
            return None
        return self.stats.samples_returned / self.stats.pairs_drawn

    def take_stats(self) -> GenBCStatistics:
        """Detach and return the counters accumulated since the last call.

        Worker processes snapshot their local copy's counters per chunk this
        way; the master folds the snapshots back with
        :meth:`GenBCStatistics.merge`, so diagnostics match serial runs for
        any worker count.
        """
        stats = self.stats
        self.stats = GenBCStatistics()
        return stats
