"""The sampling loop driver and the ordered source-sweep fold.

These are the two loop bodies everything else composes:

* :class:`SampleDriver` — owns one :class:`repro.parallel.WorkerPool` and a
  global chunk counter.  ``run_batch`` draws a fixed number of samples;
  ``run_schedule`` runs a :class:`~repro.engine.schedule.SampleSchedule`
  against a :class:`~repro.engine.stopping.StoppingRule`.  Chunk layouts are
  a pure function of the schedule (continuing chunk indices across batches
  and stages) and partial results are folded in chunk order, so results are
  bit-identical for any worker count — the same contract the estimators
  implemented by hand before the port.  Each task receives a *group* of
  consecutive chunks (see :func:`chunk_groups`) and returns one partial per
  chunk, so a grouped task can share work across its chunks (Gen_bc
  stacks their searches) without touching any chunk's RNG stream.
* :func:`sweep_sources` — the fixed-work analogue: an ordered, chunked fold
  over a source list (exact Brandes, Bader pivots, closeness sweeps, ego
  networks), streaming chunk results through ``WorkerPool.imap`` so large
  per-source vectors never pile up.

Fold contract: a chunk task returns one *chunk-partial* — the reduction of
its chunk computed in-worker (e.g. exact Brandes returns one summed
dependency vector per chunk, not one vector per source) — and the master
folds partials strictly in chunk order.  The serial path (``workers=0``)
computes the identical chunk-partials in-process (a task per group of
chunks rather than per chunk), so the float accumulation order
is a pure function of the fixed chunk layout and worker counts never change
results, while the bytes shipped per chunk shrink from O(chunk x n) to
O(n).  Graph payloads go through :func:`repro.parallel.shareable_graph` so
CSR-backed sweeps hand the frozen snapshot to workers zero-copy via shared
memory instead of pickling the adjacency per process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro import parallel as _parallel
from repro.engine.schedule import SampleSchedule
from repro.engine.stopping import StoppingRule

T = TypeVar("T")

#: Draws per in-process task: consecutive chunks of one batch are grouped
#: up to this many draws (32 chunks of 64), which bounds the rows a grouped
#: task holds at once (Gen_bc keeps O(1) MB of pending pairs and search
#: state).  Worker pools keep one chunk per task, so dispatch and load
#: balance across processes are as before.  A fixed rule, not a setting:
#: grouping never changes results.
_GROUP_DRAWS = 2048


def chunk_groups(
    pieces: Sequence[Tuple[int, int]], workers: int
) -> List[Tuple[Tuple[int, int], ...]]:
    """Split one batch's ``(chunk_index, draws)`` pieces into task groups.

    With a worker pool (``workers > 1``) every chunk is its own group;
    in-process, consecutive chunks are grouped while the group's draws
    stay within :data:`_GROUP_DRAWS` (a group holds at least one chunk).
    """
    groups: List[Tuple[Tuple[int, int], ...]] = []
    group: List[Tuple[int, int]] = []
    drawn = 0
    for piece in pieces:
        if group and (workers > 1 or drawn + piece[1] > _GROUP_DRAWS):
            groups.append(tuple(group))
            group, drawn = [], 0
        group.append(piece)
        drawn += piece[1]
    if group:
        groups.append(tuple(group))
    return groups


class _PerChunk:
    """A one-chunk task ``task(payload, (chunk_index, draws))`` run over a
    group, one partial per chunk (picklable when ``task`` is a module-level
    function)."""

    def __init__(self, task: Callable) -> None:
        self.task = task

    def __call__(self, payload: object, group) -> List[object]:
        return [self.task(payload, piece) for piece in group]


@dataclass
class DriveOutcome:
    """Result of one :meth:`SampleDriver.run_schedule` run.

    Attributes
    ----------
    num_samples:
        Total samples drawn by the schedule (excludes earlier batches run
        through the same driver, e.g. a pilot).
    num_stages:
        Schedule stages executed.
    converged_by:
        The stopping rule's ``converged_label`` when it fired, its
        ``cap_label`` when the schedule cap was reached first.
    """

    num_samples: int
    num_stages: int
    converged_by: str


class SampleDriver:
    """Deterministic chunked sampling through one shared worker pool.

    Parameters
    ----------
    chunk_task:
        Picklable module-level function ``(payload, (chunk_index, draws))``
        returning one chunk's partial result.  The task must derive its RNG
        stream from the chunk index (:func:`repro.parallel.chunk_rng`).
        With ``grouped=True`` it takes a tuple of consecutive such pieces
        instead (:func:`chunk_groups`) and returns one partial per piece,
        in piece order.
    payload:
        Shared context shipped to each worker once; must be picklable when
        ``workers > 1``.
    workers:
        Worker processes (``None`` resolves via ``REPRO_WORKERS``).
    chunk_size:
        Draws per chunk; part of each estimator's definition (it fixes the
        RNG stream layout), so it defaults to the historical
        :data:`repro.parallel.SAMPLE_CHUNK_SIZE`.
    grouped:
        Whether ``chunk_task`` takes a group of chunks; a one-chunk task
        is run over each group by :class:`_PerChunk`.

    Use as a context manager; the pool is shut down on exit::

        with SampleDriver(_chunk, payload=..., workers=workers) as driver:
            driver.run_batch(pilot_size, fold_pilot)
            outcome = driver.run_schedule(schedule, rule, fold)
    """

    def __init__(
        self,
        chunk_task: Callable,
        *,
        payload: object = None,
        workers: Optional[int] = None,
        chunk_size: int = _parallel.SAMPLE_CHUNK_SIZE,
        grouped: bool = False,
    ) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = chunk_size
        self.next_chunk = 0
        self._pool = _parallel.WorkerPool(
            chunk_task if grouped else _PerChunk(chunk_task),
            payload=payload,
            workers=workers,
        )

    # ------------------------------------------------------------------
    def run_batch(self, count: int, fold: Callable[[object], None]) -> int:
        """Draw ``count`` samples; fold each chunk's partial in chunk order.

        Chunk indices continue from previous batches, so successive phases
        (pilot batch, then schedule stages) consume one global stream
        sequence exactly as the pre-engine estimators did.  Groups never
        span batches.
        """
        pieces = _parallel.plan_chunks(
            count, self.chunk_size, start_chunk=self.next_chunk
        )
        self.next_chunk += len(pieces)
        groups = chunk_groups(pieces, self._pool.workers)
        for partials in self._pool.map(groups):
            for partial in partials:
                fold(partial)
        return count

    def run_schedule(
        self,
        schedule: SampleSchedule,
        stopping: StoppingRule,
        fold: Callable[[object], None],
    ) -> DriveOutcome:
        """Draw stages until the stopping rule fires or the cap is reached."""
        drawn = 0
        stages = 0
        target = schedule.first_stage
        while True:
            stages += 1
            self.run_batch(target - drawn, fold)
            drawn = target
            if stopping.should_stop(drawn):
                return DriveOutcome(drawn, stages, stopping.converged_label)
            if drawn >= schedule.max_samples:
                return DriveOutcome(drawn, stages, stopping.cap_label)
            target = schedule.next_target(target)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down cleanly (in-flight chunks finish first)."""
        self._pool.close()

    def __enter__(self) -> "SampleDriver":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        # Mirror WorkerPool's lifecycle contract: a clean exit drains
        # every submitted chunk, an exception kills the workers and
        # cancels the rest.  Both paths unlink the payload's spilled
        # snapshot file.
        if exc_type is not None:
            self._pool.terminate()
        else:
            self.close()


def sweep_sources(
    chunk_task: Callable,
    sources: Sequence[T],
    fold: Callable[[Sequence[T], object], None],
    *,
    payload: object = None,
    workers: Optional[int] = None,
    chunk_size: int = _parallel.SOURCE_CHUNK_SIZE,
) -> None:
    """Ordered chunked fold over a fixed source list.

    ``chunk_task(payload, chunk)`` computes one chunk's results (in any
    process); ``fold(chunk, result)`` is called strictly in source order, so
    even float accumulation order is independent of the worker count.
    Results stream through ``imap`` — only a bounded number of chunks is in
    flight even when per-source results are large dependency vectors.
    """
    chunks = _parallel.chunked(list(sources), chunk_size)
    with _parallel.WorkerPool(
        chunk_task, payload=payload, workers=workers
    ) as pool:
        for chunk, result in zip(chunks, pool.imap(chunks)):
            fold(chunk, result)
