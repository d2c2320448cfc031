"""Worker-pool executor: deterministic chunked parallelism over sources/samples.

Every embarrassingly-parallel loop in this reproduction — exact Brandes over
all BFS sources, closeness sweeps, the ABRA/RK/KADABRA sample draws, the
SaPHyRa adaptive sampler — decomposes into *chunks*: a fixed-size slice of
the source list or of the sample schedule.  This module provides the one
executor they all share.

Determinism contract
--------------------
``workers`` **never changes results** — it only changes wall-clock time:

* Work is split into chunks by a rule that depends only on the input (the
  source list, the sample schedule), never on the worker count.
* Randomised chunks draw from *per-chunk seeded RNG streams*
  (:func:`chunk_rng`), derived from one base seed with a process-independent
  hash, so a chunk produces the same draws no matter which worker runs it —
  or whether it runs in-process.
* :meth:`WorkerPool.map` returns results **in chunk order** regardless of
  completion order, and callers fold partial results in that order, so even
  float accumulation order is reproduced exactly.

Hence ``workers=8`` is bit-identical to ``workers=1`` and to the in-process
serial path (``workers=0``), and the backend-equivalence property tests
assert exactly that.  A worker process that dies mid-chunk (a crash, the
OOM killer, ``os._exit``) raises :class:`~repro.errors.ParallelError`
naming the lost chunk instead of hanging the map.

Snapshot-file graph handoff
---------------------------
Chunk payloads usually contain the graph, and the graph dominates the
payload's pickle size.  :func:`shareable_graph` wraps the frozen CSR
snapshot in a :class:`SharedCSRPayload`, which pickles as a snapshot-file
path plus a header: each worker attaches the file written by
:mod:`repro.graphs.store` (read-only ``np.memmap`` views under the ``mmap``
knob) instead of unpickling the adjacency.  A snapshot already backed by
a file ships that file; any other snapshot is spilled **once per pool** to
a temporary snapshot file (in ``/dev/shm`` when the platform has it, else
the temp directory), lazily on the first payload pickle — the serial path
and ``fork`` pools, which inherit memory, never write anything.  The
payload owns the spilled file and the owning :class:`WorkerPool` unlinks it
on every shutdown path.  Without numpy, with a node label the snapshot
format cannot store (not an int or str), or when the spill write fails,
the payload degrades to shipping the arrays by value (the pickle payload)
and logs the reason at INFO on the ``repro.parallel`` logger.  The
handoff never changes results: workers see the same arrays bit for bit.

Configuration
-------------
The ``workers`` (default 0, serial) and ``start_method`` (default: the
platform's) knobs are rows of the :mod:`repro.knobs` table: argument >
:func:`set_default_workers` / :func:`set_default_start_method` (the CLI's
``--workers``/``--start-method``) > the ``REPRO_*`` variable > default.
Everything shipped to workers is picklable top-level functions plus
payload objects, so the pool is spawn-safe (CI runs the equivalence suite
under ``spawn``).
"""

from __future__ import annotations

import logging
import os
import random
import reprlib
import tempfile
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro import knobs as _knobs
from repro.errors import GraphError, ParallelError
from repro.knobs import EnvMirroredOverride  # noqa: F401  (re-exported)

T = TypeVar("T")

_LOG = logging.getLogger(__name__)

WORKERS_ENV_VAR = _knobs.WORKERS.env_var
START_METHOD_ENV_VAR = _knobs.START_METHOD.env_var

#: Default number of BFS sources assigned to one worker task.
SOURCE_CHUNK_SIZE = 32

#: Default number of sampler draws sharing one per-chunk RNG stream.  This
#: constant is part of the samplers' *definition* (it fixes the stream
#: layout), so changing it changes sampled sequences — like changing a seed.
SAMPLE_CHUNK_SIZE = 64

set_default_workers = _knobs.WORKERS.set
default_workers = _knobs.WORKERS.resolve
set_default_start_method = _knobs.START_METHOD.set
#: The configured multiprocessing start method (``None`` = platform default).
start_method = _knobs.START_METHOD.resolve


def resolve_workers(workers: Optional[int] = None) -> int:
    """Map a user-facing ``workers`` argument to a concrete count.

    ``0`` and ``1`` both execute in-process (a one-worker pool would only add
    IPC overhead); counts above 1 use a process pool.

    Both executor variables — ``REPRO_WORKERS`` and ``REPRO_START_METHOD``
    — are validated here eagerly, so a typo'd variable surfaces as one
    clear error naming it at executor-configuration time instead of
    mid-sweep.
    """
    _knobs.START_METHOD.env()
    return _knobs.WORKERS.resolve(workers)


# ----------------------------------------------------------------------
# Snapshot-file CSR handoff
# ----------------------------------------------------------------------
#: Worker-side cache of file-attached snapshots, keyed by the payload
#: header ``(path, n, num_indices, weighted)``: one (usually memory-mapped)
#: ``CSRGraph`` per snapshot file, attached on first use and reused by
#: every chunk the worker runs.
_attached_file_snapshots: Dict[Tuple[str, int, int, bool], object] = {}


def _spill_dir() -> str:
    """Where spilled payload snapshots go: RAM-backed ``/dev/shm`` when the
    platform has it, else the temp directory."""
    return "/dev/shm" if os.path.isdir("/dev/shm") else tempfile.gettempdir()


def _spill(csr) -> str:
    """Write ``csr`` to a fresh temporary snapshot file; return its path.

    Unlike :func:`repro.graphs.store.save_snapshot` this leaves
    ``csr.source_path`` untouched: the file belongs to one payload and
    disappears with it.  Raises :class:`GraphError` for a label the format
    cannot store and :class:`OSError` when the write fails, leaving no
    file behind either way.
    """
    from repro.graphs.store import write_snapshot

    fd, path = tempfile.mkstemp(prefix="repro-payload-", suffix=".csr", dir=_spill_dir())
    try:
        with os.fdopen(fd, "wb") as handle:
            write_snapshot(csr, handle, path=path)
    except BaseException:
        os.unlink(path)
        raise
    return path


def _attach_snapshot_file(path: str, n: int, num_indices: int, weighted: bool):
    """Worker-side reconstruction from a snapshot file.

    The worker attaches the file written by :mod:`repro.graphs.store` (as
    read-only ``np.memmap`` views under the resolved ``mmap`` knob —
    mirrored into the environment, so spawn workers agree with the
    master), so the pickled payload is just this path plus a header.  The
    header is cross-checked against the file so a swapped or regenerated
    snapshot fails loudly instead of silently computing on the wrong graph.
    """
    key = (path, n, num_indices, weighted)
    cached = _attached_file_snapshots.get(key)
    if cached is not None:
        return cached
    from repro.graphs.store import load_snapshot

    snapshot = load_snapshot(path)
    if (
        snapshot.n != n
        or len(snapshot.indices) != num_indices
        or (snapshot.weights is not None) != weighted
    ):
        raise GraphError(
            f"snapshot {path}: file no longer matches the worker payload "
            f"header (file: n={snapshot.n}, num_indices={len(snapshot.indices)}, "
            f"weighted={snapshot.weights is not None}; payload: n={n}, "
            f"num_indices={num_indices}, weighted={weighted}) — was the "
            "snapshot regenerated while a pool was running?"
        )
    _attached_file_snapshots[key] = snapshot
    return snapshot


def _rebuild_csr(indptr, indices, labels, weights=None):
    """Pickle-payload fallback: rebuild the snapshot from shipped arrays."""
    from repro.graphs.csr import CSRGraph

    if labels is None:
        labels = list(range(len(indptr) - 1))
    return CSRGraph(indptr, indices, labels, weights)


class SharedCSRPayload:
    """A CSR snapshot inside a worker payload: snapshot-file or pickle handoff.

    Master side this wraps the frozen :class:`~repro.graphs.csr.CSRGraph`.
    Pickling it (which only happens when a pool actually ships the payload
    to processes — ``spawn``/``forkserver`` initargs; ``fork`` pools inherit
    the object as-is and the serial path never pickles) ships one of:

    1. **Snapshot file.**  The path plus a header; each worker attaches the
       file (:func:`_attach_snapshot_file`).  A snapshot backed by a live
       file (``csr.source_path``, set by :mod:`repro.graphs.store`) ships
       that file.  Otherwise the first pickle spills the snapshot to a
       temporary file (:attr:`spill_path`), which this payload owns until
       :meth:`release`; later pickles reuse it.
    2. **Pickle fallback.**  The arrays by value, when numpy is missing,
       when a node label is not an int or str, or when the spill write
       raises ``OSError``.  The reason is logged once, at INFO.

    Both forms hand workers byte-identical arrays, so results never depend
    on the transport.
    """

    __slots__ = ("csr", "spill_path", "_handle")

    def __init__(self, csr) -> None:
        self.csr = csr
        #: The temporary snapshot file this payload spilled and owns.
        self.spill_path: Optional[str] = None
        self._handle: Optional[Tuple] = None

    def __reduce__(self):
        if self._handle is None:
            self._handle = self._make_handle()
        return self._handle

    def _make_handle(self) -> Tuple:
        from repro.graphs.csr import HAS_NUMPY

        csr = self.csr
        reason = None
        path = csr.source_path
        if not HAS_NUMPY:
            reason = "numpy is not importable"
        elif path is None or not os.path.exists(path):
            try:
                path = self.spill_path = _spill(csr)
            except GraphError as error:
                reason = str(error)
            except OSError as error:
                reason = f"spilling the snapshot failed: {error}"
        if reason is None:
            return (
                _attach_snapshot_file,
                (path, csr.n, len(csr.indices), csr.weights is not None),
            )
        _LOG.info("worker payload falls back to pickling the graph: %s", reason)
        labels = None if csr.identity_labels else csr.labels
        return (_rebuild_csr, (csr.indptr, csr.indices, labels, csr.weights))

    def release(self) -> None:
        """Unlink the spilled snapshot file, if any (idempotent)."""
        path, self.spill_path = self.spill_path, None
        self._handle = None
        if path is not None:
            try:
                os.unlink(path)
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass


def shareable_graph(graph, backend: Optional[str] = None):
    """Wrap ``graph`` for the snapshot-file handoff when it runs on CSR.

    Returns a :class:`SharedCSRPayload` around the (cached) CSR snapshot
    when the resolved ``backend`` is CSR; otherwise returns ``graph``
    unchanged — the pickle payload.  Chunk tasks recover the graph (or
    snapshot) with :func:`resolve_payload_graph`, so the same task code
    serves both paths.
    """
    from repro.graphs import csr as _csr

    if backend == _csr.CSR_BACKEND:
        return SharedCSRPayload(_csr.as_csr(graph))
    return graph


def resolve_payload_graph(obj):
    """Unwrap a payload graph slot to the object traversals run on.

    In-process (serial path, or a ``fork`` worker that inherited the
    payload) a :class:`SharedCSRPayload` resolves to its snapshot; in a
    ``spawn`` worker the slot already holds the attached snapshot (or the
    pickled graph), which passes through unchanged.
    """
    if isinstance(obj, SharedCSRPayload):
        return obj.csr
    return obj


# ----------------------------------------------------------------------
# Chunking and per-chunk RNG streams
# ----------------------------------------------------------------------
def chunked(items: Sequence[T], size: int = SOURCE_CHUNK_SIZE) -> List[Sequence[T]]:
    """Split ``items`` into consecutive chunks of ``size`` (last may be short)."""
    if size < 1:
        raise ValueError(f"chunk size must be >= 1, got {size}")
    return [items[start : start + size] for start in range(0, len(items), size)]


def plan_chunks(
    count: int, size: int = SAMPLE_CHUNK_SIZE, *, start_chunk: int = 0
) -> List[Tuple[int, int]]:
    """Plan ``count`` draws as ``(chunk_index, draws)`` pieces.

    Chunk indices continue from ``start_chunk`` so successive stages of an
    adaptive sampler consume a single global stream sequence; the layout is a
    pure function of the stage schedule, never of the worker count.
    """
    if size < 1:
        raise ValueError(f"chunk size must be >= 1, got {size}")
    pieces: List[Tuple[int, int]] = []
    chunk = start_chunk
    remaining = count
    while remaining > 0:
        draws = min(size, remaining)
        pieces.append((chunk, draws))
        chunk += 1
        remaining -= draws
    return pieces


def derive_base_seed(rng: random.Random) -> int:
    """Draw the 64-bit base seed all chunk streams of one run derive from."""
    return rng.getrandbits(64)


def chunk_rng(base_seed: int, chunk_index: int) -> random.Random:
    """The deterministic RNG stream of chunk ``chunk_index``.

    Seeding with a string routes through :mod:`random`'s SHA-512 seeding,
    which is identical in every process and platform (unlike ``hash``-based
    seeding, which PYTHONHASHSEED salts).
    """
    return random.Random(f"{base_seed}:{chunk_index}")


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
# Worker-process globals, set once per worker by the pool initializer so the
# payload (graph, snapshot, estimator, ...) is unpickled once and shared by
# every task the worker runs.
_worker_function: Optional[Callable] = None
_worker_payload: object = None


def _initialize_worker(function: Callable, payload: object) -> None:
    global _worker_function, _worker_payload
    _worker_function = function
    _worker_payload = payload


def _run_chunk(chunk: object) -> object:
    return _worker_function(_worker_payload, chunk)


class WorkerPool:
    """Order-preserving chunk mapper around ``function(payload, chunk)``.

    Parameters
    ----------
    function:
        A picklable module-level function taking ``(payload, chunk)``.
    payload:
        Shared immutable-by-convention context (a graph, an estimator, ...),
        shipped to each worker process exactly once.  Must be picklable when
        ``workers > 1``.  A :class:`SharedCSRPayload` (or a tuple/list
        containing one — see :func:`shareable_graph`) rides along as a
        snapshot file, and any file it spilled is unlinked when the pool
        shuts down, on every exit path.
    workers:
        Worker count (``None`` resolves via :func:`resolve_workers`).
        ``<= 1`` executes every chunk in-process — same code path, no
        processes, identical results.

    The pool is lazily created on the first parallel :meth:`map` and reused
    across calls (an adaptive sampler maps many rounds of chunks through one
    pool), so use it as a context manager::

        with WorkerPool(_chunk_fn, payload=(graph, backend), workers=workers) as pool:
            for part in pool.map(chunks):
                fold(part)          # chunk order == submission order

    When a worker process dies abruptly the map raises
    :class:`~repro.errors.ParallelError` naming the first chunk left
    without a result; the pool is shut down (and its payload released)
    before the error propagates.
    """

    def __init__(
        self,
        function: Callable,
        *,
        payload: object = None,
        workers: Optional[int] = None,
    ) -> None:
        self.function = function
        self.payload = payload
        self.workers = resolve_workers(workers)
        self._pool = None

    # ------------------------------------------------------------------
    def map(self, chunks: Sequence[object]) -> List[object]:
        """Apply the function to every chunk; results come back in chunk order."""
        chunks = list(chunks)
        if self.workers <= 1 or len(chunks) <= 1:
            return [self.function(self.payload, chunk) for chunk in chunks]
        return list(self._ordered(chunks))

    def imap(self, chunks: Sequence[object]):
        """Lazy :meth:`map`: yield chunk results in chunk order.

        Use when per-chunk results are large and folded immediately (e.g.
        per-source dependency vectors): each result is handed on as soon
        as it and every earlier chunk are done.
        """
        chunks = list(chunks)
        if self.workers <= 1 or len(chunks) <= 1:
            return (self.function(self.payload, chunk) for chunk in chunks)
        return self._ordered(chunks)

    def _ordered(self, chunks: List[object]):
        """Submit every chunk now; return a generator of results in order."""
        from concurrent.futures.process import BrokenProcessPool

        pool = self._ensure_pool()
        futures = []
        try:
            for chunk in chunks:
                futures.append(pool.submit(_run_chunk, chunk))
        except BrokenProcessPool as error:
            raise self._worker_died(chunks, len(futures)) from error

        def results():
            for index in range(len(futures)):
                # Drop each future once its turn comes, so a folded result
                # is not kept alive until the whole map has finished.
                future, futures[index] = futures[index], None
                try:
                    yield future.result()
                except BrokenProcessPool as error:
                    raise self._worker_died(chunks, index) from error

        return results()

    def _worker_died(self, chunks: List[object], index: int) -> ParallelError:
        self.terminate()
        return ParallelError(
            f"a worker process died abruptly: chunk {index} of {len(chunks)} "
            f"({reprlib.repr(chunks[index])}) got no result"
        )

    def _ensure_pool(self):
        if self._pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context(start_method()),
                initializer=_initialize_worker,
                initargs=(self.function, self.payload),
            )
        return self._pool

    def close(self) -> None:
        """Shut the pool down cleanly, letting every submitted chunk finish.

        A caller may still be iterating :meth:`imap` results, so nothing is
        cancelled.  Idempotent; releases the payload's spilled file.
        """
        self._shutdown(cancel=False)

    def terminate(self) -> None:
        """Hard-stop the pool: kill the workers and cancel every chunk.

        Reserved for the exception path (``__exit__`` routes here when the
        ``with`` body raised): results are being abandoned anyway, so a
        long chunk already running must not delay the error.  The
        payload's spilled file is still released.
        """
        self._shutdown(cancel=True)

    def _shutdown(self, *, cancel: bool) -> None:
        pool, self._pool = self._pool, None
        try:
            if pool is not None:
                if cancel:
                    # The executor has no public hard stop: chunks already
                    # queued to a worker would otherwise run to completion.
                    for process in list((pool._processes or {}).values()):
                        process.terminate()
                pool.shutdown(wait=True, cancel_futures=cancel)
        finally:
            self._release_payload()

    def _release_payload(self) -> None:
        items = (
            self.payload
            if isinstance(self.payload, (tuple, list))
            else (self.payload,)
        )
        for item in items:
            if isinstance(item, SharedCSRPayload):
                item.release()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if exc_type is not None:
            self.terminate()
        else:
            self.close()
