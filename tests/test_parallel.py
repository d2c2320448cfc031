"""Unit tests for the worker-pool executor (:mod:`repro.parallel`).

The determinism contract — worker counts never change results — is asserted
end-to-end in ``test_backend_equivalence.py``; this module covers the
executor primitives themselves: worker-count resolution, chunk planning,
per-chunk RNG streams, ordered (i)map over in-process and process-pool
execution, pool-lifecycle semantics (clean close vs exception terminate),
worker death, and the snapshot-file CSR handoff.
"""

from __future__ import annotations

import faulthandler
import gc
import logging
import os
import pickle
import time
import weakref

import pytest

from repro import parallel
from repro.errors import ParallelError
from repro.graphs import csr as csr_module
from repro.graphs.csr import HAS_NUMPY
from repro.graphs.graph import Graph


def _square_chunk(payload, chunk):
    offset = payload or 0
    return [offset + value * value for value in chunk]


def _sleep_chunk(payload, seconds):
    time.sleep(seconds)
    return seconds


class _Box:
    """A chunk result that supports weak references."""

    def __init__(self, value):
        self.value = value


def _box_chunk(payload, chunk):
    return _Box(chunk)


def _piece_echo(payload, piece):
    chunk_index, draws = piece
    rng = parallel.chunk_rng(payload, chunk_index)
    return [rng.randrange(1000) for _ in range(draws)]


def _snapshot_degree_chunk(payload, chunk):
    """Chunk task resolving a (possibly snapshot-file) graph payload."""
    from repro.graphs import csr as csr_module

    graph = parallel.resolve_payload_graph(payload[0])
    snapshot = csr_module.as_csr(graph)
    return [snapshot.degree(snapshot.index_of(node)) for node in chunk]


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(parallel.WORKERS_ENV_VAR, raising=False)
        parallel.set_default_workers(None)
        assert parallel.resolve_workers() == 0
        assert parallel.resolve_workers(3) == 3

    def test_env_variable(self, monkeypatch):
        parallel.set_default_workers(None)
        monkeypatch.setenv(parallel.WORKERS_ENV_VAR, "4")
        assert parallel.resolve_workers() == 4
        assert parallel.resolve_workers(2) == 2  # explicit argument wins

    def test_env_variable_invalid(self, monkeypatch):
        parallel.set_default_workers(None)
        monkeypatch.setenv(parallel.WORKERS_ENV_VAR, "many")
        with pytest.raises(ValueError, match=parallel.WORKERS_ENV_VAR):
            parallel.resolve_workers()

    def test_set_default_overrides_env(self, monkeypatch):
        monkeypatch.setenv(parallel.WORKERS_ENV_VAR, "4")
        parallel.set_default_workers(0)
        try:
            assert parallel.resolve_workers() == 0
        finally:
            parallel.set_default_workers(None)

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            parallel.resolve_workers(-1)
        with pytest.raises(TypeError):
            parallel.resolve_workers(2.5)
        with pytest.raises(TypeError):
            parallel.resolve_workers(True)

    def test_start_method_invalid(self, monkeypatch):
        monkeypatch.setenv(parallel.START_METHOD_ENV_VAR, "teleport")
        with pytest.raises(ValueError, match=parallel.START_METHOD_ENV_VAR):
            parallel.start_method()


class TestChunking:
    def test_chunked_splits_and_preserves_order(self):
        assert parallel.chunked(list(range(7)), 3) == [[0, 1, 2], [3, 4, 5], [6]]
        assert parallel.chunked([], 3) == []

    def test_chunked_rejects_bad_size(self):
        with pytest.raises(ValueError):
            parallel.chunked([1], 0)

    def test_plan_chunks_layout(self):
        assert parallel.plan_chunks(10, 4) == [(0, 4), (1, 4), (2, 2)]
        assert parallel.plan_chunks(4, 4, start_chunk=5) == [(5, 4)]
        assert parallel.plan_chunks(0, 4) == []

    def test_plan_chunks_is_schedule_only(self):
        # Two rounds of an adaptive schedule tile the same global stream as
        # one big draw with the same chunk size.
        first = parallel.plan_chunks(8, 4)
        second = parallel.plan_chunks(8, 4, start_chunk=len(first))
        assert first + second == parallel.plan_chunks(16, 4)


class TestChunkRNG:
    def test_streams_are_deterministic_and_independent(self):
        a1 = parallel.chunk_rng(7, 0).random()
        a2 = parallel.chunk_rng(7, 0).random()
        b = parallel.chunk_rng(7, 1).random()
        c = parallel.chunk_rng(8, 0).random()
        assert a1 == a2
        assert a1 != b
        assert a1 != c

    def test_base_seed_derivation_consumes_parent(self):
        import random

        parent = random.Random(3)
        first = parallel.derive_base_seed(parent)
        second = parallel.derive_base_seed(parent)
        assert first != second
        assert parallel.derive_base_seed(random.Random(3)) == first


class TestWorkerPool:
    CHUNKS = [[1, 2], [3], [4, 5, 6], []]
    EXPECTED = [[1, 4], [9], [16, 25, 36], []]

    @pytest.mark.parametrize("workers", [0, 1, 2])
    def test_map_results_in_chunk_order(self, workers):
        with parallel.WorkerPool(
            _square_chunk, payload=0, workers=workers
        ) as pool:
            assert pool.map(self.CHUNKS) == self.EXPECTED

    @pytest.mark.parametrize("workers", [0, 2])
    def test_imap_streams_in_chunk_order(self, workers):
        with parallel.WorkerPool(
            _square_chunk, payload=0, workers=workers
        ) as pool:
            assert list(pool.imap(self.CHUNKS)) == self.EXPECTED

    def test_payload_is_shared(self):
        with parallel.WorkerPool(_square_chunk, payload=100, workers=2) as pool:
            assert pool.map([[1], [2]]) == [[101], [104]]

    def test_pool_reuse_across_map_calls(self):
        with parallel.WorkerPool(_square_chunk, payload=0, workers=2) as pool:
            assert pool.map([[1], [2]]) == [[1], [4]]
            assert pool.map([[3], [4]]) == [[9], [16]]

    @pytest.mark.parametrize("workers", [0, 2])
    def test_chunk_rng_streams_match_across_worker_counts(self, workers):
        pieces = parallel.plan_chunks(10, 4)
        with parallel.WorkerPool(
            _piece_echo, payload=123, workers=workers
        ) as pool:
            draws = [value for part in pool.map(pieces) for value in part]
        expected = [
            value
            for chunk_index, count in pieces
            for value in _piece_echo(123, (chunk_index, count))
        ]
        assert draws == expected

    def test_close_is_idempotent(self):
        pool = parallel.WorkerPool(_square_chunk, workers=0)
        pool.map([[1]])
        pool.close()
        pool.close()


class TestSetDefaultWorkersMirroring:
    """`set_default_workers` mirrors into REPRO_WORKERS (spawn workers must
    resolve the same default as the parent) with displaced-value restore."""

    @pytest.fixture(autouse=True)
    def _reset(self):
        yield
        parallel.set_default_workers(None)

    def test_override_mirrors_into_environment(self, monkeypatch):
        monkeypatch.delenv(parallel.WORKERS_ENV_VAR, raising=False)
        parallel.set_default_workers(3)
        assert os.environ[parallel.WORKERS_ENV_VAR] == "3"
        parallel.set_default_workers(None)
        assert parallel.WORKERS_ENV_VAR not in os.environ

    def test_clearing_restores_displaced_value(self, monkeypatch):
        monkeypatch.setenv(parallel.WORKERS_ENV_VAR, "7")
        parallel.set_default_workers(0)
        assert os.environ[parallel.WORKERS_ENV_VAR] == "0"
        parallel.set_default_workers(2)  # only the FIRST override displaces
        assert os.environ[parallel.WORKERS_ENV_VAR] == "2"
        parallel.set_default_workers(None)
        assert os.environ[parallel.WORKERS_ENV_VAR] == "7"
        assert parallel.default_workers() == 7

    def test_zero_override_mirrors_serial(self, monkeypatch):
        monkeypatch.setenv(parallel.WORKERS_ENV_VAR, "5")
        parallel.set_default_workers(0)
        # A helper process re-reading the environment agrees with the parent.
        assert os.environ[parallel.WORKERS_ENV_VAR] == "0"
        assert parallel.resolve_workers() == 0


class TestStartMethodKnob:
    """`set_default_start_method` follows the full knob protocol."""

    @pytest.fixture(autouse=True)
    def _reset(self):
        yield
        parallel.set_default_start_method(None)

    def test_override_mirrors_and_restores(self, monkeypatch):
        monkeypatch.setenv(parallel.START_METHOD_ENV_VAR, "fork")
        parallel.set_default_start_method("spawn")
        assert os.environ[parallel.START_METHOD_ENV_VAR] == "spawn"
        assert parallel.start_method() == "spawn"
        parallel.set_default_start_method(None)
        assert os.environ[parallel.START_METHOD_ENV_VAR] == "fork"
        assert parallel.start_method() == "fork"

    def test_env_resolution_and_platform_default(self, monkeypatch):
        monkeypatch.delenv(parallel.START_METHOD_ENV_VAR, raising=False)
        assert parallel.start_method() is None
        monkeypatch.setenv(parallel.START_METHOD_ENV_VAR, "forkserver")
        assert parallel.start_method() == "forkserver"

    def test_invalid_override_rejected(self):
        with pytest.raises(ValueError, match="start_method"):
            parallel.set_default_start_method("threads")

    def test_invalid_env_value_names_the_variable(self, monkeypatch):
        monkeypatch.setenv(parallel.START_METHOD_ENV_VAR, "threads")
        with pytest.raises(ValueError, match=parallel.START_METHOD_ENV_VAR):
            parallel.start_method()


class TestEagerEnvValidation:
    """Executor knob env vars are validated at resolve time, naming the
    variable, even when an explicit argument makes the value moot — the
    PR-2 REPRO_BACKEND pattern."""

    def test_invalid_workers_env_names_the_variable(self, monkeypatch):
        monkeypatch.setenv(parallel.WORKERS_ENV_VAR, "lots")
        with pytest.raises(ValueError, match=parallel.WORKERS_ENV_VAR):
            parallel.resolve_workers(2)

    def test_negative_workers_env_rejected(self, monkeypatch):
        monkeypatch.setenv(parallel.WORKERS_ENV_VAR, "-1")
        with pytest.raises(ValueError, match=parallel.WORKERS_ENV_VAR):
            parallel.resolve_workers()

    def test_invalid_start_method_env_fails_resolve_workers(self, monkeypatch):
        monkeypatch.setenv(parallel.START_METHOD_ENV_VAR, "threads")
        with pytest.raises(ValueError, match=parallel.START_METHOD_ENV_VAR):
            parallel.resolve_workers(0)


class _RecordingPool:
    """Proxy around a real process-pool executor that records its shutdown."""

    def __init__(self, real):
        self._real = real
        self.calls = []

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.calls.append(("shutdown", wait, cancel_futures))
        self._real.shutdown(wait=wait, cancel_futures=cancel_futures)

    def __getattr__(self, name):
        return getattr(self._real, name)


class TestPoolLifecycle:
    """Clean shutdown waits for every submitted chunk; killing workers and
    cancelling chunks is reserved for the exception path — doing that on
    the clean path could drop chunk results a caller is still pulling
    from ``imap``."""

    def test_clean_close_uses_close_then_join(self):
        pool = parallel.WorkerPool(_square_chunk, payload=0, workers=2)
        assert pool.map([[1], [2]]) == [[1], [4]]
        recorder = _RecordingPool(pool._pool)
        pool._pool = recorder
        pool.close()
        assert recorder.calls == [("shutdown", True, False)]
        assert pool._pool is None

    def test_exception_path_terminates(self):
        recorder = None
        with pytest.raises(RuntimeError, match="boom"):
            with parallel.WorkerPool(_square_chunk, payload=0, workers=2) as pool:
                pool.map([[1], [2]])
                recorder = _RecordingPool(pool._pool)
                pool._pool = recorder
                raise RuntimeError("boom")
        assert recorder.calls == [("shutdown", True, True)]

    def test_exception_path_does_not_wait_for_running_chunks(self, watchdog):
        # Chunks already queued to a worker are killed, not run to the end.
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="boom"):
            with parallel.WorkerPool(_sleep_chunk, payload=0, workers=2) as pool:
                for _ in pool.imap([0, 30, 30, 30]):
                    raise RuntimeError("boom")
        assert time.monotonic() - start < 20

    def test_imap_does_not_retain_consumed_results(self):
        # A folded per-chunk partial must be freed while the map goes on,
        # or peak memory grows with the chunk count.
        with parallel.WorkerPool(_box_chunk, payload=0, workers=2) as pool:
            results = pool.imap([0, 1, 2, 3])
            first = weakref.ref(next(results))
            assert next(results).value == 1
            gc.collect()
            assert first() is None
            assert [box.value for box in results] == [2, 3]

    def test_imap_results_survive_clean_exit(self):
        # Results pulled from imap must all arrive before the pool dies.
        chunks = [[value] for value in range(12)]
        with parallel.WorkerPool(_square_chunk, payload=0, workers=2) as pool:
            results = list(pool.imap(chunks))
        assert results == [[value * value] for value in range(12)]


needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="numpy unavailable")


def _ladder_graph(n: int = 12, label=lambda i: i) -> Graph:
    edges = [(label(i), label(i + 1)) for i in range(n - 1)]
    edges += [(label(i), label(i + 2)) for i in range(n - 2)]
    return Graph.from_edges(edges)


def _relabelled_ladder(n: int = 40) -> Graph:
    """A ladder whose int labels are not ``0..n-1`` (labels ship in the file)."""
    return _ladder_graph(n, label=lambda i: 1000 - 7 * i)


def _snapshot_bytes(snapshot) -> bytes:
    return bytes(snapshot.indptr) + bytes(snapshot.indices)


@pytest.fixture()
def spill_dir(tmp_path, monkeypatch):
    """Redirect payload spills into a per-test directory and return it."""
    monkeypatch.setattr(parallel, "_spill_dir", lambda: str(tmp_path))
    return tmp_path


def _fallback_records(caplog):
    return [
        record for record in caplog.records
        if record.name == "repro.parallel" and "falls back" in record.getMessage()
    ]


class TestSharedCSRPayload:
    def test_shareable_graph_wraps_only_csr(self):
        graph = _ladder_graph()
        wrapped = parallel.shareable_graph(graph, "csr")
        assert isinstance(wrapped, parallel.SharedCSRPayload)
        assert parallel.shareable_graph(graph, "dict") is graph

    def test_resolve_payload_graph(self):
        graph = _ladder_graph()
        payload = parallel.SharedCSRPayload(csr_module.as_csr(graph))
        assert parallel.resolve_payload_graph(payload) is csr_module.as_csr(graph)
        assert parallel.resolve_payload_graph(graph) is graph

    @needs_numpy
    def test_pickle_roundtrip_attaches_zero_copy(self, spill_dir):
        graph = _relabelled_ladder()
        snapshot = csr_module.as_csr(graph)
        assert not snapshot.identity_labels
        payload = parallel.SharedCSRPayload(snapshot)
        try:
            blob = pickle.dumps(payload)
            path = payload.spill_path
            assert len(blob) < 512  # path + header, not arrays or labels
            assert os.path.dirname(path) == str(spill_dir)
            attached = pickle.loads(blob)
            assert attached.labels == snapshot.labels
            assert _snapshot_bytes(attached) == _snapshot_bytes(snapshot)
            # Spilling leaves the master's cached snapshot unarmed.
            assert snapshot.source_path is None
            # Pickling again reuses the spilled file (one spill per pool).
            pickle.dumps(payload)
            assert payload.spill_path == path
            assert os.listdir(spill_dir) == [os.path.basename(path)]
        finally:
            payload.release()
        assert payload.spill_path is None
        assert os.listdir(spill_dir) == []

    def test_release_is_idempotent(self, spill_dir):
        payload = parallel.SharedCSRPayload(csr_module.as_csr(_ladder_graph()))
        pickle.dumps(payload)
        payload.release()
        payload.release()
        assert os.listdir(spill_dir) == []

    @needs_numpy
    def test_export_failure_falls_back_to_pickle(self, monkeypatch, caplog, spill_dir):
        def boom(csr):
            raise OSError("no space left on device")

        monkeypatch.setattr(parallel, "_spill", boom)
        snapshot = csr_module.as_csr(_relabelled_ladder())
        payload = parallel.SharedCSRPayload(snapshot)
        with caplog.at_level(logging.INFO, logger="repro.parallel"):
            attached = pickle.loads(pickle.dumps(payload))
            pickle.dumps(payload)  # the decision, and its record, happen once
        assert payload.spill_path is None
        assert attached.labels == snapshot.labels
        assert list(attached.indices) == list(snapshot.indices)
        records = _fallback_records(caplog)
        assert len(records) == 1
        assert records[0].levelno == logging.INFO
        assert "no space left on device" in records[0].getMessage()
        assert os.listdir(spill_dir) == []

    @needs_numpy
    def test_unstorable_labels_fall_back_and_log(self, caplog, spill_dir):
        graph = _ladder_graph(label=lambda i: (i, "x"))  # tuple labels
        snapshot = csr_module.as_csr(graph)
        payload = parallel.SharedCSRPayload(snapshot)
        with caplog.at_level(logging.INFO, logger="repro.parallel"):
            attached = pickle.loads(pickle.dumps(payload))
        assert attached.labels == snapshot.labels
        assert list(attached.indices) == list(snapshot.indices)
        (record,) = _fallback_records(caplog)
        assert "not an int or str" in record.getMessage()
        assert os.listdir(spill_dir) == []  # the half-made spill is gone

    def test_no_numpy_falls_back_and_logs(self, monkeypatch, caplog, spill_dir):
        monkeypatch.setattr(csr_module, "HAS_NUMPY", False)
        snapshot = csr_module.as_csr(_ladder_graph())
        payload = parallel.SharedCSRPayload(snapshot)
        with caplog.at_level(logging.INFO, logger="repro.parallel"):
            attached = pickle.loads(pickle.dumps(payload))
        assert list(attached.indices) == list(snapshot.indices)
        (record,) = _fallback_records(caplog)
        assert "numpy" in record.getMessage()
        assert os.listdir(spill_dir) == []

    @needs_numpy
    def test_pool_releases_spill_on_clean_close(self, monkeypatch, spill_dir):
        monkeypatch.setenv(parallel.START_METHOD_ENV_VAR, "spawn")
        graph = _relabelled_ladder()
        payload = parallel.shareable_graph(graph, "csr")
        nodes = list(graph.nodes())
        serial = _snapshot_degree_chunk((payload,), nodes)
        with parallel.WorkerPool(
            _snapshot_degree_chunk, payload=(payload,), workers=2
        ) as pool:
            results = pool.map([nodes[:20], nodes[20:]])
            assert payload.spill_path  # the spawn pool actually spilled
        assert results[0] + results[1] == serial
        assert payload.spill_path is None
        assert os.listdir(spill_dir) == []

    @needs_numpy
    def test_pool_releases_spill_on_exception(self, monkeypatch, spill_dir):
        monkeypatch.setenv(parallel.START_METHOD_ENV_VAR, "spawn")
        graph = _relabelled_ladder()
        payload = parallel.shareable_graph(graph, "csr")
        nodes = list(graph.nodes())
        with pytest.raises(RuntimeError, match="boom"):
            with parallel.WorkerPool(
                _snapshot_degree_chunk, payload=(payload,), workers=2
            ) as pool:
                pool.map([nodes[:20], nodes[20:]])
                assert payload.spill_path
                raise RuntimeError("boom")
        assert payload.spill_path is None
        assert os.listdir(spill_dir) == []

    def test_fork_and_serial_never_spill(self, monkeypatch, spill_dir):
        monkeypatch.setenv(parallel.START_METHOD_ENV_VAR, "fork")
        graph = _relabelled_ladder()
        payload = parallel.shareable_graph(graph, "csr")
        nodes = list(graph.nodes())
        for workers in (0, 2):
            with parallel.WorkerPool(
                _snapshot_degree_chunk, payload=(payload,), workers=workers
            ) as pool:
                pool.map([nodes[:20], nodes[20:]])
                assert payload.spill_path is None
        assert os.listdir(spill_dir) == []


class TestSpillFile:
    """Where a payload spills, what a failed spill leaves, and which files
    a payload owns."""

    def test_spill_dir_prefers_dev_shm(self, monkeypatch):
        monkeypatch.setattr(parallel.os.path, "isdir", lambda path: path == "/dev/shm")
        assert parallel._spill_dir() == "/dev/shm"

    def test_spill_dir_falls_back_to_tempdir(self, monkeypatch, tmp_path):
        monkeypatch.setattr(parallel.os.path, "isdir", lambda path: False)
        monkeypatch.setattr(parallel.tempfile, "tempdir", str(tmp_path))
        assert parallel._spill_dir() == str(tmp_path)

    @needs_numpy
    def test_failed_write_leaves_no_file_and_falls_back(self, monkeypatch, caplog, spill_dir):
        from repro.graphs import store

        def half_write(csr, handle, *, path):
            handle.write(b"partial")
            raise OSError("disk quota exceeded")

        monkeypatch.setattr(store, "write_snapshot", half_write)
        snapshot = csr_module.as_csr(_relabelled_ladder())
        payload = parallel.SharedCSRPayload(snapshot)
        with caplog.at_level(logging.INFO, logger="repro.parallel"):
            attached = pickle.loads(pickle.dumps(payload))
        assert payload.spill_path is None
        assert os.listdir(spill_dir) == []
        assert attached.labels == snapshot.labels
        assert list(attached.indices) == list(snapshot.indices)
        (record,) = _fallback_records(caplog)
        assert "spilling the snapshot failed" in record.getMessage()
        assert "disk quota exceeded" in record.getMessage()

    @needs_numpy
    def test_payload_spills_afresh_after_release(self, spill_dir):
        # A payload reused by a second pool (after the first released it)
        # spills a new file instead of shipping the unlinked one.
        snapshot = csr_module.as_csr(_relabelled_ladder())
        payload = parallel.SharedCSRPayload(snapshot)
        try:
            pickle.dumps(payload)
            first = payload.spill_path
            payload.release()
            assert not os.path.exists(first)
            attached = pickle.loads(pickle.dumps(payload))
            assert payload.spill_path is not None
            assert os.listdir(spill_dir) == [os.path.basename(payload.spill_path)]
            assert attached.labels == snapshot.labels
            assert _snapshot_bytes(attached) == _snapshot_bytes(snapshot)
        finally:
            payload.release()
        assert os.listdir(spill_dir) == []

    @needs_numpy
    def test_weighted_fallback_carries_weights(self, monkeypatch, spill_dir):
        def refuse(csr):
            raise OSError("read-only file system")

        monkeypatch.setattr(parallel, "_spill", refuse)
        graph = Graph.from_edges(
            [(1000 - 7 * i, 1000 - 7 * (i + 1), 1 + i % 4) for i in range(30)]
        )
        snapshot = csr_module.as_csr(graph)
        assert snapshot.weights is not None
        attached = pickle.loads(pickle.dumps(parallel.SharedCSRPayload(snapshot)))
        assert attached.weights.tobytes() == snapshot.weights.tobytes()
        assert attached.labels == snapshot.labels
        assert _snapshot_bytes(attached) == _snapshot_bytes(snapshot)
        assert os.listdir(spill_dir) == []

    @needs_numpy
    def test_release_keeps_a_saved_source_file(self, tmp_path_factory, spill_dir):
        from repro.graphs import store

        graph = _relabelled_ladder()
        source = store.save_snapshot(graph, tmp_path_factory.mktemp("saved") / "ladder.csr")
        payload = parallel.shareable_graph(graph, "csr")
        attached = pickle.loads(pickle.dumps(payload))
        assert payload.spill_path is None  # the saved file ships as-is
        payload.release()
        assert source.exists()  # not the payload's to unlink
        assert os.listdir(spill_dir) == []
        assert _snapshot_bytes(attached) == _snapshot_bytes(csr_module.as_csr(graph))


# ----------------------------------------------------------------------
# Worker death
# ----------------------------------------------------------------------
def _exit_on_one(payload, chunk):
    """Chunk task whose worker process dies abruptly on chunk ``1``."""
    if chunk == 1:
        os._exit(3)
    return (payload or 0) + chunk * chunk


def _degree_or_exit(payload, chunk):
    if chunk == "die":
        os._exit(3)
    return _snapshot_degree_chunk(payload, chunk)


@pytest.fixture()
def watchdog():
    """Fail loudly (dump every thread and exit) if a map hangs."""
    faulthandler.dump_traceback_later(120, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


class TestWorkerDeath:
    """A worker that dies mid-chunk raises ``ParallelError`` naming a lost
    chunk; before the fix the map hung forever."""

    def test_map_raises_instead_of_hanging(self, watchdog):
        pool = parallel.WorkerPool(_exit_on_one, payload=0, workers=2)
        with pytest.raises(ParallelError, match=r"chunk [01] of 4"):
            pool.map([0, 1, 2, 3])
        assert pool._pool is None  # shut down on the way out

    def test_imap_raises_instead_of_hanging(self, watchdog):
        with pytest.raises(ParallelError, match="worker process died"):
            with parallel.WorkerPool(_exit_on_one, payload=0, workers=2) as pool:
                list(pool.imap([0, 1, 2, 3]))

    def test_results_before_the_death_still_come_in_order(self, watchdog):
        seen = []
        with parallel.WorkerPool(_exit_on_one, payload=0, workers=2) as pool:
            with pytest.raises(ParallelError):
                for result in pool.imap([2, 3, 4, 1, 5]):
                    seen.append(result)
        assert seen == [4, 9, 16][: len(seen)]

    def test_error_names_the_lost_chunk(self, watchdog):
        pool = parallel.WorkerPool(_exit_on_one, payload=0, workers=2)
        with pytest.raises(ParallelError, match=r"chunk [01] of 2 \(1\) got no result"):
            pool.map([1, 1])

    def test_pool_recovers_after_a_death(self, watchdog):
        with parallel.WorkerPool(_exit_on_one, payload=0, workers=2) as pool:
            with pytest.raises(ParallelError):
                pool.map([0, 1, 2, 3])
            assert pool._pool is None
            # The next map starts a fresh executor instead of reusing the
            # broken one.
            assert pool.map([2, 3, 4]) == [4, 9, 16]

    @needs_numpy
    def test_spawn_death_unlinks_spill(self, watchdog, monkeypatch, spill_dir):
        monkeypatch.setenv(parallel.START_METHOD_ENV_VAR, "spawn")
        graph = _relabelled_ladder()
        payload = parallel.shareable_graph(graph, "csr")
        nodes = list(graph.nodes())
        with pytest.raises(ParallelError, match="chunk"):
            with parallel.WorkerPool(
                _degree_or_exit, payload=(payload,), workers=2
            ) as pool:
                pool.map([nodes[:20], "die", nodes[20:]])
        assert payload.spill_path is None
        assert os.listdir(spill_dir) == []
