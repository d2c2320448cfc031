"""The weighted/unweighted SSSP dispatch knob.

The traversal stack has ONE single-source shortest-path abstraction with two
engines behind it:

* **BFS** (`repro.graphs.csr._BatchSweep` and the dict reference loops) —
  the unit-weight case: integer hop distances, level-synchronous expansion,
  batched multi-source sweeps, direction optimisation.
* **Dijkstra** (`repro.graphs.csr.csr_dijkstra_dag` and the dict reference
  in :mod:`repro.graphs.traversal`) — the weighted case: float distances
  over the ``weights`` array of the CSR snapshot, exact shortest-path
  counts, deterministic heap tie-breaking so both backends settle nodes in
  the same order and return bit-identical results.

This module owns the *routing decision*: a user-facing ``weighted``
argument (``None``/``"auto"``/``"on"``/``"off"``), the ``REPRO_WEIGHTED``
environment variable and :func:`set_default_weighted` resolve — through
the :mod:`repro.knobs` table row — to a concrete boolean per graph:

* ``"auto"`` (the default): use the weighted engine iff the graph carries
  non-unit edge weights (:attr:`Graph.is_weighted`, an O(1) check).
  Unit-weight graphs therefore take **exactly** the historical BFS code
  paths, bit for bit.
* ``"on"``: force the Dijkstra engine, treating absent weights as ``1.0``
  (the unit-weight A/B used by the equivalence tests and benchmarks).
* ``"off"``: ignore weights and run hop-distance BFS even on weighted
  graphs.

This module also owns the **weighted kernel knob**: once the weighted
engine is selected, ``sssp_kernel`` (``"auto"``/``"dijkstra"``/``"delta"``,
the ``REPRO_SSSP_KERNEL`` environment variable and
:func:`set_default_sssp_kernel`) picks the *execution strategy* — the
per-source binary-heap Dijkstra of PR 5, or the bucket-synchronous
delta-stepping kernel of :mod:`repro.graphs.delta_stepping`.  The two
kernels are **bit-identical** (distances, exact sigma, predecessor append
order, settle order, sampled paths — the delta kernel re-pins Dijkstra's
exact ``(distance, push counter)`` settle order from the final
distances), so like the ``backend`` and ``direction`` knobs this choice
affects speed only.  The dict backend always runs the reference Dijkstra
— it *is* the reference both kernels are pinned to.
"""

from __future__ import annotations

from typing import Optional

from repro import knobs as _knobs

WEIGHTED_ENV_VAR = _knobs.WEIGHTED.env_var
set_default_weighted = _knobs.WEIGHTED.set
resolve_weighted = _knobs.WEIGHTED.resolve

WEIGHTED_AUTO = "auto"
WEIGHTED_ON = "on"
WEIGHTED_OFF = "off"


def effective_weighted(graph, weighted: Optional[str] = None) -> bool:
    """Whether one operation on ``graph`` should run the weighted engine.

    ``graph`` may be a :class:`~repro.graphs.graph.Graph` or a bare
    :class:`~repro.graphs.csr.CSRGraph` snapshot (the snapshot-file worker
    handoff); both expose the O(1) ``is_weighted`` check the ``"auto"``
    mode routes on.
    """
    mode = resolve_weighted(weighted)
    if mode == WEIGHTED_ON:
        return True
    if mode == WEIGHTED_OFF:
        return False
    return bool(getattr(graph, "is_weighted", False))


# ---------------------------------------------------------------------------
# Weighted kernel selection (Dijkstra vs delta-stepping)
# ---------------------------------------------------------------------------

SSSP_KERNEL_ENV_VAR = _knobs.SSSP_KERNEL.env_var
set_default_sssp_kernel = _knobs.SSSP_KERNEL.set
resolve_sssp_kernel = _knobs.SSSP_KERNEL.resolve

KERNEL_AUTO = "auto"
KERNEL_DIJKSTRA = "dijkstra"
KERNEL_DELTA = "delta"


def effective_sssp_kernel(
    kernel: Optional[str] = None, *, batched: bool = False
) -> str:
    """Resolve ``sssp_kernel`` to a concrete kernel for one weighted run.

    ``"auto"`` picks delta-stepping for *batched* multi-source sweeps when
    numpy is available — fat stacked frontiers are where the bucket kernel
    beats the per-source heap — and stays on Dijkstra for single-source
    calls (sampler DAG construction), whose thin frontiers favour the
    heap.  Forcing ``"delta"`` routes every weighted call through the
    bucket kernel; without numpy the pure-python bucket loop runs (same
    results, interpreter speed), mirroring the no-numpy CSR degradation.

    The dict backend ignores the knob: it *is* the Dijkstra reference both
    CSR kernels are pinned bit-identical to, so routing it would change
    nothing but indirection.
    """
    mode = resolve_sssp_kernel(kernel)
    if mode != KERNEL_AUTO:
        return mode
    from repro.graphs.csr import HAS_NUMPY

    if batched and HAS_NUMPY:
        return KERNEL_DELTA
    return KERNEL_DIJKSTRA
