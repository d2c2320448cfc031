"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause while
still being able to distinguish the failure domain (graph construction,
sampling, datasets, convergence of adaptive estimators).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class GraphError(ReproError):
    """Raised for invalid graph construction or graph queries.

    Examples include adding a self-loop to a simple graph, querying the
    neighbours of a node that does not exist, or loading a malformed edge
    list.
    """


class SamplingError(ReproError):
    """Raised when a sampler cannot produce a valid sample.

    For instance, rejection sampling from an empty approximate subspace or
    requesting a shortest path between disconnected nodes.
    """


class DatasetError(ReproError):
    """Raised when a named dataset cannot be found or built."""


class ConvergenceError(ReproError):
    """Raised when an adaptive estimator exhausts its budget without
    reaching the requested error tolerance and strict mode is enabled."""


class ParallelError(ReproError):
    """Raised when a worker process dies before returning a chunk's result
    (a crash, the OOM killer, ``os._exit``), instead of hanging the map."""
