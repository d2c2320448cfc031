"""SaPHyRa: a learning-theory approach to ranking nodes in large networks.

This package is a from-scratch reproduction of the ICDE 2022 paper
*"SaPHyRa: A Learning Theory Approach to Ranking Nodes in Large Networks"*
by Thai, Thai, Vu and Dinh.  It provides:

* a graph substrate (:mod:`repro.graphs`) with biconnected-component
  decomposition, block-cut trees, balanced bidirectional BFS and optional
  positive edge weights behind one SSSP abstraction (BFS for unit weights,
  deterministic Dijkstra for weighted graphs — :mod:`repro.graphs.sssp`);
* the unified sampling engine (:mod:`repro.engine`): shared sample
  schedules, stopping rules, the deterministic chunked driver, and the
  cross-sample source-DAG cache every estimator draws through;
* the generic SaPHyRa hypothesis-ranking framework (:mod:`repro.core`);
* the betweenness-centrality instantiation SaPHyRa_bc
  (:mod:`repro.saphyra_bc`);
* sampling baselines from the paper's evaluation — ABRA, KADABRA,
  Riondato–Kornaropoulos and Bader (:mod:`repro.baselines`);
* ranking-quality metrics (:mod:`repro.metrics`), synthetic dataset
  surrogates (:mod:`repro.datasets`) and the experiment harness
  (:mod:`repro.experiments`) that regenerates every table and figure in the
  paper's evaluation section.

Quickstart
----------

>>> from repro import datasets, saphyra_bc
>>> graph = datasets.load("karate").graph
>>> targets = list(range(10))
>>> result = saphyra_bc.SaPHyRaBC(epsilon=0.05, delta=0.01, seed=7).rank(graph, targets)
>>> len(result.ranking) == len(targets)
True
"""

from __future__ import annotations

from repro._version import __version__
from repro.errors import (
    ConvergenceError,
    DatasetError,
    GraphError,
    ParallelError,
    ReproError,
    SamplingError,
)

__all__ = [
    "__version__",
    "ReproError",
    "GraphError",
    "SamplingError",
    "DatasetError",
    "ConvergenceError",
    "ParallelError",
]
