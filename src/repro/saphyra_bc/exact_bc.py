"""``Exact_bc``: closed-form evaluation of the 2-hop exact subspace.

The exact subspace (Eq. 29) contains every PISP path of length 2 whose
middle node is a target.  For each target ``v`` its exact risk is

    l-hat_v = sum over ordered same-block pairs (s, t) with d(s, t) = 2
              and v a common neighbour of s and t of
              q_st / (sigma_st * gamma * eta)

and the subspace mass is

    lambda-hat = sum over the same pairs of
                 (#common neighbours in A / sigma_st) * q_st / (gamma * eta).

Both are computed in ``O(K)`` with ``K = sum_{v in B} deg(v)^2`` where ``B``
is the neighbourhood of the target set (Lemma 18): for each ``s in B`` a
two-level neighbour scan finds all distance-2 targets ``t`` together with
``sigma_st`` (the number of common neighbours) and the number of middles
that are targets.

The crucial property (Lemma 19): any target with non-zero betweenness has at
least one 2-hop shortest path through it, so ``l-hat_v > 0`` — the exact
subspace eliminates *false zeros*, which is what lifts the ranking quality
for low-centrality nodes.

Two implementations give bit-identical results.  On the CSR backend (numpy
present) the two-hop paths come in chunks from
:func:`repro.graphs.csr.two_hop_paths` and every per-pair quantity is an
array operation; the common block and out-reach weight of a pair are read
from the tree's per-slot :meth:`~repro.graphs.block_cut_tree.BlockCutTree.edge_blocks`.
Each float is the same correctly rounded quotient or product of exact
integers as in the nested loop (all integers stay below ``2**53``), the
risks are folded per target in the loop's path order by ``np.bincount``
(carrying each chunk's totals in as the first term of its bin), and
``lambda-hat`` is folded left to right in the order each pair first
appears.  The dict backend, or a missing numpy, runs the nested loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Sequence

from repro.graphs import csr as _csr
from repro.saphyra_bc.isp import PersonalizedISP

Node = Hashable

#: Out-reach weights ``r(s) r(t) <= n**2`` must convert to float exactly for
#: the array path to round like the loop.
_EXACT_FLOAT_INT = 2**53


@dataclass
class ExactSubspaceEvaluation:
    """Output of ``Exact_bc``.

    Attributes
    ----------
    lambda_exact:
        ``lambda-hat`` — probability of the exact subspace under the PISP
        distribution.
    risks:
        ``l-hat_v`` per target, in target order (PISP units).
    num_pairs:
        Number of ordered distance-2 same-block pairs that contributed.
    work:
        Number of adjacency entries scanned (the ``K`` of Lemma 18).
    """

    lambda_exact: float
    risks: List[float]
    num_pairs: int
    work: int


def exact_two_hop_risks(
    space: PersonalizedISP, targets: Sequence[Node]
) -> ExactSubspaceEvaluation:
    """Run ``Exact_bc`` for ``targets`` on the personalized ISP space.

    Raises
    ------
    ValueError
        If ``targets`` differs from ``space.targets`` (the same nodes in the
        same order, which the returned risk vector follows).
    """
    target_list = list(targets)
    if target_list != space.targets:
        raise ValueError(
            "targets must equal space.targets (the same nodes in the same order)"
        )
    if _runs_on_arrays(space):
        return _exact_arrays(space, target_list)
    return _exact_loop(space, target_list)


def _runs_on_arrays(space: PersonalizedISP) -> bool:
    """Whether the array path applies: CSR backend with numpy, a tree that
    is current for this very graph, and out-reach weights ``r(s) r(t)``
    that convert to float exactly."""
    graph = space.graph
    bct = space.bct
    return (
        _csr.HAS_NUMPY
        and _csr.effective_backend(graph, space.backend) == _csr.CSR_BACKEND
        and bct.graph is graph
        and bct.version == graph._version
        and space.n * space.n < _EXACT_FLOAT_INT
    )


def _boundary(space: PersonalizedISP, target_list: List[Node]) -> List[Node]:
    """B: all neighbours of target nodes (the only possible endpoints of a
    2-hop path whose middle is a target), in first-seen order."""
    boundary: Dict[Node, None] = {}
    for node in target_list:
        for neighbor in space.graph.neighbors(node):
            boundary[neighbor] = None
    return list(boundary)


def _evaluation(
    space: PersonalizedISP,
    risks_units: List[float],
    lambda_units: float,
    num_pairs: int,
    work: int,
) -> ExactSubspaceEvaluation:
    """Scale the totals (in pair-weight units) to PISP probabilities."""
    scale = space.personalized_pair_weight
    if scale <= 0:
        return ExactSubspaceEvaluation(
            lambda_exact=0.0, risks=[0.0] * len(risks_units), num_pairs=0, work=work
        )
    return ExactSubspaceEvaluation(
        lambda_exact=min(1.0, lambda_units / scale),
        risks=[value / scale for value in risks_units],
        num_pairs=num_pairs,
        work=work,
    )


def _exact_arrays(
    space: PersonalizedISP, target_list: List[Node]
) -> ExactSubspaceEvaluation:
    """``Exact_bc`` over :func:`~repro.graphs.csr.two_hop_paths` chunks."""
    np = _csr._np
    snapshot = _csr.as_csr(space.graph)
    edges = space.bct.edge_blocks()
    index = snapshot.index
    count = len(target_list)
    position = np.full(snapshot.n, -1, dtype=np.int64)
    position[[index[node] for node in target_list]] = np.arange(count)
    indices = np.asarray(snapshot.indices, dtype=np.int64)
    sources = [index[node] for node in _boundary(space, target_list)]
    bins = np.arange(count)
    risks_units = np.zeros(count)
    lambda_units = 0.0
    num_pairs = 0
    work = 0
    for chunk in _csr.two_hop_paths(snapshot, sources):
        work += chunk.pair.size
        # Only paths through a target contribute; sigma counts them all.
        middle_position = position[indices[chunk.first_slot]]
        through = np.flatnonzero((middle_position >= 0) & (chunk.pair >= 0))
        if not through.size:
            continue
        first = chunk.first_slot[through]
        second = chunk.second_slot[through]
        pairs = chunk.pair[through]
        middle_position = middle_position[through]
        sigma = np.bincount(chunk.pair + 1)[pairs + 1]
        same_block = edges.block[first] == edges.block[second]
        weight = edges.tail_reach[first].astype(np.int64) * edges.head_reach[second]

        # Risks: per target in path order; each bin starts from its total.
        risks_units = np.bincount(
            np.concatenate((bins, middle_position[same_block])),
            weights=np.concatenate(
                (risks_units, weight[same_block] / sigma[same_block])
            ),
            minlength=count,
        )

        # lambda-hat: one term per same-block pair, at its first path
        # through a target.
        target_middles = np.bincount(pairs)
        leads = np.sort(np.unique(pairs, return_index=True)[1])
        leads = leads[same_block[leads]]
        terms = target_middles[pairs[leads]] / sigma[leads] * weight[leads]
        num_pairs += int(leads.size)
        for term in terms.tolist():
            lambda_units += term
    return _evaluation(space, risks_units.tolist(), lambda_units, num_pairs, work)


def _exact_loop(
    space: PersonalizedISP, target_list: List[Node]
) -> ExactSubspaceEvaluation:
    """``Exact_bc`` as a nested neighbour loop over the dict adjacency."""
    graph = space.graph
    target_index = {node: position for position, node in enumerate(target_list)}
    target_set = set(target_list)
    reach_tables = space.bct.out_reach
    risks_units = [0.0] * len(target_list)
    lambda_units = 0.0
    num_pairs = 0
    work = 0

    for source in _boundary(space, target_list):
        source_neighbors = set(graph.neighbors(source))
        # sigma2[t]: number of common neighbours of (source, t) == sigma_st
        # for distance-2 pairs; middles_in_a[t]: how many of them are targets.
        sigma2: Dict[Node, int] = {}
        middles_in_a: Dict[Node, int] = {}
        for middle in graph.neighbors(source):
            is_target_middle = middle in target_set
            for endpoint in graph.neighbors(middle):
                work += 1
                if endpoint == source or endpoint in source_neighbors:
                    continue
                sigma2[endpoint] = sigma2.get(endpoint, 0) + 1
                if is_target_middle:
                    middles_in_a[endpoint] = middles_in_a.get(endpoint, 0) + 1

        if not middles_in_a:
            continue

        # lambda-hat accumulation (one term per ordered pair with >= 1 target
        # middle), and per-target risk accumulation.
        pair_block: Dict[Node, int] = {}
        for endpoint, target_middles in middles_in_a.items():
            block = space.common_block(source, endpoint)
            if block is None:
                continue
            pair_block[endpoint] = block
            reach = reach_tables[block]
            weight = reach[source] * reach[endpoint]
            lambda_units += (target_middles / sigma2[endpoint]) * weight
            num_pairs += 1

        for middle in graph.neighbors(source):
            position = target_index.get(middle)
            if position is None:
                continue
            for endpoint in graph.neighbors(middle):
                if endpoint == source or endpoint in source_neighbors:
                    continue
                block = pair_block.get(endpoint)
                if block is None:
                    continue
                reach = reach_tables[block]
                weight = reach[source] * reach[endpoint]
                risks_units[position] += weight / sigma2[endpoint]

    return _evaluation(space, risks_units, lambda_units, num_pairs, work)
