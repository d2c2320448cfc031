"""Block-cut tree, out-reach sets and the cutpoint betweenness correction.

These are the quantities Section IV-A of the paper derives for the
intra-component shortest path (ISP) sample space:

* the **block-cut tree** ``GT`` with one node per block and per cutpoint;
* the **out-reach set** size ``r_i(v)`` — how many nodes can be reached from
  ``v`` without entering block ``C_i`` (Claim 9 / Eq. 18);
* the **branch size** ``|T_i(v)| = n - r_i(v)``;
* the per-block pair weight ``W_i = n^2 - sum_{s in C_i} r_i(s)^2`` which
  equals ``sum_{s != t in C_i} r_i(s) r_i(t)`` and drives ``gamma`` (Eq. 19),
  ``eta`` (Eq. 23) and the multistage sampler ``Gen_bc``;
* the cutpoint correction ``bc_a(v)`` — the probability that a random
  shortest path *breaks* at ``v`` (Lemma 14 / Eq. 21).

All of these assume a connected graph, matching the paper's benchmark
networks; :class:`BlockCutTree` raises :class:`~repro.errors.GraphError`
otherwise.

:func:`memoized_block_cut_tree` keeps one tree per graph version, so
repeated ranking queries on an unchanged graph pay the ``O(n + m)``
preprocessing once.  A memoised tree holds its graph weakly and keeps only
arrays (the per-slot block data of :meth:`BlockCutTree.edge_blocks` and the
block CSR snapshots of :meth:`BlockCutTree.block_csr`), never dict block
subgraphs, which live only while someone uses them.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.errors import GraphError
from repro.graphs import csr as _csr
from repro.graphs.biconnected import BiconnectedDecomposition, biconnected_components
from repro.graphs.components import is_connected
from repro.graphs.graph import Graph

Node = Hashable
TreeNode = Tuple[str, object]  # ("block", index) or ("cut", node)


@dataclass(frozen=True)
class EdgeBlocks:
    """Per-adjacency-slot block data, aligned with ``as_csr(graph)``.

    For the slot ``j`` of edge ``u -> w`` (``w = indices[j]``):

    * ``block[j]`` — the block containing the edge;
    * ``tail_reach[j]`` — ``r_block(u)``;
    * ``head_reach[j]`` — ``r_block(w)``.

    Two edges ``(s, m)`` and ``(m, e)`` lie in one block exactly when ``s``
    and ``e`` share a block, so a two-hop path finds its pair's common block
    and out-reach weight with three array reads (``Exact_bc``).  int32
    arrays, numpy only.
    """

    block: object
    tail_reach: object
    head_reach: object


#: Blocks with fewer nodes are traversed through their subgraph, never a
#: :meth:`BlockCutTree.block_csr`: per-source dict BFS beats the array
#: kernels there, and a tree keeps no snapshot of its many tiny blocks.
BLOCK_CSR_MIN_NODES = 32


def _strong_ref(graph: Graph) -> Callable[[], Graph]:
    """A strong reference with the call interface of ``weakref.ref``."""
    return lambda: graph


@dataclass
class BlockCutTree:
    """Block-cut tree of a connected graph plus the ISP bookkeeping.

    Use :func:`build_block_cut_tree` to construct one.

    Attributes
    ----------
    graph:
        The underlying connected graph.  A tree from
        :func:`memoized_block_cut_tree` holds it weakly (reading it after
        the graph is gone raises :class:`~repro.errors.GraphError`); one
        from :func:`build_block_cut_tree` holds it strongly.
    version:
        ``graph._version`` when the tree was built.
    decomposition:
        The biconnected decomposition (blocks + cutpoints).
    tree_adjacency:
        Adjacency of the block-cut tree over ``("block", i)`` and
        ``("cut", v)`` nodes.
    out_reach:
        ``out_reach[i][v] = r_i(v)`` for every block ``i`` and node
        ``v in C_i``.
    branch_sizes:
        ``branch_sizes[v][i] = |T_i(v)| = n - r_i(v)`` for every cutpoint
        ``v`` and block ``i`` containing it.
    block_pair_weight:
        ``W_i = n^2 - sum_{s in C_i} r_i(s)^2``.
    bc_a:
        ``bc_a[v]`` for every node (0 for non-cutpoints).
    gamma:
        Normalizer ``gamma`` of the ISP distribution (Eq. 19).
    """

    decomposition: BiconnectedDecomposition
    tree_adjacency: Dict[TreeNode, List[TreeNode]]
    out_reach: List[Dict[Node, int]]
    branch_sizes: Dict[Node, Dict[int, int]]
    block_pair_weight: List[int]
    bc_a: Dict[Node, float]
    gamma: float
    version: int
    _graph_ref: Callable[[], Optional[Graph]] = field(repr=False)
    _block_subgraphs: "weakref.WeakValueDictionary[int, Graph]" = field(
        default_factory=weakref.WeakValueDictionary, repr=False
    )
    _block_csrs: Dict[int, "_csr.CSRGraph"] = field(default_factory=dict, repr=False)
    _edge_blocks: Optional[EdgeBlocks] = field(default=None, repr=False)

    @property
    def graph(self) -> Graph:
        """The underlying graph."""
        graph = self._graph_ref()
        if graph is None:
            raise GraphError("the graph of this block-cut tree no longer exists")
        return graph

    def __getstate__(self):
        # Pickles (worker payloads) carry the graph itself and none of the
        # derived caches, which the receiving side rebuilds on demand.
        state = dict(self.__dict__)
        state["_graph_ref"] = self.graph
        state["_block_subgraphs"] = None
        state["_block_csrs"] = {}
        state["_edge_blocks"] = None
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._graph_ref = _strong_ref(state["_graph_ref"])
        self._block_subgraphs = weakref.WeakValueDictionary()

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        """Number of biconnected components."""
        return len(self.decomposition.components)

    def block_nodes(self, index: int) -> List[Node]:
        """Return the node list of block ``index``."""
        return self.decomposition.components[index]

    def blocks_of(self, node: Node) -> List[int]:
        """Return the indices of blocks containing ``node``."""
        return self.decomposition.components_of(node)

    def out_reach_of(self, block_index: int, node: Node) -> int:
        """Return ``r_{block_index}(node)``.

        Raises
        ------
        GraphError
            If ``node`` is not part of the block.
        """
        try:
            return self.out_reach[block_index][node]
        except (IndexError, KeyError):
            raise GraphError(
                f"node {node!r} is not in block {block_index}"
            ) from None

    def block_subgraph(self, index: int) -> Graph:
        """Return the induced subgraph of block ``index``.

        Because any edge joining two nodes of a block belongs to that block,
        the induced subgraph equals the block itself.  The tree caches it
        only while someone else holds it, so a long-lived (memoised) tree
        never pins dict-of-dict subgraphs.
        """
        subgraph = self._block_subgraphs.get(index)
        if subgraph is None:
            subgraph = self.graph.subgraph(self.decomposition.components[index])
            self._block_subgraphs[index] = subgraph
        return subgraph

    def block_csr(self, index: int) -> "_csr.CSRGraph":
        """Return (and cache) the CSR snapshot of block ``index``.

        Byte-identical to ``CSRGraph.from_graph(self.block_subgraph(index))``
        (same node and adjacency order), so every traversal of it matches
        one of the subgraph.  Kept for the tree's lifetime: arrays, not a
        dict graph.
        """
        snapshot = self._block_csrs.get(index)
        if snapshot is None:
            snapshot = _csr.CSRGraph.from_graph(self.block_subgraph(index))
            self._block_csrs[index] = snapshot
        return snapshot

    def edge_blocks(self) -> EdgeBlocks:
        """Return (and cache) the :class:`EdgeBlocks` of ``as_csr(graph)``.

        Raises
        ------
        GraphError
            If numpy is missing or the graph changed since the tree was
            built (its slots no longer match the tree).
        """
        if self._edge_blocks is None:
            graph = self.graph
            if graph._version != self.version:
                raise GraphError("the graph changed since its block-cut tree was built")
            if not _csr.HAS_NUMPY:
                raise GraphError("edge_blocks requires numpy")
            self._edge_blocks = _build_edge_blocks(self, _csr.as_csr(graph))
        return self._edge_blocks

    def pair_weight_total(self) -> int:
        """Return ``sum_i W_i = n(n-1) * gamma``."""
        return sum(self.block_pair_weight)


def build_block_cut_tree(
    graph: Graph, decomposition: Optional[BiconnectedDecomposition] = None
) -> BlockCutTree:
    """Build the :class:`BlockCutTree` of a connected graph.

    Parameters
    ----------
    graph:
        A connected graph with at least two nodes.
    decomposition:
        Optionally a pre-computed biconnected decomposition (to avoid doing
        the DFS twice).

    Raises
    ------
    GraphError
        If the graph is empty, has a single node, or is disconnected.
    """
    n = graph.number_of_nodes()
    if n < 2:
        raise GraphError(f"block-cut tree needs at least 2 nodes, got {n}")
    if not is_connected(graph):
        raise GraphError(
            "block-cut tree requires a connected graph; "
            "extract the largest connected component first"
        )
    if decomposition is None:
        decomposition = biconnected_components(graph)
    blocks = decomposition.components
    cutpoints = decomposition.cutpoints

    # ------------------------------------------------------------------
    # Block-cut tree adjacency.
    # ------------------------------------------------------------------
    tree_adjacency: Dict[TreeNode, List[TreeNode]] = {}
    for index in range(len(blocks)):
        tree_adjacency[("block", index)] = []
    for cutpoint in cutpoints:
        tree_adjacency[("cut", cutpoint)] = []
    for index, nodes in enumerate(blocks):
        for node in nodes:
            if node in cutpoints:
                tree_adjacency[("block", index)].append(("cut", node))
                tree_adjacency[("cut", node)].append(("block", index))

    # ------------------------------------------------------------------
    # Subtree sizes in the rooted block-cut tree.
    # Each graph node contributes to exactly one tree node: cutpoints to
    # their ("cut", v) node, all other nodes to their unique block.
    # ------------------------------------------------------------------
    contribution: Dict[TreeNode, int] = {}
    for index, nodes in enumerate(blocks):
        contribution[("block", index)] = sum(
            1 for node in nodes if node not in cutpoints
        )
    for cutpoint in cutpoints:
        contribution[("cut", cutpoint)] = 1

    root: TreeNode = ("block", 0)
    parent: Dict[TreeNode, Optional[TreeNode]] = {root: None}
    order: List[TreeNode] = []
    stack = [root]
    while stack:
        tree_node = stack.pop()
        order.append(tree_node)
        for child in tree_adjacency[tree_node]:
            if child not in parent:
                parent[child] = tree_node
                stack.append(child)
    subtree: Dict[TreeNode, int] = {node: contribution[node] for node in order}
    for tree_node in reversed(order):
        parent_node = parent[tree_node]
        if parent_node is not None:
            subtree[parent_node] += subtree[tree_node]

    # ------------------------------------------------------------------
    # Branch sizes f(v, C_i) = |T_i(v)| for every cutpoint v and block
    # C_i containing v, derived from the rooted subtree sizes.
    # ------------------------------------------------------------------
    branch_sizes: Dict[Node, Dict[int, int]] = {}
    for cutpoint in cutpoints:
        cut_tree_node: TreeNode = ("cut", cutpoint)
        branches: Dict[int, int] = {}
        for adjacent in tree_adjacency[cut_tree_node]:
            block_index = adjacent[1]
            if parent[adjacent] == cut_tree_node:
                branches[block_index] = subtree[adjacent]
            else:
                branches[block_index] = n - subtree[cut_tree_node]
        branch_sizes[cutpoint] = branches

    # ------------------------------------------------------------------
    # Out-reach sets r_i(v): 1 for non-cutpoints, n - |T_i(v)| for cutpoints.
    # ------------------------------------------------------------------
    out_reach: List[Dict[Node, int]] = []
    for index, nodes in enumerate(blocks):
        reach: Dict[Node, int] = {}
        for node in nodes:
            if node in cutpoints:
                reach[node] = n - branch_sizes[node][index]
            else:
                reach[node] = 1
        out_reach.append(reach)

    # ------------------------------------------------------------------
    # Per-block pair weight W_i = n^2 - sum r_i(s)^2 and gamma.
    # ------------------------------------------------------------------
    block_pair_weight: List[int] = []
    for index, reach in enumerate(out_reach):
        sum_sq = sum(value * value for value in reach.values())
        block_pair_weight.append(n * n - sum_sq)
    gamma = sum(block_pair_weight) / (n * (n - 1))

    # ------------------------------------------------------------------
    # Cutpoint correction bc_a(v): probability that a uniformly random
    # shortest path breaks at v, i.e. its endpoints fall in two different
    # branches around v.
    # ------------------------------------------------------------------
    bc_a: Dict[Node, float] = {node: 0.0 for node in graph.nodes()}
    for cutpoint, branches in branch_sizes.items():
        total = sum(branches.values())  # equals n - 1
        sum_sq = sum(value * value for value in branches.values())
        bc_a[cutpoint] = (total * total - sum_sq) / (n * (n - 1))

    return BlockCutTree(
        decomposition=decomposition,
        tree_adjacency=tree_adjacency,
        out_reach=out_reach,
        branch_sizes=branch_sizes,
        block_pair_weight=block_pair_weight,
        bc_a=bc_a,
        gamma=gamma,
        version=graph._version,
        _graph_ref=_strong_ref(graph),
    )


def _build_edge_blocks(tree: BlockCutTree, snapshot: "_csr.CSRGraph") -> EdgeBlocks:
    """Compute :class:`EdgeBlocks` for ``snapshot`` (the graph's CSR)."""
    np = _csr._np
    decomposition = tree.decomposition
    index = snapshot.index
    labels = snapshot.labels
    home = np.zeros(snapshot.n, dtype=np.int32)  # a block of every node
    for block_index, nodes in enumerate(decomposition.components):
        for node in nodes:
            home[index[node]] = block_index
    is_cut = np.zeros(snapshot.n, dtype=bool)
    for node in decomposition.cutpoints:
        is_cut[index[node]] = True
    indptr = np.asarray(snapshot.indptr, dtype=np.int64)
    heads = np.asarray(snapshot.indices, dtype=np.int64)
    tails = np.repeat(np.arange(snapshot.n, dtype=np.int64), np.diff(indptr))
    # A non-cutpoint lies in one block only, which holds all its edges.
    block = np.where(is_cut[tails], home[heads], home[tails])
    for slot in np.flatnonzero(is_cut[tails] & is_cut[heads]).tolist():
        shared = set(decomposition.components_of(labels[tails[slot]]))
        block[slot] = next(
            b for b in decomposition.components_of(labels[heads[slot]])
            if b in shared
        )
    # Out-reach is 1 except at cutpoints.
    reach = [np.ones(heads.size, dtype=np.int32) for _ in range(2)]
    for ends, values in zip((tails, heads), reach):
        for slot in np.flatnonzero(is_cut[ends]).tolist():
            values[slot] = tree.out_reach[block[slot]][labels[ends[slot]]]
    return EdgeBlocks(block=block, tail_reach=reach[0], head_reach=reach[1])


#: ``graph -> tree`` for :func:`memoized_block_cut_tree`.  The trees hold
#: their graph weakly, so an entry never keeps its key alive.
_tree_memo: "weakref.WeakKeyDictionary[Graph, BlockCutTree]" = (
    weakref.WeakKeyDictionary()
)


def memoized_block_cut_tree(graph: Graph) -> BlockCutTree:
    """Return the block-cut tree of ``graph``, built once per graph version.

    The first call on a graph (or the first after it mutated, as
    ``graph._version`` tells) runs :func:`build_block_cut_tree`; later calls
    return the same tree object.  The memo is keyed weakly on the graph and
    its trees hold the graph weakly, so it never keeps a graph alive.
    """
    tree = _tree_memo.get(graph)
    if tree is None or tree.version != graph._version:
        tree = build_block_cut_tree(graph)
        tree._graph_ref = weakref.ref(graph)
        _tree_memo[graph] = tree
    return tree
