"""Graph neural-network layers for the SG-CNN (PotentialNet-style) head.

The spatial-graph model in the paper is based on Gated Graph Sequence
Neural Networks (Li et al. 2015) as used by PotentialNet (Feinberg et
al. 2018): per-edge-type message passing followed by a GRU state update,
a covalent-only propagation stage, a covalent+non-covalent stage, and a
gated "graph gather" pooling restricted to ligand atoms.

Graphs are batched by block-diagonal stacking (the PyTorch-Geometric
convention): node features of every graph in a batch are concatenated
and a membership matrix maps nodes back to their graph for pooling, so
every operation remains a dense NumPy matrix product that the autograd
engine can differentiate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor
from repro.utils.rng import ensure_rng

#: Edge types used by the SG-CNN; order matters for parameter naming.
EDGE_TYPES = ("covalent", "noncovalent")


@dataclass
class GraphBatch:
    """A batch of molecular graphs stacked block-diagonally.

    Attributes
    ----------
    node_features:
        ``(total_nodes, F)`` array of per-atom feature vectors.
    adjacency:
        Mapping from edge type (``"covalent"`` / ``"noncovalent"``) to a
        dense ``(total_nodes, total_nodes)`` adjacency matrix. Matrices
        are block-diagonal: no edges connect atoms of different graphs.
    graph_index:
        ``(total_nodes,)`` integer array giving the graph id of each node.
    ligand_mask:
        ``(total_nodes,)`` boolean array marking ligand atoms; graph
        gather pools only over these nodes, as in PotentialNet.
    num_graphs:
        Number of graphs in the batch.
    """

    node_features: np.ndarray
    adjacency: dict[str, np.ndarray]
    graph_index: np.ndarray
    ligand_mask: np.ndarray
    num_graphs: int
    ids: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.node_features = np.asarray(self.node_features, dtype=np.float64)
        self.graph_index = np.asarray(self.graph_index, dtype=np.int64)
        self.ligand_mask = np.asarray(self.ligand_mask, dtype=bool)
        n = self.node_features.shape[0]
        if self.graph_index.shape != (n,):
            raise ValueError("graph_index length must match number of nodes")
        if self.ligand_mask.shape != (n,):
            raise ValueError("ligand_mask length must match number of nodes")
        for etype, matrix in self.adjacency.items():
            matrix = np.asarray(matrix, dtype=np.float64)
            if matrix.shape != (n, n):
                raise ValueError(f"adjacency['{etype}'] must be ({n}, {n}), got {matrix.shape}")
            self.adjacency[etype] = matrix

    @property
    def num_nodes(self) -> int:
        return int(self.node_features.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.node_features.shape[1])

    def membership_matrix(self) -> np.ndarray:
        """Return the ``(num_graphs, total_nodes)`` one-hot membership matrix."""
        matrix = np.zeros((self.num_graphs, self.num_nodes))
        matrix[self.graph_index, np.arange(self.num_nodes)] = 1.0
        return matrix

    @staticmethod
    def from_graphs(graphs: Sequence[Mapping[str, np.ndarray]]) -> "GraphBatch":
        """Stack individual graph dictionaries into one batch.

        Each graph mapping must provide ``node_features`` (n_i, F),
        per-edge-type adjacency matrices under ``adjacency`` (dict), a
        ``ligand_mask`` (n_i,), and optionally an ``id`` string.
        """
        if not graphs:
            raise ValueError("cannot build a GraphBatch from an empty sequence")
        feature_dim = np.asarray(graphs[0]["node_features"]).shape[1]
        features, masks, index, ids = [], [], [], []
        blocks: dict[str, list[np.ndarray]] = {etype: [] for etype in EDGE_TYPES}
        for g_id, graph in enumerate(graphs):
            nf = np.asarray(graph["node_features"], dtype=np.float64)
            if nf.shape[1] != feature_dim:
                raise ValueError("all graphs in a batch must share the node feature dimension")
            n_i = nf.shape[0]
            features.append(nf)
            masks.append(np.asarray(graph["ligand_mask"], dtype=bool))
            index.append(np.full(n_i, g_id, dtype=np.int64))
            ids.append(str(graph.get("id", g_id)))
            adjacency = graph["adjacency"]
            for etype in EDGE_TYPES:
                blocks[etype].append(np.asarray(adjacency.get(etype, np.zeros((n_i, n_i)))))
        total = int(sum(f.shape[0] for f in features))
        stacked_adj = {}
        for etype in EDGE_TYPES:
            matrix = np.zeros((total, total))
            offset = 0
            for block in blocks[etype]:
                n_i = block.shape[0]
                matrix[offset : offset + n_i, offset : offset + n_i] = block
                offset += n_i
            stacked_adj[etype] = matrix
        return GraphBatch(
            node_features=np.concatenate(features, axis=0),
            adjacency=stacked_adj,
            graph_index=np.concatenate(index),
            ligand_mask=np.concatenate(masks),
            num_graphs=len(graphs),
            ids=ids,
        )


class _ScatterPlan:
    """Deterministic segment-sum: sort the scatter index once, ``reduceat`` forever.

    ``np.add.at`` is the obvious scatter-add but is both slow (no
    vectorized fast path for repeated indices) and, more importantly
    here, accumulation-order *opaque*.  Sorting edge values by target
    with a stable argsort and summing each run with ``np.add.reduceat``
    fixes the accumulation order to (target, original edge position) —
    deterministic for a given edge list, which is what makes flat-path
    training reproducible bit-for-bit.
    """

    __slots__ = ("size", "order", "starts", "targets")

    def __init__(self, index: np.ndarray, size: int) -> None:
        index = np.asarray(index, dtype=np.int64)
        self.size = int(size)
        self.order = np.argsort(index, kind="stable")
        sorted_index = index[self.order]
        if sorted_index.size:
            change = np.flatnonzero(np.diff(sorted_index)) + 1
            self.starts = np.concatenate([np.zeros(1, dtype=np.int64), change])
            self.targets = sorted_index[self.starts]
        else:
            self.starts = np.zeros(0, dtype=np.int64)
            self.targets = np.zeros(0, dtype=np.int64)

    def scatter(self, values: np.ndarray) -> np.ndarray:
        """Sum ``values`` (one row per edge) into ``(size, ...)`` rows by index."""
        out = np.zeros((self.size,) + values.shape[1:], dtype=values.dtype)
        if self.order.size:
            out[self.targets] = np.add.reduceat(values[self.order], self.starts, axis=0)
        return out


@dataclass
class FlatEdges:
    """One edge type of a flat graph batch, as parallel edge arrays.

    ``src``/``dst`` are node indices into the batch's stacked node array
    and ``weight`` carries the adjacency entry (distance kernel x bond
    order), so the dense contribution ``A @ X`` becomes
    ``scatter_dst(weight * X[src])`` without materialising the
    ``(total, total)`` block-diagonal matrix.
    """

    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    num_nodes: int

    def __post_init__(self) -> None:
        self.src = np.asarray(self.src, dtype=np.int64)
        self.dst = np.asarray(self.dst, dtype=np.int64)
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.num_nodes = int(self.num_nodes)
        if not (self.src.shape == self.dst.shape == self.weight.shape):
            raise ValueError("src, dst and weight must have identical shapes")
        self._dst_plan: _ScatterPlan | None = None
        self._src_plan: _ScatterPlan | None = None

    def scatter_dst(self, values: np.ndarray) -> np.ndarray:
        """Sum per-edge rows into destination nodes (forward message passing)."""
        if self._dst_plan is None:
            self._dst_plan = _ScatterPlan(self.dst, self.num_nodes)
        return self._dst_plan.scatter(values)

    def scatter_src(self, values: np.ndarray) -> np.ndarray:
        """Sum per-edge rows into source nodes (the transposed/backward pass)."""
        if self._src_plan is None:
            self._src_plan = _ScatterPlan(self.src, self.num_nodes)
        return self._src_plan.scatter(values)


def _edge_propagate(hw: Tensor, edges: FlatEdges) -> Tensor:
    """Flat message passing: ``out[d] += w * hw[s]`` over all edges ``(s, d, w)``.

    Equivalent to the dense ``Tensor(A).matmul(hw)`` with ``A[d, s] = w``;
    the backward pass is the transposed scatter (``grad[s] += w * g[d]``).
    """
    weight = edges.weight[:, None]
    data = edges.scatter_dst(weight * hw.data[edges.src])

    def backward(grad):
        return (edges.scatter_src(weight * grad[edges.dst]),)

    return hw._make(data, (hw,), backward)


def _segment_pool(values: Tensor, graph_index: np.ndarray, num_graphs: int) -> Tensor:
    """Sum node rows into per-graph rows; the flat form of membership matmul.

    Nodes of a batch are stored graph-contiguously, so pooling is a
    single ``reduceat`` over the run starts; the backward pass is a row
    gather.
    """
    counts = np.bincount(graph_index, minlength=num_graphs)
    if np.any(counts == 0):
        raise ValueError("segment pooling requires every graph to have at least one node")
    starts = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)[:-1]])
    data = np.add.reduceat(values.data, starts, axis=0)

    def backward(grad):
        return (grad[graph_index],)

    return values._make(data, (values,), backward)


@dataclass
class FlatGraphBatch:
    """A batch of molecular graphs in flat edge-list layout.

    The vectorized counterpart of :class:`GraphBatch`: node features are
    stacked exactly the same way, but adjacency is kept as per-edge-type
    :class:`FlatEdges` (parallel ``src``/``dst``/``weight`` arrays)
    instead of dense ``(total, total)`` block-diagonal matrices.  Message
    passing and pooling then cost O(edges) instead of O(total^2), which
    is what makes the data-parallel trainer's hot loop batched rather
    than per-graph.  The attribute surface matches ``GraphBatch``
    (``node_features`` / ``adjacency`` / ``ligand_mask`` / ...) so
    :class:`~repro.models.sgcnn.SGCNN` runs on either layout unchanged.
    """

    node_features: np.ndarray
    edges: dict[str, FlatEdges]
    graph_index: np.ndarray
    ligand_mask: np.ndarray
    num_graphs: int
    ids: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.node_features = np.asarray(self.node_features, dtype=np.float64)
        self.graph_index = np.asarray(self.graph_index, dtype=np.int64)
        self.ligand_mask = np.asarray(self.ligand_mask, dtype=bool)
        n = self.node_features.shape[0]
        if self.graph_index.shape != (n,):
            raise ValueError("graph_index length must match number of nodes")
        if self.ligand_mask.shape != (n,):
            raise ValueError("ligand_mask length must match number of nodes")
        for etype, edges in self.edges.items():
            if edges.num_nodes != n:
                raise ValueError(f"edges['{etype}'] indexes {edges.num_nodes} nodes, batch has {n}")

    @property
    def num_nodes(self) -> int:
        return int(self.node_features.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.node_features.shape[1])

    @property
    def adjacency(self) -> dict[str, FlatEdges]:
        """Edge-type mapping under the dense batch's attribute name.

        Model code written against ``GraphBatch`` reads
        ``batch.adjacency[etype]``; here the entries are
        :class:`FlatEdges`, which the graph layers dispatch on.
        """
        return self.edges

    @staticmethod
    def from_graphs(graphs: Sequence[Mapping[str, np.ndarray]]) -> "FlatGraphBatch":
        """Stack individual graph dictionaries into one flat batch.

        Accepts the same graph mappings as :meth:`GraphBatch.from_graphs`
        (dense per-graph adjacency), extracting each graph's nonzero
        entries as edges with the batch-level node offset applied.
        """
        if not graphs:
            raise ValueError("cannot build a FlatGraphBatch from an empty sequence")
        feature_dim = np.asarray(graphs[0]["node_features"]).shape[1]
        features, masks, index, ids = [], [], [], []
        src: dict[str, list[np.ndarray]] = {etype: [] for etype in EDGE_TYPES}
        dst: dict[str, list[np.ndarray]] = {etype: [] for etype in EDGE_TYPES}
        weight: dict[str, list[np.ndarray]] = {etype: [] for etype in EDGE_TYPES}
        offset = 0
        for g_id, graph in enumerate(graphs):
            nf = np.asarray(graph["node_features"], dtype=np.float64)
            if nf.shape[1] != feature_dim:
                raise ValueError("all graphs in a batch must share the node feature dimension")
            n_i = nf.shape[0]
            features.append(nf)
            masks.append(np.asarray(graph["ligand_mask"], dtype=bool))
            index.append(np.full(n_i, g_id, dtype=np.int64))
            ids.append(str(graph.get("id", g_id)))
            adjacency = graph["adjacency"]
            for etype in EDGE_TYPES:
                block = np.asarray(adjacency.get(etype, np.zeros((n_i, n_i))), dtype=np.float64)
                if block.shape != (n_i, n_i):
                    raise ValueError(f"adjacency['{etype}'] must be ({n_i}, {n_i}), got {block.shape}")
                # dense message is A @ X: entry [d, s] sends node s to node d
                rows, cols = np.nonzero(block)
                dst[etype].append(rows + offset)
                src[etype].append(cols + offset)
                weight[etype].append(block[rows, cols])
            offset += n_i
        edges = {
            etype: FlatEdges(
                src=np.concatenate(src[etype]) if src[etype] else np.zeros(0, dtype=np.int64),
                dst=np.concatenate(dst[etype]) if dst[etype] else np.zeros(0, dtype=np.int64),
                weight=np.concatenate(weight[etype]) if weight[etype] else np.zeros(0),
                num_nodes=offset,
            )
            for etype in EDGE_TYPES
        }
        return FlatGraphBatch(
            node_features=np.concatenate(features, axis=0),
            edges=edges,
            graph_index=np.concatenate(index),
            ligand_mask=np.concatenate(masks),
            num_graphs=len(graphs),
            ids=ids,
        )


class GatedGraphConv(Module):
    """Gated graph convolution: K rounds of message passing + GRU update.

    Parameters
    ----------
    hidden_dim:
        Dimensionality of node states (inputs with fewer features are
        zero-padded, as in the reference GGNN formulation).
    num_steps:
        Number of propagation steps ``K`` (the paper's "Non-covalent /
        Covalent K" hyper-parameter).
    edge_types:
        Edge types whose adjacency matrices contribute messages.
    """

    def __init__(self, hidden_dim: int, num_steps: int, edge_types: Sequence[str] = EDGE_TYPES, rng=None) -> None:
        super().__init__()
        if hidden_dim <= 0:
            raise ValueError("hidden_dim must be positive")
        if num_steps <= 0:
            raise ValueError("num_steps must be positive")
        self.hidden_dim = int(hidden_dim)
        self.num_steps = int(num_steps)
        self.edge_types = tuple(edge_types)
        rng = ensure_rng(rng)
        for etype in self.edge_types:
            setattr(self, f"edge_weight_{etype}", Parameter(init.xavier_uniform((hidden_dim, hidden_dim), rng)))
        # GRU update gates
        self.w_z = Parameter(init.xavier_uniform((hidden_dim, hidden_dim), rng))
        self.u_z = Parameter(init.xavier_uniform((hidden_dim, hidden_dim), rng))
        self.w_r = Parameter(init.xavier_uniform((hidden_dim, hidden_dim), rng))
        self.u_r = Parameter(init.xavier_uniform((hidden_dim, hidden_dim), rng))
        self.w_h = Parameter(init.xavier_uniform((hidden_dim, hidden_dim), rng))
        self.u_h = Parameter(init.xavier_uniform((hidden_dim, hidden_dim), rng))
        self.bias_z = Parameter(np.zeros(hidden_dim))
        self.bias_r = Parameter(np.zeros(hidden_dim))
        self.bias_h = Parameter(np.zeros(hidden_dim))

    def forward(self, h: Tensor, adjacency: Mapping[str, np.ndarray]) -> Tensor:
        """Propagate node states ``h`` (total_nodes, hidden_dim)."""
        if h.shape[1] < self.hidden_dim:
            pad = self.hidden_dim - h.shape[1]
            h = Tensor.cat([h, Tensor(np.zeros((h.shape[0], pad)))], axis=1)
        elif h.shape[1] > self.hidden_dim:
            raise ValueError(
                f"node state dimension {h.shape[1]} exceeds hidden_dim {self.hidden_dim}"
            )
        for _ in range(self.num_steps):
            message = None
            for etype in self.edge_types:
                matrix = adjacency.get(etype)
                if matrix is None:
                    continue
                weight = getattr(self, f"edge_weight_{etype}")
                if isinstance(matrix, FlatEdges):
                    contribution = _edge_propagate(h.matmul(weight), matrix)
                else:
                    contribution = Tensor(matrix).matmul(h.matmul(weight))
                message = contribution if message is None else message + contribution
            if message is None:
                raise ValueError("no adjacency matrices matched the configured edge types")
            z = (message.matmul(self.w_z) + h.matmul(self.u_z) + self.bias_z).sigmoid()
            r = (message.matmul(self.w_r) + h.matmul(self.u_r) + self.bias_r).sigmoid()
            h_tilde = (message.matmul(self.w_h) + (r * h).matmul(self.u_h) + self.bias_h).tanh()
            h = (1.0 - z) * h + z * h_tilde
        return h


class GraphGather(Module):
    """Gated graph-level pooling over ligand atoms (PotentialNet gather).

    Produces a fixed-width vector per graph:
    ``sum_{v in ligand} sigmoid(i([h_v, x_v])) * tanh(j(h_v))``
    where ``i`` and ``j`` are learned linear maps and ``x_v`` is the
    original input feature vector of the node.
    """

    def __init__(self, node_dim: int, input_dim: int, gather_width: int, rng=None) -> None:
        super().__init__()
        rng = ensure_rng(rng)
        self.node_dim = int(node_dim)
        self.input_dim = int(input_dim)
        self.gather_width = int(gather_width)
        self.i_weight = Parameter(init.xavier_uniform((gather_width, node_dim + input_dim), rng))
        self.i_bias = Parameter(np.zeros(gather_width))
        self.j_weight = Parameter(init.xavier_uniform((gather_width, node_dim), rng))
        self.j_bias = Parameter(np.zeros(gather_width))

    def forward(self, h: Tensor, batch: "GraphBatch | FlatGraphBatch") -> Tensor:
        """Pool node states ``h`` into per-graph vectors ``(num_graphs, gather_width)``."""
        x0 = Tensor(batch.node_features)
        gate_input = Tensor.cat([h, x0], axis=1)
        gate = (gate_input.matmul(self.i_weight.T) + self.i_bias).sigmoid()
        value = (h.matmul(self.j_weight.T) + self.j_bias).tanh()
        gated = gate * value
        mask = batch.ligand_mask.astype(np.float64)[:, None]
        gated = gated * Tensor(mask)
        if isinstance(batch, FlatGraphBatch):
            return _segment_pool(gated, batch.graph_index, batch.num_graphs)
        membership = Tensor(batch.membership_matrix())
        return membership.matmul(gated)
