"""Graph neural-network layers.

Implements the two encoders the paper evaluates:

- :class:`GCNLayer` -- graph convolution (Kipf & Welling), the paper's
  Eq. 7: ``H' = ReLU(norm(A + I) H W)``.  We use the standard symmetric
  normalization ``D~^{-1/2} (A + I) D~^{-1/2}`` where ``D~`` is the degree
  matrix of ``A + I`` (the paper's rendering of the exponent signs is a
  typo; the cited GCN paper uses the symmetric form).
- :class:`GATLayer` -- graph attention (Velickovic et al.), the dense
  masked-softmax formulation.  The paper reports GAT underperforming GCN
  for this problem; we keep it for the same ablation.

Both operate on a *transformed* topology (see
:mod:`repro.topology.transform`): nodes are IP links, features are link
capacities.  :class:`GraphEncoder` stacks ``num_layers`` of either kind
and supports ``num_layers == 0`` (MLP-only ablation, Fig. 10).

``adjacency_norm`` may be a dense array or a ``scipy.sparse`` matrix:
GCN and SAGE propagate through a sparse matvec when given one (the
environment caches a CSR copy for large topologies), while GAT --
inherently dense because of its all-pairs attention logits --
densifies the operand.  The dense path is untouched, so small
topologies keep bitwise-identical training trajectories.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import NNError
from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor
from repro.seeding import as_generator


def normalized_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Return ``D~^{-1/2} (A + I) D~^{-1/2}`` for a dense 0/1 adjacency.

    ``adjacency`` must be square and symmetric (an undirected graph).
    Isolated nodes still receive the self-loop, so every row has positive
    degree and the normalization is well defined.
    """
    adjacency = np.asarray(adjacency, dtype=np.float64)
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise NNError(f"adjacency must be square, got shape {adjacency.shape}")
    if not np.allclose(adjacency, adjacency.T):
        raise NNError("adjacency must be symmetric (undirected graph)")
    a_hat = adjacency + np.eye(adjacency.shape[0])
    degrees = a_hat.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(degrees)
    return a_hat * inv_sqrt[:, None] * inv_sqrt[None, :]


def normalized_adjacency_sparse(adjacency: np.ndarray) -> sp.csr_matrix:
    """CSR form of :func:`normalized_adjacency` (identical values)."""
    return sp.csr_matrix(normalized_adjacency(adjacency))


class GCNLayer(Module):
    """One graph-convolution layer: ``H' = act(A_norm H W + b)``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: str = "relu",
        rng: "int | np.random.Generator | None" = None,
    ):
        super().__init__()
        rng = as_generator(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform(rng, in_features, out_features))
        self.bias = Parameter(init.zeros(out_features))
        self.activation = activation

    def forward(self, features: Tensor, adjacency_norm) -> Tensor:
        if sp.issparse(adjacency_norm):
            propagated = Tensor.sparse_matmul(adjacency_norm, features)
        else:
            propagated = Tensor(adjacency_norm) @ features
        out = propagated @ self.weight + self.bias
        if self.activation == "relu":
            out = out.relu()
        elif self.activation == "tanh":
            out = out.tanh()
        elif self.activation != "identity":
            raise NNError(f"unknown activation {self.activation!r}")
        return out


class GATLayer(Module):
    """One dense graph-attention layer (single head).

    Attention logits ``e_ij = LeakyReLU(a_src . W h_i + a_dst . W h_j)``
    are softmax-normalized over each node's neighborhood (plus self-loop).
    Features are ``(n, f)``, or ``(m, n, f)`` for ``m`` graphs that share
    one adjacency: each graph then attends only within itself.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        negative_slope: float = 0.2,
        rng: "int | np.random.Generator | None" = None,
    ):
        super().__init__()
        rng = as_generator(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.negative_slope = negative_slope
        self.weight = Parameter(init.xavier_uniform(rng, in_features, out_features))
        self.attn_src = Parameter(init.xavier_uniform(rng, out_features, 1))
        self.attn_dst = Parameter(init.xavier_uniform(rng, out_features, 1))
        self.bias = Parameter(init.zeros(out_features))

    def forward(self, features: Tensor, adjacency_norm) -> Tensor:
        # Attention logits are all-pairs, so GAT densifies sparse input.
        if sp.issparse(adjacency_norm):
            adjacency_norm = adjacency_norm.toarray()
        # Any positive entry (including the self-loop added by
        # normalized_adjacency) marks an attendable neighbor.
        mask = np.asarray(adjacency_norm) > 0.0
        transformed = features @ self.weight  # (..., n, d')
        src_scores = transformed @ self.attn_src  # (..., n, 1)
        dst_scores = transformed @ self.attn_dst  # (..., n, 1)
        # (..., 1, n): the transpose of each graph's destination scores.
        dst_row = dst_scores.reshape(*dst_scores.shape[:-2], 1, -1)
        logits = (src_scores + dst_row).leaky_relu(self.negative_slope)
        attention = F.masked_log_softmax(logits, mask).exp()
        out = attention @ transformed + self.bias
        return out.relu()


class SAGELayer(Module):
    """One GraphSAGE layer (mean aggregator).

    ``h_i' = ReLU(W_self h_i + W_neigh mean_{j in N(i)} h_j)``.
    Included as a third encoder choice: SAGE separates self and
    neighborhood information, which some planning topologies prefer
    over GCN's blended normalization.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: "int | np.random.Generator | None" = None,
    ):
        super().__init__()
        rng = as_generator(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight_self = Parameter(
            init.xavier_uniform(rng, in_features, out_features)
        )
        self.weight_neighbor = Parameter(
            init.xavier_uniform(rng, in_features, out_features)
        )
        self.bias = Parameter(init.zeros(out_features))
        self._mean_cache: "tuple | None" = None

    def _sparse_mean_op(self, adjacency) -> sp.csr_matrix:
        """Row-normalized CSR mean operator, cached per adjacency object."""
        cached = self._mean_cache
        if cached is not None and cached[0] is adjacency:
            return cached[1]
        mean_op = adjacency.tocsr(copy=True)
        row_sums = np.asarray(mean_op.sum(axis=1)).ravel()
        row_sums[row_sums == 0.0] = 1.0
        counts = np.repeat(row_sums, np.diff(mean_op.indptr))
        mean_op.data = mean_op.data / counts
        self._mean_cache = (adjacency, mean_op)
        return mean_op

    def forward(self, features: Tensor, adjacency_norm) -> Tensor:
        # Recover a row-stochastic (mean) operator from any nonnegative
        # adjacency: rows renormalized to sum to 1 (self-loops included
        # when the caller used normalized_adjacency).
        if sp.issparse(adjacency_norm):
            neighborhood = Tensor.sparse_matmul(
                self._sparse_mean_op(adjacency_norm), features
            )
        else:
            weights = np.asarray(adjacency_norm, dtype=np.float64)
            row_sums = weights.sum(axis=1, keepdims=True)
            row_sums[row_sums == 0.0] = 1.0
            mean_op = weights / row_sums
            neighborhood = Tensor(mean_op) @ features
        out = (
            features @ self.weight_self
            + neighborhood @ self.weight_neighbor
            + self.bias
        )
        return out.relu()


class GraphEncoder(Module):
    """Stack of GCN, GAT or SAGE layers producing node embeddings.

    With ``num_layers == 0`` the encoder is a single linear projection of
    the raw features (no message passing) -- the "no GNN" ablation of
    Fig. 10 where the MLP heads operate on unpropagated features.
    """

    def __init__(
        self,
        in_features: int,
        hidden_features: int,
        num_layers: int,
        gnn_type: str = "gcn",
        rng: "int | np.random.Generator | None" = None,
    ):
        super().__init__()
        if num_layers < 0:
            raise NNError("num_layers must be >= 0")
        if gnn_type not in ("gcn", "gat", "sage"):
            raise NNError(
                f"gnn_type must be 'gcn', 'gat' or 'sage', got {gnn_type!r}"
            )
        rng = as_generator(rng)
        self.in_features = in_features
        self.hidden_features = hidden_features
        self.num_layers = num_layers
        self.gnn_type = gnn_type
        self._layers: list[Module] = []
        if num_layers == 0:
            self.projection = Parameter(
                init.xavier_uniform(rng, in_features, hidden_features)
            )
        else:
            for index in range(num_layers):
                fan_in = in_features if index == 0 else hidden_features
                if gnn_type == "gcn":
                    layer = GCNLayer(fan_in, hidden_features, rng=rng)
                elif gnn_type == "gat":
                    layer = GATLayer(fan_in, hidden_features, rng=rng)
                else:
                    layer = SAGELayer(fan_in, hidden_features, rng=rng)
                setattr(self, f"layer{index}", layer)
                self._layers.append(layer)

    @property
    def out_features(self) -> int:
        return self.hidden_features

    def forward(self, features: Tensor, adjacency_norm) -> Tensor:
        """Encode node ``features`` (n x f) into embeddings (n x hidden)."""
        if self.num_layers == 0:
            return features @ self.projection
        out = features
        for layer in self._layers:
            out = layer(out, adjacency_norm)
        return out
