"""Free functions over :class:`repro.nn.tensor.Tensor`.

Includes the numerically stable row-wise softmax family used by the
policy head, standard losses, and small conveniences shared by layers.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NNError
from repro.nn.tensor import Tensor

MASK_FILL = -1e9
"""Logit value used to disable masked-out actions.

Large enough that ``exp`` underflows to zero relative to live logits,
small enough that float64 arithmetic stays finite.
"""


def relu(x: Tensor) -> Tensor:
    return x.relu()


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    return x.leaky_relu(negative_slope)


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable ``log(softmax(logits))`` along ``axis``."""
    if axis != -1 and axis != logits.ndim - 1:
        raise NNError("log_softmax only supports the last axis")
    shifted = logits - logits.max(axis=-1, keepdims=True).detach()
    log_norm = shifted.exp().sum(axis=-1, keepdims=True).log()
    return shifted - log_norm


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    return log_softmax(logits, axis=axis).exp()


def masked_log_softmax(logits: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Log-softmax restricted to entries where ``mask`` is True.

    Masked entries receive :data:`MASK_FILL` before normalization, so
    their probability is (numerically) zero and no gradient flows to them.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any(axis=-1).all():
        raise NNError("masked_log_softmax: at least one entry must be valid")
    filled = Tensor.where(mask, logits, Tensor(np.full(logits.shape, MASK_FILL)))
    return log_softmax(filled, axis=axis)


def mse_loss(prediction: Tensor, target: Tensor | np.ndarray) -> Tensor:
    """Mean squared error."""
    target = Tensor.ensure(target).detach()
    diff = prediction - target
    return (diff * diff).mean()


def huber_loss(
    prediction: Tensor, target: Tensor | np.ndarray, delta: float = 1.0
) -> Tensor:
    """Huber (smooth L1) loss, elementwise-mean."""
    target = Tensor.ensure(target).detach()
    diff = prediction - target
    abs_diff = diff.abs()
    quadratic = (diff * diff) * 0.5
    linear = abs_diff * delta - 0.5 * delta * delta
    return Tensor.where(abs_diff.data <= delta, quadratic, linear).mean()


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise NNError("dropout probability must be < 1")
    keep = (rng.random(x.shape) >= p).astype(np.float64) / (1.0 - p)
    return x * Tensor(keep)


def global_mean_pool(node_embeddings: Tensor) -> Tensor:
    """Mean-pool node embeddings (n x d) into a graph embedding (d,)."""
    return node_embeddings.mean(axis=0)


def global_sum_pool(node_embeddings: Tensor) -> Tensor:
    """Sum-pool node embeddings (n x d) into a graph embedding (d,)."""
    return node_embeddings.sum(axis=0)
