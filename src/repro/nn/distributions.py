"""Probability distributions for stochastic policies.

:class:`Categorical` supports an action mask: the paper masks out IP
links whose spectrum budget is exhausted, and the policy samples only
among valid actions (Section 4.2, "action mask").

:class:`BatchedCategorical` is the row-wise generalization the batched
training forward (:class:`repro.rl.batched.BatchedForward`) builds: one
``(m, A)`` logit matrix holds ``m`` independent masked categoricals.
Its log-probs and entropies are row-local, so a row's results do not
depend on which other rows share the batch.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NNError
from repro.nn import functional as F
from repro.nn.tensor import Tensor


class Categorical:
    """Categorical distribution parameterized by (optionally masked) logits.

    Parameters
    ----------
    logits:
        1-D tensor of unnormalized log-probabilities.
    mask:
        Optional boolean array; False entries are assigned probability
        zero and are never sampled.
    """

    def __init__(self, logits: Tensor, mask: np.ndarray | None = None):
        if logits.ndim != 1:
            raise NNError(f"Categorical expects 1-D logits, got {logits.shape}")
        self.mask = None if mask is None else np.asarray(mask, dtype=bool)
        if self.mask is not None:
            if self.mask.shape != logits.shape:
                raise NNError(
                    f"mask shape {self.mask.shape} != logits shape {logits.shape}"
                )
            if not self.mask.any():
                raise NNError("Categorical mask disables every action")
            self.log_probs = F.masked_log_softmax(logits, self.mask)
        else:
            self.log_probs = F.log_softmax(logits)

    @property
    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs.data)

    def sample(self, rng: np.random.Generator) -> int:
        """Draw one action index."""
        probs = self.probs
        probs = probs / probs.sum()  # guard tiny numeric drift
        return int(rng.choice(len(probs), p=probs))

    def mode(self) -> int:
        """Return the most likely action index."""
        return int(np.argmax(self.log_probs.data))

    def log_prob(self, action: int) -> Tensor:
        """Differentiable log-probability of ``action``."""
        if self.mask is not None and not self.mask[action]:
            raise NNError(f"action {action} is masked out")
        return self.log_probs.gather_rows([action]).sum()

    def entropy(self) -> Tensor:
        """Differentiable entropy; masked entries contribute zero."""
        probs = self.log_probs.exp()
        raw = probs * self.log_probs
        if self.mask is not None:
            raw = Tensor.where(self.mask, raw, Tensor(np.zeros(raw.shape)))
        return -raw.sum()


class BatchedCategorical:
    """``m`` independent masked categoricals over one (m, A) logit matrix.

    Parameters
    ----------
    logits:
        2-D tensor of unnormalized log-probabilities, one row per slot.
    mask:
        Optional boolean (m, A) array; every row must keep at least one
        valid action.
    """

    def __init__(self, logits: Tensor, mask: np.ndarray | None = None):
        if logits.ndim != 2:
            raise NNError(
                f"BatchedCategorical expects 2-D logits, got {logits.shape}"
            )
        self.mask = None if mask is None else np.asarray(mask, dtype=bool)
        if self.mask is not None:
            if self.mask.shape != logits.shape:
                raise NNError(
                    f"mask shape {self.mask.shape} != logits shape "
                    f"{logits.shape}"
                )
            if not self.mask.any(axis=-1).all():
                raise NNError(
                    "BatchedCategorical mask disables every action in a row"
                )
            self.log_probs = F.masked_log_softmax(logits, self.mask)
        else:
            self.log_probs = F.log_softmax(logits)

    @property
    def num_slots(self) -> int:
        return self.log_probs.shape[0]

    def log_prob(self, actions) -> Tensor:
        """Differentiable per-slot log-probabilities, shape (m,)."""
        actions = np.asarray(actions, dtype=np.int64)
        if actions.shape != (self.num_slots,):
            raise NNError(
                f"expected {self.num_slots} actions, got shape {actions.shape}"
            )
        if self.mask is not None and not self.mask[
            np.arange(self.num_slots), actions
        ].all():
            raise NNError("an action is masked out in its slot")
        return self.log_probs.take(np.arange(self.num_slots), actions)

    def entropy(self) -> Tensor:
        """Differentiable per-slot entropies, shape (m,)."""
        probs = self.log_probs.exp()
        raw = probs * self.log_probs
        if self.mask is not None:
            raw = Tensor.where(self.mask, raw, Tensor(np.zeros(raw.shape)))
        return -raw.sum(axis=-1)
