"""Weight initializers.

All initializers take an explicit :class:`numpy.random.Generator` so model
construction is deterministic under a fixed seed.
"""

from __future__ import annotations

import numpy as np


def xavier_uniform(
    rng: np.random.Generator, fan_in: int, fan_out: int, gain: float = 1.0
) -> np.ndarray:
    """Glorot/Xavier uniform initialization for a (fan_in x fan_out) matrix."""
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def kaiming_uniform(
    rng: np.random.Generator, fan_in: int, fan_out: int
) -> np.ndarray:
    """He/Kaiming uniform initialization, suited to ReLU networks."""
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def zeros(*shape: int) -> np.ndarray:
    return np.zeros(shape)


def orthogonal(
    rng: np.random.Generator, fan_in: int, fan_out: int, gain: float = 1.0
) -> np.ndarray:
    """Orthogonal initialization (common for policy/value heads)."""
    matrix = rng.standard_normal((fan_in, fan_out))
    q, r = np.linalg.qr(matrix if fan_in >= fan_out else matrix.T)
    q = q * np.sign(np.diag(r))
    if fan_in < fan_out:
        q = q.T
    return gain * q[:fan_in, :fan_out]
