"""First-order optimizers: SGD (with momentum) and Adam.

The paper trains the actor at lr=3e-4 and the critic at lr=1e-3 (Table 2)
with separate optimizers over shared GNN parameters; both optimizers here
tolerate parameters whose gradient is ``None`` (not touched this step).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import NNError
from repro.nn.module import Parameter


class Optimizer:
    """Base optimizer over an explicit parameter list."""

    def __init__(self, parameters: Iterable[Parameter], lr: float):
        self.parameters = list(parameters)
        if not self.parameters:
            raise NNError("optimizer received no parameters")
        if lr <= 0:
            raise NNError("learning rate must be positive")
        self.lr = lr

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def state_dict(self) -> dict:
        """JSON-plus-arrays snapshot of the optimizer's mutable state.

        Scalars are plain python values; per-parameter slots are lists
        of arrays aligned with ``self.parameters``.  Subclasses extend.
        """
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot from :meth:`state_dict`."""
        del state

    def _check_slot(self, name: str, arrays) -> list[np.ndarray]:
        if len(arrays) != len(self.parameters):
            raise NNError(
                f"optimizer state {name!r} has {len(arrays)} entries for "
                f"{len(self.parameters)} parameters"
            )
        out = []
        for param, arr in zip(self.parameters, arrays):
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != param.data.shape:
                raise NNError(
                    f"optimizer state {name!r} shape {arr.shape} does not "
                    f"match parameter shape {param.data.shape}"
                )
            out.append(arr.copy())
        return out

    def clip_grad_norm(self, max_norm: float) -> float:
        """Scale all gradients so their global L2 norm is <= max_norm.

        Returns the pre-clipping norm.
        """
        total = 0.0
        for param in self.parameters:
            if param.grad is not None:
                total += float((param.grad**2).sum())
        norm = total**0.5
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for param in self.parameters:
                if param.grad is not None:
                    param.grad = param.grad * scale
        return norm


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(
        self, parameters: Iterable[Parameter], lr: float, momentum: float = 0.0
    ):
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise NNError("momentum must be in [0, 1)")
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            if self.momentum > 0:
                velocity *= self.momentum
                velocity += param.grad
                param.data = param.data - self.lr * velocity
            else:
                param.data = param.data - self.lr * param.grad

    def state_dict(self) -> dict:
        return {"velocity": [v.copy() for v in self._velocity]}

    def load_state_dict(self, state: dict) -> None:
        self._velocity = self._check_slot("velocity", state["velocity"])


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise NNError("betas must be in [0, 1)")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            denominator = np.sqrt(v_hat) + self.eps
            param.data = param.data - self.lr * m_hat / denominator

    def state_dict(self) -> dict:
        return {
            "step_count": self._step_count,
            "m": [m.copy() for m in self._m],
            "v": [v.copy() for v in self._v],
        }

    def load_state_dict(self, state: dict) -> None:
        m = self._check_slot("m", state["m"])
        v = self._check_slot("v", state["v"])
        self._step_count = int(state["step_count"])
        self._m = m
        self._v = v
