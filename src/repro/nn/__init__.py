"""A from-scratch numpy neural-network substrate (the PyTorch substitute).

The paper implements its agent in PyTorch on top of SpinningUp.  This
package rebuilds the pieces NeuroPlan needs:

- :mod:`repro.nn.tensor` -- reverse-mode automatic differentiation over
  dense numpy arrays.
- :mod:`repro.nn.functional` -- free functions (relu, softmax, losses...).
- :mod:`repro.nn.module` / :mod:`repro.nn.layers` -- ``Module`` tree with
  ``Linear`` and ``MLP``.
- :mod:`repro.nn.gnn` -- graph layers: ``GCNLayer`` (Kipf & Welling,
  Eq. 7 in the paper) and ``GATLayer``.
- :mod:`repro.nn.optim` -- ``SGD`` and ``Adam``.
- :mod:`repro.nn.distributions` -- masked ``Categorical`` (and its
  row-wise ``BatchedCategorical``) for the stochastic policy with
  action masking.
- :mod:`repro.nn.serialization` -- npz checkpoints.
"""

from repro.nn.tensor import Tensor, no_grad
from repro.nn import functional
from repro.nn.module import Module, Parameter
from repro.nn.layers import (
    Dropout,
    Identity,
    LayerNorm,
    Linear,
    MLP,
    ReLU,
    Sequential,
    Tanh,
)
from repro.nn.gnn import (
    GATLayer,
    GCNLayer,
    GraphEncoder,
    SAGELayer,
    normalized_adjacency,
)
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.distributions import BatchedCategorical, Categorical
from repro.nn.serialization import save_state_dict, load_state_dict

__all__ = [
    "Tensor",
    "no_grad",
    "functional",
    "Module",
    "Parameter",
    "Linear",
    "MLP",
    "Sequential",
    "ReLU",
    "Tanh",
    "Identity",
    "GCNLayer",
    "GATLayer",
    "SAGELayer",
    "GraphEncoder",
    "LayerNorm",
    "Dropout",
    "normalized_adjacency",
    "SGD",
    "Adam",
    "Optimizer",
    "Categorical",
    "BatchedCategorical",
    "save_state_dict",
    "load_state_dict",
]
