"""State encoding for the RL agent.

After the node-link transformation, every IP link is a node of the
state graph and its feature is the current capacity (Section 4.2,
"State representation").  Features are normalized per dimension to
mean 0 / std 1 across nodes: the paper notes an agent fed near-constant
inputs tends to repeat one action, and normalization avoids that.

``feature_set="extended"`` additionally exposes the link's remaining
spectrum headroom and its unit cost -- a documented extension beyond the
paper's capacity-only features (off by default).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.topology.instance import PlanningInstance
from repro.topology.transform import LinkGraph

FEATURE_SETS = ("capacity", "extended")


class StateEncoder:
    """Produce normalized node-feature matrices for the link graph."""

    def __init__(
        self,
        instance: PlanningInstance,
        link_graph: LinkGraph,
        feature_set: str = "capacity",
    ):
        if feature_set not in FEATURE_SETS:
            raise ConfigError(
                f"feature_set must be one of {FEATURE_SETS}, got {feature_set!r}"
            )
        self.instance = instance
        self.link_graph = link_graph
        self.feature_set = feature_set
        network = instance.network
        self._unit_costs = np.array(
            [
                instance.cost_model.link_unit_cost(network, link_id)
                for link_id in link_graph.link_ids
            ]
        )

    @property
    def feature_dim(self) -> int:
        return 1 if self.feature_set == "capacity" else 3

    def raw_features(self, capacities: dict[str, float]) -> np.ndarray:
        """Unnormalized (n x d) node features."""
        caps = np.array([capacities[lid] for lid in self.link_graph.link_ids])
        if self.feature_set == "capacity":
            return caps[:, None]
        network = self.instance.network
        headroom = np.array(
            [
                network.link_capacity_headroom(lid, capacities)
                for lid in self.link_graph.link_ids
            ]
        )
        return np.column_stack([caps, headroom, self._unit_costs])

    def encode(self, capacities: dict[str, float]) -> np.ndarray:
        """Normalized (n x d) node features (mean 0, std 1 per dim)."""
        return normalize_features(self.raw_features(capacities))


def normalize_features(features: np.ndarray, axis: int = 0) -> np.ndarray:
    """Standardize ``features`` along ``axis`` (mean 0, std 1).

    Runs the exact ufunc sequence ``np.mean`` and ``np.std`` run
    internally (an ``add.reduce`` divided by the item count, then the
    same over the squared deviations, then ``sqrt``) without their
    Python-level wrappers, so the result is bitwise identical to
    ``(f - f.mean(axis, keepdims=True)) / f.std(axis, keepdims=True)``
    with near-zero spreads replaced by 1.  On a rollout's small feature
    matrices the wrappers cost more than the arithmetic.
    """
    count = features.shape[axis]
    centered = features - np.add.reduce(features, axis=axis, keepdims=True) / count
    std = np.sqrt(
        np.add.reduce(np.square(centered), axis=axis, keepdims=True) / count
    )
    std[std < 1e-9] = 1.0
    return centered / std
