"""Tests for the actor-critic policy and the state encoder."""

import numpy as np
import pytest

from repro.errors import ConfigError, NNError
from repro.nn.gnn import normalized_adjacency
from repro.rl.policy import ActorCriticPolicy
from repro.rl.state import StateEncoder
from repro.topology import generators
from repro.topology.transform import node_link_transform


@pytest.fixture
def setup():
    instance = generators.make_instance("A", seed=0, scale=0.7)
    graph = node_link_transform(instance.network)
    adjacency = normalized_adjacency(graph.adjacency)
    encoder = StateEncoder(instance, graph)
    return instance, graph, adjacency, encoder


class TestStateEncoder:
    def test_capacity_features_normalized(self, setup):
        instance, graph, _, encoder = setup
        features = encoder.encode(instance.network.capacities())
        assert features.shape == (graph.num_nodes, 1)
        np.testing.assert_allclose(features.mean(), 0.0, atol=1e-9)
        np.testing.assert_allclose(features.std(), 1.0, atol=1e-6)

    def test_constant_features_do_not_blow_up(self, setup):
        instance, graph, _, encoder = setup
        features = encoder.encode({lid: 500.0 for lid in graph.link_ids})
        assert np.isfinite(features).all()
        np.testing.assert_allclose(features, 0.0)

    def test_extended_features(self, setup):
        instance, graph, _, _ = setup
        encoder = StateEncoder(instance, graph, feature_set="extended")
        assert encoder.feature_dim == 3
        features = encoder.encode(instance.network.capacities())
        assert features.shape == (graph.num_nodes, 3)

    def test_invalid_feature_set(self, setup):
        instance, graph, _, _ = setup
        with pytest.raises(ConfigError):
            StateEncoder(instance, graph, feature_set="everything")


class TestActorCriticPolicy:
    def test_logit_shape_tracks_graph_size(self, setup):
        instance, graph, adjacency, encoder = setup
        policy = ActorCriticPolicy(feature_dim=1, max_units=3, rng=0)
        features = encoder.encode(instance.network.capacities())
        logits = policy.action_logits(features, adjacency)
        assert logits.shape == (graph.num_nodes * 3,)

    def test_same_policy_on_different_sizes(self):
        """One parameter set serves topologies of different sizes."""
        policy = ActorCriticPolicy(feature_dim=1, max_units=2, rng=0)
        for name in ("A", "B"):
            instance = generators.make_instance(name, seed=0, scale=0.6)
            graph = node_link_transform(instance.network)
            adjacency = normalized_adjacency(graph.adjacency)
            encoder = StateEncoder(instance, graph)
            features = encoder.encode(instance.network.capacities())
            distribution, value = policy(features, adjacency)
            assert distribution.probs.shape == (graph.num_nodes * 2,)
            assert np.isfinite(value.item())

    def test_masked_distribution(self, setup):
        instance, graph, adjacency, encoder = setup
        policy = ActorCriticPolicy(feature_dim=1, max_units=2, rng=0)
        features = encoder.encode(instance.network.capacities())
        mask = np.zeros(graph.num_nodes * 2, dtype=bool)
        mask[5] = True
        distribution, _ = policy(features, adjacency, mask)
        assert distribution.mode() == 5

    def test_gradients_reach_all_parameter_groups(self, setup):
        instance, graph, adjacency, encoder = setup
        policy = ActorCriticPolicy(feature_dim=1, max_units=2, rng=0)
        features = encoder.encode(instance.network.capacities())
        distribution, value = policy(features, adjacency)
        (distribution.log_prob(distribution.mode()) + value).backward()
        groups = policy.parameter_groups()
        assert all(p.grad is not None for p in groups["actor"])
        assert all(p.grad is not None for p in groups["critic"])

    def test_parameter_groups_share_encoder(self):
        policy = ActorCriticPolicy(feature_dim=1, max_units=2, rng=0)
        groups = policy.parameter_groups()
        shared = set(map(id, groups["actor"])) & set(map(id, groups["critic"]))
        encoder_params = set(map(id, policy.encoder.parameters()))
        assert shared == encoder_params

    @pytest.mark.parametrize("gnn_layers", [0, 2, 4])
    def test_gnn_depth_variants(self, setup, gnn_layers):
        instance, graph, adjacency, encoder = setup
        policy = ActorCriticPolicy(
            feature_dim=1, max_units=2, gnn_layers=gnn_layers, rng=0
        )
        features = encoder.encode(instance.network.capacities())
        distribution, value = policy(features, adjacency)
        assert np.isfinite(distribution.probs).all()

    def test_gat_variant(self, setup):
        instance, graph, adjacency, encoder = setup
        policy = ActorCriticPolicy(feature_dim=1, max_units=2, gnn_type="gat", rng=0)
        features = encoder.encode(instance.network.capacities())
        distribution, _ = policy(features, adjacency)
        assert np.isfinite(distribution.probs).all()

    def test_invalid_max_units(self):
        with pytest.raises(NNError):
            ActorCriticPolicy(feature_dim=1, max_units=0)

