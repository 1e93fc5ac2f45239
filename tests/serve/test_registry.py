"""Model store + policy registry: versions, pinning, typed mismatches."""

import builtins
import json
import os
import shutil
import time
from pathlib import Path

import pytest

from repro.errors import ModelMismatchError, ModelNotFoundError, ServeError
from repro.rl.policy import ActorCriticPolicy
from repro.serve import ModelKey, ModelStore, PolicyRegistry

from tests.serve.conftest import MAX_UNITS, SCALE, TOPOLOGY, publish, tiny_agent


class TestModelStore:
    def test_publish_writes_checkpoint_and_manifest(self, tmp_path, trained_agents):
        store = ModelStore(tmp_path)
        record = publish(store, trained_agents["short"], "short")
        assert record.version == 1
        assert os.path.exists(record.checkpoint_path)
        directory = os.path.dirname(record.checkpoint_path)
        assert os.path.exists(os.path.join(directory, "v0001.json"))
        assert record.manifest["key"]["topology"] == TOPOLOGY
        assert record.manifest["policy_spec"]["max_units"] == MAX_UNITS

    def test_versions_are_monotonic_and_latest_wins(self, tmp_path, trained_agents):
        store = ModelStore(tmp_path)
        key = ModelKey(TOPOLOGY, SCALE, "short")
        first = publish(store, trained_agents["short"], "short")
        second = publish(store, trained_agents["short"], "short")
        assert (first.version, second.version) == (1, 2)
        assert store.versions(key) == [1, 2]
        assert store.resolve(key, "latest").version == 2
        assert store.resolve(key, 1).version == 1

    def test_missing_key_and_version_are_typed(self, tmp_path, trained_agents):
        store = ModelStore(tmp_path)
        key = ModelKey(TOPOLOGY, SCALE, "short")
        with pytest.raises(ModelNotFoundError):
            store.resolve(key)
        publish(store, trained_agents["short"], "short")
        with pytest.raises(ModelNotFoundError):
            store.resolve(key, 99)
        with pytest.raises(ModelNotFoundError):
            store.resolve(key, "not-a-version")

    def test_keys_lists_published_directories(self, model_dir):
        store = ModelStore(model_dir)
        assert store.keys() == [
            f"{TOPOLOGY}-s{SCALE:g}-long",
            f"{TOPOLOGY}-s{SCALE:g}-short",
        ]


class TestPolicyRegistry:
    def test_agent_is_cached_per_key_version_seed(self, model_dir):
        registry = PolicyRegistry(model_dir)
        key = ModelKey(TOPOLOGY, SCALE, "short")
        agent_a, record = registry.agent(key, seed=0)
        agent_b, _ = registry.agent(key, seed=0)
        agent_c, _ = registry.agent(key, seed=1)
        assert agent_a is agent_b
        assert agent_a is not agent_c
        assert record.version >= 1
        registry.close()

    def test_feature_dim_mismatch_is_typed(self, tmp_path, trained_agents):
        store = ModelStore(tmp_path)
        # A policy whose recorded feature_dim can never match the
        # environment the registry builds for this key.
        wrong = ActorCriticPolicy(feature_dim=7, max_units=MAX_UNITS, rng=0)
        store.publish(
            wrong,
            key=ModelKey(TOPOLOGY, SCALE, "short"),
            agent_kwargs={
                "max_units_per_step": MAX_UNITS,
                "max_steps": 16,
                "evaluator_mode": "neuroplan",
                "feature_set": "capacity",
            },
        )
        registry = PolicyRegistry(store)
        with pytest.raises(ModelMismatchError, match="feature_dim"):
            registry.agent(ModelKey(TOPOLOGY, SCALE, "short"))

    def test_relocated_model_directory_is_rejected(self, model_dir, tmp_path):
        # Copying A's models under B's key must not serve B requests
        # with a policy trained for A: the manifest key pins provenance.
        src = os.path.join(model_dir, f"{TOPOLOGY}-s{SCALE:g}-short")
        root = tmp_path / "store"
        dst = root / f"B-s{SCALE:g}-short"
        shutil.copytree(src, dst)
        registry = PolicyRegistry(str(root))
        with pytest.raises(ModelMismatchError, match="topology"):
            registry.agent(ModelKey("B", SCALE, "short"))

    def test_inference_agent_plans_deterministically(self, model_dir):
        registry = PolicyRegistry(model_dir)
        agent, _ = registry.agent(ModelKey(TOPOLOGY, SCALE, "short"))
        first = agent.plan()
        second = agent.plan()
        assert first.capacities == second.capacities
        assert first.method == "rl-rollout"
        registry.close()

    def test_stats_and_close(self, model_dir):
        registry = PolicyRegistry(model_dir)
        registry.agent(ModelKey(TOPOLOGY, SCALE, "short"))
        stats = registry.stats()
        assert stats["keys"]
        assert len(stats["loaded_agents"]) == 1
        registry.close()
        assert registry.stats()["loaded_agents"] == []


class TestSatelliteAgentConfig:
    def test_agent_config_default_factory(self):
        from repro.rl.a2c import A2CConfig
        from repro.rl.agent import AgentConfig

        a, b = AgentConfig(), AgentConfig()
        assert isinstance(a.a2c, A2CConfig)
        assert a.a2c is not b.a2c  # no shared mutable default

    def test_tiny_agent_builds(self):
        agent = tiny_agent("short", seed=3)
        assert agent.config.a2c.seed == 3


class TestResolveMemo:
    """``ModelStore.resolve`` memoizes behind one ``os.stat`` of the key
    directory, and never serves a stale or failed resolution."""

    KEY = ModelKey(TOPOLOGY, SCALE, "short")

    @staticmethod
    def age(store: ModelStore, key: ModelKey, seconds: float = 60.0) -> None:
        directory = os.path.join(store.root, key.dirname())
        then = time.time() - seconds
        os.utime(directory, (then, then))

    @staticmethod
    def count_reads(monkeypatch) -> dict:
        calls = {"listdir": 0, "open": 0}
        listdir, real_open = os.listdir, builtins.open

        def counting_listdir(*args, **kwargs):
            calls["listdir"] += 1
            return listdir(*args, **kwargs)

        def counting_open(*args, **kwargs):
            calls["open"] += 1
            return real_open(*args, **kwargs)

        monkeypatch.setattr(os, "listdir", counting_listdir)
        monkeypatch.setattr(builtins, "open", counting_open)
        return calls

    @pytest.mark.parametrize("aged", [False, True])
    def test_publish_is_seen_by_the_next_resolve(
        self, tmp_path, trained_agents, aged
    ):
        store = ModelStore(tmp_path)
        publish(store, trained_agents["short"], "short")
        if aged:
            self.age(store, self.KEY)
        assert store.resolve(self.KEY).version == 1
        assert store.resolve(self.KEY).version == 1
        publish(store, trained_agents["short"], "short")
        assert store.resolve(self.KEY).version == 2
        assert store.resolve(self.KEY, 1).version == 1

    def test_aged_directory_resolves_from_one_stat(
        self, tmp_path, trained_agents, monkeypatch
    ):
        store = ModelStore(tmp_path)
        publish(store, trained_agents["short"], "short")
        self.age(store, self.KEY)
        first = store.resolve(self.KEY)
        calls = self.count_reads(monkeypatch)
        again = store.resolve(self.KEY)
        assert calls == {"listdir": 0, "open": 0}
        assert again.version == first.version
        assert again.checkpoint_path == first.checkpoint_path
        assert again.manifest == first.manifest

    def test_young_directory_is_never_memoized(
        self, tmp_path, trained_agents, monkeypatch
    ):
        store = ModelStore(tmp_path)
        publish(store, trained_agents["short"], "short")
        calls = self.count_reads(monkeypatch)
        store.resolve(self.KEY)
        store.resolve(self.KEY)
        assert calls["listdir"] == 2
        assert calls["open"] == 2

    def test_pins_misses_and_bad_manifests_behave_as_before(
        self, tmp_path, trained_agents
    ):
        store = ModelStore(tmp_path)
        publish(store, trained_agents["short"], "short")
        publish(store, trained_agents["short"], "short")
        directory = os.path.join(store.root, self.KEY.dirname())
        manifest = os.path.join(directory, "v0002.json")
        good = Path(manifest).read_bytes()
        Path(manifest).write_text("{not json")
        self.age(store, self.KEY)
        for _ in range(2):
            assert store.resolve(self.KEY, 1).version == 1
            assert store.resolve(self.KEY, "1").version == 1
            with pytest.raises(ModelNotFoundError):
                store.resolve(self.KEY, 99)
            with pytest.raises(ModelNotFoundError):
                store.resolve(self.KEY, "not-a-version")
            with pytest.raises(ModelNotFoundError):
                store.resolve(ModelKey("B", SCALE, "short"))
            with pytest.raises(ServeError, match="unreadable"):
                store.resolve(self.KEY)
        # A repaired manifest, replaced as publish writes one, is read.
        staged = Path(manifest + ".tmp")
        staged.write_bytes(good)
        os.replace(staged, manifest)
        self.age(store, self.KEY)
        assert store.resolve(self.KEY).version == 2

    def test_mutating_a_record_leaves_the_next_one_intact(
        self, tmp_path, trained_agents
    ):
        store = ModelStore(tmp_path)
        publish(store, trained_agents["short"], "short")
        self.age(store, self.KEY)
        pristine = store.resolve(self.KEY)
        expected = (pristine.checkpoint_path, json.dumps(pristine.manifest))
        record = store.resolve(self.KEY)
        record.checkpoint_path = "elsewhere.npz"
        record.manifest["source"]["algo"] = "other"
        record.manifest["policy_spec"]["mlp_hidden"].append(7)
        record.manifest.pop("agent")
        fresh = store.resolve(self.KEY)
        assert (fresh.checkpoint_path, json.dumps(fresh.manifest)) == expected
