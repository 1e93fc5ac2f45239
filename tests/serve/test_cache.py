"""Response cache: LRU semantics, counters, canonical keying."""

from repro import telemetry
from repro.serve.cache import ResponseCache, canonical_key


class TestCanonicalKey:
    def test_field_order_does_not_matter(self):
        a = canonical_key({"topology": "A", "seed": 0, "alpha": 1.5})
        b = canonical_key({"alpha": 1.5, "seed": 0, "topology": "A"})
        assert a == b

    def test_distinct_requests_distinct_keys(self):
        base = {"topology": "A", "seed": 0, "alpha": 1.5}
        assert canonical_key(base) != canonical_key({**base, "seed": 1})
        assert canonical_key(base) != canonical_key({**base, "alpha": 2.0})


class TestResponseCache:
    def test_hit_miss_and_copy_semantics(self):
        cache = ResponseCache(capacity=2)
        assert cache.get("k") is None
        cache.put("k", {"plan": {"l1": 100.0}})
        got = cache.get("k")
        assert got == {"plan": {"l1": 100.0}}
        got["mutated"] = True
        assert "mutated" not in cache.get("k")  # hits return copies
        assert cache.stats()["hits"] == 2
        assert cache.stats()["misses"] == 1

    def test_lru_eviction_order(self):
        cache = ResponseCache(capacity=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        cache.get("a")  # refresh a; b becomes the LRU entry
        cache.put("c", {"v": 3})
        assert cache.get("b") is None
        assert cache.get("a") == {"v": 1}
        assert cache.get("c") == {"v": 3}
        assert cache.stats()["evictions"] == 1

    def test_capacity_zero_disables(self):
        cache = ResponseCache(capacity=0)
        cache.put("a", {"v": 1})
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_telemetry_counters_mirror_local_stats(self):
        telemetry.enable()
        cache = ResponseCache(capacity=1)
        cache.put("a", {"v": 1})
        cache.get("a")
        cache.get("missing")
        cache.put("b", {"v": 2})  # evicts a
        counters = telemetry.snapshot()["counters"]
        assert counters["serve.cache.hits"] == 1
        assert counters["serve.cache.misses"] == 1
        assert counters["serve.cache.evictions"] == 1


class TestNestedValuesAreCopied:
    """A hit never shares a dict or list with the entry or its filler."""

    def test_plan_and_model_of_hits_and_filler_are_independent(self):
        cache = ResponseCache(capacity=2)
        response = {
            "plan": {"l1": 100.0, "l2": 200.0},
            "model": {"key": "A-s0.5-long", "version": 3},
            "cost": 1.0,
        }
        cache.put("k", response)
        response["plan"]["l1"] = -2.0
        response["model"]["version"] = -2
        hit = cache.get("k")
        hit["plan"]["l1"] = -1.0
        hit["model"]["version"] = -1
        later = cache.get("k")
        assert later["plan"] == {"l1": 100.0, "l2": 200.0}
        assert later["model"] == {"key": "A-s0.5-long", "version": 3}
        assert later["plan"] is not cache.get("k")["plan"]

    def test_farm_rollout_entry_capacities_are_independent(self):
        from repro.solverfarm.cache import SolverResultCache, rollout_key

        rollout = SolverResultCache(capacity=2).rollout
        key = rollout_key(("A", 0.5, "long", 1), "demands", 64)
        entry = {
            "capacities": {"l1": 100.0},
            "feasible": True,
            "metadata": {"steps": 7},
        }
        rollout.put(key, entry)
        entry["capacities"]["l1"] = -2.0
        hit = rollout.get(key)
        hit["capacities"]["l1"] = -1.0
        hit["metadata"]["steps"] = -1
        later = rollout.get(key)
        assert later["capacities"] == {"l1": 100.0}
        assert later["metadata"] == {"steps": 7}
