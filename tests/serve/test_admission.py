"""Cache hits answered at admission, and what a refresh storm costs.

A response-cache hit never needs a worker, so ``submit`` answers it
before the queue on both pipelines (``queue_s`` 0.0) and a full queue
refuses only work that needs a worker; a draining pool service still
refuses everything.  A storm of identical ``no_cache`` rollouts shares
each feasibility verdict through the agent's evaluation memo, so it
solves one lone rollout's LPs, and each response reports only the LPs
its own rollout solved.
"""

import threading
import time
from concurrent.futures import wait

import pytest

from repro.errors import Overloaded
from repro.serve import ModelKey, PlanningService, PlanRequest, ServiceConfig

from tests.serve.conftest import SCALE, TOPOLOGY

KEY = ModelKey(TOPOLOGY, SCALE, "short")
STORM = 8


def request(**overrides) -> PlanRequest:
    fields = dict(topology=TOPOLOGY, scale=SCALE, seed=0, horizon="short")
    fields.update(overrides)
    return PlanRequest(**fields)


def wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting"
        time.sleep(0.001)


def without_timings(response: dict) -> dict:
    return {name: value for name, value in response.items() if name != "timings"}


class TestHitsAtAdmission:
    def test_full_queue_still_answers_a_cached_identity(self, model_dir):
        service = PlanningService(
            model_dir, ServiceConfig(workers=1, queue_depth=1, cache_size=8)
        )
        first = service.plan(request(seed=0))
        release = threading.Event()
        try:
            service.pool.submit(release.wait, 60)  # holds the only worker
            wait_until(lambda: service.pool.stats()["in_flight"] == 1)
            service.pool.submit(release.wait, 60)  # fills the queue
            hit = service.submit(request(seed=0))
            assert hit.done()
            response = hit.result()
            assert response["cache_hit"] is True
            assert response["timings"]["queue_s"] == 0.0
            assert response["plan"] == first["plan"]
            with pytest.raises(Overloaded):
                service.submit(request(seed=1))
        finally:
            release.set()
            service.close()

    def test_hit_reports_zero_queue_time_and_counts_once(self, model_dir):
        with PlanningService(model_dir, ServiceConfig(workers=2)) as service:
            miss = service.plan(request())
            hit = service.plan(request())
            assert miss["cache_hit"] is False
            assert hit["cache_hit"] is True
            assert hit["timings"]["queue_s"] == 0.0
            assert hit["timings"]["total_s"] >= 0.0
            assert hit["timings"]["rollout_s"] == miss["timings"]["rollout_s"]
            assert service.cache.stats()["hits"] == 1
            assert service.cache.stats()["misses"] == 1

    def test_closed_pool_service_refuses_even_a_cached_identity(self, model_dir):
        service = PlanningService(model_dir, ServiceConfig(workers=1))
        service.plan(request())
        service.close()
        with pytest.raises(Overloaded):
            service.submit(request())

    def test_pool_and_farm_hits_are_stamped_alike(self, model_dir):
        bodies = {}
        for pipeline in ("pool", "farm"):
            config = ServiceConfig(workers=2, cache_size=8, pipeline=pipeline)
            with PlanningService(model_dir, config) as service:
                miss = service.plan(request())
                hit = service.plan(request())
            assert hit["cache_hit"] is True
            assert hit["timings"]["queue_s"] == 0.0
            assert set(hit["timings"]) == set(miss["timings"])
            assert without_timings(hit) == dict(without_timings(miss), cache_hit=True)
            bodies[pipeline] = without_timings(hit)
        farm_only = {"pipeline", "solver_cache"}
        assert {
            name: value
            for name, value in bodies["farm"].items()
            if name not in farm_only
        } == bodies["pool"]


class TestRefreshStorm:
    def storm(self, service: PlanningService, seed: int = 0) -> list:
        """STORM identical no_cache requests, released together."""
        release = threading.Event()
        for _ in range(service.pool.workers):
            service.pool.submit(release.wait, 60)
        wait_until(
            lambda: service.pool.stats()["in_flight"] == service.pool.workers
        )
        futures = [
            service.submit(request(seed=seed, no_cache=True)) for _ in range(STORM)
        ]
        release.set()
        wait(futures, timeout=300)
        return [future.result() for future in futures]

    def test_storm_solves_one_lone_rollouts_lps(self, model_dir):
        serial = ServiceConfig(workers=1, cache_size=0, batching=False)
        with PlanningService(model_dir, serial) as service:
            reference = service.plan(request(no_cache=True))
        config = ServiceConfig(workers=STORM, queue_depth=64)
        with PlanningService(model_dir, config) as service:
            service.plan(request(no_cache=True))  # loads the agent
            agent, _ = service.registry.agent(KEY, seed=0)
            for _ in range(2):
                before = agent.lp_solves
                responses = self.storm(service)
                solved = agent.lp_solves - before
                assert solved == reference["lp_solves"]
                assert sum(r["lp_solves"] for r in responses) == solved
                for response in responses:
                    assert response["plan"] == reference["plan"]
                    assert response["cost"] == reference["cost"]
            models = service.batching_stats()["models"].values()
            assert sum(stats["batches"] for stats in models) >= 1
