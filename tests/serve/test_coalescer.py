"""Cross-request batched inference: bitwise determinism + plumbing.

The coalescer's contract is absolute: a plan served through batched
forwards is byte-identical to the one serial execution emits, at any
concurrency, for any horizon, and across replica crashes mid-batch.
These tests pin that contract and the supporting machinery (fast path,
batch formation, env pool, zero-copy store wiring).
"""

import os
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import telemetry
from repro.resilience import faults
from repro.serve import (
    Dispatcher,
    DispatcherConfig,
    ForwardCoalescer,
    ModelKey,
    PlanRequest,
    PlanningService,
    PolicyRegistry,
    ServiceConfig,
    Supervisor,
    SupervisorConfig,
)

from tests.serve.conftest import MAX_STEPS, SCALE, TOPOLOGY
from tests.serve.test_supervisor import wait_for

KEY = ModelKey(topology=TOPOLOGY, scale=SCALE, horizon="short")


def request(**overrides) -> PlanRequest:
    fields = dict(
        topology=TOPOLOGY, scale=SCALE, seed=0, horizon="short", no_cache=True
    )
    fields.update(overrides)
    return PlanRequest(**fields)


def serial_reference(model_dir, horizon="short", seed=0) -> dict:
    """The ground-truth response from a batching-off single request."""
    config = ServiceConfig(workers=1, cache_size=0, batching=False)
    with PlanningService(str(model_dir), config) as service:
        return service.plan(request(horizon=horizon, seed=seed))


def assert_same_plan(response: dict, reference: dict) -> None:
    assert response["plan"] == reference["plan"]
    assert response["cost"] == reference["cost"]
    assert response["feasible"] == reference["feasible"]
    assert response["method"] == reference["method"]


class TestBitwiseDeterminism:
    @pytest.mark.parametrize("horizon", ["short", "long"])
    @pytest.mark.parametrize("concurrency", [2, 8])
    def test_batched_plans_equal_serial(self, model_dir, horizon, concurrency):
        """Concurrent same-seed requests coalesce into real batches and
        still emit the exact serial plan."""
        reference = serial_reference(model_dir, horizon=horizon)
        config = ServiceConfig(
            workers=concurrency,
            queue_depth=2 * concurrency,
            cache_size=0,
            batching=True,
            batch_window_ms=50.0,
            max_batch=concurrency,
        )
        with PlanningService(str(model_dir), config) as service:
            with ThreadPoolExecutor(max_workers=concurrency) as pool:
                futures = [
                    pool.submit(service.plan, request(horizon=horizon))
                    for _ in range(concurrency)
                ]
                responses = [f.result(timeout=300) for f in futures]
            stats = service.batching_stats()
        assert len(responses) == concurrency
        for response in responses:
            assert_same_plan(response, reference)
        batched = stats["models"]
        assert batched, stats
        (model_stats,) = batched.values()
        assert model_stats["batches"] >= 1
        assert model_stats["max_batch_size"] >= 2

    def test_mixed_seeds_group_by_adjacency(self, model_dir):
        """Seeds draw different fiber graphs, so a mixed batch must
        split by adjacency fingerprint -- and still match per-seed
        serial plans."""
        references = {
            seed: serial_reference(model_dir, seed=seed) for seed in (0, 1)
        }
        config = ServiceConfig(
            workers=4,
            cache_size=0,
            batching=True,
            batch_window_ms=50.0,
            max_batch=4,
        )
        with PlanningService(str(model_dir), config) as service:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = {
                    pool.submit(service.plan, request(seed=seed)): seed
                    for seed in (0, 1)
                    for _ in range(2)
                }
                for future, seed in futures.items():
                    assert_same_plan(future.result(timeout=300), references[seed])
            stats = service.batching_stats()
        (model_stats,) = stats["models"].values()
        assert model_stats["groups"] == 2


class TestFastPath:
    def test_single_request_takes_fastpath(self, model_dir):
        """At concurrency 1 the coalescer skips the queue and calls its
        group evaluator directly: zero batches, fastpath counter only."""
        telemetry.enable()
        reference = serial_reference(model_dir)
        config = ServiceConfig(workers=2, cache_size=0, batching=True)
        with PlanningService(str(model_dir), config) as service:
            response = service.plan(request())
            stats = service.batching_stats()
        assert_same_plan(response, reference)
        (model_stats,) = stats["models"].values()
        assert model_stats["batches"] == 0
        assert model_stats["fastpath"] >= 1
        assert telemetry.counter_value("serve.batch.fastpath") >= 1
        assert telemetry.counter_value("serve.batch.batches") == 0

    def test_batching_disabled_by_max_batch_one(self, model_dir):
        config = ServiceConfig(workers=2, cache_size=0, max_batch=1)
        with PlanningService(str(model_dir), config) as service:
            assert service.batching_stats() == {"enabled": False}
            response = service.plan(request())
        assert response["feasible"] in (True, False)


class TestBatchTelemetry:
    def test_batch_counters_and_histogram(self, model_dir):
        telemetry.enable()
        config = ServiceConfig(
            workers=4,
            cache_size=0,
            batching=True,
            batch_window_ms=50.0,
            max_batch=4,
        )
        with PlanningService(str(model_dir), config) as service:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(service.plan, request()) for _ in range(4)
                ]
                for future in futures:
                    future.result(timeout=300)
            health = service.healthz()
            metrics = service.metrics()
        assert telemetry.counter_value("serve.batch.batches") >= 1
        assert telemetry.counter_value("serve.batch.coalesced") >= 2
        assert health["batching"]["enabled"] is True
        (model_stats,) = metrics["batching"]["models"].values()
        assert sum(model_stats["histogram"].values()) == model_stats["batches"]
        snapshot = telemetry.snapshot()
        assert "serve.batch.size" in snapshot["timers"]
        assert "serve.batch.wait" in snapshot["timers"]


class TestEnvPool:
    def test_concurrent_plans_share_one_agent(self, model_dir):
        """Same-(key, version, seed) requests run concurrently on pooled
        env clones instead of serializing on one env."""
        registry = PolicyRegistry(str(model_dir))
        agent, _ = registry.agent(KEY, seed=0)
        coalescer = ForwardCoalescer(agent.policy, window_s=0.05, max_batch=4)
        barrier = threading.Barrier(4)
        plans = []
        lock = threading.Lock()

        def run():
            barrier.wait(timeout=60)
            plan = agent.plan(MAX_STEPS, coalescer=coalescer)
            with lock:
                plans.append(plan)

        threads = [threading.Thread(target=run) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert len(plans) == 4
        assert agent.pool_size > 1
        reference = agent.plan(MAX_STEPS)
        for plan in plans:
            assert plan.capacities == reference.capacities
            assert plan.metadata["steps"] == reference.metadata["steps"]
        assert agent.lp_solves > 0
        registry.close()

    def test_coalesced_rollouts_share_verdicts_then_clear(self, model_dir):
        """Concurrent coalesced rollouts share feasibility verdicts
        through the pool's evaluation memo; the memo is dropped the
        moment the pool goes idle (it must never become a response
        cache), and plans stay byte-identical to serial."""
        telemetry.enable()
        registry = PolicyRegistry(str(model_dir))
        agent, _ = registry.agent(KEY, seed=0)
        reference = agent.plan(MAX_STEPS)
        coalescer = ForwardCoalescer(agent.policy, window_s=0.05, max_batch=4)
        barrier = threading.Barrier(4)
        plans = []
        lock = threading.Lock()

        def run():
            barrier.wait(timeout=60)
            plan = agent.plan(MAX_STEPS, coalescer=coalescer)
            with lock:
                plans.append(plan)

        threads = [threading.Thread(target=run) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert len(plans) == 4
        for plan in plans:
            assert plan.capacities == reference.capacities
        stats = agent.memo_stats()
        assert stats["hits"] > 0
        assert stats["entries"] == 0, "memo must clear when the pool idles"
        assert telemetry.counter_value("env.eval_memo.hits") > 0
        # Non-coalesced plans never attach the memo.
        for env in agent._envs:
            assert env.eval_memo is None
        registry.close()

    def test_unit_coalescer_matches_direct_rollout(self, model_dir):
        """ForwardCoalescer used directly (no service) is transparent."""
        registry = PolicyRegistry(str(model_dir))
        agent, _ = registry.agent(KEY, seed=0)
        reference = agent.plan(MAX_STEPS)
        coalescer = ForwardCoalescer(agent.policy, window_s=0.0, max_batch=8)
        plan = agent.plan(MAX_STEPS, coalescer=coalescer)
        assert plan.capacities == reference.capacities
        stats = coalescer.stats()
        assert stats["batches"] == 0  # alone => pure fast path
        assert stats["fastpath"] > 0
        registry.close()


class TestSharedEvaluatorStress:
    """Fast-path and coalesced steps share each group's evaluator.

    More rollout threads than cores run mixed-seed rollouts with a tiny
    interpreter switch interval.  Arrivals are spread out so the number
    of rollouts in flight keeps crossing one: a lone rollout's
    fast-path forward can still be running when a newcomer leads a
    batch on the same evaluator (with a zero window it does not wait).
    Every plan must still be the batching-off reference.
    """

    ROUNDS = 4
    ARRIVAL_SPREAD_S = 0.3
    SEEDS = (0, 1)

    @pytest.mark.parametrize("window_ms", [0.0, 2.0])
    def test_interleaved_paths_match_serial(self, model_dir, window_ms):
        references = {
            seed: serial_reference(model_dir, seed=seed)["plan"] for seed in self.SEEDS
        }
        registry = PolicyRegistry(str(model_dir))
        agents = {seed: registry.agent(KEY, seed=seed)[0] for seed in self.SEEDS}
        coalescer = ForwardCoalescer(
            agents[0].policy, window_s=window_ms / 1000.0, max_batch=4
        )
        plans, errors = [], []
        lock = threading.Lock()

        def run(index):
            rng = random.Random(index)
            try:
                for _ in range(self.ROUNDS):
                    time.sleep(rng.uniform(0.0, self.ARRIVAL_SPREAD_S))
                    seed = rng.choice(self.SEEDS)
                    plan = agents[seed].plan(MAX_STEPS, coalescer=coalescer)
                    with lock:
                        plans.append((seed, plan.capacities, plan.metadata["steps"]))
            except Exception as exc:  # surfaced by the asserts below
                with lock:
                    errors.append(exc)

        count = 2 * (os.cpu_count() or 1) + 2
        threads = [
            threading.Thread(target=run, args=(index,), daemon=True)
            for index in range(count)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
            alive = [thread for thread in threads if thread.is_alive()]
            registry.close()
        assert not alive, f"{len(alive)} rollout threads never finished"
        assert errors == []
        assert len(plans) == count * self.ROUNDS
        for seed, capacities, _steps in plans:
            assert capacities == references[seed]
        stats = coalescer.stats()
        assert stats["fastpath"] > 0
        assert stats["batches"] > 0
        assert stats["groups"] == len(self.SEEDS)
        # Each step is answered exactly once, by one path or the other.
        steps = sum(entry[2] for entry in plans)
        assert stats["fastpath"] + stats["coalesced_requests"] == steps


@pytest.mark.faultinjection
class TestMidBatchCrash:
    def test_replica_crash_mid_batch_keeps_plans_bitwise(
        self, model_dir, monkeypatch
    ):
        """``serve.replica.crash@0`` fires while replica 0 is serving a
        coalesced batch; retries land the requests elsewhere and every
        completed plan is still byte-identical to serial execution."""
        reference = serial_reference(model_dir)
        monkeypatch.setenv(faults.ENV_VAR, "serve.replica.crash@0")
        supervisor = Supervisor(
            str(model_dir),
            service_config=ServiceConfig(
                workers=4,
                queue_depth=16,
                cache_size=0,
                batching=True,
                batch_window_ms=50.0,
                max_batch=4,
            ),
            config=SupervisorConfig(
                replicas=2,
                startup_timeout_s=120.0,
                restart_backoff_s=0.05,
                heartbeat_interval_s=0.1,
            ),
        ).start()
        with Dispatcher(supervisor, DispatcherConfig(max_retries=3)) as dispatcher:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(dispatcher.plan, request()) for _ in range(8)
                ]
                responses = [f.result(timeout=300) for f in futures]
            assert len(responses) == 8
            for response in responses:
                assert_same_plan(response, reference)
            # The crash actually fired: generation 0 of replica 0 died.
            assert wait_for(
                lambda: dispatcher.supervisor.describe()[0]["restarts"] >= 1
            )
            assert wait_for(
                lambda: dispatcher.supervisor.healthy_count() == 2,
                timeout=60.0,
            )
