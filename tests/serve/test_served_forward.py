"""Served rollouts pick every step through the grad-free evaluator.

The coalescer's lone-rollout fast path, coalesced cohorts, and the
solver farm's plans and replans all take their mode actions from
:meth:`repro.rl.batched.BatchedPolicyEvaluator.forward`.  The autodiff
:class:`ActorCriticPolicy` forward stays on the one serving path that
builds no coalescer, ``ServiceConfig(batching=False)``, which is the
independent reference the served plans are compared against here.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro.rl.agent import greedy_rollout
from repro.rl.env import PlanningEnv
from repro.rl.policy import ActorCriticPolicy
from repro.serve import (
    ModelKey,
    PlanningService,
    PolicyRegistry,
    ReplanRequest,
    ServiceConfig,
)
from repro.solverfarm.replan import drift_traffic

from tests.serve.conftest import SCALE, TOPOLOGY
from tests.serve.test_coalescer import assert_same_plan, request, serial_reference

KEY = ModelKey(topology=TOPOLOGY, scale=SCALE, horizon="short")
DRIFT = {"scale": 1.3}
AUTODIFF_METHODS = ("forward", "distribution", "action_logits", "value")


class AutodiffForward(RuntimeError):
    """A served rollout reached the autodiff policy."""


def refuse_autodiff(monkeypatch) -> list:
    """Make every autodiff policy method raise; returns the calls seen."""
    calls = []

    def refusing(name):
        def method(self, *args, **kwargs):
            calls.append(name)
            raise AutodiffForward(name)

        return method

    for name in AUTODIFF_METHODS:
        monkeypatch.setattr(ActorCriticPolicy, name, refusing(name))
    return calls


def autodiff_replan_reference(model_dir) -> dict:
    """A from-scratch autodiff rollout on the drifted instance."""
    registry = PolicyRegistry(str(model_dir))
    try:
        agent, _ = registry.agent(KEY, seed=0)
        traffic = drift_traffic(agent.instance.traffic, DRIFT)
        instance = replace(agent.instance, traffic=traffic)
        env = PlanningEnv(instance, **agent.env.replica_kwargs())
        return greedy_rollout(env, agent.policy).capacities
    finally:
        registry.close()


def replan_request(**overrides) -> ReplanRequest:
    fields = dict(topology=TOPOLOGY, scale=SCALE, seed=0, horizon="short")
    fields.update(overrides)
    return ReplanRequest(**fields)


class TestServedRolloutsAreGradFree:
    def test_lone_plan_takes_the_evaluator_fast_path(self, model_dir, monkeypatch):
        reference = serial_reference(model_dir)
        calls = refuse_autodiff(monkeypatch)
        config = ServiceConfig(workers=2, cache_size=0)
        with PlanningService(model_dir, config) as service:
            response = service.plan(request())
            (stats,) = service.batching_stats()["models"].values()
        assert calls == []
        assert_same_plan(response, reference)
        assert stats["fastpath"] > 0
        assert stats["batches"] == 0

    def test_coalesced_cohort(self, model_dir, monkeypatch):
        reference = serial_reference(model_dir)
        calls = refuse_autodiff(monkeypatch)
        config = ServiceConfig(
            workers=4, cache_size=0, batch_window_ms=50.0, max_batch=4
        )
        with PlanningService(model_dir, config) as service:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(service.plan, request()) for _ in range(4)]
                responses = [future.result(timeout=300) for future in futures]
            (stats,) = service.batching_stats()["models"].values()
        assert calls == []
        for response in responses:
            assert_same_plan(response, reference)
        assert stats["batches"] >= 1

    def test_farm_plan_and_replan(self, model_dir, monkeypatch):
        reference = serial_reference(model_dir)
        replanned = autodiff_replan_reference(model_dir)
        calls = refuse_autodiff(monkeypatch)
        config = ServiceConfig(pipeline="farm", workers=2, ilp_time_limit=20.0)
        with PlanningService(model_dir, config) as service:
            plan = service.plan(request())
            warm = service.replan(
                replan_request(demands=DRIFT, prior_plan=plan["plan"])
            )
        # A fresh farm has no cached rollout, so this replan rolls out
        # from scratch on a retargeted backend.
        with PlanningService(model_dir, config) as service:
            cold = service.replan(replan_request(demands=DRIFT))
        assert calls == []
        assert_same_plan(plan, reference)
        assert warm["replan"]["warm_start"] is True
        assert warm["plan"] == replanned
        assert cold["replan"]["warm_start"] is False
        assert cold["solver_cache"]["rollout"] is False
        assert cold["plan"] == replanned

    def test_batching_off_runs_the_autodiff_reference(self, model_dir, monkeypatch):
        calls = refuse_autodiff(monkeypatch)
        config = ServiceConfig(workers=1, cache_size=0, batching=False)
        with PlanningService(model_dir, config) as service:
            with pytest.raises(AutodiffForward):
                service.plan(request())
        assert calls
