"""Cross-planner determinism: the zoo's bitwise-stability contracts.

Plans are compared with plain ``==`` on the capacity dicts -- no
tolerances.  Anything that breaks bitwise reproducibility (an unordered
iteration, a worker-count-dependent reduction, a stray RNG) fails here
before it can poison recorded baselines.
"""

import pytest

import repro.scenarios as zoo
from repro.rl.a2c import A2CConfig
from repro.rl.agent import AgentConfig, NeuroPlanAgent

from tests.scenarios.conftest import SEED, cached_instance, cached_plan


def rollout_agent(
    instance, seed=0, num_workers=1, num_envs=1, epochs=2
) -> NeuroPlanAgent:
    config = AgentConfig(
        max_units_per_step=2,
        max_steps=24,
        a2c=A2CConfig(
            epochs=epochs,
            steps_per_epoch=24,
            max_trajectory_length=24,
            seed=seed,
            num_workers=num_workers,
            num_envs=num_envs,
        ),
    )
    return NeuroPlanAgent(instance, config)


class TestGreedyRollout:
    def test_untrained_rollout_is_bitwise_stable(self, scenario_name):
        # Same seed, two fresh agents and environments: identical plan.
        plans = [
            rollout_agent(zoo.get(scenario_name).build(SEED)).greedy_rollout()
            for _ in range(2)
        ]
        assert plans[0].capacities == plans[1].capacities
        assert plans[0].method == "rl-rollout"

    def test_seed_changes_the_policy(self):
        instance = cached_instance("fig7-reference")
        a = rollout_agent(instance, seed=0).policy
        b = rollout_agent(instance, seed=1).policy
        flat_a = [w for p in a.parameters() for w in p.data.ravel().tolist()]
        flat_b = [w for p in b.parameters() for w in p.data.ravel().tolist()]
        assert flat_a != flat_b


class TestWorkerInvariance:
    @pytest.fixture(scope="class")
    def trained_plans(self):
        # The expensive cell: train twice, only on the reference
        # scenario, once on 2 rollout workers and once on 2 lockstep
        # environments.  The invariance contract covers every
        # (num_workers, num_envs) but (1, 1), which deliberately
        # reproduces the legacy serial RNG stream instead.
        plans = {}
        for scale_out in (dict(num_workers=2), dict(num_envs=2)):
            instance = zoo.get("fig7-reference").build(SEED)
            agent = rollout_agent(instance, **scale_out)
            agent.train()
            plans[tuple(scale_out)] = agent.greedy_rollout()
        return plans

    def test_trained_rollout_ignores_worker_count(self, trained_plans):
        workers, envs = trained_plans.values()
        assert workers.capacities == envs.capacities


class TestClassicalPlanners:
    def test_ilp_heur_rerun_is_bitwise_stable(self, scenario_name):
        scenario = zoo.get(scenario_name)
        rerun = zoo.run_planner(
            scenario.build(SEED), "ilp-heur", time_limit=scenario.ilp_time_limit
        )
        assert rerun.capacities == cached_plan(scenario_name, "ilp-heur").capacities

    def test_greedy_rerun_is_bitwise_stable(self, scenario_name):
        scenario = zoo.get(scenario_name)
        rerun = zoo.run_planner(scenario.build(SEED), "greedy")
        assert rerun.capacities == cached_plan(scenario_name, "greedy").capacities
