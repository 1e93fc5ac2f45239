"""Tests for the batched multi-environment collector (repro.rl.batched).

The load-bearing contract: the merged trajectory stream a batched
collector produces is bitwise identical to the per-trajectory stream
backend (the worker pool) for any (seed, epoch, num_envs) — batching is
a pure throughput optimization, never a behavior change.  Also covered:
composition with ``num_workers``, the configuration guards, the
environments' duality-certificate LP-skip, and the batched distribution.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.errors import ConfigError, NNError
from repro.nn.distributions import BatchedCategorical, Categorical
from repro.nn.tensor import Tensor
from repro.rl.batched import (
    BatchedForward,
    BatchedPlanningEnv,
    BatchedRolloutCollector,
)
from repro.rl.env import PlanningEnv
from repro.rl.policy import ActorCriticPolicy
from repro.rl.rollouts import (
    ParallelRolloutCollector,
    make_collector,
    resolve_backend,
)
from repro.topology import datasets, generators

BUDGET = 24
MAX_TRAJECTORY = 8


def fresh_env():
    return PlanningEnv(
        datasets.figure1_topology(), max_units_per_step=1, max_steps=12
    )


def fresh_policy(**overrides):
    kwargs = {"feature_dim": 1, "max_units": 1, "rng": 0}
    kwargs.update(overrides)
    return ActorCriticPolicy(**kwargs)


def stream(batch):
    """Every per-transition field, flattened in merged order."""
    return [
        (
            t.observation.tobytes(),
            t.mask.tobytes(),
            t.action,
            t.reward,
            t.value,
            t.log_prob,
        )
        for f in batch.fragments
        for t in f.transitions
    ]


def bounds(batch):
    return [
        (
            len(f.transitions),
            f.stream,
            f.done,
            f.feasible,
            f.plan_cost,
            f.final_value,
        )
        for f in batch.fragments
    ]


def collect_batched(num_envs, seed=0, epoch=0, budget=BUDGET):
    collector = BatchedRolloutCollector(
        fresh_env(), fresh_policy(), num_envs=num_envs, seed=seed
    )
    try:
        return collector.collect(
            budget=budget, max_trajectory_length=MAX_TRAJECTORY, epoch=epoch
        )
    finally:
        collector.close()


def collect_pool(seed=0, epoch=0, budget=BUDGET):
    with ParallelRolloutCollector(
        fresh_env(), fresh_policy(), num_workers=1, seed=seed
    ) as collector:
        return collector.collect(
            budget=budget, max_trajectory_length=MAX_TRAJECTORY, epoch=epoch
        )


# ----------------------------------------------------------------------
# The bitwise contract
# ----------------------------------------------------------------------
class TestBatchedSerialParity:
    @pytest.mark.parametrize("num_envs", [1, 2, 8])
    def test_stream_matches_pool(self, num_envs):
        """K stacked envs replay the pool's per-trajectory streams."""
        reference = collect_pool()
        batched = collect_batched(num_envs)
        assert stream(batched) == stream(reference)
        assert bounds(batched) == bounds(reference)

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        epoch=st.integers(min_value=0, max_value=64),
        num_envs=st.sampled_from([1, 2, 8]),
    )
    def test_stream_matches_pool_any_seed(self, seed, epoch, num_envs):
        reference = collect_pool(seed=seed, epoch=epoch)
        batched = collect_batched(num_envs, seed=seed, epoch=epoch)
        assert stream(batched) == stream(reference)

    def test_batched_stream_invariant_in_num_envs(self):
        first = collect_batched(2)
        for num_envs in (4, 8):
            assert stream(collect_batched(num_envs)) == stream(first)

    def test_composes_with_num_workers(self):
        """num_envs x num_workers never changes the merged stream."""
        reference = collect_batched(2)
        collector = make_collector(
            fresh_env(),
            fresh_policy(),
            np.random.default_rng(0),
            rollout_backend="auto",
            num_workers=2,
            num_envs=2,
            seed=0,
        )
        try:
            batch = collector.collect(
                budget=BUDGET, max_trajectory_length=MAX_TRAJECTORY, epoch=0
            )
        finally:
            collector.close()
        assert stream(batch) == stream(reference)


# ----------------------------------------------------------------------
# Configuration guards
# ----------------------------------------------------------------------
class TestConfigGuards:
    def test_auto_resolution(self):
        assert resolve_backend("auto", 1, 1) == "serial"
        assert resolve_backend("auto", 2, 1) == "parallel"
        assert resolve_backend("auto", 1, 4) == "batched"
        assert resolve_backend("auto", 2, 4) == "batched"
        assert resolve_backend("batched", 1, 1) == "batched"

    @pytest.mark.parametrize("backend", ["serial", "parallel"])
    def test_explicit_backend_rejects_num_envs(self, backend):
        workers = 1 if backend == "serial" else 2
        with pytest.raises(ConfigError, match="num_envs"):
            resolve_backend(backend, workers, 2)

    def test_num_envs_must_be_positive(self):
        with pytest.raises(ConfigError, match="num_envs"):
            resolve_backend("auto", 1, 0)

    def test_gat_rejected_by_batched_update(self):
        policy = fresh_policy(gnn_type="gat")
        env = fresh_env()
        with pytest.raises(ConfigError, match="gat"):
            BatchedForward(policy, env.adjacency_norm)


# ----------------------------------------------------------------------
# The environment's provable LP-skip
# ----------------------------------------------------------------------
# The property runs over small topology-A instances: seed, scale and
# capacity unit vary the violated failures and the certificate slopes;
# the action seed varies the masked random trajectory.
skip_instances = st.builds(
    lambda seed, scale, unit: generators.make_instance(
        "A", seed=seed, scale=scale, horizon="short", capacity_unit=unit
    ),
    seed=st.integers(min_value=0, max_value=5),
    scale=st.sampled_from([0.5, 0.7, 1.0]),
    unit=st.sampled_from([5.0, 10.0, 25.0, 50.0]),
)
SKIP_ENV = {"max_units_per_step": 4, "max_steps": 64}


def lp_solves(batched_env):
    return sum(evaluator.lp_solves for evaluator in batched_env.evaluators)


class TestInfeasibilitySkip:
    """The duality-certificate LP-skip changes solve counts, never verdicts.

    Each reference environment has its shortfall bound zeroed before
    every step, which forces a real LP evaluate each time; the skipping
    environment must match it bitwise anyway.
    """

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(instance=skip_instances, action_seed=st.integers(0, 2**16))
    def test_skip_preserves_trajectory_bitwise(self, instance, action_seed):
        skipping = PlanningEnv(instance, **SKIP_ENV)
        reference = PlanningEnv(
            instance, reward_scale=skipping.reward_scale, **SKIP_ENV
        )
        obs_a, obs_b = skipping.reset(), reference.reset()
        assert obs_a.tobytes() == obs_b.tobytes()
        assert not skipping.done  # every drawn instance starts infeasible
        rng = np.random.default_rng(action_seed)
        done = False
        while not done:
            mask = skipping.action_mask()
            assert mask.tobytes() == reference.action_mask().tobytes()
            action = int(rng.choice(np.flatnonzero(mask)))
            reference._shortfall_bound.gap = 0.0  # force a real evaluate
            a = skipping.step(action)
            b = reference.step(action)
            assert a.reward == b.reward
            assert a.done == b.done
            assert a.feasible == b.feasible
            assert a.observation.tobytes() == b.observation.tobytes()
            assert a.info["violated_failure"] == b.info["violated_failure"]
            # A skipped step reports the bound, which never over-states
            # the shortfall the LP finds.
            assert a.info["shortfall"] <= b.info["shortfall"] + 1e-9
            done = a.done
        assert skipping.evaluator.lp_solves < reference.evaluator.lp_solves

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        instance=skip_instances,
        num_envs=st.sampled_from([1, 4]),
        action_seed=st.integers(0, 2**16),
    )
    def test_batched_skip_preserves_trajectory_bitwise(
        self, instance, num_envs, action_seed
    ):
        skipping = BatchedPlanningEnv(instance, num_envs, **SKIP_ENV)
        reference = BatchedPlanningEnv(
            instance,
            num_envs,
            reward_scale=skipping.reward_scale,
            **SKIP_ENV,
        )
        skipping.reset_all()
        reference.reset_all()
        rng = np.random.default_rng(action_seed)
        while not skipping.done.all():
            slots = np.flatnonzero(~skipping.done)
            assert np.array_equal(slots, np.flatnonzero(~reference.done))
            masks = skipping.action_masks(slots)
            assert masks.tobytes() == reference.action_masks(slots).tobytes()
            actions = [int(rng.choice(np.flatnonzero(mask))) for mask in masks]
            for bound in reference._shortfall_bounds:
                bound.gap = 0.0  # force a real evaluate in every slot
            stepped = skipping.step_slots(slots, actions)
            assert stepped == reference.step_slots(slots, actions)
            obs_a, obs_b = skipping.observe(slots), reference.observe(slots)
            assert obs_a.tobytes() == obs_b.tobytes()
            assert skipping.feasible.tobytes() == reference.feasible.tobytes()
            violated = [b.violated for b in skipping._shortfall_bounds]
            assert violated == [b.violated for b in reference._shortfall_bounds]
        assert lp_solves(skipping) < lp_solves(reference)

    def test_gap_reseeds_after_each_real_evaluate(self):
        instance = generators.make_instance(
            "A", seed=0, scale=0.7, horizon="short", capacity_unit=10.0
        )
        env = PlanningEnv(instance, **SKIP_ENV)
        evaluations = []
        evaluate = env.evaluator.evaluate

        def recording_evaluate(capacities):
            result = evaluate(capacities)
            evaluations.append((result, dict(capacities)))
            return result

        env.evaluator.evaluate = recording_evaluate
        env.reset()
        bound = env._shortfall_bound
        result, capacities = evaluations[-1]
        # At the anchor the certificate is tight (strong duality).
        assert bound.gap == pytest.approx(result.shortfall, abs=1e-6)
        rng = np.random.default_rng(0)
        skipped = reseeded = 0
        while not env.done:
            gap = bound.gap
            slopes = evaluations[-1][0].certificate.slopes
            solves = len(evaluations)
            action = int(rng.choice(np.flatnonzero(env.action_mask())))
            link_id, units = env.decode_action(action)
            env.step(action)
            if len(evaluations) == solves:
                # A skipped step moves the gap by the link's slope only.
                amount = units * instance.capacity_unit
                assert bound.gap == gap - slopes.get(link_id, 0.0) * amount
                skipped += 1
            elif not env.feasible:
                result, capacities = evaluations[-1]
                certificate = result.certificate
                reseed = certificate.required_demand - certificate.bound(capacities)
                assert bound.gap == reseed
                assert bound.gap <= result.shortfall + 1e-9
                reseeded += 1
        assert skipped and reseeded

    def test_skips_counted_only_with_telemetry_enabled(self):
        instance = generators.make_instance(
            "A", seed=0, scale=0.7, horizon="short", capacity_unit=10.0
        )
        telemetry.disable()
        telemetry.reset()
        try:
            for enabled in (False, True):
                if enabled:
                    telemetry.enable()
                env = PlanningEnv(instance, **SKIP_ENV)
                env.reset()
                rng = np.random.default_rng(0)
                skipped = 0
                while not env.done:
                    solves = env.evaluator.lp_solves
                    env.step(int(rng.choice(np.flatnonzero(env.action_mask()))))
                    skipped += env.evaluator.lp_solves == solves
                counted = telemetry.get_registry().counter_value("env.lp_skips")
                assert skipped > 0
                assert counted == (skipped if enabled else 0)
        finally:
            telemetry.disable()
            telemetry.reset()


# ----------------------------------------------------------------------
# BatchedCategorical
# ----------------------------------------------------------------------
class TestBatchedCategorical:
    def test_rows_match_independent_categoricals(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(4, 6))
        mask = rng.random(size=(4, 6)) > 0.3
        mask[:, 0] = True  # keep every row satisfiable
        batched = BatchedCategorical(Tensor(logits), mask)
        for row in range(4):
            single = Categorical(Tensor(logits[row]), mask[row])
            assert batched.probs_row(row).tobytes() == single.probs.tobytes()
            draw_a = batched.sample_row(row, np.random.default_rng(row))
            draw_b = single.sample(np.random.default_rng(row))
            assert draw_a == draw_b
            assert batched.mode_row(row) == single.mode()

    def test_rejects_bad_shapes(self):
        with pytest.raises(NNError, match="2-D"):
            BatchedCategorical(Tensor(np.zeros(3)))
        with pytest.raises(NNError, match="mask shape"):
            BatchedCategorical(
                Tensor(np.zeros((2, 3))), np.ones((3, 2), dtype=bool)
            )
        dead_row = np.array([[True, True], [False, False]])
        with pytest.raises(NNError, match="disables"):
            BatchedCategorical(Tensor(np.zeros((2, 2))), dead_row)

    def test_log_prob_and_entropy_match_rows(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(3, 5))
        batched = BatchedCategorical(Tensor(logits))
        actions = [2, 0, 4]
        joint = batched.log_prob(actions)
        entropy = batched.entropy()
        for row, action in enumerate(actions):
            single = Categorical(Tensor(logits[row]))
            assert joint.data[row] == pytest.approx(
                single.log_prob(action).item()
            )
            assert entropy.data[row] == pytest.approx(single.entropy().item())
