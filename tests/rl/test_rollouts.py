"""Tests for the rollout-collection subsystem (repro.rl.rollouts).

Covers the one collector's two determinism contracts (at ``(1, 1)`` the
serial stream == the legacy inline loop, bitwise, across epochs;
elsewhere batches and trained results bitwise independent of
``num_workers`` and ``num_envs``), crash handling, shutdown hygiene,
and the configuration guards.
"""

import multiprocessing
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from benchmarks.frozen_references import SerialAutodiffCollector
from repro import telemetry
from repro.errors import ConfigError, EnvironmentError_
from repro.nn.tensor import no_grad
from repro.rl.a2c import A2CConfig, A2CTrainer
from repro.rl.batched import BatchedPlanningEnv, BatchedRolloutCollector
from repro.rl.env import PlanningEnv
from repro.rl.policy import ActorCriticPolicy
from repro.rl.ppo import PPOConfig, PPOTrainer
from repro.rl.rollouts import make_collector
from repro.seeding import as_generator, stream_generator
from repro.topology import datasets, generators
from repro.topology.traffic import TrafficMatrix

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def fresh_env():
    return PlanningEnv(datasets.figure1_topology(), max_units_per_step=1, max_steps=12)


def fresh_policy():
    return ActorCriticPolicy(feature_dim=1, max_units=1, rng=0)


def out_of_spectrum_case():
    """Figure 1 with demands no capacity can carry: every trajectory
    adds capacity until the fibers' spectrum is spent (~150 steps)."""
    instance = datasets.figure1_topology()
    traffic = TrafficMatrix(
        [replace(flow, demand=flow.demand * 1e6) for flow in instance.traffic]
    )
    env = PlanningEnv(
        replace(instance, traffic=traffic), max_units_per_step=2, max_steps=1024
    )
    return env, ActorCriticPolicy(feature_dim=1, max_units=2, rng=0)


def serial_collector(env, policy, seed):
    return make_collector(env, policy, as_generator(seed), num_workers=1, num_envs=1)


# K=1 trainings held to the frozen serial loop: (INVARIANCE_CASES
# model, epochs, steps_per_epoch, max_trajectory_length or None for the
# env's max_steps, seed).  The cut-heavy one ends most epochs
# mid-trajectory.
SERIAL_TRAININGS = {
    "figure1": ("figure1", 3, 96, None, 7),
    "A-gcn": ("A-gcn", 3, 96, None, 7),
    "A-gcn-cut-heavy": ("A-gcn", 4, 50, 17, 3),
}


def reference_serial_rollout(env, policy, rng, budget, max_trajectory_length):
    """The pre-subsystem inline collection loop, kept as a frozen oracle."""
    steps = []
    bounds = []
    observation = env.reset()
    trajectory_start = 0
    trajectory_len = 0
    for _ in range(budget):
        mask = env.action_mask()
        if not mask.any():
            break
        with no_grad():
            distribution, value = policy(observation, env.adjacency_norm, mask)
            action = distribution.sample(rng)
            log_prob = distribution.log_prob(action).item()
            value_estimate = value.item()
        result = env.step(action)
        steps.append((action, result.reward, value_estimate, log_prob))
        observation = result.observation
        trajectory_len += 1
        if result.done or trajectory_len >= max_trajectory_length:
            bounds.append((trajectory_start, len(steps), True, 0.0))
            observation = env.reset()
            trajectory_start = len(steps)
            trajectory_len = 0
    if trajectory_len > 0:
        with no_grad():
            bootstrap = policy.value(observation, env.adjacency_norm).item()
        bounds.append((trajectory_start, len(steps), False, bootstrap))
    return steps, bounds


class TestSerialCollector:
    """``make_collector`` at ``(1, 1)``: the serial stream on the one
    collector, held to the frozen legacy loop."""

    def test_matches_legacy_inline_loop_bitwise(self):
        collector = serial_collector(fresh_env(), fresh_policy(), 3)
        batch = collector.collect(budget=40, max_trajectory_length=10)

        ref_steps, ref_bounds = reference_serial_rollout(
            fresh_env(), fresh_policy(), as_generator(3), 40, 10
        )
        got = [(t.action, t.reward, t.value, t.log_prob) for t in batch.transitions()]
        assert got == ref_steps  # float ==, not approx
        assert batch.bounds() == ref_bounds

    def test_collect_consumes_exactly_the_budget(self):
        collector = serial_collector(fresh_env(), fresh_policy(), 0)
        batch = collector.collect(budget=17, max_trajectory_length=100)
        assert batch.num_steps == 17
        # The budget-cut fragment is marked un-done and bootstrapped.
        assert batch.fragments[-1].done is False

    def test_context_manager(self):
        with serial_collector(fresh_env(), fresh_policy(), 0) as collector:
            assert collector.collect(8, 8).num_steps == 8

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        rounds=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=400),  # budget
                # Short caps cut often; 1024 lets a trajectory run out
                # of spectrum.
                st.integers(min_value=1, max_value=24) | st.just(1024),
            ),
            min_size=1,
            max_size=3,
        ),
        out_of_spectrum=st.booleans(),
    )
    def test_consecutive_rounds_match_oracle_on_one_generator(
        self, seed, rounds, out_of_spectrum
    ):
        """Epoch after epoch, the collector and the oracle, each fed one
        generator from the same seed, cut at the same budget and length
        and stop at the same spent spectrum, bit for bit."""
        make_case = (
            out_of_spectrum_case
            if out_of_spectrum
            else lambda: (fresh_env(), fresh_policy())
        )
        collector = serial_collector(*make_case(), seed)
        oracle = make_case() + (as_generator(seed),)
        for epoch, (budget, max_trajectory_length) in enumerate(rounds):
            batch = collector.collect(budget, max_trajectory_length, epoch)
            ref_steps, ref_bounds = reference_serial_rollout(
                *oracle, budget, max_trajectory_length
            )
            got = [
                (t.action, t.reward, t.value, t.log_prob)
                for t in batch.transitions()
            ]
            assert got == ref_steps, epoch
            assert batch.bounds() == ref_bounds, epoch
        assert collector.rng.bit_generator.state == oracle[2].bit_generator.state

    def test_spent_spectrum_ends_the_round_like_the_oracle(self):
        collector = serial_collector(*out_of_spectrum_case(), 0)
        oracle = out_of_spectrum_case() + (as_generator(0),)
        for epoch in range(2):
            batch = collector.collect(1000, 1024, epoch)
            ref_steps, ref_bounds = reference_serial_rollout(*oracle, 1000, 1024)
            [fragment] = batch.fragments
            assert 0 < batch.num_steps < 1000
            assert fragment.done is False
            got = [
                (t.action, t.reward, t.value, t.log_prob)
                for t in batch.transitions()
            ]
            assert got == ref_steps
            assert batch.bounds() == ref_bounds

    @pytest.mark.parametrize(
        "trainer_cls, config_cls",
        [(A2CTrainer, A2CConfig), (PPOTrainer, PPOConfig)],
    )
    @pytest.mark.parametrize("case", sorted(SERIAL_TRAININGS))
    def test_trainers_match_the_frozen_serial_loop(
        self, trainer_cls, config_cls, case, monkeypatch
    ):
        """A K=1 training result is the frozen autodiff loop's: history,
        best plan and final weights."""
        model, epochs, steps, max_trajectory_length, seed = SERIAL_TRAININGS[case]

        def train():
            env, policy = INVARIANCE_CASES[model]()
            config = config_cls(
                epochs=epochs,
                steps_per_epoch=steps,
                max_trajectory_length=max_trajectory_length or env.max_steps,
                seed=seed,
            )
            result = trainer_cls(env, policy, config).train()
            return result, policy.state_dict()

        result, weights = train()
        monkeypatch.setattr(
            f"{trainer_cls.__module__}.make_collector",
            lambda env, policy, rng, **counts: SerialAutodiffCollector(
                env, policy, rng
            ),
        )
        frozen, frozen_weights = train()
        assert result.history == frozen.history  # float ==
        assert result.best_cost == frozen.best_cost
        assert result.best_capacities == frozen.best_capacities
        assert weights.keys() == frozen_weights.keys()
        for name, value in weights.items():
            assert value.tobytes() == frozen_weights[name].tobytes(), name


class TestParallelDeterminism:
    def collect(self, num_workers, budget=24, seed=5, epoch=0, num_envs=1):
        with make_collector(
            fresh_env(),
            fresh_policy(),
            as_generator(0),
            num_workers=num_workers,
            num_envs=num_envs,
            seed=seed,
        ) as collector:
            return collector.collect(
                budget=budget, max_trajectory_length=8, epoch=epoch
            )

    @staticmethod
    def as_tuples(batch):
        return [
            (f.stream, f.done, f.feasible, f.plan_cost, f.final_value)
            + tuple((t.action, t.reward, t.value, t.log_prob) for t in f.transitions)
            for f in batch.fragments
        ]

    def test_worker_count_invariance(self):
        two = self.collect(num_workers=2)
        four = self.collect(num_workers=4)
        assert self.as_tuples(two) == self.as_tuples(four)
        assert two.num_steps == four.num_steps == 24
        # The same groups rolled out in process, without a pool.
        in_process = self.collect(num_workers=1, num_envs=2)
        assert self.as_tuples(in_process) == self.as_tuples(two)

    def test_repeated_runs_identical(self):
        a = self.collect(num_workers=4)
        b = self.collect(num_workers=4)
        assert self.as_tuples(a) == self.as_tuples(b)

    def test_epoch_and_seed_vary_the_streams(self):
        base = self.as_tuples(self.collect(num_workers=2))
        other_epoch = self.as_tuples(self.collect(num_workers=2, epoch=1))
        other_seed = self.as_tuples(self.collect(num_workers=2, seed=6))
        assert base != other_epoch
        assert base != other_seed

    def test_budget_cut_bootstraps_with_next_state_value(self):
        # A 3-step budget cuts the first trajectory; the bootstrap must
        # be the worker's critic estimate of the first dropped state.
        full = self.collect(num_workers=2, budget=8)
        cut = self.collect(num_workers=2, budget=3)
        assert cut.num_steps == 3
        tail = cut.fragments[-1]
        assert tail.done is False and tail.feasible is False
        donor = full.fragments[tail.stream]
        assert tail.final_value == donor.transitions[len(tail)].value

    def test_stream_generator_is_process_independent(self):
        a = stream_generator(5, 0, 3).random(4)
        b = stream_generator(5, 0, 3).random(4)
        c = stream_generator(5, 1, 3).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def topology_a_case(gnn_type, sparse=None):
    instance = generators.make_instance("A", seed=0, scale=0.5, horizon="short")
    env = PlanningEnv(
        instance, max_units_per_step=4, max_steps=64, sparse_adjacency=sparse
    )
    policy = ActorCriticPolicy(
        feature_dim=env.encoder.feature_dim, max_units=4, gnn_type=gnn_type, rng=0
    )
    return env, policy


# Trained models whose results must not depend on how collection is
# spread: figure 1, and topology A under each encoder (SAGE on the
# forced-sparse adjacency).
INVARIANCE_CASES = {
    "figure1": lambda: (fresh_env(), fresh_policy()),
    "A-gcn": lambda: topology_a_case("gcn"),
    "A-sage-sparse": lambda: topology_a_case("sage", sparse=True),
    "A-gat": lambda: topology_a_case("gat"),
}
# (num_workers, num_envs) cells; (1, 1) runs the serial stream, whose
# single RNG stream is a different, documented contract.
SCALE_OUTS = [(2, 1), (4, 1), (1, 2), (1, 4), (2, 2)]


class TestParallelTrainers:
    """A2C and PPO results are bitwise invariant to ``num_workers`` and
    ``num_envs``: history, best plan and the final parameters."""

    @staticmethod
    def train(trainer_cls, config_cls, case, num_workers, num_envs=1):
        env, policy = INVARIANCE_CASES[case]()
        config = config_cls(
            epochs=2,
            steps_per_epoch=96,
            max_trajectory_length=env.max_steps,
            seed=7,
            num_workers=num_workers,
            num_envs=num_envs,
        )
        result = trainer_cls(env, policy, config).train()
        return result, policy.state_dict()

    def assert_matrix_invariant(self, trainer_cls, config_cls):
        __tracebackhide__ = True
        for case in INVARIANCE_CASES:
            reference, weights = self.train(
                trainer_cls, config_cls, case, *SCALE_OUTS[0]
            )
            for workers, envs in SCALE_OUTS[1:]:
                result, state = self.train(trainer_cls, config_cls, case, workers, envs)
                cell = (case, workers, envs)
                assert result.history == reference.history, cell  # float ==
                assert result.best_cost == reference.best_cost, cell
                assert result.best_capacities == reference.best_capacities, cell
                assert state.keys() == weights.keys(), cell
                for name, value in state.items():
                    assert value.tobytes() == weights[name].tobytes(), (cell, name)

    def test_ppo_training_result_invariant_to_worker_count(self):
        self.assert_matrix_invariant(PPOTrainer, PPOConfig)

    def test_a2c_training_result_invariant_to_worker_count(self):
        self.assert_matrix_invariant(A2CTrainer, A2CConfig)

    def test_ppo_repeated_four_worker_runs_identical(self):
        a, _ = self.train(PPOTrainer, PPOConfig, "figure1", num_workers=4)
        b, _ = self.train(PPOTrainer, PPOConfig, "figure1", num_workers=4)
        assert a.history == b.history
        assert a.best_cost == b.best_cost


@pytest.mark.skipif(not HAS_FORK, reason="crash injection relies on fork")
class TestCrashHandling:
    def test_worker_crash_surfaces_and_closes_pool(self, monkeypatch):
        def boom(self, slots, actions):
            raise RuntimeError("injected mid-fragment failure")

        # Patch before the pool exists: forked workers inherit the
        # broken step and crash mid-fragment.
        monkeypatch.setattr(BatchedPlanningEnv, "step_slots", boom)
        collector = make_collector(
            fresh_env(), fresh_policy(), as_generator(0), num_workers=2, seed=0
        )
        with pytest.raises(EnvironmentError_, match="rollout worker crashed"):
            collector.collect(budget=8, max_trajectory_length=4)
        assert collector._pool is None  # terminated and joined, no hang

    def test_retry_guard(self):
        with pytest.raises(ConfigError, match="max_worker_retries"):
            BatchedRolloutCollector(
                fresh_env(),
                fresh_policy(),
                num_envs=1,
                num_workers=2,
                seed=0,
                max_worker_retries=-1,
            )

    def test_close_is_idempotent(self):
        collector = make_collector(
            fresh_env(), fresh_policy(), as_generator(0), num_workers=2, seed=0
        )
        collector.collect(budget=4, max_trajectory_length=4)
        collector.close()
        collector.close()
        assert collector._pool is None


class TestWorkerRespawn:
    """Injected worker crashes are retried on the respawned pool, and the
    retries must not perturb the collected batch: each group's fragments
    are a pure function of (parameters, seed, epoch, group), so a redone
    task reproduces them bitwise.  ``rollout.worker@<epoch>.<group>``
    names a group of ``num_envs`` consecutive streams."""

    def _collect(self, num_envs=1, **kw):
        kw.setdefault("retry_backoff", 0.0)
        with BatchedRolloutCollector(
            fresh_env(), fresh_policy(), num_envs=num_envs, num_workers=2, seed=5, **kw
        ) as collector:
            return collector.collect(budget=24, max_trajectory_length=8, epoch=0)

    def test_crashed_task_retried_batch_bitwise_identical(self, monkeypatch):
        clean = TestParallelDeterminism.as_tuples(self._collect())
        # Crash epoch 0 / group 1's task on its first attempt only; the
        # retry (attempt=1) runs clean on the respawned worker.
        monkeypatch.setenv("NEUROPLAN_FAULTS", "rollout.worker@0.1")
        faulted = TestParallelDeterminism.as_tuples(self._collect())
        assert faulted == clean

    def test_two_crashes_within_retry_budget(self, monkeypatch):
        clean = TestParallelDeterminism.as_tuples(self._collect())
        monkeypatch.setenv("NEUROPLAN_FAULTS", "rollout.worker@0.0#2")
        faulted = TestParallelDeterminism.as_tuples(self._collect())
        assert faulted == clean

    def test_persistent_crash_exhausts_retries(self, monkeypatch):
        monkeypatch.setenv("NEUROPLAN_FAULTS", "rollout.worker@0.0#10")
        collector = BatchedRolloutCollector(
            fresh_env(),
            fresh_policy(),
            num_envs=1,
            num_workers=2,
            seed=5,
            max_worker_retries=2,
            retry_backoff=0.0,
        )
        with pytest.raises(EnvironmentError_, match="rollout worker crashed"):
            collector.collect(budget=24, max_trajectory_length=8, epoch=0)
        assert collector._pool is None  # closed, no hang

    def test_group_key_fires_at_num_envs_above_one(self, monkeypatch):
        clean = TestParallelDeterminism.as_tuples(self._collect(num_envs=2))
        monkeypatch.setenv("NEUROPLAN_FAULTS", "rollout.worker@0.1")
        faulted = TestParallelDeterminism.as_tuples(self._collect(num_envs=2))
        assert faulted == clean
        monkeypatch.setenv("NEUROPLAN_FAULTS", "rollout.worker@0.1#10")
        with pytest.raises(EnvironmentError_, match="rollout worker crashed"):
            self._collect(num_envs=2)


class TestGuards:
    def test_num_workers_cannot_exceed_available_trajectories(self):
        with pytest.raises(ConfigError, match="available"):
            PPOConfig(steps_per_epoch=4, num_workers=8)
        with pytest.raises(ConfigError, match="available"):
            A2CConfig(steps_per_epoch=4, num_workers=8)

    def test_make_collector_routes_backends(self):
        """One collector for every pair; only (1, 1) gets the generator."""
        env, policy = fresh_env(), fresh_policy()
        rng = as_generator(0)
        for workers, envs in [(1, 1), (2, 1), (1, 2), (2, 2)]:
            collector = make_collector(
                env, policy, rng, num_workers=workers, num_envs=envs, seed=0
            )
            try:
                assert isinstance(collector, BatchedRolloutCollector)
                assert (collector.num_workers, collector.num_envs) == (workers, envs)
                expected = rng if (workers, envs) == (1, 1) else None
                assert collector.rng is expected
            finally:
                collector.close()
        with pytest.raises(ConfigError, match="shared generator"):
            BatchedRolloutCollector(env, policy, num_envs=2, rng=rng)
        for counts in ({"num_workers": 0}, {"num_envs": 0}):
            with pytest.raises(ConfigError, match="must be >= 1"):
                make_collector(env, policy, as_generator(0), **counts)


class TestTelemetry:
    @pytest.fixture(autouse=True)
    def cleanup(self):
        yield
        telemetry.disable()
        telemetry.reset()

    def test_parallel_collection_records_counters(self):
        telemetry.enable()
        with make_collector(
            fresh_env(), fresh_policy(), as_generator(0), num_workers=2, seed=0
        ) as collector:
            batch = collector.collect(budget=12, max_trajectory_length=6)
        snapshot = telemetry.snapshot()
        assert snapshot["counters"]["rl.rollouts.workers_spawned"] == 2
        assert snapshot["counters"]["rl.rollouts.steps"] == batch.num_steps == 12
        assert snapshot["counters"]["rl.rollouts.transfer_bytes"] > 0
        assert "rl.rollouts.collect" in snapshot["timers"]
        assert "rl.rollouts.transfer" in snapshot["timers"]