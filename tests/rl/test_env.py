"""Tests for the planning environment."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import ConfigError, EnvironmentError_
from repro.planning.greedy import GreedyPlanner
from repro.rl.env import EvaluationMemo, PlanningEnv
from repro.topology import datasets, generators


@pytest.fixture
def env() -> PlanningEnv:
    return PlanningEnv(
        datasets.figure1_topology(), max_units_per_step=2, max_steps=8
    )


class TestSpaces:
    def test_action_space_size(self, env):
        assert env.num_links == 2
        assert env.num_actions == 4  # 2 links x 2 unit choices

    def test_decode_action(self, env):
        assert env.decode_action(0) == ("link1", 1)
        assert env.decode_action(1) == ("link1", 2)
        assert env.decode_action(2) == ("link2", 1)
        assert env.decode_action(3) == ("link2", 2)

    def test_decode_out_of_range(self, env):
        with pytest.raises(EnvironmentError_):
            env.decode_action(4)

    def test_invalid_config(self):
        instance = datasets.figure1_topology()
        with pytest.raises(ConfigError):
            PlanningEnv(instance, max_units_per_step=0)
        with pytest.raises(ConfigError):
            PlanningEnv(instance, max_steps=0)


class TestEpisodeFlow:
    def test_reset_returns_normalized_observation(self, env):
        obs = env.reset()
        assert obs.shape == (2, 1)
        # Normalized: mean ~0.
        np.testing.assert_allclose(obs.mean(), 0.0, atol=1e-9)

    def test_infeasible_at_start(self, env):
        env.reset()
        assert not env.done
        assert not env.feasible

    def test_step_adds_capacity_and_rewards_negative(self, env):
        env.reset()
        result = env.step(0)  # +1 unit on link1
        assert env.capacities()["link1"] == 100.0
        assert result.reward < 0.0
        assert not result.done

    def test_terminates_when_feasible(self, env):
        env.reset()
        env.step(0)  # link1 +100
        result = env.step(2)  # link2 +100
        assert result.done
        assert result.feasible
        assert env.capacities() == {"link1": 100.0, "link2": 100.0}

    def test_step_after_done_raises(self, env):
        env.reset()
        env.step(0)
        env.step(2)
        with pytest.raises(EnvironmentError_):
            env.step(0)

    def test_max_steps_penalty(self):
        env = PlanningEnv(
            datasets.figure1_topology(), max_units_per_step=1, max_steps=1
        )
        env.reset()
        result = env.step(0)
        assert result.done
        assert not result.feasible
        assert result.reward <= -1.0  # includes the -1 terminal penalty

    def test_reset_restores_initial_state(self, env):
        env.reset()
        env.step(0)
        env.reset()
        assert env.capacities() == {"link1": 0.0, "link2": 0.0}
        assert env.steps == 0

    def test_info_reports_violation(self, env):
        env.reset()
        result = env.step(0)
        assert result.info["violated_failure"] is not None
        assert result.info["link"] == "link1"

    def test_already_feasible_instance(self):
        """Starting capacities that satisfy everything end immediately."""
        instance = datasets.figure1_topology()
        instance.network.set_capacity("link1", 100.0)
        instance.network.set_capacity("link2", 100.0)
        env = PlanningEnv(instance, max_units_per_step=1, max_steps=4)
        env.reset()
        assert env.done
        assert env.feasible


class TestRewardScaling:
    def test_trajectory_reward_in_unit_range(self, env):
        """A sensible trajectory accumulates roughly [-1, 0] reward."""
        env.reset()
        total = env.step(0).reward
        total += env.step(2).reward
        assert -1.5 <= total < 0.0

    def test_custom_reward_scale(self):
        instance = datasets.figure1_topology()
        env = PlanningEnv(
            instance, max_units_per_step=1, max_steps=8, reward_scale=1.0
        )
        env.reset()
        result = env.step(0)
        # Unscaled: reward equals the negative incremental cost.
        expected = -instance.cost_model.incremental_cost(
            instance.network,
            {"link1": 0.0, "link2": 0.0},
            {"link1": 100.0, "link2": 0.0},
        )
        assert result.reward == pytest.approx(expected)


class TestActionMask:
    def test_all_valid_initially(self, env):
        env.reset()
        assert env.action_mask().all()

    def test_mask_blocks_spectrum_violations(self):
        """A nearly full fiber disables large capacity additions."""
        instance = generators.make_instance("A", seed=0, scale=0.7)
        env = PlanningEnv(instance, max_units_per_step=4, max_steps=8)
        env.reset()
        # Saturate one link's fiber path to near the spectrum limit.
        link_id = env.link_graph.link_ids[0]
        headroom = instance.network.link_capacity_headroom(
            link_id, env.capacities()
        )
        units_left = int(headroom // env.unit)
        # Fill all but one unit.
        capacities = env.capacities()
        capacities[link_id] += (units_left - 1) * env.unit
        env.reset_from(capacities)
        mask = env.action_mask()
        index = env.link_graph.index_of(link_id)
        base = index * env.max_units
        assert mask[base]  # +1 unit still fine
        assert not mask[base + 1 :base + 4].any()  # +2..4 would violate

    def test_masked_env_never_violates_spectrum(self):
        """Random masked rollouts keep Eq. 4 satisfied."""
        instance = generators.make_instance("A", seed=1, scale=0.7)
        env = PlanningEnv(instance, max_units_per_step=4, max_steps=50)
        rng = np.random.default_rng(0)
        env.reset()
        while not env.done:
            mask = env.action_mask()
            if not mask.any():
                break
            action = rng.choice(np.flatnonzero(mask))
            env.step(int(action))
        assert instance.network.spectrum_feasible(env.capacities())


class TestEvaluationMemo:
    def test_retargeted_env_never_reads_another_demands_verdict(self):
        """Envs at different demands share one memo without clear()."""
        instance = generators.make_instance("A", seed=0, scale=0.5)
        plan = GreedyPlanner().plan(instance).capacities
        stays = PlanningEnv(instance)
        moved = PlanningEnv(instance, **stays.replica_kwargs())
        memo = EvaluationMemo()
        stays.eval_memo = moved.eval_memo = memo
        moved.retarget_demands(instance.traffic.scaled(3.0))
        stays.reset_from(plan)
        assert stays.feasible
        assert memo.stats()["entries"] == 1
        moved.reset_from(plan)
        assert not moved.feasible  # its own verdict, not the memo's
        assert memo.stats() == {"entries": 2, "hits": 0, "misses": 2}
        # The same demands meet again: the verdict is shared.
        twin = PlanningEnv(instance, **stays.replica_kwargs())
        twin.eval_memo = memo
        twin.reset_from(plan)
        assert twin.feasible
        assert memo.stats()["hits"] == 1


class TestEvaluationMemoComputeOnce:
    """Concurrent callers on one key share one evaluation."""

    WAITERS = 6

    @staticmethod
    def wait_until(predicate, timeout=30.0):
        deadline = time.monotonic() + timeout
        while not predicate():
            assert time.monotonic() < deadline, "timed out waiting"
            time.sleep(0.001)

    def test_concurrent_callers_share_one_evaluation(self):
        memo = EvaluationMemo()
        release = threading.Event()
        calls = []

        def compute():
            calls.append(1)
            release.wait(30)
            return object()

        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(memo.get_or_compute("k", compute))
            )
            for _ in range(self.WAITERS + 1)
        ]
        for thread in threads:
            thread.start()
        self.wait_until(lambda: memo.stats()["hits"] == self.WAITERS)
        release.set()
        for thread in threads:
            thread.join(30)
        assert len(calls) == 1
        assert len(results) == self.WAITERS + 1
        assert all(result is results[0] for result in results)
        assert memo.stats() == {"entries": 1, "hits": self.WAITERS, "misses": 1}
        assert memo.get_or_compute("k", compute) is results[0]
        assert len(calls) == 1

    def test_a_raising_evaluation_releases_its_waiters(self):
        memo = EvaluationMemo()
        release = threading.Event()
        errors, results = [], []

        def failing():
            release.wait(30)
            raise RuntimeError("LP backend crashed")

        def owner():
            try:
                memo.get_or_compute("k", failing)
            except RuntimeError as exc:
                errors.append(exc)

        def waiter():
            mine = object()
            results.append((mine, memo.get_or_compute("k", lambda: mine)))

        first = threading.Thread(target=owner)
        first.start()
        self.wait_until(lambda: memo.stats()["misses"] == 1)
        waiters = [threading.Thread(target=waiter) for _ in range(self.WAITERS)]
        for thread in waiters:
            thread.start()
        self.wait_until(lambda: memo.stats()["hits"] == self.WAITERS)
        release.set()
        for thread in [first, *waiters]:
            thread.join(30)
        assert len(errors) == 1
        assert len(results) == self.WAITERS
        assert all(got is mine for mine, got in results)
        assert memo.stats() == {
            "entries": 0,
            "hits": 0,
            "misses": self.WAITERS + 1,
        }

    def test_joined_verdict_advances_the_stateful_sweep(self):
        """An env that takes another env's verdict resumes its failure
        sweep where that verdict stopped: two envs sharing one memo, in
        either order, solve exactly one lone env's LPs."""
        instance = generators.make_instance("A", seed=0, scale=0.5)
        lone = PlanningEnv(instance)
        pair = [PlanningEnv(instance, **lone.replica_kwargs()) for _ in range(2)]
        memo = EvaluationMemo()
        for env in pair:
            env.eval_memo = memo
        lone.reset()
        for env in pair:
            env.reset()
        rng = np.random.default_rng(0)
        while not lone.done and lone.steps < 200:
            action = int(rng.choice(np.flatnonzero(lone.action_mask())))
            lone.step(action)
            pair.reverse()  # the other env meets the next state first
            for env in pair:
                env.step(action)
        assert all(env.capacities() == lone.capacities() for env in pair)
        assert memo.stats()["hits"] > 0
        solved = sum(env.evaluator.lp_solves for env in pair)
        assert solved == lone.evaluator.lp_solves

    def test_stress_one_evaluation_per_key(self):
        """More threads than cores on a few keys, with a short switch
        interval: every key is computed once and every caller of a key
        gets that key's object."""
        memo = EvaluationMemo()
        keys, rounds, threads_n = 5, 40, 16
        computed = {key: [] for key in range(keys)}
        seen = {key: set() for key in range(keys)}
        lock = threading.Lock()

        def compute(key):
            result = object()
            with lock:
                computed[key].append(result)
            time.sleep(0.0005)
            return result

        def worker(offset):
            for index in range(rounds):
                key = (index + offset) % keys
                result = memo.get_or_compute(key, lambda: compute(key))
                with lock:
                    seen[key].add(id(result))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(offset,))
                for offset in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for key in range(keys):
            assert len(computed[key]) == 1
            assert seen[key] == {id(computed[key][0])}
        stats = memo.stats()
        assert stats["misses"] == keys
        assert stats["hits"] + stats["misses"] == rounds * threads_n
