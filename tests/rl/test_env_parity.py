"""PlanningEnv's array-native step against the dict-based formulas.

The environment keeps its capacities as a dict *and* a link-order
vector, reuses the spectrum guard's headroom for the next action mask,
builds observations from the vector and carries its plan cost between
steps.  None of that may change a bit of what a step returns, so these
properties replay random masked episodes against a reference written
here from the dict formulas the environment used before: observations
from ``StateEncoder.raw_features`` normalized with ``np.mean`` /
``np.std``, masks from ``SpectrumIndex.link_headroom``, the guard from
``SpectrumIndex.feasible``, rewards from ``CostModel.incremental_cost``
and verdicts from a plain ``PlanEvaluator``.
"""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import EnvironmentError_
from repro.evaluator import PlanEvaluator
from repro.rl.batched import BatchedPlanningEnv
from repro.rl.env import TERMINAL_PENALTY, PlanningEnv
from repro.rl.state import StateEncoder
from repro.topology import generators
from repro.topology.spectrum import SpectrumIndex

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


class ReferenceEnv:
    """The environment's step semantics over a plain capacity dict."""

    def __init__(self, env: PlanningEnv):
        self.instance = env.instance
        self.link_ids = env.link_graph.link_ids
        self.max_units = env.max_units
        self.max_steps = env.max_steps
        self.unit = env.unit
        self.reward_scale = env.reward_scale
        self.spectrum = SpectrumIndex(env.instance.network)
        self.encoder = StateEncoder(
            env.instance, env.link_graph, env.encoder.feature_set
        )
        self.evaluator = PlanEvaluator(env.instance, mode=env.evaluator.mode)
        self.capacities: dict[str, float] = {}
        self.steps = 0
        self.done = True
        self.feasible = False

    def reset_at(self, capacities: dict[str, float]) -> np.ndarray:
        self.capacities = dict(capacities)
        self.steps = 0
        self.evaluator.reset()
        self.feasible = self.evaluator.evaluate(self.capacities).feasible
        self.done = self.feasible
        return self.observation()

    def retarget(self, traffic) -> None:
        self.evaluator.retarget_demands(traffic)
        self.instance = self.evaluator.instance
        self.done = True

    def observation(self) -> np.ndarray:
        features = self.encoder.raw_features(self.capacities)
        mean = features.mean(axis=0, keepdims=True)
        std = features.std(axis=0, keepdims=True)
        std = np.where(std < 1e-9, 1.0, std)
        return (features - mean) / std

    def mask(self) -> np.ndarray:
        headroom = self.spectrum.link_headroom(self.capacities)
        units = np.floor(np.round(headroom / self.unit, 9))
        allowed = np.minimum(units, self.max_units)
        mask = np.arange(self.max_units)[None, :] < allowed[:, None]
        return mask.reshape(-1)

    def after(self, action: int) -> dict[str, float]:
        link_index, units_index = divmod(action, self.max_units)
        link_id = self.link_ids[link_index]
        after = dict(self.capacities)
        after[link_id] = after[link_id] + (units_index + 1) * self.unit
        return after

    def step(self, action: int):
        before = self.capacities
        self.capacities = self.after(action)
        assert self.spectrum.feasible(self.capacities)
        cost_model = self.instance.cost_model
        reward = (
            -cost_model.incremental_cost(
                self.instance.network, before, self.capacities
            )
            / self.reward_scale
        )
        self.steps += 1
        result = self.evaluator.evaluate(self.capacities)
        self.feasible = result.feasible
        if self.feasible:
            self.done = True
        elif self.steps >= self.max_steps:
            self.done = True
            reward += TERMINAL_PENALTY
        return reward, self.done, self.feasible, result.violated_failure


def assert_same_state(env: PlanningEnv, ref: ReferenceEnv, observation) -> None:
    assert observation.tobytes() == ref.observation().tobytes()
    assert env.observation().tobytes() == ref.observation().tobytes()
    np.testing.assert_array_equal(env.action_mask(), ref.mask())
    assert env.capacities() == ref.capacities
    cost = ref.instance.cost_model.plan_cost(ref.instance.network, ref.capacities)
    assert bits(env.plan_cost()) == bits(cost)
    assert (env.done, env.feasible) == (ref.done, ref.feasible)


def make_env(data) -> PlanningEnv:
    band = data.draw(st.sampled_from(["A", "B"]), label="band")
    seed = data.draw(st.integers(0, 40), label="seed")
    scale = data.draw(st.sampled_from([0.3, 0.5]), label="scale")
    instance = generators.make_instance(band, seed=seed, scale=scale)
    return PlanningEnv(
        instance,
        max_units_per_step=data.draw(st.integers(1, 4), label="max_units"),
        max_steps=data.draw(st.integers(3, 40), label="max_steps"),
        feature_set=data.draw(
            st.sampled_from(["capacity", "extended"]), label="features"
        ),
        reward_scale=data.draw(
            st.sampled_from([None, 1.0, 12345.678]), label="reward_scale"
        ),
        sparse_adjacency=data.draw(st.sampled_from([None, True]), label="sparse"),
    )


def warm_start(ref: ReferenceEnv, data) -> dict[str, float]:
    """The reference's capacities with one link grown within headroom."""
    capacities = dict(ref.capacities)
    headroom = ref.spectrum.link_headroom(capacities)
    index = data.draw(st.integers(0, len(ref.link_ids) - 1), label="warm link")
    room = int(np.floor(np.round(headroom[index] / ref.unit, 9)))
    units = data.draw(st.integers(0, max(room, 0)), label="warm units")
    capacities[ref.link_ids[index]] += units * ref.unit
    return capacities


class TestEnvMatchesDictFormulas:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(data=st.data())
    def test_random_masked_episodes(self, data):
        env = make_env(data)
        ref = ReferenceEnv(env)
        observation = env.reset()
        ref.reset_at(env.instance.network.capacities())
        assert_same_state(env, ref, observation)
        operations = data.draw(
            st.lists(
                st.sampled_from(["step"] * 6 + ["reset_from", "retarget", "reset"]),
                min_size=1,
                max_size=40,
            ),
            label="operations",
        )
        for operation in operations:
            if operation == "retarget":
                factor = data.draw(st.sampled_from([0.8, 1.0, 1.3]), label="factor")
                traffic = env.instance.traffic.scaled(factor)
                env.retarget_demands(traffic)
                ref.retarget(traffic)
                assert env.done and ref.done
                continue
            if operation == "reset_from" or (operation == "step" and env.done):
                capacities = warm_start(ref, data)
                observation = env.reset_from(capacities)
                ref.reset_at(capacities)
            elif operation == "reset":
                observation = env.reset()
                ref.reset_at(env.instance.network.capacities())
            else:
                mask = ref.mask()
                if not mask.any():
                    continue
                allowed = np.flatnonzero(mask)
                pick = data.draw(st.integers(0, len(allowed) - 1), label="action")
                action = int(allowed[pick])
                result = env.step(action)
                reward, done, feasible, violated = ref.step(action)
                observation = result.observation
                assert bits(result.reward) == bits(reward)
                assert (result.done, result.feasible) == (done, feasible)
                assert result.info["violated_failure"] == violated
            assert_same_state(env, ref, observation)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(data=st.data())
    def test_batched_step_rewards(self, data):
        template = make_env(data)
        num_envs = data.draw(st.integers(1, 4), label="num_envs")
        benv = BatchedPlanningEnv(
            template.instance, num_envs, **template.replica_kwargs()
        )
        benv.reset_all()
        cost_model = benv.instance.cost_model
        network = benv.instance.network
        steps = np.zeros(num_envs, dtype=int)
        for _ in range(data.draw(st.integers(1, 30), label="rounds")):
            slots = np.flatnonzero(~benv.done)
            if slots.size == 0:
                break
            masks = benv.action_masks(slots)
            if not masks.any(axis=1).all():
                break
            actions = []
            for row in masks:
                allowed = np.flatnonzero(row)
                pick = data.draw(st.integers(0, len(allowed) - 1), label="action")
                actions.append(int(allowed[pick]))
            befores = [benv.capacities(slot) for slot in slots]
            results = benv.step_slots(slots, np.array(actions))
            steps[slots] += 1
            for slot, before, (reward, done, feasible) in zip(slots, befores, results):
                after = benv.capacities(slot)
                expected = (
                    -cost_model.incremental_cost(network, before, after)
                    / benv.reward_scale
                )
                if not feasible and steps[slot] >= benv.max_steps:
                    expected += TERMINAL_PENALTY
                assert bits(reward) == bits(expected)
                assert bits(benv.plan_cost(slot)) == bits(
                    cost_model.plan_cost(network, after)
                )


class TestSpectrumGuard:
    @pytest.mark.parametrize("band", ["A", "B"])
    def test_unmasked_violating_action_raises(self, band):
        """Driving past the mask still trips the step's spectrum guard."""
        instance = generators.make_instance(band, seed=0, scale=0.5)
        env = PlanningEnv(instance, max_units_per_step=4, reward_scale=1.0)
        ref = ReferenceEnv(env)
        env.reset()
        capacities = env.capacities()
        link_id = env.link_graph.link_ids[0]
        headroom = SpectrumIndex(instance.network).link_headroom(capacities)[0]
        # Leave less than one unit of room on the link's fiber path.
        capacities[link_id] += np.floor(headroom / env.unit) * env.unit
        env.reset_from(capacities)
        ref.reset_at(capacities)
        action = env.link_graph.index_of(link_id) * env.max_units
        assert not env.action_mask()[action]
        assert not ref.spectrum.feasible(ref.after(action))
        with pytest.raises(EnvironmentError_):
            env.step(action)
