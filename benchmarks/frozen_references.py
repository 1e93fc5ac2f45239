"""Frozen reference implementations that benchmark ratios divide by.

A ratio gate measures a fast path against a baseline.  When that
baseline is a production path, making production faster shrinks the
ratio although nothing got slower, so the gates divide by these
frozen copies instead.  Nothing here may be optimised: each keeps the
exact arithmetic of the code it was copied from.

:class:`SerialAutodiffCollector`
    The serial rollout loop as it ran before collection moved onto the
    grad-free batched evaluator: one environment, the trainer's one RNG
    stream, and an autodiff ``ActorCriticPolicy.forward`` per step.  Its
    batches are byte-identical to ``make_collector(num_workers=1,
    num_envs=1)``, so it also serves as an oracle for that path.  The
    K=1 row of ``bench_batched_envs.py`` and the serial row of
    ``bench_ablation_rollout_workers.py`` time it.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.nn.tensor import no_grad
from repro.rl.env import PlanningEnv
from repro.rl.policy import ActorCriticPolicy
from repro.rl.rollouts import Fragment, RolloutBatch, Transition


class SerialAutodiffCollector:
    """The legacy in-process collection loop behind the collector API.

    Consumes the trainer's RNG in exactly the order the pre-subsystem
    trainers did (mask, forward, sample, step), so any trainer driving
    this collector produces byte-identical results to the old inline code.
    """

    def __init__(
        self,
        env: PlanningEnv,
        policy: ActorCriticPolicy,
        rng: np.random.Generator,
    ):
        self.env = env
        self.policy = policy
        self.rng = rng

    def collect(
        self, budget: int, max_trajectory_length: int, epoch: int = 0
    ) -> RolloutBatch:
        """Roll out up to ``budget`` steps with the current policy."""
        del epoch  # the serial stream is continuous across epochs
        env = self.env
        fragments: list[Fragment] = []
        current: list[Transition] = []
        observation = env.reset()

        for _ in range(budget):
            mask = env.action_mask()
            if not mask.any():
                break
            with no_grad():
                distribution, value = self.policy(observation, env.adjacency_norm, mask)
                action = distribution.sample(self.rng)
                log_prob = distribution.log_prob(action).item()
                value_estimate = value.item()
            result = env.step(action)
            current.append(
                Transition(
                    observation=observation,
                    mask=mask,
                    action=action,
                    reward=result.reward,
                    value=value_estimate,
                    log_prob=log_prob,
                )
            )
            observation = result.observation

            if result.done or len(current) >= max_trajectory_length:
                feasible = result.feasible
                fragments.append(
                    Fragment(
                        transitions=current,
                        stream=len(fragments),
                        done=True,
                        feasible=feasible,
                        plan_cost=env.plan_cost() if feasible else None,
                        capacities=env.capacities() if feasible else None,
                        final_value=0.0,
                    )
                )
                observation = env.reset()
                current = []

        if current:
            with no_grad():
                bootstrap = self.policy.value(observation, env.adjacency_norm).item()
            fragments.append(
                Fragment(
                    transitions=current,
                    stream=len(fragments),
                    done=False,
                    feasible=False,
                    plan_cost=None,
                    capacities=None,
                    final_value=bootstrap,
                )
            )
        batch = RolloutBatch(fragments)
        if telemetry.enabled():
            telemetry.counter("rl.rollouts.fragments", len(fragments))
            telemetry.counter("rl.rollouts.steps", batch.num_steps)
        return batch

    def close(self) -> None:  # symmetry with the pool-backed collector
        pass

    def __enter__(self) -> "SerialAutodiffCollector":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

