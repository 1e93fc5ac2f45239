"""PPO trainer: a drop-in alternative to the A2C trainer.

The paper builds on SpinningUp, whose flagship algorithms are VPG/A2C
and PPO.  NeuroPlan uses the actor-critic update of Algorithm 1; this
module provides the PPO-clip variant as a documented extension -- same
environment, same policy network, same GAE machinery, but the actor
update maximizes the clipped surrogate over several minibatch epochs,
which tolerates larger steps from the same samples.

Differences from :class:`repro.rl.a2c.A2CTrainer`:

- per-step states and actions are retained so the policy can be
  re-evaluated under new parameters (the ratio
  ``pi_new(a|s) / pi_old(a|s)``);
- the actor/critic heads and the shared GNN update together per PPO
  epoch (one optimizer), with early stopping on a KL estimate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.errors import ConfigError
from repro.nn import functional as F
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.rl.a2c import TrainingResult
from repro.rl.batched import BatchedForward
from repro.rl.checkpointing import CheckpointingTrainer
from repro.rl.env import PlanningEnv
from repro.rl.gae import discounted_returns, gae_advantages
from repro.rl.policy import ActorCriticPolicy
from repro.rl.rollouts import check_parallelism, make_collector
from repro.seeding import as_generator


@dataclass
class PPOConfig:
    """PPO hyperparameters (SpinningUp-style defaults)."""

    epochs: int = 32
    steps_per_epoch: int = 1024
    max_trajectory_length: int = 512
    lr: float = 3e-4
    gamma: float = 0.99
    gae_lambda: float = 0.97
    clip_ratio: float = 0.2
    update_iterations: int = 4
    target_kl: float = 0.02
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    max_grad_norm: float = 10.0
    seed: int = 0
    num_workers: int = 1
    num_envs: int = 1  # lockstep environments per rollout group
    checkpoint_every: int = 0  # write a resume checkpoint every N epochs
    checkpoint_dir: "str | None" = None
    resume_from: "str | None" = None  # checkpoint file or directory

    def __post_init__(self):
        if self.epochs < 1 or self.steps_per_epoch < 1:
            raise ConfigError("epochs and steps_per_epoch must be >= 1")
        if not 0.0 < self.clip_ratio < 1.0:
            raise ConfigError("clip_ratio must be in (0, 1)")
        if self.update_iterations < 1:
            raise ConfigError("update_iterations must be >= 1")
        check_parallelism(self.num_workers, self.num_envs, self.steps_per_epoch)
        if self.checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be >= 0")
        if self.checkpoint_every and not self.checkpoint_dir:
            raise ConfigError("checkpoint_every needs a checkpoint_dir")


class PPOTrainer(CheckpointingTrainer):
    """Proximal policy optimization over a :class:`PlanningEnv`."""

    ALGO = "ppo"

    def __init__(
        self,
        env: PlanningEnv,
        policy: ActorCriticPolicy,
        config: "PPOConfig | None" = None,
    ):
        self.env = env
        self.policy = policy
        self.config = config or PPOConfig()
        # Deduplicate shared GNN parameters by identity (one optimizer
        # covers actor, critic and the shared encoder).
        seen: dict[int, object] = {}
        for group in policy.parameter_groups().values():
            for param in group:
                seen.setdefault(id(param), param)
        self.optimizer = Adam(list(seen.values()), lr=self.config.lr)
        self.rng = as_generator(self.config.seed)
        self._collector = None
        self._batched_forward = BatchedForward(policy, env.adjacency_norm)

    def _optimizers(self) -> dict:
        return {"optimizer": self.optimizer}

    # ------------------------------------------------------------------
    def train(self) -> TrainingResult:
        config = self.config
        env = self.env
        start = time.perf_counter()

        env.reset()
        if env.done:
            return TrainingResult(
                best_capacities=env.capacities(),
                best_cost=env.plan_cost(),
                epochs_run=0,
                converged=True,
                already_feasible=True,
                train_seconds=time.perf_counter() - start,
            )

        self._collector = make_collector(
            env,
            self.policy,
            self.rng,
            num_workers=config.num_workers,
            num_envs=config.num_envs,
            seed=config.seed,
        )
        try:
            history, best_cost, best_capacities = self._train_epochs()
        finally:
            self._collector.close()
            self._collector = None

        return TrainingResult(
            best_capacities=best_capacities,
            best_cost=best_cost,
            epochs_run=len(history),
            converged=best_capacities is not None,
            history=history,
            train_seconds=time.perf_counter() - start,
        )

    def _train_epochs(self) -> tuple:
        config = self.config
        best_capacities = None
        best_cost = float("inf")
        history: list[dict] = []
        start_epoch = 0

        resume = self._load_resume()
        if resume is not None:
            best_cost = resume.best_cost
            best_capacities = resume.best_capacities
            history = [dict(entry) for entry in resume.history]
            start_epoch = resume.epoch

        for epoch in range(start_epoch, config.epochs):
            steps, trajectory_bounds, completion = self._collect(epoch)
            if not steps:
                break
            advantages, returns = self._estimate(steps, trajectory_bounds)
            metrics = self._update(steps, advantages, returns)

            epoch_reward = float(
                np.sum([s.reward for s in steps]) / max(1, len(trajectory_bounds))
            )
            if completion["best_cost"] < best_cost:
                best_cost = completion["best_cost"]
                best_capacities = completion["best_capacities"]
            entry = {
                "epoch": epoch,
                "epoch_reward": epoch_reward,
                "completion_rate": completion["rate"],
                "num_trajectories": len(trajectory_bounds),
                "best_cost": best_cost if best_capacities else None,
                **metrics,
            }
            history.append(entry)
            if telemetry.enabled():
                telemetry.counter("rl.ppo.epochs")
                telemetry.counter("rl.env_steps", len(steps))
                telemetry.counter("rl.episodes", len(trajectory_bounds))
                telemetry.event("rl.ppo.epoch", **entry)
            self._write_checkpoint(epoch, best_cost, best_capacities, history)

        return history, best_cost, best_capacities

    # ------------------------------------------------------------------
    def _collect(self, epoch: int):
        """Roll out one epoch of transitions via the configured collector."""
        config = self.config
        batch = self._collector.collect(
            budget=config.steps_per_epoch,
            max_trajectory_length=config.max_trajectory_length,
            epoch=epoch,
        )
        return batch.transitions(), batch.bounds(), batch.completion()

    def _estimate(self, steps, bounds):
        """Per-step GAE advantages and returns across trajectories."""
        config = self.config
        advantages = np.zeros(len(steps))
        returns = np.zeros(len(steps))
        for start, end, _done, bootstrap in bounds:
            rewards = np.array([s.reward for s in steps[start:end]])
            values = np.array([s.value for s in steps[start:end]])
            advantages[start:end] = gae_advantages(
                rewards, values, config.gamma, config.gae_lambda,
                bootstrap_value=bootstrap,
            )
            returns[start:end] = discounted_returns(
                rewards, config.gamma, bootstrap_value=bootstrap
            )
        if len(advantages) > 1:
            advantages = (advantages - advantages.mean()) / (
                advantages.std() + 1e-8
            )
        return advantages, returns

    def _update(self, steps, advantages, returns) -> dict:
        """Clipped-surrogate updates with KL early stopping.

        Each iteration re-evaluates every transition under the current
        parameters as one batched graph forward.
        """
        config = self.config
        observations = np.stack([s.observation for s in steps])
        masks = np.stack([s.mask for s in steps])
        actions = np.array([s.action for s in steps], dtype=np.int64)
        old_log_probs = np.array([s.log_prob for s in steps])
        last_policy_loss = 0.0
        last_value_loss = 0.0
        kl = 0.0
        for iteration in range(config.update_iterations):
            log_probs_t, entropies_t, values_t = self._batched_forward.evaluate(
                observations, masks, actions
            )

            kl = float(np.mean(old_log_probs - log_probs_t.data))
            if iteration > 0 and kl > config.target_kl:
                break

            ratio = (log_probs_t - Tensor(old_log_probs)).exp()
            adv = Tensor(advantages)
            unclipped = ratio * adv
            clip_low = 1.0 - config.clip_ratio
            clip_high = 1.0 + config.clip_ratio
            clipped_ratio = Tensor.where(
                ratio.data < clip_low,
                Tensor(np.full(ratio.shape, clip_low)),
                Tensor.where(
                    ratio.data > clip_high,
                    Tensor(np.full(ratio.shape, clip_high)),
                    ratio,
                ),
            )
            clipped = clipped_ratio * adv
            surrogate = Tensor.where(
                unclipped.data < clipped.data, unclipped, clipped
            )
            policy_loss = -surrogate.mean()
            value_loss = F.mse_loss(values_t, returns)
            entropy_bonus = entropies_t.mean()
            loss = (
                policy_loss
                + config.value_coef * value_loss
                - config.entropy_coef * entropy_bonus
            )
            self.optimizer.zero_grad()
            loss.backward()
            self.optimizer.clip_grad_norm(config.max_grad_norm)
            self.optimizer.step()
            last_policy_loss = policy_loss.item()
            last_value_loss = value_loss.item()
        return {
            "policy_loss": last_policy_loss,
            "value_loss": last_value_loss,
            "approx_kl": kl,
        }
