"""The actor-critic trainer (Algorithm 1 of the paper).

Per epoch: sample trajectories with the current actor into a rollout
batch; compute the policy-gradient loss from GAE(lambda) advantages and
update the actor (and shared GNN); compute the value loss from
rewards-to-go and update the critic (and shared GNN) -- exactly the
ComputePLoss / ComputeVLoss split of the pseudocode, including the two
optimizers both flowing into theta_g.

The trainer tracks the best feasible plan seen across all sampled
trajectories; that plan is the *first stage* output handed to the ILP.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.errors import ConfigError
from repro.nn import functional as F
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.rl.batched import BatchedForward
from repro.rl.checkpointing import CheckpointingTrainer
from repro.rl.env import PlanningEnv
from repro.rl.gae import discounted_returns, gae_advantages
from repro.rl.policy import ActorCriticPolicy
from repro.rl.rollouts import RolloutBatch, check_parallelism, make_collector
from repro.seeding import as_generator


@dataclass
class A2CConfig:
    """Training hyperparameters (defaults follow Table 2)."""

    epochs: int = 64
    steps_per_epoch: int = 2048
    max_trajectory_length: int = 2048
    actor_lr: float = 3e-4
    critic_lr: float = 1e-3
    gamma: float = 0.99
    gae_lambda: float = 0.97
    entropy_coef: float = 0.01
    max_grad_norm: float = 10.0
    normalize_advantages: bool = True
    patience: int = 0  # early stop after N stagnant epochs (0 = off)
    seed: int = 0
    num_workers: int = 1
    num_envs: int = 1  # lockstep environments per rollout group
    checkpoint_every: int = 0  # write a resume checkpoint every N epochs
    checkpoint_dir: "str | None" = None
    resume_from: "str | None" = None  # checkpoint file or directory

    def __post_init__(self):
        if self.epochs < 1 or self.steps_per_epoch < 1:
            raise ConfigError("epochs and steps_per_epoch must be >= 1")
        if self.max_trajectory_length < 1:
            raise ConfigError("max_trajectory_length must be >= 1")
        check_parallelism(self.num_workers, self.num_envs, self.steps_per_epoch)
        if self.checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be >= 0")
        if self.checkpoint_every and not self.checkpoint_dir:
            raise ConfigError("checkpoint_every needs a checkpoint_dir")


@dataclass
class TrainingResult:
    """What training produced."""

    best_capacities: "dict[str, float] | None"
    best_cost: float
    epochs_run: int
    converged: bool
    history: list[dict] = field(default_factory=list)
    train_seconds: float = 0.0
    already_feasible: bool = False

    @property
    def epoch_rewards(self) -> list[float]:
        return [entry["epoch_reward"] for entry in self.history]


class A2CTrainer(CheckpointingTrainer):
    """Runs Algorithm 1 on a :class:`PlanningEnv`."""

    def __init__(
        self,
        env: PlanningEnv,
        policy: ActorCriticPolicy,
        config: "A2CConfig | None" = None,
    ):
        self.env = env
        self.policy = policy
        self.config = config or A2CConfig()
        groups = policy.parameter_groups()
        self.actor_optimizer = Adam(groups["actor"], lr=self.config.actor_lr)
        self.critic_optimizer = Adam(groups["critic"], lr=self.config.critic_lr)
        self.rng = as_generator(self.config.seed)
        self._collector = None
        self._batched_forward = BatchedForward(policy, env.adjacency_norm)

    # ------------------------------------------------------------------
    def train(self) -> TrainingResult:
        config = self.config
        env = self.env
        start = time.perf_counter()

        env.reset()
        if env.done:
            # The starting topology already satisfies the expectations.
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

    # ------------------------------------------------------------------
    ALGO = "a2c"

    def _optimizers(self) -> dict:
        return {"actor": self.actor_optimizer, "critic": self.critic_optimizer}

    def _train_epochs(self) -> tuple:
        config = self.config
        best_capacities: "dict[str, float] | None" = None
        best_cost = float("inf")
        history: list[dict] = []
        stagnant = 0
        start_epoch = 0

        resume = self._load_resume()
        if resume is not None:
            best_cost = resume.best_cost
            best_capacities = resume.best_capacities
            history = [dict(entry) for entry in resume.history]
            stagnant = resume.stagnant
            start_epoch = resume.epoch

        for epoch in range(start_epoch, config.epochs):
            # A resumed run whose checkpoint already crossed the
            # patience threshold stops exactly where the uninterrupted
            # run's bottom-of-loop break did.
            if config.patience and stagnant >= config.patience:
                break
            batch = self._collector.collect(
                budget=config.steps_per_epoch,
                max_trajectory_length=config.max_trajectory_length,
                epoch=epoch,
            )
            for fragment in batch.fragments:
                if fragment.completed and fragment.plan_cost < best_cost:
                    best_cost = fragment.plan_cost
                    best_capacities = fragment.capacities

            metrics = self._update(batch)
            fragments = batch.fragments
            rewards = [
                sum(t.reward for t in fragment.transitions) for fragment in fragments
            ]
            entry = {
                "epoch": epoch,
                # Mean total reward per trajectory (the Fig. 11/12 y-axis).
                "epoch_reward": float(np.mean(rewards)) if rewards else 0.0,
                "completion_rate": (
                    float(np.mean([f.completed for f in fragments]))
                    if fragments
                    else 0.0
                ),
                "num_trajectories": len(fragments),
                "best_cost": best_cost if best_capacities else None,
                **metrics,
            }
            history.append(entry)
            if telemetry.enabled():
                telemetry.counter("rl.a2c.epochs")
                telemetry.counter("rl.env_steps", batch.num_steps)
                telemetry.counter("rl.episodes", len(fragments))
                telemetry.event("rl.a2c.epoch", **entry)

            # Early stopping on stagnation of the best plan.
            if config.patience:
                improved = entry["best_cost"] is not None and (
                    len(history) < 2
                    or history[-2]["best_cost"] is None
                    or entry["best_cost"] < history[-2]["best_cost"] - 1e-9
                )
                stagnant = 0 if improved else stagnant + 1

            self._write_checkpoint(
                epoch, best_cost, best_capacities, history, stagnant
            )
            if config.patience and stagnant >= config.patience:
                break

        return history, best_cost, best_capacities

    # ------------------------------------------------------------------
    def _update(self, batch: RolloutBatch) -> dict:
        """One ComputePLoss/ComputeVLoss update pair (Algorithm 1).

        Log-probs, entropies and values for every collected transition
        come from a single batched graph forward, at every ``num_envs``.
        """
        config = self.config
        steps = batch.transitions()
        if not steps:
            return {"policy_loss": 0.0, "value_loss": 0.0}

        observations = np.stack([t.observation for t in steps])
        masks = np.stack([t.mask for t in steps])
        actions = np.array([t.action for t in steps], dtype=np.int64)
        log_probs, entropies, values = self._batched_forward.evaluate(
            observations, masks, actions
        )

        advantages = np.zeros(len(steps))
        returns = np.zeros(len(steps))
        for start, end, _done, bootstrap in batch.bounds():
            rewards = np.array([t.reward for t in steps[start:end]])
            trajectory_values = values.data[start:end]
            advantages[start:end] = gae_advantages(
                rewards,
                trajectory_values,
                config.gamma,
                config.gae_lambda,
                bootstrap_value=bootstrap,
            )
            returns[start:end] = discounted_returns(
                rewards, config.gamma, bootstrap_value=bootstrap
            )
        if config.normalize_advantages and len(advantages) > 1:
            advantages = (advantages - advantages.mean()) / (
                advantages.std() + 1e-8
            )

        # -- ComputePLoss: update actor + shared GNN --
        policy_loss = -(log_probs * Tensor(advantages)).mean()
        entropy_bonus = entropies.mean()
        actor_objective = policy_loss - config.entropy_coef * entropy_bonus
        self.actor_optimizer.zero_grad()
        self.critic_optimizer.zero_grad()
        actor_objective.backward()
        self.actor_optimizer.clip_grad_norm(config.max_grad_norm)
        self.actor_optimizer.step()

        # -- ComputeVLoss: update critic + shared GNN --
        value_loss = F.mse_loss(values, returns)
        self.actor_optimizer.zero_grad()
        self.critic_optimizer.zero_grad()
        value_loss.backward()
        self.critic_optimizer.clip_grad_norm(config.max_grad_norm)
        self.critic_optimizer.step()

        return {
            "policy_loss": policy_loss.item(),
            "value_loss": value_loss.item(),
            "entropy": entropy_bonus.item(),
        }
