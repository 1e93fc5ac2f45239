"""Deep RL for network planning (Section 4.2, Algorithm 1).

- :mod:`repro.rl.env` -- the planning environment: states are
  node-link-transformed topologies, actions add capacity units to an IP
  link (spectrum-masked), rewards are scaled negative incremental costs.
- :mod:`repro.rl.state` -- feature extraction + normalization.
- :mod:`repro.rl.policy` -- the GCN/GAT encoder with actor and critic
  heads (Fig. 6).
- :mod:`repro.rl.gae` -- GAE(lambda) advantages (Eq. 6) and
  rewards-to-go.
- :mod:`repro.rl.rollouts` -- the trajectory data model and the
  collector factory.
- :mod:`repro.rl.batched` -- the one rollout collector (``num_envs``
  lockstep environments share one grad-free policy forward, groups
  spread over ``num_workers`` processes) and the batched training
  forward every update differentiates.  At ``(1, 1)`` it replays the
  trainer's serial RNG stream byte for byte; otherwise merged batches
  are bitwise independent of ``num_envs``, worker count and
  scheduling.
- :mod:`repro.rl.a2c` -- the actor-critic trainer.
- :mod:`repro.rl.agent` -- the train/rollout facade that produces the
  first-stage plan.
"""

from repro.rl.env import PlanningEnv, StepResult
from repro.rl.state import StateEncoder
from repro.rl.policy import ActorCriticPolicy
from repro.rl.gae import discounted_returns, gae_advantages
from repro.rl.rollouts import (
    Fragment,
    RolloutBatch,
    Transition,
    make_collector,
    merge_fragments,
)
from repro.rl.batched import (
    BatchedForward,
    BatchedPlanningEnv,
    BatchedPolicyEvaluator,
    BatchedRolloutCollector,
)
from repro.rl.a2c import A2CConfig, A2CTrainer, TrainingResult
from repro.rl.ppo import PPOConfig, PPOTrainer
from repro.rl.agent import NeuroPlanAgent

__all__ = [
    "BatchedForward",
    "BatchedPlanningEnv",
    "BatchedPolicyEvaluator",
    "BatchedRolloutCollector",
    "Fragment",
    "merge_fragments",
    "RolloutBatch",
    "Transition",
    "make_collector",
    "PlanningEnv",
    "StepResult",
    "StateEncoder",
    "ActorCriticPolicy",
    "gae_advantages",
    "discounted_returns",
    "A2CConfig",
    "A2CTrainer",
    "TrainingResult",
    "PPOConfig",
    "PPOTrainer",
    "NeuroPlanAgent",
]
