"""The NeuroPlan RL agent facade: build, train, emit the first-stage plan."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.planning.greedy import GreedyPlanner
from repro.planning.plan import NetworkPlan
from repro.rl.a2c import A2CConfig, A2CTrainer, TrainingResult
from repro.rl.env import PlanningEnv
from repro.rl.policy import ActorCriticPolicy
from repro.topology.instance import PlanningInstance


@dataclass
class AgentConfig:
    """Everything needed to instantiate env + policy + trainer."""

    max_units_per_step: int = 4
    max_steps: int = 1024
    gnn_hidden: int = 64
    gnn_layers: int = 2
    gnn_type: str = "gcn"
    mlp_hidden: tuple = (64, 64)
    feature_set: str = "capacity"
    evaluator_mode: str = "neuroplan"
    a2c: A2CConfig = field(default_factory=A2CConfig)


def greedy_rollout(
    env: PlanningEnv,
    policy: ActorCriticPolicy,
    max_steps: "int | None" = None,
    start_capacities: "dict[str, float] | None" = None,
    act=None,
) -> NetworkPlan:
    """Deterministic rollout with mode actions (policy evaluation).

    Shared by the training agent and the inference-only serving agent so
    a policy restored from a checkpoint provably emits the same plan as
    the live in-memory one (``tests/serve`` pins this round-trip).

    ``start_capacities`` warm-starts the trajectory from a prior plan
    instead of the original network (incremental replanning): with
    demand-independent observations and action masks, a rollout resumed
    from any point on the policy's greedy trajectory continues along the
    exact same path a from-scratch rollout would take.

    ``act`` replaces the per-step ``policy.distribution(...).mode()``
    call with ``act(observation, mask) -> int``.  Every served rollout
    uses this seam to take its mode actions from the grad-free
    :class:`~repro.rl.batched.BatchedPolicyEvaluator`, whose actions are
    bitwise equal to the serial ones: the serving coalescer stacks
    concurrent steps into one batched forward, and solver-farm backends
    call their own evaluator.  ``act=None`` keeps the autodiff forward,
    the independent reference those paths are tested against.
    """
    if start_capacities is None:
        observation = env.reset()
    else:
        observation = env.reset_from(start_capacities)
    limit = max_steps or env.max_steps
    steps = 0
    while not env.done and steps < limit:
        mask = env.action_mask()
        if not mask.any():
            break
        if act is None:
            distribution = policy.distribution(observation, env.adjacency_norm, mask)
            action = distribution.mode()
        else:
            action = int(act(observation, mask))
        step = env.step(action)
        observation = step.observation
        steps += 1
    return NetworkPlan(
        instance_name=env.instance.name,
        capacities=env.capacities(),
        method="rl-rollout",
        metadata={
            "feasible": env.feasible,
            "steps": steps,
            "warm_start": start_capacities is not None,
        },
    )


class NeuroPlanAgent:
    """Train an RL policy on one instance and emit the first-stage plan."""

    def __init__(self, instance: PlanningInstance, config: "AgentConfig | None" = None):
        self.instance = instance
        self.config = config or AgentConfig()
        self.env = PlanningEnv(
            instance,
            max_units_per_step=self.config.max_units_per_step,
            max_steps=self.config.max_steps,
            evaluator_mode=self.config.evaluator_mode,
            feature_set=self.config.feature_set,
        )
        self.policy = ActorCriticPolicy(
            feature_dim=self.env.encoder.feature_dim,
            max_units=self.config.max_units_per_step,
            gnn_hidden=self.config.gnn_hidden,
            gnn_layers=self.config.gnn_layers,
            gnn_type=self.config.gnn_type,
            mlp_hidden=self.config.mlp_hidden,
            rng=self.config.a2c.seed,
        )
        self.trainer = A2CTrainer(self.env, self.policy, self.config.a2c)
        self.training_result: "TrainingResult | None" = None

    # ------------------------------------------------------------------
    def train(self) -> TrainingResult:
        """Run Algorithm 1; keep the result for first_stage_plan()."""
        self.training_result = self.trainer.train()
        return self.training_result

    def first_stage_plan(self) -> NetworkPlan:
        """The best feasible plan sampled during training.

        Falls back to the greedy plan when training never reached a
        feasible topology (possible with tiny epoch budgets); the
        fallback is recorded in the plan metadata so experiments can
        report it honestly.
        """
        if self.training_result is None:
            raise ConfigError("call train() before first_stage_plan()")
        result = self.training_result
        if result.best_capacities is not None:
            return NetworkPlan(
                instance_name=self.instance.name,
                capacities=result.best_capacities,
                method="rl-first-stage",
                solve_seconds=result.train_seconds,
                metadata={
                    "epochs_run": result.epochs_run,
                    "best_cost": result.best_cost,
                    "already_feasible": result.already_feasible,
                    "fallback": False,
                },
            )
        greedy = GreedyPlanner().plan(self.instance)
        return NetworkPlan(
            instance_name=self.instance.name,
            capacities=greedy.capacities,
            method="rl-first-stage",
            solve_seconds=result.train_seconds,
            metadata={"epochs_run": result.epochs_run, "fallback": True},
        )

    def save_policy(self, path) -> None:
        """Checkpoint the actor-critic parameters to an ``.npz`` file."""
        from repro.nn.serialization import save_state_dict

        save_state_dict(self.policy, path)

    def load_policy(self, path) -> None:
        """Restore parameters saved by :meth:`save_policy`.

        The architecture (GNN depth/width, MLP sizes, max units) must
        match the one this agent was constructed with.
        """
        from repro.nn.serialization import load_state_dict

        load_state_dict(self.policy, path)

    def greedy_rollout(self, max_steps: "int | None" = None) -> NetworkPlan:
        """Deterministic rollout with mode actions (policy evaluation)."""
        return greedy_rollout(
            self.env, self.policy, max_steps or self.config.max_steps
        )
