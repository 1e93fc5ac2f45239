"""Rollout collection: the trajectory data model and the collector factory.

Training wall-clock is dominated by trajectory collection -- every
``PlanningEnv.step`` runs the stateful failure checker over all
scenarios -- so this module factors collection out of the trainers
behind one small API (``collect(budget, max_trajectory_length, epoch)``
and ``close()``).  Gathering trajectories from many environment
replicas at once is the actor-parallelism standard in
DRL-for-networking systems, and the premise of the paper's Fig. 9
scalability story.

Determinism contract
--------------------
Two collectors with two distinct, documented guarantees:

:class:`SerialRolloutCollector`
    Reproduces the legacy in-process loop exactly: one environment, one
    continuous RNG stream (the trainer's), trajectories collected back
    to back until the step budget is consumed.  Trainers at
    ``num_workers=1, num_envs=1`` (the default) use it, so their results
    are byte-identical to the pre-subsystem trainers.

:class:`~repro.rl.batched.BatchedRolloutCollector`
    Every other ``(num_workers, num_envs)``.  Trajectory ``s`` of epoch
    ``e`` draws its actions from a dedicated RNG stream derived from
    ``(seed, e, s)`` (see :func:`repro.seeding.stream_generator`), and
    ``PlanningEnv.reset`` is deterministic, so a trajectory's content is
    a pure function of ``(policy parameters, seed, e, s)``.  Streams run
    in groups of ``num_envs`` lockstep environments, in process or on a
    pool of ``num_workers`` processes, and fragments are merged in
    stream order, so the merged batch is **bitwise identical for any
    worker count and any num_envs** and invariant to OS scheduling.  The
    last fragment is cut at the step budget and bootstrapped with the
    critic value already computed for the next state; speculative work
    past the budget is discarded (and counted in telemetry).

The two contracts cannot coincide: the serial stream threads one RNG
through data-dependent trajectory lengths, which has no
order-independent parallel equivalent.  :func:`make_collector` therefore
picks the serial collector at ``(1, 1)`` and the batched one otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.errors import ConfigError
from repro.nn.tensor import no_grad
from repro.rl.env import PlanningEnv
from repro.rl.policy import ActorCriticPolicy


# ----------------------------------------------------------------------
# Data model
# ----------------------------------------------------------------------
@dataclass
class Transition:
    """One environment step retained for the policy update."""

    observation: np.ndarray
    mask: np.ndarray
    action: int
    reward: float
    value: float
    log_prob: float


@dataclass
class Fragment:
    """One trajectory (possibly cut at the epoch's step budget).

    ``done`` means the trajectory genuinely ended (feasible plan, the
    environment's step limit, or the trainer's ``max_trajectory_length``)
    rather than being cut at the budget boundary; only cut fragments
    carry a non-zero ``final_value`` bootstrap.
    """

    transitions: list[Transition]
    stream: int  # trajectory index within the epoch (merge key)
    done: bool
    feasible: bool
    plan_cost: "float | None"
    capacities: "dict[str, float] | None"
    final_value: float  # critic estimate of the state after the last step

    def __len__(self) -> int:
        return len(self.transitions)

    @property
    def completed(self) -> bool:
        """Reached a feasible plan (the Fig. 11/12 completion metric)."""
        return self.done and self.feasible


@dataclass
class RolloutBatch:
    """Merged fragments of one collection round, in stream order."""

    fragments: list[Fragment] = field(default_factory=list)

    @property
    def num_steps(self) -> int:
        return sum(len(f) for f in self.fragments)

    def transitions(self) -> list[Transition]:
        """All transitions, concatenated in fragment order."""
        flat: list[Transition] = []
        for fragment in self.fragments:
            flat.extend(fragment.transitions)
        return flat

    def bounds(self) -> list[tuple[int, int, bool, float]]:
        """Per-fragment ``(start, end, done, bootstrap)`` over the flat list."""
        out: list[tuple[int, int, bool, float]] = []
        start = 0
        for fragment in self.fragments:
            end = start + len(fragment)
            out.append((start, end, fragment.done, fragment.final_value))
            start = end
        return out

    def completion(self) -> dict:
        """Epoch completion summary (rate, best feasible cost and plan)."""
        best_cost = float("inf")
        best_capacities = None
        completions = 0
        for fragment in self.fragments:
            if fragment.completed:
                completions += 1
                if fragment.plan_cost is not None and fragment.plan_cost < best_cost:
                    best_cost = fragment.plan_cost
                    best_capacities = fragment.capacities
        return {
            "rate": completions / max(1, len(self.fragments)),
            "best_cost": best_cost,
            "best_capacities": best_capacities,
        }


def merge_fragments(fragments: list[Fragment], budget: int) -> RolloutBatch:
    """Keep fragments in stream order up to ``budget`` steps.

    The overflowing fragment is cut at the boundary and bootstrapped
    with the collector's critic estimate of the first dropped state;
    later fragments (speculative round overshoot) are discarded.  The
    merged batch therefore depends only on the ordered fragment stream,
    never on the worker count or group width that produced it.
    """
    kept: list[Fragment] = []
    total = 0
    for fragment in fragments:
        if total >= budget:
            break
        if len(fragment) == 0:
            continue
        room = budget - total
        if len(fragment) <= room:
            kept.append(fragment)
            total += len(fragment)
        else:
            cut = fragment.transitions[:room]
            bootstrap = fragment.transitions[room].value
            kept.append(
                Fragment(
                    transitions=cut,
                    stream=fragment.stream,
                    done=False,
                    feasible=False,
                    plan_cost=None,
                    capacities=None,
                    final_value=bootstrap,
                )
            )
            total = budget
    return RolloutBatch(kept)


# ----------------------------------------------------------------------
# Serial collector (legacy loop, byte-identical)
# ----------------------------------------------------------------------
class SerialRolloutCollector:
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

    def __enter__(self) -> "SerialRolloutCollector":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False


# ----------------------------------------------------------------------
def check_parallelism(
    num_workers: int, num_envs: int, steps_per_epoch: "int | None" = None
) -> None:
    """Reject worker or environment counts a collection round cannot use.

    Both must be at least one; with ``steps_per_epoch`` given, neither
    may exceed it, since a budget of that many steps holds at most that
    many one-step trajectories.
    """
    for name, count in (("num_workers", num_workers), ("num_envs", num_envs)):
        if count < 1:
            raise ConfigError(f"{name} must be >= 1")
        if steps_per_epoch is not None and count > steps_per_epoch:
            raise ConfigError(
                f"{name}={count} exceeds the available trajectories per "
                f"epoch (steps_per_epoch={steps_per_epoch})"
            )


def make_collector(
    env: PlanningEnv,
    policy: ActorCriticPolicy,
    rng: np.random.Generator,
    *,
    num_workers: int = 1,
    num_envs: int = 1,
    seed: int = 0,
):
    """The collector for ``(num_workers, num_envs)``.

    ``(1, 1)`` is the serial collector on ``rng``; anything else is the
    batched collector, whose groups are single streams at
    ``num_envs=1`` and whose pool spreads them over ``num_workers``
    processes.  Its constructor rejects counts below one.
    """
    if num_workers == 1 and num_envs == 1:
        return SerialRolloutCollector(env, policy, rng)
    from repro.rl.batched import BatchedRolloutCollector

    return BatchedRolloutCollector(
        env, policy, num_envs=num_envs, num_workers=num_workers, seed=seed
    )
