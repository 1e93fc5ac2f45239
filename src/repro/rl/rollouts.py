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
One collector, :class:`~repro.rl.batched.BatchedRolloutCollector`,
with two seeding contracts, each a distinct documented guarantee:

The serial stream, ``(num_workers, num_envs) == (1, 1)`` (the default)
    :func:`make_collector` hands the collector the trainer's generator.
    Trajectories draw from it back to back, in the order the legacy
    in-process loop did (mask, forward, sample, step), and the stream
    continues across epochs and through checkpoint resume.  A round
    stops at exactly the step budget; a trajectory cut there, or out
    of spectrum, ends un-done with the critic value of its next state
    and ends the round.  Results are byte-identical to the legacy
    autodiff loop (``tests/rl/test_rollouts.py`` keeps it as a frozen
    oracle).

Per-stream seeds, every other ``(num_workers, num_envs)``
    Trajectory ``s`` of epoch ``e`` draws its actions from a dedicated
    RNG stream derived from ``(seed, e, s)`` (see
    :func:`repro.seeding.stream_generator`), and ``PlanningEnv.reset``
    is deterministic, so a trajectory's content is a pure function of
    ``(policy parameters, seed, e, s)``.  Streams run in groups of
    ``num_envs`` lockstep environments, in process or on a pool of
    ``num_workers`` processes, and fragments are merged in stream
    order, so the merged batch is **bitwise identical for any worker
    count and any num_envs** and invariant to OS scheduling.  The last
    fragment is cut at the step budget and bootstrapped with the critic
    value already computed for the next state; speculative work past
    the budget is discarded (and counted in telemetry).

The two contracts cannot coincide: the serial stream threads one RNG
through data-dependent trajectory lengths, which has no
order-independent parallel equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
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

    Always the batched collector: its groups are single streams at
    ``num_envs=1``, its pool spreads them over ``num_workers``
    processes, and at ``(1, 1)`` it runs the serial stream on ``rng``.
    Its constructor rejects counts below one.
    """
    from repro.rl.batched import BatchedRolloutCollector

    serial = (num_workers, num_envs) == (1, 1)
    return BatchedRolloutCollector(
        env,
        policy,
        num_envs=num_envs,
        num_workers=num_workers,
        seed=seed,
        rng=rng if serial else None,
    )
