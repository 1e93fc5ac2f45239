"""A leasable planning backend: policy + env + persistent warm-basis LP.

One backend is everything needed to turn demands into a first-stage
plan for one model signature: the loaded policy (shared, read-only),
a grad-free :class:`BatchedPolicyEvaluator` over the env's adjacency
that picks every rollout step's mode action, a private
:class:`PlanningEnv` whose compiled feasibility LP rides the persistent
warm-basis HiGHS backend, and the drift bookkeeping that lets the farm
retarget the LP's demand bounds in place instead of rebuilding it per
request.

Construction goes through the serving registry so the expensive bits
are paid once per signature: the checkpoint load/validation and the
reward-scale probe happen in :meth:`PolicyRegistry.agent`; extra pool
backends reuse that policy and stamp out fresh envs from
``replica_kwargs()`` (resolved reward scale included, so no second
greedy probe).
"""

from __future__ import annotations

from dataclasses import replace

from repro import telemetry
from repro.planning.plan import NetworkPlan
from repro.rl.agent import greedy_rollout
from repro.rl.batched import BatchedPolicyEvaluator
from repro.rl.env import PlanningEnv
from repro.serve.registry import ModelKey, ModelRecord, PolicyRegistry
from repro.solverfarm.replan import BASELINE_FP
from repro.topology.instance import PlanningInstance
from repro.topology.traffic import TrafficMatrix


class PlanningBackend:
    """One leased unit of planning capacity for a model signature."""

    def __init__(
        self,
        instance: PlanningInstance,
        policy,
        env: PlanningEnv,
        record: ModelRecord,
        signature: tuple,
    ):
        self.baseline_instance = instance
        self.baseline_traffic = instance.traffic
        self.policy = policy
        self.env = env
        # Demand drift retargets only the LP; the adjacency is fixed.
        self.policy_evaluator = BatchedPolicyEvaluator(
            policy, env.adjacency_norm, env.sparse_adjacency
        )
        self.record = record
        self.signature = signature
        self.current_fp = BASELINE_FP

    # ------------------------------------------------------------------
    @property
    def instance(self) -> PlanningInstance:
        """The instance at the backend's *current* demand target."""
        return self.env.instance

    @property
    def lp_solves(self) -> int:
        return self.env.evaluator.lp_solves

    def ensure_demands(self, traffic: "TrafficMatrix | None", fp: str) -> int:
        """Point the compiled LP at ``traffic`` (``None`` = baseline).

        No-op when the backend already targets the same fingerprint —
        the common case for a drift stream replayed against one leased
        backend.  Returns the number of flow demands changed.
        """
        if fp == self.current_fp:
            return 0
        target = traffic if traffic is not None else self.baseline_traffic
        changed = self.env.retarget_demands(target)
        self.current_fp = fp
        return changed

    def rollout(
        self,
        max_steps: "int | None" = None,
        start_capacities: "dict[str, float] | None" = None,
    ) -> NetworkPlan:
        return greedy_rollout(
            self.env,
            self.policy,
            max_steps,
            start_capacities=start_capacities,
            act=self.policy_evaluator.mode_action,
        )

    def instance_for(self, traffic: "TrafficMatrix | None") -> PlanningInstance:
        """A standalone instance at ``traffic`` (for the second-stage ILP)."""
        if traffic is None:
            return self.baseline_instance
        return replace(self.baseline_instance, traffic=traffic)

    def close(self) -> None:
        close = getattr(self.env.evaluator, "close", None)
        if callable(close):
            close()


def build_backend(
    registry: PolicyRegistry,
    key: ModelKey,
    seed: int,
    version: "int | str",
) -> PlanningBackend:
    """Build a pool backend, reusing the registry's loaded policy."""
    agent, record = registry.agent(key, seed=seed, version=version)
    env = PlanningEnv(agent.instance, **agent.env.replica_kwargs())
    telemetry.counter("solverfarm.pool.builds")
    signature = (key.dirname(), record.version, int(seed))
    return PlanningBackend(agent.instance, agent.policy, env, record, signature)
