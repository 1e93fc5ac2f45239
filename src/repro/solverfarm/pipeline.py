"""The async staged planning pipeline (rollout -> check -> polish).

One plan request used to run rollout, feasibility verdict and the
budgeted second-stage ILP serially inside a single worker thread.  The
farm decomposes the request into three stages connected by bounded
per-priority queues:

- **rollout** — lease a warm backend from the :class:`BackendPool`,
  retarget its compiled LP at the request's (possibly drifted) demand
  matrix, and run the greedy rollout (warm-started from the prior plan
  for growth replans);
- **check** — settle the canonical-plan feasibility verdict through
  the solver-layer cache;
- **polish** — the optional budgeted second-stage ILP, then response
  assembly.

Backpressure and fairness: admission into the first stage is
non-blocking (a full queue raises a typed :class:`Overloaded`), while
inter-stage handoffs *block*, so a slow polish stage backs up through
check into rollout instead of queueing unboundedly.  Each stage drains
its queue with weighted round-robin across the request priority
classes (interactive > normal > background), so a batch drift stream
cannot starve interactive requests.

Fault sites (``NEUROPLAN_FAULTS``):

- ``solverfarm.stage.crash`` (keyed by stage name) — raises an
  :class:`InjectedFault` at stage entry; the stage worker survives,
  the request's future gets the typed error, and any held lease is
  released via the pool's discard path.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from concurrent.futures import Future

from repro import telemetry
from repro.core.neuroplan import NeuroPlan, NeuroPlanConfig
from repro.errors import DeadlineExceeded, Overloaded
from repro.planning.plan import NetworkPlan
from repro.resilience import faults
from repro.serve.registry import PolicyRegistry
from repro.solverfarm.backend import build_backend
from repro.solverfarm.cache import (
    SolverResultCache,
    feasibility_key,
    polish_key,
    rollout_key,
)
from repro.solverfarm.pool import BackendPool
from repro.solverfarm.replan import (
    BASELINE_FP,
    demand_fingerprint,
    drift_traffic,
    is_growth,
    validate_prior_plan,
)

_PRIORITY_WEIGHTS = {0: 4, 1: 2, 2: 1}
_STAGES = ("rollout", "check", "polish")


@dataclass
class FarmConfig:
    """Knobs for one :class:`SolverFarm` (kept JSON/asdict-friendly so
    the supervisor can ship it to replica processes verbatim)."""

    rollout_workers: int = 2
    check_workers: int = 1
    polish_workers: int = 1
    queue_depth: int = 16
    backends: int = 2  # pool capacity per model signature
    solver_cache_size: int = 256
    lease_wait_s: float = 30.0
    stall_timeout_s: float = 120.0


@dataclass
class FarmJob:
    """One request's mutable state as it moves through the stages."""

    request: object  # PlanRequest | ReplanRequest
    record: object
    signature: tuple
    future: Future
    admitted_at: float
    shed: "str | None" = None
    cache_key: "str | None" = None  # request-layer response cache key
    # Filled by the rollout stage:
    demand_fp: str = BASELINE_FP
    traffic: object = None  # materialized drifted TrafficMatrix | None
    warm_start: bool = False
    prior_verified: bool = False
    is_replan: bool = False
    plan_capacities: dict = field(default_factory=dict)
    plan_method: str = "rl-rollout"
    plan_metadata: dict = field(default_factory=dict)
    feasible: bool = False
    rollout_s: float = 0.0
    queue_s: float = 0.0
    lp_solves: int = 0
    rollout_cached: bool = False
    # Filled by the check stage:
    verdict_cached: bool = False
    # Filled by the polish stage:
    ilp_s: float = 0.0
    second_stage_status: "str | None" = None
    polish_cached: bool = False


class _FairQueue:
    """Bounded queue with weighted round-robin across priority classes."""

    def __init__(self, maxsize: int, name: str):
        self.maxsize = maxsize
        self.name = name
        self._lanes = {p: deque() for p in sorted(_PRIORITY_WEIGHTS)}
        self._cond = threading.Condition()
        self._size = 0
        self._closed = False
        self._cursor = 0  # index into the priority cycle
        self._credit = 0  # items left in the current lane's turn

    def put(self, item, priority: int, block: bool = True) -> None:
        priority = priority if priority in self._lanes else 1
        with self._cond:
            while self._size >= self.maxsize and not self._closed:
                if not block:
                    telemetry.counter(f"solverfarm.stage.{self.name}.rejected")
                    raise Overloaded(
                        f"solver-farm {self.name} queue is full "
                        f"({self.maxsize} deep); retry later"
                    )
                self._cond.wait(0.5)
            if self._closed:
                raise Overloaded("solver farm is draining")
            self._lanes[priority].append(item)
            self._size += 1
            telemetry.gauge(
                f"solverfarm.stage.{self.name}.queue_depth", self._size
            )
            self._cond.notify_all()

    def get(self):
        """Next item by weighted round-robin; ``None`` once drained."""
        with self._cond:
            while True:
                if self._size:
                    item = self._pick_locked()
                    self._size -= 1
                    telemetry.gauge(
                        f"solverfarm.stage.{self.name}.queue_depth", self._size
                    )
                    self._cond.notify_all()
                    return item
                if self._closed:
                    return None
                self._cond.wait(0.5)

    def _pick_locked(self):
        priorities = sorted(self._lanes)
        for _ in range(2 * len(priorities)):
            lane = self._lanes[priorities[self._cursor]]
            weight = _PRIORITY_WEIGHTS[priorities[self._cursor]]
            if lane and self._credit < weight:
                self._credit += 1
                return lane.popleft()
            self._cursor = (self._cursor + 1) % len(priorities)
            self._credit = 0
        # All lanes either empty or out of credit: take the first
        # non-empty lane in priority order (size > 0 guarantees one).
        for priority in priorities:
            if self._lanes[priority]:
                return self._lanes[priority].popleft()
        raise RuntimeError("fair queue size out of sync")  # pragma: no cover

    def depth(self) -> int:
        with self._cond:
            return self._size

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()


class SolverFarm:
    """Staged pipeline + backend pool + solver cache behind ``submit``."""

    def __init__(
        self,
        registry: PolicyRegistry,
        config: "FarmConfig | None" = None,
        service_config=None,
        response_cache=None,
    ):
        self.registry = registry
        self.config = config or FarmConfig()
        self.service_config = service_config
        self.response_cache = response_cache
        self.cache = SolverResultCache(self.config.solver_cache_size)
        self._signature_specs: dict[tuple, tuple] = {}
        self.pool = BackendPool(
            self._build_backend,
            capacity=self.config.backends,
            lease_wait_s=self.config.lease_wait_s,
            stall_timeout_s=self.config.stall_timeout_s,
        )
        self._queues = {
            name: _FairQueue(self.config.queue_depth, name) for name in _STAGES
        }
        # Per-stage job ordinals for the crash fault site's attempt
        # number, so ``solverfarm.stage.crash@rollout#N`` kills exactly
        # the first N jobs entering that stage.
        self._stage_attempts = {name: itertools.count() for name in _STAGES}
        self._closed = False
        self._threads: list[threading.Thread] = []
        stage_workers = {
            "rollout": self.config.rollout_workers,
            "check": self.config.check_workers,
            "polish": self.config.polish_workers,
        }
        stage_fns = {
            "rollout": self._stage_rollout,
            "check": self._stage_check,
            "polish": self._stage_polish,
        }
        for name in _STAGES:
            for index in range(max(1, stage_workers[name])):
                thread = threading.Thread(
                    target=self._worker,
                    args=(name, stage_fns[name]),
                    name=f"solverfarm-{name}-{index}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, job: FarmJob) -> Future:
        """Admit a job into the rollout stage (non-blocking, typed)."""
        if self._closed:
            raise Overloaded("solver farm is draining")
        self._signature_specs.setdefault(
            job.signature,
            (
                job.request.model_key(),
                int(job.request.seed),
                job.record.version,
            ),
        )
        telemetry.counter("solverfarm.requests")
        self._queues["rollout"].put(
            job, priority=job.request.priority, block=False
        )
        return job.future

    # ------------------------------------------------------------------
    # Stage workers
    # ------------------------------------------------------------------
    def _worker(self, name: str, stage_fn) -> None:
        queue = self._queues[name]
        while True:
            job = queue.get()
            if job is None:
                return
            if job.future.cancelled():
                continue
            try:
                faults.maybe_fail(
                    "solverfarm.stage.crash",
                    key=name,
                    attempt=next(self._stage_attempts[name]),
                )
                self._check_deadline(job, name)
                stage_fn(job)
            except Exception as exc:
                telemetry.counter(f"solverfarm.stage.{name}.errors")
                job.future.set_exception(exc)
                continue
            next_index = _STAGES.index(name) + 1
            if next_index < len(_STAGES):
                # Blocking handoff: backpressure propagates upstream.
                self._queues[_STAGES[next_index]].put(
                    job, priority=job.request.priority, block=True
                )

    def _check_deadline(self, job: FarmJob, stage: str) -> None:
        deadline = job.request.deadline_s
        if deadline is None:
            return
        elapsed = time.perf_counter() - job.admitted_at
        if elapsed >= deadline:
            telemetry.counter("serve.deadline_exceeded")
            raise DeadlineExceeded(
                f"request spent {elapsed:.3f}s before the {stage} stage, "
                f"past its {deadline}s deadline"
            )

    # ------------------------------------------------------------------
    def _build_backend(self, signature: tuple):
        key, seed, version = self._signature_specs[signature]
        return build_backend(self.registry, key, seed, version)

    def _baseline_traffic(self, job: FarmJob):
        key, seed, version = self._signature_specs[job.signature]
        agent, _ = self.registry.agent(key, seed=seed, version=version)
        return agent.instance.traffic

    def _max_steps(self):
        return getattr(self.service_config, "rollout_max_steps", None)

    # ------------------------------------------------------------------
    def _stage_rollout(self, job: FarmJob) -> None:
        job.queue_s = time.perf_counter() - job.admitted_at
        baseline = self._baseline_traffic(job)
        request = job.request
        prior_capacities = None
        if job.is_replan:
            job.traffic = drift_traffic(baseline, request.demands)
            if job.traffic is baseline:
                job.traffic = None
            job.demand_fp = demand_fingerprint(
                baseline, job.traffic if job.traffic is not None else baseline
            )
            if request.prior_plan is not None:
                key, _, _ = self._signature_specs[job.signature]
                agent, _ = self.registry.agent(
                    key,
                    seed=int(request.seed),
                    version=job.record.version,
                )
                prior_capacities = validate_prior_plan(
                    agent.instance, request.prior_plan
                )
                prior_traffic = drift_traffic(baseline, request.prior_demands)
                target = job.traffic if job.traffic is not None else baseline
                if is_growth(target, prior_traffic):
                    job.warm_start = True
                    prior_fp = demand_fingerprint(baseline, prior_traffic)
                    prior_entry = self.cache.rollout.get(
                        rollout_key(job.signature, prior_fp, self._max_steps())
                    )
                    job.prior_verified = bool(
                        prior_entry is not None
                        and prior_entry["capacities"] == prior_capacities
                    )

        cache_entry = self.cache.rollout.get(
            rollout_key(job.signature, job.demand_fp, self._max_steps())
        )
        if cache_entry is not None:
            job.plan_capacities = cache_entry["capacities"]
            job.feasible = bool(cache_entry["feasible"])
            job.plan_metadata = cache_entry.get("metadata", {})
            job.rollout_cached = True
            job.warm_start = False  # nothing was rolled out at all
            return

        start = prior_capacities if job.warm_start else None
        rollout_start = time.perf_counter()
        with self.pool.leased(job.signature) as backend:
            backend.ensure_demands(job.traffic, job.demand_fp)
            lp_before = backend.lp_solves
            with telemetry.timer("serve.rollout"):
                plan = backend.rollout(self._max_steps(), start_capacities=start)
            job.lp_solves += backend.lp_solves - lp_before
        job.rollout_s = time.perf_counter() - rollout_start
        job.plan_capacities = dict(plan.capacities)
        job.plan_method = plan.method
        job.plan_metadata = dict(plan.metadata)
        job.feasible = bool(plan.metadata.get("feasible", True))
        # The demands-keyed entry must equal the from-scratch plan:
        # cold rollouts qualify by definition, warm-started ones only
        # when the prior was verified on-path (growth dominance then
        # guarantees the trajectory is the from-scratch one).
        if not job.warm_start or job.prior_verified:
            self.cache.rollout.put(
                rollout_key(job.signature, job.demand_fp, self._max_steps()),
                {
                    "capacities": plan.capacities,
                    "feasible": job.feasible,
                    "metadata": plan.metadata,
                },
            )

    def _stage_check(self, job: FarmJob) -> None:
        key = feasibility_key(
            job.signature, job.demand_fp, job.plan_capacities
        )
        cached = self.cache.feasibility.get(key)
        if cached is not None:
            job.feasible = bool(cached["feasible"])
            job.verdict_cached = True
            return
        # A verdict is a property of (demands, capacities), independent
        # of how the plan was produced — always safe to record.
        self.cache.feasibility.put(key, {"feasible": job.feasible})

    def _stage_polish(self, job: FarmJob) -> None:
        request = job.request
        ilp_shed = bool(request.second_stage) and job.shed == "skip_ilp"
        if ilp_shed:
            telemetry.counter("serve.shed.skip_ilp")
        plan_capacities = job.plan_capacities
        method = job.plan_method
        degraded = bool(job.plan_metadata.get("degraded", False))
        degraded_reason = job.plan_metadata.get("degraded_reason")
        if request.second_stage and not ilp_shed:
            pkey = polish_key(
                job.signature,
                job.demand_fp,
                job.plan_capacities,
                float(request.alpha),
            )
            cached = self.cache.polish.get(pkey)
            if cached is not None:
                plan_capacities = cached["capacities"]
                method = cached["method"]
                job.second_stage_status = cached["status"]
                job.polish_cached = True
            else:
                backend_instance = self._polish_instance(job)
                budget = getattr(self.service_config, "ilp_time_limit", 30.0)
                deadline = request.deadline_s
                if deadline is not None:
                    remaining = deadline - (
                        time.perf_counter() - job.admitted_at
                    )
                    if remaining <= 0:
                        telemetry.counter("serve.deadline_exceeded")
                        raise DeadlineExceeded(
                            "deadline expired after the rollout, before "
                            "the second-stage ILP could start"
                        )
                    budget = min(budget, remaining)
                planner = NeuroPlan(
                    NeuroPlanConfig(
                        relax_factor=request.alpha, ilp_time_limit=budget
                    )
                )
                first_stage = NetworkPlan(
                    instance_name=backend_instance.name,
                    capacities=dict(job.plan_capacities),
                    method=job.plan_method,
                    metadata=dict(job.plan_metadata),
                )
                with telemetry.timer("serve.second_stage"):
                    polished, status, job.ilp_s = planner.second_stage(
                        backend_instance, first_stage
                    )
                plan_capacities = dict(polished.capacities)
                method = polished.method
                job.second_stage_status = status
                degraded = degraded or bool(
                    polished.metadata.get("degraded", False)
                )
                degraded_reason = degraded_reason or polished.metadata.get(
                    "degraded_reason"
                )
                # Only proven optima enter the cross-request cache: a
                # budget-truncated fallback is request-local.
                if status == "optimal" and not degraded:
                    self.cache.polish.put(
                        pkey,
                        {
                            "capacities": plan_capacities,
                            "method": method,
                            "status": status,
                        },
                    )
            job.feasible = True  # ILP plans are feasible by construction

        instance = self._polish_instance(job)
        cost = instance.cost_model.plan_cost(instance.network, plan_capacities)
        response = {
            "plan": dict(plan_capacities),
            "cost": cost,
            "feasible": job.feasible,
            "method": method,
            "degraded": degraded or ilp_shed,
            "degraded_reason": (
                "load shed: second-stage ILP skipped"
                if ilp_shed
                else degraded_reason
            ),
            "second_stage_status": job.second_stage_status,
            "shed": "skip_ilp" if ilp_shed else None,
            "lp_solves": job.lp_solves,
            "model": {
                "key": job.record.key.dirname(),
                "version": job.record.version,
            },
            "pipeline": "farm",
            "solver_cache": {
                "rollout": job.rollout_cached,
                "feasibility": job.verdict_cached,
                "polish": job.polish_cached,
            },
            "timings": {
                "queue_s": job.queue_s,
                "rollout_s": job.rollout_s,
                "ilp_s": job.ilp_s,
                "total_s": time.perf_counter() - job.admitted_at,
            },
            "cache_hit": False,
        }
        if job.is_replan:
            response["replan"] = {
                "warm_start": job.warm_start,
                "prior_verified": job.prior_verified,
            }
        trusted = not job.warm_start or job.prior_verified
        if (
            self.response_cache is not None
            and job.cache_key is not None
            and not request.no_cache
            and not ilp_shed
            and trusted
        ):
            self.response_cache.put(job.cache_key, response)
        telemetry.counter("serve.responses")
        telemetry.observe("serve.request", time.perf_counter() - job.admitted_at)
        job.future.set_result(response)

    # ------------------------------------------------------------------
    def _polish_instance(self, job: FarmJob):
        key, seed, version = self._signature_specs[job.signature]
        agent, _ = self.registry.agent(key, seed=seed, version=version)
        if job.traffic is None:
            return agent.instance
        from dataclasses import replace

        return replace(agent.instance, traffic=job.traffic)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "pool": self.pool.stats(),
            "cache": self.cache.stats(),
            "queues": {
                name: queue.depth() for name, queue in self._queues.items()
            },
            "draining": self._closed,
        }

    def close(self) -> None:
        """Drain: stop admissions, finish in-flight jobs stage by stage."""
        if self._closed:
            return
        self._closed = True
        for name in _STAGES:
            self._queues[name].close()
            for thread in self._threads:
                if thread.name.startswith(f"solverfarm-{name}-"):
                    thread.join(timeout=60.0)
        self.pool.close()


__all__ = ["FarmConfig", "FarmJob", "SolverFarm"]
