"""The planning service: request -> rollout -> (optional) budgeted ILP.

This is the paper's two-stage design recomposed as an inference path:
the expensive learning already happened offline (``neuroplan plan
--checkpoint-out`` published the trained policy), so serving a request
is a deterministic greedy rollout of the registered policy plus an
optional second-stage ILP under the request's remaining deadline.  The
PR-3 ``degraded``/``degraded_reason`` stamps from the solver-budget
fallbacks propagate straight into the response.

Responses are plain dicts (plan, cost, timings, provenance) so the
transports -- in-process calls, the HTTP layer, the load benchmark --
stay thin and identical.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from concurrent.futures import Future

from repro import telemetry
from repro.core.neuroplan import NeuroPlan, NeuroPlanConfig
from repro.errors import DeadlineExceeded, Overloaded, ServeError
from repro.serve.cache import ResponseCache, canonical_key
from repro.serve.pool import WorkerPool
from repro.serve.registry import ModelKey, ModelRecord, PolicyRegistry
from repro.topology import generators

REQUEST_FIELDS = (
    "topology",
    "scale",
    "seed",
    "horizon",
    "alpha",
    "second_stage",
    "deadline_s",
    "model_version",
    "no_cache",
    "priority",
)

# Extra fields accepted by ``POST /v1/replan`` on top of REQUEST_FIELDS.
REPLAN_FIELDS = REQUEST_FIELDS + ("demands", "prior_plan", "prior_demands")

# Pipeline modes: "pool" is the classic worker-pool execution path,
# "farm" routes plan requests through the staged repro.solverfarm
# pipeline (shared leased backends, solver-layer cache).  Replanning
# always runs on the farm (lazily created under "pool").
PIPELINES = ("pool", "farm")

# Priority classes: 0 = interactive (shed last), 1 = normal,
# 2 = background/batch (shed first).  The dispatcher's tiered
# load-shedding matrix keys off this field.
PRIORITIES = (0, 1, 2)

# Load-shedding execution modes, escalating in severity.  ``None`` is
# full service; ``"cache_only"`` answers from the response cache --
# falling through to the solver-layer result cache when a farm is
# running (responses stamped ``shed="solver_cache_only"``) -- or
# rejects; ``"skip_ilp"`` runs the rollout but skips the second-stage
# ILP, stamping the response ``degraded``.  ``solver_cache_only`` is an
# internal escalation inside the ``cache_only`` tier, not a mode
# callers pass to ``submit()``.
SHED_MODES = (None, "cache_only", "skip_ilp")


@dataclass(frozen=True)
class PlanRequest:
    """One plan request; everything defaulted except the topology."""

    topology: str
    scale: float = 1.0
    seed: int = 0
    horizon: str = "short"
    alpha: float = 1.5
    second_stage: bool = False
    deadline_s: "float | None" = None
    model_version: "int | str" = "latest"
    no_cache: bool = False
    priority: int = 1

    def __post_init__(self):
        if self.topology not in generators.list_topologies():
            raise ServeError(
                f"unknown topology {self.topology!r}; "
                f"options: {generators.list_topologies()}"
            )
        if not 0.0 < self.scale <= 1.0:
            raise ServeError("scale must be in (0, 1]")
        if self.horizon not in ("short", "long"):
            raise ServeError("horizon must be 'short' or 'long'")
        # `alpha < 1.0` / `deadline <= 0` alone would let NaN slip
        # through (every comparison with NaN is False) and poison the
        # downstream remaining-time arithmetic, so finiteness is checked
        # explicitly.
        if not (math.isfinite(self.alpha) and self.alpha >= 1.0):
            raise ServeError("alpha (relax factor) must be finite and >= 1.0")
        if self.deadline_s is not None:
            try:
                deadline = float(self.deadline_s)
            except (TypeError, ValueError):
                raise ServeError("deadline_s must be a number") from None
            if not math.isfinite(deadline) or deadline <= 0:
                raise ServeError("deadline_s must be a positive finite number")
        if self.priority not in PRIORITIES:
            raise ServeError(
                f"priority must be one of {PRIORITIES} "
                "(0 interactive, 1 normal, 2 background)"
            )

    @classmethod
    def from_dict(cls, payload: dict) -> "PlanRequest":
        unknown = set(payload) - set(REQUEST_FIELDS)
        if unknown:
            raise ServeError(
                f"unknown request fields {sorted(unknown)}; "
                f"accepted: {list(REQUEST_FIELDS)}"
            )
        if "topology" not in payload:
            raise ServeError("request is missing the 'topology' field")
        return cls(**payload)

    def model_key(self) -> ModelKey:
        return ModelKey(
            topology=self.topology, scale=self.scale, horizon=self.horizon
        )

    def identity(self, resolved_version: int) -> dict:
        """The plan-identity fields hashed into the cache key.

        ``deadline_s``, ``no_cache`` and ``priority`` shape *how* the
        request runs, not *what* plan it yields, so they stay out of
        the hash; the resolved version replaces any ``latest`` alias.
        """
        return {
            "topology": self.topology,
            "scale": self.scale,
            "seed": self.seed,
            "horizon": self.horizon,
            "alpha": self.alpha,
            "second_stage": self.second_stage,
            "model_version": resolved_version,
        }


@dataclass(frozen=True)
class ReplanRequest(PlanRequest):
    """A plan request expressed as a drift against a prior plan.

    ``demands`` / ``prior_demands`` are drift specs relative to the
    model's baseline demand matrix (``None`` = the baseline itself; see
    :mod:`repro.solverfarm.replan`), and ``prior_plan`` is the prior
    plan's ``{link_id: Gbps}`` capacities.  When the new demands
    dominate the prior demands pointwise, the rollout warm-starts from
    the prior plan and the leased backend absorbs the drift as a pure
    LP bound swap; otherwise the farm falls back to a from-scratch
    rollout on the same leased backend.  Either way the result is
    prior-independent, so the response-cache identity hashes the drift
    spec but never the prior.
    """

    demands: "dict | None" = None
    prior_plan: "dict | None" = None
    prior_demands: "dict | None" = None

    def __post_init__(self):
        super().__post_init__()
        from repro.solverfarm.replan import validate_drift_spec

        validate_drift_spec(self.demands)
        validate_drift_spec(self.prior_demands)
        if self.prior_plan is not None and (
            not isinstance(self.prior_plan, dict) or not self.prior_plan
        ):
            raise ServeError(
                "prior_plan must be a non-empty {link_id: Gbps} object or null"
            )

    @classmethod
    def from_dict(cls, payload: dict) -> "ReplanRequest":
        unknown = set(payload) - set(REPLAN_FIELDS)
        if unknown:
            raise ServeError(
                f"unknown replan fields {sorted(unknown)}; "
                f"accepted: {list(REPLAN_FIELDS)}"
            )
        if "topology" not in payload:
            raise ServeError("request is missing the 'topology' field")
        return cls(**payload)

    def identity(self, resolved_version: int) -> dict:
        identity = super().identity(resolved_version)
        # Prior-plan independence (docstring) keeps the prior out of
        # the hash; the drift specs are what the response answers.
        identity["demands"] = self.demands
        identity["prior_demands"] = self.prior_demands
        identity["replan"] = True
        return identity


@dataclass
class ServiceConfig:
    """Knobs for one :class:`PlanningService`."""

    workers: int = 2
    queue_depth: int = 16
    cache_size: int = 256
    ilp_time_limit: float = 30.0  # cap per second-stage solve (seconds)
    rollout_max_steps: "int | None" = None  # None = model's trained horizon
    pipeline: str = "pool"  # see PIPELINES
    farm: dict = field(default_factory=dict)  # FarmConfig overrides
    batching: bool = True  # coalesce concurrent rollout forwards
    batch_window_ms: float = 2.0  # max wait for co-batchable steps
    max_batch: int = 16  # forwards per coalesced batch; 1 disables
    extra: dict = field(default_factory=dict)


class PlanningService:
    """Registry + pool + cache composed behind ``submit()``/``plan()``."""

    def __init__(
        self,
        model_dir: "str | PolicyRegistry",
        config: "ServiceConfig | None" = None,
    ):
        self.config = config or ServiceConfig()
        if self.config.pipeline not in PIPELINES:
            raise ServeError(
                f"pipeline must be one of {PIPELINES}, "
                f"got {self.config.pipeline!r}"
            )
        self.registry = (
            model_dir
            if isinstance(model_dir, PolicyRegistry)
            else PolicyRegistry(model_dir)
        )
        self.pool = WorkerPool(
            workers=self.config.workers, queue_depth=self.config.queue_depth
        )
        self.cache = ResponseCache(self.config.cache_size)
        self._coalescers = None
        if self.config.batching and int(self.config.max_batch) > 1:
            from repro.serve.coalescer import CoalescerRegistry

            self._coalescers = CoalescerRegistry(
                window_s=float(self.config.batch_window_ms) / 1000.0,
                max_batch=int(self.config.max_batch),
            )
        self._farm = None
        self._farm_lock = threading.Lock()
        self._closed = False
        if self.config.pipeline == "farm":
            self._ensure_farm()

    # ------------------------------------------------------------------
    def _ensure_farm(self):
        """The solver farm, created on first use (always under ``farm``
        pipeline mode, lazily for replans under ``pool`` mode)."""
        if self._farm is None:
            with self._farm_lock:
                if self._farm is None:
                    from repro.solverfarm import FarmConfig, SolverFarm

                    self._farm = SolverFarm(
                        self.registry,
                        FarmConfig(**self.config.farm),
                        service_config=self.config,
                        response_cache=self.cache,
                    )
        return self._farm

    def _submit_farm(self, request, admitted_at: float, shed: "str | None"):
        """Admission for the farm pipeline: response-cache lookup up
        front (it is one dict probe), then the staged pipeline."""
        from repro.solverfarm import FarmJob

        farm = self._ensure_farm()
        record, cache_key, response = self._cached_response(request, admitted_at)
        if response is not None:
            return _completed(response)
        job = FarmJob(
            request=request,
            record=record,
            signature=(record.key.dirname(), record.version, int(request.seed)),
            future=Future(),
            admitted_at=admitted_at,
            shed=shed,
            cache_key=cache_key,
            is_replan=isinstance(request, ReplanRequest),
        )
        return farm.submit(job)

    # ------------------------------------------------------------------
    def submit(self, request: PlanRequest, shed: "str | None" = None) -> Future:
        """Admit a request; the future resolves to the response dict.

        A response-cache hit is answered here, on either pipeline, as a
        completed future with ``queue_s`` 0.0.  Work that needs a worker
        raises :class:`Overloaded` immediately when the queue is full,
        and a draining pool service refuses every request, hits
        included -- admission never blocks.  ``shed``
        selects a degraded execution mode (see :data:`SHED_MODES`):
        ``"cache_only"`` answers from the response cache *without
        touching the pool* (a hit costs one dict copy, a miss is a typed
        :class:`Overloaded`), ``"skip_ilp"`` runs the rollout but skips
        the second-stage ILP with a ``degraded`` stamp.
        """
        if shed not in SHED_MODES:
            raise ServeError(f"unknown shed mode {shed!r}; options: {SHED_MODES}")
        telemetry.counter("serve.requests")
        admitted_at = time.perf_counter()
        if shed == "cache_only":
            return self._cache_only(request, admitted_at)
        if self.config.pipeline == "farm":
            return self._submit_farm(request, admitted_at, shed)
        self.pool.ensure_accepting()
        # A miss here is looked up again once a worker takes the request
        # (a storm peer may have filled the cache meanwhile), and that
        # lookup counts it.
        _, _, response = self._cached_response(request, admitted_at, final=False)
        if response is not None:
            return _completed(response)
        return self.pool.submit(self._execute, request, admitted_at, shed)

    def plan(self, request: PlanRequest, shed: "str | None" = None) -> dict:
        """Synchronous submit + wait (in-process callers, benchmark)."""
        return self.submit(request, shed=shed).result()

    def submit_replan(
        self, request: ReplanRequest, shed: "str | None" = None
    ) -> Future:
        """Admit an incremental replan; always runs on the solver farm
        (the delta path needs the leased persistent LP backends)."""
        if shed not in SHED_MODES:
            raise ServeError(f"unknown shed mode {shed!r}; options: {SHED_MODES}")
        telemetry.counter("serve.requests")
        telemetry.counter("serve.replan.requests")
        admitted_at = time.perf_counter()
        if shed == "cache_only":
            return self._cache_only(request, admitted_at)
        return self._submit_farm(request, admitted_at, shed)

    def replan(self, request: ReplanRequest, shed: "str | None" = None) -> dict:
        """Synchronous replan (in-process callers, benchmark)."""
        return self.submit_replan(request, shed=shed).result()

    # ------------------------------------------------------------------
    def _cached_response(
        self,
        request: PlanRequest,
        admitted_at: float,
        queue_s: float = 0.0,
        final: bool = True,
    ) -> "tuple[ModelRecord, str, dict | None]":
        """Resolve ``request``'s model and look it up in the response
        cache: ``(record, cache_key, response)``.

        ``response`` is the cached answer stamped as this request's hit
        (``cache_hit``, ``queue_s``, ``total_s``), or ``None`` on a miss
        and for ``no_cache`` requests.  ``final=False`` leaves a miss
        uncounted for a later lookup of the same request to count.
        """
        record = self.registry.resolve(request.model_key(), request.model_version)
        cache_key = canonical_key(request.identity(record.version))
        if request.no_cache:
            return record, cache_key, None
        response = self.cache.get(cache_key, count_miss=final)
        if response is not None:
            response["cache_hit"] = True
            response["timings"] = {
                **response["timings"],
                "queue_s": queue_s,
                "total_s": time.perf_counter() - admitted_at,
            }
            telemetry.counter("serve.responses")
        return record, cache_key, response

    def _cache_only(self, request: PlanRequest, admitted_at: float) -> Future:
        """Answer from the cache, bypassing the pool queue entirely --
        this tier must keep working precisely when the queue is full.

        On a response-cache miss the solver farm's result cache gets one
        chance (the ``solver_cache_only`` tier): a baseline rollout
        segment hit is re-assembled into a response without touching the
        pool, the farm queues, or any LP/ILP work."""
        record, _, response = self._cached_response(request, admitted_at)
        if response is not None:
            telemetry.counter("serve.shed.cache_only")
            response["shed"] = "cache_only"
            return _completed(response)
        response = self._solver_cache_answer(request, record, admitted_at)
        if response is not None:
            return _completed(response)
        telemetry.counter("serve.shed.cache_only_miss")
        future: Future = Future()
        future.set_exception(
            Overloaded(
                "shed to the cache-only tier with no cached response; "
                "retry later or lower the request priority tier"
            )
        )
        return future

    def _solver_cache_answer(
        self, request: PlanRequest, record, admitted_at: float
    ) -> "dict | None":
        """The ``solver_cache_only`` tier: answer a shed plan request
        from the farm's baseline rollout segment, or ``None`` (miss).

        Only consults state that already exists -- a running farm, an
        already-loaded agent (for the cost model) -- so a miss costs two
        dict probes.  Replans are never answered here: their identity
        depends on the demand-drift fingerprint, which is exactly the
        work a shed tier must not do.  The response is *not* written to
        the response cache (its identity includes fields, like
        ``second_stage``, this tier does not honor)."""
        farm = self._farm
        if farm is None or isinstance(request, ReplanRequest):
            return None
        loaded = self.registry.peek(
            request.model_key(), seed=request.seed, version=record.version
        )
        if loaded is None:
            return None
        agent, record = loaded
        from repro.solverfarm.cache import feasibility_key, rollout_key
        from repro.solverfarm.replan import BASELINE_FP

        signature = (record.key.dirname(), record.version, int(request.seed))
        entry = farm.cache.rollout.get(
            rollout_key(signature, BASELINE_FP, self.config.rollout_max_steps)
        )
        if entry is None:
            telemetry.counter("serve.shed.solver_cache_only_miss")
            return None
        capacities = entry["capacities"]
        feasible = bool(entry["feasible"])
        verdict = farm.cache.feasibility.get(
            feasibility_key(signature, BASELINE_FP, capacities)
        )
        if verdict is not None:
            feasible = bool(verdict["feasible"])
        from repro.planning.plan import NetworkPlan

        metadata = entry.get("metadata") or {}
        plan = NetworkPlan(
            instance_name=agent.instance.name,
            capacities=capacities,
            method="rl-rollout",
            metadata=metadata,
        )
        ilp_skipped = bool(request.second_stage)
        telemetry.counter("serve.shed.solver_cache_only")
        telemetry.counter("serve.responses")
        response = {
            "plan": capacities,
            "cost": plan.cost(agent.instance),
            "feasible": feasible,
            "method": plan.method,
            "degraded": bool(metadata.get("degraded", False)) or ilp_skipped,
            "degraded_reason": (
                "load shed: second-stage ILP skipped"
                if ilp_skipped
                else metadata.get("degraded_reason")
            ),
            "second_stage_status": None,
            "shed": "solver_cache_only",
            "lp_solves": 0,
            "model": {"key": record.key.dirname(), "version": record.version},
            "timings": {
                "queue_s": 0.0,
                "rollout_s": 0.0,
                "ilp_s": 0.0,
                "total_s": time.perf_counter() - admitted_at,
            },
            "cache_hit": False,
        }
        return response

    def _execute(
        self, request: PlanRequest, admitted_at: float, shed: "str | None" = None
    ) -> dict:
        started = time.perf_counter()
        queue_s = started - admitted_at
        deadline = request.deadline_s
        if deadline is not None and queue_s >= deadline:
            telemetry.counter("serve.deadline_exceeded")
            raise DeadlineExceeded(
                f"request spent {queue_s:.3f}s queued, past its "
                f"{deadline}s deadline"
            )
        _, cache_key, response = self._cached_response(request, admitted_at, queue_s)
        if response is not None:
            return response

        agent, record = self.registry.agent(
            request.model_key(), seed=request.seed, version=request.model_version
        )
        coalescer = None
        if self._coalescers is not None:
            coalescer = self._coalescers.get(
                (record.key.dirname(), record.version), agent.policy
            )
        with telemetry.timer("serve.rollout"):
            rollout_start = time.perf_counter()
            plan = agent.plan(self.config.rollout_max_steps, coalescer=coalescer)
            rollout_s = time.perf_counter() - rollout_start
        lp_solves = plan.metadata["lp_solves"]

        ilp_s = 0.0
        status = None
        ilp_shed = bool(request.second_stage) and shed == "skip_ilp"
        if ilp_shed:
            telemetry.counter("serve.shed.skip_ilp")
        if request.second_stage and not ilp_shed:
            budget = self.config.ilp_time_limit
            if deadline is not None:
                remaining = deadline - (time.perf_counter() - admitted_at)
                if remaining <= 0:
                    telemetry.counter("serve.deadline_exceeded")
                    raise DeadlineExceeded(
                        "deadline expired after the rollout, before the "
                        "second-stage ILP could start"
                    )
                budget = min(budget, remaining)
            planner = NeuroPlan(
                NeuroPlanConfig(
                    relax_factor=request.alpha, ilp_time_limit=budget
                )
            )
            with telemetry.timer("serve.second_stage"):
                plan, status, ilp_s = planner.second_stage(agent.instance, plan)

        # Rollout plans carry an explicit feasibility verdict; ILP plans
        # are feasible by construction (no "feasible" key).
        feasible = bool(plan.metadata.get("feasible", True))
        response = {
            "plan": dict(plan.capacities),
            "cost": plan.cost(agent.instance),
            "feasible": feasible,
            "method": plan.method,
            "degraded": bool(plan.metadata.get("degraded", False)) or ilp_shed,
            "degraded_reason": (
                "load shed: second-stage ILP skipped"
                if ilp_shed
                else plan.metadata.get("degraded_reason")
            ),
            "second_stage_status": status,
            "shed": "skip_ilp" if ilp_shed else None,
            "lp_solves": lp_solves,
            "model": {"key": record.key.dirname(), "version": record.version},
            "timings": {
                "queue_s": queue_s,
                "rollout_s": rollout_s,
                "ilp_s": ilp_s,
                "total_s": time.perf_counter() - admitted_at,
            },
            "cache_hit": False,
        }
        # A shed response answers *this* request but is not what the
        # identity promises (it includes second_stage=True), so it must
        # never poison the cache.
        if not request.no_cache and not ilp_shed:
            self.cache.put(cache_key, response)
        telemetry.counter("serve.responses")
        telemetry.observe("serve.request", time.perf_counter() - admitted_at)
        return response

    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        from repro.version import __version__

        pool = self.pool.stats()
        health = {
            "status": "draining" if self._closed else "ok",
            "draining": self._closed,
            "version": __version__,
            "pipeline": self.config.pipeline,
            "queue": {
                "depth": pool["queued"],
                "capacity": pool["queue_depth"],
                "in_flight": pool["in_flight"],
            },
            "models": self.registry.store.inventory(),
            "registry": self.registry.stats(),
            "pool": pool,
            "cache": self.cache.stats(),
            "batching": self.batching_stats(),
        }
        if self._farm is not None:
            health["solverfarm"] = self._farm.stats()
        return health

    def batching_stats(self) -> dict:
        """Coalescer rollup: batch counts, size histogram, fast path."""
        if self._coalescers is None:
            return {"enabled": False}
        return self._coalescers.stats()

    def metrics(self) -> dict:
        metrics = {
            "telemetry": telemetry.snapshot(),
            "cache": self.cache.stats(),
            "pool": self.pool.stats(),
            "batching": self.batching_stats(),
        }
        if self._farm is not None:
            metrics["solverfarm"] = self._farm.stats()
        return metrics

    def close(self) -> None:
        """Graceful drain: stop accepting, finish in-flight work, then
        close the loaded agents' evaluator pools.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self.pool.shutdown(drain=True)
        if self._farm is not None:
            self._farm.close()
        self.registry.close()

    def __enter__(self) -> "PlanningService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _completed(response: dict) -> Future:
    future: Future = Future()
    future.set_result(response)
    return future


# Re-exported so transports can import everything from one module.
__all__ = [
    "PlanRequest",
    "ReplanRequest",
    "PlanningService",
    "ServiceConfig",
    "Overloaded",
    "DeadlineExceeded",
]
