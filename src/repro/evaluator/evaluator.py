"""The plan evaluator facade used by the RL environment and planners.

Wraps a :class:`FeasibilityChecker` (+ optional stateful sweep) and the
cost model into the paper's plan-evaluator box (Fig. 3): feed it a
capacity assignment, get back feasibility, the first violated failure,
the demand shortfall, and the plan cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro import telemetry
from repro.errors import ConfigError
from repro.evaluator.feasibility import (
    DualityCertificate,
    FailureCheckResult,
    FeasibilityChecker,
)
from repro.evaluator.stateful import StatefulFailureChecker
from repro.topology.instance import PlanningInstance

MODES = ("vanilla", "sa", "neuroplan")


@dataclass
class EvaluationResult:
    """Outcome of evaluating one capacity assignment.

    ``cost`` is computed lazily on first access: the RL environment
    reads feasibility every step but derives its reward from
    incremental cost, so the full cost-model pass only runs for callers
    that actually ask for it.
    """

    feasible: bool
    violated_failure: str | None = None
    shortfall: float = 0.0
    checks: list[FailureCheckResult] = field(default_factory=list)
    _cost: float | None = field(default=None, repr=False, compare=False)
    _cost_fn: "Callable[[], float] | None" = field(
        default=None, repr=False, compare=False
    )

    @property
    def cost(self) -> float:
        if self._cost is None:
            if self._cost_fn is None:
                raise ConfigError("EvaluationResult has no cost provider")
            self._cost = self._cost_fn()
        return self._cost

    @property
    def certificate(self) -> "DualityCertificate | None":
        """The violated failure's duality certificate (None if feasible)."""
        if self.feasible or not self.checks:
            return None
        return self.checks[-1].certificate


class PlanEvaluator:
    """Check plans against the service expectations; compute cost.

    Parameters
    ----------
    mode:
        ``"vanilla"`` (per-flow commodities, full re-check),
        ``"sa"`` (source aggregation, full re-check), or
        ``"neuroplan"`` (source aggregation + stateful checking).
    """

    def __init__(self, instance: PlanningInstance, mode: str = "neuroplan"):
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
        self.instance = instance
        self.mode = mode
        self.checker = FeasibilityChecker(
            instance, aggregate=(mode != "vanilla")
        )
        self._stateful: StatefulFailureChecker | None = None
        if mode == "neuroplan":
            # The base (no-failure) case leads the sweep: site failures
            # and CoS policies can exempt demand, so it is not implied
            # by the failure scenarios.
            self._stateful = StatefulFailureChecker(
                self.checker, [None, *instance.failures]
            )
        self._required_cache: dict[str, "set[int] | None"] = {}
        self.total_check_time = 0.0

    # ------------------------------------------------------------------
    # Incremental retargeting (solver-farm replanning)
    # ------------------------------------------------------------------
    def retarget_demands(self, traffic) -> int:
        """Repoint this evaluator at a drifted demand matrix.

        Delegates the LP bound swap to the compiled checker (structure
        must match; see :meth:`FeasibilityChecker.retarget_demands`),
        then invalidates everything demand-derived on this layer: the
        per-failure required-flow cache and the stateful sweep cursor
        (a demand increase can break a previously survived prefix, so
        the monotonic-resume contract no longer holds across the swap).
        Returns the number of flows whose demand changed.
        """
        changed = self.checker.retarget_demands(traffic)
        self.instance = self.checker.instance
        self._required_cache.clear()
        if self._stateful is not None:
            self._stateful.reset()
        return changed

    # ------------------------------------------------------------------
    # Reliability policy
    # ------------------------------------------------------------------
    def required_flow_indices(self, failure_id: str) -> "set[int] | None":
        """Flow indices that must be satisfied under ``failure_id``.

        ``None`` means "all flows" (the fast path when no per-CoS policy
        narrows the requirement).
        """
        if failure_id in self._required_cache:
            return self._required_cache[failure_id]
        policy = self.instance.policy
        if not policy.cos_failure_sets:
            self._required_cache[failure_id] = None
            return None
        required: set[int] = set()
        for i, flow in enumerate(self.instance.traffic):
            failure_ids = policy.required_failures(
                flow.cos.name, self.instance.failure_ids
            )
            if failure_id in failure_ids:
                required.add(i)
        self._required_cache[failure_id] = required
        return required

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def cost(self, capacities: dict[str, float]) -> float:
        """Plan cost under the instance's cost model (Eq. 1)."""
        return self.instance.cost_model.plan_cost(self.instance.network, capacities)

    def _lazy_cost(self, capacities: dict[str, float]) -> "Callable[[], float]":
        """Deferred cost thunk over a snapshot of ``capacities``.

        The environment mutates its capacity dict in place between
        steps, so the snapshot pins the assignment this result is for.
        """
        snapshot = dict(capacities)
        return lambda: self.cost(snapshot)

    def evaluate(self, capacities: dict[str, float]) -> EvaluationResult:
        """Check ``capacities`` against every required failure.

        In ``neuroplan`` mode the check resumes from the stateful
        cursor; in the other modes every scenario is checked.
        """
        start = time.perf_counter()
        result = None
        try:
            if self._stateful is not None:
                violation = self._stateful.check(
                    capacities, self.required_flow_indices
                )
                if violation is not None:
                    result = EvaluationResult(
                        feasible=False,
                        violated_failure=violation.failure_id,
                        shortfall=violation.shortfall,
                        checks=[violation],
                        _cost_fn=self._lazy_cost(capacities),
                    )
                else:
                    result = EvaluationResult(
                        feasible=True, _cost_fn=self._lazy_cost(capacities)
                    )
            else:
                result = self._evaluate_all(capacities)
            return result
        finally:
            elapsed = time.perf_counter() - start
            self.total_check_time += elapsed
            if telemetry.enabled():
                telemetry.counter("evaluator.evaluations")
                telemetry.observe("evaluator.evaluate", elapsed)
                telemetry.event(
                    "evaluator.evaluate",
                    mode=self.mode,
                    feasible=result.feasible if result is not None else None,
                    violated_failure=(
                        result.violated_failure if result is not None else None
                    ),
                    seconds=elapsed,
                    lp_solves=self.lp_solves,
                )

    def _evaluate_all(self, capacities: dict[str, float]) -> EvaluationResult:
        checks: list[FailureCheckResult] = []
        scenarios: list = [None, *self.instance.failures]
        for failure in scenarios:
            required = (
                self.required_flow_indices(failure.id) if failure else None
            )
            result = self.checker.check(capacities, failure, required)
            checks.append(result)
            if not result.satisfied:
                return EvaluationResult(
                    feasible=False,
                    violated_failure=result.failure_id,
                    shortfall=result.shortfall,
                    checks=checks,
                    _cost_fn=self._lazy_cost(capacities),
                )
        return EvaluationResult(
            feasible=True, checks=checks, _cost_fn=self._lazy_cost(capacities)
        )

    def advance_to(self, result: EvaluationResult) -> None:
        """Take ``result``, a verdict for the current capacities that
        another evaluator of this instance and demands may have
        computed, as if this one had: in ``neuroplan`` mode the next
        check resumes where that sweep stopped."""
        if self._stateful is not None:
            self._stateful.advance_to(result.violated_failure)

    def reset(self) -> None:
        """Start a fresh trajectory (forget stateful progress)."""
        if self._stateful is not None:
            self._stateful.reset()

    @property
    def lp_solves(self) -> int:
        """LP solves so far (the Fig. 7 instrumentation)."""
        return self.checker.lp_solves
