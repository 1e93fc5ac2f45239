"""Stateful failure checking (Section 5).

Planning actions only *add* capacity, so a network that survives a
failure keeps surviving it as capacity grows.  The checker keeps the
failure list in a fixed order and a cursor at the first failure not yet
survived; each check resumes at the cursor instead of re-checking all
scenarios, which is where the paper's 7-14x evaluator speedup over
plain source aggregation comes from (Fig. 7).

The monotonicity contract is the caller's responsibility: call
:meth:`reset` whenever capacities may have *decreased* (e.g. a new RL
trajectory).  In debug mode the checker verifies monotonicity.

Instrumentation: every :meth:`check` records how many scenarios the
cursor let it *skip* (the survived prefix) versus how many it actually
*checked*, both on the instance (``scenarios_skipped`` /
``scenarios_checked``) and in :mod:`repro.telemetry` counters — the
skip ratio is the direct measurement of the Fig. 7 speedup.
"""

from __future__ import annotations

from repro import telemetry
from repro.errors import EnvironmentError_
from repro.evaluator.feasibility import FailureCheckResult, FeasibilityChecker
from repro.topology.failures import FailureScenario


class StatefulFailureChecker:
    """Resumable sweep over an ordered failure list."""

    def __init__(
        self,
        checker: FeasibilityChecker,
        failures: list[FailureScenario],
        verify_monotonic: bool = False,
    ):
        self.checker = checker
        self.failures = list(failures)
        self.verify_monotonic = verify_monotonic
        self._cursor = 0
        self._last_capacities: dict[str, float] | None = None
        # Sweep position of each failure id ("none" is the base case).
        self._positions: dict[str, int] = {}
        for index, failure in enumerate(self.failures):
            failure_id = failure.id if failure is not None else "none"
            self._positions.setdefault(failure_id, index)
        # Cumulative instrumentation across check() calls.
        self.scenarios_checked = 0
        self.scenarios_skipped = 0
        self.last_skipped = 0
        self.last_checked = 0

    @property
    def cursor(self) -> int:
        """Index of the first failure not yet known to be survived."""
        return self._cursor

    @property
    def survived_count(self) -> int:
        return self._cursor

    def reset(self) -> None:
        """Forget all survived failures (capacities may have decreased)."""
        self._cursor = 0
        self._last_capacities = None

    def advance_to(self, violated_failure: "str | None") -> None:
        """Resume the next check where a sweep of the current
        capacities stopped: at ``violated_failure``, or past every
        failure when it is ``None`` (feasible).

        That sweep may be another checker's over the same instance and
        demands (a shared evaluation memo).  Every failure it passed is
        survived at these capacities, so, capacity only growing, this
        checker need not check them again in this trajectory.
        """
        if violated_failure is None:
            target = max(len(self.failures), 1)
        else:
            target = self._positions.get(violated_failure, 0)
        self._cursor = max(self._cursor, target)

    def _record(self, skipped: int, checked: int) -> None:
        self.last_skipped = skipped
        self.last_checked = checked
        self.scenarios_skipped += skipped
        self.scenarios_checked += checked
        if telemetry.enabled():
            telemetry.counter("evaluator.stateful.checks")
            telemetry.counter("evaluator.stateful.scenarios_skipped", skipped)
            telemetry.counter("evaluator.stateful.scenarios_checked", checked)

    def check(
        self,
        capacities: dict[str, float],
        required_flow_indices_for=None,
    ) -> "FailureCheckResult | None":
        """Resume checking; return the first violated result, or None.

        ``required_flow_indices_for`` optionally maps a failure id to the
        flow-index subset required under it (reliability policy).
        Returns ``None`` when every remaining failure is survived --
        i.e. the plan is feasible.
        """
        if self.verify_monotonic:
            if self._last_capacities is not None:
                for link_id, value in capacities.items():
                    if value < self._last_capacities.get(link_id, 0.0) - 1e-9:
                        raise EnvironmentError_(
                            f"capacity of {link_id} decreased; call reset() first"
                        )
            self._last_capacities = dict(capacities)
        entry_cursor = self._cursor
        checked = 0

        if not self.failures and self._cursor == 0:
            # No failure scenarios: check the base (no-failure) case once.
            result = self.checker.check(capacities, None)
            self._record(entry_cursor, 1)
            if not result.satisfied:
                return result
            self._cursor = 1
            return None

        while self._cursor < len(self.failures):
            failure = self.failures[self._cursor]
            required = (
                required_flow_indices_for(failure.id)
                if required_flow_indices_for is not None and failure is not None
                else None
            )
            result = self.checker.check(capacities, failure, required)
            checked += 1
            if not result.satisfied:
                self._record(entry_cursor, checked)
                return result
            self._cursor += 1
        self._record(entry_cursor, checked)
        return None

    @property
    def complete(self) -> bool:
        """Whether every failure has been survived at least once."""
        if not self.failures:
            return self._cursor >= 1
        return self._cursor >= len(self.failures)
