"""The plan evaluator (Fig. 3 / Section 5 of the paper).

Given a capacity assignment, the evaluator checks whether the traffic
demand is satisfied under every required failure scenario and computes
the plan cost.  Three implementations reproduce Fig. 7's comparison:

- ``vanilla`` -- one commodity per flow, every failure re-checked from
  scratch;
- ``sa`` -- *source aggregation* (implemented inside
  :mod:`repro.evaluator.feasibility` via ``aggregate=True``): flows
  sharing a source merge into one multi-sink commodity, shrinking the
  per-failure LP from ``s(fm + 2l)`` to ``s(m^2 + 2l)`` constraints;
- ``neuroplan`` -- source aggregation plus *stateful failure checking*:
  failures keep a fixed order and, because planning only adds capacity,
  a failure survived once never needs re-checking.

All three share one compiled LP per instance whose RHS/bounds are
rewritten per (capacities, failure) pair -- the "only update the
constraints influenced by the failure" optimization.  Beyond the
paper's three modes, :mod:`repro.evaluator.parallel` checks failure
groups concurrently and :mod:`repro.evaluator.routing` decomposes the
LP solution into explicit traffic paths.
"""

from repro.evaluator.feasibility import (
    DualityCertificate,
    FailureCheckResult,
    FeasibilityChecker,
)
from repro.evaluator.evaluator import EvaluationResult, PlanEvaluator
from repro.evaluator.stateful import StatefulFailureChecker
from repro.evaluator.parallel import ParallelFailureChecker, partition_failures
from repro.evaluator.routing import (
    PathFlow,
    RoutingSolution,
    extract_routing,
    routing_report,
)

__all__ = [
    "DualityCertificate",
    "FeasibilityChecker",
    "FailureCheckResult",
    "PlanEvaluator",
    "EvaluationResult",
    "StatefulFailureChecker",
    "ParallelFailureChecker",
    "partition_failures",
    "PathFlow",
    "RoutingSolution",
    "extract_routing",
    "routing_report",
]
