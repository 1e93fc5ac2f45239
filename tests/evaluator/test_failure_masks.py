"""Failure masks survive demand retargets; templates are rebuilt exactly.

A failure's zeroed capacity rows and required-flow mask do not depend on
demands, so the checker keeps them across ``retarget_demands`` and only
rebuilds the serve bounds and the required demand.  Those must equal, to
the bit, what a checker compiled fresh for the new demands builds.
"""

import struct

import numpy as np
import pytest

from repro.evaluator import PlanEvaluator
from repro.planning.greedy import GreedyPlanner
from repro.topology import datasets, generators
from repro.topology.instance import PlanningInstance
from repro.topology.traffic import (
    BEST_EFFORT,
    Flow,
    ReliabilityPolicy,
    TrafficMatrix,
)


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def sweep(evaluator: PlanEvaluator, capacities: dict) -> list:
    """Check every scenario; return the verdicts."""
    checker = evaluator.checker
    verdicts = []
    for failure in [None, *evaluator.instance.failures]:
        required = evaluator.required_flow_indices(failure.id) if failure else None
        result = checker.check(capacities, failure, required)
        verdicts.append((result.satisfied, bits(result.required_demand)))
    return verdicts


def reference_template(evaluator: PlanEvaluator, failure) -> tuple:
    """(zero rows, serve bounds, required demand) by the per-flow loop."""
    instance = evaluator.instance
    network = instance.network
    required = evaluator.required_flow_indices(failure.id) if failure else None
    failed_links = failure.failed_link_ids(network) if failure else frozenset()
    failed_nodes = failure.nodes if failure else frozenset()
    zero_rows = [
        row
        for position, link_id in enumerate(network.link_ids())
        if link_id in failed_links
        for row in (2 * position, 2 * position + 1)
    ]
    serve_ub = []
    required_demand = 0.0
    for i, flow in enumerate(instance.traffic):
        exempt = (
            flow.src in failed_nodes
            or flow.dst in failed_nodes
            or (required is not None and i not in required)
        )
        serve_ub.append(0.0 if exempt else flow.demand)
        if not exempt:
            required_demand += flow.demand
    return zero_rows, serve_ub, bits(required_demand)


def assert_templates_match_reference(evaluator: PlanEvaluator) -> None:
    checker = evaluator.checker
    for failure in [None, *evaluator.instance.failures]:
        required = evaluator.required_flow_indices(failure.id) if failure else None
        template = checker._failure_template(failure, required)
        zero_rows, serve_ub, required_demand = reference_template(evaluator, failure)
        assert template.zero_rows.tolist() == zero_rows
        assert template.serve_ub.tobytes() == np.array(serve_ub).tobytes()
        assert bits(template.required_demand) == required_demand


def assert_same_templates(retargeted, fresh) -> None:
    assert retargeted._templates.keys() == fresh._templates.keys()
    for key, template in fresh._templates.items():
        kept = retargeted._templates[key]
        assert kept.zero_rows.tobytes() == template.zero_rows.tobytes()
        assert kept.serve_ub.tobytes() == template.serve_ub.tobytes()
        assert bits(kept.required_demand) == bits(template.required_demand)


def policy_instance() -> PlanningInstance:
    """figure1 plus a best-effort flow that no failure requires."""
    base = datasets.figure1_topology()
    traffic = TrafficMatrix(
        [Flow("A", "D", 100.0), Flow("A", "D", 50.0, BEST_EFFORT)]
    )
    return PlanningInstance(
        name="policy-masks",
        network=base.network,
        traffic=traffic,
        failures=base.failures,
        cost_model=base.cost_model,
        policy=ReliabilityPolicy({"best-effort": set()}),
        capacity_unit=base.capacity_unit,
        horizon=base.horizon,
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: generators.make_instance("A", seed=0, scale=0.5),
        lambda: generators.make_instance("B", seed=3, scale=0.5),
        policy_instance,
    ],
    ids=["A", "B", "policy"],
)
@pytest.mark.parametrize("factor", [0.7, 1.6])
def test_retargeted_templates_equal_fresh_ones(make, factor):
    instance = make()
    capacities = GreedyPlanner().plan(instance).capacities
    evaluator = PlanEvaluator(instance, mode="sa")
    sweep(evaluator, capacities)
    masks = dict(evaluator.checker._masks)

    drifted = instance.traffic.scaled(factor)
    evaluator.retarget_demands(drifted)
    assert evaluator.checker._templates == {}
    verdicts = sweep(evaluator, capacities)

    fresh = PlanEvaluator(evaluator.instance, mode="sa")
    assert verdicts == sweep(fresh, capacities)
    assert_same_templates(evaluator.checker, fresh.checker)
    assert_templates_match_reference(evaluator)
    # The failure masks were reused, not rebuilt.
    for key, mask in masks.items():
        assert evaluator.checker._masks[key] is mask
