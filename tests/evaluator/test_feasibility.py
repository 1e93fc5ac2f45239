"""Tests for the per-failure feasibility LP and its duality certificate."""

import os
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.evaluator.feasibility import FeasibilityChecker
from repro.solver.model import RowDuals
from repro.topology import datasets, generators
from repro.topology.elements import Fiber, IPLink, Node
from repro.topology.failures import FailureScenario
from repro.topology.instance import PlanningInstance
from repro.topology.network import Network
from repro.topology.traffic import Flow, TrafficMatrix


@pytest.fixture
def triangle() -> PlanningInstance:
    """A-B-C triangle; demand A->C of 10; single-fiber failures."""
    network = Network(
        nodes=[Node(n) for n in "ABC"],
        fibers=[
            Fiber("AB", "A", "B", 1.0),
            Fiber("BC", "B", "C", 1.0),
            Fiber("AC", "A", "C", 1.0),
        ],
        links=[
            IPLink("ab", "A", "B", ("AB",), capacity=10.0),
            IPLink("bc", "B", "C", ("BC",), capacity=10.0),
            IPLink("ac", "A", "C", ("AC",), capacity=10.0),
        ],
    )
    return PlanningInstance(
        name="triangle",
        network=network,
        traffic=TrafficMatrix([Flow("A", "C", 10.0)]),
        failures=[
            FailureScenario("fiber:AC", fibers=frozenset({"AC"})),
            FailureScenario("fiber:AB", fibers=frozenset({"AB"})),
        ],
    )


class TestBaseCase:
    def test_no_failure_feasible(self, triangle):
        checker = FeasibilityChecker(triangle)
        result = checker.check(triangle.network.capacities(), None)
        assert result.satisfied
        assert result.failure_id == "none"
        assert result.served_demand == pytest.approx(10.0)
        assert result.shortfall == 0.0

    def test_zero_capacity_infeasible(self, triangle):
        checker = FeasibilityChecker(triangle)
        result = checker.check({"ab": 0.0, "bc": 0.0, "ac": 0.0}, None)
        assert not result.satisfied
        assert result.shortfall == pytest.approx(10.0)

    def test_partial_serving_reported(self, triangle):
        checker = FeasibilityChecker(triangle)
        result = checker.check({"ab": 0.0, "bc": 0.0, "ac": 4.0}, None)
        assert not result.satisfied
        assert result.served_demand == pytest.approx(4.0)
        assert result.shortfall == pytest.approx(6.0)


class TestFailures:
    def test_fiber_cut_forces_detour(self, triangle):
        checker = FeasibilityChecker(triangle)
        caps = triangle.network.capacities()
        result = checker.check(caps, triangle.failures[0])  # cut AC
        assert result.satisfied  # detour A-B-C has 10G

    def test_detour_capacity_binds(self, triangle):
        checker = FeasibilityChecker(triangle)
        result = checker.check(
            {"ab": 10.0, "bc": 6.0, "ac": 10.0}, triangle.failures[0]
        )
        assert not result.satisfied
        assert result.served_demand == pytest.approx(6.0)

    def test_splitting_across_paths(self, triangle):
        """Direct 6G + detour 4G can jointly serve 10G (no failure)."""
        checker = FeasibilityChecker(triangle)
        result = checker.check({"ab": 4.0, "bc": 4.0, "ac": 6.0}, None)
        assert result.satisfied

    def test_site_failure_exempts_flows(self, triangle):
        checker = FeasibilityChecker(triangle)
        failure = FailureScenario("site:A", nodes=frozenset({"A"}))
        result = checker.check({"ab": 0.0, "bc": 0.0, "ac": 0.0}, failure)
        # The only flow originates at the failed site: nothing required.
        assert result.satisfied
        assert result.required_demand == 0.0

    def test_transit_site_failure_not_exempt(self, triangle):
        checker = FeasibilityChecker(triangle)
        failure = FailureScenario("site:B", nodes=frozenset({"B"}))
        # A->C must survive B's failure using the direct link.
        result = checker.check({"ab": 10.0, "bc": 10.0, "ac": 0.0}, failure)
        assert not result.satisfied
        result = checker.check({"ab": 0.0, "bc": 0.0, "ac": 10.0}, failure)
        assert result.satisfied

    def test_required_flow_subset(self, triangle):
        checker = FeasibilityChecker(triangle)
        result = checker.check(
            {"ab": 0.0, "bc": 0.0, "ac": 0.0},
            None,
            required_flow_indices=set(),  # nothing required
        )
        assert result.satisfied
        assert result.required_demand == 0.0


class TestAggregationEquivalence:
    """Source aggregation must not change any feasibility verdict."""

    @pytest.mark.parametrize("dataset", ["abilene", "figure1"])
    def test_same_verdicts(self, dataset):
        if dataset == "abilene":
            instance = datasets.abilene(total_demand=1500.0)
            caps = {
                lid: 400.0 for lid in instance.network.links
            }
        else:
            instance = datasets.figure1_topology()
            caps = {"link1": 100.0, "link2": 100.0}
        vanilla = FeasibilityChecker(instance, aggregate=False)
        aggregated = FeasibilityChecker(instance, aggregate=True)
        for failure in [None, *instance.failures]:
            a = vanilla.check(caps, failure)
            b = aggregated.check(caps, failure)
            assert a.satisfied == b.satisfied, failure
            assert a.served_demand == pytest.approx(b.served_demand, rel=1e-6)

    def test_aggregation_shrinks_model(self):
        instance = datasets.abilene(total_demand=1000.0)
        vanilla = FeasibilityChecker(instance, aggregate=False)
        aggregated = FeasibilityChecker(instance, aggregate=True)
        assert aggregated.num_variables < vanilla.num_variables
        assert aggregated.num_constraints < vanilla.num_constraints


class TestInstrumentation:
    def test_lp_solve_counter(self, triangle):
        checker = FeasibilityChecker(triangle)
        caps = triangle.network.capacities()
        checker.check(caps, None)
        checker.check(caps, triangle.failures[0])
        assert checker.lp_solves == 2

    def test_monotonicity_more_capacity_never_hurts(self, triangle):
        """If C survives a failure, C' >= C survives it too."""
        checker = FeasibilityChecker(triangle)
        base = {"ab": 10.0, "bc": 10.0, "ac": 10.0}
        bigger = {k: v + 7.0 for k, v in base.items()}
        for failure in [None, *triangle.failures]:
            if checker.check(base, failure).satisfied:
                assert checker.check(bigger, failure).satisfied


def grown(capacities, rng, unit):
    """A random capacity vector >= ``capacities`` (0-8 units per link)."""
    return {
        link_id: value + unit * int(rng.integers(0, 9))
        for link_id, value in capacities.items()
    }


class TestDualityCertificate:
    """served(c) <= certificate.bound(c) for every grown capacity vector."""

    def test_min_cut_link_carries_the_slope(self, triangle):
        checker = FeasibilityChecker(triangle)
        caps = {"ab": 4.0, "bc": 10.0, "ac": 10.0}
        cut_ac = triangle.failures[0]
        result = checker.check(caps, cut_ac)
        assert not result.satisfied
        certificate = result.certificate
        assert certificate is result.certificate  # built once, then cached
        assert certificate.required_demand == result.required_demand
        assert certificate.bound(caps) == pytest.approx(4.0)
        # The cut link can never help, and the slack bc link does not.
        assert set(certificate.slopes) == {"ab"}
        assert certificate.slopes["ab"] == pytest.approx(1.0)

    def test_satisfied_check_has_no_certificate(self, triangle):
        checker = FeasibilityChecker(triangle)
        assert checker.check(triangle.network.capacities(), None).certificate is None

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=5),
        scale=st.sampled_from([0.5, 0.7, 1.0]),
        unit=st.sampled_from([2.5, 10.0, 50.0]),
        aggregate=st.booleans(),
        draw_seed=st.integers(0, 2**16),
    )
    def test_bound_is_sound_and_tight_at_the_anchor(
        self, seed, scale, unit, aggregate, draw_seed
    ):
        instance = generators.make_instance(
            "A", seed=seed, scale=scale, horizon="short", capacity_unit=unit
        )
        checker = FeasibilityChecker(instance, aggregate=aggregate)
        oracle = FeasibilityChecker(instance, aggregate=aggregate)
        rng = np.random.default_rng(draw_seed)
        anchor = instance.network.capacities()
        certified = 0
        for failure in [None, *instance.failures]:
            result = checker.check(anchor, failure)
            if result.satisfied:
                continue
            certified += 1
            certificate = result.certificate
            tight = pytest.approx(result.served_demand, abs=1e-6)
            assert certificate.bound(anchor) == tight
            for _ in range(3):
                capacities = grown(anchor, rng, unit)
                served = oracle.check(capacities, failure).served_demand
                assert certificate.bound(capacities) >= served - 1e-9
        assert certified  # generated instances start under-provisioned

    def test_racing_first_reads_agree(self):
        """Threads that race to build one certificate all get the same one."""
        instance = generators.make_instance(
            "A", seed=0, scale=0.7, horizon="short", capacity_unit=10.0
        )
        anchor = instance.network.capacities()
        scenarios = [None, *instance.failures]

        def violations():
            checker = FeasibilityChecker(instance)
            results = [checker.check(anchor, failure) for failure in scenarios]
            return [result for result in results if not result.satisfied]

        reference = [result.certificate for result in violations()]
        shared = violations()
        start = threading.Barrier(16)
        reads, errors = [], []

        def read_all():
            try:
                start.wait(timeout=10)
                reads.append([result.certificate for result in shared])
            except Exception as error:  # surfaced by the assertion below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read_all) for _ in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(reads) == 16
        assert all(read == reference for read in reads)

    @settings(max_examples=12, deadline=None)
    @given(
        draw_seed=st.integers(0, 2**16),
        noise=st.sampled_from([0.0, 0.1, 1.0]),
        drop_capacity_duals=st.booleans(),
    )
    def test_any_dual_vector_gives_a_valid_bound(
        self, draw_seed, noise, drop_capacity_duals
    ):
        """The reduced-cost term keeps the bound valid off the optimum.

        Perturbing the solver's duals, or zeroing every capacity-row
        dual (which moves that row's value into its flows' reduced
        costs), must never push the bound below the served demand.
        """
        instance = generators.make_instance(
            "A", seed=0, scale=0.7, horizon="short", capacity_unit=10.0
        )
        checker = FeasibilityChecker(instance)
        oracle = FeasibilityChecker(instance)
        anchor = instance.network.capacities()
        scenarios = [None, *instance.failures]
        # The first violated scenario is also the model's last solve.
        failure = next(f for f in scenarios if not checker.check(anchor, f).satisfied)
        rng = np.random.default_rng(draw_seed)
        pi = checker._model.row_duals.values.copy()
        pi += rng.normal(scale=noise, size=pi.shape)
        if drop_capacity_duals:
            pi[checker._cap_rows] = 0.0
        template = checker._failure_template(failure, None)
        certificate = checker._certificate(RowDuals(lambda: pi), template)
        for capacities in [anchor] + [grown(anchor, rng, 10.0) for _ in range(3)]:
            served = oracle.check(capacities, failure).served_demand
            assert certificate.bound(capacities) >= served - 1e-9


def checker_on(backend, instance):
    """A checker whose LP runs on ``backend`` (``NEUROPLAN_LP_BACKEND``)."""
    with mock.patch.dict(os.environ, {"NEUROPLAN_LP_BACKEND": backend}):
        return FeasibilityChecker(instance)


class TestVerdictsAreBasisIndependent:
    """Per-failure saved bases change simplex paths, never verdicts.

    The keyed checker (persistent HiGHS, each failure restarting from
    its own last optimal basis) walks a random add-only capacity
    trajectory with random demand retargets.  After every move each
    scenario is checked on it and on a checker on the stateless linprog
    backend, whose answer cannot depend on any earlier solve.
    """

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        band=st.sampled_from(["A", "B"]),
        seed=st.integers(min_value=0, max_value=5),
        scale=st.sampled_from([0.3, 0.5, 0.7]),
        unit=st.sampled_from([10.0, 50.0]),
        moves=st.lists(
            st.one_of(
                st.floats(min_value=0.5, max_value=2.0),  # retarget factor
                st.integers(min_value=0, max_value=2**16),  # growth seed
            ),
            min_size=3,
            max_size=6,
        ),
    )
    def test_keyed_checks_match_the_linprog_reference(
        self, band, seed, scale, unit, moves
    ):
        instance = generators.make_instance(
            band, seed=seed, scale=scale, horizon="short", capacity_unit=unit
        )
        keyed = checker_on("persistent", instance)
        reference = checker_on("linprog", instance)
        scenarios = [None, *instance.failures]
        capacities = instance.network.capacities()
        for move in moves:
            if isinstance(move, float):
                traffic = instance.traffic.scaled(move)
                changed = keyed.retarget_demands(traffic)
                assert changed == reference.retarget_demands(traffic)
                rng = np.random.default_rng(0)
            else:
                rng = np.random.default_rng(move)
                capacities = grown(capacities, rng, unit)
            results = [keyed.check(capacities, f) for f in scenarios]
            expected = [reference.check(capacities, f) for f in scenarios]
            for got, want in zip(results, expected):
                assert got.failure_id == want.failure_id
                assert got.satisfied == want.satisfied
                assert got.served_demand == pytest.approx(
                    want.served_demand, rel=1e-6, abs=1e-9
                )
            violated = [r for r in results if not r.satisfied]
            assert [r.failure_id for r in violated] == [
                r.failure_id for r in expected if not r.satisfied
            ]
            for result, failure in zip(results, scenarios):
                if result.satisfied:
                    continue
                certificate = result.certificate
                for _ in range(2):
                    probe = {
                        link_id: value * float(rng.uniform(0.0, 2.0))
                        for link_id, value in capacities.items()
                    }
                    served = reference.check(probe, failure).served_demand
                    assert certificate.bound(probe) >= served - 1e-9
