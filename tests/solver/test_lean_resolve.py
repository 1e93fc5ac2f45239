"""The lean LP re-solve path: index-array bound writes, the objective
read without ``getInfo()``, and the primal copied only when read."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.errors import SolverError
from repro.evaluator.feasibility import FeasibilityChecker
from repro.solver import Model, Status
from repro.solver.model import persistent_backend_available
from repro.topology import generators

needs_persistent = pytest.mark.skipif(
    not persistent_backend_available(), reason="persistent HiGHS backend missing"
)


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def bounded_model(num_vars: int) -> Model:
    model = Model("bounds")
    variables = [model.add_var(lb=0.0, ub=10.0) for _ in range(num_vars)]
    for var in variables:
        model.add_constr(var <= 10.0)
    return model


def model_state(model: Model) -> tuple:
    return (
        model._row_ub.array.tobytes(),
        model._var_ub.array.tobytes(),
        [c.ub for c in model.constraints],
        [v.ub for v in model.variables],
        set(model._dirty_rows),
        set(model._dirty_cols),
    )


class TestIndexArrayWrites:
    @settings(max_examples=40, deadline=None)
    @given(
        writes=st.lists(
            st.tuples(
                st.booleans(),
                st.lists(st.integers(0, 11), min_size=1, max_size=6, unique=True),
                st.floats(0.0, 1e6, allow_nan=False),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_match_the_object_forms(self, writes):
        by_object, by_index = bounded_model(12), bounded_model(12)
        for rows, chosen, value in writes:
            values = np.full(len(chosen), value) + np.arange(len(chosen))
            indices = np.array(chosen, dtype=np.int64)
            if rows:
                constraints = [by_object.constraints[i] for i in chosen]
                by_object.set_row_ubs(constraints, values)
                by_index.set_row_ubs_at(indices, values)
            else:
                variables = [by_object.variables[i] for i in chosen]
                by_object.set_var_ubs(variables, values)
                by_index.set_var_ubs_at(indices, values)
            assert model_state(by_index) == model_state(by_object)

    def test_bound_crossing_rejected(self):
        model = Model("cross")
        x = model.add_var(lb=2.0, ub=5.0)
        model.add_constr(x >= 3.0)
        with pytest.raises(SolverError):
            model.set_row_ubs_at(np.array([0]), np.array([1.0]))
        with pytest.raises(SolverError):
            model.set_var_ubs_at(np.array([0]), np.array([1.0]))


@needs_persistent
class TestPersistentObjective:
    def test_objective_matches_the_info_block(self):
        """getObjectiveValue() is the info block's objective, bit for bit,
        over every feasibility LP of a failure sweep at growing capacities."""
        instance = generators.make_instance("A", seed=0, scale=0.5)
        checker = FeasibilityChecker(instance)
        model = checker._model
        if model.lp_backend != "persistent":
            pytest.skip("feasibility LPs run on the linprog backend here")
        capacities = instance.network.capacities()
        link_ids = list(capacities)
        rng = np.random.default_rng(0)
        solved = 0
        for _ in range(6):
            for failure in [None, *instance.failures]:
                checker.check(capacities, failure)
                highs = model._persistent._highs
                info = highs.getInfo()
                assert bits(highs.getObjectiveValue()) == bits(
                    info.objective_function_value
                )
                assert model.objective_value == -info.objective_function_value
                solved += 1
            for link_id in rng.choice(link_ids, size=3, replace=False):
                capacities[link_id] += instance.capacity_unit
        assert solved > 0

    def test_primal_read_on_demand(self):
        model = Model("primal", lp_backend="persistent")
        x = model.add_var(ub=4.0)
        y = model.add_var(ub=3.0)
        row = model.add_constr(x + y <= 5.0)
        model.set_objective(2 * x + y, sense="max")
        assert model.optimize() is Status.OPTIMAL
        assert model.has_incumbent
        assert (x.x, y.x) == (4.0, 1.0)
        np.testing.assert_array_equal(model.values([y, x]), [1.0, 4.0])
        assert row.activity == 5.0
        model.set_var_ubs_at(np.array([0]), np.array([1.0]))
        assert not model.has_incumbent
        assert model.optimize() is Status.OPTIMAL
        assert (x.x, y.x) == (1.0, 3.0)

    def test_iterations_still_counted_with_telemetry(self):
        telemetry.disable()
        telemetry.reset()
        telemetry.enable()
        try:
            model = Model("iterations", lp_backend="persistent")
            x = model.add_var(ub=4.0)
            y = model.add_var(ub=3.0)
            model.add_constr(x + y <= 5.0)
            model.set_objective(2 * x + y, sense="max")
            assert model.optimize() is Status.OPTIMAL
            assert telemetry.counter_value("solver.lp_iterations") >= 1
        finally:
            telemetry.disable()
            telemetry.reset()
