"""Per-key saved bases on the persistent LP backend.

``Model.optimize(basis_key=k)`` restarts the persistent HiGHS instance
from the last optimal basis saved under ``k`` instead of from whatever
the previous solve left, and counts the restore and the simplex
iterations when telemetry is on.  The key may only change how the
solver gets to the optimum, never the optimum; every other path
(linprog, budgeted, relaxed, MILP) ignores it.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.solver import Model, Status, Variable, quicksum
from repro.solver.model import persistent_backend_available

requires_persistent = pytest.mark.skipif(
    not persistent_backend_available(),
    reason="scipy does not vendor the HiGHS bindings",
)


@pytest.fixture(autouse=True)
def clean_registry():
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


def grid_flow(backend=None, n=4):
    """Max corner-to-corner flow on an n x n grid; one capacity row per arc.

    Big enough that presolve cannot empty it, so a solve's simplex
    iterations show how far its starting basis was from the optimum.
    """
    model = Model("grid", lp_backend=backend)
    nodes = [(i, j) for i in range(n) for j in range(n)]
    arcs = [
        (v, (v[0] + di, v[1] + dj))
        for v in nodes
        for di, dj in ((0, 1), (1, 0), (0, -1), (-1, 0))
        if 0 <= v[0] + di < n and 0 <= v[1] + dj < n
    ]
    flow = {arc: model.add_var() for arc in arcs}
    served = model.add_var()
    for v in nodes:
        out = quicksum(flow[a] for a in arcs if a[0] == v)
        into = quicksum(flow[a] for a in arcs if a[1] == v)
        rhs = served if v == nodes[0] else -1 * served if v == nodes[-1] else 0
        model.add_constr(out - into == rhs)
    rows = [model.add_constr(flow[arc] <= 1.0) for arc in arcs]
    model.set_objective(served, sense="max")
    return model, rows


def capacity_patterns(rows, count=2, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.uniform(1.0, 10.0, len(rows)) for _ in range(count)]


def solve(model, rows, capacities, key):
    """One keyed solve; returns (objective, iterations, restores) it added."""
    iterations = telemetry.counter_value("solver.lp_iterations")
    restores = telemetry.counter_value("solver.lp_basis_restores")
    model.set_row_ubs(rows, capacities)
    assert model.optimize(basis_key=key) is Status.OPTIMAL
    return (
        model.objective_value,
        telemetry.counter_value("solver.lp_iterations") - iterations,
        telemetry.counter_value("solver.lp_basis_restores") - restores,
    )


@requires_persistent
class TestSavedBases:
    """Driven on an explicit persistent model, whatever the default."""

    def test_returning_key_restarts_from_its_own_basis(self):
        model, rows = grid_flow("persistent")
        a, b = capacity_patterns(rows)
        telemetry.enable()
        first = solve(model, rows, a, "A")
        second = solve(model, rows, b, "B")
        third = solve(model, rows, a, "A")
        assert first[1] > 0 and second[1] > 0
        assert second[2] == 0  # B had no saved basis yet
        assert third[0] == pytest.approx(first[0], rel=1e-12)
        assert third[1:] == (0.0, 1.0)

    def test_unkeyed_solve_starts_from_the_last_basis(self):
        model, rows = grid_flow("persistent")
        a, b = capacity_patterns(rows)
        telemetry.enable()
        first = solve(model, rows, a, None)
        solve(model, rows, b, None)
        third = solve(model, rows, a, None)
        assert third[0] == pytest.approx(first[0], rel=1e-12)
        assert third[1] > 0  # B's basis is not A's optimum
        assert telemetry.counter_value("solver.lp_basis_restores") == 0

    def test_same_key_twice_keeps_the_live_basis(self):
        model, rows = grid_flow("persistent")
        a, b = capacity_patterns(rows)
        telemetry.enable()
        solve(model, rows, a, "A")
        solve(model, rows, b, "A")
        assert telemetry.counter_value("solver.lp_basis_restores") == 0

    def test_recompiling_drops_every_saved_basis(self):
        model, rows = grid_flow("persistent")
        a, b = capacity_patterns(rows)
        telemetry.enable()
        solve(model, rows, a, "A")
        solve(model, rows, b, "B")
        model.add_var()  # structural change: the matrix recompiles
        solve(model, rows, a, "A")
        assert telemetry.counter_value("solver.lp_basis_restores") == 0

    def test_counters_stay_off_without_telemetry(self):
        model, rows = grid_flow("persistent")
        a, b = capacity_patterns(rows)
        for capacities, key in ((a, "A"), (b, "B"), (a, "A")):
            solve(model, rows, capacities, key)
        snapshot = telemetry.snapshot()["counters"]
        assert "solver.lp_iterations" not in snapshot
        assert "solver.lp_basis_restores" not in snapshot


class TestKeyNeverChangesAnswers:
    @pytest.mark.parametrize(
        "backend",
        [pytest.param("persistent", marks=requires_persistent), "linprog"],
    )
    def test_keyed_and_unkeyed_optima_agree(self, backend):
        model, rows = grid_flow(backend)
        reference, reference_rows = grid_flow("linprog")
        patterns = capacity_patterns(rows, count=4, seed=3)
        for step in range(12):
            index = step % len(patterns)
            capacities = patterns[index]
            model.set_row_ubs(rows, capacities)
            reference.set_row_ubs(reference_rows, capacities)
            assert model.optimize(basis_key=f"k{index}") is Status.OPTIMAL
            assert reference.optimize() is Status.OPTIMAL
            assert model.objective_value == pytest.approx(
                reference.objective_value, rel=1e-9
            )

    def test_linprog_ignores_the_key(self):
        telemetry.enable()
        model, rows = grid_flow("linprog")
        a, b = capacity_patterns(rows)
        for capacities, key in ((a, "A"), (b, "B"), (a, "A")):
            solve(model, rows, capacities, key)
        assert telemetry.counter_value("solver.lp_basis_restores") == 0
        assert telemetry.counter_value("solver.lp_iterations") == 0

    @requires_persistent
    def test_budgeted_relaxed_and_milp_solves_ignore_the_key(self):
        telemetry.enable()
        model, rows = grid_flow("persistent")
        a, b = capacity_patterns(rows)
        expected = solve(model, rows, a, "A")[0]
        solve(model, rows, b, "B")
        # A key the persistent path would restore from goes unused.
        model.set_row_ubs(rows, a)
        assert model.optimize(basis_key="A", time_limit=60.0) is Status.OPTIMAL
        assert model.objective_value == pytest.approx(expected, rel=1e-9)
        milp = Model("milp", lp_backend="persistent")
        x = milp.add_var(ub=10.0, vtype=Variable.INTEGER)
        y = milp.add_var(ub=10.0)
        cap = milp.add_constr(x + y <= 7.5)
        milp.set_objective(x + 2.0 * y, sense="max")
        assert milp.optimize(basis_key="A") is Status.OPTIMAL
        assert milp.objective_value == pytest.approx(15.0)
        for key, ub in (("A", 7.5), ("B", 3.0), ("A", 7.5)):
            cap.set_rhs(ub=ub)
            assert milp.optimize(basis_key=key, relax=True) is Status.OPTIMAL
        assert milp.objective_value == pytest.approx(15.0)
        assert telemetry.counter_value("solver.lp_basis_restores") == 0
