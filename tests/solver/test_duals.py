"""Row duals on both LP paths, and the certificates built from them.

``Model.row_duals`` reads HiGHS's ``getSolution().row_dual`` on the
persistent instance and the ``eqlin`` / ``ineqlin`` marginals on
linprog.  Both must come out in the model's objective sense, so the
feasibility checker's weak-duality certificate is valid whichever
backend solved the LP.
"""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.evaluator.feasibility import FeasibilityChecker
from repro.solver import Model, Status, Variable
from repro.solver.model import persistent_backend_available
from repro.topology import generators

BACKENDS = [
    pytest.param(
        "persistent",
        marks=pytest.mark.skipif(
            not persistent_backend_available(),
            reason="scipy does not vendor the HiGHS bindings",
        ),
    ),
    "linprog",
]


def small_lp(backend):
    """max x + 2y over <=, ==, >= and ranged rows; optimum (2.5, 1.5)."""
    m = Model("duals", lp_backend=backend)
    x = m.add_var(ub=3)
    y = m.add_var(ub=5)
    m.add_constr(x + y <= 4)
    m.add_constr(x - y == 1)
    m.add_constr(x + 0.5 * y >= 0.5)
    ranged = m.add_constr(x + 3 * y <= 10)
    ranged.set_rhs(lb=6.5, ub=10)
    m.set_objective(x + 2 * y, sense="max")
    return m


@pytest.mark.parametrize("backend", BACKENDS)
class TestRowDuals:
    def test_duals_in_objective_sense(self, backend):
        m = small_lp(backend)
        assert m.optimize() is Status.OPTIMAL
        assert m.objective_value == pytest.approx(5.5)
        duals = m.row_duals.values
        # One more unit on the binding <= row is worth 1.5; the equality
        # row costs 0.5 per unit; the slack rows are worth nothing.
        np.testing.assert_allclose(duals, [1.5, -0.5, 0.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(m.reduced_costs(duals), [0.0, 0.0], atol=1e-9)

    def test_binding_lower_bound_row(self, backend):
        m = Model("lower", lp_backend=backend)
        x = m.add_var(ub=10)
        y = m.add_var(ub=10)
        m.add_constr(x + y >= 4)
        ranged = m.add_constr(x - y <= 8)
        ranged.set_rhs(lb=1, ub=8)
        m.set_objective(3 * x + y)
        m.optimize()
        assert (x.x, y.x) == pytest.approx((2.5, 1.5))
        # Both lower bounds bind: the minimum is 2 * 4 + 1 * 1.
        np.testing.assert_allclose(m.row_duals.values, [2.0, 1.0], atol=1e-9)

    def test_handle_outlives_a_resolve(self, backend):
        m = small_lp(backend)
        m.optimize()
        handle = m.row_duals
        m.constraints[0].set_rhs(ub=6)
        with pytest.raises(SolverError, match="no LP duals"):
            m.row_duals  # bound change: the old duals are stale
        m.optimize()
        np.testing.assert_allclose(handle.values, [1.5, -0.5, 0.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(m.row_duals.values[0], 0.0, atol=1e-9)

    def test_feasibility_certificate_is_valid(self, backend, monkeypatch):
        monkeypatch.setenv("NEUROPLAN_LP_BACKEND", backend)
        instance = generators.make_instance(
            "A", seed=2, scale=0.7, horizon="short", capacity_unit=10.0
        )
        checker = FeasibilityChecker(instance)
        assert checker._model.lp_backend == backend
        oracle = FeasibilityChecker(instance)
        anchor = instance.network.capacities()
        rng = np.random.default_rng(0)
        for failure in [None, *instance.failures]:
            result = checker.check(anchor, failure)
            if result.satisfied:
                continue
            certificate = result.certificate
            tight = pytest.approx(result.served_demand, abs=1e-6)
            assert certificate.bound(anchor) == tight
            for _ in range(3):
                capacities = {
                    link_id: value + 10.0 * int(rng.integers(0, 9))
                    for link_id, value in anchor.items()
                }
                served = oracle.check(capacities, failure).served_demand
                assert certificate.bound(capacities) >= served - 1e-9


def test_no_duals_before_an_lp_solve():
    m = small_lp("linprog")
    with pytest.raises(SolverError, match="no LP duals"):
        m.row_duals
    z = m.add_var(ub=1, vtype=Variable.INTEGER)
    m.add_constr(z <= 1)
    m.optimize()
    with pytest.raises(SolverError, match="no LP duals"):
        m.row_duals  # a MILP solve has no row duals
