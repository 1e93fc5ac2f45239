"""The optimization model: variables, constraints, objective, optimize().

Compilation strategy
--------------------
Constraints are normalized to rows of a single sparse matrix ``A`` with
per-row bounds ``row_lb <= A x <= row_ub`` (equalities have
``row_lb == row_ub``).  The matrix is compiled lazily and cached;
*adding* variables or constraints invalidates the cache, while updating
variable bounds or a constraint's RHS does not.  That asymmetry is what
makes the plan evaluator's stateful failure checking cheap: toggling a
failure only rewrites bounds, and re-solving reuses the compiled matrix
(the paper's "only update the constraints that are influenced by the
failure" optimization).

Incremental arrays
------------------
Row bounds, variable bounds and the signed objective vector are
mirrored into persistent numpy arrays that grow with the model and are
updated in place: ``Constraint.set_rhs`` / ``Variable.set_bounds``
write single cells, and the bulk APIs (:meth:`Model.set_row_ubs`,
:meth:`Model.set_var_ubs`, and their by-index forms
:meth:`Model.set_row_ubs_at` / :meth:`Model.set_var_ubs_at`) write
vectorized slices.  ``optimize()``
therefore rebuilds nothing -- per-solve cost is proportional to what
changed since the last solve, not to the model size.

The MILP warm-start cutoff participates in the same scheme: instead of
an add/pop pair that discarded the compiled matrix on every warm-started
solve, the cutoff lives in a hidden persistent row (appended after the
user rows at compile time) whose RHS is set to the hint objective during
a warm-started solve and to ``+inf`` otherwise.  The row is invisible to
:attr:`Model.constraints` / :attr:`Model.num_constraints`.

Backends
--------
Models with integer variables solve with ``scipy.optimize.milp``
(HiGHS).  Unbudgeted LP solves run on a *persistent* HiGHS instance
(the bindings scipy vendors) created once per compiled matrix: bound
and objective updates are pushed as deltas (``changeRowBounds`` /
``changeColsBounds`` over the dirty indices only) and each re-solve
starts from the previous optimal basis -- the incremental-update
optimization that makes thousands of per-step feasibility re-checks
affordable.  A caller that cycles through several bound patterns (the
feasibility checker's failure scenarios) passes ``optimize(basis_key=)``
so each pattern restarts from its *own* last optimal basis, saved and
restored with ``getBasis`` / ``setBasis``.  Budgeted LP solves
(``time_limit`` / ``iteration_limit``) and environments without the
vendored bindings fall back to ``scipy.optimize.linprog``, preserving
the documented budget semantics.
``optimize(relax=True)`` solves the LP relaxation of a MILP.  A
warm-start hint is emulated with an objective cutoff (see
:meth:`Model.optimize`).

Both LP paths also expose the row duals of the last solve
(:attr:`Model.row_duals`): HiGHS's ``getSolution().row_dual`` on the
persistent instance, the ``eqlin`` / ``ineqlin`` marginals on linprog.
They, like the primal values, are kept as the backend's own result
object and converted only when read, so a caller that never asks pays
nothing.  The persistent path reads the objective with
``getObjectiveValue()`` and copies the solver's info block only when
telemetry wants the iteration count.
"""

from __future__ import annotations

import math
import os
import time
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from repro import telemetry
from repro.errors import SolverError, SolverTimeoutError
from repro.resilience import faults
from repro.solver.expression import ConstraintSpec, LinExpr, Variable
from repro.solver.status import Status

_INF = math.inf

try:  # scipy >= 1.15 vendors the highspy bindings
    from scipy.optimize._highspy import _core as _highs_core
except ImportError:  # pragma: no cover - exercised via the linprog fallback
    _highs_core = None


def persistent_backend_available() -> bool:
    """Whether the persistent HiGHS LP backend can be used."""
    return _highs_core is not None


class _GrowableArray:
    """Amortized-growth float64 array (capacity doubling).

    Backs the model's incremental bound/objective vectors: ``append``
    is amortized O(1) and :attr:`array` is a zero-copy view of the live
    prefix, so per-solve access never rebuilds anything.
    """

    __slots__ = ("_buf", "_size")

    def __init__(self, capacity: int = 16):
        self._buf = np.empty(capacity, dtype=np.float64)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def append(self, value: float) -> None:
        if self._size == self._buf.shape[0]:
            grown = np.empty(self._buf.shape[0] * 2, dtype=np.float64)
            grown[: self._size] = self._buf[: self._size]
            self._buf = grown
        self._buf[self._size] = value
        self._size += 1

    @property
    def array(self) -> np.ndarray:
        """Writable view of the live prefix (invalidated by growth)."""
        return self._buf[: self._size]


class _LazyVector:
    """One solve's vector, converted from the backend's result on first read.

    Holds a reader over the backend's own result object (a copied HiGHS
    solution, a linprog or milp result), so taking one costs a
    reference and it stays valid after the model is re-solved.
    """

    __slots__ = ("_read", "_values")

    def __init__(self, read: Callable[[], np.ndarray]):
        self._read = read
        self._values: np.ndarray | None = None

    @property
    def values(self) -> np.ndarray:
        values = self._values
        if values is None:
            # Racing readers convert twice and store equal arrays.
            values = self._values = self._read()
        return values


class RowDuals(_LazyVector):
    """Row duals of one LP solve, converted on first read.

    :attr:`values` has one entry per constraint, in the model's
    objective sense: the rate at which the optimum moves with that
    constraint's binding bound (``>= 0`` for a binding ``<=`` row of a
    maximization).
    """

    __slots__ = ()


class _PersistentLPError(Exception):
    """Internal: the persistent backend could not finish this solve."""


class _PersistentLP:
    """One HiGHS instance kept hot across re-solves of a fixed matrix.

    The instance owns a C++ copy of the constraint matrix; callers push
    bound/cost deltas and re-run, reusing the previous optimal basis.
    A keyed solve instead starts from the last optimal basis saved under
    its key (see :meth:`solve`); the saved bases live and die with the
    instance, so recompiling the matrix drops them all.
    """

    __slots__ = ("_highs", "solve_count", "_bases", "_basis_key")

    def __init__(self, matrix, row_lb, row_ub, var_lb, var_ub, cost):
        csc = matrix.tocsc()
        lp = _highs_core.HighsLp()
        lp.num_col_ = int(matrix.shape[1])
        lp.num_row_ = int(matrix.shape[0])
        lp.col_cost_ = np.ascontiguousarray(cost, dtype=np.float64)
        lp.col_lower_ = np.ascontiguousarray(var_lb, dtype=np.float64)
        lp.col_upper_ = np.ascontiguousarray(var_ub, dtype=np.float64)
        lp.row_lower_ = np.ascontiguousarray(row_lb, dtype=np.float64)
        lp.row_upper_ = np.ascontiguousarray(row_ub, dtype=np.float64)
        lp.a_matrix_.format_ = _highs_core.MatrixFormat.kColwise
        lp.a_matrix_.start_ = csc.indptr.astype(np.int32)
        lp.a_matrix_.index_ = csc.indices.astype(np.int32)
        lp.a_matrix_.value_ = np.ascontiguousarray(csc.data, dtype=np.float64)
        highs = _highs_core._Highs()
        highs.setOptionValue("output_flag", False)
        if highs.passModel(lp) == _highs_core.HighsStatus.kError:
            raise _PersistentLPError("HiGHS rejected the model")
        self._highs = highs
        self.solve_count = 0
        self._bases: dict = {}
        # Key whose optimal basis HiGHS currently holds (None: unkeyed).
        self._basis_key = None

    def update_rows(self, indices, lower, upper) -> None:
        """Push row bounds; all three are plain lists of Python numbers."""
        highs = self._highs
        for index, lb, ub in zip(indices, lower, upper):
            highs.changeRowBounds(index, lb, ub)

    def update_cols(self, indices, lower, upper) -> None:
        idx = np.asarray(indices, dtype=np.int32)
        self._highs.changeColsBounds(
            idx.shape[0],
            idx,
            np.ascontiguousarray(lower, dtype=np.float64),
            np.ascontiguousarray(upper, dtype=np.float64),
        )

    def update_cost(self, cost) -> None:
        cost = np.ascontiguousarray(cost, dtype=np.float64)
        idx = np.arange(cost.shape[0], dtype=np.int32)
        self._highs.changeColsCost(cost.shape[0], idx, cost)

    def solve(self, basis_key=None) -> "tuple[Status, float | None, object]":
        """Run HiGHS; return (status, signed objective, HighsSolution).

        With a ``basis_key``, the solve starts from the last optimal
        basis saved under that key (unless HiGHS already holds it) and
        saves its own optimal basis there.  Any basis is a valid start,
        so the key only changes how many simplex iterations run.
        """
        highs = self._highs
        if basis_key is not None and basis_key != self._basis_key:
            basis = self._bases.get(basis_key)
            if basis is not None:
                highs.setBasis(basis)
                if telemetry.enabled():
                    telemetry.counter("solver.lp_basis_restores")
        self._basis_key = None
        highs.run()
        self.solve_count += 1
        model_status = highs.getModelStatus()
        core = _highs_core.HighsModelStatus
        if model_status == core.kOptimal:
            if telemetry.enabled():
                # getInfo() copies every info field; only telemetry
                # reads one of them.
                telemetry.counter(
                    "solver.lp_iterations", highs.getInfo().simplex_iteration_count
                )
            if basis_key is not None:
                self._bases[basis_key] = highs.getBasis()
                self._basis_key = basis_key
            # getSolution() returns a copy, so it outlives later re-solves.
            return Status.OPTIMAL, highs.getObjectiveValue(), highs.getSolution()
        if model_status == core.kInfeasible:
            return Status.INFEASIBLE, None, None
        if model_status == core.kUnbounded:
            return Status.UNBOUNDED, None, None
        # kUnboundedOrInfeasible and anything exotic: let the linprog
        # path (with its own presolve configuration) disambiguate.
        raise _PersistentLPError(f"unexpected HiGHS status {model_status}")


def _solution_of(result) -> _LazyVector:
    """The primal values of a linprog or milp result."""
    x = result.x
    return _LazyVector(lambda: np.asarray(x))


def _linprog_row_duals(result, eq_mask, ub_mask, lb_mask) -> np.ndarray:
    """Per-row duals from linprog's marginals (minimization sense).

    linprog receives the rows split into ``A_eq``, ``A_ub`` (upper
    bounds) and negated ``A_ub`` rows (lower bounds); a ranged row's
    dual is its upper part minus its lower part.
    """
    duals = np.zeros(eq_mask.shape[0])
    if eq_mask.any():
        duals[eq_mask] = result.eqlin.marginals
    num_ub = int(np.count_nonzero(ub_mask))
    if num_ub:
        duals[ub_mask] = result.ineqlin.marginals[:num_ub]
    if lb_mask.any():
        duals[lb_mask] -= result.ineqlin.marginals[num_ub:]
    return duals


class Constraint:
    """A normalized row ``lb <= expr <= ub`` (without the constant term)."""

    __slots__ = ("index", "name", "coeffs", "lb", "ub", "_model")

    def __init__(self, index, name, coeffs, lb, ub, model):
        self.index = index
        self.name = name
        self.coeffs = coeffs  # dict var_index -> coefficient
        self.lb = lb
        self.ub = ub
        self._model = model

    def set_rhs(self, lb: float | None = None, ub: float | None = None) -> None:
        """Update the row bounds without recompiling the matrix."""
        if lb is not None:
            self.lb = float(lb)
        if ub is not None:
            self.ub = float(ub)
        if self.lb > self.ub + 1e-12:
            raise SolverError(f"constraint {self.name}: lb exceeds ub")
        self._model._sync_row_bounds(self.index, self.lb, self.ub)

    @property
    def slack(self) -> float:
        """ub - activity at the current solution (inf if ub is inf)."""
        activity = self._model._row_activity(self)
        return self.ub - activity

    @property
    def activity(self) -> float:
        """Row value at the current solution."""
        return self._model._row_activity(self)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Constraint({self.name}, [{self.lb}, {self.ub}])"


class Model:
    """An LP/MILP model with a Gurobi-like API.

    Example::

        m = Model("diet")
        x = m.add_var(lb=0, name="x")
        y = m.add_var(lb=0, vtype=Variable.INTEGER, name="y")
        m.add_constr(x + 2 * y >= 3)
        m.set_objective(x + y)
        status = m.optimize()
        assert status is Status.OPTIMAL
        print(m.objective_value, x.x, y.x)

    ``lp_backend`` selects how pure-LP solves run: ``"persistent"``
    (default when available) keeps a hot HiGHS instance across
    re-solves, ``"linprog"`` forces the stateless scipy path.  The
    ``NEUROPLAN_LP_BACKEND`` environment variable overrides the
    default for all models.
    """

    def __init__(self, name: str = "model", lp_backend: str | None = None):
        if lp_backend is None:
            lp_backend = os.environ.get("NEUROPLAN_LP_BACKEND", "persistent")
        if lp_backend not in ("persistent", "linprog"):
            raise SolverError(
                f"lp_backend must be 'persistent' or 'linprog', got {lp_backend!r}"
            )
        self.name = name
        self.lp_backend = lp_backend
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self._objective = LinExpr()
        self._sense = 1  # 1 = minimize, -1 = maximize
        self._matrix: sp.csr_matrix | None = None
        self._lp_split: tuple | None = None
        self._solution: _LazyVector | None = None
        self._row_duals: RowDuals | None = None
        self._objective_value: float | None = None
        self._status = Status.NOT_SOLVED
        self._solve_time = 0.0
        self._solve_count = 0
        # Incremental mirrors (see "Incremental arrays" in the module
        # docstring): grown by add_var/add_constr, written in place by
        # the bound setters, never rebuilt at solve time.
        self._row_lb = _GrowableArray()
        self._row_ub = _GrowableArray()
        self._var_lb = _GrowableArray()
        self._var_ub = _GrowableArray()
        self._obj_signed = _GrowableArray()
        self._integrality = _GrowableArray()
        self._num_integer = 0
        # Persistent-backend state: indices whose bounds changed since
        # they were last pushed to the hot HiGHS instance.
        self._persistent: _PersistentLP | None = None
        self._dirty_rows: set[int] = set()
        self._dirty_cols: set[int] = set()
        self._objective_dirty = False
        # Warm-start cutoff: a hidden row appended after the user rows.
        self._cutoff_coeffs: dict[int, float] | None = None
        self._cutoff_ub = _INF
        self._cutoff_dirty = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_var(
        self,
        lb: float = 0.0,
        ub: float = _INF,
        vtype: str = Variable.CONTINUOUS,
        name: str | None = None,
    ) -> Variable:
        """Create a decision variable."""
        if vtype not in (Variable.CONTINUOUS, Variable.INTEGER, Variable.BINARY):
            raise SolverError(f"unknown vtype {vtype!r}")
        if vtype == Variable.BINARY:
            lb, ub = max(lb, 0.0), min(ub, 1.0)
        if lb > ub:
            raise SolverError(f"variable lb {lb} exceeds ub {ub}")
        index = len(self.variables)
        var = Variable(index, name or f"x{index}", lb, ub, vtype, self)
        self.variables.append(var)
        self._var_lb.append(var.lb)
        self._var_ub.append(var.ub)
        self._obj_signed.append(0.0)
        integer = vtype != Variable.CONTINUOUS
        self._integrality.append(1.0 if integer else 0.0)
        self._num_integer += integer
        self._invalidate()
        return var

    def add_vars(
        self,
        count: int,
        lb: float = 0.0,
        ub: float = _INF,
        vtype: str = Variable.CONTINUOUS,
        prefix: str = "x",
    ) -> list[Variable]:
        """Create ``count`` homogeneous variables."""
        return [
            self.add_var(lb=lb, ub=ub, vtype=vtype, name=f"{prefix}{i}")
            for i in range(count)
        ]

    def add_constr(self, spec: ConstraintSpec, name: str | None = None) -> Constraint:
        """Add a constraint built from a comparison, e.g. ``x + y <= 3``."""
        if not isinstance(spec, ConstraintSpec):
            raise SolverError(
                "add_constr expects a comparison like `expr <= rhs`, got "
                f"{type(spec).__name__}"
            )
        rhs = -spec.expr.constant
        coeffs = {i: c for i, c in spec.expr.coeffs.items() if c != 0.0}
        if spec.sense == "<=":
            lb, ub = -_INF, rhs
        elif spec.sense == ">=":
            lb, ub = rhs, _INF
        else:
            lb = ub = rhs
        index = len(self.constraints)
        constr = Constraint(index, name or f"c{index}", coeffs, lb, ub, self)
        self.constraints.append(constr)
        self._row_lb.append(lb)
        self._row_ub.append(ub)
        self._invalidate()
        return constr

    def set_objective(self, expr: "LinExpr | Variable", sense: str = "min") -> None:
        """Set the (linear) objective; ``sense`` is ``"min"`` or ``"max"``."""
        expr = LinExpr._coerce(expr)
        if sense not in ("min", "max"):
            raise SolverError("sense must be 'min' or 'max'")
        self._objective = expr
        self._sense = 1 if sense == "min" else -1
        signed = self._obj_signed.array
        signed[:] = 0.0
        for index, coeff in expr.coeffs.items():
            signed[index] = coeff * self._sense
        self._objective_dirty = True
        self._mark_solution_stale()

    # ------------------------------------------------------------------
    # Incremental bound updates
    # ------------------------------------------------------------------
    def _sync_row_bounds(self, index: int, lb: float, ub: float) -> None:
        """Write one row's bounds into the incremental arrays."""
        self._row_lb.array[index] = lb
        self._row_ub.array[index] = ub
        self._dirty_rows.add(index)
        self._mark_solution_stale()

    def _sync_var_bounds(self, index: int, lb: float, ub: float) -> None:
        """Write one variable's bounds into the incremental arrays."""
        self._var_lb.array[index] = lb
        self._var_ub.array[index] = ub
        self._dirty_cols.add(index)
        self._mark_solution_stale()

    def set_row_ubs(self, constrs: Sequence[Constraint], values) -> None:
        """Vectorized ``set_rhs(ub=...)`` over many constraints at once.

        ``values`` must align with ``constrs``; lower bounds are left
        untouched.  One numpy write replaces per-row ``set_rhs`` calls.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (len(constrs),):
            raise SolverError(
                f"set_row_ubs: {len(constrs)} constraints but values shape "
                f"{values.shape}"
            )
        if len(constrs) == 0:
            return
        indices = np.fromiter(
            (c.index for c in constrs), dtype=np.int64, count=len(constrs)
        )
        self.set_row_ubs_at(indices, values)

    def set_row_ubs_at(self, indices: np.ndarray, values: np.ndarray) -> None:
        """:meth:`set_row_ubs` by row index: the evaluator's hot path.

        ``indices`` (int64) and ``values`` (float64) are aligned 1-D
        arrays; no ``Constraint`` list is built.  The constraints'
        ``ub`` mirrors are kept in step.
        """
        if (self._row_lb.array[indices] > values + 1e-12).any():
            raise SolverError("set_row_ubs: lb exceeds ub for at least one row")
        self._row_ub.array[indices] = values
        rows = indices.tolist()
        constraints = self.constraints
        for index, value in zip(rows, values.tolist()):
            constraints[index].ub = value
        self._dirty_rows.update(rows)
        self._mark_solution_stale()

    def set_var_ubs(self, variables: Sequence[Variable], values) -> None:
        """Vectorized ``set_bounds(ub=...)`` over many variables at once."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (len(variables),):
            raise SolverError(
                f"set_var_ubs: {len(variables)} variables but values shape "
                f"{values.shape}"
            )
        if len(variables) == 0:
            return
        indices = np.fromiter(
            (v.index for v in variables), dtype=np.int64, count=len(variables)
        )
        self.set_var_ubs_at(indices, values)

    def set_var_ubs_at(self, indices: np.ndarray, values: np.ndarray) -> None:
        """:meth:`set_var_ubs` by variable index (see :meth:`set_row_ubs_at`)."""
        if (self._var_lb.array[indices] > values + 1e-12).any():
            raise SolverError("set_var_ubs: lb exceeds ub for at least one variable")
        self._var_ub.array[indices] = values
        cols = indices.tolist()
        variables = self.variables
        for index, value in zip(cols, values.tolist()):
            variables[index].ub = value
        self._dirty_cols.update(cols)
        self._mark_solution_stale()

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def num_integer_variables(self) -> int:
        return self._num_integer

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _invalidate(self) -> None:
        if self._matrix is not None:
            # Only a *compiled* matrix being thrown away is a cache
            # invalidation worth counting; invalidating an un-compiled
            # model (during construction) is free.
            telemetry.counter("solver.cache_invalidations")
        self._matrix = None
        self._lp_split = None
        self._persistent = None
        self._dirty_rows.clear()
        self._dirty_cols.clear()
        self._mark_solution_stale()

    def _mark_solution_stale(self) -> None:
        self._solution = None
        self._row_duals = None
        self._objective_value = None
        self._status = Status.NOT_SOLVED

    def _compiled_matrix(self) -> sp.csr_matrix:
        if self._matrix is None:
            rows, cols, data = [], [], []
            for constr in self.constraints:
                for var_index, coeff in constr.coeffs.items():
                    rows.append(constr.index)
                    cols.append(var_index)
                    data.append(coeff)
            num_rows = len(self.constraints)
            if self._cutoff_coeffs is not None:
                for var_index, coeff in self._cutoff_coeffs.items():
                    rows.append(num_rows)
                    cols.append(var_index)
                    data.append(coeff)
                num_rows += 1
            self._matrix = sp.csr_matrix(
                (data, (rows, cols)),
                shape=(num_rows, len(self.variables)),
            )
        return self._matrix

    def _row_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Row bound views, including the hidden cutoff row if present."""
        lb, ub = self._row_lb.array, self._row_ub.array
        if self._cutoff_coeffs is not None:
            lb = np.append(lb, -_INF)
            ub = np.append(ub, self._cutoff_ub)
        return lb, ub

    def _var_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self._var_lb.array, self._var_ub.array

    def _objective_vector(self) -> np.ndarray:
        """The signed objective vector (a live view; do not mutate)."""
        return self._obj_signed.array

    # ------------------------------------------------------------------
    # Warm-start cutoff (hidden persistent row)
    # ------------------------------------------------------------------
    def _ensure_cutoff_row(self) -> None:
        """Make the hidden cutoff row exist and match the objective."""
        signed = {
            index: coeff * self._sense
            for index, coeff in self._objective.coeffs.items()
        }
        if self._cutoff_coeffs != signed:
            self._cutoff_coeffs = signed
            self._invalidate()

    def _set_cutoff_ub(self, ub: float) -> None:
        if ub == self._cutoff_ub:
            return
        self._cutoff_ub = ub
        self._cutoff_dirty = True
        self._mark_solution_stale()

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def optimize(
        self,
        time_limit: float | None = None,
        mip_gap: float | None = None,
        relax: bool = False,
        warm_start: "dict[Variable, float] | None" = None,
        cutoff_tolerance: float = 1e-6,
        node_limit: int | None = None,
        iteration_limit: int | None = None,
        basis_key: "str | None" = None,
    ) -> Status:
        """Solve the model and return a :class:`Status`.

        Parameters
        ----------
        time_limit:
            Wall-clock budget in seconds, mapped to HiGHS.  When the
            budget (or a node/iteration limit) is exhausted *without an
            incumbent solution*, the solve raises
            :class:`~repro.errors.SolverTimeoutError` -- callers with a
            fallback plan catch it and degrade; a budgeted MILP that
            found an incumbent returns :data:`Status.TIME_LIMIT` with
            the incumbent installed instead.
        mip_gap:
            Relative MIP gap at which to stop (MILP only).
        relax:
            Solve the LP relaxation, ignoring integrality.
        warm_start:
            Emulated MIP start: the hint's objective value (plus
            ``cutoff_tolerance``) becomes the RHS of a persistent
            objective-cutoff row, which prunes branch-and-bound the way
            an incumbent would.  The hint itself is not installed as a
            solution, so an infeasible hint merely makes the cutoff
            loose/void rather than corrupting the solve.  The row stays
            in the compiled matrix with RHS ``+inf`` between
            warm-started solves, so repeated warm starts never discard
            the compiled matrix.
        node_limit:
            Branch-and-bound node budget (MILP only), mapped to HiGHS.
        iteration_limit:
            Simplex iteration budget (LP only), mapped to HiGHS.
        basis_key:
            Names the bound pattern being solved (the feasibility
            checker passes its failure id).  On the persistent backend
            the solve starts from the last optimal basis saved under
            this key rather than from whatever the previous solve left,
            and saves its own.  The optimum is unique whatever the
            start, so the key changes iteration counts, not answers;
            the linprog, budgeted, relaxed and MILP paths ignore it.
        """
        if not self.variables:
            raise SolverError("cannot optimize a model with no variables")
        if faults.fires("solver.timeout", key=self.name):
            # Deterministic stand-in for a budget-exhausted solve: no
            # incumbent, typed error, model left in TIME_LIMIT state.
            self._mark_solution_stale()
            self._status = Status.TIME_LIMIT
            self._solve_count += 1
            telemetry.counter("solver.injected_timeouts")
            raise SolverTimeoutError(
                f"injected solver timeout for model {self.name!r}"
            )
        use_milp = not relax and self.num_integer_variables > 0
        self._row_duals = None
        start = time.perf_counter()

        if warm_start is not None and use_milp:
            hint_values = np.zeros(len(self.variables))
            for var, value in warm_start.items():
                hint_values[var.index] = value
            hint_objective = float(self._objective_vector() @ hint_values)
            self._ensure_cutoff_row()
            self._set_cutoff_ub(hint_objective + cutoff_tolerance)
        elif self._cutoff_coeffs is not None:
            self._set_cutoff_ub(_INF)

        if use_milp:
            status = self._solve_milp(time_limit, mip_gap, node_limit)
        else:
            status = self._solve_lp(
                time_limit, iteration_limit, None if relax else basis_key
            )
        self._solve_time = time.perf_counter() - start
        self._solve_count += 1
        self._status = status
        if telemetry.enabled():
            backend = "milp" if use_milp else "lp"
            telemetry.counter(f"solver.{backend}_solves")
            telemetry.observe(f"solver.{backend}_solve", self._solve_time)
            telemetry.event(
                "solver.solve",
                model=self.name,
                backend=backend,
                status=status.value,
                solve_time=self._solve_time,
                num_variables=self.num_variables,
                num_constraints=self.num_constraints,
                warm_start=warm_start is not None,
            )
        if status is Status.TIME_LIMIT and self._solution is None:
            raise SolverTimeoutError(
                f"model {self.name!r} exhausted its solve budget "
                f"(time_limit={time_limit}, node_limit={node_limit}, "
                f"iteration_limit={iteration_limit}) with no incumbent"
            )
        return status

    def _lp_matrices(self, row_lb: np.ndarray, row_ub: np.ndarray):
        """Split A into equality/inequality blocks; cache across RHS updates.

        The split depends only on which row bounds are finite/equal.  RHS
        updates in the evaluator keep those patterns stable, so the
        sliced sparse matrices are reused and only the b vectors are
        rebuilt per solve.
        """
        matrix = self._compiled_matrix()
        eq_mask = np.isclose(row_lb, row_ub) & np.isfinite(row_lb)
        ub_mask = np.isfinite(row_ub) & ~eq_mask
        lb_mask = np.isfinite(row_lb) & ~eq_mask
        if self._lp_split is not None:
            cached_eq, cached_ub, cached_lb, a_eq, a_ub = self._lp_split
            if (
                np.array_equal(cached_eq, eq_mask)
                and np.array_equal(cached_ub, ub_mask)
                and np.array_equal(cached_lb, lb_mask)
            ):
                return eq_mask, ub_mask, lb_mask, a_eq, a_ub
        a_eq = matrix[eq_mask] if eq_mask.any() else None
        a_ub_parts = []
        if ub_mask.any():
            a_ub_parts.append(matrix[ub_mask])
        if lb_mask.any():
            a_ub_parts.append(-matrix[lb_mask])
        a_ub = sp.vstack(a_ub_parts, format="csr") if a_ub_parts else None
        self._lp_split = (eq_mask, ub_mask, lb_mask, a_eq, a_ub)
        return eq_mask, ub_mask, lb_mask, a_eq, a_ub

    def _solve_lp(
        self,
        time_limit: float | None,
        iteration_limit: int | None = None,
        basis_key: "str | None" = None,
    ) -> Status:
        budgeted = time_limit is not None or iteration_limit is not None
        if (
            _highs_core is None
            or budgeted
            or self.lp_backend != "persistent"
        ):
            # Budgeted solves keep linprog's maxiter/time-limit
            # semantics (a zero budget must report TIME_LIMIT, not let
            # presolve finish the solve).
            return self._solve_lp_linprog(time_limit, iteration_limit)
        try:
            return self._solve_lp_persistent(basis_key)
        except _PersistentLPError:
            telemetry.counter("solver.persistent_fallbacks")
            self._persistent = None
            return self._solve_lp_linprog(time_limit, iteration_limit)

    def _solve_lp_persistent(self, basis_key: "str | None" = None) -> Status:
        """Solve on the hot HiGHS instance, pushing only dirty bounds."""
        persistent = self._persistent
        if persistent is None or self._matrix is None:
            matrix = self._compiled_matrix()
            row_lb, row_ub = self._row_bounds()
            var_lb, var_ub = self._var_bounds()
            persistent = _PersistentLP(
                matrix, row_lb, row_ub, var_lb, var_ub, self._objective_vector()
            )
            self._persistent = persistent
            self._dirty_rows.clear()
            self._dirty_cols.clear()
            self._objective_dirty = False
            self._cutoff_dirty = False
        else:
            if self._dirty_rows:
                indices = sorted(self._dirty_rows)
                persistent.update_rows(
                    indices,
                    self._row_lb.array[indices].tolist(),
                    self._row_ub.array[indices].tolist(),
                )
                self._dirty_rows.clear()
            if self._dirty_cols:
                indices = sorted(self._dirty_cols)
                persistent.update_cols(
                    indices,
                    self._var_lb.array[indices],
                    self._var_ub.array[indices],
                )
                self._dirty_cols.clear()
            if self._objective_dirty:
                persistent.update_cost(self._objective_vector())
            if self._cutoff_dirty and self._cutoff_coeffs is not None:
                persistent.update_rows(
                    [len(self.constraints)], [-_INF], [self._cutoff_ub]
                )
            if persistent.solve_count:
                telemetry.counter("solver.persistent_resolves")
        self._objective_dirty = False
        self._cutoff_dirty = False
        status, objective, solution = persistent.solve(basis_key)
        if status is Status.OPTIMAL:
            # Copying the primal values out of the HiGHS solution is
            # deferred until something reads them; the feasibility
            # checker only reads the objective and the duals.
            self._solution = _LazyVector(
                lambda: np.asarray(solution.col_value, dtype=np.float64)
            )
            self._objective_value = objective * self._sense
            num_rows, sense = len(self.constraints), self._sense
            self._row_duals = RowDuals(
                lambda: sense * np.asarray(solution.row_dual[:num_rows])
            )
        return status

    def _solve_lp_linprog(
        self, time_limit: float | None, iteration_limit: int | None = None
    ) -> Status:
        row_lb, row_ub = self._row_bounds()
        var_lb, var_ub = self._var_bounds()
        eq_mask, ub_mask, lb_mask, a_eq, a_ub = self._lp_matrices(row_lb, row_ub)
        b_eq = row_ub[eq_mask] if eq_mask.any() else None
        b_ub_parts = []
        if ub_mask.any():
            b_ub_parts.append(row_ub[ub_mask])
        if lb_mask.any():
            b_ub_parts.append(-row_lb[lb_mask])
        b_ub = np.concatenate(b_ub_parts) if b_ub_parts else None

        options = {"presolve": True}
        if time_limit is not None:
            options["time_limit"] = time_limit
        if iteration_limit is not None:
            options["maxiter"] = int(iteration_limit)
        result = linprog(
            self._objective_vector(),
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=np.column_stack([var_lb, var_ub]),
            method="highs",
            options=options,
        )
        if result.status == 0:
            self._solution = _solution_of(result)
            self._objective_value = float(result.fun) * self._sense
            num_rows, sense = len(self.constraints), self._sense
            masks = (eq_mask, ub_mask, lb_mask)
            self._row_duals = RowDuals(
                lambda: sense * _linprog_row_duals(result, *masks)[:num_rows]
            )
            return Status.OPTIMAL
        if result.status == 1:
            return Status.TIME_LIMIT
        if result.status == 2:
            return Status.INFEASIBLE
        if result.status == 3:
            return Status.UNBOUNDED
        return Status.ERROR

    def _solve_milp(
        self,
        time_limit: float | None,
        mip_gap: float | None,
        node_limit: int | None = None,
    ) -> Status:
        matrix = self._compiled_matrix()
        row_lb, row_ub = self._row_bounds()
        var_lb, var_ub = self._var_bounds()
        integrality = self._integrality.array
        options: dict = {}
        if time_limit is not None:
            options["time_limit"] = time_limit
        if mip_gap is not None:
            options["mip_rel_gap"] = mip_gap
        if node_limit is not None:
            options["node_limit"] = int(node_limit)
        constraints = (
            LinearConstraint(matrix, row_lb, row_ub) if matrix.shape[0] else None
        )
        result = milp(
            self._objective_vector(),
            constraints=constraints,
            integrality=integrality,
            bounds=Bounds(var_lb, var_ub),
            options=options,
        )
        if result.status == 0:
            self._solution = _solution_of(result)
            self._objective_value = float(result.fun) * self._sense
            return Status.OPTIMAL
        if result.status == 1:
            # Iteration/time limit; HiGHS may still return an incumbent.
            if result.x is not None:
                self._solution = _solution_of(result)
                self._objective_value = float(result.fun) * self._sense
            return Status.TIME_LIMIT
        if result.status == 2:
            return Status.INFEASIBLE
        if result.status == 3:
            return Status.UNBOUNDED
        return Status.ERROR

    # ------------------------------------------------------------------
    # Solution access
    # ------------------------------------------------------------------
    @property
    def status(self) -> Status:
        return self._status

    @property
    def has_incumbent(self) -> bool:
        return self._solution is not None

    @property
    def row_duals(self) -> RowDuals:
        """Row duals of the last LP solve (see :class:`RowDuals`)."""
        if self._row_duals is None:
            raise SolverError("no LP duals available; solve an LP first")
        return self._row_duals

    def reduced_costs(self, duals: np.ndarray) -> np.ndarray:
        """``objective - A^T duals`` per variable, in the objective sense.

        Exact for whatever ``duals`` is passed, optimal or not, which is
        what lets a caller turn any dual vector into a valid bound.
        """
        matrix = self._compiled_matrix()
        padded = np.zeros(matrix.shape[0])
        padded[: len(duals)] = duals
        return self._objective_vector() * self._sense - matrix.T @ padded

    @property
    def objective_value(self) -> float:
        if self._objective_value is None:
            raise SolverError("no solution available; call optimize() first")
        return self._objective_value + self._objective.constant

    @property
    def solve_time(self) -> float:
        """Wall-clock seconds spent in the last optimize call."""
        return self._solve_time

    @property
    def solve_count(self) -> int:
        """Number of optimize calls on this model (for instrumentation)."""
        return self._solve_count

    def _primal(self) -> np.ndarray:
        """The last solve's variable values."""
        if self._solution is None:
            raise SolverError("no solution available; call optimize() first")
        return self._solution.values

    def _value_of(self, var: Variable) -> float:
        return float(self._primal()[var.index])

    def _row_activity(self, constr: Constraint) -> float:
        solution = self._primal()
        matrix = self._compiled_matrix()
        start, end = matrix.indptr[constr.index], matrix.indptr[constr.index + 1]
        columns = matrix.indices[start:end]
        return float(matrix.data[start:end] @ solution[columns])

    def values(self, variables: Sequence[Variable]) -> np.ndarray:
        """Vectorized solution access for a list of variables."""
        return self._primal()[[v.index for v in variables]]
