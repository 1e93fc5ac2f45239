"""Per-failure feasibility LP.

The check "does capacity assignment C survive failure lambda?" is a
multi-commodity max-served-demand LP (much simpler than the full
planning ILP): route as much of the required demand as possible over
the surviving links; the plan survives iff everything routes.

One :class:`FeasibilityChecker` compiles the LP **once** per instance;
every subsequent check only rewrites variable bounds and capacity-row
RHS, so the compiled sparse matrix is reused across thousands of RL
steps (Section 5's incremental-update optimization).

Commodity granularity is the Fig. 7 knob:

- ``aggregate=False`` (vanilla): one commodity per flow;
- ``aggregate=True`` (source aggregation): one commodity per source.

Both keep one *served* variable per flow so per-CoS reliability policies
and site-failure exemptions stay expressible after aggregation.

Site-failure semantics: flows whose source or destination site failed
are exempt from the requirement (they cannot possibly be served), which
matches production plan evaluators.

A violated check also carries a weak-duality certificate built from
that LP's row duals (:class:`DualityCertificate`): an upper bound on
the served demand that is linear in the capacity vector and holds for
*every* capacity vector under the same failure and demand matrix.  It
is built on first read, so callers that only want verdicts pay nothing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable

import numpy as np

from repro import telemetry
from repro.errors import SolverError, TrafficError
from repro.solver import Model, Status, quicksum
from repro.solver.model import RowDuals
from repro.topology.failures import FailureScenario
from repro.topology.instance import PlanningInstance
from repro.topology.traffic import TrafficMatrix

_TOLERANCE = 1e-6


def _demand_fingerprint(flows) -> str:
    """Content digest of an ordered flow list: keys and demand values."""
    digest = hashlib.blake2b(digest_size=16)
    for flow in flows:
        digest.update(
            f"{flow.src}\0{flow.dst}\0{flow.cos.name}\0{flow.demand!r}\n".encode()
        )
    return digest.hexdigest()


@dataclass(frozen=True)
class _FailureMask:
    """The demand-independent part of one (failure, policy-filter) pair.

    Which capacity rows zero out (failed links) and which flows stay
    required (not exempted by a failed site or the policy filter).
    Computed on a failure's first check and kept for the checker's
    lifetime: a demand retarget changes neither.
    """

    zero_rows: np.ndarray  # capacity-row positions forced to 0 (failed links)
    kept: np.ndarray  # bool per flow: required under this failure


@dataclass(frozen=True)
class _FailureTemplate:
    """Precomputed bound template for one (failure, policy-filter) pair.

    Built from the pair's :class:`_FailureMask` and the current demands
    on the first check after construction or a retarget, and reused for
    every later check: the per-flow serve upper bounds after exemptions
    and the required demand (summed in flow order once, so repeated
    checks reuse the exact float).
    """

    zero_rows: np.ndarray  # capacity-row positions forced to 0 (failed links)
    serve_ub: np.ndarray  # per-flow serve upper bound after exemptions
    required_demand: float


@dataclass(frozen=True)
class DualityCertificate:
    """Weak-duality upper bound on one failure LP's served demand.

    ``served(c) <= constant + sum(slopes[l] * c[l])`` for every capacity
    vector ``c`` under the failure and demand matrix it was derived
    from, so ``required_demand - bound(c)`` never exceeds the shortfall.
    ``slopes`` holds only the nonzero per-link slopes, in link order;
    links the failure cuts always have slope 0.
    """

    required_demand: float
    constant: float
    slopes: dict[str, float]

    def bound(self, capacities: dict[str, float]) -> float:
        """Upper bound on the demand servable at ``capacities``."""
        bound = self.constant
        for link_id, slope in self.slopes.items():
            bound += slope * capacities[link_id]
        return bound


@dataclass(frozen=True)
class FailureCheckResult:
    """Outcome of checking one failure scenario."""

    failure_id: str
    satisfied: bool
    required_demand: float
    served_demand: float
    _certify: "Callable[[], DualityCertificate] | None" = field(
        default=None, repr=False, compare=False
    )

    @property
    def shortfall(self) -> float:
        return max(0.0, self.required_demand - self.served_demand)

    @cached_property
    def certificate(self) -> "DualityCertificate | None":
        """The violated LP's duality certificate (None when satisfied)."""
        return None if self._certify is None else self._certify()


class FeasibilityChecker:
    """Reusable LP for checking a capacity assignment under failures.

    :attr:`demand_fingerprint` digests the demand matrix the LP is
    currently built for; verdict caches shared across checkers key on
    it, so a retarget can never serve another demand's verdict.
    """

    def __init__(self, instance: PlanningInstance, aggregate: bool = True):
        self.instance = instance
        self.aggregate = aggregate
        self._lp_solves = 0
        self._build_model()

    # ------------------------------------------------------------------
    # Model construction (once per instance)
    # ------------------------------------------------------------------
    def _build_model(self) -> None:
        network = self.instance.network
        flows = list(self.instance.traffic)
        if self.aggregate:
            commodity_of = {i: flow.src for i, flow in enumerate(flows)}
            commodities = list(dict.fromkeys(commodity_of.values()))
        else:
            commodity_of = {i: i for i in range(len(flows))}
            commodities = list(range(len(flows)))

        model = Model(f"feasibility:{self.instance.name}")
        link_ids = network.link_ids()

        # Directed flow variables y[link, direction, commodity].
        self._flow_vars = {}
        for link_id in link_ids:
            for direction in (0, 1):
                for commodity in commodities:
                    self._flow_vars[link_id, direction, commodity] = model.add_var(
                        name=f"y:{link_id}:{direction}:{commodity}"
                    )

        # Served-demand variables, one per flow.
        self._served_vars = [
            model.add_var(ub=flow.demand, name=f"z:{i}")
            for i, flow in enumerate(flows)
        ]

        # Flow conservation per (node, commodity).
        out_terms: dict[tuple, list] = {}
        in_terms: dict[tuple, list] = {}
        for (link_id, direction, commodity), var in self._flow_vars.items():
            link = network.get_link(link_id)
            src, dst = (link.src, link.dst) if direction == 0 else (link.dst, link.src)
            out_terms.setdefault((src, commodity), []).append(var)
            in_terms.setdefault((dst, commodity), []).append(var)

        for commodity in commodities:
            source = (
                commodity if self.aggregate else flows[commodity].src
            )
            for node in network.nodes:
                balance = quicksum(out_terms.get((node, commodity), [])) - quicksum(
                    in_terms.get((node, commodity), [])
                )
                generated = quicksum(
                    self._served_vars[i]
                    for i, flow in enumerate(flows)
                    if commodity_of[i] == commodity and flow.src == node == source
                )
                absorbed = quicksum(
                    self._served_vars[i]
                    for i, flow in enumerate(flows)
                    if commodity_of[i] == commodity and flow.dst == node
                )
                model.add_constr(
                    balance == generated - absorbed,
                    name=f"cons:{node}:{commodity}",
                )

        # Capacity per (link, direction): sum of commodities <= C_l.
        self._capacity_constrs = {}
        for link_id in link_ids:
            for direction in (0, 1):
                total = quicksum(
                    self._flow_vars[link_id, direction, commodity]
                    for commodity in commodities
                )
                self._capacity_constrs[link_id, direction] = model.add_constr(
                    total <= network.get_link(link_id).capacity,
                    name=f"cap:{link_id}:{direction}",
                )

        model.set_objective(quicksum(self._served_vars), sense="max")
        self._model = model
        self._flows = flows
        self.demand_fingerprint = _demand_fingerprint(flows)
        self._commodities = commodities
        # Certificate indexing: each capacity row's model row, the flow
        # variables it caps (one per commodity), and the served columns.
        self._cap_rows = np.array(
            [c.index for c in self._capacity_constrs.values()], dtype=np.int64
        )
        self._cap_flow_cols = np.array(
            [
                [self._flow_vars[link_id, direction, k].index for k in commodities]
                for link_id, direction in self._capacity_constrs
            ],
            dtype=np.int64,
        )
        self._served_cols = np.array(
            [var.index for var in self._served_vars], dtype=np.int64
        )

        # Hot-path state: the link index behind each capacity row (two
        # per link, in _cap_rows order), the demands, and the bounds as
        # they currently stand in the model.  check() diffs its target
        # bounds against these so unchanged rows are never touched, and
        # writes the rest by index (_cap_rows, _served_cols).
        self._link_ids = link_ids
        self._cap_link_index = np.arange(len(self._cap_rows)) // 2
        self._last_cap_ub = np.array(
            [c.ub for c in self._capacity_constrs.values()], dtype=np.float64
        )
        self._demands = np.array([flow.demand for flow in flows], dtype=np.float64)
        self._last_serve_ub = self._demands.copy()
        self._masks: dict[tuple, _FailureMask] = {}
        self._templates: dict[tuple, _FailureTemplate] = {}

    # ------------------------------------------------------------------
    # Incremental retargeting (solver-farm replanning)
    # ------------------------------------------------------------------
    def retarget_demands(self, traffic: TrafficMatrix) -> int:
        """Repoint the compiled LP at a drifted demand matrix.

        The LP structure (flow variables, conservation and capacity
        rows) depends only on the network and the ordered set of
        ``(src, dst, cos)`` flow keys; demand values appear solely in
        the served-variable upper bounds and the per-failure templates.
        Retargeting therefore swaps the flow list, refreshes
        :attr:`demand_fingerprint` and drops the cached templates — the
        next :meth:`check` rebuilds its failure's serve bounds from the
        kept failure mask and delta-diffs them against the model's
        current state, pushing only changed bounds into the persistent
        backend.  The failure masks and the per-failure saved bases
        stay: neither depends on demands (any basis is a valid warm
        start, and the old demands' is usually close).

        Returns the number of flows whose demand changed.  Raises
        :class:`TrafficError` if the flow keys differ (a structural
        change needs a full rebuild, not a retarget).
        """
        new_flows = list(traffic)
        old_keys = [(f.src, f.dst, f.cos.name) for f in self._flows]
        new_keys = [(f.src, f.dst, f.cos.name) for f in new_flows]
        if old_keys != new_keys:
            raise TrafficError(
                "retarget_demands requires an identical ordered flow key set; "
                f"got {len(new_keys)} flows vs {len(old_keys)} compiled "
                "(structural drift needs a rebuilt checker)"
            )
        changed = sum(
            1
            for old, new in zip(self._flows, new_flows)
            if old.demand != new.demand
        )
        self.instance = replace(self.instance, traffic=traffic)
        self._flows = new_flows
        self._demands = np.array(
            [flow.demand for flow in new_flows], dtype=np.float64
        )
        self.demand_fingerprint = _demand_fingerprint(new_flows)
        self._templates.clear()
        telemetry.counter("solverfarm.retarget.calls")
        telemetry.counter("solverfarm.retarget.flows_changed", changed)
        return changed

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------
    @property
    def num_variables(self) -> int:
        return self._model.num_variables

    @property
    def num_constraints(self) -> int:
        return self._model.num_constraints

    @property
    def lp_solves(self) -> int:
        """Total LP solves performed by this checker (instrumentation)."""
        return self._lp_solves

    def _failure_template(
        self,
        failure: FailureScenario | None,
        required_flow_indices: "set[int] | None",
    ) -> _FailureTemplate:
        """Build (or fetch) the bound template for one failure."""
        filter_key = (
            None if required_flow_indices is None else frozenset(required_flow_indices)
        )
        key = (failure.id if failure is not None else None, filter_key)
        template = self._templates.get(key)
        if template is not None:
            return template
        mask = self._masks.get(key)
        if mask is None:
            mask = self._masks[key] = self._failure_mask(
                failure, required_flow_indices
            )
        required_demand = 0.0
        for demand in self._demands[mask.kept].tolist():
            required_demand += demand
        template = _FailureTemplate(
            zero_rows=mask.zero_rows,
            serve_ub=np.where(mask.kept, self._demands, 0.0),
            required_demand=required_demand,
        )
        self._templates[key] = template
        return template

    def _failure_mask(
        self,
        failure: FailureScenario | None,
        required_flow_indices: "set[int] | None",
    ) -> _FailureMask:
        """Failed capacity rows and required flows of one failure."""
        network = self.instance.network
        failed_links = (
            failure.failed_link_ids(network) if failure is not None else frozenset()
        )
        failed_nodes = failure.nodes if failure is not None else frozenset()
        zero_rows = np.array(
            [
                row
                for position, link_id in enumerate(self._link_ids)
                if link_id in failed_links
                for row in (2 * position, 2 * position + 1)
            ],
            dtype=np.int64,
        )
        kept = np.array(
            [
                not (
                    flow.src in failed_nodes
                    or flow.dst in failed_nodes
                    or (
                        required_flow_indices is not None
                        and i not in required_flow_indices
                    )
                )
                for i, flow in enumerate(self._flows)
            ],
            dtype=bool,
        )
        return _FailureMask(zero_rows=zero_rows, kept=kept)

    def check(
        self,
        capacities: dict[str, float],
        failure: FailureScenario | None = None,
        required_flow_indices: "set[int] | None" = None,
    ) -> FailureCheckResult:
        """Check one failure (or the no-failure base case).

        ``required_flow_indices`` restricts the requirement to a subset
        of flows (reliability-policy filtering); flows outside it are
        dropped entirely (served forced to 0), matching the policy's
        "may be dropped under this failure" semantics.
        """
        template = self._failure_template(failure, required_flow_indices)

        # Capacity rows reflect surviving capacity; only rows whose
        # bound actually moved since the last check are written.
        num_links = len(self._link_ids)
        cap_values = np.fromiter(
            (capacities[link_id] for link_id in self._link_ids),
            dtype=np.float64,
            count=num_links,
        )
        cap_ub = cap_values[self._cap_link_index]
        if template.zero_rows.size:
            cap_ub[template.zero_rows] = 0.0
        changed = np.flatnonzero(cap_ub != self._last_cap_ub)
        if changed.size:
            values = cap_ub[changed]
            self._model.set_row_ubs_at(self._cap_rows[changed], values)
            self._last_cap_ub[changed] = values

        # Serve bounds reflect exemptions, same delta treatment.
        serve_changed = np.flatnonzero(template.serve_ub != self._last_serve_ub)
        if serve_changed.size:
            values = template.serve_ub[serve_changed]
            self._model.set_var_ubs_at(self._served_cols[serve_changed], values)
            self._last_serve_ub[serve_changed] = values
        required_demand = template.required_demand

        # Each failure restarts from its own last optimal basis, not
        # from whichever failure happened to be solved just before.
        failure_id = failure.id if failure is not None else "none"
        with telemetry.timer("evaluator.feasibility.check"):
            status = self._model.optimize(basis_key=failure_id)
        self._lp_solves += 1
        telemetry.counter("evaluator.feasibility.checks")
        if status is not Status.OPTIMAL:
            raise SolverError(
                f"feasibility LP ended with {status} for failure {failure_id}"
            )
        served = self._model.objective_value
        satisfied = served >= required_demand - _TOLERANCE
        return FailureCheckResult(
            failure_id=failure_id,
            satisfied=satisfied,
            required_demand=required_demand,
            served_demand=min(served, required_demand),
            _certify=(
                None
                if satisfied
                else partial(self._certificate, self._model.row_duals, template)
            ),
        )

    def _certificate(
        self, duals: RowDuals, template: _FailureTemplate
    ) -> DualityCertificate:
        """Weak-duality bound from one solve's row duals ``pi``.

        With reduced costs ``d = 1_served - A^T pi`` (exact for any
        ``pi``), every feasible point satisfies
        ``served = pi . Ax + d . x``.  Conservation rows have RHS 0, so
        they drop out; a capacity row's activity lies in ``[0, c_r]``,
        so it adds at most ``max(pi_r, 0) * c_r``; a flow variable is
        implicitly bounded by its row's capacity, so it adds at most
        ``max(d_j, 0) * c_r``; a served variable adds at most
        ``max(d_i, 0) * serve_ub_i``.  Nothing assumes ``pi`` is
        optimal, so the bound holds for whatever duals the solver
        returned; at an optimal ``pi`` it is tight at the solved
        capacities (strong duality).
        """
        pi = duals.values
        gain = np.maximum(self._model.reduced_costs(pi), 0.0)
        flow_gain = gain[self._cap_flow_cols].sum(axis=1)
        row_slopes = np.maximum(pi[self._cap_rows], 0.0) + flow_gain
        link_slopes = row_slopes[0::2] + row_slopes[1::2]
        # A cut link's rows are pinned to 0 whatever its capacity.
        link_slopes[template.zero_rows // 2] = 0.0
        return DualityCertificate(
            required_demand=template.required_demand,
            constant=float(gain[self._served_cols] @ template.serve_ub),
            slopes={
                self._link_ids[i]: float(link_slopes[i])
                for i in np.flatnonzero(link_slopes)
            },
        )
