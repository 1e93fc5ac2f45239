"""The planning environment (Fig. 4 of the paper).

A trajectory starts from the instance's original capacities and
repeatedly *adds* capacity (add-only actions: half the action space,
stable termination, and stateful failure checking stay sound -- the
three benefits Section 4.2 lists).  The action space is
``num_links * max_units_per_step``: pick a transformed node (an IP
link) and how many capacity units to add.  An action mask disables
(link, units) pairs that would violate a fiber's spectrum budget
(Eq. 4), so the stochastic policy only samples valid actions.

Rewards are dense: each step earns the negative incremental cost of the
added capacity, scaled so a whole trajectory lands in roughly [-1, 0];
hitting the step limit without a feasible plan costs an extra -1
(Section 4.2, "Reward representation").
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.errors import ConfigError, EnvironmentError_
from repro.evaluator import EvaluationResult, PlanEvaluator
from repro.nn.gnn import normalized_adjacency, normalized_adjacency_sparse
from repro.planning.greedy import GreedyPlanner
from repro.rl.state import StateEncoder, normalize_features
from repro.topology.instance import PlanningInstance
from repro.topology.spectrum import SpectrumIndex
from repro.topology.transform import node_link_transform

TERMINAL_PENALTY = -1.0

# Slack (in Gbps) kept on the provable-shortfall bound before the
# environment trusts it instead of re-solving the feasibility LP.  Must
# dominate the LP tolerance (1e-6) plus solver numerical noise so a
# skipped check can never disagree with the check it replaces.
INFEASIBILITY_SKIP_SLACK = 1e-5

# Topologies at or above this many transformed nodes default to sparse
# GNN propagation; smaller ones stay dense (bitwise-identical legacy
# path, and dense matmul wins at tiny sizes anyway).
SPARSE_ADJACENCY_THRESHOLD = 64


@dataclass
class StepResult:
    """What :meth:`PlanningEnv.step` returns."""

    observation: np.ndarray
    reward: float
    done: bool
    feasible: bool
    info: dict


class ShortfallBound:
    """Provable lower bound on the violated failure's shortfall.

    After an infeasible evaluation the violated failure's
    :class:`~repro.evaluator.DualityCertificate` bounds its served
    demand by ``constant + s . c`` for *every* capacity vector ``c``, so
    ``gap = required - bound(c)`` never exceeds the true shortfall.
    Adding ``amount`` to one link lowers the gap by ``s[link] * amount``
    (an O(1) update); while it stays above ``INFEASIBILITY_SKIP_SLACK``
    the failure is provably still violated, and because capacity only
    grows within a trajectory, every failure checked before it still
    survives -- the evaluator would return the same verdict, so the LP
    solve is skipped.  Each real evaluation re-seeds the bound.
    """

    __slots__ = ("gap", "violated", "_slopes")

    def __init__(self) -> None:
        self.gap = 0.0
        self.violated: "str | None" = None
        self._slopes: dict[str, float] = {}

    def reseed(self, result: EvaluationResult, capacities: dict[str, float]) -> None:
        """Restart from a real evaluation of ``capacities``."""
        certificate = result.certificate
        self.violated = result.violated_failure
        if certificate is None:
            self.gap = 0.0
            self._slopes = {}
        else:
            self.gap = certificate.required_demand - certificate.bound(capacities)
            self._slopes = certificate.slopes

    def skips(self, link_id: str, amount: float) -> bool:
        """Account for ``amount`` added to ``link_id``; True to skip the LP."""
        self.gap -= self._slopes.get(link_id, 0.0) * amount
        if self.gap > INFEASIBILITY_SKIP_SLACK:
            if telemetry.enabled():
                telemetry.counter("env.lp_skips")
            return True
        return False


class EvaluationMemo:
    """Shared evaluation verdicts across env clones of one instance.

    The evaluator's verdict (feasible / violated failure / shortfall)
    is a pure function of the capacity assignment for a fixed instance
    and demand matrix, so concurrent rollouts replaying the same
    deterministic trajectory recompute identical feasibility LPs.  A
    memo keyed by the demand fingerprint and the capacity vector lets
    the first rollout pay for each state and every concurrent sibling
    reuse the exact result object -- bitwise-identical verdicts, one LP
    solve instead of N.

    Only attach one memo to environments of one instance.  They may sit
    at different demand targets: the key carries the checker's
    :attr:`~repro.evaluator.FeasibilityChecker.demand_fingerprint`, so
    a retargeted env never reads a verdict made under other demands.
    The memo is deliberately bounded and meant to be cleared between
    request cohorts (it shares work across in-flight requests;
    long-term reuse is the response cache's job).
    """

    def __init__(self, max_entries: int = 8192):
        self.max_entries = max_entries
        self._entries: dict = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get(self, key):
        result = self._entries.get(key)
        with self._lock:
            if result is not None:
                self._hits += 1
            else:
                self._misses += 1
        if result is not None and telemetry.enabled():
            telemetry.counter("env.eval_memo.hits")
        return result

    def put(self, key, result) -> None:
        with self._lock:
            if len(self._entries) < self.max_entries:
                self._entries[key] = result

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self._hits,
                "misses": self._misses,
            }


class PlanningEnv:
    """Add-capacity planning environment over one instance."""

    def __init__(
        self,
        instance: PlanningInstance,
        max_units_per_step: int = 4,
        max_steps: int = 1024,
        evaluator_mode: str = "neuroplan",
        feature_set: str = "capacity",
        reward_scale: float | None = None,
        sparse_adjacency: bool | None = None,
    ):
        if max_units_per_step < 1:
            raise ConfigError("max_units_per_step must be >= 1")
        if max_steps < 1:
            raise ConfigError("max_steps must be >= 1")
        self.instance = instance
        self.max_units = max_units_per_step
        self.max_steps = max_steps
        self.link_graph = node_link_transform(instance.network)
        if sparse_adjacency is None:
            sparse_adjacency = (
                self.link_graph.num_nodes >= SPARSE_ADJACENCY_THRESHOLD
            )
        self.sparse_adjacency = bool(sparse_adjacency)
        self.adjacency_norm = (
            normalized_adjacency_sparse(self.link_graph.adjacency)
            if self.sparse_adjacency
            else normalized_adjacency(self.link_graph.adjacency)
        )
        self._spectrum = SpectrumIndex(instance.network)
        self.encoder = StateEncoder(instance, self.link_graph, feature_set)
        self.evaluator = PlanEvaluator(instance, mode=evaluator_mode)
        self.unit = instance.capacity_unit
        self.reward_scale = (
            reward_scale
            if reward_scale is not None
            else self._default_reward_scale()
        )
        # Episode state.  ``_capacities`` (dict, for the evaluator and
        # the cost model) and ``_capacity_vector`` (link-graph order, for
        # the spectrum and the observation) hold the same floats; only
        # _reset_at and step write them.  ``_plan_cost`` is the Eq. 1
        # cost of those capacities, carried so a step costs one sum.
        self._capacities: dict[str, float] = {}
        self._capacity_vector = np.zeros(self.link_graph.num_nodes)
        self._plan_cost = 0.0
        # Fiber headroom the last step's spectrum guard computed (None
        # after a reset), reused by the next action_mask().
        self._step_fiber_headroom: "np.ndarray | None" = None
        self._unit_offsets = np.arange(self.max_units)
        self._steps = 0
        self._done = True
        self._feasible = False
        self._shortfall_bound = ShortfallBound()
        # Optional cross-rollout verdict sharing (see EvaluationMemo).
        self.eval_memo: "EvaluationMemo | None" = None

    # ------------------------------------------------------------------
    def _default_reward_scale(self) -> float:
        """Scale rewards by the greedy plan's incremental cost.

        A reasonable trajectory then accumulates roughly -1..0 total
        reward, the range the paper targets.
        """
        initial = self.instance.network.capacities()
        greedy = GreedyPlanner().plan(self.instance)
        added_cost = self.instance.cost_model.incremental_cost(
            self.instance.network, initial, greedy.capacities
        )
        return max(added_cost, 1.0)

    # ------------------------------------------------------------------
    def replica_kwargs(self) -> dict:
        """Constructor kwargs that rebuild an identical environment.

        Used by the batched rollout collector to stamp out its lockstep
        and worker replicas.  The *resolved* reward scale is included so replicas
        skip the greedy-plan probe and are guaranteed to score rewards
        identically to this environment.
        """
        return {
            "max_units_per_step": self.max_units,
            "max_steps": self.max_steps,
            "evaluator_mode": self.evaluator.mode,
            "feature_set": self.encoder.feature_set,
            "reward_scale": self.reward_scale,
            "sparse_adjacency": self.sparse_adjacency,
        }

    # ------------------------------------------------------------------
    # Spaces
    # ------------------------------------------------------------------
    @property
    def num_links(self) -> int:
        return self.link_graph.num_nodes

    @property
    def num_actions(self) -> int:
        return self.num_links * self.max_units

    def decode_action(self, action: int) -> tuple[str, int]:
        """Map a flat action index to (link id, units to add)."""
        link_index, units = self._decode(action)
        return self.link_graph.link_ids[link_index], units

    def _decode(self, action: int) -> tuple[int, int]:
        """Flat action index -> (link index, units to add)."""
        if not 0 <= action < self.num_actions:
            raise EnvironmentError_(f"action {action} out of range")
        link_index, units_index = divmod(action, self.max_units)
        return link_index, units_index + 1

    def action_mask(self) -> np.ndarray:
        """Valid-action mask from the spectrum constraints (Eq. 4).

        Vectorized over the precomputed :class:`SpectrumIndex`: one
        sparse matvec yields every link's headroom at once, and the
        per-(link, units) mask falls out of a single comparison.  After
        a step the matvec is the one the step's spectrum guard already
        ran over the same capacities.
        """
        fiber_headroom = self._step_fiber_headroom
        if fiber_headroom is None:
            fiber_headroom = self._spectrum.vector_fiber_headroom(
                self._capacity_vector
            )
        headroom = self._spectrum.binding_link_headroom(fiber_headroom)
        units = np.floor((headroom / self.unit).round(9))
        allowed = np.minimum(units, self.max_units)
        mask = self._unit_offsets[None, :] < allowed[:, None]
        return mask.reshape(-1)

    # ------------------------------------------------------------------
    # Episode control
    # ------------------------------------------------------------------
    def reset(self) -> np.ndarray:
        """Start a trajectory from the original capacities."""
        return self._reset_at(self.instance.network.capacities())

    def reset_from(self, capacities: dict[str, float]) -> np.ndarray:
        """Start a trajectory from a prior plan's capacities (warm start).

        Used by incremental replanning: instead of rebuilding from the
        original network, the rollout resumes from where a prior plan
        left off.  Capacities below the original are clamped up (a plan
        never removes capacity), missing links inherit their original
        value, and unknown link ids are rejected.
        """
        base = self.instance.network.capacities()
        unknown = set(capacities) - set(base)
        if unknown:
            raise EnvironmentError_(
                f"reset_from got unknown link ids: {sorted(unknown)[:5]}"
            )
        merged = {
            link_id: max(float(capacities.get(link_id, original)), original)
            for link_id, original in base.items()
        }
        if not self._spectrum.feasible(merged):
            raise EnvironmentError_(
                "reset_from capacities violate the spectrum constraints"
            )
        return self._reset_at(merged)

    def _evaluate_memoized(self):
        """Evaluate the current capacities, sharing verdicts through an
        attached :class:`EvaluationMemo` when one is present."""
        memo = self.eval_memo
        if memo is None:
            return self.evaluator.evaluate(self._capacities)
        key = (
            self.evaluator.checker.demand_fingerprint,
            tuple(self._capacities.values()),
        )
        result = memo.get(key)
        if result is None:
            result = self.evaluator.evaluate(self._capacities)
            memo.put(key, result)
        return result

    def _reset_at(self, capacities: dict[str, float]) -> np.ndarray:
        self._capacities = capacities
        self._capacity_vector = self._spectrum.capacity_vector(capacities)
        self._plan_cost = self.instance.cost_model.plan_cost(
            self.instance.network, capacities
        )
        self._step_fiber_headroom = None
        self._steps = 0
        self.evaluator.reset()
        result = self._evaluate_memoized()
        self._feasible = result.feasible
        self._done = result.feasible  # nothing to plan
        self._shortfall_bound.reseed(result, self._capacities)
        return self.observation()

    def retarget_demands(self, traffic) -> int:
        """Repoint the environment at a drifted demand matrix.

        Observations (capacity features) and action masks (spectrum
        headroom) are demand-independent, so only the evaluator layer
        needs to move: the compiled feasibility LP swaps its serve
        bounds in place (warm bases intact) and this env's ``instance``
        follows.  The current episode is invalidated — call ``reset()``
        or ``reset_from()`` before stepping.  An attached memo needs no
        clearing: its keys carry the demand fingerprint.  Returns the
        number of flows whose demand changed.
        """
        changed = self.evaluator.retarget_demands(traffic)
        self.instance = self.evaluator.instance
        self._done = True
        return changed

    def observation(self) -> np.ndarray:
        if self.encoder.feature_set == "capacity":
            # The vector holds exactly the dict's values, so these are
            # StateEncoder.raw_features(self._capacities).
            return normalize_features(self._capacity_vector[:, None])
        return self.encoder.encode(self._capacities)

    @property
    def done(self) -> bool:
        return self._done

    @property
    def feasible(self) -> bool:
        return self._feasible

    @property
    def steps(self) -> int:
        return self._steps

    def capacities(self) -> dict[str, float]:
        return dict(self._capacities)

    def step(self, action: int) -> StepResult:
        """Apply an action; return the dense reward and termination."""
        if self._done:
            raise EnvironmentError_("step() called on a finished trajectory")
        link_index, units = self._decode(action)
        link_id = self.link_graph.link_ids[link_index]
        amount = units * self.unit
        capacity = self._capacities[link_id] + amount
        self._capacities[link_id] = capacity
        self._capacity_vector[link_index] = capacity
        fiber_headroom = self._spectrum.vector_fiber_headroom(self._capacity_vector)
        self._step_fiber_headroom = fiber_headroom
        if not (fiber_headroom >= -1e-9).all():
            raise EnvironmentError_(
                f"action on {link_id} violates spectrum; the action mask "
                "must be applied before sampling"
            )
        # incremental_cost(before, after) is plan_cost(after) minus
        # plan_cost(before); the latter is the carried cost.
        plan_cost = self.instance.cost_model.plan_cost(
            self.instance.network, self._capacities
        )
        added_cost = plan_cost - self._plan_cost
        self._plan_cost = plan_cost
        reward = -added_cost / self.reward_scale
        self._steps += 1

        bound = self._shortfall_bound
        if bound.skips(link_id, amount):
            feasible = False
            violated = bound.violated
            shortfall = bound.gap
        else:
            result = self._evaluate_memoized()
            feasible = result.feasible
            violated = result.violated_failure
            shortfall = result.shortfall
            bound.reseed(result, self._capacities)
        self._feasible = feasible
        if feasible:
            self._done = True
        elif self._steps >= self.max_steps:
            self._done = True
            reward += TERMINAL_PENALTY
        return StepResult(
            observation=self.observation(),
            reward=reward,
            done=self._done,
            feasible=self._feasible,
            info={
                "violated_failure": violated,
                "shortfall": shortfall,
                "added_cost": added_cost,
                "link": link_id,
                "units": units,
            },
        )

    # ------------------------------------------------------------------
    def plan_cost(self) -> float:
        """Eq. 1 cost of the current capacity assignment."""
        return self._plan_cost
