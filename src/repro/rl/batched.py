"""Batched multi-environment rollout collection and training.

This module stacks ``K`` independent :class:`~repro.rl.env.PlanningEnv`
trajectories so the per-step policy work runs once per *tick* (one
synchronized step of every live environment) instead of once per
environment:

- :class:`BatchedPlanningEnv` keeps the per-slot capacity state in one
  ``(K, num_links)`` array, so action masks, spectrum guards and state
  encoding are single vectorized queries over all slots.  Only the
  irreducibly per-plan pieces — the LP evaluator and the Eq. 1 cost
  delta — run per slot, through exactly the scalar code paths
  :class:`PlanningEnv` uses.
- :class:`BatchedPolicyEvaluator` is the grad-free collection forward:
  one pass over the stacked node features produces every slot's action
  log-probabilities and value.
- :class:`BatchedForward` is the differentiable training-side twin that
  every A2C/PPO update takes its log-probs, entropies and values from,
  at any ``num_envs``: one batched forward and backward over all
  collected transitions through a shared block-diagonal CSR adjacency
  (``Tensor.sparse_matmul``), instead of one tiny autodiff graph per
  transition.
- :class:`BatchedRolloutCollector` drives groups of ``K`` streams in
  lockstep and merges their fragments in stream order.

Determinism contract
--------------------
Every trajectory is a pure function of ``(policy parameters, seed,
epoch, stream)``: stream ``s`` draws its actions from
:func:`repro.seeding.stream_generator` ``(seed, epoch, s)``, and the
batched arithmetic reproduces one environment stepped through the
autodiff :meth:`ActorCriticPolicy.forward` and ``Categorical.sample``
bit for bit.  Two properties follow:

- **K-invariance**: the merged batch is bitwise identical for any
  ``num_envs`` (1 batched env == 8 batched envs == per-stream serial
  rollouts through the autodiff policy).
- **Worker-invariance**: groups are keyed by index, so the batch is
  also bitwise identical for any ``num_workers``.

Bitwise parity with the serial forward is *engineered*, not assumed:
BLAS matmul results depend on the operand shapes (kernel selection and
threading vary with the row count), so the batched forward never trusts
a gemm at a shape the serial path would not call until this machine has
shown it bitwise equal there.  Dense matmuls run through
:func:`rowblock_matmul`, which computes one BLAS call per slot-block at
exactly the serial ``(num_nodes, ...)`` shape; the critic, whose serial
input is a 1-D embedding, is evaluated per slot as the same 1-D chain.
Each may take one fused call instead once :func:`_fusion_is_exact` has
audited that call at its shape on random operands.  Sparse propagation
uses a block-diagonal CSR operator, whose row results are independent
of the other blocks by construction.  What *is* batched — elementwise
ops, row-wise softmax, segmented reductions and the sparse matmuls — is
exactly the set of operations whose numpy results are row-for-row
identical to the serial calls (pinned by ``tests/rl/test_batched.py``).
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro import telemetry
from repro.errors import ConfigError, EnvironmentError_
from repro.evaluator import PlanEvaluator
from repro.nn.distributions import BatchedCategorical
from repro.nn.functional import MASK_FILL
from repro.nn.gnn import GATLayer, GCNLayer, SAGELayer
from repro.nn.layers import MLP, Identity, Linear, ReLU, Tanh
from repro.nn.tensor import Tensor
from repro.resilience import faults
from repro.rl.env import TERMINAL_PENALTY, PlanningEnv, ShortfallBound
from repro.rl.policy import ActorCriticPolicy
from repro.rl.rollouts import (
    Fragment,
    RolloutBatch,
    Transition,
    check_parallelism,
    merge_fragments,
)
from repro.rl.state import normalize_features
from repro.seeding import stream_generator
from repro.topology.instance import PlanningInstance


# ----------------------------------------------------------------------
# Shape-exact dense matmul
# ----------------------------------------------------------------------
# Per-shape verdicts of the fusion audit below.  BLAS kernel choice is
# deterministic per shape on a given machine, so a verdict observed once
# holds for every later call at that shape.
_FUSED_GEMM_OK: dict[tuple, bool] = {}


def _fusion_is_exact(key: tuple, shapes, fused, sliced) -> bool:
    """Whether ``fused`` is bitwise equal to ``sliced`` at ``key``'s shape.

    A single fused BLAS call over all slots is much cheaper than the
    slot-by-slot calls the serial forward matches, but only *sometimes*
    bitwise identical to them (BLAS picks kernels by shape).  The first
    call at each key runs both on seeded random operands of ``shapes``
    and caches the verdict.  Never on the caller's data: all-equal rows
    (standardized features are all zero when every link starts at the
    same capacity) agree under any summation order, so a verdict taken
    on them would trust a fused kernel that rounds differently later.
    """
    verdict = _FUSED_GEMM_OK.get(key)
    if verdict is None:
        rng = np.random.default_rng(0)
        operands = [rng.standard_normal(shape) for shape in shapes]
        verdict = fused(*operands).tobytes() == sliced(*operands).tobytes()
        _FUSED_GEMM_OK[key] = verdict
    return verdict


def _slab_matmul(x: np.ndarray, w: np.ndarray, block: int) -> np.ndarray:
    out = np.empty((x.shape[0], w.shape[1]))
    for start in range(0, x.shape[0], block):
        np.matmul(x[start : start + block], w, out=out[start : start + block])
    return out


def rowblock_matmul(x: np.ndarray, w: np.ndarray, block: int) -> np.ndarray:
    """``x @ w`` with rows bitwise identical to per-``block`` products.

    Each ``block``-row slab must match the exact BLAS call the serial
    per-environment forward makes, so the rows run slab by slab unless
    :func:`_fusion_is_exact` has proven one fused gemm safe at this shape.
    """
    rows = x.shape[0]
    if rows == block or _fusion_is_exact(
        ("rowblock", rows, block) + w.shape,
        (x.shape, w.shape),
        np.matmul,
        lambda a, b: _slab_matmul(a, b, block),
    ):
        return np.matmul(x, w)
    return _slab_matmul(x, w, block)


def _mlp_rows(mlp: MLP, x: np.ndarray, block: int) -> np.ndarray:
    """Run an :class:`MLP` over 2-D rows with slab-exact matmuls."""
    for module in mlp.body:
        if isinstance(module, Linear):
            x = rowblock_matmul(x, module.weight.data, block)
            if module.bias is not None:
                x = x + module.bias.data
        elif isinstance(module, ReLU):
            x = np.maximum(x, 0.0)
        elif isinstance(module, Tanh):
            x = np.tanh(x)
        elif isinstance(module, Identity):
            pass
        else:  # pragma: no cover - MLP only builds the kinds above
            raise ConfigError(
                f"batched forward cannot replay module {type(module).__name__}"
            )
    return x


def _mlp_vector(mlp: MLP, x: np.ndarray) -> np.ndarray:
    """Run an :class:`MLP` on one 1-D input, the serial critic's path."""
    for module in mlp.body:
        if isinstance(module, Linear):
            x = x @ module.weight.data
            if module.bias is not None:
                x = x + module.bias.data
        elif isinstance(module, ReLU):
            x = np.maximum(x, 0.0)
        elif isinstance(module, Tanh):
            x = np.tanh(x)
        elif isinstance(module, Identity):
            pass
        else:  # pragma: no cover - MLP only builds the kinds above
            raise ConfigError(
                f"batched forward cannot replay module {type(module).__name__}"
            )
    return x


def masked_log_probs_rows(
    logits: np.ndarray, masks: np.ndarray
) -> np.ndarray:
    """Row-wise masked log-softmax, bitwise equal to the 1-D serial one."""
    filled = np.where(masks, logits, MASK_FILL)
    shifted = filled - filled.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted - log_norm


def mode_actions_rows(logits: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Per-row mode actions, bitwise equal to ``Categorical.mode()`` per slot.

    ``Categorical.mode()`` is ``argmax`` over the masked log-softmax of a
    single logits row; because :func:`masked_log_probs_rows` is bitwise
    equal to the serial 1-D computation row for row, the per-row argmax
    picks the exact same index the serial path would.
    """
    return masked_log_probs_rows(logits, masks).argmax(axis=-1)


# ----------------------------------------------------------------------
# Batched environment
# ----------------------------------------------------------------------
class BatchedPlanningEnv:
    """``num_envs`` lockstep copies of one :class:`PlanningEnv`.

    Slot state lives in a ``(K, num_links)`` capacity array (mirrored by
    per-slot dicts for the evaluator and the cost model), so the action
    mask, the spectrum guard and the state encoding for *every* slot are
    one vectorized query each.  The LP evaluator and the plan cost run
    per slot through the same scalar calls ``PlanningEnv`` makes, and
    each slot carries its plan cost the same way, keeping each slot's
    rewards and termination bitwise identical to a standalone
    environment.
    """

    def __init__(self, instance: PlanningInstance, num_envs: int, **env_kwargs):
        if num_envs < 1:
            raise ConfigError("num_envs must be >= 1")
        self.num_envs = num_envs
        self.template = PlanningEnv(instance, **env_kwargs)
        self.instance = instance
        template = self.template
        self.link_ids = template.link_graph.link_ids
        self.num_links = template.num_links
        self.num_actions = template.num_actions
        self.max_units = template.max_units
        self.max_steps = template.max_steps
        self.unit = template.unit
        self.reward_scale = template.reward_scale
        self.adjacency_norm = template.adjacency_norm
        self.sparse_adjacency = template.sparse_adjacency
        self.feature_set = template.encoder.feature_set
        spectrum = template._spectrum
        self._usage = spectrum._usage
        self._max_spectrum = spectrum._max_spectrum
        self._spectral_efficiency = spectrum._spectral_efficiency
        self._path_fibers = spectrum._path_fibers
        self._path_offsets = spectrum._path_offsets
        self.evaluators = [
            PlanEvaluator(instance, mode=template.evaluator.mode)
            for _ in range(num_envs)
        ]
        self._caps = np.zeros((num_envs, self.num_links))
        self._caps_dicts: list[dict[str, float]] = [{} for _ in range(num_envs)]
        self._plan_costs = [0.0] * num_envs
        self._steps = np.zeros(num_envs, dtype=np.int64)
        self._done = np.ones(num_envs, dtype=bool)
        self._feasible = np.zeros(num_envs, dtype=bool)
        # Per-slot LP-skip bounds, the same rule PlanningEnv.step applies.
        self._shortfall_bounds = [ShortfallBound() for _ in range(num_envs)]

    # -- episode control ------------------------------------------------
    def reset_all(self) -> None:
        """Restart every slot from the instance's original capacities."""
        base = self.instance.network.capacities()
        base_vec = np.fromiter(
            (base[link_id] for link_id in self.link_ids),
            dtype=np.float64,
            count=self.num_links,
        )
        base_cost = self.instance.cost_model.plan_cost(self.instance.network, base)
        for slot in range(self.num_envs):
            self._caps_dicts[slot] = dict(base)
            self._caps[slot] = base_vec
            self._plan_costs[slot] = base_cost
            self.evaluators[slot].reset()
            result = self.evaluators[slot].evaluate(self._caps_dicts[slot])
            self._feasible[slot] = result.feasible
            self._done[slot] = result.feasible
            self._shortfall_bounds[slot].reseed(result, self._caps_dicts[slot])
        self._steps[:] = 0

    @property
    def done(self) -> np.ndarray:
        return self._done

    @property
    def feasible(self) -> np.ndarray:
        return self._feasible

    def capacities(self, slot: int) -> dict[str, float]:
        return dict(self._caps_dicts[slot])

    def plan_cost(self, slot: int) -> float:
        return self._plan_costs[slot]

    # -- vectorized queries ---------------------------------------------
    def _fiber_headroom_cols(self, slots: np.ndarray) -> np.ndarray:
        """(num_fibers, len(slots)) spectrum headroom, one column per slot.

        CSR-times-dense accumulates each output entry in the same order
        as the per-slot matvec, so every column is bitwise identical to
        ``SpectrumIndex.fiber_headroom`` for that slot.
        """
        return self._max_spectrum[:, None] - self._usage @ self._caps[slots].T

    def action_masks(self, slots: np.ndarray) -> np.ndarray:
        """(len(slots), num_actions) validity masks (Eq. 4), vectorized."""
        headroom = self._fiber_headroom_cols(slots)
        binding = np.minimum.reduceat(
            headroom[self._path_fibers, :], self._path_offsets, axis=0
        )
        link_headroom = (
            np.maximum(binding, 0.0) / self._spectral_efficiency[:, None]
        ).T
        units = np.floor(np.round(link_headroom / self.unit, 9))
        allowed = np.minimum(units, self.max_units)
        mask = np.arange(self.max_units)[None, None, :] < allowed[:, :, None]
        return mask.reshape(len(slots), self.num_actions)

    def observe(self, slots: np.ndarray) -> np.ndarray:
        """(len(slots), num_links, feature_dim) normalized features.

        Normalization reduces over the node axis of the 3-D stack, which
        numpy evaluates slice by slice — bitwise the same arrays
        ``StateEncoder.encode`` returns per slot.
        """
        if self.feature_set == "capacity":
            # The running (K, num_links) array carries exactly the dict
            # values, so these rows equal StateEncoder.raw_features.
            features = self._caps[slots][:, :, None]
        else:
            features = np.stack(
                [
                    self.template.encoder.raw_features(self._caps_dicts[slot])
                    for slot in slots
                ]
            )
        return normalize_features(features, axis=1)

    # -- stepping --------------------------------------------------------
    def step_slots(
        self, slots: np.ndarray, actions: np.ndarray
    ) -> list[tuple[float, bool, bool]]:
        """Apply one action per slot; return (reward, done, feasible) each.

        Mirrors :meth:`PlanningEnv.step` slot for slot: capacity update,
        spectrum guard, Eq. 1 incremental reward against the carried
        plan cost, LP evaluation and termination — only the spectrum
        guard is shared across slots.
        """
        cost_model = self.instance.cost_model
        network = self.instance.network
        amounts = []
        links = []
        for slot, action in zip(slots, actions):
            if self._done[slot]:
                raise EnvironmentError_(
                    "step() called on a finished trajectory"
                )
            if not 0 <= action < self.num_actions:
                raise EnvironmentError_(f"action {action} out of range")
            link_index, units_index = divmod(int(action), self.max_units)
            link_id = self.link_ids[link_index]
            amount = (units_index + 1) * self.unit
            amounts.append(amount)
            links.append(link_id)
            self._caps_dicts[slot][link_id] = (
                self._caps_dicts[slot][link_id] + amount
            )
            self._caps[slot, link_index] += amount

        headroom = self._fiber_headroom_cols(np.asarray(slots))
        violated = ~np.all(headroom >= -1e-9, axis=0)
        if violated.any():
            slot = slots[int(np.flatnonzero(violated)[0])]
            raise EnvironmentError_(
                f"action on slot {slot} violates spectrum; the action "
                "mask must be applied before sampling"
            )

        results: list[tuple[float, bool, bool]] = []
        for slot, amount, link_id in zip(slots, amounts, links):
            capacities = self._caps_dicts[slot]
            plan_cost = cost_model.plan_cost(network, capacities)
            added_cost = plan_cost - self._plan_costs[slot]
            self._plan_costs[slot] = plan_cost
            reward = -added_cost / self.reward_scale
            self._steps[slot] += 1
            bound = self._shortfall_bounds[slot]
            if bound.skips(link_id, amount):
                feasible = False
            else:
                result = self.evaluators[slot].evaluate(capacities)
                feasible = result.feasible
                bound.reseed(result, capacities)
            self._feasible[slot] = feasible
            done = False
            if feasible:
                done = True
            elif self._steps[slot] >= self.max_steps:
                done = True
                reward += TERMINAL_PENALTY
            self._done[slot] = done
            results.append((reward, done, feasible))
        return results


# ----------------------------------------------------------------------
# Collection-side policy forward (grad-free, serial-exact)
# ----------------------------------------------------------------------
class BatchedPolicyEvaluator:
    """One batched, grad-free policy forward over stacked observations.

    Produces every slot's action logits and value with arithmetic that
    is bitwise identical, row for row, to the serial
    :meth:`ActorCriticPolicy.forward` — see the module docstring for
    how each operation earns that property.
    """

    def __init__(self, policy: ActorCriticPolicy, adjacency_norm, sparse: bool):
        self.policy = policy
        self.adjacency = adjacency_norm
        self.sparse = sparse
        self._block_adjacency: dict[int, sp.csr_matrix] = {}
        self._block_mean_ops: dict[tuple[int, int], sp.csr_matrix] = {}
        self._dense_mean_op: "np.ndarray | None" = None
        self._gat_mask: "np.ndarray | None" = None
        if policy.encoder.num_layers > 0:
            first = policy.encoder._layers[0]
            if isinstance(first, GATLayer):
                dense = (
                    adjacency_norm.toarray() if sparse else adjacency_norm
                )
                self._gat_mask = np.asarray(dense) > 0.0

    # -- propagation operators ------------------------------------------
    def _blocks(self, m: int) -> sp.csr_matrix:
        if m not in self._block_adjacency:
            self._block_adjacency[m] = sp.block_diag(
                [self.adjacency] * m, format="csr"
            )
        return self._block_adjacency[m]

    def _mean_blocks(self, layer_index: int, layer: SAGELayer, m: int):
        key = (layer_index, m)
        if key not in self._block_mean_ops:
            mean_op = layer._sparse_mean_op(self.adjacency)
            self._block_mean_ops[key] = sp.block_diag(
                [mean_op] * m, format="csr"
            )
        return self._block_mean_ops[key]

    def _dense_mean(self) -> np.ndarray:
        if self._dense_mean_op is None:
            weights = np.asarray(self.adjacency, dtype=np.float64)
            row_sums = weights.sum(axis=1, keepdims=True)
            row_sums[row_sums == 0.0] = 1.0
            self._dense_mean_op = weights / row_sums
        return self._dense_mean_op

    def _propagate_dense(self, operator: np.ndarray, x: np.ndarray, n: int):
        rows, width = x.shape
        if rows == n:
            return np.matmul(operator, x)

        def fused(op, flat):
            return np.matmul(op, flat.reshape(-1, n, width))

        def sliced(op, flat):
            out = np.empty((rows, width))
            for start in range(0, rows, n):
                np.matmul(op, flat[start : start + n], out=out[start : start + n])
            return out

        if _fusion_is_exact(
            ("propagate", rows, n, width), ((n, n), (rows, width)), fused, sliced
        ):
            return fused(operator, x).reshape(rows, width)
        return sliced(operator, x)

    # -- encoder ---------------------------------------------------------
    def _encode(self, flat: np.ndarray, m: int, n: int) -> np.ndarray:
        encoder = self.policy.encoder
        if encoder.num_layers == 0:
            return rowblock_matmul(flat, encoder.projection.data, n)
        out = flat
        for index, layer in enumerate(encoder._layers):
            if isinstance(layer, GCNLayer):
                if self.sparse:
                    propagated = self._blocks(m) @ out
                else:
                    propagated = self._propagate_dense(self.adjacency, out, n)
                out = rowblock_matmul(propagated, layer.weight.data, n)
                out = out + layer.bias.data
                if layer.activation == "relu":
                    out = np.maximum(out, 0.0)
                elif layer.activation == "tanh":
                    out = np.tanh(out)
            elif isinstance(layer, SAGELayer):
                if self.sparse:
                    neighborhood = self._mean_blocks(index, layer, m) @ out
                else:
                    neighborhood = self._propagate_dense(
                        self._dense_mean(), out, n
                    )
                out = (
                    rowblock_matmul(out, layer.weight_self.data, n)
                    + rowblock_matmul(
                        neighborhood, layer.weight_neighbor.data, n
                    )
                ) + layer.bias.data
                out = np.maximum(out, 0.0)
            elif isinstance(layer, GATLayer):
                out = self._gat_rows(layer, out, n)
            else:  # pragma: no cover - GraphEncoder only builds the above
                raise ConfigError(
                    f"batched forward cannot replay {type(layer).__name__}"
                )
        return out

    def _gat_rows(self, layer: GATLayer, x: np.ndarray, n: int) -> np.ndarray:
        """Per-slot dense GAT; attention is all-pairs, so nothing batches."""
        mask = self._gat_mask
        out = np.empty((x.shape[0], layer.out_features))
        for start in range(0, x.shape[0], n):
            transformed = x[start : start + n] @ layer.weight.data
            src = transformed @ layer.attn_src.data
            dst = transformed @ layer.attn_dst.data
            logits = src + dst.T
            logits = np.where(
                logits > 0.0, logits, layer.negative_slope * logits
            )
            attention = np.exp(masked_log_probs_rows(logits, mask))
            out[start : start + n] = np.maximum(
                attention @ transformed + layer.bias.data, 0.0
            )
        return out

    # -- the forward ------------------------------------------------------
    def forward(
        self, features: np.ndarray, critic: bool = True
    ) -> "tuple[np.ndarray, np.ndarray | None]":
        """(logits (m, num_actions), values (m,)) for stacked features.

        ``critic=False`` is the logits-only path: the value head never
        runs and the values come back as ``None``.  Served rollouts act
        on the mode action alone, so they take it.
        """
        m, n, f = features.shape
        flat = np.ascontiguousarray(features.reshape(m * n, f))
        embeddings = self._encode(flat, m, n)
        hidden = embeddings.shape[1]
        graph = embeddings.reshape(m, n, hidden).sum(axis=1) / float(n)
        tiled = np.repeat(graph, n, axis=0)
        actor_in = np.concatenate([embeddings, tiled], axis=1)
        logits = _mlp_rows(self.policy.actor, actor_in, n)
        logits = logits.reshape(m, n * self.policy.max_units)
        return logits, self._critic_values(graph) if critic else None

    def mode_action(self, observation: np.ndarray, mask: np.ndarray) -> int:
        """The serial ``policy.distribution(...).mode()`` without autodiff.

        One observation runs as a batch of one through the logits-only
        :meth:`forward`, whose row is bitwise equal to the serial logits,
        so the masked argmax picks the same action.  Fits
        ``greedy_rollout``'s ``act``.
        """
        logits, _values = self.forward(observation[None], critic=False)
        return int(mode_actions_rows(logits, mask[None])[0])

    def _critic_values(self, graph: np.ndarray) -> np.ndarray:
        """Per-slot critic values, fused only once audited bitwise-safe.

        The serial critic runs a 1-D gemv chain per environment.  A
        single fused gemm over the stacked rows usually picks a
        different BLAS kernel, so instead the fused candidate is a 3-D
        slice-wise matmul chain — one (1, h) slab per slot, which BLAS
        dispatches like the gemv — taken only when every layer's slab
        product has been audited against the per-slot one at this batch
        size.
        """
        m = graph.shape[0]
        if m > 1 and all(
            _fusion_is_exact(
                ("critic", m) + module.weight.data.shape,
                ((m, module.weight.data.shape[0]), module.weight.data.shape),
                lambda x, w: np.matmul(x.reshape(m, 1, -1), w),
                lambda x, w: np.stack([row @ w for row in x]),
            )
            for module in self.policy.critic.body
            if isinstance(module, Linear)
        ):
            return self._critic_slices(graph)
        values = np.empty(m)
        for slot in range(m):
            values[slot] = float(
                _mlp_vector(self.policy.critic, graph[slot]).sum()
            )
        return values

    def _critic_slices(self, graph: np.ndarray) -> np.ndarray:
        """Critic over (m, h) rows as a stacked (m, 1, h) matmul chain."""
        x = graph.reshape(graph.shape[0], 1, -1)
        for module in self.policy.critic.body:
            if isinstance(module, Linear):
                x = np.matmul(x, module.weight.data)
                if module.bias is not None:
                    x = x + module.bias.data
            elif isinstance(module, ReLU):
                x = np.maximum(x, 0.0)
            elif isinstance(module, Tanh):
                x = np.tanh(x)
            elif isinstance(module, Identity):
                pass
            else:  # pragma: no cover - MLP only builds the kinds above
                raise ConfigError(
                    "batched forward cannot replay module "
                    f"{type(module).__name__}"
                )
        return x.reshape(graph.shape[0], -1).sum(axis=1)


# ----------------------------------------------------------------------
# Group rollout (shared by the in-process and worker paths)
# ----------------------------------------------------------------------
def collect_group(
    benv: BatchedPlanningEnv,
    evaluator: BatchedPolicyEvaluator,
    seed: int,
    epoch: int,
    first_stream: int,
    max_trajectory_length: int,
) -> list[Fragment]:
    """Roll one group of ``benv.num_envs`` streams to completion.

    Stream ``first_stream + slot`` draws from its own
    :func:`stream_generator` stream; slots that finish drop out of the
    batch (no refill), so every stream's content is independent of its
    groupmates and the group partitioning is determined by
    ``(num_envs, stream)`` alone.
    """
    num_envs = benv.num_envs
    benv.reset_all()
    rngs = [
        stream_generator(seed, epoch, first_stream + slot)
        for slot in range(num_envs)
    ]
    transitions: list[list[Transition]] = [[] for _ in range(num_envs)]
    fragments: dict[int, Fragment] = {}

    def finalize(slot, done, feasible, final_value):
        completed = done and feasible
        fragments[slot] = Fragment(
            transitions=transitions[slot],
            stream=first_stream + slot,
            done=done,
            feasible=completed,
            plan_cost=benv.plan_cost(slot) if completed else None,
            capacities=benv.capacities(slot) if completed else None,
            final_value=0.0 if done else final_value,
        )

    active = [slot for slot in range(num_envs) if not benv.done[slot]]
    for slot in range(num_envs):
        if benv.done[slot]:  # already feasible at reset: empty fragment
            finalize(slot, False, False, 0.0)

    while active:
        slots = np.asarray(active)
        observations = benv.observe(slots)
        masks = benv.action_masks(slots)
        logits, values = evaluator.forward(observations)

        live = [i for i in range(len(active)) if masks[i].any()]
        for i in range(len(active)):
            if i not in live:
                # Spectrum exhausted: end un-done with a bootstrap, like
                # the serial loop.
                finalize(active[i], False, False, float(values[i]))
        if not live:
            break
        live_rows = np.asarray(live)
        log_probs = masked_log_probs_rows(logits[live_rows], masks[live_rows])

        actions = np.empty(len(live), dtype=np.int64)
        for j, i in enumerate(live):
            probs = np.exp(log_probs[j])
            probs = probs / probs.sum()  # guard tiny numeric drift
            actions[j] = int(rngs[active[i]].choice(len(probs), p=probs))

        stepped = [active[i] for i in live]
        results = benv.step_slots(np.asarray(stepped), actions)

        still_active = []
        for j, i in enumerate(live):
            slot = active[i]
            reward, done, feasible = results[j]
            transitions[slot].append(
                Transition(
                    observation=observations[i].copy(),
                    mask=masks[i].copy(),
                    action=int(actions[j]),
                    reward=reward,
                    value=float(values[i]),
                    log_prob=float(log_probs[j, actions[j]]),
                )
            )
            if done:
                finalize(slot, True, feasible, 0.0)
            elif len(transitions[slot]) >= max_trajectory_length:
                # Trainer-imposed trajectory cap, like the serial loop.
                finalize(slot, True, False, 0.0)
            else:
                still_active.append(slot)
        active = still_active

    return [fragments[slot] for slot in range(num_envs)]


# ----------------------------------------------------------------------
# Worker-pool plumbing
# ----------------------------------------------------------------------
@dataclass
class BatchedReplicaSpec:
    """Everything a worker needs to rebuild the batched env + policy."""

    instance: object
    env_kwargs: dict
    policy_kwargs: dict
    num_envs: int

    def build(self):
        benv = BatchedPlanningEnv(
            self.instance, self.num_envs, **self.env_kwargs
        )
        policy = ActorCriticPolicy(rng=0, **self.policy_kwargs)
        evaluator = BatchedPolicyEvaluator(
            policy, benv.adjacency_norm, benv.sparse_adjacency
        )
        return benv, policy, evaluator


_BWORKER: dict = {}


def _init_batched_worker(spec: BatchedReplicaSpec) -> None:
    _BWORKER["spec"] = spec
    _BWORKER.pop("benv", None)


def _run_group(task: tuple) -> list[Fragment]:
    """Collect one group of streams in a worker process."""
    state_blob, seed, epoch, group, num_envs, max_trajectory_length, attempt = (
        task
    )
    # Deterministic crash injection, keyed by the group's identity
    # (epoch.group; a group is num_envs consecutive streams) and the
    # collector-side attempt counter -- the retry of the same task does
    # not re-fire, and because the group's fragments are a pure function
    # of (params, seed, epoch, group), the respawned attempt reproduces
    # the crashed one bit for bit.
    faults.maybe_fail("rollout.worker", key=f"{epoch}.{group}", attempt=attempt)
    if "benv" not in _BWORKER:
        benv, policy, evaluator = _BWORKER["spec"].build()
        _BWORKER["benv"] = benv
        _BWORKER["policy"] = policy
        _BWORKER["evaluator"] = evaluator
    benv = _BWORKER["benv"]
    policy = _BWORKER["policy"]
    policy.load_state_dict(pickle.loads(state_blob))
    return collect_group(
        benv,
        _BWORKER["evaluator"],
        seed,
        epoch,
        group * num_envs,
        max_trajectory_length,
    )


# ----------------------------------------------------------------------
# The collector
# ----------------------------------------------------------------------
class BatchedRolloutCollector:
    """Collect trajectories from ``num_envs`` lockstep environments.

    ``num_workers > 1`` distributes whole groups (one group = one tick
    loop over ``num_envs`` streams, a single stream at ``num_envs=1``)
    across a process pool, composing actor batching with process
    parallelism; the merged batch is bitwise invariant to both knobs.

    Use as a context manager (or call :meth:`close`); the pool is
    terminated and joined even on KeyboardInterrupt or worker crashes.
    A group task that dies (exception in the worker, or a worker killed
    outright when ``worker_timeout`` is set) is retried up to
    ``max_worker_retries`` times with linear backoff before the
    collector gives up with a typed
    :class:`~repro.errors.EnvironmentError_`.  Retries cannot perturb
    the batch: fragments are pure functions of their task key, so a
    respawned attempt reproduces the crashed one exactly.
    """

    def __init__(
        self,
        env: PlanningEnv,
        policy: ActorCriticPolicy,
        *,
        num_envs: int,
        num_workers: int = 1,
        seed: int = 0,
        start_method: "str | None" = None,
        max_worker_retries: int = 2,
        retry_backoff: float = 0.05,
        worker_timeout: "float | None" = None,
    ):
        check_parallelism(num_workers, num_envs)
        if max_worker_retries < 0:
            raise ConfigError("max_worker_retries must be >= 0")
        self.policy = policy
        self.num_envs = num_envs
        self.num_workers = num_workers
        self.seed = int(seed)
        self.max_worker_retries = max_worker_retries
        self.retry_backoff = retry_backoff
        self.worker_timeout = worker_timeout
        self._spec = BatchedReplicaSpec(
            instance=env.instance,
            env_kwargs=env.replica_kwargs(),
            policy_kwargs=policy.spec(),
            num_envs=num_envs,
        )
        self._benv: "BatchedPlanningEnv | None" = None
        self._evaluator: "BatchedPolicyEvaluator | None" = None
        self._pool = None
        if num_workers > 1:
            if start_method is None:
                methods = multiprocessing.get_all_start_methods()
                start_method = "fork" if "fork" in methods else "spawn"
            self._ctx = multiprocessing.get_context(start_method)

    # ------------------------------------------------------------------
    def _ensure_local(self):
        if self._benv is None:
            self._benv = BatchedPlanningEnv(
                self._spec.instance, self.num_envs, **self._spec.env_kwargs
            )
            # The live policy drives the in-process path directly: no
            # state blob, the parameters are already current.
            self._evaluator = BatchedPolicyEvaluator(
                self.policy, self._benv.adjacency_norm,
                self._benv.sparse_adjacency,
            )
        return self._benv, self._evaluator

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = self._ctx.Pool(
                processes=self.num_workers,
                initializer=_init_batched_worker,
                initargs=(self._spec,),
            )
            telemetry.counter("rl.rollouts.workers_spawned", self.num_workers)
        return self._pool

    # ------------------------------------------------------------------
    def collect(
        self, budget: int, max_trajectory_length: int, epoch: int = 0
    ) -> RolloutBatch:
        """Collect exactly ``budget`` steps (fewer only if the env exhausts)."""
        if budget < 1:
            raise ConfigError("budget must be >= 1")
        if self.num_envs > budget:
            raise ConfigError(
                f"num_envs={self.num_envs} exceeds the available "
                f"trajectories: a {budget}-step budget can hold at most "
                f"{budget} one-step trajectories"
            )
        start = time.perf_counter()
        if self.num_workers == 1:
            fragments = self._collect_local(
                budget, max_trajectory_length, epoch
            )
        else:
            fragments = self._collect_pool(budget, max_trajectory_length, epoch)

        batch = merge_fragments(fragments, budget)
        total = sum(len(f) for f in fragments)
        if telemetry.enabled():
            elapsed = time.perf_counter() - start
            telemetry.counter("rl.rollouts.fragments", len(batch.fragments))
            telemetry.counter("rl.rollouts.steps", batch.num_steps)
            telemetry.counter(
                "rl.rollouts.steps_discarded", total - batch.num_steps
            )
            telemetry.observe("rl.rollouts.collect", elapsed)
            if elapsed > 0:
                telemetry.gauge(
                    "rl.rollouts.steps_per_sec", batch.num_steps / elapsed
                )
        return batch

    def _collect_local(
        self, budget: int, max_trajectory_length: int, epoch: int
    ) -> list[Fragment]:
        benv, evaluator = self._ensure_local()
        fragments: list[Fragment] = []
        total = 0
        group = 0
        while total < budget:
            group_fragments = collect_group(
                benv,
                evaluator,
                self.seed,
                epoch,
                group * self.num_envs,
                max_trajectory_length,
            )
            group += 1
            telemetry.counter("rl.rollouts.batched_groups")
            exhausted = False
            for fragment in group_fragments:
                fragments.append(fragment)
                total += len(fragment)
                if len(fragment) == 0:
                    exhausted = True  # env has no valid action at reset
            if exhausted:
                break
        return fragments

    def _collect_pool(
        self, budget: int, max_trajectory_length: int, epoch: int
    ) -> list[Fragment]:
        pool = self._ensure_pool()
        with telemetry.timer("rl.rollouts.transfer"):
            state_blob = pickle.dumps(
                self.policy.state_dict(), protocol=pickle.HIGHEST_PROTOCOL
            )
            telemetry.counter("rl.rollouts.transfer_bytes", len(state_blob))

        fragments: list[Fragment] = []
        total = 0
        next_group = 0
        try:
            while total < budget:
                remaining_groups = -(-(budget - total) // self.num_envs)
                width = min(self.num_workers, max(1, remaining_groups))
                tasks = [
                    (
                        state_blob,
                        self.seed,
                        epoch,
                        group,
                        self.num_envs,
                        max_trajectory_length,
                        0,
                    )
                    for group in range(next_group, next_group + width)
                ]
                next_group += width
                exhausted = False
                for group_fragments in self._run_round(pool, tasks):
                    telemetry.counter("rl.rollouts.batched_groups")
                    for fragment in group_fragments:
                        fragments.append(fragment)
                        total += len(fragment)
                        if len(fragment) == 0:
                            exhausted = True
                if exhausted:
                    break
        except KeyboardInterrupt:
            self.close()
            raise
        except Exception as exc:
            self.close()
            raise EnvironmentError_(
                f"rollout worker crashed during collection: {exc!r}"
            ) from exc
        return fragments

    def _run_round(self, pool, tasks: list[tuple]) -> list[list[Fragment]]:
        pending = [pool.apply_async(_run_group, (task,)) for task in tasks]
        results: list[list[Fragment]] = []
        for task, handle in zip(tasks, pending):
            try:
                results.append(handle.get(self.worker_timeout))
            except Exception as exc:
                results.append(self._retry_task(pool, task, exc))
        return results

    def _retry_task(self, pool, task: tuple, error: Exception):
        (blob, seed, epoch, group, num_envs, max_trajectory_length, _) = task
        for attempt in range(1, self.max_worker_retries + 1):
            telemetry.counter("rl.rollouts.worker_retries")
            time.sleep(self.retry_backoff * attempt)
            retry = (
                blob, seed, epoch, group, num_envs, max_trajectory_length,
                attempt,
            )
            try:
                return pool.apply_async(_run_group, (retry,)).get(
                    self.worker_timeout
                )
            except Exception as exc:
                error = exc
        raise error

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Terminate and join the pool (if any); idempotent."""
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.terminate()
            finally:
                pool.join()

    def __enter__(self) -> "BatchedRolloutCollector":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    def __del__(self):  # best-effort: crashes must not leak pools
        try:
            self.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# Training-side batched forward (differentiable)
# ----------------------------------------------------------------------
class BatchedForward:
    """One autodiff forward over a whole epoch of collected transitions.

    Training owes no bitwise parity to the serial forward: collection
    fixes the trajectories, and the update's sums differ from
    per-transition graphs only in order.  So this path uses full batched
    gemms and a shared block-diagonal CSR adjacency through
    :meth:`Tensor.sparse_matmul` — one graph for all ``m`` transitions
    instead of ``m`` per-step graphs.  GAT is the exception, because
    its attention is all-pairs within a graph: its layers take the
    ``(m, n, f)`` stack and the shared ``(n, n)`` neighbourhood, O(m·n²)
    memory like the ``m`` per-step graphs it replaces.
    """

    def __init__(self, policy: ActorCriticPolicy, adjacency_norm):
        self.policy = policy
        if sp.issparse(adjacency_norm):
            self._adjacency = adjacency_norm.tocsr()
        else:
            self._adjacency = sp.csr_matrix(adjacency_norm)
        # Only the latest size is kept: PPO re-evaluates one batch per
        # iteration, and epoch sizes vary when collection stops early.
        self._last_block: "tuple[int, sp.csr_matrix] | None" = None

    def _block(self, m: int) -> sp.csr_matrix:
        if self._last_block is None or self._last_block[0] != m:
            operator = sp.kron(
                sp.identity(m, format="csr"), self._adjacency, format="csr"
            )
            self._last_block = (m, operator)
        return self._last_block[1]

    def evaluate(
        self,
        observations: np.ndarray,
        masks: np.ndarray,
        actions: np.ndarray,
    ) -> tuple[Tensor, Tensor, Tensor]:
        """(log_probs (m,), entropies (m,), values (m,)), differentiable."""
        m, n, f = observations.shape
        encoder = self.policy.encoder
        if encoder.num_layers > 0 and encoder.gnn_type == "gat":
            stacked = encoder(Tensor(observations), self._adjacency)
            embeddings = stacked.reshape(m * n, encoder.out_features)
        else:
            flat = Tensor(observations.reshape(m * n, f))
            embeddings = encoder(flat, self._block(m))
        hidden = embeddings.shape[1]
        graph = embeddings.reshape(m, n, hidden).mean(axis=1)
        tiled = graph.gather_rows(np.repeat(np.arange(m), n))
        actor_in = Tensor.concatenate([embeddings, tiled], axis=1)
        logits = self.policy.actor(actor_in).reshape(
            m, n * self.policy.max_units
        )
        distribution = BatchedCategorical(logits, np.asarray(masks))
        values = self.policy.critic(graph).reshape(m)
        return (
            distribution.log_prob(actions),
            distribution.entropy(),
            values,
        )
