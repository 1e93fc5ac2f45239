"""Cross-request forward coalescing for concurrent serving rollouts.

Concurrent ``POST /v1/plan`` requests for the same model version all run
:func:`repro.rl.agent.greedy_rollout`, and each rollout step is one GNN
forward over a single observation.  The :class:`ForwardCoalescer`
intercepts that per-step forward (via the rollout's ``act`` seam) and
stacks the observations of every rollout that is currently waiting into
one block-diagonal sparse forward through
:class:`repro.rl.batched.BatchedPolicyEvaluator`.

Bitwise argument
----------------
PR 7 proved the batched forward emits logits rows bitwise identical to
the serial :meth:`ActorCriticPolicy.forward` (byte-audited fused gemms,
per-block CSR row independence, row-wise masked log-softmax pinned
against the 1-D serial one).  Mode-action rollouts are deterministic:
``Categorical.mode()`` is the argmax of the masked log-probs, so
bitwise-equal rows pick the identical action index, the environments
follow identical trajectories, and the final plans are byte-identical
to the serial per-request path.  Coalescing is therefore a pure
reordering of identical gemms — it changes wall-clock, never bytes.

Protocol
--------
Only steps over the same adjacency can share a block-diagonal forward
(instances built from different seeds draw different fiber graphs), so
every rollout belongs to one adjacency *group*, and all bookkeeping is
per group.  Rollouts register through :meth:`ForwardCoalescer.rollout`
(a context manager that tracks how many rollouts of its group are in
flight).  Each step calls ``act(observation, mask)``:

* **fast path** — when the caller is the only registered rollout of its
  group and nothing of its group is pending, the step runs as a batch
  of one through the group's evaluator
  (:meth:`BatchedPolicyEvaluator.mode_action`) without queueing, so
  both paths share one grad-free forward.  Rollouts of other groups
  never make it wait.  ``ServiceConfig(batching=False)`` builds no
  coalescer and keeps the autodiff ``policy.distribution(...).mode()``
  as the reference.
* **coalesced path** — the step enqueues its observation on its group
  and blocks.  The first waiter whose entry is still queued becomes the
  group's *leader*: it waits until every registered rollout of the
  group is pending (or ``max_batch`` is reached, or the batch window
  expires), drains the group's queue, runs one batched forward, and
  publishes per-row mode actions back to the waiters.  Leadership is
  re-elected from the remaining waiters after every batch, so a queue
  longer than ``max_batch`` never strands followers.

Telemetry: ``serve.batch.batches`` / ``serve.batch.coalesced`` /
``serve.batch.fastpath`` counters, ``serve.batch.size`` and
``serve.batch.wait`` observations, plus an in-process batch-size
histogram surfaced through ``healthz()``/``metrics()``.
"""

from __future__ import annotations

import hashlib
import threading
import time

import numpy as np

from repro import telemetry
from repro.errors import ServeError
from repro.rl.batched import BatchedPolicyEvaluator, mode_actions_rows
from repro.rl.policy import ActorCriticPolicy

__all__ = ["ForwardCoalescer", "CoalescerRegistry", "adjacency_fingerprint"]


def adjacency_fingerprint(adjacency, sparse: bool) -> str:
    """Content hash of a normalized adjacency operator.

    Instances built from different seeds draw different fiber graphs, so
    steps can only share a block-diagonal forward when their adjacency
    bytes agree: the fingerprint names a rollout's group.  It is
    computed once per env and cached on it by the coalescer.
    """
    digest = hashlib.sha256()
    if sparse:
        digest.update(repr(adjacency.shape).encode())
        digest.update(adjacency.indptr.tobytes())
        digest.update(adjacency.indices.tobytes())
        digest.update(adjacency.data.tobytes())
    else:
        arr = np.ascontiguousarray(adjacency)
        digest.update(repr(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


class _Group:
    """One adjacency fingerprint's evaluator, rollouts and queue.

    ``cond`` guards every field but the evaluator.  The counters are summed over
    groups by :meth:`ForwardCoalescer.stats`.
    """

    __slots__ = (
        "evaluator",
        "cond",
        "active",
        "pending",
        "leading",
        "batches",
        "coalesced",
        "fastpath",
        "max_size",
        "histogram",
    )

    def __init__(self, evaluator: BatchedPolicyEvaluator):
        self.evaluator = evaluator
        self.cond = threading.Condition()
        self.active = 0
        self.pending: "list[_Entry]" = []
        self.leading = False
        self.batches = 0
        self.coalesced = 0
        self.fastpath = 0
        self.max_size = 0
        self.histogram: dict[int, int] = {}


class _Entry:
    """One pending rollout step awaiting a coalesced forward."""

    __slots__ = ("observation", "mask", "queued", "action", "error", "enqueued_at")

    def __init__(self, observation, mask):
        self.observation = observation
        self.mask = mask
        self.queued = True
        self.action: "int | None" = None
        self.error: "BaseException | None" = None
        self.enqueued_at = time.perf_counter()


class ForwardCoalescer:
    """Per-model-version coalescer stacking concurrent rollout steps."""

    def __init__(
        self,
        policy: ActorCriticPolicy,
        *,
        window_s: float = 0.002,
        max_batch: int = 16,
    ):
        if max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {max_batch}")
        self.policy = policy
        self.window_s = max(0.0, float(window_s))
        self.max_batch = int(max_batch)
        self._lock = threading.Lock()
        self._groups: dict[str, _Group] = {}

    # -- registration ----------------------------------------------------
    def rollout(self, env):
        """Register one rollout; returns a context manager yielding ``act``."""
        return _RolloutRegistration(self, env)

    def _group_for(self, env) -> _Group:
        fingerprint = getattr(env, "_coalescer_fp", None)
        if fingerprint is None:
            fingerprint = adjacency_fingerprint(env.adjacency_norm, env.sparse_adjacency)
            env._coalescer_fp = fingerprint
        with self._lock:
            group = self._groups.get(fingerprint)
            if group is None:
                evaluator = BatchedPolicyEvaluator(
                    self.policy, env.adjacency_norm, env.sparse_adjacency
                )
                group = _Group(evaluator)
                self._groups[fingerprint] = group
        return group

    # -- per-step action --------------------------------------------------
    def _act(self, group: _Group, observation, mask) -> int:
        cond = group.cond
        with cond:
            if group.active <= 1 and not group.pending:
                group.fastpath += 1
                entry = None
            else:
                entry = _Entry(observation, mask)
                group.pending.append(entry)
                cond.notify_all()
        if entry is None:
            telemetry.counter("serve.batch.fastpath")
            return group.evaluator.mode_action(observation, mask)
        with cond:
            while entry.action is None and entry.error is None:
                if entry.queued and not group.leading:
                    group.leading = True
                    try:
                        self._lead(group)
                    finally:
                        group.leading = False
                        cond.notify_all()
                else:
                    cond.wait(0.05)
        if entry.error is not None:
            raise entry.error
        return entry.action

    def _lead(self, group: _Group) -> None:
        """Collect a batch of ``group`` and run it.  Called with its lock held."""
        cond = group.cond
        deadline = time.perf_counter() + self.window_s
        while True:
            waiting = len(group.pending)
            if waiting >= self.max_batch or waiting >= group.active:
                break
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            cond.wait(remaining)
        batch = group.pending[: self.max_batch]
        del group.pending[: len(batch)]
        now = time.perf_counter()
        for item in batch:
            item.queued = False
            telemetry.observe("serve.batch.wait", now - item.enqueued_at)
        group.batches += 1
        group.coalesced += len(batch)
        group.max_size = max(group.max_size, len(batch))
        group.histogram[len(batch)] = group.histogram.get(len(batch), 0) + 1
        telemetry.counter("serve.batch.batches")
        telemetry.counter("serve.batch.coalesced", float(len(batch)))
        telemetry.observe("serve.batch.size", float(len(batch)))
        cond.release()
        try:
            self._compute(group, batch)
        finally:
            cond.acquire()
            for item in batch:
                if item.action is None and item.error is None:
                    item.error = ServeError("coalesced forward died before publishing")
            cond.notify_all()

    def _compute(self, group: _Group, batch: "list[_Entry]") -> None:
        try:
            features = np.stack([item.observation for item in batch])
            masks = np.stack([item.mask for item in batch])
            logits, _values = group.evaluator.forward(features, critic=False)
            actions = mode_actions_rows(logits, masks)
            for row, item in enumerate(batch):
                item.action = int(actions[row])
        except BaseException as exc:
            for item in batch:
                if item.action is None:
                    item.error = exc
            raise

    # -- introspection ----------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            groups = list(self._groups.values())
        batches = coalesced = fastpath = max_size = 0
        histogram: dict[int, int] = {}
        for group in groups:
            with group.cond:
                batches += group.batches
                coalesced += group.coalesced
                fastpath += group.fastpath
                max_size = max(max_size, group.max_size)
                for size, count in group.histogram.items():
                    histogram[size] = histogram.get(size, 0) + count
        return {
            "batches": batches,
            "coalesced_requests": coalesced,
            "fastpath": fastpath,
            "max_batch_size": max_size,
            "histogram": {
                str(size): count for size, count in sorted(histogram.items())
            },
            "groups": len(groups),
        }


class _RolloutRegistration:
    """Context manager binding one rollout's env to its group."""

    def __init__(self, coalescer: ForwardCoalescer, env):
        self._coalescer = coalescer
        self._env = env
        self._group: "_Group | None" = None

    def __enter__(self):
        coalescer = self._coalescer
        group = self._group = coalescer._group_for(self._env)
        with group.cond:
            group.active += 1
        return lambda observation, mask: coalescer._act(group, observation, mask)

    def __exit__(self, exc_type, exc, tb):
        group = self._group
        with group.cond:
            group.active -= 1
            group.cond.notify_all()
        return False


class CoalescerRegistry:
    """One :class:`ForwardCoalescer` per (model dirname, version)."""

    def __init__(self, *, window_s: float = 0.002, max_batch: int = 16):
        self.window_s = float(window_s)
        self.max_batch = int(max_batch)
        self._lock = threading.Lock()
        self._coalescers: dict = {}

    def get(self, key, policy: ActorCriticPolicy) -> ForwardCoalescer:
        with self._lock:
            coalescer = self._coalescers.get(key)
            if coalescer is None or coalescer.policy is not policy:
                coalescer = ForwardCoalescer(
                    policy, window_s=self.window_s, max_batch=self.max_batch
                )
                self._coalescers[key] = coalescer
            return coalescer

    def stats(self) -> dict:
        with self._lock:
            items = list(self._coalescers.items())
        return {
            "enabled": True,
            "window_ms": self.window_s * 1000.0,
            "max_batch": self.max_batch,
            "models": {f"{key[0]}@{key[1]}": c.stats() for key, c in items},
        }
