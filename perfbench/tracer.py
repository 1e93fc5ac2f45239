"""Span recorder for traced runs.

Wrappers are installed on the public calls of each layer, from this
process only; the program's sources are untouched.  Parent span ids
travel in a ``contextvars`` variable.  The wrapper on
``WorkerPool.submit`` runs each task in the context copied at submit
time, so the spans of one request share its id.  Work the program hands
across its own threads (solver-farm stages, the coalescer leader)
carries no id and is attributed to requests by time overlap.

Spans stay in memory as tuples until the run ends.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import gzip
import importlib
import itertools
import json
import threading
import time
from collections import namedtuple

_INHERITED = object()

Span = namedtuple(
    "Span", "id parent name start end thread request phase extra"
)


def _rows(args, kwargs, result):
    return int(args[1].shape[0])


def _steps(args, kwargs, result):
    return int(result.metadata.get("steps", 0))


def _is_milp(args, kwargs, result):
    model = args[0]
    return not kwargs.get("relax", False) and model.num_integer_variables > 0


def _batch_steps(args, kwargs, result):
    return int(result.num_steps)


def _service_cache_hit(args, kwargs, result):
    # ResponseCache also backs the solver farm's caches; only the
    # request-layer cache (default prefix) is the serve.cache layer.
    if args[0].telemetry_prefix != "serve.cache":
        return None
    return result is not None


def _slot_count(args, kwargs, result):
    return len(args[1])


def _one(args, kwargs, result):
    return 1


def _changed(args, kwargs, result):
    return int(result)


# (span name, module, attribute path, extra(args, kwargs, result) | None).
# A target the program no longer has is skipped and reported, so the
# traced run degrades to less attribution instead of failing.
TARGETS = (
    ("serve.cache.get", "repro.serve.cache", "ResponseCache.get", _service_cache_hit),
    ("serve.cache.put", "repro.serve.cache", "ResponseCache.put", None),
    ("serve.registry.agent", "repro.serve.registry", "PolicyRegistry.agent", None),
    ("serve.registry.plan", "repro.serve.registry", "InferenceAgent.plan", None),
    ("serve.registry.load_params", "repro.serve.registry", "ModelStore.load_params", None),
    ("rl.agent.rollout", "repro.rl.agent", "greedy_rollout", _steps),
    ("rl.agent.rollout", "repro.serve.registry", "greedy_rollout", _steps),
    ("rl.agent.rollout", "repro.solverfarm.backend", "greedy_rollout", _steps),
    ("rl.policy.forward", "repro.rl.policy", "ActorCriticPolicy.forward", None),
    ("rl.policy.forward", "repro.rl.policy", "ActorCriticPolicy.distribution", None),
    ("rl.policy.forward", "repro.rl.policy", "ActorCriticPolicy.value", None),
    ("rl.batched.forward", "repro.rl.batched", "BatchedPolicyEvaluator.forward", _rows),
    ("rl.batched.forward", "repro.rl.batched", "BatchedForward.evaluate", _rows),
    ("rl.env.step", "repro.rl.env", "PlanningEnv.step", _one),
    ("rl.env.step", "repro.rl.batched", "BatchedPlanningEnv.step_slots", _slot_count),
    ("rl.env.reset", "repro.rl.env", "PlanningEnv.reset", None),
    ("rl.env.reset", "repro.rl.env", "PlanningEnv.reset_from", None),
    ("rl.env.reset", "repro.rl.batched", "BatchedPlanningEnv.reset_all", None),
    ("rl.env.action_mask", "repro.rl.env", "PlanningEnv.action_mask", None),
    ("rl.env.action_mask", "repro.rl.batched", "BatchedPlanningEnv.action_masks", None),
    ("evaluator.evaluate", "repro.evaluator.evaluator", "PlanEvaluator.evaluate", None),
    ("solver.optimize", "repro.solver.model", "Model.optimize", _is_milp),
    ("core.neuroplan.second_stage", "repro.core.neuroplan", "NeuroPlan.second_stage", None),
    ("solverfarm.lease", "repro.solverfarm.pool", "BackendPool.lease", None),
    ("solverfarm.ensure_demands", "repro.solverfarm.backend", "PlanningBackend.ensure_demands", _changed),
    ("solverfarm.rollout", "repro.solverfarm.backend", "PlanningBackend.rollout", None),
    ("rl.rollouts.collect", "repro.rl.rollouts", "SerialRolloutCollector.collect", _batch_steps),
    ("rl.rollouts.collect", "repro.rl.rollouts", "ParallelRolloutCollector.collect", _batch_steps),
    ("rl.rollouts.collect", "repro.rl.batched", "BatchedRolloutCollector.collect", _batch_steps),
    ("rl.a2c.train", "repro.rl.a2c", "A2CTrainer.train", None),
    ("nn.backward", "repro.nn.tensor", "Tensor.backward", None),
    ("nn.adam_step", "repro.nn.optim", "Adam.step", None),
    ("topology.make_instance", "repro.topology.generators", "make_instance", None),
)


class Recorder:
    """In-memory span buffer plus the wrappers that fill it."""

    def __init__(self):
        self.spans: list = []
        self.phase = "setup"
        self.missing: list = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=(None, None))
        self._installed: list = []

    # -- recording ---------------------------------------------------------
    def record(self, name, start, end, parent=None, request=None, extra=None):
        self.spans.append(
            Span(next(self._ids), parent, name, start, end,
                 threading.get_ident(), request, self.phase, extra)
        )

    @contextlib.contextmanager
    def request(self, request_id):
        """Mark everything the caller does inside as ``request_id``'s."""
        token = self._current.set((None, request_id))
        try:
            yield
        finally:
            self._current.reset(token)

    def timed(self, fn, name, extra=None):
        """``fn`` wrapped to record one span per call."""
        current, ids, spans, recorder = self._current, self._ids, self.spans, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, request = current.get()
            span_id = next(ids)
            token = current.set((span_id, request))
            start = time.perf_counter()
            result, returned = None, False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                current.reset(token)
                spans.append(
                    Span(span_id, parent, name, start, end, threading.get_ident(),
                         request, recorder.phase,
                         extra(args, kwargs, result)
                         if extra is not None and returned else None)
                )

        return wrapper

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        for name, module_name, path, extra in TARGETS:
            owner, attr, original = _resolve(module_name, path)
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            self._patch(owner, attr, self.timed(original, name, extra))
        owner, attr, original = _resolve("repro.serve.pool", "WorkerPool.submit")
        if original is not None:
            self._patch(owner, attr, self._pool_submit(original))
        owner, attr, original = _resolve("repro.serve.coalescer", "ForwardCoalescer.rollout")
        if original is not None:
            self._patch(owner, attr, self._coalescer_rollout(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._installed.clear()

    def _patch(self, owner, attr, replacement) -> None:
        # A class method may be inherited: restoring then means removing
        # the wrapper from the subclass, not copying the base's onto it.
        original = vars(owner).get(attr, _INHERITED)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _pool_submit(self, original):
        """Run each pool task in the submitter's context and record the
        time it waited in the queue."""
        recorder = self

        def submit(pool, fn, *args, **kwargs):
            context = contextvars.copy_context()
            parent, request = recorder._current.get()
            queued = time.perf_counter()

            def run(*a, **k):
                recorder.record("serve.pool.queue", queued, time.perf_counter(),
                                parent, request)
                return context.run(fn, *a, **k)

            return original(pool, run, *args, **kwargs)

        return submit

    def _coalescer_rollout(self, original):
        """Time every ``act`` the coalescer's rollout registration yields."""
        recorder = self

        class _Registration:
            def __init__(self, inner):
                self._inner = inner

            def __enter__(self):
                return recorder.timed(self._inner.__enter__(), "serve.coalescer.act")

            def __exit__(self, *exc_info):
                return self._inner.__exit__(*exc_info)

        def rollout(coalescer, env):
            return _Registration(original(coalescer, env))

        return rollout

    # -- output -------------------------------------------------------------
    def dump(self, path) -> None:
        """Write every span as one JSON line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict(), default=str) + "\n")


def _resolve(module_name: str, path: str):
    """``(owner, attribute, current value)`` or ``(None, None, None)``."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None, None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    original = getattr(owner, attr, None)
    return (owner, attr, original) if original is not None else (None, None, None)
