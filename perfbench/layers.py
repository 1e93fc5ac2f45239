"""Per-layer metrics of a traced run.

Each metric is timed or counted at one layer's public calls (see
``tracer.TARGETS``) or read from the layer's own stats between the start
and the end of the measured phases.  A layer a workload never reaches
reports 0.  ``perfbench/README.md`` lists which end-to-end metric each
one should move, on which workload.
"""

from __future__ import annotations

import bisect
from collections import defaultdict

from perfbench import harness

# (name, unit, better) -- mirrored by "per_layer" in BENCHMARK.json.
PER_LAYER = (
    ("serve.pool.queue_wait_p50_ms", "ms", "lower"),
    ("serve.pool.queue_wait_p90_ms", "ms", "lower"),
    ("serve.cache.lookups", "count", "higher"),
    ("serve.cache.hit_ratio", "ratio", "higher"),
    ("serve.cache.get_us", "us", "lower"),
    ("serve.registry.agent_us", "us", "lower"),
    ("serve.registry.env_pool_size", "count", "lower"),
    ("serve.registry.memo_hit_ratio", "ratio", "higher"),
    ("serve.coalescer.batches", "count", "lower"),
    ("serve.coalescer.rows_per_batch", "rows", "higher"),
    ("serve.coalescer.fastpath_ratio", "ratio", "higher"),
    ("serve.coalescer.act_p50_us", "us", "lower"),
    ("rl.agent.rollout_p50_ms", "ms", "lower"),
    ("rl.agent.steps_per_rollout", "steps", "lower"),
    ("rl.policy.forward_calls", "count", "lower"),
    ("rl.policy.forward_s", "s", "lower"),
    ("rl.batched.forward_calls", "count", "lower"),
    ("rl.batched.forward_s", "s", "lower"),
    ("rl.batched.rows_per_forward", "rows", "higher"),
    ("rl.env.steps", "count", "higher"),
    ("rl.env.step_self_s", "s", "lower"),
    ("rl.env.evaluate_ratio", "ratio", "lower"),
    ("evaluator.evaluate_calls", "count", "lower"),
    ("evaluator.evaluate_s", "s", "lower"),
    ("evaluator.lp_solves_per_step", "ratio", "lower"),
    ("solver.lp_calls", "count", "lower"),
    ("solver.lp_s", "s", "lower"),
    ("solver.milp_calls", "count", "lower"),
    ("solver.milp_s", "s", "lower"),
    ("core.neuroplan.second_stage_s", "s", "lower"),
    ("solverfarm.lease_wait_us", "us", "lower"),
    ("solverfarm.bound_push_us", "us", "lower"),
    ("solverfarm.flows_changed", "count", "lower"),
    ("solverfarm.backend_rollout_ms", "ms", "lower"),
    ("solverfarm.warm_start_ratio", "ratio", "higher"),
    ("solverfarm.cache_hit_ratio", "ratio", "higher"),
    ("rl.rollouts.collect_s", "s", "lower"),
    ("rl.rollouts.steps", "count", "higher"),
    ("rl.a2c.update_s", "s", "lower"),
    ("nn.backward_s", "s", "lower"),
    ("nn.adam_step_s", "s", "lower"),
    ("topology.make_instance_s", "s", "lower"),
    ("loadgen.sent", "count", "higher"),
    ("loadgen.succeeded", "count", "higher"),
    ("loadgen.failed", "count", "lower"),
    ("loadgen.refused", "count", "lower"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def attributed(spans, windows, owned: bool) -> list:
    """``(start, end, intervals)`` per window.

    With ``owned`` a window (one request) gets the spans carrying its
    request id.  Otherwise (one request or epoch in flight at a time)
    it gets every span that overlaps it, whichever thread ran it.
    """
    if owned:
        by_request = defaultdict(list)
        for span in spans:
            by_request[span.request].append((span.start, span.end))
        return [(start, end, by_request.get(rid, [])) for start, end, rid in windows]
    ordered = sorted(spans, key=lambda s: s.start)
    starts = [s.start for s in ordered]
    longest = max((s.end - s.start for s in ordered), default=0.0)
    out = []
    for start, end, _rid in windows:
        lo = bisect.bisect_left(starts, start - longest)
        hi = bisect.bisect_right(starts, end)
        out.append(
            (start, end, [(s.start, s.end) for s in ordered[lo:hi] if s.end > start])
        )
    return out


def compute(spans, windows, owned: bool, stats: dict) -> dict:
    """Every per-layer metric as ``{name: value}``.

    ``spans`` are the recorder's spans, ``windows`` the measured requests
    or epochs as ``(start, end, request id)``, and ``stats`` what the
    workload read from the layers' own counters (see the keys used
    below; missing keys read as 0).
    """
    measure = [s for s in spans if s.phase == "measure"]
    by_name = defaultdict(list)
    for span in measure:
        by_name[span.name].append(span)

    def durations(name):
        return [s.end - s.start for s in by_name[name]]

    def total(name):
        return sum(durations(name))

    def p50(name, scale):
        values = durations(name)
        return harness.median(values) * scale if values else 0.0

    selfs = harness.self_times(
        [{"id": s.id, "parent": s.parent, "start": s.start, "end": s.end} for s in measure]
    )
    gets = [s for s in by_name["serve.cache.get"] if s.extra is not None]
    steps = sum(s.extra or 0 for s in by_name["rl.env.step"])
    lp = [s for s in by_name["solver.optimize"] if not s.extra]
    milp = [s for s in by_name["solver.optimize"] if s.extra]
    rollouts = by_name["rl.agent.rollout"]
    batched = by_name["rl.batched.forward"]
    queue_ms = [q * 1e3 for q in stats.get("queue_s", [])]
    windows_attr = attributed(spans, windows, owned)
    metrics = {
        "serve.pool.queue_wait_p50_ms": harness.percentile(queue_ms, 50) if queue_ms else 0.0,
        "serve.pool.queue_wait_p90_ms": harness.percentile(queue_ms, 90) if queue_ms else 0.0,
        "serve.cache.lookups": len(gets),
        "serve.cache.hit_ratio": _ratio(sum(1 for s in gets if s.extra), len(gets)),
        "serve.cache.get_us": (
            harness.median([s.end - s.start for s in gets]) * 1e6 if gets else 0.0
        ),
        "serve.registry.agent_us": p50("serve.registry.agent", 1e6),
        "serve.registry.env_pool_size": stats.get("env_pool_size", 0),
        "serve.registry.memo_hit_ratio": _ratio(
            stats.get("memo_hits", 0), stats.get("memo_hits", 0) + stats.get("memo_misses", 0)
        ),
        "serve.coalescer.batches": stats.get("batches", 0),
        "serve.coalescer.rows_per_batch": _ratio(
            stats.get("coalesced", 0), stats.get("batches", 0)
        ),
        "serve.coalescer.fastpath_ratio": _ratio(
            stats.get("fastpath", 0), stats.get("fastpath", 0) + stats.get("coalesced", 0)
        ),
        "serve.coalescer.act_p50_us": p50("serve.coalescer.act", 1e6),
        "rl.agent.rollout_p50_ms": p50("rl.agent.rollout", 1e3),
        "rl.agent.steps_per_rollout": _ratio(sum(s.extra or 0 for s in rollouts), len(rollouts)),
        "rl.policy.forward_calls": len(by_name["rl.policy.forward"]),
        "rl.policy.forward_s": total("rl.policy.forward"),
        "rl.batched.forward_calls": len(batched),
        "rl.batched.forward_s": total("rl.batched.forward"),
        "rl.batched.rows_per_forward": _ratio(sum(s.extra or 0 for s in batched), len(batched)),
        "rl.env.steps": steps,
        "rl.env.step_self_s": sum(selfs[s.id] for s in by_name["rl.env.step"]),
        "rl.env.evaluate_ratio": _ratio(len(by_name["evaluator.evaluate"]), steps),
        "evaluator.evaluate_calls": len(by_name["evaluator.evaluate"]),
        "evaluator.evaluate_s": total("evaluator.evaluate"),
        "evaluator.lp_solves_per_step": _ratio(len(lp), steps),
        "solver.lp_calls": len(lp),
        "solver.lp_s": sum(s.end - s.start for s in lp),
        "solver.milp_calls": len(milp),
        "solver.milp_s": sum(s.end - s.start for s in milp),
        "core.neuroplan.second_stage_s": total("core.neuroplan.second_stage"),
        "solverfarm.lease_wait_us": p50("solverfarm.lease", 1e6),
        "solverfarm.bound_push_us": p50("solverfarm.ensure_demands", 1e6),
        "solverfarm.flows_changed": sum(s.extra or 0 for s in by_name["solverfarm.ensure_demands"]),
        "solverfarm.backend_rollout_ms": p50("solverfarm.rollout", 1e3),
        "solverfarm.warm_start_ratio": _ratio(
            stats.get("warm_starts", 0), stats.get("replans", 0)
        ),
        "solverfarm.cache_hit_ratio": _ratio(
            stats.get("farm_hits", 0), stats.get("farm_hits", 0) + stats.get("farm_misses", 0)
        ),
        "rl.rollouts.collect_s": total("rl.rollouts.collect"),
        "rl.rollouts.steps": sum(s.extra or 0 for s in by_name["rl.rollouts.collect"]),
        "rl.a2c.update_s": _trainer_self_time(windows_attr, spans)
        if stats.get("training")
        else sum(selfs[s.id] for s in by_name["rl.a2c.train"]),
        "nn.backward_s": total("nn.backward"),
        "nn.adam_step_s": total("nn.adam_step"),
        "topology.make_instance_s": sum(
            s.end - s.start for s in spans
            if s.phase == "setup" and s.name == "topology.make_instance"
        ),
        "loadgen.sent": stats.get("sent", 0),
        "loadgen.succeeded": stats.get("succeeded", 0),
        "loadgen.failed": stats.get("failed", 0),
        "loadgen.refused": stats.get("refused", 0),
        "loadgen.late_p99_ms": stats.get("late_p99_ms", 0.0),
        "trace.coverage": harness.coverage(windows_attr),
        "trace.overhead": stats.get("overhead", 0.0),
    }
    return metrics


def _trainer_self_time(windows_attr, spans) -> float:
    """Self time of ``A2CTrainer.train`` inside the timed epochs: the
    epoch time no other layer's span covers (the update and GAE).

    The train span itself starts before the first timed epoch, so its
    self time is taken window by window instead of from its span."""
    trainer = {(s.start, s.end) for s in spans if s.name == "rl.a2c.train"}
    return sum(
        (end - start)
        - harness.union_length([iv for iv in intervals if iv not in trainer], start, end)
        for start, end, intervals in windows_attr
    )
