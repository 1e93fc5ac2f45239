"""The four workloads.

Serving load goes through ``PlanningService.submit``/``replan``;
training through ``A2CTrainer.train`` (via ``NeuroPlanAgent``).  Each
workload configures the program as a user would: library defaults plus
the settings named below.

An untraced run repeats set-up (``SETUP_REPEATS`` or, where it is
cheap, ``CHEAP_SETUP_REPEATS`` times) and reports the median, then runs
the timed phases in segments, then checks every answer.  Every set-up,
segment and epoch is scaled by the host factor timed at its two ends
(``perfbench/hostspeed.py``).  A traced run first repeats a short
closed-loop phase untraced (the overhead baseline), then installs the
span recorder, sets up once and runs the same phases traced and
unsegmented; only per-layer metrics come from it.
"""

from __future__ import annotations

import math
import random
import resource
import time
from dataclasses import dataclass, field

from perfbench import harness, layers
from perfbench.fixtures import (
    COST_TOL,
    HORIZON,
    PLAN_SEEDS,
    REPLAN_PERIODS,
    REPLAN_SEEDS,
    SCALE,
    TOPOLOGY,
    Fixtures,
    drift_spec,
    model_key,
)
from perfbench.loadgen import LoadGenerator, Phase, Sample, phase_summary

# (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("plan_cost", "cost"),
)

# Set-up is repeated and its median reported; cheap set-ups repeat more.
SETUP_REPEATS = 3
CHEAP_SETUP_REPEATS = 9
CAPACITY_OUTSTANDING = 8
# Share of a traced run's work repeated untraced as the overhead baseline.
OVERHEAD_BASELINE_SHARE = 0.25
# Closed-loop and training work is sized from --seconds at the rates
# measured on a 2-core x86 VM (the *_NOMINAL constants), so every run
# with one seed does the same work.  Closed-loop rates are medians over
# up to 10 batches, each a whole number of the workload's request cycles
# (a block of 9 cold requests; 200 hot hits and their storm).
RATE_BATCHES = 10

# plan-cold: open loop at about a fifth of the default (two-worker)
# service's closed-loop capacity, 13-19 req/s on a 2-core x86 VM.  At
# half capacity the open-loop median moved by 40% from run to run there,
# and still by 30% at a quarter: queueing amplifies the host's speed
# swings.
COLD_RATE = 3.0
COLD_BLOCK = len(PLAN_SEEDS) + 1  # 8 rollouts and one second stage
COLD_OPEN_SHARE = 0.75
COLD_CAPACITY_NOMINAL = 15.0  # req/s
# plan-hot: cache-hit traffic plus a refresh storm every second.  A storm
# holds all eight workers for about a tenth of a second (twice that when
# the host runs slow); the queue is deeper than the default so hits that
# arrive meanwhile wait instead of being refused.
HOT_SEEDS = PLAN_SEEDS[:4]  # Zipf rank order: seed 0 is the top seed
HOT_RATE = 200.0
HOT_STORM = 8
HOT_STORM_PERIOD_S = 1.0
HOT_WORKERS = 8
HOT_QUEUE_DEPTH = 256
HOT_OPEN_SHARE = 0.6
HOT_CAPACITY_NOMINAL = 1200.0  # req/s
# replan-drift: every 4th period is asked twice; the second answer comes
# from the solver farm's result cache.
REREQUEST_EVERY = 4
REPLAN_SESSIONS_NOMINAL = 10.0  # sessions/s
# train: topology A@1.0 (seed 0) as the CLI builds it, A2C seed 0.  The
# inputs are fixed; the workload seed is only recorded.
TRAIN_A2C_SEED = 0
TRAIN_MAX_UNITS = 4
TRAIN_MAX_STEPS = 256
TRAIN_NUM_ENVS = (1, 16)
TRAIN_STEPS_PER_EPOCH = {1: 512, 16: 768}
TRAIN_EPOCH_NOMINAL_S = 1.0


@dataclass
class Outcome:
    """What one run produced."""

    metrics: dict  # name -> value
    units: dict  # name -> unit
    tally: harness.Tally
    notes: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)  # raw series, result file only


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _e2e(setup_s, throughput, latencies_ms, costs) -> dict:
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "throughput_per_s": throughput,
        "latency_p50_ms": harness.median(latencies_ms),
        "plan_cost": sum(costs) / len(costs),
    }


def _timed_setups(repeats: int, set_up, speed, notes, tear_down=None):
    """Run ``set_up()`` ``repeats`` times (``tear_down`` of the previous
    result, untimed, in between); returns the median of its times, each
    scaled by its own host factor (``speed`` None: unscaled, as in traced
    runs), and the last result."""
    from perfbench.hostspeed import Boundaries

    bounds = Boundaries(speed) if speed is not None else None
    if bounds is not None:
        bounds.mark()
    times, result = [], None
    for repeat in range(repeats):
        if repeat and tear_down is not None:
            tear_down(result)
        started = time.perf_counter()
        result = set_up()
        times.append(time.perf_counter() - started)
        if bounds is not None:
            bounds.mark()
    factors = bounds.factors() if bounds is not None else [1.0] * repeats
    notes.update(setup_s_samples=times, setup_host_factors=factors)
    return harness.median([t / f for t, f in zip(times, factors)]), result


def _segment_scaled(phase, factors, notes) -> dict:
    """Per segment of a phase: its requests' latencies divided by, and its
    rate times, the segment's host factor.  ``rate`` is the median over
    the segments, ``total_rate`` all answers over all scaled time."""
    latencies, rates, scaled_s = [], [], 0.0
    for (start, end, first, last), factor in zip(phase.segments, factors):
        part = [s for s in phase.samples[first:last] if not s.refused]
        latencies += [s.latency_s * 1e3 / factor for s in part]
        rates.append(len(part) / (end - start) * factor)
        scaled_s += (end - start) / factor
    notes[f"{phase.name}_segments"] = {
        "host_factors": factors,
        "rates_per_s": rates,
        "unscaled_rates_per_s": [r / f for r, f in zip(rates, factors)],
    }
    return {
        "latencies_ms": latencies,
        "rate": harness.median(rates),
        "total_rate": len(latencies) / scaled_s,
    }


def tail_note(latencies_ms) -> dict:
    """The p90/p99 the sample supports (ten samples beyond each)."""
    note = {"samples": len(latencies_ms)}
    for q in (90, 99):
        if harness.supported(len(latencies_ms), q):
            note[f"p{q}_ms"] = harness.percentile(latencies_ms, q)
    return note


def _matched_overhead(traced: list, untraced: list) -> float:
    """Traced over untraced wall time, minus 1, over the operations both
    runs did: the same seed makes the first ``n`` of each identical work."""
    n = min(len(traced), len(untraced))
    return sum(traced[:n]) / sum(untraced[:n]) - 1.0 if n else 0.0


def _layer_outcome(recorder, windows, owned, stats, tally, notes) -> Outcome:
    values = layers.compute(recorder.spans, windows, owned, stats)
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    return Outcome(values, units, tally, notes)


# ======================================================================
# plan-cold and plan-hot
# ======================================================================
def _cold_specs(rng):
    """Blocks of COLD_BLOCK requests in shuffled order: one rollout of
    each of the 8 instances and one second-stage request, whose instance
    rotates from block to block.  Every block is the same work mix, so
    the mix of a phase of whole blocks does not depend on the seed."""
    rotation = rng.randrange(len(PLAN_SEEDS))
    while True:
        block = [{"seed": seed, "second_stage": False, "no_cache": True}
                 for seed in PLAN_SEEDS]
        block.append({"seed": PLAN_SEEDS[rotation % len(PLAN_SEEDS)],
                      "second_stage": True, "no_cache": True})
        rotation += 1
        rng.shuffle(block)
        yield from block


def _hot_hit(rng, weights):
    return {"seed": rng.choices(HOT_SEEDS, weights)[0], "second_stage": False,
            "no_cache": False}


def _storm():
    return [{"seed": HOT_SEEDS[0], "second_stage": False, "no_cache": True}] * HOT_STORM


def _hot_specs(rng):
    """Zipf-popular cache hits with a storm after every
    HOT_RATE * HOT_STORM_PERIOD_S hits (the open loop's proportion)."""
    weights = harness.zipf_weights(len(HOT_SEEDS))
    while True:
        for _ in range(int(HOT_RATE * HOT_STORM_PERIOD_S)):
            yield _hot_hit(rng, weights)
        yield from _storm()


def _cold_arrivals(rng, duration: float) -> list:
    """Whole blocks at COLD_RATE on average, at Poisson arrival times
    given their count."""
    specs = _cold_specs(rng)
    count = COLD_BLOCK * max(1, round(COLD_RATE * duration / COLD_BLOCK))
    due = harness.uniform_schedule(count, duration, rng.randrange(2**31))
    return [(offset, next(specs)) for offset in due]


def _hot_arrivals(rng, duration: float) -> list:
    weights = harness.zipf_weights(len(HOT_SEEDS))
    due = harness.poisson_schedule(HOT_RATE, duration, rng.randrange(2**31))
    arrivals = [(offset, _hot_hit(rng, weights)) for offset in due]
    storms = int(duration / HOT_STORM_PERIOD_S)
    arrivals += [
        (index * HOT_STORM_PERIOD_S, spec)
        for index in range(1, storms + 1)
        if index * HOT_STORM_PERIOD_S < duration
        for spec in _storm()
    ]
    arrivals.sort(key=lambda item: item[0])
    return arrivals


@dataclass
class PlanWorkload:
    config: dict  # ServiceConfig settings beyond the defaults
    identities: tuple  # request specs served once during set-up
    arrivals: object  # (rng, duration) -> [(due offset, spec)], open loop
    specs: object  # rng -> endless spec iterator, closed loop
    open_share: float
    capacity_nominal: float  # closed-loop req/s the work is sized for
    setup_repeats: int
    cycle: int  # requests after which the closed-loop mix repeats
    # Whether open-loop latencies are scaled by the host factor: not for
    # plan-hot's sub-millisecond cache hits (see perfbench/README.md).
    scale_open_loop: bool

    def capacity_cycles(self, seconds: float) -> int:
        """Closed-loop cycles for ``seconds``: a multiple of
        RATE_BATCHES once there are more than that many."""
        nominal = seconds * (1.0 - self.open_share) * self.capacity_nominal
        cycles = max(1, round(nominal / self.cycle))
        if cycles > RATE_BATCHES:
            cycles = RATE_BATCHES * round(cycles / RATE_BATCHES)
        return cycles

    def rate(self, phase, cycles: int) -> float:
        """Answered requests per second, median over whole-cycle batches."""
        return phase.rate(min(RATE_BATCHES, cycles))


PLAN_COLD = PlanWorkload(
    config={},
    identities=tuple(
        {"seed": seed, "second_stage": second, "no_cache": True}
        for seed in PLAN_SEEDS
        for second in (False, True)
    ),
    arrivals=_cold_arrivals,
    specs=_cold_specs,
    open_share=COLD_OPEN_SHARE,
    capacity_nominal=COLD_CAPACITY_NOMINAL,
    setup_repeats=SETUP_REPEATS,
    cycle=COLD_BLOCK,
    scale_open_loop=True,
)
PLAN_HOT = PlanWorkload(
    config={"workers": HOT_WORKERS, "queue_depth": HOT_QUEUE_DEPTH},
    identities=tuple(
        {"seed": seed, "second_stage": False, "no_cache": False} for seed in HOT_SEEDS
    ),
    arrivals=_hot_arrivals,
    specs=_hot_specs,
    open_share=HOT_OPEN_SHARE,
    capacity_nominal=HOT_CAPACITY_NOMINAL,
    setup_repeats=CHEAP_SETUP_REPEATS,
    cycle=int(HOT_RATE * HOT_STORM_PERIOD_S) + HOT_STORM,
    scale_open_loop=False,
)


def _plan_request(spec):
    from repro.serve import PlanRequest

    return PlanRequest(topology=TOPOLOGY, scale=SCALE, horizon=HORIZON, **spec)


class PlanChecker:
    """Checks answers against the serial references and the verifier."""

    def __init__(self, references: dict, tally: harness.Tally):
        self.references = references
        self.tally = tally
        self.costs: list = []
        self._verified: dict = {}

    def reference(self, spec) -> dict:
        return self.references[f"{spec['seed']}/{spec['second_stage']}"]

    def check(self, spec, response) -> None:
        reference = self.reference(spec)
        self.costs.append(response["cost"])
        if not spec["second_stage"]:
            self.tally.check(
                harness.plans_equal(response["plan"], reference["plan"]),
                f"seed {spec['seed']}: plan differs from the serial reference",
            )
            return
        same_cost = harness.cost_matches(response["cost"], reference["cost"], COST_TOL)
        self.tally.check(
            same_cost and self._second_stage_ok(spec, response, reference),
            f"seed {spec['seed']}: second-stage answer off the reference cost "
            "or rejected by the verifier",
        )

    def _second_stage_ok(self, spec, response, reference) -> bool:
        if harness.plans_equal(response["plan"], reference["plan"]):
            return reference["verified"]
        key = (spec["seed"], tuple(sorted(response["plan"].items())))
        if key not in self._verified:
            from repro.scenarios import verify_plan
            from repro.topology import generators

            from perfbench.fixtures import agrees_with_verifier

            instance = generators.make_instance(
                TOPOLOGY, seed=spec["seed"], scale=SCALE, horizon=HORIZON
            )
            report = verify_plan(instance, response["plan"], response["method"])
            self._verified[key] = agrees_with_verifier(
                report, response["feasible"], response["cost"]
            )
        return self._verified[key]

    def check_sample(self, sample) -> None:
        if sample.refused:
            self.tally.check(False, "refused: Overloaded")
            return
        error = sample.future.exception()
        if error is not None:
            self.tally.check(False, f"{type(error).__name__}: {error}")
            return
        self.check(sample.spec, sample.future.result())


def _set_up_service(workload: PlanWorkload, store: str, checker: PlanChecker):
    from repro.serve import PlanningService, ServiceConfig

    service = PlanningService(store, ServiceConfig(**workload.config))
    for spec in workload.identities:
        checker.check(spec, service.plan(_plan_request(spec)))
    return service


def _serving_stats(service, seeds) -> dict:
    batching = service.batching_stats().get("models", {}).values()
    agents = [service.registry.peek(model_key(), seed=seed) for seed in seeds]
    agents = [loaded[0] for loaded in agents if loaded is not None]
    farm = service.metrics().get("solverfarm", {}).get("cache", {}).get("rollout", {})
    return {
        "batches": sum(m["batches"] for m in batching),
        "coalesced": sum(m["coalesced_requests"] for m in batching),
        "fastpath": sum(m["fastpath"] for m in batching),
        "memo_hits": sum(a.memo_stats()["hits"] for a in agents),
        "memo_misses": sum(a.memo_stats()["misses"] for a in agents),
        "env_pool_size": sum(a.pool_size for a in agents),
        "farm_hits": farm.get("hits", 0),
        "farm_misses": farm.get("misses", 0),
    }


def _delta(after: dict, before: dict) -> dict:
    return {
        key: after[key] if key == "env_pool_size" else after[key] - before[key]
        for key in after
    }


def run_plan(workload: PlanWorkload, seed: int, seconds: float, recorder=None) -> Outcome:
    from repro.errors import Overloaded

    from perfbench.hostspeed import Boundaries, HostSpeed

    fixtures = Fixtures()
    fixtures.ensure_all()
    store = fixtures.model_store()
    tally = harness.Tally()
    checker = PlanChecker(fixtures.plan_references(), tally)
    for spec in workload.identities:
        tally.check(checker.reference(spec)["verified"],
                    f"reference {spec} disagrees with the verifier")
    rng = random.Random(seed)
    notes = {"manifest": fixtures.manifest_checksum()}

    def submitter(service):
        return lambda spec: service.submit(_plan_request(spec))

    cycles = workload.capacity_cycles(seconds)
    base_cycles = max(1, round(cycles * OVERHEAD_BASELINE_SHARE))
    speed = None
    if recorder is not None:
        service = _set_up_service(workload, store, checker)
        baseline = LoadGenerator(submitter(service), Overloaded).closed_loop(
            "untraced-capacity", workload.specs(random.Random(f"capacity-{seed}")),
            CAPACITY_OUTSTANDING, base_cycles * workload.cycle,
        )
        service.close()
        for sample in baseline.samples:
            checker.check_sample(sample)
        recorder.install()
    else:
        speed = HostSpeed()

    setup_s, service = _timed_setups(
        1 if recorder is not None else workload.setup_repeats,
        lambda: _set_up_service(workload, store, checker), speed, notes,
        lambda previous: previous.close(),
    )

    seeds = sorted({spec["seed"] for spec in workload.identities})
    before = _serving_stats(service, seeds)
    if recorder is not None:
        recorder.phase = "measure"
    loadgen = LoadGenerator(submitter(service), Overloaded, recorder)
    open_bounds = closed_bounds = None
    segments = 1
    if speed is not None:
        open_bounds, closed_bounds = Boundaries(speed), Boundaries(speed)
        open_bounds.mark()
        segments = RATE_BATCHES
    open_phase = loadgen.open_loop(
        "open", workload.arrivals(rng, seconds * workload.open_share), segments,
        open_bounds and open_bounds.mark,
    )
    if speed is not None:
        closed_bounds.mark()
        segments = min(RATE_BATCHES, cycles)
    closed_phase = loadgen.closed_loop(
        "capacity", workload.specs(random.Random(f"capacity-{seed}")),
        CAPACITY_OUTSTANDING, cycles * workload.cycle, segments,
        closed_bounds and closed_bounds.mark,
    )
    if recorder is not None:
        recorder.phase = "done"
    stats = _delta(_serving_stats(service, seeds), before)
    service.close()

    checker.costs.clear()
    for phase in (open_phase, closed_phase):
        for sample in phase.samples:
            checker.check_sample(sample)
    summaries = [phase_summary(open_phase), phase_summary(closed_phase)]
    notes["phases"] = summaries
    latencies = open_phase.latencies_ms()
    notes["open_loop"] = tail_note(latencies)
    if recorder is None:
        notes["unscaled_latency_p50_ms"] = harness.median(latencies)
        open_factors = open_bounds.factors()
        if not workload.scale_open_loop:
            open_factors = [1.0] * len(open_factors)
        scaled_open = _segment_scaled(open_phase, open_factors, notes)
        scaled_closed = _segment_scaled(closed_phase, closed_bounds.factors(), notes)
        notes["host_kernel_s"] = speed.medians()
        values = _e2e(setup_s, scaled_closed["rate"], scaled_open["latencies_ms"],
                      checker.costs)
        samples = {
            "open_latency_ms": latencies,
            "capacity_done_s": [s.done - closed_phase.start for s in closed_phase.samples],
        }
        return Outcome(values, dict(END_TO_END), tally, notes, samples)

    answered = [s for p in (open_phase, closed_phase) for s in p.answered()
                if s.future.exception() is None]
    stats.update(
        queue_s=[s.future.result()["timings"]["queue_s"] for s in answered],
        sent=sum(p["sent"] for p in summaries),
        succeeded=sum(p["succeeded"] for p in summaries),
        failed=sum(p["failed"] for p in summaries),
        refused=sum(p["refused"] for p in summaries),
        late_p99_ms=summaries[0]["late_p99_ms"],
        overhead=workload.rate(baseline, base_cycles)
        / workload.rate(closed_phase, cycles) - 1.0,
    )
    windows = [(s.sent, s.done, s.rid) for s in answered]
    return _layer_outcome(recorder, windows, True, stats, tally, notes)


# ======================================================================
# replan-drift
# ======================================================================
def _replan_request(seed, demands=None, prior_plan=None, prior_demands=None):
    from repro.serve import ReplanRequest

    return ReplanRequest(
        topology=TOPOLOGY, scale=SCALE, horizon=HORIZON, seed=seed,
        demands=demands, prior_plan=prior_plan, prior_demands=prior_demands,
        no_cache=True,
    )


def _set_up_replan(store, baseline: dict, tally):
    """A default service with every seed's backend built and warm."""
    from repro.serve import PlanningService, ServiceConfig

    service = PlanningService(store, ServiceConfig())
    for seed in REPLAN_SEEDS:
        response = service.replan(_replan_request(seed))
        tally.check(
            harness.plans_equal(response["plan"], baseline[str(seed)]["plan"]),
            f"seed {seed}: baseline replan differs from the cold reference",
        )
    return service


def _walk(service, sessions, order, tally, recorder=None, bounds=None) -> dict:
    """Walk the sessions in ``order``, one client.

    With ``bounds``, the walk runs in RATE_BATCHES segments of sessions
    and the host kernel is timed at their boundaries; the segments are
    returned as a ``Phase`` of the replans.
    """
    from repro.scenarios.multiperiod import growth_schedule

    traffic = {
        seed: service.registry.agent(model_key(), seed=seed)[0].instance.traffic
        for seed in REPLAN_SEEDS
    }
    calls, rid = [], 0
    segment = max(1, len(order) // RATE_BATCHES)
    phase = Phase(name="replan", start=time.perf_counter())
    if bounds is not None:
        bounds.mark()
    segment_start, first = time.perf_counter(), 0
    for position, index in enumerate(order):
        if bounds is not None and position and position % segment == 0:
            phase.segments.append((segment_start, time.perf_counter(), first, len(calls)))
            bounds.mark()
            segment_start, first = time.perf_counter(), len(calls)
        session = sessions[index]
        seed = session["seed"]
        schedule = growth_schedule(
            traffic[seed], periods=REPLAN_PERIODS, seed=session["schedule_seed"]
        )
        prior_plan = prior_spec = None
        for period, (demands, reference) in enumerate(zip(schedule, session["periods"])):
            spec = drift_spec(demands)
            request = _replan_request(seed, spec, prior_plan, prior_spec)
            asks = 2 if period % REREQUEST_EVERY == REREQUEST_EVERY - 1 else 1
            for _ in range(asks):
                rid += 1
                sent = time.perf_counter()
                try:
                    if recorder is None:
                        response = service.replan(request)
                    else:
                        with recorder.request(rid):
                            response = service.replan(request)
                except Exception as exc:  # typed program errors count as failures
                    tally.check(False, f"replan raised {type(exc).__name__}: {exc}")
                    response = None
                    break
                calls.append((sent, time.perf_counter(), rid, response))
                tally.check(
                    reference["verified"]
                    and harness.plans_equal(response["plan"], reference["plan"]),
                    f"seed {seed} schedule {session['schedule_seed']} period "
                    f"{period}: replan differs from the cold reference",
                )
            if response is None:
                break
            prior_plan, prior_spec = response["plan"], spec
    if bounds is not None:
        phase.segments.append((segment_start, time.perf_counter(), first, len(calls)))
        bounds.mark()
    phase.samples = [
        Sample(spec={}, due=sent, sent=sent, rid=call_id, done=done)
        for sent, done, call_id, _ in calls
    ]
    return {"calls": calls, "phase": phase}


def _session_order(sessions, count: int, seed: int) -> list:
    """``count`` sessions drawn from ``seed``, as many of each instance
    as the universe allows (instances differ most in replan cost), in a
    shuffled order."""
    rng = random.Random(seed)
    by_seed = {}
    for index, session in enumerate(sessions):
        by_seed.setdefault(session["seed"], []).append(index)
    for indices in by_seed.values():
        rng.shuffle(indices)
    order = [index for column in zip(*by_seed.values()) for index in column]
    order = order[: max(1, min(count, len(order)))]
    rng.shuffle(order)
    return order


def run_replan(seed: int, seconds: float, recorder=None) -> Outcome:
    fixtures = Fixtures()
    fixtures.ensure_all()
    store = fixtures.model_store()
    universe = fixtures.replan_universe()
    sessions = universe["sessions"]
    tally = harness.Tally()
    for reference in universe["baseline"].values():
        tally.check(reference["verified"], "baseline reference disagrees with the verifier")
    order = _session_order(sessions, round(seconds * REPLAN_SESSIONS_NOMINAL), seed)
    notes = {"manifest": fixtures.manifest_checksum()}

    from perfbench.hostspeed import Boundaries, HostSpeed

    speed = bounds = None
    if recorder is not None:
        service = _set_up_replan(store, universe["baseline"], tally)
        baseline = _walk(
            service, sessions, order[: round(len(order) * OVERHEAD_BASELINE_SHARE)], tally
        )
        service.close()
        recorder.install()
    else:
        speed = HostSpeed()
        bounds = Boundaries(speed)

    setup_s, service = _timed_setups(
        1 if recorder is not None else CHEAP_SETUP_REPEATS,
        lambda: _set_up_replan(store, universe["baseline"], tally), speed, notes,
        lambda previous: previous.close(),
    )

    before = _serving_stats(service, REPLAN_SEEDS)
    if recorder is not None:
        recorder.phase = "measure"
    walk = _walk(service, sessions, order, tally, recorder, bounds)
    if recorder is not None:
        recorder.phase = "done"
    stats = _delta(_serving_stats(service, REPLAN_SEEDS), before)
    service.close()

    calls = walk["calls"]
    notes["replans"] = len(calls)
    latencies = [(done - sent) * 1e3 for sent, done, _, _ in calls]
    notes["latency"] = tail_note(latencies)
    if recorder is None:
        notes["unscaled_latency_p50_ms"] = harness.median(latencies)
        scaled = _segment_scaled(walk["phase"], bounds.factors(), notes)
        notes["host_kernel_s"] = speed.medians()
        # Every session is the same number of replans, so the walk's rate
        # is over all of it; plan-* segments mix storms or ILPs, and take
        # the median.
        values = _e2e(setup_s, scaled["total_rate"], scaled["latencies_ms"],
                      [c[3]["cost"] for c in calls])
        return Outcome(values, dict(END_TO_END), tally, notes)

    stats.update(
        queue_s=[c[3]["timings"]["queue_s"] for c in calls],
        warm_starts=sum(1 for c in calls if c[3].get("replan", {}).get("warm_start")),
        replans=len(calls),
        sent=len(calls),
        succeeded=len(calls),
        overhead=_matched_overhead(
            [done - sent for sent, done, _, _ in calls],
            [done - sent for sent, done, _, _ in baseline["calls"]],
        ),
    )
    windows = [(sent, done, rid) for sent, done, rid, _ in calls]
    return _layer_outcome(recorder, windows, False, stats, tally, notes)


# ======================================================================
# train
# ======================================================================
class EpochClock:
    """Reads the clock at the start of every epoch's collection.

    ``A2CTrainer.train`` runs all its epochs in one call, so this is the
    one seam (in untraced and traced runs alike) that shows epoch
    boundaries: it hooks the collector the trainer builds
    (``repro.rl.a2c.make_collector``).  The first epoch is set-up; the
    timed epochs follow it, and training ends after ``1 + epochs``.
    With ``bounds``, the host kernel is timed at every boundary after
    the set-up epoch, outside both neighbouring epochs' windows.
    """

    def __init__(self, bounds=None, on_timed_start=None):
        self.starts: list = []
        self.ends: list = []
        self.steps: list = []
        self._bounds = bounds
        self._on_timed_start = on_timed_start

    def _tick(self) -> None:
        if self.starts:
            self.ends.append(time.perf_counter())
            if self._bounds is not None:
                self._bounds.mark()
        self.starts.append(time.perf_counter())
        if len(self.starts) == 2 and self._on_timed_start is not None:
            self._on_timed_start()

    def install(self):
        import repro.rl.a2c as a2c

        original = a2c.make_collector
        clock = self

        def make_collector(*args, **kwargs):
            collector = original(*args, **kwargs)
            collect = collector.collect

            def timed_collect(*c_args, **c_kwargs):
                clock._tick()
                batch = collect(*c_args, **c_kwargs)
                clock.steps.append(batch.num_steps)
                return batch

            collector.collect = timed_collect
            return collector

        a2c.make_collector = make_collector
        return lambda: setattr(a2c, "make_collector", original)


def _train_agent(num_envs: int, a2c_seed: int, epochs: int):
    from repro.rl.a2c import A2CConfig
    from repro.rl.agent import AgentConfig, NeuroPlanAgent
    from repro.topology import generators

    instance = generators.make_instance(TOPOLOGY, seed=0, scale=1.0)
    return NeuroPlanAgent(
        instance,
        AgentConfig(
            max_units_per_step=TRAIN_MAX_UNITS,
            max_steps=TRAIN_MAX_STEPS,
            a2c=A2CConfig(
                epochs=epochs,
                steps_per_epoch=TRAIN_STEPS_PER_EPOCH[num_envs],
                max_trajectory_length=TRAIN_MAX_STEPS,
                seed=a2c_seed,
                num_envs=num_envs,
            ),
        ),
    )


def _timed_training(num_envs, epochs, bounds=None, on_timed_start=None):
    """Construct an agent and train one set-up epoch plus ``epochs``
    timed ones; returns the timed epochs' windows."""
    clock = EpochClock(bounds, on_timed_start)
    uninstall = clock.install()
    try:
        _train_agent(num_envs, TRAIN_A2C_SEED, epochs=1 + epochs).train()
        clock.ends.append(time.perf_counter())
    finally:
        uninstall()
    if bounds is not None:
        bounds.mark()
    return list(zip(clock.starts[1:], clock.ends[1:]))


def _train_phase(num_envs, epochs, speed) -> dict:
    """One timed training at ``num_envs``: the median of its epoch times,
    each scaled by the host factor at its two ends."""
    from perfbench.hostspeed import Boundaries

    bounds = Boundaries(speed)
    windows = _timed_training(num_envs, epochs, bounds)
    factors = bounds.factors()
    epoch_s = harness.median([(end - start) / f for (start, end), f in zip(windows, factors)])
    return {
        "num_envs": num_envs,
        "steps_per_epoch": TRAIN_STEPS_PER_EPOCH[num_envs],
        "timed_epochs": epochs,
        "unscaled_epoch_s": harness.median([end - start for start, end in windows]),
        "host_factors": factors,
        "epoch_s": epoch_s,
        "steps_per_s": TRAIN_STEPS_PER_EPOCH[num_envs] / epoch_s,
    }


def run_train(seed: int, seconds: float, recorder=None) -> Outcome:
    """A2C at ``num_envs=1`` (the CLI default), then at ``num_envs=16``;
    each phase gets half of ``seconds``."""
    from repro.scenarios import verify_plan

    from perfbench.fixtures import agrees_with_verifier

    tally = harness.Tally()
    epochs = max(3, round(seconds / 2 / TRAIN_EPOCH_NOMINAL_S))
    notes = {"timed_epochs_per_phase": epochs}
    if recorder is not None:
        base = [
            _timed_training(k, max(1, round(epochs * OVERHEAD_BASELINE_SHARE)))
            for k in TRAIN_NUM_ENVS
        ]
        recorder.install()

        def to_measure():
            recorder.phase = "measure"

        traced = []
        for num_envs in TRAIN_NUM_ENVS:
            recorder.phase = "setup"
            traced.append(_timed_training(num_envs, epochs, None, to_measure))
        recorder.phase = "done"
        stats = {
            "overhead": _matched_overhead(
                [end - start for windows in traced for start, end in windows],
                [end - start for windows in base for start, end in windows],
            ) if all(base) else 0.0,
            "training": True,
        }
        windows = [(start, end, None) for w in traced for start, end in w]
        return _layer_outcome(recorder, windows, False, stats, tally, notes)

    # Set-up is constructing the agent at num_envs=1 and training its
    # first epoch.  One epoch is deterministic: its best plan is the
    # reported cost, verified once per run.
    from perfbench.hostspeed import HostSpeed

    def set_up():
        agent = _train_agent(TRAIN_NUM_ENVS[0], TRAIN_A2C_SEED, epochs=1)
        return agent, agent.train()

    speed = HostSpeed()
    setup_s, (agent, result) = _timed_setups(SETUP_REPEATS, set_up, speed, notes)
    if result.best_capacities is None:
        tally.check(False, "one epoch found no feasible plan")
        best_cost = math.nan
    else:
        best_cost = result.best_cost
        report = verify_plan(agent.instance, result.best_capacities, "rl-first-stage")
        tally.check(agrees_with_verifier(report, True, best_cost),
                    "best training plan rejected by the verifier")
    phases = [_train_phase(num_envs, epochs, speed) for num_envs in TRAIN_NUM_ENVS]
    notes.update(phases=phases, host_kernel_s=speed.medians())
    # One epoch of each phase: its steps over its (scaled) median time.
    epoch_s = sum(p["epoch_s"] for p in phases)
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "throughput_per_s": sum(p["steps_per_epoch"] for p in phases) / epoch_s,
        "latency_p50_ms": epoch_s / len(phases) * 1e3,
        "plan_cost": best_cost,
    }
    return Outcome(values, dict(END_TO_END), tally, notes)


# ======================================================================
WORKLOADS = {
    "plan-cold": lambda seed, seconds, rec: run_plan(PLAN_COLD, seed, seconds, rec),
    "plan-hot": lambda seed, seconds, rec: run_plan(PLAN_HOT, seed, seconds, rec),
    "replan-drift": run_replan,
    "train": run_train,
}
