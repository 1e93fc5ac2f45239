"""Self-tests for the benchmark's own arithmetic.

    python3 -m pytest perfbench/test_harness.py -q

Pure functions only, plus one checker test against a stub answer; none
of these start the program under test.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import harness, layers
from perfbench.loadgen import Phase, Sample

ROOT = Path(__file__).resolve().parent.parent


# -- the percentile rule ------------------------------------------------------
def test_nearest_rank_percentile():
    samples = list(range(1, 101))  # 1..100
    assert harness.percentile(samples, 50) == 50
    assert harness.percentile(samples, 90) == 90
    assert harness.percentile(samples, 99) == 99
    assert harness.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 50)


@pytest.mark.parametrize(
    "count, q, expected",
    [
        (1000, 99, True),  # exactly 10 beyond
        (999, 99, False),  # 9 beyond
        (100, 90, True),
        (99, 90, False),
        (2166, 99, True),
        (0, 50, False),
    ],
)
def test_percentile_needs_ten_samples_beyond(count, q, expected):
    assert harness.supported(count, q) is expected
    if count:
        ordered = list(range(count))
        cut = harness.percentile(ordered, q)
        assert harness.beyond(count, q) == sum(1 for v in ordered if v > cut)


# -- self time -----------------------------------------------------------------
def _span(span_id, parent, start, end):
    return {"id": span_id, "parent": parent, "start": start, "end": end}


def test_self_time_nested_children():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 3.0),
        _span(3, 2, 1.5, 2.5),  # grandchild: only reduces its parent
        _span(4, 1, 5.0, 6.0),
    ]
    selfs = harness.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 2.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(1.0)


def test_self_time_overlapping_children_count_once():
    # Two children on other threads overlap each other, and one runs
    # past its parent's end: only the covered part of the parent counts.
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 2.0, 6.0),
        _span(3, 1, 4.0, 8.0),
        _span(4, 1, 9.0, 12.0),
    ]
    selfs = harness.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 6.0 - 1.0)


def test_union_length_and_coverage():
    assert harness.union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert harness.union_length([(0, 10)], 2.0, 4.0) == pytest.approx(2.0)
    windows = [(0.0, 10.0, [(0.0, 4.0), (2.0, 6.0)]), (20.0, 30.0, [(25.0, 40.0)])]
    assert harness.coverage(windows) == pytest.approx((6.0 + 5.0) / 20.0)


# -- the seeded schedule -------------------------------------------------------
def test_poisson_schedule_reproducible():
    first = harness.poisson_schedule(200.0, 5.0, seed=7)
    assert first == harness.poisson_schedule(200.0, 5.0, seed=7)
    assert first != harness.poisson_schedule(200.0, 5.0, seed=8)
    assert all(0 < t < 5.0 for t in first)
    assert first == sorted(first)
    assert 800 < len(first) < 1200


def test_workload_schedules_reproducible():
    import random

    from perfbench.workloads import PLAN_COLD, PLAN_HOT

    for workload in (PLAN_COLD, PLAN_HOT):
        a = workload.arrivals(random.Random(3), 4.0)
        b = workload.arrivals(random.Random(3), 4.0)
        assert a == b
        assert [t for t, _ in a] == sorted(t for t, _ in a)
    storms = [spec for _, spec in PLAN_HOT.arrivals(random.Random(3), 4.0)
              if spec["no_cache"]]
    assert len(storms) == 3 * 8  # a storm at each whole second inside 4 s


def test_cold_mix_is_balanced():
    import itertools
    import random

    from perfbench.workloads import COLD_BLOCK, PLAN_COLD, _cold_specs

    specs = list(itertools.islice(_cold_specs(random.Random(0)), 8 * COLD_BLOCK))
    second = []
    for block in range(8):
        part = specs[block * COLD_BLOCK : (block + 1) * COLD_BLOCK]
        assert sorted(s["seed"] for s in part if not s["second_stage"]) == list(range(8))
        second += [s["seed"] for s in part if s["second_stage"]]
    assert sorted(second) == list(range(8))  # the second stage rotates
    arrivals = PLAN_COLD.arrivals(random.Random(5), 13.0)
    assert len(arrivals) % COLD_BLOCK == 0
    assert all(0 <= t < 13.0 for t, _ in arrivals)


# -- counting a mismatch as a failure -------------------------------------------
class _Done:
    def __init__(self, response):
        self._response = response

    def exception(self):
        return None

    def result(self):
        return self._response


def test_plan_mismatch_counts_as_failure():
    from perfbench.workloads import PlanChecker

    reference = {"plan": {"l1": 100.0, "l2": 200.0}, "cost": 5.0, "verified": True}
    tally = harness.Tally()
    checker = PlanChecker({"0/False": reference}, tally)
    spec = {"seed": 0, "second_stage": False, "no_cache": True}
    same = Sample(spec=spec, due=0.0, sent=0.0, rid=1,
                  future=_Done({"plan": dict(reference["plan"]), "cost": 5.0}))
    # One ulp off on one link: not byte-for-byte equal.
    off = Sample(spec=spec, due=0.0, sent=0.0, rid=2,
                 future=_Done({"plan": {"l1": 100.0, "l2": 200.00000000000003},
                               "cost": 5.0}))
    refused = Sample(spec=spec, due=0.0, sent=0.0, rid=3, refused=True)
    for sample in (same, off, refused):
        checker.check_sample(sample)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert "differs" in tally.reasons[0]


def test_batch_rate_is_a_median_over_batches():
    # Four batches of 10 completions; the third ran at half speed.
    times, now = [], 0.0
    for gap in [0.1] * 20 + [0.2] * 10 + [0.1] * 10:
        now += gap
        times.append(now)
    assert harness.batch_rate(0.0, times, 4) == pytest.approx(10.0)
    phase = Phase(name="capacity", start=0.0)
    phase.samples = [Sample(spec={}, due=0.0, sent=0.0, rid=i, done=t)
                     for i, t in enumerate(times)]
    assert phase.rate(4) == pytest.approx(10.0)
    assert harness.batch_rate(0.0, [0.5, 1.0], 4) == pytest.approx(2.0)


def test_capacity_phase_is_whole_cycles():
    from perfbench.workloads import PLAN_COLD, PLAN_HOT, RATE_BATCHES

    for workload in (PLAN_COLD, PLAN_HOT):
        for seconds in (1.0, 6.0, 18.0, 60.0):
            cycles = workload.capacity_cycles(seconds)
            batches = min(RATE_BATCHES, cycles)
            assert cycles >= 1 and cycles % batches == 0
    # A hot cycle is the hits between two storms plus the storm itself.
    import itertools
    import random

    cycle = list(itertools.islice(PLAN_HOT.specs(random.Random(0)), PLAN_HOT.cycle))
    assert sum(spec["no_cache"] for spec in cycle) == 8
    assert all(spec["no_cache"] for spec in cycle[-8:])


# -- the host factor ---------------------------------------------------------------
def test_host_factor_is_geometric_mean_of_median_ratios():
    from perfbench.hostspeed import NOMINAL_S, factor

    nominal = {name: [t] * 3 for name, t in NOMINAL_S.items()}
    assert factor(nominal) == pytest.approx(1.0)
    # Twice as slow on one kernel, half as slow on another: no net change.
    names = list(NOMINAL_S)
    mixed = dict(nominal)
    mixed[names[0]] = [NOMINAL_S[names[0]] * 2] * 3
    mixed[names[1]] = [NOMINAL_S[names[1]] / 2] * 3
    assert factor(mixed) == pytest.approx(1.0)
    # One outlying sample does not move the median.
    slow = {name: [t * 1.5, t * 1.5, t * 9.0] for name, t in NOMINAL_S.items()}
    assert factor(slow) == pytest.approx(1.5)


def test_session_order_is_stratified_and_seeded():
    from collections import Counter

    from perfbench.workloads import _session_order

    sessions = [{"seed": instance} for instance in (0, 3, 22, 39) for _ in range(10)]
    sessions += [{"seed": 3}] * 5  # one instance has more sessions
    order = _session_order(sessions, 20, seed=1)
    assert len(set(order)) == 20
    assert Counter(sessions[i]["seed"] for i in order) == {0: 5, 3: 5, 22: 5, 39: 5}
    assert order == _session_order(sessions, 20, seed=1)
    assert order != _session_order(sessions, 20, seed=2)


class _FakeSpeed:
    """Kernel samples whose factor is the mean of the values sampled."""

    def __init__(self, values):
        self._values = iter(values)
        self.taken: list = []

    def sample(self):
        self.taken.append(next(self._values))

    def mark(self):
        return len(self.taken)

    def factor(self, since, until):
        window = self.taken[since:until]
        return sum(window) / len(window)


def test_boundaries_give_each_segment_its_two_ends():
    from perfbench.hostspeed import Boundaries

    bounds = Boundaries(_FakeSpeed([1.0, 2.0, 4.0, 8.0]))
    for _ in range(4):
        bounds.mark()
    assert bounds.factors() == [1.5, 3.0, 6.0]


def test_segmented_open_loop_keeps_the_schedule_gaps():
    from concurrent.futures import Future

    from perfbench.loadgen import LoadGenerator

    def submit(spec):
        future = Future()
        future.set_result(spec)
        return future

    pauses = []
    arrivals = [(0.001 * i, {"i": i}) for i in range(10)]
    phase = LoadGenerator(submit, RuntimeError).open_loop(
        "open", arrivals, segments=3, pause=lambda: pauses.append(1)
    )
    assert len(pauses) == 3
    assert [(first, last) for _, _, first, last in phase.segments] == [(0, 3), (3, 6), (6, 10)]
    for _, _, first, last in phase.segments:
        dues = [s.due for s in phase.samples[first:last]]
        gaps = [b - a for a, b in zip(dues, dues[1:])]
        assert gaps == pytest.approx([0.001] * len(gaps))
    assert [s.spec["i"] for s in phase.samples] == list(range(10))


# -- the metric lists match BENCHMARK.json ---------------------------------------
def test_metric_lists_match_benchmark_json():
    from perfbench.run import WORKLOAD_NAMES
    from perfbench.workloads import END_TO_END, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert set(WORKLOADS) == set(WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER
    )
