"""Arithmetic shared by every workload: percentiles, schedules, self time.

Everything here is pure (no clocks, no threads, no imports from the
program under test), so ``perfbench/test_harness.py`` can pin it.
"""

from __future__ import annotations

import math
import random
import statistics

# A tail percentile is only reported when at least this many samples lie
# beyond it (so p90 needs 100 samples and p99 needs 1000).
MIN_BEYOND = 10


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of ``samples``."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), q) - 1]


def _rank(count: int, q: float) -> int:
    return min(count, max(1, math.ceil(q / 100.0 * count)))


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank
    ``q``-th percentile."""
    return count - _rank(count, q) if count else 0


def supported(count: int, q: float, min_beyond: int = MIN_BEYOND) -> bool:
    """True when ``count`` samples support reporting the ``q``-th
    percentile: at least ``min_beyond`` of them lie beyond it."""
    return beyond(count, q) >= min_beyond


def median(samples) -> float:
    """The usual median (mean of the middle two of an even sample)."""
    return statistics.median(samples)


def batch_rate(start: float, completions, batches: int) -> float:
    """Median completion rate over ``batches`` consecutive equal batches
    of ``completions`` (times after ``start``).  A stretch where the host
    ran slow moves one batch's rate, not the median."""
    times = sorted(completions)
    size = len(times) // batches
    if size == 0:
        return len(times) / (times[-1] - start) if times else 0.0
    rates, previous = [], start
    for index in range(batches):
        end = times[(index + 1) * size - 1]
        rates.append(size / (end - previous))
        previous = end
    return median(rates)


def poisson_schedule(rate: float, duration: float, seed: int) -> list:
    """Due times (seconds from phase start) of Poisson arrivals at
    ``rate`` per second over ``duration`` seconds, drawn from ``seed``."""
    if rate <= 0 or duration <= 0:
        return []
    rng = random.Random(seed)
    due, now = [], rng.expovariate(rate)
    while now < duration:
        due.append(now)
        now += rng.expovariate(rate)
    return due


def uniform_schedule(count: int, duration: float, seed: int) -> list:
    """Due times of ``count`` arrivals over ``duration`` seconds, drawn
    from ``seed``: the times of a Poisson process given its count."""
    rng = random.Random(seed)
    return sorted(rng.uniform(0.0, duration) for _ in range(count))


def zipf_weights(n: int, exponent: float = 1.0) -> list:
    """Normalised Zipf popularity of ranks ``1..n``."""
    raw = [1.0 / rank**exponent for rank in range(1, n + 1)]
    total = sum(raw)
    return [weight / total for weight in raw]


# ----------------------------------------------------------------------
# Intervals and span self time
# ----------------------------------------------------------------------
def union_length(intervals, lo: float = -math.inf, hi: float = math.inf) -> float:
    """Length of the union of ``(start, end)`` intervals clipped to
    ``[lo, hi]``; overlapping intervals count once."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if min(end, hi) > max(start, lo)
    )
    total = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is not None and start <= cur_end:
            cur_end = max(cur_end, end)
            continue
        if cur_end is not None:
            total += cur_end - cur_start
        cur_start, cur_end = start, end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """``{span id: self seconds}``: each span's duration minus the part
    of its interval its direct children cover.  Children that overlap
    each other (or ran in parallel on other threads) count once.

    ``spans`` are mappings with ``id``, ``parent``, ``start`` and ``end``.
    """
    children: dict = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    return {
        span["id"]: (span["end"] - span["start"])
        - union_length(children.get(span["id"], ()), span["start"], span["end"])
        for span in spans
    }


def coverage(windows) -> float:
    """Share of the windows' total time covered by their attributed
    intervals; ``windows`` is a list of ``(start, end, intervals)``."""
    total = sum(end - start for start, end, _ in windows)
    if total <= 0:
        return 0.0
    covered = sum(union_length(spans, start, end) for start, end, spans in windows)
    return covered / total


# ----------------------------------------------------------------------
# Correctness bookkeeping
# ----------------------------------------------------------------------
def plans_equal(plan: dict, reference: dict) -> bool:
    """Byte-for-byte plan equality: same links, bitwise-equal floats."""
    return set(plan) == set(reference) and all(
        float(plan[link]).hex() == float(reference[link]).hex() for link in plan
    )


def cost_matches(cost: float, reference_cost: float, tol: float) -> bool:
    """A cost within ``tol`` of the reference, relative to its size."""
    return abs(cost - reference_cost) <= tol * max(1.0, abs(reference_cost))


class Tally:
    """Attempted / failed counts with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def check(self, passed: bool, reason: str) -> bool:
        self.attempted += 1
        if not passed:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)
        return passed
