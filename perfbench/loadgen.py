"""Single-thread load generator for the serving workloads.

Every request is submitted from the calling thread.  Open-loop phases
send on a precomputed schedule without waiting for replies; closed-loop
phases keep a fixed number of requests outstanding.  Completion times
are taken in the program's future callbacks; answers are read and
checked only after the phase ends, outside the timed window.
"""

from __future__ import annotations

import contextlib
import itertools
import queue
import time
from dataclasses import dataclass, field

from perfbench import harness

# How long a phase may wait for its stragglers before it gives up.
DRAIN_TIMEOUT_S = 60.0


@dataclass
class Sample:
    """One request: what was sent, when it was due, sent and answered."""

    spec: dict
    due: float
    sent: float
    rid: int
    done: float = 0.0
    future: object = None
    refused: bool = False

    @property
    def latency_s(self) -> float:
        return self.done - self.due


@dataclass
class Phase:
    """The samples of one open- or closed-loop phase."""

    name: str
    start: float
    samples: list = field(default_factory=list)
    # (start, end, first, last): windows of a segmented phase, each with
    # the index range of its samples
    segments: list = field(default_factory=list)

    def answered(self) -> list:
        return [s for s in self.samples if not s.refused]

    def latencies_ms(self) -> list:
        return [s.latency_s * 1e3 for s in self.answered()]

    def lateness_ms(self) -> list:
        return [(s.sent - s.due) * 1e3 for s in self.samples]

    def rate(self, batches: int) -> float:
        """Answered requests per second (median over ``batches``)."""
        return harness.batch_rate(
            self.start, [s.done for s in self.answered()], batches
        )


class LoadGenerator:
    """Drives ``submit(spec) -> Future`` from one thread.

    ``refusal`` is the exception type ``submit`` raises for a request it
    refuses on admission (``Overloaded``); such requests count as sent,
    refused and failed.  ``recorder`` (traced runs only) gives each
    request its own id for the span recorder.
    """

    def __init__(self, submit, refusal, recorder=None):
        self._submit = submit
        self._refusal = refusal
        self._recorder = recorder
        self._ids = itertools.count(1)
        self._done: "queue.SimpleQueue" = queue.SimpleQueue()

    def _send(self, spec: dict, due: float) -> Sample:
        rid = next(self._ids)
        sample = Sample(spec=spec, due=due, sent=time.perf_counter(), rid=rid)
        scope = (
            self._recorder.request(rid)
            if self._recorder is not None
            else contextlib.nullcontext()
        )
        try:
            with scope:
                sample.future = self._submit(spec)
        except self._refusal:
            sample.refused = True
            sample.done = time.perf_counter()
            self._done.put(sample)
            return sample
        sample.future.add_done_callback(lambda _f, s=sample: self._finish(s))
        return sample

    def _finish(self, sample: Sample) -> None:
        sample.done = time.perf_counter()
        self._done.put(sample)

    def _drain(self, outstanding: int) -> None:
        for _ in range(outstanding):
            self._done.get(timeout=DRAIN_TIMEOUT_S)

    def open_loop(self, name: str, arrivals: list, segments: int = 1,
                  pause=None) -> Phase:
        """Send ``(due offset seconds, spec)`` arrivals on schedule.

        With ``segments`` above 1, the arrivals are cut into that many runs
        of equal count.  After each run the phase lets its requests drain,
        records the run's window and calls ``pause()``; the schedule then
        resumes with the gap to the next arrival kept, so no request is
        due while the phase is paused.
        """
        start = time.perf_counter()
        phase = Phase(name=name, start=start)
        cut = max(1, len(arrivals) // segments) if segments > 1 else 0
        origin, segment_start, first = start, start, 0
        for index, (offset, spec) in enumerate(arrivals):
            if cut and index and index % cut == 0 and index // cut < segments:
                self._drain(index - first)
                phase.segments.append((segment_start, time.perf_counter(), first, index))
                pause()
                segment_start = time.perf_counter()
                origin = segment_start - arrivals[index - 1][0]
                first = index
            due = origin + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            phase.samples.append(self._send(spec, due))
        self._drain(len(phase.samples) - first)
        if cut:
            phase.segments.append(
                (segment_start, time.perf_counter(), first, len(phase.samples))
            )
            pause()
        return phase

    def closed_loop(self, name: str, specs, outstanding: int, count: int,
                    segments: int = 1, pause=None) -> Phase:
        """Send ``count`` requests, keeping ``outstanding`` in flight.

        With ``segments`` above 1 (it must divide ``count``), the phase
        runs in that many runs of equal count: after each, it lets the
        run drain, records its window and calls ``pause()``.
        """
        phase = Phase(name=name, start=time.perf_counter())
        size = count // segments if segments > 1 else count
        in_flight, segment_start, first = 0, phase.start, 0
        while len(phase.samples) < count or in_flight:
            while (in_flight < outstanding and len(phase.samples) < count
                   and len(phase.samples) - first < size):
                phase.samples.append(self._send(next(specs), time.perf_counter()))
                in_flight += 1
            self._done.get(timeout=DRAIN_TIMEOUT_S)
            in_flight -= 1
            if segments > 1 and len(phase.samples) - first == size and not in_flight:
                phase.segments.append(
                    (segment_start, time.perf_counter(), first, len(phase.samples))
                )
                pause()
                segment_start, first = time.perf_counter(), len(phase.samples)
        return phase


def phase_summary(phase: Phase) -> dict:
    """Sent / succeeded / failed / refused counts and lateness of a phase
    (``failed`` here is refusals and typed errors; plan mismatches are
    counted by the workload's checker)."""
    errors = sum(
        1 for s in phase.answered() if s.future.exception() is not None
    )
    refused = sum(1 for s in phase.samples if s.refused)
    late = phase.lateness_ms()
    return {
        "phase": phase.name,
        "sent": len(phase.samples),
        "succeeded": len(phase.samples) - refused - errors,
        "failed": refused + errors,
        "refused": refused,
        "late_p99_ms": harness.percentile(late, 99) if late else 0.0,
    }
