"""Bounded worker pool with immediate backpressure.

The serving layer never buffers without bound: the queue has a fixed
depth and a full queue rejects the submission *immediately* with a typed
:class:`~repro.errors.Overloaded` -- the client retries or sheds load,
the server never falls over from queue bloat.  Shutdown is a graceful
drain: stop accepting, let the workers finish everything already
admitted, then join the threads.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future

from repro import telemetry
from repro.errors import ConfigError, Overloaded

_SENTINEL = object()


class WorkerPool:
    """Fixed worker threads pulling from a fixed-depth queue."""

    def __init__(self, workers: int = 2, queue_depth: int = 16, name: str = "serve"):
        if workers < 1:
            raise ConfigError("workers must be >= 1")
        if queue_depth < 1:
            raise ConfigError("queue_depth must be >= 1")
        self.workers = workers
        self.queue_depth = queue_depth
        self._queue: "queue.Queue" = queue.Queue(maxsize=queue_depth)
        self._lock = threading.Lock()
        self._accepting = True
        self._in_flight = 0
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"{name}-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    def ensure_accepting(self) -> None:
        """Raise :class:`Overloaded` when the pool is draining."""
        with self._lock:
            if not self._accepting:
                telemetry.counter("serve.pool.rejected_draining")
                raise Overloaded("pool is shutting down; not accepting work")

    def submit(self, fn, *args, **kwargs) -> Future:
        """Enqueue ``fn(*args, **kwargs)``; raise :class:`Overloaded`
        right away when the queue is full or the pool is draining."""
        self.ensure_accepting()
        future: Future = Future()
        try:
            self._queue.put_nowait((fn, args, kwargs, future))
        except queue.Full:
            telemetry.counter("serve.pool.rejected_full")
            telemetry.gauge("serve.pool.queue_depth", self.queue_depth)
            raise Overloaded(
                f"serving queue is full ({self.queue_depth} deep); retry later"
            ) from None
        # Sampled on every submit so saturation is visible in /metrics
        # well before the queue fills and Overloaded starts firing.
        telemetry.gauge("serve.pool.queue_depth", self._queue.qsize())
        return future

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SENTINEL:
                self._queue.task_done()
                return
            fn, args, kwargs, future = item
            if not future.set_running_or_notify_cancel():
                self._queue.task_done()
                continue
            with self._lock:
                self._in_flight += 1
            try:
                future.set_result(fn(*args, **kwargs))
            except BaseException as exc:  # typed errors flow to the caller
                future.set_exception(exc)
            finally:
                with self._lock:
                    self._in_flight -= 1
                self._queue.task_done()

    # ------------------------------------------------------------------
    def shutdown(self, drain: bool = True) -> None:
        """Stop accepting; finish (``drain=True``) or cancel queued work,
        wait for in-flight requests, then join the worker threads."""
        with self._lock:
            if not self._accepting:
                return
            self._accepting = False
        if not drain:
            while True:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                _, _, _, future = item
                future.set_exception(Overloaded("pool shut down before execution"))
                self._queue.task_done()
        for _ in self._threads:
            self._queue.put(_SENTINEL)
        for thread in self._threads:
            thread.join()

    @property
    def accepting(self) -> bool:
        with self._lock:
            return self._accepting

    def stats(self) -> dict:
        with self._lock:
            in_flight = self._in_flight
            accepting = self._accepting
        return {
            "workers": self.workers,
            "queue_depth": self.queue_depth,
            "queued": self._queue.qsize(),
            "in_flight": in_flight,
            "accepting": accepting,
        }

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(drain=True)
