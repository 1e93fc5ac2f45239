"""LRU response cache keyed by the canonical request hash.

Planning is deterministic -- same (topology, scale, seed, horizon,
alpha, second_stage, model version) means the same plan -- so a hit can
bypass the rollout *and* the second-stage ILP entirely.  The key hashes
the *resolved* model version, not the ``latest`` alias, so publishing a
new version naturally invalidates alias hits without any flush logic.

The cache keeps its own hit/miss/eviction counters (always on, surfaced
by ``/healthz`` and ``/metrics``) and mirrors them into
:mod:`repro.telemetry` when a profiling run has collection enabled.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict

from repro import telemetry


def canonical_key(fields: dict) -> str:
    """Stable hash of a request's plan-identity fields."""
    payload = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _copy(response: dict) -> dict:
    """``response`` with its dict and list values copied one level down.

    Responses nest only flat containers (the plan, the model stamp,
    timings), so this keeps every hit, the stored entry and the response
    that filled it independent at a fraction of ``copy.deepcopy``.
    """
    return {
        key: value.copy() if type(value) in (dict, list) else value
        for key, value in response.items()
    }


class ResponseCache:
    """Thread-safe LRU over response dicts; ``capacity=0`` disables it.

    ``telemetry_prefix`` names the counter family the cache reports
    under (``<prefix>.hits`` / ``.misses`` / ``.evictions``): the
    request-layer cache uses the default ``serve.cache``, while the
    solver-layer caches in :mod:`repro.solverfarm` reuse this class
    under ``solverfarm.cache.*`` prefixes.
    """

    def __init__(self, capacity: int = 256, telemetry_prefix: str = "serve.cache"):
        if capacity < 0:
            raise ValueError("cache capacity must be >= 0")
        self.capacity = capacity
        self.telemetry_prefix = telemetry_prefix
        self._entries: "OrderedDict[str, dict]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str, count_miss: bool = True) -> "dict | None":
        """A copy (see :func:`_copy`) of the cached response, or ``None``.

        ``count_miss=False`` is for a probe whose miss a later lookup of
        the same request repeats, so the miss is counted once.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                if count_miss:
                    self.misses += 1
                    telemetry.counter(f"{self.telemetry_prefix}.misses")
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            telemetry.counter(f"{self.telemetry_prefix}.hits")
        # Stored entries are never mutated in place, so the copy needs
        # no lock.
        return _copy(entry)

    def put(self, key: str, response: dict) -> None:
        if self.capacity == 0:
            return
        entry = _copy(response)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                telemetry.counter(f"{self.telemetry_prefix}.evictions")

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
