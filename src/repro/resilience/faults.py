"""Deterministic fault injection for recovery-path testing.

Long-running training and planning jobs have recovery code (worker
respawn, solver-timeout fallbacks, checkpoint resume) that normal runs
never exercise.  This module lets tests and CI *deterministically* fire
those failures at named call sites, so every recovery path is a
first-class, repeatable test instead of a rare production surprise.

A :class:`FaultPlan` is a set of specs, one per *site*::

    rollout.worker@0.1      crash the worker task for epoch 0, group 1
                            (first attempt only -- the retry succeeds;
                            a group is num_envs consecutive streams,
                            so at num_envs=1 the key is the stream)
    solver.timeout          time out the first Model.optimize call
    solver.timeout#3        ... the first three calls
    checkpoint.write@4      interrupt the checkpoint write for epoch 4
    checkpoint.corrupt@2    corrupt epoch 2's checkpoint after writing it
    train.abort@3           hard-exit the process after epoch 3's
                            checkpoint (the kill-at-epoch-k harness)

and for the replicated serving layer (keyed by replica index, with the
replica *generation* as the attempt -- so ``serve.replica.crash@0``
kills generation 0 of replica 0 and the respawn serves normally)::

    serve.replica.crash@0   replica 0 exits hard on its next plan request
    serve.replica.hang@1    replica 1 wedges its receive loop (heartbeats
                            stop; the supervisor SIGKILLs it)
    serve.heartbeat.miss@0  replica 0 swallows pings (looks dead without
                            being dead)
    serve.dispatch.drop     the dispatcher "loses" a dispatch parent-side
                            and exercises its retry path (unkeyed)

and for the solver farm (:mod:`repro.solverfarm`, keyed by model
signature dirname / stage name)::

    solverfarm.lease.stall@<model>   a worker "forgets" to release its
                                     backend lease; the pool reclaims it
                                     after ``stall_timeout_s``
    solverfarm.stage.crash@rollout   the named pipeline stage worker
                                     raises mid-job (keys: rollout,
                                     check, polish)

Sites are instrumented with :func:`maybe_fail` (raises
:class:`~repro.errors.InjectedFault`) or :func:`fires` (boolean, for
sites that corrupt state rather than raise).  Activation is either
programmatic (:func:`install`, for in-process tests) or via the
``NEUROPLAN_FAULTS`` environment variable (comma-separated specs), which
propagates to multiprocessing workers and subprocesses -- the mechanism
the kill-and-resume CI job relies on.

Determinism contract
--------------------
Keyed specs (``site@key``) fire purely on the caller-supplied key (and
attempt number, where the caller retries), so they are independent of
process scheduling and worker count.  Unkeyed specs fire on the first
``count`` *hits of that site in the calling process*, which is
deterministic for single-process call sites like the solver.
"""

from __future__ import annotations

import os

from repro.errors import ConfigError, InjectedFault

ENV_VAR = "NEUROPLAN_FAULTS"


class FaultSpec:
    """One ``site[@key][#count]`` entry of a fault plan."""

    __slots__ = ("site", "key", "count", "hits")

    def __init__(self, site: str, key: "str | None" = None, count: int = 1):
        if not site:
            raise ConfigError("fault spec needs a non-empty site name")
        if count < 1:
            raise ConfigError(f"fault count must be >= 1, got {count}")
        self.site = site
        self.key = key
        self.count = count
        self.hits = 0  # unkeyed specs only; counted per process

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        entry = text.strip()
        count = 1
        if "#" in entry:
            entry, _, count_text = entry.partition("#")
            try:
                count = int(count_text)
            except ValueError:
                raise ConfigError(f"bad fault count in {text!r}") from None
        site, sep, key = entry.partition("@")
        return cls(site.strip(), key.strip() if sep else None, count)

    def matches(self, key: "str | None", attempt: "int | None") -> bool:
        if self.key is not None:
            if key != self.key:
                return False
            if attempt is not None:
                # Retry-aware site: fail the first `count` attempts.
                return attempt < self.count
            return True
        # Unkeyed: fire on the first `count` hits in this process.
        self.hits += 1
        return self.hits <= self.count

    def __repr__(self) -> str:  # pragma: no cover
        key = f"@{self.key}" if self.key is not None else ""
        return f"FaultSpec({self.site}{key}#{self.count})"


class FaultPlan:
    """A parsed set of fault specs, queried by instrumented sites."""

    def __init__(self, specs: "list[FaultSpec] | None" = None):
        self.specs = list(specs or [])

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        entries = [e for e in (part.strip() for part in text.split(",")) if e]
        return cls([FaultSpec.parse(entry) for entry in entries])

    def should_fire(
        self, site: str, key: "str | None" = None, attempt: "int | None" = None
    ) -> bool:
        fired = False
        for spec in self.specs:
            if spec.site == site and spec.matches(key, attempt):
                fired = True
        return fired

    def __bool__(self) -> bool:
        return bool(self.specs)


# ----------------------------------------------------------------------
# Process-global activation
# ----------------------------------------------------------------------
_INSTALLED: "FaultPlan | None" = None
# The env-derived plan is cached against the env string so its unkeyed
# hit counters survive across calls, but editing the variable mid-run
# (or inheriting it in a fresh worker process) takes effect immediately.
_ENV_CACHE: "tuple[str, FaultPlan] | None" = None


def install(plan: "FaultPlan | str | None") -> None:
    """Activate ``plan`` in this process (tests); ``None`` deactivates."""
    global _INSTALLED
    _INSTALLED = FaultPlan.parse(plan) if isinstance(plan, str) else plan


def clear() -> None:
    """Deactivate any installed plan and drop the env cache."""
    global _INSTALLED, _ENV_CACHE
    _INSTALLED = None
    _ENV_CACHE = None


def active() -> "FaultPlan | None":
    """The plan in effect: installed first, else ``NEUROPLAN_FAULTS``."""
    global _ENV_CACHE
    if _INSTALLED is not None:
        return _INSTALLED
    text = os.environ.get(ENV_VAR)
    if not text:
        return None
    if _ENV_CACHE is None or _ENV_CACHE[0] != text:
        _ENV_CACHE = (text, FaultPlan.parse(text))
    return _ENV_CACHE[1]


def fires(site: str, key: "str | None" = None, attempt: "int | None" = None) -> bool:
    """True when the active plan injects a failure at this site now."""
    plan = active()
    return bool(plan) and plan.should_fire(site, key=key, attempt=attempt)


def maybe_fail(
    site: str, key: "str | None" = None, attempt: "int | None" = None
) -> None:
    """Raise :class:`InjectedFault` when the active plan says so."""
    if fires(site, key=key, attempt=attempt):
        where = f"{site}@{key}" if key is not None else site
        raise InjectedFault(f"injected fault at {where}")


def maybe_abort(site: str, key: "str | None" = None) -> None:
    """Hard-exit the process (``os._exit``) when the plan says so.

    ``os._exit`` skips atexit handlers, finally blocks and buffered I/O
    flushes -- the closest in-process stand-in for SIGKILL, which is what
    the kill-and-resume contract is tested against.
    """
    if fires(site, key=key):
        os._exit(70)
