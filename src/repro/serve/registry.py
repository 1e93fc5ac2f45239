"""Model store + policy registry for the serving layer.

The **model store** is a directory of published policies.  Each entry is
a standard :mod:`repro.resilience` checkpoint (``.npz``, checksummed,
atomically written) holding only the policy parameters -- no optimizer
moments, no trainer state -- plus a JSON manifest with the architecture
metadata needed to rebuild the network and validate it against a
requesting instance::

    model_dir/
      A-s1-short/            # one directory per (topology, scale, horizon)
        v0001.npz            # TrainingCheckpoint: policy params only
        v0001.json           # manifest: key, policy spec, env kwargs
        v0002.npz
        v0002.json

Versions are explicit and monotonically increasing; ``"latest"`` is an
alias for the highest published version.  The npz is written before its
manifest, so a manifest's existence implies a complete checkpoint.

The **registry** turns a store entry into an :class:`InferenceAgent`
(environment pool + policy) on demand and caches it per
``(key, version, seed)``.  Loading validates the manifest's architecture
metadata -- feature dimension, action width, key fields -- against the
environment actually built for the requesting instance and raises a
typed :class:`~repro.errors.ModelMismatchError` instead of producing
silently-garbage plans.

Parameter loading is **zero-copy**: :meth:`ModelStore.load_params` maps
each uncompressed ``.npz`` member with ``np.memmap`` (digest-verified,
``mmap_mode="r"`` semantics) and the registry builds **one**
:class:`ActorCriticPolicy` per (key, version, manifest checksum) whose
parameters alias those read-only pages via
``load_state_dict(copy=False)``.  Every seed, worker thread, and -- via
the page cache -- every forkserver replica shares one physical copy of
the weights.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import threading
import time
import zipfile
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.errors import (
    CheckpointError,
    ModelMismatchError,
    ModelNotFoundError,
    NNError,
    ServeError,
)
from repro.planning.plan import NetworkPlan
from repro.resilience.checkpoint import (
    FORMAT_MAGIC,
    TrainingCheckpoint,
    _digest,
    load_checkpoint,
    save_checkpoint,
)
from repro.rl.agent import greedy_rollout
from repro.rl.env import EvaluationMemo, PlanningEnv
from repro.rl.policy import ActorCriticPolicy
from repro.topology import generators

MANIFEST_FORMAT = "neuroplan-model"
MANIFEST_VERSION = 1

_VERSION_FILE = re.compile(r"^v(\d{4})\.json$")

# A key directory changed at least this long before a resolve reads it
# may have that resolution memoized (see ModelStore.resolve).  Covers
# filesystems with 1-second timestamps.
RESOLVE_MTIME_MARGIN_NS = 2_000_000_000

# Process-wide cache of memory-mapped checkpoint parameters, keyed by
# (absolute path, size, mtime_ns) so a republished file never aliases a
# stale mapping.  Shared across every ModelStore/PolicyRegistry in the
# process: N services over one model_dir map each checkpoint once.
_PARAM_CACHE: dict[tuple, dict] = {}
_PARAM_CACHE_LOCK = threading.Lock()


def manifest_checksum(manifest: dict) -> str:
    """Stable content hash of a model manifest (policy-cache guard)."""
    canonical = json.dumps(manifest, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _mmap_policy_params(path: str) -> dict:
    """Map every payload member of an uncompressed checkpoint ``.npz``
    read-only, verify the stored digest, and return the ``policy.*``
    arrays (prefix stripped).

    ``np.load(mmap_mode="r")`` silently ignores ``mmap_mode`` for zip
    archives, so this walks the zip directory itself: each member of a
    published checkpoint is ``ZIP_STORED`` (uncompressed), which makes
    its ``.npy`` payload a plain byte range that ``np.memmap`` can wrap
    after parsing the npy header at the member's data offset.
    """
    members: dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as archive, open(path, "rb") as handle:
        for info in archive.infolist():
            if info.compress_type != zipfile.ZIP_STORED:
                raise ServeError(
                    f"{info.filename} in {path} is compressed; cannot memory-map"
                )
            handle.seek(info.header_offset)
            local = handle.read(30)
            if len(local) != 30 or not local.startswith(b"PK\x03\x04"):
                raise ServeError(f"bad zip local header for {info.filename} in {path}")
            name_len = int.from_bytes(local[26:28], "little")
            extra_len = int.from_bytes(local[28:30], "little")
            handle.seek(info.header_offset + 30 + name_len + extra_len)
            npy_version = np.lib.format.read_magic(handle)
            if npy_version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
            elif npy_version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
            else:
                raise ServeError(
                    f"unsupported npy format {npy_version} for {info.filename}"
                )
            name = info.filename
            if name.endswith(".npy"):
                name = name[: -len(".npy")]
            members[name] = np.memmap(
                path,
                dtype=dtype,
                mode="r",
                offset=handle.tell(),
                shape=shape,
                order="F" if fortran else "C",
            )
    meta_arr = members.pop("__meta__", None)
    digest_arr = members.pop("__digest__", None)
    if meta_arr is None or digest_arr is None:
        raise CheckpointError(f"{path} is not a neuroplan checkpoint")
    meta_bytes = meta_arr.tobytes()
    stored_digest = digest_arr.tobytes().decode(errors="replace")
    if _digest(meta_bytes, members) != stored_digest:
        raise CheckpointError(f"checksum mismatch in {path}; refusing to serve")
    try:
        meta = json.loads(meta_bytes.decode())
    except ValueError as exc:
        raise CheckpointError(f"corrupt checkpoint metadata in {path}") from exc
    if meta.get("magic") != FORMAT_MAGIC:
        raise CheckpointError(f"{path} is not a neuroplan checkpoint")
    params = {
        name[len("policy.") :]: arr
        for name, arr in members.items()
        if name.startswith("policy.")
    }
    if not params:
        raise CheckpointError(f"{path} holds no policy parameters")
    return params


@dataclass(frozen=True)
class ModelKey:
    """What a published policy was trained for (seed-agnostic: the GNN
    policy is size-agnostic, so one model serves every seed of a band)."""

    topology: str
    scale: float = 1.0
    horizon: str = "short"

    def dirname(self) -> str:
        return f"{self.topology}-s{self.scale:g}-{self.horizon}"

    def as_dict(self) -> dict:
        return {
            "topology": self.topology,
            "scale": self.scale,
            "horizon": self.horizon,
        }


class ModelRecord:
    """One resolved store entry: key + version + paths + manifest.

    Each :meth:`ModelStore.resolve` returns a new record whose
    ``manifest`` is copied from the store's memoized parse the first
    time it is read, so a caller that mutates its record never changes
    the next caller's.
    """

    __slots__ = ("key", "version", "checkpoint_path", "_manifest", "_shared")

    def __init__(
        self,
        key: ModelKey,
        version: int,
        checkpoint_path: str,
        manifest: dict,
        *,
        shared: bool = False,
    ):
        self.key = key
        self.version = version
        self.checkpoint_path = checkpoint_path
        self._manifest = manifest
        self._shared = shared

    def __repr__(self) -> str:
        return (
            f"ModelRecord(key={self.key!r}, version={self.version}, "
            f"checkpoint_path={self.checkpoint_path!r})"
        )

    @property
    def manifest(self) -> dict:
        if self._shared:
            self._manifest = _copy_json(self._manifest)
            self._shared = False
        return self._manifest

    @property
    def policy_spec(self) -> dict:
        return dict(self.manifest["policy_spec"])

    @property
    def agent_kwargs(self) -> dict:
        return dict(self.manifest["agent"])


class ModelStore:
    """Publish / enumerate / resolve policies under one root directory."""

    def __init__(self, root: "str | os.PathLike"):
        self.root = os.fspath(root)
        # (dirname, requested version) ->
        # (directory stamp, version, checkpoint path, parsed manifest).
        self._resolved: dict = {}

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(
        self,
        policy: ActorCriticPolicy,
        *,
        key: ModelKey,
        agent_kwargs: dict,
        source: "dict | None" = None,
    ) -> ModelRecord:
        """Write ``policy`` into the store as the next version of ``key``.

        ``agent_kwargs`` are the :class:`~repro.rl.env.PlanningEnv`
        constructor knobs (``max_units_per_step``, ``max_steps``,
        ``evaluator_mode``, ``feature_set``) the policy was trained
        against; the registry rebuilds the environment from them.
        """
        source = dict(source or {})
        version = (self.versions(key) or [0])[-1] + 1
        directory = os.path.join(self.root, key.dirname())
        os.makedirs(directory, exist_ok=True)
        best_cost = source.get("best_cost")
        ckpt = TrainingCheckpoint(
            algo=str(source.get("algo", "policy")),
            epoch=int(source.get("epoch", 0)),
            policy_state=policy.state_dict(),
            optimizer_states={},
            rng_state=None,
            best_cost=float(best_cost) if best_cost is not None else 0.0,
            best_capacities=None,
        )
        npz_name = f"v{version:04d}.npz"
        checkpoint_path = save_checkpoint(ckpt, os.path.join(directory, npz_name))
        manifest = {
            "format": MANIFEST_FORMAT,
            "format_version": MANIFEST_VERSION,
            "version": version,
            "key": key.as_dict(),
            "policy_spec": _jsonable_spec(policy.spec()),
            "agent": dict(agent_kwargs),
            "checkpoint": npz_name,
            "source": source,
        }
        manifest_path = os.path.join(directory, f"v{version:04d}.json")
        _atomic_write_json(manifest_path, manifest)
        telemetry.counter("serve.models_published")
        return ModelRecord(
            key=key,
            version=version,
            checkpoint_path=checkpoint_path,
            manifest=manifest,
        )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def keys(self) -> list[str]:
        """Directory names of every key with at least one version."""
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return []
        return [
            name
            for name in names
            if os.path.isdir(os.path.join(self.root, name))
            and self._versions_in(os.path.join(self.root, name))
        ]

    def versions(self, key: ModelKey) -> list[int]:
        """Published versions of ``key``, oldest first."""
        return self._versions_in(os.path.join(self.root, key.dirname()))

    def inventory(self) -> dict:
        """Every published key with its version list (for ``/healthz``)."""
        return {
            name: self._versions_in(os.path.join(self.root, name))
            for name in self.keys()
        }

    @staticmethod
    def _versions_in(directory: str) -> list[int]:
        try:
            names = os.listdir(directory)
        except OSError:
            return []
        found = []
        for name in names:
            match = _VERSION_FILE.match(name)
            if match and os.path.exists(
                os.path.join(directory, f"v{int(match.group(1)):04d}.npz")
            ):
                found.append(int(match.group(1)))
        return sorted(found)

    def resolve(
        self, key: ModelKey, version: "int | str" = "latest"
    ) -> ModelRecord:
        """Resolve ``version`` (an int or the ``"latest"`` alias) of
        ``key``; raise :class:`ModelNotFoundError` when absent.

        A resolution is memoized against the key directory's inode and
        ``st_mtime_ns``, so a repeat costs one ``os.stat``.  Publishing
        writes through ``os.replace`` and removing a file also updates
        the directory, so a publish or a removal, from this process or
        another, is seen by the next resolve.  (A manifest rewritten in
        place, which the store never does, is not.)  Timestamps are
        coarse (a clock tick, or 1 s on some filesystems), so a
        directory changed less than :data:`RESOLVE_MTIME_MARGIN_NS` ago
        is never memoized: a write in the same tick as the resolve
        cannot hide behind an unchanged stamp.  Failures are never
        memoized.
        """
        dirname = key.dirname()
        try:
            stat = os.stat(os.path.join(self.root, dirname))
        except OSError:
            return self._resolve_listed(key, version)
        stamp = (stat.st_ino, stat.st_mtime_ns)
        memo_key = (dirname, version) if isinstance(version, (int, str)) else None
        cached = self._resolved.get(memo_key)
        if cached is not None and cached[0] == stamp:
            return ModelRecord(key, *cached[1:], shared=True)
        record = self._resolve_listed(key, version)
        if (
            memo_key is not None
            and time.time_ns() - stat.st_mtime_ns >= RESOLVE_MTIME_MARGIN_NS
        ):
            self._resolved[memo_key] = (
                stamp, record.version, record.checkpoint_path, record.manifest
            )
            record._shared = True
        return record

    def _resolve_listed(self, key: ModelKey, version: "int | str") -> ModelRecord:
        """:meth:`resolve` from a directory listing and a manifest read."""
        available = self.versions(key)
        if not available:
            raise ModelNotFoundError(
                f"no model for {key.dirname()!r} in {self.root} "
                f"(available keys: {self.keys() or 'none'})"
            )
        if version == "latest":
            resolved = available[-1]
        else:
            try:
                resolved = int(version)
            except (TypeError, ValueError):
                raise ModelNotFoundError(
                    f"model version must be an integer or 'latest', "
                    f"got {version!r}"
                ) from None
            if resolved not in available:
                raise ModelNotFoundError(
                    f"{key.dirname()} has no version {resolved} "
                    f"(available: {available})"
                )
        directory = os.path.join(self.root, key.dirname())
        manifest_path = os.path.join(directory, f"v{resolved:04d}.json")
        try:
            with open(manifest_path, encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ServeError(
                f"unreadable model manifest {manifest_path}: {exc}"
            ) from exc
        if manifest.get("format") != MANIFEST_FORMAT:
            raise ServeError(f"{manifest_path} is not a neuroplan model manifest")
        return ModelRecord(
            key=key,
            version=resolved,
            checkpoint_path=os.path.join(directory, manifest["checkpoint"]),
            manifest=manifest,
        )

    # ------------------------------------------------------------------
    # Zero-copy parameter loading
    # ------------------------------------------------------------------
    def load_params(self, record: ModelRecord) -> dict:
        """Read-only policy parameter arrays for ``record``'s checkpoint.

        The arrays are ``np.memmap`` views over the published ``.npz``
        (digest-verified once per file identity), so every worker thread
        — and every forkserver replica on the box, via the page cache —
        shares one physical copy instead of materializing a private one.
        Falls back to an eager :func:`load_checkpoint` when the archive
        cannot be mapped (e.g. compressed members).
        """
        path = os.path.abspath(os.fspath(record.checkpoint_path))
        try:
            stat = os.stat(path)
        except OSError as exc:
            raise ModelNotFoundError(f"missing checkpoint {path}: {exc}") from exc
        cache_key = (path, stat.st_size, stat.st_mtime_ns)
        with _PARAM_CACHE_LOCK:
            params = _PARAM_CACHE.get(cache_key)
        if params is not None:
            telemetry.counter("serve.store.mmap_hits")
            return params
        try:
            params = _mmap_policy_params(path)
            telemetry.counter("serve.store.mmap_loads")
        except CheckpointError:
            raise
        except Exception:
            telemetry.counter("serve.store.fallback_loads")
            ckpt = load_checkpoint(path)
            params = {}
            for name, values in ckpt.policy_state.items():
                arr = np.ascontiguousarray(values)
                arr.setflags(write=False)
                params[name] = arr
        with _PARAM_CACHE_LOCK:
            params = _PARAM_CACHE.setdefault(cache_key, params)
        return params


class InferenceAgent:
    """Environment pool + shared policy: the cheap plan-emission half
    of the paper's two-stage design.

    The environment is stateful across a rollout, so each :meth:`plan`
    call checks a free environment out of a pool (cloning a fresh one
    via :meth:`~repro.rl.env.PlanningEnv.replica_kwargs` when every
    pooled env is busy) -- concurrent requests for the same (key,
    version, seed) run fully in parallel on independent trajectories,
    which is what lets the forward coalescer stack their steps into one
    batched GNN forward.  The policy itself is read-only and shared.

    Coalesced rollouts additionally share an
    :class:`~repro.rl.env.EvaluationMemo` across the pool: concurrent
    same-identity requests replay the same deterministic trajectory, so
    the first one to reach each capacity state pays for its feasibility
    LP and the siblings reuse the identical verdict object.  The memo is
    cleared whenever the pool goes idle -- it shares work among
    *in-flight* requests, it never caches answers across cohorts (that
    is the response cache's job, and ``no_cache`` must keep meaning
    "recompute").
    """

    def __init__(self, instance, policy: ActorCriticPolicy, env: PlanningEnv):
        self.instance = instance
        self.policy = policy
        self.env = env
        self._lock = threading.Lock()
        self._free = [env]
        self._envs = [env]
        self._eval_memo = EvaluationMemo()

    def _checkout(self) -> PlanningEnv:
        with self._lock:
            if self._free:
                return self._free.pop()
        clone = PlanningEnv(self.instance, **self.env.replica_kwargs())
        telemetry.counter("serve.agent.env_clones")
        with self._lock:
            self._envs.append(clone)
        return clone

    def _checkin(self, env: PlanningEnv) -> None:
        with self._lock:
            self._free.append(env)
            if len(self._free) == len(self._envs):
                # Pool idle: the request cohort is over, drop the shared
                # verdicts so the memo never acts as a response cache.
                self._eval_memo.clear()

    def memo_stats(self) -> dict:
        return self._eval_memo.stats()

    def plan(self, max_steps: "int | None" = None, coalescer=None) -> NetworkPlan:
        """Deterministic greedy rollout of the registered policy.

        With a :class:`~repro.serve.coalescer.ForwardCoalescer`, the
        per-step forward goes through the coalescer's ``act`` seam so
        concurrent rollouts batch, and the pool's evaluation memo is
        attached so they share feasibility verdicts; the resulting plan
        is bitwise identical either way.

        ``metadata["lp_solves"]`` counts the LPs this rollout's own env
        solved; a verdict taken from the memo costs it nothing.
        """
        env = self._checkout()
        lp_before = env.evaluator.lp_solves
        try:
            if coalescer is None:
                plan = greedy_rollout(env, self.policy, max_steps)
            else:
                env.eval_memo = self._eval_memo
                with coalescer.rollout(env) as act:
                    plan = greedy_rollout(env, self.policy, max_steps, act=act)
            plan.metadata["lp_solves"] = env.evaluator.lp_solves - lp_before
            return plan
        finally:
            env.eval_memo = None
            self._checkin(env)

    @property
    def lp_solves(self) -> int:
        with self._lock:
            envs = list(self._envs)
        return sum(env.evaluator.lp_solves for env in envs)

    @property
    def pool_size(self) -> int:
        with self._lock:
            return len(self._envs)

    def close(self) -> None:
        """Release evaluator resources (thread pools, if any)."""
        with self._lock:
            envs = list(self._envs)
            self._envs = []
            self._free = []
        for env in envs:
            close = getattr(env.evaluator, "close", None)
            if callable(close):
                close()


class PolicyRegistry:
    """Serve-side cache of inference agents, backed by a model store."""

    def __init__(self, store: "ModelStore | str | os.PathLike"):
        self.store = store if isinstance(store, ModelStore) else ModelStore(store)
        self._agents: dict[tuple, InferenceAgent] = {}
        self._policies: dict[tuple, ActorCriticPolicy] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def resolve(
        self, key: ModelKey, version: "int | str" = "latest"
    ) -> ModelRecord:
        """Resolve a version without building an agent (cheap)."""
        return self.store.resolve(key, version)

    def agent(
        self,
        key: ModelKey,
        seed: int = 0,
        version: "int | str" = "latest",
    ) -> tuple[InferenceAgent, ModelRecord]:
        """An inference agent for ``key`` at ``seed``, loading and
        validating the stored policy on first use."""
        record = self.store.resolve(key, version)
        cache_key = (key.dirname(), record.version, int(seed))
        with self._lock:
            agent = self._agents.get(cache_key)
            if agent is None:
                agent = self._load(key, seed, record)
                self._agents[cache_key] = agent
                telemetry.counter("serve.models_loaded")
        return agent, record

    def peek(
        self,
        key: ModelKey,
        seed: int = 0,
        version: "int | str" = "latest",
    ) -> "tuple[InferenceAgent, ModelRecord] | None":
        """An already-loaded agent, or ``None`` -- never builds one.

        Shed tiers use this: answering from the solver-layer cache must
        stay cheap, so a cold agent (env build, policy load) is treated
        as a miss rather than paid for under overload.
        """
        record = self.store.resolve(key, version)
        cache_key = (key.dirname(), record.version, int(seed))
        with self._lock:
            agent = self._agents.get(cache_key)
        if agent is None:
            return None
        return agent, record

    def _load(self, key: ModelKey, seed: int, record: ModelRecord) -> InferenceAgent:
        manifest_key = record.manifest.get("key", {})
        for field_name, want in key.as_dict().items():
            got = manifest_key.get(field_name)
            same = (
                math.isclose(float(got), float(want))
                if isinstance(want, float) and got is not None
                else got == want
            )
            if not same:
                raise ModelMismatchError(
                    f"model {record.checkpoint_path} was published for "
                    f"{field_name}={got!r}, requested {want!r}"
                )
        instance = generators.make_instance(
            key.topology, seed=seed, scale=key.scale, horizon=key.horizon
        )
        spec = record.policy_spec
        env_kwargs = record.agent_kwargs
        env_kwargs.setdefault("max_units_per_step", spec.get("max_units"))
        env = PlanningEnv(instance, **env_kwargs)
        if spec.get("feature_dim") != env.encoder.feature_dim:
            raise ModelMismatchError(
                f"model {record.checkpoint_path} expects feature_dim="
                f"{spec.get('feature_dim')} but {key.dirname()} seed {seed} "
                f"encodes feature_dim={env.encoder.feature_dim}"
            )
        if spec.get("max_units") != env.max_units:
            raise ModelMismatchError(
                f"model {record.checkpoint_path} was trained with "
                f"max_units={spec.get('max_units')} but the environment "
                f"is built with max_units_per_step={env.max_units}"
            )
        spec["mlp_hidden"] = tuple(spec.get("mlp_hidden", ()))
        policy = self._policy_for(record, spec)
        return InferenceAgent(instance, policy, env)

    def _policy_for(self, record: ModelRecord, spec: dict) -> ActorCriticPolicy:
        """One constructed policy per (key, version, manifest checksum).

        The GNN policy is size-agnostic and read-only at serve time, so
        every seed of a band -- and every concurrent worker -- shares
        the same object; ``load_state_dict(copy=False)`` points its
        parameters straight at the memory-mapped checkpoint pages.
        Called with ``self._lock`` held (from :meth:`agent`).
        """
        policy_key = (
            record.key.dirname(),
            record.version,
            manifest_checksum(record.manifest),
        )
        policy = self._policies.get(policy_key)
        if policy is not None:
            telemetry.counter("serve.store.policy_cache_hits")
            return policy
        policy = ActorCriticPolicy(**spec, rng=0)
        params = self.store.load_params(record)
        try:
            policy.load_state_dict(params, copy=False)
        except NNError as exc:
            raise ModelMismatchError(
                f"model {record.checkpoint_path} parameters do not fit "
                f"the manifest architecture: {exc}"
            ) from exc
        self._policies[policy_key] = policy
        telemetry.counter("serve.store.policies_built")
        return policy

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            loaded = sorted(
                f"{dirname}@v{version} seed={seed}"
                for dirname, version, seed in self._agents
            )
        with self._lock:
            policies = len(self._policies)
        return {
            "model_dir": self.store.root,
            "keys": self.store.keys(),
            "loaded_agents": loaded,
            "loaded_policies": policies,
        }

    def close(self) -> None:
        """Close every loaded agent's evaluator resources."""
        with self._lock:
            agents = list(self._agents.values())
            self._agents.clear()
            self._policies.clear()
        for agent in agents:
            agent.close()


# ----------------------------------------------------------------------
def _jsonable_spec(spec: dict) -> dict:
    return {
        name: list(value) if isinstance(value, tuple) else value
        for name, value in spec.items()
    }


def _copy_json(value):
    """A deep copy of parsed JSON (dicts, lists and scalars)."""
    if isinstance(value, dict):
        return {name: _copy_json(item) for name, item in value.items()}
    if isinstance(value, list):
        return [_copy_json(item) for item in value]
    return value


def _atomic_write_json(path: str, payload: dict) -> None:
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
