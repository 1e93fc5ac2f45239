"""Versioned, checksummed, atomically-written training checkpoints.

A checkpoint captures everything a trainer needs to continue a run as if
it had never stopped: policy parameters, optimizer moments (Adam m/v and
step counts), the trainer RNG's bit-generator state, the epoch counter
(which is also the parallel collector's ``SeedSequence`` stream
position), the best plan found so far, the epoch history, and the
telemetry counters.  The resume contract -- kill at epoch *k*, resume,
get a bitwise-identical :class:`~repro.rl.a2c.TrainingResult` (modulo
wall-clock timings) -- is enforced by ``tests/resilience``.

On-disk format
--------------
One ``.npz`` archive:

``__meta__``
    UTF-8 JSON: format magic + version, algorithm, epoch, RNG state,
    best cost/capacities, history, telemetry counters, and the
    optimizer manifest.
``__digest__``
    SHA-256 over the meta JSON and every payload array (name, dtype,
    shape, bytes, in sorted key order).  Loading recomputes and
    compares, so truncation and bit-rot surface as a typed
    :class:`~repro.errors.CheckpointError`, never a wrong resume.
``policy.<param>`` / ``optim.<name>.<slot>.<i>``
    The float payload.

Writes go to a ``.tmp`` sibling, are fsynced, then ``os.replace``d into
place: a crash mid-write leaves the previous checkpoint intact and at
worst a stale ``.tmp`` that the next write overwrites.
:func:`load_latest_checkpoint` walks a checkpoint directory newest-first
and skips corrupt files, so a torn or scribbled latest checkpoint falls
back to the previous good one.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.errors import CheckpointError
from repro.resilience import faults

FORMAT_MAGIC = "neuroplan-checkpoint"
FORMAT_VERSION = 1

_EPOCH_FILE = re.compile(r"^ckpt-(\d+)\.npz$")


def _json_default(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")


@dataclass
class TrainingCheckpoint:
    """A resumable snapshot of one trainer, taken between epochs."""

    algo: str  # "a2c" | "ppo"
    epoch: int  # completed epochs; training resumes at this epoch index
    policy_state: dict
    optimizer_states: dict  # name -> Optimizer.state_dict()
    rng_state: "dict | None"
    best_cost: float
    best_capacities: "dict | None"
    history: list = field(default_factory=list)
    stagnant: int = 0
    counters: dict = field(default_factory=dict)
    version: int = FORMAT_VERSION

    # ------------------------------------------------------------------
    @classmethod
    def capture(
        cls,
        *,
        algo: str,
        epoch: int,
        policy,
        optimizers: dict,
        rng=None,
        best_cost: float,
        best_capacities: "dict | None",
        history: list,
        stagnant: int = 0,
    ) -> "TrainingCheckpoint":
        """Snapshot live trainer state (arrays are copied)."""
        counters = telemetry.snapshot()["counters"] if telemetry.enabled() else {}
        return cls(
            algo=algo,
            epoch=epoch,
            policy_state=policy.state_dict(),
            optimizer_states={
                name: opt.state_dict() for name, opt in optimizers.items()
            },
            rng_state=None if rng is None else dict(rng.bit_generator.state),
            best_cost=best_cost,
            best_capacities=(
                None if best_capacities is None else dict(best_capacities)
            ),
            history=[dict(entry) for entry in history],
            stagnant=stagnant,
            counters=counters,
        )

    def restore(self, *, policy, optimizers: dict, rng=None) -> None:
        """Load this snapshot back into live trainer objects."""
        policy.load_state_dict(self.policy_state)
        for name, optimizer in optimizers.items():
            state = self.optimizer_states.get(name)
            if state is None:
                raise CheckpointError(
                    f"checkpoint has no optimizer state named {name!r} "
                    f"(has {sorted(self.optimizer_states)})"
                )
            optimizer.load_state_dict(state)
        if rng is not None and self.rng_state is not None:
            rng.bit_generator.state = self.rng_state
        # Resumed processes start with an empty registry; re-seeding the
        # counters keeps `resumed totals == uninterrupted totals`.
        if telemetry.enabled():
            for name, value in self.counters.items():
                telemetry.counter(name, value)


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
def _flatten(ckpt: TrainingCheckpoint) -> tuple[dict, dict]:
    """Split a checkpoint into (payload arrays, JSON-able meta)."""
    arrays: dict[str, np.ndarray] = {}
    for name, values in ckpt.policy_state.items():
        arrays[f"policy.{name}"] = np.asarray(values)
    optim_meta: dict[str, dict] = {}
    for opt_name, state in ckpt.optimizer_states.items():
        slots = {}
        for slot, value in state.items():
            if isinstance(value, list):
                for i, arr in enumerate(value):
                    arrays[f"optim.{opt_name}.{slot}.{i}"] = np.asarray(arr)
                slots[slot] = len(value)
        scalars = {
            key: value
            for key, value in state.items()
            if not isinstance(value, list)
        }
        optim_meta[opt_name] = {"slots": slots, "scalars": scalars}
    meta = {
        "magic": FORMAT_MAGIC,
        "version": ckpt.version,
        "algo": ckpt.algo,
        "epoch": ckpt.epoch,
        "rng_state": ckpt.rng_state,
        "best_cost": ckpt.best_cost,
        "best_capacities": ckpt.best_capacities,
        "history": ckpt.history,
        "stagnant": ckpt.stagnant,
        "counters": ckpt.counters,
        "optimizers": optim_meta,
    }
    return arrays, meta


def _digest(meta_bytes: bytes, arrays: dict) -> str:
    sha = hashlib.sha256()
    sha.update(meta_bytes)
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        sha.update(name.encode())
        sha.update(str(arr.dtype).encode())
        sha.update(repr(arr.shape).encode())
        sha.update(arr.tobytes())
    return sha.hexdigest()


def save_checkpoint(ckpt: TrainingCheckpoint, path: "str | os.PathLike") -> str:
    """Atomically write ``ckpt`` to ``path`` (suffix normalized to .npz).

    Raises :class:`CheckpointError` if the write fails or is interrupted
    (including by an injected ``checkpoint.write`` fault); the previous
    file at ``path``, if any, is left untouched in that case.
    """
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    arrays, meta = _flatten(ckpt)
    meta_bytes = json.dumps(meta, sort_keys=True, default=_json_default).encode()
    digest = _digest(meta_bytes, arrays)
    payload = dict(arrays)
    payload["__meta__"] = np.frombuffer(meta_bytes, dtype=np.uint8)
    payload["__digest__"] = np.frombuffer(digest.encode(), dtype=np.uint8)

    tmp_path = path + ".tmp"
    key = str(ckpt.epoch)
    try:
        with open(tmp_path, "wb") as handle:
            np.savez(handle, **payload)
            handle.flush()
            os.fsync(handle.fileno())
            # The injection point sits between "bytes written" and
            # "rename committed": exactly the window a crash would hit.
            faults.maybe_fail("checkpoint.write", key=key)
        os.replace(tmp_path, path)
    except CheckpointError:
        raise
    except Exception as exc:
        telemetry.counter("resilience.checkpoint_write_failures")
        raise CheckpointError(f"checkpoint write to {path} failed: {exc}") from exc
    if faults.fires("checkpoint.corrupt", key=key):
        _scribble(path)
    telemetry.counter("resilience.checkpoints_written")
    return path


def _scribble(path: str) -> None:
    """Simulate on-disk corruption by flipping bytes mid-file."""
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.seek(size // 2)
        handle.write(b"\xde\xad\xbe\xef" * 8)


def load_checkpoint(path: "str | os.PathLike") -> TrainingCheckpoint:
    """Read and verify a checkpoint; raise :class:`CheckpointError` on
    any missing/truncated/corrupt/incompatible archive."""
    path = os.fspath(path)
    if not path.endswith(".npz") and not os.path.exists(path):
        path += ".npz"
    try:
        # Own the handle: given a path, np.load leaves the file open
        # when the zip parse of a truncated archive raises.
        with open(path, "rb") as handle:
            with np.load(handle, allow_pickle=False) as archive:
                data = {name: archive[name] for name in archive.files}
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint at {path}") from None
    except Exception as exc:
        raise CheckpointError(
            f"unreadable checkpoint {path} (truncated or corrupt): {exc}"
        ) from exc

    meta_arr = data.pop("__meta__", None)
    digest_arr = data.pop("__digest__", None)
    if meta_arr is None or digest_arr is None:
        raise CheckpointError(f"{path} is not a neuroplan checkpoint")
    meta_bytes = bytes(meta_arr.astype(np.uint8).tobytes())
    stored_digest = bytes(digest_arr.astype(np.uint8).tobytes()).decode(
        errors="replace"
    )
    if _digest(meta_bytes, data) != stored_digest:
        raise CheckpointError(f"checksum mismatch in {path}; refusing to resume")
    try:
        meta = json.loads(meta_bytes.decode())
    except ValueError as exc:
        raise CheckpointError(f"corrupt checkpoint metadata in {path}") from exc
    if meta.get("magic") != FORMAT_MAGIC:
        raise CheckpointError(f"{path} is not a neuroplan checkpoint")
    if meta.get("version") != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {meta.get('version')} in {path} "
            f"(this build reads version {FORMAT_VERSION})"
        )

    policy_state = {
        name[len("policy.") :]: values
        for name, values in data.items()
        if name.startswith("policy.")
    }
    optimizer_states: dict[str, dict] = {}
    for opt_name, opt_meta in meta["optimizers"].items():
        state: dict = dict(opt_meta["scalars"])
        for slot, length in opt_meta["slots"].items():
            try:
                state[slot] = [
                    data[f"optim.{opt_name}.{slot}.{i}"] for i in range(length)
                ]
            except KeyError as exc:
                raise CheckpointError(
                    f"checkpoint {path} is missing optimizer array {exc}"
                ) from None
        optimizer_states[opt_name] = state

    return TrainingCheckpoint(
        algo=meta["algo"],
        epoch=int(meta["epoch"]),
        policy_state=policy_state,
        optimizer_states=optimizer_states,
        rng_state=meta["rng_state"],
        best_cost=float(meta["best_cost"]),
        best_capacities=meta["best_capacities"],
        history=meta["history"],
        stagnant=int(meta.get("stagnant", 0)),
        counters=meta.get("counters", {}),
        version=int(meta["version"]),
    )


# ----------------------------------------------------------------------
# Checkpoint directories
# ----------------------------------------------------------------------
def epoch_checkpoint_path(directory: "str | os.PathLike", epoch: int) -> str:
    return os.path.join(os.fspath(directory), f"ckpt-{epoch:05d}.npz")


def write_epoch_checkpoint(
    ckpt: TrainingCheckpoint, directory: "str | os.PathLike"
) -> str:
    """Write ``ckpt`` into ``directory`` under its canonical epoch name."""
    os.makedirs(os.fspath(directory), exist_ok=True)
    return save_checkpoint(ckpt, epoch_checkpoint_path(directory, ckpt.epoch))


def find_checkpoints(directory: "str | os.PathLike") -> list[str]:
    """Checkpoint files in ``directory``, newest (highest epoch) first."""
    directory = os.fspath(directory)
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    found = []
    for name in names:
        match = _EPOCH_FILE.match(name)
        if match:
            found.append((int(match.group(1)), os.path.join(directory, name)))
    return [path for _, path in sorted(found, reverse=True)]


def load_latest_checkpoint(directory: "str | os.PathLike") -> TrainingCheckpoint:
    """Load the newest *valid* checkpoint in ``directory``.

    Corrupt or truncated files are skipped (counted in telemetry), so a
    crash that mangled the most recent write falls back to the previous
    epoch instead of killing the resume.
    """
    paths = find_checkpoints(directory)
    if not paths:
        raise CheckpointError(f"no checkpoints found in {directory}")
    last_error: "CheckpointError | None" = None
    for path in paths:
        try:
            return load_checkpoint(path)
        except CheckpointError as exc:
            telemetry.counter("resilience.corrupt_checkpoints_skipped")
            last_error = exc
    raise CheckpointError(
        f"all {len(paths)} checkpoints in {directory} are unreadable; "
        f"last error: {last_error}"
    )


def resolve_resume(path: "str | os.PathLike") -> TrainingCheckpoint:
    """Load a checkpoint from a file path or a checkpoint directory."""
    target = os.fspath(path)
    if os.path.isdir(target):
        return load_latest_checkpoint(target)
    return load_checkpoint(target)
