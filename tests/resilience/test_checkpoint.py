"""Tests for the checkpoint format (repro.resilience.checkpoint)."""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.nn.optim import Adam
from repro.resilience import faults
from repro.resilience.checkpoint import (
    FORMAT_VERSION,
    TrainingCheckpoint,
    epoch_checkpoint_path,
    find_checkpoints,
    load_checkpoint,
    load_latest_checkpoint,
    resolve_resume,
    save_checkpoint,
    write_epoch_checkpoint,
)
from repro.rl.policy import ActorCriticPolicy
from repro.seeding import as_generator


def fresh_policy(seed=0):
    return ActorCriticPolicy(
        feature_dim=1,
        max_units=1,
        gnn_hidden=4,
        gnn_layers=1,
        mlp_hidden=(4,),
        rng=seed,
    )


def make_checkpoint(epoch=3, seed=0):
    policy = fresh_policy(seed)
    groups = policy.parameter_groups()
    actor = Adam(groups["actor"], lr=1e-3)
    critic = Adam(groups["critic"], lr=1e-3)
    rng = as_generator(seed)
    rng.random(7)  # advance the stream so the saved state is non-trivial
    ckpt = TrainingCheckpoint.capture(
        algo="a2c",
        epoch=epoch,
        policy=policy,
        optimizers={"actor": actor, "critic": critic},
        rng=rng,
        best_cost=123.5,
        best_capacities={"l1": 100.0, "l2": 400.0},
        history=[{"epoch": 0, "epoch_reward": -1.25}],
        stagnant=2,
    )
    return ckpt, policy, {"actor": actor, "critic": critic}, rng


class TestRoundtrip:
    def test_save_load_roundtrip(self, tmp_path):
        ckpt, _, _, rng = make_checkpoint()
        path = save_checkpoint(ckpt, tmp_path / "ckpt.npz")
        loaded = load_checkpoint(path)
        assert loaded.algo == "a2c"
        assert loaded.epoch == 3
        assert loaded.best_cost == 123.5
        assert loaded.best_capacities == {"l1": 100.0, "l2": 400.0}
        assert loaded.history == [{"epoch": 0, "epoch_reward": -1.25}]
        assert loaded.stagnant == 2
        assert loaded.version == FORMAT_VERSION
        for name, values in ckpt.policy_state.items():
            assert np.array_equal(loaded.policy_state[name], values)

    def test_restore_reproduces_live_state(self, tmp_path):
        ckpt, policy, optimizers, rng = make_checkpoint()
        path = save_checkpoint(ckpt, tmp_path / "ckpt")
        probe = rng.random(5)  # where the original stream goes next

        other = fresh_policy(seed=9)
        groups = other.parameter_groups()
        other_optims = {
            "actor": Adam(groups["actor"], lr=1e-3),
            "critic": Adam(groups["critic"], lr=1e-3),
        }
        other_rng = as_generator(99)
        load_checkpoint(path).restore(
            policy=other, optimizers=other_optims, rng=other_rng
        )
        for name, values in policy.state_dict().items():
            assert np.array_equal(other.state_dict()[name], values)
        # The restored generator continues the original stream bitwise.
        assert np.array_equal(other_rng.random(5), probe)

    def test_restore_missing_optimizer_raises(self, tmp_path):
        ckpt, policy, optimizers, _ = make_checkpoint()
        path = save_checkpoint(ckpt, tmp_path / "ckpt")
        with pytest.raises(CheckpointError, match="no optimizer state named"):
            load_checkpoint(path).restore(
                policy=policy,
                optimizers={"bogus": optimizers["actor"]},
            )

    def test_suffix_normalized_both_ways(self, tmp_path):
        ckpt, _, _, _ = make_checkpoint()
        written = save_checkpoint(ckpt, tmp_path / "ckpt")
        assert written.endswith("ckpt.npz")
        assert load_checkpoint(tmp_path / "ckpt").epoch == ckpt.epoch


class TestIntegrity:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint at"):
            load_checkpoint(tmp_path / "nope.npz")

    def test_truncated_file(self, tmp_path):
        ckpt, _, _, _ = make_checkpoint()
        path = save_checkpoint(ckpt, tmp_path / "ckpt.npz")
        data = Path(path).read_bytes()
        Path(path).write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_scribbled_payload_fails_checksum(self, tmp_path):
        ckpt, _, _, _ = make_checkpoint()
        path = save_checkpoint(ckpt, tmp_path / "ckpt.npz")
        faults.install("checkpoint.corrupt@3")
        save_checkpoint(ckpt, tmp_path / "bad.npz")
        faults.clear()
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "bad.npz")
        load_checkpoint(path)  # the clean sibling still loads

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, weights=np.ones(3))
        with pytest.raises(CheckpointError, match="not a neuroplan checkpoint"):
            load_checkpoint(path)

    def test_version_gate(self, tmp_path):
        ckpt, _, _, _ = make_checkpoint()
        ckpt.version = FORMAT_VERSION + 1
        path = save_checkpoint(ckpt, tmp_path / "future.npz")
        with pytest.raises(CheckpointError, match="unsupported checkpoint version"):
            load_checkpoint(path)

    def test_interrupted_write_keeps_previous_file(self, tmp_path):
        ckpt, _, _, _ = make_checkpoint(epoch=3)
        path = save_checkpoint(ckpt, tmp_path / "ckpt.npz")
        before = Path(path).read_bytes()

        later, _, _, _ = make_checkpoint(epoch=4, seed=1)
        faults.install("checkpoint.write@4")
        with pytest.raises(CheckpointError, match="injected fault"):
            save_checkpoint(later, path)
        faults.clear()
        assert Path(path).read_bytes() == before  # old file untouched
        assert load_checkpoint(path).epoch == 3


class TestDirectories:
    def test_epoch_paths_and_discovery(self, tmp_path):
        for epoch in (1, 3, 2):
            ckpt, _, _, _ = make_checkpoint(epoch=epoch)
            write_epoch_checkpoint(ckpt, tmp_path)
        found = find_checkpoints(tmp_path)
        assert [os.path.basename(p) for p in found] == [
            "ckpt-00003.npz",
            "ckpt-00002.npz",
            "ckpt-00001.npz",
        ]
        assert epoch_checkpoint_path(tmp_path, 3) == found[0]

    def test_latest_skips_corrupt_newest(self, tmp_path):
        for epoch in (1, 2):
            ckpt, _, _, _ = make_checkpoint(epoch=epoch)
            write_epoch_checkpoint(ckpt, tmp_path)
        newest = epoch_checkpoint_path(tmp_path, 2)
        Path(newest).write_bytes(b"garbage")
        assert load_latest_checkpoint(tmp_path).epoch == 1

    def test_latest_with_nothing_valid(self, tmp_path):
        (tmp_path / "ckpt-00001.npz").write_bytes(b"garbage")
        with pytest.raises(CheckpointError, match="unreadable"):
            load_latest_checkpoint(tmp_path)

    def test_latest_with_empty_dir(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoints found"):
            load_latest_checkpoint(tmp_path)

    def test_resolve_resume_file_or_directory(self, tmp_path):
        ckpt, _, _, _ = make_checkpoint(epoch=5)
        path = write_epoch_checkpoint(ckpt, tmp_path)
        assert resolve_resume(tmp_path).epoch == 5
        assert resolve_resume(path).epoch == 5
