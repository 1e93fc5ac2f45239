"""The resume contract, in process: interrupt-at-epoch-k + resume must
reproduce the uninterrupted TrainingResult bitwise (train_seconds is
wall clock, not state, and is excluded)."""

import pytest

from repro.errors import CheckpointError, ConfigError
from repro.resilience import faults
from repro.resilience.checkpoint import find_checkpoints
from repro.rl.a2c import A2CConfig, A2CTrainer
from repro.rl.env import PlanningEnv
from repro.rl.policy import ActorCriticPolicy
from repro.rl.ppo import PPOConfig, PPOTrainer
from repro.topology import datasets

EPOCHS = 4
STOP_AT = 2  # the "interrupted" run's checkpoint boundary
# Scaled-out collection: a worker pool, and lockstep batched envs.
SCALE_OUT = {
    "workers": dict(num_workers=2),
    "envs": dict(num_envs=4),
}


def fresh_env():
    return PlanningEnv(datasets.figure1_topology(), max_units_per_step=1, max_steps=12)


def fresh_policy():
    return ActorCriticPolicy(feature_dim=1, max_units=1, rng=0)


def assert_same_result(resumed, control):
    __tracebackhide__ = True
    assert resumed.history == control.history  # float ==, not approx
    assert resumed.best_cost == control.best_cost
    assert resumed.best_capacities == control.best_capacities
    assert resumed.epochs_run == control.epochs_run
    assert resumed.converged == control.converged


class TestA2CResume:
    def train(self, epochs, ckpt_dir=None, resume=None, patience=0, **kw):
        config = A2CConfig(
            epochs=epochs,
            steps_per_epoch=16,
            max_trajectory_length=8,
            seed=3,
            patience=patience,
            checkpoint_every=1 if ckpt_dir else 0,
            checkpoint_dir=str(ckpt_dir) if ckpt_dir else None,
            resume_from=str(resume) if resume else None,
            **kw,
        )
        return A2CTrainer(fresh_env(), fresh_policy(), config).train()

    def test_serial_resume_bitwise(self, tmp_path):
        control = self.train(EPOCHS)
        self.train(STOP_AT, ckpt_dir=tmp_path)  # "killed" after epoch 2
        resumed = self.train(EPOCHS, resume=tmp_path)
        assert_same_result(resumed, control)

    def test_parallel_resume_bitwise(self, tmp_path):
        for name, kw in SCALE_OUT.items():
            control = self.train(EPOCHS, **kw)
            self.train(STOP_AT, ckpt_dir=tmp_path / name, **kw)
            resumed = self.train(EPOCHS, resume=tmp_path / name, **kw)
            assert_same_result(resumed, control)

    def test_resume_from_explicit_file(self, tmp_path):
        control = self.train(EPOCHS)
        self.train(STOP_AT, ckpt_dir=tmp_path)
        newest = find_checkpoints(tmp_path)[0]
        resumed = self.train(EPOCHS, resume=newest)
        assert_same_result(resumed, control)

    def test_resume_skips_corrupt_latest(self, tmp_path):
        control = self.train(EPOCHS)
        self.train(STOP_AT, ckpt_dir=tmp_path)
        newest = find_checkpoints(tmp_path)[0]
        with open(newest, "r+b") as handle:
            handle.seek(100)
            handle.write(b"\xde\xad\xbe\xef" * 8)
        # Falls back to epoch 1's checkpoint and re-trains epoch 1.
        resumed = self.train(EPOCHS, resume=tmp_path)
        assert_same_result(resumed, control)

    def test_resume_with_patience_counter(self, tmp_path):
        control = self.train(EPOCHS, patience=1)
        self.train(STOP_AT, ckpt_dir=tmp_path, patience=1)
        resumed = self.train(EPOCHS, resume=tmp_path, patience=1)
        assert_same_result(resumed, control)

    def test_checkpoint_write_failure_is_nonfatal(self, tmp_path):
        control = self.train(EPOCHS)
        faults.install("checkpoint.write@2")
        interrupted = self.train(EPOCHS, ckpt_dir=tmp_path)
        faults.clear()
        # Training survived the failed write and finished identically.
        assert_same_result(interrupted, control)
        names = [p.rsplit("ckpt-", 1)[1] for p in find_checkpoints(tmp_path)]
        assert "00002.npz" not in names  # the injected-failure epoch
        assert "00001.npz" in names

    def test_algo_mismatch_rejected(self, tmp_path):
        self.train(STOP_AT, ckpt_dir=tmp_path)
        config = PPOConfig(
            epochs=EPOCHS,
            steps_per_epoch=16,
            max_trajectory_length=8,
            seed=3,
            resume_from=str(tmp_path),
        )
        with pytest.raises(CheckpointError, match="written by algo 'a2c'"):
            PPOTrainer(fresh_env(), fresh_policy(), config).train()

    def test_checkpoint_every_requires_dir(self):
        with pytest.raises(ConfigError, match="needs a checkpoint_dir"):
            A2CConfig(checkpoint_every=2)
        with pytest.raises(ConfigError, match="checkpoint_every"):
            A2CConfig(checkpoint_every=-1)


class TestPPOResume:
    def train(self, epochs, ckpt_dir=None, resume=None, **kw):
        config = PPOConfig(
            epochs=epochs,
            steps_per_epoch=16,
            max_trajectory_length=8,
            seed=3,
            checkpoint_every=1 if ckpt_dir else 0,
            checkpoint_dir=str(ckpt_dir) if ckpt_dir else None,
            resume_from=str(resume) if resume else None,
            **kw,
        )
        return PPOTrainer(fresh_env(), fresh_policy(), config).train()

    def test_serial_resume_bitwise(self, tmp_path):
        control = self.train(EPOCHS)
        self.train(STOP_AT, ckpt_dir=tmp_path)
        resumed = self.train(EPOCHS, resume=tmp_path)
        assert_same_result(resumed, control)

    def test_parallel_resume_bitwise(self, tmp_path):
        for name, kw in SCALE_OUT.items():
            control = self.train(EPOCHS, **kw)
            self.train(STOP_AT, ckpt_dir=tmp_path / name, **kw)
            resumed = self.train(EPOCHS, resume=tmp_path / name, **kw)
            assert_same_result(resumed, control)

    def test_config_guards(self):
        with pytest.raises(ConfigError, match="needs a checkpoint_dir"):
            PPOConfig(checkpoint_every=2)
