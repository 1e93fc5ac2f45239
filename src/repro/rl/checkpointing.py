"""Trainer-side checkpoint/resume plumbing shared by A2C and PPO.

The mixin assumes the host trainer exposes ``config`` (with
``checkpoint_every`` / ``checkpoint_dir`` / ``resume_from``), ``policy``,
``rng``, a class attribute ``ALGO``, and ``_optimizers()`` returning the
named optimizers whose moments belong in the checkpoint.

The resume contract both trainers implement with this plumbing: killing
a run after epoch *k*'s checkpoint and resuming from it produces a
:class:`~repro.rl.a2c.TrainingResult` bitwise identical to the
uninterrupted run (``train_seconds`` excepted -- wall clock is not
state).  What makes that possible:

- policy parameters and Adam moments restore exactly (float64 arrays);
- the trainer's RNG is restored in place from its bit-generator state.
  The one collector has two seeding contracts: at ``num_workers=1,
  num_envs=1`` it draws the serial stream from that generator, which
  therefore resumes where the killed run left it;
- under the other contract (any other ``num_workers`` or ``num_envs``)
  the collector needs no RNG state at all -- its streams are keyed by
  ``(seed, epoch, trajectory)``, so the resumed epoch counter alone
  re-addresses the identical stream family;
- best-plan-so-far, epoch history, the patience counter and telemetry
  counters ride along in the checkpoint.
"""

from __future__ import annotations

from repro import telemetry
from repro.errors import CheckpointError
from repro.resilience import faults
from repro.resilience.checkpoint import (
    TrainingCheckpoint,
    resolve_resume,
    write_epoch_checkpoint,
)


class CheckpointingTrainer:
    """Mixin: periodic checkpoint writes and resume-state loading."""

    ALGO = "trainer"  # overridden by concrete trainers

    def _optimizers(self) -> dict:  # pragma: no cover - abstract
        raise NotImplementedError

    def _load_resume(self) -> "TrainingCheckpoint | None":
        """Load ``config.resume_from`` (file or directory) and restore
        policy/optimizer/RNG state in place; None when not resuming."""
        if not self.config.resume_from:
            return None
        ckpt = resolve_resume(self.config.resume_from)
        if ckpt.algo != self.ALGO:
            raise CheckpointError(
                f"checkpoint was written by algo {ckpt.algo!r}, cannot "
                f"resume a {self.ALGO} trainer from it"
            )
        ckpt.restore(policy=self.policy, optimizers=self._optimizers(), rng=self.rng)
        telemetry.counter(f"rl.{self.ALGO}.resumes")
        return ckpt

    def _write_checkpoint(
        self,
        epoch: int,
        best_cost: float,
        best_capacities: "dict[str, float] | None",
        history: list,
        stagnant: int = 0,
    ) -> None:
        """Checkpoint the just-completed epoch if the cadence says so.

        A failed or interrupted write is non-fatal: the atomic format
        guarantees the previous checkpoint is intact, so training keeps
        going and only telemetry records the failure.
        """
        config = self.config
        if not config.checkpoint_every or (epoch + 1) % config.checkpoint_every:
            return
        ckpt = TrainingCheckpoint.capture(
            algo=self.ALGO,
            epoch=epoch + 1,
            policy=self.policy,
            optimizers=self._optimizers(),
            rng=self.rng,
            best_cost=best_cost,
            best_capacities=best_capacities,
            history=history,
            stagnant=stagnant,
        )
        try:
            write_epoch_checkpoint(ckpt, config.checkpoint_dir)
        except CheckpointError:
            pass  # counted by save_checkpoint; keep training
        else:
            # Kill-at-epoch-k harness: hard-exits here when injected.
            faults.maybe_abort("train.abort", key=str(epoch + 1))
