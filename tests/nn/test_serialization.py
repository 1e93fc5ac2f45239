"""Regression tests for state-dict serialization (repro.nn.serialization).

The original implementation passed a bare path straight to
``numpy.savez`` (which silently appends ``.npz``) but opened exactly the
given path on load -- so ``save("ckpt"); load("ckpt")`` stranded the
file.  Both directions now normalize the suffix, writes are atomic, and
corrupt archives surface as a typed :class:`NNError`.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.errors import NNError
from repro.nn.layers import Linear
from repro.nn.serialization import load_state_dict, save_state_dict


def fresh(seed=0):
    return Linear(4, 3, rng=seed)


class TestSuffixNormalization:
    def test_save_without_suffix_loads_without_suffix(self, tmp_path):
        a, b = fresh(0), fresh(1)
        written = save_state_dict(a, tmp_path / "ckpt")
        assert written.endswith("ckpt.npz")
        load_state_dict(b, tmp_path / "ckpt")  # the regression case
        for name, values in a.state_dict().items():
            assert np.array_equal(b.state_dict()[name], values)

    def test_mixed_suffix_addressing(self, tmp_path):
        a, b = fresh(0), fresh(1)
        save_state_dict(a, tmp_path / "ckpt.npz")
        load_state_dict(b, tmp_path / "ckpt")
        assert np.array_equal(
            b.state_dict()["weight"], a.state_dict()["weight"]
        )


class TestCrashSafety:
    def test_no_tmp_file_left_behind(self, tmp_path):
        save_state_dict(fresh(), tmp_path / "ckpt")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.npz"]

    def test_missing_file_raises_nnerror(self, tmp_path):
        with pytest.raises(NNError, match="no state dict at"):
            load_state_dict(fresh(), tmp_path / "absent")

    def test_corrupt_archive_raises_nnerror(self, tmp_path):
        path = save_state_dict(fresh(), tmp_path / "ckpt")
        data = Path(path).read_bytes()
        Path(path).write_bytes(data[: len(data) // 2])
        with pytest.raises(NNError, match="truncated or corrupt"):
            load_state_dict(fresh(1), path)

    def test_garbage_file_raises_nnerror(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        path.write_bytes(b"not a zip archive")
        with pytest.raises(NNError, match="truncated or corrupt"):
            load_state_dict(fresh(), path)

    def test_unwritable_directory_raises_nnerror(self, tmp_path):
        with pytest.raises(NNError, match="failed to save"):
            save_state_dict(fresh(), tmp_path / "missing-dir" / "ckpt")
