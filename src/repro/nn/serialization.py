"""Checkpointing: save/load a Module's state dict as a ``.npz`` file.

Both directions normalize the ``.npz`` suffix, so ``save_state_dict(m,
"ckpt")`` and ``load_state_dict(m, "ckpt")`` address the same file
(``numpy.savez`` appends the suffix silently, which used to strand the
loader).  Writes are crash-safe: the archive goes to a ``.tmp`` sibling,
is fsynced, and is renamed into place with ``os.replace``, so an
interrupted save can never leave a truncated file under the real name.
Truncated or corrupt archives surface as :class:`~repro.errors.NNError`
rather than a raw ``zipfile`` traceback.
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import NNError
from repro.nn.module import Module


def _normalize_path(path: "str | os.PathLike") -> str:
    path = os.fspath(path)
    return path if path.endswith(".npz") else path + ".npz"


def save_state_dict(module: Module, path: "str | os.PathLike") -> str:
    """Atomically write ``module``'s parameters to ``path`` (``.npz``).

    Returns the path actually written (with the suffix normalized).
    """
    state = module.state_dict()
    if not state:
        raise NNError("module has no parameters to save")
    path = _normalize_path(path)
    tmp_path = path + ".tmp"
    try:
        with open(tmp_path, "wb") as handle:
            np.savez(handle, **state)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except OSError as exc:
        raise NNError(f"failed to save state dict to {path}: {exc}") from exc
    return path


def load_state_dict(module: Module, path: "str | os.PathLike") -> None:
    """Load parameters saved by :func:`save_state_dict` into ``module``."""
    path = _normalize_path(path)
    try:
        # Own the handle: given a path, np.load leaves the file open
        # when the zip parse of a truncated archive raises.
        with open(path, "rb") as handle:
            with np.load(handle, allow_pickle=False) as archive:
                state = {name: archive[name] for name in archive.files}
    except FileNotFoundError:
        raise NNError(f"no state dict at {path}") from None
    except NNError:
        raise
    except Exception as exc:
        # zipfile.BadZipFile, ValueError from a truncated member, etc.
        raise NNError(
            f"cannot load state dict from {path}: the archive is "
            f"truncated or corrupt ({exc})"
        ) from exc
    module.load_state_dict(state)
