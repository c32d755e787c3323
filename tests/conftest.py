"""Shared fixtures."""

import errno
import os
from pathlib import Path

import pytest

import popperlab
from popperlab import wavefunction


@pytest.fixture
def child_env():
    """Environment for a child interpreter that imports this popperlab.

    The directory holding the package under test goes first on PYTHONPATH,
    so a child never picks up another installed copy.
    """
    package_root = str(Path(popperlab.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    path = package_root if not inherited else os.pathsep.join([package_root, inherited])
    return {**os.environ, "PYTHONPATH": path}


class FaultyFile:
    """A binary file whose ``fail_at``-th write raises ENOSPC (the EPWF
    header is write 1), and whose close, if ``close_fails``, raises EIO once
    the file is closed, as a full or failing disk does."""

    def __init__(self, path, fail_at=None, close_fails=False):
        self._file = open(path, "wb")
        self.writes, self.fail_at, self.close_fails = 0, fail_at, close_fails

    def write(self, data):
        self.writes += 1
        if self.writes == self.fail_at:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._file.write(data)

    def close(self):
        self._file.close()
        if self.close_fails:
            raise OSError(errno.EIO, "Input/output error")


@pytest.fixture
def epwf_faults(monkeypatch):
    """``epwf_faults(name, fail_at=k, close_fails=b)``: the EPWF writer opens
    each file named ``name`` as a ``FaultyFile`` from then on."""
    faults = {}

    def faulty_open(path, mode="r", *args, **kwargs):
        if mode == "wb" and Path(path).name in faults:
            return FaultyFile(path, **faults[Path(path).name])
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(wavefunction, "open", faulty_open, raising=False)
    return lambda name, **fault: faults.__setitem__(name, fault)
