"""Shared fixtures."""

import os
from pathlib import Path

import pytest

import popperlab


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
