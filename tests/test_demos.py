"""The demos under demos/ still run against the package."""

import os
import subprocess
import sys
from pathlib import Path

import framecmd

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = str(Path(framecmd.__file__).resolve().parents[1])


def test_robot_session():
    # The paper's use case, a robot's `parse CKPT -` session, and the
    # only demo that saves a checkpoint.
    proc = subprocess.run(
        [sys.executable, str(DEMOS / "robot_session.py")],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
