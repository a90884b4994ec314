"""The tools under tools/ still run against the package."""

import os
import subprocess
import sys
from pathlib import Path

import framecmd

TOOLS = Path(__file__).resolve().parents[1] / "tools"
SRC = str(Path(framecmd.__file__).resolve().parents[1])


def test_equivalence_of_the_tree_with_itself():
    # Two processes, each with its own randomized hash seed, compute
    # every item the report compares: training, gradcheck, checkpoints,
    # metrics and the CLI's files must not depend on anything but the
    # tree.
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "equivalence.py"), SRC, SRC],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONHASHSEED": "random"})
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 12
    assert all(line.endswith(": identical") for line in lines), proc.stdout
