"""Finite-difference verification of the backward pass.

Runs `framecmd gradcheck`, which checks every architecture variant
coordinate by coordinate against central differences on a 5-token
sentence: relative errors sit well below 1e-4 when the analytic
gradients are right. Then it breaks the backward pass, so that every
gradient an op hands back is added twice over, and runs the check
again: the errors rise by orders of magnitude and every variant
fails. Exits 1 if either run ends otherwise.

    PYTHONPATH=src python demos/gradient_check.py
"""

import sys

from framecmd import autodiff
from framecmd.cli import main

print("the backward pass as it is:")
right = main(["gradcheck"]) == 0

print("\nthe backward pass adding every gradient twice over:")
accumulate = autodiff.accumulate
autodiff.accumulate = lambda t, g: accumulate(t, 2.0 * g)
try:
    caught = main(["gradcheck"]) == 1
finally:
    autodiff.accumulate = accumulate

sys.exit(0 if right and caught else 1)
