"""Comparisons shared by the test modules."""

import numpy as np


def same_line(a, b, tol=1e-10):
    """Whether two tangent lines coincide: base within tol in every component, and dir within
    tol in every component up to sign, since a line is unoriented."""
    if float(np.max(np.abs(a.base - b.base))) > tol:
        return False
    straight = float(np.max(np.abs(a.dir - b.dir)))
    flipped = float(np.max(np.abs(a.dir + b.dir)))
    return min(straight, flipped) <= tol
