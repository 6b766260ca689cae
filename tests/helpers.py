"""Comparisons shared by the test modules."""

import numpy as np

from cylpack.lines import _chart_index, _pair_kernel


def same_line(a, b, tol=1e-10):
    """Whether two tangent lines coincide: base within tol in every component, and dir within
    tol in every component up to sign, since a line is unoriented."""
    if float(np.max(np.abs(a.base - b.base))) > tol:
        return False
    straight = float(np.max(np.abs(a.dir - b.dir)))
    flipped = float(np.max(np.abs(a.dir + b.dir)))
    return min(straight, flipped) <= tol


def lines_document(config):
    """The lines document config_from_dict reads, {"lines": [{"base": [x, y, z], "dir": [x, y,
    z]}, ...]}, of a configuration's lines, each as stored."""
    return {"lines": [{"base": line.base.tolist(), "dir": line.dir.tolist()} for line in config]}


def batched_dsq(bases, dirs):
    """The pair kernel's batched branch on (..., n, 3) base and dir stacks: the squared distances
    of all pairs i < j, row-major, of each configuration, shaped (..., n(n-1)/2)."""
    table = np.concatenate((bases, dirs), axis=-1)
    n = table.shape[-2]
    return _pair_kernel(table.reshape(-1, 6 * n).T, _chart_index(n)).T.reshape(*table.shape[:-2], -1)
