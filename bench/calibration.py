"""A fixed reference kernel that measures how fast the machine is right now.

On a shared machine the CPU a run gets can be much slower at some
moments than at others, because of work outside the benchmark. Each run
times this kernel between its operations and reports each operation's
time at reference speed: measured × REFERENCE_S / (kernel time just
before and after it). The kernel
does not use cylpack, so a change to cylpack moves the reported times
and leaves the kernel alone. It mixes the two kinds of work cylpack
does: numpy calls on batches of charts, and interpreter-bound loops of
small-array numpy calls.
"""

from __future__ import annotations

import math
import time

import numpy as np

# about the kernel's time on the machine the benchmark was built on
# (2-core Xeon at 2.0 GHz, numpy 2.4), which took 2.0 to 4.2 ms
REFERENCE_S = 0.003
# how often a measuring loop times the kernel again; the machine's speed
# can change from one second to the next
INTERVAL_S = 0.1

_RNG = np.random.default_rng(20180524)
_CHARTS = _RNG.normal(size=(48, 6, 3))
_PAIRS_I, _PAIRS_J = np.triu_indices(6, 1)
_VECTORS = list(_RNG.normal(size=(12, 3)))


def _batch() -> float:
    phi, kappa, ang = _CHARTS[..., 0], _CHARTS[..., 1], _CHARTS[..., 2]
    sp, cp, sk, ck = np.sin(phi), np.cos(phi), np.sin(kappa), np.cos(kappa)
    bases = np.stack([cp * ck, cp * sk, sp], axis=-1)
    north = np.stack([-sp * ck, -sp * sk, cp], axis=-1)
    east = np.stack([-sk, ck, np.zeros_like(sk)], axis=-1)
    dirs = np.cos(ang)[..., None] * north + np.sin(ang)[..., None] * east
    cross = np.cross(dirs[:, _PAIRS_I], dirs[:, _PAIRS_J])
    w = bases[:, _PAIRS_J] - bases[:, _PAIRS_I]
    det = np.einsum("npk,npk->np", cross, w)
    return float((det * det / np.einsum("npk,npk->np", cross, cross)).min())


def _scalar() -> float:
    acc = 0.0
    for a, b in zip(_VECTORS, _VECTORS[1:]):
        c = np.cross(a, b)
        w = b - a
        acc += float(c @ w) ** 2 / float(c @ c) + math.sin(acc)
    return acc


def kernel() -> float:
    return sum(_batch() for _ in range(6)) + sum(_scalar() for _ in range(4))


def sample() -> float:
    """One timing of the kernel, in seconds."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def samples(n: int) -> list:
    return [sample() for _ in range(n)]
