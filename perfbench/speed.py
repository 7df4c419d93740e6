"""Machine-speed reference for timing on a shared host.

On a host shared with other tenants the same CPU-bound invocation can take
twice as long from one second to the next, because the core runs slower, not
because the process waits. The benchmark therefore times a fixed reference
kernel next to every measured interval and reports each time at nominal
speed::

    nominal_s = measured_s * NOMINAL_REFERENCE_S / reference_s

where ``reference_s`` is the kernel's time measured around the interval. The
kernel mixes the kinds of work avgfusion's hot paths do (see
``reference_seconds``). Keep it unchanged: every
comparison between two commits relies on it doing the same work.
"""

from __future__ import annotations

import csv
import io
import time

import numpy as np

#: Reference kernel time, in seconds, that defines nominal speed (about the
#: kernel's uncontended time on a 2-core x86-64 cloud host).
NOMINAL_REFERENCE_S = 0.03

_RNG = np.random.default_rng(0)
_KETS = _RNG.integers(0, 3, size=(40, 8))
_MATRIX = _RNG.standard_normal((4, 4)) + 0j
_BIG = _RNG.standard_normal(400_000)  # 3.2 MB, beyond a per-core L2 cache
_GATHER = _RNG.integers(0, _BIG.size, size=50_000)
_MANY_KETS = [tuple(int(n) for n in row) for row in _RNG.integers(0, 4, size=(20_000, 8))]


def reference_seconds() -> float:
    """Run the reference kernel once; return its wall time in seconds.

    Three parts of similar length: interpreter work on small dicts and
    ``np.unique``; memory-bound work on a large dict and array; small dense
    linear algebra, per-trial RNG streams and CSV formatting. Their mix tracks the avgfusion
    workloads better than any one part alone.
    """
    t0 = time.perf_counter()
    for _ in range(16):
        acc = {}
        for i in range(200):
            ket = tuple((i * j) % 5 for j in range(8))
            acc[ket] = acc.get(ket, 0j) + complex(i)
        unique, inverse = np.unique(_KETS, axis=0, return_inverse=True)
        coeffs = np.zeros(len(unique), dtype=complex)
        np.add.at(coeffs, inverse.reshape(-1), 1.0)
    counts = {}
    for ket in _MANY_KETS:
        counts[ket] = counts.get(ket, 0) + 1
    for _ in range(4):
        _BIG[_GATHER].sum()
        np.sort(_BIG[:100_000])
    out = csv.writer(io.StringIO(), lineterminator="\n")
    for i in range(8):
        for j in range(30):
            np.linalg.svd(_MATRIX @ _MATRIX, compute_uv=False)
            np.abs(_MATRIX.conj().T @ _MATRIX - np.eye(4)).max()
            np.random.default_rng(np.random.SeedSequence((i, j, 1, 2, 3))).uniform(0.3, 0.7)
        for row in _BIG[:300].reshape(30, 10):
            out.writerow(["%.17g" % x for x in row])
    return time.perf_counter() - t0


def to_nominal(measured_s: float, reference_s: float) -> float:
    """A measured time rescaled to nominal machine speed."""
    return measured_s * NOMINAL_REFERENCE_S / reference_s
