"""Fixed calibration kernel, timed between the benchmark's ops.

The kernel shares no code or state with qturing. It mixes the kinds of work
the program does: integer modular arithmetic (Fibonacci residues, orbit
scans), Python float arithmetic and trigonometry, small numpy arrays, a 2x2
complex product read back with ``.tolist()``, ``%.17g`` formatting and
SHA-256. Kinds of work slow down by different factors when the machine is
busy (integer loops least, float and numpy code most), so the mix is
weighted to slow down about as much as the workloads do. An op's time
divided by the kernel times measured next to it cancels most of the speed
changes a shared machine goes through, so throughput is reported at the
kernel's reference speed.
"""
from __future__ import annotations

import hashlib
import math
import time

import numpy as np

#: nominal kernel time; per-run medians on the reference machine (2 cores,
#: Python 3.11.7, numpy 2.4.6) ranged from 9 to 17 ms with its load.
#: Throughput is reported as if the kernel took exactly this long.
REFERENCE_S = 0.012

_ITERATIONS = 700
_RESIDUE_STEPS = 40000
_MODULUS = 1999966


def kernel() -> str:
    """Run the fixed workload once and return the digest of its output."""
    f_prev, f, acc = 0, 1, 0
    for _ in range(_RESIDUE_STEPS):
        f_prev, f = f, (f_prev + f) % _MODULUS
        acc = (acc + 3 * f) % _MODULUS
    x = 0.5
    state = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    rho = np.array([[0.6, 0.2j], [-0.2j, 0.4]])
    lines = [str(acc)]
    for i in range(_ITERATIONS):
        x = (x * 1.6180339887498949 + 0.7) % 6.283185307179586
        c, s = math.cos(0.5 * x), -1j * math.sin(0.5 * x)
        c0, c1, c2, c3 = state
        state = np.array([c * c0 + s * c2, c * c1 + s * c3, s * c0 + c * c2, s * c1 + c * c3])
        if i % 2:
            state = state[[1, 0, 2, 3]]
        m = state.reshape(2, 2)
        (r00, r01), (r10, r11) = (m @ m.conj().T + 1e-3 * rho).tolist()
        s2 = -2.0 * r01.imag
        s3 = (r11 - r00).real
        lines.append("%d,%.17g,%.17g,%.17g" % (i, x, s2, s3 * s3 + s2 * s2))
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


def timed() -> float:
    """Seconds one kernel run takes."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
