"""Machine-speed calibration for the benchmark's timings.

On the shared 2-core box the benchmark was built on, the same solve runs up
to 2.3x slower for minutes at a time while other tenants are busy; process
CPU time rises with wall time, so the process is slowed, not descheduled.
A fixed kernel is timed right before and after each measured interval, and
the interval is rescaled to the kernel's speed on the reference box:

    rescaled = measured * REFERENCE_S / kernel time

The kernel is a frozen miniature of one filtered step on a 40-interval grid
(difference stencil, two-mode cosine shift by a 2x2 solve, DST-I filter,
unshift, finiteness check): many small NumPy and SciPy calls, like a solve.
It slows with the solves far more closely than a plain interpreter loop
does.  It does not use ``rdfilter``, so a slower solver still reads slower.
"""

from __future__ import annotations

from time import perf_counter

# The kernel's time on the reference box (2-core x86 VM, 2.0 GHz) when quiet.
REFERENCE_S = 0.0075
KERNEL_STEPS = 150
KERNEL_N = 40


def kernel() -> None:
    """Fixed work: KERNEL_STEPS filtered steps of a KERNEL_N-interval field."""
    # Imported here, not at module level: the caller pins BLAS threads first.
    import numpy as np
    from scipy.fft import dst, idst

    n = KERNEL_N
    x = np.linspace(0.0, np.pi, n + 1)
    k = np.arange(1, n)
    sigma = (0.5 * (1.0 + np.cos(np.pi * k / n)))[:, np.newaxis]
    ends = np.cos(np.outer(x[[0, -1]], [0, 1]))
    modes = np.cos(np.outer(x, [0, 1]))
    u = np.sin(x)[:, np.newaxis] + 0.5
    for _ in range(KERNEL_STEPS):
        lap = np.zeros_like(u)
        lap[1:-1] = u[:-2] - 2.0 * u[1:-1] + u[2:]
        u = u + 1.0e-3 * lap
        alpha = np.linalg.solve(ends, np.stack([u[0], u[-1]]))
        v = u - modes @ alpha
        coeffs = dst(v[1:-1], type=1, axis=0) * sigma
        filtered = np.zeros_like(v)
        filtered[1:-1] = idst(coeffs, type=1, axis=0)
        u = filtered + modes @ alpha
        if not np.all(np.isfinite(u)):
            raise FloatingPointError("calibration kernel diverged")


def seconds_per_kernel(min_seconds: float) -> float:
    """Mean kernel time over as many runs as fill ``min_seconds`` (at least one)."""
    runs = 0
    start = perf_counter()
    while True:
        kernel()
        runs += 1
        elapsed = perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed / runs


def rescale(measured: float, kernel_s: float) -> float:
    return measured * REFERENCE_S / kernel_s
