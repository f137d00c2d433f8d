"""Machine-speed calibration for timings taken on a shared host.

On a shared virtual machine the CPU speed one process gets drifts by 20-40%
over tens of seconds, which swamps run-to-run comparisons of CLI wall time.
A fixed kernel of interpreter work and small numpy operations, much like the
CLI's own mix, is timed in the benchmark process before and after every CLI
command; scaling the command's wall time by the kernel time around it
cancels the machine's momentary speed.  Scaled times are seconds at the
reference speed, at which the kernel takes ``REFERENCE_KERNEL_S``.
"""

from __future__ import annotations

from time import perf_counter

# Median kernel time on the 2-vCPU machine the seed baseline was measured on.
REFERENCE_KERNEL_S = 0.006


def kernel_seconds() -> float:
    """Wall time of one run of the fixed calibration kernel."""
    import numpy as np  # here, so that importing this module leaves BLAS set-up alone

    start = perf_counter()
    a = np.random.default_rng(0).standard_normal((64, 64))
    x = np.linspace(-8.0, 8.0, 768)
    acc = 0.0
    for k in range(120):
        p, q = k % 63, (k * 7) % 63 + 1
        rp = 0.8 * a[p, :] - 0.6 * a[q, :]
        a[q, :] = 0.6 * a[p, :] + 0.8 * a[q, :]
        a[p, :] = rp
        y = np.exp(-0.5 * np.log1p(np.exp(-2.0 * np.abs(x)))) * np.tanh(x)
        acc += float(y @ y)
    s = 0
    for i in range(40000):
        s += i * i
    return perf_counter() - start


def scaled(seconds: float, kernel_s: float) -> float:
    """A wall time converted to seconds at the reference machine speed."""
    return seconds * REFERENCE_KERNEL_S / kernel_s
