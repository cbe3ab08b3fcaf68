"""A fixed pure-Python kernel that measures how fast the CPU runs right now.

On the shared 2-CPU host this benchmark was tuned on, the same code runs at
times up to twice as fast as at others, in stretches of seconds to minutes,
because other tenants share its cores. Times of two runs minutes apart can
therefore differ by more than any useful regression bound. Every reported
time is scaled to a reference speed instead:

    scaled = CPU time * REFERENCE_S / probe()

where probe() is the CPU time of one pass of the kernel below, taken next to
the measured work on the same CPU. One probe is noisy, so work is scaled by
the median of the probes taken around it. REFERENCE_S is the kernel's usual
time on that host, so there the scaled values read as plain CPU times. The
kernel lives in the benchmark, so a change to lbvt cannot move it.
"""

import math
import statistics
import time

REFERENCE_S = 230e-6
PASSES = 5
WINDOW = 5


def _kernel() -> float:
    """Scalar float work of the kind lbvt's chain and linkage kernels do."""
    x, y, acc = 0.1, 0.2, 0.0
    pts = []
    for i in range(400):
        a = 0.001 * i
        x += 0.018 * math.cos(a)
        y += 0.018 * math.sin(a)
        pts.append((x, y))
    for px, py in pts:
        acc += math.hypot(x - px, y - py) * math.atan2(py, px)
    return acc


def probe() -> float:
    """Median CPU time of PASSES kernel passes, in seconds."""
    times = []
    for _ in range(PASSES):
        t0 = time.process_time()
        _kernel()
        times.append(time.process_time() - t0)
    return sorted(times)[PASSES // 2]


def scale(probes: list[float]) -> float:
    """Factor from CPU time to reference time for work measured among these probes."""
    return REFERENCE_S / statistics.median(probes)


def rolling_scales(probes: list[float]) -> list[float]:
    """Per gap between consecutive probes, the scale over the WINDOW probes on each side."""
    return [
        scale(probes[max(i + 1 - WINDOW, 0): i + 1 + WINDOW]) for i in range(len(probes) - 1)
    ]
