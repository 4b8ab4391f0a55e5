"""A fixed piece of work, sharing no code with sonocad, that the benchmark
times between its calls to gauge how fast the host runs at that moment.

On a shared host the same call can run 1.4 times slower for a second or for
minutes, while another tenant loads the core. Timing the yardstick next to
each call and dividing lets runs made minutes apart be compared. The work
mixes what the program spends its time on: interpreter loops over pixels
(connectivity enforcement, region growing, SMO) and element-wise array
arithmetic on an image (SLIC assignment, preprocessing). Both halves take
about the same time; alone, the first slows more than the program when the
host is loaded and the second less.
"""

from __future__ import annotations

import time

import numpy as np

GRID = 60  # side of the flood-filled grid
SIDE = 160  # side of the image, as the phantoms
ARRAY_PASSES = 30


def work() -> float:
    """The yardstick's work; returns a checksum so that none of it is skipped."""
    seen = set()
    stack = [(0, 0)]
    while stack:
        p = stack.pop()
        if p in seen:
            continue
        seen.add(p)
        y, x = p
        for q in ((y + 1, x), (y - 1, x), (y, x + 1), (y, x - 1)):
            if 0 <= q[0] < GRID and 0 <= q[1] < GRID and q not in seen:
                stack.append(q)
    img = np.linspace(0.0, 1.0, SIDE * SIDE).reshape(SIDE, SIDE)
    for _ in range(ARRAY_PASSES):
        img = np.sqrt(img * img + 1.0) - 0.5 * img
    return len(seen) + float(img[0, 0])


def measure() -> float:
    """Seconds the yardstick takes now."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start
