"""A fixed piece of work that measures how fast the machine is right now.

On a shared host the speed of one core changes from one second to the
next.  A probe does the same work every time and does not touch
circleloop, so its time tracks the machine and nothing else.  `probe`
mixes small numpy trigonometry with a plain Python loop, like the
in-process workloads; `launch_probe` starts an interpreter that imports
numpy, like every CLI process does.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

_GRID = np.linspace(0.0, 2.0 * np.pi, 2048)
_HARMONICS = np.arange(1.0, 9.0)


def probe() -> float:
    """Run the probe once and return its wall time in seconds."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(3):
        kt = np.multiply.outer(_GRID, _HARMONICS)
        acc += float((np.cos(kt) @ _HARMONICS).sum() + np.sin(kt).sum())
    for i in range(3000):
        acc += (i * 0.5) % 3.0
    return time.perf_counter() - start


def launch_probe() -> float:
    """Start a fresh interpreter that imports numpy; return its wall time in seconds."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return time.perf_counter() - start
