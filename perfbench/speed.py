"""Machine-speed probe, run beside the benchmark on one CPU.

    python3 perfbench/speed.py OUTFILE CPU

It pins itself to CPU, unless CPU is -1 (pinning not allowed). Every
PERIOD seconds it times one fixed unit of work, small NumPy kernels driven
from a Python loop like qvaft's own code, in CPU seconds of this thread,
and appends
"wall-clock time,CPU seconds" to OUTFILE. When the CPU runs slower, the
unit takes longer, and so does the benchmark work pinned to the same CPU.
The probe takes about 3% of that CPU. It runs until it is terminated.
"""

import os
import sys
import time

import numpy as np

PERIOD = 0.05


def unit(x: np.ndarray, a: np.ndarray) -> float:
    s = 0.0
    for i in range(100):
        s += float(np.sum(np.log1p(np.exp(-x * (i % 7 + 1)))))
        s += float((a[:8] @ a[:, :8]).sum())
    return s


def main(path: str, cpu: int) -> None:
    if cpu >= 0:  # -1: the platform does not allow pinning
        os.sched_setaffinity(0, {cpu})
    x = np.linspace(0.1, 5.0, 500)
    a = np.linspace(-1.0, 1.0, 4096).reshape(64, 64)
    with open(path, "w", buffering=1) as fh:
        while True:
            c0 = time.thread_time()
            unit(x, a)
            fh.write(f"{time.time()!r},{time.thread_time() - c0!r}\n")
            time.sleep(PERIOD)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
