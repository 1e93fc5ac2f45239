"""Host speed: a fixed reference kernel timed through every run.

On a shared virtual machine the same code runs at different speeds from
minute to minute: on the 2-vCPU x86 VM this benchmark was tuned on, one
deterministic training epoch took anywhere from 0.6 s to 1.6 s, with no
CPU steal, so the host itself ran slower (shared cores, turbo limits).
Every run therefore also times a reference kernel -- a Python loop, a
chain of small numpy operations and a small HiGHS LP through
``scipy.optimize.linprog``, none of it program code -- at the boundaries
of its timed phases, and reports its times scaled to the kernel's
nominal speed::

    reported time = measured time / factor
    factor        = measured kernel time / nominal kernel time

A change to the program does not change the kernel, so it moves the
scaled numbers exactly as it moves the raw ones; the raw numbers and the
factor are kept in each run's notes.

    python3 perfbench/hostspeed.py     # time the kernel here
"""

from __future__ import annotations

import math
import statistics
import time

# Seconds each kernel took on the 2-vCPU x86 VM (Xeon, Python 3.11,
# numpy 2, scipy 1.16) in a quiet stretch: the speed every run is scaled
# to.
NOMINAL_S = {"python": 0.00055, "numpy": 0.0022, "lp": 0.0038}


class _Kernels:
    """The fixed inputs, built once per process."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.random((32, 32))
        self.b = rng.random((32, 32))
        self.c = -rng.random(60)
        self.a_ub = rng.random((40, 60))
        self.b_ub = rng.random(40) * 10.0 + 1.0

    def python(self):
        counts, items = {}, []
        for i in range(3000):
            counts[i % 97] = counts.get(i % 97, 0) + i
            items.append(i * 2)
        return sum(items)

    def numpy(self):
        np, x = self.np, self.a
        for _ in range(150):
            x = np.tanh(x @ self.b * 0.01) + x.sum(axis=0) * 1e-6
        return x

    def lp(self):
        from scipy.optimize import linprog

        return linprog(self.c, A_ub=self.a_ub, b_ub=self.b_ub, bounds=(0, 5),
                       method="highs")


class HostSpeed:
    """Samples of the kernel's time, and the factor they give."""

    def __init__(self):
        self._kernels = _Kernels()
        self.samples: dict = {name: [] for name in NOMINAL_S}
        self._kernels.lp()  # the first LP call pays scipy's imports

    def sample(self, repeats: int = 5) -> None:
        """Time every kernel ``repeats`` times, interleaved."""
        for _ in range(repeats):
            for name in NOMINAL_S:
                kernel = getattr(self._kernels, name)
                started = time.perf_counter()
                kernel()
                self.samples[name].append(time.perf_counter() - started)

    def mark(self) -> int:
        """A position in the samples, for ``factor``."""
        return len(self.samples["python"])

    def factor(self, since: int = 0, until: int | None = None) -> float:
        """The host factor of the samples between two marks."""
        return factor({name: times[since:until] for name, times in self.samples.items()})

    def medians(self) -> dict:
        return {name: statistics.median(times) for name, times in self.samples.items()}


class Boundaries:
    """Kernel samples timed at the boundaries of consecutive measured
    segments: before the first, between each two and after the last."""

    def __init__(self, speed: HostSpeed):
        self._speed = speed
        self._marks: list = []

    def mark(self) -> None:
        """Time the kernel at a boundary (no program work in flight)."""
        self._speed.sample()
        self._marks.append(self._speed.mark())

    def factors(self) -> list:
        """One host factor per segment, from the samples at its two ends."""
        return [
            self._speed.factor(max(0, 2 * since - until), until)
            for since, until in zip(self._marks, self._marks[1:])
        ]


def factor(samples: dict) -> float:
    """Geometric mean over the kernels of median measured time over
    nominal time: above 1 when the host ran slower than nominal.
    ``samples`` maps each kernel name to its measured times."""
    logs = [
        math.log(statistics.median(samples[name]) / nominal)
        for name, nominal in NOMINAL_S.items()
    ]
    return math.exp(sum(logs) / len(logs))


if __name__ == "__main__":
    speed = HostSpeed()
    for _ in range(10):
        speed.sample()
    print({name: round(value, 6) for name, value in speed.medians().items()})
    print(f"factor {speed.factor():.3f}")
