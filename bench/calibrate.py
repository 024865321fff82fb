"""Machine-speed calibration, so timings survive a shared CPU.

Shared CPUs change speed by 30% or more within seconds.  On a shared
2-core virtual machine the same ``simulate`` op took 4.7 to 8.4 s back
to back, and a fixed kernel timed between ops tracked that only loosely,
because the speed had changed again by the time the kernel ran.  So the
speed is sampled while the op runs: an interval timer interrupts the op
every ``INTERVAL_S`` seconds and times a short pure-Python probe.  The
op's time in reference seconds is its wall time x (NOMINAL_S / H) **
ELASTICITY, where H is the harmonic mean of the probe times during the
op.  The harmonic mean is the right average here: the work done in a
stretch of time is proportional to the speed, 1 / probe time, so a
stretch in which the process was not running adds no work.  ELASTICITY
is there because the ops react more strongly than the probe to whatever
slows the machine: regressing log op time on log H over 18-179
back-to-back ops per workload gave slopes of 1.2-1.8 on every workload
(correlation 0.93-0.99).  In those recordings the
op-to-op spread (interquartile range over median) was 0.14-0.41 in wall
seconds, 0.05-0.16 with the slope taken as 1 (a run that fell in a fast
or slow phase of the machine still read fast or slow) and 0.02-0.09 with
1.5.  On a quiet machine H hardly moves, and ELASTICITY changes nothing
but the constant scale.

ELASTICITY is a property of the program as well as of the machine: a
change that moves work from Python loops into compiled code can change
how strongly an op reacts to a slow phase.  If a program's true slope is
e, its reference seconds carry a factor (NOMINAL_S / H) ** (ELASTICITY - e)
that comes from the machine.  :func:`fitted_elasticity` measures the slope
on each run's own ops, so that drift shows next to the figures it biases.

The probe is pure Python, so it runs before numpy is imported (set-up
probes start it ahead of ``import endofix.cli``) and no change to endofix
or to the numeric libraries moves it.  It costs about 1% of each op.
Do not change the probe, INTERVAL_S, NOMINAL_S or ELASTICITY: any of them
would rescale every reported time.
"""
from __future__ import annotations

import math
import signal
import statistics
import time

INTERVAL_S = 0.02
# Median probe time on the machine the benchmark was written on, so that
# reference seconds there read about as wall-clock seconds.
NOMINAL_S = 2.2e-4
# Slope of log op time on log probe time (see above).
ELASTICITY = 1.5


def _probe() -> float:
    start = time.perf_counter()
    s = 0
    for i in range(3000):
        s += i * i
    return time.perf_counter() - start


class SpeedSampler:
    """``with sampler:`` times the probe every INTERVAL_S seconds of the
    block; :meth:`reference_seconds` then converts the block's wall time.
    Uses SIGALRM, so only one sampler may run at a time, in the main
    thread."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.samples.append(_probe())

    def __enter__(self) -> "SpeedSampler":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:        # a block shorter than one interval
            self.samples.append(_probe())

    @property
    def probe_s(self) -> float:
        """H: the harmonic mean of the probe times."""
        return statistics.harmonic_mean(self.samples)

    def reference_seconds(self, wall_seconds: float) -> float:
        return wall_seconds * (NOMINAL_S / self.probe_s) ** ELASTICITY


def fitted_elasticity(*groups) -> float | None:
    """Least-squares slope of log wall seconds on log H over ops given as
    (wall seconds, H) pairs.  Each group is centred on its own means, so
    groups of ops that do different work can be pooled.  None when fewer
    than 3 ops in groups of 2 or more, or when H did not move."""
    xs, ys = [], []
    for group in groups:
        if len(group) < 2:
            continue
        lx = [math.log(h) for _, h in group]
        ly = [math.log(w) for w, _ in group]
        mx, my = statistics.fmean(lx), statistics.fmean(ly)
        xs += [x - mx for x in lx]
        ys += [y - my for y in ly]
    sxx = sum(x * x for x in xs)
    if len(xs) < 3 or sxx == 0.0:
        return None
    return sum(x * y for x, y in zip(xs, ys)) / sxx
