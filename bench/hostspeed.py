"""How fast the host ran the measured process, sampled from outside it.

The CPUs of a shared host slow down and speed up, each on its own, over
seconds to minutes and by up to about twice, with other tenants' load on
the same physical cores; the wall time of a round follows them. CPU time
does not help, since a slowed CPU burns more of it for the same work.
``HostSpeed`` therefore runs a fixed probe (interpreted Python and small
numpy calls, the mix the library spends its time in) every 50 ms on every
CPU the benchmark may use, one pinned thread per CPU, and records the
probe's own thread CPU time, which preemption does not inflate. A watcher
thread records, every 10 ms, the CPU of each running thread of the
measured process. ``scale(start, end)`` is the reference probe time over
the probe time on the CPU the process was running on, averaged over the
watcher's samples in that interval. A wall time multiplied by it is the
time the interval would have taken with every CPU at reference speed.
"""

from __future__ import annotations

import bisect
import math
import os
import statistics
import threading
import time

import numpy as np

PROBE_EVERY_S = 0.05
WATCH_EVERY_S = 0.01
# Probes this near a watcher sample give the speed of its CPU at that time.
NEAR_S = 0.25
# Probe CPU time on the reference host (2 vCPUs of a shared x86-64 host,
# CPython 3.11, numpy 2.4.6) when it was quiet: the tenth percentile over a
# minute. It only sets the scale of the figures; any fixed value compares
# two commits alike.
REFERENCE_PROBE_S = 0.0006

_VEC = np.linspace(0.0, 1.0, 10)


def probe() -> float:
    """A fixed piece of work: a dict-and-log loop like ``retrieve`` and
    per-row numpy updates like ``learn_projection``."""
    scores: dict[int, float] = {}
    for i in range(1500):
        scores[i % 101] = scores.get(i % 101, 0.0) + math.log1p(i / 7.0)
    w = np.zeros((10, 10))
    for _ in range(40):
        w -= 0.01 * np.outer(_VEC, _VEC @ w - _VEC)
    return sum(scores.values()) + float(w.sum())


class HostSpeed:
    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        # cpu -> (monotonic time, probe CPU seconds), in time order
        self.probes: dict[int, list[tuple[float, float]]] = {cpu: [] for cpu in self.cpus}
        # (monotonic time, cpu) of each running thread of the measured process
        self.running: list[tuple[float, int]] = []
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._probe, args=(cpu,), daemon=True)
                         for cpu in self.cpus]
        self._watcher = None

    def start(self) -> None:
        for thread in self._threads:
            thread.start()

    def watch(self, pid: int) -> None:
        self._watcher = threading.Thread(target=self._watch, args=(pid,), daemon=True)
        self._watcher.start()

    def stop(self) -> None:
        self._stop.set()
        for thread in self._threads + ([self._watcher] if self._watcher else []):
            thread.join()

    def _probe(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # this thread only
        samples = self.probes[cpu]
        while not self._stop.is_set():
            start = time.monotonic()
            cpu_start = time.thread_time()
            probe()
            cpu_s = time.thread_time() - cpu_start
            samples.append(((start + time.monotonic()) / 2, cpu_s))
            self._stop.wait(PROBE_EVERY_S)

    def _watch(self, pid: int) -> None:
        task_dir = f"/proc/{pid}/task"
        while not self._stop.is_set():
            now = time.monotonic()
            try:
                tids = os.listdir(task_dir)
            except FileNotFoundError:
                return
            for tid in tids:
                try:
                    with open(f"{task_dir}/{tid}/stat", encoding="ascii") as fh:
                        # Fields after the command name: state is the first,
                        # the CPU last run on the 37th.
                        fields = fh.read().rsplit(")", 1)[1].split()
                except (FileNotFoundError, ProcessLookupError):
                    continue
                if fields[0] == "R":
                    self.running.append((now, int(fields[36])))
            self._stop.wait(WATCH_EVERY_S)

    def _probe_s(self, cpu: int, t: float) -> float | None:
        samples = self.probes[cpu]
        lo = bisect.bisect_left(samples, (t - NEAR_S,))
        hi = bisect.bisect_right(samples, (t + NEAR_S, math.inf))
        return statistics.median(s for _, s in samples[lo:hi]) if hi > lo else None

    def scale(self, start: float, end: float) -> float:
        """Reference speed over the speed the process ran at in [start, end]."""
        probe_s = [self._probe_s(cpu, t) for t, cpu in self.running
                   if start <= t <= end and cpu in self.probes]
        probe_s = [s for s in probe_s if s is not None]
        if not probe_s:
            # Too short for a watcher sample: every CPU counts alike.
            mid = (start + end) / 2
            probe_s = [s for s in (self._probe_s(cpu, mid) for cpu in self.cpus) if s is not None]
        if not probe_s:
            raise RuntimeError("no host speed probe near the measured interval")
        return statistics.fmean(REFERENCE_PROBE_S / s for s in probe_s)
