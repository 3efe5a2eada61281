"""Timed rounds of chunks, normalized against a fixed reference loop.

On a shared 2-vCPU VM the hypervisor takes CPU away in spells of
seconds to minutes, and a run's median chunk time moves by 20-40% from
one run to the next while the code stays the same. So each chunk is
followed by a run of a fixed reference loop (plain numpy, nothing from
the package), and a figure is the median over chunks of chunk time /
median nearby reference time, scaled to a host on which the reference
takes ``REF_MS``. On that VM the ratio moves by a few percent between
runs. Raw wall times are kept beside it.
"""

from __future__ import annotations

import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

REF_MS = 10.0  # reference-loop time of the nominal host figures are scaled to


class Reference:
    """A fixed loop of small numpy ops, like one refinement step each."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((15, 64))
        self.w = rng.standard_normal((64, 64)) / 8.0
        self.p = rng.standard_normal((5, 64))

    def __call__(self) -> float:
        """Seconds one pass of the loop took."""
        t0 = perf_counter()
        for _ in range(250):
            h = np.maximum(self.x @ self.w, 0.0)
            d = ((h[:, None, :] - self.p[None, :, :]) ** 2).sum(axis=2)
            e = np.exp(-(d - d.min(axis=1, keepdims=True)))
            c = e / e.sum(axis=1, keepdims=True)
            (c.T @ h) / (1.0 + c.sum(axis=0)[:, None])
        return perf_counter() - t0


class Timer:
    """Times calls with a reference run after each one.

    A call's ratio is its time over the median of the reference runs
    around it (``WINDOW`` on each side): slow enough to follow the host's
    spells, and robust to a steal spike landing in one reference run.
    """

    WINDOW = 3

    def __init__(self):
        self.reference = Reference()
        self.refs = [self.reference()]

    def time(self, fn):
        """(result or None if it raised, seconds, position among the reference runs)."""
        t0 = perf_counter()
        try:
            result = fn()
        except Exception:  # a failed call is counted by the caller, the run goes on
            traceback.print_exc(file=sys.stderr)
            result = None
        dt = perf_counter() - t0
        self.refs.append(self.reference())
        return result, dt, len(self.refs) - 1

    def ratios(self, seconds, positions):
        """Each time over the median reference around its position."""
        return [
            s / statistics.median(self.refs[max(0, i - self.WINDOW): i + self.WINDOW])
            for s, i in zip(seconds, positions)
        ]


@dataclass
class Measurement:
    seconds: dict  # pass -> seconds per unit, one sample per chunk
    positions: dict  # pass -> each chunk's position among the reference runs
    outputs: dict  # pass -> output per chunk (None when the chunk raised)
    summaries: dict
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    wall: float = 0.0
    rounds: int = 0


def measure(passes, timer: Timer, *, seconds=None, rounds=None, before=None) -> Measurement:
    """Run rounds until ``rounds`` are done, or at least one and ``seconds`` passed."""
    def per_pass():
        return {p.name: [] for p in passes}

    m = Measurement(per_pass(), per_pass(), per_pass(), per_pass())
    start = perf_counter()
    while (m.rounds < rounds) if rounds is not None else (
        m.rounds == 0 or perf_counter() - start < seconds
    ):
        for p in passes:
            if before:
                before(p)
            for _ in range(p.per_round):
                index = len(m.outputs[p.name])
                chunk, dt, pos = timer.time(lambda: p.run(index, 1))
                m.attempted += p.units
                if chunk is None:
                    m.failed += p.units
                    m.problems.append(f"{p.name} chunk {index} raised")
                    m.outputs[p.name].append(None)
                    m.summaries[p.name].append(None)
                    continue
                m.seconds[p.name].append(dt / chunk.units)
                m.positions[p.name].append(pos)
                m.failed += chunk.failed
                m.problems.extend(f"{p.name} chunk {index}: {x}" for x in chunk.problems)
                m.outputs[p.name].append(chunk.output)
                m.summaries[p.name].append(chunk.summary)
        m.rounds += 1
    m.wall = perf_counter() - start
    return m


def normalized_s(ratios) -> float:
    """Median ratio as seconds on the nominal host."""
    return statistics.median(ratios) * REF_MS / 1e3


def tail(values):
    """(percentile, value): the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n < 11:
        return None, None
    return 100 * (n - 10) // n, sorted(values)[n - 11]
