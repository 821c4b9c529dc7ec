"""A fixed reference load for scaling CPU times to a reference host speed.

The benchmark's host has a few cores of a shared machine whose speed drifts
by tens of percent within seconds and over minutes: the same Python work
takes longer, for the reference load as much as for the simulator. A
``Meter`` runs short slices of the reference load interleaved with a
measured span (between its set-ups, or after a simulated slot whenever
``GAP_S`` of CPU time has passed since the last slice), so the slices sample
the host's speed across the span. The span's CPU time without the slices,
divided by the mean slice time and multiplied by ``REFERENCE_S``, is its CPU
time at the reference speed.

The load mixes what the simulator does most: method calls on small
objects, attribute and dict access, float arithmetic with ``math``, a heap
of pending events and short lists. It uses no harvestsim code, so a change
to the program never moves it.
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import math
import time

# Nominal CPU seconds of one ``load()``: about its median on a 2-vCPU VM with
# Python 3.11.7. A host on which ``load()`` takes exactly this long reports
# its own CPU seconds.
REFERENCE_S = 0.0075
# CPU seconds of measured work between two slices inside a span.
GAP_S = 0.05


class _Node:
    __slots__ = ("ident", "stored", "links", "seen")

    def __init__(self, ident: int):
        self.ident = ident
        self.stored = 1000.0 + ident
        self.links: dict[int, float] = {}
        self.seen: list[int] = []

    def withdraw(self, amount: float) -> bool:
        if amount > self.stored:
            return False
        self.stored -= amount
        return True


def _rssi(d: float) -> float:
    return -40.0 - 10.0 * 2.7 * math.log10(max(d, 1.0))


def load(rounds: int = 10) -> float:
    """Run the reference work; returns a checksum so none of it is dead."""
    nodes = [_Node(i) for i in range(48)]
    for a in nodes:
        for b in nodes:
            if a is not b:
                a.links[b.ident] = _rssi(abs(a.ident - b.ident) * 30.0)
    acc = 0.0
    heap: list[tuple[float, int, int]] = []
    for r in range(rounds):
        for a in nodes:
            for b, rssi in a.links.items():
                if rssi > -100.0:
                    heapq.heappush(heap, (r + rssi * 1e-3, a.ident, b))
        while heap:
            t, src, dst = heapq.heappop(heap)
            node = nodes[dst]
            if node.withdraw(0.01 * (src % 7 + 1)):
                node.seen.append(src)
                acc += math.exp(-t * 1e-2)
            if len(node.seen) > 16:
                node.seen = sorted(node.seen)[-8:]
    return acc + sum(n.stored for n in nodes)


class Meter:
    """Slices of the reference load, timed between or inside measured spans."""

    def __init__(self):
        self.cal_s = 0.0
        self.slices = 0
        self._last = 0.0

    def slice(self) -> float:
        """Run one ``load()``; returns its CPU seconds."""
        t0 = time.process_time()
        load()
        self._last = time.process_time()
        self.cal_s += self._last - t0
        self.slices += 1
        return self._last - t0

    def scaled(self, span_s: float) -> float:
        """``span_s`` at the reference speed, by the mean of the slices so far."""
        return span_s * REFERENCE_S * self.slices / self.cal_s

    @contextlib.contextmanager
    def interleaved(self, cls: type, name: str):
        """Run a slice after a call of ``cls.name`` once ``GAP_S`` has passed since the last."""
        original = cls.__dict__[name]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            if time.process_time() - self._last >= GAP_S:
                self.slice()
            return result

        setattr(cls, name, wrapper)
        try:
            yield self
        finally:
            setattr(cls, name, original)
