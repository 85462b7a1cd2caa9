"""A fixed reference workload that gauges how fast the host runs Python now.

The benchmark shares its host with other machines' work, and the host's
speed shifts by up to half for minutes at a time: one run of a workload
can take 1.5 times as long as the run before it, and set-up times move
with it.  No run of a few tens of seconds averages that out.  So every
worker interleaves small chunks of this reference with its timed work
(``Gauge``), and ``run.py`` scales the work's host times by the host's
speed over those chunks: a scaled time is the time the work would take
on a host that runs one reference event in ``NOMINAL_NS_PER_EVENT``.

The reference mixes what the simulator and the exporters do: a heap of
timed events, small objects with ``__slots__``, dict and list traffic,
integer arithmetic and JSON encoding.  It imports nothing from
``repro``, so a change to the program never changes the gauge.
"""

from __future__ import annotations

import gc
import heapq
import json
import signal
import time
from typing import Dict, List, Optional, Tuple

#: Host nanoseconds of one reference event, in chunks that interrupt
#: timed work, on the nominal host: about the median on a 2-vCPU KVM
#: guest on a Xeon with Python 3.11.
NOMINAL_NS_PER_EVENT = 5500.0
#: Reference events in one chunk (~3 ms at the nominal speed).
CHUNK_EVENTS = 600
#: Wall time from the end of one chunk to the next in simulated work:
#: chunks take ~9% of it.
CHUNK_EVERY_S = 0.03


class Gauge:
    """Reference chunks, run by the caller or by a timer.

    While the gauge is entered, a ``SIGALRM`` timer interrupts whatever
    runs every ``CHUNK_EVERY_S`` (between two bytecodes, so long Python steps
    such as an export are sampled evenly), runs a chunk and re-arms
    itself.  ``ns`` is the chunks' own time, which the caller subtracts
    from the work it times.
    """

    def __init__(self) -> None:
        self.events = 0
        self.ns = 0

    def __enter__(self) -> "Gauge":
        _state()  # built now, not inside the first chunk of timed work
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CHUNK_EVERY_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.chunk()  # work shorter than CHUNK_EVERY_S is gauged too

    def _tick(self, _signum: int, _frame: object) -> None:
        self.chunk()
        signal.setitimer(signal.ITIMER_REAL, CHUNK_EVERY_S)

    def chunk(self) -> None:
        self.ns += run(CHUNK_EVENTS)
        self.events += CHUNK_EVENTS

    def speed(self) -> float:
        """Host speed over the chunks run so far.

        1.0 on the nominal host, 0.5 on one that runs the reference at half
        its speed; a host time times the speed is a nominal host time.
        """
        return NOMINAL_NS_PER_EVENT * self.events / self.ns


#: Packets the reference touches at random: ~4 MB of objects, so that,
#: like the simulator's heap, its working set spills out of the caches
#: and the gauge feels memory contention as well as CPU contention.
POOL = 1 << 15
#: Events pending in the reference's heap.
PENDING = 4096


class _Packet:
    __slots__ = ("flow", "seq", "size", "sent_ns")

    def __init__(self, flow: int, seq: int, size: int, sent_ns: int) -> None:
        self.flow = flow
        self.seq = seq
        self.size = size
        self.sent_ns = sent_ns


class _Reference:
    """The reference's state, built once per process and kept between chunks."""

    def __init__(self) -> None:
        self.pool = [_Packet(k % 251, k, 64 + k % 4033, k) for k in range(POOL)]
        self.acked: Dict[int, int] = {}
        self.heap: List[Tuple[int, int]] = [(k * 7, k) for k in range(PENDING)]
        self.x = 12345

    def round(self, events: int) -> int:
        """``events`` heap events over random packets, then their records as JSON."""
        heap, pool, acked = self.heap, self.pool, self.acked
        records: List[Dict[str, int]] = []
        x = self.x
        for _ in range(events):
            now, k = heapq.heappop(heap)
            pkt = pool[k]
            acked[pkt.flow] = acked.get(pkt.flow, 0) + pkt.size
            records.append({"flow": pkt.flow, "seq": pkt.seq, "rnl": now - pkt.sent_ns})
            pkt.sent_ns = now
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            heapq.heappush(heap, (now + 1 + x % 997, x % POOL))
        self.x = x
        return len(json.dumps(records))


_reference: Optional[_Reference] = None


def _state() -> _Reference:
    global _reference
    if _reference is None:
        _reference = _Reference()
    return _reference


def run(events: int) -> int:
    """Nanoseconds ``events`` reference events take now.

    The collector is paused: the reference's garbage has no cycles, and a
    full collection would scan the program's heap and make the gauge
    depend on it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        state = _state()
        start = time.perf_counter_ns()
        state.round(events)
        return time.perf_counter_ns() - start
    finally:
        if was_enabled:
            gc.enable()
