"""``live_closed``: one ``LiveServer`` child, one closed-loop generator.

The generator process holds one :class:`AdmissionClient` connection and
keeps ``OUTSTANDING`` calls in flight: each caller issues its next call
as soon as the previous one returns.  Payloads are 4 KB (one MTU); 80%
of calls request the SLO class and 20% the scavenger class, drawn from
the seed.  The server models 10 us of service per MTU, so the model is
never the bottleneck and the run measures the runtime's own per-call
cost.  A closed loop is used because an open loop's p50 is set by the
event loop's 1 ms timer rounding, not by the runtime.

The server runs as ``worker.py server`` in its own interpreter: it
prints ``PORT <n>``, serves until its stdin closes, then writes its
counters and exits.  The generator joins it with a hard timeout.
"""

from __future__ import annotations

import asyncio
import random
import select
import subprocess
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import calibrate
from repro.core.qos import WEIGHTS_2_QOS, QoSConfig
from repro.core.slo import SLO, SLOMap
from repro.live.client import AdmissionClient, RetryPolicy
from repro.live.clock import WallClock
from repro.live.events import EventLog
from repro.live.server import LiveServer
from repro.stats.summary import percentile

OUTSTANDING = 16
PAYLOAD_BYTES = 4096
SLO_SHARE = 0.8
SERVICE_NS_PER_MTU = 10_000
#: Per-QoS server queue bound: above the in-flight count, so the server
#: never has to reject a call of this workload.
QUEUE_LIMIT = 4 * OUTSTANDING
SLO_NS = 50_000_000
SLO_PERCENTILE = 99.0
#: Seconds the generator waits for the server to report its port, and
#: to exit once told to stop.
SERVER_START_TIMEOUT_S = 30.0
SERVER_STOP_TIMEOUT_S = 15.0
#: Seconds between gauge chunks: a ~3 ms chunk holds up the calls in
#: flight, so chunks take only ~1% of the window.
GAUGE_EVERY_S = 0.25


def slo_map() -> SLOMap:
    return SLOMap({0: SLO(SLO_NS, SLO_PERCENTILE)}, QoSConfig(weights=WEIGHTS_2_QOS))


# ----------------------------------------------------------------------
# server child
# ----------------------------------------------------------------------
async def _serve(log_path: Path) -> Dict[str, Any]:
    with EventLog(log_path) as log:
        server = LiveServer(
            WallClock(),
            log,
            service_ns_per_mtu=SERVICE_NS_PER_MTU,
            queue_limit=QUEUE_LIMIT,
        )
        port = await server.start()
        cpu0 = time.process_time()
        print(f"PORT {port}", flush=True)
        loop = asyncio.get_running_loop()
        # Serve until the generator closes our stdin.
        await loop.run_in_executor(None, sys.stdin.read)
        await server.stop()
        cpu_s = time.process_time() - cpu0
    return {"served": server.served, "rejected": server.rejected, "cpu_s": cpu_s}


def serve(log_path: Path) -> Dict[str, Any]:
    return asyncio.run(_serve(log_path))


class ServerChild:
    """The server process, started and joined by the generator."""

    def __init__(self, argv: List[str]) -> None:
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.problems: List[str] = []

    def port(self) -> int:
        assert self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], SERVER_START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("PORT "):
            raise RuntimeError(f"server did not report a port (got {line!r})")
        return int(line.split()[1])

    def stop(self) -> None:
        """Close stdin, join with a hard timeout; a kill is a problem."""
        proc = self.proc
        try:
            if proc.stdin is not None:
                proc.stdin.close()
            code: Optional[int] = proc.wait(timeout=SERVER_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
            proc.terminate()
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        if code is None:
            self.problems.append("server child hung and was terminated")
        elif code != 0:
            self.problems.append(f"server child exited with code {code}")


# ----------------------------------------------------------------------
# generator
# ----------------------------------------------------------------------
class ClosedLoop:
    """Callers that each issue the next call when the last one returns."""

    def __init__(self, port: int, seed: int, log: EventLog) -> None:
        self.client = AdmissionClient(
            "bench",
            "127.0.0.1",
            port,
            slo_map(),
            seed=seed,
            clock=WallClock(),
            log=log,
            retry=RetryPolicy(),
        )
        self.rng = random.Random(seed)
        self.statuses: Dict[str, int] = {}
        #: ``perf_counter`` at completion and latency of every ok call.
        self.done_at = array("d")
        self.latency_ns = array("q")
        self.window_start = 0.0
        self.slo_calls = 0
        self.slo_met = 0
        self.retries = 0
        self.downgraded = 0

    async def one_call(self) -> None:
        qos = 0 if self.rng.random() < SLO_SHARE else 1
        result = await self.client.call(qos, payload_bytes=PAYLOAD_BYTES)
        self.statuses[result.status] = self.statuses.get(result.status, 0) + 1
        self.retries += result.attempts - 1
        if result.outcome.downgraded:
            self.downgraded += 1
        if result.ok and result.rnl_ns is not None:
            self.done_at.append(time.perf_counter())
            self.latency_ns.append(result.rnl_ns)
        if qos == 0:
            self.slo_calls += 1
            if (
                result.ok
                and not result.outcome.downgraded
                and result.rnl_ns is not None
                and result.rnl_ns < SLO_NS
            ):
                self.slo_met += 1

    async def run(self, seconds: float, gauge: Optional[calibrate.Gauge] = None) -> None:
        """Keep ``OUTSTANDING`` calls in flight for ``seconds``; drain.

        A ``gauge`` runs a chunk as a task of the loop every
        ``GAUGE_EVERY_S``, between two callbacks, like any other task.
        """
        self.window_start = time.perf_counter()
        deadline = self.window_start + seconds

        async def caller() -> None:
            while time.perf_counter() < deadline:
                await self.one_call()

        async def gauged() -> None:
            while gauge is not None and time.perf_counter() < deadline:
                await asyncio.sleep(GAUGE_EVERY_S)
                gauge.chunk()

        await asyncio.gather(gauged(), *(caller() for _ in range(OUTSTANDING)))
        if gauge is not None:
            gauge.chunk()  # a window shorter than GAUGE_EVERY_S is gauged too

    def bins(self, seconds: float) -> List[Tuple[float, Optional[float], Optional[float]]]:
        """``(ok calls/s, p50 us, p90 us)`` of each whole second of the window.

        The run reports medians over these bins, so a stall of the host
        that lasts a second or two moves them little.
        """
        count = max(1, int(seconds))
        width = seconds / count
        grouped: List[List[float]] = [[] for _ in range(count)]
        for done_at, rnl_ns in zip(self.done_at, self.latency_ns):
            k = int((done_at - self.window_start) // width)
            if 0 <= k < count:
                grouped[k].append(rnl_ns / 1000.0)
        return [
            (
                len(lat) / width,
                percentile(lat, 50.0) if lat else None,
                percentile(lat, 90.0) if lat else None,
            )
            for lat in grouped
        ]
