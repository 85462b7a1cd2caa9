"""The benchmark's workloads, built from the public API of ``repro``.

Each function here runs inside a fresh worker interpreter (see
``worker.py``); none of them is imported by the parent process, which
only sees the JSON they return.  Why each workload exists, and which
layer it stresses, is written down in ``LAYERS.md``.

* ``incast_32k`` — fig11's fast SLO-tracking point: 3 hosts, 2 senders
  at line rate into one receiver, 32 KB RPCs, 70/30 QoS_h/QoS_l, SLO
  15 us, Aequitas on.  Per-packet work behind one deep queue.
* ``fabric_4k`` — a 6-host all-to-all cluster with 1-MTU RPCs and the
  default 60/30/10 mix and burst pattern.  Every packet is its own RPC,
  so the RPC stack and admission core do a share of the work.
* ``trace_export`` — the ``repro trace fig08`` regime with the full
  observability context, then every export and analysis step.
* ``live_closed`` — defined in ``live.py``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import random
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import calibrate
from repro.analysis import attribution
from repro.core.qos import Priority
from repro.experiments import fig11
from repro.experiments.cluster import (
    ClusterConfig,
    ClusterResult,
    attach_traffic,
    build_cluster,
)
from repro.obs import export, scenarios, series
from repro.obs.runtime import ObsContext, activate, deactivate
from repro.rpc.sizes import FixedSize
from repro.rpc.stack import RpcStack
from repro.rpc.workload import OpenLoopSource, steady_pattern
from repro.sim.engine import Simulator, ns_from_ms, ns_from_us
from repro.stats.digest import completed_rpc_digest, digest_hex

#: Simulated horizon of each workload, in ms: ~3 s of host time for
#: ``fabric_4k``, so that a run of 30 s holds about seven repetitions;
#: fig11's 40 ms (~5 s) for ``incast_32k``, which its SLO-tracking check
#: needs; ~6 s, export included, for ``trace_export``, whose shorter
#: horizons vary more in work from seed to seed (±5% at 0.5 ms).
HORIZON_MS = {"incast_32k": 40.0, "fabric_4k": 2.5, "trace_export": 1.0}


def _incast_traffic(sim: Simulator, stacks: List[RpcStack], cfg: ClusterConfig) -> None:
    """fig11's three-node traffic: hosts 0 and 1 fire at host 2 at line rate."""
    pattern = steady_pattern(1.0, period_ns=cfg.pattern.period_ns)
    for stack in stacks[:2]:
        OpenLoopSource(
            sim,
            stack,
            [2],
            {Priority.PC: 0.7, Priority.BE: 0.3},
            cfg.size_dist,
            pattern,
            line_rate_bps=cfg.line_rate_bps,
            rng=random.Random(cfg.seed * 31 + stack.host.host_id),
            stop_ns=ns_from_ms(cfg.duration_ms),
        )


def sim_config(name: str, seed: int, duration_ms: Optional[float] = None) -> ClusterConfig:
    """The cluster of one simulated workload (``duration_ms`` shortens it)."""
    horizon = duration_ms if duration_ms is not None else HORIZON_MS[name]
    if name == "incast_32k":
        # fig11 fast profile, SLO 15 us: warm-up is a third of the run.
        return ClusterConfig(
            scheme="aequitas",
            num_hosts=3,
            slo_high_us=15.0,
            slo_med_us=25.0,
            target_percentile=99.0,
            alpha=0.05,
            size_dist=FixedSize(32 * 1024),
            duration_ms=horizon,
            warmup_ms=round(horizon / 3.0, 3),
            seed=seed,
            traffic_fn=_incast_traffic,
        )
    if name == "fabric_4k":
        return ClusterConfig(
            scheme="aequitas",
            num_hosts=6,
            size_dist=FixedSize(4 * 1024),
            duration_ms=horizon,
            warmup_ms=horizon / 5.0,
            seed=seed,
        )
    if name == "trace_export":
        return dataclasses.replace(
            scenarios.trace_config("fig08", seed=seed),
            duration_ms=horizon,
            warmup_ms=horizon / 3.0,
        )
    raise ValueError(f"unknown simulated workload {name!r}")


class SimRun:
    """One simulated workload: built, then run, then checked."""

    def __init__(self, name: str, seed: int, duration_ms: Optional[float] = None) -> None:
        self.name = name
        self.cfg = sim_config(name, seed, duration_ms)
        self.context: Optional[ObsContext] = None
        if name == "trace_export":
            self.context = ObsContext.full()
            activate(self.context)
        try:
            self.result: ClusterResult = build_cluster(self.cfg)
            attach_traffic(self.result)
            if self.context is not None:
                assert self.context.registry is not None
                self.context.registry.install_sampler(
                    self.result.sim,
                    cadence_ns=ns_from_us(scenarios.SNAPSHOT_CADENCE_US),
                    until_ns=ns_from_ms(self.cfg.duration_ms),
                    include_buckets=True,
                )
        finally:
            if self.context is not None:
                deactivate()
        self.outputs: Dict[str, Any] = {}
        self.slice_ns: List[int] = []
        self.slice_completed: List[int] = []

    def run(self, out_dir: Path, gauge: Optional[calibrate.Gauge] = None) -> None:
        """The timed work: the simulation, plus export and analysis when traced.

        The simulation advances one burst period of the traffic pattern
        at a time, so every slice holds a whole on/off cycle.  Each
        slice's host time and the RPCs it completed are recorded, and so
        is the host time of each export and analysis step (with 0 RPCs):
        the same seed makes the same slices, so repetitions can be
        compared slice by slice.  With a ``gauge``, its reference chunks
        interrupt the work and their time is taken out of the steps'.
        """
        sim, metrics = self.result.sim, self.result.metrics
        horizon_ns = ns_from_ms(self.cfg.duration_ms)
        period_ns = self.cfg.pattern.period_ns
        ends = list(range(period_ns, horizon_ns, period_ns)) + [horizon_ns]
        with gauge or contextlib.nullcontext():
            for until in ends:
                done = metrics.completed_count
                self._timed(functools.partial(sim.run, until=until), gauge)
                self.slice_completed.append(metrics.completed_count - done)
            if self.context is None:
                return
            tracer, registry = self.context.tracer, self.context.registry
            assert tracer is not None and registry is not None
            steps = (
                lambda: export.write_jsonl(out_dir / "spans.jsonl", tracer),
                lambda: export.write_chrome_trace(out_dir / "trace.json", tracer, registry),
                lambda: series.build_series(tracer, registry, self.result.slo_map),
                lambda: attribution.attribute_tracer(tracer),
            )
            outputs = []
            for step in steps:
                outputs.append(self._timed(step, gauge))
                self.slice_completed.append(0)
        jsonl, chrome, _series, rpcs = outputs
        self.outputs = {
            "export_bytes": jsonl.stat().st_size + chrome.stat().st_size,
            "attribution": rpcs,
        }

    def _timed(self, step: Callable[[], Any], gauge: Optional[calibrate.Gauge]) -> Any:
        """Run ``step``; record its host time without the gauge's chunks."""
        gauged_ns = gauge.ns if gauge is not None else 0
        start = time.perf_counter_ns()
        out = step()
        took = time.perf_counter_ns() - start
        if gauge is not None:
            took -= gauge.ns - gauged_ns
        self.slice_ns.append(took)
        return out

    # ------------------------------------------------------------------
    # results and checks
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """What the user of the simulation sees, plus the run's digest."""
        result, metrics = self.result, self.result.metrics
        acked = sum(
            sum(stack.endpoint.acked_payload_by_qos.values()) for stack in result.stacks
        )
        return {
            "issued": metrics.issued_count,
            "completed": metrics.completed_count,
            "terminated": metrics.terminated,
            "completed_share": metrics.completed_count / metrics.issued_count,
            "slo_met_share": result.slo_met_fraction(0),
            "qos_h_tail_us": result.rnl_tail_us(0),
            "qos_h_admitted_share": result.admitted_mix().get(0, 0.0),
            "acked_payload_bytes": acked,
            "digest_hex": digest_hex(completed_rpc_digest(metrics)),
        }

    def check(self, summary: Dict[str, Any]) -> List[str]:
        """Output checks; each failure is one message."""
        metrics = self.result.metrics
        failures: List[str] = []
        outstanding = sum(
            1 for rpc in metrics.issued if rpc.completed_ns is None and not rpc.terminated
        )
        if len(metrics.issued) != metrics.issued_count:
            failures.append("issued RPC records disagree with the issue counter")
        if len(metrics.completed) != metrics.completed_count:
            failures.append("completed RPC records disagree with the completion counter")
        if metrics.issued_count != metrics.completed_count + metrics.terminated + outstanding:
            failures.append(
                f"RPC conservation: issued {metrics.issued_count} != completed "
                f"{metrics.completed_count} + terminated {metrics.terminated} "
                f"+ outstanding {outstanding}"
            )
        if not metrics.completed_payload_bytes <= summary["acked_payload_bytes"] <= (
            metrics.issued_payload_bytes
        ):
            failures.append(
                "transport acked payload is outside [completed, issued] RPC payload"
            )
        for rpc in metrics.completed:
            if rpc.rnl_ns is None or rpc.rnl_ns <= 0 or rpc.completed_ns != rpc.issued_ns + rpc.rnl_ns:
                failures.append(f"RPC {rpc.rpc_id} has an inconsistent RNL")
                break
        if self.name == "incast_32k":
            failures += fig11.check(
                [
                    {
                        "slo_us": self.cfg.slo_high_us,
                        "achieved_tail_us": summary["qos_h_tail_us"],
                        "qos_h_admitted_share": summary["qos_h_admitted_share"],
                    }
                ],
                "fast",
            )
        if self.context is not None:
            failures += self._check_trace()
        return failures

    def layer_counts(self) -> Dict[str, float]:
        """Per-layer work counts and ratios read off the finished run."""
        result, metrics = self.result, self.result.metrics
        net = result.net
        ports = list(net.host_ports.values()) + list(net.switch_ports.values())
        flows = [flow for stack in result.stacks for flow in stack.endpoint.flows.values()]
        nic_bytes = sum(port.bytes_sent for port in net.host_ports.values())
        slo_rpcs = [
            rpc
            for rpc in metrics.issued
            if rpc.qos_requested is not None and result.slo_map.has_slo(rpc.qos_requested)
        ]
        counts: Dict[str, float] = {
            "sim.events": result.sim.events_processed,
            "queues.drops": sum(port.scheduler.stats.total_dropped for port in ports),
            "link.bytes_sent": sum(port.bytes_sent for port in ports),
            "transport.retransmits": sum(flow.retransmitted_packets for flow in flows),
            "transport.useful_share": (
                sum(flow.acked_payload_bytes for flow in flows) / nic_bytes
            ),
            "rpc.issued": metrics.issued_count,
            "rpc.completed": metrics.completed_count,
            "core.admit_share": (
                sum(1 for rpc in slo_rpcs if not rpc.downgraded) / len(slo_rpcs)
            ),
        }
        tracer = self.context.tracer if self.context is not None else None
        if tracer is not None:
            counts["obs.spans"] = sum(
                len(records)
                for records in (
                    tracer.rpc_spans,
                    tracer.queue_spans,
                    tracer.tx_spans,
                    tracer.drops,
                    tracer.admission_events,
                    tracer.flow_cwnd_samples,
                    tracer.flow_retransmits,
                )
            )
            counts["obs.spans_dropped"] = tracer.spans_dropped
            counts["obs.export_mb"] = self.outputs["export_bytes"] / 1e6
        return counts

    def _check_trace(self) -> List[str]:
        tracer = self.context.tracer if self.context is not None else None
        assert tracer is not None
        failures: List[str] = []
        orphan_queues, orphan_txs = tracer.orphan_spans()
        if orphan_queues or orphan_txs:
            failures.append(
                f"{len(orphan_queues)} queue and {len(orphan_txs)} tx spans join no RPC"
            )
        rpcs = self.outputs.get("attribution", [])
        if len(rpcs) != self.result.metrics.completed_count:
            failures.append("attribution skipped completed RPCs")
        for rpc in rpcs:
            span = tracer.rpc_span(rpc.rpc_id)
            if span is None or sum(rpc.segments.values()) != span.rnl_ns:
                failures.append(f"attribution of RPC {rpc.rpc_id} does not sum to its RNL")
                break
        return failures
