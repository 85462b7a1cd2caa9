"""Which entry points the traced run wraps, and the layer each belongs to.

An entry point is a method another layer calls, or a callback a layer
hands the simulator.  Wrapping happens on the classes (and on module
functions where they are looked up), before the scenario is built, so
the bound methods that components cache at construction are the
wrapped ones.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from spans import SpanRecorder


def _rpc_id_of(obj: Any) -> int:
    return getattr(obj, "rpc_id", 0) or 0


def instrument_sim(rec: SpanRecorder) -> None:
    """Spans for every layer of a simulated run (and its obs stack)."""
    from repro.analysis import attribution
    from repro.core.admission import AdmissionController
    from repro.core.interface import AdmissionEngine
    from repro.net import queues
    from repro.net.link import Port
    from repro.net.node import Host, Switch
    from repro.obs import export, series
    from repro.obs.trace import Tracer
    from repro.rpc.stack import MetricsCollector, RpcStack
    from repro.rpc.workload import OpenLoopSource
    from repro.sim.engine import Simulator
    from repro.transport.reliable import Flow, TransportEndpoint

    # Packets name their message; the message's context is its RPC.
    msg_rpc: Dict[int, int] = {}

    def of_msg(args: Tuple[Any, ...]) -> int:
        msg = args[1]
        rpc_id = _rpc_id_of(msg.context)
        msg_rpc[msg.msg_id] = rpc_id
        return rpc_id

    def of_pkt(args: Tuple[Any, ...]) -> int:
        return msg_rpc.get(args[1].msg_id, 0)

    def of_msg_id(args: Tuple[Any, ...]) -> int:
        return msg_rpc.get(args[1], 0)

    def of_rpc(args: Tuple[Any, ...]) -> int:
        return _rpc_id_of(args[1])

    def of_dequeued(pkt: Any) -> int:
        return msg_rpc.get(pkt.msg_id, 0) if pkt is not None else 0

    rec.patch(Simulator, "run", "sim")
    rec.count(Simulator, "post", "sim.scheduled")
    rec.count(Simulator, "schedule", "sim.scheduled")

    for cls in (
        queues.FifoScheduler,
        queues.WfqScheduler,
        queues.StrictPriorityScheduler,
        queues.DwrrScheduler,
        queues.PFabricScheduler,
    ):
        rec.patch(cls, "enqueue", "queues", rpc_of=of_pkt)
        rec.patch(cls, "dequeue", "queues", rpc_of_result=of_dequeued)

    rec.patch(Port, "send", "link", rpc_of=of_pkt)
    rec.patch(Port, "_finish_transmit", "link", rpc_of=of_pkt)

    rec.patch(Switch, "receive", "node", rpc_of=of_pkt)
    rec.patch(Host, "receive", "node", rpc_of=of_pkt)

    rec.patch(TransportEndpoint, "send_message", "transport", rpc_of=of_msg)
    rec.patch(TransportEndpoint, "receive", "transport", rpc_of=of_pkt)
    rec.patch(TransportEndpoint, "handle_control", "transport", rpc_of=of_pkt)
    rec.patch(Flow, "on_ack", "transport", rpc_of=of_msg_id)
    rec.patch(Flow, "_kick", "transport")
    rec.patch(Flow, "_on_timer", "transport")

    rec.patch(RpcStack, "issue", "rpc", rpc_of_result=_rpc_id_of)
    rec.patch(RpcStack, "_on_msg_complete", "rpc", rpc_of=lambda a: _rpc_id_of(a[1].context))
    for name in ("record_issue", "record_completion", "record_termination"):
        rec.patch(MetricsCollector, name, "rpc", rpc_of=of_rpc)
    rec.patch(OpenLoopSource, "_issue_one", "rpc")
    rec.patch(OpenLoopSource, "_on_period_start", "rpc")

    rec.patch(AdmissionController, "on_rpc_issue_qos", "core")
    rec.patch(AdmissionController, "on_rpc_completion", "core")
    rec.patch(AdmissionEngine, "decide", "core")
    rec.patch(AdmissionEngine, "complete", "core")

    for name in (
        "on_rpc_issued",
        "on_rpc_completed",
        "on_rpc_terminated",
    ):
        rec.patch(Tracer, name, "obs.tracer", rpc_of=of_rpc)
    for name in ("on_enqueue", "on_dequeue", "on_transmit", "on_drop"):
        rec.patch(Tracer, name, "obs.tracer", rpc_of=lambda a: msg_rpc.get(a[2].msg_id, 0))
    for name in (
        "on_rpc_message",
        "begin_rpc_completion",
        "end_rpc_completion",
        "on_admission",
        "on_flow_ack",
        "on_flow_retransmit",
    ):
        rec.patch(Tracer, name, "obs.tracer")
    rec.patch(export, "write_jsonl", "obs.export")
    rec.patch(export, "write_chrome_trace", "obs.export")
    rec.patch(series, "build_series", "obs.series")
    rec.patch(attribution, "attribute_tracer", "analysis.attribution")


def instrument_live(rec: SpanRecorder, role: str) -> None:
    """Spans for one live process: wire, event log and admission core."""
    from repro.core.admission import AdmissionController
    from repro.core.interface import AdmissionEngine
    from repro.live import client, server, wire
    from repro.live.events import EventLog

    module = client if role == "client" else server

    def of_message(args: Tuple[Any, ...]) -> int:
        return int(args[1].request_id)

    def of_frame(result: Any) -> int:
        return int(result[1].get("request_id", 0))

    rec.patch(module, "write_message", "live.wire", rpc_of=of_message, is_async=True)
    rec.patch(module, "read_frame", "live.wire", rpc_of_result=of_frame, is_async=True)

    # Wire bytes: every frame header passes through encode_frame, and
    # the zero body that follows it is ``body_len`` long.
    counters = rec.counters
    counters["live.wire_bytes"] = 0

    def counting(encode: Callable[..., bytes]) -> Callable[..., bytes]:
        def counted_encode(message: Any, body_len: int = 0) -> bytes:
            frame = encode(message, body_len=body_len)
            counters["live.wire_bytes"] += len(frame) + body_len
            return frame

        return counted_encode

    rec.replace(wire, "encode_frame", counting)

    for name in (
        "write_record",
        "run_header",
        "rpc",
        "admission",
        "queue",
        "retry",
        "conn",
        "alert",
    ):
        rec.patch(EventLog, name, "live.events")

    if role == "client":
        rec.patch(AdmissionEngine, "decide", "core")
        rec.patch(AdmissionEngine, "complete", "core")
        rec.patch(AdmissionController, "on_rpc_issue_qos", "core")
        rec.patch(AdmissionController, "on_rpc_completion", "core")
