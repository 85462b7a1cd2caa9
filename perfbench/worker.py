"""One fresh interpreter of the benchmark: a workload, a setup probe, or the live server.

    worker.py sim --workload NAME --seed N --mode {setup,run,trace} --dir D --out F
    worker.py live --seed N --mode {setup,run,trace} --seconds S --dir D --out F
    worker.py server --dir D --out F [--trace]

``run.py`` starts it with ``PYTHONPATH`` naming the checkout's ``src``.
Timestamps that ``run.py`` compares across processes come from
``time.monotonic_ns`` (``CLOCK_MONOTONIC``, system-wide on Linux).
``setup`` stops at the first simulated event or the first call;
``trace`` wraps every layer's entry points before anything is built and
writes the spans to ``D`` when the work is done.  The result is one JSON
object written to ``F``.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _write(path: str, payload: Dict[str, Any]) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh)


def sim_main(args: argparse.Namespace) -> Dict[str, Any]:
    import calibrate
    import workloads
    from spans import SpanRecorder

    t_imported = time.monotonic_ns()
    rec: Optional[SpanRecorder] = None
    if args.mode == "trace":
        from instrument import instrument_sim

        rec = SpanRecorder()
        instrument_sim(rec)
    run = workloads.SimRun(args.workload, args.seed)
    out: Dict[str, Any] = {"t_imported_ns": t_imported, "t_first_ns": time.monotonic_ns()}
    if args.mode == "setup":
        return out
    out_dir = Path(args.dir)
    # Traced work is not gauged: a chunk inside a span would count as its layer's.
    gauge = calibrate.Gauge() if rec is None else None
    run.run(out_dir, gauge)
    out["run_s"] = sum(run.slice_ns) / 1e9
    if gauge is not None:
        out["speed"] = gauge.speed()
    out["slice_ns"] = run.slice_ns
    out["slice_completed"] = run.slice_completed
    summary = run.summary()
    out["summary"] = summary
    out["failures"] = run.check(summary)
    out["layers"] = run.layer_counts()
    out["rss_mb"] = _rss_mb()
    if rec is not None:
        rec.unpatch()
        rec.dump(out_dir / "spans-sim")
        out["span_files"] = [str(out_dir / "spans-sim")]
    return out


def live_main(args: argparse.Namespace) -> Dict[str, Any]:
    import asyncio

    import calibrate
    import live
    from repro.live.events import EventLog
    from repro.stats.summary import percentile
    from spans import SpanRecorder

    t_imported = time.monotonic_ns()
    out_dir = Path(args.dir)
    traced = args.mode == "trace"
    rec: Optional[SpanRecorder] = None
    if traced:
        from instrument import instrument_live

        rec = SpanRecorder()
        instrument_live(rec, "client")
    argv = [
        sys.executable,
        str(Path(__file__).resolve()),
        "server",
        "--dir",
        str(out_dir),
        "--out",
        str(out_dir / "server.json"),
    ] + (["--trace"] if traced else [])
    server = live.ServerChild(argv)
    out: Dict[str, Any] = {"t_imported_ns": t_imported}
    # Traced calls are not gauged: a chunk inside a span would count as its layer's.
    gauge = None if traced else calibrate.Gauge()
    try:
        port = server.port()
        with EventLog(out_dir / "client.jsonl") as log:
            loop = live.ClosedLoop(port, args.seed, log)

            async def drive() -> None:
                try:
                    out["t_first_ns"] = time.monotonic_ns()
                    await loop.one_call()
                    if args.mode == "setup":
                        return
                    cpu0 = time.process_time()
                    await loop.run(args.seconds, gauge)
                    out["client_cpu_s"] = time.process_time() - cpu0
                    if gauge is not None:
                        out["client_cpu_s"] -= gauge.ns / 1e9
                        out["speed"] = gauge.speed()
                finally:
                    await loop.client.aclose()

            asyncio.run(drive())
    finally:
        server.stop()
    out["problems"] = server.problems
    if args.mode == "setup":
        return out
    with open(out_dir / "server.json") as fh:
        out["server"] = json.load(fh)
    out["client"] = {
        "calls": loop.client.calls,
        "statuses": loop.statuses,
        "rejected": loop.client.rejected,
        "failures": loop.client.failures,
        "retries": loop.retries,
        "downgraded": loop.downgraded,
        "slo_calls": loop.slo_calls,
        "slo_met": loop.slo_met,
    }
    out["bins"] = loop.bins(args.seconds)
    out["call_p99_us"] = percentile(loop.latency_ns, 99.0) / 1000.0
    out["log_bytes"] = sum(
        (out_dir / name).stat().st_size for name in ("client.jsonl", "server.jsonl")
    )
    out["rss_mb"] = _rss_mb() + out["server"]["rss_mb"]
    if rec is not None:
        rec.unpatch()
        rec.dump(out_dir / "spans-client")
        out["span_files"] = [str(out_dir / "spans-client"), str(out_dir / "spans-server")]
    return out


def server_main(args: argparse.Namespace) -> Dict[str, Any]:
    import live
    from spans import SpanRecorder

    rec: Optional[SpanRecorder] = None
    if args.trace:
        from instrument import instrument_live

        rec = SpanRecorder()
        instrument_live(rec, "server")
    out = live.serve(Path(args.dir) / "server.jsonl")
    out["rss_mb"] = _rss_mb()
    if rec is not None:
        rec.unpatch()
        rec.dump(Path(args.dir) / "spans-server")
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=("sim", "live", "server"))
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--dir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    handler = {"sim": sim_main, "live": live_main, "server": server_main}[args.role]
    _write(args.out, handler(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
