"""The repository benchmark: one workload, plain or traced, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports ``repro`` from ``src/``.
Every repetition runs in a fresh interpreter (``worker.py``), so set-up
cost (interpreter start, imports, building the scenario) is paid and
measured each time.  Plain runs (``--trace 0``) report the end-to-end
metrics; traced runs (``--trace 1``) run the workload once plain and
once with spans around every layer's entry points, and report per-layer
self time and counts.  End-to-end times are scaled to a nominal host
by the host speed the workers gauge while they work (``calibrate.py``),
because the host's speed shifts by up to half between minutes.
Outputs are checked; a failed check prints the result with
``"correct": false`` and exits 1.  The last line of standard output is
the JSON result.  Workloads, metrics and the layer map are described in
``LAYERS.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from spans import SpanTable, merge_totals  # noqa: E402

WORKLOADS = ("incast_32k", "fabric_4k", "trace_export", "live_closed")
#: Extra fresh interpreters per run that only set up; with the
#: repetitions' own set-ups they give the median ``setup_s``.
SETUP_PROBES = 5
#: Simulated repetitions per plain run, at least: a per-slice median
#: over three ignores a host stall that hits one of them.
MIN_REPETITIONS = 3
#: Seconds ``live_closed`` allows for starting its server and connecting.
LIVE_START_S = 1.0
#: Wall-clock budget of one run; a worker still running at its end is killed.
RUN_BUDGET_S = 170.0
#: Calls that make one unit of live work: ``run_s`` on ``live_closed``
#: is the time to serve this many calls at the measured rate.
LIVE_UNIT_CALLS = 10_000
#: Per-layer self times must sum to the traced ``run_s`` within this share.
SELF_TIME_TOLERANCE = 0.05
#: Environment variables that would change what ``repro`` runs.
_SCRUBBED_ENV = ("REPRO_BACKEND", "REPRO_TRACE", "REPRO_SANITIZE")

SIM_LAYERS = ("sim", "queues", "link", "node", "transport", "rpc", "core")


def metric_units(section: str) -> Dict[str, str]:
    """``name -> unit`` of one metric list of ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


class WorkerFailed(Exception):
    """A worker process crashed, hung or wrote no result."""


class Bench:
    """One invocation: spawns workers in a per-run temporary directory."""

    def __init__(self, workload: str, seed: int, seconds: float, tmp: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tmp = tmp
        self._spawned = 0
        self._deadline = time.monotonic() + RUN_BUDGET_S
        self.failures: List[str] = []
        #: Lines printed ahead of the metrics (digests of simulated runs).
        self.notes: List[str] = []

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    def worker(self, mode: str, seconds: Optional[float] = None) -> Dict[str, Any]:
        """Run one worker to completion; returns its result plus spawn time."""
        self._spawned += 1
        work_dir = self.tmp / f"w{self._spawned}"
        work_dir.mkdir()
        out = work_dir / "result.json"
        if self.workload == "live_closed":
            role = ["live", "--seconds", repr(seconds or self.seconds)]
        else:
            role = ["sim", "--workload", self.workload]
        argv = [sys.executable, str(BENCH / "worker.py"), *role]
        argv += ["--seed", str(self.seed), "--mode", mode, "--dir", str(work_dir)]
        argv += ["--out", str(out)]
        env = {k: v for k, v in os.environ.items() if k not in _SCRUBBED_ENV}
        env["PYTHONPATH"] = str(ROOT / "src")
        t_spawn = time.monotonic_ns()
        # Its own session, so a hung worker is killed with any child it started.
        proc = subprocess.Popen(argv, env=env, stdout=sys.stderr, start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, self._deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise WorkerFailed(f"{mode} worker outlived the {RUN_BUDGET_S:.0f} s budget and was killed")
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if code != 0 or not out.is_file():
            raise WorkerFailed(f"{mode} worker exited with code {code}")
        with open(out) as fh:
            result: Dict[str, Any] = json.load(fh)
        result["t_spawn_ns"] = t_spawn
        self.failures += result.get("failures", [])
        self.failures += result.get("problems", [])
        return result

    def probes(self) -> List[Dict[str, Any]]:
        """``SETUP_PROBES`` workers that only set up."""
        return [self.worker("setup") for _ in range(SETUP_PROBES)]

    @staticmethod
    def setups(workers: List[Dict[str, Any]]) -> List[Tuple[float, float]]:
        """``(import_s, build_s)`` of each worker."""
        return [
            (
                (r["t_imported_ns"] - r["t_spawn_ns"]) / 1e9,
                (r["t_first_ns"] - r["t_imported_ns"]) / 1e9,
            )
            for r in workers
        ]

    def repetitions(self, start: float) -> List[Dict[str, Any]]:
        """Plain repetitions of the workload until ``seconds`` after ``start``.

        After ``MIN_REPETITIONS``, another repetition starts only while it
        is expected to finish in time (judged by the median so far).  The
        live window takes whatever time is left, less the server's start.
        """
        if self.workload == "live_closed":
            left = self.seconds - (time.perf_counter() - start) - LIVE_START_S
            return [self.worker("run", max(1.0, left))]
        reps: List[Dict[str, Any]] = []
        took: List[float] = []
        while (
            len(reps) < MIN_REPETITIONS
            or time.perf_counter() - start + statistics.median(took) <= self.seconds
        ):
            began = time.perf_counter()
            reps.append(self.worker("run"))
            took.append(time.perf_counter() - began)
        return reps

    # ------------------------------------------------------------------
    # checks shared by plain and traced runs
    # ------------------------------------------------------------------
    def check_sim(self, reps: List[Dict[str, Any]]) -> None:
        digests = {r["summary"]["digest_hex"] for r in reps}
        self.notes.append(f"digest {' '.join(sorted(digests))} ({len(reps)} runs)")
        if len(digests) != 1:
            self.failures.append(f"one seed gave {len(digests)} different digests")
        with open(BENCH / "digests.json") as fh:
            committed = json.load(fh)
        if self.seed == committed["seed"] and digests != {committed[self.workload]}:
            self.failures.append(
                f"digest {sorted(digests)} differs from the one committed for seed "
                f"{self.seed}: {committed[self.workload]}"
            )

    def check_live(self, rep: Dict[str, Any]) -> None:
        client, server = rep["client"], rep["server"]
        ok = client["statuses"].get("ok", 0)
        self.notes.append(
            f"calls {client['calls']}, ok {ok}, downgraded {client['downgraded']}, "
            f"retries {client['retries']}, served {server['served']}"
        )
        if ok + client["rejected"] + client["failures"] != client["calls"]:
            self.failures.append(
                f"live calls: ok {ok} + rejected {client['rejected']} + failed "
                f"{client['failures']} != attempted {client['calls']}"
            )
        if server["served"] != ok:
            self.failures.append(f"server served {server['served']} calls, client got {ok} ok")

    # ------------------------------------------------------------------
    # plain run: end-to-end metrics
    # ------------------------------------------------------------------
    def plain(self) -> Tuple[Dict[str, float], int, int]:
        # The set-up probes come first and count against ``seconds``, so
        # a run takes ``seconds`` whatever the workload's set-up costs.
        start = time.perf_counter()
        probes = self.probes()
        reps = self.repetitions(start)
        # One gauge is too short to be steady, and the host's speed shifts
        # between minutes more than between the repetitions of a run, so
        # the whole run (set-up too, which is too short to gauge) is
        # scaled by the repetitions' median speed.
        speed = statistics.median(r["speed"] for r in reps)
        self.notes.append(f"host speed {speed:.4f} (median of {len(reps)} gauges)")
        setup_s = speed * statistics.median(i + b for i, b in self.setups(probes + reps))
        if self.workload == "live_closed":
            rep = reps[0]
            self.check_live(rep)
            metrics, attempted, failed = live_metrics(rep, speed)
        else:
            self.check_sim(reps)
            metrics, attempted, failed = sim_metrics(reps, speed)
        metrics["setup_s"] = setup_s
        return metrics, attempted, failed

    # ------------------------------------------------------------------
    # traced run: per-layer metrics
    # ------------------------------------------------------------------
    def traced(self) -> Tuple[Dict[str, float], int, int]:
        # Live windows are halved so the plain and traced runs together
        # take ``seconds``; a simulated repetition is a fixed amount of work.
        plain = self.worker("run", self.seconds / 2)
        traced = self.worker("trace", self.seconds / 2)
        setups = self.setups(self.probes() + [plain])
        # Layers a workload does not exercise report 0.
        metrics = {name: 0.0 for name in metric_units("per_layer")}
        metrics["setup.import_s"] = statistics.median(i for i, _ in setups)
        metrics["setup.build_s"] = statistics.median(b for _, b in setups)
        metrics["host.speed"] = plain["speed"]
        totals, counters = merge_totals(SpanTable.load(Path(f)) for f in traced["span_files"])
        self_s = {layer: ns / 1e9 for layer, (_calls, ns) in totals.items()}
        self_sum = sum(self_s.values())
        for layer in SIM_LAYERS:
            metrics[f"{layer}.calls"] = totals.get(layer, (0, 0))[0]
            metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        for layer in ("obs.tracer", "obs.export", "obs.series", "analysis.attribution"):
            metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        if self_sum > 0:
            metrics["rpc_core.self_share"] = (
                self_s.get("rpc", 0.0) + self_s.get("core", 0.0)
            ) / self_sum
        if self.workload == "live_closed":
            self.check_live(plain)
            self.check_live(traced)
            # The overhead compares raw times: the traced run is not gauged.
            plain_metrics, attempted, failed = live_metrics(plain, 1.0)
            traced_metrics, _, _ = live_metrics(traced, 1.0)
            client, server = plain["client"], plain["server"]
            calls = client["calls"]
            metrics.update(
                {
                    "core.admit_share": 1.0 - client["downgraded"] / calls,
                    "live.client_cpu_us_per_call": plain["client_cpu_s"] / calls * 1e6,
                    "live.server_cpu_us_per_call": server["cpu_s"] / server["served"] * 1e6,
                    "live.wire.self_s": self_s.get("live.wire", 0.0),
                    "live.wire_bytes_per_call": counters.get("live.wire_bytes", 0)
                    / traced["client"]["calls"],
                    "live.events.self_s": self_s.get("live.events", 0.0),
                    "live.log_bytes_per_call": plain["log_bytes"] / calls,
                    "live.core.self_s": self_s.get("core", 0.0),
                    "live.rejected": client["rejected"],
                    "live.retries": client["retries"],
                    "live.call_p50_us": statistics.median(
                        p50 for _r, p50, _p90 in plain["bins"] if p50 is not None
                    ),
                    "live.call_p99_us": plain["call_p99_us"],
                    "traced.run_s": traced_metrics["run_s"],
                    "traced.self_sum_share": self_sum
                    / (traced["client_cpu_s"] + traced["server"]["cpu_s"]),
                }
            )
        else:
            self.check_sim([plain, traced])
            plain_metrics, attempted, failed = sim_metrics([plain], 1.0)
            traced_metrics, _, _ = sim_metrics([traced], 1.0)
            for name, value in traced["layers"].items():
                metrics[name] = value
            metrics["sim.scheduled"] = counters.get("sim.scheduled", 0)
            share = self_sum / traced["run_s"]
            metrics["traced.run_s"] = traced["run_s"]
            metrics["traced.self_sum_share"] = share
            if abs(share - 1.0) > SELF_TIME_TOLERANCE:
                self.failures.append(
                    f"per-layer self times sum to {share:.3f} of the traced run_s "
                    f"(tolerance {SELF_TIME_TOLERANCE})"
                )
        metrics["trace_overhead_x"] = traced_metrics["run_s"] / plain_metrics["run_s"]
        return metrics, attempted, failed


def sim_metrics(reps: List[Dict[str, Any]], speed: float) -> Tuple[Dict[str, float], int, int]:
    """End-to-end metrics of simulated repetitions of one seed.

    Repetitions of a seed do the same work slice by slice, so each
    slice's host time is the median over repetitions; ``run_s`` is their
    sum, and the per-RPC host cost is taken per slice.  Host times are
    scaled to the nominal host by ``speed``.
    """
    summary = reps[0]["summary"]
    slice_ns = [speed * statistics.median(ns) for ns in zip(*(r["slice_ns"] for r in reps))]
    run_s = sum(slice_ns) / 1e9
    # Host cost per RPC: its slice's time over the RPCs the slice completed,
    # plus an equal share of the steps that complete none (the export and
    # analysis of ``trace_export``, a warm-up slice).
    completed = reps[0]["slice_completed"]
    shared_ns = sum(ns for ns, done in zip(slice_ns, completed) if not done) / sum(completed)
    us_per_rpc = [(ns / done + shared_ns) / 1000.0 for ns, done in zip(slice_ns, completed) if done]
    p90 = statistics.quantiles(us_per_rpc, n=10, method="inclusive")[8]
    metrics = {
        "run_s": run_s,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
        "calls_per_s": summary["completed"] / run_s,
        "call_p90_us": p90,
        "slo_met_share": summary["slo_met_share"],
        "completed_share": summary["completed_share"],
    }
    attempted = sum(r["summary"]["issued"] for r in reps)
    failed = sum(r["summary"]["terminated"] for r in reps)
    return metrics, attempted, failed


def live_metrics(rep: Dict[str, Any], speed: float) -> Tuple[Dict[str, float], int, int]:
    """End-to-end metrics of one closed-loop live run: medians over its seconds.

    Rates and latencies are scaled to the nominal host by ``speed``.
    """
    client, bins = rep["client"], rep["bins"]
    ok = client["statuses"].get("ok", 0)
    calls_per_s = statistics.median(rate for rate, _p50, _p90 in bins) / speed
    metrics = {
        "run_s": LIVE_UNIT_CALLS / calls_per_s,
        "peak_rss_mb": rep["rss_mb"],
        "calls_per_s": calls_per_s,
        "call_p90_us": speed
        * statistics.median(p90 for _r, _p50, p90 in bins if p90 is not None),
        "slo_met_share": client["slo_met"] / client["slo_calls"],
        "completed_share": ok / client["calls"],
    }
    return metrics, client["calls"], client["calls"] - ok


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'repro'} is missing; run from a checkout", file=sys.stderr)
        return 2
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=tmp_root))
    bench = Bench(args.workload, args.seed, args.seconds, tmp)
    try:
        units = metric_units("per_layer" if args.trace else "end_to_end")
        if args.trace:
            metrics, attempted, failed = bench.traced()
        else:
            metrics, attempted, failed = bench.plain()
    except WorkerFailed as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still uses it
    if set(metrics) != set(units):
        bench.failures.append(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    for name, value in metrics.items():
        if not math.isfinite(value):
            bench.failures.append(f"metric {name} is {value}")
    for failure in bench.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    for note in bench.notes:
        print(f"{args.workload} seed {args.seed}: {note}")
    for name, unit in units.items():
        print(f"{args.workload} seed {args.seed}: {name} = {metrics.get(name, 0.0):.6g} {unit}")
    correct = not bench.failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
