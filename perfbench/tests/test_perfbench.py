"""Self-tests of the benchmark: span arithmetic, digests, and its checks.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
from array import array
from pathlib import Path
from typing import Iterator, List

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import spans  # noqa: E402
from spans import SpanRecorder, SpanTable, layer_totals, merge_totals  # noqa: E402


def _table(layers: List[str], rows: List[tuple]) -> SpanTable:
    """Spans as ``(layer index, start, end, parent)`` rows."""
    return SpanTable(
        layers,
        array("i", [r[0] for r in rows]),
        array("q", [r[1] for r in rows]),
        array("q", [r[2] for r in rows]),
        array("q", [r[3] for r in rows]),
    )


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
def test_nested_self_time_subtracts_direct_children_only() -> None:
    table = _table(
        ["a", "b", "c"],
        [
            (0, 0, 100, -1),  # a: 100 - (30 + 10 + 5) = 55
            (1, 10, 40, 0),  # b: 30 - 10 = 20
            (2, 20, 30, 1),  # c: 10
            (1, 50, 60, 0),  # b: 10
            (0, 70, 75, 0),  # a nested in a: 5
        ],
    )
    assert layer_totals(table) == {"a": (2, 60), "b": (2, 30), "c": (1, 10)}
    assert sum(ns for _calls, ns in layer_totals(table).values()) == 100


def test_merge_adds_processes_and_counters() -> None:
    one = _table(["x"], [(0, 0, 10, -1)])
    two = _table(["y", "x"], [(0, 0, 4, -1), (1, 1, 2, 0)])
    one.counters = {"n": 2}
    two.counters = {"n": 3}
    totals, counters = merge_totals([one, two])
    assert totals == {"x": (2, 11), "y": (1, 3)}
    assert counters == {"n": 5}


@pytest.mark.parametrize(
    "rows",
    [
        [(0, 5, 0, -1)],  # never closed
        [(0, 0, 10, -1), (0, 5, 15, 0)],  # outlives its parent
    ],
)
def test_malformed_spans_are_rejected(rows: List[tuple]) -> None:
    with pytest.raises(ValueError):
        layer_totals(_table(["a"], rows))


@pytest.fixture
def ticking_clock(monkeypatch: pytest.MonkeyPatch) -> Iterator[None]:
    """A clock that advances by 10 ns per read."""
    ticks = iter(range(0, 10**9, 10))
    monkeypatch.setattr(spans, "_clock", lambda: next(ticks))
    yield


def test_recorder_links_nested_calls_and_rpc_ids(ticking_clock: None, tmp_path: Path) -> None:
    rec = SpanRecorder()
    inner = rec.wrap(lambda rpc: rpc, "inner", rpc_of=lambda args: args[0])
    outer = rec.wrap(lambda: inner(7) + inner(8), "outer")
    assert outer() == 15
    assert list(rec.parent) == [-1, 0, 0]
    assert list(rec.rpc) == [0, 7, 8]
    rec.dump(tmp_path / "spans")
    totals = layer_totals(SpanTable.load(tmp_path / "spans"))
    root_ns = rec.end[0] - rec.start[0]
    assert totals["inner"] == (2, 20)
    assert totals["outer"] == (1, root_ns - 20)


def test_coroutine_is_timed_per_step(ticking_clock: None) -> None:
    rec = SpanRecorder()

    async def two_yields(value: int) -> int:
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        return value

    wrapped = rec.wrap_async(two_yields, "wire", rpc_of_result=lambda result: result)

    async def caller() -> int:
        return int(await wrapped(42))

    assert asyncio.run(caller()) == 42
    assert len(rec.layer) == 3  # one span per resumption
    assert all(rec.parent[i] == -1 for i in range(3))
    assert all(rec.end[i] > rec.start[i] for i in range(3))
    assert rec.rpc[2] == 42


def test_patch_and_unpatch_restore_the_original() -> None:
    class Thing:
        def work(self) -> int:
            return 1

    rec = SpanRecorder()
    original = Thing.__dict__["work"]
    rec.patch(Thing, "work", "layer")
    rec.count(Thing, "work", "thing.calls")
    assert Thing().work() == 1
    assert rec.counters == {"thing.calls": 1}
    assert len(rec.layer) == 1
    rec.unpatch()
    assert Thing.__dict__["work"] is original


def test_a_stall_in_one_repetition_does_not_move_the_slice_medians() -> None:
    import run

    def rep(slice_ns: List[int]) -> dict:
        summary = {
            "completed": 6,
            "issued": 8,
            "terminated": 0,
            "slo_met_share": 0.5,
            "completed_share": 0.75,
        }
        return {
            "slice_ns": slice_ns,
            "slice_completed": [2, 0, 4],
            "rss_mb": 1.0,
            "summary": summary,
        }

    metrics, attempted, failed = run.sim_metrics(
        [rep([10, 100, 40]), rep([30, 50, 4000]), rep([20, 70, 60])], 1.0
    )
    assert metrics["run_s"] == pytest.approx(150e-9)  # medians 20 + 70 + 60 ns
    assert metrics["calls_per_s"] == pytest.approx(6 / 150e-9)
    # Per-RPC host cost of the two slices that completed RPCs, 10 and 15 ns,
    # plus a sixth of the 70 ns slice that completed none.
    assert metrics["call_p90_us"] == pytest.approx((14.5 + 70 / 6) / 1000)
    assert (attempted, failed) == (24, 0)


def test_times_are_scaled_to_the_nominal_host_by_the_speed() -> None:
    import run

    summary = {"completed": 2, "issued": 2, "terminated": 0, "slo_met_share": 1.0, "completed_share": 1.0}
    fast = {"slice_ns": [10, 20], "slice_completed": [1, 1], "rss_mb": 1.0, "summary": summary}
    # The same work on a host running at half speed takes twice as long.
    slow = dict(fast, slice_ns=[20, 40])
    metrics, _, _ = run.sim_metrics([slow, slow, slow], 0.5)
    assert metrics["run_s"] == pytest.approx(30e-9)
    assert metrics["call_p90_us"] == pytest.approx(0.019)
    assert run.sim_metrics([fast, fast, fast], 1.0)[0] == metrics


def test_gauge_chunks_are_taken_out_of_the_timed_work(monkeypatch: pytest.MonkeyPatch) -> None:
    import calibrate
    from workloads import SimRun

    monkeypatch.setattr(calibrate, "CHUNK_EVERY_S", 0.001)
    run = SimRun("fabric_4k", 5, duration_ms=0.3)
    gauge = calibrate.Gauge()
    run.run(Path("."), gauge)
    assert gauge.events > calibrate.CHUNK_EVENTS  # the timer fired during the work
    assert gauge.speed() > 0
    # The chunks took longer than the work they interrupted; the slices
    # hold the work (slowed by the interruptions) but not the chunks.
    plain = SimRun("fabric_4k", 5, duration_ms=0.3)
    plain.run(Path("."))
    assert gauge.ns > sum(plain.slice_ns)
    assert sum(run.slice_ns) < sum(plain.slice_ns) + gauge.ns / 2


# ----------------------------------------------------------------------
# inputs and digests
# ----------------------------------------------------------------------
def _short(name: str, seed: int):  # type: ignore[no-untyped-def]
    from workloads import SimRun

    run = SimRun(name, seed, duration_ms=0.3)
    run.run(Path("."))
    return run


def test_same_seed_same_digest_and_different_seed_different_inputs() -> None:
    first, again, other = (_short("fabric_4k", s) for s in (5, 5, 6))
    summary = first.summary()
    assert summary["digest_hex"] == again.summary()["digest_hex"]
    assert summary["digest_hex"] != other.summary()["digest_hex"]
    inputs = [
        [(rpc.issued_ns, rpc.src, rpc.dst, rpc.priority) for rpc in run.result.metrics.issued]
        for run in (first, again, other)
    ]
    assert inputs[0] == inputs[1]
    assert inputs[0] != inputs[2]
    assert first.check(summary) == []


def test_incast_reproduces_fig11_regime() -> None:
    from repro.experiments import fig11
    from repro.runner.point import Point
    from repro.stats.digest import completed_rpc_digest
    from workloads import SimRun

    run = SimRun("incast_32k", 3, duration_ms=6.0)
    run.run(Path("."))
    point = Point(
        "fig11",
        {
            "slo_us": 15.0,
            "duration_ms": 6.0,
            "warmup_ms": 2.0,
            "alpha": 0.05,
            "target_percentile": 99.0,
        },
    )
    assert completed_rpc_digest(run.result.metrics) == fig11.run_point(point, 3)["digest"]


# ----------------------------------------------------------------------
# the command's checks
# ----------------------------------------------------------------------
def _copy_bench(tmp_path: Path, with_source: bool) -> Path:
    """A directory holding ``BENCHMARK.json`` and the benchmark (and ``src``)."""
    shutil.copytree(
        BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("tests", "__pycache__")
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_source:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


def _run(checkout: Path, workload: str, seed: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            "0.1",
            "--trace",
            "0",
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_committed_digest_passes_and_a_corrupted_one_fails(tmp_path: Path) -> None:
    checkout = _copy_bench(tmp_path, with_source=True)
    digests_path = checkout / "perfbench" / "digests.json"
    digests = json.loads(digests_path.read_text())

    good = _run(checkout, "fabric_4k", digests["seed"])
    assert good.returncode == 0, good.stderr
    assert json.loads(good.stdout.splitlines()[-1])["correct"] is True

    digests["fabric_4k"] = "0" * 64
    digests_path.write_text(json.dumps(digests))
    bad = _run(checkout, "fabric_4k", digests["seed"])
    assert bad.returncode == 1
    assert json.loads(bad.stdout.splitlines()[-1])["correct"] is False
    assert "differs from the one committed" in bad.stderr
    assert not (checkout / ".perfbench_tmp").exists()


def test_without_source_the_run_fails_and_prints_no_result(tmp_path: Path) -> None:
    checkout = _copy_bench(tmp_path, with_source=False)
    proc = _run(checkout, "incast_32k", 1)
    assert proc.returncode != 0
    assert proc.stdout == ""
