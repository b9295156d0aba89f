"""Tests of the benchmark's own helpers.

Run from the root of a checkout: ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import asyncio
import json
import socketserver
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import loadgen  # noqa: E402
import spans  # noqa: E402


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------


def test_tail_percentile_reports_p99_when_ten_samples_lie_beyond():
    samples = list(range(1, 1001))
    percentile, value = harness.tail_percentile(samples)
    assert percentile == 99.0
    assert value == 990
    assert sum(s > value for s in samples) == 10


def test_tail_percentile_lowers_the_rank_on_short_runs():
    samples = [float(s) for s in range(500, 0, -1)]
    percentile, value = harness.tail_percentile(samples)
    assert percentile == 98.0
    assert value == 490.0
    assert sum(s > value for s in samples) == 10


def test_tail_percentile_needs_more_than_ten_samples():
    assert harness.tail_percentile(range(11)) == (100.0 / 11, 0)
    with pytest.raises(ValueError):
        harness.tail_percentile(range(10))


def test_windowed_tail_is_the_median_of_per_window_tails():
    calm = [1.0] * 990 + [2.0] * 10
    stalled = [1.0] * 900 + [50.0] * 100
    percentile, value, windows = harness.windowed_tail(calm * 2 + stalled + calm[:500], window=1000)
    assert windows == 3  # the short last window joins the one before it
    assert percentile == pytest.approx(99.0)
    assert value == 1.0  # windows read 1.0, 50.0 and 1.0 (1500 samples)
    assert harness.windowed_tail(calm[:300], window=1000) == (
        *harness.tail_percentile(calm[:300]), 1)


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------


def _span(span_id, start, end, parent=None, name="x"):
    return spans.Span(span_id, name, start, end, parent, 1, 0)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    tree = [
        _span(1, 0.0, 10.0, name="root"),
        _span(2, 1.0, 4.0, parent=1, name="child"),
        _span(3, 3.0, 6.0, parent=1, name="child"),  # overlaps 2: another thread
        _span(4, 2.0, 3.0, parent=2, name="leaf"),
        _span(5, 8.0, 12.0, parent=1, name="child"),  # outlives its parent
    ]
    own = spans.self_times(tree)
    assert own[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(4.0)
    totals = spans.totals(tree)
    assert totals["child"] == spans.LayerTotals(3, 10.0, 9.0)
    assert totals["root"].self_s == pytest.approx(3.0)


def test_tracer_links_parents_requests_and_adopted_threads():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("run", host=True) as run_id:
        with tracer.span("inner") as inner_id:
            pass
        worker = threading.Thread(target=_adopt, args=(tracer,))
        worker.start()
        worker.join(5)
        assert not worker.is_alive()
    with tracer.span("query"):
        pass
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == run_id
    assert by_name["inner"].request == run_id
    assert by_name["adopted"].parent == run_id
    assert by_name["orphan"].parent is None
    assert by_name["query"].parent is None
    assert by_name["query"].request == by_name["query"].id
    assert inner_id != run_id


def _adopt(tracer: spans.Tracer) -> None:
    with tracer.span("adopted", adopt=True):
        pass
    with tracer.span("orphan"):
        pass


def test_patch_wraps_generators_per_item_and_restores():
    class Source:
        def items(self):
            yield from (1, 2, 3)

    tracer = spans.Tracer()
    original = Source.items
    tracer.patch(Source, "items", "source", generator=True)
    assert list(Source().items()) == [1, 2, 3]
    tracer.close()
    assert Source.items is original
    assert [s.name for s in tracer.spans] == ["source"] * 4  # 3 items + exhaustion


# ----------------------------------------------------------------------
# Open-loop due-time accounting
# ----------------------------------------------------------------------


class _StallOnce(socketserver.StreamRequestHandler):
    """Answers ``{}`` to every request; stalls once, on request STALL_AT."""

    STALL_AT = 3
    STALL_S = 0.3
    served = 0

    def handle(self) -> None:
        while True:
            line = self.rfile.readline()
            if not line:
                return
            length = 0
            while line not in (b"\r\n", b""):
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":", 1)[1])
                line = self.rfile.readline()
            self.rfile.read(length)
            if type(self).served == self.STALL_AT:
                time.sleep(self.STALL_S)
            type(self).served += 1
            self.wfile.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
            self.wfile.flush()


def _against_stall():
    _StallOnce.served = 0
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _StallOnce)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        request = b"GET / HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n"
        schedule = [(0.05 * i, request) for i in range(12)]
        return asyncio.run(loadgen.drive(
            "127.0.0.1", server.server_address[1], schedule,
            connections=1, timeout=5.0,
        ))
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5)


def test_a_stall_raises_the_latency_of_requests_queued_behind_it():
    start, outcomes = _against_stall()
    assert [o.status for o in outcomes] == [200] * 12
    latency = [o.latency for o in outcomes]
    # The stalled request and the ones due during the stall wait for it:
    # request 4 is due 0.05 s after the stall began, so it waits ~0.25 s.
    assert latency[3] >= 0.28
    assert latency[4] >= 0.2
    assert latency[4] > latency[6] > latency[8]
    # Before and well after the stall, requests are answered promptly.
    assert latency[0] < 0.1 and latency[11] < 0.1
    # The generator itself never fell behind its schedule.
    assert max(o.late for o in outcomes) < 0.1
    assert outcomes[4].due == pytest.approx(start + 0.2)
    # It was sent only once the stalled reply was in.
    assert outcomes[4].sent - outcomes[4].due >= 0.2


def test_requests_to_a_refusing_port_count_as_errors():
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    schedule = [(0.0, b""), (0.01, b"")]
    _, outcomes = asyncio.run(loadgen.drive("127.0.0.1", port, schedule, 1, 1.0))
    assert [o.error for o in outcomes] == ["ConnectionRefusedError"] * 2
    assert [o.status for o in outcomes] == [0, 0]


def test_summarize_flags_malformed_replies():
    outcome = loadgen.Outcome(0, 0, 0.0, 0.0, 0.0, 0.001, 200, b"not json", None)
    assert loadgen.summarize(outcome, "point")["error"] == "malformed"
    good = json.dumps({
        "estimate": 2.0, "interval": {"low": 1.0, "high": 3.0},
        "streams": {"R": {"generation": 4, "staleness_seconds": 0.5}},
    }).encode()
    record = loadgen.summarize(loadgen.Outcome(0, 1, 0.0, 0.0, 0.0, 0.001, 200, good, None), "point")
    assert record["error"] is None
    assert record["generations"] == {"R": 4}
    assert (record["low"], record["estimate"], record["high"]) == (1.0, 2.0, 3.0)


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the metrics the benchmark prints
# ----------------------------------------------------------------------


def test_benchmark_manifest_lists_exactly_the_reported_metrics():
    harness.require_source()
    import layers
    import run

    manifest = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(harness.WORKLOADS)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]]
    assert per_layer == [(n, u, b) for n, u, b, _ in layers.LAYER_METRICS]
    end_to_end = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    assert end_to_end == {
        k: v for k, v in run.UNITS.items() if k not in run.SUMMARY_ONLY
    }


# ----------------------------------------------------------------------
# Host-speed scaling
# ----------------------------------------------------------------------


def test_host_speed_scales_wall_time_by_the_slowdown_near_the_interval():
    slowdowns = iter([1.0, 2.0, 2.0, 9.0])
    speed = harness.HostSpeed(slowdown=lambda: next(slowdowns))
    for at in (0.0, 10.0, 11.0, 30.0):
        speed.probe(at=at)
    # At reference speed a wall second is a reference second.
    assert speed.reference_seconds(1.0, -1.0, 1.0) == 1.0
    # Where the host ran at half speed, a wall second is half a reference second.
    assert speed.reference_seconds(1.0, 10.0, 10.5) == 0.5
    # With no probe in the window, the nearest one sets the speed.
    assert speed.slowdown(17.0, 18.0) == 2.0
    assert speed.median_slowdown() == 2.0


def test_host_speed_needs_a_probe():
    with pytest.raises(ValueError):
        harness.HostSpeed().slowdown(0.0, 1.0)


def test_host_probe_reads_about_one_at_reference_speed():
    # A loose sanity check of the reference costs: the probe runs and
    # lands within a factor of ten of 1.0 on any machine this runs on.
    speed = harness.HostSpeed()
    speed.probe()
    assert 0.1 < speed.median_slowdown() < 10.0
