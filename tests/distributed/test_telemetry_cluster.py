"""Cluster telemetry over a real loopback fleet: worker events ship
home over ``op=telemetry``, arrive tagged with the emitting host, and
merge into one timeline independent of arrival order."""

import json
import pathlib
from collections import defaultdict

import pytest

from repro import telemetry
from repro.distributed import (
    DistributedEvaluator,
    LoopbackCluster,
    SmokeObjective,
)
from repro.search import HillClimbStrategy, run_search
from repro.telemetry import (
    MemorySink,
    chrome_trace,
    merge_events,
    summarize_events,
)

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent.parent / "search" / "golden.json").read_text()
)


@pytest.fixture(scope="module")
def cluster():
    # Env must be set BEFORE the workers spawn: they inherit the
    # coordinator's environment, which is how REPRO_TELEMETRY reaches
    # them (function-scoped monkeypatch would be too late).
    mp = pytest.MonkeyPatch()
    mp.setenv("REPRO_TELEMETRY", "1")
    try:
        with LoopbackCluster(2) as c:
            yield c
    finally:
        mp.undo()


@pytest.fixture()
def events(cluster):
    """One instrumented cluster run; yields its merged event stream."""
    sink = MemorySink()
    telemetry.configure(sink=sink, default=True)
    try:
        strategy = HillClimbStrategy([32, 32], start=(16, 16))
        ev = DistributedEvaluator(SmokeObjective((4, 27)), hosts=cluster.hosts)
        try:
            run_search(strategy, ev)
        finally:
            ev.close()  # drains worker telemetry over the wire
        # telemetry-on cluster run still walks the golden trajectory
        g = GOLDEN["hillclimb_toy"]
        assert [[list(c), v] for c, v in strategy.accepted] == g["accepted"]
        yield telemetry.drain_events()
    finally:
        telemetry.shutdown()


def test_worker_events_arrive_tagged_with_their_host(cluster, events):
    worker_tags = {f"{h}:{p}" for h, p in cluster.hosts}
    by_host = defaultdict(list)
    for evt in events:
        by_host[evt["host"]].append(evt)
    # the coordinator's own events plus both workers' shipped batches
    assert "local" in by_host
    assert worker_tags <= set(by_host)
    for tag in worker_tags:
        names = {e["name"] for e in by_host[tag]}
        assert "worker.serve" in names       # serve-time event
        assert "worker.eval" in names        # per-request span
    # and the coordinator recorded the wire traffic it sent them
    local = {e["name"] for e in by_host["local"]}
    assert "wire.request_bytes" in local


def test_merge_is_independent_of_reply_arrival_order(events):
    batches = defaultdict(list)
    for evt in events:
        batches[(evt["host"], evt["pid"])].append(evt)
    lanes = list(batches.values())
    forward = merge_events(lanes)
    backward = merge_events(reversed(lanes))
    assert forward == backward
    # within one lane the recorder's seq order is preserved
    for lane in lanes:
        seqs = [e["seq"] for e in lane]
        assert seqs == sorted(seqs)


def test_chrome_timeline_has_one_lane_per_host(cluster, events):
    trace = chrome_trace(events)["traceEvents"]
    lane_names = {
        t["args"]["name"] for t in trace if t.get("ph") == "M"
    }
    assert {f"{h}:{p}" for h, p in cluster.hosts} <= lane_names
    assert "local" in lane_names
    assert any(t["ph"] == "X" for t in trace)  # spans made it across


def test_lone_host_search_sends_one_eval_frame_per_wave():
    """A lone host takes each wave in one ``op=eval`` request, so the
    coordinator's per-op wire frames count the agent's merged passes:
    ``repro.cli report`` shows one eval frame per wave that reached the
    cluster (one ``backend.remote_solves`` count each)."""
    sink = MemorySink()
    with LoopbackCluster(1) as lone:
        telemetry.configure(sink=sink, default=True)
        try:
            strategy = HillClimbStrategy([32, 32], start=(16, 16))
            ev = DistributedEvaluator(SmokeObjective((4, 27)), hosts=lone.hosts)
            try:
                run_search(strategy, ev)
            finally:
                ev.close()
            events = telemetry.drain_events()
        finally:
            telemetry.shutdown()
    frames = [
        e for e in events
        if e["name"] == "wire.request_bytes" and e["attrs"]["op"] == "eval"
    ]
    waves = [e["value"] for e in events if e["name"] == "backend.remote_solves"]
    assert sum(waves) == ev.distinct_evaluations
    assert max(waves) > 1  # a split wave would show as several frames
    assert len(frames) == len(waves)
    eval_row = next(
        line.split() for line in summarize_events(events).splitlines()
        if line.split()[:1] == ["eval"]
    )
    assert int(eval_row[1]) == len(waves)
