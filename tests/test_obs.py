"""Tests for ``repro.obs`` — tracing, reporting, and zero-perturbation.

The load-bearing guarantees:

- **zero perturbation** — solves are bit-identical with tracing on vs.
  off (span ids come from ``os.urandom``, no solver path branches on
  tracing state), checked against the same mixed-traffic golden record
  the serve suite uses;
- **complete span trees** — an in-process service run produces request
  → queue/prepare/execute spans plus batch spans linking members, and a
  network round trip stitches client → server → shard worker → solve
  across three processes via propagated trace context;
- **crash robustness** — a SIGKILLed worker loses only its unfinished
  spans; the server-side request spans are marked failed (not lost) and
  surviving requests still form complete trees;
- **metrics integration** — span-finish hooks feed per-stage latency
  breakdowns into :class:`~repro.serve.metrics.ServiceMetrics`, whose
  ``as_dict``/``table`` now surface every recorded counter.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ServeError
from repro.obs import report
from repro.obs import tracer as obs
from repro.serve import ServiceConfig, SolverService, run_sequential
from repro.serve.cache import CacheStats
from repro.serve.metrics import MetricsRecorder, ServiceMetrics
from repro.serve.net import NetClient, NetServer, NetServerConfig
from repro.testing.chaos import CHAOS_ENV, ChaosPlan
from repro.workloads.traffic import drive_network, mixed_traffic

#: Matches tests/test_golden_records.py: bitwise by default, 1e-10
#: tolerance when GOLDEN_STRICT=0 (foreign BLAS stacks).
STRICT = os.environ.get("GOLDEN_STRICT", "1") != "0"

GOLDEN = Path(__file__).parent / "goldens" / "serve_mixed_traffic.npz"


@pytest.fixture(autouse=True)
def _clean_tracer():
    """Start from (and never leak) the disabled module singleton."""
    obs.disable()
    yield
    obs.disable()


# ----------------------------------------------------------------------
# tracer core
# ----------------------------------------------------------------------


class TestTracerCore:
    def test_disabled_by_default(self):
        assert not obs.active().enabled
        span = obs.start_span("noop")
        assert span is obs.NOOP_SPAN
        assert not span.enabled
        span.set(x=1)
        span.end()
        span.fail(ValueError("x"))
        assert span.context() is None

    def test_span_lifecycle_and_record_fields(self):
        tracer = obs.configure()
        with tracer.start_span("work", attributes={"size": 8}) as span:
            span.set(extra="yes")
        records = tracer.spans()
        assert len(records) == 1
        record = records[0]
        assert record["name"] == "work"
        assert record["span_id"] == span.span_id
        assert record["trace_id"] == span.trace_id
        assert record["parent_id"] is None
        assert record["status"] == "ok"
        assert record["error"] is None
        assert record["duration_s"] == record["end_s"] - record["start_s"]
        assert record["duration_s"] >= 0.0
        assert record["attributes"] == {"size": 8, "extra": "yes"}
        assert record["pid"] == os.getpid()

    def test_explicit_parent_and_trace_context(self):
        tracer = obs.configure()
        root = tracer.start_span("root")
        child = tracer.start_span("child", parent=root)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        # propagated context (the cross-process path)
        remote = tracer.start_span("remote", trace=root.context())
        assert remote.trace_id == root.trace_id
        assert remote.parent_id == root.span_id
        child.end()
        remote.end()
        root.end()

    def test_implicit_parent_from_with_block(self):
        tracer = obs.configure()
        with tracer.start_span("outer") as outer:
            inner = tracer.start_span("inner")
            assert inner.parent_id == outer.span_id
            inner.end()
        lone = tracer.start_span("lone")
        assert lone.parent_id is None
        lone.end()

    def test_use_span_activates_without_ending(self):
        tracer = obs.configure()
        span = tracer.start_span("batch")
        with tracer.use_span(span):
            nested = tracer.start_span("kernel")
            assert nested.parent_id == span.span_id
            nested.end()
        assert not span._finished
        span.end()

    def test_exception_in_with_block_marks_error(self):
        tracer = obs.configure()
        with pytest.raises(RuntimeError):
            with tracer.start_span("doomed"):
                raise RuntimeError("boom")
        record = tracer.spans()[-1]
        assert record["status"] == "error"
        assert "RuntimeError: boom" in record["error"]

    def test_fail_and_idempotent_end(self):
        tracer = obs.configure()
        span = tracer.start_span("once")
        span.fail(ValueError("first"))
        span.end()  # second finish must not double-record
        records = tracer.spans()
        assert len(records) == 1
        assert records[0]["status"] == "error"
        assert records[0]["error"] == "ValueError: first"

    def test_record_span_retroactive(self):
        tracer = obs.configure()
        parent = tracer.start_span("req")
        tracer.record_span(
            "queue", parent=parent, start_s=1.0, end_s=3.5, attributes={"n": 2}
        )
        record = tracer.spans()[0]
        assert record["name"] == "queue"
        assert record["start_s"] == 1.0
        assert record["duration_s"] == 2.5
        assert record["parent_id"] == parent.span_id
        parent.end()

    def test_ring_capacity_bounds_memory(self):
        tracer = obs.configure(capacity=4)
        for i in range(10):
            tracer.start_span(f"s{i}").end()
        names = [r["name"] for r in tracer.spans()]
        assert names == ["s6", "s7", "s8", "s9"]

    def test_forked_child_reconfigures_while_parent_lock_is_held(self, tmp_path):
        """A worker forked while a parent thread records a span inherits
        the tracer lock held; reconfiguring must not wait on it."""
        import time

        tracer = obs.configure(trace_dir=tmp_path)
        tracer._lock.acquire()  # a parent thread mid-record at fork time
        try:
            pid = os.fork()
            if pid == 0:  # pragma: no cover - runs in the child
                obs.configure(trace_dir=tmp_path)
                obs.disable()
                os._exit(0)
            deadline = time.monotonic() + 10.0
            while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
                if time.monotonic() > deadline:
                    os.kill(pid, 9)
                    os.waitpid(pid, 0)
                    pytest.fail("child deadlocked on the inherited tracer lock")
                time.sleep(0.01)
            assert os.waitstatus_to_exitcode(done[1]) == 0
        finally:
            tracer._lock.release()

    def test_jsonl_file_per_pid(self, tmp_path):
        tracer = obs.configure(trace_dir=tmp_path)
        tracer.start_span("a").end()
        tracer.start_span("b").end()
        path = tmp_path / f"spans-{os.getpid()}.jsonl"
        assert path.exists()
        lines = path.read_text().splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["a", "b"]

    def test_export_ring_buffer(self, tmp_path):
        tracer = obs.configure()
        tracer.start_span("x").end()
        out = tmp_path / "dump.jsonl"
        assert tracer.export(out) == 1
        assert json.loads(out.read_text())["name"] == "x"

    def test_finish_hooks(self):
        tracer = obs.configure()
        seen = []
        tracer.add_finish_hook(lambda record: seen.append(record["name"]))
        tracer.start_span("hooked").end()
        assert seen == ["hooked"]
        tracer.remove_finish_hook(tracer._hooks[0])
        tracer.start_span("silent").end()
        assert seen == ["hooked"]
        tracer.remove_finish_hook(lambda r: None)  # absent hook: no-op

    def test_attributes_json_coerced(self, tmp_path):
        tracer = obs.configure(trace_dir=tmp_path)
        tracer.start_span(
            "np", attributes={"f": np.float64(1.5), "a": (np.int64(2), "s")}
        ).end()
        line = (tmp_path / f"spans-{os.getpid()}.jsonl").read_text()
        attrs = json.loads(line)["attributes"]
        assert attrs == {"f": 1.5, "a": [2, "s"]}

    def test_ids_never_touch_numpy_rng(self):
        state = np.random.get_state()[1].copy()
        tracer = obs.configure()
        for _ in range(32):
            tracer.start_span("rng-free").end()
        assert np.array_equal(np.random.get_state()[1], state)

    def test_configure_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(obs.TRACE_ENV, raising=False)
        assert obs.configure_from_env() is obs.active()
        assert not obs.active().enabled
        monkeypatch.setenv(obs.TRACE_ENV, str(tmp_path))
        tracer = obs.configure_from_env()
        assert tracer.enabled
        assert tracer.trace_dir == tmp_path
        # same pid: idempotent (the tracer object is reused)
        assert obs.configure_from_env() is tracer

    def test_reset_and_disable(self):
        tracer = obs.configure()
        tracer.start_span("gone").end()
        tracer.reset()
        assert tracer.spans() == []
        obs.disable()
        assert not obs.active().enabled


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------


def _make_trace(tmp_path) -> list[dict]:
    tracer = obs.configure(trace_dir=tmp_path)
    with tracer.start_span("root", attributes={"size": 4}) as root:
        tracer.record_span(
            "fast", parent=root, start_s=root.start_s, end_s=root.start_s + 1e-9
        )
        with tracer.start_span("slow"):
            pass
    obs.disable()
    return report.read_spans(tmp_path)


class TestReport:
    def test_read_spans_skips_corrupt_lines(self, tmp_path):
        good = {"span_id": "a", "trace_id": "t", "name": "ok", "start_s": 0.0}
        (tmp_path / "spans-1.jsonl").write_text(
            json.dumps(good) + "\n" + '{"torn": tru' + "\nnot json\n"
        )
        (tmp_path / "spans-2.jsonl").write_text('{"no_span_id": 1}\n')
        spans = report.read_spans(tmp_path)
        assert [s["name"] for s in spans] == ["ok"]

    def test_build_trees_links_children(self, tmp_path):
        spans = _make_trace(tmp_path)
        roots = report.build_trees(spans)
        assert len(roots) == 1
        assert roots[0].name == "root"
        assert sorted(child.name for child in roots[0].children) == ["fast", "slow"]
        assert len(list(roots[0].walk())) == 3

    def test_orphans_promoted_to_roots(self):
        spans = [
            {"span_id": "c", "trace_id": "t", "parent_id": "dead",
             "name": "orphan", "start_s": 0.0, "end_s": 1.0, "duration_s": 1.0},
        ]
        roots = report.build_trees(spans)
        assert len(roots) == 1
        assert roots[0].name == "orphan"

    def test_summarize_counts_and_errors(self, tmp_path):
        spans = _make_trace(tmp_path)
        spans.append(
            {"span_id": "e", "trace_id": "t2", "name": "fast",
             "status": "error", "duration_s": 0.5, "start_s": 0.0, "end_s": 0.5}
        )
        stats = report.summarize(spans)
        assert stats["fast"]["count"] == 2
        assert stats["fast"]["errors"] == 1
        assert stats["root"]["count"] == 1
        assert stats["root"]["errors"] == 0
        table = report.format_summary(spans)
        assert "fast" in table and "span" in table

    def test_slowest_and_critical_path_and_render(self, tmp_path):
        spans = _make_trace(tmp_path)
        roots = report.slowest_traces(spans, limit=1)
        assert len(roots) == 1
        path = report.critical_path(roots[0])
        assert path[0].name == "root"
        assert path[-1].name == "slow"  # ended last → dominates the finish
        rendered = report.render_tree(roots[0])
        assert "root" in rendered and "slow" in rendered and "*" in rendered
        assert "size=4" in rendered

    def test_export_spans_merges_sorted(self, tmp_path):
        _make_trace(tmp_path / "trace")
        out = tmp_path / "merged.jsonl"
        count = report.export_spans(tmp_path / "trace", out)
        assert count == 3
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(lines) == 3
        keys = [(r["trace_id"], r["start_s"]) for r in lines]
        assert keys == sorted(keys)


# ----------------------------------------------------------------------
# service integration (thread tier)
# ----------------------------------------------------------------------


class TestServiceTracing:
    def test_request_span_tree_and_batch_links(self, tmp_path):
        obs.configure(trace_dir=tmp_path)
        requests = mixed_traffic(12, unique_matrices=3, sizes=(12, 16), seed=9)
        with SolverService(ServiceConfig(workers=2)) as service:
            tickets = [service.submit_request(r) for r in requests]
            for ticket in tickets:
                ticket.result()
            metrics = service.metrics()
        obs.disable()
        spans = report.read_spans(tmp_path)
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        assert len(by_name["serve.request"]) == len(requests)
        # every request span owns queue + execute children
        request_ids = {s["span_id"] for s in by_name["serve.request"]}
        for stage in ("serve.queue", "serve.execute"):
            parents = {s["parent_id"] for s in by_name[stage]}
            assert parents <= request_ids
            assert len(by_name[stage]) == len(requests)
        # batch spans link their member request spans
        member_ids = set()
        for batch in by_name["serve.batch"]:
            member_ids.update(batch["attributes"]["members"])
        assert member_ids == request_ids
        # kernel spans nest under batch spans (via use_span)
        batch_ids = {s["span_id"] for s in by_name["serve.batch"]}
        assert {s["parent_id"] for s in by_name["serve.kernel"]} <= batch_ids
        # span-finish hook fed the per-stage metrics
        assert {"queue", "execute", "kernel"} <= set(metrics.stages)
        for stats in metrics.stages.values():
            assert stats["count"] >= 1
            assert stats["max_s"] >= stats["mean_s"] >= 0.0
        assert "stage queue (ms)" in metrics.table()

    def test_prepare_span_per_cache_miss(self, tmp_path):
        obs.configure(trace_dir=tmp_path)
        requests = mixed_traffic(8, unique_matrices=2, sizes=(12,), seed=3)
        with SolverService(ServiceConfig(workers=1)) as service:
            for request in requests:
                service.submit_request(request).result()
        obs.disable()
        spans = report.read_spans(tmp_path)
        prepares = [s for s in spans if s["name"] == "serve.prepare"]
        # one prepare per distinct matrix (cache hits don't re-prepare)
        assert len(prepares) == len({r.digest for r in requests})

    def test_failed_request_span_marked_error(self):
        obs.configure()
        with SolverService(ServiceConfig(workers=1)) as service:
            requests = mixed_traffic(2, unique_matrices=1, sizes=(12,), seed=1)
            service.submit_request(requests[0]).result()
        tracer = obs.active()
        with pytest.raises(Exception):
            service.submit_request(requests[1]).result()
        records = [r for r in tracer.spans() if r["name"] == "serve.request"]
        assert records[-1]["status"] == "error"
        assert "ServiceClosedError" in records[-1]["error"]

    def test_trace_dir_validation(self):
        with pytest.raises(ServeError):
            ServiceConfig(trace_dir=123)

    def test_stages_empty_without_tracing(self):
        requests = mixed_traffic(4, unique_matrices=1, sizes=(12,), seed=2)
        with SolverService(ServiceConfig(workers=1)) as service:
            for request in requests:
                service.submit_request(request).result()
            metrics = service.metrics()
        assert metrics.stages == {}


# ----------------------------------------------------------------------
# zero-perturbation: bit-identity traced vs untraced vs golden
# ----------------------------------------------------------------------


class TestZeroPerturbation:
    def test_mixed_traffic_bit_identical_traced(self, tmp_path):
        # Same workload and config as the serve_mixed_traffic golden.
        requests = mixed_traffic(24, seed=123)
        untraced, _ = run_sequential(requests, ServiceConfig())

        obs.configure(trace_dir=tmp_path)
        traced, _ = run_sequential(requests, ServiceConfig())
        with SolverService(ServiceConfig(workers=2)) as service:
            tickets = [service.submit_request(r) for r in requests]
            concurrent = [t.result() for t in tickets]
        obs.disable()

        for ref, seq, conc in zip(untraced, traced, concurrent):
            assert np.array_equal(ref.x, seq.x)
            assert np.array_equal(ref.reference, seq.reference)
            assert np.array_equal(ref.x, conc.x)
            assert np.array_equal(ref.reference, conc.reference)
        # the traced runs really did trace
        assert any(
            s["name"] == "serve.kernel" for s in report.read_spans(tmp_path)
        )

    def test_traced_run_matches_golden_record(self, tmp_path):
        if not GOLDEN.exists():  # pragma: no cover - fresh checkout
            pytest.skip("serve golden record not generated yet")
        obs.configure(trace_dir=tmp_path)
        requests = mixed_traffic(24, seed=123)
        results, _ = run_sequential(requests, ServiceConfig())
        obs.disable()
        golden = np.load(GOLDEN, allow_pickle=False)
        x = np.concatenate([r.x for r in results])
        if STRICT:
            assert np.array_equal(x, golden["x"])
        else:  # pragma: no cover - foreign BLAS stack
            assert np.max(np.abs(x - golden["x"])) < 1e-10


# ----------------------------------------------------------------------
# network integration (process tier)
# ----------------------------------------------------------------------


class TestNetTracing:
    def test_end_to_end_trace_stitches_processes(self, tmp_path):
        # 4 unique matrices so the digest → shard routing provably hits
        # both workers (2 digests can land on one shard).
        requests = mixed_traffic(8, unique_matrices=4, sizes=(12, 16), seed=11)
        service = ServiceConfig(workers=2, max_batch_size=8, trace_dir=str(tmp_path))
        with NetServer(NetServerConfig(service=service)) as server:
            host, port = server.address
            with NetClient(host, port) as client:
                outcomes = drive_network(client, requests, max_rounds=3)
        obs.disable()
        assert not any(isinstance(o, Exception) for o in outcomes)

        spans = report.read_spans(tmp_path)
        trees = {
            root.span_id: root
            for root in report.build_trees(spans)
            if root.name == "client.request"
        }
        assert len(trees) == len(requests)
        pids = set()
        for root in trees.values():
            names = [node.name for node in root.walk()]
            # client → server → shard worker, one consistent trace id
            assert names[0] == "client.request"
            assert "server.request" in names
            assert "shard.request" in names
            assert "shard.solve" in names
            assert len({node.trace_id for node in root.walk()}) == 1
            pids.update(node.record["pid"] for node in root.walk())
        # the tree genuinely crosses process boundaries
        assert len(pids) >= 3

    def test_killed_worker_spans_failed_not_lost(self, tmp_path, monkeypatch):
        """SIGKILL a shard worker mid-storm: surviving requests' span
        trees complete; the killed shard's requests surface as *failed*
        server-side spans, never as silently missing traces."""
        plan = ChaosPlan(
            seed=3, worker_kill_rate=1.0, state_dir=str(tmp_path / "chaos")
        )
        monkeypatch.setenv(CHAOS_ENV, list(plan.chaos_env().values())[0])
        trace_dir = tmp_path / "trace"
        requests = mixed_traffic(6, unique_matrices=1, sizes=(12,), seed=4)
        service = ServiceConfig(
            workers=1,
            max_batch_size=4,
            resilience=dataclasses.replace(
                ServiceConfig().resilience, breaker_threshold=0, max_shard_restarts=10
            ),
            trace_dir=str(trace_dir),
        )
        with NetServer(NetServerConfig(service=service)) as server:
            host, port = server.address
            with NetClient(host, port, timeout_s=120.0) as client:
                outcomes = drive_network(
                    client, requests, max_rounds=8, timeout_s=120.0
                )
                metrics = client.metrics()
        obs.disable()
        monkeypatch.delenv(CHAOS_ENV)
        assert metrics.shard_crashes >= 1  # the kill genuinely landed

        spans = report.read_spans(trace_dir)
        server_spans = [s for s in spans if s["name"] == "server.request"]
        failed = [s for s in server_spans if s["status"] == "error"]
        # the killed shard's in-flight requests were marked failed...
        assert failed
        assert any("shard" in (s["error"] or "") for s in failed)
        # ...and the survivors (including retries) form complete trees
        complete = [
            root
            for root in report.build_trees(spans)
            if root.name == "client.request"
            and root.status == "ok"
            and any(node.name == "shard.solve" for node in root.walk())
        ]
        successes = sum(1 for o in outcomes if not isinstance(o, Exception))
        assert successes >= 1
        assert len(complete) >= successes


# ----------------------------------------------------------------------
# campaign integration
# ----------------------------------------------------------------------


class TestCampaignTracing:
    def test_campaign_units_parented_under_run(self, tmp_path, monkeypatch):
        from repro.campaigns import get_campaign, run_campaign

        monkeypatch.setenv(obs.TRACE_ENV, str(tmp_path / "trace"))
        spec = get_campaign("fig7-variation", quick=True)
        run_campaign(spec, tmp_path / "store", workers=0, max_units=2)
        obs.disable()
        spans = report.read_spans(tmp_path / "trace")
        runs = [s for s in spans if s["name"] == "campaign.run"]
        units = [s for s in spans if s["name"] == "campaign.unit"]
        assert len(runs) == 1
        assert len(units) == 2
        assert runs[0]["attributes"]["completed"] == 2
        for unit in units:
            assert unit["trace_id"] == runs[0]["trace_id"]
            assert unit["parent_id"] == runs[0]["span_id"]
            assert unit["attributes"]["key"]

    def test_campaign_untraced_without_env(self, tmp_path, monkeypatch):
        from repro.campaigns import get_campaign, run_campaign

        monkeypatch.delenv(obs.TRACE_ENV, raising=False)
        spec = get_campaign("fig7-variation", quick=True)
        run = run_campaign(spec, tmp_path / "store", workers=0, max_units=1)
        assert run.completed_units == 1
        assert not obs.active().enabled


# ----------------------------------------------------------------------
# metrics satellites: full-surface as_dict/table + round trip
# ----------------------------------------------------------------------


def _full_metrics() -> ServiceMetrics:
    recorder = MetricsRecorder()
    recorder.record_submit()
    recorder.record_submit()
    recorder.record_rejected()
    recorder.record_shed()
    recorder.record_deadline_miss()
    recorder.record_retry()
    recorder.record_breaker_transition()
    recorder.record_degraded()
    recorder.record_shard_crash()
    recorder.record_batch(2)
    recorder.record_prepare(0.25)
    recorder.record_stage("queue", 0.002)
    recorder.record_stage("queue", 0.004)
    recorder.record_stage("execute", 0.010)
    recorder.record_done(0.010)
    recorder.record_done(0.030, failed=True)
    return recorder.snapshot(CacheStats(hits=3, misses=2, evictions=1))


class TestMetricsSurface:
    def test_as_dict_covers_every_field(self):
        metrics = _full_metrics()
        data = metrics.as_dict()
        for field in dataclasses.fields(ServiceMetrics):
            if field.name == "cache":
                continue  # inlined as cache_* keys
            assert field.name in data, f"as_dict missing {field.name}"
        for counter in ("hits", "misses", "evictions", "hit_rate"):
            assert f"cache_{counter}" in data

    def test_round_trip_preserves_all_fields(self):
        metrics = _full_metrics()
        rebuilt = ServiceMetrics.from_dict(metrics.as_dict())
        assert rebuilt == metrics
        assert ServiceMetrics.from_json(metrics.as_json()) == metrics

    def test_round_trip_tolerates_pre_stages_payloads(self):
        data = _full_metrics().as_dict()
        data.pop("stages")
        rebuilt = ServiceMetrics.from_dict(data)
        assert rebuilt.stages == {}

    def test_table_shows_every_counter(self):
        metrics = _full_metrics()
        table = metrics.table()
        for label in (
            "requests completed", "requests failed", "requests rejected",
            "requests shed", "deadline misses", "isolation retries",
            "breaker transitions", "degraded (fallback)", "shard crashes",
            "throughput (solve/s)", "latency p50 (ms)", "latency p95 (ms)",
            "latency p99 (ms)", "latency mean (ms)", "latency max (ms)",
            "wall clock (s)", "batches executed", "mean batch size",
            "batch-size histogram", "cache hit rate", "prepare time (s)",
            "stage queue (ms)", "stage execute (ms)",
        ):
            assert label in table, f"table missing {label}"

    def test_stage_snapshot_stats(self):
        metrics = _full_metrics()
        queue = metrics.stages["queue"]
        assert queue["count"] == 2
        assert queue["total_s"] == pytest.approx(0.006)
        assert queue["mean_s"] == pytest.approx(0.003)
        assert queue["max_s"] == pytest.approx(0.004)
