"""HTTP serving smoke tests, including the CLI offline→online lifecycle:
``repro export`` writes a checkpoint, the server boots from it on an
ephemeral port, and the JSON endpoints answer.
"""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cli import main
from repro.serve import (
    MetricsRegistry,
    ServingEngine,
    TopKIndex,
    create_server,
    engine_from_checkpoint,
)


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


def _post(url: str, payload: dict):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


@pytest.fixture(scope="module")
def served_checkpoint(tmp_path_factory):
    """Run `repro export` on a 2-epoch music model, boot the server."""
    ckpt = str(tmp_path_factory.mktemp("serve") / "ckpt")
    code = main(
        ["export", "--dataset", "music", "--scale", "0.3", "--model", "cg-kgr",
         "--epochs", "2", "--eval-users", "5", "--out", ckpt]
    )
    assert code == 0
    engine = engine_from_checkpoint(ckpt)
    server = create_server(engine, port=0, micro_batch=8, max_wait_ms=1.0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.port}", engine
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestServerEndpoints:
    def test_healthz(self, served_checkpoint):
        base, engine = served_checkpoint
        status, payload = _get(base + "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["model"] == "CG-KGR"
        assert payload["indexed_users"] == engine.index.n_indexed_users

    def test_healthz_operational_fields(self, served_checkpoint):
        base, engine = served_checkpoint
        _, payload = _get(base + "/healthz")
        assert payload["uptime_s"] > 0
        assert payload["requests_total"] >= 1
        expected_kind = "ivf" if engine.index.mode == "ann" else "exact"
        assert payload["index_kind"] == expected_kind
        # Per-SLO status (defaults applied when --slo is not passed).
        names = {entry["name"] for entry in payload["slo"]}
        assert names == {"latency_p99", "availability"}
        for entry in payload["slo"]:
            assert {"target", "attained", "met", "budget_consumed"} <= set(entry)

    def test_recommend_get(self, served_checkpoint):
        base, engine = served_checkpoint
        status, payload = _get(base + "/recommend?user=1&k=5")
        assert status == 200
        assert payload["user"] == 1
        assert len(payload["items"]) == 5
        assert payload["scores"] == sorted(payload["scores"], reverse=True)
        expected, _ = engine.recommend(1, 5)
        assert payload["items"] == expected.tolist()

    def test_recommend_post_batch(self, served_checkpoint):
        base, _ = served_checkpoint
        status, payload = _post(base + "/recommend", {"users": [0, 2], "k": 3})
        assert status == 200
        assert [r["user"] for r in payload["results"]] == [0, 2]
        assert all(len(r["items"]) == 3 for r in payload["results"])

    def test_score(self, served_checkpoint):
        base, engine = served_checkpoint
        status, payload = _post(base + "/score", {"user": 1, "items": [0, 1, 2]})
        assert status == 200
        expected = engine.score(1, np.array([0, 1, 2]))
        np.testing.assert_allclose(payload["scores"], expected, atol=1e-7)

    def test_metrics_exposition(self, served_checkpoint):
        base, _ = served_checkpoint
        with urllib.request.urlopen(base + "/metrics", timeout=10) as response:
            text = response.read().decode()
        assert "repro_serve_http_requests" in text
        assert "repro_serve_cache_hit_rate" in text
        assert "http_request_latency_seconds" in text

    def test_metrics_exposition_is_lint_clean(self, served_checkpoint):
        from repro.obs.serving import lint_prometheus

        base, _ = served_checkpoint
        _get(base + "/recommend?user=1&k=5")  # ensure latency summaries exist
        with urllib.request.urlopen(base + "/metrics", timeout=10) as response:
            text = response.read().decode()
        assert lint_prometheus(text) == []
        assert "# HELP repro_serve_http_requests" in text
        assert "repro_serve_window_qps" in text
        assert "repro_serve_slo_latency_p99_budget_consumed" in text
        assert "repro_serve_uptime_seconds" in text

    def test_unknown_route_404(self, served_checkpoint):
        base, _ = served_checkpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base + "/nope")
        assert excinfo.value.code == 404

    def test_unknown_user_404(self, served_checkpoint):
        base, _ = served_checkpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base + "/recommend?user=99999")
        assert excinfo.value.code == 404

    def test_malformed_request_400(self, served_checkpoint):
        base, _ = served_checkpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base + "/recommend", {"k": 3})  # no user(s)
        assert excinfo.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base + "/recommend")  # missing query parameter
        assert excinfo.value.code == 400


class TestRequestTracing:
    def test_request_id_minted_and_echoed(self, served_checkpoint):
        base, _ = served_checkpoint
        with urllib.request.urlopen(base + "/recommend?user=1&k=3") as response:
            payload = json.loads(response.read())
            header_id = response.headers.get("X-Request-Id")
        assert payload["request_id"]
        assert payload["request_id"] == header_id

    def test_incoming_request_id_adopted(self, served_checkpoint):
        base, _ = served_checkpoint
        request = urllib.request.Request(
            base + "/recommend?user=1&k=3",
            headers={"X-Request-Id": "trace-me-123"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            payload = json.loads(response.read())
        assert payload["request_id"] == "trace-me-123"

    def test_error_payload_carries_request_id_and_status(self, served_checkpoint):
        base, _ = served_checkpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base + "/recommend")  # missing user → 400
        body = json.loads(excinfo.value.read())
        assert body["status"] == 400
        assert body["request_id"]
        assert "user" in body["error"]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base + "/nope")
        body = json.loads(excinfo.value.read())
        assert body["status"] == 404
        assert body["request_id"]

    def test_debug_slow_returns_span_trees(self, served_checkpoint):
        base, _ = served_checkpoint
        for user in (0, 1, 2):
            _get(base + f"/recommend?user={user}&k=3")
        status, payload = _get(base + "/debug/slow")
        assert status == 200
        assert payload["count"] >= 3
        assert payload["count"] == len(payload["slowest"])
        durations = [t["dur_ms"] for t in payload["slowest"]]
        assert durations == sorted(durations, reverse=True)
        # At least one retained trace is a successful /recommend with nested
        # spans.  The module-scoped server also answers other tests'
        # requests (e.g. an unknown user's 404), which may rank slower.
        recommends = [
            t for t in payload["slowest"]
            if t["path"] == "/recommend" and t["spans"] and t["status"] == 200
        ]
        assert recommends
        trace = recommends[0]
        assert trace["request_id"] and trace["status"] == 200
        names = {s["name"] for s in trace["spans"]}
        assert "batch.wait" in names or "cache.lookup" in names

        def walk(spans):
            for span in spans:
                yield span
                yield from walk(span["children"])

        all_names = {s["name"] for s in walk(trace["spans"])}
        # The engine layers recorded into the request's own trace.
        assert {"cache.lookup"} & all_names or {"engine.microbatch"} & all_names


class TestSLOEndToEnd:
    def test_impossible_slo_violates_and_burns(self, served_checkpoint, tmp_path):
        """A server with an unmeetable SLO emits a slo_violation event,
        exports a nonzero burn rate, and `obs top` shows the burn."""
        from repro.obs.events import Tracer
        from repro.obs.serving import (
            fetch_metrics,
            sample_from_metrics,
            top_frame,
        )

        _, engine = served_checkpoint
        trace_path = str(tmp_path / "serve.jsonl")
        tracer = Tracer(path=trace_path)
        server = create_server(
            engine,
            port=0,
            micro_batch=None,
            tracer=tracer,
            slo_specs=("p99<0.001ms",),  # 1 µs: every request violates
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            base = f"http://127.0.0.1:{server.port}"
            for user in (0, 1, 2):
                _get(base + f"/recommend?user={user}&k=3")
            parsed = fetch_metrics(base)
            sample = sample_from_metrics(parsed)
            assert sample.slo_violations >= 1
            assert sample.burn_rate is not None and sample.burn_rate > 0
            frame = top_frame(sample, url=base)
            assert "burn" in frame and "violations" in frame
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            tracer.close()
        events = [json.loads(line) for line in open(trace_path)]
        violations = [
            e for e in events
            if e.get("kind") == "event" and e.get("name") == "slo_violation"
        ]
        assert violations
        assert violations[0]["attrs"]["slo_name"] == "latency_p99"
        exemplars = [e for e in events if e.get("name") == "slo_violation_exemplars"]
        assert exemplars and exemplars[0]["attrs"]["slowest"]


class TestMetricsRegistry:
    def test_counters_and_histograms(self):
        metrics = MetricsRegistry()
        metrics.inc("requests", 3)
        for value in (0.010, 0.020, 0.030):
            metrics.observe("recommend_latency_seconds", value)
        snap = metrics.snapshot()
        assert snap["counters"]["requests"] == 3
        hist = snap["histograms"]["recommend_latency_seconds"]
        assert hist["count"] == 3
        assert hist["p50"] == pytest.approx(0.020)
        text = metrics.render()
        assert "repro_serve_requests 3" in text
        assert 'quantile="0.5"' in text

    def test_hit_rate_derivation(self):
        metrics = MetricsRegistry()
        metrics.inc("cache_hits", 3)
        metrics.inc("cache_misses", 1)
        assert metrics.snapshot()["cache_hit_rate"] == 0.75

    def test_histogram_window_bounds_memory(self):
        from repro.obs.metrics import LatencyHistogram

        hist = LatencyHistogram(window=10)
        for value in range(100):
            hist.observe(float(value))
        assert hist.count == 100
        # Percentiles reflect only the retained window (90..99).
        assert hist.percentile(0) >= 90.0

    def test_negative_latency_rejected(self):
        from repro.obs.metrics import LatencyHistogram

        with pytest.raises(ValueError):
            LatencyHistogram().observe(-1.0)


def test_listen_backlog_absorbs_concurrent_connects():
    # socketserver's default backlog of 5 drops the SYNs of a concurrent
    # burst, and each dropped connect waits out a ~1 s retransmit.
    from repro.serve import RecommendationServer

    assert RecommendationServer.request_queue_size >= 64


def test_serve_cli_parser_wiring():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["serve", "--checkpoint", "/tmp/x", "--port", "0", "--index-users", "5",
         "--slo", "p99<10ms", "--slo", "availability>=99%", "--slow-log", "8"]
    )
    assert args.checkpoint == "/tmp/x"
    assert args.port == 0
    assert args.index_users == 5
    assert args.slo == ["p99<10ms", "availability>=99%"]
    assert args.slow_log == 8


def test_obs_cli_parser_wiring():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["obs", "top", "--url", "http://h:1", "--count", "2", "--no-clear"]
    )
    assert args.url == "http://h:1"
    assert args.count == 2
    assert args.no_clear
    args = build_parser().parse_args(
        ["obs", "dashboard", "--url", "http://h:1", "--out", "/tmp/d.html",
         "--samples", "3", "--interval", "0.1"]
    )
    assert args.out == "/tmp/d.html"
    assert args.samples == 3


def test_obs_top_cli_renders_live_server(served_checkpoint, capsys):
    """`repro obs top --count N` renders N frames and exits cleanly."""
    base, _ = served_checkpoint
    code = main(["obs", "top", "--url", base, "--count", "1", "--no-clear"])
    assert code == 0
    out = capsys.readouterr().out
    assert "repro obs top" in out
    assert "requests" in out and "latency" in out


def test_obs_dashboard_cli_renders_live_server(served_checkpoint, tmp_path):
    """`repro obs dashboard` polls a live /metrics and writes HTML."""
    base, _ = served_checkpoint
    out = str(tmp_path / "dashboard.html")
    code = main(
        ["obs", "dashboard", "--url", base, "--out", out,
         "--samples", "2", "--interval", "0.05"]
    )
    assert code == 0
    page = open(out).read()
    assert "repro serving dashboard" in page
    assert "polyline" in page
