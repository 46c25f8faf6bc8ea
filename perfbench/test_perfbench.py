"""Tests of the benchmark itself (stdlib servers only, no model):

    python3 -m pytest perfbench
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
from loadgen import Request, RequestStream, run_closed_loop  # noqa: E402
from stats import percentile, samples_beyond, tail_percentile, valid_metric_name  # noqa: E402

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Request generator
# ----------------------------------------------------------------------
def _take(stream, n):
    return [next(stream) for _ in range(n)]


def test_stream_is_deterministic_per_seed():
    users = list(range(120))
    first = _take(RequestStream(7, users, 140), 2000)
    again = _take(RequestStream(7, users, 140), 2000)
    other = _take(RequestStream(8, users, 140), 2000)
    assert first == again
    assert first != other


def test_stream_mix_and_zipf_skew():
    requests = _take(RequestStream(3, list(range(120)), 140), 20000)
    scores = [r for r in requests if r.kind == "score"]
    assert 0.08 < len(scores) / len(requests) < 0.12
    assert all(len(set(r.items)) == 50 and max(r.items) < 140 for r in scores)
    counts = {}
    for r in requests:
        counts[r.user] = counts.get(r.user, 0) + 1
    ranked = sorted(counts.values(), reverse=True)
    # Zipf(1.1) over 120 users: the hottest user gets a large share and
    # the head dominates the tail.
    assert ranked[0] / len(requests) > 0.15
    assert sum(ranked[:10]) > 3 * sum(ranked[-60:])


# ----------------------------------------------------------------------
# Percentile rule and metric names
# ----------------------------------------------------------------------
def test_percentile_interpolates_like_numpy():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 25) == 2.0
    assert percentile(values, 90) == pytest.approx(4.6)
    assert percentile([7.0], 99) == 7.0


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (100, 90.0), (901, 90.0), (902, 99.0),
     (9001, 99.0), (9002, 99.9)],
)
def test_tail_rule_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_metric_names_are_well_formed_and_match_the_driver():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert all(valid_metric_name(name) for name in names)
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert not valid_metric_name("serve p99")
    assert not valid_metric_name("latency/ms")


# ----------------------------------------------------------------------
# Stub servers
# ----------------------------------------------------------------------
EXPECTED = {
    "recommend": [{"user": 3, "items": [5, 1, 2], "scores": [0.9, 0.5, 0.25]}],
    "score": [{"user": 3, "items": [7, 8], "scores": [0.125, -0.5]}],
}


def _serve(handler_cls):
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler_cls)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _stub(protocol, corrupt=False):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = protocol

        def _send(self, payload):
            body = json.dumps(payload).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):  # noqa: N802
            case = dict(EXPECTED["recommend"][0])
            if corrupt:
                case["items"] = [1, 5, 2]  # two items swapped
            self._send(case)

        def do_POST(self):  # noqa: N802
            self.rfile.read(int(self.headers["Content-Length"]))
            case = dict(EXPECTED["score"][0])
            if corrupt:
                case["scores"] = [0.125, -0.4999]
            self._send(case)

        def log_message(self, *args):
            pass

    return Handler


@pytest.mark.parametrize("corrupt", [False, True])
def test_corrupted_served_result_trips_the_check(corrupt):
    server, thread = _serve(_stub("HTTP/1.0", corrupt=corrupt))
    try:
        res = run.Result()
        run.verify_served(res, server.server_address[1], EXPECTED)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert res.attempted == 2
    assert len(res.failures) == (2 if corrupt else 0)


def test_check_functions_compare_items_exactly_and_scores_closely():
    case = EXPECTED["recommend"][0]
    assert checks.check_recommend(dict(case), case) is None
    assert checks.check_recommend(dict(case, scores=[0.9, 0.5, 0.250000001]), case) is None
    assert checks.check_recommend(dict(case, items=[5, 2, 1]), case) is not None
    assert checks.check_recommend(dict(case, scores=[0.9, 0.5, 0.26]), case) is not None
    assert checks.check_losses([1.3, 1.2, float("nan")]) is not None
    assert checks.check_losses([1.3, 1.35]) is not None
    assert checks.check_losses([1.3, 1.1]) is None
    assert checks.check_recall(0.2, 160) is None
    assert checks.check_recall(0.1, 160) is not None


def test_run_stopped_by_a_non_finite_loss_fails(tmp_path, capsys):
    # What the parent sees when training stopped on a NaN loss before
    # any measured epoch: the loss check and the missing samples fail the
    # run, which still prints every metric and exits 1.
    res = run.Result()
    res.metric("setup_s", [1.5, 1.6, 1.7])
    res.check(checks.check_losses([1.38, float("nan")]))
    res.metric("epoch_s", [])
    args = argparse.Namespace(workload="train-movie", seed=1, seconds=1.0, trace=0)
    assert run.report(args, res, tmp_path, "nan") == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 2)
    assert set(result["metrics"]) == set(run.E2E_UNITS)


# ----------------------------------------------------------------------
# Load generator connection handling
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol, reuses", [("HTTP/1.0", False), ("HTTP/1.1", True)])
def test_load_generator_reuses_only_kept_alive_connections(protocol, reuses):
    server, thread = _serve(_stub(protocol))
    requests = [Request("recommend", 3, k=3) if i % 3 else Request("score", 3, items=(7, 8))
                for i in range(60)]
    try:
        result = run_closed_loop("127.0.0.1", server.server_address[1], requests,
                                 connections=2)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert len(result.samples) == 60
    assert all(sample.ok for sample in result.samples)
    assert result.connects == (2 if reuses else 60)
    assert result.cpu_s > 0
