#!/usr/bin/env python3
"""perfbench — the repository benchmark.

    python3 perfbench/run.py --workload train-movie --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``README.md``):

* ``train-movie`` / ``train-widekg`` — a fresh child process sets up a
  CG-KGR ``Trainer`` on the movie profile / a Last-FM-shaped catalogue
  and trains (``Trainer.train_epoch`` + ``Trainer.evaluate`` every epoch);
* ``serve-http`` — raw ``ratings_final.txt``/``kg_final.txt`` → ``repro
  prep`` → ``repro export`` → ``repro serve``, then closed-loop HTTP load.

Every workload reports every end-to-end metric with ``--trace 0``
(set-up, epoch and eval time, peak RSS) and every per-layer metric with
``--trace 1`` (layer spans of traced epochs, set-up stages, client and
server counters).  Correctness checks
run in the same command; the last stdout line is the JSON result, and
the exit code is 1 when a check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import importlib.metadata
import json
import os
import platform
import select
import shutil
import signal
import socket
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

from checks import check_losses, check_recall, check_recommend, check_reply, check_score
from loadgen import RequestStream, run_closed_loop
from stats import mean, median, percentile, summarize, tail_percentile
from workloads import SERVE_HTTP, TOP_K, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HOST = "127.0.0.1"
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Closed-loop client connections: at most one per core.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: BLAS threads of the ``repro serve`` process (spinning BLAS threads
#: would compete with the load generator for the cores).
SERVER_BLAS_THREADS = "1"
CHILD_TIMEOUT_S = 150.0
#: Timed replies a run needs for its p99 to have ten samples beyond it.
MIN_SERVED = 1000

E2E_UNITS = {"setup_s": "s", "epoch_s": "s", "eval_s": "s", "peak_rss_mb": "MB"}

TRAIN_LAYERS = (
    "sampler.resample", "sampler.negatives", "sampler.flow",
    "collab_attn.user.fwd", "collab_attn.item.fwd",
    "kg_attn.hop1.fwd", "kg_attn.hop2.fwd",
    "aggregator.fwd", "encoder.fwd", "embed.fwd", "predict.fwd", "loss.fwd",
    "backward", "optimizer.zero_grad", "optimizer.step", "optimizer.flush",
)
LAYER_UNITS = {
    **{f"{name}_ms": "ms" for name in TRAIN_LAYERS},
    "backward.relation_scores_ms": "ms", "backward.collab_scores_ms": "ms",
    "eval.score_ms": "ms", "eval.rank_ms": "ms",
    "steps": "count", "examples": "count", "edges_per_step": "count",
    "accounted_frac": "ratio", "trace_overhead_frac": "ratio",
    "setup.import_s": "s", "setup.dataset_s": "s", "setup.trainer_s": "s",
    "setup.prep_s": "s", "setup.export_s": "s", "setup.boot_s": "s",
    "client.rps": "1/s", "client.p50_ms": "ms", "client.p99_ms": "ms",
    "client.requests": "count", "client.connect_ms": "ms", "client.connects_per_req": "ratio",
    "client.recommend_ms": "ms", "client.score_ms": "ms", "client.cpu_ms_per_req": "ms",
    "http.server_ms": "ms", "http.outside_ms": "ms",
    "engine.recommend_ms": "ms", "engine.score_ms": "ms",
    "batch.size_mean": "count", "cache.hit_ratio": "ratio", "fallback.count": "count",
    "server.cpu_ms_per_req": "ms",
}


class BenchError(RuntimeError):
    """The workload could not be run (not a correctness failure)."""


# ----------------------------------------------------------------------
# Result accumulation
# ----------------------------------------------------------------------
class Result:
    def __init__(self):
        self.e2e: Dict[str, float] = {}
        self.layers: Dict[str, float] = {name: 0.0 for name in LAYER_UNITS}
        self.samples: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failures: List[str] = []
        self.notes: Dict[str, object] = {}

    def check(self, reason: Optional[str]) -> None:
        """Count one checked operation; record it as failed on a reason."""
        self.attempted += 1
        if reason is not None:
            self.failures.append(reason)

    def metric(self, name: str, samples: List[float]) -> None:
        """An end-to-end metric: the median of its samples.  A run that
        measured none (training stopped on a non-finite loss) fails."""
        if not samples:
            self.check(f"no {name} samples")
            return
        self.samples[name] = list(samples)
        self.e2e[name] = median(samples)


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
class Children:
    """Every process this run starts; all are stopped and reaped on exit."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.procs: List[subprocess.Popen] = []

    def env(self, **extra) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        env.update(extra)
        return env

    def spawn(self, argv, log: str, stdin=None, stdout=None, **env) -> subprocess.Popen:
        # Unbuffered pipes: await_line selects on the descriptor, so no
        # line may sit unread in a Python-side buffer.
        with open(self.workdir / log, "ab") as handle:
            proc = subprocess.Popen(
                argv, cwd=self.workdir, env=self.env(**env), stdin=stdin, bufsize=0,
                stdout=stdout if stdout is not None else handle, stderr=handle,
            )
        self.procs.append(proc)
        return proc

    def call(self, argv, log: str, timeout: float = CHILD_TIMEOUT_S, check: bool = True,
             **env) -> int:
        """Run ``argv`` to its end; a non-zero exit raises unless ``check``
        is false, in which case the caller gets the exit code."""
        proc = self.spawn(argv, log, **env)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{' '.join(map(str, argv[:4]))} timed out") from None
        if code != 0 and check:
            raise BenchError(f"{' '.join(map(str, argv[:4]))} exited {code}; see {log}")
        return code

    @staticmethod
    def stop(proc: subprocess.Popen) -> None:
        """SIGINT (``repro serve`` shuts down cleanly on it), then kill."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
        proc.wait()
        for pipe in (proc.stdin, proc.stdout):
            if pipe is not None:
                pipe.close()

    def stop_all(self) -> None:
        for proc in self.procs:
            self.stop(proc)


def await_line(proc: subprocess.Popen, tag: str, timeout: float = CHILD_TIMEOUT_S):
    """Wait for the child's ``TAG {json}`` stdout line; returns
    ``(arrival perf_counter, payload)``."""
    deadline = time.perf_counter() + timeout
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchError(f"child sent no {tag} line within {timeout:.0f}s")
        ready, _, _ = select.select([proc.stdout], [], [], remaining)
        if not ready:
            continue
        line = proc.stdout.readline()
        arrived = time.perf_counter()
        if not line:
            raise BenchError(f"child exited ({proc.wait()}) before {tag}")
        text = line.decode().strip()
        if text.startswith(tag + " "):
            return arrived, json.loads(text[len(tag) + 1:])


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a process (all its threads)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM in /proc status")


def host_cpu_ticks() -> List[int]:
    """Aggregate ``/proc/stat`` CPU ticks (user ... steal)."""
    with open("/proc/stat") as handle:
        return [int(x) for x in handle.readline().split()[1:]]


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


# ----------------------------------------------------------------------
# HTTP helpers (blocking; outside the measured load)
# ----------------------------------------------------------------------
def http_call(port: int, method: str, path: str, body: Optional[dict] = None):
    conn = http.client.HTTPConnection(HOST, port, timeout=30)
    try:
        payload = None if body is None else json.dumps(body)
        headers = {} if body is None else {"Content-Type": "application/json"}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def scrape_metrics(port: int) -> Dict[str, float]:
    """``/metrics`` counters, gauges and summary ``_sum``/``_count``."""
    status, body = http_call(port, "GET", "/metrics")
    if status != 200:
        raise BenchError(f"/metrics answered {status}")
    out = {}
    for line in body.decode().splitlines():
        if line.startswith("#") or "{" in line or not line.strip():
            continue
        name, value = line.rsplit(" ", 1)
        out[name.replace("repro_serve_", "", 1)] = float(value)
    return out


def wait_healthy(port: int, proc: subprocess.Popen, timeout: float = CHILD_TIMEOUT_S) -> None:
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if proc.poll() is not None:
            raise BenchError(f"server exited ({proc.returncode}) while booting")
        try:
            if http_call(port, "GET", "/healthz")[0] == 200:
                return
        except OSError:
            pass
        time.sleep(0.01)
    raise BenchError("server not healthy in time")


# ----------------------------------------------------------------------
# Serving (serve-http)
# ----------------------------------------------------------------------
def verify_served(res: Result, port: int, expect: dict) -> None:
    """Served rankings and scores for the sampled users must equal the
    offline expectations; each comparison is one checked operation."""
    for case in expect["recommend"]:
        status, body = http_call(port, "GET", f"/recommend?user={case['user']}&k={TOP_K}")
        res.check(f"/recommend answered {status}" if status != 200
                  else check_recommend(json.loads(body), case))
    for case in expect["score"]:
        status, body = http_call(port, "POST", "/score",
                                 {"user": case["user"], "items": case["items"]})
        res.check(f"/score answered {status}" if status != 200
                  else check_score(json.loads(body), case))


class Serving:
    """Closed-loop load windows, pooled over the workload's servers."""

    def __init__(self):
        self.load: list = []  # timed samples
        self.load_wall_s = 0.0
        self.connects = 0
        self.client_cpu_s = 0.0
        self.server_cpu_s = 0.0
        self.deltas: Dict[str, float] = {}
        self.peak_rss_mb = 0.0

    def window(self, pid: int, port: int, population: List[int], n_items: int,
               seconds: float, seed: int, min_samples: int) -> None:
        """Timed load on a fresh server: its result cache starts empty, so
        each user's first ``/recommend`` goes to the index (or, for users
        outside it, the model fallback), later ones hit the cache."""
        before = scrape_metrics(port)
        cpu0 = proc_cpu_s(pid)
        stream = RequestStream(seed, population, n_items)
        load = run_closed_loop(HOST, port, stream, seconds=seconds, connections=CONNECTIONS,
                               min_samples=min_samples)
        self.server_cpu_s += proc_cpu_s(pid) - cpu0
        after = scrape_metrics(port)
        for name, value in after.items():
            self.deltas[name] = self.deltas.get(name, 0.0) + value - before.get(name, 0.0)
        self.peak_rss_mb = max(self.peak_rss_mb, peak_rss_mb(pid))
        self.load += load.samples
        self.load_wall_s += load.wall_s
        self.connects += load.connects
        self.client_cpu_s += load.cpu_s


def report_serving(res: Result, serving: Serving, trace: bool, out_dir: Path, tag: str) -> None:
    """Check every reply; derive the serve metrics and serving layers."""
    everything = serving.load
    for sample in everything:
        want = TOP_K if sample.request.kind == "recommend" else len(sample.request.items)
        res.check(sample.error or (
            f"HTTP {sample.status}" if sample.status != 200
            else check_reply(sample.request.kind, sample.body, want)
        ))
    done = [s for s in serving.load if s.ok]
    latencies_ms = [1e3 * s.latency_s for s in done]
    tail = tail_percentile(len(latencies_ms))
    if tail is None or tail < 99.0:
        raise BenchError(f"only {len(latencies_ms)} served samples: too few for a p99")
    # Served throughput and latency follow the host's CPU steal from
    # minute to minute (ten-run spreads 0.3-1.1), so they are reported
    # with every run but gate nothing.
    res.layers["client.rps"] = len(done) / serving.load_wall_s
    res.layers["client.p50_ms"] = percentile(latencies_ms, 50)
    res.layers["client.p99_ms"] = percentile(latencies_ms, 99)
    res.samples["client.latency_ms"] = latencies_ms
    res.notes["serve"] = {
        "samples": len(latencies_ms),
        "connections": CONNECTIONS, "highest_valid_percentile": tail,
        f"p{tail:g}_ms": percentile(latencies_ms, tail),
    }

    delta = serving.deltas

    def mean_ms(hist: str) -> float:
        count = delta.get(f"{hist}_count", 0.0)
        return 1e3 * delta.get(f"{hist}_sum", 0.0) / count if count else 0.0

    requests = len(everything)
    by_kind = {kind: [1e3 * s.latency_s for s in done if s.request.kind == kind]
               for kind in ("recommend", "score")}
    lookups = delta.get("cache_hits", 0.0) + delta.get("cache_misses", 0.0)
    batches = delta.get("microbatch_size_count", 0.0)
    layers = res.layers
    layers["client.requests"] = float(len(serving.load))
    layers["client.connect_ms"] = 1e3 * mean(
        [s.connect_s for s in everything if s.connect_s is not None])
    layers["client.connects_per_req"] = serving.connects / requests
    layers["client.recommend_ms"] = median(by_kind["recommend"])
    layers["client.score_ms"] = median(by_kind["score"])
    layers["client.cpu_ms_per_req"] = 1e3 * serving.client_cpu_s / requests
    layers["http.server_ms"] = mean_ms("http_request_latency_seconds")
    layers["http.outside_ms"] = (
        mean([1e3 * s.latency_s for s in everything]) - layers["http.server_ms"])
    layers["engine.recommend_ms"] = mean_ms("recommend_latency_seconds")
    layers["engine.score_ms"] = mean_ms("score_latency_seconds")
    layers["batch.size_mean"] = delta.get("microbatch_size_sum", 0.0) / batches if batches else 0.0
    layers["cache.hit_ratio"] = delta.get("cache_hits", 0.0) / lookups if lookups else 0.0
    layers["fallback.count"] = delta.get("fallback_users", 0.0)
    layers["server.cpu_ms_per_req"] = 1e3 * serving.server_cpu_s / requests
    if trace:
        with open(out_dir / f"{tag}-requests.jsonl", "w") as handle:
            for s in everything:
                handle.write(json.dumps({
                    "kind": s.request.kind, "user": s.request.user, "status": s.status,
                    "latency_ms": 1e3 * s.latency_s,
                    "connect_ms": None if s.connect_s is None else 1e3 * s.connect_s,
                }) + "\n")


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def run_train(args, res: Result, kids: Children, out_dir: Path, tag: str) -> None:
    child = [sys.executable, str(HERE / "child.py")]
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    walls, parts = [], []
    for i in range(SETUP_REPEATS - 1):
        t0 = time.perf_counter()
        proc = kids.spawn(child + ["setup"] + common, f"setup{i}.log", stdout=subprocess.PIPE)
        arrived, info = await_line(proc, "READY")
        walls.append(arrived - t0)
        parts.append(info)
        if proc.wait(timeout=CHILD_TIMEOUT_S) != 0:
            raise BenchError(f"setup child exited {proc.returncode}")

    t0 = time.perf_counter()
    proc = kids.spawn(
        child + ["run"] + common + [
            "--train-seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", "result.json", "--spans", str(out_dir / f"{tag}-spans.jsonl"),
        ],
        "run.log", stdout=subprocess.PIPE,
    )
    arrived, info = await_line(proc, "READY")
    walls.append(arrived - t0)
    parts.append(info)
    if proc.wait(timeout=CHILD_TIMEOUT_S) != 0:
        raise BenchError(f"run child exited {proc.returncode}; see run.log")
    with open(kids.workdir / "result.json") as handle:
        out = json.load(handle)

    res.metric("setup_s", walls)
    for key in ("import_s", "dataset_s", "trainer_s"):
        res.layers[f"setup.{key}"] = median([p[key] for p in parts])
    epochs = out["epochs"]
    plain = [e for e in epochs if not e["traced"]]
    res.metric("epoch_s", [e["epoch_s"] for e in plain])
    res.metric("eval_s", [e["eval_s"] for e in plain])
    res.e2e["peak_rss_mb"] = out["peak_rss_mb"]
    res.check(check_losses(out["losses"]))
    if args.workload == "train-movie":
        res.check(check_recall(out["recall"], out["n_items"], TOP_K))
    res.notes["train"] = {"epochs": len(epochs), "losses": out["losses"], "recall@20": out["recall"]}

    traced = [e for e in epochs if e["traced"]]
    if traced and plain:
        layers = res.layers
        for name in TRAIN_LAYERS:
            layers[f"{name}_ms"] = median([e["layers_ms"].get(name, 0.0) for e in traced])
        layers["eval.score_ms"] = median([e["eval.score_ms"] for e in traced])
        layers["eval.rank_ms"] = median([e["eval.rank_ms"] for e in traced])
        layers["steps"] = median([e["steps"] for e in traced])
        layers["examples"] = median([e["examples"] for e in traced])
        layers["edges_per_step"] = median([e["flow_edges"] / e["steps"] for e in traced])
        layers["accounted_frac"] = median([e["accounted_frac"] for e in traced])
        layers["trace_overhead_frac"] = (
            median([e["epoch_s"] for e in traced]) / median([e["epoch_s"] for e in plain]) - 1.0
        )
        layers.update(out["profiled"])


def _export_spans(path: Path):
    """Epoch and eval spans of one ``repro export --trace`` file."""
    epochs, evals = [], []
    with open(path) as handle:
        for line in handle:
            event = json.loads(line)
            if event.get("kind") != "span_end":
                continue
            if event["name"] == "epoch":
                epochs.append((event["dur"], event["attrs"]["loss"]))
            elif event["name"] == "eval":
                evals.append(event["dur"])
    return epochs, evals


def run_serve_http(args, res: Result, kids: Children, out_dir: Path, tag: str) -> None:
    py = [sys.executable, "-m", "repro"]
    seed = str(args.seed)
    kids.call(py + ["generate", "--dataset", SERVE_HTTP["profile"], "--seed", seed,
                    "--out", "raw"], "generate.log")
    walls, stages = [], []
    epoch_s, eval_s = [], []
    served = Serving()
    # One load window after each set-up: the timed load is spread over
    # the whole run instead of its last --seconds, so one burst of host
    # CPU steal weighs less on the served figures.
    for i in range(SETUP_REPEATS):
        d = f"s{i}"
        t0 = time.perf_counter()
        kids.call(py + ["prep", "--data-dir", "raw", "--out", f"{d}/{SERVE_HTTP['profile']}",
                        "--split-seed", seed], f"{d}-prep.log")
        t1 = time.perf_counter()
        code = kids.call(py + ["export", "--data-dir", f"{d}/{SERVE_HTTP['profile']}",
                               "--model", "cg-kgr", "--epochs", str(SERVE_HTTP["export_epochs"]),
                               "--index-mode", "dense", "--seed", seed, "--out", f"{d}/ckpt",
                               "--trace", f"{d}/export.jsonl"], f"{d}-export.log", check=False)
        if code != 0:
            # Training a model is the program's job: an export that dies
            # (e.g. on a non-finite loss) is a failed run, not a broken
            # benchmark.  Nothing after it can be measured.
            res.check(f"repro export exited {code}; see {d}-export.log")
            return
        t2 = time.perf_counter()
        port = free_port()
        server = kids.spawn(py + ["serve", "--checkpoint", f"{d}/ckpt", "--port", str(port),
                                  "--index-users", str(SERVE_HTTP["index_users"])],
                            f"{d}-serve.log", OPENBLAS_NUM_THREADS=SERVER_BLAS_THREADS)
        wait_healthy(port, server)
        t3 = time.perf_counter()
        walls.append(t3 - t0)
        stages.append((t1 - t0, t2 - t1, t3 - t2))
        epochs, evals = _export_spans(kids.workdir / d / "export.jsonl")
        res.check(check_losses([loss for _, loss in epochs]))
        epoch_s += [dur for dur, _ in epochs]
        eval_s += evals

        with open(kids.workdir / d / "ckpt" / "manifest.json") as handle:
            sizes = json.load(handle)["dataset"]
        last = i == SETUP_REPEATS - 1
        if last:
            kids.call([sys.executable, str(HERE / "child.py"), "expect", "--checkpoint",
                       f"{d}/ckpt", "--seed", seed, "--index-users",
                       str(SERVE_HTTP["index_users"]), "--out", "expect.json"], "expect.log")
        served.window(server.pid, port, list(range(sizes["n_users"])), sizes["n_items"],
                      args.seconds / SETUP_REPEATS, args.seed * SETUP_REPEATS + i,
                      -(-MIN_SERVED // SETUP_REPEATS))
        if last:
            with open(kids.workdir / "expect.json") as handle:
                expect = json.load(handle)
            verify_served(res, port, expect)
        kids.stop(server)
    report_serving(res, served, bool(args.trace), out_dir, tag)
    res.e2e["peak_rss_mb"] = served.peak_rss_mb

    res.metric("setup_s", walls)
    res.metric("epoch_s", epoch_s)
    res.metric("eval_s", eval_s)
    for pos, key in enumerate(("prep_s", "export_s", "boot_s")):
        res.layers[f"setup.{key}"] = median([s[pos] for s in stages])
    res.layers["setup.import_s"] = expect["import_s"]
    res.notes["blas_threads"] = {"server": SERVER_BLAS_THREADS}


# ----------------------------------------------------------------------
# Provenance and reporting
# ----------------------------------------------------------------------
def src_fingerprint() -> str:
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance(args, res: Result) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    blas = res.notes.pop("blas_threads", {})
    blas.setdefault("trainer", os.environ.get("OPENBLAS_NUM_THREADS", "default"))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "src_fingerprint": src_fingerprint(),
        "nproc": os.cpu_count(), "blas_threads": blas,
        "python": platform.python_version(), "numpy": numpy_version,
        "stats": {name: summarize(values) for name, values in res.samples.items()},
        **res.notes,
    }


def report(args, res: Result, out_dir: Path, tag: str) -> int:
    values, units = (res.layers, LAYER_UNITS) if args.trace else (res.e2e, E2E_UNITS)
    # A run whose checks failed may have stopped before measuring all.
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    prov = provenance(args, res)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, entry in metrics.items():
        stat = prov["stats"].get(name, {})
        extra = (f"  (n={stat['n']} median={stat['median']:.6g} q1={stat['q1']:.6g} "
                 f"q3={stat['q3']:.6g})") if stat.get("n") else ""
        print(f"  {name:32s} {entry['value']:.6g} {entry['unit']}{extra}")
    if not args.trace and "serve" in res.notes:
        for name in ("client.rps", "client.p50_ms", "client.p99_ms"):
            print(f"  {name:32s} {res.layers[name]:.6g} {LAYER_UNITS[name]}  (not gated)")
    for reason in res.failures:
        print(f"  FAILED: {reason}")
    print("PROVENANCE " + json.dumps({k: v for k, v in prov.items() if k != "stats"}))
    result = {
        "correct": not res.failures,
        "attempted": res.attempted,
        "failed": len(res.failures),
        "metrics": metrics,
    }
    with open(out_dir / f"{tag}.json", "w") as handle:
        json.dump({"result": result, "provenance": prov, "failures": res.failures}, handle)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="CG-KGR repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = ROOT / ".perfbench_out"
    workdir = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    out_dir.mkdir(exist_ok=True)
    workdir.mkdir(parents=True)
    kids = Children(workdir)
    res = Result()
    ticks0 = host_cpu_ticks()
    try:
        if args.workload == "serve-http":
            run_serve_http(args, res, kids, out_dir, tag)
        else:
            run_train(args, res, kids, out_dir, tag)
    except (BenchError, OSError, ValueError, KeyError):
        traceback.print_exc()
        print(f"perfbench: {args.workload} could not run; logs kept in {workdir}",
              file=sys.stderr)
        return 3
    finally:
        kids.stop_all()
    if res.failures:
        print(f"perfbench: checks failed; logs kept in {workdir}", file=sys.stderr)
    else:
        shutil.rmtree(workdir, ignore_errors=True)
    # Share of host CPU time the hypervisor took away during the run
    # (the 8th /proc/stat field): the noise floor of every timing here.
    ticks = [b - a for a, b in zip(ticks0, host_cpu_ticks())]
    res.notes["host_steal_frac"] = ticks[7] / sum(ticks) if sum(ticks) else 0.0
    return report(args, res, out_dir, tag)


if __name__ == "__main__":
    sys.exit(main())
