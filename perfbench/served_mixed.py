"""``served-mixed``: a live ``serve --ingest --wal-dir`` server, mixed traffic.

The server runs as a subprocess of the checkout's CLI with hot reload
off and its write-ahead log in the benchmark's scratch directory on the
checkout's own disk (the log exists to fsync, so it must not sit on
tmpfs).  One client process drives it in a closed loop over two
persistent connections: each connection sends its next request only
after the previous reply arrived.  Requests are one-item classifies and
labelled one-item ingests, four to one, with distinct payloads.  Every
ingest grows the index and invalidates the digest cache, so this is the
one workload that shows ``serving`` transport, queueing and WAL costs
next to the ``api`` and ``index`` code it shares with the others.

Each request body is sent as one buffer (``http.client`` joins headers
and a ``bytes`` body into one write) so the client adds no stall of
its own.  F1 comes from a fixed probe set classified after the mixed
phase, so the order in which ingests interleave cannot move it.
"""

from __future__ import annotations

import base64
import json
import random
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from http.client import HTTPConnection
from pathlib import Path

import common
import layers
from common import clock

#: Every ``INGEST_EVERY``-th request is an ingest.
INGEST_EVERY = 5
#: Requests per second on the reference machine; sets the timed
#: request count.
EST_REQUESTS_PER_S = 33.0
WARMUP_REQUESTS = 30
CONNECTIONS = 2
PROBE_BATCH = 16


@dataclass
class Request:
    kind: str                   # "classify" or "ingest"
    item: tuple                 # (sample_id, data, class_name)
    body: bytes


@dataclass
class Server:
    process: subprocess.Popen
    port: int
    log: object


@dataclass
class State:
    model: common.Model
    artifact: Path
    warmup: list[Request]
    timed: list[Request]
    probes: list[tuple[str, bytes]]
    server: Server | None
    fingerprint: str


def _body(kind: str, sample_id: str, data: bytes, cls: str) -> bytes:
    item = {"id": sample_id, "data": base64.b64encode(data).decode()}
    if kind == "ingest":
        item["class"] = cls
    return json.dumps({"items": [item]}).encode()


def _plan(rng: random.Random, model: common.Model, n_requests: int,
          prefix: str) -> list[Request]:
    n_ingest = n_requests // INGEST_EVERY
    train = [int(i) for i in model.split.train_indices]
    classify = iter(common.trailer_variants(
        rng, model, rng.choices(range(len(model.samples)),
                                k=n_requests - n_ingest), prefix + "-c"))
    ingest = iter(common.trailer_variants(
        rng, model, rng.choices(train, k=n_ingest), prefix + "-i"))
    plan = []
    for number in range(n_requests):
        kind = "ingest" if number % INGEST_EVERY == INGEST_EVERY - 1 \
            else "classify"
        item = next(ingest if kind == "ingest" else classify)
        plan.append(Request(kind, item, _body(kind, *item)))
    return plan


def start_server(run: common.Run, artifact: Path, trace_sample: str
                 ) -> Server:
    """Launch ``repro.cli serve`` and wait until it answers ``/healthz``."""

    tag = f"{trace_sample}-{time.monotonic_ns()}"
    wal = run.workdir / f"wal-{tag}"
    log = open(run.workdir / f"server-{tag}.log", "w+")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--model", str(artifact),
         "--port", "0", "--ingest", "--wal-dir", str(wal),
         "--reload-interval", "0", "--trace-sample", trace_sample,
         "--trace-ring", "8192", "--slow-request-ms", "0"],
        env=common.src_env(), stdout=log, stderr=subprocess.STDOUT,
        cwd=run.workdir)
    try:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline and process.poll() is None:
            log.seek(0)
            found = re.search(r"on http://[\d.]+:(\d+) ", log.read())
            if found:
                server = Server(process, int(found.group(1)), log)
                if _get(server, "/healthz") is not None:
                    return server
            time.sleep(0.02)
        raise RuntimeError("the server did not come up; see its log")
    except BaseException:
        stop_server(Server(process, 0, log))
        raise


def stop_server(server: Server) -> None:
    if server.process.poll() is None:
        server.process.send_signal(signal.SIGTERM)
        try:
            server.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.process.kill()
            server.process.wait()
    server.log.close()


def _get(server: Server, path: str):
    conn = HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
        return json.loads(body) if response.status == 200 else None
    except OSError:
        return None
    finally:
        conn.close()


def server_peak_rss_mb(server: Server) -> float:
    status = Path(f"/proc/{server.process.pid}/status").read_text()
    return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0


def setup(run: common.Run) -> State:
    model = common.build_model(run)
    artifact = run.workdir / f"model-{time.monotonic_ns()}.rpma"
    model.service.save(artifact)
    rng = random.Random(run.seed)
    warmup = _plan(rng, model, WARMUP_REQUESTS, "warm")
    n_timed = max(60, round(run.seconds * EST_REQUESTS_PER_S))
    timed = _plan(rng, model, n_timed, "timed")
    probes = [(model.samples[i][0], model.samples[i][2])
              for i in model.test_indices]
    fingerprint = common.fingerprint(
        model.samples, [[r.kind, r.body] for r in warmup],
        [[r.kind, r.body] for r in timed], probes)
    server = start_server(run, artifact, "0")
    return State(model, artifact, warmup, timed, probes, server,
                 fingerprint)


def close(state: State) -> None:
    if state.server is not None:
        stop_server(state.server)
        state.server = None


# ------------------------------------------------------------------ client
def drive(server: Server, plan: list[Request]) -> list[tuple]:
    """Send ``plan`` over ``CONNECTIONS`` closed-loop connections.

    Returns ``(request, seconds, status, request_id)`` per request.
    """

    results: list[tuple] = []
    lock = threading.Lock()
    pending = iter(plan)
    errors: list[BaseException] = []

    def worker() -> None:
        conn = HTTPConnection("127.0.0.1", server.port, timeout=120)
        conn.connect()
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            while True:
                with lock:
                    request = next(pending, None)
                if request is None:
                    return
                start = clock()
                conn.request("POST", "/" + request.kind, body=request.body,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                response.read()
                elapsed = clock() - start
                with lock:
                    results.append((request, elapsed, response.status,
                                    response.getheader("X-Request-Id")))
        except BaseException as exc:          # re-raised in the caller
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


def probe(server: Server, probes: list[tuple[str, bytes]]) -> dict:
    """Server decisions for the probe set, batched, on one connection."""

    conn = HTTPConnection("127.0.0.1", server.port, timeout=120)
    decisions = {}
    try:
        for start in range(0, len(probes), PROBE_BATCH):
            items = [{"id": sample_id, "data": base64.b64encode(data).decode()}
                     for sample_id, data in probes[start:start + PROBE_BATCH]]
            conn.request("POST", "/classify",
                         body=json.dumps({"items": items}).encode(),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            payload = json.loads(response.read())
            for decision in payload.get("decisions", []):
                decisions[decision["sample_id"]] = decision
    finally:
        conn.close()
    return decisions


def phase(run: common.Run, state: State, server: Server) -> dict:
    """Warm up, run the timed requests, then classify the probes."""

    drive(server, state.warmup)
    start = clock()
    results = drive(server, state.timed)
    wall_s = clock() - start
    bad = [r for r in results if r[2] != 200]
    run.count(len(results), len(bad))
    run.check(not bad, f"{len(bad)} requests failed, statuses "
                       f"{sorted({r[2] for r in bad})}")
    return {"wall_s": wall_s, "results": results,
            "probes": probe(server, state.probes),
            "rss_mb": server_peak_rss_mb(server)}


def _reference(state: State) -> tuple[dict, object]:
    """In-process, cache-free decisions after the same ingests, and the
    service that made them."""

    from repro.api.service import ClassificationService
    from repro.serving.protocol import decision_to_dict

    service = ClassificationService.load(state.artifact, cache_size=0)
    service.enable_mutation()
    service.ingest_bytes([r.item for r in state.warmup if r.kind == "ingest"]
                         + [r.item for r in state.timed
                            if r.kind == "ingest"])
    return {d.sample_id: json.loads(json.dumps(decision_to_dict(d)))
            for d in service.classify_bytes(state.probes)}, service


def _check_probes(run: common.Run, state: State, got: dict):
    expected, service = _reference(state)
    run.count(len(expected), common.compare_decisions(
        run, "served-mixed probe", got, expected))
    return expected, service


def measure(run: common.Run, state: State) -> dict:
    out = phase(run, state, state.server)
    close(state)
    _check_probes(run, state, out["probes"])
    test = state.model.test_indices
    predicted = [out["probes"].get(state.model.samples[i][0], {})
                 .get("predicted_class") for i in test]
    # Not host-corrected: most of a request's time is the transport
    # stall (a kernel timer), not CPU work in this process.
    results, wall_s = out["results"], out["wall_s"]
    latency = [r[1] for r in results if r[0].kind == "classify"]
    ingest = [r[1] for r in results if r[0].kind == "ingest"]
    run.info(requests=len(results), connections=CONNECTIONS)
    return {
        "items_per_s": (len(results) / wall_s, "1/s"),
        "mb_per_s": (sum(len(r[0].item[1]) for r in results) / 1e6 / wall_s,
                     "MB/s"),
        **common.latency_metrics(run, "latency", latency),
        **common.latency_metrics(run, "ingest", ingest),
        **common.f1_metrics(state.model.split.expected_test_labels,
                            predicted),
        "peak_rss_mb": (out["rss_mb"], "MB"),
    }


def trace(run: common.Run, state: State) -> dict:
    untraced = phase(run, state, state.server)
    close(state)
    server = start_server(run, state.artifact, "1")
    try:
        traced = phase(run, state, server)
        traces = {t["request_id"]: t for t in
                  (_get(server, "/debug/trace?limit=-1") or {})
                  .get("recent", [])}
        metrics = _get(server, "/metrics") or {}
    finally:
        stop_server(server)
    expected, reference = _check_probes(run, state, untraced["probes"])
    run.count(len(expected), common.compare_decisions(
        run, "traced served-mixed probe", traced["probes"], expected))

    rows = [(request, seconds, traces[rid]) for request, seconds, _, rid
            in traced["results"] if rid in traces]
    run.check(len(rows) == len(traced["results"]),
              f"{len(traced['results']) - len(rows)} requests have no "
              "server trace")
    over = [t["request_id"] for _, _, t in rows
            if sum(t["stages"].values()) > 1.01 * t["wall_ms"] + 0.1]
    run.check(not over, f"{len(over)} server traces have per-stage totals "
                        f"beyond their wall time (first: {over[:1]})")
    median = statistics.median

    def stage(name, kind=None):
        values = [t["stages"].get(name, 0.0) for r, _, t in rows
                  if kind is None or r.kind == kind]
        return median(values) if values else 0.0

    batch = metrics.get("batch_size", {})
    cache = metrics.get("service_cache", {})
    out = {
        "serving.transport_ms": median([s * 1e3 - t["wall_ms"]
                                        for _, s, t in rows]),
        "serving.parse_ms": stage("parse"),
        "serving.queue_wait_ms": stage("queue_wait"),
        "serving.batch_items": batch.get("sum", 0) / max(
            batch.get("count", 0), 1),
        "serving.ingest_apply_ms": stage("ingest_apply", "ingest"),
        "serving.wal_fsync_ms": stage("wal_fsync", "ingest"),
        "serving.fsyncs_per_record": metrics.get("wal_fsyncs", 0) / max(
            metrics.get("wal_records", 0), 1),
        "serving.serialize_ms": stage("serialize"),
        "serving.rejected": float(sum(r[2] != 200 for r in
                                      untraced["results"]
                                      + traced["results"])),
        "api.cache_hit_ratio": cache.get("hits", 0) / max(
            cache.get("hits", 0) + cache.get("misses", 0), 1),
        "observability.overhead_ratio": (traced["wall_s"]
                                         / untraced["wall_s"]),
    }
    run.info(server_stages_ms={name: stage(name) for name in (
        "extract_features", "candidate_gen", "dp_scoring", "forest_predict")},
        client_p50_ms=median([s * 1e3 for _, s, _ in rows]),
        server_wall_p50_ms=median([t["wall_ms"] for _, _, t in rows]))

    # Layer timings in-process, on the same executables and corpus.
    from repro.features.extractors import FeatureExtractor

    classifier = reference.classifier
    timed = state.timed
    out.update(layers.extraction_layers([r.item[1] for r in timed
                                         if r.kind == "classify"]))
    extractor = FeatureExtractor(classifier.active_feature_types)
    ingested = [extractor.extract(data, sample_id=sid, class_name=cls)
                for sid, data, cls in
                [r.item for r in state.warmup + timed if r.kind == "ingest"]]
    index = layers.build_index(state.model.train + ingested,
                               classifier.active_feature_types)
    by_id = {path: i for i, (path, _, _) in enumerate(state.model.samples)}
    queries = [state.model.features[by_id[sid]] for sid, _ in state.probes]
    stages, pairs = layers.decompose(classifier, index,
                                     [[q] for q in queries],
                                     datas=[[d] for _, d in state.probes])
    want = {key: (value["predicted_class"], value["confidence"])
            for key, value in expected.items()}
    run.count(len(want), common.compare_decisions(
        run, "traced served-mixed layer", layers.thresholded(
            classifier, pairs), want))
    metrics_out = layers.stage_metrics(stages)
    metrics_out.pop("stage_total_s")
    out.update(metrics_out)
    return out
