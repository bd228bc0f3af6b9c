"""``prolog-stream``: one in-process caller classifying ELFs in a closed loop.

A Slurm prolog blocks on the decision before the job starts, so each
call is one ``ClassificationService.classify_bytes`` of one executable,
issued only after the previous one returned.  Jobs launch the same
installed binaries again and again, so the stream repeats items with
Zipf-like frequencies; the repeats hit the service's digest cache,
which skips scoring but never extraction.  This workload is therefore
bound by extraction (``binfmt``, ``hashing``, ``features``).

Each round classifies the same fixed stream through a fresh service, so
every round starts with an empty cache and sees the same repeat share.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass

import common
import layers

#: Classify calls per round, and share of them that are distinct items.
ROUND_ITEMS = 300
DISTINCT_SHARE = 0.28
#: Zipf exponent of item popularity within the stream.
ZIPF_S = 0.7
#: Classify calls per second on the reference machine; sets the round
#: count so that a run measures about ``--seconds`` of work.
EST_ITEMS_PER_S = 180.0
#: Labelled executables ingested one per call after the classify rounds.
INGESTS = 320
INGEST_WARMUP = 10


@dataclass
class State:
    model: common.Model
    stream: list[int]          # sample indices, in call order
    warmup: list[int]          # training ELFs, disjoint from ``stream``
    ingest: list[tuple[str, bytes, str]]
    fingerprint: str


def zipf_stream(rng: random.Random, pool: list[int],
                n_items: int) -> list[int]:
    """``n_items`` draws over ``pool`` with Zipf counts, every item once+."""

    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(pool))]
    scale = (n_items - len(pool)) / sum(weights)
    counts = [1 + int(w * scale) for w in weights]
    for rank in range(n_items - sum(counts)):
        counts[rank % len(pool)] += 1
    stream = [item for item, count in zip(pool, counts)
              for _ in range(count)]
    rng.shuffle(stream)
    return stream


def setup(run: common.Run) -> State:
    model = common.build_model(run)
    rng = random.Random(run.seed)
    test = model.test_indices
    rng.shuffle(test)
    n_distinct = round(ROUND_ITEMS * DISTINCT_SHARE)
    train = [int(i) for i in model.split.train_indices]
    stream = zipf_stream(rng, test[:n_distinct], ROUND_ITEMS)
    warmup = zipf_stream(rng, rng.sample(train, n_distinct), ROUND_ITEMS)
    ingest = common.trailer_variants(
        rng, model, rng.choices(train, k=INGESTS + INGEST_WARMUP), "ingest")
    fingerprint = common.fingerprint(model.samples, stream, warmup, ingest)
    return State(model, stream, warmup, ingest, fingerprint)


def _classify_pass(service, samples, indices) -> dict:
    decisions = {}
    for index in indices:
        path, _, data = samples[index]
        decision = service.classify_bytes([(path, data)])[0]
        decisions[path] = common.decision_key(decision)
    return decisions


def _fresh_service(state: State, **kwargs):
    return common.fresh_service(state.model.service.classifier, **kwargs)


def _reference_stream(state: State) -> dict:
    """Cache-free decisions for the stream's distinct items."""

    return _classify_pass(_fresh_service(state, cache_size=0),
                          state.model.samples, sorted(set(state.stream)))


def measure(run: common.Run, state: State) -> dict:
    samples = state.model.samples
    _classify_pass(_fresh_service(state), samples, state.warmup)
    n_rounds = max(3, round(run.seconds * EST_ITEMS_PER_S / ROUND_ITEMS))

    services = []

    def round_call(_):
        # A fresh service per round: every round starts with an empty
        # cache and sees the same repeat share.
        services.append(_fresh_service(state))
        return lambda index: services[-1].classify_bytes(
            [(samples[index][0], samples[index][2])])

    rounds, results = common.timed_rounds([state.stream] * n_rounds,
                                          round_call)
    got = common.agreed_decisions(results)
    run.count(n_rounds * len(state.stream), 0)
    run.count(0, common.compare_decisions(run, "prolog-stream", got,
                                          _reference_stream(state)))
    _, f1 = common.reference_test_split(state.model)
    ingest_service = _fresh_service(state)
    ingest_service.enable_mutation()
    ingest = common.ingest_rounds(ingest_service.ingest_bytes, state.ingest,
                                  INGEST_WARMUP)
    run.count(INGESTS, 0)
    distinct = len(set(state.stream)) / len(state.stream)
    info = services[0].cache_info()
    run.info(rounds=n_rounds, distinct_share=distinct,
             repeat_share=1 - distinct,
             cache_hit_ratio=info["hits"] / (info["hits"] + info["misses"]))
    stream_mb = sum(len(samples[i][2]) for i in state.stream) / 1e6
    return {
        **common.timing_metrics(run, rounds, len(state.stream), stream_mb,
                                ingest),
        **f1,
        "peak_rss_mb": (common.self_peak_rss_mb(), "MB"),
    }


def trace(run: common.Run, state: State) -> dict:
    model, samples = state.model, state.model.samples
    classifier = model.service.classifier
    _classify_pass(_fresh_service(state), samples, state.warmup)
    untraced, traced, hit_ratio = [], [], 0.0
    host = common.HostClock()
    for _ in range(2):
        service = _fresh_service(state)
        _, seconds, slowness = host.round(lambda: _classify_pass(
            service, samples, state.stream))
        untraced.append(seconds / slowness)
        info = service.cache_info()
        hit_ratio = info["hits"] / (info["hits"] + info["misses"])
        service = _fresh_service(state)
        _, seconds, slowness = host.round(lambda: layers.traced_calls(
            lambda index: service.classify_bytes(
                [(samples[index][0], samples[index][2])]), state.stream))
        traced.append(seconds / slowness)
    wall = statistics.median(untraced)

    distinct = sorted(set(state.stream))
    out = layers.extraction_layers([samples[i][2] for i in distinct])
    index = layers.build_index(model.train, classifier.active_feature_types)
    (stages, pairs), _, slowness = host.round(lambda: layers.decompose(
        classifier, index, [[model.features[i]] for i in state.stream],
        datas=[[samples[i][2]] for i in state.stream], cached=True))
    out.update(layers.stage_metrics(stages))
    want = {key: (value[1], value[2])
            for key, value in _reference_stream(state).items()}
    mismatches = common.compare_decisions(
        run, "traced prolog-stream", layers.thresholded(classifier, pairs),
        want)
    run.check(out.pop("stage_total_s") / slowness <= 1.15 * wall,
              "per-stage totals exceed the end-to-end wall")
    run.count(len(state.stream), mismatches)
    out["api.cache_hit_ratio"] = hit_ratio
    out["observability.overhead_ratio"] = statistics.median(traced) / wall
    return out
