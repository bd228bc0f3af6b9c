"""``large-corpus``: batched ``classify_features`` against a ~6k-member index.

The anchor index is grown online, through ``enable_mutation`` and
``ingest_features``, with seeded near-duplicate variants of the real
corpus digests: generating and extracting that many ELFs would cost
about 45 s of set-up, and a near-duplicate variant loads candidate
generation and the edit-distance DP the way a real large installation
does.  Queries are pre-extracted, distinct feature records in
coalesced-size batches, and the service runs with its digest cache
off, so this workload is bound by ``index`` and ``distance`` work and
bypasses extraction and the cache: a feature-extraction change must
show no gain here.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, replace

import common
import layers

#: Corpus members after growth (trained anchors plus variants).
INDEX_MEMBERS = 4000
#: Queries per classify call (a coalesced serving batch).
BATCH = 8
#: Distinct queries per round (a multiple of ``BATCH``).
ROUND_ITEMS = 160
#: Queries per second on the reference machine; sets the round count.
EST_ITEMS_PER_S = 140.0
#: Variant records ingested one per call after the classify rounds.
INGESTS = 640
INGEST_WARMUP = 10

_ALPHABET = ("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
             "0123456789+/")


@dataclass
class State:
    model: common.Model
    members: list              # every corpus member's feature record
    queries: list              # timed queries, distinct
    warmup: list               # disjoint from ``queries``
    ingest: list
    fingerprint: str


def _mutate(rng: random.Random, signature: str) -> str:
    """Replace, insert or delete about a tenth of a signature's chars."""

    chars = list(signature)
    for _ in range(max(1, len(chars) // 10)):
        op, at = rng.random(), rng.randrange(len(chars) + 1)
        if op < 0.5 and at < len(chars):
            chars[at] = rng.choice(_ALPHABET)
        elif op < 0.75 or len(chars) < 8 or at == len(chars):
            chars.insert(at, rng.choice(_ALPHABET))
        else:
            del chars[at]
    return "".join(chars)


def variant(rng: random.Random, record, sample_id: str):
    """A near-duplicate of ``record``: every digest slightly mutated."""

    digests = {}
    for feature_type, digest in record.digests.items():
        block, chunk, double = digest.split(":", 2)
        digests[feature_type] = (f"{block}:{_mutate(rng, chunk)}:"
                                 f"{_mutate(rng, double)}")
    return replace(record, sample_id=sample_id, digests=digests)


def setup(run: common.Run) -> State:
    model = common.build_model(run, cache_size=0)
    rng = random.Random(run.seed)
    train = model.train
    grown = [variant(rng, train[n % len(train)], f"grow-{n}")
             for n in range(INDEX_MEMBERS - len(train))]
    service = model.service
    service.enable_mutation()
    service.ingest_features(grown)
    test = [model.features[i] for i in model.test_indices]
    rng.shuffle(test)
    queries = test[:ROUND_ITEMS]
    warmup = [variant(rng, record, f"warm-{n}")
              for n, record in enumerate(test[:ROUND_ITEMS // 2])]
    ingest = [variant(rng, rng.choice(train), f"ingest-{n}")
              for n in range(INGESTS + INGEST_WARMUP)]
    fingerprint = common.fingerprint(
        model.samples, *([r.sample_id, sorted(r.digests.items())]
                         for r in grown + queries + warmup + ingest))
    return State(model, train + grown, queries, warmup, ingest, fingerprint)


def _batches(records: list) -> list[list]:
    return [records[i:i + BATCH] for i in range(0, len(records), BATCH)]


def _classify_pass(service, calls) -> None:
    for batch in calls:
        service.classify_features(batch)


def _fresh_service(state: State):
    return common.fresh_service(state.model.service.classifier,
                                cache_size=0)


def measure(run: common.Run, state: State) -> dict:
    calls = _batches(state.queries)
    _classify_pass(_fresh_service(state), _batches(state.warmup))
    n_rounds = max(3, round(run.seconds * EST_ITEMS_PER_S / ROUND_ITEMS))
    service = _fresh_service(state)
    rounds, results = common.timed_rounds(
        [calls] * n_rounds, lambda _: service.classify_features)
    got = common.agreed_decisions(results)
    run.count(n_rounds * len(calls), 0)
    expected, f1 = common.reference_test_split(state.model)
    expected = {r.sample_id: expected[r.sample_id] for r in state.queries}
    run.count(0, common.compare_decisions(run, "large-corpus", got,
                                          expected))
    info = service.cache_info()
    ingest = common.ingest_rounds(state.model.service.ingest_features,
                                  state.ingest, INGEST_WARMUP)
    run.count(INGESTS, 0)
    run.info(rounds=n_rounds, cache_hits=info["hits"],
             members=state.model.service.similarity_index.n_members)
    query_mb = sum(r.file_size for r in state.queries) / 1e6
    return {
        **common.timing_metrics(run, rounds, len(state.queries), query_mb,
                                ingest),
        **f1,
        "peak_rss_mb": (common.self_peak_rss_mb(), "MB"),
    }


def trace(run: common.Run, state: State) -> dict:
    classifier = state.model.service.classifier
    calls = _batches(state.queries)
    _classify_pass(_fresh_service(state), _batches(state.warmup))
    untraced, traced = [], []
    host = common.HostClock()
    for _ in range(2):
        service = _fresh_service(state)
        _, seconds, slowness = host.round(
            lambda: _classify_pass(service, calls))
        untraced.append(seconds / slowness)
        _, seconds, slowness = host.round(lambda: layers.traced_calls(
            service.classify_features, calls))
        traced.append(seconds / slowness)
    wall = statistics.median(untraced)
    info = service.cache_info()

    # Queries arrive pre-extracted: binfmt, hashing and features do no
    # work on this workload and read 0.
    index = layers.build_index(state.members,
                               classifier.active_feature_types)
    (stages, pairs), _, slowness = host.round(
        lambda: layers.decompose(classifier, index, calls))
    out = layers.stage_metrics(stages)
    expected, _ = common.reference_test_split(state.model)
    want = {r.sample_id: expected[r.sample_id][1:3] for r in state.queries}
    mismatches = common.compare_decisions(
        run, "traced large-corpus", layers.thresholded(classifier, pairs),
        want)
    run.check(out.pop("stage_total_s") / slowness <= 1.15 * wall,
              "per-stage totals exceed the end-to-end wall")
    run.count(len(calls), mismatches)
    out["api.cache_hit_ratio"] = info["hits"] / max(
        info["hits"] + info["misses"], 1)
    out["observability.overhead_ratio"] = statistics.median(traced) / wall
    return out
