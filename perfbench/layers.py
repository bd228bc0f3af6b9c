"""Per-layer timings for the traced run, taken from outside the program.

Each layer is timed through its own public functions, around calls the
benchmark makes itself:

* ``binfmt``: ``strings_output`` and ``ElfReader`` + ``nm_output``;
* ``hashing``: ``FuzzyHasher.hash`` over the raw executable;
* ``features``: ``FeatureExtractor.extract``;
* ``index``: ``SimilarityIndex.collect_candidates``;
* ``distance``: ``SimilarityIndex.score_matrices`` minus candidate
  generation;
* ``ml``: ``model_.predict_with_confidence`` on the similarity matrix.

Every ``*_ms`` stage metric is milliseconds per classified item, so the
stages of one workload add up to its per-item cost and can be ranked.
The index is a plain ``SimilarityIndex`` the benchmark builds from the
workload's corpus members, which holds the same members and yields the
same candidate set as the service's own (possibly sharded) index.
"""

from __future__ import annotations

import numpy as np

from common import clock


def extraction_layers(datas: list[bytes]) -> dict:
    """Time binfmt, hashing and features on each executable in turn."""

    from repro.binfmt import ElfReader, nm_output, strings_output
    from repro.features.extractors import FeatureExtractor
    from repro.hashing import FuzzyHasher

    hasher, extractor = FuzzyHasher(), FeatureExtractor()
    totals = np.zeros(4)
    for data in datas[:8]:                       # warm every code path
        strings_output(data), nm_output(ElfReader(data))
        hasher.hash(data), extractor.extract(data)
    for data in datas:
        t0 = clock()
        strings_output(data)
        t1 = clock()
        nm_output(ElfReader(data))
        t2 = clock()
        hasher.hash(data)
        t3 = clock()
        extractor.extract(data)
        t4 = clock()
        totals += (t1 - t0, t2 - t1, t3 - t2, t4 - t3)
    per_item_ms = totals * 1e3 / len(datas)
    megabytes = sum(len(d) for d in datas) / 1e6
    return {"binfmt.strings_ms": per_item_ms[0],
            "binfmt.symbols_ms": per_item_ms[1],
            "hashing.ctph_ms": per_item_ms[2],
            "hashing.mb_per_s": megabytes / totals[2],
            "features.extract_ms": per_item_ms[3]}


def build_index(members, feature_types):
    """A ``SimilarityIndex`` over ``members`` (labelled feature records)."""

    from repro.index import SimilarityIndex

    index = SimilarityIndex(feature_types)
    for record in members:
        index.add(record.sample_id, {ft: record.digest(ft)
                                     for ft in feature_types},
                  class_name=record.class_name)
    index.seal()
    return index


def decompose(classifier, index, calls, *, datas=None, cached=False):
    """Run classify ``calls`` layer by layer; return stages and decisions.

    ``calls`` is a list of feature-record batches, one per classify call.
    When ``datas`` is given (the same shape, raw executables), each
    record is re-extracted with ``FeatureExtractor.extract`` first, as
    ``classify_bytes`` does.  ``cached=True`` mirrors the service's
    digest cache: a record whose digests were already scored skips the
    index, distance and forest layers.

    Returns ``(stages, decisions)``: stage seconds and counters, and
    ``{sample_id: (label, confidence)}`` before the rejection threshold.
    """

    from repro.features.extractors import FeatureExtractor

    types = tuple(getattr(classifier, "active_feature_types",
                          classifier.feature_types))
    extractor = FeatureExtractor(types)
    stages = dict(extract=0.0, candidate=0.0, score=0.0, forest=0.0,
                  items=0, queries=0, cells=0, useful=0, pairs=0)
    seen: dict[tuple, tuple] = {}
    decisions: dict[str, tuple] = {}
    for position, batch in enumerate(calls):
        if datas is not None:
            start = clock()
            batch = [extractor.extract(data, sample_id=record.sample_id)
                     for record, data in zip(batch, datas[position])]
            stages["extract"] += clock() - start
        stages["items"] += len(batch)
        keys = [tuple(r.digest(ft) for ft in types) for r in batch]
        todo = [r for r, key in zip(batch, keys)
                if not (cached and key in seen)]
        if todo:
            digests = {ft: [r.digest(ft) for r in todo] for ft in types}
            t0 = clock()
            candidates = index.collect_candidates(digests)
            t1 = clock()
            matrices = index.score_matrices(digests)
            t2 = clock()
            X = classifier.transform(todo).X
            t3 = clock()
            labels, confidence = classifier.model_.predict_with_confidence(
                X, confidence_threshold=0.0)
            t4 = clock()
            stages["candidate"] += t1 - t0
            stages["score"] += max(0.0, (t2 - t1) - (t1 - t0))
            stages["forest"] += t4 - t3
            stages["queries"] += len(todo)
            stages["pairs"] += len(candidates.left)
            for ft, (queries, members, _) in candidates.scatter.items():
                stages["cells"] += len(set(zip(queries.tolist(),
                                               members.tolist())))
                stages["useful"] += int(np.count_nonzero(matrices[ft]))
            for record, label, score in zip(todo, labels, confidence):
                seen[tuple(record.digest(ft) for ft in types)] = (
                    label, float(score))
        for record, key in zip(batch, keys):
            decisions[record.sample_id] = seen[key]
    return stages, decisions


def stage_metrics(stages: dict) -> dict:
    """Per-item stage milliseconds and the index/distance counters."""

    items = max(stages["items"], 1)
    total = sum(stages[k] for k in ("extract", "candidate", "score",
                                    "forest"))
    return {
        "features.share": stages["extract"] / total if total else 0.0,
        "index.candidate_ms": stages["candidate"] * 1e3 / items,
        "index.candidates_per_query": (stages["cells"]
                                       / max(stages["queries"], 1)),
        "index.useful_ratio": (stages["useful"] / stages["cells"]
                               if stages["cells"] else 0.0),
        "distance.score_ms": stages["score"] * 1e3 / items,
        "distance.pairs_per_s": (stages["pairs"] / stages["score"]
                                 if stages["score"] else 0.0),
        "ml.forest_ms": stages["forest"] * 1e3 / items,
        "stage_total_s": total,
    }


def thresholded(classifier, pairs: dict) -> dict:
    """Apply the model's rejection threshold to ``(label, confidence)``."""

    threshold = classifier.model_.confidence_threshold
    unknown = classifier.unknown_label
    return {key: (unknown if confidence < threshold else label, confidence)
            for key, (label, confidence) in pairs.items()}


def traced_calls(call, batches) -> float:
    """Seconds to run ``call(batch)`` for every batch, each one inside an
    active program trace (the ``repro.observability`` span sink)."""

    from repro.observability.trace import RequestTrace, activate, deactivate

    start = clock()
    for number, batch in enumerate(batches):
        token = activate(RequestTrace(f"{number:016x}", "classify"))
        try:
            call(batch)
        finally:
            deactivate(token)
    return clock() - start
