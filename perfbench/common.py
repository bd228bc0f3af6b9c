"""Shared plumbing of the benchmark workloads.

Everything a workload generates is a pure function of ``--seed``: the
corpus comes from ``gen_corpus.py`` under a fixed hash seed, and every
later draw (split, stream order, variants, payloads) uses generators
seeded from the same value.  ``fingerprint`` hashes those inputs so two
runs with the same seed can be proved to have measured the same thing.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pickle
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".perfbench"

#: Forest size of the trained model.
N_TREES = 30
#: Rejection threshold of the trained model.
CONFIDENCE_THRESHOLD = 0.5
#: Set-ups per timed run; ``setup_s`` is their median.
SETUP_REPEATS = 3

clock = time.perf_counter


def src_env(**extra: str) -> dict:
    """Environment for a subprocess that imports the checkout's ``repro``."""

    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update(extra)
    return env


@dataclass
class Run:
    """One benchmark invocation: its arguments, scratch space and verdicts."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    workdir: Path
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def info(self, **fields) -> None:
        """Print a human-readable detail line (never the last line)."""

        print("#", json.dumps(fields, sort_keys=True, default=str),
              flush=True)

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)
            print(f"# check failed: {problem}", flush=True)

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


# ----------------------------------------------------------------- inputs
def generate_corpus(run: Run) -> list[tuple[str, str, bytes]]:
    """``(relative_path, class_name, elf_bytes)`` for ``run.seed``."""

    out = run.workdir / "corpus.pkl"
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "gen_corpus.py"),
                    "--seed", str(run.seed), "--out", str(out)],
                   env=src_env(PYTHONHASHSEED="0"), check=True, timeout=170)
    try:
        with open(out, "rb") as fh:
            return pickle.load(fh)
    finally:
        out.unlink()


def trailer_variants(rng: random.Random, model: Model, indices,
                     prefix: str) -> list[tuple[str, bytes, str]]:
    """Distinct executables: corpus ELFs with a seeded 32-byte trailer."""

    out = []
    for number, index in enumerate(indices):
        path, cls, data = model.samples[index]
        out.append((f"{prefix}-{number}/{path}",
                    data + rng.randbytes(32), cls))
    return out


def fingerprint(*parts) -> str:
    """sha256 over nested lists/tuples of bytes, str and numbers."""

    digest = hashlib.sha256()

    def feed(obj) -> None:
        if isinstance(obj, bytes):
            digest.update(b"b%d:" % len(obj))
            digest.update(obj)
        elif isinstance(obj, str):
            feed(obj.encode("utf-8"))
        elif isinstance(obj, (int, float)):
            feed(repr(obj))
        elif isinstance(obj, (list, tuple)):
            digest.update(b"[%d" % len(obj))
            for item in obj:
                feed(item)
            digest.update(b"]")
        else:
            raise TypeError(f"cannot fingerprint {type(obj).__name__}")

    feed(parts)
    return digest.hexdigest()


def check_fingerprint_registry(run: Run, value: str) -> None:
    """Fail when an earlier run with the same seed saw other inputs."""

    STATE_DIR.mkdir(exist_ok=True)
    path = STATE_DIR / "fingerprints.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{run.workload}:{run.seed}:{run.seconds:g}"
    run.check(known.get(key, value) == value,
              f"input fingerprint {value[:16]} differs from the "
              f"{known.get(key, '')[:16]} recorded for {key}")
    known[key] = value
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)


@dataclass
class Model:
    """A corpus, its features, the paper's two-phase split and a model."""

    samples: list[tuple[str, str, bytes]]
    features: list
    split: object
    service: object

    @property
    def train(self) -> list:
        return [self.features[i] for i in self.split.train_indices]

    @property
    def test_indices(self) -> list[int]:
        return [int(i) for i in self.split.test_indices]


def build_model(run: Run, **service_kwargs) -> Model:
    """Generate, extract, split (paper mode) and train for ``run.seed``."""

    from repro.api.service import ClassificationService
    from repro.core.splits import two_phase_split
    from repro.features.extractors import FeatureExtractor

    samples = generate_corpus(run)
    extractor = FeatureExtractor()
    features = [extractor.extract(data, sample_id=path, class_name=cls)
                for path, cls, data in samples]
    split = two_phase_split([cls for _, cls, _ in samples], mode="paper",
                            random_state=run.seed)
    service = ClassificationService.train(
        [features[i] for i in split.train_indices], n_estimators=N_TREES,
        random_state=run.seed, confidence_threshold=CONFIDENCE_THRESHOLD,
        **service_kwargs)
    return Model(samples, features, split, service)


def fresh_service(classifier, **kwargs):
    """A new ``ClassificationService`` (own, empty digest cache) over a
    trained classifier."""

    from repro.api.service import ClassificationService

    return ClassificationService(classifier, **kwargs)


def reference_test_split(model: Model) -> tuple[dict, dict]:
    """Decisions of a fresh cache-free service on the test split, keyed
    by sample id, and the paper's F1 report on them."""

    service = fresh_service(model.service.classifier, cache_size=0)
    decisions = service.classify_features(
        [model.features[i] for i in model.test_indices])
    return ({d.sample_id: decision_key(d) for d in decisions},
            f1_metrics(model.split.expected_test_labels,
                       [d.predicted_class for d in decisions]))


def repeated_setup(run: Run, build, close=None):
    """Run ``build()`` ``SETUP_REPEATS`` times; keep the last state.

    Returns ``(state, median seconds)``.  Each state carries a
    ``fingerprint`` of its generated inputs; set-ups that disagree mean
    the inputs are not a function of the seed, and fail the run.
    """

    repeats = SETUP_REPEATS if not run.trace else 1
    times, prints, state = [], [], None
    try:
        for _ in range(repeats):
            if state is not None and close is not None:
                close(state)
            state = None
            gc.collect()
            start = clock()
            state = build()
            times.append(clock() - start)
            prints.append(state.fingerprint)
        run.check(len(set(prints)) == 1,
                  f"set-ups of one seed generated different inputs: {prints}")
        check_fingerprint_registry(run, prints[-1])
    except BaseException:
        if state is not None and close is not None:
            close(state)
        raise
    run.info(inputs_sha256=prints[-1], setup_runs_s=times)
    return state, statistics.median(times)


# ------------------------------------------------------------ host speed
#: Seconds ``calibration_s`` takes, with the collector off, on the
#: 2-vCPU host the benchmark was written on when no neighbour slowed it.
CALIBRATION_REF_S = 0.008
#: Timed seconds between two calibrations inside a round.
SEGMENT_S = 0.04
#: Calibrations on each side of a segment that set its slowness.
CALIBRATION_WINDOW = 2


def calibration_s() -> float:
    """Time a fixed CPU-bound loop: interpreter arithmetic, allocation of
    many small objects, and numpy arithmetic (the program's three kinds
    of work)."""

    import numpy as np

    start = clock()
    counts: dict[int, int] = {}
    for i in range(20_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    rows = sorted((i & 3, str(i)) for i in range(6_000))
    {key: value for key, value in rows}
    values = np.arange(100_000, dtype=np.int64)
    for _ in range(3):
        values = (values * 7 + 3) % 1_000_003
    return clock() - start


class HostClock:
    """Measures how slow the shared host is, between timed segments.

    The host's speed switches between regimes up to 60% apart that last
    seconds.  A fixed calibration loop runs after every timed segment.
    A segment's slowness is the median of the calibrations around it
    (``CALIBRATION_WINDOW`` before its start, through as many after its
    end) over ``CALIBRATION_REF_S``: the median follows a regime switch
    within a few segments, and no single disturbed calibration moves
    it.  Dividing a segment's times by it makes a run made while the
    host was slow read more like one made while it was idle.  The
    calibration runs with the collector off, and timed work collects
    its own garbage, so the program's garbage and heap size cost the
    timed work and never the calibration.
    """

    def __init__(self) -> None:
        self.calibrations = [self._calibrate()]

    @staticmethod
    def _calibrate() -> float:
        gc.disable()
        try:
            return calibration_s()
        finally:
            gc.enable()

    def mark(self) -> int:
        """Calibrate after a timed segment; returns the segment's number."""

        self.calibrations.append(self._calibrate())
        return len(self.calibrations) - 2

    def slowness(self, segment: int) -> float:
        """Slowness of segment ``segment``, from the calibrations made so
        far."""

        around = self.calibrations[max(0, segment - CALIBRATION_WINDOW + 1):
                                   segment + CALIBRATION_WINDOW + 1]
        return statistics.median(around) / CALIBRATION_REF_S

    def round(self, work):
        """``(result, raw seconds, slowness)`` of ``work()`` as one
        segment, its garbage collected inside the timing."""

        start = clock()
        result = work()
        gc.collect()
        seconds = clock() - start
        return result, seconds, self.slowness(self.mark())


# ------------------------------------------------------------- statistics
def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, n)``: the highest percentile of ``values``
    that still has at least ten samples beyond it."""

    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    return ordered[n - 11], 100.0 * (n - 10) / n, n


@dataclass
class Segment:
    """Consecutive calls of one round, timed between two calibrations."""

    round: int
    seconds: float
    slowness: float
    calls: list[float]


@dataclass
class Rounds:
    """The timed segments of a sequence of rounds."""

    segments: list[Segment]

    def corrected(self) -> "Rounds":
        """The same segments divided by their host slowness."""

        return Rounds([Segment(s.round, s.seconds / s.slowness, 1.0,
                               [c / s.slowness for c in s.calls])
                       for s in self.segments])

    def round_seconds(self) -> list[float]:
        totals: dict[int, float] = {}
        for segment in self.segments:
            totals[segment.round] = (totals.get(segment.round, 0.0)
                                     + segment.seconds)
        return [totals[number] for number in sorted(totals)]

    def fastest_rate(self, work: float) -> float:
        """``work`` per second over the faster half of the rounds.

        Only for rounds that repeat identical work: a slower one then
        measures time the shared host took away, not the program.
        """

        seconds = self.round_seconds()
        kept = sorted(seconds)[:(len(seconds) + 1) // 2]
        return work * len(kept) / sum(kept)

    def all_calls(self) -> list[float]:
        return [call for segment in self.segments for call in segment.calls]


def timed_rounds(rounds: list[list], round_call) -> tuple[Rounds, list]:
    """Time ``call(item)`` for every item of every round.

    ``round_call(number)`` returns round ``number``'s ``call``; it runs
    untimed.  A calibration follows every ``SEGMENT_S`` of timed calls,
    and each round ends with a timed garbage collection.  Returns the
    raw :class:`Rounds` (segments with their host slowness) and each
    round's call results.
    """

    host = HostClock()
    segments, results = [], []
    for number, items in enumerate(rounds):
        call, out = round_call(number), []
        calls, started = [], clock()
        for position, item in enumerate(items):
            start = clock()
            out.append(call(item))
            calls.append(clock() - start)
            end = position == len(items) - 1
            if end:
                gc.collect()
            if end or clock() - started >= SEGMENT_S:
                seconds = clock() - started
                host.mark()
                segments.append(Segment(number, seconds, 0.0, calls))
                calls, started = [], clock()
        results.append(out)
    for position, segment in enumerate(segments):
        segment.slowness = host.slowness(position)
    print("#", json.dumps({"host_slowness": [round(s.slowness, 3)
                                              for s in segments]}),
          flush=True)
    return Rounds(segments), results


def ingest_rounds(call, items: list, warmup: int) -> Rounds:
    """``call([item])`` once per item: the first ``warmup`` items
    untimed, the rest as one timed round."""

    for item in items[:warmup]:
        call([item])
    return timed_rounds([items[warmup:]],
                        lambda _: lambda item: call([item]))[0]


def timing_metrics(run: Run, classify: Rounds, items: float,
                   megabytes: float, ingest: Rounds) -> dict:
    """Host-corrected ``items_per_s``, ``mb_per_s``, ``latency_*`` and
    ``ingest_*`` of in-process rounds.

    ``classify`` rounds repeat identical work of ``items`` calls'
    worth and ``megabytes`` of executables; the rates count their
    faster half.  Latencies pool the calls of every round.  The same
    figures without the host correction go to a ``raw_metrics`` detail
    line, so the correction can be judged against them.
    """

    def figures(classify: Rounds, ingest: Rounds, report=None) -> dict:
        return {"items_per_s": (classify.fastest_rate(items), "1/s"),
                "mb_per_s": (classify.fastest_rate(megabytes), "MB/s"),
                **latency_metrics(report, "latency", classify.all_calls()),
                **latency_metrics(report, "ingest", ingest.all_calls())}

    run.info(raw_metrics={name: value for name, (value, _)
                          in figures(classify, ingest).items()})
    return figures(classify.corrected(), ingest.corrected(), run)


def latency_metrics(run: Run | None, prefix: str,
                    seconds: list[float]) -> dict:
    """``<prefix>_p50_ms`` and ``<prefix>_tail_ms`` from per-call seconds;
    the tail's percentile and sample count go to ``run``'s details."""

    value, pct, n = tail(seconds)
    if run is not None:
        run.info(metric=f"{prefix}_tail_ms", percentile=round(pct, 2),
                 samples=n)
    return {f"{prefix}_p50_ms": (statistics.median(seconds) * 1e3, "ms"),
            f"{prefix}_tail_ms": (value * 1e3, "ms")}


def f1_metrics(expected, predicted) -> dict:
    """The paper's report: macro, micro and weighted F1 (unknowns held out)."""

    from repro.ml.metrics import classification_report

    report = classification_report(list(expected), list(predicted))
    return {"macro_f1": (report.macro_f1, "ratio"),
            "micro_f1": (report.micro_f1, "ratio"),
            "weighted_f1": (report.weighted_f1, "ratio")}


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def decision_key(decision) -> tuple:
    """What must match between two classifications of one executable."""

    return (decision.sample_id, decision.predicted_class,
            decision.confidence, decision.decision)


def agreed_decisions(rounds: list[list[list]]) -> dict:
    """``{sample_id: decision_key}`` over every round's per-call decision
    lists; ids whose calls disagree map to None, so they fail the
    reference comparison."""

    merged: dict = {}
    for calls in rounds:
        for decisions in calls:
            for decision in decisions:
                key = decision_key(decision)
                if merged.setdefault(decision.sample_id, key) != key:
                    merged[decision.sample_id] = None
    return merged


def compare_decisions(run: Run, what: str, got: dict, reference: dict) -> int:
    """Count ids whose decision differs from the reference (or is missing)."""

    bad = [key for key, value in reference.items() if got.get(key) != value]
    run.check(not bad, f"{len(bad)} of {len(reference)} {what} decisions "
                       f"differ from the in-process reference "
                       f"(first: {bad[:1]})")
    return len(bad)
