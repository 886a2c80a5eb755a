"""The benchmark workloads: inputs, one measured pass, checks.

Every workload runs the registered ``mixed-anomaly-day`` scenario built
from the benchmark's ``--seed``; the program sees only the generated
records or the trace written from them.  Each is a closed loop: one
caller feeds the input as fast as the system accepts it.

* ``live-sketch`` — GÉANT records generated inline by
  :class:`ScenarioSource`, detected by ``DetectionPipeline.run(mode=
  "stream")`` with Count-Min sketches.
* ``replay-exact`` — Abilene, the scenario written in set-up as a
  version-2 trace, detected by
  ``StreamingDetectionEngine.process_precomputed``.

A workload object offers ``setup()`` (timed, repeated; builds one input
instance), ``run_pass()`` (one full detection over an instance,
returning a :class:`PassResult`),
``check()`` (after measuring: failed and attempted bins per pass) and
``properties()``.  Whatever it writes goes under its ``workdir``, which
the caller deletes.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.pipeline import DetectionPipeline, ScenarioSource, TraceSource
from repro.quality.score import score_report
from repro.stream import StreamConfig, StreamingDetectionEngine

__all__ = ["SCENARIO", "SHAPES", "Shape", "PassResult", "WORKLOADS", "signature"]

SCENARIO = "mixed-anomaly-day"


@dataclass(frozen=True)
class Shape:
    """Input size and detector set-up of one workload.

    ``n_bins - warmup_bins`` bins are scored per pass; at least 100 keep
    the p90 latency backed by ten samples beyond it in a single pass.
    """

    network: str
    n_bins: int
    max_records_per_od: int
    warmup_bins: int
    exact: bool

    def config(self) -> StreamConfig:
        # refit_every=12 is the CLI's default: the live deployment
        # refits its normal subspace as clean bins arrive.
        return StreamConfig(
            warmup_bins=self.warmup_bins,
            refit_every=12,
            exact_histograms=self.exact,
        )

    def source(self, seed: int, cls=ScenarioSource) -> ScenarioSource:
        return cls(
            SCENARIO,
            network=self.network,
            n_bins=self.n_bins,
            seed=seed,
            max_records_per_od=self.max_records_per_od,
        )


SHAPES = {
    # Few records per (OD, bin): GÉANT's per-bin costs (484 ODs x 4
    # features of sketches, 1936-wide scoring) dominate regardless, and
    # one pass already takes ~20 s on a 2-core machine.
    "live-sketch": Shape("geant", 150, 8, 48, exact=False),
    # Dense bins (the scenario's default cap) so the per-record kernel
    # work is large next to the per-bin scoring.  A 96-bin warm-up flags
    # ~15-30% of scored bins; after 48 bins it flags ~40-45%, which puts
    # the latency median on the edge between clean and flagged bins.
    "replay-exact": Shape("abilene", 198, 120, 96, exact=True),
}


def signature(report) -> dict[int, tuple]:
    """Per scored bin: both channels, identified ODs, SPE and records.

    The record count is part of it so that an empty or partial bin
    cannot pass for the real one.
    """
    return {
        int(d.bin): (
            bool(d.detected_by_entropy),
            bool(d.detected_by_volume),
            tuple(int(f.od) for f in d.flows),
            float(d.spe_entropy),
            int(d.n_records),
        )
        for d in report.detections
    }


def _digest(sig: dict[int, tuple]) -> str:
    """A stable hash of a signature (floats by their exact repr)."""
    text = json.dumps(sorted((b, repr(v)) for b, v in sig.items()))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class PassResult:
    """One measured pass over one input instance of the workload."""

    records: int
    wall_s: float
    latencies_ms: list[float]
    report: object
    extra: dict = field(default_factory=dict)
    instance: int = 0


class _Probe:
    """Replace one attribute for the length of a ``with`` block."""

    def __init__(self, owner, attr: str, replacement) -> None:
        self.owner, self.attr, self.replacement = owner, attr, replacement

    def __enter__(self):
        self.previous = vars(self.owner)[self.attr]
        setattr(self.owner, self.attr, self.replacement)

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self.previous)


class _StampedSource(ScenarioSource):
    """The scenario source, stamping each chunk as it leaves ``next``.

    ``handed_at`` is the time the most recent chunk (or the end of the
    stream) was handed to the pipeline: a verdict the pipeline emits
    was produced by that input.  With a tracer, each ``next`` is a
    ``sources.busy_s`` span.
    """

    tracer = None

    def batches(self, chunk_records=None):
        inner = iter(super().batches(chunk_records))
        tracer = self.tracer
        while True:
            if tracer is None:
                chunk = next(inner, None)
            else:
                with tracer.span("sources.busy_s"):
                    chunk = next(inner, None)
            self.handed_at = time.perf_counter()
            if chunk is None:
                return
            if tracer is not None:
                tracer.count("sources.chunks")
                tracer.count("sources.records", len(chunk))
            yield chunk


#: Scenario days per run.  Set-ups build them in turn and passes
#: alternate between them, so a run's figures pool two independent days
#: (204 scored bins) instead of one day's 102 bins over and over: the
#: share of flagged bins, which drives scoring cost, varies by day.
INSTANCES = 2


class _Workload:
    """Instances, set-up and pass rotation shared by both workloads."""

    name = ""
    warm_up_pass = True

    def __init__(self, seed: int, workdir: Path, shape: Shape | None = None) -> None:
        self.shape = shape or SHAPES[self.name]
        self.workdir = workdir
        self.seeds = [INSTANCES * seed + i for i in range(INSTANCES)]
        self.instances: dict[int, object] = {}
        self.setups_run = 0
        self.passes_run = 0

    def setup(self) -> None:
        """Build the next instance's input (one scenario day)."""
        index = self.setups_run % INSTANCES
        self.setups_run += 1
        self.instances[index] = self._build(self.seeds[index])

    def run_pass(self, tracer=None) -> PassResult:
        """Detect over the next instance once, end to end."""
        index = self.passes_run % INSTANCES
        self.passes_run += 1
        result = self._pass(self.instances[index], tracer)
        result.instance = index
        return result

    def properties(self, p: PassResult) -> dict:
        """What a claim about this workload must cite (from pass ``p``)."""
        report = p.report
        scored = report.n_bins_scored
        flagged = sum(1 for d in report.detections if d.detected)
        topology = self._topology(self.instances[p.instance])
        return {
            "scenario": SCENARIO,
            "scenario_seed": self.seeds[p.instance],
            "network": topology.name,
            "records": int(p.records),
            "od_flows": int(topology.n_od_flows),
            "bins": self.shape.n_bins,
            "scored_bins": int(scored),
            "records_per_od_bin": p.records / (topology.n_od_flows * self.shape.n_bins),
            "flagged_share": flagged / scored if scored else 0.0,
            **self._state_sizes(self.instances[p.instance]),
        }


class LiveSketch(_Workload):
    """Inline generation + stream mode + Count-Min sketches (GÉANT)."""

    name = "live-sketch"
    #: One pass (~20 s) outlasts the measurement; a warm-up pass would
    #: lengthen the run by half for a one-off cost well under a second.
    warm_up_pass = False

    def _build(self, seed: int) -> _StampedSource:
        src = self.shape.source(seed, cls=_StampedSource)
        src.events  # noqa: B018 - schedule the events, build the topology
        return src

    def _topology(self, src):
        return src.topology

    def _state_sizes(self, src) -> dict:
        cfg = self.shape.config()
        # Per-bin sketch counters: one (depth x width) int64 table per
        # active OD and feature.
        counters = src.topology.n_od_flows * 4 * cfg.sketch_depth * cfg.sketch_width
        return {"trace_bytes": 0, "sketch_state_mb": counters * 8 / 1e6}

    def _pass(self, src: _StampedSource, tracer) -> PassResult:
        src.tracer = tracer
        latencies: list[float] = []

        def on_detection(verdict) -> None:
            latencies.append((time.perf_counter() - src.handed_at) * 1e3)

        pipeline = DetectionPipeline(self.shape.config())
        start = time.perf_counter()
        result = pipeline.run(src, mode="stream", on_detection=on_detection)
        wall = time.perf_counter() - start
        return PassResult(result.n_records, wall, latencies, result.report,
                          {"stream.late_records": result.report.late_records})

    def check(self, passes: list[PassResult], record_dir: Path, program_digest: str):
        """Per pass: scored-bin count, every planted event matched, and
        a signature identical to every other pass of its scenario seed,
        in this run or an earlier one (recorded under ``record_dir``)."""
        expected = self.shape.n_bins - self.shape.warmup_bins
        out = []
        for p in passes:
            src = self.instances[p.instance]
            sig = signature(p.report)
            failed = max(0, expected - len(sig))
            failed += score_report(src.events, p.report)["any"].fn
            this = _digest(sig)
            record = record_dir / (
                f"{self.name}-{src.spec.seed}-{program_digest[:16]}.sha256")
            if not record.exists():
                record_dir.mkdir(parents=True, exist_ok=True)
                record.write_text(this + "\n")
            elif record.read_text().strip() != this:
                failed = expected
            out.append((min(failed, expected), expected))
        return out


class ReplayExact(_Workload):
    """Version-2 trace written in set-up, precomputed exact replay."""

    name = "replay-exact"

    def _build(self, seed: int):
        from repro.io.trace import TraceWriter

        src = self.shape.source(seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        with TraceWriter(
            self.workdir / f"{self.name}-{seed}.trace",
            n_bins=src.spec.n_bins,
            bin_width=src.spec.bin_width,
            start=src.spec.bin_start,
            network=src.topology.name,
            meta={"scenario": SCENARIO, "seed": seed},
            derive=True,
            topology=src.topology,
        ) as writer:
            # The natural batches are one per bin, in bin order.
            for b, batch in zip(range(src.spec.n_bins), src.batches()):
                writer.append(b, batch)
        return src.topology, writer.info

    def _topology(self, instance):
        return instance[0]

    def _state_sizes(self, instance) -> dict:
        return {"trace_bytes": instance[1].path.stat().st_size, "sketch_state_mb": 0.0}

    def _pass(self, instance, tracer) -> PassResult:
        import repro.stream.replay as replay

        topology, info = instance
        requested: dict[int, float] = {}
        latencies: list[float] = []
        original = replay.iter_precomputed_summaries

        def stamped(*args, **kwargs):
            inner = original(*args, **kwargs)
            while True:
                asked = time.perf_counter()
                summary = next(inner, None)
                if summary is None:
                    return
                requested[summary.bin] = asked
                yield summary

        start = time.perf_counter()
        engine = StreamingDetectionEngine(topology, self.shape.config())
        observe = engine.bank.observe

        def timed_observe(summary):
            verdict = observe(summary)
            if verdict is not None:
                latencies.append((time.perf_counter() - requested[summary.bin]) * 1e3)
            return verdict

        engine.bank.observe = timed_observe
        with _Probe(replay, "iter_precomputed_summaries", stamped):
            report = engine.process_precomputed(info.path)
        wall = time.perf_counter() - start
        return PassResult(report.n_records, wall, latencies, report)

    def check(self, passes: list[PassResult], record_dir: Path, program_digest: str):
        """Per pass: every bin's signature equals a batch-mode run over
        the same trace (computed here, untimed) and every record was
        ingested."""
        refs = {}
        for index, (_, info) in self.instances.items():
            result = DetectionPipeline(self.shape.config()).run(
                TraceSource(info.path), mode="batch")
            refs[index] = signature(result.report)
        out = []
        for p in passes:
            ref = refs[p.instance]
            expected = len(ref)
            sig = signature(p.report)
            failed = sum(1 for b in set(ref) | set(sig) if sig.get(b) != ref.get(b))
            if p.records != self.instances[p.instance][1].n_records:
                failed = expected
            out.append((min(failed, expected), expected))
        return out


WORKLOADS = {cls.name: cls for cls in (LiveSketch, ReplayExact)}
