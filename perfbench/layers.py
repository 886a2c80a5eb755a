"""The program's layers as the traced run sees them.

:func:`plan` points a :class:`tracer.Tracer` at the public functions
each layer exposes; :func:`layer_metrics` turns the recorded spans and
counters into the per-layer metrics named in ``BENCHMARK.json``.  Which
end-to-end metric each layer should move, and on which workload, is
tabulated in ``README.md`` next to this file.

Every time and count is per measured pass (``run`` phase) or per
set-up (``setup`` phase), so runs with different pass counts compare.
"""

from __future__ import annotations

from tracer import Tracer

__all__ = ["LAYERS", "PER_LAYER", "layer_metrics", "plan"]

#: Layer prefixes, in the order the README's map lists them.
LAYERS = ("sources", "traffic", "net", "io", "stream", "kernels", "flows",
          "pipeline", "core")

#: ``(name, unit, better)`` of every per-layer metric.
PER_LAYER = (
    ("sources.chunks", "count", "lower"),
    ("sources.records", "count", "higher"),
    ("sources.busy_s", "s", "lower"),
    ("traffic.calls", "count", "lower"),
    ("traffic.records", "count", "higher"),
    ("traffic.busy_s", "s", "lower"),
    ("net.lookups", "count", "lower"),
    ("net.busy_s", "s", "lower"),
    ("io.bytes_read", "bytes", "lower"),
    ("io.read_busy_s", "s", "lower"),
    ("io.bytes_written", "bytes", "lower"),
    ("io.write_busy_s", "s", "lower"),
    ("stream.records_in", "count", "higher"),
    ("stream.bins_closed", "count", "higher"),
    ("stream.late_records", "count", "lower"),
    ("stream.ingest_busy_s", "s", "lower"),
    ("stream.finalize_busy_s", "s", "lower"),
    ("stream.replay_busy_s", "s", "lower"),
    ("kernels.calls", "count", "lower"),
    ("kernels.keys", "count", "lower"),
    ("kernels.busy_s", "s", "lower"),
    ("flows.sketch_updates", "count", "lower"),
    ("flows.sketch_busy_s", "s", "lower"),
    ("flows.sketch_query_busy_s", "s", "lower"),
    ("flows.sketch_state_mb", "MB", "lower"),
    ("pipeline.bins_scored", "count", "higher"),
    ("pipeline.flagged_bins", "count", "lower"),
    ("pipeline.observe_busy_s", "s", "lower"),
    ("pipeline.warmup_fit_s", "s", "lower"),
    ("core.entropy_busy_s", "s", "lower"),
    ("core.volume_busy_s", "s", "lower"),
) + tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS) + (
    ("setup.traffic_busy_s", "s", "lower"),
    ("setup.net_busy_s", "s", "lower"),
    ("setup.kernels_busy_s", "s", "lower"),
    ("trace.untraced_records_per_s", "1/s", "higher"),
    ("trace.traced_records_per_s", "1/s", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)

#: Why a layer reads zero on a workload that never reaches it.
ABSENT = {
    "live-sketch": {
        "io": "records are generated inline; no trace is read or written",
        "stream.replay_busy_s": "the live path reduces raw records, not derived columns",
        "setup.": "generation runs lazily inside the measured pass",
    },
    "replay-exact": {
        "sources": "the replay loop pulls summaries, not record chunks",
        "traffic": "records were generated and written in set-up (see setup.*)",
        "net": "a version-2 trace stores each record's OD",
        "flows": "exact histograms build no sketches",
        "stream.records_in": "no record chunks reach the feature stage",
        "stream.ingest_busy_s": "no record chunks reach the feature stage",
        "stream.finalize_busy_s": "summaries come from derived columns",
        "stream.bins_closed": "summaries come from derived columns",
    },
}


def _nbytes(arrays) -> int:
    return int(sum(a.nbytes for a in arrays))


def _batch_bytes(batch) -> int:
    from repro.flows.records import COLUMN_SPEC

    return _nbytes(getattr(batch, name) for name, _ in COLUMN_SPEC)


def _sketch_state_mb(accumulator) -> float:
    if accumulator.exact:
        return 0.0
    banks, _ = accumulator.sketch_state()
    return sum(b.tables.nbytes + b.totals.nbytes for b in banks) / 1e6


def plan(tracer: Tracer) -> Tracer:
    """Point ``tracer`` at every layer's public functions."""
    import repro.cluster  # noqa: F401 - bind every import site first
    import repro.flows.odflows  # noqa: F401
    import repro.pipeline  # noqa: F401
    import repro.stream.replay  # noqa: F401
    from repro import kernels
    from repro.flows import sketches
    from repro.io.trace import TraceReader, TraceWriter
    from repro.net.routing import Router
    from repro.pipeline import bank
    from repro.stream.replay import bin_summary_from_derived
    from repro.stream.window import BinAccumulator, StreamFeatureStage
    from repro.traffic.generator import TrafficGenerator

    t = tracer
    t.patch_method(
        TrafficGenerator, "materialize_bin_group", "traffic.busy_s",
        lambda a, k, r: {"traffic.calls": 1,
                         "traffic.records": sum(len(b) for b in r)},
    )
    t.patch_method(Router, "resolve_ods_mixed", "net.busy_s",
                   lambda a, k, r: {"net.lookups": len(r)})

    def derived_bytes(a, k, r):
        ods, runids = r
        return {"io.bytes_read": _nbytes([ods, *runids])}

    t.patch_method(TraceReader, "read_derived_bin", "io.read_busy_s", derived_bytes)
    for name in ("iter_chunks", "read_rows"):
        t.patch_method(TraceReader, name, "io.read_busy_s",
                       lambda a, k, r: {"io.bytes_read": _batch_bytes(r)})
    t.patch_method(TraceWriter, "append", "io.write_busy_s")
    t.patch_method(TraceWriter, "close", "io.write_busy_s",
                   lambda a, k, r: {"io.bytes_written": r.path.stat().st_size})

    t.patch_method(StreamFeatureStage, "ingest", "stream.ingest_busy_s",
                   lambda a, k, r: {"stream.records_in": len(a[1]),
                                    "stream.bins_closed": len(r)})
    t.patch_method(StreamFeatureStage, "flush", "stream.ingest_busy_s",
                   lambda a, k, r: {"stream.bins_closed": len(r)})

    def finalize(a, k, r):
        t.gauge_max("flows.sketch_state_mb", _sketch_state_mb(a[0]))
        return {}

    t.patch_method(BinAccumulator, "finalize", "stream.finalize_busy_s", finalize)
    t.patch_everywhere(bin_summary_from_derived, "stream.replay_busy_s")

    keys = lambda a, k, r: {"kernels.calls": 1, "kernels.keys": len(a[0])}  # noqa: E731
    for function in (kernels.group_reduce, kernels.grouped_entropy,
                     kernels.group_sums, kernels.sort_order):
        t.patch_everywhere(function, "kernels.busy_s", keys)

    t.patch_method(sketches.SketchBank, "update", "flows.sketch_busy_s",
                   lambda a, k, r: {"flows.sketch_updates": len(a[3])})
    t.patch_method(sketches.SketchBank, "query_runs", "flows.sketch_query_busy_s")
    t.patch_everywhere(sketches.entropy_from_sketch_runs, "flows.sketch_query_busy_s")

    t.patch_method(
        bank.DetectorBank, "observe", "pipeline.observe_busy_s",
        lambda a, k, r: {} if r is None else {
            "pipeline.bins_scored": 1, "pipeline.flagged_bins": int(r.detected)},
    )
    for cls in vars(bank).values():
        if (isinstance(cls, type) and issubclass(cls, bank.BinDetector)
                and cls is not bank.BinDetector):
            t.patch_method(cls, "warm_up", "pipeline.warmup_fit_s")
            t.patch_method(cls, "observe", f"core.{cls.channel}_busy_s")
    return t


def layer_metrics(tracer: Tracer, passes: int, setups: int, extra: dict) -> dict[str, float]:
    """Every per-layer metric value, per measured pass or per set-up.

    ``extra`` supplies what the spans cannot: ``stream.late_records``
    (per pass) and the three ``trace.*`` throughput figures.
    """
    out: dict[str, float] = {}
    per_pass = 1.0 / max(1, passes)
    per_setup = 1.0 / max(1, setups)
    for name, unit, _ in PER_LAYER:
        if name.startswith(("setup.", "trace.")) or name.endswith(".self_s"):
            continue
        if name in ("io.bytes_written", "io.write_busy_s"):
            # Traces are written only while replay-exact sets up.
            source = (tracer.busy(name, "setup") if unit == "s"
                      else tracer.counter(name, "setup"))
            out[name] = source * per_setup
        elif name == "flows.sketch_state_mb":
            out[name] = tracer.gauge(name)
        elif unit == "s":
            out[name] = tracer.busy(name) * per_pass
        else:
            out[name] = tracer.counter(name) * per_pass
    selfs = tracer.self_times("run")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = selfs.get(layer, 0.0) * per_pass
    for layer in ("traffic", "net", "kernels"):
        out[f"setup.{layer}_busy_s"] = tracer.busy(f"{layer}.busy_s", "setup") * per_setup
    for name in ("stream.late_records",
                 "trace.untraced_records_per_s", "trace.traced_records_per_s",
                 "trace.overhead_frac"):
        out[name] = float(extra.get(name, 0.0))
    return out
