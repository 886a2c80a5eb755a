#!/usr/bin/env python3
"""End-to-end detection benchmark: one workload, one seed, one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload replay-exact --seed 1 --seconds 10 --trace 0

The program under test is imported from ``src/`` of the checkout this
file sits in.  One run:

1. sets the workload up several times, each set-up building one of its
   input instances in turn (``setup_s`` is the median);
2. makes one warm-up pass that is neither timed nor checked, unless a
   single pass is as long as the measurement (``live-sketch``);
3. repeats measured passes until ``--seconds`` have elapsed and at
   least ``MIN_PASSES`` ran;
4. with ``--trace 1``, repeats traced passes for as long again (the
   set-ups are traced too) and reports per-layer metrics instead;
5. checks every pass's detections (``failed``/``attempted`` count
   bins) and prints the metrics named in ``BENCHMARK.json``.

The exit code is 0 when every check passed, 1 when a check failed and
2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Passes per measured (and traced) phase, however long they take:
#: ``live-sketch`` alternates two scenario days and measures each.
MIN_PASSES = 2

#: Set-ups per run: at least ``MIN_SETUPS``, more while they have taken
#: under ``SETUP_BUDGET_S`` (cheap set-ups are noisy), at most
#: ``MAX_SETUPS``.  ``setup_s`` reports their median.
MIN_SETUPS = 3  # at least one per input instance
MAX_SETUPS = 50
SETUP_BUDGET_S = 1.0


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    if not (SRC / "repro" / "__init__.py").is_file():
        _die(f"no program to benchmark: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        _die(f"imported repro from {repro.__file__}, not from {SRC}")


def _program_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    """Resident-set high-water mark of this process or any child, MB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def _measure(workload, seconds: float, min_passes: int, tracer=None) -> list:
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append(workload.run_pass(tracer))
    return passes


def _rate(passes) -> float:
    """Records over wall time, taking each input instance's median pass
    time: robust to a pass the host slowed, and weighting both
    instances alike however many passes each got."""
    walls: dict[int, list[float]] = {}
    records: dict[int, int] = {}
    for p in passes:
        walls.setdefault(p.instance, []).append(p.wall_s)
        records[p.instance] = p.records
    return sum(records.values()) / sum(statistics.median(w) for w in walls.values())


def end_to_end(passes, setup_times, peak_mb) -> dict[str, float]:
    """The end-to-end metrics of one run, or ValueError if one is missing."""
    from stats import percentile, tail_percentile

    latencies = [x for p in passes for x in p.latencies_ms]
    if not latencies:
        raise ValueError("no scored bin produced a latency sample")
    p90 = tail_percentile(latencies, 90)
    if p90 is None:
        raise ValueError(
            f"{len(latencies)} latency samples leave fewer than ten beyond p90"
        )
    return {
        "records_per_s": _rate(passes),
        "bin_latency_p50_ms": percentile(latencies, 50),
        "bin_latency_p90_ms": p90,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_mb,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        _die("--seconds must be positive")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        _die(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    _import_program()

    import layers
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _die(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}"
    workload = WORKLOADS[args.workload](args.seed, workdir)
    tracer = layers.plan(Tracer()) if args.trace else None

    try:
        setup_times: list[float] = []
        while len(setup_times) < MIN_SETUPS or (
            sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < MAX_SETUPS
        ):
            start = time.perf_counter()
            if tracer is not None:
                tracer.phase = "setup"
                with tracer:
                    workload.setup()
            else:
                workload.setup()
            setup_times.append(time.perf_counter() - start)
        if workload.warm_up_pass:
            workload.run_pass()  # lazy imports, first page faults
        passes = _measure(workload, args.seconds, MIN_PASSES)
        traced = []
        if tracer is not None:
            tracer.phase = "run"
            with tracer:
                traced = _measure(workload, args.seconds, MIN_PASSES, tracer)
        peak_mb = peak_rss_mb()
        outcomes = workload.check(passes + traced, HERE / ".signatures", _program_digest())
        properties = workload.properties(passes[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(f for f, _ in outcomes)
    attempted = sum(a for _, a in outcomes)
    samples = sum(len(p.latencies_ms) for p in passes)
    print(f"{args.workload}: {len(passes)} measured and {len(traced)} traced "
          f"pass(es), {samples} latency samples, failed_frac "
          f"{failed / attempted:.6f} of {attempted} bins attempted")
    if args.trace:
        untraced, traced_rate = _rate(passes), _rate(traced)
        extra = {
            "trace.untraced_records_per_s": untraced,
            "trace.traced_records_per_s": traced_rate,
            "trace.overhead_frac": 1.0 - traced_rate / untraced,
        }
        late = [p.extra["stream.late_records"] for p in traced
                if "stream.late_records" in p.extra]
        if late:
            extra["stream.late_records"] = statistics.mean(late)
        values = layers.layer_metrics(tracer, len(traced), len(setup_times), extra)
        for key, reason in layers.ABSENT.get(args.workload, {}).items():
            print(f"absent on {args.workload}: {key}* reads 0 — {reason}")
    else:
        try:
            values = end_to_end(passes, setup_times, peak_mb)
        except ValueError as exc:
            _die(str(exc))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    expected = [m["name"] for m in declared]
    if sorted(values) != sorted(expected):
        _die(f"metric names {sorted(values)} do not match BENCHMARK.json")
    print("workload properties: " + json.dumps(properties, sort_keys=True))
    for name in expected:
        print(f"  {name:32s} {values[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in expected},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
