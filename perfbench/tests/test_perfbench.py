"""Tests of the benchmark's own machinery (not of the program).

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
for path in (ROOT / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import run  # noqa: E402
from stats import percentile, tail_percentile  # noqa: E402
from tracer import Tracer, is_wrapper  # noqa: E402
from workloads import PassResult, ReplayExact, Shape  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class _Ticks:
    """A clock that advances one second per reading."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


@pytest.fixture
def fake_program(monkeypatch):
    core = types.ModuleType("pbfake.core")
    user = types.ModuleType("pbfake.user")

    def kernel(x):
        return x * 2

    def numbers(n):
        yield from range(n)

    class Base:
        def inherited(self):
            return "base"

    class Thing(Base):
        def method(self, x):
            return core.kernel(x) + 1

        @classmethod
        def build(cls, x):
            return x

    core.kernel, core.numbers, core.Thing = kernel, numbers, Thing
    user.kernel = kernel  # bound by name, as ``from core import kernel``
    monkeypatch.setitem(sys.modules, "pbfake.core", core)
    monkeypatch.setitem(sys.modules, "pbfake.user", user)
    return core, user


def test_wrappers_count_exactly_and_leave_no_patch(fake_program):
    core, user = fake_program
    Thing = core.Thing
    originals = {
        "kernel": core.kernel,
        "method": vars(Thing)["method"],
        "build": vars(Thing)["build"],
        "numbers": core.numbers,
    }
    tracer = Tracer(module_prefix="pbfake", clock=_Ticks())
    tracer.patch_everywhere(core.kernel, "k.busy_s", lambda a, k, r: {"k.calls": 1})
    tracer.patch_method(Thing, "method", "t.busy_s", lambda a, k, r: {"t.calls": 1})
    tracer.patch_method(Thing, "build", "t.build_s", lambda a, k, r: {"t.built": a[1]})
    tracer.patch_method(Thing, "inherited", "t.inherited_s")
    tracer.patch_method(core, "numbers", "g.busy_s", lambda a, k, r: {"g.items": 1})
    with tracer:
        assert is_wrapper(user.kernel) and is_wrapper(core.kernel)
        for x in range(3):
            core.kernel(x)
        for x in range(2):
            user.kernel(x)
        for x in range(4):
            assert Thing().method(x) == 2 * x + 1
        assert Thing.build(7) == 7
        assert Thing().inherited() == "base"
        assert list(core.numbers(5)) == [0, 1, 2, 3, 4]
    assert tracer.counter("k.calls") == 3 + 2 + 4
    assert tracer.counter("t.calls") == 4
    assert tracer.counter("t.built") == 7
    assert tracer.counter("g.items") == 5
    # One tick per clock reading: a bare call lasts 1 s, a method call
    # wrapping one kernel call lasts 3 s of which 2 s are its own.
    assert tracer.busy("k.busy_s") == 9
    assert tracer.busy("t.busy_s") == 12
    assert tracer.self_times()["t"] == 8 + 1 + 1
    # Six next() calls: five items plus the one that ends the generator.
    assert tracer.busy("g.busy_s") == 6

    assert core.kernel is originals["kernel"] and user.kernel is originals["kernel"]
    assert vars(Thing)["method"] is originals["method"]
    assert vars(Thing)["build"] is originals["build"]
    assert "inherited" not in vars(Thing)
    assert core.numbers is originals["numbers"]


def test_same_metric_nesting_counts_once():
    tracer = Tracer(clock=_Ticks())
    with tracer.span("a.busy_s"):
        with tracer.span("a.busy_s"):
            pass
    assert tracer.busy("a.busy_s") == 3
    assert tracer.self_times() == {"a": 3}


def _leftover_wrappers() -> list[str]:
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in vars(module).items():
            if is_wrapper(value):
                found.append(f"{name}.{attr}")
            if isinstance(value, type) and value.__module__ == name:
                found += [f"{name}.{attr}.{k}" for k, v in vars(value).items() if is_wrapper(v)]
    return found


def test_program_plan_patches_every_import_site_and_restores():
    import repro.cluster.summary
    import repro.flows.odflows
    import repro.stream.replay
    import repro.stream.window
    from repro.stream.replay import bin_summary_from_derived

    tracer = layers.plan(Tracer())
    with tracer:
        for module in (repro.stream.window, repro.flows.odflows, repro.cluster.summary):
            assert is_wrapper(module.group_reduce), module.__name__
        assert is_wrapper(repro.stream.replay.grouped_entropy)
        assert is_wrapper(repro.stream.replay.bin_summary_from_derived)
        # One bin of derived columns: two ODs, runs (0, 1) and (2,).
        ods = np.array([0, 0, 1])
        runids = [np.array([0, 1, 2])] * 4
        repro.stream.replay.bin_summary_from_derived(
            0, ods, runids, np.array([1, 2, 3]), np.array([40, 80, 120]), 2)
    # Four features' grouped entropies plus packet and byte sums.
    assert tracer.counter("kernels.calls") == 6
    assert tracer.counter("kernels.keys") == 4 * 3 + 2 * 3
    assert tracer.busy("stream.replay_busy_s") >= tracer.busy("kernels.busy_s") > 0
    assert repro.stream.replay.bin_summary_from_derived is bin_summary_from_derived
    assert _leftover_wrappers() == []


def test_tail_percentile_needs_ten_samples_beyond():
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert tail_percentile(list(range(100)), 90) == pytest.approx(89.1)
    assert tail_percentile(list(range(90)), 90) is None  # 9 beyond
    assert tail_percentile([5.0] * 500, 90) is None  # ties: none beyond
    assert tail_percentile(list(range(1000)), 99) is not None
    assert tail_percentile(list(range(1000)), 99.5) is None


TINY = Shape("abilene", n_bins=6, max_records_per_od=3, warmup_bins=3, exact=True)


def _input_digest(seed: int) -> str:
    h = hashlib.sha256()
    for batch in TINY.source(seed).batches():
        for name in ("timestamp", "src_ip", "dst_ip", "src_port", "dst_port", "packets"):
            h.update(np.ascontiguousarray(getattr(batch, name)).tobytes())
    return h.hexdigest()


def test_seed_fixes_the_inputs(tmp_path):
    assert _input_digest(1) == _input_digest(1)
    assert _input_digest(1) != _input_digest(2)

    def trace_bytes(seed, sub):
        workload = ReplayExact(seed, tmp_path / sub, shape=TINY)
        workload.setup()
        _, info = workload.instances[0]
        return info.path.read_bytes()

    assert trace_bytes(3, "a") == trace_bytes(3, "b")
    assert trace_bytes(3, "a") != trace_bytes(4, "c")


def test_printed_metric_names_match_benchmark_json():
    per_layer = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert per_layer == list(layers.PER_LAYER)
    values = layers.layer_metrics(Tracer(), passes=1, setups=1, extra={})
    assert sorted(values) == sorted(name for name, _, _ in per_layer)

    passes = [PassResult(1000, 0.5, [float(x) for x in range(120)], report=None)]
    values = run.end_to_end(passes, [1.0, 2.0, 3.0], peak_mb=100.0)
    assert sorted(values) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert values["setup_s"] == 2.0
    assert values["records_per_s"] == 2000.0
