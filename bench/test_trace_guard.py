"""Guards on the benchmark's trace: every layer is measured, counts repeat.

    PYTHONPATH=src python3 -m pytest -q bench/test_trace_guard.py

If a change renames a layer function or stops calling it, the metrics
drawn from its spans become unmeasured (None), and these tests fail
rather than letting the layer read as 0 s.
"""

import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import beamfield  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Span, Tracer, self_times  # noqa: E402

# Counted or computed from the inputs, so equal on every run of one workload.
COUNTED = ("ofdm.bits", "ofdm.gflop_computed", "channel.gain_entries",
           "field.gains_useful_frac", "runner.artifacts")


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    seed = 3
    paths = workloads.write(seed, str(tmp_path_factory.mktemp("configs")))
    return paths, workloads.generate(seed)


@pytest.mark.parametrize("name", sorted(workloads.RATIONALE))
def test_every_layer_fires_and_counts_repeat(generated, name, tmp_path):
    paths, mappings = generated
    workload = harness.Workload(name, paths[name], mappings[name])
    metrics, per_run, tally, _ = harness.measure_traced(
        workload, 0.0, str(tmp_path / "run"), min_iterations=2)
    assert tally.failed == 0, tally.reasons
    assert [n for n, m in metrics.items() if m["value"] is None] == []
    for layer in LAYERS:
        assert metrics[f"{layer}.self_s"]["value"] > 0, layer
    for counter in COUNTED:
        first, second = per_run[counter]
        assert first == second, counter


def test_a_layer_that_never_fires_is_unmeasured():
    tracer = Tracer(harness.OBSERVERS)
    with tracer.installed(), tracer.recording(0):
        beamfield.geometry.build_grid()
        beamfield.geometry.build_array()
    values = harness.per_run_values(tracer)
    assert values["geometry.build_s"][0] > 0
    assert values["ofdm.transmit_s"] == [None]
    assert values["runner.self_s"] == [None]
    assert beamfield.geometry.build_grid.__module__ == "beamfield.geometry"
    assert not hasattr(beamfield.geometry.build_grid, "__wrapped__")


def test_self_time_subtracts_the_union_of_child_intervals():
    parent = Span("runner.run", 0.0, None, 0, {})
    parent.end = 10.0
    spans = [parent]
    for start, end in ((1.0, 4.0), (3.0, 5.0), (7.0, 8.0)):
        child = Span("ofdm.transmit_frame", start, parent, 0, {})
        child.end = end
        spans.append(child)
    assert self_times(spans) == [10.0 - 5.0, 3.0, 2.0, 1.0]


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.RATIONALE
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER_UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
