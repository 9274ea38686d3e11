"""The benchmark harness runs against this source tree.

perfbench/run.py wraps `TimeEngine.run`, `ClockDomain.execute_cycle` and
`Event.__init__`.  Its self-test runs every workload at tiny size, untraced
and traced, and checks the results, so a renamed hook fails here rather
than in a benchmark run.  The self-test never calls `run.layer_counts`, the
reader of the `stats_report` keys (among them the `TimeEngine.stats()`
ones) behind the per-layer metrics, so the layer-count test calls it on
every workload: a renamed key fails there, and so does a count that is not
a `per_layer` metric of BENCHMARK.json.  The span test runs every
workload under `spans.Tracer`: each core step must be a `core`-layer
event span, the core's `_step`, and every span must fall in a declared
layer, so `--trace 1` reports `core.steps` and the core's time where
they belong.
"""

import json
import pathlib
import subprocess
import sys

import pytest

from pulpsim.tracing import stable_stats, stats_report

from test_timing_identity import run

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_perfbench_self_test_passes():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--self-test"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test passed" in proc.stdout


@pytest.mark.parametrize("name", sorted(run.guests.WORKLOADS))
def test_layer_counts_are_declared_benchmark_metrics(name):
    guest = run.guests.WORKLOADS[name](1, run.TINY_SIZES[name])
    plat, program, status, _ = run.run_once(guest)
    assert guest.check(plat, status, program) == []
    counts = run.layer_counts(stable_stats(stats_report(plat, status)))
    per_layer = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert counts and set(counts) <= per_layer


# core-layer event spans of each tiny seed-1 workload
CORE_STEPS = {"cluster_matmul": 23112, "dma_conv_io": 262, "fc_control": 74}


@pytest.mark.parametrize("name", sorted(run.guests.WORKLOADS))
def test_core_steps_are_core_layer_event_spans(name):
    guest = run.guests.WORKLOADS[name](1, run.TINY_SIZES[name])
    tracer = run.spans.Tracer()
    tracer.install()
    try:
        plat, program, status, _ = run.run_once(guest)
    finally:
        tracer.uninstall()
    assert guest.check(plat, status, program) == []
    _, calls = tracer.summary()
    assert set(tracer.layers) <= set(run.spans.LAYERS)
    assert tracer.calls_of(calls, "core", "event") == calls["RiscvCore._step"] == CORE_STEPS[name]
