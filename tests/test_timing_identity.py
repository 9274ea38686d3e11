"""Simulated timing of the benchmark guests is pinned.

`tests/data/perfbench_digests.json` holds the `tracing.stable_stats` digest
(`perfbench/run.py`'s `digest`) of every `perfbench/guests.py` workload, at
full size on seed 1 and at `run.TINY_SIZES` on seeds 1-3, and, for each of
the tiny runs, the sha256 of its full trace (`TraceSink(["*"])`) and of its
VCD.  Stats cannot see the order of events within a cycle; the trace and
VCD can.  A host-speed change leaves every digest unchanged, so a failure
here means simulated timing or event order moved.  Two more processes,
under different `PYTHONHASHSEED` values, must print the same trace and
VCD digests: the order of execution never depends on string hashing.  Only a deliberate
timing change regenerates the file, with `tests/regen_golden.py`, and the
change that does so says why in CHANGES.md.

The ticker test runs each workload once more with `conftest.add_ticker`'s
extra clock domain, whose event ticks at the fastest frequency.  The
engine's bound is then always the next tick, which no action lies
strictly before, so nothing runs ahead: that is the path without
run-ahead.  Every stat except the engine counters, and
every trace and VCD line, must equal the plain run's.

The clock-scaling test slows every clock domain and the HyperRAM link by
the same factor k.  Every cycle count must stay the same and global time
must grow exactly k times: that holds for any timing model whose time
conversions (clock crossings, the HyperRAM's link time) are exact.

The monotonicity test raises one latency on the FC's path by a cycle or
two: the FC may then take longer, but never less time.
"""

import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pulpsim
from pulpsim.asm import assemble
from pulpsim.tracing import TraceSink, VcdWriter, stable_stats, stats_report

from conftest import add_ticker

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data" / "perfbench_digests.json"
TINY_SEEDS = (1, 2, 3)
# the latencies on the FC's path that the monotonicity tests raise
LATENCIES = ["l2.access_latency", "soc_ic.latency", "fc_icache.hit_latency"]


def _perfbench():
    sys.path.insert(0, str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _perfbench()
TINY_CASES = [(name, seed, run.TINY_SIZES[name])
              for name in run.guests.WORKLOADS for seed in TINY_SEEDS]
CASES = [(name, 1, run.SIZES[name]) for name in run.guests.WORKLOADS] + TINY_CASES


def case_key(name, seed, size):
    return "%s/seed%d/size%d" % (name, seed, size)


def plain_stats(name, seed, size):
    guest = run.guests.WORKLOADS[name](seed, size)
    plat, program, status, _ = run.run_once(guest)
    assert guest.check(plat, status, program) == []
    return stable_stats(stats_report(plat, status))


def traced_run(name, ticked, seed=1):
    """Stats without the engine counters, trace and VCD of a tiny run."""
    guest = run.guests.WORKLOADS[name](seed, run.TINY_SIZES[name])
    plat, program, _ = run.setup(guest)
    trace, vcd = io.StringIO(), io.StringIO()
    plat.trace_sink = TraceSink(["*"], trace)
    VcdWriter(vcd).attach(plat)
    plat.reset()
    if ticked:
        ticker = add_ticker(plat.engine)
    status = plat.run(max_cycles=guest.max_cycles())
    assert guest.check(plat, status, program) == []
    if ticked:
        assert ticker.events_executed > 0
    stats = stable_stats(stats_report(plat, status))
    del stats["engine"]
    return stats, trace.getvalue(), vcd.getvalue()


@pytest.mark.parametrize("name,seed,size", CASES, ids=[case_key(*c) for c in CASES])
def test_stats_digest_is_pinned(name, seed, size):
    expected = json.loads(DATA.read_text())["digests"]
    assert run.digest(plain_stats(name, seed, size)) == expected[case_key(name, seed, size)]


def output_digests(name, seed, size):
    """The sha256 of the full trace and of the VCD of the tiny run `size`
    of `name` on `seed`."""
    assert size == run.TINY_SIZES[name]
    _, trace, vcd = traced_run(name, False, seed)
    return {"trace": hashlib.sha256(trace.encode()).hexdigest(),
            "vcd": hashlib.sha256(vcd.encode()).hexdigest()}


@pytest.mark.parametrize("name,seed,size", TINY_CASES, ids=[case_key(*c) for c in TINY_CASES])
def test_trace_and_vcd_digests_are_pinned(name, seed, size):
    expected = json.loads(DATA.read_text())["outputs"]
    assert output_digests(name, seed, size) == expected[case_key(name, seed, size)]


def test_outputs_do_not_depend_on_the_hash_seed():
    """Two processes with different string hashing (`PYTHONHASHSEED` 0 and
    12345) give each workload's tiny seed-1 run the pinned trace and VCD."""
    code = ("import json, test_timing_identity as t\n"
            "print(json.dumps({n: t.output_digests(n, 1, t.run.TINY_SIZES[n])"
            " for n in t.run.guests.WORKLOADS}))")
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    seen = []
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout
        seen.append(json.loads(out.splitlines()[-1]))
    pinned = json.loads(DATA.read_text())["outputs"]
    assert seen[0] == seen[1] == {name: pinned[case_key(name, 1, run.TINY_SIZES[name])]
                                  for name in run.guests.WORKLOADS}


@pytest.mark.parametrize("name", sorted(run.guests.WORKLOADS))
def test_ticker_domain_leaves_stats_and_traces_unchanged(name):
    assert traced_run(name, ticked=True) == traced_run(name, ticked=False)


def tiny_run(name, seed, overrides=()):
    """Platform and exit status of a checked tiny run of `name` on `seed`
    under `overrides`."""
    desc = pulpsim.apply_overrides(pulpsim.parse(run.PLATFORM_TEXT), list(overrides))
    plat = pulpsim.build(desc)
    guest = run.guests.WORKLOADS[name](seed, run.TINY_SIZES[name])
    program = assemble(guest.source, origin=run.guests.L2)
    guest.load(plat, program)
    plat.reset()
    status = plat.run(max_cycles=guest.max_cycles())
    assert guest.check(plat, status, program) == []
    return plat, status


def scaled_stats(name, k):
    """Stats of a tiny seed-1 run with every clock and the HyperRAM link k
    times slower.  `max_cycles` counts cycles of the fastest domain, so the
    same value is the same deadline."""
    desc = pulpsim.parse(run.PLATFORM_TEXT)
    overrides = ["clock_domains.%s.frequency_hz=%d" % (dom, spec["frequency_hz"] // k)
                 for dom, spec in desc["clock_domains"].items()]
    hyper = desc["components"]["hyper"]["params"]
    overrides += ["hyper.setup_ns=%d" % (hyper["setup_ns"] * k),
                  "hyper.bandwidth_bits_per_sec=%d" % (hyper["bandwidth_bits_per_sec"] // k)]
    plat = pulpsim.build(pulpsim.apply_overrides(desc, overrides))
    guest = run.guests.WORKLOADS[name](1, run.TINY_SIZES[name])
    program = assemble(guest.source, origin=run.guests.L2)
    guest.load(plat, program)
    plat.reset()
    status = plat.run(max_cycles=guest.max_cycles())
    assert guest.check(plat, status, program) == []
    stats = stable_stats(stats_report(plat, status))
    for dom in stats["domains"].values():
        dom["frequency_hz"] *= k
    return stats


@pytest.mark.parametrize("k", [2, 5])
@pytest.mark.parametrize("name", sorted(run.guests.WORKLOADS))
def test_slower_clocks_keep_every_cycle_and_scale_time(name, k):
    base, scaled = scaled_stats(name, 1), scaled_stats(name, k)
    assert scaled.pop("global_time_ps") == k * base.pop("global_time_ps")
    assert scaled == base


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(param=st.sampled_from(LATENCIES),
       delta=st.integers(1, 2), seed=st.integers(1, 30))
def test_raising_a_latency_never_lowers_fc_total_cycles(param, delta, seed):
    plat, _ = tiny_run("fc_control", seed)
    name, key = param.split(".")
    before = plat.lookup("fc").total_cycles
    raised = "%s=%d" % (param, plat.lookup(name).params[key] + delta)
    slower, _ = tiny_run("fc_control", seed, [raised])
    assert slower.lookup("fc").total_cycles >= before

