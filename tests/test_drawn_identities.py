"""Fast paths are exact on drawn platforms, not only on pulp-open's defaults.

Each example overrides 2 to 6 timing-only params of pulp-open (the
override sweep's `TIMING`, each in the range its `PARAMS` entry declares,
mostly powers of two) and sets some clock domains to frequencies of the
form 2^a 5^b Hz, whose periods are whole picoseconds.  It then runs one
benchmark guest at its tiny size three ways:

- plain;
- with `conftest.add_ticker`, so that nothing runs ahead
  (`ClockDomain.run_ahead`);
- with every core's `_l1` cleared after build, so that every fetch goes
  through the cache and none through the core's MRU fast path.

The guest's check must pass on each, and the three must give the same
stats (without the engine counters), traces and VCDs.

On drawn platforms of the same form, raising one latency on the FC's
path (`LATENCIES`) by a cycle or two never lowers the FC's
`total_cycles` in `fc_control`, where the FC is alone on its path.  With
cluster or DMA traffic beside it, a raised latency can lower the FC's
cycles through a phase effect at a shared stage (CHANGES.md), so this
holds only for the FC alone.
"""

import io

from hypothesis import given, reject, settings, strategies as st

import pulpsim
from pulpsim.asm import assemble
from pulpsim.errors import ConfigError
from pulpsim.tracing import TraceSink, VcdWriter, stable_stats, stats_report

from conftest import add_ticker
from test_override_sweep import PLATFORM, SWEPT, TIMING
from test_timing_identity import LATENCIES, TINY_SEEDS, run, tiny_run

TIMING_SWEPT = [s for s in SWEPT if s[2] in TIMING.get(s[1], ())]
# 2^a 5^b Hz from 50 MHz to 800 MHz
FREQUENCIES = sorted(f for f in (2 ** a * 5 ** b for a in range(13) for b in range(13))
                     if 50_000_000 <= f <= 800_000_000)


@st.composite
def platforms(draw, workloads=tuple(sorted(run.guests.WORKLOADS))):
    """(workload, seed, overrides): one of `workloads`, 2 to 6 timing-only
    overrides, three in four of them a power of two, and a drawn frequency
    for each domain in a drawn subset."""
    swept = draw(st.lists(st.sampled_from(TIMING_SWEPT), min_size=2, max_size=6,
                          unique_by=lambda s: s[0]))
    overrides = []
    for key, _, _, least, most in swept:
        powers = [1 << n for n in range(most.bit_length()) if least <= 1 << n <= most]
        if powers and draw(st.integers(0, 3)):
            value = draw(st.sampled_from(powers))
        else:
            value = draw(st.integers(least, most))
        overrides.append("%s=%d" % (key, value))
    for dom in draw(st.lists(st.sampled_from(sorted(PLATFORM["clock_domains"])), unique=True)):
        overrides.append("clock_domains.%s.frequency_hz=%d" % (dom, draw(st.sampled_from(FREQUENCIES))))
    return draw(st.sampled_from(workloads)), draw(st.sampled_from(TINY_SEEDS)), overrides


def observe(name, seed, desc, way):
    """Stats without the engine counters, trace and VCD of a checked run
    of `name`'s tiny guest on `desc`, `way` "plain", "ticked" or "no-l1"."""
    guest = run.guests.WORKLOADS[name](seed, run.TINY_SIZES[name])
    plat = pulpsim.build(desc)
    program = assemble(guest.source, origin=run.guests.L2)
    guest.load(plat, program)
    trace, vcd = io.StringIO(), io.StringIO()
    plat.trace_sink = TraceSink(["*"], trace)
    VcdWriter(vcd).attach(plat)
    if way == "no-l1":
        for core in plat.cores():
            core._l1 = None
    plat.reset()
    if way == "ticked":
        add_ticker(plat.engine)
    status = plat.run(max_cycles=guest.max_cycles())
    assert guest.check(plat, status, program) == [], (way, status)
    stats = stable_stats(stats_report(plat, status))
    del stats["engine"]
    return stats, trace.getvalue(), vcd.getvalue()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(case=platforms())
def test_fast_paths_are_exact_on_a_drawn_platform(case):
    name, seed, overrides = case
    try:
        desc = pulpsim.apply_overrides(PLATFORM, overrides)
        pulpsim.build(desc)
    except ConfigError:
        reject()
    plain = observe(name, seed, desc, "plain")
    assert observe(name, seed, desc, "ticked") == plain
    assert observe(name, seed, desc, "no-l1") == plain


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(case=platforms(("fc_control",)), param=st.sampled_from(LATENCIES),
       delta=st.integers(1, 2))
def test_raising_a_latency_never_lowers_fc_total_cycles_on_a_drawn_platform(case, param, delta):
    name, seed, overrides = case
    comp, key = param.split(".")
    try:
        desc = pulpsim.apply_overrides(PLATFORM, overrides)
        raised = "%s=%d" % (param, desc["components"][comp]["params"][key] + delta)
        pulpsim.build(pulpsim.apply_overrides(desc, [raised]))
        pulpsim.build(desc)
    except ConfigError:
        reject()
    before = tiny_run(name, seed, overrides)[0].lookup("fc").total_cycles
    after = tiny_run(name, seed, overrides + [raised])[0].lookup("fc").total_cycles
    assert after >= before, (raised, before, after)
