"""Override sweep: one override of pulp-open.json, then a tiny benchmark guest.

Each example overrides one int param of a component of
`src/pulpsim/platforms/pulp-open.json`, or one int key of a cluster group,
with a value from the range that param's `PARAMS` entry declares: from its
least value to its most, or to four times the platform's value plus 4
where it declares no most.  It then runs one benchmark guest of
`perfbench/guests.py` at its `run.TINY_SIZES` size on seed 1 to 3, as
`perfbench/run.py` sets it up.

Every case ends in one of two ways: parse, build or the guest's load
raises `ConfigError`, or the run reaches its end (an exit, an idle
platform or the cycle cap).  No `StructuralError` and no other exception.
The same holds for the non-int overrides in `NON_INT`, each of which must
end the way the table says: refused by build with its message, or an exit
that passes the guest's check.
A param in `TIMING` only changes when things happen, so with it the guest
must also exit and pass its reference check; the others (bases, sizes,
hart and event-line numbers, core and channel counts) change what the
guests assume.

At a HyperRAM bandwidth of 10**7 bit/s, 1/160 of the platform's,
`dma_conv_io`'s micro-DMA outlasts the guest's cycle cap, so the sweep
draws `bandwidth_bits_per_sec` from an eighth of the platform's up
(`NARROWED`).
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

import pulpsim
from pulpsim.asm import assemble
from pulpsim.component import COMPONENT_KINDS
from pulpsim.errors import ConfigError

from test_timing_identity import TINY_SEEDS, run

PLATFORM = pulpsim.parse(run.PLATFORM_TEXT)

# the kind of child each cluster group configures, and the group keys
# that name a param of that kind otherwise
GROUP_KINDS = {"tcdm": "banked-memory", "core": "riscv-core", "icache": "icache",
               "xbar": "router", "bridge": "router", "crossing": "clock-crossing",
               "event_unit": "event-unit", "dma": "cluster-dma", "accel": "conv-accel"}
GROUP_PARAMS = {"l1_size": "size", "l1_ways": "ways", "l15_size": "size", "l15_ways": "ways",
                "l15_latency": "hit_latency", "in_latency": "crossing_latency",
                "out_latency": "crossing_latency"}

# kind -> the params that change timing only
TIMING = {
    "riscv-core": {"branch_penalty"},
    "icache": {"size", "ways", "line_bytes", "hit_latency"},
    "banked-memory": {"banks", "access_latency"},
    "router": {"latency", "bandwidth_bytes_per_cycle"},
    "clock-crossing": {"crossing_latency"},
    "hyperram": {"bandwidth_bits_per_sec", "setup_ns"},
    "cluster-dma": {"max_burst", "program_latency", "burst_latency"},
    "conv-accel": {"ports", "macs_per_cycle", "setup_cycles", "weight_load_per_cycle",
                   "chunk_cycles"},
}

# (kind, param) -> least value drawn, where the declared least is too slow
NARROWED = {("hyperram", "bandwidth_bits_per_sec"):
            PLATFORM["components"]["hyper"]["params"]["bandwidth_bits_per_sec"] // 8}


def swept_params():
    """(override key, kind, param, least, most) of every int param and
    every int key of a cluster group of the platform."""
    out = []
    for path, entry in PLATFORM["components"].items():
        for key, value in entry["params"].items():
            if isinstance(value, dict):
                kind = GROUP_KINDS[key]
                out += [("%s/%s.%s" % (path, key, k), kind, GROUP_PARAMS.get(k, k), v)
                        for k, v in value.items() if isinstance(v, int)]
            elif isinstance(value, int):
                out.append(("%s.%s" % (path, key), entry["kind"], key, value))
    swept = []
    for key, kind, param, value in out:
        spec = COMPONENT_KINDS[kind].PARAMS[param]
        least = NARROWED.get((kind, param), spec[2] if len(spec) > 2 else 0)
        most = spec[3] if len(spec) > 3 else 4 * value + 4
        swept.append((key, kind, param, least, most))
    return swept


SWEPT = swept_params()


def run_case(name, seed, override, check):
    """Run one case; None when parse, build or the guest's load refuses it
    with ConfigError, else the exit status and, with `check`, the guest's
    reference-check failures."""
    guest = run.guests.WORKLOADS[name](seed, run.TINY_SIZES[name])
    try:
        plat = pulpsim.build(pulpsim.apply_overrides(PLATFORM, [override]))
        program = assemble(guest.source, origin=run.guests.L2)
        guest.load(plat, program)
    except ConfigError:
        return None
    plat.reset()
    status = plat.run(max_cycles=guest.max_cycles())
    return status, guest.check(plat, status, program) if check else []


@st.composite
def cases(draw):
    """(workload, seed, override, timing only); half the values drawn are
    powers of two, which the caches and the banked memories need."""
    key, kind, param, least, most = draw(st.sampled_from(SWEPT))
    powers = [1 << n for n in range(most.bit_length()) if least <= 1 << n <= most]
    value = draw(st.one_of(st.integers(least, most), st.sampled_from(powers or [least])))
    return (draw(st.sampled_from(sorted(run.guests.WORKLOADS))), draw(st.sampled_from(TINY_SEEDS)),
            "%s=%d" % (key, value), param in TIMING.get(kind, ()))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=cases())
def test_a_legal_override_is_refused_or_runs_to_its_end(case):
    name, seed, override, timing_only = case
    outcome = run_case(name, seed, override, check=timing_only)
    if timing_only and outcome is not None:
        assert outcome == (0, []), (name, seed, override)


def _table(**entry):
    """An ISA table text whose one entry, `foo`, takes an opcode rv32im
    leaves free, with `entry`'s keys replaced."""
    foo = {"mnemonic": "foo", "mask": "0x0000707F", "match": "0x0000005B", "fmt": "R"}
    return json.dumps({"name": "bad", "entries": [dict(foo, **entry)]})


# the ISA files the test writes, name -> text
TABLES = {
    "not_json.json": "entries: []\n",
    "no_entries.json": '{"name": "empty"}\n',
    "mask.json": _table(mask="zz"),
    "match.json": _table(match=[91]),
    "latency.json": _table(latency="a"),
    "true.json": _table(latency=True),
    "negative.json": _table(latency=-3),
    "writeback.json": _table(writeback_latency=-1),
    "semantics.json": _table(semantics="nosuch"),
    "fmt.json": _table(fmt=["R"]),
    "mnemonic.json": _table(mnemonic=5),
}

# non-int overrides and how they end: refused with a ConfigError whose text
# matches, or (None) the guest exits and passes its check; `{dir}` is a
# folder holding the files of `TABLES`
RANGES = r"components\.cluster\.params\.external_ranges\[0\]: expected \{"
ISA = r"components\.fc\.params\.isa: "
NON_INT = [
    # the cluster's external window covers an address that soc_ic sends
    # back into the cluster: a request to it would go round forever
    ('cluster.external_ranges=[{"base":"0x10100000","size":"0x1000"}]',
     r"loops: soc_ic -> cluster/in_xing -> cluster/xbar -> cluster/bridge -> "
     r"cluster/out_xing -> soc_ic$"),
    ('cluster.external_ranges=[{"base":"0x1C000000","size":"0x80000"}]', None),
    ("cluster.external_ranges=[{}]", RANGES),
    ("cluster.external_ranges=[1]", RANGES),
    ('cluster.external_ranges=[{"base":1}]', RANGES),
    ('fc.isa=["nope"]', ISA + r"unknown ISA table 'nope' \(packaged: rv32im, xdemo\)"),
    ('fc.isa=["{dir}/missing.json"]', ISA + r"ISA table '.*/missing\.json': No such file"),
    ('fc.isa=["{dir}/not_json.json"]', ISA + r"ISA table '.*/not_json\.json': invalid JSON"),
    ('fc.isa=["{dir}/no_entries.json"]', ISA + r"ISA table '.*/no_entries\.json': expected"),
    ("fc.isa=[5]", ISA + r"ISA table 5: expected"),
    ('cluster/core.isa=["rv32im", "nope"]',
     r"components\.cluster/pe0\.params\.isa: unknown ISA table 'nope'"),
    ('fc.isa=["rv32im", "{dir}/mask.json"]',
     ISA + r"ISA table bad: foo mask: expected integer, got 'zz'$"),
    ('fc.isa=["rv32im", "{dir}/match.json"]',
     ISA + r"ISA table bad: foo match: expected integer, got \[91\]$"),
    ('fc.isa=["rv32im", "{dir}/latency.json"]',
     ISA + r"ISA table bad: foo latency must be a non-negative integer, got 'a'$"),
    ('fc.isa=["rv32im", "{dir}/true.json"]',
     ISA + r"ISA table bad: foo latency must be a non-negative integer, got True$"),
    ('fc.isa=["rv32im", "{dir}/negative.json"]',
     ISA + r"ISA table bad: foo latency must be a non-negative integer, got -3$"),
    ('fc.isa=["rv32im", "{dir}/writeback.json"]',
     ISA + r"ISA table bad: foo writeback_latency must be a non-negative integer, got -1$"),
    ('fc.isa=["rv32im", "{dir}/semantics.json"]',
     ISA + r"ISA table bad: foo has no semantics 'nosuch'$"),
    ('fc.isa=["rv32im", "{dir}/fmt.json"]',
     ISA + r"ISA table bad: entry .*: mnemonic, fmt, class and semantics must be strings$"),
    ('fc.isa=["rv32im", "{dir}/mnemonic.json"]',
     ISA + r"ISA table bad: entry .*: mnemonic, fmt, class and semantics must be strings$"),
    # values of the wrong JSON type where a name is expected
    ('soc_ic.mappings=[{"target": [1]}]', r"mappings\[0\]: unknown target \[1\]$"),
    ('soc_ic.mappings=[{"base": 0, "size": 16, "port": [1]}]',
     r"mappings\[0\]\.port: expected string, got \[1\]$"),
    ('fc_itc.cores=[["fc"]]', r"components\.fc_itc\.params\.cores: expected a component path, "
                              r"got \['fc'\]$"),
    # an int param given as a string, as the file may give it
    ('l2.banks="4"', None),
    ('cluster/tcdm.base="0x10000000"', None),
]


@pytest.mark.parametrize("override, refusal", NON_INT)
def test_a_non_int_override_is_refused_or_runs_to_its_end(tmp_path, override, refusal):
    for name, text in TABLES.items():
        (tmp_path / name).write_text(text)
    override = override.replace("{dir}", str(tmp_path))
    if refusal is None:
        assert run_case("fc_control", TINY_SEEDS[0], override, check=True) == (0, [])
    else:
        with pytest.raises(ConfigError, match=refusal):
            pulpsim.build(pulpsim.apply_overrides(PLATFORM, [override]))
