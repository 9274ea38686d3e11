"""Fetch leases on a private L1 are exact, and fence.i reaches every level.

A core whose fetch port is the only master of an instruction cache serves
fetches inside its last fetched line itself (core and icache module
docstrings).  Every perfbench guest at its tiny size, and a guest that
patches its own code, must give the same stats, traces (`/insn` included)
and VCD as a run in which the test clears each core's private-cache
reference after build, so that every fetch goes through the cache.
"""

import io
import json

import pytest

import pulpsim
from pulpsim.asm import assemble
from pulpsim.tracing import TraceSink, VcdWriter, stable_stats, stats_report

from conftest import build_pulp
from test_timing_identity import TINY_SEEDS, run as perfbench

L2 = 0x1C000000
CL_EU = 0x10200000
FC_ITC = 0x1A101000
SIMCTL = 0x1A104000
RESULTS = L2 + 0x10000
EVT_MASK, EVT_WAIT = 0x00, 0x04
FC_HART = 32
PATCH = assemble("addi a0, zero, 2", origin=0).words[0]


def patch_guest(hart):
    """Hart `hart` calls `patch` (a0 = 1), stores `addi a0, zero, 2` over
    its first word, runs fence.i and calls it again; the two results go to
    RESULTS.  The second call is fetched from the line that holds the
    fence.i, which a stale lease would serve.  Every other hart parks on a never-raised event line."""
    return assemble("""
_start:
    csrr t0, 0xF14
    li t1, %(hart)d
    bne t0, t1, park
    jal ra, patch
    mv s0, a0
    li t1, 0x%(patch)X
    la t2, patch
    sw t1, 0(t2)
    j flush
.org 0x%(flush)X
flush:
    fence.i                 # a line's first word: the call shares its line
    jal ra, patch
    li t2, 0x%(results)X
    sw s0, 0(t2)
    sw a0, 4(t2)
    li t2, 0x%(simctl)X
    sw zero, 0(t2)
park:
    li t1, %(fc)d
    li t2, 0x%(cl_eu)X
    bne t0, t1, wait
    li t2, 0x%(fc_itc)X
wait:
    addi t1, zero, 1
    sw t1, %(mask)d(t2)
    lw t1, %(wait)d(t2)
    j wait
patch:
    addi a0, zero, 1
    ret
""" % {"hart": hart, "patch": PATCH, "flush": L2 + 0x40, "results": RESULTS, "simctl": SIMCTL,
       "fc": FC_HART, "cl_eu": CL_EU, "fc_itc": FC_ITC, "mask": EVT_MASK,
       "wait": EVT_WAIT}, origin=L2)


def load(plat, program):
    for addr, word in program.words.items():
        plat.poke(addr, word.to_bytes(4, "little"))
    plat.set_entry(program.entry)


def count_fetches(plat):
    """Wrap each core's bound fetch handler; returns path -> calls."""
    calls = {}
    for core in plat.cores():
        calls[core.path] = 0

        def counted(req, inner=core._fetch_handler, path=core.path):
            calls[path] += 1
            inner(req)
        core._fetch_handler = counted
    return calls


def observe(plat, leases, max_cycles):
    """Stats, trace and VCD of a run from power-on; without `leases` every
    fetch goes through the cache.  Returns them, the fetch counts and the
    exit status."""
    if not leases:
        for core in plat.cores():
            core._l1 = None
    calls = count_fetches(plat)
    trace, vcd = io.StringIO(), io.StringIO()
    plat.trace_sink = TraceSink(["*"], trace)
    VcdWriter(vcd).attach(plat)
    plat.reset()
    status = plat.run(max_cycles=max_cycles)
    seen = stable_stats(stats_report(plat, status)), trace.getvalue(), vcd.getvalue()
    return seen, calls, status


def check_leases_taken(plat, calls, leases):
    """With leases a private L1 sees fewer fetches than it serves."""
    leased = 0
    for core in plat.cores():
        cache = core.ports["fetch"].binding.owner
        served = cache.hits + cache.misses
        if leases:
            assert core._l1 is cache and calls[core.path] <= served
            leased += served - calls[core.path]
        else:
            assert calls[core.path] == served
    if leases:
        assert leased > 0


@pytest.mark.parametrize("hart", [0, FC_HART], ids=["pe0", "fc"])
def test_fence_i_refetches_patched_code(hart):
    plat = build_pulp()
    load(plat, patch_guest(hart))
    assert plat.run(max_cycles=200_000) == 0 and not plat.diagnostics
    raw = plat.peek(RESULTS, 8)
    assert (int.from_bytes(raw[:4], "little"), int.from_bytes(raw[4:], "little")) == (1, 2)


@pytest.mark.parametrize("hart", [0, FC_HART], ids=["pe0", "fc"])
def test_lease_is_exact_on_patched_code(hart):
    runs = []
    for leases in (True, False):
        plat = build_pulp()
        load(plat, patch_guest(hart))
        seen, calls, status = observe(plat, leases, 200_000)
        assert status == 0
        check_leases_taken(plat, calls, leases)
        runs.append(seen)
    assert runs[0] == runs[1]


CASES = [(name, seed) for name in sorted(perfbench.guests.WORKLOADS) for seed in TINY_SEEDS]


@pytest.mark.parametrize("name,seed", CASES, ids=["%s/seed%d" % c for c in CASES])
def test_lease_is_exact_on_benchmark_guests(name, seed):
    runs = []
    for leases in (True, False):
        guest = perfbench.guests.WORKLOADS[name](seed, perfbench.TINY_SIZES[name])
        plat, program, _ = perfbench.setup(guest)
        seen, calls, status = observe(plat, leases, guest.max_cycles())
        assert guest.check(plat, status, program) == []
        check_leases_taken(plat, calls, leases)
        runs.append(seen)
    assert runs[0] == runs[1]


SHARED = {
    "name": "shared-icache",
    "clock_domains": {"main": {"frequency_hz": 100000000}},
    "components": {
        "cpu0": {"kind": "riscv-core", "domain": "main", "params": {"hart_id": 0}},
        "cpu1": {"kind": "riscv-core", "domain": "main", "params": {"hart_id": 1}},
        "cpu2": {"kind": "riscv-core", "domain": "main", "params": {"hart_id": 2}},
        "ic": {"kind": "icache", "domain": "main", "params": {}},
        "ic2": {"kind": "icache", "domain": "main", "params": {}},
        "ram": {"kind": "banked-memory", "domain": "main",
                "params": {"base": 0, "size": 0x10000, "banks": 4}},
    },
    "bindings": [
        ["cpu0.fetch", "ic.in"], ["cpu1.fetch", "ic.in"], ["cpu2.fetch", "ic2.in"],
        ["ic.refill", "ram.in"], ["ic2.refill", "ram.in"],
        ["cpu0.data", "ram.in"], ["cpu1.data", "ram.in"], ["cpu2.data", "ram.in"],
    ],
}


def test_cores_sharing_an_icache_take_no_lease():
    plat = pulpsim.build(pulpsim.parse(json.dumps(SHARED)))
    cores = {c.path: c for c in plat.cores()}
    assert cores["cpu0"]._l1 is None and cores["cpu1"]._l1 is None
    assert cores["cpu2"]._l1 is plat.lookup("ic2")
    # each hart sums 1..20 into its own word, then halts on ecall
    program = assemble("""
_start:
    csrr t0, 0xF14
    slli t1, t0, 2
    addi t2, zero, 20
    mv a0, zero
loop:
    add a0, a0, t2
    addi t2, t2, -1
    bnez t2, loop
    sw a0, 0x400(t1)
    ecall
""", origin=0x100)
    load(plat, program)
    calls = count_fetches(plat)
    plat.run(max_cycles=100_000)
    assert [int.from_bytes(plat.peek(0x400 + 4 * h, 4), "little") for h in range(3)] == [210] * 3
    shared = plat.lookup("ic")
    assert calls["cpu0"] + calls["cpu1"] == shared.hits + shared.misses
    private = plat.lookup("ic2")
    assert calls["cpu2"] < private.hits + private.misses
