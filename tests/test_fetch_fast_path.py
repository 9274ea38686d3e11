"""The core's fetch fast path is exact, and fence.i reaches every level.

A core whose fetch port is bound to an instruction cache serves a fetch
itself when the MRU way of pc's set holds pc's line (core and icache
module docstrings); `fast_path` below turns that fast path on.  Every
perfbench guest at its tiny size, a guest that patches its own code, and
guests that loop across sets, alternate two lines of a set or thrash one
set, must give the same stats, traces (`/insn` included) and VCD as a run
in which the test clears each core's `_l1` after build, so that every
fetch goes through the cache.  The last run on a platform where two cores
share one cache.
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
    fence.i, which a fast path on stale lines would serve.  Every other hart parks on a never-raised event line."""
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


def observe(plat, fast_path, max_cycles):
    """Stats, trace and VCD of a run from power-on; without `fast_path` every
    fetch goes through the cache.  Returns them, the fetch counts and the
    exit status."""
    if not fast_path:
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


def check_fast_path_taken(plat, calls, fast_path):
    """With the fast path a cache's handler sees fewer fetches than the
    cache serves; without it, all of them."""
    handled = {}
    for core in plat.cores():
        cache = core.ports["fetch"].binding.owner
        assert core._l1 is (cache if fast_path else None)
        handled[cache] = handled.get(cache, 0) + calls[core.path]
    by_core = [cache.hits + cache.misses - n for cache, n in handled.items()]
    if fast_path:
        assert min(by_core) >= 0 and sum(by_core) > 0
    else:
        assert set(by_core) == {0}


@pytest.mark.parametrize("hart", [0, FC_HART], ids=["pe0", "fc"])
def test_fence_i_refetches_patched_code(hart):
    plat = build_pulp()
    load(plat, patch_guest(hart))
    assert plat.run(max_cycles=200_000) == 0 and not plat.diagnostics
    raw = plat.peek(RESULTS, 8)
    assert (int.from_bytes(raw[:4], "little"), int.from_bytes(raw[4:], "little")) == (1, 2)


@pytest.mark.parametrize("hart", [0, FC_HART], ids=["pe0", "fc"])
def test_fast_path_is_exact_on_patched_code(hart):
    runs = []
    for fast_path in (True, False):
        plat = build_pulp()
        load(plat, patch_guest(hart))
        seen, calls, status = observe(plat, fast_path, 200_000)
        assert status == 0
        check_fast_path_taken(plat, calls, fast_path)
        runs.append(seen)
    assert runs[0] == runs[1]


CASES = [(name, seed) for name in sorted(perfbench.guests.WORKLOADS) for seed in TINY_SEEDS]


@pytest.mark.parametrize("name,seed", CASES, ids=["%s/seed%d" % c for c in CASES])
def test_fast_path_is_exact_on_benchmark_guests(name, seed):
    runs = []
    for fast_path in (True, False):
        guest = perfbench.guests.WORKLOADS[name](seed, perfbench.TINY_SIZES[name])
        plat, program, _ = perfbench.setup(guest)
        seen, calls, status = observe(plat, fast_path, guest.max_cycles())
        assert guest.check(plat, status, program) == []
        check_fast_path_taken(plat, calls, fast_path)
        runs.append(seen)
    assert runs[0] == runs[1]


# two cores share `ic`, the third has `ic2`: 16 sets of 2 ways of 16
# bytes, so the lines at 0x100, 0x200 and 0x300 share set 0
SHARED = {
    "name": "shared-icache",
    "clock_domains": {"main": {"frequency_hz": 100000000}},
    "components": {
        "cpu0": {"kind": "riscv-core", "domain": "main", "params": {"hart_id": 0}},
        "cpu1": {"kind": "riscv-core", "domain": "main", "params": {"hart_id": 1}},
        "cpu2": {"kind": "riscv-core", "domain": "main", "params": {"hart_id": 2}},
        "ic": {"kind": "icache", "domain": "main", "params": {}},
        "ic2": {"kind": "icache", "domain": "main", "params": {"hit_latency": 1}},
        "ram": {"kind": "banked-memory", "domain": "main",
                "params": {"base": 0, "size": 0x10000, "banks": 4}},
    },
    "bindings": [
        ["cpu0.fetch", "ic.in"], ["cpu1.fetch", "ic.in"], ["cpu2.fetch", "ic2.in"],
        ["ic.refill", "ram.in"], ["ic2.refill", "ram.in"],
        ["cpu0.data", "ram.in"], ["cpu1.data", "ram.in"], ["cpu2.data", "ram.in"],
    ],
}

# guest -> (source at 0x100, the word each hart leaves at 0x400 + 4 * hart);
# each hart counts into a0, stores it and halts on ecall
GUESTS = {
    # sums 1..20
    "sum": ("""
_start:
    addi t2, zero, 20
loop:
    add a0, a0, t2
    addi t2, t2, -1
    bnez t2, loop
""", 210),
    # a loop body of 40 words over 11 lines, each in its own set
    "sets": ("""
_start:
    addi t2, zero, 12
loop:
""" + "    addi a0, a0, 1\n" * 38 + """
    addi t2, t2, -1
    bnez t2, loop
""", 12 * 38),
    # the lines at 0x100 and 0x200 alternate in set 0: hits on its other way
    "non_mru": ("""
_start:
    addi t2, zero, 15
one:
    addi a0, a0, 1
    j two
.org 0x200
two:
    addi t2, t2, -1
    bnez t2, one
""", 15),
    # the lines at 0x100, 0x200 and 0x300 take turns in set 0: conflict misses
    "conflicts": ("""
_start:
    addi t2, zero, 15
one:
    addi a0, a0, 1
    j two
.org 0x200
two:
    addi a0, a0, 2
    j three
.org 0x300
three:
    addi t2, t2, -1
    bnez t2, one
""", 45),
}
HALT = """
    csrr t0, 0xF14
    slli t0, t0, 2
    sw a0, 0x400(t0)
    ecall
"""


@pytest.mark.parametrize("guest", GUESTS)
def test_fast_path_is_exact_on_cache_patterns(guest):
    source, result = GUESTS[guest]
    program = assemble(source + HALT, origin=0x100)
    runs = []
    for fast_path in (True, False):
        plat = pulpsim.build(pulpsim.parse(json.dumps(SHARED)))
        load(plat, program)
        seen, calls, _ = observe(plat, fast_path, 100_000)
        words = [int.from_bytes(plat.peek(0x400 + 4 * h, 4), "little") for h in range(3)]
        assert words == [result] * 3
        check_fast_path_taken(plat, calls, fast_path)
        runs.append(seen)
    assert runs[0] == runs[1]
