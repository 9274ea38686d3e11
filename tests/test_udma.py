"""Micro-DMA on pulp-open: both directions, bytes, pacing and completion.

The FC programs one transfer (`UDMA_CFG` bit 0 set: L2 to HyperRAM, tx;
clear: HyperRAM to L2, rx), polls the status register and exits.  Every
beat the device side sees (a tx beat whose L2 read succeeded, every rx
beat) is recorded by a wrapper around L2's `stream`, with the beat's device
address and its micro-DMA cycle, which a wrapper around the clock
crossing's `arrival` maps back from the L2 cycle, and checked against the
pacing rule: beat k ends once its cumulative bytes have crossed the link,

    cycle_k = max(ceil((t0 + ceil(done_k * 8e12 / bw)) / period), cycle_{k-1} + 1)

where t0 is the programming time plus the device's setup time and
cycle_{-1} is the first peripheral cycle at or after the programming time.
L2 refuses a beat outside it, or a 1-, 2- or 4-byte beat not aligned to its
size; the transfer then ends with an error at that beat.
The tx run on the default platform is also pinned: its completion cycle and
its `stable_stats` digest.
"""

import hashlib
import io
import json
import re

import pytest

import pulpsim
from pulpsim.asm import assemble
from pulpsim.errors import ConfigError
from pulpsim.tracing import TraceSink, stable_stats, stats_report

from conftest import build_pulp, pulp_descriptor

L2 = 0x1C000000
CL_EU = 0x10200000
UDMA = 0x1A102000
SIMCTL = 0x1A104000
HYPER = 0x20000000
L2_BUF = L2 + 0x20000
EXT = 0x1000
PS_PER_SEC = 10 ** 12
# the default-platform tx run of 256 bytes: host-speed work on the beat
# loop must leave these unchanged
PINNED_START_PS = 260000
PINNED_DONE_CYCLE = 184
PINNED_DIGEST = "bbed06af4b00bacd"

GUEST = """
_start:
    csrr t0, 0xF14
    li t1, 32
    beq t0, t1, fc_main
pe_park:
    li t0, 0x%(eu)X
    addi t1, zero, 1
    sw t1, 0x00(t0)
    lw t1, 0x04(t0)
    j pe_park
fc_main:
    li a0, 0x%(udma)X
    li a1, %%(l2)d
    sw a1, 0x00(a0)
    li a1, 0x%(ext)X
    sw a1, 0x04(a0)
    li a1, %%(length)d
    sw a1, 0x08(a0)
    li a1, %%(cfg)d
    sw a1, 0x0C(a0)
poll:
    lw a1, 0x10(a0)
    andi a1, a1, 1
    bnez a1, poll
    li a0, 0x%(simctl)X
    sw zero, 0(a0)
""" % {"eu": CL_EU, "udma": UDMA, "ext": EXT, "simctl": SIMCTL}


def run_transfer(tx, length, overrides=(), l2=L2_BUF, plat=None):
    """Run one transfer; returns (platform, status, pattern, beats, start_ps, done).

    `beats` lists (micro-DMA cycle, device address, bytes) per beat; `done`
    is the completion cycle, or None if the transfer ended in an error.
    `plat` replaces the default platform built with `overrides`."""
    plat = plat or build_pulp(overrides)
    program = assemble(GUEST % {"length": length, "cfg": int(tx), "l2": l2}, origin=L2)
    for addr, word in program.words.items():
        plat.poke(addr, word.to_bytes(4, "little"))
    pattern = bytes((i * 37 + 11) & 0xFF for i in range(length))
    if not tx:
        plat.poke(HYPER + EXT, pattern)
    elif l2 >= L2:          # below L2 the first beat is refused: nothing is read
        plat.poke(l2, pattern[:L2 + 0x80000 - l2])
    plat.set_entry(program.entry)
    beats = []
    xing, mem = plat.lookup("udma_xing"), plat.lookup("l2")
    arrival, stream = xing.arrival, mem.stream
    sent_at = {}        # L2 cycle -> the micro-DMA cycle it converts from

    def record_arrival(cycle):
        at = arrival(cycle)
        sent_at[at] = cycle
        return at

    def record_stream(addr, nbytes, size, cycles, *rest):
        served, waits = stream(addr, nbytes, size, cycles, *rest)
        for j in range(served if tx else len(cycles)):
            beats.append((sent_at[cycles[j]], HYPER + EXT + addr + size * j - l2,
                          min(size, nbytes - size * j)))
        return served, waits
    xing.arrival, mem.stream = record_arrival, record_stream
    trace = io.StringIO()
    plat.trace_sink = TraceSink(["udma"], trace)
    plat.reset()
    status = plat.run(max_cycles=500_000)
    lines = trace.getvalue().splitlines()
    start_ps = int(re.match(r"(\d+)ps periph:\d+ \[udma\] start ", lines[0]).group(1))
    done = re.match(r"\d+ps periph:(\d+) \[udma\] done status=(ok|error)$", lines[-1])
    return (plat, status, pattern, beats, start_ps,
            int(done.group(1)) if done.group(2) == "ok" else None)


def expected_beats(plat, start_ps, length):
    hyper = plat.lookup("hyper")
    beat_bytes = plat.lookup("udma").params["beat_bytes"]
    bw = hyper.params["bandwidth_bits_per_sec"]
    period = plat.domains["periph"].period_ps
    t0 = start_ps + hyper.params["setup_ns"] * 1000
    prev = -(-start_ps // period)
    out = []
    for k in range(-(-length // beat_bytes)):
        done = min((k + 1) * beat_bytes, length)
        cycle = max(-(-(t0 + -(-done * 8 * PS_PER_SEC // bw)) // period), prev + 1)
        out.append((cycle, HYPER + EXT + k * beat_bytes, done - k * beat_bytes))
        prev = cycle
    return out


def first_refused(l2, length, beat_bytes):
    """Index of the first beat L2 refuses, or None."""
    for k in range(-(-length // beat_bytes)):
        addr = l2 + k * beat_bytes
        size = min(beat_bytes, length - k * beat_bytes)
        if addr < L2 or addr + size > L2 + 0x80000 or (size in (1, 2, 4) and addr % size):
            return k
    return None


def test_tx_moves_l2_bytes_to_hyperram_at_the_pinned_cycle():
    plat, status, pattern, beats, start_ps, done_cycle = run_transfer(True, 256)
    assert status == 0 and not plat.diagnostics
    assert plat.peek(HYPER + EXT, 256) == pattern
    assert plat.lookup("udma").counters() == {"transfers": 1, "bytes": 256}
    assert plat.lookup("hyper").writes == 0     # beats bypass the timed port
    assert len(beats) == 64 and done_cycle == beats[-1][0]
    stats = stable_stats(stats_report(plat, status))
    digest = hashlib.sha256(json.dumps(stats, sort_keys=True).encode()).hexdigest()[:16]
    assert (start_ps, done_cycle, digest) == (PINNED_START_PS, PINNED_DONE_CYCLE, PINNED_DIGEST)


@pytest.mark.parametrize("tx", [True, False], ids=["tx", "rx"])
@pytest.mark.parametrize("length,overrides,l2", [
    (256, (), L2_BUF),
    (37, ["udma.beat_bytes=8"], L2_BUF),                   # short last beat
    (33, ["udma.beat_bytes=8"], L2_BUF + 4),               # odd length; 8-byte beats off 8-byte
                                                           # alignment; 1-byte last beat
    (64, ["hyper.bandwidth_bits_per_sec=6400000000"], L2_BUF),  # two beats per cycle: floor binds
    (30, ["hyper.bandwidth_bits_per_sec=1000000000", "hyper.setup_ns=0"], L2_BUF),
    (32, ["udma.beat_bytes=3"], L2_BUF),                   # 2-byte last beat, aligned
    (29, ["udma.beat_bytes=3"], L2_BUF),                   # 2-byte last beat, misaligned
    (64, ["udma_xing.crossing_latency=2"], L2_BUF),
    (16, (), L2 - 8),                                      # first beat below L2
], ids=["256-overrides0", "37-overrides1", "beat8-odd", "64-overrides2", "30-overrides3",
        "beat3", "beat3-misaligned", "crossing-latency", "below-l2"])  # older cases keep their ids
def test_beats_follow_the_bandwidth_formula(tx, length, overrides, l2):
    plat, status, pattern, beats, start_ps, done_cycle = run_transfer(tx, length, overrides, l2)
    udma = plat.lookup("udma")
    assert status == 0 and not plat.diagnostics
    expected = expected_beats(plat, start_ps, length)
    refused = first_refused(l2, length, udma.params["beat_bytes"])
    if refused is None:
        assert plat.peek(HYPER + EXT if tx else l2, length) == pattern
        assert beats == expected
        assert done_cycle == beats[-1][0] and udma.status == 0
        return
    # a tx beat reaches the device only once L2 served it; an rx beat always
    assert beats == expected[:refused + (not tx)]
    moved = sum(size for _, _, size in expected[:refused])
    assert done_cycle is None and udma.status == 2
    assert udma.counters() == {"transfers": 1, "bytes": moved}
    if tx:
        assert plat.peek(HYPER + EXT, length) == pattern[:moved] + bytes(length - moved)
    elif moved:
        assert plat.peek(l2, moved) == pattern[:moved]


@pytest.mark.parametrize("tx", [True, False], ids=["tx", "rx"])
def test_beat_past_the_end_of_l2_ends_the_transfer_with_an_error(tx):
    # L2 ends at 0x1C080000: the first two of four beats fit, the third fails
    plat, status, pattern, beats, start_ps, done = run_transfer(tx, 16, l2=L2 + 0x80000 - 8)
    udma = plat.lookup("udma")
    assert status == 0 and done is None
    assert udma.status == 2 and udma.counters() == {"transfers": 1, "bytes": 8}
    if tx:
        assert beats == expected_beats(plat, start_ps, 16)[:2]
        assert plat.peek(HYPER + EXT, 16) == pattern[:8] + bytes(8)
    else:
        assert beats == expected_beats(plat, start_ps, 16)[:3]
        assert plat.peek(L2 + 0x80000 - 8, 8) == pattern[:8]


def pulp_with(edit):
    """pulp-open, its descriptor document changed by `edit(doc)`."""
    doc = json.loads(pulpsim.serialize(pulp_descriptor()))
    edit(doc)
    return pulpsim.build(pulpsim.parse(json.dumps(doc)))


def _two_crossings(doc):
    # periph -> cluster -> soc: every periph edge is an edge of both others
    doc["components"]["pre_xing"] = {"kind": "clock-crossing", "domain": "cluster"}
    doc["bindings"].remove(["udma.l2", "udma_xing.in"])
    doc["bindings"] += [["udma.l2", "pre_xing.in"], ["pre_xing.out", "udma_xing.in"]]


def test_beats_reach_l2_through_a_chain_of_crossings():
    one = run_transfer(True, 256)
    two = run_transfer(True, 256, plat=pulp_with(_two_crossings))
    assert two[0].lookup("udma").hops == [two[0].lookup("pre_xing"), two[0].lookup("udma_xing")]
    assert two[0].lookup("pre_xing").crossings == 64
    stats = [stable_stats(stats_report(run[0], run[1])) for run in (one, two)]
    del stats[1]["crossings"]["pre_xing"]
    assert stats[0] == stats[1]
    assert two[0].peek(HYPER + EXT, 256) == one[2] and two[5] == PINNED_DONE_CYCLE


def _bind(master, slave):
    def edit(doc):
        doc["bindings"] = [b for b in doc["bindings"] if b[0] != master] + [[master, slave]]
    return edit


@pytest.mark.parametrize("edit,message", [
    (_bind("udma.l2", "soc_ic.in"), "components.udma: port l2 must be, through "
     "clock-crossings, bound to the 'in' port of one banked-memory"),
    (_bind("udma_xing.out", "hyper.in"), "components.udma: port l2 must be, through "
     "clock-crossings, bound to the 'in' port of one banked-memory"),
    (_bind("udma.l2", "l2.in"),
     "components.udma: port l2 reaches l2 from domain 'periph', not from its domain 'soc'"),
    (_bind("cluster.out", "udma_xing.in"),
     "components.udma_xing: masters from domains 'periph', 'soc' bound to its in"),
], ids=["router", "not-a-memory", "no-crossing", "crossing-from-elsewhere"])
def test_l2_port_must_reach_one_banked_memory_through_crossings(edit, message):
    with pytest.raises(ConfigError) as err:
        pulp_with(edit)
    assert message in str(err.value)

