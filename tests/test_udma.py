"""Micro-DMA on pulp-open: both directions, bytes, pacing and completion.

The FC programs one transfer (`UDMA_CFG` bit 0 set: L2 to HyperRAM, tx;
clear: HyperRAM to L2, rx), polls the status register and exits.  Every
beat the device side sees (a tx beat whose L2 read succeeded, every rx
beat) is recorded by a wrapper around the handler bound to the micro-DMA's
`l2` port, with the micro-DMA's cycle and the beat's device address, and
checked against the pacing rule: beat k ends once its cumulative bytes have
crossed the link,

    cycle_k = max(ceil((t0 + ceil(done_k * 8e12 / bw)) / period), cycle_{k-1} + 1)

where t0 is the programming time plus the device's setup time and
cycle_{-1} is the first peripheral cycle at or after the programming time.
The tx run on the default platform is also pinned: its completion cycle and
its `stable_stats` digest.
"""

import hashlib
import io
import json
import re

import pytest

from pulpsim.asm import assemble
from pulpsim.tracing import TraceSink, stable_stats, stats_report

from conftest import build_pulp

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


def run_transfer(tx, length, overrides=(), l2=L2_BUF):
    """Run one transfer; returns (platform, status, pattern, beats, start_ps, done).

    `beats` lists (micro-DMA cycle, device address, bytes) per beat; `done`
    is the completion cycle, or None if the transfer ended in an error."""
    plat = build_pulp(overrides)
    program = assemble(GUEST % {"length": length, "cfg": int(tx), "l2": l2}, origin=L2)
    for addr, word in program.words.items():
        plat.poke(addr, word.to_bytes(4, "little"))
    pattern = bytes((i * 37 + 11) & 0xFF for i in range(length))
    if tx:
        plat.poke(l2, pattern[:L2 + 0x80000 - l2])
    else:
        plat.poke(HYPER + EXT, pattern)
    plat.set_entry(program.entry)
    udma = plat.lookup("udma")
    beats = []
    l2_in = udma.l2_port.binding
    handler = l2_in.handler

    def record(req):
        handler(req)
        if req.status == "ok" or not tx:
            beats.append((udma.domain.cycle, HYPER + EXT + req.addr - l2, req.size))
    l2_in.handler = record
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
    period = plat.domain("periph").period_ps
    t0 = start_ps + hyper.params["setup_ns"] * 1000
    prev = -(-start_ps // period)
    out = []
    for k in range(-(-length // beat_bytes)):
        done = min((k + 1) * beat_bytes, length)
        cycle = max(-(-(t0 + -(-done * 8 * PS_PER_SEC // bw)) // period), prev + 1)
        out.append((cycle, HYPER + EXT + k * beat_bytes, done - k * beat_bytes))
        prev = cycle
    return out


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
@pytest.mark.parametrize("length,overrides", [
    (256, ()),
    (37, ["udma.beat_bytes=8"]),                           # short last beat
    (64, ["hyper.bandwidth_bits_per_sec=6400000000"]),     # two beats per cycle: floor binds
    (30, ["hyper.bandwidth_bits_per_sec=1000000000", "hyper.setup_ns=0"]),
])
def test_beats_follow_the_bandwidth_formula(tx, length, overrides):
    plat, status, pattern, beats, start_ps, done_cycle = run_transfer(tx, length, overrides)
    assert status == 0 and not plat.diagnostics
    assert plat.peek(HYPER + EXT if tx else L2_BUF, length) == pattern
    assert beats == expected_beats(plat, start_ps, length)
    assert done_cycle == beats[-1][0]


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
