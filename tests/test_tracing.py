"""VCD output on pulp-open, parsed back: DMA and micro-DMA busy flags.

PE0 copies an L2 block into TCDM with the cluster DMA, polls its STATUS
until the transfer is done and raises line 2 of the FC's interrupt
controller.  The FC meanwhile streams the start of HyperRAM into L2 with
the micro-DMA, polls its busy bit, waits for line 2 and exits.  The other
PEs sleep on an event line nothing raises.

Trace lines are parsed back too, on that guest and on the tiny benchmark
guests: each line has the documented form, its cycle is the traced
domain's first cycle at or after its time, and time never goes back; no
VCD change is dated before the last timestamp written.
"""

import io
import re

import pytest

from pulpsim.asm import assemble
from pulpsim.tracing import TraceSink
from pulpsim.tracing import VcdWriter

from conftest import build_pulp
from test_timing_identity import run

L2 = 0x1C000000
TCDM = 0x10000000
HYPER = 0x20000000
CL_EU = 0x10200000
CL_DMA = 0x10201000
FC_ITC = 0x1A101000
UDMA = 0x1A102000
SIMCTL = 0x1A104000
SRC = L2 + 0x8000
DST = TCDM + 0x100
IO_L2 = L2 + 0x9000
DMA_LEN = 256
IO_LEN = 64

GUEST = """
_start:
    csrr t0, 0xF14
    li t1, 32
    beq t0, t1, fc_main
    bnez t0, pe_park
    li a0, 0x%(dma)X
    li a1, 0x%(src)X
    sw a1, 0x00(a0)
    li a1, 0x%(dst)X
    sw a1, 0x04(a0)
    li a1, %(dma_len)d
    sw a1, 0x08(a0)
    sw zero, 0x14(a0)
dma_poll:
    lw a1, 0x18(a0)
    bnez a1, dma_poll
    li a0, 0x%(itc)X
    li a1, 2
    sw a1, 0x08(a0)
pe_park:
    li a0, 0x%(eu)X
    li a1, 0x20
    sw a1, 0x00(a0)
    lw a1, 0x04(a0)
    j pe_park
fc_main:
    li a0, 0x%(udma)X
    li a1, 0x%(io_l2)X
    sw a1, 0x00(a0)
    sw zero, 0x04(a0)
    li a1, %(io_len)d
    sw a1, 0x08(a0)
    sw zero, 0x0C(a0)
udma_poll:
    lw a1, 0x10(a0)
    andi a1, a1, 1
    bnez a1, udma_poll
    li a0, 0x%(itc)X
    li a1, 4
    sw a1, 0x00(a0)
    lw a1, 0x04(a0)
    li a0, 0x%(simctl)X
    sw zero, 0(a0)
""" % {"dma": CL_DMA, "src": SRC, "dst": DST, "dma_len": DMA_LEN, "udma": UDMA,
       "io_l2": IO_L2, "io_len": IO_LEN, "itc": FC_ITC, "simctl": SIMCTL, "eu": CL_EU}


def parse_vcd(text):
    """Signal name -> list of successive values, the $dumpvars one first."""
    names = {}
    values = {}
    body = False
    for line in text.splitlines():
        if line.startswith("$var"):
            _, _, _, sid, name, _ = line.split()
            names[sid] = name
            values[name] = []
        elif line.startswith("$enddefinitions"):
            body = True
        elif not body or not line or line[0] in "#$":
            continue
        elif line[0] == "b":
            bits, sid = line[1:].split()
            values[names[sid]].append(int(bits, 2))
        else:
            values[names[line[1:]]].append(int(line[0]))
    return values


def test_vcd_busy_flags_rise_and_fall():
    plat = build_pulp()
    stream = io.StringIO()
    VcdWriter(stream).attach(plat)
    program = assemble(GUEST, origin=L2)
    for addr, word in program.words.items():
        plat.poke(addr, word.to_bytes(4, "little"))
    block = bytes((7 * i + 3) & 0xFF for i in range(DMA_LEN))
    io_data = bytes((5 * i + 1) & 0xFF for i in range(IO_LEN))
    plat.poke(SRC, block)
    plat.poke(HYPER, io_data)
    plat.set_entry(program.entry)
    assert plat.run(max_cycles=200_000) == 0
    assert plat.peek(DST, DMA_LEN) == block
    assert plat.peek(IO_L2, IO_LEN) == io_data

    values = parse_vcd(stream.getvalue())
    assert values["cluster.dma.busy"] == [0, 1, 0]
    assert values["udma.busy"] == [0, 1, 0]
    assert values["cluster.accel.busy"] == [0]


TRACE_LINE = re.compile(r"^(\d+)ps (\w+):(\d+) \[([^\]]+)\] .+$")


class OrderedVcd(VcdWriter):
    """A VcdWriter that records each change dated before its last timestamp."""

    def __init__(self, stream):
        super().__init__(stream)
        self.late = []

    def change(self, name, value, time_ps):
        if time_ps < self.time:
            self.late.append((name, time_ps, self.time))
        super().change(name, value, time_ps)


def load_guest(plat):
    """Load GUEST and its input blocks; returns the cycle cap."""
    program = assemble(GUEST, origin=L2)
    for addr, word in program.words.items():
        plat.poke(addr, word.to_bytes(4, "little"))
    plat.poke(SRC, bytes((7 * i + 3) & 0xFF for i in range(DMA_LEN)))
    plat.poke(HYPER, bytes((5 * i + 1) & 0xFF for i in range(IO_LEN)))
    plat.set_entry(program.entry)
    return 200_000


def test_a_device_traced_from_another_domain_prints_its_own_cycle():
    # the FC's write in the soc domain starts the micro-DMA, whose periph
    # counter last moved at reset; 245000 ps is periph cycle 25
    plat = build_pulp()
    stream = io.StringIO()
    plat.trace_sink = TraceSink(["udma"], stream)
    assert plat.run(max_cycles=load_guest(plat)) == 0
    assert stream.getvalue().splitlines()[0] == (
        "245000ps periph:25 [udma] start rx l2=0x1c009000 ext=0x00000000 len=64")


def prepared(name):
    """(platform, cycle cap, check) for a traced run: GUEST for "tracing",
    else benchmark guest `name` at its tiny size on seed 1.  `check(status)`
    lists the run's failures."""
    if name == "tracing":
        plat = build_pulp()
        return plat, load_guest(plat), lambda status: [] if status == 0 else [status]
    guest = run.guests.WORKLOADS[name](1, run.TINY_SIZES[name])
    plat, program, _ = run.setup(guest)
    return plat, guest.max_cycles(), lambda status: guest.check(plat, status, program)


@pytest.mark.parametrize("name", sorted(run.guests.WORKLOADS) + ["tracing"])
def test_trace_lines_and_vcd_changes_parse_back_in_time_order(name):
    plat, max_cycles, check = prepared(name)
    trace = io.StringIO()
    plat.trace_sink = TraceSink(["*"], trace)
    vcd = OrderedVcd(io.StringIO())
    vcd.attach(plat)
    plat.reset()
    assert check(plat.run(max_cycles=max_cycles)) == []

    lines = trace.getvalue().splitlines()
    assert len(lines) == plat.trace_sink.lines > 0
    last = 0
    for line in lines:
        m = TRACE_LINE.match(line)
        assert m, line
        ps, cycle = int(m[1]), int(m[3])
        assert cycle == -(-ps // plat.domains[m[2]].period_ps), line
        assert ps >= last, line
        last = ps
    assert vcd.late == []
